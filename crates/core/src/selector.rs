//! Per-group estimator selection — an ensemble over the Table 1 matrix.
//!
//! The paper's Table 1 presents its four algorithms as alternatives chosen
//! *a priori* by deployment circumstances. In practice different similarity
//! groups favor different estimators: tight groups love aggressive
//! successive approximation, heterogeneous ones need the robust bracket.
//! [`EstimatorSelector`] learns the choice *per group* as a bandit: every
//! candidate estimator observes all feedback (they are cheap, pure-state
//! learners), but each group's submissions are served by the candidate with
//! the best exponentially weighted reward — `1 − granted/request` on
//! success, a fixed penalty on failure — with a round-robin warm-up so
//! every candidate gets scored before exploitation starts.

use std::collections::HashMap;

use resmatch_cluster::Demand;
use resmatch_workload::{Job, JobId};

use crate::similarity::{FnvBuildHasher, GroupTable, SimilarityPolicy};
use crate::traits::{EstimateContext, Feedback, ResourceEstimator};

/// Tunables for [`EstimatorSelector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorConfig {
    /// Scored plays each candidate must accumulate per group before
    /// exploitation starts. Counted on *feedback*, not on estimates: a live
    /// scheduler may re-estimate a queued job many times before it runs,
    /// and those re-estimates must not burn the exploration budget.
    pub warmup_rounds: usize,
    /// EWMA smoothing for candidate scores.
    pub score_alpha: f64,
    /// Penalty charged to a candidate whose estimate failed.
    pub failure_penalty: f64,
    /// Similarity keying for the per-group scores.
    pub policy: SimilarityPolicy,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            warmup_rounds: 2,
            score_alpha: 0.3,
            failure_penalty: 2.0,
            policy: SimilarityPolicy::UserAppRequest,
        }
    }
}

#[derive(Debug, Clone)]
struct GroupScores {
    /// EWMA score per candidate (index-aligned).
    scores: Vec<f64>,
    /// Scored plays per candidate.
    plays: Vec<u64>,
}

/// The ensemble estimator.
pub struct EstimatorSelector {
    cfg: SelectorConfig,
    candidates: Vec<Box<dyn ResourceEstimator>>,
    groups: GroupTable<GroupScores>,
    /// Which candidate served each in-flight job.
    pending: HashMap<JobId, usize, FnvBuildHasher>,
}

impl EstimatorSelector {
    /// Create over a non-empty candidate list.
    ///
    /// # Panics
    /// Panics on an empty candidate list or out-of-range configuration.
    pub fn new(cfg: SelectorConfig, candidates: Vec<Box<dyn ResourceEstimator>>) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        assert!(
            cfg.score_alpha > 0.0 && cfg.score_alpha <= 1.0,
            "score alpha must be in (0, 1]"
        );
        let policy = cfg.policy;
        EstimatorSelector {
            cfg,
            candidates,
            groups: GroupTable::new(policy),
            pending: HashMap::default(),
        }
    }

    /// Candidate names, index-aligned with scores.
    pub fn candidate_names(&self) -> Vec<&'static str> {
        self.candidates.iter().map(|c| c.name()).collect()
    }

    /// The candidate index a group currently prefers, if the group exists.
    pub fn preferred_candidate(&self, job: &Job) -> Option<usize> {
        self.groups.get(job).map(|g| {
            let mut best = 0;
            for (i, &s) in g.scores.iter().enumerate() {
                if s > g.scores[best] {
                    best = i;
                }
            }
            best
        })
    }
}

impl ResourceEstimator for EstimatorSelector {
    fn name(&self) -> &'static str {
        "estimator-selector"
    }

    fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
        let n = self.candidates.len();
        let warmup = self.cfg.warmup_rounds as u64;
        let group = self.groups.get_or_insert_with(job, |_| GroupScores {
            scores: vec![0.0; n],
            plays: vec![0; n],
        });
        // Explore: any candidate short of its warm-up plays goes first
        // (least-played wins, ties by index). Exploit: best EWMA score.
        #[expect(
            clippy::expect_used,
            reason = "invariant: a selector always has at least one candidate"
        )]
        let least_played = (0..n)
            .min_by_key(|&i| group.plays[i])
            .expect("invariant: a selector always has at least one candidate");
        let choice = if group.plays[least_played] < warmup {
            least_played
        } else {
            let mut best = 0;
            for (i, &s) in group.scores.iter().enumerate() {
                if s > group.scores[best] {
                    best = i;
                }
            }
            best
        };
        self.pending.insert(job.id, choice);
        self.candidates[choice].estimate(job, ctx)
    }

    fn feedback(&mut self, job: &Job, granted: &Demand, fb: &Feedback, ctx: &EstimateContext) {
        // Every candidate learns from every outcome; granted capacity and
        // the result are facts about the world, not about the chooser.
        for candidate in &mut self.candidates {
            candidate.feedback(job, granted, fb, ctx);
        }
        // Only the candidate that actually served the job is scored on it.
        let Some(choice) = self.pending.remove(&job.id) else {
            return;
        };
        let reward = if fb.is_success() {
            if job.requested_mem_kb == 0 {
                0.0
            } else {
                1.0 - granted.mem_kb as f64 / job.requested_mem_kb as f64
            }
        } else {
            -self.cfg.failure_penalty
        };
        if let Some(group) = self.groups.get_mut(job) {
            group.plays[choice] += 1;
            let s = &mut group.scores[choice];
            *s += self.cfg.score_alpha * (reward - *s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::PassThrough;
    use crate::robust::{RobustBisection, RobustConfig};
    use crate::successive::{SuccessiveApproximation, SuccessiveConfig};
    use resmatch_cluster::CapacityLadder;
    use resmatch_workload::job::JobBuilder;

    const MB: u64 = 1024;

    fn ladder() -> CapacityLadder {
        CapacityLadder::new(vec![32 * MB, 24 * MB, 16 * MB, 8 * MB, 4 * MB])
    }

    fn selector() -> EstimatorSelector {
        EstimatorSelector::new(
            SelectorConfig::default(),
            vec![
                Box::new(PassThrough),
                Box::new(SuccessiveApproximation::new(
                    SuccessiveConfig::default(),
                    ladder(),
                )),
                Box::new(RobustBisection::new(RobustConfig::default())),
            ],
        )
    }

    fn job(id: u64, used_mb: u64) -> resmatch_workload::Job {
        JobBuilder::new(id)
            .user(1)
            .app(1)
            .requested_mem_kb(32 * MB)
            .used_mem_kb(used_mb * MB)
            .build()
    }

    /// Simulator-faithful cycle.
    fn cycle(sel: &mut EstimatorSelector, j: &resmatch_workload::Job) -> (u64, bool) {
        let ctx = EstimateContext::default();
        let d = sel.estimate(j, &ctx);
        let node = ladder().round_up(d.mem_kb).unwrap_or(d.mem_kb);
        let ok = j.used_mem_kb <= node;
        sel.feedback(
            j,
            &d,
            &if ok {
                Feedback::success()
            } else {
                Feedback::failure()
            },
            &ctx,
        );
        (d.mem_kb, ok)
    }

    #[test]
    fn converges_away_from_pass_through_when_reduction_pays() {
        let mut sel = selector();
        for i in 0..60 {
            cycle(&mut sel, &job(i, 5));
        }
        let preferred = sel.preferred_candidate(&job(999, 5)).unwrap();
        let names = sel.candidate_names();
        assert_ne!(
            names[preferred], "pass-through",
            "a reducible group must prefer a reducing estimator"
        );
        // And the served estimates reflect that: the steady-state demand is
        // far below the request.
        let (demand, ok) = cycle(&mut sel, &job(1_000, 5));
        assert!(ok);
        assert!(demand <= 16 * MB, "steady-state demand {demand}");
    }

    #[test]
    fn estimates_never_exceed_request() {
        let mut sel = selector();
        for i in 0..40 {
            let j = job(i, (i % 31) + 1);
            let ctx = EstimateContext::default();
            let d = sel.estimate(&j, &ctx);
            assert!(d.mem_kb <= j.requested_mem_kb);
            sel.feedback(&j, &d, &Feedback::success(), &ctx);
        }
    }

    #[test]
    fn warmup_round_robins_every_candidate() {
        let mut sel = selector();
        let ctx = EstimateContext::default();
        // First 3 submissions (warmup round 1): each candidate serves once.
        // Candidate 0 is pass-through (32 MB), candidate 1 successive
        // (32 MB first time), candidate 2 robust (32 MB first time) — so
        // watch the pending map instead of demands.
        for i in 0..3 {
            let j = job(i, 5);
            let _ = sel.estimate(&j, &ctx);
            assert_eq!(sel.pending[&j.id], i as usize % 3);
            sel.feedback(&j, &Demand::memory(32 * MB), &Feedback::success(), &ctx);
        }
    }

    #[test]
    fn groups_score_independently() {
        let mut sel = selector();
        // Group A is reducible; group B uses everything.
        for i in 0..60 {
            cycle(&mut sel, &job(i, 4));
            let hungry = JobBuilder::new(10_000 + i)
                .user(2)
                .app(2)
                .requested_mem_kb(32 * MB)
                .used_mem_kb(32 * MB)
                .build();
            cycle(&mut sel, &hungry);
        }
        let hungry_probe = JobBuilder::new(1)
            .user(2)
            .app(2)
            .requested_mem_kb(32 * MB)
            .used_mem_kb(32 * MB)
            .build();
        let a = sel.preferred_candidate(&job(1, 4)).unwrap();
        let b = sel.preferred_candidate(&hungry_probe).unwrap();
        // The hungry group's reducing candidates all score <= 0 (failures
        // or zero saving), so its preference must differ from the
        // reducible group's or sit at a non-negative scorer.
        assert!(a != b || sel.candidate_names()[b] == "pass-through");
    }

    #[test]
    fn feedback_without_pending_is_ignored() {
        let mut sel = selector();
        let ctx = EstimateContext::default();
        sel.feedback(&job(1, 5), &Demand::memory(1), &Feedback::failure(), &ctx);
        assert!(sel.preferred_candidate(&job(1, 5)).is_none());
    }

    #[test]
    #[should_panic(expected = "need at least one candidate")]
    fn rejects_empty_candidates() {
        let _ = EstimatorSelector::new(SelectorConfig::default(), vec![]);
    }
}
