//! Online identification of similarity groups — the §4 future-work item.
//!
//! The paper determines its similarity key (user, application, requested
//! memory) *offline*, by trial and error over a historical trace, and lists
//! online identification as an open problem. This estimator solves it by
//! hierarchical refinement: it starts keying groups at the coarsest level
//! (per user), which maximizes how quickly feedback accumulates, and
//! *splits* a user's grouping to a finer key — (user, app), then
//! (user, app, requested memory) — when failures reveal the coarse group to
//! be heterogeneous (members with very different actual needs confusing one
//! shared estimate).
//!
//! Each level is a full [`SuccessiveApproximation`] instance; a user's jobs
//! are always routed to the estimator of that user's current level, so
//! refinement never discards other users' learning. Feedback that arrives
//! after a split lands in the coarse estimator's table, where the monotone
//! guards make it harmless.

use std::collections::HashMap;

use resmatch_cluster::{CapacityLadder, Demand};
use resmatch_workload::Job;

use crate::similarity::FnvBuildHasher;

use crate::similarity::SimilarityPolicy;
use crate::successive::{SuccessiveApproximation, SuccessiveConfig};
use crate::traits::{EstimateContext, Feedback, ResourceEstimator};

/// Tunables for [`AdaptiveSimilarity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Algorithm 1 parameters shared by every level.
    pub successive: SuccessiveConfig,
    /// *Unproductive* failures a user may accumulate at a level before
    /// their grouping is refined to the next finer key. A failure is
    /// unproductive when it throws the group's estimate all the way back to
    /// the user request — the group learned nothing, the signature of
    /// members with incompatible needs sharing one estimate. (Productive
    /// failures — Figure 7's probe overshoot that settles above actual
    /// usage — never trigger refinement.)
    pub split_after_failures: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            successive: SuccessiveConfig::default(),
            split_after_failures: 1,
        }
    }
}

/// Refinement levels, coarse to fine.
const LEVELS: [SimilarityPolicy; 3] = [
    SimilarityPolicy::User,
    SimilarityPolicy::UserApp,
    SimilarityPolicy::UserAppRequest,
];

/// The online-similarity estimator.
pub struct AdaptiveSimilarity {
    cfg: AdaptiveConfig,
    levels: Vec<SuccessiveApproximation>,
    /// Current refinement level and failure count at that level, per user.
    users: HashMap<u32, (usize, u64), FnvBuildHasher>,
}

impl AdaptiveSimilarity {
    /// Create for a cluster described by `ladder`.
    pub fn new(cfg: AdaptiveConfig, ladder: CapacityLadder) -> Self {
        let levels = LEVELS
            .iter()
            .map(|&policy| {
                SuccessiveApproximation::new(
                    SuccessiveConfig {
                        policy,
                        ..cfg.successive
                    },
                    ladder.clone(),
                )
            })
            .collect();
        AdaptiveSimilarity {
            cfg,
            levels,
            users: HashMap::default(),
        }
    }

    /// The refinement level a user currently keys at (0 = per-user,
    /// 2 = the paper's full key).
    pub fn user_level(&self, user: u32) -> usize {
        self.users.get(&user).map(|&(l, _)| l).unwrap_or(0)
    }

    /// How many users have been refined at least once.
    pub fn refined_users(&self) -> usize {
        self.users.values().filter(|&&(l, _)| l > 0).count()
    }
}

impl ResourceEstimator for AdaptiveSimilarity {
    fn name(&self) -> &'static str {
        "adaptive-similarity"
    }

    fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
        let level = self.user_level(job.user);
        self.levels[level].estimate(job, ctx)
    }

    fn feedback(&mut self, job: &Job, granted: &Demand, fb: &Feedback, ctx: &EstimateContext) {
        let level = self.users.entry(job.user).or_insert((0, 0)).0;
        self.levels[level].feedback(job, granted, fb, ctx);
        if !fb.is_success() {
            // Unproductive failure: the restore landed back at the request,
            // so the group retains no learned reduction — evidence the key
            // is too coarse for this user's mix of jobs.
            let unproductive = self.levels[level]
                .group_snapshot(job)
                .map(|s| s.estimate_kb >= job.requested_mem_kb as f64 * 0.999)
                .unwrap_or(false);
            if unproductive {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: the user's entry was inserted earlier in this call"
                )]
                let entry = self
                    .users
                    .get_mut(&job.user)
                    .expect("invariant: the user's entry was inserted earlier in this call");
                entry.1 += 1;
                if entry.1 >= self.cfg.split_after_failures && entry.0 + 1 < LEVELS.len() {
                    entry.0 += 1;
                    entry.1 = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    const MB: u64 = 1024;

    fn ladder() -> CapacityLadder {
        CapacityLadder::new(vec![32 * MB, 24 * MB, 16 * MB, 8 * MB, 4 * MB, 2 * MB])
    }

    fn estimator() -> AdaptiveSimilarity {
        AdaptiveSimilarity::new(AdaptiveConfig::default(), ladder())
    }

    fn job(id: u64, user: u32, app: u32, used_mb: u64) -> Job {
        JobBuilder::new(id)
            .user(user)
            .app(app)
            .requested_mem_kb(32 * MB)
            .used_mem_kb(used_mb * MB)
            .build()
    }

    /// Simulator-faithful cycle: success iff the ladder rung covering the
    /// demand also covers actual usage.
    fn cycle(est: &mut AdaptiveSimilarity, j: &Job) -> bool {
        let ctx = EstimateContext::default();
        let d = est.estimate(j, &ctx);
        let l = ladder();
        let node = l.round_up(d.mem_kb).unwrap_or(d.mem_kb);
        let ok = j.used_mem_kb <= node;
        est.feedback(
            j,
            &d,
            &if ok {
                Feedback::success()
            } else {
                Feedback::failure()
            },
            &ctx,
        );
        ok
    }

    #[test]
    fn homogeneous_user_stays_coarse() {
        // One user, one app, constant usage: the per-user group works and
        // no refinement happens.
        let mut est = estimator();
        for i in 0..20 {
            cycle(&mut est, &job(i, 1, 1, 5));
        }
        assert_eq!(est.user_level(1), 0);
        assert_eq!(est.refined_users(), 0);
    }

    #[test]
    fn heterogeneous_apps_force_refinement() {
        // One user running two very different apps: the shared per-user
        // estimate walks down for the light app and keeps starving the
        // heavy one → repeated failures → split to (user, app).
        let mut est = estimator();
        let mut failures = 0;
        for i in 0..40 {
            let j = if i % 2 == 0 {
                job(i, 1, 1, 2) // light app
            } else {
                job(i, 1, 2, 28) // heavy app
            };
            if !cycle(&mut est, &j) {
                failures += 1;
            }
        }
        assert!(
            est.user_level(1) >= 1,
            "user must refine after {failures} failures"
        );
        // After refinement the two apps learn independently: drive more
        // cycles and require both to succeed consistently at the end.
        let mut tail_failures = 0;
        for i in 100..140 {
            let j = if i % 2 == 0 {
                job(i, 1, 1, 2)
            } else {
                job(i, 1, 2, 28)
            };
            if !cycle(&mut est, &j) {
                tail_failures += 1;
            }
        }
        assert!(
            tail_failures <= 2,
            "refined groups must stop the failure churn, saw {tail_failures}"
        );
    }

    #[test]
    fn refinement_is_per_user() {
        let mut est = estimator();
        // User 1 is heterogeneous, user 2 is not.
        for i in 0..30 {
            let j = if i % 2 == 0 {
                job(i, 1, 1, 2)
            } else {
                job(i, 1, 2, 28)
            };
            cycle(&mut est, &j);
            cycle(&mut est, &job(1_000 + i, 2, 1, 5));
        }
        assert!(est.user_level(1) >= 1);
        assert_eq!(est.user_level(2), 0);
        assert_eq!(est.refined_users(), 1);
    }

    #[test]
    fn refinement_caps_at_full_key() {
        let mut est = AdaptiveSimilarity::new(
            AdaptiveConfig {
                split_after_failures: 1,
                ..AdaptiveConfig::default()
            },
            ladder(),
        );
        let ctx = EstimateContext::default();
        // Hammer failures directly; the level must stop at 2.
        for i in 0..10 {
            let j = job(i, 1, 1, 30);
            let d = est.estimate(&j, &ctx);
            est.feedback(&j, &d, &Feedback::failure(), &ctx);
        }
        assert_eq!(est.user_level(1), 2);
    }

    #[test]
    fn estimates_respect_request_at_every_level() {
        let mut est = AdaptiveSimilarity::new(
            AdaptiveConfig {
                split_after_failures: 1,
                ..AdaptiveConfig::default()
            },
            ladder(),
        );
        let ctx = EstimateContext::default();
        for i in 0..30 {
            let j = job(i, 1, (i % 3) as u32, (i % 30) + 1);
            let d = est.estimate(&j, &ctx);
            assert!(d.mem_kb <= j.requested_mem_kb);
            let ok = i % 4 != 0;
            est.feedback(
                &j,
                &d,
                &if ok {
                    Feedback::success()
                } else {
                    Feedback::failure()
                },
                &ctx,
            );
        }
    }
}
