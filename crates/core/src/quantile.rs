//! Quantile-tracking estimation: explicit feedback + similarity groups with
//! a tunable risk dial.
//!
//! [`crate::last_instance::LastInstance`] serves the *maximum* of a recent
//! window — the zero-risk choice. When a group's usage has outliers (one
//! member occasionally spikes), reserving for the max wastes the very
//! capacity estimation exists to reclaim. This estimator serves a
//! configurable *quantile* of the observed usage instead: `q = 1.0`
//! reproduces max-of-window; `q = 0.9` accepts that roughly one execution
//! in ten retries in exchange for tighter packing. The paper's §2.3
//! observation that group heterogeneity degrades point estimates is what
//! motivates estimating the usage *distribution* rather than its last
//! value.

use std::collections::VecDeque;

use resmatch_cluster::Demand;
use resmatch_stats::Summary;
use resmatch_workload::Job;

use crate::similarity::{GroupTable, SimilarityPolicy};
use crate::traits::{EstimateContext, EstimateScope, Feedback, ResourceEstimator};

/// Tunables for [`QuantileEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileConfig {
    /// Usage quantile to reserve for, in `(0, 1]`; 1.0 = window maximum.
    pub quantile: f64,
    /// Observations retained per group.
    pub window: usize,
    /// Safety multiplier on the quantile (>= 1).
    pub margin: f64,
    /// Minimum observations before estimating below the request.
    pub min_observations: usize,
    /// Similarity keying.
    pub policy: SimilarityPolicy,
}

impl Default for QuantileConfig {
    fn default() -> Self {
        QuantileConfig {
            quantile: 1.0,
            window: 32,
            margin: 1.1,
            min_observations: 3,
            policy: SimilarityPolicy::UserAppRequest,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    observed_kb: VecDeque<u64>,
}

/// The quantile estimator.
pub struct QuantileEstimator {
    cfg: QuantileConfig,
    groups: GroupTable<GroupState>,
}

impl QuantileEstimator {
    /// Create with the given configuration.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn new(cfg: QuantileConfig) -> Self {
        assert!(
            cfg.quantile > 0.0 && cfg.quantile <= 1.0,
            "quantile must be in (0, 1]"
        );
        assert!(cfg.window >= 1, "window must be at least 1");
        assert!(cfg.margin >= 1.0, "margin must be at least 1");
        assert!(cfg.min_observations >= 1, "need at least one observation");
        let policy = cfg.policy;
        QuantileEstimator {
            cfg,
            groups: GroupTable::new(policy),
        }
    }

    /// Number of groups observed.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

impl ResourceEstimator for QuantileEstimator {
    fn name(&self) -> &'static str {
        "quantile"
    }

    fn estimate(&mut self, job: &Job, _ctx: &EstimateContext) -> Demand {
        let group = self
            .groups
            .get_or_insert_with(job, |_| GroupState::default());
        let request = job.requested_mem_kb;
        let mem_kb = if group.observed_kb.len() < self.cfg.min_observations {
            request
        } else {
            let values: Vec<f64> = group.observed_kb.iter().map(|&v| v as f64).collect();
            let summary = Summary::from_slice(&values);
            #[expect(
                clippy::expect_used,
                reason = "invariant: the observation window was checked non-empty above"
            )]
            let q = summary
                .percentile(self.cfg.quantile * 100.0)
                .expect("invariant: the observation window was checked non-empty above");
            ((q * self.cfg.margin).ceil() as u64).clamp(64.min(request), request)
        };
        Demand {
            mem_kb,
            disk_kb: job.requested_disk_kb,
            packages: job.requested_packages,
        }
    }

    fn feedback(&mut self, job: &Job, granted: &Demand, fb: &Feedback, _ctx: &EstimateContext) {
        let window = self.cfg.window;
        let Some(group) = self.groups.get_mut(job) else {
            return;
        };
        match fb {
            Feedback::Explicit {
                success: true,
                used,
            } if used.mem_kb > 0 => {
                group.observed_kb.push_back(used.mem_kb);
            }
            Feedback::Explicit { success: false, .. } | Feedback::Implicit { success: false } => {
                // A failure means the true peak exceeded what the granted
                // nodes offered: record that lower bound so the quantile
                // climbs past it (conservative: one step above granted).
                group
                    .observed_kb
                    .push_back(granted.mem_kb.saturating_mul(2));
            }
            Feedback::Implicit { success: true } | Feedback::Explicit { .. } => {}
        }
        while group.observed_kb.len() > window {
            group.observed_kb.pop_front();
        }
    }

    fn estimate_scope(&self, job: &Job) -> EstimateScope {
        // The observation window is per group; feedback only appends to the
        // fed-back job's own window.
        EstimateScope::Group(self.groups.policy().key(job).stable_hash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    const MB: u64 = 1024;

    fn job(used_mb: u64) -> Job {
        JobBuilder::new(1)
            .user(1)
            .app(1)
            .requested_mem_kb(32 * MB)
            .used_mem_kb(used_mb * MB)
            .build()
    }

    fn observe(est: &mut QuantileEstimator, used_mb: u64) {
        let ctx = EstimateContext::default();
        let j = job(used_mb);
        let d = est.estimate(&j, &ctx);
        est.feedback(
            &j,
            &d,
            &Feedback::explicit(true, Demand::memory(used_mb * MB)),
            &ctx,
        );
    }

    #[test]
    fn passes_request_until_enough_observations() {
        let mut e = QuantileEstimator::new(QuantileConfig::default());
        let ctx = EstimateContext::default();
        observe(&mut e, 4);
        observe(&mut e, 4);
        assert_eq!(e.estimate(&job(4), &ctx).mem_kb, 32 * MB);
        observe(&mut e, 4);
        assert!(e.estimate(&job(4), &ctx).mem_kb < 32 * MB);
    }

    #[test]
    fn max_quantile_covers_every_observation() {
        let mut e = QuantileEstimator::new(QuantileConfig::default());
        for used in [4, 9, 6, 5, 7] {
            observe(&mut e, used);
        }
        let d = e.estimate(&job(9), &EstimateContext::default());
        // q=1.0 with margin 1.1 over a max of 9 MB.
        assert!(d.mem_kb >= 9 * MB);
        assert!(d.mem_kb <= (10 * MB).max((9.0 * 1.1 * MB as f64).ceil() as u64));
    }

    #[test]
    fn lower_quantile_packs_tighter_than_max() {
        let make = |q: f64| {
            let mut e = QuantileEstimator::new(QuantileConfig {
                quantile: q,
                margin: 1.0,
                ..QuantileConfig::default()
            });
            // One outlier among many small observations.
            for used in [4, 4, 4, 4, 4, 4, 4, 4, 4, 30] {
                observe(&mut e, used);
            }
            e.estimate(&job(4), &EstimateContext::default()).mem_kb
        };
        let tight = make(0.8);
        let safe = make(1.0);
        assert!(tight < safe, "q=0.8 gives {tight}, q=1.0 gives {safe}");
        assert!(safe >= 30 * MB);
        assert!(tight <= 5 * MB);
    }

    #[test]
    fn failure_pushes_the_window_up() {
        let mut e = QuantileEstimator::new(QuantileConfig {
            min_observations: 1,
            margin: 1.0,
            ..QuantileConfig::default()
        });
        let ctx = EstimateContext::default();
        observe(&mut e, 4);
        let d = e.estimate(&job(20), &ctx);
        assert!(d.mem_kb < 20 * MB, "estimate trails the small history");
        // The 20 MB member fails on the small allocation.
        e.feedback(&job(20), &d, &Feedback::failure(), &ctx);
        let d2 = e.estimate(&job(20), &ctx);
        assert!(d2.mem_kb > d.mem_kb, "failure must raise the estimate");
    }

    #[test]
    fn estimates_respect_request() {
        let mut e = QuantileEstimator::new(QuantileConfig {
            margin: 10.0,
            min_observations: 1,
            ..QuantileConfig::default()
        });
        observe(&mut e, 30);
        let d = e.estimate(&job(30), &EstimateContext::default());
        assert_eq!(d.mem_kb, 32 * MB, "margin can never exceed the request");
    }

    #[test]
    fn window_evicts_old_observations() {
        let mut e = QuantileEstimator::new(QuantileConfig {
            window: 3,
            margin: 1.0,
            min_observations: 1,
            ..QuantileConfig::default()
        });
        observe(&mut e, 30);
        for _ in 0..3 {
            observe(&mut e, 4);
        }
        let d = e.estimate(&job(4), &EstimateContext::default());
        assert!(
            d.mem_kb <= 5 * MB,
            "the 30 MB observation must have aged out"
        );
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1]")]
    fn rejects_zero_quantile() {
        let _ = QuantileEstimator::new(QuantileConfig {
            quantile: 0.0,
            ..QuantileConfig::default()
        });
    }
}
