//! Multi-resource estimation via coordinate descent — the §2.3 extension.
//!
//! Algorithm 1 handles a single resource: "if one would attempt to use this
//! algorithm for simultaneous estimation of several resources, modifying
//! several of them at each step, it would be difficult to know which of
//! these resources causes the algorithm to terminate. The algorithm can be
//! generalized for multiple resources using methods of multidimensional
//! optimization." This estimator is that generalization for the paper's two
//! qualitatively different resource classes:
//!
//! - **memory** (a scalar) is estimated by the inner
//!   [`SuccessiveApproximation`];
//! - **software-package prerequisites** (a set; the paper's "ignore some
//!   software packages that are defined as prerequisites") are estimated by
//!   trial removal, one package at a time.
//!
//! Coordinate discipline: package trials begin only after the group's memory
//! estimate has warmed up (a few successes or its first failure), and while
//! a package trial is in flight the execution's feedback is attributed to
//! the *package* coordinate, not the memory one — so a failure is never
//! blamed on the wrong resource.

use resmatch_cluster::{CapacityLadder, Demand};
use resmatch_workload::Job;

use crate::similarity::GroupTable;
use crate::successive::{SuccessiveApproximation, SuccessiveConfig};
use crate::traits::{EstimateContext, Feedback, ResourceEstimator};

/// Tunables for [`MultiResourceEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiResourceConfig {
    /// Inner memory-estimation parameters.
    pub memory: SuccessiveConfig,
    /// Memory successes required before package trials start.
    pub package_warmup: u64,
}

impl Default for MultiResourceConfig {
    fn default() -> Self {
        MultiResourceConfig {
            memory: SuccessiveConfig::default(),
            package_warmup: 3,
        }
    }
}

#[derive(Debug, Clone)]
struct PkgState {
    /// Packages currently believed necessary (starts at the request).
    estimate_mask: u32,
    /// Packages confirmed necessary by a failed removal.
    needed: u32,
    /// The single package bit under trial, if any.
    trying: Option<u32>,
}

/// The multi-resource estimator.
pub struct MultiResourceEstimator {
    cfg: MultiResourceConfig,
    memory: SuccessiveApproximation,
    packages: GroupTable<PkgState>,
}

impl MultiResourceEstimator {
    /// Create for a cluster described by `ladder`.
    pub fn new(cfg: MultiResourceConfig, ladder: CapacityLadder) -> Self {
        let policy = cfg.memory.policy;
        MultiResourceEstimator {
            cfg,
            memory: SuccessiveApproximation::new(cfg.memory, ladder),
            packages: GroupTable::new(policy),
        }
    }

    /// The group's current package estimate, if it exists.
    pub fn package_mask(&self, job: &Job) -> Option<u32> {
        self.packages.get(job).map(|p| p.estimate_mask)
    }

    /// Access the inner memory estimator (inspection).
    pub fn memory_estimator(&self) -> &SuccessiveApproximation {
        &self.memory
    }

    fn memory_warm(&self, job: &Job) -> bool {
        self.memory
            .group_snapshot(job)
            .map(|s| s.successes >= self.cfg.package_warmup || s.failures > 0)
            .unwrap_or(false)
    }
}

impl ResourceEstimator for MultiResourceEstimator {
    fn name(&self) -> &'static str {
        "multi-resource"
    }

    fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
        let mem = self.memory.estimate(job, ctx);
        let warm = self.memory_warm(job);
        let group = self.packages.get_or_insert_with(job, |j| PkgState {
            estimate_mask: j.requested_packages,
            needed: 0,
            trying: None,
        });
        // Start a removal trial only when memory is settled and no trial is
        // pending: the highest not-yet-confirmed package goes first.
        if warm && group.trying.is_none() {
            let candidates = group.estimate_mask & !group.needed;
            if candidates != 0 {
                let bit = 1u32 << (31 - candidates.leading_zeros());
                group.trying = Some(bit);
            }
        }
        let packages = match group.trying {
            Some(bit) => group.estimate_mask & !bit,
            None => group.estimate_mask,
        };
        Demand {
            mem_kb: mem.mem_kb,
            disk_kb: job.requested_disk_kb,
            packages,
        }
    }

    fn feedback(&mut self, job: &Job, granted: &Demand, fb: &Feedback, ctx: &EstimateContext) {
        let is_trial = self
            .packages
            .get(job)
            .and_then(|g| {
                g.trying
                    .map(|bit| granted.packages == g.estimate_mask & !bit)
            })
            .unwrap_or(false);
        if is_trial {
            // Coordinate attribution: this execution tested a package
            // removal, so its outcome belongs to the package coordinate.
            #[expect(
                clippy::expect_used,
                reason = "invariant: is_trial is only true when the group exists"
            )]
            let group = self
                .packages
                .get_mut(job)
                .expect("invariant: is_trial is only true when the group exists");
            #[expect(
                clippy::expect_used,
                reason = "invariant: is_trial is only true when a trial bit is set"
            )]
            let bit = group
                .trying
                .take()
                .expect("invariant: is_trial is only true when a trial bit is set");
            if fb.is_success() {
                group.estimate_mask &= !bit;
            } else {
                group.needed |= bit;
            }
            return;
        }
        // Explicit feedback short-circuits trial-and-error for packages:
        // keep only packages the job actually exercised (plus any already
        // confirmed needed — monitoring can miss lazily loaded ones).
        if let Feedback::Explicit {
            success: true,
            used,
        } = fb
        {
            if let Some(group) = self.packages.get_mut(job) {
                group.estimate_mask &= used.packages | group.needed;
            }
        }
        self.memory.feedback(job, granted, fb, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    const MB: u64 = 1024;

    fn job(req_mb: u64, used_mb: u64, req_pkg: u32, used_pkg: u32) -> Job {
        JobBuilder::new(1)
            .user(1)
            .app(1)
            .requested_mem_kb(req_mb * MB)
            .used_mem_kb(used_mb * MB)
            .requested_packages(req_pkg)
            .used_packages(used_pkg)
            .build()
    }

    fn estimator() -> MultiResourceEstimator {
        MultiResourceEstimator::new(
            MultiResourceConfig::default(),
            CapacityLadder::new(vec![32 * MB, 16 * MB, 8 * MB, 4 * MB]),
        )
    }

    /// One cycle on a notional cluster whose nodes all have 32 MB and every
    /// package installed: memory always suffices (the ladder rounds any
    /// estimate up to a covering rung), so success hinges on the granted
    /// package mask covering actual use.
    fn cycle(est: &mut MultiResourceEstimator, j: &Job) -> (Demand, bool) {
        let ctx = EstimateContext::default();
        let d = est.estimate(j, &ctx);
        let pkg_ok = (j.used_packages & !d.packages) == 0;
        let node_mem_kb = 32 * MB;
        let success = pkg_ok && j.used_mem_kb <= node_mem_kb;
        let fb = if success {
            Feedback::success()
        } else {
            Feedback::failure()
        };
        est.feedback(j, &d, &fb, &ctx);
        (d, success)
    }

    #[test]
    fn delegates_memory_to_successive() {
        let mut est = estimator();
        let j = job(32, 32, 0, 0); // memory fully used; no packages
        let ctx = EstimateContext::default();
        let d1 = est.estimate(&j, &ctx);
        assert_eq!(d1.mem_kb, 32 * MB);
        est.feedback(&j, &d1, &Feedback::success(), &ctx);
        let d2 = est.estimate(&j, &ctx);
        assert!(d2.mem_kb < d1.mem_kb, "successive descent must engage");
    }

    #[test]
    fn packages_untouched_until_memory_warm() {
        let mut est = estimator();
        let j = job(32, 4, 0b111, 0b001);
        let ctx = EstimateContext::default();
        let d = est.estimate(&j, &ctx);
        assert_eq!(d.packages, 0b111, "cold group must not drop packages");
        est.feedback(&j, &d, &Feedback::success(), &ctx);
        let d = est.estimate(&j, &ctx);
        assert_eq!(d.packages, 0b111, "one success is not warm yet");
        est.feedback(&j, &d, &Feedback::success(), &ctx);
    }

    #[test]
    fn trial_removal_finds_needed_set() {
        let mut est = estimator();
        let j = job(32, 4, 0b111, 0b001);
        for _ in 0..20 {
            cycle(&mut est, &j);
        }
        // Bits 2 and 1 are droppable; bit 0 is exercised and must survive.
        assert_eq!(est.package_mask(&j), Some(0b001));
        let d = est.estimate(&j, &EstimateContext::default());
        assert_eq!(d.packages & 0b001, 0b001);
    }

    #[test]
    fn package_failure_not_blamed_on_memory() {
        let mut est = estimator();
        // Memory settles immediately (usage = request rung), every package
        // is needed, so the package trials all fail.
        let j = job(32, 4, 0b1, 0b1);
        let ctx = EstimateContext::default();
        // Warm up memory with three clean cycles.
        for _ in 0..3 {
            let d = est.estimate(&j, &ctx);
            est.feedback(&j, &d, &Feedback::success(), &ctx);
        }
        let mem_before = est.memory_estimator().group_snapshot(&j).unwrap();
        // Next estimate carries the package trial; fail it.
        let d = est.estimate(&j, &ctx);
        assert_eq!(d.packages, 0, "trial must drop the only package");
        est.feedback(&j, &d, &Feedback::failure(), &ctx);
        let mem_after = est.memory_estimator().group_snapshot(&j).unwrap();
        assert_eq!(
            mem_before.failures, mem_after.failures,
            "memory coordinate must not absorb a package failure"
        );
        // The package is now pinned; no further trials touch it.
        let d = est.estimate(&j, &ctx);
        assert_eq!(d.packages, 0b1);
    }

    #[test]
    fn explicit_feedback_short_circuits_packages() {
        let mut est = estimator();
        let j = job(32, 4, 0b1111, 0b0011);
        let ctx = EstimateContext::default();
        let d = est.estimate(&j, &ctx);
        est.feedback(
            &j,
            &d,
            &Feedback::explicit(true, Demand::new(4 * MB, 0, 0b0011)),
            &ctx,
        );
        assert_eq!(est.package_mask(&j), Some(0b0011));
    }

    #[test]
    fn jobs_without_packages_never_trial() {
        let mut est = estimator();
        let j = job(32, 4, 0, 0);
        for _ in 0..10 {
            let (d, _) = cycle(&mut est, &j);
            assert_eq!(d.packages, 0);
        }
    }
}
