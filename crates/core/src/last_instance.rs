//! Last-instance identification: explicit feedback + similarity groups.
//!
//! Table 1's explicit-feedback/similarity quadrant. "If explicit feedback is
//! available, the resource estimation can be performed by simply using the
//! actual resources used by the previous job submission as the estimated
//! resources for the next job submission in the same similarity group"
//! (§2.3). Two production hardenings are configurable:
//!
//! - `window`: estimate the *maximum* usage over the last `window`
//!   observations instead of the single last one, damping within-group
//!   variance (window = 1 is the paper-literal rule);
//! - `margin`: multiply the estimate by a safety factor ≥ 1.
//!
//! Estimates are always clamped to the job's request, and a failed execution
//! (memory exhausted despite explicit feedback) resets the group to the full
//! request — explicit feedback makes that attribution unambiguous.

use std::collections::VecDeque;

use resmatch_cluster::Demand;
use resmatch_workload::Job;
use serde::{Deserialize, Serialize};

use crate::similarity::{GroupTable, SimilarityKey, SimilarityPolicy};
use crate::snapshot::{SnapshotError, SnapshotState};
use crate::traits::{EstimateContext, EstimateScope, Feedback, ResourceEstimator};

/// Tunables for [`LastInstance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LastInstanceConfig {
    /// How many recent observations the estimate maximizes over (>= 1).
    pub window: usize,
    /// Safety multiplier applied to the observed usage (>= 1).
    pub margin: f64,
    /// Similarity keying.
    pub policy: SimilarityPolicy,
}

impl Default for LastInstanceConfig {
    fn default() -> Self {
        LastInstanceConfig {
            window: 1,
            margin: 1.0,
            policy: SimilarityPolicy::UserAppRequest,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    recent_used_kb: VecDeque<u64>,
    /// Set when an execution failed; the next estimate reverts to the
    /// request until a fresh successful observation arrives.
    poisoned: bool,
}

/// A persisted group: key plus the observation window and poison bit, the
/// durable form of [`LastInstance`]'s per-group state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistedLastGroup {
    /// Similarity key the state belongs to.
    pub key: SimilarityKey,
    /// Recent successful peak usages, oldest first (at most `window`).
    pub recent_used_kb: Vec<u64>,
    /// Whether the group is poisoned (reverting to the request) pending a
    /// clean run.
    pub poisoned: bool,
}

/// The last-instance estimator.
pub struct LastInstance {
    cfg: LastInstanceConfig,
    groups: GroupTable<GroupState>,
}

impl LastInstance {
    /// Create with the given configuration.
    ///
    /// # Panics
    /// Panics when `window == 0` or `margin < 1`.
    pub fn new(cfg: LastInstanceConfig) -> Self {
        assert!(cfg.window >= 1, "window must be at least 1");
        assert!(cfg.margin >= 1.0, "margin must be at least 1");
        let policy = cfg.policy;
        LastInstance {
            cfg,
            groups: GroupTable::new(policy),
        }
    }

    /// Number of groups observed.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Export every group's observation window, sorted by key for
    /// deterministic output.
    pub fn export_state(&self) -> Vec<PersistedLastGroup> {
        let mut out: Vec<PersistedLastGroup> = self
            .groups
            .iter()
            .map(|(key, g)| PersistedLastGroup {
                key: *key,
                recent_used_kb: g.recent_used_kb.iter().copied().collect(),
                poisoned: g.poisoned,
            })
            .collect();
        out.sort_by_key(|e| e.key);
        out
    }

    /// Restore previously exported state (replacing any existing entry for
    /// the same key). Windows longer than the configured `window` keep
    /// their most recent entries.
    pub fn import_state(&mut self, entries: &[PersistedLastGroup]) {
        for e in entries {
            let mut recent: VecDeque<u64> = e.recent_used_kb.iter().copied().collect();
            while recent.len() > self.cfg.window {
                recent.pop_front();
            }
            self.groups.insert_key(
                e.key,
                GroupState {
                    recent_used_kb: recent,
                    poisoned: e.poisoned,
                },
            );
        }
    }
}

impl ResourceEstimator for LastInstance {
    fn name(&self) -> &'static str {
        "last-instance"
    }

    fn estimate(&mut self, job: &Job, _ctx: &EstimateContext) -> Demand {
        let group = self
            .groups
            .get_or_insert_with(job, |_| GroupState::default());
        let request = job.requested_mem_kb;
        let mem_kb = if group.poisoned || group.recent_used_kb.is_empty() {
            request
        } else {
            #[expect(
                clippy::expect_used,
                reason = "invariant: recent_used_kb was checked non-empty above"
            )]
            let peak = *group
                .recent_used_kb
                .iter()
                .max()
                .expect("invariant: recent_used_kb was checked non-empty above");
            ((peak as f64 * self.cfg.margin).ceil() as u64).min(request)
        };
        Demand {
            mem_kb,
            disk_kb: job.requested_disk_kb,
            packages: job.requested_packages,
        }
    }

    fn feedback(&mut self, job: &Job, _granted: &Demand, fb: &Feedback, _ctx: &EstimateContext) {
        let window = self.cfg.window;
        let Some(group) = self.groups.get_mut(job) else {
            return;
        };
        match fb {
            Feedback::Explicit { success, used } => {
                if *success {
                    group.poisoned = false;
                    group.recent_used_kb.push_back(used.mem_kb);
                    while group.recent_used_kb.len() > window {
                        group.recent_used_kb.pop_front();
                    }
                } else {
                    // Under-allocation despite explicit feedback: the
                    // recorded peak is a truncated measurement. Revert to
                    // the request until a clean run is observed.
                    group.poisoned = true;
                    group.recent_used_kb.clear();
                }
            }
            Feedback::Implicit { success } => {
                // This estimator is designed for explicit feedback; an
                // implicit failure still poisons the group conservatively.
                if !*success {
                    group.poisoned = true;
                    group.recent_used_kb.clear();
                }
            }
        }
    }

    fn estimate_scope(&self, job: &Job) -> EstimateScope {
        // The usage window and poison bit live per group; feedback only
        // mutates the fed-back job's own group.
        EstimateScope::Group(self.groups.policy().key(job).stable_hash())
    }

    fn snapshot_state(&self) -> Option<SnapshotState> {
        Some(SnapshotState::LastInstanceV1 {
            groups: self.export_state(),
        })
    }

    fn restore_state(&mut self, state: SnapshotState) -> Result<(), SnapshotError> {
        match state {
            SnapshotState::LastInstanceV1 { groups } => {
                self.import_state(&groups);
                Ok(())
            }
            other => Err(SnapshotError::Mismatch {
                expected: "last-instance-v1",
                found: other.kind(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    fn job(used: u64) -> Job {
        JobBuilder::new(1)
            .user(1)
            .app(1)
            .requested_mem_kb(32_768)
            .used_mem_kb(used)
            .build()
    }

    fn explicit_ok(used: u64) -> Feedback {
        Feedback::explicit(true, Demand::memory(used))
    }

    #[test]
    fn first_submission_uses_request() {
        let mut e = LastInstance::new(LastInstanceConfig::default());
        let d = e.estimate(&job(5_000), &EstimateContext::default());
        assert_eq!(d.mem_kb, 32_768);
    }

    #[test]
    fn second_submission_uses_last_observation() {
        let mut e = LastInstance::new(LastInstanceConfig::default());
        let ctx = EstimateContext::default();
        let j = job(5_000);
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(5_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 5_000);
    }

    #[test]
    fn window_takes_max_of_recent() {
        let mut e = LastInstance::new(LastInstanceConfig {
            window: 3,
            ..LastInstanceConfig::default()
        });
        let ctx = EstimateContext::default();
        let j = job(0);
        for used in [4_000, 9_000, 6_000] {
            let d = e.estimate(&j, &ctx);
            e.feedback(&j, &d, &explicit_ok(used), &ctx);
        }
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 9_000);
        // A fourth observation evicts 4_000; max of {9_000, 6_000, 2_000}.
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(2_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 9_000);
        // One more evicts 9_000, leaving {6_000, 2_000, 2_000}.
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(2_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 6_000);
        // And another evicts 6_000.
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(2_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 2_000);
    }

    #[test]
    fn margin_inflates_but_respects_request() {
        let mut e = LastInstance::new(LastInstanceConfig {
            margin: 1.5,
            ..LastInstanceConfig::default()
        });
        let ctx = EstimateContext::default();
        let j = job(0);
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(10_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 15_000);
        // Margin can never push beyond the request.
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(30_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 32_768);
    }

    #[test]
    fn failure_poisons_until_clean_run() {
        let mut e = LastInstance::new(LastInstanceConfig::default());
        let ctx = EstimateContext::default();
        let j = job(0);
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(5_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 5_000);
        // A failed run (truncated measurement) reverts to the request.
        let d = e.estimate(&j, &ctx);
        e.feedback(
            &j,
            &d,
            &Feedback::explicit(false, Demand::memory(5_000)),
            &ctx,
        );
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 32_768);
        // A clean run re-arms estimation.
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(6_000), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 6_000);
    }

    #[test]
    fn implicit_failure_also_poisons() {
        let mut e = LastInstance::new(LastInstanceConfig::default());
        let ctx = EstimateContext::default();
        let j = job(0);
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &explicit_ok(5_000), &ctx);
        let d = e.estimate(&j, &ctx);
        e.feedback(&j, &d, &Feedback::failure(), &ctx);
        assert_eq!(e.estimate(&j, &ctx).mem_kb, 32_768);
    }

    #[test]
    fn groups_are_independent() {
        let mut e = LastInstance::new(LastInstanceConfig::default());
        let ctx = EstimateContext::default();
        let a = JobBuilder::new(1)
            .user(1)
            .app(1)
            .requested_mem_kb(32_768)
            .build();
        let b = JobBuilder::new(2)
            .user(2)
            .app(1)
            .requested_mem_kb(32_768)
            .build();
        let d = e.estimate(&a, &ctx);
        e.feedback(&a, &d, &explicit_ok(1_000), &ctx);
        assert_eq!(e.estimate(&a, &ctx).mem_kb, 1_000);
        assert_eq!(e.estimate(&b, &ctx).mem_kb, 32_768);
        assert_eq!(e.group_count(), 2);
    }

    #[test]
    fn state_round_trips_across_restart() {
        let mut before = LastInstance::new(LastInstanceConfig {
            window: 3,
            ..LastInstanceConfig::default()
        });
        let ctx = EstimateContext::default();
        let j = job(0);
        for used in [4_000, 9_000, 6_000] {
            let d = before.estimate(&j, &ctx);
            before.feedback(&j, &d, &explicit_ok(used), &ctx);
        }
        let state = before.export_state();
        assert_eq!(state.len(), 1);
        assert_eq!(state[0].recent_used_kb, vec![4_000, 9_000, 6_000]);

        let mut after = LastInstance::new(LastInstanceConfig {
            window: 3,
            ..LastInstanceConfig::default()
        });
        after.import_state(&state);
        assert_eq!(
            after.estimate(&j, &ctx).mem_kb,
            before.estimate(&j, &ctx).mem_kb
        );
        assert_eq!(after.export_state(), state);
    }

    #[test]
    fn import_truncates_oversized_windows_to_recent() {
        let mut donor = LastInstance::new(LastInstanceConfig {
            window: 3,
            ..LastInstanceConfig::default()
        });
        let ctx = EstimateContext::default();
        let j = job(0);
        for used in [9_000, 4_000, 3_000] {
            let d = donor.estimate(&j, &ctx);
            donor.feedback(&j, &d, &explicit_ok(used), &ctx);
        }
        // Restore into a narrower window: only the most recent survive,
        // so the stale 9_000 peak is dropped.
        let mut narrow = LastInstance::new(LastInstanceConfig {
            window: 2,
            ..LastInstanceConfig::default()
        });
        narrow.import_state(&donor.export_state());
        assert_eq!(narrow.estimate(&j, &ctx).mem_kb, 4_000);
    }

    #[test]
    fn snapshot_state_round_trips_via_trait() {
        let mut before = LastInstance::new(LastInstanceConfig::default());
        let ctx = EstimateContext::default();
        let j = job(0);
        let d = before.estimate(&j, &ctx);
        before.feedback(&j, &d, &explicit_ok(5_000), &ctx);
        let state = before.snapshot_state().expect("last-instance snapshots");

        let mut after = LastInstance::new(LastInstanceConfig::default());
        after.restore_state(state).expect("matching kind restores");
        assert_eq!(after.estimate(&j, &ctx).mem_kb, 5_000);

        let wrong = crate::snapshot::SnapshotState::SuccessiveV1 { groups: Vec::new() };
        assert!(matches!(
            after.restore_state(wrong),
            Err(SnapshotError::Mismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn rejects_zero_window() {
        let _ = LastInstance::new(LastInstanceConfig {
            window: 0,
            ..LastInstanceConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "margin must be at least 1")]
    fn rejects_sub_unit_margin() {
        let _ = LastInstance::new(LastInstanceConfig {
            margin: 0.9,
            ..LastInstanceConfig::default()
        });
    }
}
