//! Durable estimator learning state.
//!
//! The paper's estimators earn their keep over months of feedback — a
//! scheduler restart that forgets every similarity group's learned estimate
//! throws that investment away. [`SnapshotState`] is the portable form of
//! that state: a versioned enum with one variant per estimator family that
//! has per-group state worth persisting. Estimators expose it through
//! [`ResourceEstimator::snapshot_state`] and
//! [`ResourceEstimator::restore_state`]; formats (e.g. the service crate's
//! binary codec) serialize it via the derived serde impls.
//!
//! Snapshots also have to survive *resharding*: the estimator service
//! splits its groups across worker shards by `SimilarityKey::stable_hash`,
//! and a snapshot taken with one shard count must restore onto another.
//! [`SnapshotState::partition`] and [`SnapshotState::merge`] implement
//! exactly that routing, using the same stable hash the shards themselves
//! use, so `merge(partition(s, n))` is the identity on sorted state for
//! every `n`.
//!
//! [`ResourceEstimator::snapshot_state`]: crate::traits::ResourceEstimator::snapshot_state
//! [`ResourceEstimator::restore_state`]: crate::traits::ResourceEstimator::restore_state

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::last_instance::PersistedLastGroup;
use crate::similarity::SimilarityKey;
use crate::successive::PersistedGroup;

/// Portable learning state of one estimator, versioned per family.
///
/// Each variant is frozen once released: a change to a family's persisted
/// fields gets a *new* variant (`SuccessiveV2`, ...) so old snapshot files
/// keep deserializing. The enum is `#[non_exhaustive]` for the same reason
/// — match with a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SnapshotState {
    /// Algorithm 1 ([`crate::successive::SuccessiveApproximation`]) state:
    /// the per-group `(Eᵢ, αᵢ)` pairs plus restore points and counters.
    SuccessiveV1 {
        /// Every similarity group's learning state, sorted by key.
        groups: Vec<PersistedGroup>,
    },
    /// [`crate::last_instance::LastInstance`] state: per-group recent-usage
    /// windows and poison bits.
    LastInstanceV1 {
        /// Every similarity group's observation window, sorted by key.
        groups: Vec<PersistedLastGroup>,
    },
}

impl SnapshotState {
    /// Short, stable name of the variant, used in errors and file headers.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotState::SuccessiveV1 { .. } => "successive-v1",
            SnapshotState::LastInstanceV1 { .. } => "last-instance-v1",
        }
    }

    /// Number of similarity groups the snapshot carries.
    pub fn group_count(&self) -> usize {
        match self {
            SnapshotState::SuccessiveV1 { groups } => groups.len(),
            SnapshotState::LastInstanceV1 { groups } => groups.len(),
        }
    }

    /// Sort groups by similarity key, the canonical on-disk order.
    pub fn sort(&mut self) {
        match self {
            SnapshotState::SuccessiveV1 { groups } => groups.sort_by_key(|g| g.key),
            SnapshotState::LastInstanceV1 { groups } => groups.sort_by_key(|g| g.key),
        }
    }

    /// Split into `shards` parts, routing each group to part
    /// `key.stable_hash() % shards` — the same routing the estimator
    /// service uses for live queries, so part `i` is exactly shard `i`'s
    /// state. Group order within each part is preserved.
    ///
    /// # Panics
    /// Panics when `shards == 0` (an invariant of every caller: a service
    /// always has at least one shard).
    pub fn partition(self, shards: usize) -> Vec<SnapshotState> {
        assert!(
            shards > 0,
            "invariant: partition requires at least one shard"
        );
        fn route<G: Clone>(
            groups: Vec<G>,
            shards: usize,
            key: impl Fn(&G) -> SimilarityKey,
        ) -> Vec<Vec<G>> {
            let mut parts: Vec<Vec<G>> = vec![Vec::new(); shards];
            for group in groups {
                let shard = (key(&group).stable_hash() % shards as u64) as usize;
                parts[shard].push(group);
            }
            parts
        }
        match self {
            SnapshotState::SuccessiveV1 { groups } => route(groups, shards, |g| g.key)
                .into_iter()
                .map(|groups| SnapshotState::SuccessiveV1 { groups })
                .collect(),
            SnapshotState::LastInstanceV1 { groups } => route(groups, shards, |g| g.key)
                .into_iter()
                .map(|groups| SnapshotState::LastInstanceV1 { groups })
                .collect(),
        }
    }

    /// Combine per-shard parts back into one snapshot, the inverse of
    /// [`SnapshotState::partition`]. The result is sorted by key, so the
    /// merged form is independent of the shard count it was taken under.
    ///
    /// # Errors
    /// All parts must be the same variant; mixing families returns
    /// [`SnapshotError::Mismatch`], and an empty part list is rejected as
    /// [`SnapshotError::Empty`] (there is no way to pick a variant).
    pub fn merge(parts: Vec<SnapshotState>) -> Result<SnapshotState, SnapshotError> {
        // One allocation of the summed size: the merged vector holds no
        // spare capacity, however many parts it came from.
        let total = parts.iter().map(SnapshotState::group_count).sum();
        let mut merged = match parts.first().ok_or(SnapshotError::Empty)? {
            SnapshotState::SuccessiveV1 { .. } => SnapshotState::SuccessiveV1 {
                groups: Vec::with_capacity(total),
            },
            SnapshotState::LastInstanceV1 { .. } => SnapshotState::LastInstanceV1 {
                groups: Vec::with_capacity(total),
            },
        };
        for part in parts {
            match (&mut merged, part) {
                (
                    SnapshotState::SuccessiveV1 { groups },
                    SnapshotState::SuccessiveV1 { groups: more },
                ) => groups.extend(more),
                (
                    SnapshotState::LastInstanceV1 { groups },
                    SnapshotState::LastInstanceV1 { groups: more },
                ) => groups.extend(more),
                (merged, part) => {
                    return Err(SnapshotError::Mismatch {
                        expected: merged.kind(),
                        found: part.kind(),
                    })
                }
            }
        }
        merged.sort();
        Ok(merged)
    }
}

/// Why a snapshot could not be taken, restored, or combined.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The estimator keeps no persistable state (or does not implement
    /// snapshotting yet).
    Unsupported {
        /// `name()` of the estimator that was asked.
        estimator: &'static str,
    },
    /// A snapshot of one estimator family was offered to another.
    Mismatch {
        /// Variant kind the estimator can restore.
        expected: &'static str,
        /// Variant kind the snapshot actually carries.
        found: &'static str,
    },
    /// [`SnapshotState::merge`] was called with no parts.
    Empty,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported { estimator } => {
                write!(f, "estimator {estimator} does not support state snapshots")
            }
            SnapshotError::Mismatch { expected, found } => write!(
                f,
                "snapshot kind mismatch: estimator restores {expected}, snapshot holds {found}"
            ),
            SnapshotError::Empty => write!(f, "cannot merge an empty list of snapshot parts"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityPolicy;
    use crate::successive::{SuccessiveApproximation, SuccessiveConfig};
    use crate::traits::{EstimateContext, Feedback, ResourceEstimator};
    use resmatch_cluster::CapacityLadder;
    use resmatch_workload::job::JobBuilder;

    fn learned_state(users: u32) -> SnapshotState {
        let mut est = SuccessiveApproximation::new(
            SuccessiveConfig::default(),
            CapacityLadder::new(vec![32 * 1024, 16 * 1024, 8 * 1024]),
        );
        let ctx = EstimateContext::default();
        for user in 0..users {
            let job = JobBuilder::new(u64::from(user))
                .user(user)
                .app(user % 7)
                .requested_mem_kb(32 * 1024)
                .used_mem_kb(4 * 1024)
                .build();
            let d = est.estimate(&job, &ctx);
            est.feedback(&job, &d, &Feedback::success(), &ctx);
        }
        est.snapshot_state()
            .expect("successive approximation supports snapshots")
    }

    #[test]
    fn partition_then_merge_is_identity() {
        let state = learned_state(257);
        for shards in [1usize, 2, 3, 8, 64] {
            let parts = state.clone().partition(shards);
            assert_eq!(parts.len(), shards);
            let total: usize = parts.iter().map(SnapshotState::group_count).sum();
            assert_eq!(total, state.group_count());
            let merged = SnapshotState::merge(parts).expect("same-kind parts merge");
            assert_eq!(merged, state, "shards = {shards}");
            let SnapshotState::SuccessiveV1 { groups } = &merged else {
                panic!("unexpected variant");
            };
            assert_eq!(groups.capacity(), groups.len(), "shards = {shards}");
        }
    }

    #[test]
    fn partition_routes_by_stable_hash() {
        let state = learned_state(64);
        let shards = 8usize;
        let parts = state.partition(shards);
        for (index, part) in parts.iter().enumerate() {
            let SnapshotState::SuccessiveV1 { groups } = part else {
                panic!("unexpected variant");
            };
            for g in groups {
                assert_eq!(g.key.stable_hash() % shards as u64, index as u64);
            }
        }
    }

    #[test]
    fn merge_rejects_mixed_kinds() {
        let successive = learned_state(2);
        let last = SnapshotState::LastInstanceV1 { groups: Vec::new() };
        let err = SnapshotState::merge(vec![successive, last]).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }));
        assert!(err.to_string().contains("successive-v1"));
    }

    #[test]
    fn merge_rejects_empty() {
        assert_eq!(
            SnapshotState::merge(Vec::new()).unwrap_err(),
            SnapshotError::Empty
        );
    }

    #[test]
    fn default_trait_impl_reports_unsupported() {
        let mut est = crate::baseline::PassThrough;
        assert!(est.snapshot_state().is_none());
        let err = est.restore_state(learned_state(1)).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Unsupported {
                estimator: "pass-through"
            }
        );
    }

    #[test]
    fn snapshot_policy_key_round_trip() {
        // Keys with partial fields (policy dropping the request) must route
        // and merge the same way.
        let mut est = SuccessiveApproximation::new(
            SuccessiveConfig {
                policy: SimilarityPolicy::UserApp,
                ..SuccessiveConfig::default()
            },
            CapacityLadder::new(vec![32 * 1024]),
        );
        let ctx = EstimateContext::default();
        for user in 0..10u32 {
            let job = JobBuilder::new(u64::from(user))
                .user(user)
                .app(1)
                .requested_mem_kb(32 * 1024)
                .used_mem_kb(1024)
                .build();
            let d = est.estimate(&job, &ctx);
            est.feedback(&job, &d, &Feedback::success(), &ctx);
        }
        let state = est.snapshot_state().expect("supported");
        let merged = SnapshotState::merge(state.clone().partition(4)).expect("merge");
        assert_eq!(merged, state);
    }
}
