//! The capacity ladder: the sorted distinct memory capacities of a cluster.
//!
//! Algorithm 1 never submits a raw estimate: "the cluster may not have nodes
//! with the exact resource capacity Eᵢ — thus, the estimated resource
//! capacity for the job (E′) is rounded to the lowest resource capacity
//! within the cluster, greater than Eᵢ". [`CapacityLadder::round_up`]
//! implements that `⌈·⌉` operator.

use serde::{Deserialize, Serialize};

/// Sorted, deduplicated memory capacities (KB) present in a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityLadder {
    rungs: Vec<u64>,
}

impl CapacityLadder {
    /// Build from arbitrary capacities; duplicates collapse, order is fixed
    /// ascending.
    ///
    /// # Panics
    /// Panics when no capacities are given.
    pub fn new(mut capacities: Vec<u64>) -> Self {
        assert!(
            !capacities.is_empty(),
            "a cluster has at least one capacity"
        );
        capacities.sort_unstable();
        capacities.dedup();
        CapacityLadder { rungs: capacities }
    }

    /// The distinct capacities, ascending.
    pub fn rungs(&self) -> &[u64] {
        &self.rungs
    }

    /// Algorithm 1's `⌈x⌉`: the smallest cluster capacity `>= x`, or `None`
    /// when `x` exceeds every node (the job must then wait for the request
    /// as given — callers fall back to the raw value).
    pub fn round_up(&self, x: u64) -> Option<u64> {
        let idx = self.rungs.partition_point(|&c| c < x);
        self.rungs.get(idx).copied()
    }

    /// The largest capacity `<= x`, or `None` when `x` is below every rung.
    /// Used by analysis code asking "which pool could this job reach".
    pub fn round_down(&self, x: u64) -> Option<u64> {
        let idx = self.rungs.partition_point(|&c| c <= x);
        idx.checked_sub(1).map(|i| self.rungs[i])
    }

    /// Largest capacity in the cluster.
    ///
    /// # Panics
    /// Never: a ladder is non-empty by construction.
    #[expect(
        clippy::expect_used,
        reason = "invariant: a ladder is non-empty by construction"
    )]
    pub fn max(&self) -> u64 {
        *self
            .rungs
            .last()
            .expect("invariant: a ladder is non-empty by construction")
    }

    /// Smallest capacity in the cluster.
    ///
    /// # Panics
    /// Never: a ladder is non-empty by construction.
    #[expect(
        clippy::expect_used,
        reason = "invariant: a ladder is non-empty by construction"
    )]
    pub fn min(&self) -> u64 {
        *self
            .rungs
            .first()
            .expect("invariant: a ladder is non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> CapacityLadder {
        CapacityLadder::new(vec![24 * 1024, 32 * 1024, 24 * 1024, 8 * 1024])
    }

    #[test]
    fn sorts_and_dedups() {
        let l = ladder();
        assert_eq!(l.rungs(), &[8 * 1024, 24 * 1024, 32 * 1024]);
        assert_eq!(l.min(), 8 * 1024);
        assert_eq!(l.max(), 32 * 1024);
    }

    #[test]
    fn round_up_finds_lowest_sufficient() {
        let l = ladder();
        assert_eq!(l.round_up(1), Some(8 * 1024));
        assert_eq!(l.round_up(8 * 1024), Some(8 * 1024));
        assert_eq!(l.round_up(8 * 1024 + 1), Some(24 * 1024));
        assert_eq!(l.round_up(32 * 1024), Some(32 * 1024));
        assert_eq!(l.round_up(32 * 1024 + 1), None);
    }

    #[test]
    fn round_up_zero_hits_smallest() {
        assert_eq!(ladder().round_up(0), Some(8 * 1024));
    }

    #[test]
    fn round_down_mirrors() {
        let l = ladder();
        assert_eq!(l.round_down(1), None);
        assert_eq!(l.round_down(8 * 1024), Some(8 * 1024));
        assert_eq!(l.round_down(30 * 1024), Some(24 * 1024));
        assert_eq!(l.round_down(u64::MAX), Some(32 * 1024));
    }

    #[test]
    fn paper_example_stepping() {
        // §2.3: machines of 32, 24, and 4 MB; α = 2. Requested 32 MB halves
        // to 16, which rounds up to 24; halving again to 8 rounds to 24?
        // No: 8 <= 24 → still 24... the paper's next step is 8 > 4, so the
        // 4 MB machines are unreachable with α = 2 — exactly the
        // round_up behaviour.
        let l = CapacityLadder::new(vec![32 * 1024, 24 * 1024, 4 * 1024]);
        assert_eq!(l.round_up(16 * 1024), Some(24 * 1024));
        assert_eq!(l.round_up(8 * 1024), Some(24 * 1024));
        assert_eq!(l.round_up(4 * 1024), Some(4 * 1024));
    }

    #[test]
    #[should_panic(expected = "at least one capacity")]
    fn empty_ladder_rejected() {
        let _ = CapacityLadder::new(vec![]);
    }
}
