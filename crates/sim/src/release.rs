//! Incremental release table for EASY backfilling.
//!
//! The reservation phase of EASY needs, on every scheduling pass, the
//! earliest time at which enough head-eligible nodes are simultaneously
//! free. The engine used to rebuild a `Vec<(Time, u32)>` over the whole
//! running set and sort it inside every pass; this table keeps the running
//! jobs sorted by conservative completion time *incrementally* — O(running)
//! memmove on start/finish instead of an O(R log R) rebuild per pass. The
//! crossing walk asks for each release's eligible-node count as it reaches
//! it (`allocation_nodes_satisfying_matched` is O(pools spanned), no dearer
//! than a cached lookup would be) and early-exits at the release that
//! satisfies the head, which the sort-then-scan shape never could.
//!
//! The computed crossing time is exactly what [`crate::scheduler::shadow_time`]
//! returns for the same multiset of releases: accumulation order among
//! equal-time releases cannot move the crossing, so maintaining sorted
//! order incrementally is outcome-identical to the per-pass stable sort
//! (debug builds cross-check the two paths in the engine).

use resmatch_workload::Time;

/// Running jobs ordered by conservative completion time.
#[derive(Debug, Default)]
pub(crate) struct ReleaseTable {
    /// `(expected_end, run_id)`, ascending by time; ties keep insertion
    /// order (irrelevant to the crossing, deterministic anyway).
    entries: Vec<(Time, u64)>,
}

impl ReleaseTable {
    /// Drop every entry but keep capacity (arena reuse across runs).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Record a started execution.
    pub(crate) fn insert(&mut self, expected_end: Time, run_id: u64) {
        let pos = self.entries.partition_point(|&(t, _)| t <= expected_end);
        self.entries.insert(pos, (expected_end, run_id));
    }

    /// Remove a finished execution by its recorded conservative end time.
    pub(crate) fn remove(&mut self, expected_end: Time, run_id: u64) {
        let start = self.entries.partition_point(|&(t, _)| t < expected_end);
        #[expect(
            clippy::expect_used,
            reason = "invariant: every running execution has a release entry"
        )]
        let offset = self.entries[start..]
            .iter()
            .position(|&(_, id)| id == run_id)
            .expect("invariant: every running execution has a release entry");
        self.entries.remove(start + offset);
    }

    /// Earliest conservative completion time by which at least `needed`
    /// eligible nodes are simultaneously free, with `free_now` already
    /// free. Returns `Time::ZERO` when `free_now` suffices and `None` when
    /// even a fully drained cluster does not.
    ///
    /// `eligible_of(run_id)` counts a running job's nodes that satisfy the
    /// head demand; it is called once per release walked, and only up to
    /// the crossing entry.
    pub(crate) fn crossing(
        &self,
        free_now: u32,
        needed: u32,
        mut eligible_of: impl FnMut(u64) -> u32,
    ) -> Option<Time> {
        if free_now >= needed {
            return Some(Time::ZERO);
        }
        let mut free = free_now;
        for &(time, run_id) in &self.entries {
            free += eligible_of(run_id);
            if free >= needed {
                return Some(time);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn crossing_matches_shadow_time_semantics() {
        let mut table = ReleaseTable::default();
        // Inserted out of time order: 30 (run 0, 2 nodes), 10 (run 1, 1),
        // 20 (run 2, 3) — mirrors the shadow_time doc test.
        table.insert(t(30), 0);
        table.insert(t(10), 1);
        table.insert(t(20), 2);
        let counts = [2u32, 1, 3];
        // Need 4 with 1 free: crossing at 20. Need 7: crossing at 30.
        assert_eq!(table.crossing(1, 4, |id| counts[id as usize]), Some(t(20)));
        assert_eq!(table.crossing(1, 7, |id| counts[id as usize]), Some(t(30)));
        // Impossible demand: even a drained cluster is short.
        assert_eq!(table.crossing(1, 10, |id| counts[id as usize]), None);
        // Already satisfiable now.
        assert_eq!(table.crossing(4, 4, |_| 0), Some(Time::ZERO));
    }

    #[test]
    fn remove_handles_simultaneous_releases() {
        let mut table = ReleaseTable::default();
        table.insert(t(10), 0);
        table.insert(t(10), 1);
        table.insert(t(10), 2);
        table.remove(t(10), 1);
        let counts = [1u32, 99, 1];
        // Run 1 is gone: the two survivors must both release to reach 2.
        assert_eq!(table.crossing(0, 2, |id| counts[id as usize]), Some(t(10)));
        assert_eq!(table.crossing(0, 3, |id| counts[id as usize]), None);
        table.remove(t(10), 0);
        table.remove(t(10), 2);
        assert_eq!(table.crossing(0, 1, |_| unreachable!()), None);
    }
}
