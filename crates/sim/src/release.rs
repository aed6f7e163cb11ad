//! Incremental release table for EASY backfilling.
//!
//! The reservation phase of EASY needs, on every scheduling pass, the
//! earliest time at which enough head-eligible nodes are simultaneously
//! free. The engine used to rebuild a `Vec<(Time, u32)>` over the whole
//! running set and sort it inside every pass; this table keeps the running
//! jobs sorted by conservative completion time *incrementally* — O(running)
//! memmove on start/finish instead of an O(R log R) rebuild per pass — and
//! caches each running job's eligible-node count under a head-demand epoch
//! so `allocation_nodes_satisfying_matched` is only re-walked when the head
//! demand actually changed. The crossing walk early-exits at the release that
//! satisfies the head, which the sort-then-scan shape never could.
//!
//! The computed crossing time is exactly what [`crate::scheduler::shadow_time`]
//! returns for the same multiset of releases: accumulation order among
//! equal-time releases cannot move the crossing, so maintaining sorted
//! order incrementally is outcome-identical to the per-pass stable sort
//! (debug builds cross-check the two paths in the engine).

use resmatch_workload::Time;

/// Running jobs ordered by conservative completion time, with per-run
/// eligible-node counts cached under a demand epoch.
#[derive(Debug, Default)]
pub(crate) struct ReleaseTable {
    /// `(expected_end, run_id)`, ascending by time; ties keep insertion
    /// order (irrelevant to the crossing, deterministic anyway).
    entries: Vec<(Time, u64)>,
    /// Per-run `(demand_epoch, eligible_count)`, indexed by run id. A
    /// stamp that differs from the query epoch marks the count stale.
    eligible: Vec<(u64, u32)>,
}

impl ReleaseTable {
    /// Drop every entry but keep capacity (arena reuse across runs).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.eligible.clear();
    }

    /// Record a started execution. Run ids are recycled by the engine's
    /// slab, so any cached eligible count for this id belongs to a dead
    /// run and is invalidated here.
    pub(crate) fn insert(&mut self, expected_end: Time, run_id: u64) {
        let pos = self.entries.partition_point(|&(t, _)| t <= expected_end);
        self.entries.insert(pos, (expected_end, run_id));
        let slot = run_id as usize;
        if slot >= self.eligible.len() {
            self.eligible.resize(slot + 1, (0, 0));
        }
        self.eligible[slot] = (0, 0);
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
    /// head demand; it is consulted only for entries whose cached count is
    /// stale under `demand_epoch`, and only up to the crossing entry.
    pub(crate) fn crossing(
        &mut self,
        free_now: u32,
        needed: u32,
        demand_epoch: u64,
        mut eligible_of: impl FnMut(u64) -> u32,
    ) -> Option<Time> {
        if free_now >= needed {
            return Some(Time::ZERO);
        }
        let mut free = free_now;
        for &(time, run_id) in &self.entries {
            let slot = &mut self.eligible[run_id as usize];
            if slot.0 != demand_epoch {
                *slot = (demand_epoch, eligible_of(run_id));
            }
            free += slot.1;
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
        assert_eq!(
            table.crossing(1, 4, 1, |id| counts[id as usize]),
            Some(t(20))
        );
        assert_eq!(
            table.crossing(1, 7, 1, |id| counts[id as usize]),
            Some(t(30))
        );
        // Impossible demand: even a drained cluster is short.
        assert_eq!(table.crossing(1, 10, 1, |id| counts[id as usize]), None);
        // Already satisfiable now.
        assert_eq!(table.crossing(4, 4, 1, |_| 0), Some(Time::ZERO));
    }

    #[test]
    fn eligible_counts_cache_per_epoch() {
        let mut table = ReleaseTable::default();
        table.insert(t(10), 0);
        table.insert(t(20), 1);
        let mut calls = 0;
        // First query at epoch 1 computes both counts.
        assert_eq!(
            table.crossing(0, 4, 1, |_| {
                calls += 1;
                2
            }),
            Some(t(20))
        );
        assert_eq!(calls, 2);
        // Same epoch: fully served from cache.
        assert_eq!(table.crossing(0, 4, 1, |_| unreachable!()), Some(t(20)));
        // New epoch: recomputed.
        assert_eq!(
            table.crossing(0, 2, 2, |_| {
                calls += 1;
                2
            }),
            Some(t(10))
        );
        assert_eq!(calls, 3, "early exit stops at the crossing entry");
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
        assert_eq!(
            table.crossing(0, 2, 1, |id| counts[id as usize]),
            Some(t(10))
        );
        assert_eq!(table.crossing(0, 3, 1, |id| counts[id as usize]), None);
        table.remove(t(10), 0);
        table.remove(t(10), 2);
        assert_eq!(table.crossing(0, 1, 2, |_| unreachable!()), None);
    }

    #[test]
    fn recycled_run_id_invalidates_stale_count() {
        let mut table = ReleaseTable::default();
        table.insert(t(10), 0);
        assert_eq!(table.crossing(0, 5, 1, |_| 5), Some(t(10)));
        table.remove(t(10), 0);
        // A new run reuses id 0 within the same demand epoch: the cached
        // count (5) belongs to the dead run and must not be reused.
        table.insert(t(30), 0);
        assert_eq!(table.crossing(0, 2, 1, |_| 2), Some(t(30)));
    }
}
