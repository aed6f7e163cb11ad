//! Scheduling policies and reservation arithmetic.
//!
//! The paper evaluates with strict FCFS ("we used first-come-first-served as
//! the scheduling policy ... we expect that the results with more aggressive
//! scheduling policies like backfilling will be correlated") — this module
//! adds EASY backfilling and shortest-job-first so that expectation can be
//! tested (see the scheduler ablation experiment).

use resmatch_workload::Time;
use serde::{Deserialize, Serialize};

/// Queue discipline for the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Strict first-come-first-served: when the head cannot start, nothing
    /// behind it may (the paper's configuration).
    #[default]
    Fcfs,
    /// Shortest (requested-runtime) job first, no skipping: jobs are tried
    /// in increasing runtime-estimate order and scheduling stops at the
    /// first that does not fit.
    Sjf,
    /// EASY backfilling: the head gets a reservation at its shadow time;
    /// any queued job that fits *now* and would finish before the shadow
    /// time may jump ahead.
    EasyBackfill,
}

/// Earliest time at which at least `needed` eligible nodes are simultaneously
/// free, given `free_now` already-free eligible nodes and future `releases`
/// of `(time, eligible_node_count)` from running jobs.
///
/// `releases` need not be sorted: they are sorted in place, and co-timed
/// releases sum the same in either order. Returns `None` when even all
/// releases cannot satisfy `needed` (the job is simply too big for the
/// machine).
pub fn shadow_time(
    free_now: u32,
    needed: u32,
    releases: &mut [(Time, u32)],
    now: Time,
) -> Option<Time> {
    if free_now >= needed {
        return Some(now);
    }
    releases.sort_unstable_by_key(|&(t, _)| t);
    let mut free = free_now;
    for &(t, count) in &*releases {
        free += count;
        if free >= needed {
            return Some(t.max(now));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn immediate_when_already_free() {
        assert_eq!(shadow_time(8, 4, &mut [], t(100)), Some(t(100)));
        assert_eq!(shadow_time(4, 4, &mut [], t(100)), Some(t(100)));
    }

    #[test]
    fn accumulates_releases_in_time_order() {
        // Unsorted input: releases at 30 (2 nodes), 10 (1), 20 (3).
        let mut releases = [(t(30), 2), (t(10), 1), (t(20), 3)];
        // Need 4 with 1 free: 1+1=2 at 10, +3=5 at 20 → shadow = 20.
        assert_eq!(shadow_time(1, 4, &mut releases, t(0)), Some(t(20)));
        // Need 7: 1+1+3+2 = 7 at 30.
        assert_eq!(shadow_time(1, 7, &mut releases, t(0)), Some(t(30)));
    }

    #[test]
    fn impossible_demand_is_none() {
        let mut releases = [(t(10), 2)];
        assert_eq!(shadow_time(1, 10, &mut releases, t(0)), None);
    }

    #[test]
    fn shadow_never_precedes_now() {
        let mut releases = [(t(5), 4)];
        assert_eq!(shadow_time(0, 4, &mut releases, t(50)), Some(t(50)));
    }

    #[test]
    fn zero_needed_is_immediate() {
        assert_eq!(shadow_time(0, 0, &mut [], t(3)), Some(t(3)));
    }

    #[test]
    fn simultaneous_releases_accumulate_at_one_instant() {
        // Two jobs ending at the same tick: both counts are available at
        // that tick, whichever order the sort leaves them in.
        let mut releases = [(t(10), 2), (t(10), 3)];
        assert_eq!(shadow_time(0, 5, &mut releases, t(0)), Some(t(10)));
        assert_eq!(shadow_time(0, 4, &mut releases, t(0)), Some(t(10)));
        // A need met by the first co-timed release alone still resolves to
        // the shared instant.
        assert_eq!(shadow_time(0, 2, &mut releases, t(0)), Some(t(10)));
    }

    #[test]
    fn head_satisfiable_only_by_fully_drained_cluster() {
        // The head needs every node the machine has: the shadow is the
        // final release, exactly — not None, and not any earlier time.
        let mut releases = [(t(5), 2), (t(9), 4), (t(12), 2)];
        assert_eq!(shadow_time(0, 8, &mut releases, t(0)), Some(t(12)));
        // One more node than exists is impossible.
        assert_eq!(shadow_time(0, 9, &mut releases, t(0)), None);
    }

    #[test]
    fn zero_free_nodes_at_pass_time() {
        // Nothing free now: the first sufficient release decides.
        assert_eq!(shadow_time(0, 3, &mut [(t(4), 3)], t(0)), Some(t(4)));
        // Nothing free and nothing running: no demand is satisfiable.
        assert_eq!(shadow_time(0, 1, &mut [], t(0)), None);
    }
}
