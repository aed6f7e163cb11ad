//! The struct-of-arrays job queue.
//!
//! The engine's wait queue used to be a `VecDeque` of ~96-byte entries.
//! Two costs dominated it at trace scale (122k jobs, thousands queued):
//!
//! - the EASY backfill hunt re-scans the whole queue after every
//!   completion, and nearly every entry is rejected by two cheap fields
//!   (the conservative-runtime window and the retry stamp) — yet the
//!   array-of-structs layout streamed all 96 bytes per entry through the
//!   cache to read 16;
//! - starting a mid-queue entry paid an O(queue) `VecDeque::remove`
//!   memmove per backfill.
//!
//! This queue splits the entry into *hot* parallel columns — requested
//! runtime and retry stamp, the two loads the hunt's fused reject needs —
//! and one *cold* column with everything else, touched only for the few
//! entries that survive the reject. Removal tombstones the slot in O(1)
//! instead of shifting (dead slots park a [`Time::MAX`] sentinel in the
//! hot runtime column, so the hunt skips them through the same window
//! check it already does), and the columns compact amortized-O(1) once
//! dead slots outnumber live ones.
//!
//! Physical indices are stable except across a start (tombstone +
//! possible compaction) or a requeue at the head — exactly the events
//! that already invalidate the engine's [`ShadowCache`] via the running
//! generation, so the cache's saved scan positions never dangle.
//!
//! SJF cannot tolerate tombstones: it locates entries by binary search on
//! the queue rank (`seq`), which dead slots with stale ranks would break.
//! Under SJF the queue runs in *compacting* mode — physical removal, all
//! slots live — matching the historical `VecDeque` shape; SJF never runs
//! the hunt, so it keeps none of the tombstone costs either.
//!
//! [`ShadowCache`]: crate::engine

use resmatch_cluster::Demand;
use resmatch_workload::Time;

/// A queued (re)submission — the transfer type between the engine and the
/// queue's columns. Field semantics are the engine's (see `crate::engine`);
/// the queue itself only interprets `seq` (compacting-mode binary search)
/// and `requested_runtime` / `failed_alloc_stamp` (the hot columns).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// Index of the job in the engine's job store.
    pub job: usize,
    /// Failed executions at admission time.
    pub attempts: u32,
    /// Estimated demand.
    pub demand: Demand,
    /// Structural epoch (membership churn) the estimate was computed at.
    pub structural_stamp: u64,
    /// Feedback epoch the estimate was computed at.
    pub feedback_stamp: u64,
    /// Demand is strictly below the request (memory or packages).
    pub lowered: bool,
    /// Estimation strictly enlarged the candidate-machine set.
    pub benefited: bool,
    /// Queue-order rank: `push_front` assigns strictly decreasing values,
    /// `push_back` strictly increasing ones, so live entries are always
    /// sorted ascending by `seq` and an entry's rank survives index
    /// shifts. SJF uses it both as the heap tie-break (first-minimum =
    /// lowest rank) and to find an entry's current index by binary search.
    pub seq: i64,
    /// The job's requested runtime, mirrored into a hot column so the
    /// backfill scan reads the queue sequentially.
    pub requested_runtime: Time,
    /// Retry epoch at this entry's last refused allocation, or `u64::MAX`
    /// if none; mirrored into a hot column.
    pub failed_alloc_stamp: u64,
    /// The job's node count, copied inline for the allocation attempt.
    pub nodes: u32,
    /// Which feedback can invalidate this estimate (engine `SCOPE_*`
    /// encoding).
    pub scope_slot: u32,
}

/// Cold per-entry state: everything the hunt's fused reject does not
/// read. The hunt touches one of these only for entries that survive the
/// hot-column checks, so the fields stay out of the scan's cache traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdSlot {
    pub(crate) job: usize,
    pub(crate) attempts: u32,
    pub(crate) demand: Demand,
    pub(crate) structural_stamp: u64,
    pub(crate) feedback_stamp: u64,
    pub(crate) seq: i64,
    pub(crate) nodes: u32,
    pub(crate) scope_slot: u32,
    pub(crate) lowered: bool,
    pub(crate) benefited: bool,
    pub(crate) dead: bool,
}

/// Hot runtime-column sentinel for tombstoned slots: no backfill window
/// reaches it, so the hunt skips dead slots with the load it already does.
const DEAD_RT: Time = Time::MAX;

/// Struct-of-arrays wait queue. See the module docs for the layout and
/// the tombstone/compacting split.
#[derive(Debug, Default)]
pub(crate) struct JobQueue {
    /// Hot: requested runtime per slot (`DEAD_RT` when tombstoned).
    rt: Vec<Time>,
    /// Hot: retry-epoch stamp of the last refused allocation per slot.
    stamp: Vec<u64>,
    /// Cold: the rest of the entry.
    cold: Vec<ColdSlot>,
    /// First physical slot that may be live; every slot below it is dead.
    head: usize,
    /// Live entry count — the queue's logical length.
    live: usize,
    /// Compacting mode (SJF): remove shifts instead of tombstoning, so
    /// every slot is live and binary search by `seq` spans all columns.
    compacting: bool,
}

impl JobQueue {
    /// Logical (live) length — the number everything semantic uses:
    /// estimate contexts, time-weighted statistics, end-of-run drops.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// True when no live entries remain.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Physical column length, including tombstones. Scan positions
    /// (`ShadowCache::scanned`, the hunt cursor) are physical indices.
    pub(crate) fn phys_len(&self) -> usize {
        self.cold.len()
    }

    /// Clear all columns, keeping their capacity, and set the removal
    /// mode for the next run.
    pub(crate) fn reset(&mut self, compacting: bool) {
        self.rt.clear();
        self.stamp.clear();
        self.cold.clear();
        self.head = 0;
        self.live = 0;
        self.compacting = compacting;
    }

    /// Physical index of the head (first live) entry.
    ///
    /// # Panics
    /// In debug builds, when the queue is empty.
    pub(crate) fn head_idx(&self) -> usize {
        debug_assert!(self.live > 0, "head_idx on an empty queue");
        self.head
    }

    /// Reassemble the entry at physical index `idx`.
    pub(crate) fn get(&self, idx: usize) -> Queued {
        let c = &self.cold[idx];
        debug_assert!(!c.dead, "get on a tombstoned slot");
        Queued {
            job: c.job,
            attempts: c.attempts,
            demand: c.demand,
            structural_stamp: c.structural_stamp,
            feedback_stamp: c.feedback_stamp,
            lowered: c.lowered,
            benefited: c.benefited,
            seq: c.seq,
            requested_runtime: self.rt[idx],
            failed_alloc_stamp: self.stamp[idx],
            nodes: c.nodes,
            scope_slot: c.scope_slot,
        }
    }

    /// The head entry, if any.
    pub(crate) fn front(&self) -> Option<Queued> {
        (self.live > 0).then(|| self.get(self.head))
    }

    /// Overwrite the entry at `idx` in place (estimate refresh): the
    /// physical position, and therefore the queue order, is unchanged.
    pub(crate) fn set(&mut self, idx: usize, q: Queued) {
        debug_assert!(!self.cold[idx].dead, "set on a tombstoned slot");
        self.rt[idx] = q.requested_runtime;
        self.stamp[idx] = q.failed_alloc_stamp;
        self.cold[idx] = Self::cold_of(&q);
    }

    /// Record a refused allocation on the hot stamp column.
    pub(crate) fn set_failed_stamp(&mut self, idx: usize, epoch: u64) {
        debug_assert!(!self.cold[idx].dead, "stamp on a tombstoned slot");
        self.stamp[idx] = epoch;
    }

    /// Append at the back.
    pub(crate) fn push_back(&mut self, q: Queued) {
        self.rt.push(q.requested_runtime);
        self.stamp.push(q.failed_alloc_stamp);
        self.cold.push(Self::cold_of(&q));
        if self.live == 0 {
            // The previous head position may sit past a dead suffix.
            self.head = self.cold.len() - 1;
        }
        self.live += 1;
    }

    /// Insert at the front ("returns to the head of the queue"). Reuses
    /// the dead slot just below the head when one exists — requeues after
    /// a failure are O(1) in the common case — and falls back to a column
    /// shift otherwise.
    pub(crate) fn push_front(&mut self, q: Queued) {
        if self.live == 0 {
            self.push_back(q);
            return;
        }
        if self.head > 0 {
            self.head -= 1;
            let idx = self.head;
            self.rt[idx] = q.requested_runtime;
            self.stamp[idx] = q.failed_alloc_stamp;
            self.cold[idx] = Self::cold_of(&q);
        } else {
            self.rt.insert(0, q.requested_runtime);
            self.stamp.insert(0, q.failed_alloc_stamp);
            self.cold.insert(0, Self::cold_of(&q));
        }
        self.live += 1;
    }

    /// Remove and return the entry at `idx`: a physical shift in
    /// compacting mode, an O(1) tombstone otherwise (with amortized
    /// compaction once dead slots exceed a quarter of the live ones —
    /// the hunt pays for every dead slot it strides over, so the
    /// threshold trades copy traffic for scan density).
    pub(crate) fn remove(&mut self, idx: usize) -> Queued {
        let out = self.get(idx);
        self.live -= 1;
        if self.compacting {
            self.rt.remove(idx);
            self.stamp.remove(idx);
            self.cold.remove(idx);
        } else {
            self.cold[idx].dead = true;
            self.rt[idx] = DEAD_RT;
            while self.head < self.cold.len() && self.cold[self.head].dead {
                self.head += 1;
            }
            if self.cold.len() - self.live > (self.live / 4).max(64) {
                self.compact();
            }
        }
        out
    }

    /// Drop every dead slot, preserving live order. Callers run this only
    /// on removal — i.e. a start — which already invalidates every saved
    /// physical scan position via the engine's running generation.
    fn compact(&mut self) {
        let mut w = 0;
        for r in 0..self.cold.len() {
            if !self.cold[r].dead {
                self.cold[w] = self.cold[r];
                self.rt[w] = self.rt[r];
                self.stamp[w] = self.stamp[r];
                w += 1;
            }
        }
        debug_assert_eq!(w, self.live);
        self.cold.truncate(w);
        self.rt.truncate(w);
        self.stamp.truncate(w);
        self.head = 0;
    }

    /// Physical index of the live entry with queue rank `seq`
    /// (compacting mode only: every slot is live and ranks are sorted).
    ///
    /// # Panics
    /// When no entry holds that rank — the SJF heap mirrors the queue, so
    /// a miss is an engine invariant violation.
    #[expect(
        clippy::expect_used,
        reason = "invariant: the SJF heap mirrors the queue"
    )]
    pub(crate) fn index_of_seq(&self, seq: i64) -> usize {
        debug_assert!(self.compacting, "seq search requires compacting mode");
        self.cold
            .binary_search_by(|c| c.seq.cmp(&seq))
            .expect("invariant: the SJF heap mirrors the queue")
    }

    /// The hunt's column view from physical index `from`: shared runtime
    /// column, mutable stamp column (the hunt records refusals inline),
    /// and the cold slots for survivors of the fused reject.
    pub(crate) fn hunt_columns(&mut self, from: usize) -> (&[Time], &mut [u64], &[ColdSlot]) {
        (
            &self.rt[from..],
            &mut self.stamp[from..],
            &self.cold[from..],
        )
    }

    /// First-minimum scan over the requested-runtime column — the SJF
    /// debug cross-check's reference answer (compacting mode: all live).
    /// Compiled in all profiles because `debug_assert!` bodies are.
    pub(crate) fn debug_first_min_runtime_idx(&self) -> Option<usize> {
        self.rt
            .iter()
            .enumerate()
            .min_by_key(|&(_, rt)| rt)
            .map(|(i, _)| i)
    }

    /// Walk live entries' `(physical index, entry)` pairs (debug checks
    /// and tests; not on any hot path).
    #[cfg(test)]
    pub(crate) fn debug_live(&self) -> impl Iterator<Item = (usize, Queued)> + '_ {
        (0..self.cold.len())
            .filter(move |&i| !self.cold[i].dead)
            .map(move |i| (i, self.get(i)))
    }

    fn cold_of(q: &Queued) -> ColdSlot {
        ColdSlot {
            job: q.job,
            attempts: q.attempts,
            demand: q.demand,
            structural_stamp: q.structural_stamp,
            feedback_stamp: q.feedback_stamp,
            seq: q.seq,
            nodes: q.nodes,
            scope_slot: q.scope_slot,
            lowered: q.lowered,
            benefited: q.benefited,
            dead: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(job: usize, seq: i64, rt_s: u64) -> Queued {
        Queued {
            job,
            attempts: 0,
            demand: Demand::default(),
            structural_stamp: 0,
            feedback_stamp: 0,
            lowered: false,
            benefited: false,
            seq,
            requested_runtime: Time::from_secs(rt_s),
            failed_alloc_stamp: u64::MAX,
            nodes: 1,
            scope_slot: 0,
        }
    }

    #[test]
    fn tombstone_removal_preserves_order_and_length() {
        let mut q = JobQueue::default();
        q.reset(false);
        for (i, seq) in (0..5).enumerate() {
            q.push_back(entry(i, seq, 10));
        }
        assert_eq!(q.len(), 5);
        // Remove the head and a mid entry.
        let h = q.remove(q.head_idx());
        assert_eq!(h.job, 0);
        q.remove(2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front().unwrap().job, 1);
        // Physical indices are stable: job 3 still sits at slot 3.
        assert_eq!(q.get(3).job, 3);
        assert_eq!(q.phys_len(), 5);
    }

    #[test]
    fn push_front_reuses_dead_head_slot() {
        let mut q = JobQueue::default();
        q.reset(false);
        q.push_back(entry(0, 0, 10));
        q.push_back(entry(1, 1, 10));
        q.remove(q.head_idx());
        let before = q.phys_len();
        q.push_front(entry(9, -1, 10));
        // Reused the tombstoned slot: no column growth, no shift.
        assert_eq!(q.phys_len(), before);
        assert_eq!(q.front().unwrap().job, 9);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn compaction_keeps_live_entries_in_order() {
        let mut q = JobQueue::default();
        q.reset(false);
        for i in 0..200 {
            q.push_back(entry(i, i as i64, 10));
        }
        // Drain 150 heads; compaction must fire once dead slots outnumber
        // live ones (and the 64-slot floor).
        for expect in 0..150 {
            let removed = q.remove(q.head_idx());
            assert_eq!(removed.job, expect);
        }
        assert_eq!(q.len(), 50);
        assert!(
            q.phys_len() < 200,
            "compaction never fired: phys {}",
            q.phys_len()
        );
        assert_eq!(q.front().unwrap().job, 150);
        let seen: Vec<usize> = q.debug_live().map(|(_, e)| e.job).collect();
        assert_eq!(seen, (150..200).collect::<Vec<_>>());
    }

    #[test]
    fn compacting_mode_binary_search_by_seq() {
        let mut q = JobQueue::default();
        q.reset(true);
        q.push_front(entry(0, -1, 5));
        q.push_back(entry(1, 0, 3));
        q.push_back(entry(2, 1, 4));
        assert_eq!(q.index_of_seq(-1), 0);
        assert_eq!(q.index_of_seq(1), 2);
        let removed = q.remove(q.index_of_seq(0));
        assert_eq!(removed.job, 1);
        // Compacting removal shifts: seq 1 now sits at index 1.
        assert_eq!(q.index_of_seq(1), 1);
        assert_eq!(q.phys_len(), 2);
    }

    #[test]
    fn refresh_in_place_keeps_position() {
        let mut q = JobQueue::default();
        q.reset(false);
        q.push_back(entry(0, 0, 10));
        q.push_back(entry(1, 1, 10));
        let mut fresh = entry(1, 1, 99);
        fresh.attempts = 2;
        q.set(1, fresh);
        assert_eq!(q.get(1).attempts, 2);
        assert_eq!(q.get(1).requested_runtime, Time::from_secs(99));
        assert_eq!(q.front().unwrap().job, 0);
    }

    #[test]
    fn dead_slots_reject_through_the_hot_runtime_column() {
        let mut q = JobQueue::default();
        q.reset(false);
        q.push_back(entry(0, 0, 1));
        q.push_back(entry(1, 1, 1));
        q.remove(0);
        let (rts, _, cold) = q.hunt_columns(0);
        assert_eq!(rts[0], Time::MAX);
        assert!(cold[0].dead);
        assert_eq!(rts[1], Time::from_secs(1));
    }
}
