//! Struct-of-arrays storage for in-flight jobs and executions.
//!
//! The engine's per-job state used to live in arrays sized by the whole
//! trace (`Vec<Progress>`, `scope_by_job`, a borrowed `&[Job]` slice) plus
//! an array-of-structs `Vec<Option<Running>>` slab. At trace scale that
//! layout pays for every job ever submitted; these stores pay only for the
//! jobs *currently* queued or running — slots are recycled through free
//! lists, so a 10-million-job stream peaks at queue-depth-plus-concurrency
//! entries, and a cleared store keeps its capacity for arena reuse across
//! sweep points.

use resmatch_cluster::Allocation;
use resmatch_workload::{Job, Time};

/// Dense store of *active* jobs — every job that is queued or running right
/// now, and nothing else. A slot is claimed at arrival, persists across
/// failed executions and re-admissions (its retry progress and estimate
/// scope ride along), and is released when the job completes or is
/// abandoned.
///
/// Columns are parallel and indexed by the slot id the engine threads
/// through [`crate::queue::Queued::job`] and the run table:
///
/// - `jobs` — the job itself (all-inline fields, so a slot rewrite is a
///   memcpy);
/// - `failed_execs` / `wasted` — retry progress, formerly `Vec<Progress>`
///   sized by the whole trace;
/// - `scope` — the memoized estimate-scope encoding (the engine's
///   `SCOPE_*` constants), formerly `scope_by_job`.
#[derive(Debug, Default)]
pub(crate) struct JobStore {
    jobs: Vec<Job>,
    failed_execs: Vec<u32>,
    wasted: Vec<f64>,
    scope: Vec<u32>,
    free: Vec<u32>,
}

impl JobStore {
    /// Claim a slot for a newly arrived job. Progress starts at zero and
    /// the scope memo at `unresolved_scope` (the engine's
    /// `SCOPE_UNRESOLVED`).
    pub(crate) fn insert(&mut self, job: Job, unresolved_scope: u32) -> usize {
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            self.jobs[s] = job;
            self.failed_execs[s] = 0;
            self.wasted[s] = 0.0;
            self.scope[s] = unresolved_scope;
            s
        } else {
            self.jobs.push(job);
            self.failed_execs.push(0);
            self.wasted.push(0.0);
            self.scope.push(unresolved_scope);
            self.jobs.len() - 1
        }
    }

    /// Release a slot once its job completed or was abandoned. The slot id
    /// may be handed out again by the next [`JobStore::insert`].
    pub(crate) fn release(&mut self, slot: usize) {
        debug_assert!(slot < self.jobs.len());
        debug_assert!(!self.free.contains(&(slot as u32)), "double release");
        self.free.push(slot as u32);
    }

    /// The job occupying `slot`.
    #[inline]
    pub(crate) fn job(&self, slot: usize) -> &Job {
        &self.jobs[slot]
    }

    /// Memoized estimate-scope encoding for `slot`.
    #[inline]
    pub(crate) fn scope(&self, slot: usize) -> u32 {
        self.scope[slot]
    }

    /// Record the resolved estimate scope for `slot`.
    #[inline]
    pub(crate) fn set_scope(&mut self, slot: usize, scope: u32) {
        self.scope[slot] = scope;
    }

    /// Failed executions accumulated by the job in `slot`.
    #[inline]
    pub(crate) fn failed_execs(&self, slot: usize) -> u32 {
        self.failed_execs[slot]
    }

    /// Node-seconds burned by the failed executions of the job in `slot`.
    #[inline]
    pub(crate) fn wasted(&self, slot: usize) -> f64 {
        self.wasted[slot]
    }

    /// Account one failed execution that burned `wasted_node_seconds`.
    #[inline]
    pub(crate) fn add_failure(&mut self, slot: usize, wasted_node_seconds: f64) {
        self.failed_execs[slot] += 1;
        self.wasted[slot] += wasted_node_seconds;
    }

    /// Drop every entry but keep the columns' capacity (arena reuse).
    pub(crate) fn clear(&mut self) {
        self.jobs.clear();
        self.failed_execs.clear();
        self.wasted.clear();
        self.scope.clear();
        self.free.clear();
    }
}

/// Flag bits for a running execution (see [`RunTable`]).
pub(crate) mod run_flags {
    /// Granted demand was strictly below the user request.
    pub(crate) const LOWERED: u8 = 1 << 0;
    /// Estimation strictly enlarged the candidate-machine set.
    pub(crate) const BENEFITED: u8 = 1 << 1;
    /// The execution was granted the full user request (no estimation).
    pub(crate) const AT_REQUEST: u8 = 1 << 2;
    /// The allocation genuinely cannot hold the job (as opposed to an
    /// injected fault).
    pub(crate) const RESOURCE_FAILURE: u8 = 1 << 3;
}

/// Everything a finished execution hands back to the engine.
pub(crate) struct FinishedRun {
    /// [`JobStore`] slot of the job that was executing.
    pub(crate) job_slot: usize,
    /// When the execution started.
    pub(crate) start: Time,
    /// Conservative completion estimate it was inserted with.
    pub(crate) expected_end: Time,
    /// The allocation to release.
    pub(crate) alloc: Allocation,
    /// [`run_flags`] bits.
    pub(crate) flags: u8,
}

/// Struct-of-arrays slab of running executions, indexed by run id.
///
/// Replaces `Vec<Option<Running>>`: the EASY reservation path reads only
/// `alloc` (through [`RunTable::alloc`]) while computing eligible-node
/// counts, so the scheduling hot loop no longer drags start times and
/// flag bytes through the cache. Finished ids are recycled — `peek_id`
/// before allocation, confirmed by `insert` — keeping the slab at
/// peak-concurrency size.
#[derive(Debug, Default)]
pub(crate) struct RunTable {
    job_slot: Vec<u32>,
    start: Vec<Time>,
    expected_end: Vec<Time>,
    alloc: Vec<Option<Allocation>>,
    flags: Vec<u8>,
    free: Vec<u64>,
    live: usize,
}

impl RunTable {
    /// The id the next [`RunTable::insert`] will use. Peeked, not popped:
    /// a refused allocation must leave the free list untouched.
    #[inline]
    pub(crate) fn peek_id(&self) -> u64 {
        self.free
            .last()
            .copied()
            .unwrap_or(self.job_slot.len() as u64)
    }

    /// Register a started execution under `run_id` (which must be the
    /// current [`RunTable::peek_id`]).
    pub(crate) fn insert(
        &mut self,
        run_id: u64,
        job_slot: usize,
        start: Time,
        expected_end: Time,
        alloc: Allocation,
        flags: u8,
    ) {
        debug_assert_eq!(run_id, self.peek_id());
        let idx = run_id as usize;
        if idx < self.job_slot.len() {
            self.free.pop();
            debug_assert!(self.alloc[idx].is_none());
            self.job_slot[idx] = job_slot as u32;
            self.start[idx] = start;
            self.expected_end[idx] = expected_end;
            self.alloc[idx] = Some(alloc);
            self.flags[idx] = flags;
        } else {
            self.job_slot.push(job_slot as u32);
            self.start.push(start);
            self.expected_end.push(expected_end);
            self.alloc.push(Some(alloc));
            self.flags.push(flags);
        }
        self.live += 1;
    }

    /// Remove the execution under `run_id`, recycling the id.
    pub(crate) fn take(&mut self, run_id: u64) -> FinishedRun {
        let idx = run_id as usize;
        #[expect(
            clippy::expect_used,
            reason = "invariant: an ExecutionEnd event fires exactly once per live run id"
        )]
        let alloc = self.alloc[idx]
            .take()
            .expect("invariant: an ExecutionEnd event fires exactly once per live run id");
        self.free.push(run_id);
        self.live -= 1;
        FinishedRun {
            job_slot: self.job_slot[idx] as usize,
            start: self.start[idx],
            expected_end: self.expected_end[idx],
            alloc,
            flags: self.flags[idx],
        }
    }

    /// The live allocation under `run_id` — the one column EASY's
    /// shadow-crossing walk reads.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "invariant: release entries track live runs"
    )]
    pub(crate) fn alloc(&self, run_id: u64) -> &Allocation {
        self.alloc[run_id as usize]
            .as_ref()
            .expect("invariant: release entries track live runs")
    }

    /// Currently running executions.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// `(expected_end, alloc)` over live executions — the debug
    /// cross-check's rebuild-and-sort input.
    #[cfg(debug_assertions)]
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (Time, &Allocation)> {
        self.expected_end
            .iter()
            .zip(&self.alloc)
            .filter_map(|(&end, alloc)| alloc.as_ref().map(|a| (end, a)))
    }

    /// Drop every entry but keep the columns' capacity (arena reuse).
    pub(crate) fn clear(&mut self) {
        self.job_slot.clear();
        self.start.clear();
        self.expected_end.clear();
        self.alloc.clear();
        self.flags.clear();
        self.free.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    const UNRESOLVED: u32 = u32::MAX;

    #[test]
    fn job_slots_recycle_and_reset_progress() {
        let mut s = JobStore::default();
        let a = s.insert(JobBuilder::new(1).build(), UNRESOLVED);
        let b = s.insert(JobBuilder::new(2).build(), UNRESOLVED);
        assert_ne!(a, b);
        s.add_failure(a, 12.5);
        s.set_scope(a, 7);
        assert_eq!(s.failed_execs(a), 1);
        assert_eq!(s.wasted(a), 12.5);
        s.release(a);
        let c = s.insert(JobBuilder::new(3).build(), UNRESOLVED);
        assert_eq!(c, a, "released slot is reused");
        assert_eq!(s.job(c).id.0, 3);
        assert_eq!(s.failed_execs(c), 0);
        assert_eq!(s.wasted(c), 0.0);
        assert_eq!(s.scope(c), UNRESOLVED);
        assert_eq!(s.job(b).id.0, 2, "other slots untouched");
    }

    #[test]
    fn run_ids_peek_then_insert_then_recycle() {
        use resmatch_cluster::{ClusterBuilder, Demand, MatchPolicy};
        let mut cluster = ClusterBuilder::new().pool(8, 32 * 1024).build();
        let mut grab = |n: u32| {
            cluster
                .try_allocate(n, &Demand::memory(1024), MatchPolicy::BestFit, 0)
                .expect("8-node pool holds these")
        };
        let mut t = RunTable::default();
        assert_eq!(t.peek_id(), 0);
        // A refused allocation peeks without consuming the id.
        assert_eq!(t.peek_id(), 0);
        let a0 = grab(2);
        t.insert(
            0,
            5,
            Time::from_secs(1),
            Time::from_secs(10),
            a0,
            run_flags::LOWERED,
        );
        assert_eq!(t.peek_id(), 1);
        t.insert(1, 6, Time::from_secs(2), Time::from_secs(20), grab(3), 0);
        assert_eq!(t.live(), 2);
        assert_eq!(t.alloc(1).per_pool(), &[(0, 3)]);
        let done = t.take(0);
        assert_eq!(done.job_slot, 5);
        assert_eq!(done.expected_end, Time::from_secs(10));
        assert_ne!(done.flags & run_flags::LOWERED, 0);
        assert_eq!(t.live(), 1);
        assert_eq!(t.peek_id(), 0, "finished id is recycled next");
        t.insert(0, 7, Time::from_secs(3), Time::from_secs(30), grab(1), 0);
        t.clear();
        assert_eq!(t.live(), 0);
        assert_eq!(t.peek_id(), 0);
    }
}
