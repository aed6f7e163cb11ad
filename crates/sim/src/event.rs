//! The event queue: a deterministic min-heap of timestamped events.
//!
//! Ties are broken by insertion sequence so two runs of the same simulation
//! pop events in exactly the same order — the foundation of the workspace's
//! bit-reproducibility guarantee. Arrivals never enter the queue: the
//! engine merges them in from the job feed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use resmatch_workload::Time;

/// What can happen in the simulation besides an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A running execution ends.
    ExecutionEnd {
        /// Identifier handed out when the execution started.
        run_id: u64,
        /// True when the execution completed successfully; false when it
        /// died from under-provisioned resources (or injected faults).
        success: bool,
    },
    /// A scheduled node join/leave takes effect (dynamic cluster
    /// membership).
    Churn {
        /// Index into the simulation's churn schedule.
        index: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: Time,
    seq: u64,
    event: Event,
}

// Reversed ordering: BinaryHeap is a max-heap, we need earliest-first.
// `event` carries no ordering (seqs are unique).
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic future-event list: one binary heap ordered by
/// `(time, insertion seq)`. The engine pushes the churn schedule before
/// the run starts, so churn beats an execution end at the same time and
/// same-time churn keeps schedule order.
///
/// `clear` drops every pending event and resets the seqs but keeps the
/// heap's capacity, so a [`crate::engine::SimArena`] can reuse one queue
/// across an entire sweep without reallocating.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Drop all pending events but keep the heap's capacity — the
    /// arena-reuse reset between runs.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Schedule `event` at `time`. Events at equal times pop in insertion
    /// order.
    pub(crate) fn push(&mut self, time: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(Time, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Time of the earliest event without removing it.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(run_id: u64) -> Event {
        Event::ExecutionEnd {
            run_id,
            success: true,
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(Time, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(Time::from_secs(30), end(3));
        q.push(Time::from_secs(10), Event::Churn { index: 1 });
        q.push(Time::from_secs(20), end(2));
        assert_eq!(q.peek_time(), Some(Time::from_secs(10)));
        assert_eq!(
            drain(&mut q),
            vec![
                (Time::from_secs(10), Event::Churn { index: 1 }),
                (Time::from_secs(20), end(2)),
                (Time::from_secs(30), end(3)),
            ]
        );
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        // Churn pushed first beats a same-time execution end, and
        // same-time churn keeps its push order: the engine's contract.
        let mut q = EventQueue::default();
        let t = Time::from_secs(5);
        for index in 0..50 {
            q.push(t, Event::Churn { index });
        }
        for run_id in 0..50 {
            q.push(t, end(run_id));
        }
        q.push(Time::from_secs(1), end(99));
        let order = drain(&mut q);
        assert_eq!(order[0], (Time::from_secs(1), end(99)));
        let tied: Vec<Event> = order[1..].iter().map(|&(_, e)| e).collect();
        let want: Vec<Event> = (0..50)
            .map(|index| Event::Churn { index })
            .chain((0..50).map(end))
            .collect();
        assert_eq!(tied, want);
    }

    #[test]
    fn clear_resets_seqs_and_keeps_capacity() {
        let mut q = EventQueue::default();
        for run_id in 0..8 {
            q.push(Time::from_secs(run_id), end(run_id));
        }
        let cap = q.heap.capacity();
        q.clear();
        assert_eq!(q.pop(), None);
        assert_eq!(q.next_seq, 0);
        assert_eq!(q.heap.capacity(), cap);
        // A cleared queue behaves like a fresh one: ties in push order.
        let t = Time::from_secs(7);
        q.push(t, Event::Churn { index: 0 });
        q.push(t, end(1));
        assert_eq!(
            drain(&mut q),
            vec![(t, Event::Churn { index: 0 }), (t, end(1))]
        );
    }
}
