//! The event queue: a deterministic min-heap of timestamped events.
//!
//! Ties are broken by insertion sequence so two runs of the same simulation
//! pop events in exactly the same order — the foundation of the workspace's
//! bit-reproducibility guarantee.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use resmatch_workload::Time;

/// What can happen in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A job (by index into the workload) is submitted.
    Arrival {
        /// Index into the workload's job slice.
        job: usize,
    },
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

/// Heap key for a runtime event: ordering fields only, with the payload
/// parked in the slab. Sift operations move 20 bytes instead of the whole
/// entry, and popped payload slots are recycled through the free list
/// instead of growing a `Vec` per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    time: Time,
    seq: u64,
    slot: u32,
}

// Reversed ordering: BinaryHeap is a max-heap, we need earliest-first.
// `slot` carries no ordering (seqs are unique).
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic future-event list.
///
/// Two storage tiers with one logical ordering, `(time, seq)`:
///
/// - a *seeded* prefix of statically known events (trace arrivals, churn),
///   sorted once and consumed front-to-back by cursor;
/// - a binary heap for events scheduled while running (execution ends),
///   which therefore only ever holds the in-flight executions — tens of
///   entries instead of the whole trace. The heap orders slim
///   16-byte `(time, seq, slot)` keys; event payloads live in a slab
///   (`pool`) whose slots are recycled through a free list, so
///   steady-state pushes allocate nothing.
///
/// Seeded entries are assigned seqs before any runtime push, so a
/// time-tie between the tiers always resolves to the seeded entry —
/// exactly the order a single heap seeded by up-front pushes would yield.
///
/// `clear` drops every pending event but keeps all four buffers'
/// capacity, so a [`crate::engine::SimArena`] can reuse one queue across
/// an entire sweep without reallocating.
#[derive(Debug, Default)]
pub struct EventQueue {
    seeded: Vec<Entry>,
    cursor: usize,
    heap: BinaryHeap<HeapKey>,
    /// Runtime event payloads, indexed by [`HeapKey::slot`].
    pool: Vec<Event>,
    /// Recycled `pool` slots.
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// An empty queue with room for `capacity` runtime events before the
    /// heap (and its payload slab) reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            seeded: Vec::new(),
            cursor: 0,
            heap: BinaryHeap::with_capacity(capacity),
            pool: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// A queue pre-loaded with the statically known schedule. Events keep
    /// their slice order as the tie-breaker (the sort is stable), so this
    /// pops identically to pushing them one by one into an empty queue —
    /// without ever paying heap maintenance for them.
    pub fn from_schedule(schedule: Vec<(Time, Event)>) -> Self {
        let mut q = EventQueue::new();
        q.seed(schedule);
        q
    }

    /// Load the statically known schedule into the seeded tier: stable
    /// sort by time, then seqs assigned in sorted order, all below any
    /// future runtime seq. Must run on an empty queue (enforced in debug).
    pub(crate) fn seed(&mut self, schedule: impl IntoIterator<Item = (Time, Event)>) {
        debug_assert!(self.is_empty(), "seed on a non-empty queue");
        self.seeded
            .extend(schedule.into_iter().map(|(time, event)| Entry {
                time,
                seq: 0,
                event,
            }));
        self.seeded.sort_by_key(|e| e.time);
        for (seq, e) in self.seeded.iter_mut().enumerate() {
            e.seq = seq as u64;
        }
        self.next_seq = self.seeded.len() as u64;
    }

    /// Drop all pending events but keep every buffer's capacity — the
    /// arena-reuse reset between runs.
    pub(crate) fn clear(&mut self) {
        self.seeded.clear();
        self.cursor = 0;
        self.heap.clear();
        self.pool.clear();
        self.free.clear();
        self.next_seq = 0;
    }

    /// Schedule `event` at `time`. Events at equal times pop in insertion
    /// order.
    pub fn push(&mut self, time: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if let Some(slot) = self.free.pop() {
            self.pool[slot as usize] = event;
            slot
        } else {
            self.pool.push(event);
            (self.pool.len() - 1) as u32
        };
        self.heap.push(HeapKey { time, seq, slot });
    }

    /// Earliest entry across both tiers: `(from_seeded, time, event)`.
    fn front(&self) -> Option<(bool, Time, Event)> {
        let seeded = self.seeded.get(self.cursor);
        let heap = self.heap.peek();
        let from_seeded = match (seeded, heap) {
            (Some(s), Some(h)) => (s.time, s.seq) <= (h.time, h.seq),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if from_seeded {
            #[expect(clippy::expect_used, reason = "invariant: seeded tier chosen above")]
            let s = seeded.expect("invariant: seeded tier chosen above");
            Some((true, s.time, s.event))
        } else {
            #[expect(clippy::expect_used, reason = "invariant: heap tier chosen above")]
            let h = heap.expect("invariant: heap tier chosen above");
            Some((false, h.time, self.pool[h.slot as usize]))
        }
    }

    /// Remove and return the earliest event.
    ///
    /// # Panics
    ///
    /// Panics only on a broken internal invariant (the chosen tier's
    /// entry vanishing between peek and pop).
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let (from_seeded, time, event) = self.front()?;
        if from_seeded {
            self.cursor += 1;
        } else {
            #[expect(clippy::expect_used, reason = "invariant: front() saw a heap entry")]
            let key = self
                .heap
                .pop()
                .expect("invariant: front() saw a heap entry");
            self.free.push(key.slot);
        }
        Some((time, event))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.front().map(|(_, t, _)| t)
    }

    /// The earliest event and its time without removing it.
    pub fn peek(&self) -> Option<(Time, Event)> {
        self.front().map(|(_, t, e)| (t, e))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.seeded.len() - self.cursor + self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(30), Event::Arrival { job: 3 });
        q.push(Time::from_secs(10), Event::Arrival { job: 1 });
        q.push(Time::from_secs(20), Event::Arrival { job: 2 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival { job } => job,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_secs(5);
        for job in 0..100 {
            q.push(t, Event::Arrival { job });
        }
        for expect in 0..100 {
            let (time, e) = q.pop().unwrap();
            assert_eq!(time, t);
            assert_eq!(e, Event::Arrival { job: expect });
        }
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(10), Event::Arrival { job: 1 });
        q.push(
            Time::from_secs(5),
            Event::ExecutionEnd {
                run_id: 7,
                success: true,
            },
        );
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, Time::from_secs(5));
        assert!(matches!(e, Event::ExecutionEnd { run_id: 7, .. }));
        q.push(Time::from_secs(1), Event::Arrival { job: 9 });
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_secs(1));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn seeded_schedule_pops_like_upfront_pushes() {
        // The same events, seeded vs pushed, must pop identically —
        // including the stable tie order for equal times and the
        // seeded-before-runtime rule when a push lands on a seeded time.
        let t = Time::from_secs(5);
        let schedule = vec![
            (Time::from_secs(9), Event::Arrival { job: 0 }),
            (t, Event::Arrival { job: 1 }),
            (t, Event::Arrival { job: 2 }),
            (Time::from_secs(1), Event::Arrival { job: 3 }),
        ];
        let mut seeded = EventQueue::from_schedule(schedule.clone());
        let mut pushed = EventQueue::new();
        for &(time, event) in &schedule {
            pushed.push(time, event);
        }
        seeded.push(
            t,
            Event::ExecutionEnd {
                run_id: 0,
                success: true,
            },
        );
        pushed.push(
            t,
            Event::ExecutionEnd {
                run_id: 0,
                success: true,
            },
        );
        assert_eq!(seeded.len(), 5);
        loop {
            let (a, b) = (seeded.pop(), pushed.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::with_capacity(4);
        assert_eq!(q.peek(), None);
        q.push(Time::from_secs(2), Event::Arrival { job: 0 });
        assert_eq!(q.peek_time(), Some(Time::from_secs(2)));
        assert_eq!(
            q.peek(),
            Some((Time::from_secs(2), Event::Arrival { job: 0 }))
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slab_slots_recycle_without_growth() {
        let mut q = EventQueue::new();
        // Interleave pushes and pops so the free list gets exercised: the
        // slab never needs more slots than the peak in-flight count.
        for round in 0..50u64 {
            q.push(
                Time::from_secs(round),
                Event::ExecutionEnd {
                    run_id: round,
                    success: true,
                },
            );
            q.push(
                Time::from_secs(round),
                Event::ExecutionEnd {
                    run_id: round + 1000,
                    success: false,
                },
            );
            let (_, e) = q.pop().unwrap();
            assert_eq!(
                e,
                Event::ExecutionEnd {
                    run_id: round,
                    success: true
                }
            );
            let (_, e) = q.pop().unwrap();
            assert_eq!(
                e,
                Event::ExecutionEnd {
                    run_id: round + 1000,
                    success: false
                }
            );
        }
        assert!(
            q.pool.len() <= 2,
            "slab grew past peak concurrency: {}",
            q.pool.len()
        );
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut q = EventQueue::from_schedule(vec![
            (Time::from_secs(1), Event::Arrival { job: 0 }),
            (Time::from_secs(2), Event::Arrival { job: 1 }),
        ]);
        q.push(
            Time::from_secs(3),
            Event::ExecutionEnd {
                run_id: 0,
                success: true,
            },
        );
        let cap = q.pool.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.pool.capacity(), cap);
        // A cleared queue behaves like a fresh one, seqs included.
        q.seed(vec![(Time::from_secs(7), Event::Arrival { job: 9 })]);
        q.push(
            Time::from_secs(7),
            Event::ExecutionEnd {
                run_id: 1,
                success: true,
            },
        );
        // Seeded entry wins the time tie, as in a fresh queue.
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(7), Event::Arrival { job: 9 }))
        );
    }
}
