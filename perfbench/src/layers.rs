//! Layer tracing from outside the program: forwarding decorators around
//! the estimator (`core`) and the matchmaker (`classad`), an observer that
//! records every execution start and end, and a replay of those starts and
//! ends on a fresh cluster (`cluster`).
//!
//! Per-call spans are folded into `(calls, ns)` totals at the decorator.
//! The decorators and the observer run on the thread that drives the
//! simulation, so they share one thread-local [`Ledger`] without locks.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use resmatch_cluster::{Allocation, Capacity, Cluster, Demand, MatchPolicy, PoolMatcher};
use resmatch_core::snapshot::{SnapshotError, SnapshotState};
use resmatch_core::traits::{requested_demand, EstimateContext, EstimateScope, Feedback};
use resmatch_core::ResourceEstimator;
use resmatch_sim::SimObserver;
use resmatch_workload::{Job, JobId, Time};

use crate::report::LatencyHist;

/// Call count and total nanoseconds of one span kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

impl Span {
    /// Count one call that took `ns`.
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// What was added since `earlier`, a copy of this total.
    pub fn since(&self, earlier: Span) -> Span {
        Span {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
        }
    }

    /// Fold another span total into this one.
    pub fn absorb(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Total time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Run `f`, returning its result and the nanoseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// One execution start or end, in engine order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An execution started: the demand handed to the allocator, the node
    /// count and the weakest granted node's memory.
    Start {
        /// The job.
        job: u64,
        /// Demand the engine allocated for.
        demand: Demand,
        /// Nodes allocated.
        nodes: u32,
        /// Memory of the weakest allocated node, KB.
        granted_kb: u64,
    },
    /// An execution ended (completed or failed) and released its nodes.
    End {
        /// The job.
        job: u64,
    },
}

/// Everything the decorators record during one run.
#[derive(Default)]
pub struct Ledger {
    /// `ResourceEstimator::estimate` spans.
    pub estimate: Span,
    /// `ResourceEstimator::feedback` spans.
    pub feedback: Span,
    /// `ResourceEstimator::estimate_scope` calls.
    pub scope_calls: u64,
    /// `PoolMatcher::prepare` spans.
    pub prepare: Span,
    /// `PoolMatcher::matches` calls.
    pub matches_calls: u64,
    /// `PoolMatcher::rank` calls.
    pub rank_calls: u64,
    /// `PoolMatcher::demand_signature` calls.
    pub signature_calls: u64,
    /// Signature calls that returned `Some`.
    pub signature_some: u64,
    /// Per-call `estimate` latencies, when the run keeps them.
    pub latencies: Option<LatencyHist>,
    /// Whether starts and ends are recorded for the replay.
    pub record_ops: bool,
    /// Starts and ends, in engine order.
    pub ops: Vec<Op>,
    /// Per job id: the demand the engine will allocate for (its latest
    /// estimate, or its request once the estimator is bypassed) and its
    /// request.
    demands: Vec<(Demand, Demand)>,
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

fn with_ledger<R>(f: impl FnOnce(&mut Ledger) -> R) -> R {
    LEDGER.with(|l| f(&mut l.borrow_mut()))
}

/// Start a fresh ledger for the next decorated run: per-call `estimate`
/// latencies go into `latencies` when given, and starts and ends are
/// recorded when `record_ops` is set.
pub fn reset_ledger(latencies: Option<LatencyHist>, record_ops: bool) {
    with_ledger(|l| {
        *l = Ledger {
            latencies,
            record_ops,
            ..Ledger::default()
        }
    });
}

/// Take what the last decorated run recorded, leaving an empty ledger.
pub fn take_ledger() -> Ledger {
    with_ledger(std::mem::take)
}

/// Forwarding [`ResourceEstimator`] that times `estimate` and `feedback`,
/// counts `estimate_scope`, and notes each job's demand for the replay.
pub struct TracedEstimator {
    inner: Box<dyn ResourceEstimator>,
}

impl TracedEstimator {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ResourceEstimator>) -> Self {
        TracedEstimator { inner }
    }
}

impl ResourceEstimator for TracedEstimator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
        let (d, ns) = timed(|| self.inner.estimate(job, ctx));
        with_ledger(|l| {
            l.estimate.add(ns);
            if let Some(h) = &mut l.latencies {
                h.record(ns);
            }
            if !l.record_ops {
                return;
            }
            let id = job.id.0 as usize;
            if l.demands.len() <= id {
                l.demands
                    .resize(id + 1, (Demand::default(), Demand::default()));
            }
            l.demands[id] = (d, requested_demand(job));
        });
        d
    }

    fn feedback(
        &mut self,
        job: &Job,
        granted: &Demand,
        feedback: &Feedback,
        ctx: &EstimateContext,
    ) {
        let ((), ns) = timed(|| self.inner.feedback(job, granted, feedback, ctx));
        with_ledger(|l| l.feedback.add(ns));
    }

    fn estimate_scope(&self, job: &Job) -> EstimateScope {
        with_ledger(|l| l.scope_calls += 1);
        self.inner.estimate_scope(job)
    }

    fn snapshot_state(&self) -> Option<SnapshotState> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: SnapshotState) -> Result<(), SnapshotError> {
        self.inner.restore_state(state)
    }
}

/// Forwarding [`PoolMatcher`] that times `prepare` and counts the other
/// calls.
pub struct TracedMatcher<M> {
    inner: M,
}

impl<M: PoolMatcher> TracedMatcher<M> {
    /// Wrap `inner`.
    pub fn new(inner: M) -> Self {
        TracedMatcher { inner }
    }
}

impl<M: PoolMatcher> PoolMatcher for TracedMatcher<M> {
    fn prepare(&mut self, demand: &Demand) {
        let ((), ns) = timed(|| self.inner.prepare(demand));
        with_ledger(|l| l.prepare.add(ns));
    }

    fn matches(&mut self, pool: usize, capacity: &Capacity) -> bool {
        with_ledger(|l| l.matches_calls += 1);
        self.inner.matches(pool, capacity)
    }

    fn rank(&mut self, pool: usize, capacity: &Capacity) -> f64 {
        with_ledger(|l| l.rank_calls += 1);
        self.inner.rank(pool, capacity)
    }

    fn is_ranked(&self) -> bool {
        self.inner.is_ranked()
    }

    fn demand_signature(&self) -> Option<u64> {
        let sig = self.inner.demand_signature();
        with_ledger(|l| {
            l.signature_calls += 1;
            l.signature_some += u64::from(sig.is_some());
        });
        sig
    }

    fn eligible_pools(&self) -> Option<&[u64]> {
        self.inner.eligible_pools()
    }
}

/// Observer recording every execution start (with the demand the engine
/// handed the allocator) and end.
#[derive(Debug, Default)]
pub struct StartRecorder;

impl SimObserver for StartRecorder {
    fn on_started(&mut self, _time: Time, job: JobId, granted_kb: u64, nodes: u32) {
        with_ledger(|l| {
            let demand = l
                .demands
                .get(job.0 as usize)
                .map(|d| d.0)
                .unwrap_or_default();
            l.ops.push(Op::Start {
                job: job.0,
                demand,
                nodes,
                granted_kb,
            });
        });
    }

    fn on_completed(&mut self, _time: Time, job: JobId) {
        with_ledger(|l| l.ops.push(Op::End { job: job.0 }));
    }

    fn on_failed(&mut self, _time: Time, job: JobId, _under_provisioned: bool) {
        with_ledger(|l| l.ops.push(Op::End { job: job.0 }));
    }

    fn on_estimator_bypassed(&mut self, _time: Time, job: JobId, _attempts: u32) {
        // The engine now allocates for the raw request.
        with_ledger(|l| {
            if let Some(d) = l.demands.get_mut(job.0 as usize) {
                d.0 = d.1;
            }
        });
    }
}

/// What replaying a run's starts and ends on a fresh cluster cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// `try_allocate` / `try_allocate_matched` spans.
    pub alloc: Span,
    /// `release` spans.
    pub release: Span,
    /// Starts that were refused or granted other memory than the engine
    /// reported, plus ends of executions the replay never started.
    pub mismatches: u64,
}

/// Replay `ops` on `cluster`, through `matcher` when the run matched.
pub fn replay(
    ops: &[Op],
    mut cluster: Cluster,
    mut matcher: Option<&mut dyn PoolMatcher>,
    policy: MatchPolicy,
) -> Replay {
    let mut out = Replay::default();
    let mut live: Vec<Option<Allocation>> = Vec::new();
    for op in ops {
        match *op {
            Op::Start {
                job,
                demand,
                nodes,
                granted_kb,
            } => {
                let (alloc, ns) = match matcher.as_deref_mut() {
                    Some(m) => {
                        m.prepare(&demand);
                        timed(|| cluster.try_allocate_matched(nodes, &demand, policy, job, m))
                    }
                    None => timed(|| cluster.try_allocate(nodes, &demand, policy, job)),
                };
                out.alloc.add(ns);
                let Some(alloc) = alloc else {
                    out.mismatches += 1;
                    continue;
                };
                if cluster.allocation_min_mem(&alloc) != granted_kb {
                    out.mismatches += 1;
                }
                let slot = job as usize;
                if live.len() <= slot {
                    live.resize_with(slot + 1, || None);
                }
                if live[slot].replace(alloc).is_some() {
                    out.mismatches += 1;
                }
            }
            Op::End { job } => match live.get_mut(job as usize).and_then(Option::take) {
                Some(alloc) => {
                    let ((), ns) = timed(|| cluster.release(alloc));
                    out.release.add(ns);
                }
                None => out.mismatches += 1,
            },
        }
    }
    out
}

/// One span of the traced phase, as the span file records it. Per-call
/// spans are folded: `calls` crossings of one layer boundary inside
/// `[start_ns, end_ns]`, `busy_ns` spent in them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Run index: the spans of one simulated run or service pass share it.
    pub run: u64,
    /// Layer boundary, e.g. `core.estimate`.
    pub name: &'static str,
    /// The enclosing span of the same run, if any.
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Crossings folded into this record.
    pub calls: u64,
    /// Time spent inside them.
    pub busy_ns: u64,
}

/// The traced phase's spans, kept in memory and written when it ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    records: Vec<SpanRecord>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            records: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a top-level span that ran from `start_ns` until now.
    pub fn open(&mut self, run: u64, name: &'static str, start_ns: u64) -> SpanRecord {
        let end_ns = self.now();
        let rec = SpanRecord {
            run,
            name,
            parent: None,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - start_ns,
        };
        self.records.push(rec);
        rec
    }

    /// Record the folded calls `span` made inside `parent`; none, nothing.
    pub fn child(&mut self, parent: &SpanRecord, name: &'static str, span: Span) {
        if span.calls > 0 {
            self.records.push(SpanRecord {
                name,
                parent: Some(parent.name),
                calls: span.calls,
                busy_ns: span.ns,
                ..*parent
            });
        }
    }

    /// The spans recorded so far.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Write the spans as JSON lines, creating the parent directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                r.run, r.name, r.start_ns, r.end_ns, r.calls, r.busy_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What the clock adds to the figures.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// Median reading of an empty [`timed`] call: the clock's share of
    /// every per-call latency sample, which the reported latencies have
    /// subtracted.
    pub sample_ns: f64,
    /// Host time one span's pair of clock reads takes.
    pub span_ns: f64,
}

/// Measure [`ClockCost`] over a tight loop of empty timed calls.
pub fn clock_cost() -> ClockCost {
    const N: u32 = 100_000;
    let mut readings = LatencyHist::default();
    let t = Instant::now();
    for _ in 0..N {
        let ((), ns) = timed(|| ());
        readings.record(ns);
    }
    ClockCost {
        sample_ns: readings.percentile(0.5),
        span_ns: t.elapsed().as_nanos() as f64 / f64::from(N),
    }
}
