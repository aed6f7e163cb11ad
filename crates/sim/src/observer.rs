//! Pluggable observability: the [`SimObserver`] event stream and shipped
//! observer implementations.
//!
//! The engine drives an optional observer through every scheduling
//! decision — arrivals, admissions (with the estimated demand), execution
//! starts (with the granted capacity), completions, under-provision
//! failures, estimator feedback deliveries, estimator-bypass transitions,
//! and cluster churn. When no observer is attached the cost is a single
//! branch per callback site, so an unobserved run pays nothing measurable
//! (the golden and throughput suites pin this).
//!
//! Shipped implementations:
//!
//! - [`TraceLogObserver`] — reproduces the historical [`TraceLog`]
//!   byte-for-byte and deposits it into [`SimResult::trace_log`] when the
//!   run ends;
//! - [`CountersObserver`] — lock-free atomic counters shared across clones,
//!   so sweeps can stream aggregate progress from worker threads;
//! - [`ProgressObserver`] — periodic progress lines (stderr by default) for
//!   long runs and sweeps;
//! - [`MultiObserver`] — composes any number of observers into one.
//!
//! Sweeps observe through the separate [`SweepObserver`] trait: a sweep
//! point runs on whatever worker thread claims it, so the sweep-level hook
//! takes `&self` and must be `Sync`, while the engine-level [`SimObserver`]
//! is single-threaded per run and takes `&mut self`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use resmatch_workload::{JobId, Time};

use crate::metrics::{RunCounters, SimResult};
use crate::tracelog::{TraceKind, TraceLog};

/// Receiver for the engine's per-decision event stream.
///
/// Every callback has a no-op default, so implementations override only
/// what they need. Callbacks fire synchronously on the simulation thread in
/// event order; an observer that blocks stalls the run.
pub trait SimObserver: Send {
    /// The run is starting; `total_jobs` is the workload size.
    fn on_run_start(&mut self, total_jobs: usize) {
        let _ = total_jobs;
    }

    /// A job arrived (its trace submit time was reached).
    fn on_arrival(&mut self, time: Time, job: JobId) {
        let _ = (time, job);
    }

    /// A (re)submission entered the queue with this estimated demand.
    /// `attempt` is 0 for the first submission and counts failed
    /// executions on requeues.
    fn on_admitted(&mut self, time: Time, job: JobId, demand_kb: u64, attempt: u32) {
        let _ = (time, job, demand_kb, attempt);
    }

    /// An execution started on `nodes` machines whose weakest member holds
    /// `granted_kb` of memory.
    fn on_started(&mut self, time: Time, job: JobId, granted_kb: u64, nodes: u32) {
        let _ = (time, job, granted_kb, nodes);
    }

    /// An execution completed successfully.
    fn on_completed(&mut self, time: Time, job: JobId) {
        let _ = (time, job);
    }

    /// An execution died. `under_provisioned` is true when the allocation
    /// genuinely could not hold the job (the paper's failure mode) and
    /// false for an injected false-positive fault.
    fn on_failed(&mut self, time: Time, job: JobId, under_provisioned: bool) {
        let _ = (time, job, under_provisioned);
    }

    /// The estimator received feedback for a finished execution.
    fn on_feedback(&mut self, time: Time, job: JobId, success: bool) {
        let _ = (time, job, success);
    }

    /// An admission bypassed the estimator and submitted the raw user
    /// request — the engine's backoff after
    /// [`SimConfig::max_estimation_attempts`](crate::engine::SimConfig::max_estimation_attempts)
    /// failed executions.
    fn on_estimator_bypassed(&mut self, time: Time, job: JobId, attempts: u32) {
        let _ = (time, job, attempts);
    }

    /// Cluster membership changed by `delta` nodes (negative = leave).
    fn on_churn(&mut self, time: Time, delta: i64) {
        let _ = (time, delta);
    }

    /// Matchmaking mode only: the engine asked the allocator to place
    /// `nodes` machines for `job` through the matchmaker. Fires once per
    /// allocator call, as counted by [`RunCounters::match_attempts`] —
    /// entries whose recorded refusal still stands, and backfill
    /// candidates with too few free nodes, in total or in eligible pools,
    /// never reach the allocator and are not reported.
    fn on_match_attempt(&mut self, time: Time, job: JobId, nodes: u32) {
        let _ = (time, job, nodes);
    }

    /// Matchmaking mode only: the attempt reported by
    /// [`SimObserver::on_match_attempt`] found no placement (too few
    /// eligible free nodes among the matching pools).
    fn on_match_refused(&mut self, time: Time, job: JobId) {
        let _ = (time, job);
    }

    /// The run finished. Observers may fold what they accumulated into the
    /// result (this is how [`TraceLogObserver`] populates
    /// [`SimResult::trace_log`]).
    fn on_run_end(&mut self, result: &mut SimResult) {
        let _ = result;
    }
}

/// Thread-safe observer attachment for sweeps
/// ([`run_load_sweep_observed`](crate::experiment::run_load_sweep_observed)
/// and
/// [`run_cluster_sweep_observed`](crate::experiment::run_cluster_sweep_observed)).
///
/// Sweep points run concurrently on a worker pool, so these hooks take
/// `&self`; implementations share state through atomics or locks.
pub trait SweepObserver: Send + Sync {
    /// Build the engine-level observer to attach to point `index`'s
    /// simulation(s), or `None` to run the point unobserved. Called from
    /// the worker thread that claims the point.
    fn point_observer(&self, index: usize) -> Option<Box<dyn SimObserver>> {
        let _ = index;
        None
    }

    /// A sweep point finished; called from its worker thread with the
    /// point's (estimated, for cluster sweeps) result.
    fn on_point_complete(&self, index: usize, total: usize, result: &SimResult) {
        let _ = (index, total, result);
    }
}

/// Reproduces the historical [`TraceLog`] through the observer layer.
///
/// Attached via [`Simulation::builder`](crate::engine::Simulation::builder)
/// (the `.trace_log()` sugar), it records exactly the
/// entries the bool-gated implementation recorded — admissions, starts,
/// completions, failures, churn — and moves the finished log into
/// [`SimResult::trace_log`] when the run ends. Fixed-seed runs are
/// byte-identical to the pre-observer engine.
#[derive(Debug, Default)]
pub struct TraceLogObserver {
    log: TraceLog,
}

impl TraceLogObserver {
    /// New, empty trace-log observer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SimObserver for TraceLogObserver {
    fn on_admitted(&mut self, time: Time, job: JobId, demand_kb: u64, attempt: u32) {
        self.log
            .push(time, job, TraceKind::Admitted { demand_kb, attempt });
    }

    fn on_started(&mut self, time: Time, job: JobId, granted_kb: u64, nodes: u32) {
        self.log
            .push(time, job, TraceKind::Started { granted_kb, nodes });
    }

    fn on_completed(&mut self, time: Time, job: JobId) {
        self.log.push(time, job, TraceKind::Completed);
    }

    fn on_failed(&mut self, time: Time, job: JobId, _under_provisioned: bool) {
        self.log.push(time, job, TraceKind::Failed);
    }

    fn on_churn(&mut self, time: Time, delta: i64) {
        self.log.push(time, JobId(0), TraceKind::Churn { delta });
    }

    fn on_run_end(&mut self, result: &mut SimResult) {
        result.trace_log = std::mem::take(&mut self.log);
    }
}

/// Shared atomic counter block behind [`CountersObserver`] clones.
#[derive(Debug, Default)]
struct SharedCounters {
    arrivals: AtomicU64,
    admissions: AtomicU64,
    started: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    requeued: AtomicU64,
    estimator_bypassed: AtomicU64,
    churn_events: AtomicU64,
    match_attempts: AtomicU64,
    match_refusals: AtomicU64,
    runs_started: AtomicU64,
    runs_finished: AtomicU64,
    sweep_points: AtomicU64,
    run_wall_us: AtomicU64,
}

/// Live, thread-safe run counters.
///
/// Clones share one atomic counter block, so a sweep can hand every worker
/// thread its own clone while the caller's handle watches the aggregate
/// stream live via [`CountersObserver::snapshot`]. Per-run wall clock is
/// measured per clone (each sweep point gets its own clone) and summed into
/// the shared block, giving cumulative simulation wall time across points.
#[derive(Debug, Default)]
pub struct CountersObserver {
    inner: Arc<SharedCounters>,
    run_started_at: Option<Instant>,
}

impl Clone for CountersObserver {
    fn clone(&self) -> Self {
        CountersObserver {
            inner: Arc::clone(&self.inner),
            // Wall-clock timing is per-run, not shared.
            run_started_at: None,
        }
    }
}

/// Point-in-time view of a [`CountersObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CountersSnapshot {
    /// Event counters, aggregated across every observed run so far.
    pub counters: RunCounters,
    /// Runs that started.
    pub runs_started: u64,
    /// Runs that finished.
    pub runs_finished: u64,
    /// Sweep points that completed (when used as a [`SweepObserver`]).
    pub sweep_points: u64,
    /// Cumulative wall-clock seconds spent inside observed runs.
    pub run_wall_s: f64,
}

impl CountersObserver {
    /// New counter block, all zeros.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the current aggregate counts. Safe to call from any thread
    /// while runs are in flight; individual counters are each atomically
    /// read, so a mid-run snapshot is approximate across counters but
    /// never torn within one.
    pub fn snapshot(&self) -> CountersSnapshot {
        let c = &self.inner;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CountersSnapshot {
            counters: RunCounters {
                arrivals: load(&c.arrivals),
                admissions: load(&c.admissions),
                started: load(&c.started),
                completed: load(&c.completed),
                failed: load(&c.failed),
                requeued: load(&c.requeued),
                estimator_bypassed: load(&c.estimator_bypassed),
                churn_events: load(&c.churn_events),
                match_attempts: load(&c.match_attempts),
                match_refusals: load(&c.match_refusals),
            },
            runs_started: load(&c.runs_started),
            runs_finished: load(&c.runs_finished),
            sweep_points: load(&c.sweep_points),
            run_wall_s: load(&c.run_wall_us) as f64 / 1e6,
        }
    }
}

impl SimObserver for CountersObserver {
    fn on_run_start(&mut self, _total_jobs: usize) {
        self.inner.runs_started.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "the wall clock only feeds the snapshot's run_wall_s; SimResult never sees it"
        )]
        let now = Instant::now();
        self.run_started_at = Some(now);
    }

    fn on_arrival(&mut self, _time: Time, _job: JobId) {
        self.inner.arrivals.fetch_add(1, Ordering::Relaxed);
    }

    fn on_admitted(&mut self, _time: Time, _job: JobId, _demand_kb: u64, attempt: u32) {
        self.inner.admissions.fetch_add(1, Ordering::Relaxed);
        if attempt > 0 {
            self.inner.requeued.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_started(&mut self, _time: Time, _job: JobId, _granted_kb: u64, _nodes: u32) {
        self.inner.started.fetch_add(1, Ordering::Relaxed);
    }

    fn on_completed(&mut self, _time: Time, _job: JobId) {
        self.inner.completed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_failed(&mut self, _time: Time, _job: JobId, _under_provisioned: bool) {
        self.inner.failed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_estimator_bypassed(&mut self, _time: Time, _job: JobId, _attempts: u32) {
        self.inner
            .estimator_bypassed
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_churn(&mut self, _time: Time, _delta: i64) {
        self.inner.churn_events.fetch_add(1, Ordering::Relaxed);
    }

    fn on_match_attempt(&mut self, _time: Time, _job: JobId, _nodes: u32) {
        self.inner.match_attempts.fetch_add(1, Ordering::Relaxed);
    }

    fn on_match_refused(&mut self, _time: Time, _job: JobId) {
        self.inner.match_refusals.fetch_add(1, Ordering::Relaxed);
    }

    fn on_run_end(&mut self, _result: &mut SimResult) {
        if let Some(start) = self.run_started_at.take() {
            self.inner
                .run_wall_us
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        self.inner.runs_finished.fetch_add(1, Ordering::Relaxed);
    }
}

impl SweepObserver for CountersObserver {
    fn point_observer(&self, _index: usize) -> Option<Box<dyn SimObserver>> {
        Some(Box::new(self.clone()))
    }

    fn on_point_complete(&self, _index: usize, _total: usize, _result: &SimResult) {
        self.inner.sweep_points.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a [`ProgressObserver`] writes its lines.
type ProgressSink = Arc<dyn Fn(&str) + Send + Sync>;

/// Periodic human-readable progress lines for long runs and sweeps.
///
/// As a [`SimObserver`] it emits a line every `every_events` engine events
/// plus a summary when the run ends; as a [`SweepObserver`] it reports each
/// completed point. Output goes to stderr unless a custom sink is
/// installed with [`ProgressObserver::with_sink`] (tests capture lines this
/// way).
pub struct ProgressObserver {
    label: String,
    every_events: u64,
    sink: ProgressSink,
    events: u64,
    completed: u64,
    failed: u64,
    last_time: Time,
    points_done: Arc<AtomicU64>,
}

impl std::fmt::Debug for ProgressObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressObserver")
            .field("label", &self.label)
            .field("every_events", &self.every_events)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl Default for ProgressObserver {
    fn default() -> Self {
        ProgressObserver::new("sim", 250_000)
    }
}

impl Clone for ProgressObserver {
    fn clone(&self) -> Self {
        ProgressObserver {
            label: self.label.clone(),
            every_events: self.every_events,
            sink: Arc::clone(&self.sink),
            // Event counts are per-run; the shared point counter is not.
            events: 0,
            completed: 0,
            failed: 0,
            last_time: Time::ZERO,
            points_done: Arc::clone(&self.points_done),
        }
    }
}

impl ProgressObserver {
    /// Progress every `every_events` engine events, labelled `label` in
    /// each line. `every_events == 0` silences periodic lines, keeping
    /// only run-end and sweep-point reports.
    pub fn new(label: impl Into<String>, every_events: u64) -> Self {
        ProgressObserver {
            label: label.into(),
            every_events,
            sink: Arc::new(|line| eprintln!("{line}")),
            events: 0,
            completed: 0,
            failed: 0,
            last_time: Time::ZERO,
            points_done: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Redirect output to a custom sink instead of stderr.
    pub fn with_sink(mut self, sink: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.sink = Arc::new(sink);
        self
    }

    fn tick(&mut self, time: Time) {
        self.events += 1;
        self.last_time = time;
        if self.every_events > 0 && self.events.is_multiple_of(self.every_events) {
            (self.sink)(&format!(
                "[{}] {} events, {} completed, {} failed, sim t={}s",
                self.label,
                self.events,
                self.completed,
                self.failed,
                time.as_secs_f64() as u64,
            ));
        }
    }
}

impl SimObserver for ProgressObserver {
    fn on_run_start(&mut self, total_jobs: usize) {
        self.events = 0;
        self.completed = 0;
        self.failed = 0;
        if self.every_events > 0 {
            (self.sink)(&format!(
                "[{}] run started: {} jobs",
                self.label, total_jobs
            ));
        }
    }

    fn on_arrival(&mut self, time: Time, _job: JobId) {
        self.tick(time);
    }

    fn on_completed(&mut self, time: Time, _job: JobId) {
        self.completed += 1;
        self.tick(time);
    }

    fn on_failed(&mut self, time: Time, _job: JobId, _under_provisioned: bool) {
        self.failed += 1;
        self.tick(time);
    }

    fn on_churn(&mut self, time: Time, _delta: i64) {
        self.tick(time);
    }

    fn on_run_end(&mut self, result: &mut SimResult) {
        (self.sink)(&format!(
            "[{}] run finished: {} completed, {} dropped, {} failed executions, makespan {}s",
            self.label,
            result.completed_jobs,
            result.dropped_jobs,
            result.failed_executions,
            result.makespan().as_secs_f64() as u64,
        ));
    }
}

impl SweepObserver for ProgressObserver {
    fn on_point_complete(&self, index: usize, total: usize, result: &SimResult) {
        let done = self.points_done.fetch_add(1, Ordering::Relaxed) + 1;
        (self.sink)(&format!(
            "[{}] sweep point {index} done ({done}/{total}): estimator={} util={:.4}",
            self.label,
            result.estimator,
            result.utilization(),
        ));
    }
}

/// Fans every callback out to a list of observers, in attachment order.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<Box<dyn SimObserver>>,
}

impl std::fmt::Debug for MultiObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiObserver")
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl MultiObserver {
    /// New, empty composition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chain-style attachment.
    pub fn with(mut self, observer: impl SimObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Append an already-boxed observer.
    pub fn push(&mut self, observer: Box<dyn SimObserver>) {
        self.observers.push(observer);
    }

    /// Compose two boxed observers (used when stacking attachments).
    pub fn pair(first: Box<dyn SimObserver>, second: Box<dyn SimObserver>) -> Self {
        MultiObserver {
            observers: vec![first, second],
        }
    }

    /// Number of composed observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// True when nothing is attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl SimObserver for MultiObserver {
    fn on_run_start(&mut self, total_jobs: usize) {
        for o in &mut self.observers {
            o.on_run_start(total_jobs);
        }
    }

    fn on_arrival(&mut self, time: Time, job: JobId) {
        for o in &mut self.observers {
            o.on_arrival(time, job);
        }
    }

    fn on_admitted(&mut self, time: Time, job: JobId, demand_kb: u64, attempt: u32) {
        for o in &mut self.observers {
            o.on_admitted(time, job, demand_kb, attempt);
        }
    }

    fn on_started(&mut self, time: Time, job: JobId, granted_kb: u64, nodes: u32) {
        for o in &mut self.observers {
            o.on_started(time, job, granted_kb, nodes);
        }
    }

    fn on_completed(&mut self, time: Time, job: JobId) {
        for o in &mut self.observers {
            o.on_completed(time, job);
        }
    }

    fn on_failed(&mut self, time: Time, job: JobId, under_provisioned: bool) {
        for o in &mut self.observers {
            o.on_failed(time, job, under_provisioned);
        }
    }

    fn on_feedback(&mut self, time: Time, job: JobId, success: bool) {
        for o in &mut self.observers {
            o.on_feedback(time, job, success);
        }
    }

    fn on_estimator_bypassed(&mut self, time: Time, job: JobId, attempts: u32) {
        for o in &mut self.observers {
            o.on_estimator_bypassed(time, job, attempts);
        }
    }

    fn on_churn(&mut self, time: Time, delta: i64) {
        for o in &mut self.observers {
            o.on_churn(time, delta);
        }
    }

    fn on_match_attempt(&mut self, time: Time, job: JobId, nodes: u32) {
        for o in &mut self.observers {
            o.on_match_attempt(time, job, nodes);
        }
    }

    fn on_match_refused(&mut self, time: Time, job: JobId) {
        for o in &mut self.observers {
            o.on_match_refused(time, job);
        }
    }

    fn on_run_end(&mut self, result: &mut SimResult) {
        for o in &mut self.observers {
            o.on_run_end(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_log_observer_reproduces_entries() {
        let mut obs = TraceLogObserver::new();
        obs.on_admitted(Time::from_secs(1), JobId(7), 4096, 0);
        obs.on_started(Time::from_secs(2), JobId(7), 8192, 4);
        obs.on_completed(Time::from_secs(3), JobId(7));
        obs.on_failed(Time::from_secs(4), JobId(8), true);
        obs.on_churn(Time::from_secs(5), -4);
        assert_eq!(obs.log.len(), 5);
        assert_eq!(obs.log.granted_trajectory(JobId(7)), vec![8192]);
        // Churn entries carry the cluster-level JobId(0).
        assert_eq!(obs.log.for_job(JobId(0)).count(), 1);
    }

    #[test]
    fn counters_clones_share_the_block() {
        let a = CountersObserver::new();
        let mut b = a.clone();
        b.on_arrival(Time::ZERO, JobId(1));
        b.on_admitted(Time::ZERO, JobId(1), 100, 0);
        b.on_admitted(Time::ZERO, JobId(1), 100, 2);
        b.on_estimator_bypassed(Time::ZERO, JobId(1), 3);
        let snap = a.snapshot();
        assert_eq!(snap.counters.arrivals, 1);
        assert_eq!(snap.counters.admissions, 2);
        assert_eq!(snap.counters.requeued, 1);
        assert_eq!(snap.counters.estimator_bypassed, 1);
        assert_eq!(snap.runs_started, 0);
    }

    #[test]
    fn progress_observer_emits_to_sink() {
        use std::sync::Mutex;
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink_lines = Arc::clone(&lines);
        let mut obs = ProgressObserver::new("test", 2)
            .with_sink(move |l| sink_lines.lock().unwrap().push(l.to_string()));
        obs.on_run_start(10);
        obs.on_arrival(Time::from_secs(1), JobId(1));
        obs.on_arrival(Time::from_secs(2), JobId(2));
        obs.on_arrival(Time::from_secs(3), JobId(3));
        obs.on_completed(Time::from_secs(4), JobId(1));
        let got = lines.lock().unwrap().clone();
        // Start line + ticks at events 2 and 4.
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got[0].contains("run started: 10 jobs"));
        assert!(got[1].contains("2 events"));
        assert!(got[2].contains("1 completed"));
    }

    #[test]
    fn multi_observer_fans_out_in_order() {
        let counters = CountersObserver::new();
        let mut multi = MultiObserver::new()
            .with(TraceLogObserver::new())
            .with(counters.clone());
        assert_eq!(multi.len(), 2);
        multi.on_arrival(Time::ZERO, JobId(1));
        multi.on_admitted(Time::ZERO, JobId(1), 64, 0);
        assert_eq!(counters.snapshot().counters.admissions, 1);
    }
}
