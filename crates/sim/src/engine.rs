//! The discrete-event simulation engine.
//!
//! Faithfully implements the paper's §3.1 environment:
//!
//! - jobs arrive by trace submit time and pass through the estimator before
//!   resource matching (Figure 2's pipeline);
//! - space sharing, no preemption;
//! - a job whose allocation cannot actually hold it (actual usage exceeds
//!   the weakest allocated node, or an exercised package is missing) "fails
//!   after a random time, drawn uniformly between zero and the execution
//!   run-time of that job" and "returns to the head of the queue";
//! - failed work is wasted: utilization counts goodput only.
//!
//! Engine-level semantics the paper leaves implicit:
//!
//! - estimates are *refreshed* while a job queues: a queued entry whose
//!   estimate may have been invalidated is re-estimated just before
//!   allocation — matching a live scheduler, where matching always consults
//!   the estimator's current state. Invalidation is scoped (see
//!   [`EstimateScope`]): feedback for one similarity group never forces
//!   re-estimation of jobs in other groups, membership churn invalidates
//!   everything, and context-dependent estimators keep the historical
//!   refresh-on-any-feedback rule;
//! - after `max_estimation_attempts` failed executions the engine bypasses
//!   the estimator and submits the raw user request, bounding retry storms
//!   for pathological groups;
//! - jobs whose full request can never be satisfied by the cluster are
//!   dropped up front (the paper removes the six 1024-node CM5 jobs for the
//!   same reason).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::mem;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use resmatch_cluster::{AllocationSpare, Cluster, Demand, MatchAll, MatchPolicy, PoolMatcher};
use resmatch_core::similarity::FnvBuildHasher;
use resmatch_core::traits::{requested_demand, used_demand};
use resmatch_core::{EstimateContext, EstimateScope, Feedback, ResourceEstimator};
use resmatch_workload::{Job, Time, Workload};

use crate::event::{Event, EventQueue};
use crate::metrics::{JobRecord, RunCounters, SimResult};
use crate::observer::{MultiObserver, SimObserver};
use crate::queue::{JobQueue, Queued};
use crate::release::ReleaseTable;
#[cfg(debug_assertions)]
use crate::scheduler::shadow_time;
use crate::scheduler::SchedulingPolicy;
use crate::spec::EstimatorSpec;
use crate::store::{run_flags, JobStore, RunTable};
use crate::tracelog::TraceLog;

/// Which feedback the cluster infrastructure can deliver (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeedbackMode {
    /// Success/failure bit only — "supported by every cluster and
    /// scheduling system"; the paper's simulations assume this.
    #[default]
    Implicit,
    /// Success plus measured peak usage — requires monitoring
    /// infrastructure.
    Explicit,
}

/// Engine configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`SimConfig::default`]
/// and the chained `with_*` setters so future fields are not semver
/// breaks.
///
/// ```
/// use resmatch_sim::prelude::*;
/// let cfg = SimConfig::default()
///     .with_scheduling(SchedulingPolicy::EasyBackfill)
///     .with_seed(7);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Queue discipline (paper: FCFS).
    pub scheduling: SchedulingPolicy,
    /// Pool ordering for allocation (paper scenario implies best-fit).
    pub match_policy: MatchPolicy,
    /// Feedback the estimator receives.
    pub feedback: FeedbackMode,
    /// Failed executions after which the engine bypasses the estimator and
    /// submits the raw request.
    pub max_estimation_attempts: u32,
    /// Probability that a correctly provisioned execution fails anyway
    /// (faulty program / faulty machine — the §2.1 false-positive hazard).
    pub false_positive_rate: f64,
    /// Seed for failure-time draws and fault injection.
    pub seed: u64,
    /// Whether to retain per-job [`JobRecord`]s in the result. Disabling
    /// this caps memory at queue-depth-plus-concurrency regardless of
    /// trace length (the 10-million-job stress mode); record-derived
    /// metrics ([`SimResult::mean_wait_s`] and friends) then report zero,
    /// while counters, goodput, and time-weighted statistics stay exact.
    pub retain_records: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheduling: SchedulingPolicy::Fcfs,
            match_policy: MatchPolicy::BestFit,
            feedback: FeedbackMode::Implicit,
            max_estimation_attempts: 3,
            false_positive_rate: 0.0,
            seed: 0x00C0_FFEE,
            retain_records: true,
        }
    }
}

impl SimConfig {
    /// Set the queue discipline.
    pub fn with_scheduling(mut self, scheduling: SchedulingPolicy) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Set the pool-ordering policy for allocation.
    pub fn with_match_policy(mut self, match_policy: MatchPolicy) -> Self {
        self.match_policy = match_policy;
        self
    }

    /// Set the feedback the estimator receives.
    pub fn with_feedback(mut self, feedback: FeedbackMode) -> Self {
        self.feedback = feedback;
        self
    }

    /// Set the failed-execution count after which the engine bypasses the
    /// estimator.
    pub fn with_max_estimation_attempts(mut self, attempts: u32) -> Self {
        self.max_estimation_attempts = attempts;
        self
    }

    /// Set the injected false-positive failure probability.
    pub fn with_false_positive_rate(mut self, rate: f64) -> Self {
        self.false_positive_rate = rate;
        self
    }

    /// Set the RNG seed for failure-time draws and fault injection.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set whether per-job records are retained (see
    /// [`SimConfig::retain_records`]).
    pub fn with_retain_records(mut self, retain: bool) -> Self {
        self.retain_records = retain;
        self
    }
}

/// Encoded [`EstimateScope`] resolution (see [`Queued::scope_slot`] and
/// the [`JobStore`] scope column): values below [`SCOPE_GLOBAL`] are dense
/// group slots into [`RunState::group_epoch_by_slot`]; the top values
/// encode the scalar scopes. `estimate_scope` is contractually a pure
/// function of the job, so one resolution per job is the only resolution —
/// caching it removes a similarity-key hash from every refresh and every
/// feedback delivery.
const SCOPE_UNRESOLVED: u32 = u32::MAX;
/// Encoded [`EstimateScope::Static`].
const SCOPE_STATIC: u32 = u32::MAX - 1;
/// Encoded [`EstimateScope::Global`].
const SCOPE_GLOBAL: u32 = u32::MAX - 2;

/// Memoized EASY reservation: the head's shadow crossing plus how far the
/// backfill scan got, valid exactly while nothing that could change either
/// has happened.
///
/// The key is `(head job, head demand, running generation, structural
/// epoch)`: free-node counts and the release set move only with starts,
/// completions, and churn (the two generations), and every in-queue
/// estimate refresh rides a feedback epoch that moves only with
/// completions — so a hit also proves no queued entry below `scanned`
/// needs re-estimation, and the pass may resume scanning at new arrivals.
struct ShadowCache {
    job: usize,
    demand: Demand,
    running_gen: u64,
    structural: u64,
    /// Uncapped crossing time (`shadow = crossing.max(now)` at use, since
    /// a conservative release time may already lie in the past); `None`
    /// when even a drained cluster cannot satisfy the head.
    crossing: Option<Time>,
    /// Queue entries below this index are proven unstartable under this
    /// key: their estimates are fresh, their conservative completions
    /// still overrun the shadow (`now` only grows the overrun), and the
    /// cluster they failed to allocate on is unchanged.
    scanned: usize,
}

/// Reusable simulation buffers: every growable structure one run needs,
/// cleared — capacity intact — rather than freed between runs.
///
/// A sweep worker holds one arena and threads it through every point via
/// [`Simulation::run_with_arena`]; after the first point warms the
/// buffers, subsequent runs do zero steady-state allocation in the engine.
/// A fresh arena is exactly what [`Simulation::run`] creates internally,
/// so results are byte-identical with and without reuse.
#[derive(Debug, Default)]
pub struct SimArena {
    queue: JobQueue,
    events: EventQueue,
    store: JobStore,
    runs: RunTable,
    release_table: ReleaseTable,
    group_slots: HashMap<u64, u32, FnvBuildHasher>,
    group_epoch_by_slot: Vec<u64>,
    sjf_heap: BinaryHeap<Reverse<(Time, i64)>>,
    pool_busy_time: Vec<f64>,
    /// Release buffer of the debug build's EASY shadow-time cross-check.
    #[cfg(debug_assertions)]
    shadow_check: Vec<(Time, u32)>,
    /// Retired-allocation buffers carried *across* cluster instances:
    /// sweep points clone a fresh cluster each, but the buffer pool is
    /// content-free (capacity only), so handing it to the next point's
    /// cluster is invisible to results and zeroes its warm-up
    /// allocations.
    alloc_spare: AllocationSpare,
}

/// Mutable state of one simulation run.
struct RunState {
    /// Struct-of-arrays wait queue (see [`crate::queue`]): tombstoning
    /// under FCFS/EASY, compacting under SJF.
    queue: JobQueue,
    /// Struct-of-arrays store of *active* jobs (queued or running), slots
    /// recycled on completion — per-job memory no longer scales with the
    /// trace. [`Queued::job`] and the run table hold its slot ids.
    store: JobStore,
    /// Struct-of-arrays slab of executions; `ExecutionEnd.run_id` indexes
    /// it. Entries are taken when they end, ids recycled.
    runs: RunTable,
    events: EventQueue,
    records: Vec<JobRecord>,
    rng: StdRng,
    /// Bumped on membership churn. Capacity changes can re-rank rungs and
    /// candidate counts, so every queued estimate predating it re-admits.
    structural_epoch: u64,
    /// Bumped on every estimator feedback.
    feedback_epoch: u64,
    /// Estimator group id → dense slot into [`RunState::group_epoch_by_slot`].
    /// Consulted only on admission and feedback delivery; the per-candidate
    /// staleness check indexes the dense vector through
    /// [`Queued::group_slot`] instead of hashing.
    group_slots: HashMap<u64, u32, FnvBuildHasher>,
    /// Feedback epoch at which each similarity group (by dense slot) last
    /// received feedback — the group-scoped invalidation index. Entries
    /// whose scope is [`EstimateScope::Group`] re-estimate only when
    /// *their* group moved past their stamp; zero means "never moved"
    /// (real epochs start at one).
    group_epoch_by_slot: Vec<u64>,
    /// Bumped whenever the running set changes (start or completion) —
    /// with the structural epoch, the freshness key for [`ShadowCache`].
    running_gen: u64,
    /// Bumped by every event that could turn a refused allocation into a
    /// granted one or stale a fresh estimate: execution ends (they release
    /// nodes, and all feedback — global and group — happens there) and
    /// membership churn. While it stands still, a queued entry's recorded
    /// refusal ([`Queued::failed_alloc_stamp`]) repeats identically, so
    /// retries are skipped without touching the cluster.
    retry_epoch: u64,
    /// Running jobs sorted by conservative completion time (EASY only).
    release_table: ReleaseTable,
    /// Last computed EASY reservation, keyed by head and generations.
    shadow_cache: Option<ShadowCache>,
    /// SJF's index heap: `(requested_runtime, queue rank)`, so the next
    /// candidate is an O(1) peek instead of an O(queue) scan. Mirrors the
    /// queue exactly — entries are pushed on admission and popped only
    /// when their job starts.
    sjf_heap: BinaryHeap<Reverse<(Time, i64)>>,
    /// Next queue rank for `push_back` (ascending from zero).
    next_back_seq: i64,
    /// Next queue rank for `push_front` (descending from -1).
    next_front_seq: i64,
    total_executions: u64,
    failed_executions: u64,
    events_processed: u64,
    goodput: f64,
    wasted: f64,
    last_completion: Time,
    /// Jobs rejected up front or abandoned after failing at their full
    /// request (the trace's request did not cover its usage).
    dropped_jobs: usize,
    /// Attached observer, when any. `None` costs one branch per callback
    /// site — the unobserved hot path stays unobserved.
    obs: Option<Box<dyn SimObserver>>,
    /// Whether a matcher was attached (see [`Simulation::with_matchmaking`]).
    /// It keys what matchmaking mode adds beyond matching — granted disk,
    /// disk overruns, and the match attempt/refusal counters and events —
    /// so an attached [`MatchAll`] still runs in matchmaking mode.
    matchmaking: bool,
    /// Deterministic event counters, tracked unconditionally.
    counters: RunCounters,
    /// Time-weighted accumulators for queue statistics.
    last_event_time: Time,
    queue_len_time: f64,
    busy_nodes_time: f64,
    weighted_span_s: f64,
    /// Busy-node-seconds per pool (construction order).
    pool_busy_time: Vec<f64>,
    /// Release buffer of the debug build's EASY shadow-time cross-check.
    #[cfg(debug_assertions)]
    shadow_check: Vec<(Time, u32)>,
}

/// A scheduled change in cluster membership — the paper's §1.1 setting
/// where "machines can dynamically join and leave the systems at any time".
///
/// Negative `delta` takes up to that many *free* nodes of the given memory
/// capacity offline — the engine never revokes a running job, so if fewer
/// are free, fewer leave. Positive `delta` brings previously departed
/// nodes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the change takes effect.
    pub time: Time,
    /// Memory capacity (KB) identifying the pool.
    pub mem_kb: u64,
    /// Nodes leaving (< 0) or rejoining (> 0).
    pub delta: i64,
}

/// A configured simulation, ready to run a workload.
///
/// Prefer [`Simulation::builder`] for new code; the positional
/// constructors remain for the common no-observer case.
pub struct Simulation {
    cfg: SimConfig,
    cluster: Cluster,
    estimator: Box<dyn ResourceEstimator>,
    churn: Vec<ChurnEvent>,
    observer: Option<Box<dyn SimObserver>>,
    /// Matchmaking layer, when active (see [`Simulation::with_matchmaking`]).
    /// `None` — the default — allocates through [`MatchAll`], byte-identical
    /// to every simulation ever run without a matcher.
    matchmaking: Option<Box<dyn PoolMatcher>>,
}

impl Simulation {
    /// Start a builder: typed setters for configuration, cluster,
    /// estimator, churn schedule, and observers.
    pub fn builder() -> crate::build::SimulationBuilder {
        crate::build::SimulationBuilder::new()
    }

    /// Build from an estimator spec (instantiated against this cluster's
    /// capacity ladder).
    ///
    /// # Panics
    /// Panics when the spec's parameters lie outside the ranges its
    /// estimator's constructor accepts
    /// ([`EstimatorSpec::params_in_range`]); [`Simulation::builder`]
    /// reports them as an error instead.
    pub fn new(cfg: SimConfig, cluster: Cluster, spec: EstimatorSpec) -> Self {
        let estimator = spec.build(&cluster.memory_ladder());
        Simulation::from_parts(cfg, cluster, estimator)
    }

    /// Assemble from already-resolved parts — the builder's entry point.
    pub(crate) fn from_parts(
        cfg: SimConfig,
        cluster: Cluster,
        estimator: Box<dyn ResourceEstimator>,
    ) -> Self {
        Simulation {
            cfg,
            cluster,
            estimator,
            churn: Vec::new(),
            observer: None,
            matchmaking: None,
        }
    }

    /// Attach an observer to the run. Attaching more than once stacks the
    /// observers into a [`MultiObserver`], called in attachment order.
    pub fn with_observer(mut self, observer: Box<dyn SimObserver>) -> Self {
        self.observer = Some(match self.observer.take() {
            None => observer,
            Some(existing) => Box::new(MultiObserver::pair(existing, observer)),
        });
        self
    }

    /// Attach a matchmaking layer: every allocation decision — the up-front
    /// feasibility gate, availability counts, EASY reservation arithmetic,
    /// and the allocation itself — then consults `matcher` in addition to
    /// raw capacity, and the matcher's rank expression (when
    /// [`PoolMatcher::is_ranked`]) replaces [`MatchPolicy`]'s pool order.
    ///
    /// The matcher's verdicts must be pure in `(prepared demand, pool ad)`:
    /// the engine replays refusals across a retry epoch and reuses the
    /// EASY reservation while the running set stands still, exactly as it
    /// does for capacity. A matcher whose answers drift between identical
    /// calls breaks those proofs.
    ///
    /// Disk usage accounting rides along: with a matcher attached, a
    /// running job whose `used_disk_kb` exceeds the weakest allocated
    /// node's scratch disk fails mid-run like a memory overrun, and
    /// explicit feedback carries the granted disk floor. Without one,
    /// granted disk stays zero — the historical behaviour.
    pub fn with_matchmaking(mut self, matcher: Box<dyn PoolMatcher>) -> Self {
        self.matchmaking = Some(matcher);
        self
    }

    /// Attach a dynamic-membership schedule. A job that can never run on
    /// the nodes remaining online is eventually counted as dropped rather
    /// than waited on forever.
    pub fn with_churn(mut self, churn: Vec<ChurnEvent>) -> Self {
        self.churn = churn;
        self
    }

    /// Run the workload to completion and report metrics.
    pub fn run(self, workload: &Workload) -> SimResult {
        let mut arena = SimArena::default();
        self.run_with_arena(workload, &mut arena)
    }

    /// Like [`Simulation::run`], but reusing `arena`'s buffers instead of
    /// allocating fresh ones — the steady-state mode for sweeps. Results
    /// are byte-identical to [`Simulation::run`].
    pub fn run_with_arena(self, workload: &Workload, arena: &mut SimArena) -> SimResult {
        self.run_core(workload.jobs().iter().cloned(), arena)
    }

    /// Run a streamed job sequence without materializing it: jobs are
    /// pulled from the iterator one at a time, in nondecreasing submit
    /// order (checked in debug builds). With
    /// [`SimConfig::retain_records`] disabled, memory stays bounded by
    /// queue depth plus running concurrency regardless of stream length.
    ///
    /// For a workload already in memory this is byte-identical to
    /// [`Simulation::run`]; the observer's `on_run_start` job count comes
    /// from the iterator's size hint and may be approximate for opaque
    /// streams.
    pub fn run_stream<I>(self, jobs: I) -> SimResult
    where
        I: IntoIterator<Item = Job>,
    {
        let mut arena = SimArena::default();
        self.run_core(jobs.into_iter(), &mut arena)
    }

    /// Streamed run ([`Simulation::run_stream`]) reusing `arena`'s
    /// buffers.
    pub fn run_stream_with_arena<I>(self, jobs: I, arena: &mut SimArena) -> SimResult
    where
        I: IntoIterator<Item = Job>,
    {
        self.run_core(jobs.into_iter(), arena)
    }

    /// Pull the next arrival that survives the up-front feasibility gate,
    /// counting the ones that do not ("jobs whose full request can never
    /// be satisfied are dropped up front"). The first job's submit —
    /// dropped or not — is captured as the run's `first_submit`.
    fn next_surviving<I: Iterator<Item = Job>, M: PoolMatcher + ?Sized>(
        feed: &mut I,
        gate: &Cluster,
        matcher: &mut M,
        first_submit: &mut Option<Time>,
        dropped: &mut usize,
    ) -> Option<Job> {
        loop {
            let job = feed.next()?;
            if first_submit.is_none() {
                *first_submit = Some(job.submit);
            }
            let request = requested_demand(&job);
            matcher.prepare(&request);
            if gate.nodes_satisfying_matched(&request, matcher) < job.nodes {
                *dropped += 1;
                continue;
            }
            return Some(job);
        }
    }

    /// Advance the time-weighted statistics clock to `now`: the state
    /// observed since the previous event held for `dt`.
    fn advance_clock(&self, state: &mut RunState, now: Time) {
        let dt = now.saturating_sub(state.last_event_time).as_secs_f64();
        if dt > 0.0 {
            // Same-timestamp bursts contribute nothing; skipping them
            // outright is bit-exact (`x += v * 0.0` is the identity for
            // the finite values accumulated here) and avoids the
            // per-pool walk on every event of a burst.
            state.last_event_time = now;
            state.queue_len_time += state.queue.len() as f64 * dt;
            state.busy_nodes_time += self.cluster.busy_nodes() as f64 * dt;
            state.weighted_span_s += dt;
            for (i, slot) in state.pool_busy_time.iter_mut().enumerate() {
                let busy = self.cluster.pool_busy_count(i);
                // Zero terms are skipped: the accumulator is a sum of
                // non-negative products, so `+ 0.0` is the bit-exact
                // identity here.
                if busy > 0 {
                    *slot += busy as f64 * dt;
                }
            }
        }
    }

    /// The entry shared by every `run*` method. The matcher is chosen once
    /// per run: the attached one behind dynamic dispatch, or the
    /// zero-sized [`MatchAll`] — statically dispatched, so native
    /// allocation compiles to plain capacity checks.
    fn run_core<I: Iterator<Item = Job>>(mut self, feed: I, arena: &mut SimArena) -> SimResult {
        match self.matchmaking.take() {
            Some(mut matcher) => self.run_matched(feed, arena, &mut *matcher, true),
            None => self.run_matched(feed, arena, &mut MatchAll, false),
        }
    }

    /// The event loop, one instantiation per matcher type. Arrivals come
    /// straight from `feed` — never materialized, never heaped — merged
    /// against the event queue on `(time, tie)` where the feed always wins
    /// time ties: arrivals historically carried the lowest seeded
    /// sequence numbers, so this reproduces the seeded order exactly.
    /// `matchmaking` records whether a matcher was attached at all.
    fn run_matched<I: Iterator<Item = Job>, M: PoolMatcher + ?Sized>(
        mut self,
        mut feed: I,
        arena: &mut SimArena,
        matcher: &mut M,
        matchmaking: bool,
    ) -> SimResult {
        let total_nodes = self.cluster.total_nodes();
        let expected_jobs = {
            let (lower, upper) = feed.size_hint();
            upper.unwrap_or(lower)
        };
        let sjf = matches!(self.cfg.scheduling, SchedulingPolicy::Sjf);

        let mut state = RunState {
            queue: {
                let mut q = mem::take(&mut arena.queue);
                // SJF locates entries by rank search and needs every slot
                // live; FCFS/EASY take O(1) tombstone removal instead.
                // (`reset` also clears, keeping capacity.)
                q.reset(sjf);
                q
            },
            store: {
                let mut s = mem::take(&mut arena.store);
                s.clear();
                s
            },
            runs: {
                let mut r = mem::take(&mut arena.runs);
                r.clear();
                r
            },
            events: {
                let mut e = mem::take(&mut arena.events);
                e.clear();
                e
            },
            records: if self.cfg.retain_records {
                Vec::with_capacity(expected_jobs)
            } else {
                Vec::new()
            },
            rng: StdRng::seed_from_u64(self.cfg.seed),
            structural_epoch: 0,
            feedback_epoch: 0,
            group_slots: {
                let mut m = mem::take(&mut arena.group_slots);
                m.clear();
                m
            },
            group_epoch_by_slot: {
                let mut v = mem::take(&mut arena.group_epoch_by_slot);
                v.clear();
                v
            },
            running_gen: 0,
            retry_epoch: 0,
            release_table: {
                let mut t = mem::take(&mut arena.release_table);
                t.clear();
                t
            },
            shadow_cache: None,
            sjf_heap: {
                let mut h = mem::take(&mut arena.sjf_heap);
                h.clear();
                h
            },
            next_back_seq: 0,
            next_front_seq: -1,
            total_executions: 0,
            failed_executions: 0,
            events_processed: 0,
            goodput: 0.0,
            wasted: 0.0,
            last_completion: Time::ZERO,
            dropped_jobs: 0,
            obs: self.observer.take(),
            matchmaking,
            counters: RunCounters::default(),
            last_event_time: Time::ZERO,
            queue_len_time: 0.0,
            busy_nodes_time: 0.0,
            weighted_span_s: 0.0,
            pool_busy_time: {
                let mut v = mem::take(&mut arena.pool_busy_time);
                v.clear();
                v.resize(self.cluster.num_pools(), 0.0);
                v
            },
            #[cfg(debug_assertions)]
            shadow_check: mem::take(&mut arena.shadow_check),
        };
        // Only the churn schedule is statically known now; it seeds the
        // queue's sorted cursor-consumed prefix, so its entries beat
        // same-time execution ends — as their low seeded seqs always did.
        state.events.seed(
            self.churn
                .iter()
                .enumerate()
                .map(|(index, c)| (c.time, Event::Churn { index })),
        );

        // The feasibility gate judges against original cluster membership
        // (the historical schedule-build-time semantics). Allocations
        // never take nodes offline, so without churn the live cluster *is*
        // pristine and the clone is skipped.
        let pristine = (!self.churn.is_empty()).then(|| self.cluster.clone());
        // Installed after the pristine clone so the clone stays minimal;
        // the spare pool is capacity-only and cannot affect outcomes.
        self.cluster
            .install_spare(mem::take(&mut arena.alloc_spare));
        let mut first_submit_seen = None;
        let mut pending = Self::next_surviving(
            &mut feed,
            pristine.as_ref().unwrap_or(&self.cluster),
            matcher,
            &mut first_submit_seen,
            &mut state.dropped_jobs,
        );
        let first_submit = first_submit_seen.unwrap_or(Time::ZERO);
        state.last_event_time = first_submit;

        if let Some(obs) = state.obs.as_deref_mut() {
            obs.on_run_start(expected_jobs);
        }

        loop {
            // Merge the feed against the event queue. `pending` is always
            // the next *surviving* arrival, so a feed-vs-event time tie
            // resolves exactly as the old seeded order did: the arrival
            // first.
            let take_feed = match (&pending, state.events.peek_time()) {
                (Some(j), Some(t)) => j.submit <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let now;
            if take_feed {
                #[expect(clippy::expect_used, reason = "invariant: take_feed saw a pending job")]
                let job = pending
                    .take()
                    .expect("invariant: take_feed saw a pending job");
                now = job.submit;
                debug_assert!(
                    now >= state.last_event_time,
                    "job feed must be nondecreasing in submit time"
                );
                state.events_processed += 1;
                self.advance_clock(&mut state, now);
                state.counters.arrivals += 1;
                state.counters.admissions += 1;
                let job_id = job.id;
                if let Some(obs) = state.obs.as_deref_mut() {
                    obs.on_arrival(now, job_id);
                }
                let queue_len = state.queue.len();
                let slot = state.store.insert(job, SCOPE_UNRESOLVED);
                let queued = self.admit(&mut state, matcher, slot, 0, queue_len);
                if self.cfg.max_estimation_attempts == 0 {
                    // Degenerate configuration: estimation disabled
                    // outright, so even first submissions bypass.
                    state.counters.estimator_bypassed += 1;
                    if let Some(obs) = state.obs.as_deref_mut() {
                        obs.on_estimator_bypassed(now, job_id, 0);
                    }
                }
                if let Some(obs) = state.obs.as_deref_mut() {
                    obs.on_admitted(now, job_id, queued.demand.mem_kb, 0);
                }
                self.push_back_queued(&mut state, queued);
                pending = Self::next_surviving(
                    &mut feed,
                    pristine.as_ref().unwrap_or(&self.cluster),
                    matcher,
                    &mut first_submit_seen,
                    &mut state.dropped_jobs,
                );
                // Arrivals sharing a timestamp share one scheduling
                // pass. Under FCFS and EASY an arrival appends at the
                // tail, so running `schedule` once after the last of the
                // burst starts exactly the jobs the per-arrival passes
                // would have (nothing is released in between, and the
                // scan order over earlier entries is unchanged). SJF is
                // excluded: a shorter later arrival can overtake the
                // queue, so each arrival must get its own pass.
                if !sjf {
                    if let Some(next) = &pending {
                        if next.submit == now {
                            continue;
                        }
                    }
                }
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: the merge saw a pending event"
                )]
                let (t, event) = state
                    .events
                    .pop()
                    .expect("invariant: the merge saw a pending event");
                now = t;
                state.events_processed += 1;
                self.advance_clock(&mut state, now);
                match event {
                    Event::ExecutionEnd { run_id, success } => {
                        self.finish_execution(&mut state, matcher, now, run_id, success);
                    }
                    Event::Churn { index } => {
                        let ev = self.churn[index];
                        let applied = if ev.delta < 0 {
                            -(self.cluster.take_offline(ev.mem_kb, (-ev.delta) as u32) as i64)
                        } else {
                            self.cluster.bring_online(ev.mem_kb, ev.delta as u32) as i64
                        };
                        state.counters.churn_events += 1;
                        if let Some(obs) = state.obs.as_deref_mut() {
                            obs.on_churn(now, applied);
                        }
                        // Capacity changed: queued estimates may now round
                        // to different rungs, so force re-admission.
                        state.structural_epoch += 1;
                        state.retry_epoch += 1;
                    }
                    Event::Arrival { .. } => {
                        // Arrivals come from the feed; nothing enqueues
                        // this variant anymore.
                        debug_assert!(false, "arrival events are never enqueued");
                    }
                }
            }
            self.schedule(&mut state, matcher, now);
        }

        // With dynamic membership a queued job can outlive the nodes it
        // needs; whatever is still queued after the last event can never
        // start and is accounted as dropped.
        state.dropped_jobs += state.queue.len();
        debug_assert!(
            !self.churn.is_empty() || state.queue.is_empty(),
            "without churn no job may starve"
        );
        debug_assert_eq!(state.runs.live(), 0);
        debug_assert_eq!(
            self.cluster.free_nodes() + self.cluster.offline_nodes(),
            total_nodes
        );

        let RunState {
            queue,
            store,
            runs,
            events,
            records,
            group_slots,
            group_epoch_by_slot,
            release_table,
            sjf_heap,
            pool_busy_time,
            #[cfg(debug_assertions)]
            shadow_check,
            mut obs,
            counters,
            total_executions,
            failed_executions,
            events_processed,
            goodput,
            wasted,
            last_completion,
            dropped_jobs,
            weighted_span_s,
            queue_len_time,
            busy_nodes_time,
            ..
        } = state;

        let mut result = SimResult {
            estimator: self.estimator.name().to_string(),
            completed_jobs: counters.completed as usize,
            dropped_jobs,
            total_executions,
            failed_executions,
            events_processed,
            total_nodes,
            first_submit,
            last_completion,
            goodput_node_seconds: goodput,
            wasted_node_seconds: wasted,
            records,
            trace_log: TraceLog::default(),
            counters,
            mean_queue_length: if weighted_span_s > 0.0 {
                queue_len_time / weighted_span_s
            } else {
                0.0
            },
            mean_busy_nodes: if weighted_span_s > 0.0 {
                busy_nodes_time / weighted_span_s
            } else {
                0.0
            },
            pool_stats: self
                .cluster
                .pool_occupancy()
                .iter()
                .zip(&pool_busy_time)
                .map(
                    |(&(mem_kb, nodes, _), &busy_time)| crate::metrics::PoolStats {
                        mem_kb,
                        nodes,
                        mean_busy_fraction: if weighted_span_s > 0.0 && nodes > 0 {
                            busy_time / (weighted_span_s * nodes as f64)
                        } else {
                            0.0
                        },
                    },
                )
                .collect(),
        };
        // Hand every buffer back to the arena for the next run.
        arena.queue = queue;
        arena.events = events;
        arena.store = store;
        arena.runs = runs;
        arena.release_table = release_table;
        arena.group_slots = group_slots;
        arena.group_epoch_by_slot = group_epoch_by_slot;
        arena.sjf_heap = sjf_heap;
        arena.pool_busy_time = pool_busy_time;
        #[cfg(debug_assertions)]
        {
            arena.shadow_check = shadow_check;
        }
        arena.alloc_spare = self.cluster.take_spare();
        // Observers get the last word: TraceLogObserver deposits its log
        // into `result.trace_log` here.
        if let Some(obs) = obs.as_deref_mut() {
            obs.on_run_end(&mut result);
        }
        result
    }

    /// Handle an execution's end: release nodes, deliver feedback, record or
    /// requeue.
    // Out of line for the same reason as `schedule`.
    #[inline(never)]
    fn finish_execution<M: PoolMatcher + ?Sized>(
        &mut self,
        state: &mut RunState,
        matcher: &mut M,
        now: Time,
        run_id: u64,
        success: bool,
    ) {
        let run = state.runs.take(run_id);
        state.running_gen += 1;
        state.retry_epoch += 1;
        if matches!(self.cfg.scheduling, SchedulingPolicy::EasyBackfill) {
            state.release_table.remove(run.expected_end, run_id);
        }
        let slot = run.job_slot;
        // All-inline fields: the copy frees `state` for the mutations
        // below while the job is still consulted.
        let job = state.store.job(slot).clone();
        let resource_failure = run.flags & run_flags::RESOURCE_FAILURE != 0;
        let min_mem = self.cluster.allocation_min_mem(&run.alloc);
        // Granted disk is a matchmaking-mode concept: a run without a
        // matcher reports zero, keeping feedback bytes identical for every
        // pre-matchmaking configuration.
        let min_disk = if state.matchmaking {
            self.cluster.allocation_min_disk(&run.alloc)
        } else {
            0
        };
        let granted = Demand {
            mem_kb: min_mem,
            disk_kb: min_disk,
            packages: self.cluster.allocation_packages(&run.alloc) & job.requested_packages,
        };
        self.cluster.release(run.alloc);

        let ctx = EstimateContext {
            queue_len: state.queue.len(),
            free_fraction: self.cluster.free_nodes() as f64 / self.cluster.total_nodes() as f64,
        };
        let fb = match (self.cfg.feedback, success) {
            (FeedbackMode::Implicit, s) => Feedback::Implicit { success: s },
            (FeedbackMode::Explicit, true) => Feedback::explicit(true, used_demand(&job)),
            (FeedbackMode::Explicit, false) => {
                // A failed run's measurement is truncated at the
                // allocation's ceiling. Disk is ceilinged only under
                // matchmaking, where the allocation has a disk floor at
                // all (without a matcher granted disk is a flat zero).
                let mut used = used_demand(&job);
                used.mem_kb = used.mem_kb.min(min_mem);
                if state.matchmaking {
                    used.disk_kb = used.disk_kb.min(min_disk);
                }
                Feedback::explicit(false, used)
            }
        };
        self.estimator.feedback(&job, &granted, &fb, &ctx);
        state.feedback_epoch += 1;
        // Group-scoped invalidation: record which group just moved, so only
        // queued entries of that group (plus Global-scope entries) refresh.
        let scope_slot = self.scope_slot_of(state, slot);
        if scope_slot < SCOPE_GLOBAL {
            state.group_epoch_by_slot[scope_slot as usize] = state.feedback_epoch;
        }
        if let Some(obs) = state.obs.as_deref_mut() {
            obs.on_feedback(now, job.id, success);
            if success {
                obs.on_completed(now, job.id);
            } else {
                obs.on_failed(now, job.id, resource_failure);
            }
        }

        if success {
            state.counters.completed += 1;
            state.goodput += job.nodes as f64 * job.runtime.as_secs_f64();
            state.last_completion = state.last_completion.max(now);
            if self.cfg.retain_records {
                state.records.push(JobRecord {
                    id: job.id,
                    submit: job.submit,
                    final_start: run.start,
                    completion: now,
                    runtime: job.runtime,
                    nodes: job.nodes,
                    failed_executions: state.store.failed_execs(slot),
                    lowered: run.flags & run_flags::LOWERED != 0,
                    benefited: run.flags & run_flags::BENEFITED != 0,
                    wasted_node_seconds: state.store.wasted(slot),
                });
            }
            state.store.release(slot);
        } else {
            state.counters.failed += 1;
            state.failed_executions += 1;
            let burn = job.nodes as f64 * now.saturating_sub(run.start).as_secs_f64();
            state.wasted += burn;
            state.store.add_failure(slot, burn);
            if resource_failure && run.flags & run_flags::AT_REQUEST != 0 {
                // Even the full user request cannot hold this job — the
                // trace violates the paper's request-covers-usage
                // assumption. Retrying can never succeed; abandon it.
                state.dropped_jobs += 1;
                state.store.release(slot);
            } else {
                // "Once it fails, the job returns to the head of the
                // queue" — with a fresh (post-feedback) estimate.
                let attempts = state.store.failed_execs(slot);
                state.counters.admissions += 1;
                state.counters.requeued += 1;
                let queue_len = state.queue.len();
                let queued = self.admit(state, matcher, slot, attempts, queue_len);
                if attempts >= self.cfg.max_estimation_attempts {
                    state.counters.estimator_bypassed += 1;
                    if let Some(obs) = state.obs.as_deref_mut() {
                        obs.on_estimator_bypassed(now, job.id, attempts);
                    }
                }
                if let Some(obs) = state.obs.as_deref_mut() {
                    obs.on_admitted(now, job.id, queued.demand.mem_kb, attempts);
                }
                self.push_front_queued(state, queued);
            }
        }
    }

    /// Dense epoch slot for an estimator group id, allocated on first
    /// sight. Runs only on a job's first scope resolution; the hot
    /// staleness checks index [`RunState::group_epoch_by_slot`] directly.
    fn group_slot(state: &mut RunState, g: u64) -> u32 {
        let next = state.group_epoch_by_slot.len() as u32;
        let slot = *state.group_slots.entry(g).or_insert(next);
        if slot == next {
            state.group_epoch_by_slot.push(0);
        }
        slot
    }

    /// The estimator's scope for a job, encoded per the `SCOPE_*`
    /// constants and memoized in the [`JobStore`] scope column. The first
    /// call per job pays the similarity-key hash; every later admission,
    /// refresh, and feedback delivery is a vector read. Memoization is
    /// sound because the trait requires `estimate_scope` to be a pure
    /// function of the job, and the slot persists across the job's
    /// retries.
    fn scope_slot_of(&self, state: &mut RunState, slot: usize) -> u32 {
        let cached = state.store.scope(slot);
        if cached != SCOPE_UNRESOLVED {
            return cached;
        }
        let resolved = match self.estimator.estimate_scope(state.store.job(slot)) {
            EstimateScope::Group(g) => Self::group_slot(state, g),
            EstimateScope::Static => SCOPE_STATIC,
            EstimateScope::Global => SCOPE_GLOBAL,
        };
        state.store.set_scope(slot, resolved);
        resolved
    }

    /// Build the queue entry for a (re)submission: run the estimator (or
    /// bypass it after too many failures) and precompute bookkeeping flags.
    ///
    /// `queue_len` is passed explicitly because the callers' conventions
    /// differ: a refresh excludes the entry being refreshed, while a
    /// (re)admission counts every entry already waiting.
    fn admit<M: PoolMatcher + ?Sized>(
        &mut self,
        state: &mut RunState,
        matcher: &mut M,
        slot: usize,
        attempts: u32,
        queue_len: usize,
    ) -> Queued {
        // All-inline fields: the copy frees `state` for `scope_slot_of`.
        let job = state.store.job(slot).clone();
        let request = requested_demand(&job);
        let (demand, scope_slot) = if attempts >= self.cfg.max_estimation_attempts {
            // Bypassing the estimator: the raw request depends on nothing
            // feedback can change, so only churn can stale this entry.
            (request, SCOPE_STATIC)
        } else {
            let ctx = EstimateContext {
                queue_len,
                free_fraction: self.cluster.free_nodes() as f64 / self.cluster.total_nodes() as f64,
            };
            let d = self.estimator.estimate(&job, &ctx);
            debug_assert!(
                d.within(&request),
                "estimator {} produced a demand above the request",
                self.estimator.name()
            );
            (d, self.scope_slot_of(state, slot))
        };
        let lowered = demand != request && demand.within(&request);
        // An estimate equal to the request has the request's candidate
        // count, so only a differing one needs the two matched counts.
        let benefited = demand != request && {
            matcher.prepare(&demand);
            let eligible = self.cluster.nodes_satisfying_matched(&demand, matcher);
            matcher.prepare(&request);
            eligible > self.cluster.nodes_satisfying_matched(&request, matcher)
        };
        Queued {
            job: slot,
            attempts,
            demand,
            structural_stamp: state.structural_epoch,
            feedback_stamp: state.feedback_epoch,
            lowered,
            benefited,
            // Assigned at the push site (front vs back rank); an in-place
            // refresh keeps the entry's existing rank.
            seq: 0,
            requested_runtime: job.requested_runtime,
            failed_alloc_stamp: u64::MAX,
            nodes: job.nodes,
            scope_slot,
        }
    }

    /// Enqueue at the back with the next ascending rank, mirroring into
    /// the SJF heap when that policy is active.
    fn push_back_queued(&self, state: &mut RunState, mut queued: Queued) {
        queued.seq = state.next_back_seq;
        state.next_back_seq += 1;
        if matches!(self.cfg.scheduling, SchedulingPolicy::Sjf) {
            state
                .sjf_heap
                .push(Reverse((queued.requested_runtime, queued.seq)));
        }
        state.queue.push_back(queued);
    }

    /// Enqueue at the front ("returns to the head of the queue") with the
    /// next descending rank, mirroring into the SJF heap when active.
    fn push_front_queued(&self, state: &mut RunState, mut queued: Queued) {
        queued.seq = state.next_front_seq;
        state.next_front_seq -= 1;
        if matches!(self.cfg.scheduling, SchedulingPolicy::Sjf) {
            state
                .sjf_heap
                .push(Reverse((queued.requested_runtime, queued.seq)));
        }
        state.queue.push_front(queued);
    }

    /// Whether feedback or churn since admission invalidates the estimate
    /// of the queued entry — the engine's historical refresh rule.
    fn estimate_stale(q: &Queued, state: &RunState) -> bool {
        q.structural_stamp != state.structural_epoch
            || match q.scope_slot {
                // Raw requests and history-independent estimates never
                // go stale from feedback.
                SCOPE_STATIC => false,
                // Context-dependent estimators: any feedback may matter —
                // exactly the engine's historical refresh-always rule.
                SCOPE_GLOBAL => q.feedback_stamp != state.feedback_epoch,
                // Only feedback *for this group* can move the estimate;
                // the slot was resolved at admission, so this is a vector
                // read (zero = the group never received feedback).
                slot => state.group_epoch_by_slot[slot as usize] > q.feedback_stamp,
            }
    }

    /// Try to start the queued entry at `idx`, refreshing its estimate if
    /// feedback has arrived since it was admitted. Removes it from the
    /// queue and returns true on success.
    fn try_start_at<M: PoolMatcher + ?Sized>(
        &mut self,
        state: &mut RunState,
        matcher: &mut M,
        idx: usize,
        now: Time,
    ) -> bool {
        // One copy of the entry serves the retry check, the refresh and
        // the attempt — the columns are gathered once, not per check.
        let q = state.queue.get(idx);
        // A refusal recorded under the current retry epoch is still
        // exact: nothing since has released nodes, changed membership,
        // or moved any feedback epoch (all of those bump
        // `retry_epoch`), so the entry is provably still fresh and
        // `try_allocate` — side-effect free on refusal — would refuse
        // the identical request again.
        if q.failed_alloc_stamp == state.retry_epoch {
            debug_assert!(
                !Self::estimate_stale(&q, state),
                "an unchanged retry epoch must imply a fresh estimate"
            );
            return false;
        }
        let (demand, job_nodes) = if Self::estimate_stale(&q, state) {
            // The entry being refreshed sits in the queue itself; exclude
            // it so re-estimation sees the same context convention as
            // admission (`queue_len` counts *other* waiting jobs — see
            // `EstimateContext::queue_len`).
            let queue_len = state.queue.len() - 1;
            let mut fresh = self.admit(state, matcher, q.job, q.attempts, queue_len);
            // A refresh changes the estimate, never the queue position.
            fresh.seq = q.seq;
            let refreshed = (fresh.demand, fresh.nodes);
            state.queue.set(idx, fresh);
            refreshed
        } else {
            (q.demand, q.nodes)
        };
        matcher.prepare(&demand);
        if state.matchmaking {
            state.counters.match_attempts += 1;
            if let Some(obs) = state.obs.as_deref_mut() {
                obs.on_match_attempt(now, state.store.job(q.job).id, job_nodes);
            }
        }
        // Reuse a finished slab slot when one is free. Peeked, not popped:
        // a refused allocation must leave the free list untouched.
        let run_id = state.runs.peek_id();
        let Some(alloc) = self.cluster.try_allocate_matched(
            job_nodes,
            &demand,
            self.cfg.match_policy,
            run_id,
            matcher,
        ) else {
            // The entry is fresh (refreshed above if needed), so until the
            // next execution end or churn event this refusal would repeat
            // identically: record it and later passes skip the entry.
            if state.matchmaking {
                state.counters.match_refusals += 1;
                if let Some(obs) = state.obs.as_deref_mut() {
                    obs.on_match_refused(now, state.store.job(q.job).id);
                }
            }
            state.queue.set_failed_stamp(idx, state.retry_epoch);
            return false;
        };
        let queued = state.queue.get(idx);
        let slot = queued.job;
        state.total_executions += 1;
        state.counters.started += 1;

        // Does the allocation actually hold the job? Whole nodes are
        // granted, so the job may consume up to the weakest node's capacity
        // regardless of the (smaller) estimated demand.
        let min_mem = self.cluster.allocation_min_mem(&alloc);
        let packages = self.cluster.allocation_packages(&alloc);
        // Disk overruns only exist in matchmaking mode; without a matcher
        // the bound is infinite so the check below is vacuously true.
        let min_disk = if state.matchmaking {
            self.cluster.allocation_min_disk(&alloc)
        } else {
            u64::MAX
        };
        let (job_id, runtime, at_request, resources_ok) = {
            let job = state.store.job(slot);
            (
                job.id,
                job.runtime,
                queued.demand == requested_demand(job),
                job.used_mem_kb <= min_mem
                    && job.used_disk_kb <= min_disk
                    && (job.used_packages & !packages) == 0,
            )
        };
        let injected_fault = self.cfg.false_positive_rate > 0.0
            && state.rng.random::<f64>() < self.cfg.false_positive_rate;
        let success = resources_ok && !injected_fault;

        let end = if success {
            now + runtime
        } else {
            // Uniform failure point within the run time.
            now + Time::from_millis((state.rng.random::<f64>() * runtime.as_millis() as f64) as u64)
        };
        state
            .events
            .push(end, Event::ExecutionEnd { run_id, success });
        if let Some(obs) = state.obs.as_deref_mut() {
            obs.on_started(now, job_id, min_mem, queued.nodes);
        }
        let queued = state.queue.remove(idx);
        let mut flags = 0u8;
        if queued.lowered {
            flags |= run_flags::LOWERED;
        }
        if queued.benefited {
            flags |= run_flags::BENEFITED;
        }
        if at_request {
            flags |= run_flags::AT_REQUEST;
        }
        if !resources_ok {
            flags |= run_flags::RESOURCE_FAILURE;
        }
        let expected_end = now + queued.requested_runtime;
        if matches!(self.cfg.scheduling, SchedulingPolicy::EasyBackfill) {
            state.release_table.insert(expected_end, run_id);
        }
        state
            .runs
            .insert(run_id, slot, now, expected_end, alloc, flags);
        state.running_gen += 1;
        true
    }

    /// One scheduling pass under the configured policy.
    // Kept out of line, as it was before the event loop became generic
    // over the matcher: a generic fn with a single caller gets inlined
    // into the loop, and there the backfill hunt ran ~5% slower on
    // saturated EASY traces. CI checks the release binary's symbols.
    #[inline(never)]
    fn schedule<M: PoolMatcher + ?Sized>(
        &mut self,
        state: &mut RunState,
        matcher: &mut M,
        now: Time,
    ) {
        match self.cfg.scheduling {
            SchedulingPolicy::Fcfs => {
                while !state.queue.is_empty() {
                    let head = state.queue.head_idx();
                    if !self.try_start_at(state, matcher, head, now) {
                        break;
                    }
                }
            }
            SchedulingPolicy::Sjf => {
                // The heap mirrors the queue: its minimum (requested
                // runtime, then queue rank) is exactly the entry the old
                // O(queue) first-minimum scan selected, found by an O(1)
                // peek plus an O(log queue) rank search.
                while let Some(&Reverse((_, seq))) = state.sjf_heap.peek() {
                    let idx = state.queue.index_of_seq(seq);
                    debug_assert_eq!(
                        Some(idx),
                        state.queue.debug_first_min_runtime_idx(),
                        "heap selection must match the first-minimum scan"
                    );
                    if !self.try_start_at(state, matcher, idx, now) {
                        break;
                    }
                    state.sjf_heap.pop();
                }
            }
            SchedulingPolicy::EasyBackfill => loop {
                // Phase 0: when a previous pass proved this exact head
                // blocked against this exact cluster state, skip the
                // retry and the reservation arithmetic — only entries the
                // proof has not reached yet (new arrivals) need scanning.
                // A hit also proves no skipped entry needs re-estimation:
                // feedback epochs move only with completions, which bump
                // the running generation.
                let cached = match (&state.shadow_cache, state.queue.front()) {
                    (Some(c), Some(ref h))
                        if c.job == h.job
                            && c.demand == h.demand
                            && c.running_gen == state.running_gen
                            && c.structural == state.structural_epoch =>
                    {
                        Some((c.crossing, c.scanned))
                    }
                    _ => None,
                };
                let (shadow, scan_from) = if let Some((crossing, scanned)) = cached {
                    let Some(t_cross) = crossing else {
                        // Still short of a drained cluster; only a
                        // completion or churn can change that, and either
                        // would have missed the cache.
                        break;
                    };
                    (t_cross.max(now), scanned)
                } else {
                    // Phase 1: drain the head while it fits.
                    let mut head_started = true;
                    while head_started && !state.queue.is_empty() {
                        let head = state.queue.head_idx();
                        head_started = self.try_start_at(state, matcher, head, now);
                    }
                    if state.queue.len() < 2 {
                        break;
                    }
                    // Phase 2: reservation for the blocked head, from the
                    // incrementally maintained release table.
                    let Some(head) = state.queue.front() else {
                        break;
                    };
                    let head_demand = head.demand;
                    let head_job = head.job;
                    let head_nodes = head.nodes;
                    matcher.prepare(&head_demand);
                    let free_now = self
                        .cluster
                        .free_nodes_satisfying_matched(&head_demand, matcher);
                    let crossing = state
                        .release_table
                        .crossing(free_now, head_nodes, |run_id| {
                            self.cluster.allocation_nodes_satisfying_matched(
                                state.runs.alloc(run_id),
                                &head_demand,
                                matcher,
                            )
                        });
                    // The incremental path must agree with the historical
                    // rebuild-and-sort computation it replaced.
                    #[cfg(debug_assertions)]
                    {
                        let releases = &mut state.shadow_check;
                        releases.clear();
                        releases.extend(state.runs.iter_live().map(|(end, alloc)| {
                            let eligible = self.cluster.allocation_nodes_satisfying_matched(
                                alloc,
                                &head_demand,
                                matcher,
                            );
                            (end, eligible)
                        }));
                        debug_assert_eq!(
                            crossing.map(|t| t.max(now)),
                            shadow_time(free_now, head_nodes, releases, now),
                            "incremental crossing diverged from shadow_time"
                        );
                    }
                    // The scan resumes just past the head's physical slot
                    // (tombstones in between self-reject in the hunt).
                    let past_head = state.queue.head_idx() + 1;
                    state.shadow_cache = Some(ShadowCache {
                        job: head_job,
                        demand: head_demand,
                        running_gen: state.running_gen,
                        structural: state.structural_epoch,
                        crossing,
                        scanned: past_head,
                    });
                    let Some(t_cross) = crossing else {
                        // The head's demand exceeds what even a drained
                        // cluster offers right now; completions will
                        // shrink it later.
                        break;
                    };
                    (t_cross.max(now), past_head)
                };
                // Phase 3: backfill the first job that fits now and is
                // conservatively done before the shadow time.
                // The scan alternates a read-mostly *hunt* over a
                // contiguous view of the queue — no per-element deque
                // index arithmetic — with a `try_start_at` call per
                // genuine candidate. The hunt rejects on the entry alone
                // (window, retry stamp) and gates fresh entries inline,
                // first on the cluster's free-node total (one compare, no
                // matcher), then on the live eligible-free count: a
                // completion invalidates every retry stamp at once, and
                // this keeps the resulting first pass from paying a full
                // call per provably-refused entry. Both refusals stamp
                // the entry: eligible free nodes never exceed free nodes,
                // and free nodes only fall within one retry epoch.
                let mut started = false;
                let mut hunt_from = scan_from;
                // The window the conservative completion must fit in;
                // `rt > window` is exactly `now + rt > shadow` (shadow is
                // never below `now`), hoisting the add out of the scan —
                // and tombstones' `Time::MAX` sentinel always fails it.
                let window = shadow.saturating_sub(now);
                loop {
                    let candidate = {
                        let epoch = state.retry_epoch;
                        let structural = state.structural_epoch;
                        let feedback = state.feedback_epoch;
                        let cluster = &self.cluster;
                        let free_total = cluster.free_nodes();
                        let slots = &state.group_epoch_by_slot;
                        let (rts, stamps, colds) = state.queue.hunt_columns(hunt_from);
                        let mut found = None;
                        for (off, (&rt, stamp)) in rts.iter().zip(stamps.iter_mut()).enumerate() {
                            // Bitwise `|`: both operands are one cheap
                            // load from a hot column, and fusing them
                            // leaves a single almost-always-taken skip
                            // branch instead of two half-predictable
                            // ones. Everything else lives in the cold
                            // column, touched only by survivors. Dead
                            // slots carry `Time::MAX` runtimes and fail
                            // the window like everything else.
                            #[allow(clippy::needless_bitwise_bool)]
                            if (rt > window) | (*stamp == epoch) {
                                continue;
                            }
                            let q = &colds[off];
                            let needs_refresh = q.structural_stamp != structural
                                || match q.scope_slot {
                                    SCOPE_STATIC => false,
                                    SCOPE_GLOBAL => q.feedback_stamp != feedback,
                                    slot => slots[slot as usize] > q.feedback_stamp,
                                };
                            // A stale entry goes to `try_start_at` unjudged:
                            // its refresh calls the estimator, observably.
                            if !needs_refresh {
                                if q.nodes > free_total {
                                    *stamp = epoch;
                                    continue;
                                }
                                matcher.prepare(&q.demand);
                                if q.nodes
                                    > cluster.free_nodes_satisfying_matched(&q.demand, matcher)
                                {
                                    *stamp = epoch;
                                    continue;
                                }
                            }
                            found = Some(hunt_from + off);
                            break;
                        }
                        found
                    };
                    let Some(idx) = candidate else {
                        break;
                    };
                    if self.try_start_at(state, matcher, idx, now) {
                        started = true;
                        break;
                    }
                    hunt_from = idx + 1;
                }
                if !started {
                    // Extend the proof over everything scanned: the next
                    // pass under an unchanged key resumes after it. The
                    // position is physical — arrivals appended past it
                    // (and only those) are the unscanned tail.
                    if let Some(c) = state.shadow_cache.as_mut() {
                        c.scanned = state.queue.phys_len();
                    }
                    break;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_cluster::ClusterBuilder;
    use resmatch_workload::job::JobBuilder;

    const MB: u64 = 1024;

    fn cluster_32_24(per_pool: u32) -> Cluster {
        ClusterBuilder::new()
            .pool(per_pool, 32 * MB)
            .pool(per_pool, 24 * MB)
            .build()
    }

    fn wl(jobs: Vec<Job>) -> Workload {
        Workload::new(jobs)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let jobs = wl(vec![JobBuilder::new(1)
            .nodes(4)
            .runtime(Time::from_secs(100))
            .requested_mem_kb(32 * MB)
            .used_mem_kb(10 * MB)
            .build()]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&jobs);
        assert_eq!(r.completed_jobs, 1);
        assert_eq!(r.failed_executions, 0);
        assert_eq!(r.records[0].wait(), Time::ZERO);
        assert_eq!(r.records[0].completion, Time::from_secs(100));
    }

    #[test]
    fn fcfs_head_of_line_blocking() {
        // Two 32 MB-requesting jobs saturate the 32 MB pool; a third small
        // job behind them must wait even though 24 MB nodes idle.
        let jobs = wl(vec![
            JobBuilder::new(1)
                .submit(Time::from_secs(0))
                .nodes(4)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(32 * MB)
                .build(),
            JobBuilder::new(2)
                .submit(Time::from_secs(1))
                .nodes(4)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(32 * MB)
                .build(),
            JobBuilder::new(3)
                .submit(Time::from_secs(2))
                .nodes(2)
                .runtime(Time::from_secs(10))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
        ]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&jobs);
        assert_eq!(r.completed_jobs, 3);
        let job2 = r.records.iter().find(|x| x.id.0 == 2).unwrap();
        let job3 = r.records.iter().find(|x| x.id.0 == 3).unwrap();
        // Job 2 waits for job 1's pool; job 3 (FCFS) waits behind job 2.
        assert_eq!(job2.final_start, Time::from_secs(100));
        assert!(job3.final_start >= job2.final_start);
    }

    #[test]
    fn backfilling_slips_small_jobs_through() {
        let jobs = wl(vec![
            JobBuilder::new(1)
                .submit(Time::from_secs(0))
                .nodes(4)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(32 * MB)
                .build(),
            JobBuilder::new(2)
                .submit(Time::from_secs(1))
                .nodes(4)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(32 * MB)
                .build(),
            JobBuilder::new(3)
                .submit(Time::from_secs(2))
                .nodes(2)
                .runtime(Time::from_secs(10))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
        ]);
        let cfg = SimConfig {
            scheduling: SchedulingPolicy::EasyBackfill,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, cluster_32_24(4), EstimatorSpec::PassThrough).run(&jobs);
        let job3 = r.records.iter().find(|x| x.id.0 == 3).unwrap();
        // Job 3 finishes before job 2's shadow time, so it backfills at its
        // own arrival instead of waiting 100 s.
        assert_eq!(job3.final_start, Time::from_secs(2));
    }

    #[test]
    fn sjf_runs_shortest_first() {
        let jobs = wl(vec![
            // Job 1 occupies everything; 2 and 3 queue.
            JobBuilder::new(1)
                .submit(Time::from_secs(0))
                .nodes(8)
                .runtime(Time::from_secs(50))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
            JobBuilder::new(2)
                .submit(Time::from_secs(1))
                .nodes(8)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
            JobBuilder::new(3)
                .submit(Time::from_secs(2))
                .nodes(8)
                .runtime(Time::from_secs(10))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
        ]);
        let cfg = SimConfig {
            scheduling: SchedulingPolicy::Sjf,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, cluster_32_24(4), EstimatorSpec::PassThrough).run(&jobs);
        let start = |id: u64| r.records.iter().find(|x| x.id.0 == id).unwrap().final_start;
        // Job 3 (10 s) jumps ahead of job 2 (100 s) once job 1 finishes.
        assert!(start(3) < start(2));
    }

    #[test]
    fn under_provisioned_job_fails_and_retries() {
        // The estimator walks 32 → 16 → 8 MB with a job using 10 MB: the
        // probe at 8 MB fails once, the job retries at the restored
        // estimate and completes.
        let mut jobs = Vec::new();
        for i in 0..6 {
            jobs.push(
                JobBuilder::new(i)
                    .user(1)
                    .app(1)
                    .submit(Time::from_secs(i * 1_000))
                    .nodes(2)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(10 * MB)
                    .build(),
            );
        }
        let cluster = ClusterBuilder::new()
            .pool(4, 32 * MB)
            .pool(4, 16 * MB)
            .pool(4, 8 * MB)
            .build();
        let r = Simulation::new(
            SimConfig::default(),
            cluster,
            EstimatorSpec::paper_successive(),
        )
        .run(&wl(jobs));
        assert_eq!(r.completed_jobs, 6);
        assert_eq!(r.failed_executions, 1, "exactly the 8 MB probe fails");
        assert!(r.wasted_node_seconds > 0.0);
        // Later jobs run with lowered estimates on the 16 MB pool.
        assert!(r.lowered_job_fraction() > 0.0);
    }

    #[test]
    fn impossible_jobs_are_dropped() {
        let jobs = wl(vec![
            JobBuilder::new(1)
                .nodes(100)
                .requested_mem_kb(32 * MB)
                .build(),
            JobBuilder::new(2)
                .nodes(2)
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
        ]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&jobs);
        assert_eq!(r.dropped_jobs, 1);
        assert_eq!(r.completed_jobs, 1);
    }

    #[test]
    fn request_violating_job_is_abandoned_not_retried_forever() {
        // A trace that violates the request-covers-usage assumption: the
        // job uses 30 MB but requests 8 MB, so best-fit places it on 24 MB
        // nodes and even the full request cannot save it. The engine must
        // abandon it after the request-level attempt instead of looping.
        let jobs = wl(vec![
            JobBuilder::new(1)
                .nodes(2)
                .requested_mem_kb(8 * MB)
                .used_mem_kb(30 * MB)
                .runtime(Time::from_secs(10))
                .build(),
            JobBuilder::new(2)
                .submit(Time::from_secs(1))
                .nodes(2)
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .runtime(Time::from_secs(10))
                .build(),
        ]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&jobs);
        assert_eq!(r.dropped_jobs, 1);
        assert_eq!(r.completed_jobs, 1);
        assert_eq!(r.failed_executions, 1, "exactly one doomed execution");
    }

    #[test]
    fn estimation_lets_jobs_use_small_pool() {
        // Phase 1: the group learns while the cluster is empty. Phase 2: a
        // hog occupies the whole 32 MB pool for a long time. Phase 3: more
        // group members arrive — with estimation they run on the 24 MB pool
        // immediately; without it they wait out the hog.
        let mut jobs = Vec::new();
        for i in 0..3 {
            jobs.push(
                JobBuilder::new(i)
                    .user(7)
                    .app(7)
                    .submit(Time::from_secs(i * 200))
                    .nodes(4)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(4 * MB)
                    .build(),
            );
        }
        jobs.push(
            JobBuilder::new(100)
                .submit(Time::from_secs(1_000))
                .nodes(4)
                .runtime(Time::from_secs(10_000))
                .requested_mem_kb(32 * MB)
                .used_mem_kb(32 * MB)
                .build(),
        );
        for i in 0..4 {
            jobs.push(
                JobBuilder::new(200 + i)
                    .user(7)
                    .app(7)
                    .submit(Time::from_secs(1_100 + i * 10))
                    .nodes(4)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(4 * MB)
                    .build(),
            );
        }
        let workload = wl(jobs);
        let base = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&workload);
        let est = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::paper_successive(),
        )
        .run(&workload);
        assert_eq!(est.completed_jobs, base.completed_jobs);
        // Baseline: the four phase-3 jobs wait ~10,000 s behind the hog.
        assert!(
            base.mean_wait_s() > 4_000.0,
            "baseline {}",
            base.mean_wait_s()
        );
        // Estimation: they run on the 24 MB pool immediately.
        assert!(
            est.mean_wait_s() < 100.0,
            "estimation wait {}",
            est.mean_wait_s()
        );
        assert!(est.utilization() > base.utilization());
        // Phase-3 jobs were lowered and benefited.
        let benefited = est.records.iter().filter(|r| r.benefited).count();
        assert!(benefited >= 4, "benefited {benefited}");
    }

    #[test]
    fn queued_jobs_pick_up_fresh_estimates() {
        // A member is queued behind the hog *before* its group has learned;
        // the learning happens while it waits (an earlier member finishes).
        // On the next scheduling pass the queued member must use the fresh
        // estimate and slip onto the 24 MB pool.
        let jobs = wl(vec![
            // The learner: starts immediately, finishes at t=100.
            JobBuilder::new(1)
                .user(7)
                .app(7)
                .submit(Time::ZERO)
                .nodes(2)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(32 * MB)
                .used_mem_kb(4 * MB)
                .build(),
            // The hog: grabs the remaining 32 MB nodes until t=10,000.
            JobBuilder::new(2)
                .submit(Time::from_secs(1))
                .nodes(2)
                .runtime(Time::from_secs(10_000))
                .requested_mem_kb(32 * MB)
                .used_mem_kb(32 * MB)
                .build(),
            // The beneficiary: queued at t=2 with a cold estimate (32 MB),
            // blocked; at t=100 the learner's feedback refreshes it.
            JobBuilder::new(3)
                .user(7)
                .app(7)
                .submit(Time::from_secs(2))
                .nodes(2)
                .runtime(Time::from_secs(50))
                .requested_mem_kb(32 * MB)
                .used_mem_kb(4 * MB)
                .build(),
        ]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(2),
            EstimatorSpec::paper_successive(),
        )
        .run(&jobs);
        let job3 = r.records.iter().find(|x| x.id.0 == 3).unwrap();
        assert_eq!(
            job3.final_start,
            Time::from_secs(100),
            "job 3 must start the moment the learner's feedback lands"
        );
        assert!(job3.lowered);
    }

    #[test]
    fn oracle_never_fails_and_packs_tightest() {
        let mut jobs = Vec::new();
        for i in 0..20 {
            jobs.push(
                JobBuilder::new(i)
                    .user(i as u32 % 3)
                    .app(1)
                    .submit(Time::from_secs(i))
                    .nodes(2)
                    .runtime(Time::from_secs(50))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(6 * MB)
                    .build(),
            );
        }
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::Oracle,
        )
        .run(&wl(jobs));
        assert_eq!(r.failed_executions, 0);
        assert_eq!(r.completed_jobs, 20);
    }

    #[test]
    fn false_positive_injection_retries_to_completion() {
        let jobs = wl((0..10)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Time::from_secs(i * 5))
                    .nodes(2)
                    .runtime(Time::from_secs(20))
                    .requested_mem_kb(8 * MB)
                    .used_mem_kb(8 * MB)
                    .build()
            })
            .collect());
        let cfg = SimConfig {
            false_positive_rate: 0.3,
            seed: 11,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg, cluster_32_24(4), EstimatorSpec::PassThrough).run(&jobs);
        assert_eq!(r.completed_jobs, 10, "every job must eventually finish");
        assert!(r.failed_executions > 0, "injection must actually fire");
        assert!(r.busy_utilization() > r.utilization());
    }

    #[test]
    fn deterministic_given_seed() {
        let jobs: Workload = (0..50)
            .map(|i| {
                JobBuilder::new(i)
                    .user(i as u32 % 5)
                    .app(i as u32 % 3)
                    .submit(Time::from_secs(i * 7))
                    .nodes(1 + (i as u32 % 4))
                    .runtime(Time::from_secs(30 + i * 3))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb((4 + (i % 20)) * MB)
                    .build()
            })
            .collect();
        let run = || {
            Simulation::new(
                SimConfig::default(),
                cluster_32_24(8),
                EstimatorSpec::paper_successive(),
            )
            .run(&jobs)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_feedback_with_last_instance() {
        use resmatch_core::last_instance::LastInstanceConfig;
        let jobs: Workload = (0..10)
            .map(|i| {
                JobBuilder::new(i)
                    .user(1)
                    .app(1)
                    .submit(Time::from_secs(i * 200))
                    .nodes(2)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(5 * MB)
                    .build()
            })
            .collect();
        let cfg = SimConfig {
            feedback: FeedbackMode::Explicit,
            ..SimConfig::default()
        };
        let r = Simulation::new(
            cfg,
            cluster_32_24(4),
            EstimatorSpec::LastInstance(LastInstanceConfig::default()),
        )
        .run(&jobs);
        assert_eq!(r.completed_jobs, 10);
        assert_eq!(
            r.failed_executions, 0,
            "explicit feedback never probes blind"
        );
        // All but the first submission run lowered.
        assert!(r.lowered_job_fraction() >= 0.8);
    }

    #[test]
    fn queue_statistics_are_time_weighted() {
        // Job 1 occupies all 8 nodes for 100 s; job 2 queues the whole
        // time, then runs 100 s. Queue length is 1 for the first half of
        // the 200 s horizon and 0 for the second; 8 nodes stay busy
        // throughout.
        let jobs = wl(vec![
            JobBuilder::new(1)
                .nodes(8)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
            JobBuilder::new(2)
                .nodes(8)
                .runtime(Time::from_secs(100))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
        ]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&jobs);
        assert!(
            (r.mean_queue_length - 0.5).abs() < 1e-9,
            "{}",
            r.mean_queue_length
        );
        assert!(
            (r.mean_busy_nodes - 8.0).abs() < 1e-9,
            "{}",
            r.mean_busy_nodes
        );
        // Per-pool: 8 MB requests land on the 24 MB pool (best-fit) plus
        // spill to 32 MB: both pools of 4 are fully busy throughout.
        assert_eq!(r.pool_stats.len(), 2);
        for p in &r.pool_stats {
            assert!((p.mean_busy_fraction - 1.0).abs() < 1e-9, "{p:?}");
        }
    }

    #[test]
    fn pool_stats_show_the_idle_small_pool() {
        // 32 MB-requesting jobs keep the 32 MB pool busy; the 24 MB pool
        // never sees work without estimation.
        let jobs = wl((0..4)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Time::from_secs(i * 100))
                    .nodes(4)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(4 * MB)
                    .build()
            })
            .collect());
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&jobs);
        let pool = |mem_mb: u64| {
            r.pool_stats
                .iter()
                .find(|p| p.mem_kb == mem_mb * MB)
                .unwrap()
                .mean_busy_fraction
        };
        assert!((pool(32) - 1.0).abs() < 1e-9);
        assert_eq!(pool(24), 0.0);
    }

    #[test]
    fn trace_log_records_the_figure7_story() {
        use crate::tracelog::TraceKind;
        // A group walking 32 → 16 → 8 → 4(fail) → 8: the log must contain
        // every admission, start, completion, and the one failure.
        let mut jobs = Vec::new();
        for i in 0..6 {
            jobs.push(
                JobBuilder::new(i + 1)
                    .user(1)
                    .app(1)
                    .submit(Time::from_secs(i * 1_000))
                    .nodes(2)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(5 * MB)
                    .build(),
            );
        }
        let cluster = ClusterBuilder::new()
            .pool(4, 32 * MB)
            .pool(4, 16 * MB)
            .pool(4, 8 * MB)
            .pool(4, 4 * MB)
            .build();
        let r = Simulation::new(
            SimConfig::default(),
            cluster,
            EstimatorSpec::paper_successive(),
        )
        .with_observer(Box::new(crate::observer::TraceLogObserver::new()))
        .run(&wl(jobs));
        assert!(!r.trace_log.is_empty());
        // Jobs run serially, so the granted trajectory across successive
        // group members is the Figure 7 staircase.
        let granted: Vec<u64> = r
            .trace_log
            .entries()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Started { granted_kb, .. } => Some(granted_kb / MB),
                _ => None,
            })
            .collect();
        assert_eq!(granted, vec![32, 16, 8, 4, 8, 8, 8]);
        let failures = r
            .trace_log
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Failed))
            .count();
        assert_eq!(failures, 1);
        // Disabled by default: a fresh run carries no log.
        let quiet = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .run(&wl(vec![JobBuilder::new(1).nodes(1).build()]));
        assert!(quiet.trace_log.is_empty());
    }

    #[test]
    fn churn_leave_blocks_and_rejoin_unblocks() {
        // The whole 32 MB pool leaves at t=50; a 28 MB-demanding job
        // arriving at t=100 must wait until the pool rejoins at t=500.
        let jobs = wl(vec![JobBuilder::new(1)
            .submit(Time::from_secs(100))
            .nodes(2)
            .runtime(Time::from_secs(10))
            .requested_mem_kb(28 * MB)
            .used_mem_kb(28 * MB)
            .build()]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .with_churn(vec![
            ChurnEvent {
                time: Time::from_secs(50),
                mem_kb: 32 * MB,
                delta: -4,
            },
            ChurnEvent {
                time: Time::from_secs(500),
                mem_kb: 32 * MB,
                delta: 4,
            },
        ])
        .run(&jobs);
        assert_eq!(r.completed_jobs, 1);
        assert_eq!(r.records[0].final_start, Time::from_secs(500));
    }

    #[test]
    fn churn_permanent_leave_drops_starved_jobs() {
        let jobs = wl(vec![
            JobBuilder::new(1)
                .submit(Time::from_secs(100))
                .nodes(2)
                .runtime(Time::from_secs(10))
                .requested_mem_kb(28 * MB)
                .used_mem_kb(28 * MB)
                .build(),
            JobBuilder::new(2)
                .submit(Time::from_secs(100))
                .nodes(2)
                .runtime(Time::from_secs(5))
                .requested_mem_kb(8 * MB)
                .used_mem_kb(8 * MB)
                .build(),
        ]);
        let r = Simulation::new(
            SimConfig {
                // Under SJF the shorter job 2 is tried first and runs; the
                // starved job 1 is abandoned when events drain.
                scheduling: SchedulingPolicy::Sjf,
                ..SimConfig::default()
            },
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .with_churn(vec![ChurnEvent {
            time: Time::from_secs(50),
            mem_kb: 32 * MB,
            delta: -4,
        }])
        .run(&jobs);
        assert_eq!(r.completed_jobs, 1);
        assert_eq!(r.dropped_jobs, 1);
    }

    #[test]
    fn churn_never_revokes_running_jobs() {
        // The leave fires mid-run; the running job must finish unharmed.
        let jobs = wl(vec![JobBuilder::new(1)
            .nodes(4)
            .runtime(Time::from_secs(100))
            .requested_mem_kb(28 * MB)
            .used_mem_kb(20 * MB)
            .build()]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .with_churn(vec![ChurnEvent {
            time: Time::from_secs(10),
            mem_kb: 32 * MB,
            delta: -4,
        }])
        .run(&jobs);
        assert_eq!(r.completed_jobs, 1);
        assert_eq!(r.failed_executions, 0);
        assert_eq!(r.records[0].completion, Time::from_secs(100));
    }

    #[test]
    fn mean_busy_nodes_excludes_offline_nodes() {
        // Three of the four 32 MB nodes leave at t=0 and two 1-node jobs
        // run. Departed nodes are neither free nor busy, so the mean busy
        // count is the pools' busy fractions summed over their nodes.
        let jobs = wl(vec![
            JobBuilder::new(1)
                .nodes(1)
                .runtime(Time::from_secs(100))
                .build(),
            JobBuilder::new(2)
                .submit(Time::from_secs(10))
                .nodes(1)
                .runtime(Time::from_secs(50))
                .build(),
        ]);
        let r = Simulation::new(
            SimConfig::default(),
            cluster_32_24(4),
            EstimatorSpec::PassThrough,
        )
        .with_churn(vec![ChurnEvent {
            time: Time::ZERO,
            mem_kb: 32 * MB,
            delta: -3,
        }])
        .run(&jobs);
        let per_pool: f64 = r
            .pool_stats
            .iter()
            .map(|p| p.mean_busy_fraction * f64::from(p.nodes))
            .sum();
        assert!(
            (r.mean_busy_nodes - per_pool).abs() < 1e-9,
            "mean_busy_nodes {} against {per_pool} over the pools",
            r.mean_busy_nodes
        );
    }

    #[test]
    fn queue_len_context_excludes_the_estimated_job() {
        // EstimateContext::queue_len counts *other* waiting jobs, at first
        // admission and at in-queue refresh alike. Record every context the
        // estimator sees and check the refresh path against the convention
        // (it used to count the refreshed entry itself).
        use std::sync::{Arc, Mutex};

        struct Recorder {
            seen: Arc<Mutex<Vec<(u64, usize)>>>,
        }
        impl ResourceEstimator for Recorder {
            fn name(&self) -> &'static str {
                "recorder"
            }
            fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
                self.seen.lock().unwrap().push((job.id.0, ctx.queue_len));
                requested_demand(job)
            }
            fn feedback(
                &mut self,
                _job: &Job,
                _granted: &Demand,
                _fb: &Feedback,
                _ctx: &EstimateContext,
            ) {
            }
        }

        // One 4-node pool; three whole-cluster jobs run strictly serially,
        // so every queue length below is forced.
        let jobs = wl((1..=3)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Time::from_secs(i - 1))
                    .nodes(4)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(8 * MB)
                    .used_mem_kb(8 * MB)
                    .build()
            })
            .collect());
        let cluster = ClusterBuilder::new().pool(4, 32 * MB).build();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let r = Simulation::builder()
            .cluster(cluster)
            .boxed_estimator(Box::new(Recorder { seen: seen.clone() }))
            .build()
            .expect("cluster and estimator are set")
            .run(&jobs);
        assert_eq!(r.completed_jobs, 3);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                (1, 0), // arrival of 1: nothing else waiting
                (2, 0), // arrival of 2: 1 is running, queue empty
                (3, 1), // arrival of 3: 2 queued ahead
                (2, 1), // refresh of 2 at t=100: only 3 is *other*
                (3, 0), // refresh of 3 at t=100 after 2 started
                (3, 0), // refresh of 3 at t=200
            ],
        );
    }

    #[test]
    fn max_attempts_falls_back_to_request() {
        // A pathological group: members alternate usage so a frozen
        // estimate would starve one member; the engine must bail it out.
        let mut jobs = Vec::new();
        for i in 0..12 {
            let used = if i % 2 == 0 { 4 * MB } else { 20 * MB };
            jobs.push(
                JobBuilder::new(i)
                    .user(1)
                    .app(1)
                    .submit(Time::from_secs(i * 500))
                    .nodes(2)
                    .runtime(Time::from_secs(100))
                    .requested_mem_kb(32 * MB)
                    .used_mem_kb(used)
                    .build(),
            );
        }
        let cluster = ClusterBuilder::new()
            .pool(4, 32 * MB)
            .pool(4, 8 * MB)
            .build();
        let r = Simulation::new(
            SimConfig::default(),
            cluster,
            EstimatorSpec::paper_successive(),
        )
        .run(&wl(jobs));
        assert_eq!(r.completed_jobs, 12, "no member may starve");
    }
}
