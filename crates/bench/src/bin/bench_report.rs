//! Machine-readable simulator throughput and memory report.
//!
//! Runs end-to-end simulator scenarios with a plain `std::time::Instant`
//! harness and writes a JSON artifact (`BENCH_sim.json`) that CI can
//! archive and diff across commits. Events
//! per second uses [`resmatch_sim::SimResult::events_processed`] as the
//! denominator-independent work measure: it is a deterministic property of
//! the scenario, so throughput differences are wall-clock differences.
//!
//! Four scenario tiers:
//!
//! - the classic 1k/5k matrix, rescaled to saturating load (queues stay
//!   populated, so in-queue refresh / candidate counting / backfill scans
//!   dominate);
//! - the full 122,055-job calibrated CM5 trace at its *natural* offered
//!   load (~0.45) — the repro pipeline's default scale — across
//!   fcfs/sjf/easy × pass_through/successive;
//! - the matchmaking tier: the same saturating workload enriched with
//!   synthetic disk/package attributes, allocated through compiled
//!   ClassAds (first-fit per scheduler, plus one ranked best-fit row);
//! - with `--full`, a 10-million-job synthetic stress fed through the
//!   streaming entry point with record retention off: peak heap stays flat
//!   no matter the trace length.
//!
//! Memory is tracked by a counting global allocator (bench-binary only —
//! the library crates stay `forbid(unsafe_code)`): each scenario reports
//! the allocation count and incremental peak heap of its final repetition.
//!
//! Run: `cargo run --release -p resmatch-bench --bin bench_report \
//!       [--jobs N] [--seed S] [--out PATH] [--full]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use resmatch_classad::{Matchmaker, PoolAd};
use resmatch_cluster::builder::{cm5_cluster, paper_cluster};
use resmatch_cluster::{Capacity, CapacityLadder, Cluster, ClusterBuilder, Demand};
use resmatch_core::prelude::Feedback;
use resmatch_service::prelude::*;
use resmatch_sim::prelude::*;
use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
use resmatch_workload::load::scale_to_load;
use resmatch_workload::synthetic::{generate, service_stream, stress_stream, Cm5Config};
use resmatch_workload::{Job, Workload};

/// Saturating offered load for the small matrix: queues stay populated, so
/// the hot paths this report guards actually dominate.
const TARGET_LOAD: f64 = 1.0;
const TOTAL_NODES: u32 = 1024;
/// The paper's trace length — the default repro scale.
const TRACE_JOBS: usize = 122_055;
/// Streaming stress length under `--full`.
const STRESS_JOBS: u64 = 10_000_000;
/// Online-service tier defaults: a million estimate/observe operation pairs
/// over a million similarity groups, hash-sharded eight ways.
const SERVICE_OPS: u64 = 1_000_000;
const SERVICE_GROUPS: u64 = 1_000_000;
const SERVICE_SHARDS: usize = 8;
const SERVICE_BATCH: usize = 1024;

/// Counting allocator: allocation events, live bytes, and peak live bytes.
/// `current`/`peak` track totals; scenarios measure deltas around a run.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn trace(jobs: usize, seed: u64) -> Workload {
    let w = natural_trace(jobs, seed);
    scale_to_load(&w, TOTAL_NODES, TARGET_LOAD)
}

/// The calibrated trace at its natural offered load (no rescaling) — what
/// `resmatch-repro` simulates by default at `jobs = 122_055`.
fn natural_trace(jobs: usize, seed: u64) -> Workload {
    let mut w = generate(
        &Cm5Config {
            jobs,
            ..Cm5Config::default()
        },
        seed,
    );
    w.retain_max_nodes(512);
    w
}

struct Measurement {
    scenario: String,
    /// Queue discipline the scenario ran under (`fcfs`, `sjf`, `easy`) —
    /// kept as its own JSON field so the perf trajectory of each scheduler
    /// path can be tracked independently of scenario naming.
    scheduler: &'static str,
    jobs: usize,
    events_processed: u64,
    completed_jobs: usize,
    wall_s: f64,
    events_per_sec: f64,
    /// Allocation events during the final repetition (warm arena where the
    /// scenario reuses one).
    alloc_count: u64,
    /// Incremental peak heap of the final repetition: peak live bytes
    /// minus live bytes at its start, so pre-built inputs (the trace) are
    /// excluded and the engine's own footprint is what's measured.
    peak_heap_bytes: u64,
    /// Engine-level counters from the measured run. Tracked by the engine
    /// itself (no observer is attached — the timed runs stay on the
    /// zero-observer hot path).
    counters: RunCounters,
    /// Present only for the online-service tier: the service-specific
    /// throughput split (queries vs. batched feedback).
    service: Option<ServiceRow>,
}

/// Service-tier extras: rendered as a nested `"service"` JSON object so the
/// generic comparator keys (`events_per_sec` etc.) stay uniform across rows.
struct ServiceRow {
    shards: usize,
    feedback_batch: usize,
    /// Similarity groups present in the estimator state after the run.
    groups: usize,
    queries_per_sec: f64,
    feedback_per_sec: f64,
    /// Feedback batches applied during one measured pass.
    batches: u64,
}

/// Best-of-N wall clock: the minimum is the least noise-contaminated
/// estimate of the true cost on a shared machine. Allocation/peak-heap
/// deltas come from the final repetition.
fn measure<F>(
    scenario: &str,
    scheduler: &'static str,
    jobs: usize,
    reps: usize,
    mut run: F,
) -> Measurement
where
    F: FnMut() -> resmatch_sim::SimResult,
{
    let mut best_s = f64::INFINITY;
    let mut last = None;
    let mut alloc_count = 0;
    let mut peak_heap_bytes = 0;
    for rep in 0..reps {
        let final_rep = rep + 1 == reps;
        // Drop the previous result *before* baselining the final rep so
        // its records don't count against the measured peak.
        if final_rep {
            drop(last.take());
        }
        let (allocs_before, current_before) = if final_rep {
            let current = CURRENT_BYTES.load(Ordering::Relaxed);
            PEAK_BYTES.store(current, Ordering::Relaxed);
            (ALLOC_COUNT.load(Ordering::Relaxed), current)
        } else {
            (0, 0)
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "throughput timing; the timed run's result does not depend on it"
        )]
        let t = Instant::now();
        let r = run();
        best_s = best_s.min(t.elapsed().as_secs_f64());
        if final_rep {
            alloc_count = ALLOC_COUNT.load(Ordering::Relaxed) - allocs_before;
            peak_heap_bytes = PEAK_BYTES
                .load(Ordering::Relaxed)
                .saturating_sub(current_before);
        }
        last = Some(r);
    }
    let r = last.expect("reps >= 1");
    println!(
        "{:<24} {:>8} {:>12} {:>10.3} {:>14.0} {:>10} {:>14}",
        scenario,
        jobs,
        r.events_processed,
        best_s,
        r.events_processed as f64 / best_s,
        alloc_count,
        peak_heap_bytes,
    );
    Measurement {
        scenario: scenario.to_string(),
        scheduler,
        jobs,
        events_processed: r.events_processed,
        completed_jobs: r.completed_jobs,
        wall_s: best_s,
        events_per_sec: r.events_processed as f64 / best_s,
        alloc_count,
        peak_heap_bytes,
        counters: r.counters,
        service: None,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(measurements: &[Measurement]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"sim\",\n  \"unit\": \"events/sec\",\n  \"results\": [\n",
    );
    for (i, m) in measurements.iter().enumerate() {
        let c = &m.counters;
        let service = match &m.service {
            Some(s) => format!(
                ", \"service\": {{\"shards\": {}, \"feedback_batch\": {}, \"groups\": {}, \
                 \"queries_per_sec\": {:.1}, \"feedback_per_sec\": {:.1}, \"batches\": {}}}",
                s.shards,
                s.feedback_batch,
                s.groups,
                s.queries_per_sec,
                s.feedback_per_sec,
                s.batches,
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"scheduler\": \"{}\", \"jobs\": {}, \
             \"events_processed\": {}, \
             \"completed_jobs\": {}, \"wall_s\": {:.6}, \"events_per_sec\": {:.1}, \
             \"alloc_count\": {}, \"peak_heap_bytes\": {}, \
             \"counters\": {{\"arrivals\": {}, \"admissions\": {}, \"started\": {}, \
             \"completed\": {}, \"failed\": {}, \"requeued\": {}, \
             \"estimator_bypassed\": {}, \"churn_events\": {}, \
             \"match_attempts\": {}, \"match_refusals\": {}}}{}}}{}\n",
            json_escape(&m.scenario),
            m.scheduler,
            m.jobs,
            m.events_processed,
            m.completed_jobs,
            m.wall_s,
            m.events_per_sec,
            m.alloc_count,
            m.peak_heap_bytes,
            c.arrivals,
            c.admissions,
            c.started,
            c.completed,
            c.failed,
            c.requeued,
            c.estimator_bypassed,
            c.churn_events,
            c.match_attempts,
            c.match_refusals,
            service,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The six-combination policy × estimator matrix over one workload, with a
/// per-scenario arena so warm repetitions show the steady-state allocation
/// profile.
fn matrix(measurements: &mut Vec<Measurement>, prefix: &str, w: &Workload, reps: usize) {
    let combos: [(&'static str, SchedulingPolicy); 3] = [
        ("fcfs", SchedulingPolicy::Fcfs),
        ("sjf", SchedulingPolicy::Sjf),
        ("easy", SchedulingPolicy::EasyBackfill),
    ];
    for (name, policy) in combos {
        for (est_name, est) in [
            ("pass_through", EstimatorSpec::PassThrough),
            ("successive", EstimatorSpec::paper_successive()),
        ] {
            let cfg = SimConfig::default().with_scheduling(policy);
            let mut arena = SimArena::default();
            measurements.push(measure(
                &format!("{prefix}{name}_{est_name}"),
                name,
                w.len(),
                reps,
                || Simulation::new(cfg, paper_cluster(24), est).run_with_arena(w, &mut arena),
            ));
        }
    }
}

/// Matchmaking tier: the paper cluster re-advertised with capability ads —
/// the 32 MB half carries a finite 2 GB scratch partition and the licensed
/// package set, the 24 MB half is unconstrained — and a workload enriched
/// with synthetic disk requests and package masks. Measures the compiled
/// ClassAd path end to end: one scenario per scheduler through the
/// first-fit matcher, plus a ranked (best-fit by memory) FCFS row to cover
/// the candidate-sort path.
fn matchmaking_tier(measurements: &mut Vec<Measurement>, jobs: usize, seed: u64, reps: usize) {
    let mut w = trace(jobs, seed);
    synthesize_attributes(&mut w, &AttrConfig::default(), seed);
    let cluster_ads = || -> (Cluster, Vec<PoolAd>) {
        let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
        let small = Capacity::memory(24 * 1024);
        let cluster = ClusterBuilder::new()
            .pool_with(512, big)
            .pool_with(512, small)
            .build();
        let ads = vec![PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)];
        (cluster, ads)
    };
    let combos: [(&'static str, SchedulingPolicy); 3] = [
        ("fcfs", SchedulingPolicy::Fcfs),
        ("sjf", SchedulingPolicy::Sjf),
        ("easy", SchedulingPolicy::EasyBackfill),
    ];
    for (name, policy) in combos {
        let cfg = SimConfig::default().with_scheduling(policy);
        let mut arena = SimArena::default();
        measurements.push(measure(
            &format!("matchmaking_{name}_successive"),
            name,
            w.len(),
            reps,
            || {
                let (cluster, ads) = cluster_ads();
                Simulation::new(cfg, cluster, EstimatorSpec::paper_successive())
                    .with_matchmaking(Box::new(Matchmaker::new(&ads)))
                    .run_with_arena(&w, &mut arena)
            },
        ));
    }
    let cfg = SimConfig::default();
    let mut arena = SimArena::default();
    measurements.push(measure(
        "matchmaking_fcfs_ranked",
        "fcfs",
        w.len(),
        reps,
        || {
            let (cluster, ads) = cluster_ads();
            let mm = Matchmaker::new(&ads)
                .with_rank("other.Memory")
                .expect("static rank expression");
            Simulation::new(cfg, cluster, EstimatorSpec::paper_successive())
                .with_matchmaking(Box::new(mm))
                .run_with_arena(&w, &mut arena)
        },
    ));
}

/// The simulator's outcome rule, applied service-side: success when usage
/// fits the covering rung of what was granted.
fn service_outcome(ladder: &CapacityLadder, job: &Job, granted: Demand) -> Feedback {
    let node = ladder.round_up(granted.mem_kb).unwrap_or(granted.mem_kb);
    Feedback::explicit(job.used_mem_kb <= node, Demand::memory(job.used_mem_kb))
}

/// Online-service tier: `resmatch-service` over a million-group synthetic
/// request stream in the deployment shape — jobs pre-routed by the shard
/// hash, one thread per shard, no cross-shard locking on the query path,
/// feedback applied as batched writes.
///
/// A warm pass first populates the group space so the measured passes
/// exercise steady-state lookups rather than first-touch insertion; the
/// stream itself is materialized up front so generation cost cannot
/// contaminate the query-path wall clock.
fn service_queries(measurements: &mut Vec<Measurement>, seed: u64, ops: u64, groups: u64) {
    let reps = 3;
    let spec = EstimatorSpec::paper_successive();
    let ladder = cm5_cluster().memory_ladder();
    let cfg = ServiceConfig::new(spec, ladder.clone())
        .shards(SERVICE_SHARDS)
        .feedback_batch(SERVICE_BATCH);
    let mut svc = EstimatorService::new(&cfg).expect("valid service config");

    let mut slices: Vec<Vec<Job>> = vec![Vec::new(); SERVICE_SHARDS];
    for job in service_stream(ops, groups, seed) {
        slices[svc.route(&job)].push(job);
    }

    for slice in &slices {
        for job in slice {
            let d = svc.estimate(job);
            let fb = service_outcome(&ladder, job, d);
            svc.observe(job, d, fb);
        }
    }
    svc.flush();
    let warm = svc.stats();

    let (router, mut shards) = svc.into_parts();
    let mut best_s = f64::INFINITY;
    let mut alloc_count = 0u64;
    let mut peak_heap_bytes = 0u64;
    for rep in 0..reps {
        let final_rep = rep + 1 == reps;
        let (allocs_before, current_before) = if final_rep {
            let current = CURRENT_BYTES.load(Ordering::Relaxed);
            PEAK_BYTES.store(current, Ordering::Relaxed);
            (ALLOC_COUNT.load(Ordering::Relaxed), current)
        } else {
            (0, 0)
        };
        let taken = std::mem::take(&mut shards);
        #[expect(
            clippy::disallowed_methods,
            reason = "throughput timing; the timed queries do not depend on it"
        )]
        let t = Instant::now();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (shard, slice) in taken.into_iter().zip(&slices) {
                let ladder = &ladder;
                handles.push(scope.spawn(move || {
                    let mut shard = shard;
                    for job in slice {
                        let d = shard.estimate(job);
                        let fb = service_outcome(ladder, job, d);
                        shard.observe(job, d, fb);
                    }
                    shard.flush();
                    shard
                }));
            }
            for handle in handles {
                shards.push(handle.join().expect("shard thread"));
            }
        });
        best_s = best_s.min(t.elapsed().as_secs_f64());
        if final_rep {
            alloc_count = ALLOC_COUNT.load(Ordering::Relaxed) - allocs_before;
            peak_heap_bytes = PEAK_BYTES
                .load(Ordering::Relaxed)
                .saturating_sub(current_before);
        }
    }

    let mut svc = EstimatorService::from_parts(spec, router, shards).expect("shards reassemble");
    let total = svc.stats();
    let reps_u64 = reps as u64;
    let applied_per_pass = (total.applied - warm.applied) / reps_u64;
    let batches_per_pass = (total.batches - warm.batches) / reps_u64;
    let built = svc
        .snapshot()
        .map(|doc| doc.state.group_count())
        .unwrap_or(0);
    let queries_per_sec = ops as f64 / best_s;
    let feedback_per_sec = applied_per_pass as f64 / best_s;
    println!(
        "{:<24} {:>8} {:>12} {:>10.3} {:>14.0} {:>10} {:>14}",
        "service_queries",
        ops,
        2 * ops,
        best_s,
        2.0 * ops as f64 / best_s,
        alloc_count,
        peak_heap_bytes,
    );
    println!(
        "  service: {queries_per_sec:.0} queries/sec, {feedback_per_sec:.0} feedback/sec \
         ({batches_per_pass} batches/pass), {built} groups, {SERVICE_SHARDS} shards"
    );
    measurements.push(Measurement {
        scenario: "service_queries".to_string(),
        scheduler: "service",
        jobs: ops as usize,
        events_processed: 2 * ops,
        completed_jobs: ops as usize,
        wall_s: best_s,
        events_per_sec: 2.0 * ops as f64 / best_s,
        alloc_count,
        peak_heap_bytes,
        counters: RunCounters::default(),
        service: Some(ServiceRow {
            shards: SERVICE_SHARDS,
            feedback_batch: SERVICE_BATCH,
            groups: built,
            queries_per_sec,
            feedback_per_sec,
            batches: batches_per_pass,
        }),
    });
}

fn main() {
    // Parsed by hand rather than via `ExperimentArgs::parse`, which
    // rejects flags it does not know — this binary adds `--out`/`--full`.
    let mut jobs = 5_000usize;
    let mut seed = 42u64;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut full = false;
    let mut stress_jobs = STRESS_JOBS;
    let mut service_ops = SERVICE_OPS;
    let mut service_groups = SERVICE_GROUPS;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next();
        match flag.as_str() {
            "--jobs" => {
                jobs = value()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs an integer");
            }
            "--seed" => {
                seed = value()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--out" => {
                out_path = value().expect("--out needs a path");
            }
            "--full" => full = true,
            "--stress-jobs" => {
                stress_jobs = value()
                    .and_then(|v| v.parse().ok())
                    .expect("--stress-jobs needs an integer");
            }
            "--service-ops" => {
                service_ops = value()
                    .and_then(|v| v.parse().ok())
                    .expect("--service-ops needs an integer");
            }
            "--service-groups" => {
                service_groups = value()
                    .and_then(|v| v.parse().ok())
                    .expect("--service-groups needs an integer");
            }
            other => panic!(
                "unknown flag {other}; supported: --jobs N, --seed S, --out PATH, \
                 --full, --stress-jobs N, --service-ops N, --service-groups N"
            ),
        }
    }
    let sizes = [1_000usize, jobs.max(1_000)];
    let reps = 5;

    println!(
        "{:<24} {:>8} {:>12} {:>10} {:>14} {:>10} {:>14}",
        "scenario", "jobs", "events", "wall (s)", "events/sec", "allocs", "peak heap"
    );
    let mut measurements = Vec::new();
    for &jobs in &sizes {
        let w = trace(jobs, seed);
        let fcfs = SimConfig::default();
        measurements.push(measure("fcfs_pass_through", "fcfs", jobs, reps, || {
            Simulation::new(fcfs, paper_cluster(24), EstimatorSpec::PassThrough).run(&w)
        }));
        measurements.push(measure("fcfs_successive", "fcfs", jobs, reps, || {
            Simulation::new(fcfs, paper_cluster(24), EstimatorSpec::paper_successive()).run(&w)
        }));
        let sjf = SimConfig::default().with_scheduling(SchedulingPolicy::Sjf);
        measurements.push(measure("sjf_successive", "sjf", jobs, reps, || {
            Simulation::new(sjf, paper_cluster(24), EstimatorSpec::paper_successive()).run(&w)
        }));
        let easy = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
        measurements.push(measure("easy_pass_through", "easy", jobs, reps, || {
            Simulation::new(easy, paper_cluster(24), EstimatorSpec::PassThrough).run(&w)
        }));
        measurements.push(measure("easy_successive", "easy", jobs, reps, || {
            Simulation::new(easy, paper_cluster(24), EstimatorSpec::paper_successive()).run(&w)
        }));
    }

    // Trace scale: the full calibrated workload at its natural load.
    let w = natural_trace(TRACE_JOBS, seed);
    matrix(&mut measurements, "trace_", &w, reps);
    drop(w);

    // Matchmaking tier: the allocation path routed through compiled
    // ClassAds, at the small-matrix scale and saturating load.
    matchmaking_tier(&mut measurements, jobs.max(1_000), seed, reps);

    // Online-service tier: the long-running estimator service.
    service_queries(&mut measurements, seed, service_ops, service_groups);

    if full {
        // Streaming stress: ten million jobs, never materialized, records
        // off — peak heap stays at queue-depth-plus-concurrency scale. Runs
        // on the homogeneous 1024-node machine: on the split paper cluster
        // pass-through confines the (over-provisioned) requests to the
        // 32 MB half, the effective load exceeds 1, and the queue — not
        // the engine — grows without bound.
        let cfg = SimConfig::default().with_retain_records(false);
        let mut arena = SimArena::default();
        measurements.push(measure(
            "stress_fcfs_stream",
            "fcfs",
            stress_jobs as usize,
            1,
            || {
                Simulation::new(cfg, cm5_cluster(), EstimatorSpec::PassThrough)
                    .run_stream_with_arena(stress_stream(stress_jobs, seed), &mut arena)
            },
        ));
    }

    let json = render_json(&measurements);
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("\nwrote {out_path}");
}
