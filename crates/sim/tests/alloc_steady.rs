//! Steady-state allocation discipline of arena-reused sweeps.
//!
//! A sweep worker that reuses a [`SimArena`] must stop allocating once its
//! buffers are warm: after the first pass over the load points, every later
//! point runs entirely inside recycled capacity. This test wraps the global
//! allocator with a counter and asserts two things about the second pass of
//! a 20-point load sweep:
//!
//! 1. every point costs the same small, constant number of allocations
//!    (the per-run `SimResult` scaffolding — pool stats, estimator name);
//! 2. that constant does not grow with trace size (600 vs 1200 jobs), i.e.
//!    the engine's per-job state really lives in the arena.
//!
//! It then holds the same line on every per-event path the engine has:
//! FCFS, EASY and SJF with the paper's successive estimator, each run
//! natively, through a fresh ClassAd `Matchmaker` on the split
//! capability-ad cluster, and through one ranked best-fit by memory (the
//! candidate-sort path), over attribute-enriched traces of two sizes.
//! The third run of each configuration on one arena must stay under a
//! stated budget at both sizes. A per-event allocation anywhere on those
//! paths (queue, release table, EASY hunt, matcher `prepare`, candidate
//! sort) grows with the trace and fails this.
//!
//! Last, a cold streamed run with record retention off must peak within a
//! fixed heap bound above what was live before it, at two stream lengths
//! 16x apart: the engine's footprint is queue depth plus running
//! concurrency, not the stream's length.
//!
//! One `#[test]` only: the counters are process-wide, so a second test on
//! another thread would leak its allocations into these counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use resmatch_classad::{Matchmaker, PoolAd};
use resmatch_cluster::builder::{cm5_cluster, paper_cluster};
use resmatch_cluster::{Capacity, Cluster, ClusterBuilder};
use resmatch_sim::prelude::*;
use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
use resmatch_workload::load::{scale_to_load, scale_to_load_into};
use resmatch_workload::synthetic::{generate, stress_stream, Cm5Config};
use resmatch_workload::Workload;

/// Counts allocation *events* (alloc + realloc) and tracks live and peak
/// live bytes. Deallocation is free-list recycling's whole point, so it is
/// not an event; it only lowers the live count.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        shrink(layout.size());
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run two serial passes over a 20-point load sweep with one arena and one
/// rescale buffer (exactly the per-worker state `run_pooled_with` holds)
/// and return the per-point allocation counts of both passes.
fn sweep_alloc_counts(jobs: usize) -> (Vec<u64>, Vec<u64>) {
    let mut w = generate(
        &Cm5Config {
            jobs,
            ..Cm5Config::default()
        },
        42,
    );
    w.retain_max_nodes(512);
    let cluster = paper_cluster(24);
    let loads: Vec<f64> = (0..20).map(|i| 0.3 + 0.05 * i as f64).collect();
    let cfg = SimConfig::default().with_retain_records(false);

    let mut arena = SimArena::default();
    let mut buf: Vec<resmatch_workload::Job> = Vec::new();
    let mut passes = (Vec::new(), Vec::new());
    for pass in 0..2 {
        for &load in &loads {
            let sim = Simulation::new(cfg, cluster.clone(), EstimatorSpec::PassThrough);
            let before = ALLOC_EVENTS.load(Ordering::Relaxed);
            scale_to_load_into(&w, cluster.total_nodes(), load, &mut buf);
            let scaled = Workload::from_sorted(std::mem::take(&mut buf));
            let result = sim.run_with_arena(&scaled, &mut arena);
            let after = ALLOC_EVENTS.load(Ordering::Relaxed);
            assert!(result.completed_jobs > 0, "sanity: the sweep point ran");
            buf = scaled.into_jobs();
            let counts = if pass == 0 {
                &mut passes.0
            } else {
                &mut passes.1
            };
            counts.push(after - before);
        }
    }
    passes
}

/// The matchmaking benchmark's cluster: a 32 MB half with scratch disk,
/// the licensed packages and an `Arch` tag, and a plain 24 MB half.
fn capability_cluster() -> (Cluster, Vec<PoolAd>) {
    let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
    let small = Capacity::memory(24 * 1024);
    let cluster = ClusterBuilder::new()
        .pool_with(512, big)
        .pool_with(512, small)
        .build();
    let ads = vec![PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)];
    (cluster, ads)
}

/// A `jobs`-long trace at offered load 1.0 on `cluster`, with synthetic
/// disk and package requests.
fn enriched_trace(jobs: usize, cluster: &Cluster) -> Workload {
    let mut w = generate(
        &Cm5Config {
            jobs,
            ..Cm5Config::default()
        },
        42,
    );
    w.retain_max_nodes(512);
    let mut w = scale_to_load(&w, cluster.total_nodes(), 1.0);
    synthesize_attributes(&mut w, &AttrConfig::default(), 42);
    w
}

/// How a run allocates: natively, through a first-fit matchmaker, or
/// through one ranked best-fit by memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Native,
    Matched,
    Ranked,
}

/// Run one configuration three times on one arena, each run with a fresh
/// simulation (and, unless native, a fresh matchmaker), and return the
/// allocation counts of the first and the third run. Only the run itself
/// is counted, not building the simulation or the matcher.
fn arena_run_allocs(w: &Workload, policy: SchedulingPolicy, mode: Mode) -> (u64, u64) {
    let (cluster, ads) = capability_cluster();
    let cfg = SimConfig::default()
        .with_scheduling(policy)
        .with_retain_records(false);
    let mut arena = SimArena::default();
    let mut counts = Vec::new();
    for _ in 0..3 {
        let mut sim = Simulation::new(cfg, cluster.clone(), EstimatorSpec::paper_successive());
        match mode {
            Mode::Native => {}
            Mode::Matched => sim = sim.with_matchmaking(Box::new(Matchmaker::new(&ads))),
            Mode::Ranked => {
                let mm = Matchmaker::new(&ads)
                    .with_rank("other.Memory")
                    .expect("static rank expression");
                sim = sim.with_matchmaking(Box::new(mm));
            }
        }
        let before = ALLOC_EVENTS.load(Ordering::Relaxed);
        let result = sim.run_with_arena(w, &mut arena);
        counts.push(ALLOC_EVENTS.load(Ordering::Relaxed) - before);
        assert!(result.completed_jobs > 0, "sanity: the run ran");
    }
    (counts[0], counts[2])
}

#[test]
fn warm_sweep_points_allocate_a_job_count_independent_constant() {
    // A warm point's budget: the per-run `SimResult` scaffolding (estimator
    // name string, pool-stats vector) plus at most a few spare-buffer
    // regrows when a wide job pops a buffer warmed by a narrow one. What
    // matters is that the budget is O(1) — it depends on neither the trace
    // length nor the event count.
    const WARM_BUDGET: u64 = 8;

    let (cold_small, warm_small) = sweep_alloc_counts(600);
    let (_, warm_large) = sweep_alloc_counts(1200);
    assert!(
        warm_small.iter().all(|&c| c <= WARM_BUDGET),
        "second-pass (warm) points must run inside recycled capacity: {warm_small:?}"
    );
    assert!(
        warm_large.iter().all(|&c| c <= WARM_BUDGET),
        "per-point allocation count must not grow with trace size: {warm_large:?}"
    );
    // Contrast with the cold first point, which pays the arena warm-up.
    assert!(
        cold_small[0] > 2 * WARM_BUDGET,
        "expected the cold first point to dominate warm points: {cold_small:?}"
    );

    // Warm runs of every policy, native, matched and ranked. Native runs
    // pay the per-run scaffolding plus the estimator's group table; matched
    // and ranked runs add the fresh matcher's per-signature tables, which
    // are bounded by the verdict classes, not by the trace. Measured on
    // x86-64 Linux: 9-12 native and 17-23 matched or ranked at both sizes,
    // in debug and release builds alike; one allocation per event would
    // cost thousands.
    const NATIVE_BUDGET: u64 = 32;
    const MATCHED_BUDGET: u64 = 48;
    let (cluster, _) = capability_cluster();
    let small = enriched_trace(1_000, &cluster);
    let large = enriched_trace(4_000, &cluster);
    let mut report = Vec::new();
    for policy in [
        SchedulingPolicy::Fcfs,
        SchedulingPolicy::EasyBackfill,
        SchedulingPolicy::Sjf,
    ] {
        for mode in [Mode::Native, Mode::Matched, Mode::Ranked] {
            let budget = if mode == Mode::Native {
                NATIVE_BUDGET
            } else {
                MATCHED_BUDGET
            };
            let (cold, warm_small) = arena_run_allocs(&small, policy, mode);
            let (_, warm_large) = arena_run_allocs(&large, policy, mode);
            report.push(format!(
                "{policy:?} {mode:?}: cold {cold}, warm {warm_small} (1k) / {warm_large} (4k), budget {budget}"
            ));
            assert!(
                warm_small <= budget && warm_large <= budget,
                "warm runs must stay inside their budget at both trace sizes:\n{}",
                report.join("\n")
            );
        }
    }

    // A cold streamed run, records off, on the homogeneous CM-5: its peak
    // above the heap live before it must not grow with the stream. On the
    // split paper cluster pass-through would confine the over-provisioned
    // requests to the 32 MB half, the effective load would exceed 1, and
    // the queue, not the engine, would grow without bound. Measured on
    // x86-64 Linux: 284,578 B at 20k jobs and 334,786 B at 320k, in debug
    // and release builds alike; retaining the records alone adds about
    // 64 B per job, 1.3 MB at 20k.
    const STREAM_HEAP_BUDGET: u64 = 512 * 1024;
    let cfg = SimConfig::default().with_retain_records(false);
    for jobs in [20_000, 320_000] {
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(live, Ordering::Relaxed);
        let result = Simulation::new(cfg, cm5_cluster(), EstimatorSpec::PassThrough)
            .run_stream(stress_stream(jobs, 42));
        let peak = PEAK_BYTES.load(Ordering::Relaxed) - live;
        assert_eq!(
            result.completed_jobs as u64, jobs,
            "sanity: the stream ran to completion"
        );
        report.push(format!(
            "stream {jobs} jobs: peak {peak} B above live, budget {STREAM_HEAP_BUDGET}"
        ));
        assert!(
            peak < STREAM_HEAP_BUDGET,
            "a streamed run's peak heap must not grow with the stream:\n{}",
            report.join("\n")
        );
    }
    eprintln!("{}", report.join("\n"));
}
