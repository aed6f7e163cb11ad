//! The three simulator workloads: `paper_fcfs`, `saturated_easy` and
//! `matched_easy`.

use std::time::{Duration, Instant};

use resmatch_classad::{Matchmaker, PoolAd};
use resmatch_cluster::builder::paper_cluster;
use resmatch_cluster::{Capacity, Cluster, ClusterBuilder};
use resmatch_sim::prelude::*;
use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
use resmatch_workload::load::{scale_to_load, scale_to_load_into};
use resmatch_workload::synthetic::{generate, Cm5Config};
use resmatch_workload::{Job, Workload};

use crate::digest::{digest, GOLDEN_MATCHMAKING_EASY_SUCCESSIVE, GOLDEN_TRACE_FCFS_SUCCESSIVE};
use crate::heap::HeapProbe;
use crate::layers::{self, replay, timed, SpanLog, StartRecorder, TracedEstimator, TracedMatcher};
use crate::report::{median, LatencyHist, Report};
use crate::Scale;

/// Nodes in the paper cluster; offered load is computed against it.
const TOTAL_NODES: u32 = 1024;
/// The Figure 5 offered-load axis.
pub const FIG5_LOADS: [f64; 11] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5];

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// The paper's Figure 5–6 experiment on the full trace.
    PaperFcfs,
    /// EASY backfilling at offered load 1.0, native allocation.
    SaturatedEasy,
    /// `SaturatedEasy` with disk/package attributes, allocated through the
    /// ClassAd matchmaker.
    MatchedEasy,
}

impl SimKind {
    /// The cluster, plus capability ads when allocation is matched. The
    /// matched cluster's 32 MB half has 2 GB of scratch, packages `0xF`
    /// and arch `cm5`; its 24 MB half is unconstrained.
    fn cluster(self) -> (Cluster, Option<Vec<PoolAd>>) {
        match self {
            SimKind::PaperFcfs | SimKind::SaturatedEasy => (paper_cluster(24), None),
            SimKind::MatchedEasy => matched_cluster(),
        }
    }
}

fn matched_cluster() -> (Cluster, Option<Vec<PoolAd>>) {
    let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
    let small = Capacity::memory(24 * 1024);
    let cluster = ClusterBuilder::new()
        .pool_with(512, big)
        .pool_with(512, small)
        .build();
    let ads = vec![PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)];
    (cluster, Some(ads))
}

/// The generated trace, with jobs wider than half the machine removed.
fn paper_trace(jobs: usize, seed: u64) -> Workload {
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

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing attached: the timed runs.
    Plain,
    /// The estimator decorator only, keeping per-call `estimate` latency.
    Clocked,
    /// Every decorator plus the start/end recorder.
    Traced,
}

/// One simulated configuration.
#[derive(Debug, Clone)]
pub struct Case {
    /// Human-readable name.
    pub label: String,
    /// Index of the input trace.
    pub input: usize,
    /// Offered load to rescale the input to; `None` runs it as is.
    pub load: Option<f64>,
    /// Estimator.
    pub spec: EstimatorSpec,
    /// Engine configuration.
    pub cfg: SimConfig,
}

/// Seconds spent in each input-building step of one set-up.
#[derive(Debug, Default, Clone, Copy)]
struct InputTimes {
    generate: f64,
    rescale: f64,
    attrs: f64,
}

/// Seed of the `k`-th independent trace of an EASY workload; the first is
/// the workload seed itself, so seed 42 reproduces the pinned scenario.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A built simulator workload: its inputs, configurations and one arena
/// reused by every run.
pub struct SimBench {
    kind: SimKind,
    inputs: Vec<Workload>,
    /// The configurations one pass runs, in order.
    pub cases: Vec<Case>,
    /// The configurations whose `estimate` calls are clocked.
    pub latency_cases: Vec<usize>,
    buf: Vec<Job>,
    arena: SimArena,
    /// Digest of each configuration's first run.
    first: Vec<Option<u64>>,
    times: InputTimes,
}

impl SimBench {
    /// Generate the inputs and warm the arena: with the heaviest load for
    /// `paper_fcfs`, with every trace for the EASY workloads.
    pub fn build(kind: SimKind, seed: u64, scale: &Scale) -> Self {
        let successive = EstimatorSpec::paper_successive();
        let mut times = InputTimes::default();
        let (inputs, cases, latency_cases, warm_cases) = match kind {
            SimKind::PaperFcfs => {
                let (base, ns) = timed(|| paper_trace(scale.trace_jobs, seed));
                times.generate = ns as f64 * 1e-9;
                let mut cases = Vec::new();
                let loads = scale.loads.iter().map(|&l| Some(l)).chain([None]);
                for load in loads {
                    for spec in [EstimatorSpec::PassThrough, successive] {
                        let at = load.map_or("natural".to_string(), |l| l.to_string());
                        cases.push(Case {
                            label: format!("fcfs/{}/load={at}", spec.name()),
                            input: 0,
                            load,
                            spec,
                            cfg: SimConfig::default(),
                        });
                    }
                }
                // The last pair runs the natural load; the heaviest load
                // warms the arena.
                let n = cases.len();
                (vec![base], cases, vec![n - 1], n - 3..n - 2)
            }
            SimKind::SaturatedEasy | SimKind::MatchedEasy => {
                let easy = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
                let mut inputs = Vec::new();
                let mut cases = Vec::new();
                for k in 0..scale.easy_traces {
                    let s = sub_seed(seed, k);
                    let (trace, ns) = timed(|| paper_trace(scale.easy_jobs, s));
                    times.generate += ns as f64 * 1e-9;
                    let (mut w, ns) = timed(|| scale_to_load(&trace, TOTAL_NODES, 1.0));
                    times.rescale += ns as f64 * 1e-9;
                    if kind == SimKind::MatchedEasy {
                        let ((), ns) =
                            timed(|| synthesize_attributes(&mut w, &AttrConfig::default(), s));
                        times.attrs += ns as f64 * 1e-9;
                    }
                    inputs.push(w);
                    cases.push(Case {
                        label: format!("easy/{}/trace={k}", successive.name()),
                        input: k,
                        load: None,
                        spec: successive,
                        cfg: easy,
                    });
                }
                let n = cases.len();
                (inputs, cases, (0..n).collect(), 0..n)
            }
        };
        let mut bench = SimBench {
            kind,
            inputs,
            first: vec![None; cases.len()],
            cases,
            latency_cases,
            buf: Vec::new(),
            arena: SimArena::default(),
            times,
        };
        // Rescaling every load once is part of set-up; the measured rounds
        // rescale into the same buffer again, outside the timed spans.
        let ((), ns) = timed(|| {
            for c in &bench.cases {
                if let Some(load) = c.load {
                    scale_to_load_into(&bench.inputs[c.input], TOTAL_NODES, load, &mut bench.buf);
                }
            }
        });
        bench.times.rescale += ns as f64 * 1e-9;
        for i in warm_cases {
            drop(bench.simulate(i, Mode::Plain));
        }
        bench
    }

    /// Run configuration `i`, returning the result and the host time from
    /// building the simulation to the end of its run.
    pub fn simulate(&mut self, i: usize, mode: Mode) -> (SimResult, u64) {
        let case = &self.cases[i];
        let kind = self.kind;
        let arena = &mut self.arena;
        let mut go = |w: &Workload| {
            timed(|| {
                let (cluster, ads) = kind.cluster();
                let mut b = Simulation::builder().config(case.cfg);
                b = match mode {
                    Mode::Plain => b.estimator(case.spec),
                    Mode::Clocked | Mode::Traced => {
                        let inner = case.spec.build(&cluster.memory_ladder());
                        b.boxed_estimator(Box::new(TracedEstimator::new(inner)))
                    }
                };
                if let Some(ads) = ads {
                    let mm = Matchmaker::new(&ads);
                    b = match mode {
                        Mode::Traced => b.matchmaking(Box::new(TracedMatcher::new(mm))),
                        Mode::Plain | Mode::Clocked => b.matchmaking(Box::new(mm)),
                    };
                }
                if mode == Mode::Traced {
                    b = b.observer(Box::new(StartRecorder));
                }
                b.cluster(cluster)
                    .build()
                    .expect("cluster and estimator are set")
                    .run_with_arena(w, arena)
            })
        };
        let input = &self.inputs[case.input];
        match case.load {
            Some(load) => {
                scale_to_load_into(input, TOTAL_NODES, load, &mut self.buf);
                let w = Workload::from_sorted(std::mem::take(&mut self.buf));
                let out = go(&w);
                self.buf = w.into_jobs();
                out
            }
            None => go(input),
        }
    }

    /// Check a run's digest against the first run of its configuration.
    fn check(&mut self, i: usize, r: &SimResult, what: &str, report: &mut Report) {
        let d = digest(r);
        let want = *self.first[i].get_or_insert(d);
        report.check(d == want, || {
            format!(
                "{} {what} run digest {d:#018x} != first run {want:#018x}",
                self.cases[i].label
            )
        });
    }

    /// The measured phase: rounds until `seconds` have passed. A round
    /// runs every configuration plain (throughput), runs each latency
    /// configuration with its `estimate` calls clocked, and measures the
    /// clock's own share of a sample.
    ///
    /// Every run of a configuration does the same work (the digest check
    /// proves it), so each configuration counts at its median host time:
    /// throughput is one round's work over the sum of those medians, and
    /// the latency figure is the median of the rounds' medians. On a shared
    /// machine the host's speed jumps in stretches of seconds; a median per
    /// repetition follows the speed most of the phase ran at, where a
    /// phase-wide total also counts every stretch it caught.
    pub fn measure(&mut self, seconds: f64, report: &mut Report) {
        // Allocated before the heap window opens, so the peak is the
        // program's alone.
        let mut latencies = LatencyHist::default();
        let mut p50s = Vec::with_capacity(1024);
        let mut times: Vec<Vec<f64>> = (0..self.cases.len())
            .map(|_| Vec::with_capacity(1024))
            .collect();
        let probe = HeapProbe::start();
        let start = Instant::now();
        let (events, jobs) = loop {
            let (mut round_ns, mut round_events, mut round_jobs) = (0u64, 0u64, 0u64);
            for (i, t) in times.iter_mut().enumerate() {
                let (r, ns) = self.simulate(i, Mode::Plain);
                t.push(ns as f64 * 1e-9);
                round_ns += ns;
                round_events += r.events_processed;
                round_jobs += r.completed_jobs as u64;
                self.check(i, &r, "plain", report);
            }
            latencies.clear();
            for i in self.latency_cases.clone() {
                layers::reset_ledger(Some(latencies), false);
                let (r, _) = self.simulate(i, Mode::Clocked);
                self.check(i, &r, "clocked", report);
                latencies = layers::take_ledger().latencies.unwrap_or_default();
            }
            let clock_ns = layers::clock_cost().sample_ns;
            p50s.push(latencies.net_percentile(0.50, clock_ns));
            eprintln!(
                "round {}: {:.0} events/s, {} estimate latency samples, p50 {:.1} ns \
                 before the clock's {clock_ns:.1} ns is taken off",
                p50s.len(),
                round_events as f64 / (round_ns as f64 * 1e-9),
                latencies.len(),
                latencies.percentile(0.50),
            );
            if start.elapsed() >= Duration::from_secs_f64(seconds) {
                break (round_events, round_jobs);
            }
        };
        let secs: f64 = times.iter().map(|t| median(t)).sum();
        report.set("peak_heap_bytes", probe.peak_bytes() as f64);
        report.set("events_per_s", events as f64 / secs);
        report.set("queries_per_s", jobs as f64 / secs);
        report.set("estimate_p50_ns", median(&p50s));
        eprintln!(
            "{} rounds of {} runs; the runs' median times sum to {secs:.3} s",
            p50s.len(),
            self.cases.len(),
        );
    }

    /// The traced phase: each configuration runs untraced, then traced;
    /// the traced run's starts and ends are replayed on a fresh cluster.
    /// Layer figures are per pass over all configurations; every traced
    /// run and replay also goes into `spans`.
    pub fn trace(&mut self, seconds: f64, report: &mut Report, spans: &mut SpanLog) {
        let start = Instant::now();
        let mut passes = 0u64;
        let mut sum = layers::Ledger::default();
        let mut rep = layers::Replay::default();
        let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
        let mut warm_allocs;
        let (mut events, mut requeued, mut admissions) = (0u64, 0u64, 0u64);
        let (mut attempts, mut refusals) = (0u64, 0u64);
        let mut latencies = LatencyHist::default();
        loop {
            warm_allocs = 0;
            for i in 0..self.cases.len() {
                let probe = HeapProbe::start();
                let (r, ns) = self.simulate(i, Mode::Plain);
                warm_allocs += probe.allocs();
                plain_ns += ns;
                self.check(i, &r, "untraced", report);
                drop(r);

                layers::reset_ledger(Some(latencies), true);
                let run = passes * self.cases.len() as u64 + i as u64;
                let t0 = spans.now();
                let (r, ns) = self.simulate(i, Mode::Traced);
                let sim_span = spans.open(run, "sim.run", t0);
                traced_ns += ns;
                self.check(i, &r, "traced", report);
                let mut l = layers::take_ledger();
                latencies = l.latencies.take().unwrap_or_default();
                spans.child(&sim_span, "core.estimate", l.estimate);
                spans.child(&sim_span, "core.feedback", l.feedback);
                spans.child(&sim_span, "classad.prepare", l.prepare);

                let (cluster, ads) = self.kind.cluster();
                let mut mm = ads.map(|ads| Matchmaker::new(&ads));
                let policy = self.cases[i].cfg.match_policy;
                let t0 = spans.now();
                let rp = replay(
                    &l.ops,
                    cluster,
                    mm.as_mut()
                        .map(|m| m as &mut dyn resmatch_cluster::PoolMatcher),
                    policy,
                );
                let replay_span = spans.open(run, "cluster.replay", t0);
                spans.child(&replay_span, "cluster.alloc", rp.alloc);
                spans.child(&replay_span, "cluster.release", rp.release);
                report.check(rp.mismatches == 0, || {
                    format!(
                        "{} replay: {} mismatches",
                        self.cases[i].label, rp.mismatches
                    )
                });
                rep.alloc.absorb(rp.alloc);
                rep.release.absorb(rp.release);
                rep.mismatches += rp.mismatches;
                sum.estimate.absorb(l.estimate);
                sum.feedback.absorb(l.feedback);
                sum.prepare.absorb(l.prepare);
                sum.scope_calls += l.scope_calls;
                sum.matches_calls += l.matches_calls;
                sum.rank_calls += l.rank_calls;
                sum.signature_calls += l.signature_calls;
                sum.signature_some += l.signature_some;
                events += r.events_processed;
                requeued += r.counters.requeued;
                admissions += r.counters.admissions;
                attempts += r.counters.match_attempts;
                refusals += r.counters.match_refusals;
            }
            passes += 1;
            if start.elapsed() >= Duration::from_secs_f64(seconds) {
                break;
            }
        }
        let per = |x: u64| x as f64 / passes as f64;
        let per_s = |ns: u64| ns as f64 * 1e-9 / passes as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.set("core.estimate_calls", per(sum.estimate.calls));
        report.set("core.estimate_s", per_s(sum.estimate.ns));
        report.set("core.feedback_calls", per(sum.feedback.calls));
        report.set("core.feedback_s", per_s(sum.feedback.ns));
        report.set("core.scope_calls", per(sum.scope_calls));
        report.set(
            "core.estimates_per_admission",
            ratio(sum.estimate.calls, admissions),
        );
        report.set(
            "core.estimate_p99_ns",
            latencies.net_percentile(0.99, layers::clock_cost().sample_ns),
        );
        report.set("classad.prepare_calls", per(sum.prepare.calls));
        report.set("classad.prepare_s", per_s(sum.prepare.ns));
        report.set("classad.matches_calls", per(sum.matches_calls));
        report.set("classad.rank_calls", per(sum.rank_calls));
        report.set(
            "classad.signature_share",
            ratio(sum.signature_some, sum.signature_calls),
        );
        report.set(
            "classad.prepares_per_attempt",
            ratio(sum.prepare.calls, attempts),
        );
        report.set("classad.refusal_ratio", ratio(refusals, attempts));
        report.set("cluster.alloc_calls", per(rep.alloc.calls));
        report.set("cluster.alloc_s", per_s(rep.alloc.ns));
        report.set("cluster.release_calls", per(rep.release.calls));
        report.set("cluster.release_s", per_s(rep.release.ns));
        report.set("cluster.replay_mismatches", rep.mismatches as f64);
        let children = sum.estimate.ns + sum.feedback.ns + sum.prepare.ns;
        let self_ns = traced_ns.saturating_sub(children);
        report.set("sim.run_s", per_s(traced_ns));
        report.set("sim.self_s", per_s(self_ns));
        report.set("sim.self_ns_per_event", ratio(self_ns, events));
        report.set("sim.events", per(events));
        report.set("sim.requeued", per(requeued));
        report.set("sim.alloc_count", warm_allocs as f64);
        report.set("sim.trace_overhead", ratio(traced_ns, plain_ns));
    }

    /// Inputs the timed set-up built, for the `workload` layer.
    fn report_inputs(times: &[InputTimes], report: &mut Report) {
        let pick = |f: fn(&InputTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
        report.set("workload.generate_s", pick(|t| t.generate));
        report.set("workload.rescale_s", pick(|t| t.rescale));
        report.set("workload.attrs_s", pick(|t| t.attrs));
    }
}

/// Set up `reps` times (each from scratch), report the median set-up time
/// and input-step times, and keep the last build.
pub fn setup(kind: SimKind, seed: u64, scale: &Scale, report: &mut Report) -> SimBench {
    let mut secs = Vec::new();
    let mut times = Vec::new();
    let mut bench = None;
    for _ in 0..scale.setup_reps {
        drop(bench.take());
        let (b, ns) = timed(|| SimBench::build(kind, seed, scale));
        secs.push(ns as f64 * 1e-9);
        times.push(b.times);
        bench = Some(b);
    }
    report.set("setup_s", median(&secs));
    SimBench::report_inputs(&times, report);
    bench.expect("at least one set-up")
}

/// At seed 42, the two pinned configurations must reproduce their
/// digests.
pub fn golden_checks(report: &mut Report) {
    let trace = paper_trace(122_055, 42);
    let r = Simulation::new(
        SimConfig::default(),
        paper_cluster(24),
        EstimatorSpec::paper_successive(),
    )
    .run(&trace);
    let d = digest(&r);
    report.check(d == GOLDEN_TRACE_FCFS_SUCCESSIVE, || {
        format!("trace FCFS successive digest {d:#018x} != pinned")
    });
    drop((r, trace));

    let mut w = scale_to_load(&paper_trace(5_000, 42), TOTAL_NODES, 1.0);
    synthesize_attributes(&mut w, &AttrConfig::default(), 42);
    let (cluster, ads) = matched_cluster();
    let ads = ads.expect("matched cluster has ads");
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    let r = Simulation::new(cfg, cluster, EstimatorSpec::paper_successive())
        .with_matchmaking(Box::new(Matchmaker::new(&ads)))
        .run(&w);
    let d = digest(&r);
    report.check(d == GOLDEN_MATCHMAKING_EASY_SUCCESSIVE, || {
        format!("matchmaking EASY successive digest {d:#018x} != pinned")
    });
}
