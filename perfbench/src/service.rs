//! The `service_skewed` workload: one closed-loop caller driving
//! `EstimatorService` with a hot head and a long tail of similarity groups.

use std::time::{Duration, Instant};

use resmatch_cluster::builder::paper_cluster;
use resmatch_cluster::{CapacityLadder, Demand};
use resmatch_core::prelude::Feedback;
use resmatch_core::spec::EstimatorSpec;
use resmatch_service::prelude::*;
use resmatch_workload::synthetic::service_stream;
use resmatch_workload::{Job, JobId};

use crate::checkpoint::{self, Steps};
use crate::heap::{self, HeapProbe};
use crate::layers::{clock_cost, timed, Span, SpanLog};
use crate::report::{median, LatencyHist, Report};
use crate::Scale;

/// Similarity groups in the hot head.
const HOT_GROUPS: u64 = 4_096;
/// Similarity groups in the long tail.
const TAIL_GROUPS: u64 = 65_536;
/// Mixed into the seed so the tail draws its own class population.
const TAIL_SALT: u64 = 0x7A11_5EED;
/// The `resmatch serve` defaults.
const SHARDS: usize = 8;
const BATCH: usize = 1_024;

/// The outcome the simulator would report: success when usage fits the
/// ladder rung covering what was granted.
fn judge(ladder: &CapacityLadder, job: &Job, granted: Demand) -> Feedback {
    let node = ladder.round_up(granted.mem_kb).unwrap_or(granted.mem_kb);
    Feedback::explicit(job.used_mem_kb <= node, Demand::memory(job.used_mem_kb))
}

/// Estimate, judge, observe — one caller step.
fn step(svc: &mut EstimatorService, ladder: &CapacityLadder, job: &Job) {
    let granted = svc.estimate(job);
    svc.observe(job, granted, judge(ladder, job, granted));
}

fn pass(svc: &mut EstimatorService, ladder: &CapacityLadder, stream: &[Job]) {
    for job in stream {
        step(svc, ladder, job);
    }
}

/// The built workload: the request stream of one pass and a warm service.
pub struct ServiceBench {
    cfg: ServiceConfig,
    ladder: CapacityLadder,
    stream: Vec<Job>,
    svc: EstimatorService,
    /// Passes applied to `svc` so far, the warm pass included.
    passes: usize,
    stream_s: f64,
    latencies: LatencyHist,
    /// Heap live before the service was built: its peak is reported above
    /// this, so the service's own state counts and the request stream does
    /// not.
    heap_base: u64,
}

impl ServiceBench {
    /// Draw the head and tail streams, interleave them 1:1, build the
    /// service and run one warm pass.
    pub fn build(seed: u64, scale: &Scale) -> Self {
        let half = scale.service_ops as u64 / 2;
        let (stream, ns) = timed(|| {
            let hot = service_stream(half, HOT_GROUPS, seed);
            let tail = service_stream(half, TAIL_GROUPS, seed ^ TAIL_SALT);
            let mut stream: Vec<Job> = hot.zip(tail).flat_map(|(h, t)| [h, t]).collect();
            for (i, job) in stream.iter_mut().enumerate() {
                job.id = JobId(i as u64);
            }
            stream
        });
        let latencies = LatencyHist::default();
        let heap_base = heap::live_bytes();
        let ladder = paper_cluster(24).memory_ladder();
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder.clone())
            .shards(SHARDS)
            .feedback_batch(BATCH);
        let mut svc = EstimatorService::new(&cfg).expect("valid service configuration");
        pass(&mut svc, &ladder, &stream);
        ServiceBench {
            cfg,
            ladder,
            stream,
            svc,
            passes: 1,
            stream_s: ns as f64 * 1e-9,
            latencies,
            heap_base,
        }
    }

    /// Checkpoint the service into a fresh one and carry on with that.
    fn checkpoint(&mut self, report: &mut Report) -> Steps {
        let (fresh, steps, same) = checkpoint::service(&mut self.svc, &self.cfg);
        report.check(same, || "service checkpoint did not round-trip".into());
        if let Some(fresh) = fresh {
            self.svc = fresh;
        }
        steps
    }

    /// The final state must equal a one-shard replay of every pass.
    fn check_replay(&mut self, report: &mut Report) {
        let cfg = ServiceConfig::new(self.cfg.spec, self.ladder.clone())
            .shards(1)
            .feedback_batch(BATCH);
        let mut one = EstimatorService::new(&cfg).expect("valid service configuration");
        for _ in 0..self.passes {
            pass(&mut one, &self.ladder, &self.stream);
        }
        let want = one.snapshot().map(|d| d.state);
        let got = self.svc.snapshot().map(|d| d.state);
        let same = matches!((&got, &want), (Ok(a), Ok(b)) if a == b);
        report.check(same, || {
            format!(
                "final state differs from a one-shard replay of {} passes",
                self.passes
            )
        });
    }

    /// The measured phase: rounds of one unclocked pass (throughput), one
    /// pass clocking every `estimate` call (latency), a measurement of the
    /// clock's own share of a sample and a checkpoint, until `seconds` have
    /// passed. Throughput is one pass over the unclocked passes' median
    /// host time and the latency figure the median of the clocked passes'
    /// medians, for the reason `SimBench::measure` gives.
    pub fn measure(&mut self, seconds: f64, report: &mut Report) {
        let mut times = Vec::with_capacity(1024);
        let mut p50s = Vec::with_capacity(1024);
        let probe = HeapProbe::start_above(self.heap_base);
        let start = Instant::now();
        loop {
            let ((), ns) = timed(|| pass(&mut self.svc, &self.ladder, &self.stream));
            times.push(ns as f64 * 1e-9);
            self.latencies.clear();
            for job in &self.stream {
                let (granted, ns) = timed(|| self.svc.estimate(job));
                self.latencies.record(ns);
                self.svc
                    .observe(job, granted, judge(&self.ladder, job, granted));
            }
            let clock_ns = clock_cost().sample_ns;
            p50s.push(self.latencies.net_percentile(0.50, clock_ns));
            eprintln!(
                "round {}: {:.0} requests/s, p50 {:.1} ns before the clock's \
                 {clock_ns:.1} ns is taken off",
                p50s.len(),
                self.stream.len() as f64 / (ns as f64 * 1e-9),
                self.latencies.percentile(0.50),
            );
            self.passes += 2;
            self.checkpoint(report);
            if start.elapsed() >= Duration::from_secs_f64(seconds) {
                break;
            }
        }
        let peak = probe.peak_bytes();
        let rate = self.stream.len() as f64 / median(&times);
        report.set("peak_heap_bytes", peak as f64);
        report.set("events_per_s", 2.0 * rate);
        report.set("queries_per_s", rate);
        report.set("estimate_p50_ns", median(&p50s));
        eprintln!(
            "measured {} passes of {} requests, {} of them clocked",
            self.passes - 1,
            self.stream.len(),
            p50s.len(),
        );
        self.check_replay(report);
    }

    /// The traced phase: passes timing every `estimate` and `observe`
    /// call, each followed by a checkpoint timed step by step. Layer
    /// figures are per pass; every pass and checkpoint also goes into
    /// `spans`.
    pub fn trace(&mut self, seconds: f64, report: &mut Report, spans: &mut SpanLog) {
        let start = Instant::now();
        let (mut est, mut obs) = (Span::default(), Span::default());
        let mut steps = Vec::new();
        let (mut batches, mut applied) = (0u64, 0u64);
        let mut traced = 0u64;
        loop {
            // Counters restart with each restored service.
            let before = self.svc.stats();
            let (pass_est, pass_obs) = (est, obs);
            let t0 = spans.now();
            for job in &self.stream {
                let (granted, ns) = timed(|| self.svc.estimate(job));
                est.add(ns);
                self.latencies.record(ns);
                let fb = judge(&self.ladder, job, granted);
                let ((), ns) = timed(|| self.svc.observe(job, granted, fb));
                obs.add(ns);
            }
            let pass = spans.open(traced, "service.pass", t0);
            spans.child(&pass, "service.estimate", est.since(pass_est));
            spans.child(&pass, "service.observe", obs.since(pass_obs));
            let after = self.svc.stats();
            batches += after.batches - before.batches;
            applied += after.applied - before.applied;
            let t0 = spans.now();
            let step = self.checkpoint(report);
            let ckpt = spans.open(traced, "service.checkpoint", t0);
            for (name, ns) in [
                ("service.snapshot", step.snapshot_ns),
                ("service.encode", step.encode_ns),
                ("service.decode", step.decode_ns),
                ("service.restore", step.restore_ns),
            ] {
                spans.child(&ckpt, name, Span { calls: 1, ns });
            }
            steps.push(step);
            traced += 1;
            self.passes += 1;
            if start.elapsed() >= Duration::from_secs_f64(seconds) {
                break;
            }
        }
        let per = |x: u64| x as f64 / traced as f64;
        report.set("service.estimate_s", est.secs() / traced as f64);
        report.set("service.observe_s", obs.secs() / traced as f64);
        report.set("service.batches", per(batches));
        report.set(
            "service.applied_per_batch",
            if batches == 0 {
                0.0
            } else {
                applied as f64 / batches as f64
            },
        );
        report.set(
            "service.estimate_p99_ns",
            self.latencies.net_percentile(0.99, clock_cost().sample_ns),
        );
        let groups = self.svc.snapshot().map_or(0, |d| d.state.group_count());
        report.set("service.groups", groups as f64);
        codec_metrics(&steps, report);
        self.check_replay(report);
    }
}

/// Median whole and per-step checkpoint figures, for the codec half of
/// the `service` layer.
fn codec_metrics(steps: &[Steps], report: &mut Report) {
    let pick =
        |f: fn(&Steps) -> u64| median(&steps.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    let totals: Vec<f64> = steps.iter().map(Steps::total_s).collect();
    report.set("service.checkpoint_s", median(&totals));
    report.set("service.snapshot_s", pick(|s| s.snapshot_ns) * 1e-9);
    report.set("service.encode_s", pick(|s| s.encode_ns) * 1e-9);
    report.set("service.decode_s", pick(|s| s.decode_ns) * 1e-9);
    report.set("service.restore_s", pick(|s| s.restore_ns) * 1e-9);
    report.set("service.snapshot_bytes", pick(|s| s.bytes));
}

/// Set up `reps` times (each from scratch), report the median set-up and
/// stream-drawing times, and keep the last build.
pub fn setup(seed: u64, scale: &Scale, report: &mut Report) -> ServiceBench {
    let mut secs = Vec::new();
    let mut stream = Vec::new();
    let mut bench = None;
    for _ in 0..scale.setup_reps {
        drop(bench.take());
        let (b, ns) = timed(|| ServiceBench::build(seed, scale));
        secs.push(ns as f64 * 1e-9);
        stream.push(b.stream_s);
        bench = Some(b);
    }
    report.set("setup_s", median(&secs));
    report.set("workload.stream_s", median(&stream));
    bench.expect("at least one set-up")
}
