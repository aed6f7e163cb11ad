//! Metric registry, correctness tally and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as `BENCHMARK.json` lists them.
pub type MetricDef = (&'static str, &'static str);

/// Printed by every untraced run, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("queries_per_s", "requests/s"),
    ("peak_heap_bytes", "bytes"),
    ("estimate_p50_ns", "ns"),
];

/// Printed by every traced run, on every workload; a layer the workload
/// does not reach reports zero.
pub const PER_LAYER: &[MetricDef] = &[
    ("workload.generate_s", "s"),
    ("workload.rescale_s", "s"),
    ("workload.attrs_s", "s"),
    ("workload.stream_s", "s"),
    ("core.estimate_calls", "count"),
    ("core.estimate_s", "s"),
    ("core.feedback_calls", "count"),
    ("core.feedback_s", "s"),
    ("core.scope_calls", "count"),
    ("core.estimates_per_admission", "ratio"),
    ("core.estimate_p99_ns", "ns"),
    ("classad.prepare_calls", "count"),
    ("classad.prepare_s", "s"),
    ("classad.matches_calls", "count"),
    ("classad.rank_calls", "count"),
    ("classad.signature_share", "ratio"),
    ("classad.prepares_per_attempt", "ratio"),
    ("classad.refusal_ratio", "ratio"),
    ("cluster.alloc_calls", "count"),
    ("cluster.alloc_s", "s"),
    ("cluster.release_calls", "count"),
    ("cluster.release_s", "s"),
    ("cluster.replay_mismatches", "count"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.requeued", "count"),
    ("sim.alloc_count", "count"),
    ("sim.trace_overhead", "ratio"),
    ("service.estimate_s", "s"),
    ("service.observe_s", "s"),
    ("service.batches", "count"),
    ("service.applied_per_batch", "ratio"),
    ("service.groups", "count"),
    ("service.estimate_p99_ns", "ns"),
    ("service.checkpoint_s", "s"),
    ("service.snapshot_s", "s"),
    ("service.encode_s", "s"),
    ("service.decode_s", "s"),
    ("service.restore_s", "s"),
    ("service.snapshot_bytes", "bytes"),
    ("trace.clock_ns", "ns"),
];

/// Metric values plus the tally of checked operations.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record a metric value (replacing any earlier one).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count one checked operation; a failed one is also reported on
    /// standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Operations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations whose check failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether something was checked and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: every metric of the chosen set, by name, with its
    /// unit. A value never recorded, or not finite, prints as zero.
    pub fn json(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in defs.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of a sample (mean of the middle pair when even); zero when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-call latencies in a fixed-size histogram of one-nanosecond
/// buckets, so recording allocates nothing however many calls a run makes.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHist {
    /// Buckets; a latency at or above the last one lands in the last one.
    const BUCKETS: usize = 1 << 16;

    /// Record one latency.
    pub fn record(&mut self, ns: u64) {
        let b = usize::try_from(ns).map_or(Self::BUCKETS - 1, |b| b.min(Self::BUCKETS - 1));
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Forget every sample, keeping the buckets' memory.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Percentile `q` (in 0..=1), interpolated within its one-nanosecond
    /// bucket by rank; zero when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                return ns as f64 + (rank - below as f64) / c as f64;
            }
            below += c;
        }
        0.0
    }

    /// Percentile `q` with `clock_ns`, the clock's share of every sample,
    /// taken off each sample (one below it counts as zero).
    pub fn net_percentile(&self, q: f64, clock_ns: f64) -> f64 {
        (self.percentile(q) - clock_ns).max(0.0)
    }
}
