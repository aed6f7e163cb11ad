//! The repository benchmark: four workloads over the estimate → match →
//! allocate pipeline and the online estimator service, an untraced run
//! that prints the end-to-end metrics, and a traced run that attributes
//! time and work to the crates `workload`, `core`, `classad`, `cluster`,
//! `sim` and `service`.
//!
//! Every layer is measured from outside, by timing calls into its public
//! API; every run's output is checked (digests, checkpoint round trips,
//! a one-shard replay of the service stream). A traced run also writes its
//! spans to `target/perfbench/spans-<workload>.jsonl` under the working
//! directory.
//!
//! Run: `cargo run --release --manifest-path perfbench/Cargo.toml --
//!       --workload NAME [--seed N] [--seconds S] [--trace 0|1]`

#![deny(unsafe_code)]

pub mod checkpoint;
pub mod digest;
#[allow(unsafe_code)]
pub mod heap;
pub mod layers;
pub mod report;
pub mod service;
pub mod sims;

use std::path::PathBuf;

use layers::SpanLog;
use report::Report;
use sims::SimKind;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_fcfs",
    "saturated_easy",
    "matched_easy",
    "service_skewed",
];

/// Input sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Jobs generated for `paper_fcfs` (before wide jobs are removed).
    pub trace_jobs: usize,
    /// Offered loads `paper_fcfs` rescales to, besides the natural load.
    pub loads: Vec<f64>,
    /// Independent traces of an EASY workload.
    pub easy_traces: usize,
    /// Jobs generated for each of them.
    pub easy_jobs: usize,
    /// Requests in one pass of `service_skewed`.
    pub service_ops: usize,
    /// Set-ups per invocation; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            trace_jobs: 122_055,
            loads: sims::FIG5_LOADS.to_vec(),
            easy_traces: 64,
            easy_jobs: 5_000,
            service_ops: 1 << 19,
            setup_reps: 3,
        }
    }

    /// Tiny sizes for the smoke test: every code path, in well under a
    /// second per workload.
    pub fn smoke() -> Self {
        Scale {
            trace_jobs: 3_000,
            loads: vec![0.5, 1.5],
            easy_traces: 3,
            easy_jobs: 1_500,
            service_ops: 1 << 12,
            setup_reps: 2,
        }
    }
}

/// Run one workload: set up, check the pinned digests at seed 42 (their
/// configurations are full-size whatever `scale` is), then measure
/// (untraced) or trace for `seconds`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
) -> Result<Report, String> {
    let kind = match workload {
        "paper_fcfs" => Some(SimKind::PaperFcfs),
        "saturated_easy" => Some(SimKind::SaturatedEasy),
        "matched_easy" => Some(SimKind::MatchedEasy),
        "service_skewed" => None,
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    let mut report = Report::default();
    if seed == 42 {
        sims::golden_checks(&mut report);
    }
    let mut spans = SpanLog::default();
    match kind {
        Some(kind) => {
            let mut bench = sims::setup(kind, seed, scale, &mut report);
            if traced {
                bench.trace(seconds, &mut report, &mut spans);
            } else {
                bench.measure(seconds, &mut report);
            }
        }
        None => {
            let mut bench = service::setup(seed, scale, &mut report);
            if traced {
                bench.trace(seconds, &mut report, &mut spans);
            } else {
                bench.measure(seconds, &mut report);
            }
        }
    }
    if traced {
        report.set("trace.clock_ns", layers::clock_cost().span_ns);
        let path = PathBuf::from(format!("target/perfbench/spans-{workload}.jsonl"));
        match spans.write(&path) {
            Ok(()) => eprintln!(
                "wrote {} spans to {}",
                spans.records().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    Ok(report)
}
