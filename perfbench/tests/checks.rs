//! The binary's handling of bad arguments, the result line when nothing
//! was checked, `BENCHMARK.json` against the metric registry, and the
//! canonical digest rendering.

use std::process::Command;

use resmatch_cluster::builder::paper_cluster;
use resmatch_perfbench::digest::digest;
use resmatch_perfbench::report::{Report, END_TO_END, PER_LAYER};
use resmatch_perfbench::{sims, WORKLOADS};
use resmatch_sim::prelude::*;
use resmatch_workload::load::scale_to_load;
use resmatch_workload::synthetic::{generate, Cm5Config};

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_resmatch-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// A result with nothing checked is not correct, and says so.
#[test]
fn nothing_checked_is_not_correct() {
    let report = Report::default();
    assert!(!report.correct());
    assert!(report
        .json(false)
        .starts_with("{\"correct\": false, \"attempted\": 0, \"failed\": 0, "));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seed", "1"][..],
        &["--workload", "paper_fcfs", "--trace", "2"][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn benchmark_json_lists_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the registry does not"
    );
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}

/// The digest reproduces a pinned constant of the simulator's golden
/// suite, so the re-implemented rendering matches the test-private one.
#[test]
fn digest_matches_the_golden_suite() {
    let mut w = generate(
        &Cm5Config {
            jobs: 600,
            ..Cm5Config::default()
        },
        42,
    );
    w.retain_max_nodes(512);
    let w = scale_to_load(&w, 1024, 0.9);
    let r = Simulation::new(
        SimConfig::default(),
        paper_cluster(24),
        EstimatorSpec::paper_successive(),
    )
    .run(&w);
    assert_eq!(digest(&r), 0x9404_ab49_01a3_c631);
}

/// Both seed-42 pins the benchmark checks before timing.
#[test]
#[cfg_attr(debug_assertions, ignore = "trace-scale: run under --release")]
fn golden_configurations_reproduce() {
    let mut report = Report::default();
    sims::golden_checks(&mut report);
    assert_eq!(report.attempted(), 2);
    assert_eq!(report.failed(), 0);
}
