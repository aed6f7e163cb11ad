//! Subcommand implementations. Each takes parsed [`crate::args::Args`] and
//! returns the text to print, so commands stay unit-testable without
//! spawning processes.

use resmatch_classad::{Matchmaker, PoolAd};
use resmatch_cluster::{Cluster, Demand};
use resmatch_core::prelude::Feedback;
use resmatch_service::prelude::*;
use resmatch_sim::prelude::*;
use resmatch_workload::analysis::{
    group_size_distribution, histogram_log_fit, overprovisioning_histogram, trace_stats,
};
use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
use resmatch_workload::calibration::{measure, CalibrationReport, CalibrationTargets};
use resmatch_workload::load::scale_to_load;
use resmatch_workload::swf;
use resmatch_workload::synthetic::{generate, service_stream, Cm5Config};
use resmatch_workload::Workload;

use crate::args::{ArgSpec, Args};
use crate::parse::{parse_cluster, parse_cluster_ads, parse_loads};
use crate::{CliError, CliResult};

/// Load a trace: positional SWF path, or `--synthetic N` jobs.
fn load_trace(args: &Args, seed: u64) -> CliResult<Workload> {
    if let Some(path) = args.positional(0) {
        let parsed = swf::parse_file(std::path::Path::new(path))
            .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?
            .map_err(|e| CliError::new(format!("cannot parse {path}: {e}")))?;
        Ok(parsed.workload)
    } else {
        let jobs: usize = args.get_parsed("synthetic", 0usize)?;
        if jobs == 0 {
            return Err(CliError::new(
                "give an SWF path or --synthetic <jobs> to generate one",
            ));
        }
        let mut w = generate(
            &Cm5Config {
                jobs,
                ..Cm5Config::default()
            },
            seed,
        );
        w.retain_max_nodes(512);
        Ok(w)
    }
}

/// Default cluster layout: the paper's two-pool CM-5 partitioning.
const DEFAULT_CLUSTER: &str = "512x32M,512x24M";

fn cluster_from(args: &Args) -> CliResult<Cluster> {
    parse_cluster(args.get("cluster").unwrap_or(DEFAULT_CLUSTER))
}

/// Cluster plus index-aligned capability ads, for matchmaking mode.
fn cluster_ads_from(args: &Args) -> CliResult<(Cluster, Vec<PoolAd>)> {
    parse_cluster_ads(args.get("cluster").unwrap_or(DEFAULT_CLUSTER))
}

/// `--estimator` in [`EstimatorSpec`]'s `name[:alpha[,beta]]` grammar.
fn estimator_from(args: &Args) -> CliResult<EstimatorSpec> {
    args.get("estimator")
        .unwrap_or("successive")
        .parse()
        .map_err(|e| CliError::new(format!("{e}")))
}

/// Build the `--matchmaking` layer: pool ads from the cluster spec, plus
/// the operator's `--constrain` / `--rank` expressions, parsed and
/// evaluated against the pool ads up front so a typo fails the command
/// instead of the first allocation.
fn matchmaker_from(args: &Args, ads: &[PoolAd]) -> CliResult<Matchmaker> {
    let mut mm = Matchmaker::new(ads);
    if let Some(text) = args.get("constrain") {
        mm = mm
            .with_constraint(text)
            .map_err(|e| CliError::new(format!("bad --constrain expression: {e}")))?;
    }
    if let Some(text) = args.get("rank") {
        mm = mm
            .with_rank(text)
            .map_err(|e| CliError::new(format!("bad --rank expression: {e}")))?;
    }
    Ok(mm)
}

fn sim_config(args: &Args) -> CliResult<SimConfig> {
    let policy = match args.get("policy").unwrap_or("fcfs") {
        "fcfs" => SchedulingPolicy::Fcfs,
        "sjf" => SchedulingPolicy::Sjf,
        "easy" => SchedulingPolicy::EasyBackfill,
        other => {
            return Err(CliError::new(format!(
                "unknown policy {other:?}; expected fcfs, sjf, or easy"
            )))
        }
    };
    Ok(SimConfig::default()
        .with_scheduling(policy)
        .with_feedback(if args.has_switch("explicit") {
            FeedbackMode::Explicit
        } else {
            FeedbackMode::Implicit
        })
        .with_seed(args.get_parsed("sim-seed", 0xC0FFEEu64)?))
}

/// `resmatch generate --jobs N [--seed S] [--diurnal A] --out trace.swf`
pub fn cmd_generate(tokens: Vec<String>) -> CliResult<String> {
    let args = ArgSpec::new()
        .value("jobs")
        .value("seed")
        .value("diurnal")
        .value("out")
        .parse(tokens)?;
    let jobs: usize = args.get_parsed("jobs", 122_055)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let diurnal: f64 = args.get_parsed("diurnal", 0.0)?;
    let trace = generate(
        &Cm5Config {
            jobs,
            diurnal_amplitude: diurnal,
            ..Cm5Config::default()
        },
        seed,
    );
    let text = swf::write_str(
        &swf::quantize(&trace),
        &[
            "Computer: synthetic Thinking Machines CM-5 (resmatch)",
            "MaxNodes: 1024",
        ],
    );
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote {jobs} jobs to {path}"))
        }
        None => Ok(text),
    }
}

/// `resmatch analyze [trace.swf | --synthetic N] [--seed S]`
pub fn cmd_analyze(tokens: Vec<String>) -> CliResult<String> {
    use std::fmt::Write as _;
    let args = ArgSpec::new()
        .value("synthetic")
        .value("seed")
        .parse(tokens)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let trace = load_trace(&args, seed)?;
    let stats = trace_stats(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "jobs:                  {}", stats.jobs);
    let _ = writeln!(
        out,
        "similarity groups:     {} (mean size {:.1})",
        stats.groups, stats.mean_group_size
    );
    let _ = writeln!(
        out,
        "P(request >= 2x used): {:.1}%",
        stats.overprovisioned_2x * 100.0
    );
    let _ = writeln!(out, "max ratio:             {:.0}x", stats.max_ratio);
    let hist = overprovisioning_histogram(&trace, 8);
    if let Some(fit) = histogram_log_fit(&hist) {
        let _ = writeln!(out, "histogram log-fit R^2: {:.2}", fit.r_squared);
    }
    let big: f64 = group_size_distribution(&trace)
        .iter()
        .filter(|b| b.size >= 10)
        .map(|b| b.job_fraction)
        .sum();
    let _ = writeln!(out, "jobs in groups >= 10:  {:.1}%", big * 100.0);
    let report = CalibrationReport::compare(&measure(&trace), &CalibrationTargets::paper());
    let _ = writeln!(
        out,
        "calibration vs. paper: worst relative error {:.1}% ({})",
        report.worst_error() * 100.0,
        if report.passes(0.30) { "PASS" } else { "DRIFT" }
    );
    Ok(out)
}

/// `resmatch simulate [trace | --synthetic N] --cluster L --estimator E
///  [--load X] [--policy P] [--explicit]
///  [--matchmaking] [--constrain EXPR] [--rank EXPR] [--attrs]`
pub fn cmd_simulate(tokens: Vec<String>) -> CliResult<String> {
    use std::fmt::Write as _;
    let args = ArgSpec::new()
        .value("synthetic")
        .value("seed")
        .value("cluster")
        .value("estimator")
        .value("load")
        .value("policy")
        .value("sim-seed")
        .switch("explicit")
        .switch("matchmaking")
        .value("constrain")
        .value("rank")
        .switch("attrs")
        .parse(tokens)?;
    let matchmaking = args.has_switch("matchmaking");
    for flag in ["constrain", "rank"] {
        if args.get(flag).is_some() && !matchmaking {
            return Err(CliError::new(format!("--{flag} requires --matchmaking")));
        }
    }
    let seed: u64 = args.get_parsed("seed", 42)?;
    let trace = load_trace(&args, seed)?;
    let (cluster, ads) = cluster_ads_from(&args)?;
    let spec = estimator_from(&args)?;
    let cfg = sim_config(&args)?;
    let load: f64 = args.get_parsed("load", 0.0)?;
    let mut trace = if load > 0.0 {
        scale_to_load(&trace, cluster.total_nodes(), load)
    } else {
        trace
    };
    if args.has_switch("attrs") {
        synthesize_attributes(&mut trace, &AttrConfig::default(), seed);
    }
    let mut builder = Simulation::builder()
        .config(cfg)
        .cluster(cluster)
        .estimator(spec);
    if matchmaking {
        builder = builder.matchmaking(Box::new(matchmaker_from(&args, &ads)?));
    }
    let sim = builder.build().map_err(|e| CliError::new(format!("{e}")))?;
    let r = sim.run(&trace);
    let mut out = String::new();
    if matchmaking {
        let _ = writeln!(
            out,
            "matchmaking:          on (constraint: {}; rank: {})",
            args.get("constrain").unwrap_or("none"),
            args.get("rank").unwrap_or("pool order"),
        );
    }
    let _ = writeln!(out, "estimator:            {}", r.estimator);
    let _ = writeln!(out, "completed jobs:       {}", r.completed_jobs);
    let _ = writeln!(out, "dropped jobs:         {}", r.dropped_jobs);
    let _ = writeln!(out, "utilization:          {:.4}", r.utilization());
    let _ = writeln!(out, "busy utilization:     {:.4}", r.busy_utilization());
    let _ = writeln!(out, "mean slowdown:        {:.2}", r.mean_slowdown());
    let _ = writeln!(out, "mean wait:            {:.0} s", r.mean_wait_s());
    let _ = writeln!(
        out,
        "failed executions:    {} ({:.4}%)",
        r.failed_executions,
        r.failed_execution_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "lowered jobs:         {:.1}%",
        r.lowered_job_fraction() * 100.0
    );
    Ok(out)
}

/// `resmatch sweep [trace | --synthetic N] --loads 0.2,0.4 ... [--csv out]`
pub fn cmd_sweep(tokens: Vec<String>) -> CliResult<String> {
    let args = ArgSpec::new()
        .value("synthetic")
        .value("seed")
        .value("cluster")
        .value("estimator")
        .value("loads")
        .value("policy")
        .value("sim-seed")
        .value("csv")
        .switch("explicit")
        .switch("progress")
        .parse(tokens)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let trace = load_trace(&args, seed)?;
    let cluster = cluster_from(&args)?;
    let spec = estimator_from(&args)?;
    let loads = parse_loads(args.get("loads").unwrap_or("0.2,0.4,0.6,0.8,1.0,1.2"))?;
    let sweep = SweepConfig::default()
        .with_sim(sim_config(&args)?)
        .with_loads(loads);
    let progress = ProgressObserver::new("sweep", 1_000_000);
    let observer: Option<&dyn SweepObserver> = if args.has_switch("progress") {
        Some(&progress)
    } else {
        None
    };
    let points = run_load_sweep_observed(&trace, &cluster, spec, &sweep, observer);
    let csv = load_sweep_csv(&points);
    match args.get("csv") {
        Some(path) => {
            std::fs::write(path, &csv)
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote {} sweep points to {path}", points.len()))
        }
        None => Ok(csv),
    }
}

/// `resmatch serve --ops N --groups G [--shards S] [--batch B]
///  [--estimator NAME] [--seed S] [--cluster L] [--snapshot-out FILE]`
///
/// Runs the online estimator service over a synthetic service-shaped
/// request stream and reports sustained throughput.
pub fn cmd_serve(tokens: Vec<String>) -> CliResult<String> {
    use std::fmt::Write as _;
    let args = ArgSpec::new()
        .value("ops")
        .value("groups")
        .value("shards")
        .value("batch")
        .value("estimator")
        .value("seed")
        .value("cluster")
        .value("snapshot-out")
        .parse(tokens)?;
    let ops: u64 = args.get_parsed("ops", 100_000u64)?;
    let groups: u64 = args.get_parsed("groups", 10_000u64)?;
    if groups == 0 {
        return Err(CliError::new("--groups must be at least 1"));
    }
    let shards: usize = args.get_parsed("shards", 8usize)?;
    let batch: usize = args.get_parsed("batch", 1024usize)?;
    let seed: u64 = args.get_parsed("seed", 42u64)?;
    let spec = estimator_from(&args)?;
    let ladder = cluster_from(&args)?.memory_ladder();
    let cfg = ServiceConfig::new(spec, ladder.clone())
        .shards(shards)
        .feedback_batch(batch);
    let mut svc = EstimatorService::new(&cfg).map_err(|e| CliError::new(format!("{e}")))?;

    #[expect(
        clippy::disallowed_methods,
        reason = "reports the serve loop's wall time; the estimates do not depend on it"
    )]
    let start = std::time::Instant::now();
    for job in service_stream(ops, groups, seed) {
        let granted = svc.estimate(&job);
        let node = ladder.round_up(granted.mem_kb).unwrap_or(granted.mem_kb);
        let fb = Feedback::explicit(job.used_mem_kb <= node, Demand::memory(job.used_mem_kb));
        svc.observe(&job, granted, fb);
    }
    svc.flush();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let stats = svc.stats();
    let mut out = String::new();
    let _ = writeln!(out, "estimator:         {}", spec.name());
    let _ = writeln!(out, "shards:            {shards} (feedback batch {batch})");
    let _ = writeln!(
        out,
        "operations:        {} queries, {} observations",
        stats.queries, stats.observations
    );
    let _ = writeln!(
        out,
        "queries/sec:       {:.0}",
        stats.queries as f64 / elapsed
    );
    let _ = writeln!(
        out,
        "feedback/sec:      {:.0} (in {} batches)",
        stats.applied as f64 / elapsed,
        stats.batches
    );
    match svc.snapshot() {
        Ok(doc) => {
            let _ = writeln!(out, "similarity groups: {}", doc.state.group_count());
            if let Some(path) = args.get("snapshot-out") {
                doc.write_to(std::path::Path::new(path))
                    .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "snapshot:          wrote {path}");
            }
        }
        Err(_) if args.get("snapshot-out").is_some() => {
            return Err(CliError::new(format!(
                "--snapshot-out: estimator {} does not support snapshots",
                spec.name()
            )));
        }
        Err(_) => {}
    }
    Ok(out)
}

/// `resmatch snapshot info <file.rsnp>` — inspect a service snapshot file.
pub fn cmd_snapshot(tokens: Vec<String>) -> CliResult<String> {
    use std::fmt::Write as _;
    let args = ArgSpec::new().parse(tokens)?;
    match args.positional(0) {
        Some("info") => {
            let path = args
                .positional(1)
                .ok_or_else(|| CliError::new("usage: resmatch snapshot info <file.rsnp>"))?;
            let doc = SnapshotDocument::read_from(std::path::Path::new(path))
                .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
            let mut out = String::new();
            let _ = writeln!(out, "file:           {path}");
            let _ = writeln!(out, "estimator:      {}", doc.estimator);
            let _ = writeln!(out, "state kind:     {}", doc.state.kind());
            let _ = writeln!(out, "groups:         {}", doc.state.group_count());
            let _ = writeln!(out, "shards at save: {}", doc.shards_at_save);
            Ok(out)
        }
        Some(other) => Err(CliError::new(format!(
            "unknown snapshot action {other:?}; try `resmatch snapshot info <file>`"
        ))),
        None => Err(CliError::new("usage: resmatch snapshot info <file.rsnp>")),
    }
}

/// Usage text.
pub fn usage() -> String {
    let estimators = EstimatorSpec::NAMES
        .chunks(5)
        .map(|names| names.join(", "))
        .collect::<Vec<_>>()
        .join(",\n            ");
    format!(
        "resmatch — resource matching with estimation of actual job requirements\n\
     \n\
     USAGE:\n\
     resmatch generate --jobs N [--seed S] [--diurnal A] [--out trace.swf]\n\
     resmatch analyze  [trace.swf | --synthetic N] [--seed S]\n\
     resmatch simulate [trace.swf | --synthetic N] [--cluster 512x32M,512x24M]\n\
     \x20                [--estimator NAME] [--load X] [--policy fcfs|sjf|easy]\n\
     \x20                [--explicit]\n\
     \x20                [--matchmaking] [--constrain EXPR] [--rank EXPR] [--attrs]\n\
     resmatch sweep    [trace.swf | --synthetic N] [--loads 0.2,0.4,...]\n\
     \x20                [--cluster ...] [--estimator NAME] [--csv out.csv]\n\
     \x20                [--progress]\n\
     resmatch serve    --ops N --groups G [--shards S] [--batch B]\n\
     \x20                [--estimator NAME] [--seed S] [--cluster ...]\n\
     \x20                [--snapshot-out state.rsnp]\n\
     resmatch snapshot info <file.rsnp>\n\
     \n\
     Estimators: {estimators}\n\
     Algorithm 1's estimators take NAME:ALPHA[,BETA] with ALPHA > 1 and\n\
     0 <= BETA < 1 (BETA defaults to 0), e.g. --estimator successive:4,0.5.\n\
     \n\
     Cluster pools accept capability attributes for --matchmaking, e.g.\n\
     \x20 --cluster 512x32M:disk=2G:pkgs=3:arch=sparc,512x24M\n\
     (disk=SIZE scratch disk, pkgs=MASK installed packages, arch=NAME tag).\n\
     --attrs synthesizes per-class disk requests and package masks on the\n\
     trace; --constrain/--rank take ClassAd expressions where my is the job\n\
     ad and other the machine ad, e.g. --rank \"other.Memory\".\n"
    )
}

/// Dispatch a full command line (without the program name).
pub fn dispatch(mut argv: Vec<String>) -> CliResult<String> {
    if argv.is_empty() {
        return Ok(usage());
    }
    let cmd = argv.remove(0);
    match cmd.as_str() {
        "generate" => cmd_generate(argv),
        "analyze" => cmd_analyze(argv),
        "simulate" => cmd_simulate(argv),
        "sweep" => cmd_sweep(argv),
        "serve" => cmd_serve(argv),
        "snapshot" => cmd_snapshot(argv),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::new(format!(
            "unknown subcommand {other:?}; try `resmatch help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn generate_to_stdout_is_parseable_swf() {
        let out = cmd_generate(toks("--jobs 50 --seed 7")).unwrap();
        let parsed = swf::parse_str(&out).unwrap();
        assert_eq!(parsed.workload.len(), 50);
        assert_eq!(parsed.header.max_nodes, Some(1024));
    }

    #[test]
    fn analyze_synthetic_reports_stats() {
        let out = cmd_analyze(toks("--synthetic 2000 --seed 1")).unwrap();
        assert!(out.contains("jobs:"));
        assert!(out.contains("similarity groups:"));
        assert!(out.contains("calibration vs. paper:"));
    }

    #[test]
    fn analyze_without_input_errors() {
        let err = cmd_analyze(Vec::new()).unwrap_err();
        assert!(err.message.contains("--synthetic"));
    }

    #[test]
    fn simulate_end_to_end() {
        let out = cmd_simulate(toks(
            "--synthetic 400 --estimator successive --load 1.0 --cluster 512x32M,512x24M",
        ))
        .unwrap();
        assert!(out.contains("utilization:"), "{out}");
        assert!(out.contains("completed jobs:       400"), "{out}");
    }

    #[test]
    fn simulate_matchall_matchmaking_is_output_identical() {
        // An unconstrained matchmaker over untagged pools must reproduce
        // the legacy path exactly — same metrics, byte for byte, modulo
        // the mode banner line.
        let base = "--synthetic 300 --load 1.0 --cluster 64x32M,64x24M";
        let legacy = cmd_simulate(toks(base)).unwrap();
        let matched = cmd_simulate(toks(&format!("{base} --matchmaking"))).unwrap();
        let (banner, rest) = matched.split_once('\n').unwrap();
        assert!(banner.starts_with("matchmaking:"), "{matched}");
        assert_eq!(legacy, rest);
    }

    #[test]
    fn simulate_disk_constrained_scenario_runs() {
        // One pool with finite scratch disk, one unconstrained; enriched
        // jobs whose requests exceed 2G can only land on the second pool.
        let out = cmd_simulate(toks(
            "--synthetic 300 --load 1.0 --matchmaking --attrs \
             --cluster 64x32M:disk=2G,64x24M",
        ))
        .unwrap();
        assert!(out.contains("matchmaking:          on"), "{out}");
        assert!(out.contains("completed jobs:"), "{out}");
    }

    #[test]
    fn simulate_license_pool_scenario_runs() {
        // Licensed software lives on one pool (pkgs mask); a rank
        // expression prefers roomier nodes among eligible pools.
        let out = cmd_simulate(toks(
            "--synthetic 300 --load 1.0 --matchmaking --attrs \
             --cluster 64x32M:pkgs=15:arch=sparc,64x24M:pkgs=0 \
             --rank other.Memory",
        ))
        .unwrap();
        assert!(out.contains("rank: other.Memory"), "{out}");
        assert!(out.contains("completed jobs:"), "{out}");
    }

    #[test]
    fn simulate_constraint_restricts_to_tagged_pool() {
        // Constrain every job to the sparc-tagged pool: the untagged pool
        // makes other.Arch undefined, which rejects.
        let out = cmd_simulate(toks(
            "--synthetic 200 --load 1.0 --matchmaking \
             --cluster 32x32M:arch=sparc,32x24M \
             --constrain other.Arch==\"sparc\"",
        ))
        .unwrap();
        assert!(out.contains("constraint: other.Arch==\"sparc\""), "{out}");
        assert!(out.contains("completed jobs:"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_matchmaking_flags() {
        assert!(
            cmd_simulate(toks("--synthetic 10 --matchmaking --constrain 1+"))
                .unwrap_err()
                .message
                .contains("bad --constrain")
        );
        assert!(cmd_simulate(toks("--synthetic 10 --matchmaking --rank )("))
            .unwrap_err()
            .message
            .contains("bad --rank"));
        assert!(cmd_simulate(toks("--synthetic 10 --constrain true"))
            .unwrap_err()
            .message
            .contains("requires --matchmaking"));
        assert!(cmd_simulate(toks("--synthetic 10 --rank other.Memory"))
            .unwrap_err()
            .message
            .contains("requires --matchmaking"));
    }

    #[test]
    fn simulate_rejects_bad_estimator_and_policy() {
        assert!(cmd_simulate(toks("--synthetic 10 --estimator bogus"))
            .unwrap_err()
            .message
            .contains("unknown estimator"));
        // Out-of-range α/β is a usage error, not a panic in the build.
        for bad in ["successive:1", "successive:2,1", "per-resource:2,-0.5"] {
            let err = cmd_simulate(toks(&format!("--synthetic 10 --estimator {bad}"))).unwrap_err();
            assert!(
                err.message.contains("alpha > 1 and 0 <= beta < 1"),
                "{err:?}"
            );
        }
        let err = cmd_serve(toks("--ops 100 --groups 10 --estimator adaptive:0.5")).unwrap_err();
        assert!(
            err.message.contains("alpha > 1 and 0 <= beta < 1"),
            "{err:?}"
        );
        // The suffix is the one way to set α/β.
        assert!(cmd_simulate(toks("--synthetic 10 --alpha 3"))
            .unwrap_err()
            .message
            .contains("unknown flag --alpha"));
        assert!(cmd_simulate(toks("--synthetic 10 --policy bogus"))
            .unwrap_err()
            .message
            .contains("unknown policy"));
    }

    #[test]
    fn sweep_produces_csv() {
        let out = cmd_sweep(toks(
            "--synthetic 300 --loads 0.5,1.0 --cluster 64x32M,64x24M",
        ))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("offered_load,"));
    }

    #[test]
    fn dispatch_routes_and_help() {
        let help = dispatch(toks("help")).unwrap();
        assert!(help.contains("USAGE"));
        for name in EstimatorSpec::NAMES {
            assert!(help.contains(name), "usage omits {name}");
        }
        assert!(dispatch(Vec::new()).unwrap().contains("USAGE"));
        assert!(dispatch(toks("frobnicate"))
            .unwrap_err()
            .message
            .contains("unknown subcommand"));
    }

    #[test]
    fn serve_reports_throughput_and_groups() {
        let out = cmd_serve(toks(
            "--ops 3000 --groups 200 --shards 4 --batch 64 --seed 9",
        ))
        .unwrap();
        assert!(
            out.contains("estimator:         successive-approximation"),
            "{out}"
        );
        assert!(out.contains("queries/sec:"), "{out}");
        assert!(out.contains("3000 queries, 3000 observations"), "{out}");
        assert!(out.contains("similarity groups:"), "{out}");
    }

    #[test]
    fn serve_snapshot_out_then_snapshot_info_round_trip() {
        let dir = std::env::temp_dir().join("resmatch_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rsnp");
        let msg = cmd_serve(toks(&format!(
            "--ops 2000 --groups 150 --snapshot-out {}",
            path.display()
        )))
        .unwrap();
        assert!(msg.contains("snapshot:          wrote"), "{msg}");
        let info = cmd_snapshot(toks(&format!("info {}", path.display()))).unwrap();
        assert!(
            info.contains("estimator:      successive-approximation"),
            "{info}"
        );
        assert!(info.contains("state kind:     successive-v1"), "{info}");
        assert!(info.contains("shards at save: 8"), "{info}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_snapshot_out_for_stateless_estimators() {
        let err = cmd_serve(toks(
            "--ops 100 --groups 10 --estimator pass-through --snapshot-out /tmp/resmatch_noop.rsnp",
        ))
        .unwrap_err();
        assert!(
            err.message.contains("does not support snapshots"),
            "{err:?}"
        );
    }

    #[test]
    fn serve_rejects_zero_groups() {
        let err = cmd_serve(toks("--ops 100 --groups 0")).unwrap_err();
        assert!(err.message.contains("--groups"), "{err:?}");
    }

    #[test]
    fn snapshot_info_errors() {
        assert!(cmd_snapshot(Vec::new())
            .unwrap_err()
            .message
            .contains("usage"));
        assert!(cmd_snapshot(toks("info"))
            .unwrap_err()
            .message
            .contains("usage"));
        assert!(cmd_snapshot(toks("info /nonexistent/x.rsnp"))
            .unwrap_err()
            .message
            .contains("cannot read"));
        assert!(cmd_snapshot(toks("frobnicate"))
            .unwrap_err()
            .message
            .contains("unknown snapshot action"));
    }

    #[test]
    fn generate_writes_file_round_trip() {
        let dir = std::env::temp_dir().join("resmatch_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.swf");
        let msg = cmd_generate(toks(&format!("--jobs 30 --out {}", path.display()))).unwrap();
        assert!(msg.contains("wrote 30 jobs"));
        let parsed = swf::parse_file(&path).unwrap().unwrap();
        assert_eq!(parsed.workload.len(), 30);
        std::fs::remove_file(&path).ok();
    }
}
