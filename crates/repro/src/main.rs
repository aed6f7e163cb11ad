//! `resmatch-repro` — the reproduction pipeline CLI.
//!
//! ```text
//! resmatch-repro list                          # the experiment manifest
//! resmatch-repro run    [--only id,..] [--quick] [--fresh]
//! resmatch-repro check  [--only id,..] [--quick] [--fresh] [--perturb m=v]
//! resmatch-repro render [--docs-only] [--quick] [--fresh] [--root dir]
//! ```
//!
//! `run` prints the selected experiments' reports. `check` evaluates every
//! registered paper claim against the measured metrics and exits nonzero
//! if any fails — it is the regression gate CI runs. `render` rewrites the
//! committed `results/` artifacts, the `results/metrics.tsv` sidecar, and
//! the generated tables in EXPERIMENTS.md; with `--docs-only` it re-renders
//! the tables from the committed sidecar without running anything (CI's
//! drift gate). `--perturb metric=value` overrides a metric before
//! checking, which is how the test suite proves the gate actually trips.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use resmatch_repro::expect::evaluate;
use resmatch_repro::manifest::MANIFEST;
use resmatch_repro::render;
use resmatch_repro::runner::{apply_perturbations, run_all, spec_for, RunOptions, RunResult};

/// Parsed command line.
struct Cli {
    command: Command,
    opts: RunOptions,
    root: PathBuf,
    perturbations: Vec<(String, f64)>,
    docs_only: bool,
}

enum Command {
    Run,
    Check,
    Render,
    List,
}

const USAGE: &str = "usage: resmatch-repro <run|check|render|list> \
    [--only id[,id..]] [--quick] [--fresh] [--root dir] \
    [--perturb metric=value] [--docs-only]";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut iter = args.iter();
    let command = match iter.next().map(String::as_str) {
        Some("run") => Command::Run,
        Some("check") => Command::Check,
        Some("render") => Command::Render,
        Some("list") => Command::List,
        Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    };
    let mut cli = Cli {
        command,
        opts: RunOptions::default(),
        root: PathBuf::from("."),
        perturbations: Vec::new(),
        docs_only: false,
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => cli.opts.quick = true,
            "--fresh" => cli.opts.fresh = true,
            "--docs-only" => cli.docs_only = true,
            "--only" => {
                let ids = iter.next().ok_or("--only needs a value")?;
                cli.opts
                    .only
                    .extend(ids.split(',').map(|s| s.trim().to_string()));
            }
            "--root" => {
                cli.root = PathBuf::from(iter.next().ok_or("--root needs a value")?);
            }
            "--perturb" => {
                let kv = iter.next().ok_or("--perturb needs metric=value")?;
                let (name, value) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--perturb `{kv}`: expected metric=value"))?;
                let value: f64 = value
                    .parse()
                    .map_err(|e| format!("--perturb `{kv}`: {e}"))?;
                cli.perturbations.push((name.to_string(), value));
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn execute(cli: &Cli) -> Result<Vec<RunResult>, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "reports elapsed time on stderr; results and cache keys do not depend on it"
    )]
    let started = Instant::now();
    let results = run_all(&cli.root, &cli.opts)?;
    let cached = results.iter().filter(|r| r.cached).count();
    eprintln!(
        "[repro] {} experiment(s) in {:.1}s ({cached} from cache{})",
        results.len(),
        started.elapsed().as_secs_f64(),
        if cli.opts.quick {
            ", --quick scale"
        } else {
            ""
        },
    );
    Ok(results)
}

fn cmd_run(cli: &Cli) -> Result<bool, String> {
    for r in execute(cli)? {
        print!("{}", r.output.text);
    }
    Ok(true)
}

fn cmd_check(cli: &Cli) -> Result<bool, String> {
    let mut results = execute(cli)?;
    if !cli.perturbations.is_empty() {
        apply_perturbations(&mut results, &cli.perturbations);
        eprintln!(
            "[repro] WARNING: {} metric(s) perturbed — this check is a gate test, not a result",
            cli.perturbations.len()
        );
    }
    let mut checked = 0usize;
    let mut failed = 0usize;
    for r in &results {
        let outcomes = evaluate(r.def.expectations, &r.output.metrics, cli.opts.quick);
        if outcomes.is_empty() {
            continue;
        }
        println!("{} ({}, {} jobs):", r.def.id, r.def.artifact, r.spec.jobs);
        for o in &outcomes {
            checked += 1;
            if !o.passed {
                failed += 1;
            }
            let value = o
                .value
                .map_or_else(|| "missing".to_string(), |v| format!("{v:.4}"));
            println!(
                "  [{}] {} = {} ({}) — {}",
                if o.passed { "PASS" } else { "FAIL" },
                o.expectation.metric,
                value,
                o.describe_op(),
                o.expectation.claim,
            );
        }
    }
    println!(
        "\n{checked} claim(s) checked across {} experiment(s): {}",
        results.len(),
        if failed == 0 {
            "all hold".to_string()
        } else {
            format!("{failed} FAILED")
        }
    );
    Ok(failed == 0)
}

fn cmd_render(cli: &Cli) -> Result<bool, String> {
    let mut changed = Vec::new();
    let mut unchanged = 0usize;
    let metrics = if cli.docs_only {
        render::load_metrics_tsv(&cli.root)?
    } else {
        let results = execute(cli)?;
        for summary in [
            render::write_artifacts(&cli.root, &results)?,
            render::write_metrics_tsv(&cli.root, &results)?,
        ] {
            changed.extend(summary.changed);
            unchanged += summary.unchanged.len();
        }
        render::metrics_from_results(&results)
    };
    let summary = render::render_docs(&cli.root, &metrics)?;
    changed.extend(summary.changed);
    unchanged += summary.unchanged.len();
    for path in &changed {
        println!("rendered {path} (changed)");
    }
    println!(
        "render complete: {} file(s) changed, {unchanged} already current",
        changed.len()
    );
    Ok(true)
}

fn cmd_list() -> bool {
    println!(
        "{:<26} {:<10} {:>9} {:>7} {:>7}  title",
        "id", "artifact", "jobs", "quick", "claims"
    );
    for def in MANIFEST {
        println!(
            "{:<26} {:<10} {:>9} {:>7} {:>7}  {}",
            def.id,
            def.artifact,
            spec_for(def, false).jobs,
            spec_for(def, true).jobs,
            def.expectations.len(),
            def.title,
        );
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.command {
        Command::Run => cmd_run(&cli),
        Command::Check => cmd_check(&cli),
        Command::Render => cmd_render(&cli),
        Command::List => Ok(cmd_list()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
