//! Command-line front end of the benchmark; see the library docs.
//!
//! Prints progress on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics. Exits 1 when a check failed or nothing was checked, and 2 on
//! a usage error.

use std::process::ExitCode;

use resmatch_perfbench::{run, Scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        traced: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &Scale::full(),
    ) {
        Ok(report) => {
            println!("{}", report.json(args.traced));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
