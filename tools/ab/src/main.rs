//! In-process A/B comparison of the simulator at two revisions.
//!
//! `run.sh REV` links REV's engine crates (`cluster`, `core`, `classad`,
//! `sim`, renamed `*-old`) beside the working tree's into this binary. It
//! runs four groups of simulator configurations on both sides in one
//! process, alternating old and new per configuration, so the host speed
//! swings that blur separate benchmark runs hit both sides alike:
//! `paper_fcfs`, `saturated_easy` and `matched_easy` as the repository
//! benchmark builds them, and `trace_sjf`, paper_fcfs's 24 configurations
//! under shortest-job-first, which the benchmark does not run. Every
//! run's outcome must match the first run of its configuration on either
//! side; work counters may differ.
//!
//! Options: `--smoke` (tiny sizes, one repetition), `--reps N` (default
//! 11), `--seed N` (default 42). Exits 1 when outcomes differ and 2 on a
//! usage error.

use std::process::ExitCode;

use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
use resmatch_workload::load::{scale_to_load, scale_to_load_into};
use resmatch_workload::synthetic::{generate, Cm5Config};
use resmatch_workload::{Job, Workload};

/// Nodes in the paper cluster; offered load is computed against it.
const TOTAL_NODES: u32 = 1024;
/// The Figure 5 offered-load axis.
const FIG5_LOADS: [f64; 11] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5];

/// Queue discipline of a configuration.
#[derive(Clone, Copy)]
pub enum Policy {
    Fcfs,
    Sjf,
    Easy,
}

/// One simulated configuration, as perfbench builds it.
pub struct Case {
    label: String,
    /// Index of the input trace.
    input: usize,
    /// Offered load to rescale the input to; `None` runs it as is.
    load: Option<f64>,
    /// Queue discipline.
    policy: Policy,
    /// The paper's successive estimator instead of pass-through.
    successive: bool,
    /// Allocation through the ClassAd matchmaker on the split cluster.
    matched: bool,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One side of the comparison, written once against whichever crates the
/// macro is handed.
macro_rules! engine {
    ($side:ident, $cluster:ident, $classad:ident, $sim:ident) => {
        mod $side {
            use std::fmt::Write as _;
            use std::time::Instant;

            use resmatch_workload::Workload;
            use $classad::{Matchmaker, PoolAd};
            use $cluster::builder::paper_cluster;
            use $cluster::{Capacity, ClusterBuilder};
            use $sim::prelude::*;

            /// This side's arena, reused by every run like perfbench's.
            #[derive(Default)]
            pub struct Engine(SimArena);

            impl Engine {
                /// Run `case` over `w`: the outcome digest and the
                /// nanoseconds `run_with_arena` took.
                pub fn run(&mut self, case: &crate::Case, w: &Workload) -> (u64, u64) {
                    let cfg = SimConfig::default().with_scheduling(match case.policy {
                        crate::Policy::Fcfs => SchedulingPolicy::Fcfs,
                        crate::Policy::Sjf => SchedulingPolicy::Sjf,
                        crate::Policy::Easy => SchedulingPolicy::EasyBackfill,
                    });
                    let spec = if case.successive {
                        EstimatorSpec::paper_successive()
                    } else {
                        EstimatorSpec::PassThrough
                    };
                    let sim = if case.matched {
                        let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
                        let small = Capacity::memory(24 * 1024);
                        let cluster = ClusterBuilder::new()
                            .pool_with(512, big)
                            .pool_with(512, small)
                            .build();
                        let ads = [PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)];
                        Simulation::new(cfg, cluster, spec)
                            .with_matchmaking(Box::new(Matchmaker::new(&ads)))
                    } else {
                        Simulation::new(cfg, paper_cluster(24), spec)
                    };
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the host time is the measurement; no outcome reads it"
                    )]
                    let t = Instant::now();
                    let r = sim.run_with_arena(w, &mut self.0);
                    let ns = t.elapsed().as_nanos() as u64;
                    (digest(&r), ns)
                }
            }

            /// FNV-1a over the run's outcomes, not its work counters.
            fn digest(r: &SimResult) -> u64 {
                let mut s = format!(
                    "{} {} {} {} {} {:x} {:x} {:x}\n",
                    r.completed_jobs,
                    r.dropped_jobs,
                    r.total_executions,
                    r.failed_executions,
                    r.events_processed,
                    r.goodput_node_seconds.to_bits(),
                    r.wasted_node_seconds.to_bits(),
                    r.mean_queue_length.to_bits(),
                );
                for rec in &r.records {
                    let _ = writeln!(
                        s,
                        "{} {} {} {}",
                        rec.id.0,
                        rec.final_start.as_millis(),
                        rec.completion.as_millis(),
                        rec.failed_executions
                    );
                }
                crate::fnv1a(s.as_bytes())
            }
        }
    };
}

engine!(new, resmatch_cluster, resmatch_classad, resmatch_sim);
engine!(old, cluster_old, classad_old, sim_old);

struct Args {
    reps: usize,
    seed: u64,
    smoke: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        reps: 11,
        seed: 42,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--reps" => args.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.smoke {
        args.reps = 1;
    }
    if args.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(args)
}

/// The generated trace, with jobs wider than half the machine removed.
fn paper_trace(jobs: usize, seed: u64) -> Workload {
    let cfg = Cm5Config {
        jobs,
        ..Cm5Config::default()
    };
    let mut w = generate(&cfg, seed);
    w.retain_max_nodes(512);
    w
}

/// Seed of the `k`-th EASY trace, as perfbench derives it.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The inputs and the four configuration groups.
fn build(args: &Args) -> (Vec<Workload>, Vec<(&'static str, Vec<Case>)>) {
    let (trace_jobs, loads, easy_traces, easy_jobs) = if args.smoke {
        (3_000, vec![0.5, 1.5], 3, 1_500)
    } else {
        (122_055, FIG5_LOADS.to_vec(), 64, 5_000)
    };
    let mut inputs = vec![paper_trace(trace_jobs, args.seed)];
    let (mut fcfs, mut sjf) = (Vec::new(), Vec::new());
    for load in loads.into_iter().map(Some).chain([None]) {
        for successive in [false, true] {
            let at = load.map_or("natural".to_string(), |l| l.to_string());
            let est = if successive {
                "successive"
            } else {
                "pass-through"
            };
            for (policy, name, group) in [
                (Policy::Fcfs, "fcfs", &mut fcfs),
                (Policy::Sjf, "sjf", &mut sjf),
            ] {
                group.push(Case {
                    label: format!("{name}/{est}/load={at}"),
                    input: 0,
                    load,
                    policy,
                    successive,
                    matched: false,
                });
            }
        }
    }
    let (mut native, mut matched) = (Vec::new(), Vec::new());
    for k in 0..easy_traces {
        let s = sub_seed(args.seed, k);
        let mut w = scale_to_load(&paper_trace(easy_jobs, s), TOTAL_NODES, 1.0);
        native.push(Case {
            label: format!("easy/trace={k}"),
            input: inputs.len(),
            load: None,
            policy: Policy::Easy,
            successive: true,
            matched: false,
        });
        inputs.push(w.clone());
        synthesize_attributes(&mut w, &AttrConfig::default(), s);
        matched.push(Case {
            label: format!("matched/trace={k}"),
            input: inputs.len(),
            load: None,
            policy: Policy::Easy,
            successive: true,
            matched: true,
        });
        inputs.push(w);
    }
    let groups = vec![
        ("paper_fcfs", fcfs),
        ("saturated_easy", native),
        ("matched_easy", matched),
        ("trace_sjf", sjf),
    ];
    (inputs, groups)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: [--smoke] [--reps N] [--seed N]");
            return ExitCode::from(2);
        }
    };
    let (inputs, groups) = build(&args);
    let (mut old, mut new) = (old::Engine::default(), new::Engine::default());
    let mut buf: Vec<Job> = Vec::new();
    for (group, cases) in &groups {
        let (mut sum_old, mut sum_new) = (0u64, 0u64);
        for case in cases {
            let rescaled = case.load.map(|load| {
                scale_to_load_into(&inputs[case.input], TOTAL_NODES, load, &mut buf);
                Workload::from_sorted(std::mem::take(&mut buf))
            });
            let w = rescaled.as_ref().unwrap_or(&inputs[case.input]);
            let mut best = [u64::MAX; 2];
            let mut first = None;
            for rep in 0..args.reps {
                // Alternate which side goes first, so neither always
                // inherits the other's cache state.
                let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
                for side in order {
                    let (digest, ns) = if side == 0 {
                        old.run(case, w)
                    } else {
                        new.run(case, w)
                    };
                    let want = *first.get_or_insert(digest);
                    if digest != want {
                        let who = if side == 0 { "old" } else { "new" };
                        eprintln!(
                            "OUTCOME MISMATCH {}: {who} run {digest:#018x} != first run {want:#018x}",
                            case.label
                        );
                        return ExitCode::from(1);
                    }
                    best[side] = best[side].min(ns);
                }
            }
            if let Some(w) = rescaled {
                buf = w.into_jobs();
            }
            println!(
                "{:<32} old {:>10.3} ms  new {:>10.3} ms  new/old {:.3}",
                case.label,
                best[0] as f64 * 1e-6,
                best[1] as f64 * 1e-6,
                best[1] as f64 / best[0] as f64
            );
            sum_old += best[0];
            sum_new += best[1];
        }
        println!(
            "{group}: {} configurations x {} reps, summed minima old {:.3} s, new {:.3} s, \
             new/old {:.3}",
            cases.len(),
            args.reps,
            sum_old as f64 * 1e-9,
            sum_new as f64 * 1e-9,
            sum_new as f64 / sum_old as f64
        );
    }
    ExitCode::SUCCESS
}
