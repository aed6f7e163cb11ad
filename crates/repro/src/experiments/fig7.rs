//! Figure 7: estimated memory for a single similarity group across cycles.
//!
//! The paper traces one group whose jobs request 32 MB and use slightly
//! more than 5 MB: the estimate halves (32 → 16 → 8), the probe at 4 MB
//! fails, the estimate restores to 8 MB and freezes — a four-fold
//! reduction.

use resmatch_cluster::CapacityLadder;
use resmatch_core::prelude::*;
use resmatch_workload::job::JobBuilder;

use crate::expect::{Expectation, Op};
use crate::out;
use crate::report::{ExperimentOutput, Report};
use crate::runner::RunSpec;
use crate::trace::MB;

/// Claims gated on this experiment.
pub const EXPECTATIONS: &[Expectation] = &[
    Expectation::new(
        "trajectory_exact",
        Op::Holds,
        "the granted sequence is exactly 32 -> 16 -> 8 -> 4 (fails) -> 8 frozen",
        true,
    ),
    Expectation::new(
        "final_grant_mb",
        Op::Within {
            target: 8.0,
            rel_tol: 0.0,
        },
        "the estimate settles at 8 MB, a four-fold reduction from the request",
        true,
    ),
    Expectation::new(
        "failures",
        Op::Within {
            target: 1.0,
            rel_tol: 0.0,
        },
        "exactly one probing failure (the 4 MB cycle) is paid for the reduction",
        true,
    ),
];

/// Run the Figure 7 single-group trajectory. The trace size is irrelevant
/// here — the experiment drives the estimator directly for eight cycles.
pub fn run(_spec: &RunSpec) -> ExperimentOutput {
    let mut r = Report::new();
    r.header("Figure 7: estimate trajectory (request 32 MB, actual ~5.2 MB)");
    let ladder = CapacityLadder::new(vec![32 * MB, 24 * MB, 16 * MB, 8 * MB, 4 * MB]);
    let mut est = SuccessiveApproximation::new(SuccessiveConfig::default(), ladder.clone());
    let ctx = EstimateContext::default();

    out!(
        r,
        "{:>6} {:>14} {:>12} {:>10}",
        "cycle",
        "granted (MB)",
        "outcome",
        "E_i (MB)"
    );
    let mut grants = Vec::new();
    let mut failures = 0u32;
    for cycle in 1..=8 {
        let job = JobBuilder::new(cycle)
            .user(1)
            .app(1)
            .requested_mem_kb(32 * MB)
            .used_mem_kb(5 * MB + 256)
            .build();
        let demand = est.estimate(&job, &ctx);
        let node = ladder.round_up(demand.mem_kb).unwrap_or(demand.mem_kb);
        let ok = job.used_mem_kb <= node;
        if !ok {
            failures += 1;
        }
        est.feedback(
            &job,
            &demand,
            &if ok {
                Feedback::success()
            } else {
                Feedback::failure()
            },
            &ctx,
        );
        #[expect(
            clippy::expect_used,
            reason = "invariant: the feedback call above creates the job's similarity group"
        )]
        let snap = est
            .group_snapshot(&job)
            .expect("invariant: the feedback call above creates the job's similarity group");
        let bar = "#".repeat((demand.mem_kb / MB) as usize);
        out!(
            r,
            "{cycle:>6} {:>14} {:>12} {:>10.1}  {bar}",
            demand.mem_kb / MB,
            if ok { "completed" } else { "FAILED" },
            snap.estimate_kb / MB as f64,
        );
        grants.push(demand.mem_kb / MB);
    }

    r.header("shape check vs. paper");
    out!(
        r,
        "expected trajectory 32 -> 16 -> 8 -> 4(fail) -> 8 frozen; final\n\
         estimate is a four-fold reduction from the request, as published."
    );
    let expected: &[u64] = &[32, 16, 8, 4, 8, 8, 8, 8];
    r.flag("trajectory_exact", grants == expected);
    r.metric("final_grant_mb", grants.last().copied().unwrap_or(0) as f64);
    r.metric("failures", f64::from(failures));
    r.finish()
}
