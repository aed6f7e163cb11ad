//! The canonical text rendering of a [`SimResult`]: what the golden files
//! under `tests/golden/` hold, and what the engine's differential
//! properties compare two runs by.

use std::fmt::Write as _;

use resmatch_sim::prelude::*;

/// Render a float as value plus exact bit pattern: bit-for-bit regression
/// detection that stays human-diffable.
fn f(x: f64) -> String {
    format!("{x:.6}/{:016x}", x.to_bits())
}

/// Every outcome of a run, one field or record per line; work counters
/// ([`RunCounters`]) are left out.
pub fn render(r: &SimResult) -> String {
    let mut out = String::new();
    writeln!(out, "estimator: {}", r.estimator).unwrap();
    writeln!(out, "completed_jobs: {}", r.completed_jobs).unwrap();
    writeln!(out, "dropped_jobs: {}", r.dropped_jobs).unwrap();
    writeln!(out, "total_executions: {}", r.total_executions).unwrap();
    writeln!(out, "failed_executions: {}", r.failed_executions).unwrap();
    writeln!(out, "events_processed: {}", r.events_processed).unwrap();
    writeln!(out, "total_nodes: {}", r.total_nodes).unwrap();
    writeln!(out, "first_submit_ms: {}", r.first_submit.as_millis()).unwrap();
    writeln!(out, "last_completion_ms: {}", r.last_completion.as_millis()).unwrap();
    writeln!(out, "goodput_node_seconds: {}", f(r.goodput_node_seconds)).unwrap();
    writeln!(out, "wasted_node_seconds: {}", f(r.wasted_node_seconds)).unwrap();
    writeln!(out, "mean_queue_length: {}", f(r.mean_queue_length)).unwrap();
    writeln!(out, "mean_busy_nodes: {}", f(r.mean_busy_nodes)).unwrap();
    for p in &r.pool_stats {
        writeln!(
            out,
            "pool: mem_kb={} nodes={} busy={}",
            p.mem_kb,
            p.nodes,
            f(p.mean_busy_fraction)
        )
        .unwrap();
    }
    for rec in &r.records {
        writeln!(
            out,
            "record: id={} submit={} start={} completion={} runtime={} nodes={} \
             failed={} lowered={} benefited={} wasted={}",
            rec.id.0,
            rec.submit.as_millis(),
            rec.final_start.as_millis(),
            rec.completion.as_millis(),
            rec.runtime.as_millis(),
            rec.nodes,
            rec.failed_executions,
            rec.lowered,
            rec.benefited,
            f(rec.wasted_node_seconds),
        )
        .unwrap();
    }
    for e in r.trace_log.entries() {
        writeln!(
            out,
            "trace: t={} id={} kind={:?}",
            e.time.as_millis(),
            e.job.0,
            e.kind
        )
        .unwrap();
    }
    out
}
