//! Output digests: FNV-1a over the canonical `SimResult` rendering that
//! the simulator's golden tests pin (`crates/sim/tests/golden.rs`). That
//! rendering is private to those tests, so it is written out again here;
//! the two pinned constants below prove the copies agree.

use std::fmt::{self, Write};

use resmatch_sim::SimResult;

/// Pinned digest of the 122,055-job trace at its natural load under FCFS
/// and the paper's successive estimator, seed 42.
pub const GOLDEN_TRACE_FCFS_SUCCESSIVE: u64 = 0xdf1e_4942_0b10_fda7;
/// Pinned digest of the 5,000-job matchmaking scenario under EASY and the
/// successive estimator, seed 42.
pub const GOLDEN_MATCHMAKING_EASY_SUCCESSIVE: u64 = 0xfc7e_a838_e815_29e6;

/// FNV-1a-64 fed through `fmt::Write`, so the rendering streams into the
/// hash without building a string.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A float as value plus exact bit pattern.
struct Bits(f64);

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Most records waste nothing; skip the slow fixed-precision path.
        if self.0.to_bits() == 0 {
            return f.write_str("0.000000/0000000000000000");
        }
        write!(f, "{:.6}/{:016x}", self.0, self.0.to_bits())
    }
}

fn render(out: &mut impl Write, r: &SimResult) -> fmt::Result {
    writeln!(out, "estimator: {}", r.estimator)?;
    writeln!(out, "completed_jobs: {}", r.completed_jobs)?;
    writeln!(out, "dropped_jobs: {}", r.dropped_jobs)?;
    writeln!(out, "total_executions: {}", r.total_executions)?;
    writeln!(out, "failed_executions: {}", r.failed_executions)?;
    writeln!(out, "events_processed: {}", r.events_processed)?;
    writeln!(out, "total_nodes: {}", r.total_nodes)?;
    writeln!(out, "first_submit_ms: {}", r.first_submit.as_millis())?;
    writeln!(out, "last_completion_ms: {}", r.last_completion.as_millis())?;
    writeln!(
        out,
        "goodput_node_seconds: {}",
        Bits(r.goodput_node_seconds)
    )?;
    writeln!(out, "wasted_node_seconds: {}", Bits(r.wasted_node_seconds))?;
    writeln!(out, "mean_queue_length: {}", Bits(r.mean_queue_length))?;
    writeln!(out, "mean_busy_nodes: {}", Bits(r.mean_busy_nodes))?;
    for p in &r.pool_stats {
        writeln!(
            out,
            "pool: mem_kb={} nodes={} busy={}",
            p.mem_kb,
            p.nodes,
            Bits(p.mean_busy_fraction)
        )?;
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
            Bits(rec.wasted_node_seconds),
        )?;
    }
    for e in r.trace_log.entries() {
        writeln!(
            out,
            "trace: t={} id={} kind={:?}",
            e.time.as_millis(),
            e.job.0,
            e.kind
        )?;
    }
    Ok(())
}

/// Digest of a run's canonical rendering: moves iff any rendered byte does.
pub fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    // `Fnv1a::write_str` never fails, so neither does the rendering.
    let _ = render(&mut h, r);
    h.0
}
