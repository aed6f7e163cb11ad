//! The paper's experimental trace, shared by every experiment.

use resmatch_workload::synthetic::{generate, Cm5Config};
use resmatch_workload::Workload;

/// One megabyte in KB.
pub const MB: u64 = 1024;

/// The paper's experimental trace: calibrated CM5-like workload with the
/// full-machine (1024-node) jobs removed, as in §3.1.
pub fn paper_trace(jobs: usize, seed: u64) -> Workload {
    let mut trace = generate(
        &Cm5Config {
            jobs,
            ..Cm5Config::default()
        },
        seed,
    );
    trace.retain_max_nodes(512);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trace_respects_node_cap() {
        let t = paper_trace(2_000, 1);
        assert!(t.max_nodes() <= 512);
        assert!(t.len() <= 2_000);
        assert!(t.len() > 1_900, "only full-machine jobs may be dropped");
    }
}
