//! Offered load computation and rescaling.
//!
//! The paper's Figures 5 and 6 sweep cluster load. The standard methodology
//! (Feitelson, "Metrics for parallel job scheduling and their convergence")
//! keeps the trace's structure and rescales inter-arrival gaps so the same
//! jobs arrive faster or slower, shifting the offered load
//! `Σ nodes·runtime / (cluster_nodes · span)`.

use crate::job::{Job, Workload};

#[cfg(test)]
use crate::time::Time;

/// Offered load of a workload against a cluster of `total_nodes` nodes:
/// demanded node-seconds divided by available node-seconds over the trace
/// span (first submission to the last job's completion, had every job run
/// at submission). Returns 0 for empty traces or zero spans.
pub fn offered_load(workload: &Workload, total_nodes: u32) -> f64 {
    offered_load_of(workload.jobs(), total_nodes)
}

fn offered_load_of(jobs: &[Job], total_nodes: u32) -> f64 {
    let (Some(first), Some(last_end)) = (
        jobs.first().map(|j| j.submit),
        jobs.iter().map(|j| j.submit + j.runtime).max(),
    ) else {
        return 0.0;
    };
    if total_nodes == 0 {
        return 0.0;
    }
    let span = last_end.saturating_sub(first).as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    let node_seconds: f64 = jobs.iter().map(Job::node_seconds).sum();
    node_seconds / (total_nodes as f64 * span)
}

/// Rescale all inter-arrival gaps by `factor` (< 1 compresses the trace and
/// raises load). The first submission time is preserved; job order, runtimes,
/// and resources are untouched.
pub fn rescale_arrivals(workload: &Workload, factor: f64) -> Workload {
    assert!(
        factor.is_finite() && factor > 0.0,
        "arrival scale factor must be positive"
    );
    let jobs = workload.jobs();
    let Some(first) = jobs.first().map(|j| j.submit) else {
        return workload.clone();
    };
    let rescaled = jobs
        .iter()
        .map(|j| {
            let gap = j.submit.saturating_sub(first);
            let mut job = j.clone();
            job.submit = first + gap.scale(factor);
            job
        })
        .collect();
    Workload::new(rescaled)
}

/// Rescale arrivals so the offered load against `total_nodes` becomes
/// approximately `target`. Because the span includes the tail of the last
/// job's runtime, one scaling step lands slightly off target; fixed-point
/// iteration refines until within 1% or the step stops helping. Targets
/// above the trace's intrinsic ceiling (all arrivals compressed to a point,
/// span dominated by the longest runtime) converge to the ceiling instead.
pub fn scale_to_load(workload: &Workload, total_nodes: u32, target: f64) -> Workload {
    let mut jobs = Vec::new();
    scale_to_load_into(workload, total_nodes, target, &mut jobs);
    // The in-place rescale is monotone in the original gaps, so sorted
    // input stays sorted.
    Workload::from_sorted(jobs)
}

/// [`scale_to_load`] into a caller-owned buffer: `out` is cleared, refilled
/// with the workload's jobs, and rescaled in place. Sweeps that visit many
/// load points recycle one buffer instead of allocating a trace-sized
/// vector per point; the result is byte-identical to [`scale_to_load`].
pub fn scale_to_load_into(workload: &Workload, total_nodes: u32, target: f64, out: &mut Vec<Job>) {
    assert!(target > 0.0, "target load must be positive");
    out.clear();
    out.extend_from_slice(workload.jobs());
    for _ in 0..12 {
        let load = offered_load_of(out, total_nodes);
        if load <= 0.0 || (load - target).abs() / target < 0.01 {
            return;
        }
        let factor = load / target;
        assert!(
            factor.is_finite() && factor > 0.0,
            "arrival scale factor must be positive"
        );
        let Some(first) = out.first().map(|j| j.submit) else {
            return;
        };
        // Compression has a floor: when every gap is already zero, further
        // scaling is a no-op.
        let mut changed = false;
        for job in out.iter_mut() {
            let gap = job.submit.saturating_sub(first);
            let scaled = first + gap.scale(factor);
            changed |= scaled != job.submit;
            job.submit = scaled;
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    fn uniform_trace(n: u64, gap_s: u64, nodes: u32, runtime_s: u64) -> Workload {
        Workload::new(
            (0..n)
                .map(|i| {
                    JobBuilder::new(i)
                        .submit(Time::from_secs(i * gap_s))
                        .runtime(Time::from_secs(runtime_s))
                        .nodes(nodes)
                        .build()
                })
                .collect(),
        )
    }

    #[test]
    fn offered_load_of_known_trace() {
        // 10 jobs, 1 node x 10 s each = 100 node-seconds.
        // Span: first submit 0 to last end 9*10+10 = 100 s. 4 nodes.
        let w = uniform_trace(10, 10, 1, 10);
        let load = offered_load(&w, 4);
        assert!((load - 100.0 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn offered_load_edge_cases() {
        assert_eq!(offered_load(&Workload::default(), 16), 0.0);
        let w = uniform_trace(5, 10, 1, 10);
        assert_eq!(offered_load(&w, 0), 0.0);
    }

    #[test]
    fn rescaling_halves_gaps() {
        let w = uniform_trace(3, 100, 1, 10);
        let fast = rescale_arrivals(&w, 0.5);
        let submits: Vec<u64> = fast.jobs().iter().map(|j| j.submit.as_secs()).collect();
        assert_eq!(submits, vec![0, 50, 100]);
    }

    #[test]
    fn rescaling_preserves_first_submit_and_order() {
        let mut jobs = uniform_trace(3, 100, 1, 10).into_jobs();
        for j in &mut jobs {
            j.submit += Time::from_secs(1000);
        }
        let w = Workload::new(jobs);
        let slow = rescale_arrivals(&w, 2.0);
        assert_eq!(slow.jobs()[0].submit, Time::from_secs(1000));
        assert_eq!(slow.jobs()[2].submit, Time::from_secs(1400));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rescale_rejects_zero_factor() {
        let _ = rescale_arrivals(&uniform_trace(2, 10, 1, 10), 0.0);
    }

    #[test]
    fn scale_to_load_converges() {
        let w = uniform_trace(200, 100, 8, 50);
        for target in [0.3, 0.6, 0.9] {
            let scaled = scale_to_load(&w, 16, target);
            let achieved = offered_load(&scaled, 16);
            assert!(
                (achieved - target).abs() / target < 0.05,
                "target {target}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn scale_into_matches_allocating_path() {
        let w = uniform_trace(200, 100, 8, 50);
        let mut buf = Vec::new();
        for target in [0.3, 0.6, 0.9, 5.0] {
            let owned = scale_to_load(&w, 16, target);
            scale_to_load_into(&w, 16, target, &mut buf);
            assert_eq!(owned.jobs(), &buf[..], "target {target}");
        }
    }

    #[test]
    fn scale_preserves_job_bodies() {
        let w = uniform_trace(10, 100, 4, 25);
        let scaled = scale_to_load(&w, 16, 0.8);
        assert_eq!(scaled.len(), w.len());
        for (a, b) in w.jobs().iter().zip(scaled.jobs()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.requested_mem_kb, b.requested_mem_kb);
        }
    }
}
