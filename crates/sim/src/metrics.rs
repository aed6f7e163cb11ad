//! Simulation outcomes and the paper's evaluation metrics.
//!
//! Definitions follow Feitelson's metrics survey, which the paper cites:
//! *utilization* is useful (goodput) node-seconds over available
//! node-seconds across the makespan; *slowdown* is the job's wait time plus
//! execution time, divided by execution time (Figure 6's measure — "one
//! possible analogy of slowdown is latency in a network"); the *saturation
//! point* is where utilization's linear growth in offered load stops
//! (Frachtenberg & Feitelson's pitfalls paper, cited for Figure 5's
//! comparison points).

use resmatch_workload::{JobId, Time};
use serde::{Deserialize, Serialize};

/// Per-job outcome of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Which job.
    pub id: JobId,
    /// Submission time.
    pub submit: Time,
    /// Start of the final (successful) execution.
    pub final_start: Time,
    /// Completion time.
    pub completion: Time,
    /// The job's execution duration.
    pub runtime: Time,
    /// Nodes the job ran on.
    pub nodes: u32,
    /// Executions that died from under-provisioning (or injected faults)
    /// before the job finally completed.
    pub failed_executions: u32,
    /// True when the final execution was granted a demand strictly below
    /// the user request (the paper's "successfully submitted for execution
    /// with lower estimated resources").
    pub lowered: bool,
    /// True when estimation strictly enlarged the job's candidate-machine
    /// set for its final execution — the job class Figure 8's analysis
    /// counts.
    pub benefited: bool,
    /// Node-seconds burned by this job's failed executions.
    pub wasted_node_seconds: f64,
}

impl JobRecord {
    /// Queue wait before the final execution.
    pub fn wait(&self) -> Time {
        self.final_start.saturating_sub(self.submit)
    }

    /// The paper's slowdown: (wait + runtime) / runtime.
    pub fn slowdown(&self) -> f64 {
        let run = self.runtime.as_secs_f64();
        if run <= 0.0 {
            return 1.0;
        }
        (self.wait().as_secs_f64() + run) / run
    }

    /// Bounded slowdown with threshold `tau` seconds: short jobs do not
    /// blow the metric up (Feitelson's recommendation; τ = 10 s customary).
    pub fn bounded_slowdown(&self, tau_s: f64) -> f64 {
        let run = self.runtime.as_secs_f64();
        let denom = run.max(tau_s);
        if denom <= 0.0 {
            return 1.0;
        }
        (((self.wait().as_secs_f64() + run) / denom).max(1.0)).max(1.0)
    }
}

/// Deterministic event counters for one run, tracked by the engine
/// whether or not an observer is attached.
///
/// Every field is a pure function of the (seeded) simulation, so counters
/// compare equal across repeated runs and across observed/unobserved runs
/// of the same scenario. Wall-clock measurements live in
/// [`CountersObserver`](crate::observer::CountersObserver) instead, keeping
/// this struct byte-stable.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunCounters {
    /// Jobs whose arrival event fired (excludes up-front drops).
    pub arrivals: u64,
    /// Queue admissions: first submissions plus requeues after failures.
    pub admissions: u64,
    /// Executions started (scheduled onto nodes).
    pub started: u64,
    /// Executions that completed successfully.
    pub completed: u64,
    /// Executions that died (under-provisioning or injected fault).
    pub failed: u64,
    /// Failed executions that returned to the head of the queue.
    pub requeued: u64,
    /// Admissions that bypassed the estimator and submitted the raw user
    /// request (the engine's backoff after `max_estimation_attempts`).
    pub estimator_bypassed: u64,
    /// Cluster membership changes applied.
    pub churn_events: u64,
    /// Matchmaking mode only: allocator calls made for fresh queue
    /// entries (entries whose recorded refusal still stands, and backfill
    /// candidates with too few free nodes, in total or in eligible pools,
    /// are skipped without one); zero in native mode.
    pub match_attempts: u64,
    /// Matchmaking mode only: the allocator calls of
    /// [`RunCounters::match_attempts`] that were refused for too few free
    /// nodes in eligible pools (capacity satisfies the demand and the
    /// matcher accepts). Every other attempt starts an execution.
    pub match_refusals: u64,
}

/// Aggregate outcome of one simulation run.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Estimator that produced this result.
    pub estimator: String,
    /// Per-job records for completed jobs.
    pub records: Vec<JobRecord>,
    /// Jobs that completed.
    pub completed_jobs: usize,
    /// Jobs dropped because even their full request can never be satisfied
    /// by the cluster (e.g. 1024-node jobs on a 512-node-per-pool split).
    pub dropped_jobs: usize,
    /// Total executions started (completions + failures).
    pub total_executions: u64,
    /// Executions that failed.
    pub failed_executions: u64,
    /// Discrete events processed by the engine (arrivals + execution ends +
    /// churn). The throughput denominator for benchmarking: events/second
    /// is makespan-independent, unlike jobs/second under retries.
    pub events_processed: u64,
    /// Total cluster size.
    pub total_nodes: u32,
    /// First submission.
    pub first_submit: Time,
    /// Last completion.
    pub last_completion: Time,
    /// Node-seconds of successfully completed work.
    pub goodput_node_seconds: f64,
    /// Node-seconds burned by failed executions.
    pub wasted_node_seconds: f64,
    /// Per-decision log; empty unless a
    /// [`TraceLogObserver`](crate::observer::TraceLogObserver) was attached
    /// (e.g. via the builder's `.trace_log()` sugar).
    pub trace_log: crate::tracelog::TraceLog,
    /// Deterministic event counters (always tracked; see [`RunCounters`]).
    pub counters: RunCounters,
    /// Time-weighted mean queue length over the run — the quantity the
    /// paper's Figure 6 explanation turns on ("the 60% load is a point at
    /// which the job queue is still not extremely long").
    pub mean_queue_length: f64,
    /// Time-weighted mean busy node count.
    pub mean_busy_nodes: f64,
    /// Per-pool occupancy: the paper's whole mechanism is visible here —
    /// without estimation the small-memory pool idles while the queue
    /// backs up behind the big one.
    pub pool_stats: Vec<PoolStats>,
}

/// Time-weighted occupancy of one capacity pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Pool node memory, KB.
    pub mem_kb: u64,
    /// Nodes in the pool.
    pub nodes: u32,
    /// Time-weighted mean fraction of the pool that was busy.
    pub mean_busy_fraction: f64,
}

impl SimResult {
    /// Makespan: first submission to last completion.
    pub fn makespan(&self) -> Time {
        self.last_completion.saturating_sub(self.first_submit)
    }

    /// Goodput utilization — the paper's Figure 5 quantity.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan().as_secs_f64();
        if span <= 0.0 || self.total_nodes == 0 {
            return 0.0;
        }
        self.goodput_node_seconds / (self.total_nodes as f64 * span)
    }

    /// Utilization counting wasted (failed-execution) time as busy.
    pub fn busy_utilization(&self) -> f64 {
        let span = self.makespan().as_secs_f64();
        if span <= 0.0 || self.total_nodes == 0 {
            return 0.0;
        }
        (self.goodput_node_seconds + self.wasted_node_seconds) / (self.total_nodes as f64 * span)
    }

    /// Mean slowdown over completed jobs.
    pub fn mean_slowdown(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(JobRecord::slowdown).sum::<f64>() / self.records.len() as f64
    }

    /// Mean bounded slowdown (τ = 10 s).
    pub fn mean_bounded_slowdown(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.bounded_slowdown(10.0))
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Mean queue wait in seconds.
    pub fn mean_wait_s(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.wait().as_secs_f64())
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Completed jobs per hour of makespan.
    pub fn throughput_per_hour(&self) -> f64 {
        let span = self.makespan().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.completed_jobs as f64 / (span / 3600.0)
    }

    /// Fraction of executions that failed — the paper reports at most
    /// ~0.01% across its configurations.
    pub fn failed_execution_fraction(&self) -> f64 {
        if self.total_executions == 0 {
            return 0.0;
        }
        self.failed_executions as f64 / self.total_executions as f64
    }

    /// Fraction of jobs whose final execution ran with a lowered estimate —
    /// the paper reports 15%–40%.
    pub fn lowered_job_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.lowered).count() as f64 / self.records.len() as f64
    }

    /// Total node count over jobs that benefited from estimation — the
    /// quantity the paper finds linearly predicts utilization improvement
    /// (Figure 8, R² = 0.991).
    pub fn benefiting_node_count(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.benefited)
            .map(|r| r.nodes as u64)
            .sum()
    }
}

/// The saturation utilization of a load sweep: the plateau where linear
/// growth has stopped. With goodput utilization this is simply the maximum
/// achieved value across offered loads.
pub fn saturation_utilization(utilizations: &[f64]) -> f64 {
    utilizations.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(submit_s: u64, start_s: u64, run_s: u64) -> JobRecord {
        JobRecord {
            id: JobId(1),
            submit: Time::from_secs(submit_s),
            final_start: Time::from_secs(start_s),
            completion: Time::from_secs(start_s + run_s),
            runtime: Time::from_secs(run_s),
            nodes: 4,
            failed_executions: 0,
            lowered: false,
            benefited: false,
            wasted_node_seconds: 0.0,
        }
    }

    #[test]
    fn slowdown_definition() {
        // Wait 30 s, run 10 s → (30+10)/10 = 4.
        let r = record(0, 30, 10);
        assert!((r.slowdown() - 4.0).abs() < 1e-12);
        // No wait → slowdown 1.
        assert!((record(5, 5, 10).slowdown() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_caps_short_jobs() {
        // Wait 100 s, run 1 s: raw slowdown 101, bounded (τ=10) = 101/10.
        let r = record(0, 100, 1);
        assert!((r.slowdown() - 101.0).abs() < 1e-9);
        assert!((r.bounded_slowdown(10.0) - 10.1).abs() < 1e-9);
        // Never below 1.
        assert!(record(0, 0, 1).bounded_slowdown(10.0) >= 1.0);
    }

    fn result(records: Vec<JobRecord>) -> SimResult {
        let last = records
            .iter()
            .map(|r| r.completion)
            .max()
            .unwrap_or(Time::ZERO);
        let good = records
            .iter()
            .map(|r| r.nodes as f64 * r.runtime.as_secs_f64())
            .sum();
        SimResult {
            estimator: "test".into(),
            completed_jobs: records.len(),
            dropped_jobs: 0,
            total_executions: records.len() as u64,
            failed_executions: 0,
            events_processed: records.len() as u64 * 2,
            total_nodes: 8,
            first_submit: Time::ZERO,
            last_completion: last,
            goodput_node_seconds: good,
            wasted_node_seconds: 0.0,
            records,
            trace_log: crate::tracelog::TraceLog::default(),
            counters: RunCounters::default(),
            mean_queue_length: 0.0,
            mean_busy_nodes: 0.0,
            pool_stats: Vec::new(),
        }
    }

    #[test]
    fn utilization_accounting() {
        // Two jobs of 4 nodes x 10 s on an 8-node cluster over 20 s.
        let r = result(vec![record(0, 0, 10), record(0, 10, 10)]);
        assert_eq!(r.makespan(), Time::from_secs(20));
        assert!((r.utilization() - 80.0 / 160.0).abs() < 1e-12);
        assert_eq!(r.busy_utilization(), r.utilization());
    }

    #[test]
    fn wasted_time_separates_goodput_from_busy() {
        let mut r = result(vec![record(0, 0, 10)]);
        r.wasted_node_seconds = 40.0;
        assert!((r.utilization() - 40.0 / 80.0).abs() < 1e-12);
        assert!((r.busy_utilization() - 80.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_means() {
        let r = result(vec![record(0, 30, 10), record(0, 0, 10)]);
        assert!((r.mean_slowdown() - 2.5).abs() < 1e-12); // (4 + 1) / 2
        assert!((r.mean_wait_s() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_safe() {
        let r = result(vec![]);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.mean_slowdown(), 0.0);
        assert_eq!(r.failed_execution_fraction(), 0.0);
        assert_eq!(r.lowered_job_fraction(), 0.0);
        assert_eq!(r.benefiting_node_count(), 0);
    }

    #[test]
    fn conservativeness_counters() {
        let mut records = vec![record(0, 0, 10), record(0, 5, 10)];
        records[0].lowered = true;
        records[0].benefited = true;
        let mut r = result(records);
        r.total_executions = 200;
        r.failed_executions = 1;
        assert!((r.lowered_job_fraction() - 0.5).abs() < 1e-12);
        assert!((r.failed_execution_fraction() - 0.005).abs() < 1e-12);
        assert_eq!(r.benefiting_node_count(), 4);
    }

    #[test]
    fn saturation_is_the_plateau_maximum() {
        assert_eq!(saturation_utilization(&[0.2, 0.4, 0.55, 0.54, 0.55]), 0.55);
        assert_eq!(saturation_utilization(&[]), 0.0);
    }
}
