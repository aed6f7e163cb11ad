//! Experiment drivers: offered-load sweeps (Figures 5 and 6) and
//! cluster-heterogeneity sweeps (Figure 8).
//!
//! Sweep points are embarrassingly parallel — each is its own deterministic
//! simulation — so they run on a bounded worker pool sized to the machine
//! (`std::thread::available_parallelism`), not one OS thread per point: a
//! 100-point sweep on an 8-core box runs 8 workers pulling points off a
//! shared atomic counter. The trace is shared by reference through
//! `std::thread::scope` (no per-thread clone, no `Arc` bookkeeping needed).
//! Determinism is preserved because every simulation owns its RNG seeded
//! from the experiment seed, and results are collected by slot, not by
//! completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use resmatch_cluster::builder::paper_cluster;
use resmatch_cluster::Cluster;
use resmatch_workload::load::scale_to_load_into;
use resmatch_workload::Workload;

use crate::csv::{float, CsvWriter};
use crate::engine::{SimArena, SimConfig, Simulation};
use crate::metrics::SimResult;
use crate::observer::SweepObserver;
use crate::spec::EstimatorSpec;

/// Run `count` independent tasks on a bounded worker pool and return their
/// results in index order.
///
/// Workers claim task indices from a shared atomic counter, so the pool
/// stays busy even when point costs are skewed (high-load points simulate
/// far more contention than low-load ones). The pool size is capped at
/// `available_parallelism`; a single-core box degrades to a serial loop
/// with no thread spawns at all.
///
/// This is the pool behind [`run_load_sweep`] and [`run_cluster_sweep`];
/// it is public so other drivers (the `resmatch-repro` experiment runner)
/// can reuse the same bounded-parallelism discipline for their own
/// embarrassingly parallel task sets. `task` must be deterministic per
/// index — results are collected by slot, never by completion order.
///
/// # Panics
/// If a worker thread panics, the panic propagates out of the enclosing
/// `thread::scope` (and the every-slot-filled invariant check fires only
/// in that already-panicking case).
pub fn run_pooled<T, F>(count: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_pooled_with(count, || (), |(), i| task(i))
}

/// [`run_pooled`] with per-worker scratch state: each worker builds one
/// context via `init` when it starts and threads it through every task it
/// claims. This is how sweeps reuse a [`crate::engine::SimArena`] (and a
/// rescale buffer) across points — the allocations of the first point a
/// worker runs are recycled by all its later points instead of being
/// re-made per point.
///
/// The context never crosses threads, so `C` only needs `Send` (it is
/// created on the worker); determinism is unaffected because contexts
/// carry buffers, not results, and every simulation still owns its seeded
/// RNG.
///
/// # Panics
/// As [`run_pooled`]: worker panics propagate out of the enclosing scope.
#[expect(
    clippy::expect_used,
    reason = "invariant: the worker pool fills every slot before the scope exits"
)]
pub fn run_pooled_with<C, T, I, F>(count: usize, init: I, task: F) -> Vec<T>
where
    C: Send,
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(count);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    if workers <= 1 {
        let mut ctx = init();
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(task(&mut ctx, i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, init, task) = (&next, &init, &task);
                scope.spawn(move || {
                    let mut ctx = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        if tx.send((i, task(&mut ctx, i))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (i, value) in rx {
                slots[i] = Some(value);
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("invariant: the worker pool fills every slot before the scope exits"))
        .collect()
}

/// Configuration for a load sweep.
///
/// Construct via `Default` plus the chained `with_*` setters; the struct
/// is `#[non_exhaustive]` so future knobs are not semver breaks:
///
/// ```
/// use resmatch_sim::prelude::*;
/// let cfg = SweepConfig::default()
///     .with_sim(SimConfig::default().with_seed(7))
///     .with_loads(vec![0.5, 1.0]);
/// assert_eq!(cfg.loads.len(), 2);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepConfig {
    /// Engine configuration shared by all points.
    pub sim: SimConfig,
    /// Offered loads to evaluate (e.g. 0.3 ..= 1.5).
    pub loads: Vec<f64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            sim: SimConfig::default(),
            loads: vec![0.3, 0.45, 0.6, 0.75, 0.9, 1.05, 1.2],
        }
    }
}

impl SweepConfig {
    /// Set the engine configuration shared by all points.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Set the offered loads to evaluate.
    pub fn with_loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = loads;
        self
    }
}

/// One point of a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load the trace was rescaled to.
    pub offered_load: f64,
    /// Simulation outcome.
    pub result: SimResult,
}

/// Run `estimator` over all loads in `cfg`, one simulation per point, on
/// the bounded worker pool. Points come back in `cfg.loads` order.
pub fn run_load_sweep(
    workload: &Workload,
    cluster: &Cluster,
    estimator: EstimatorSpec,
    cfg: &SweepConfig,
) -> Vec<LoadPoint> {
    run_load_sweep_observed(workload, cluster, estimator, cfg, None)
}

/// [`run_load_sweep`] with an observer: each point's simulation gets the
/// engine-level observer [`SweepObserver::point_observer`] builds for it
/// (attached from the worker thread that claims the point), and
/// [`SweepObserver::on_point_complete`] fires as each point finishes —
/// live progress and counters stream while later points are still
/// running.
pub fn run_load_sweep_observed(
    workload: &Workload,
    cluster: &Cluster,
    estimator: EstimatorSpec,
    cfg: &SweepConfig,
    observer: Option<&dyn SweepObserver>,
) -> Vec<LoadPoint> {
    let total = cfg.loads.len();
    run_pooled_with(
        total,
        || (SimArena::default(), Vec::new()),
        |(arena, buf), i| {
            let load = cfg.loads[i];
            // Rescale into the worker's buffer and round-trip it through a
            // `Workload` so a sweep allocates one trace-sized vector per
            // worker, not per point.
            scale_to_load_into(workload, cluster.total_nodes(), load, buf);
            let scaled = Workload::from_sorted(std::mem::take(buf));
            let mut sim = Simulation::new(cfg.sim, cluster.clone(), estimator);
            if let Some(obs) = observer.and_then(|o| o.point_observer(i)) {
                sim = sim.with_observer(obs);
            }
            let result = sim.run_with_arena(&scaled, arena);
            *buf = scaled.into_jobs();
            if let Some(o) = observer {
                o.on_point_complete(i, total, &result);
            }
            LoadPoint {
                offered_load: load,
                result,
            }
        },
    )
}

/// One point of the Figure 8 cluster sweep: the paper's 512×32 MB +
/// 512×`m` MB cluster evaluated with and without estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSweepPoint {
    /// Memory of the second pool, MB.
    pub second_pool_mb: u64,
    /// Without estimation (pass-through).
    pub baseline: SimResult,
    /// With the estimator under test.
    pub estimated: SimResult,
}

impl ClusterSweepPoint {
    /// Figure 8's y-axis: utilization with estimation over utilization
    /// without. 1.0 when the baseline achieved nothing (degenerate).
    pub fn utilization_ratio(&self) -> f64 {
        let base = self.baseline.utilization();
        if base <= 0.0 {
            1.0
        } else {
            self.estimated.utilization() / base
        }
    }
}

/// Run the Figure 8 sweep: for each second-pool size, simulate the trace at
/// `offered_load` (a saturating load measures the plateau) with and without
/// estimation. Points run on the bounded worker pool and return in input
/// order.
pub fn run_cluster_sweep(
    workload: &Workload,
    second_pool_mbs: &[u64],
    estimator: EstimatorSpec,
    sim: SimConfig,
    offered_load: f64,
) -> Vec<ClusterSweepPoint> {
    run_cluster_sweep_observed(
        workload,
        second_pool_mbs,
        estimator,
        sim,
        offered_load,
        None,
    )
}

/// [`run_cluster_sweep`] with an observer. Both simulations of a point
/// (pass-through baseline, then estimated) get their own engine-level
/// observer from [`SweepObserver::point_observer`];
/// [`SweepObserver::on_point_complete`] fires once per point with the
/// *estimated* result.
pub fn run_cluster_sweep_observed(
    workload: &Workload,
    second_pool_mbs: &[u64],
    estimator: EstimatorSpec,
    sim: SimConfig,
    offered_load: f64,
    observer: Option<&dyn SweepObserver>,
) -> Vec<ClusterSweepPoint> {
    let total = second_pool_mbs.len();
    run_pooled_with(
        total,
        || (SimArena::default(), Vec::new()),
        |(arena, buf), i| {
            let mb = second_pool_mbs[i];
            let cluster = paper_cluster(mb);
            // One scaled workload per point, shared by the baseline/estimated
            // pair — rescaling a 100k-job trace twice would double the sweep's
            // allocation traffic for identical bytes.
            scale_to_load_into(workload, cluster.total_nodes(), offered_load, buf);
            let scaled = Workload::from_sorted(std::mem::take(buf));
            let mut base_sim = Simulation::new(sim, cluster.clone(), EstimatorSpec::PassThrough);
            if let Some(obs) = observer.and_then(|o| o.point_observer(i)) {
                base_sim = base_sim.with_observer(obs);
            }
            let baseline = base_sim.run_with_arena(&scaled, arena);
            let mut est_sim = Simulation::new(sim, cluster, estimator);
            if let Some(obs) = observer.and_then(|o| o.point_observer(i)) {
                est_sim = est_sim.with_observer(obs);
            }
            let estimated = est_sim.run_with_arena(&scaled, arena);
            *buf = scaled.into_jobs();
            if let Some(o) = observer {
                o.on_point_complete(i, total, &estimated);
            }
            ClusterSweepPoint {
                second_pool_mb: mb,
                baseline,
                estimated,
            }
        },
    )
}

/// Render a load sweep as CSV (one row per point) for external plotting.
///
/// Columns and rows go through [`crate::csv::CsvWriter`], so every row is
/// checked against the header's column count and floats are rendered
/// locale-safely (always a `.` decimal separator).
pub fn load_sweep_csv(points: &[LoadPoint]) -> String {
    let mut w = CsvWriter::new(&[
        "offered_load",
        "utilization",
        "busy_utilization",
        "mean_slowdown",
        "mean_bounded_slowdown",
        "mean_wait_s",
        "failed_execution_fraction",
        "lowered_job_fraction",
        "completed_jobs",
    ]);
    for p in points {
        let r = &p.result;
        w.row([
            float(p.offered_load),
            float(r.utilization()),
            float(r.busy_utilization()),
            float(r.mean_slowdown()),
            float(r.mean_bounded_slowdown()),
            float(r.mean_wait_s()),
            float(r.failed_execution_fraction()),
            float(r.lowered_job_fraction()),
            r.completed_jobs.to_string(),
        ]);
    }
    w.finish()
}

/// Render a cluster sweep as CSV (one row per second-pool size), with the
/// same header/row-alignment and float-formatting guarantees as
/// [`load_sweep_csv`].
pub fn cluster_sweep_csv(points: &[ClusterSweepPoint]) -> String {
    let mut w = CsvWriter::new(&[
        "second_pool_mb",
        "baseline_utilization",
        "estimated_utilization",
        "utilization_ratio",
        "benefiting_node_count",
        "failed_execution_fraction",
        "lowered_job_fraction",
    ]);
    for p in points {
        w.row([
            p.second_pool_mb.to_string(),
            float(p.baseline.utilization()),
            float(p.estimated.utilization()),
            float(p.utilization_ratio()),
            p.estimated.benefiting_node_count().to_string(),
            float(p.estimated.failed_execution_fraction()),
            float(p.estimated.lowered_job_fraction()),
        ]);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_cluster::ClusterBuilder;
    use resmatch_workload::load::scale_to_load;
    use resmatch_workload::synthetic::{generate, Cm5Config};

    const MB: u64 = 1024;

    fn small_trace(jobs: usize) -> Workload {
        let mut w = generate(
            &Cm5Config {
                jobs,
                ..Cm5Config::default()
            },
            42,
        );
        w.retain_max_nodes(512);
        w
    }

    fn small_cluster() -> Cluster {
        ClusterBuilder::new()
            .pool(512, 32 * MB)
            .pool(512, 24 * MB)
            .build()
    }

    #[test]
    fn load_sweep_returns_points_in_order() {
        let trace = small_trace(300);
        let cfg = SweepConfig {
            loads: vec![0.4, 0.8],
            ..SweepConfig::default()
        };
        let points = run_load_sweep(&trace, &small_cluster(), EstimatorSpec::PassThrough, &cfg);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].offered_load, 0.4);
        assert_eq!(points[1].offered_load, 0.8);
        for p in &points {
            assert!(p.result.completed_jobs > 0);
        }
    }

    #[test]
    fn utilization_grows_with_load_until_saturation() {
        let trace = small_trace(800);
        let cfg = SweepConfig {
            loads: vec![0.2, 0.6, 1.2],
            ..SweepConfig::default()
        };
        let points = run_load_sweep(
            &trace,
            &small_cluster(),
            EstimatorSpec::paper_successive(),
            &cfg,
        );
        let utils: Vec<f64> = points.iter().map(|p| p.result.utilization()).collect();
        assert!(
            utils[1] > utils[0],
            "utilization must grow in the linear region: {utils:?}"
        );
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let trace = small_trace(200);
        let cluster = small_cluster();
        let cfg = SweepConfig {
            loads: vec![0.5, 1.0],
            ..SweepConfig::default()
        };
        let parallel = run_load_sweep(&trace, &cluster, EstimatorSpec::PassThrough, &cfg);
        // Serial reference.
        for (i, &load) in cfg.loads.iter().enumerate() {
            let scaled = scale_to_load(&trace, cluster.total_nodes(), load);
            let serial =
                Simulation::new(cfg.sim, cluster.clone(), EstimatorSpec::PassThrough).run(&scaled);
            assert_eq!(parallel[i].result, serial, "point {i} diverged");
        }
    }

    #[test]
    fn csv_exports_are_well_formed() {
        let trace = small_trace(150);
        let cfg = SweepConfig {
            loads: vec![0.5, 1.0],
            ..SweepConfig::default()
        };
        let load_points =
            run_load_sweep(&trace, &small_cluster(), EstimatorSpec::PassThrough, &cfg);
        let csv = load_sweep_csv(&load_points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per point");
        let cols = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == cols));

        let cluster_points = run_cluster_sweep(
            &trace,
            &[24, 32],
            EstimatorSpec::paper_successive(),
            SimConfig::default(),
            1.0,
        );
        let csv = cluster_sweep_csv(&cluster_points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("24,"));
        assert!(lines[2].starts_with("32,"));
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(
                line.split(',').count(),
                cols,
                "row/header column mismatch in {line:?}"
            );
            assert!(!line.contains("NaN"), "unexpected NaN cell in {line:?}");
        }
    }

    #[test]
    fn cluster_sweep_homogeneous_extreme_is_neutral() {
        let trace = small_trace(400);
        let points = run_cluster_sweep(
            &trace,
            &[32],
            EstimatorSpec::paper_successive(),
            SimConfig::default(),
            1.2,
        );
        // All machines identical: estimation cannot enlarge any candidate
        // set, so the ratio sits at 1 (allowing failure-probe noise).
        let ratio = points[0].utilization_ratio();
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "homogeneous cluster ratio {ratio}"
        );
    }
}
