//! End-to-end integration: trace generation → estimation → simulation →
//! metrics, spanning every crate in the workspace.

use resmatch::prelude::*;

fn trace(jobs: usize, seed: u64) -> Workload {
    let mut w = generate(
        &Cm5Config {
            jobs,
            ..Cm5Config::default()
        },
        seed,
    );
    w.retain_max_nodes(512);
    w
}

#[test]
fn full_pipeline_is_deterministic() {
    let w = trace(1_500, 3);
    let run = || {
        let cluster = paper_cluster(24);
        let scaled = scale_to_load(&w, cluster.total_nodes(), 1.0);
        Simulation::new(
            SimConfig::default(),
            cluster,
            EstimatorSpec::paper_successive(),
        )
        .run(&scaled)
    };
    assert_eq!(run(), run());
}

#[test]
fn estimation_beats_baseline_at_saturation() {
    // The headline claim on a scaled-down trace: Algorithm 1 improves
    // goodput utilization on the 32/24 MB split at saturating load.
    let w = trace(4_000, 42);
    let cluster = paper_cluster(24);
    let scaled = scale_to_load(&w, cluster.total_nodes(), 1.3);
    let base = Simulation::new(
        SimConfig::default(),
        cluster.clone(),
        EstimatorSpec::PassThrough,
    )
    .run(&scaled);
    let est = Simulation::new(
        SimConfig::default(),
        cluster,
        EstimatorSpec::paper_successive(),
    )
    .run(&scaled);
    assert!(
        est.utilization() > base.utilization() * 1.1,
        "estimation {:.3} vs baseline {:.3}",
        est.utilization(),
        base.utilization()
    );
    // And every job still completes.
    assert_eq!(est.completed_jobs + est.dropped_jobs, scaled.len());
    assert_eq!(base.completed_jobs + base.dropped_jobs, scaled.len());
}

#[test]
fn oracle_dominates_all_learning_estimators() {
    let w = trace(2_500, 7);
    let cluster = paper_cluster(24);
    let scaled = scale_to_load(&w, cluster.total_nodes(), 1.2);
    let util = |spec: EstimatorSpec, explicit: bool| {
        let cfg = SimConfig::default().with_feedback(if explicit {
            FeedbackMode::Explicit
        } else {
            FeedbackMode::Implicit
        });
        Simulation::new(cfg, cluster.clone(), spec)
            .run(&scaled)
            .utilization()
    };
    let oracle = util(EstimatorSpec::Oracle, false);
    let base = util(EstimatorSpec::PassThrough, false);
    let successive = util(EstimatorSpec::paper_successive(), false);
    let last = util(
        EstimatorSpec::LastInstance(LastInstanceConfig::default()),
        true,
    );
    // Small tolerance: probing failures can cost a learning estimator a
    // sliver of goodput relative to the oracle.
    assert!(
        oracle >= successive * 0.98,
        "oracle {oracle} vs successive {successive}"
    );
    assert!(
        oracle >= last * 0.98,
        "oracle {oracle} vs last-instance {last}"
    );
    assert!(oracle > base, "oracle {oracle} vs baseline {base}");
}

#[test]
fn conservativeness_matches_paper_bounds() {
    // ≤ a fraction of a percent of executions fail; a substantial share of
    // jobs run lowered (the paper: ≤0.01% and 15-40% at full trace scale).
    let w = trace(6_000, 42);
    let cluster = paper_cluster(24);
    let scaled = scale_to_load(&w, cluster.total_nodes(), 1.0);
    let r = Simulation::new(
        SimConfig::default(),
        cluster,
        EstimatorSpec::paper_successive(),
    )
    .run(&scaled);
    assert!(
        r.failed_execution_fraction() < 0.02,
        "failure rate {:.4}",
        r.failed_execution_fraction()
    );
    assert!(
        r.lowered_job_fraction() > 0.10,
        "lowered fraction {:.3}",
        r.lowered_job_fraction()
    );
}

#[test]
fn explicit_feedback_reduces_probing_failures() {
    // Explicit feedback estimates from *measured* usage instead of blind
    // probing; only within-group usage variance can still under-allocate
    // (the paper's §2.3 caveat), and a max-over-window config damps that.
    let w = trace(3_000, 11);
    let cluster = paper_cluster(24);
    let scaled = scale_to_load(&w, cluster.total_nodes(), 1.0);
    let cfg = SimConfig::default().with_feedback(FeedbackMode::Explicit);
    let literal = Simulation::new(
        cfg,
        cluster.clone(),
        EstimatorSpec::LastInstance(LastInstanceConfig::default()),
    )
    .run(&scaled);
    let damped = Simulation::new(
        cfg,
        cluster,
        EstimatorSpec::LastInstance(LastInstanceConfig {
            window: 5,
            margin: 1.2,
            ..LastInstanceConfig::default()
        }),
    )
    .run(&scaled);
    assert!(
        literal.failed_execution_fraction() < 0.02,
        "paper-literal last-instance failure rate {:.4}",
        literal.failed_execution_fraction()
    );
    assert!(
        damped.failed_executions <= literal.failed_executions,
        "window+margin must not increase failures: {} vs {}",
        damped.failed_executions,
        literal.failed_executions
    );
    // Both still estimate aggressively.
    assert!(literal.lowered_job_fraction() > 0.3);
}

#[test]
fn workload_statistics_survive_the_simulator() {
    // Goodput node-seconds equal the workload's total demand when every
    // job completes (mass conservation across the pipeline).
    let w = trace(1_000, 5);
    let cluster = paper_cluster(24);
    let r = Simulation::new(SimConfig::default(), cluster, EstimatorSpec::PassThrough).run(&w);
    assert_eq!(r.completed_jobs + r.dropped_jobs, w.len());
    let expected: f64 = w
        .jobs()
        .iter()
        .filter(|j| j.nodes <= 512)
        .map(|j| j.node_seconds())
        .sum();
    assert!(
        (r.goodput_node_seconds - expected).abs() / expected < 1e-9,
        "goodput {} vs demanded {}",
        r.goodput_node_seconds,
        expected
    );
}

#[test]
fn all_estimators_complete_the_same_jobs() {
    let w = trace(1_200, 9);
    let cluster = paper_cluster(20);
    let scaled = scale_to_load(&w, cluster.total_nodes(), 0.9);
    let specs = [
        EstimatorSpec::PassThrough,
        EstimatorSpec::Oracle,
        EstimatorSpec::paper_successive(),
        EstimatorSpec::Robust(RobustConfig::default()),
        EstimatorSpec::Reinforcement(ReinforcementConfig::default()),
    ];
    for spec in specs {
        let r = Simulation::new(SimConfig::default(), cluster.clone(), spec).run(&scaled);
        assert_eq!(
            r.completed_jobs + r.dropped_jobs,
            scaled.len(),
            "{} lost jobs",
            spec.name()
        );
    }
}
