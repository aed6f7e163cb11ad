//! Integration: dynamic cluster membership and queue statistics, running
//! end to end through the simulator.

use resmatch::prelude::*;

const MB: u64 = 1024;

fn trace(jobs: usize) -> Workload {
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

#[test]
fn estimation_gain_survives_churn_end_to_end() {
    let w = trace(3_000);
    let cluster = paper_cluster(24);
    let scaled = scale_to_load(&w, cluster.total_nodes(), 1.0);
    let span = scaled.span();
    // Half the 24 MB pool leaves for the middle third of the run.
    let churn = vec![
        ChurnEvent {
            time: Time::from_millis(span.as_millis() / 3),
            mem_kb: 24 * MB,
            delta: -256,
        },
        ChurnEvent {
            time: Time::from_millis(2 * span.as_millis() / 3),
            mem_kb: 24 * MB,
            delta: 256,
        },
    ];
    let base = Simulation::new(
        SimConfig::default(),
        cluster.clone(),
        EstimatorSpec::PassThrough,
    )
    .with_churn(churn.clone())
    .run(&scaled);
    let est = Simulation::new(
        SimConfig::default(),
        cluster,
        EstimatorSpec::paper_successive(),
    )
    .with_churn(churn)
    .run(&scaled);
    assert_eq!(base.completed_jobs + base.dropped_jobs, scaled.len());
    assert_eq!(est.completed_jobs + est.dropped_jobs, scaled.len());
    assert!(
        est.utilization() > base.utilization(),
        "estimation {:.3} vs baseline {:.3} under churn",
        est.utilization(),
        base.utilization()
    );
}

#[test]
fn queue_statistics_grow_with_load() {
    let w = trace(2_000);
    let cluster = paper_cluster(24);
    let low = Simulation::new(
        SimConfig::default(),
        cluster.clone(),
        EstimatorSpec::PassThrough,
    )
    .run(&scale_to_load(&w, cluster.total_nodes(), 0.3));
    let high = Simulation::new(
        SimConfig::default(),
        cluster.clone(),
        EstimatorSpec::PassThrough,
    )
    .run(&scale_to_load(&w, cluster.total_nodes(), 1.4));
    assert!(
        high.mean_queue_length > low.mean_queue_length,
        "queue {:.2} (high) vs {:.2} (low)",
        high.mean_queue_length,
        low.mean_queue_length
    );
    assert!(high.mean_busy_nodes > low.mean_busy_nodes * 0.9);
}
