//! Property-based tests on the simulation engine: conservation laws and
//! sanity invariants under arbitrary small workloads and estimators.

mod common;

use common::render;
use proptest::prelude::*;
use resmatch_classad::{Matchmaker, PoolAd};
use resmatch_cluster::{Capacity, ClusterBuilder, Demand};
use resmatch_core::prelude::*;
use resmatch_sim::prelude::*;
use resmatch_workload::job::JobBuilder;
use resmatch_workload::{Job, Time, Workload};

const MB: u64 = 1024;

#[derive(Debug, Clone)]
struct JobSpec {
    user: u32,
    app: u32,
    submit_s: u64,
    runtime_s: u64,
    nodes: u32,
    req_mb: u64,
    used_frac: f64,
}

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0u32..4,
            0u32..3,
            0u64..5_000,
            1u64..2_000,
            1u32..12,
            1u64..33,
            0.01f64..1.0,
        )
            .prop_map(
                |(user, app, submit_s, runtime_s, nodes, req_mb, used_frac)| JobSpec {
                    user,
                    app,
                    submit_s,
                    runtime_s,
                    nodes,
                    req_mb,
                    used_frac,
                },
            ),
        1..60,
    )
}

fn workload(specs: &[JobSpec]) -> Workload {
    Workload::new(
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let req = s.req_mb * MB;
                JobBuilder::new(i as u64 + 1)
                    .user(s.user)
                    .app(s.app)
                    .submit(Time::from_secs(s.submit_s))
                    .runtime(Time::from_secs(s.runtime_s))
                    .nodes(s.nodes)
                    .requested_mem_kb(req)
                    .used_mem_kb(((req as f64 * s.used_frac) as u64).max(1))
                    .build()
            })
            .collect(),
    )
}

/// Jobs whose submit gaps exceed the worst-case residency of their
/// predecessor, so no job ever queues behind another. A job executes at
/// most four times (three estimator-driven failures, then the bypass
/// attempt with the full request, which always fits for these sizes), so
/// a gap of five runtimes is already conservative.
fn arb_serial_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0u32..4,
            0u32..3,
            0u64..100,
            1u64..2_000,
            1u32..12,
            1u64..33,
            0.01f64..1.0,
        ),
        1..40,
    )
    .prop_map(|tuples| {
        let mut submit_s = 0u64;
        tuples
            .into_iter()
            .map(
                |(user, app, extra_gap_s, runtime_s, nodes, req_mb, used_frac)| {
                    let spec = JobSpec {
                        user,
                        app,
                        submit_s,
                        runtime_s,
                        nodes,
                        req_mb,
                        used_frac,
                    };
                    submit_s += runtime_s * 5 + 1 + extra_gap_s;
                    spec
                },
            )
            .collect()
    })
}

fn arb_spec() -> impl Strategy<Value = EstimatorSpec> {
    prop_oneof![
        Just(EstimatorSpec::PassThrough),
        Just(EstimatorSpec::Oracle),
        Just(EstimatorSpec::paper_successive()),
        Just(EstimatorSpec::Robust(RobustConfig::default())),
        Just(EstimatorSpec::Reinforcement(ReinforcementConfig::default())),
        Just(EstimatorSpec::LastInstance(LastInstanceConfig::default())),
        Just(EstimatorSpec::Adaptive(AdaptiveConfig::default())),
    ]
}

fn arb_policy() -> impl Strategy<Value = SchedulingPolicy> {
    prop_oneof![
        Just(SchedulingPolicy::Fcfs),
        Just(SchedulingPolicy::Sjf),
        Just(SchedulingPolicy::EasyBackfill),
    ]
}

fn cluster() -> resmatch_cluster::Cluster {
    ClusterBuilder::new()
        .pool(8, 32 * MB)
        .pool(8, 24 * MB)
        .pool(8, 8 * MB)
        .build()
}

/// Deep queues over few similarity groups: requests come in four sizes,
/// so waiting jobs share groups with running ones and their estimates go
/// stale while they queue.
fn arb_grouped_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0u32..3,
            0u32..2,
            0u64..3_000,
            1u64..2_000,
            1u32..12,
            0usize..4,
            0.01f64..1.0,
        )
            .prop_map(
                |(user, app, submit_s, runtime_s, nodes, size, used_frac)| JobSpec {
                    user,
                    app,
                    submit_s,
                    runtime_s,
                    nodes,
                    req_mb: [8, 16, 24, 32][size],
                    used_frac,
                },
            ),
        20..150,
    )
}

/// The estimator families whose scope is [`EstimateScope::Group`]: the
/// engine defers their in-queue refresh to a pass that could start them.
fn arb_group_spec() -> impl Strategy<Value = EstimatorSpec> {
    prop_oneof![
        Just(EstimatorSpec::paper_successive()),
        Just(EstimatorSpec::Quantile(QuantileConfig::default())),
        Just(EstimatorSpec::LastInstance(LastInstanceConfig::default())),
        Just(EstimatorSpec::Robust(RobustConfig::default())),
        Just(EstimatorSpec::PerResource(PerResourceConfig::default())),
    ]
}

/// Forwards every call to the wrapped estimator but keeps the default
/// [`EstimateScope::Global`], under which the engine re-estimates a stale
/// queued entry wherever the scan reaches it.
struct ReportsGlobal(Box<dyn ResourceEstimator>);

impl ResourceEstimator for ReportsGlobal {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
        self.0.estimate(job, ctx)
    }

    fn feedback(
        &mut self,
        job: &Job,
        granted: &Demand,
        feedback: &Feedback,
        ctx: &EstimateContext,
    ) {
        self.0.feedback(job, granted, feedback, ctx);
    }
}

/// Node counts of the 32 MB, 24 MB and 8 MB pools (an 8 MB count of zero
/// leaves that pool out).
fn arb_pools() -> impl Strategy<Value = Vec<(u32, Capacity)>> {
    (2u32..14, 2u32..14, 0u32..10).prop_map(|(big, mid, small)| {
        [(big, 32 * MB), (mid, 24 * MB), (small, 8 * MB)]
            .into_iter()
            .filter(|&(n, _)| n > 0)
            .map(|(n, mem)| (n, Capacity::memory(mem)))
            .collect()
    })
}

/// Take half of each of the two large pools offline during the trace and
/// bring them back before it ends.
fn churn_schedule(pools: &[(u32, Capacity)], w: &Workload) -> Vec<ChurnEvent> {
    let t0 = w.jobs().first().map_or(Time::ZERO, |j| j.submit);
    let t1 = w.jobs().last().map_or(Time::ZERO, |j| j.submit);
    let span_ms = t1.saturating_sub(t0).as_millis();
    let at = |frac: f64| t0 + Time::from_millis((span_ms as f64 * frac) as u64);
    let half = |i: usize| i64::from(pools[i].0 / 2);
    let mem = |i: usize| pools[i].1.mem_kb;
    vec![
        ChurnEvent {
            time: at(0.25),
            mem_kb: mem(1),
            delta: -half(1),
        },
        ChurnEvent {
            time: at(0.50),
            mem_kb: mem(0),
            delta: -half(0),
        },
        ChurnEvent {
            time: at(0.75),
            mem_kb: mem(1),
            delta: half(1),
        },
        ChurnEvent {
            time: at(0.90),
            mem_kb: mem(0),
            delta: half(0),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deferred_refresh_is_invisible(
        specs in arb_grouped_jobs(),
        pools in arb_pools(),
        spec in arb_group_spec(),
        policy in arb_policy(),
        matched in any::<bool>(),
        churn in any::<bool>(),
        explicit in any::<bool>(),
    ) {
        // A Group-scope estimate ignores the scheduler context and moves
        // only with its group's feedback or with churn, so the engine may
        // re-estimate such a queued entry only in a pass that could start
        // it. Reporting Global scope for the same estimator forces the
        // eager refresh; the outcomes must not tell the two apart, though
        // the work counters may.
        let w = workload(&specs);
        let cfg = SimConfig::default()
            .with_scheduling(policy)
            .with_feedback(if explicit { FeedbackMode::Explicit } else { FeedbackMode::Implicit });
        let churn = if churn { churn_schedule(&pools, &w) } else { Vec::new() };
        let run = |global: bool| {
            let cluster = pools
                .iter()
                .fold(ClusterBuilder::new(), |b, &(n, cap)| b.pool_with(n, cap))
                .build();
            let estimator = spec.build(&cluster.memory_ladder());
            let estimator: Box<dyn ResourceEstimator> = if global {
                Box::new(ReportsGlobal(estimator))
            } else {
                estimator
            };
            let mut b = Simulation::builder()
                .config(cfg)
                .cluster(cluster)
                .boxed_estimator(estimator)
                .churn(churn.clone());
            if matched {
                let ads: Vec<PoolAd> = pools.iter().map(|&(_, cap)| PoolAd::new(cap)).collect();
                b = b.matchmaking(Box::new(Matchmaker::new(&ads)));
            }
            b.build().expect("complete builder").run(&w)
        };
        let (scoped, eager) = (render(&run(false)), render(&run(true)));
        let first_difference = scoped.lines().zip(eager.lines()).find(|(a, b)| a != b);
        prop_assert!(
            scoped == eager,
            "deferring the refresh changed an outcome: {first_difference:?}"
        );
    }

    #[test]
    fn every_job_completes_or_is_dropped(
        specs in arb_jobs(),
        spec in arb_spec(),
        policy in arb_policy(),
        explicit in any::<bool>(),
    ) {
        let w = workload(&specs);
        let cfg = SimConfig::default()
            .with_scheduling(policy)
            .with_feedback(if explicit { FeedbackMode::Explicit } else { FeedbackMode::Implicit });
        let r = Simulation::new(cfg, cluster(), spec).run(&w);
        prop_assert_eq!(r.completed_jobs + r.dropped_jobs, w.len());
        prop_assert_eq!(r.records.len(), r.completed_jobs);
    }

    #[test]
    fn conservation_and_bounds(specs in arb_jobs(), spec in arb_spec()) {
        let w = workload(&specs);
        let r = Simulation::new(SimConfig::default(), cluster(), spec).run(&w);
        // Goodput equals the node-seconds of completed jobs exactly.
        let expected: f64 = r
            .records
            .iter()
            .map(|rec| rec.nodes as f64 * rec.runtime.as_secs_f64())
            .sum();
        prop_assert!((r.goodput_node_seconds - expected).abs() < 1e-6 * (1.0 + expected));
        // Utilizations are proper fractions.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.utilization()));
        prop_assert!(r.busy_utilization() + 1e-9 >= r.utilization());
        prop_assert!(r.busy_utilization() <= 1.0 + 1e-9);
        // Queue statistics are non-negative and bounded by the cluster.
        prop_assert!(r.mean_queue_length >= 0.0);
        prop_assert!(r.mean_busy_nodes <= r.total_nodes as f64 + 1e-9);
    }

    #[test]
    fn per_job_timing_invariants(specs in arb_jobs(), spec in arb_spec()) {
        let w = workload(&specs);
        let r = Simulation::new(SimConfig::default(), cluster(), spec).run(&w);
        for rec in &r.records {
            prop_assert!(rec.final_start >= rec.submit);
            prop_assert_eq!(rec.completion, rec.final_start + rec.runtime);
            prop_assert!(rec.slowdown() >= 1.0 - 1e-12);
            prop_assert!(rec.bounded_slowdown(10.0) >= 1.0);
        }
    }

    #[test]
    fn simulation_is_deterministic(specs in arb_jobs(), spec in arb_spec()) {
        let w = workload(&specs);
        let run = || Simulation::new(SimConfig::default(), cluster(), spec).run(&w);
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn oracle_never_fails_on_any_workload(specs in arb_jobs(), policy in arb_policy()) {
        let w = workload(&specs);
        let cfg = SimConfig::default().with_scheduling(policy);
        let r = Simulation::new(cfg, cluster(), EstimatorSpec::Oracle).run(&w);
        prop_assert_eq!(r.failed_executions, 0);
        prop_assert_eq!(r.wasted_node_seconds, 0.0);
    }

    #[test]
    fn policies_agree_when_no_job_queues(
        specs in arb_serial_jobs(),
        spec in arb_spec(),
        explicit in any::<bool>(),
    ) {
        // Queue discipline only matters when jobs wait behind each other;
        // on serial workloads FCFS, SJF, and EASY must be indistinguishable
        // down to the full `SimResult`. This is the equivalence oracle the
        // scheduler-path optimizations are checked against.
        let w = workload(&specs);
        let run = |policy| {
            let cfg = SimConfig::default()
                .with_scheduling(policy)
                .with_feedback(if explicit {
                    FeedbackMode::Explicit
                } else {
                    FeedbackMode::Implicit
                });
            Simulation::new(cfg, cluster(), spec).run(&w)
        };
        let fcfs = run(SchedulingPolicy::Fcfs);
        // Premise guard: the generator really produced a no-queueing trace
        // (zero-duration requeue spikes carry no time weight, and the mean
        // is non-negative, so <= 0 means exactly zero).
        prop_assert!(fcfs.mean_queue_length <= 0.0);
        prop_assert_eq!(&run(SchedulingPolicy::Sjf), &fcfs);
        prop_assert_eq!(&run(SchedulingPolicy::EasyBackfill), &fcfs);
    }

    #[test]
    fn arena_reuse_is_invisible(
        specs_a in arb_jobs(),
        specs_b in arb_jobs(),
        spec in arb_spec(),
        policy in arb_policy(),
        explicit in any::<bool>(),
    ) {
        // A dirty arena (left behind by a run over a *different* workload)
        // must not perturb a later run: reused buffers are cleared, never
        // trusted. This is the equivalence oracle for the SoA store and
        // slab event queue — the whole SimResult must match a fresh run
        // byte for byte.
        let cfg = SimConfig::default()
            .with_scheduling(policy)
            .with_feedback(if explicit { FeedbackMode::Explicit } else { FeedbackMode::Implicit });
        let wa = workload(&specs_a);
        let wb = workload(&specs_b);
        let fresh = Simulation::new(cfg, cluster(), spec).run(&wb);
        let mut arena = SimArena::default();
        let _ = Simulation::new(cfg, cluster(), spec).run_with_arena(&wa, &mut arena);
        let reused = Simulation::new(cfg, cluster(), spec).run_with_arena(&wb, &mut arena);
        prop_assert_eq!(reused, fresh);
    }

    #[test]
    fn streaming_matches_batch(
        specs in arb_jobs(),
        spec in arb_spec(),
        policy in arb_policy(),
    ) {
        // Feeding jobs one at a time through the streaming entry point is
        // indistinguishable from handing over the whole trace.
        let w = workload(&specs);
        let cfg = SimConfig::default().with_scheduling(policy);
        let batch = Simulation::new(cfg, cluster(), spec).run(&w);
        let streamed = Simulation::new(cfg, cluster(), spec)
            .run_stream(w.jobs().iter().cloned());
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn estimation_never_loses_to_baseline_badly(specs in arb_jobs()) {
        // Whatever the workload, Algorithm 1's goodput utilization stays
        // within a whisker of the baseline's (it can spend a little on
        // probing failures, never more).
        let w = workload(&specs);
        let base = Simulation::new(SimConfig::default(), cluster(), EstimatorSpec::PassThrough)
            .run(&w);
        let est = Simulation::new(
            SimConfig::default(),
            cluster(),
            EstimatorSpec::paper_successive(),
        )
        .run(&w);
        prop_assert!(
            est.utilization() >= base.utilization() * 0.85 - 1e-9,
            "estimation {} vs baseline {}",
            est.utilization(),
            base.utilization()
        );
    }
}
