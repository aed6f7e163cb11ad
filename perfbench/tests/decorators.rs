//! The tracing decorators must be invisible to the program: they forward
//! every trait method, so a traced run renders byte-identically to an
//! untraced one, and the replayed allocator agrees with the engine.

use resmatch_classad::{Matchmaker, PoolAd};
use resmatch_cluster::builder::paper_cluster;
use resmatch_cluster::{Capacity, ClusterBuilder, Demand, PoolMatcher};
use resmatch_core::traits::{EstimateContext, Feedback};
use resmatch_core::ResourceEstimator;
use resmatch_perfbench::digest::digest;
use resmatch_perfbench::layers::{
    self, replay, SpanLog, StartRecorder, TracedEstimator, TracedMatcher,
};
use resmatch_perfbench::report::Report;
use resmatch_perfbench::sims::{Mode, SimBench, SimKind};
use resmatch_perfbench::Scale;
use resmatch_sim::prelude::*;
use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
use resmatch_workload::load::scale_to_load;
use resmatch_workload::synthetic::{generate, Cm5Config};
use resmatch_workload::Workload;

fn small_trace(jobs: usize, seed: u64) -> Workload {
    let mut w = generate(
        &Cm5Config {
            jobs,
            ..Cm5Config::default()
        },
        seed,
    );
    w.retain_max_nodes(512);
    scale_to_load(&w, 1024, 1.0)
}

/// Every configuration of every simulator workload, at smoke size: the
/// traced run's digest equals the untraced run's.
#[test]
fn traced_and_untraced_digests_agree_on_every_sim_workload() {
    for kind in [
        SimKind::PaperFcfs,
        SimKind::SaturatedEasy,
        SimKind::MatchedEasy,
    ] {
        let mut bench = SimBench::build(kind, 11, &Scale::smoke());
        for i in 0..bench.cases.len() {
            let (plain, _) = bench.simulate(i, Mode::Plain);
            layers::reset_ledger(None, true);
            let (traced, _) = bench.simulate(i, Mode::Traced);
            let ledger = layers::take_ledger();
            let label = bench.cases[i].label.clone();
            assert_eq!(digest(&plain), digest(&traced), "{kind:?} {label}");
            assert_eq!(plain.estimator, traced.estimator, "name is forwarded");
            assert!(
                ledger.estimate.calls > 0,
                "{label}: estimate spans recorded"
            );
            let (clocked, _) = bench.simulate(i, Mode::Clocked);
            assert_eq!(digest(&plain), digest(&clocked), "{kind:?} {label} clocked");
        }
    }
}

/// The traced phase itself: every check passes and the replayed cluster
/// grants exactly what the engine reported.
#[test]
fn traced_phase_replays_without_mismatches() {
    for kind in [
        SimKind::PaperFcfs,
        SimKind::SaturatedEasy,
        SimKind::MatchedEasy,
    ] {
        let mut bench = SimBench::build(kind, 5, &Scale::smoke());
        let mut report = Report::default();
        let mut spans = SpanLog::default();
        bench.trace(0.0, &mut report, &mut spans);
        let runs = spans
            .records()
            .iter()
            .filter(|r| r.name == "sim.run")
            .count();
        assert_eq!(
            runs,
            bench.cases.len(),
            "{kind:?}: one run span per configuration"
        );
        assert!(spans.records().iter().any(|r| r.parent == Some("sim.run")));
        assert!(report.attempted() > 0);
        assert_eq!(report.failed(), 0, "{kind:?}");
        assert_eq!(
            report.get("cluster.replay_mismatches"),
            Some(0.0),
            "{kind:?}"
        );
        assert!(
            report.get("cluster.alloc_calls").unwrap_or(0.0) > 0.0,
            "{kind:?}"
        );
        let prepares = report.get("classad.prepare_calls").unwrap_or(0.0);
        assert_eq!(prepares > 0.0, kind == SimKind::MatchedEasy, "{kind:?}");
    }
}

/// A ranked matchmaker exercises `rank` and `is_ranked`: traced and
/// untraced runs still agree, and the replay matches.
#[test]
fn ranked_matching_is_forwarded() {
    let mut w = small_trace(800, 3);
    synthesize_attributes(&mut w, &AttrConfig::default(), 3);
    let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
    let small = Capacity::memory(24 * 1024);
    let cluster = || {
        ClusterBuilder::new()
            .pool_with(512, big)
            .pool_with(512, small)
            .build()
    };
    let ads = vec![PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)];
    let ranked = || {
        Matchmaker::new(&ads)
            .with_rank("other.Memory")
            .expect("static rank expression")
    };
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    let spec = EstimatorSpec::paper_successive();
    let plain = Simulation::new(cfg, cluster(), spec)
        .with_matchmaking(Box::new(ranked()))
        .run(&w);
    layers::reset_ledger(None, true);
    let est = TracedEstimator::new(spec.build(&cluster().memory_ladder()));
    let traced = Simulation::builder()
        .config(cfg)
        .cluster(cluster())
        .boxed_estimator(Box::new(est))
        .matchmaking(Box::new(TracedMatcher::new(ranked())))
        .observer(Box::new(StartRecorder))
        .build()
        .expect("complete builder")
        .run(&w);
    let ledger = layers::take_ledger();
    assert_eq!(digest(&plain), digest(&traced));
    assert!(ledger.rank_calls > 0, "rank is forwarded");
    let mut mm = ranked();
    let rp = replay(
        &ledger.ops,
        cluster(),
        Some(&mut mm as &mut dyn PoolMatcher),
        cfg.match_policy,
    );
    assert_eq!(rp.mismatches, 0);
    assert_eq!(rp.alloc.calls, rp.release.calls);
}

/// `snapshot_state` and `restore_state` reach the wrapped estimator, and
/// `estimate_scope` answers as it does.
#[test]
fn estimator_decorator_forwards_state_methods() {
    let ladder = paper_cluster(24).memory_ladder();
    let spec = EstimatorSpec::paper_successive();
    let mut bare = spec.build(&ladder);
    let mut traced = TracedEstimator::new(spec.build(&ladder));
    assert_eq!(bare.name(), traced.name());
    let w = small_trace(300, 9);
    let ctx = EstimateContext::default();
    for (k, job) in w.jobs().iter().enumerate() {
        let a = bare.estimate(job, &ctx);
        let b = traced.estimate(job, &ctx);
        assert_eq!(a, b);
        assert_eq!(bare.estimate_scope(job), traced.estimate_scope(job));
        let fb = if k % 3 == 0 {
            Feedback::failure()
        } else {
            Feedback::success()
        };
        bare.feedback(job, &a, &fb, &ctx);
        traced.feedback(job, &b, &fb, &ctx);
    }
    let state = bare.snapshot_state().expect("successive keeps state");
    assert_eq!(traced.snapshot_state().as_ref(), Some(&state));

    let mut restored = TracedEstimator::new(spec.build(&ladder));
    restored.restore_state(state.clone()).expect("same family");
    assert_eq!(restored.snapshot_state(), Some(state));
    drop(layers::take_ledger());
}

/// Every `PoolMatcher` method answers as the wrapped matchmaker does.
#[test]
fn matcher_decorator_forwards_every_method() {
    let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
    let small = Capacity::memory(24 * 1024);
    let ads = vec![PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)];
    let make = || {
        Matchmaker::new(&ads)
            .with_rank("other.Memory")
            .expect("static rank expression")
    };
    let mut bare = make();
    let mut traced = TracedMatcher::new(make());
    assert_eq!(bare.is_ranked(), traced.is_ranked());
    let demands = [
        Demand::memory(16 * 1024),
        Demand::memory(30 * 1024),
        Demand {
            mem_kb: 8 * 1024,
            disk_kb: 1024 * 1024,
            packages: 0b11,
        },
        Demand {
            mem_kb: 8 * 1024,
            disk_kb: 8 * 1024 * 1024,
            packages: 0,
        },
    ];
    for d in &demands {
        bare.prepare(d);
        traced.prepare(d);
        assert_eq!(bare.demand_signature(), traced.demand_signature());
        assert_eq!(bare.eligible_pools(), traced.eligible_pools());
        for (pool, cap) in [big, small].iter().enumerate() {
            assert_eq!(bare.matches(pool, cap), traced.matches(pool, cap));
            assert_eq!(
                bare.rank(pool, cap).to_bits(),
                traced.rank(pool, cap).to_bits()
            );
        }
    }
    let ledger = layers::take_ledger();
    assert_eq!(ledger.prepare.calls, demands.len() as u64);
    assert_eq!(ledger.matches_calls, 2 * demands.len() as u64);
    assert_eq!(ledger.signature_calls, demands.len() as u64);
}
