//! Golden-equivalence tests: fixed-seed simulations rendered to a canonical
//! text form and compared byte-for-byte against files under `tests/golden/`.
//!
//! These exist to pin the engine's *outcomes* while its hot paths are
//! optimized: group-scoped estimate invalidation, incremental candidate
//! counts, event coalescing, and slab reuse must all be invisible here.
//! Floats are rendered as exact IEEE-754 bit patterns, so even a
//! last-ulp drift fails the diff.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p resmatch-sim --test golden
//! ```
//!
//! and review the resulting diffs like any other code change.

mod common;

use common::render;
use resmatch_cluster::builder::paper_cluster;
use resmatch_cluster::{Capacity, Demand, MatchAll, PoolMatcher};
use resmatch_sim::prelude::*;
use resmatch_workload::load::scale_to_load;
use resmatch_workload::synthetic::{generate, Cm5Config};
use resmatch_workload::{Time, Workload};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TOTAL_NODES: u32 = 1024;

/// The shared base trace: 600 synthetic CM-5 jobs, compressed to ~90%
/// offered load so queues actually form and estimates get refreshed
/// in-queue.
fn base_workload() -> Workload {
    let cfg = Cm5Config {
        jobs: 600,
        ..Cm5Config::default()
    };
    let mut w = generate(&cfg, 42);
    w.retain_max_nodes(512);
    scale_to_load(&w, TOTAL_NODES, 0.9)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check(name: &str, result: &SimResult) {
    let rendered = render(result);
    let path = golden_path(name);
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN only chooses to rewrite the goldens; the compared output does not read it"
    )]
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    if rendered != expected {
        // Locate the first differing line so the failure is actionable
        // without dumping two multi-thousand-line blobs.
        let mismatch = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "golden mismatch for `{name}` at line {}:\n  got:  {got}\n  want: {want}\n\
                 (if the change is intentional, regenerate with GOLDEN_REGEN=1)",
                i + 1
            ),
            None => panic!(
                "golden mismatch for `{name}`: line counts differ (got {}, want {})",
                rendered.lines().count(),
                expected.lines().count()
            ),
        }
    }
}

fn run(cfg: SimConfig, spec: EstimatorSpec, workload: &Workload) -> SimResult {
    Simulation::new(cfg, paper_cluster(24), spec).run(workload)
}

#[test]
fn golden_fcfs_successive_implicit() {
    let w = base_workload();
    let r = run(SimConfig::default(), EstimatorSpec::paper_successive(), &w);
    check("fcfs_successive_implicit", &r);
}

#[test]
fn golden_easy_successive_implicit() {
    let w = base_workload();
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    let r = run(cfg, EstimatorSpec::paper_successive(), &w);
    check("easy_successive_implicit", &r);
}

#[test]
fn golden_sjf_successive_implicit() {
    let w = base_workload();
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::Sjf);
    let r = run(cfg, EstimatorSpec::paper_successive(), &w);
    check("sjf_successive_implicit", &r);
}

#[test]
fn golden_fcfs_passthrough() {
    let w = base_workload();
    let r = run(SimConfig::default(), EstimatorSpec::PassThrough, &w);
    check("fcfs_passthrough", &r);
}

#[test]
fn golden_fcfs_oracle() {
    let w = base_workload();
    let r = run(SimConfig::default(), EstimatorSpec::Oracle, &w);
    check("fcfs_oracle", &r);
}

#[test]
fn golden_fcfs_successive_explicit() {
    let w = base_workload();
    let cfg = SimConfig::default().with_feedback(FeedbackMode::Explicit);
    let r = run(cfg, EstimatorSpec::paper_successive(), &w);
    check("fcfs_successive_explicit", &r);
}

#[test]
fn golden_easy_lastinstance_explicit() {
    use resmatch_core::last_instance::LastInstanceConfig;
    let w = base_workload();
    let cfg = SimConfig::default()
        .with_scheduling(SchedulingPolicy::EasyBackfill)
        .with_feedback(FeedbackMode::Explicit);
    let r = run(
        cfg,
        EstimatorSpec::LastInstance(LastInstanceConfig::default()),
        &w,
    );
    check("easy_lastinstance_explicit", &r);
}

#[test]
fn golden_sjf_quantile_explicit() {
    use resmatch_core::quantile::QuantileConfig;
    let w = base_workload();
    let cfg = SimConfig::default()
        .with_scheduling(SchedulingPolicy::Sjf)
        .with_feedback(FeedbackMode::Explicit);
    let r = run(cfg, EstimatorSpec::Quantile(QuantileConfig::default()), &w);
    check("sjf_quantile_explicit", &r);
}

/// FNV-1a over the canonical rendering: one u64 that moves iff any byte of
/// the golden output moves.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a canonical rendering of all ten [`RunCounters`] fields.
/// [`render`] shows outcomes, not work: a change that moved the
/// allocator calls of a matched run (`match_attempts`) alike in every run
/// would pass every outcome digest, so each pinned digest carries this
/// one beside it.
fn counters_digest(c: &RunCounters) -> u64 {
    let text = format!(
        "arrivals: {}\nadmissions: {}\nstarted: {}\ncompleted: {}\nfailed: {}\n\
         requeued: {}\nestimator_bypassed: {}\nchurn_events: {}\n\
         match_attempts: {}\nmatch_refusals: {}\n",
        c.arrivals,
        c.admissions,
        c.started,
        c.completed,
        c.failed,
        c.requeued,
        c.estimator_bypassed,
        c.churn_events,
        c.match_attempts,
        c.match_refusals,
    );
    fnv1a(text.as_bytes())
}

/// Assert a fixed-seed run's canonical rendering and its counters digest
/// to a pinned `(result, counters)` pair that cannot be silently
/// regenerated. A moved result digest means the engine's observable
/// behavior changed; a moved counters digest alone means the run did
/// different work for the same outcome. Either must be justified alongside
/// the new value.
fn check_pinned(name: &str, (expected, counters): (u64, u64), result: &SimResult) {
    let got = fnv1a(render(result).as_bytes());
    let work = counters_digest(&result.counters);
    assert_eq!(
        got, expected,
        "fixed-seed SimResult digest for `{name}` moved (got {got:#018x}, \
         counters {work:#018x}); the engine's observable behavior changed — \
         update the constant only with an intentional semantic change"
    );
    assert_eq!(
        work, counters,
        "fixed-seed RunCounters digest for `{name}` moved (got {work:#018x}); \
         the run's work counts changed — re-pin only with a change that \
         moves work on purpose, and name the layer"
    );
}

/// Pinned digest of the fixed-seed FCFS + successive-estimator run.
///
/// This guards the panic-site burn-down (unwrap/expect → documented
/// invariants, `let-else` head peeking in the backfill loop) the same way
/// the golden files do, but as a single constant that cannot be silently
/// regenerated.
#[test]
fn golden_fcfs_successive_hash_pinned() {
    let w = base_workload();
    let r = run(SimConfig::default(), EstimatorSpec::paper_successive(), &w);
    check_pinned(
        "fcfs_successive",
        (0x9404_ab49_01a3_c631, 0x457d_defc_4026_dc61),
        &r,
    );
}

/// Pinned digest of the EASY-backfill + successive-estimator run. Pinned
/// *before* the incremental release-table / shadow-cache overhaul so the
/// new backfill path is machine-checked byte-identical to the per-pass
/// rebuild it replaced.
#[test]
fn golden_easy_successive_hash_pinned() {
    let w = base_workload();
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    let r = run(cfg, EstimatorSpec::paper_successive(), &w);
    check_pinned(
        "easy_successive",
        (0xa5e6_18e2_905d_f119, 0x457d_defc_4026_dc61),
        &r,
    );
}

/// Pinned digest of the SJF + successive-estimator run. Pinned *before*
/// the O(queue²) `min_by_key` scan was replaced by the index heap so the
/// `(requested_runtime, queue-order)` tie-break is machine-checked.
#[test]
fn golden_sjf_successive_hash_pinned() {
    let w = base_workload();
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::Sjf);
    let r = run(cfg, EstimatorSpec::paper_successive(), &w);
    check_pinned(
        "sjf_successive",
        (0xe4dc_bc47_2ad5_a974, 0xa77e_dfb1_55fb_32b3),
        &r,
    );
}

/// Pinned digest of EASY backfill with a stateful estimator and explicit
/// feedback: in-queue refreshes interleave with the backfill scan here, so
/// this pins the order of estimator calls, not just of starts.
#[test]
fn golden_easy_lastinstance_hash_pinned() {
    use resmatch_core::last_instance::LastInstanceConfig;
    let w = base_workload();
    let cfg = SimConfig::default()
        .with_scheduling(SchedulingPolicy::EasyBackfill)
        .with_feedback(FeedbackMode::Explicit);
    let r = run(
        cfg,
        EstimatorSpec::LastInstance(LastInstanceConfig::default()),
        &w,
    );
    check_pinned(
        "easy_lastinstance_explicit",
        (0xa316_a849_9a9d_9250, 0xe25a_9a17_45cc_8fad),
        &r,
    );
}

/// Pinned digest of EASY backfill with a Global-scope estimator: the
/// reinforcement policy reads the scheduler context and draws from its
/// own RNG on every `estimate`, so a queued entry's refresh is observable
/// and must stay eager — this pins the order of those calls under the
/// backfill scan. The [`MatchAll`] run renders identically, and its
/// counters pin the allocator calls the hunt makes for such entries.
#[test]
fn golden_easy_reinforcement_hash_pinned() {
    use resmatch_core::reinforcement::ReinforcementConfig;
    let w = base_workload();
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    let spec = EstimatorSpec::Reinforcement(ReinforcementConfig::default());
    let r = run(cfg, spec, &w);
    check_pinned(
        "easy_reinforcement",
        (0xa8e9_f7f9_4fcf_bfb6, 0x46eb_1397_e205_0537),
        &r,
    );
    let r = Simulation::new(cfg, paper_cluster(24), spec)
        .with_matchmaking(Box::new(MatchAll))
        .run(&w);
    check_pinned(
        "easy_reinforcement through MatchAll",
        (0xa8e9_f7f9_4fcf_bfb6, 0x9c45_c878_a8f9_bb9c),
        &r,
    );
}

/// The full-scale trace: the calibrated 122,055-job CM5 workload at its
/// natural offered load (~0.45 against the 1024-node paper cluster), with
/// the full-machine jobs removed — exactly the preprocessing the paper
/// applies and the repro pipeline's default scale.
fn trace_workload() -> Workload {
    let mut w = generate(&Cm5Config::default(), 42);
    w.retain_max_nodes(512);
    w
}

/// Pin the full trace under `policy` twice: with the paper's successive
/// estimator and with pass-through, the no-estimation baseline. The digest
/// covers `completed_jobs` and `events_processed`, so it also holds every
/// job to completion.
fn check_trace_pinned(
    name: &str,
    policy: SchedulingPolicy,
    successive: (u64, u64),
    pass_through: (u64, u64),
) {
    let w = trace_workload();
    let cfg = SimConfig::default().with_scheduling(policy);
    let r = run(cfg, EstimatorSpec::paper_successive(), &w);
    check_pinned(&format!("trace_{name}_successive"), successive, &r);
    let r = run(cfg, EstimatorSpec::PassThrough, &w);
    check_pinned(&format!("trace_{name}_pass_through"), pass_through, &r);
}

/// Pinned digests of the full 122,055-job trace under FCFS. Trace-scale
/// digests are release-only: the debug-build EASY cross-check and slot
/// asserts make a 122k-job run take minutes, and CI exercises these with
/// `cargo test --release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "trace-scale: run under --release")]
fn golden_trace_fcfs_successive_hash_pinned() {
    check_trace_pinned(
        "fcfs",
        SchedulingPolicy::Fcfs,
        (0xdf1e_4942_0b10_fda7, 0x343d_b99b_635a_2af9),
        (0x7775_22e9_baaf_346f, 0x9e1b_31cb_e1b8_40ad),
    );
}

/// Pinned digests of the full trace under SJF.
#[test]
#[cfg_attr(debug_assertions, ignore = "trace-scale: run under --release")]
fn golden_trace_sjf_successive_hash_pinned() {
    check_trace_pinned(
        "sjf",
        SchedulingPolicy::Sjf,
        (0x9efb_45c1_ecc9_8ee1, 0x29e6_5c42_8681_93de),
        (0xbf1f_1fcd_f79a_fffe, 0x9e1b_31cb_e1b8_40ad),
    );
}

/// Pinned digests of the full trace under EASY backfill — the
/// configuration the ≥2M events/sec throughput target is quoted for, so
/// the fast path and the correct path are pinned together.
#[test]
#[cfg_attr(debug_assertions, ignore = "trace-scale: run under --release")]
fn golden_trace_easy_successive_hash_pinned() {
    check_trace_pinned(
        "easy",
        SchedulingPolicy::EasyBackfill,
        (0x1706_9e7d_e28c_d27f, 0x879e_ca5e_3e9d_6237),
        (0x7d92_6f4e_0e40_3f6d, 0x9e1b_31cb_e1b8_40ad),
    );
}

/// The matchmaking seam must be invisible when the matcher constrains
/// nothing: a [`MatchAll`] run renders byte-identically against the same
/// golden files — and digests to the same pinned constants — as the
/// native capacity-only path, under every scheduling policy. This is the
/// proof that `try_allocate_matched` and the matched counting variants
/// walk pools in exactly the historical order.
#[test]
fn golden_matchall_matchmaking_is_byte_identical() {
    let w = base_workload();
    let matched = |cfg: SimConfig| {
        Simulation::new(cfg, paper_cluster(24), EstimatorSpec::paper_successive())
            .with_matchmaking(Box::new(MatchAll))
            .run(&w)
    };

    // The result digests are the native ones; the counters differ from
    // the native runs' by the matcher's attempt and refusal counts.
    let r = matched(SimConfig::default());
    check("fcfs_successive_implicit", &r);
    check_pinned(
        "fcfs_successive through MatchAll",
        (0x9404_ab49_01a3_c631, 0x5723_9a85_ae95_be6c),
        &r,
    );

    let r = matched(SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill));
    check("easy_successive_implicit", &r);
    check_pinned(
        "easy_successive through MatchAll",
        (0xa5e6_18e2_905d_f119, 0x627a_a132_4c39_57ec),
        &r,
    );

    let r = matched(SimConfig::default().with_scheduling(SchedulingPolicy::Sjf));
    check("sjf_successive_implicit", &r);
    check_pinned(
        "sjf_successive through MatchAll",
        (0xe4dc_bc47_2ad5_a974, 0xef7b_f5e9_f3ed_c52a),
        &r,
    );
}

/// Explicit feedback under [`MatchAll`]: the matchmaking-mode feedback
/// path reports the allocation's disk floor instead of the legacy zero,
/// but a memory-only estimator consumes only the memory channel — so the
/// run must still render byte-identically.
#[test]
fn golden_matchall_explicit_feedback_is_byte_identical() {
    let w = base_workload();
    let cfg = SimConfig::default().with_feedback(FeedbackMode::Explicit);
    let r = Simulation::new(cfg, paper_cluster(24), EstimatorSpec::paper_successive())
        .with_matchmaking(Box::new(MatchAll))
        .run(&w);
    check("fcfs_successive_explicit", &r);
}

/// The matchmaking workload and cluster: the 5,000-job trace rescaled to
/// saturating load and enriched with synthetic disk/package attributes,
/// allocated over a split cluster whose 32 MB half carries a finite
/// scratch partition, the licensed package set, and an `Arch` tag.
/// perfbench's `matched_easy` builds the same trace and cluster, and at
/// seed 42 checks the EASY digest pinned below (`0xfc7e_a838_e815_29e6`).
fn matchmaking_workload() -> Workload {
    use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
    let cfg = Cm5Config {
        jobs: 5_000,
        ..Cm5Config::default()
    };
    let mut w = generate(&cfg, 42);
    w.retain_max_nodes(512);
    let mut w = scale_to_load(&w, TOTAL_NODES, 1.0);
    synthesize_attributes(&mut w, &AttrConfig::default(), 42);
    w
}

fn matchmaking_cluster_ads() -> (resmatch_cluster::Cluster, Vec<resmatch_classad::PoolAd>) {
    use resmatch_classad::PoolAd;
    use resmatch_cluster::ClusterBuilder;
    let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
    let small = Capacity::memory(24 * 1024);
    let cluster = ClusterBuilder::new()
        .pool_with(512, big)
        .pool_with(512, small)
        .build();
    let ads = vec![PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)];
    (cluster, ads)
}

/// Forwards every call to `M`, its claims included, and counts `prepare`
/// calls into a shared counter (an `Arc` because `PoolMatcher: Send`).
struct Counting<M> {
    inner: M,
    prepares: Arc<AtomicU64>,
}

impl<M: PoolMatcher> PoolMatcher for Counting<M> {
    fn prepare(&mut self, demand: &Demand) {
        self.prepares.fetch_add(1, Ordering::Relaxed);
        self.inner.prepare(demand);
    }

    fn matches(&mut self, pool: usize, capacity: &Capacity) -> bool {
        self.inner.matches(pool, capacity)
    }

    fn rank(&mut self, pool: usize, capacity: &Capacity) -> f64 {
        self.inner.rank(pool, capacity)
    }

    fn is_ranked(&self) -> bool {
        self.inner.is_ranked()
    }

    fn demand_signature(&self) -> Option<u64> {
        self.inner.demand_signature()
    }

    fn eligible_pools(&self) -> Option<&[u64]> {
        self.inner.eligible_pools()
    }
}

/// Forwards the matching calls to `M` but vouches for nothing: no demand
/// signature and no eligibility bitset. Runs through it take the cluster's
/// per-pool `matches` walks, the counting path without a bitset, with a
/// matcher that really constrains — a path [`MatchAll`] reaches only while
/// constraining nothing.
struct NoClaims<M>(M);

impl<M: PoolMatcher> PoolMatcher for NoClaims<M> {
    fn prepare(&mut self, demand: &Demand) {
        self.0.prepare(demand);
    }

    fn matches(&mut self, pool: usize, capacity: &Capacity) -> bool {
        self.0.matches(pool, capacity)
    }

    fn rank(&mut self, pool: usize, capacity: &Capacity) -> f64 {
        self.0.rank(pool, capacity)
    }

    fn is_ranked(&self) -> bool {
        self.0.is_ranked()
    }
}

/// Run a matchmaking scenario through the matchmaker and through
/// [`NoClaims`] around it, and pin both runs to the same digest, the same
/// counters and the same number of `prepare` calls: what a matcher vouches
/// for may make counting cheaper but must not move an outcome, an
/// allocator call or a matcher call. Every start is an allocator call that
/// was granted, so `started` is `match_attempts − match_refusals`. `churn`
/// adds [`churn_schedule`] over the workload's span.
fn check_matchmaking_pinned(
    name: &str,
    expected: (u64, u64),
    prepares: u64,
    cfg: SimConfig,
    rank: Option<&str>,
    churn: bool,
) {
    let w = matchmaking_workload();
    let churn = if churn {
        churn_schedule(&w)
    } else {
        Vec::new()
    };
    let runs = [false, true].map(|no_claims| {
        let (cluster, ads) = matchmaking_cluster_ads();
        let mut mm = resmatch_classad::Matchmaker::new(&ads);
        if let Some(rank) = rank {
            mm = mm.with_rank(rank).expect("static rank expression");
        }
        let count = Arc::new(AtomicU64::new(0));
        let counting = Counting {
            inner: mm,
            prepares: Arc::clone(&count),
        };
        let matcher: Box<dyn PoolMatcher> = if no_claims {
            Box::new(NoClaims(counting))
        } else {
            Box::new(counting)
        };
        let r = Simulation::new(cfg, cluster, EstimatorSpec::paper_successive())
            .with_matchmaking(matcher)
            .with_churn(churn.clone())
            .run(&w);
        let label = if no_claims {
            format!("{name} through NoClaims")
        } else {
            name.to_string()
        };
        check_pinned(&label, expected, &r);
        let c = r.counters;
        assert!(
            c.match_attempts > 0,
            "{label}: no allocation reached the matcher"
        );
        assert_eq!(
            c.started,
            c.match_attempts - c.match_refusals,
            "{label}: every start is a granted allocator call"
        );
        (c, count.load(Ordering::Relaxed))
    });
    assert_eq!(
        runs[0].0, runs[1].0,
        "{name}: the matcher's claims moved the run counters"
    );
    assert_eq!(
        runs[0].1, runs[1].1,
        "{name}: the matcher's claims moved the prepare calls"
    );
    assert_eq!(
        runs[0].1, prepares,
        "{name}: the engine's `prepare` calls moved from the pinned count"
    );
}

/// Pinned digest of the `matchmaking_fcfs_successive` scenario.
/// All four matchmaking digests were pinned *before* the indexed
/// eligibility / program-specialization rework of the matchmaker's hot
/// path, so the speedup is machine-checked byte-identical to the
/// interpret-per-pool evaluator it replaced (the same pre-pin discipline
/// as the PR-5 engine-cache overhaul).
#[test]
fn golden_matchmaking_fcfs_successive_hash_pinned() {
    check_matchmaking_pinned(
        "matchmaking_fcfs_successive",
        (0x5e30_1bed_f86a_1b1e, 0x41fe_29cb_d364_c7f8),
        19_708,
        SimConfig::default(),
        None,
        false,
    );
}

/// Pinned digest of the `matchmaking_sjf_successive` scenario.
#[test]
fn golden_matchmaking_sjf_successive_hash_pinned() {
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::Sjf);
    check_matchmaking_pinned(
        "matchmaking_sjf_successive",
        (0x5c01_28f4_979e_e207, 0xbea7_f110_529d_8feb),
        18_649,
        cfg,
        None,
        false,
    );
}

/// Pinned digest of the `matchmaking_easy_successive` scenario —
/// the configuration whose shadow walks and backfill hunts hammer the
/// matcher hardest, and the one the throughput work targets first.
#[test]
fn golden_matchmaking_easy_successive_hash_pinned() {
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    check_matchmaking_pinned(
        "matchmaking_easy_successive",
        (0xfc7e_a838_e815_29e6, 0x0c1b_d9af_488f_57d2),
        33_476,
        cfg,
        None,
        false,
    );
}

/// Pinned digest of the `matchmaking_fcfs_ranked` scenario: a
/// machine-side `Rank` turns first-fit into best-fit by memory, covering
/// the candidate-sort path.
#[test]
fn golden_matchmaking_fcfs_ranked_hash_pinned() {
    check_matchmaking_pinned(
        "matchmaking_fcfs_ranked",
        (0x2111_68e7_c6fe_5a69, 0x5614_f446_afcb_3c0e),
        19_697,
        SimConfig::default(),
        Some("other.Memory"),
        false,
    );
}

/// The FCFS matchmaking scenario under [`churn_schedule`]: capacity
/// changes move the structural epoch while the matcher constrains pools.
#[test]
fn golden_matchmaking_fcfs_successive_churn_hash_pinned() {
    check_matchmaking_pinned(
        "matchmaking_fcfs_successive_churn",
        (0xff88_5791_74eb_1e3d, 0x6cdf_fe69_001f_9ac2),
        19_838,
        SimConfig::default(),
        None,
        true,
    );
}

/// The SJF matchmaking scenario under [`churn_schedule`].
#[test]
fn golden_matchmaking_sjf_successive_churn_hash_pinned() {
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::Sjf);
    check_matchmaking_pinned(
        "matchmaking_sjf_successive_churn",
        (0xc424_b024_d927_44a0, 0x9eb4_4724_0203_d3be),
        19_021,
        cfg,
        None,
        true,
    );
}

/// The EASY matchmaking scenario under [`churn_schedule`]: shadow walks
/// and backfill hunts across capacity changes.
#[test]
fn golden_matchmaking_easy_successive_churn_hash_pinned() {
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    check_matchmaking_pinned(
        "matchmaking_easy_successive_churn",
        (0x1651_d2df_8264_df68, 0xa2d3_3de5_cbf4_9e12),
        33_498,
        cfg,
        None,
        true,
    );
}

#[test]
fn golden_fcfs_robust_implicit() {
    use resmatch_core::robust::RobustConfig;
    let w = base_workload();
    let r = run(
        SimConfig::default(),
        EstimatorSpec::Robust(RobustConfig::default()),
        &w,
    );
    check("fcfs_robust_implicit", &r);
}

#[test]
fn golden_fcfs_reinforcement_fault_injection() {
    use resmatch_core::reinforcement::ReinforcementConfig;
    // Exercises the Global scope path (context-dependent estimates, RNG in
    // the estimator) plus the engine's own fault-injection RNG draws.
    let w = base_workload();
    let cfg = SimConfig::default().with_false_positive_rate(0.05);
    let r = run(
        cfg,
        EstimatorSpec::Reinforcement(ReinforcementConfig::default()),
        &w,
    );
    check("fcfs_reinforcement_fault_injection", &r);
}

/// Dynamic membership over `w`'s submit span: half the 24 MB pool leaves
/// at a quarter of the span, a quarter of the 32 MB pool at half, and
/// both return (at three quarters and nine tenths). Every churn golden
/// and pin shares this schedule.
fn churn_schedule(w: &Workload) -> Vec<ChurnEvent> {
    let jobs = w.jobs();
    let t0 = jobs.first().map(|j| j.submit).unwrap_or(Time::ZERO);
    let t1 = jobs.last().map(|j| j.submit).unwrap_or(Time::ZERO);
    let span_ms = t1.saturating_sub(t0).as_millis();
    let at = |frac: f64| t0 + Time::from_millis((span_ms as f64 * frac) as u64);
    vec![
        ChurnEvent {
            time: at(0.25),
            mem_kb: 24 * 1024,
            delta: -256,
        },
        ChurnEvent {
            time: at(0.50),
            mem_kb: 32 * 1024,
            delta: -128,
        },
        ChurnEvent {
            time: at(0.75),
            mem_kb: 24 * 1024,
            delta: 256,
        },
        ChurnEvent {
            time: at(0.90),
            mem_kb: 32 * 1024,
            delta: 128,
        },
    ]
}

#[test]
fn golden_fcfs_successive_churn_with_trace() {
    // Dynamic membership: half the 24 MB pool leaves mid-trace and returns
    // near the end. The trace log is rendered too, pinning every
    // per-decision admission/start/completion — the strictest check here.
    let w = base_workload();
    let r = Simulation::builder()
        .cluster(paper_cluster(24))
        .estimator(EstimatorSpec::paper_successive())
        .churn(churn_schedule(&w))
        .trace_log()
        .build()
        .expect("cluster and estimator are set")
        .run(&w);
    check("fcfs_successive_churn_with_trace", &r);
}

/// Pinned digest of EASY backfill + successive estimation under the churn
/// schedule: membership changes bump the structural epoch, which keys
/// both the shadow cache and every queued estimate's refresh, so this
/// pins the reservation path across capacity changes.
#[test]
fn golden_easy_successive_churn_hash_pinned() {
    let w = base_workload();
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::EasyBackfill);
    let r = Simulation::new(cfg, paper_cluster(24), EstimatorSpec::paper_successive())
        .with_churn(churn_schedule(&w))
        .run(&w);
    check_pinned(
        "easy_successive_churn",
        (0x032a_15ed_3fc6_cd25, 0x8ace_8f48_a3f1_366d),
        &r,
    );
}

/// Pinned digest of SJF + successive estimation under the churn schedule.
#[test]
fn golden_sjf_successive_churn_hash_pinned() {
    let w = base_workload();
    let cfg = SimConfig::default().with_scheduling(SchedulingPolicy::Sjf);
    let r = Simulation::new(cfg, paper_cluster(24), EstimatorSpec::paper_successive())
        .with_churn(churn_schedule(&w))
        .run(&w);
    check_pinned(
        "sjf_successive_churn",
        (0xcb6f_5139_f98a_d036, 0x14de_609f_5bac_31bf),
        &r,
    );
}

#[test]
fn golden_unchanged_under_zero_one_and_stacked_observers() {
    // The observer layer must be invisible to the simulation itself: a
    // fixed-seed run renders byte-identically against the same golden file
    // whether zero, one, or several observers ride along. Only the trace
    // log differs, and only because TraceLogObserver deposits one.
    let w = base_workload();

    // Zero observers (already covered by golden_fcfs_successive_implicit,
    // repeated here so this test stands alone).
    let r = run(SimConfig::default(), EstimatorSpec::paper_successive(), &w);
    check("fcfs_successive_implicit", &r);

    // One observer: counters only — no trace log, so the render is
    // identical to the unobserved golden.
    let counters = CountersObserver::new();
    let observed = Simulation::builder()
        .cluster(paper_cluster(24))
        .estimator(EstimatorSpec::paper_successive())
        .observer(Box::new(counters.clone()))
        .build()
        .unwrap()
        .run(&w);
    check("fcfs_successive_implicit", &observed);
    assert_eq!(counters.snapshot().counters, observed.counters);

    // Stacked: counters + progress (into a captured sink) + trace log.
    let counters = CountersObserver::new();
    let sink_lines = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = {
        let lines = sink_lines.clone();
        move |line: &str| lines.lock().unwrap().push(line.to_string())
    };
    let stacked = Simulation::builder()
        .cluster(paper_cluster(24))
        .estimator(EstimatorSpec::paper_successive())
        .observer(Box::new(counters.clone()))
        .observer(Box::new(
            ProgressObserver::new("golden", 500).with_sink(sink),
        ))
        .trace_log()
        .build()
        .unwrap()
        .run(&w);
    // The trace-log render of the same run is pinned by its own golden.
    check("fcfs_successive_trace", &stacked);
    assert_eq!(counters.snapshot().counters, stacked.counters);
    assert!(
        !sink_lines.lock().unwrap().is_empty(),
        "progress observer must have emitted at least one line"
    );

    // And modulo the log, the stacked run equals the unobserved one.
    let mut quiet = stacked.clone();
    quiet.trace_log = TraceLog::default();
    assert_eq!(quiet, r);
}
