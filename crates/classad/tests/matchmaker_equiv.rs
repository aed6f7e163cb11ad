//! Property test: the indexed [`Matchmaker`] is *extensionally equal* to
//! the tree-walking ClassAd evaluator. For random pool tables
//! (capacities, arch tags), demand streams, and operator constraint/rank
//! expressions — machine-only and job-reading alike — every per-pool
//! verdict, every rank on a matched pool, and every published eligibility
//! bit must agree with evaluating the generated ads directly via
//! [`resmatch_classad::matches`]/[`resmatch_classad::rank`].
//!
//! This is the oracle that licenses the bitset index: the index never
//! answers a question differently from the ads themselves. It is also the
//! only check that the bridge's `Requirements` keep the canonical
//! threshold shape the index implements (memory and disk thresholds plus
//! one package flag per mask bit); nothing re-checks it at run time.

use proptest::prelude::*;
use resmatch_classad::bridge::{job_ad, machine_ad};
use resmatch_classad::{matches, rank, ClassAd, Matchmaker, PoolAd};
use resmatch_cluster::{Capacity, Demand, PoolMatcher};

/// Deterministic splitmix64 stream (same idiom as `alloc_equivalence`):
/// one shrinkable u64 seed derives the whole scenario.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const ARCHES: [&str; 3] = ["x86", "sparc", "cm5"];

fn random_pools(rng: &mut u64) -> Vec<PoolAd> {
    let n = 1 + (next(rng) % 6) as usize;
    (0..n)
        .map(|_| {
            // Capacities drawn from a small rung set so demands genuinely
            // tie, straddle, and exceed pool thresholds.
            let mem = 1024 * (next(rng) % 33);
            let capacity = if next(rng).is_multiple_of(2) {
                Capacity::memory(mem)
            } else {
                Capacity::new(mem, 512 * (next(rng) % 9), (next(rng) % 16) as u32)
            };
            let ad = PoolAd::new(capacity);
            match next(rng) % 4 {
                0 => ad,
                i => ad.with_arch(ARCHES[(i - 1) as usize]),
            }
        })
        .collect()
}

fn random_demand(rng: &mut u64) -> Demand {
    Demand {
        mem_kb: 1024 * (next(rng) % 34),
        disk_kb: 512 * (next(rng) % 10),
        packages: (next(rng) % 16) as u32,
    }
}

/// The machine ad the matchmaker sees for a pool, arch tag included.
fn pool_machine_ad(pool: &PoolAd) -> ClassAd {
    let mut ad = machine_ad(&pool.capacity);
    if let Some(arch) = &pool.arch {
        ad.insert_str("Arch", arch);
    }
    ad
}

/// Tree-walk oracle for one (job, constraint, machine) triple: the
/// symmetric ad match, with the operator constraint conjoined on the job
/// side — exactly `true` or no match, like any requirement.
fn oracle_matches(job: &ClassAd, machine: &ClassAd, constraint: Option<&str>) -> bool {
    let base = matches(job, machine).unwrap_or(false);
    let extra = constraint.is_none_or(|text| {
        let mut probe = job.clone();
        probe
            .insert_expr("OpConstraint", text)
            .expect("template parses");
        probe
            .evaluate("OpConstraint", Some(machine))
            .map(|v| v.is_true())
            .unwrap_or(false)
    });
    base && extra
}

/// Tree-walk oracle for a rank value (my = job, other = machine).
fn oracle_rank(job: &ClassAd, machine: &ClassAd, text: &str) -> f64 {
    let mut probe = job.clone();
    probe.insert_expr("Rank", text).expect("template parses");
    rank(&probe, machine).unwrap_or(0.0)
}

/// Constraint templates: none, machine-only (foldable into the static bit
/// row), and job-reading (evaluated per signature). `Requirements`
/// references and unqualified names read the job ad under the tree
/// walk's scoping, so they must not be folded as machine-only.
const CONSTRAINTS: [Option<&str>; 8] = [
    None,
    Some("other.Memory >= 8192"),
    Some("other.Arch == \"x86\""),
    Some("my.RequestedMemory * 2 <= other.Memory"),
    Some("my.RequestedDisk <= other.Disk && other.Memory > 0"),
    Some("other.Requirements"),
    Some("Requirements && Memory > 8192"),
    Some("RequestedMemory * 2 <= Memory"),
];

/// Rank templates: none, machine-only (per-pool memo), job-reading
/// (per-signature memo on matched pools).
const RANKS: [Option<&str>; 5] = [
    None,
    Some("other.Memory"),
    Some("other.Memory - my.RequestedMemory"),
    Some("other.Requirements"),
    Some("Memory - RequestedMemory"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn indexed_matcher_equals_tree_walking_ads(
        seed in any::<u64>(),
        constraint_sel in 0usize..CONSTRAINTS.len(),
        rank_sel in 0usize..RANKS.len(),
    ) {
        let mut rng = seed;
        let pools = random_pools(&mut rng);
        let constraint = CONSTRAINTS[constraint_sel];
        let rank_text = RANKS[rank_sel];

        let mut mm = Matchmaker::new(&pools);
        if let Some(text) = constraint {
            mm = mm.with_constraint(text).expect("template parses");
        }
        if let Some(text) = rank_text {
            mm = mm.with_rank(text).expect("template parses");
        }
        let machine_ads: Vec<ClassAd> = pools.iter().map(pool_machine_ad).collect();

        for _ in 0..24 {
            let demand = random_demand(&mut rng);
            let job = job_ad(&demand);
            mm.prepare(&demand);
            let bits = mm.eligible_pools().expect("matchmaker always indexes").to_vec();
            for (p, pool) in pools.iter().enumerate() {
                let want = oracle_matches(&job, &machine_ads[p], constraint);
                prop_assert_eq!(
                    mm.matches(p, &pool.capacity),
                    want,
                    "verdict: pool {} {:?}, demand {:?}",
                    p, pool.capacity, demand
                );
                prop_assert_eq!(
                    bits[p >> 6] >> (p & 63) & 1 != 0,
                    want,
                    "published bit: pool {}, demand {:?}",
                    p, demand
                );
                // Ranks are only defined on matched pools (the allocator
                // ranks candidates, which matched by construction).
                if let (true, Some(text)) = (want, rank_text) {
                    prop_assert_eq!(
                        mm.rank(p, &pool.capacity),
                        oracle_rank(&job, &machine_ads[p], text),
                        "rank: pool {}, demand {:?}",
                        p, demand
                    );
                }
            }
        }
    }
}
