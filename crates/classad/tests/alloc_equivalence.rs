//! Property test: driving `Cluster::try_allocate_matched` with a
//! constraint-free [`Matchmaker`] reproduces the native allocator's
//! decisions *exactly* — same grants, same refusals, same per-pool segments
//! in the same order — across random clusters, demand streams, and interleaved
//! releases. This is the contract that lets the simulator route every
//! allocation through the matchmaking seam without a legacy fork.

use proptest::prelude::*;
use resmatch_classad::Matchmaker;
use resmatch_cluster::{
    Allocation, Capacity, Cluster, ClusterBuilder, Demand, MatchPolicy, PoolMatcher,
};

/// Deterministic splitmix64 stream: the proptest input is one seed, the
/// operation sequence is derived (vendored proptest has no recursive or
/// filtered strategies, and one u64 shrinks better than forty).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn build_cluster(rng: &mut u64) -> Cluster {
    let pools = 2 + (next(rng) % 4) as usize;
    let mut b = ClusterBuilder::new();
    for _ in 0..pools {
        let nodes = 1 + (next(rng) % 8) as u32;
        let mem = 1024 * (1 + next(rng) % 32);
        // Mix unconstrained-disk pools with finite ones, and vary the
        // package mask so eligibility genuinely differs per pool.
        let capacity = if next(rng).is_multiple_of(2) {
            Capacity::memory(mem)
        } else {
            Capacity::new(mem, 1024 * (1 + next(rng) % 16), (next(rng) % 16) as u32)
        };
        b = b.pool_with(nodes, capacity);
    }
    b.build()
}

fn random_demand(rng: &mut u64) -> Demand {
    Demand {
        mem_kb: 1024 * (1 + next(rng) % 32),
        disk_kb: if next(rng).is_multiple_of(2) {
            0
        } else {
            1024 * (next(rng) % 20)
        },
        packages: (next(rng) % 16) as u32,
    }
}

proptest! {
    #[test]
    fn constraint_free_matchmaker_reproduces_native_allocations(
        seed in any::<u64>(),
        policy_sel in 0u8..3,
    ) {
        let policy = match policy_sel {
            0 => MatchPolicy::FirstFit,
            1 => MatchPolicy::BestFit,
            _ => MatchPolicy::WorstFit,
        };
        let mut rng = seed;
        let mut native = build_cluster(&mut rng);
        let mut matched = native.clone();
        let mut mm = Matchmaker::from_cluster(&native);

        let mut live_native: Vec<Allocation> = Vec::new();
        let mut live_matched: Vec<Allocation> = Vec::new();
        let mut token = 0u64;

        for _ in 0..60 {
            if next(&mut rng).is_multiple_of(3) && !live_native.is_empty() {
                // Release the same (randomly chosen) grant from both.
                let i = (next(&mut rng) as usize) % live_native.len();
                native.release(live_native.swap_remove(i));
                matched.release(live_matched.swap_remove(i));
                continue;
            }
            let demand = random_demand(&mut rng);
            let count = 1 + (next(&mut rng) % 6) as u32;

            // Counting agreement, before any mutation.
            mm.prepare(&demand);
            prop_assert_eq!(
                native.free_nodes_satisfying(&demand),
                matched.free_nodes_satisfying_matched(&demand, &mut mm),
            );
            prop_assert_eq!(
                native.nodes_satisfying(&demand),
                matched.nodes_satisfying_matched(&demand, &mut mm),
            );

            let a = native.try_allocate(count, &demand, policy, token);
            mm.prepare(&demand);
            let b = matched.try_allocate_matched(count, &demand, policy, token, &mut mm);
            token += 1;
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.per_pool(), b.per_pool(), "pool draw order diverged");
                    prop_assert_eq!(
                        native.allocation_min_mem(&a),
                        matched.allocation_min_mem(&b)
                    );
                    prop_assert_eq!(
                        native.allocation_min_disk(&a),
                        matched.allocation_min_disk(&b)
                    );
                    live_native.push(a);
                    live_matched.push(b);
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "grant/refusal diverged: native={:?} matched={:?}",
                        a.is_some(),
                        b.is_some()
                    )));
                }
            }
            prop_assert_eq!(native.free_nodes(), matched.free_nodes());
        }
    }
}
