//! Property-based tests for the cluster substrate: node conservation under
//! arbitrary allocate/release/churn sequences, and ladder-rounding
//! correctness.

use proptest::prelude::*;
use resmatch_cluster::{
    Allocation, Capacity, CapacityLadder, Cluster, ClusterBuilder, Demand, MatchPolicy, PoolMatcher,
};

fn arb_policy() -> impl Strategy<Value = MatchPolicy> {
    prop_oneof![
        Just(MatchPolicy::FirstFit),
        Just(MatchPolicy::BestFit),
        Just(MatchPolicy::WorstFit),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Alloc { count: u32, mem_kb: u64 },
    ReleaseOldest,
    TakeOffline { pool: usize, count: u32 },
    BringOnline { pool: usize, count: u32 },
}

/// `(nodes, memory KB)` per pool, in construction order; memories are
/// distinct, so a churn op on one memory touches exactly one pool.
const POOLS: [(u32, u64); 3] = [(32, 32 * 1024), (32, 24 * 1024), (16, 8 * 1024)];

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..40, 1u64..40_000).prop_map(|(count, mem_kb)| Op::Alloc { count, mem_kb }),
            Just(Op::ReleaseOldest),
            (0..POOLS.len(), 1u32..12).prop_map(|(pool, count)| Op::TakeOffline { pool, count }),
            (0..POOLS.len(), 1u32..12).prop_map(|(pool, count)| Op::BringOnline { pool, count }),
        ],
        1..120,
    )
}

fn build_cluster() -> Cluster {
    POOLS
        .iter()
        .fold(ClusterBuilder::new(), |b, &(nodes, mem_kb)| {
            b.pool(nodes, mem_kb)
        })
        .build()
}

/// Accepts the pools whose bit is set in `mask`. With `indexed` it also
/// publishes the mask as its eligibility bitset, so a case counts through
/// either the bitset or the per-pool `matches` walk.
#[derive(Debug, Clone, Copy)]
struct PoolMask {
    mask: [u64; 1],
    indexed: bool,
}

impl PoolMatcher for PoolMask {
    fn matches(&mut self, pool: usize, _capacity: &Capacity) -> bool {
        self.mask[0] >> pool & 1 != 0
    }

    fn eligible_pools(&self) -> Option<&[u64]> {
        self.indexed.then_some(&self.mask[..])
    }
}

/// Nodes the held allocations drew from each pool.
fn held_per_pool(held: &[Allocation]) -> [u32; POOLS.len()] {
    let mut per_pool = [0; POOLS.len()];
    for &(pi, n) in held.iter().flat_map(Allocation::per_pool) {
        per_pool[pi as usize] += n;
    }
    per_pool
}

proptest! {
    #[test]
    fn allocation_conserves_nodes(
        ops in arb_ops(),
        policy in arb_policy(),
        mask in 0u64..1 << POOLS.len(),
        indexed in any::<bool>(),
        first in (1u32..40, 1u64..40_000),
    ) {
        let mut cluster = build_cluster();
        let total = cluster.total_nodes();
        let mut held: Vec<Allocation> = Vec::new();
        let mut offline = [0u32; POOLS.len()];
        let mut matcher = PoolMask { mask: [mask], indexed };
        // The last allocation's count and demand; churn and release ops
        // are checked against it too.
        let (mut probe_count, mut probe) = (first.0, Demand::memory(first.1));
        for (token, op) in ops.into_iter().enumerate() {
            match op {
                Op::Alloc { count, mem_kb } => {
                    let demand = Demand::memory(mem_kb);
                    (probe_count, probe) = (count, demand);
                    let eligible_free = cluster.free_nodes_satisfying(&demand);
                    match cluster.try_allocate(count, &demand, policy, token as u64) {
                        Some(alloc) => {
                            prop_assert!(eligible_free >= count, "granted without capacity");
                            let granted: u32 = alloc.per_pool().iter().map(|&(_, n)| n).sum();
                            prop_assert_eq!(granted, count);
                            // Every segment's pool satisfies the demand.
                            for &(pi, _) in alloc.per_pool() {
                                prop_assert!(cluster.pool_capacity(pi as usize).satisfies(&demand));
                            }
                            held.push(alloc);
                        }
                        None => {
                            prop_assert!(eligible_free < count, "refused despite capacity");
                        }
                    }
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        cluster.release(held.remove(0));
                    }
                }
                Op::TakeOffline { pool, count } => {
                    // Only free nodes leave.
                    let free = POOLS[pool].0 - offline[pool] - held_per_pool(&held)[pool];
                    let taken = cluster.take_offline(POOLS[pool].1, count);
                    prop_assert_eq!(taken, count.min(free));
                    offline[pool] += taken;
                }
                Op::BringOnline { pool, count } => {
                    let restored = cluster.bring_online(POOLS[pool].1, count);
                    prop_assert_eq!(restored, count.min(offline[pool]));
                    offline[pool] -= restored;
                }
            }
            // Per pool, free + offline + held == total: the pool's busy
            // count is exactly what the held segments drew from it, so no
            // node is double-booked.
            let held_now = held_per_pool(&held);
            let occupancy = cluster.pool_occupancy();
            for (pi, &(nodes, mem_kb)) in POOLS.iter().enumerate() {
                prop_assert_eq!(occupancy[pi], (mem_kb, nodes, held_now[pi]));
                prop_assert_eq!(cluster.pool_busy_count(pi), held_now[pi]);
            }
            let held_nodes: u32 = held_now.iter().sum();
            prop_assert_eq!(cluster.offline_nodes(), offline.iter().sum::<u32>());
            prop_assert_eq!(cluster.free_nodes() + cluster.offline_nodes() + held_nodes, total);
            prop_assert_eq!(cluster.busy_nodes(), held_nodes);
            // The bound the EASY backfill hunt refuses on before it asks
            // the matcher: eligible free nodes never exceed free nodes, so
            // no count above the free total can be granted.
            matcher.prepare(&probe);
            let matched = cluster.free_nodes_satisfying_matched(&probe, &mut matcher);
            let satisfying = cluster.free_nodes_satisfying(&probe);
            prop_assert!(matched <= satisfying, "{} matched > {} satisfying", matched, satisfying);
            prop_assert!(satisfying <= cluster.free_nodes());
            let over = probe_count.max(cluster.free_nodes() + 1);
            prop_assert!(
                cluster
                    .try_allocate_matched(over, &probe, policy, u64::MAX, &mut matcher)
                    .is_none(),
                "granted {} nodes with {} free", over, cluster.free_nodes()
            );
        }
        // Drain and verify full recovery.
        for alloc in held {
            cluster.release(alloc);
        }
        prop_assert_eq!(cluster.busy_nodes(), 0);
        prop_assert_eq!(cluster.free_nodes() + cluster.offline_nodes(), total);
    }

    #[test]
    fn round_up_matches_naive(caps in prop::collection::vec(1u64..100_000, 1..20), x in 0u64..120_000) {
        let ladder = CapacityLadder::new(caps.clone());
        let naive = caps.iter().copied().filter(|&c| c >= x).min();
        prop_assert_eq!(ladder.round_up(x), naive);
    }

    #[test]
    fn round_down_matches_naive(caps in prop::collection::vec(1u64..100_000, 1..20), x in 0u64..120_000) {
        let ladder = CapacityLadder::new(caps.clone());
        let naive = caps.iter().copied().filter(|&c| c <= x).max();
        prop_assert_eq!(ladder.round_down(x), naive);
    }

    #[test]
    fn best_fit_never_uses_larger_pool_than_needed(
        count in 1u32..16,
        mem_kb in 1u64..8_193,
    ) {
        // Demand fits entirely in the 8 MB pool (16 nodes): best-fit must
        // grant only 8 MB nodes while they suffice.
        let mut cluster = build_cluster();
        let alloc = cluster
            .try_allocate(count, &Demand::memory(mem_kb), MatchPolicy::BestFit, 1)
            .expect("capacity available");
        prop_assert_eq!(alloc.per_pool(), &[(2, count)]);
        cluster.release(alloc);
    }
}
