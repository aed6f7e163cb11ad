//! Property-based tests for the cluster substrate: allocation conservation
//! and ladder-rounding correctness under arbitrary operation sequences.

use proptest::prelude::*;
use resmatch_cluster::{Allocation, CapacityLadder, Cluster, ClusterBuilder, Demand, MatchPolicy};

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
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..40, 1u64..40_000).prop_map(|(count, mem_kb)| Op::Alloc { count, mem_kb }),
            Just(Op::ReleaseOldest),
        ],
        1..120,
    )
}

fn build_cluster() -> Cluster {
    ClusterBuilder::new()
        .pool(32, 32 * 1024)
        .pool(32, 24 * 1024)
        .pool(16, 8 * 1024)
        .build()
}

proptest! {
    #[test]
    fn allocation_conserves_nodes(ops in arb_ops(), policy in arb_policy()) {
        let mut cluster = build_cluster();
        let total = cluster.total_nodes();
        let mut held: Vec<Allocation> = Vec::new();
        let mut held_nodes = 0u32;
        for (token, op) in ops.into_iter().enumerate() {
            match op {
                Op::Alloc { count, mem_kb } => {
                    let demand = Demand::memory(mem_kb);
                    let eligible_free = cluster.free_nodes_satisfying(&demand);
                    match cluster.try_allocate(count, &demand, policy, token as u64) {
                        Some(alloc) => {
                            prop_assert!(eligible_free >= count, "granted without capacity");
                            prop_assert_eq!(alloc.nodes().len() as u32, count);
                            // Every granted node satisfies the demand.
                            for &n in alloc.nodes() {
                                prop_assert!(cluster.node_capacity(n).satisfies(&demand));
                            }
                            held_nodes += count;
                            held.push(alloc);
                        }
                        None => {
                            prop_assert!(eligible_free < count, "refused despite capacity");
                        }
                    }
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        let alloc = held.remove(0);
                        held_nodes -= alloc.nodes().len() as u32;
                        cluster.release(alloc);
                    }
                }
            }
            prop_assert_eq!(cluster.free_nodes() + held_nodes, total);
            prop_assert_eq!(cluster.busy_nodes(), held_nodes);
        }
        // Drain and verify full recovery.
        for alloc in held {
            cluster.release(alloc);
        }
        prop_assert_eq!(cluster.free_nodes(), total);
    }

    #[test]
    fn no_node_double_allocated(ops in arb_ops(), policy in arb_policy()) {
        let mut cluster = build_cluster();
        let mut held: Vec<Allocation> = Vec::new();
        let mut busy = std::collections::BTreeSet::new();
        for (token, op) in ops.into_iter().enumerate() {
            match op {
                Op::Alloc { count, mem_kb } => {
                    if let Some(alloc) =
                        cluster.try_allocate(count, &Demand::memory(mem_kb), policy, token as u64)
                    {
                        for &n in alloc.nodes() {
                            prop_assert!(busy.insert(n), "node {} granted twice", n);
                        }
                        held.push(alloc);
                    }
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        let alloc = held.remove(0);
                        for n in alloc.nodes() {
                            busy.remove(n);
                        }
                        cluster.release(alloc);
                    }
                }
            }
        }
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
        for &n in alloc.nodes() {
            prop_assert_eq!(cluster.node_capacity(n).mem_kb, 8 * 1024);
        }
        cluster.release(alloc);
    }
}
