//! The cluster proper: node pools, allocation, and match policies.
//!
//! Nodes with identical capacities form *pools*, and the nodes of one pool
//! are interchangeable: the cluster keeps each pool as counts (total,
//! free, offline) and an [`Allocation`] as the `(pool, count)` segments it
//! drew, never as node ids. Allocation draws `min(remaining, free)` from
//! each eligible pool in a policy-determined order, so `try_allocate`,
//! `release` and churn are O(#pools) arithmetic — a cluster has thousands
//! of nodes but a handful of distinct capacities — which matters because
//! the simulator retries the queue head on every completion event. The
//! pool visitation order for each [`MatchPolicy`] is precomputed at
//! construction, so `try_allocate` never allocates or sorts.

use serde::{Deserialize, Serialize};

use crate::ladder::CapacityLadder;
use crate::matchmaking::PoolMatcher;
use crate::resources::{Capacity, Demand};

/// How eligible pools are ordered when a job can run on more than one kind
/// of node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchPolicy {
    /// Pools in construction order.
    FirstFit,
    /// Smallest sufficient memory first — preserves large-memory nodes for
    /// jobs that need them, the natural choice for the paper's scenario
    /// (§1.1: J1 should not squat on M1 when M2 suffices).
    BestFit,
    /// Largest memory first.
    WorstFit,
}

/// The nodes of one capacity, as counts: every node is free, offline
/// (dynamically departed) or busy.
#[derive(Debug, Clone)]
struct Pool {
    capacity: Capacity,
    total: u32,
    free: u32,
    offline: u32,
}

impl Pool {
    /// Nodes held by allocations.
    #[inline]
    fn busy(&self) -> u32 {
        self.total - self.free - self.offline
    }

    /// Nodes in the cluster, free or busy.
    #[inline]
    fn online(&self) -> u32 {
        self.total - self.offline
    }
}

/// A granted set of nodes, as the `(pool, count)` segments it drew. Must
/// be handed back via [`Cluster::release`]; passing by value makes
/// double-release a move error instead of a runtime bug.
#[derive(Debug, PartialEq, Eq)]
pub struct Allocation {
    per_pool: Vec<(u16, u32)>,
    token: u64,
}

impl Allocation {
    /// `(pool index, nodes granted from it)` in draw order — all there is
    /// to a grant, since the nodes of one pool are interchangeable. Pool
    /// queries (weakest node, common packages, eligible counts) read it.
    #[inline]
    pub fn per_pool(&self) -> &[(u16, u32)] {
        &self.per_pool
    }

    /// The caller-supplied token (typically the job id).
    #[inline]
    pub fn token(&self) -> u64 {
        self.token
    }
}

/// Bit `i` of a pool-index bitset as handed out by
/// [`PoolMatcher::eligible_pools`]; words beyond the slice read as zero.
#[inline]
fn pool_bit(bits: &[u64], i: usize) -> bool {
    bits.get(i >> 6).is_some_and(|w| (w >> (i & 63)) & 1 != 0)
}

/// Draw `count` nodes from the pools `order` lists that `eligible`
/// accepts, `min(remaining, free)` from each in turn, appending the
/// segments to `per_pool`. The caller has checked that enough are free.
fn draw(
    pools: &mut [Pool],
    order: impl IntoIterator<Item = u16>,
    eligible: impl Fn(&Pool) -> bool,
    count: u32,
    per_pool: &mut Vec<(u16, u32)>,
) {
    let mut remaining = count;
    for pi in order {
        if remaining == 0 {
            break;
        }
        let pool = &mut pools[pi as usize];
        let here = remaining.min(pool.free);
        if here > 0 && eligible(pool) {
            pool.free -= here;
            per_pool.push((pi, here));
            remaining -= here;
        }
    }
    debug_assert_eq!(remaining, 0, "availability was checked first");
}

/// A cluster's retired-allocation buffer pool — one emptied segment vector
/// per retired allocation — detached so it can hop between cluster
/// instances (sweeps clone a fresh cluster per point but want the buffers
/// warm from the first point on). Opaque: the only useful things to do
/// with one are [`Cluster::take_spare`] and [`Cluster::install_spare`].
#[derive(Debug, Default)]
pub struct AllocationSpare(Vec<Vec<(u16, u32)>>);

/// A space-shared heterogeneous cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    pools: Vec<Pool>,
    total_count: u32,
    free_count: u32,
    /// Kept next to `free_count` so [`Cluster::busy_nodes`], read on every
    /// simulator event, stays O(1).
    offline_count: u32,
    /// Pool visitation order per match policy, indexed by `policy as
    /// usize` and fixed at construction.
    orders: [Vec<u16>; 3],
    /// Retired allocation buffers, reused by the next `try_allocate` so a
    /// steady-state simulation allocates no fresh vectors per execution.
    spare: Vec<Vec<(u16, u32)>>,
    /// Candidate-pool scratch for `try_allocate_matched`, reused across
    /// calls for the same reason as `spare`.
    match_scratch: Vec<(u16, f64)>,
}

impl Cluster {
    /// Build from `(count, capacity)` pool specs. Prefer
    /// [`crate::builder::ClusterBuilder`].
    ///
    /// # Panics
    /// Panics when no nodes are specified, when the node counts sum past
    /// `u32::MAX`, or when pool count exceeds `u16` pools.
    pub fn from_pools(specs: &[(u32, Capacity)]) -> Self {
        let total = specs
            .iter()
            .try_fold(0u32, |sum, &(n, _)| sum.checked_add(n));
        assert!(total.is_some(), "a cluster holds at most u32::MAX nodes");
        let total = total.unwrap_or_default();
        assert!(total > 0, "a cluster needs at least one node");
        assert!(u16::try_from(specs.len()).is_ok(), "too many pools");
        let pools: Vec<Pool> = specs
            .iter()
            .map(|&(count, capacity)| Pool {
                capacity,
                total: count,
                free: count,
                offline: 0,
            })
            .collect();
        let first: Vec<u16> = (0..pools.len() as u16).collect();
        let key = |&i: &u16| {
            let c = pools[i as usize].capacity;
            (c.mem_kb, c.disk_kb, c.packages.count_ones())
        };
        let mut best = first.clone();
        best.sort_by_key(key);
        let mut worst = first.clone();
        worst.sort_by_key(|i| std::cmp::Reverse(key(i)));
        Cluster {
            pools,
            total_count: total,
            free_count: total,
            offline_count: 0,
            orders: [first, best, worst],
            spare: Vec::new(),
            match_scratch: Vec::new(),
        }
    }

    /// Total number of nodes.
    #[inline]
    pub fn total_nodes(&self) -> u32 {
        self.total_count
    }

    /// Currently free nodes.
    #[inline]
    pub fn free_nodes(&self) -> u32 {
        self.free_count
    }

    /// Currently busy nodes. Offline nodes are neither free nor busy.
    #[inline]
    pub fn busy_nodes(&self) -> u32 {
        self.total_count - self.free_count - self.offline_count
    }

    /// Free nodes whose capacity satisfies `demand`.
    pub fn free_nodes_satisfying(&self, demand: &Demand) -> u32 {
        self.pools
            .iter()
            .filter(|p| p.capacity.satisfies(demand))
            .map(|p| p.free)
            .sum()
    }

    /// Currently *online* nodes (free or busy) whose capacity satisfies
    /// `demand` — the job's candidate-machine count, the quantity the
    /// paper's Figure 8 analysis counts for "benefiting" jobs.
    pub fn nodes_satisfying(&self, demand: &Demand) -> u32 {
        self.pools
            .iter()
            .filter(|p| p.capacity.satisfies(demand))
            .map(Pool::online)
            .sum()
    }

    /// Nodes currently offline (dynamically departed).
    #[inline]
    pub fn offline_nodes(&self) -> u32 {
        self.offline_count
    }

    /// Dynamically remove up to `count` *free* nodes of memory capacity
    /// `mem_kb` from the cluster (the paper's "machines can dynamically
    /// join and leave the systems at any time"). Busy nodes are never
    /// revoked — leaves take effect as nodes drain. Returns how many nodes
    /// actually left.
    pub fn take_offline(&mut self, mem_kb: u64, count: u32) -> u32 {
        let mut taken = 0;
        for pool in self
            .pools
            .iter_mut()
            .filter(|p| p.capacity.mem_kb == mem_kb)
        {
            let here = (count - taken).min(pool.free);
            pool.free -= here;
            pool.offline += here;
            taken += here;
        }
        self.free_count -= taken;
        self.offline_count += taken;
        taken
    }

    /// Bring up to `count` previously departed nodes of memory capacity
    /// `mem_kb` back online. Returns how many rejoined.
    pub fn bring_online(&mut self, mem_kb: u64, count: u32) -> u32 {
        let mut restored = 0;
        for pool in self
            .pools
            .iter_mut()
            .filter(|p| p.capacity.mem_kb == mem_kb)
        {
            let here = (count - restored).min(pool.offline);
            pool.offline -= here;
            pool.free += here;
            restored += here;
        }
        self.offline_count -= restored;
        self.free_count += restored;
        restored
    }

    /// The distinct memory capacities, as a ladder for Algorithm 1.
    pub fn memory_ladder(&self) -> CapacityLadder {
        CapacityLadder::new(self.pools.iter().map(|p| p.capacity.mem_kb).collect())
    }

    /// Try to allocate `count` nodes, each satisfying `demand`, for
    /// `token`. Returns `None` — allocating nothing — when fewer than
    /// `count` eligible nodes are free.
    pub fn try_allocate(
        &mut self,
        count: u32,
        demand: &Demand,
        policy: MatchPolicy,
        token: u64,
    ) -> Option<Allocation> {
        if self.free_nodes_satisfying(demand) < count {
            return None;
        }
        // Ineligible pools are skipped in the precomputed visit order,
        // which yields the sequence a filter-then-sort of eligible pools
        // would.
        let mut per_pool = self.spare.pop().unwrap_or_default();
        draw(
            &mut self.pools,
            self.orders[policy as usize].iter().copied(),
            |pool| pool.capacity.satisfies(demand),
            count,
            &mut per_pool,
        );
        self.free_count -= count;
        Some(Allocation { per_pool, token })
    }

    /// [`Cluster::try_allocate`] with a [`PoolMatcher`] intersected into
    /// pool eligibility: a pool is a candidate only when its capacity
    /// satisfies `demand` *and* the matcher accepts it. When the matcher
    /// ranks, candidates are reordered by descending rank (stable, so ties
    /// keep `policy` order) before nodes are drawn; otherwise pure policy
    /// order is kept and — for a matcher accepting every pool — the result
    /// is identical to the native path.
    ///
    /// The caller is expected to have [`PoolMatcher::prepare`]d the matcher
    /// for `demand`.
    pub fn try_allocate_matched<M: PoolMatcher + ?Sized>(
        &mut self,
        count: u32,
        demand: &Demand,
        policy: MatchPolicy,
        token: u64,
        matcher: &mut M,
    ) -> Option<Allocation> {
        if count == 0 {
            // Granted without consulting the matcher.
            return Some(Allocation {
                per_pool: Vec::new(),
                token,
            });
        }
        // One pass gathers eligibility, availability, and (when wanted)
        // rank, so each pool's ads are evaluated at most once per attempt.
        let ranked = matcher.is_ranked();
        let mut candidates = std::mem::take(&mut self.match_scratch);
        candidates.clear();
        let mut available: u32 = 0;
        for &pi in &self.orders[policy as usize] {
            let pool = &self.pools[pi as usize];
            if !pool.capacity.satisfies(demand) || !matcher.matches(pi as usize, &pool.capacity) {
                continue;
            }
            available += pool.free;
            let rank = if ranked {
                matcher.rank(pi as usize, &pool.capacity)
            } else {
                0.0
            };
            candidates.push((pi, rank));
        }
        if available < count {
            self.match_scratch = candidates;
            return None;
        }
        if ranked {
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
        }
        let mut per_pool = self.spare.pop().unwrap_or_default();
        draw(
            &mut self.pools,
            candidates.iter().map(|&(pi, _)| pi),
            |_| true,
            count,
            &mut per_pool,
        );
        self.free_count -= count;
        self.match_scratch = candidates;
        Some(Allocation { per_pool, token })
    }

    /// Free nodes in pools that satisfy `demand` *and* are accepted by
    /// `matcher` — the matched counterpart of
    /// [`Cluster::free_nodes_satisfying`]. The caller is expected to have
    /// [`PoolMatcher::prepare`]d the matcher for `demand`.
    ///
    /// When the matcher exposes a precomputed eligibility bitset
    /// ([`PoolMatcher::eligible_pools`]) the walk tests bits locally —
    /// one virtual call per *count* instead of one per pool.
    pub fn free_nodes_satisfying_matched<M: PoolMatcher + ?Sized>(
        &self,
        demand: &Demand,
        matcher: &mut M,
    ) -> u32 {
        if let Some(bits) = matcher.eligible_pools() {
            return self
                .pools
                .iter()
                .enumerate()
                .filter(|(pi, p)| pool_bit(bits, *pi) && p.capacity.satisfies(demand))
                .map(|(_, p)| p.free)
                .sum();
        }
        self.pools
            .iter()
            .enumerate()
            .filter(|(pi, p)| p.capacity.satisfies(demand) && matcher.matches(*pi, &p.capacity))
            .map(|(_, p)| p.free)
            .sum()
    }

    /// Online (free or busy) nodes in pools that satisfy `demand` *and* are
    /// accepted by `matcher` — the matched counterpart of
    /// [`Cluster::nodes_satisfying`], used for admission feasibility. The
    /// caller is expected to have [`PoolMatcher::prepare`]d the matcher for
    /// `demand`.
    pub fn nodes_satisfying_matched<M: PoolMatcher + ?Sized>(
        &self,
        demand: &Demand,
        matcher: &mut M,
    ) -> u32 {
        if let Some(bits) = matcher.eligible_pools() {
            return self
                .pools
                .iter()
                .enumerate()
                .filter(|(pi, p)| pool_bit(bits, *pi) && p.capacity.satisfies(demand))
                .map(|(_, p)| p.online())
                .sum();
        }
        self.pools
            .iter()
            .enumerate()
            .filter(|(pi, p)| p.capacity.satisfies(demand) && matcher.matches(*pi, &p.capacity))
            .map(|(_, p)| p.online())
            .sum()
    }

    /// Return an allocation's nodes to their pools.
    ///
    /// # Panics
    /// Panics when a segment returns more nodes than its pool has busy —
    /// nodes the cluster never granted, which is always a scheduler logic
    /// bug worth failing loudly on.
    pub fn release(&mut self, alloc: Allocation) {
        let Allocation { mut per_pool, .. } = alloc;
        for &(pi, n) in &per_pool {
            let pool = &mut self.pools[pi as usize];
            assert!(
                n <= pool.busy(),
                "release of {n} nodes to pool {pi}, which has {} busy",
                pool.busy()
            );
            pool.free += n;
            self.free_count += n;
        }
        per_pool.clear();
        self.spare.push(per_pool);
    }

    /// Detach the retired-allocation buffer pool, e.g. into a sweep arena
    /// that outlives this cluster instance. The cluster keeps working — it
    /// just starts its recycling pool empty again.
    pub fn take_spare(&mut self) -> AllocationSpare {
        AllocationSpare(std::mem::take(&mut self.spare))
    }

    /// Install a buffer pool detached from another cluster (via
    /// [`Cluster::take_spare`]), replacing this cluster's own. Spare
    /// buffers are capacity-only — every vector in them is empty — so
    /// moving them between clusters cannot change any allocation outcome;
    /// it only spares `try_allocate` the warm-up allocations.
    pub fn install_spare(&mut self, spare: AllocationSpare) {
        debug_assert!(spare.0.iter().all(Vec::is_empty));
        self.spare = spare.0;
    }

    /// Smallest memory capacity among the nodes an allocation granted —
    /// the amount the job can actually consume everywhere. The simulator
    /// compares this against actual usage to decide failure.
    #[inline]
    pub fn allocation_min_mem(&self, alloc: &Allocation) -> u64 {
        alloc
            .per_pool
            .iter()
            .map(|&(pi, _)| self.pools[pi as usize].capacity.mem_kb)
            .min()
            .unwrap_or(0)
    }

    /// Smallest disk capacity among the nodes an allocation granted — the
    /// disk analogue of [`Cluster::allocation_min_mem`]. Empty allocations
    /// constrain nothing and report `u64::MAX`.
    #[inline]
    pub fn allocation_min_disk(&self, alloc: &Allocation) -> u64 {
        alloc
            .per_pool
            .iter()
            .map(|&(pi, _)| self.pools[pi as usize].capacity.disk_kb)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Capacity of every node in pool `idx` (construction order) — what a
    /// matchmaker reads to build the pool's capability ad.
    ///
    /// # Panics
    /// Panics for out-of-range pool indices.
    #[inline]
    pub fn pool_capacity(&self, idx: usize) -> Capacity {
        self.pools[idx].capacity
    }

    /// Per-pool occupancy snapshot: `(memory_kb, total, busy)` per pool, in
    /// construction order. Offline nodes count as neither free nor busy.
    pub fn pool_occupancy(&self) -> Vec<(u64, u32, u32)> {
        self.pools
            .iter()
            .map(|p| (p.capacity.mem_kb, p.total, p.busy()))
            .collect()
    }

    /// Packages installed on *every* node of an allocation (bitwise
    /// intersection) — what the job can actually rely on. Empty allocations
    /// report all packages.
    #[inline]
    pub fn allocation_packages(&self, alloc: &Allocation) -> u32 {
        alloc
            .per_pool
            .iter()
            .map(|&(pi, _)| self.pools[pi as usize].capacity.packages)
            .fold(u32::MAX, |acc, p| acc & p)
    }

    /// How many of an allocation's nodes satisfy `demand` *and* sit in a
    /// pool accepted by `matcher` — per-pool arithmetic, O(pools spanned)
    /// instead of O(nodes held), used for backfill reservation arithmetic.
    /// The caller is expected to have [`PoolMatcher::prepare`]d the
    /// matcher for `demand`.
    #[inline]
    pub fn allocation_nodes_satisfying_matched<M: PoolMatcher + ?Sized>(
        &self,
        alloc: &Allocation,
        demand: &Demand,
        matcher: &mut M,
    ) -> u32 {
        if let Some(bits) = matcher.eligible_pools() {
            return alloc
                .per_pool
                .iter()
                .filter(|&&(pi, _)| {
                    pool_bit(bits, pi as usize)
                        && self.pools[pi as usize].capacity.satisfies(demand)
                })
                .map(|&(_, n)| n)
                .sum();
        }
        alloc
            .per_pool
            .iter()
            .filter(|&&(pi, _)| {
                let capacity = self.pools[pi as usize].capacity;
                capacity.satisfies(demand) && matcher.matches(pi as usize, &capacity)
            })
            .map(|&(_, n)| n)
            .sum()
    }

    /// Number of pools, in construction order (stable for a cluster's
    /// lifetime — churn toggles nodes offline, it never removes pools).
    #[inline]
    pub fn num_pools(&self) -> usize {
        self.pools.len()
    }

    /// Busy nodes in pool `idx` right now. Offline nodes are neither free
    /// nor busy. Allocation-free counterpart of [`Cluster::pool_occupancy`]
    /// for per-tick stats accumulation.
    ///
    /// # Panics
    /// Panics for out-of-range pool indices.
    #[inline]
    pub fn pool_busy_count(&self, idx: usize) -> u32 {
        self.pools[idx].busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pool_cluster() -> Cluster {
        Cluster::from_pools(&[
            (4, Capacity::memory(32 * 1024)),
            (4, Capacity::memory(24 * 1024)),
        ])
    }

    #[test]
    fn construction_counts() {
        let c = two_pool_cluster();
        assert_eq!(c.total_nodes(), 8);
        assert_eq!(c.free_nodes(), 8);
        assert_eq!(c.busy_nodes(), 0);
        assert_eq!(c.pool_capacity(0).mem_kb, 32 * 1024);
        assert_eq!(c.pool_capacity(1).mem_kb, 24 * 1024);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(2, &Demand::memory(10 * 1024), MatchPolicy::BestFit, 1)
            .unwrap();
        // Both pools satisfy 10 MB; best-fit picks the 24 MB pool (pool 1).
        assert_eq!(a.per_pool(), &[(1, 2)]);
        c.release(a);
    }

    #[test]
    fn worst_fit_prefers_largest() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(2, &Demand::memory(10 * 1024), MatchPolicy::WorstFit, 1)
            .unwrap();
        assert_eq!(a.per_pool(), &[(0, 2)]);
        c.release(a);
    }

    #[test]
    fn first_fit_takes_pool_order() {
        let mut c = Cluster::from_pools(&[
            (2, Capacity::memory(24 * 1024)),
            (2, Capacity::memory(32 * 1024)),
        ]);
        let a = c
            .try_allocate(3, &Demand::memory(10 * 1024), MatchPolicy::FirstFit, 1)
            .unwrap();
        // Exhausts the first pool then spills into the second.
        assert_eq!(a.per_pool(), &[(0, 2), (1, 1)]);
    }

    #[test]
    fn allocation_spans_pools_when_needed() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(6, &Demand::memory(1024), MatchPolicy::BestFit, 9)
            .unwrap();
        // Best-fit drains the 24 MB pool, then takes two 32 MB nodes.
        assert_eq!(a.per_pool(), &[(1, 4), (0, 2)]);
        assert_eq!(c.free_nodes(), 2);
        c.release(a);
        assert_eq!(c.free_nodes(), 8);
    }

    #[test]
    fn demand_filters_pools() {
        let mut c = two_pool_cluster();
        // Only the 32 MB pool satisfies 28 MB: asking for 5 nodes must fail
        // even though 8 are free.
        assert!(c
            .try_allocate(5, &Demand::memory(28 * 1024), MatchPolicy::BestFit, 1)
            .is_none());
        // Failed allocation must not leak nodes.
        assert_eq!(c.free_nodes(), 8);
        let a = c
            .try_allocate(4, &Demand::memory(28 * 1024), MatchPolicy::BestFit, 1)
            .unwrap();
        assert_eq!(a.per_pool(), &[(0, 4)]);
    }

    #[test]
    fn zero_count_is_trivially_granted() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(0, &Demand::memory(u64::MAX), MatchPolicy::BestFit, 1)
            .unwrap();
        assert!(a.per_pool().is_empty());
        assert_eq!(c.free_nodes(), 8);
        c.release(a);
    }

    #[test]
    fn free_counts_by_demand() {
        let mut c = two_pool_cluster();
        assert_eq!(c.free_nodes_satisfying(&Demand::memory(28 * 1024)), 4);
        assert_eq!(c.free_nodes_satisfying(&Demand::memory(1024)), 8);
        assert_eq!(c.nodes_satisfying(&Demand::memory(28 * 1024)), 4);
        let _a = c
            .try_allocate(2, &Demand::memory(28 * 1024), MatchPolicy::BestFit, 1)
            .unwrap();
        assert_eq!(c.free_nodes_satisfying(&Demand::memory(28 * 1024)), 2);
        // Total candidates are unaffected by occupancy.
        assert_eq!(c.nodes_satisfying(&Demand::memory(28 * 1024)), 4);
    }

    #[test]
    #[should_panic(expected = "which has 1 busy")]
    fn release_of_more_nodes_than_a_pool_has_busy_panics() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(1, &Demand::memory(1024), MatchPolicy::BestFit, 1)
            .unwrap();
        assert_eq!(a.per_pool(), &[(1, 1)]);
        // A forged segment returning two nodes to a pool that lent one.
        let forged = Allocation {
            per_pool: vec![(1, 2)],
            token: 1,
        };
        c.release(forged);
    }

    #[test]
    fn allocation_min_mem_reports_weakest_node() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(6, &Demand::memory(1024), MatchPolicy::WorstFit, 1)
            .unwrap();
        // Worst-fit takes all four 32 MB nodes then two 24 MB nodes.
        assert_eq!(c.allocation_min_mem(&a), 24 * 1024);
        c.release(a);
    }

    #[test]
    fn memory_ladder_from_pools() {
        let c = two_pool_cluster();
        assert_eq!(c.memory_ladder().rungs(), &[24 * 1024, 32 * 1024]);
    }

    #[test]
    fn exhaustion_and_reuse() {
        let mut c = Cluster::from_pools(&[(2, Capacity::memory(1024))]);
        let a = c
            .try_allocate(2, &Demand::memory(512), MatchPolicy::FirstFit, 1)
            .unwrap();
        assert!(c
            .try_allocate(1, &Demand::memory(512), MatchPolicy::FirstFit, 2)
            .is_none());
        c.release(a);
        assert!(c
            .try_allocate(1, &Demand::memory(512), MatchPolicy::FirstFit, 2)
            .is_some());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let _ = Cluster::from_pools(&[]);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX nodes")]
    fn node_total_past_u32_rejected() {
        let _ = Cluster::from_pools(&[
            (u32::MAX, Capacity::memory(32 * 1024)),
            (2, Capacity::memory(24 * 1024)),
        ]);
    }

    use crate::matchmaking::MatchAll;

    /// Accepts only the listed pool indices; unranked.
    struct OnlyPools(Vec<usize>);

    impl PoolMatcher for OnlyPools {
        fn matches(&mut self, pool: usize, _capacity: &Capacity) -> bool {
            self.0.contains(&pool)
        }
    }

    /// Accepts everything, ranks small-memory pools highest.
    struct PreferSmallMem;

    impl PoolMatcher for PreferSmallMem {
        fn matches(&mut self, _pool: usize, _capacity: &Capacity) -> bool {
            true
        }

        fn rank(&mut self, _pool: usize, capacity: &Capacity) -> f64 {
            -(capacity.mem_kb as f64)
        }

        fn is_ranked(&self) -> bool {
            true
        }
    }

    #[test]
    fn matched_with_match_all_is_bit_identical_to_native() {
        // Same interleaved allocate/release sequence through both entry
        // points must grant the same per-pool segments in the same order,
        // under every policy.
        for policy in [
            MatchPolicy::FirstFit,
            MatchPolicy::BestFit,
            MatchPolicy::WorstFit,
        ] {
            let mut native = two_pool_cluster();
            let mut matched = two_pool_cluster();
            let mut matcher = MatchAll;
            let mut held_native = Vec::new();
            let mut held_matched = Vec::new();
            for (i, (count, mem)) in [(3, 1024), (2, 28 * 1024), (4, 1024), (2, 25 * 1024)]
                .into_iter()
                .enumerate()
            {
                let demand = Demand::memory(mem);
                let a = native.try_allocate(count, &demand, policy, i as u64);
                let b =
                    matched.try_allocate_matched(count, &demand, policy, i as u64, &mut matcher);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.per_pool(), b.per_pool(), "{policy:?} step {i}");
                        held_native.push(a);
                        held_matched.push(b);
                    }
                    (None, None) => {}
                    (a, b) => panic!("{policy:?} step {i}: divergent outcomes {a:?} vs {b:?}"),
                }
                if i == 1 {
                    native.release(held_native.remove(0));
                    matched.release(held_matched.remove(0));
                }
            }
        }
    }

    #[test]
    fn matcher_restricts_eligible_pools() {
        let mut c = two_pool_cluster();
        let mut only_second = OnlyPools(vec![1]);
        // Pool 0 must never be drawn even though its capacity satisfies
        // the demand.
        let a = c
            .try_allocate_matched(
                3,
                &Demand::memory(1024),
                MatchPolicy::FirstFit,
                1,
                &mut only_second,
            )
            .unwrap();
        assert_eq!(a.per_pool(), &[(1, 3)]);
        // Only one matched node remains free: a two-node ask must refuse
        // without leaking, even though pool 0 has four free nodes.
        assert!(c
            .try_allocate_matched(
                2,
                &Demand::memory(1024),
                MatchPolicy::FirstFit,
                2,
                &mut only_second
            )
            .is_none());
        assert_eq!(c.free_nodes(), 5);
        c.release(a);
    }

    #[test]
    fn rank_reorders_candidates_and_ties_keep_policy_order() {
        let mut c = two_pool_cluster();
        // WorstFit would prefer the 32 MB pool; the rank expression inverts
        // that preference.
        let mut matcher = PreferSmallMem;
        let a = c
            .try_allocate_matched(
                2,
                &Demand::memory(1024),
                MatchPolicy::WorstFit,
                1,
                &mut matcher,
            )
            .unwrap();
        assert_eq!(a.per_pool(), &[(1, 2)]);
        c.release(a);
        // With a constant rank, the stable sort keeps the policy order.
        struct FlatRank;
        impl PoolMatcher for FlatRank {
            fn matches(&mut self, _p: usize, _c: &Capacity) -> bool {
                true
            }
            fn is_ranked(&self) -> bool {
                true
            }
        }
        let b = c
            .try_allocate_matched(
                2,
                &Demand::memory(1024),
                MatchPolicy::WorstFit,
                1,
                &mut FlatRank,
            )
            .unwrap();
        assert_eq!(b.per_pool(), &[(0, 2)]);
        c.release(b);
    }

    #[test]
    fn matched_counts_intersect_matcher_and_capacity() {
        let mut c = two_pool_cluster();
        let mut only_first = OnlyPools(vec![0]);
        assert_eq!(
            c.free_nodes_satisfying_matched(&Demand::memory(1024), &mut only_first),
            4
        );
        assert_eq!(
            c.nodes_satisfying_matched(&Demand::memory(1024), &mut only_first),
            4
        );
        // Capacity still intersects: pool 0 is 32 MB, so a 28 MB demand
        // matched to pool 1 only has no candidates at all.
        let mut only_second = OnlyPools(vec![1]);
        assert_eq!(
            c.nodes_satisfying_matched(&Demand::memory(28 * 1024), &mut only_second),
            0
        );
        let a = c
            .try_allocate_matched(
                2,
                &Demand::memory(1024),
                MatchPolicy::FirstFit,
                1,
                &mut only_first,
            )
            .unwrap();
        assert_eq!(
            c.free_nodes_satisfying_matched(&Demand::memory(1024), &mut only_first),
            2
        );
        c.release(a);
    }

    #[test]
    fn allocation_min_disk_reports_weakest_node() {
        let mut c = Cluster::from_pools(&[
            (2, Capacity::new(32 * 1024, 100, 0)),
            (2, Capacity::new(32 * 1024, 50, 0)),
        ]);
        let a = c
            .try_allocate(3, &Demand::memory(1024), MatchPolicy::FirstFit, 1)
            .unwrap();
        assert_eq!(c.allocation_min_disk(&a), 50);
        c.release(a);
        let empty = c
            .try_allocate(0, &Demand::memory(1024), MatchPolicy::FirstFit, 1)
            .unwrap();
        assert_eq!(c.allocation_min_disk(&empty), u64::MAX);
    }

    #[test]
    fn churn_take_and_restore() {
        let mut c = two_pool_cluster();
        assert_eq!(c.take_offline(32 * 1024, 3), 3);
        assert_eq!(c.free_nodes(), 5);
        assert_eq!(c.offline_nodes(), 3);
        // Departed nodes are neither free nor busy.
        assert_eq!(c.busy_nodes(), 0);
        assert_eq!(
            c.pool_occupancy(),
            vec![(32 * 1024, 4, 0), (24 * 1024, 4, 0)]
        );
        assert_eq!(c.nodes_satisfying(&Demand::memory(1024)), 5);
        // Only one 32 MB node remains online: a two-node 28 MB demand fails.
        assert!(c
            .try_allocate(2, &Demand::memory(28 * 1024), MatchPolicy::BestFit, 1)
            .is_none());
        assert_eq!(c.bring_online(32 * 1024, 2), 2);
        assert_eq!(c.free_nodes(), 7);
        assert!(c
            .try_allocate(2, &Demand::memory(28 * 1024), MatchPolicy::BestFit, 1)
            .is_some());
    }

    #[test]
    fn churn_never_revokes_busy_nodes() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(4, &Demand::memory(24 * 1024), MatchPolicy::BestFit, 1)
            .unwrap();
        // All four 24 MB nodes are busy: nothing to take.
        assert_eq!(c.take_offline(24 * 1024, 4), 0);
        c.release(a);
        assert_eq!(c.take_offline(24 * 1024, 4), 4);
    }

    #[test]
    fn churn_caps_at_available() {
        let mut c = two_pool_cluster();
        assert_eq!(c.take_offline(24 * 1024, 100), 4);
        assert_eq!(c.bring_online(24 * 1024, 100), 4);
        // Unknown capacity: no-op.
        assert_eq!(c.take_offline(999, 1), 0);
        assert_eq!(c.bring_online(999, 1), 0);
    }
}
