//! The cluster proper: node pools, allocation, and match policies.
//!
//! Nodes with identical capacities form *pools*; allocation pops free nodes
//! from eligible pools in a policy-determined order. Pool-level bookkeeping
//! keeps `try_allocate` O(#pools) — a cluster has thousands of nodes but a
//! handful of distinct capacities — which matters because the simulator
//! retries the queue head on every completion event.
//!
//! Two hot-path caches keep the per-event cost flat over a full trace:
//!
//! - the pool visitation order for each [`MatchPolicy`], precomputed at
//!   construction, so `try_allocate` never allocates or sorts;
//! - per-pool grant counts inside each [`Allocation`], so
//!   weakest-node/package/eligibility queries about a running job cost
//!   O(pools spanned) instead of O(nodes granted).

use serde::{Deserialize, Serialize};

use crate::ladder::CapacityLadder;
use crate::matchmaking::PoolMatcher;
use crate::resources::{Capacity, Demand};

/// Index of a node within its cluster.
pub type NodeId = u32;

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

/// Occupant sentinel for nodes that have left the cluster.
const OFFLINE_TOKEN: u64 = u64::MAX;
/// Occupant sentinel for a free node. Storing bare `u64`s instead of
/// `Option<u64>` halves the occupant table's footprint and the per-node
/// traffic in `try_allocate`/`release`; the top two token values are
/// reserved for the sentinels and rejected at allocation time.
const FREE_TOKEN: u64 = u64::MAX - 1;

#[derive(Debug, Clone)]
struct Pool {
    capacity: Capacity,
    /// Free node ids, used as a stack.
    free: Vec<NodeId>,
    /// Nodes currently out of the cluster (dynamic leave).
    offline: Vec<NodeId>,
    total: u32,
}

/// A granted set of nodes. Must be handed back via [`Cluster::release`];
/// passing by value makes double-release a move error instead of a runtime
/// bug.
#[derive(Debug, PartialEq, Eq)]
pub struct Allocation {
    nodes: Vec<NodeId>,
    /// `(pool index, nodes granted from it)` in draw order — the compact
    /// shape pool-level queries (weakest node, common packages, eligible
    /// counts) read instead of walking every node.
    per_pool: Vec<(u16, u32)>,
    token: u64,
}

impl Allocation {
    /// The node ids granted.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `(pool index, nodes granted from it)` in draw order — lets callers
    /// maintain per-pool occupancy tallies incrementally instead of
    /// re-counting the cluster on every event.
    #[inline]
    pub fn per_pool(&self) -> &[(u16, u32)] {
        &self.per_pool
    }

    /// The caller-supplied token (typically the job id) recorded as the
    /// occupant of each node.
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

/// A retired allocation's buffers — `(node ids, per-pool segments)` —
/// parked for reuse by the next `try_allocate`.
type SpareBuffers = (Vec<NodeId>, Vec<(u16, u32)>);

/// A cluster's retired-allocation buffer pool, detached so it can hop
/// between cluster instances (sweeps clone a fresh cluster per point but
/// want the buffers warm from the first point on). Opaque: the only
/// useful things to do with one are [`Cluster::take_spare`] and
/// [`Cluster::install_spare`].
#[derive(Debug, Default)]
pub struct AllocationSpare(Vec<SpareBuffers>);

/// A space-shared heterogeneous cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    pools: Vec<Pool>,
    /// Pool index per node.
    node_pool: Vec<u16>,
    /// Occupant token per node; `FREE_TOKEN` = free, `OFFLINE_TOKEN` =
    /// departed.
    occupant: Vec<u64>,
    free_count: u32,
    /// Pool visitation order per match policy, fixed at construction.
    /// Stable-sorted with the same keys the old per-call sort used, so
    /// node selection is bit-identical.
    order_first: Vec<u16>,
    order_best: Vec<u16>,
    order_worst: Vec<u16>,
    /// Retired allocation buffers, reused by the next `try_allocate` so a
    /// steady-state simulation allocates no fresh vectors per execution.
    spare: Vec<SpareBuffers>,
    /// Candidate-pool scratch for `try_allocate_matched`, reused across
    /// calls for the same reason as `spare`.
    match_scratch: Vec<(u16, f64)>,
}

impl Cluster {
    /// Build from `(count, capacity)` pool specs. Prefer
    /// [`crate::builder::ClusterBuilder`].
    ///
    /// # Panics
    /// Panics when no nodes are specified or pool count exceeds `u16` pools.
    pub fn from_pools(specs: &[(u32, Capacity)]) -> Self {
        let total: u32 = specs.iter().map(|(n, _)| n).sum();
        assert!(total > 0, "a cluster needs at least one node");
        assert!(specs.len() <= u16::MAX as usize, "too many pools");
        let mut pools = Vec::with_capacity(specs.len());
        let mut node_pool = Vec::with_capacity(total as usize);
        let mut next_id: NodeId = 0;
        for (pi, &(count, capacity)) in specs.iter().enumerate() {
            // Free stack is popped from the back; pushing descending ids
            // hands nodes out in ascending order, which keeps tests and
            // traces readable.
            let free: Vec<NodeId> = (next_id..next_id + count).rev().collect();
            node_pool.extend(std::iter::repeat_n(pi as u16, count as usize));
            next_id += count;
            pools.push(Pool {
                capacity,
                free,
                offline: Vec::new(),
                total: count,
            });
        }
        let order_first: Vec<u16> = (0..pools.len() as u16).collect();
        let mut order_best = order_first.clone();
        order_best.sort_by_key(|&i| {
            let c = pools[i as usize].capacity;
            (c.mem_kb, c.disk_kb, c.packages.count_ones())
        });
        let mut order_worst = order_first.clone();
        order_worst.sort_by_key(|&i| {
            let c = pools[i as usize].capacity;
            std::cmp::Reverse((c.mem_kb, c.disk_kb, c.packages.count_ones()))
        });
        Cluster {
            pools,
            node_pool,
            occupant: vec![FREE_TOKEN; total as usize],
            free_count: total,
            order_first,
            order_best,
            order_worst,
            spare: Vec::new(),
            match_scratch: Vec::new(),
        }
    }

    /// Total number of nodes.
    #[inline]
    pub fn total_nodes(&self) -> u32 {
        self.occupant.len() as u32
    }

    /// Currently free nodes.
    #[inline]
    pub fn free_nodes(&self) -> u32 {
        self.free_count
    }

    /// Currently busy nodes.
    #[inline]
    pub fn busy_nodes(&self) -> u32 {
        self.total_nodes() - self.free_count
    }

    /// Free nodes whose capacity satisfies `demand`.
    pub fn free_nodes_satisfying(&self, demand: &Demand) -> u32 {
        self.pools
            .iter()
            .filter(|p| p.capacity.satisfies(demand))
            .map(|p| p.free.len() as u32)
            .sum()
    }

    /// Currently *online* nodes (free or busy) whose capacity satisfies
    /// `demand` — the job's candidate-machine count, the quantity the
    /// paper's Figure 8 analysis counts for "benefiting" jobs.
    pub fn nodes_satisfying(&self, demand: &Demand) -> u32 {
        self.pools
            .iter()
            .filter(|p| p.capacity.satisfies(demand))
            .map(|p| p.total - p.offline.len() as u32)
            .sum()
    }

    /// Nodes currently offline (dynamically departed).
    pub fn offline_nodes(&self) -> u32 {
        self.pools.iter().map(|p| p.offline.len() as u32).sum()
    }

    /// Dynamically remove up to `count` *free* nodes of memory capacity
    /// `mem_kb` from the cluster (the paper's "machines can dynamically
    /// join and leave the systems at any time"). Busy nodes are never
    /// revoked — leaves take effect as nodes drain. Returns how many nodes
    /// actually left.
    pub fn take_offline(&mut self, mem_kb: u64, count: u32) -> u32 {
        let mut taken = 0;
        for pi in 0..self.pools.len() {
            if self.pools[pi].capacity.mem_kb != mem_kb {
                continue;
            }
            while taken < count {
                let pool = &mut self.pools[pi];
                match pool.free.pop() {
                    Some(id) => {
                        self.occupant[id as usize] = OFFLINE_TOKEN;
                        pool.offline.push(id);
                        taken += 1;
                    }
                    None => break,
                }
            }
            if taken == count {
                break;
            }
        }
        self.free_count -= taken;
        taken
    }

    /// Bring up to `count` previously departed nodes of memory capacity
    /// `mem_kb` back online. Returns how many rejoined.
    pub fn bring_online(&mut self, mem_kb: u64, count: u32) -> u32 {
        let mut restored = 0;
        for pi in 0..self.pools.len() {
            if self.pools[pi].capacity.mem_kb != mem_kb {
                continue;
            }
            while restored < count {
                let pool = &mut self.pools[pi];
                match pool.offline.pop() {
                    Some(id) => {
                        debug_assert_eq!(self.occupant[id as usize], OFFLINE_TOKEN);
                        self.occupant[id as usize] = FREE_TOKEN;
                        pool.free.push(id);
                        restored += 1;
                    }
                    None => break,
                }
            }
            if restored == count {
                break;
            }
        }
        self.free_count += restored;
        restored
    }

    /// Capacity of a node.
    ///
    /// # Panics
    /// Panics for out-of-range ids.
    pub fn node_capacity(&self, node: NodeId) -> Capacity {
        self.pools[self.node_pool[node as usize] as usize].capacity
    }

    /// The distinct memory capacities, as a ladder for Algorithm 1.
    pub fn memory_ladder(&self) -> CapacityLadder {
        CapacityLadder::new(self.pools.iter().map(|p| p.capacity.mem_kb).collect())
    }

    /// Try to allocate `count` nodes, each satisfying `demand`, recording
    /// `token` as their occupant. Returns `None` — allocating nothing — when
    /// fewer than `count` eligible nodes are free.
    pub fn try_allocate(
        &mut self,
        count: u32,
        demand: &Demand,
        policy: MatchPolicy,
        token: u64,
    ) -> Option<Allocation> {
        assert!(token < FREE_TOKEN, "tokens above u64::MAX - 2 are reserved");
        if count == 0 {
            return Some(Allocation {
                nodes: Vec::new(),
                per_pool: Vec::new(),
                token,
            });
        }
        if self.free_nodes_satisfying(demand) < count {
            return None;
        }
        // The pool visit orders are precomputed at construction (pools never
        // change capacity); ineligible pools are skipped in-line, which yields
        // the same sequence a filter-then-sort of eligible pools would.
        let (mut nodes, mut per_pool) = self.spare.pop().unwrap_or_default();
        nodes.reserve(count as usize);
        let mut remaining = count;
        for oi in 0..self.pools.len() {
            let pi = match policy {
                MatchPolicy::FirstFit => self.order_first[oi],
                MatchPolicy::BestFit => self.order_best[oi],
                MatchPolicy::WorstFit => self.order_worst[oi],
            } as usize;
            if !self.pools[pi].capacity.satisfies(demand) {
                continue;
            }
            let here = remaining.min(self.pools[pi].free.len() as u32);
            if here == 0 {
                continue;
            }
            self.take_block(pi, here, token, &mut nodes, &mut per_pool);
            remaining -= here;
            if remaining == 0 {
                break;
            }
        }
        debug_assert_eq!(remaining, 0, "availability was pre-checked");
        self.free_count -= count;
        Some(Allocation {
            nodes,
            per_pool,
            token,
        })
    }

    /// Claim the top `here` nodes of pool `pi`'s free stack for `token`,
    /// appending them to an allocation under construction.
    ///
    /// Takes the entries as one block: reversing the slice reproduces the
    /// exact order a pop-per-node loop would have drawn them in, so node
    /// selection is bit-identical while the stack shrinks with a single
    /// truncate.
    fn take_block(
        &mut self,
        pi: usize,
        here: u32,
        token: u64,
        nodes: &mut Vec<NodeId>,
        per_pool: &mut Vec<(u16, u32)>,
    ) {
        let start = self.pools[pi].free.len() - here as usize;
        {
            let (pools, occupant) = (&self.pools, &mut self.occupant);
            // One reverse pass claims and collects each node; claim
            // order is unobservable (the ids are distinct), and the
            // collected order matches the pop-per-node draw.
            nodes.extend(pools[pi].free[start..].iter().rev().map(|&id| {
                debug_assert_eq!(occupant[id as usize], FREE_TOKEN);
                occupant[id as usize] = token;
                id
            }));
        }
        self.pools[pi].free.truncate(start);
        per_pool.push((pi as u16, here));
    }

    /// [`Cluster::try_allocate`] with a [`PoolMatcher`] intersected into
    /// pool eligibility: a pool is a candidate only when its capacity
    /// satisfies `demand` *and* the matcher accepts it. When the matcher
    /// ranks, candidates are reordered by descending rank (stable, so ties
    /// keep `policy` order) before nodes are drawn; otherwise pure policy
    /// order is kept and — for a matcher accepting every pool — the result
    /// is bit-identical to the native path.
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
        assert!(token < FREE_TOKEN, "tokens above u64::MAX - 2 are reserved");
        if count == 0 {
            return Some(Allocation {
                nodes: Vec::new(),
                per_pool: Vec::new(),
                token,
            });
        }
        let order: &[u16] = match policy {
            MatchPolicy::FirstFit => &self.order_first,
            MatchPolicy::BestFit => &self.order_best,
            MatchPolicy::WorstFit => &self.order_worst,
        };
        // One pass gathers eligibility, availability, and (when wanted)
        // rank, so each pool's ads are evaluated at most once per attempt.
        let ranked = matcher.is_ranked();
        let mut candidates = std::mem::take(&mut self.match_scratch);
        candidates.clear();
        let mut available: u32 = 0;
        for &pio in order {
            let pi = pio as usize;
            let capacity = self.pools[pi].capacity;
            if !capacity.satisfies(demand) || !matcher.matches(pi, &capacity) {
                continue;
            }
            available += self.pools[pi].free.len() as u32;
            let rank = if ranked {
                matcher.rank(pi, &capacity)
            } else {
                0.0
            };
            candidates.push((pio, rank));
        }
        if available < count {
            self.match_scratch = candidates;
            return None;
        }
        if ranked {
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
        }
        let (mut nodes, mut per_pool) = self.spare.pop().unwrap_or_default();
        nodes.reserve(count as usize);
        let mut remaining = count;
        for &(pio, _) in &candidates {
            let pi = pio as usize;
            let here = remaining.min(self.pools[pi].free.len() as u32);
            if here == 0 {
                continue;
            }
            self.take_block(pi, here, token, &mut nodes, &mut per_pool);
            remaining -= here;
            if remaining == 0 {
                break;
            }
        }
        debug_assert_eq!(remaining, 0, "availability was gathered above");
        self.free_count -= count;
        self.match_scratch = candidates;
        Some(Allocation {
            nodes,
            per_pool,
            token,
        })
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
                .map(|(_, p)| p.free.len() as u32)
                .sum();
        }
        self.pools
            .iter()
            .enumerate()
            .filter(|(pi, p)| p.capacity.satisfies(demand) && matcher.matches(*pi, &p.capacity))
            .map(|(_, p)| p.free.len() as u32)
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
                .map(|(_, p)| p.total - p.offline.len() as u32)
                .sum();
        }
        self.pools
            .iter()
            .enumerate()
            .filter(|(pi, p)| p.capacity.satisfies(demand) && matcher.matches(*pi, &p.capacity))
            .map(|(_, p)| p.total - p.offline.len() as u32)
            .sum()
    }

    /// Return an allocation's nodes to their pools.
    ///
    /// # Panics
    /// Panics when a node's recorded occupant does not match the
    /// allocation's token — that is always a scheduler logic bug worth
    /// failing loudly on.
    pub fn release(&mut self, alloc: Allocation) {
        // `nodes` is partitioned by pool in `per_pool` draw order (see
        // `try_allocate`), so each segment rejoins its pool's free stack
        // with one `extend_from_slice` — same push order a per-node loop
        // produced, without a `node_pool` lookup per node.
        let mut offset = 0usize;
        for &(pi, n) in &alloc.per_pool {
            let seg = &alloc.nodes[offset..offset + n as usize];
            offset += n as usize;
            // Occupancy checks are folded branch-free and asserted once per
            // segment: the loud failure survives, without a potential panic
            // edge (and its formatting machinery) inside the per-node loop.
            let mut held = true;
            for &id in seg {
                let occupant = std::mem::replace(&mut self.occupant[id as usize], FREE_TOKEN);
                held &= occupant == alloc.token;
                debug_assert_eq!(self.node_pool[id as usize], pi);
            }
            assert!(
                held,
                "release of a node not held by token {} (pool {pi})",
                alloc.token
            );
            self.pools[pi as usize].free.extend_from_slice(seg);
        }
        debug_assert_eq!(offset, alloc.nodes.len());
        self.free_count += alloc.nodes.len() as u32;
        let Allocation {
            mut nodes,
            mut per_pool,
            ..
        } = alloc;
        nodes.clear();
        per_pool.clear();
        self.spare.push((nodes, per_pool));
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
        debug_assert!(spare.0.iter().all(|(n, p)| n.is_empty() && p.is_empty()));
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
            .map(|p| {
                let offline = p.offline.len() as u32;
                let busy = p.total - p.free.len() as u32 - offline;
                (p.capacity.mem_kb, p.total, busy)
            })
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
    #[inline]
    pub fn pool_busy_count(&self, idx: usize) -> u32 {
        let p = &self.pools[idx];
        p.total - p.free.len() as u32 - p.offline.len() as u32
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
        assert_eq!(c.node_capacity(0).mem_kb, 32 * 1024);
        assert_eq!(c.node_capacity(7).mem_kb, 24 * 1024);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(2, &Demand::memory(10 * 1024), MatchPolicy::BestFit, 1)
            .unwrap();
        // Both pools satisfy 10 MB; best-fit picks the 24 MB pool (ids 4..8).
        assert!(a.nodes().iter().all(|&id| id >= 4));
        c.release(a);
    }

    #[test]
    fn worst_fit_prefers_largest() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(2, &Demand::memory(10 * 1024), MatchPolicy::WorstFit, 1)
            .unwrap();
        assert!(a.nodes().iter().all(|&id| id < 4));
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
        // Exhausts the first pool (0, 1) then spills into the second.
        assert_eq!(a.nodes().len(), 3);
        assert!(a.nodes().contains(&0) && a.nodes().contains(&1));
    }

    #[test]
    fn allocation_spans_pools_when_needed() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(6, &Demand::memory(1024), MatchPolicy::BestFit, 9)
            .unwrap();
        assert_eq!(a.nodes().len(), 6);
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
        assert!(a.nodes().iter().all(|&id| id < 4));
    }

    #[test]
    fn zero_count_is_trivially_granted() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(0, &Demand::memory(u64::MAX), MatchPolicy::BestFit, 1)
            .unwrap();
        assert!(a.nodes().is_empty());
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
    #[should_panic(expected = "not held by token")]
    fn release_with_wrong_token_panics() {
        let mut c = two_pool_cluster();
        let a = c
            .try_allocate(1, &Demand::memory(1024), MatchPolicy::BestFit, 1)
            .unwrap();
        let forged = Allocation {
            nodes: a.nodes().to_vec(),
            per_pool: a.per_pool.clone(),
            token: 999,
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
        // points must grant the same node ids in the same order, under
        // every policy.
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
                        assert_eq!(a.nodes(), b.nodes(), "{policy:?} step {i}");
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
        // Pool 1 holds the 24 MB nodes (ids 4..8); pool 0 must never be
        // drawn even though its capacity satisfies the demand.
        let a = c
            .try_allocate_matched(
                3,
                &Demand::memory(1024),
                MatchPolicy::FirstFit,
                1,
                &mut only_second,
            )
            .unwrap();
        assert!(a.nodes().iter().all(|&id| id >= 4));
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
        assert!(a.nodes().iter().all(|&id| id >= 4), "{:?}", a.nodes());
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
        assert!(b.nodes().iter().all(|&id| id < 4), "{:?}", b.nodes());
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
