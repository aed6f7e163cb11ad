//! The allocator-side matchmaking seam.
//!
//! [`PoolMatcher`] is the narrow interface the allocator needs from an
//! expression matchmaker: a per-pool eligibility verdict and an optional
//! rank. The trait lives here — not in the expression engine — so the
//! dependency points the right way: `resmatch-classad` implements this
//! trait on top of its compiled ads, and the cluster stays free of any
//! expression-language dependency.
//!
//! Pools, not nodes, are the match unit: nodes in a pool are identical by
//! construction, so one ad evaluation per pool covers every node in it.
//! That keeps matchmaking O(#pools) per allocation attempt — the same
//! complexity class as the native capacity walk it extends.
//!
//! Contract: a matcher's verdicts must be a pure function of the demand it
//! was last [`PoolMatcher::prepare`]d with and of the pool's (fixed)
//! capability ad. The simulator replays a refused allocation until an
//! execution ends or membership changes, and reuses EASY's shadow
//! crossing while the running set stands still; verdicts that drift
//! between calls for the same demand would invalidate both.
//!
//! Every allocation goes through a matcher: the simulator's native mode is
//! the [`MatchAll`] instance of the matched path.

use crate::resources::{Capacity, Demand};

/// Per-pool eligibility and preference, as the allocator consumes it.
///
/// Methods take `&mut self` so implementations can keep scratch state
/// (evaluation stacks, per-demand compiled programs) without interior
/// mutability.
pub trait PoolMatcher: Send {
    /// Re-target the matcher at a job demand. Called once per allocation
    /// attempt, before any [`PoolMatcher::matches`]/[`PoolMatcher::rank`]
    /// calls for that attempt.
    fn prepare(&mut self, demand: &Demand) {
        let _ = demand;
    }

    /// Whether pool `pool` (whose per-node capacity is `capacity`) is
    /// eligible for the prepared demand. Returning `true` for a pool whose
    /// capacity does not satisfy the demand has no effect — the allocator
    /// intersects with the native capacity check.
    fn matches(&mut self, pool: usize, capacity: &Capacity) -> bool;

    /// Preference score for pool `pool`; higher is better. Only consulted
    /// when [`PoolMatcher::is_ranked`] returns true. Ties preserve the
    /// allocator's [`crate::MatchPolicy`] order.
    fn rank(&mut self, pool: usize, capacity: &Capacity) -> f64 {
        let _ = (pool, capacity);
        0.0
    }

    /// Whether [`PoolMatcher::rank`] carries information. When false the
    /// allocator skips rank evaluation and keeps pure policy order, which
    /// is what makes an unranked constraint-free matcher bit-identical to
    /// the native path.
    fn is_ranked(&self) -> bool {
        false
    }

    /// Identifier of the prepared demand's verdict class, when the
    /// matcher can vouch for one. `Some(s)` is a guarantee: any two
    /// demands that prepare to the same `s` have identical per-pool
    /// outcomes of `matches(pool) && capacity.satisfies(demand)` *and*
    /// identical rank values — the full predicate the allocator applies —
    /// so a cache may key state by the signature alone, collapsing
    /// distinct raw demands that the matcher proves equivalent. `None`
    /// (the default) makes no claim. Within one matcher lifetime a
    /// signature, once handed out, always denotes the same verdict class.
    /// The simulator does not read it: with count-only pools every count
    /// it needs costs no more than a probe of such a cache.
    fn demand_signature(&self) -> Option<u64> {
        None
    }

    /// The prepared demand's eligibility set as a pool-index bitset
    /// (word `i`, bit `b` covers pool `i * 64 + b`), or `None` when the
    /// matcher has no precomputed index. When present, bit `p` must equal
    /// what [`PoolMatcher::matches`] would return for pool `p` — the
    /// allocator's counting walks then test bits locally instead of
    /// calling through the trait per pool. Words beyond the slice are
    /// all-zero (no pools).
    fn eligible_pools(&self) -> Option<&[u64]> {
        None
    }
}

/// A matcher that accepts every pool and ranks nothing — the identity
/// element of the seam. With it, matched allocation must reproduce native
/// allocation exactly (a property the cluster tests assert).
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchAll;

impl PoolMatcher for MatchAll {
    fn matches(&mut self, _pool: usize, _capacity: &Capacity) -> bool {
        true
    }
}
