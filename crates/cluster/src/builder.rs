//! Fluent cluster construction, including the paper's experimental layouts.

use crate::cluster::Cluster;
use crate::resources::Capacity;

/// One megabyte in KB.
const MB: u64 = 1024;

/// Builder for heterogeneous clusters.
///
/// ```
/// use resmatch_cluster::ClusterBuilder;
///
/// let cluster = ClusterBuilder::new()
///     .pool(512, 32 * 1024)
///     .pool(512, 24 * 1024)
///     .build();
/// assert_eq!(cluster.total_nodes(), 1024);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ClusterBuilder {
    specs: Vec<(u32, Capacity)>,
}

impl ClusterBuilder {
    /// Start empty.
    pub fn new() -> Self {
        ClusterBuilder::default()
    }

    /// Add `count` memory-only nodes of `mem_kb` each.
    pub fn pool(mut self, count: u32, mem_kb: u64) -> Self {
        self.specs.push((count, Capacity::memory(mem_kb)));
        self
    }

    /// Add `count` nodes with a full capacity spec.
    pub fn pool_with(mut self, count: u32, capacity: Capacity) -> Self {
        self.specs.push((count, capacity));
        self
    }

    /// Finish.
    ///
    /// # Panics
    /// Panics when no nodes were added or their counts sum past
    /// `u32::MAX` (see [`Cluster::from_pools`]).
    pub fn build(self) -> Cluster {
        Cluster::from_pools(&self.specs)
    }
}

/// The paper's experimental cluster family (§3): 512 nodes with the CM-5's
/// original 32 MB plus 512 nodes whose memory is `second_pool_mb` MB —
/// Figure 5/6 use 24 MB; Figure 8 sweeps 1..=32 MB.
///
/// # Panics
/// Panics when `second_pool_mb` is outside `1..=32`.
pub fn paper_cluster(second_pool_mb: u64) -> Cluster {
    assert!(
        (1..=32).contains(&second_pool_mb),
        "paper sweeps the second pool over 1..=32 MB"
    );
    ClusterBuilder::new()
        .pool(512, 32 * MB)
        .pool(512, second_pool_mb * MB)
        .build()
}

/// The original homogeneous CM-5: 1024 nodes of 32 MB.
pub fn cm5_cluster() -> Cluster {
    ClusterBuilder::new().pool(1024, 32 * MB).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Demand;

    #[test]
    fn builder_accumulates_pools() {
        let c = ClusterBuilder::new().pool(3, 100).pool(5, 200).build();
        assert_eq!(c.total_nodes(), 8);
        assert_eq!(c.memory_ladder().rungs(), &[100, 200]);
    }

    #[test]
    fn pool_with_full_capacity() {
        let c = ClusterBuilder::new()
            .pool_with(2, Capacity::new(100, 50, 0b11))
            .build();
        assert!(c.pool_capacity(0).satisfies(&Demand::new(100, 50, 0b01)));
        assert!(!c.pool_capacity(0).satisfies(&Demand::new(100, 51, 0)));
    }

    #[test]
    fn paper_cluster_layout() {
        let c = paper_cluster(24);
        assert_eq!(c.total_nodes(), 1024);
        assert_eq!(c.nodes_satisfying(&Demand::memory(32 * MB)), 512);
        assert_eq!(c.nodes_satisfying(&Demand::memory(24 * MB)), 1024);
        assert_eq!(c.memory_ladder().rungs(), &[24 * MB, 32 * MB]);
    }

    #[test]
    fn paper_cluster_homogeneous_extreme() {
        let c = paper_cluster(32);
        // 32 + 32 collapses to a single rung.
        assert_eq!(c.memory_ladder().rungs(), &[32 * MB]);
        assert_eq!(c.total_nodes(), 1024);
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn paper_cluster_rejects_out_of_sweep() {
        let _ = paper_cluster(0);
    }

    #[test]
    fn cm5_is_homogeneous() {
        let c = cm5_cluster();
        assert_eq!(c.total_nodes(), 1024);
        assert_eq!(c.memory_ladder().rungs(), &[32 * MB]);
    }
}
