//! Cluster substrate for the `resmatch` workspace.
//!
//! Models a space-shared heterogeneous cluster of the kind the paper
//! simulates: pools of nodes that differ in resource capacities (memory
//! size, disk space, installed software packages). Jobs are matched to sets
//! of nodes whose capacities cover the job's (possibly estimator-reduced)
//! demand.
//!
//! The [`ladder::CapacityLadder`] is the domain of Algorithm 1's `⌈·⌉`
//! rounding step: "the estimated resource capacity for the job is rounded to
//! the lowest resource capacity within the cluster, greater than Eᵢ".
//!
//! # Quick example
//!
//! ```
//! use resmatch_cluster::{ClusterBuilder, Demand, MatchPolicy};
//!
//! // The paper's Figure 5 cluster: 512 nodes of 32 MB and 512 of 24 MB.
//! let mut cluster = ClusterBuilder::new()
//!     .pool(512, 32 * 1024)
//!     .pool(512, 24 * 1024)
//!     .build();
//!
//! let demand = Demand::memory(28 * 1024);
//! let alloc = cluster
//!     .try_allocate(4, &demand, MatchPolicy::BestFit, 1)
//!     .expect("the 32 MB pool satisfies 28 MB");
//! assert_eq!(alloc.per_pool(), &[(0, 4)]); // four nodes of pool 0
//! cluster.release(alloc);
//! assert_eq!(cluster.free_nodes(), 1024);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod builder;
pub mod cluster;
pub mod ladder;
pub mod matchmaking;
pub mod resources;

pub use builder::ClusterBuilder;
pub use cluster::{Allocation, AllocationSpare, Cluster, MatchPolicy};
pub use ladder::CapacityLadder;
pub use matchmaking::{MatchAll, PoolMatcher};
pub use resources::{Capacity, Demand};
