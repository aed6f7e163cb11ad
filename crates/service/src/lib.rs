//! A long-running estimator service over `resmatch-core`.
//!
//! The paper evaluates estimation inside a scheduler simulation; this crate
//! packages the same estimators as an *online service* — the deployment
//! shape Figure 2 implies, where one estimator process sits between
//! submission and matchmaking for an entire site and answers at traffic
//! rates (millions of users, each a similarity group).
//!
//! Three design commitments, each with its own module:
//!
//! - **Sharding** ([`service`]): similarity groups are hash-partitioned
//!   across self-contained worker shards by the same stable key hash the
//!   estimators themselves report via `EstimateScope::Group`. The query
//!   path is shard-local; feedback is a batched per-shard write stream.
//!   Estimates are provably independent of shard count and batch size.
//! - **Durability** ([`mod@file`], [`codec`]): estimator state round-trips
//!   through a versioned binary snapshot file (`RSNP` magic), portable
//!   across shard counts because partitioning uses that same stable hash.
//! - **Typed errors** ([`error`]): one `#[non_exhaustive]` error enum,
//!   [`ServiceError`], covers configuration, codec, file, and snapshot
//!   failures.
//!
//! # Quick example
//!
//! ```
//! use resmatch_cluster::CapacityLadder;
//! use resmatch_core::spec::EstimatorSpec;
//! use resmatch_core::traits::Feedback;
//! use resmatch_service::prelude::*;
//! use resmatch_workload::job::JobBuilder;
//!
//! let ladder = CapacityLadder::new(vec![32 * 1024, 16 * 1024, 8 * 1024]);
//! let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder)
//!     .shards(8)
//!     .feedback_batch(256);
//! let mut service = EstimatorService::new(&cfg)?;
//!
//! let job = JobBuilder::new(1)
//!     .user(42)
//!     .requested_mem_kb(32 * 1024)
//!     .used_mem_kb(4 * 1024)
//!     .build();
//! let demand = service.estimate(&job);            // hot path: shard-local
//! service.observe(&job, demand, Feedback::success()); // write path: batched
//!
//! let doc = service.snapshot()?;                  // durable, versioned
//! let mut restored = EstimatorService::new(&cfg)?;
//! restored.restore(doc.state)?;
//! assert_eq!(restored.estimate(&job), service.estimate(&job));
//! # Ok::<(), resmatch_service::ServiceError>(())
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

pub mod codec;
pub mod error;
pub mod file;
pub mod service;
mod shard;

/// Common imports for service operators.
pub mod prelude {
    pub use crate::error::ServiceError;
    pub use crate::file::SnapshotDocument;
    pub use crate::service::{
        EstimatorService, JobRouter, ServiceConfig, ServiceShard, ServiceStats,
    };
}

pub use prelude::*;
