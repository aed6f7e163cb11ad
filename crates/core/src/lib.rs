//! Estimation of actual job requirements — the paper's primary contribution.
//!
//! Users over-provision: they request resource capacities (memory, disk,
//! software prerequisites) well beyond what their jobs use, and every
//! conventional matcher honours the request, so capable machines idle while
//! jobs queue. This crate provides estimators that sit *between* submission
//! and resource allocation (the paper's Figure 2): given a job, they produce
//! a — usually smaller — demand for the allocator to match, and learn from
//! per-job feedback.
//!
//! The paper's Table 1 organizes the estimator design space by feedback type
//! and whether similar jobs can be identified; this crate implements all
//! four quadrants plus reference baselines:
//!
//! | | Implicit feedback | Explicit feedback |
//! |---|---|---|
//! | **Similar jobs** | [`successive::SuccessiveApproximation`] (Algorithm 1) | [`last_instance::LastInstance`] |
//! | **No similarity** | [`reinforcement::ReinforcementEstimator`] | [`regression::RegressionEstimator`] |
//!
//! Baselines: [`baseline::PassThrough`] (no estimation — what every
//! conventional scheduler does) and [`baseline::Oracle`] (perfect knowledge
//! of actual usage — the upper bound). Extensions the paper sketches:
//! [`robust::RobustBisection`] (direct-search refinement for heterogeneous
//! groups, §2.3) and [`per_resource::PerResourceEstimator`] (Algorithm 1
//! applied to memory and disk as separate channels, §2.3).
//!
//! # Quick example
//!
//! ```
//! use resmatch_core::prelude::*;
//! use resmatch_cluster::{CapacityLadder, Demand};
//! use resmatch_workload::job::JobBuilder;
//!
//! let ladder = CapacityLadder::new(vec![4 * 1024, 24 * 1024, 32 * 1024]);
//! let mut est = SuccessiveApproximation::new(SuccessiveConfig::default(), ladder);
//!
//! let job = JobBuilder::new(1)
//!     .requested_mem_kb(32 * 1024)
//!     .used_mem_kb(5 * 1024)
//!     .build();
//! let ctx = EstimateContext::default();
//! let demand = est.estimate(&job, &ctx);
//! assert_eq!(demand.mem_kb, 32 * 1024); // first submission: trust the user
//! est.feedback(&job, &demand, &Feedback::success(), &ctx);
//! let second = est.estimate(&job, &ctx);
//! assert!(second.mem_kb < demand.mem_kb); // now it probes lower
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

pub mod adaptive;
pub mod baseline;
pub mod last_instance;
pub mod per_resource;
pub mod quantile;
pub mod regression;
pub mod reinforcement;
pub mod robust;
pub mod similarity;
pub mod snapshot;
pub mod spec;
pub mod successive;
pub mod traits;
pub mod warm_start;

/// Common imports for estimator users.
pub mod prelude {
    pub use crate::adaptive::{AdaptiveConfig, AdaptiveSimilarity};
    pub use crate::baseline::{Oracle, PassThrough};
    pub use crate::last_instance::{LastInstance, LastInstanceConfig};
    pub use crate::per_resource::{PerResourceConfig, PerResourceEstimator};
    pub use crate::quantile::{QuantileConfig, QuantileEstimator};
    pub use crate::regression::{RegressionConfig, RegressionEstimator};
    pub use crate::reinforcement::{ReinforcementConfig, ReinforcementEstimator};
    pub use crate::robust::{RobustBisection, RobustConfig};
    pub use crate::similarity::SimilarityPolicy;
    pub use crate::snapshot::{SnapshotError, SnapshotState};
    pub use crate::spec::{EstimatorSpec, ParseEstimatorError};
    pub use crate::successive::{SuccessiveApproximation, SuccessiveConfig};
    pub use crate::traits::{EstimateContext, EstimateScope, Feedback, ResourceEstimator};
    pub use crate::warm_start::{WarmStartConfig, WarmStartEstimator};
}

pub use prelude::*;
