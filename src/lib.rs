//! # resmatch — resource matching with estimation of actual job requirements
//!
//! A from-scratch reproduction of *"Improving Resource Matching Through
//! Estimation of Actual Job Requirements"* (Elad Yom-Tov and Yariv Aridor,
//! IBM Haifa Research Laboratory / HPDC 2006).
//!
//! Users over-provision: on the LANL CM5 trace about a third of all jobs
//! request at least twice the memory they use, some a hundred times more. On
//! a heterogeneous cluster that pins jobs to the big-memory machines while
//! smaller ones idle. The paper's fix is an *estimator* between submission
//! and resource matching that learns, per group of similar jobs, how much a
//! job actually needs — and this workspace rebuilds the whole system around
//! that idea:
//!
//! - [`workload`] — job model, SWF trace parsing, a calibrated synthetic
//!   LANL-CM5-like generator, over-provisioning analysis;
//! - [`cluster`] — heterogeneous node pools, capacities, allocation,
//!   matching policies;
//! - [`core`] — the estimators: Algorithm 1 (successive approximation) plus
//!   the full Table 1 matrix (last-instance, regression, reinforcement
//!   learning), baselines, and the paper's §2.3 extensions;
//! - [`sim`] — a discrete-event scheduling simulator with the paper's FCFS
//!   and failure semantics, metrics, and parallel experiment drivers;
//! - [`service`] — the estimators as a long-running online service:
//!   similarity groups hash-sharded across shard-local estimators, batched
//!   feedback, and versioned binary snapshot/restore;
//! - [`stats`] — histograms, regression, distributions, and the
//!   Kolmogorov–Smirnov test used throughout;
//! - [`classad`] — a miniature Condor-style ClassAd matchmaking language
//!   (the declarative substrate the paper's related work builds on), with
//!   a bridge proving it matches exactly like the native matcher and an
//!   indexed [`classad::Matchmaker`] that plugs straight into the
//!   simulator's allocation path (`Simulation::with_matchmaking`).
//!
//! # Quickstart
//!
//! ```
//! use resmatch::prelude::*;
//!
//! // A small CM5-like trace and the paper's Figure 5 cluster.
//! let trace = generate(&Cm5Config { jobs: 400, ..Cm5Config::default() }, 42);
//! let cluster = ClusterBuilder::new()
//!     .pool(512, 32 * 1024)
//!     .pool(512, 24 * 1024)
//!     .build();
//!
//! // Simulate without and with estimation.
//! let baseline = Simulation::new(SimConfig::default(), cluster.clone(), EstimatorSpec::PassThrough)
//!     .run(&trace);
//! let estimated = Simulation::new(SimConfig::default(), cluster, EstimatorSpec::paper_successive())
//!     .run(&trace);
//!
//! assert_eq!(baseline.completed_jobs, estimated.completed_jobs);
//! // Estimation never hurts utilization on this workload family.
//! assert!(estimated.utilization() >= baseline.utilization() * 0.95);
//! ```

#![warn(missing_docs)]
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

pub use resmatch_classad as classad;
pub use resmatch_cluster as cluster;
pub use resmatch_core as core;
pub use resmatch_service as service;
pub use resmatch_sim as sim;
pub use resmatch_stats as stats;
pub use resmatch_workload as workload;

// Compile-check every Rust snippet in the README as a doctest, so the
// docs job catches API drift the moment a signature changes. Blocks that
// would simulate the full 122k-job trace are fenced `rust,no_run`: they
// must build, not execute, under `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use resmatch_classad::{Matchmaker, PoolAd};
    pub use resmatch_cluster::builder::{cm5_cluster, paper_cluster};
    pub use resmatch_cluster::{
        Allocation, Capacity, CapacityLadder, Cluster, ClusterBuilder, Demand, MatchAll,
        MatchPolicy, PoolMatcher,
    };
    pub use resmatch_core::prelude::*;
    pub use resmatch_service::prelude::*;
    pub use resmatch_sim::prelude::*;
    pub use resmatch_workload::analysis::{
        gain_vs_range, group_size_distribution, histogram_log_fit, overprovisioned_fraction,
        overprovisioning_histogram, trace_stats, GroupKey,
    };
    pub use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
    pub use resmatch_workload::job::JobBuilder;
    pub use resmatch_workload::load::{offered_load, rescale_arrivals, scale_to_load};
    pub use resmatch_workload::synthetic::{generate, service_stream, Cm5Config};
    pub use resmatch_workload::{Job, JobId, JobStatus, Time, Workload};
}
