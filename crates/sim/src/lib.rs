//! Discrete-event cluster scheduling simulator for the `resmatch` workspace.
//!
//! Reproduces the paper's §3.1 simulation environment: a space-shared
//! heterogeneous cluster, FCFS scheduling with no preemption (plus EASY
//! backfilling and shortest-job-first as the extensions the paper defers to
//! future work), and the paper's failure semantics — "when a job is
//! scheduled for execution, but not enough resources are allocated for it,
//! it fails after a random time, drawn uniformly between zero and the
//! execution run-time of that job. Once it fails, the job returns to the
//! head of the queue."
//!
//! The estimator under test plugs in through
//! [`resmatch_core::ResourceEstimator`]; [`spec::EstimatorSpec`] names every
//! estimator in the workspace so experiments stay declarative, and
//! [`experiment`] drives offered-load and cluster sweeps (in parallel, one
//! deterministic simulation per thread).
//!
//! # Quick example
//!
//! ```
//! use resmatch_sim::prelude::*;
//! use resmatch_cluster::ClusterBuilder;
//! use resmatch_workload::synthetic::{generate, Cm5Config};
//!
//! let trace = generate(&Cm5Config { jobs: 300, ..Cm5Config::default() }, 7);
//! let cluster = ClusterBuilder::new().pool(512, 32 * 1024).pool(512, 24 * 1024).build();
//! let result = Simulation::new(SimConfig::default(), cluster, EstimatorSpec::PassThrough)
//!     .run(&trace);
//! assert_eq!(result.completed_jobs, 300);
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

pub mod build;
pub mod csv;
pub mod engine;
mod event;
pub mod experiment;
pub mod metrics;
pub mod observer;
mod queue;
mod release;
pub mod scheduler;
mod store;
pub mod tracelog;

// `EstimatorSpec` moved to `resmatch_core::spec` so non-simulating callers
// (the estimator service) can build estimators declaratively; the old
// `resmatch_sim::spec` path keeps working through this re-export.
pub use resmatch_core::spec;

/// Common imports for simulator users.
pub mod prelude {
    pub use crate::build::{SimError, SimulationBuilder};
    pub use crate::engine::{ChurnEvent, FeedbackMode, SimArena, SimConfig, Simulation};
    pub use crate::experiment::{
        cluster_sweep_csv, load_sweep_csv, run_cluster_sweep, run_cluster_sweep_observed,
        run_load_sweep, run_load_sweep_observed, ClusterSweepPoint, LoadPoint, SweepConfig,
    };
    pub use crate::metrics::{saturation_utilization, JobRecord, RunCounters, SimResult};
    pub use crate::observer::{
        CountersObserver, CountersSnapshot, MultiObserver, ProgressObserver, SimObserver,
        SweepObserver, TraceLogObserver,
    };
    pub use crate::scheduler::SchedulingPolicy;
    pub use crate::spec::{EstimatorSpec, ParseEstimatorError};
    pub use crate::tracelog::{TraceEntry, TraceKind, TraceLog};
}

pub use prelude::*;
