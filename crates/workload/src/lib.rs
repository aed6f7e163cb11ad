//! Workload substrate for the `resmatch` workspace.
//!
//! The paper's evidence base is the LANL CM5 workload file from the Parallel
//! Workloads Archive: 122,055 jobs over roughly two years on a 1024-node
//! Thinking Machines CM-5, one of the few public traces that records both
//! *requested* and *used* memory per job. This crate provides:
//!
//! - the [`job::Job`] model with requested vs. actual resource capacities,
//! - a full Standard Workload Format (SWF) v2 parser/writer ([`swf`]) so the
//!   real trace can be used verbatim when available,
//! - a calibrated synthetic generator ([`synthetic`]) reproducing the
//!   statistics the paper reports about that trace (over-provisioning ratio
//!   distribution, similarity-group structure, CM5 node-count spectrum),
//! - trace analysis routines ([`analysis`]) behind Figures 1, 3, and 4, and
//! - offered-load computation and rescaling ([`load`]).
//!
//! # Quick example
//!
//! ```
//! use resmatch_workload::synthetic::{Cm5Config, generate};
//!
//! let trace = generate(&Cm5Config { jobs: 500, ..Cm5Config::default() }, 42);
//! assert_eq!(trace.jobs().len(), 500);
//! // Every job uses no more memory than it requested (the paper's standing
//! // assumption).
//! assert!(trace.jobs().iter().all(|j| j.used_mem_kb <= j.requested_mem_kb));
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

pub mod analysis;
pub mod attrs;
pub mod calibration;
pub mod filter;
pub mod job;
pub mod load;
pub mod parametric;
pub mod swf;
pub mod synthetic;
pub mod time;

pub use job::{Job, JobId, JobStatus, Workload};
pub use time::Time;
