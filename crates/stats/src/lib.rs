//! Statistics substrate for the `resmatch` workspace.
//!
//! The paper's analysis and evaluation lean on a handful of statistical
//! tools: histograms over wide dynamic ranges (Figure 1 spans two orders of
//! magnitude of over-provisioning ratios, so its bins are logarithmic),
//! least-squares regression with the R² goodness-of-fit measure (the Figure 1
//! log-linear fit reports R² = 0.69 and the Figure 8 node-count fit reports
//! R² = 0.991), sample summaries, parametric distributions for the
//! synthetic trace, and the two-sample Kolmogorov–Smirnov test.
//!
//! Everything in this crate is dependency-light, deterministic, and
//! allocation-conscious so it can sit on the simulator's hot paths.
//!
//! # Quick example
//!
//! ```
//! use resmatch_stats::regression::SimpleLinearRegression;
//!
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [2.1, 3.9, 6.2, 7.8];
//! let fit = SimpleLinearRegression::fit(&xs, &ys).unwrap();
//! assert!((fit.slope - 2.0).abs() < 0.2);
//! assert!(fit.r_squared > 0.99);
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

pub mod descriptive;
pub mod distributions;
pub mod histogram;
pub mod ks;
pub mod regression;

pub use descriptive::Summary;
pub use histogram::{Histogram, LogHistogram};
pub use ks::{ks_two_sample, KsResult};
pub use regression::{LeastSquares, SimpleLinearRegression};
