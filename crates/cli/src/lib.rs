//! Command-line interface internals for the `resmatch` binary.
//!
//! The binary wraps the workspace's library surface for shell use:
//!
//! ```text
//! resmatch generate --jobs 122055 --seed 42 --out trace.swf
//! resmatch analyze trace.swf
//! resmatch simulate trace.swf --cluster 512x32M,512x24M --estimator successive --load 1.2
//! resmatch sweep trace.swf --cluster 512x32M,512x24M --estimator successive \
//!          --loads 0.2,0.4,0.6,0.8,1.0,1.2 --csv sweep.csv
//! ```
//!
//! Argument handling is a small hand-rolled parser ([`args`]) so the
//! workspace's dependency set stays at the approved crates.

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

pub mod args;
pub mod commands;
pub mod parse;

/// CLI-level error: a message for the user plus the exit code to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
}

impl CliError {
    /// Build from anything stringy.
    pub fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Shorthand result type.
pub type CliResult<T> = Result<T, CliError>;
