//! Claims-as-code: the manifest-driven reproduction pipeline.
//!
//! This crate turns the repository's reproduction of *Improving Resource
//! Matching Through Estimation of Actual Job Requirements* (Yom-Tov &
//! Aridor, HPDC 2006) from a pile of binaries plus a hand-maintained
//! document into a single gated pipeline:
//!
//! - [`experiments`] holds every experiment as a library function
//!   returning an [`report::ExperimentOutput`] — the human-readable
//!   report *and* the named metrics, produced by one run.
//! - [`manifest::MANIFEST`] registers all of them: id, paper artifact,
//!   trace scale, seed, and the coded [`expect::Expectation`]s that gate
//!   each paper claim.
//! - [`runner`] executes selections in parallel (on the sim crate's
//!   worker pool) with [`cache`]d results.
//! - [`render`] regenerates the committed `results/` artifacts and the
//!   paper-vs-measured tables in EXPERIMENTS.md from the same metrics the
//!   checks saw.
//!
//! The `resmatch-repro` binary exposes this as `run` / `check` / `render`
//! / `list`, the one entry point to the experiments. See DESIGN.md §10
//! for the pipeline's design notes and the recipe for adding an
//! experiment.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
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

pub mod cache;
pub mod expect;
pub mod experiments;
pub mod manifest;
pub mod render;
pub mod report;
pub mod runner;
pub mod trace;
