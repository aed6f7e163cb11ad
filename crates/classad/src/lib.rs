//! A miniature `ClassAd` matchmaking language.
//!
//! The paper's related-work section grounds resource matching in Condor's
//! `ClassAds`: "jobs and resources declare their capabilities, constraints,
//! and preferences using `ClassAds` ... two `ClassAds` are matched against each
//! other", and "successful matching occurs when the available resource
//! capacity is equal to or greater than the job request". This crate
//! implements that substrate: a declarative attribute/expression language
//! with Condor's symmetric two-ad matchmaking semantics, plus a bridge
//! mapping this workspace's jobs and node capacities onto ads — so the
//! estimator's effect can be expressed the way a production matchmaker
//! would see it (the estimator rewrites the *job ad's* requested
//! attributes; the matchmaker is untouched, exactly the paper's Figure 2
//! separation).
//!
//! Supported language: integer/float/boolean/string literals, attribute
//! references (`Memory`), scoped references (`my.RequestedMemory`,
//! `other.Memory`), arithmetic (`+ - * /`), comparisons, `&&`/`||`/`!`,
//! and parentheses — with ClassAd-style three-valued logic (`undefined`
//! propagates, `&&`/`||` short-circuit around it).
//!
//! ```
//! use resmatch_classad::{ClassAd, matches};
//!
//! let mut machine = ClassAd::new();
//! machine.insert_int("Memory", 24 * 1024);
//! machine
//!     .insert_expr("Requirements", "other.RequestedMemory <= my.Memory")
//!     .unwrap();
//!
//! let mut job = ClassAd::new();
//! job.insert_int("RequestedMemory", 16 * 1024);
//! job.insert_expr("Requirements", "other.Memory >= my.RequestedMemory")
//!     .unwrap();
//!
//! assert!(matches(&job, &machine).unwrap());
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

pub mod ad;
pub mod bridge;
pub mod compile;
pub mod eval;
pub mod lexer;
pub mod matchmaker;
pub mod parser;
pub mod value;

pub use ad::{matches, rank, ClassAd};
pub use compile::{compile, AdSchema, CompiledExpr};
pub use eval::EvalError;
pub use matchmaker::{Matchmaker, PoolAd};
pub use parser::{parse, ParseError};
pub use value::Value;
