//! Declarative estimator selection.
//!
//! Experiments describe *which* estimator to run as data rather than code so
//! sweeps can clone configurations across threads and report tables can name
//! their rows. [`EstimatorSpec::build`] instantiates the estimator against a
//! concrete cluster's capacity ladder.

use std::fmt;
use std::str::FromStr;

use resmatch_cluster::CapacityLadder;

use crate::adaptive::{AdaptiveConfig, AdaptiveSimilarity};
use crate::baseline::{Oracle, PassThrough};
use crate::last_instance::{LastInstance, LastInstanceConfig};
use crate::per_resource::{PerResourceConfig, PerResourceEstimator};
use crate::quantile::{QuantileConfig, QuantileEstimator};
use crate::regression::{RegressionConfig, RegressionEstimator};
use crate::reinforcement::{ReinforcementConfig, ReinforcementEstimator};
use crate::robust::{RobustBisection, RobustConfig};
use crate::successive::{SuccessiveApproximation, SuccessiveConfig};
use crate::traits::ResourceEstimator;
use crate::warm_start::{WarmStartConfig, WarmStartEstimator};

/// Every estimator the workspace provides, with its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorSpec {
    /// No estimation (the conventional scheduler).
    PassThrough,
    /// Perfect knowledge of actual usage.
    Oracle,
    /// Algorithm 1 (implicit feedback + similarity groups).
    Successive(SuccessiveConfig),
    /// Last-instance identification (explicit feedback + similarity).
    LastInstance(LastInstanceConfig),
    /// Linear regression on request features (explicit, no similarity).
    Regression(RegressionConfig),
    /// Contextual-bandit RL (implicit, no similarity).
    Reinforcement(ReinforcementConfig),
    /// Robust direct-search bisection (§2.3 extension).
    Robust(RobustConfig),
    /// Per-resource successive approximation: memory via Algorithm 1,
    /// disk via a parallel ladder-free channel (§2.3, matchmaking mode).
    PerResource(PerResourceConfig),
    /// Quantile-of-window estimation (explicit feedback + similarity, with
    /// a risk dial).
    Quantile(QuantileConfig),
    /// Hierarchical online similarity refinement (§4 future work).
    Adaptive(AdaptiveConfig),
    /// Regression-seeded successive approximation (§4 future work). Built
    /// untrained; it arms its prior from explicit feedback online (run it
    /// under the simulator's explicit feedback mode).
    WarmStart(WarmStartConfig),
}

impl EstimatorSpec {
    /// Algorithm 1 with the paper's experimental settings (α = 2, β = 0).
    pub fn paper_successive() -> Self {
        EstimatorSpec::Successive(SuccessiveConfig::default())
    }

    /// Instantiate for a cluster with the given capacity ladder.
    ///
    /// # Panics
    /// Panics when [`EstimatorSpec::params_in_range`] is false: each
    /// estimator's constructor asserts its parameter ranges.
    pub fn build(&self, ladder: &CapacityLadder) -> Box<dyn ResourceEstimator> {
        match *self {
            EstimatorSpec::PassThrough => Box::new(PassThrough),
            EstimatorSpec::Oracle => Box::new(Oracle),
            EstimatorSpec::Successive(cfg) => {
                Box::new(SuccessiveApproximation::new(cfg, ladder.clone()))
            }
            EstimatorSpec::LastInstance(cfg) => Box::new(LastInstance::new(cfg)),
            EstimatorSpec::Regression(cfg) => Box::new(RegressionEstimator::new(cfg)),
            EstimatorSpec::Reinforcement(cfg) => Box::new(ReinforcementEstimator::new(cfg)),
            EstimatorSpec::Robust(cfg) => Box::new(RobustBisection::new(cfg)),
            EstimatorSpec::PerResource(cfg) => {
                Box::new(PerResourceEstimator::new(cfg, ladder.clone()))
            }
            EstimatorSpec::Quantile(cfg) => Box::new(QuantileEstimator::new(cfg)),
            EstimatorSpec::Adaptive(cfg) => Box::new(AdaptiveSimilarity::new(cfg, ladder.clone())),
            EstimatorSpec::WarmStart(cfg) => Box::new(WarmStartEstimator::new(cfg, ladder.clone())),
        }
    }

    /// Human-readable name matching the built estimator's `name()`.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorSpec::PassThrough => "pass-through",
            EstimatorSpec::Oracle => "oracle",
            EstimatorSpec::Successive(_) => "successive-approximation",
            EstimatorSpec::LastInstance(_) => "last-instance",
            EstimatorSpec::Regression(_) => "regression",
            EstimatorSpec::Reinforcement(_) => "reinforcement-learning",
            EstimatorSpec::Robust(_) => "robust-bisection",
            EstimatorSpec::PerResource(_) => "per-resource",
            EstimatorSpec::Quantile(_) => "quantile",
            EstimatorSpec::Adaptive(_) => "adaptive-similarity",
            EstimatorSpec::WarmStart(_) => "warm-start-successive",
        }
    }

    /// Whether this estimator needs explicit (measured-usage) feedback to
    /// function as designed.
    pub fn wants_explicit_feedback(&self) -> bool {
        matches!(
            self,
            EstimatorSpec::LastInstance(_)
                | EstimatorSpec::Regression(_)
                | EstimatorSpec::WarmStart(_)
                | EstimatorSpec::Quantile(_)
        )
    }

    /// Canonical short names, in [`FromStr`] grammar order. `"none"` also
    /// parses as an alias for `"pass-through"`.
    pub const NAMES: &'static [&'static str] = &[
        "pass-through",
        "oracle",
        "successive",
        "last-instance",
        "regression",
        "reinforcement",
        "robust",
        "per-resource",
        "quantile",
        "adaptive",
        "warm-start",
    ];

    /// The canonical short name this spec renders as (and parses from).
    pub fn short_name(&self) -> &'static str {
        match self {
            EstimatorSpec::PassThrough => "pass-through",
            EstimatorSpec::Oracle => "oracle",
            EstimatorSpec::Successive(_) => "successive",
            EstimatorSpec::LastInstance(_) => "last-instance",
            EstimatorSpec::Regression(_) => "regression",
            EstimatorSpec::Reinforcement(_) => "reinforcement",
            EstimatorSpec::Robust(_) => "robust",
            EstimatorSpec::PerResource(_) => "per-resource",
            EstimatorSpec::Quantile(_) => "quantile",
            EstimatorSpec::Adaptive(_) => "adaptive",
            EstimatorSpec::WarmStart(_) => "warm-start",
        }
    }

    /// The successive-approximation (α, β) this spec carries, for the
    /// variants built on Algorithm 1.
    fn successive_params(&self) -> Option<(f64, f64)> {
        match self {
            EstimatorSpec::Successive(c) => Some((c.alpha, c.beta)),
            EstimatorSpec::PerResource(c) => Some((c.memory.alpha, c.memory.beta)),
            EstimatorSpec::Adaptive(c) => Some((c.successive.alpha, c.successive.beta)),
            EstimatorSpec::WarmStart(c) => Some((c.successive.alpha, c.successive.beta)),
            _ => None,
        }
    }

    /// Whether every parameter [`EstimatorSpec::build`]'s constructors
    /// assert on lies in range: each Algorithm-1 (α, β) this spec carries
    /// is a finite α > 1 and 0 ≤ β < 1; robust bisection's tolerance
    /// exceeds 1; a quantile lies in (0, 1]; windows, observation and
    /// sample counts are at least 1; and margins, safety factors and the
    /// warm start's prior headroom are at least 1. The constructors panic
    /// outside these ranges, so [`FromStr`], the simulator's builder and
    /// the estimator service check them first.
    pub fn params_in_range(&self) -> bool {
        let algorithm1 =
            |alpha: f64, beta: f64| alpha.is_finite() && alpha > 1.0 && (0.0..1.0).contains(&beta);
        let successive = |c: &SuccessiveConfig| algorithm1(c.alpha, c.beta);
        let regression = |c: &RegressionConfig| c.safety_factor >= 1.0 && c.min_samples >= 1;
        match self {
            EstimatorSpec::PassThrough
            | EstimatorSpec::Oracle
            | EstimatorSpec::Reinforcement(_) => true,
            EstimatorSpec::Successive(c) => successive(c),
            EstimatorSpec::Adaptive(c) => successive(&c.successive),
            EstimatorSpec::PerResource(c) => {
                successive(&c.memory) && algorithm1(c.disk_alpha, c.disk_beta)
            }
            EstimatorSpec::WarmStart(c) => {
                successive(&c.successive) && regression(&c.regression) && c.prior_headroom >= 1.0
            }
            EstimatorSpec::Regression(c) => regression(c),
            EstimatorSpec::Robust(c) => c.tolerance > 1.0,
            EstimatorSpec::LastInstance(c) => c.window >= 1 && c.margin >= 1.0,
            EstimatorSpec::Quantile(c) => {
                c.quantile > 0.0
                    && c.quantile <= 1.0
                    && c.window >= 1
                    && c.margin >= 1.0
                    && c.min_observations >= 1
            }
        }
    }

    /// Override the successive-approximation α/β on the variants built on
    /// Algorithm 1 (successive, per-resource, adaptive, warm-start);
    /// no-op for the rest.
    pub fn with_alpha_beta(self, alpha: f64, beta: f64) -> Self {
        match self {
            EstimatorSpec::Successive(mut c) => {
                c.alpha = alpha;
                c.beta = beta;
                EstimatorSpec::Successive(c)
            }
            EstimatorSpec::PerResource(mut c) => {
                // The override speaks for both channels: a sweep over α/β
                // probes memory and disk at the same aggressiveness.
                c.memory.alpha = alpha;
                c.memory.beta = beta;
                c.disk_alpha = alpha;
                c.disk_beta = beta;
                EstimatorSpec::PerResource(c)
            }
            EstimatorSpec::Adaptive(mut c) => {
                c.successive.alpha = alpha;
                c.successive.beta = beta;
                EstimatorSpec::Adaptive(c)
            }
            EstimatorSpec::WarmStart(mut c) => {
                c.successive.alpha = alpha;
                c.successive.beta = beta;
                EstimatorSpec::WarmStart(c)
            }
            other => other,
        }
    }
}

/// Renders the [`FromStr`] grammar: the canonical short name, plus an
/// `:alpha,beta` suffix for the Algorithm-1 family when (α, β) differ
/// from [`SuccessiveConfig::default`]. Round-trips through [`FromStr`]
/// for any spec whose (α, β) lie in the ranges [`FromStr`] accepts and
/// whose remaining configuration is default — the suffix is the only
/// non-default state the grammar can carry.
impl fmt::Display for EstimatorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.short_name();
        let default = SuccessiveConfig::default();
        match self.successive_params() {
            Some((alpha, beta)) if (alpha, beta) != (default.alpha, default.beta) => {
                write!(f, "{name}:{alpha},{beta}")
            }
            _ => write!(f, "{name}"),
        }
    }
}

/// Error from parsing an [`EstimatorSpec`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseEstimatorError {
    /// The name before any `:` matched no known estimator.
    UnknownName(String),
    /// The `:alpha[,beta]` suffix did not parse as numbers with a finite
    /// α > 1 and 0 ≤ β < 1, the ranges Algorithm 1 is defined on.
    BadParams(String),
    /// A parameter suffix was given for an estimator outside the
    /// Algorithm-1 family.
    ParamsNotSupported(&'static str),
}

impl fmt::Display for ParseEstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseEstimatorError::UnknownName(name) => write!(
                f,
                "unknown estimator {name:?}; expected one of {}",
                EstimatorSpec::NAMES.join(", ")
            ),
            ParseEstimatorError::BadParams(raw) => write!(
                f,
                "bad estimator parameters {raw:?}; expected \"alpha\" or \"alpha,beta\" \
                 with a finite alpha > 1 and 0 <= beta < 1"
            ),
            ParseEstimatorError::ParamsNotSupported(name) => {
                write!(f, "estimator {name} takes no alpha/beta parameters")
            }
        }
    }
}

impl std::error::Error for ParseEstimatorError {}

/// Grammar: `name[:alpha[,beta]]`, e.g. `successive`, `successive:4`,
/// `adaptive:2.5,0.1`. Names are the canonical short names in
/// [`EstimatorSpec::NAMES`] (plus `none` for `pass-through`); the
/// parameter suffix is only accepted by the Algorithm-1 family, with a
/// finite α > 1 and 0 ≤ β < 1 (an omitted β is 0). All other
/// configuration stays at its default — the grammar is the CLI surface,
/// not a full serialization.
impl FromStr for EstimatorSpec {
    type Err = ParseEstimatorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (name, params) = match s.split_once(':') {
            Some((n, p)) => (n.trim(), Some(p.trim())),
            None => (s, None),
        };
        let spec = match name {
            "pass-through" | "none" => EstimatorSpec::PassThrough,
            "oracle" => EstimatorSpec::Oracle,
            "successive" => EstimatorSpec::Successive(SuccessiveConfig::default()),
            "last-instance" => EstimatorSpec::LastInstance(LastInstanceConfig::default()),
            "regression" => EstimatorSpec::Regression(RegressionConfig::default()),
            "reinforcement" => EstimatorSpec::Reinforcement(ReinforcementConfig::default()),
            "robust" => EstimatorSpec::Robust(RobustConfig::default()),
            "per-resource" => EstimatorSpec::PerResource(PerResourceConfig::default()),
            "quantile" => EstimatorSpec::Quantile(QuantileConfig::default()),
            "adaptive" => EstimatorSpec::Adaptive(AdaptiveConfig::default()),
            "warm-start" => EstimatorSpec::WarmStart(WarmStartConfig::default()),
            other => return Err(ParseEstimatorError::UnknownName(other.to_string())),
        };
        let Some(raw) = params else {
            return Ok(spec);
        };
        if spec.successive_params().is_none() {
            return Err(ParseEstimatorError::ParamsNotSupported(spec.short_name()));
        }
        let bad = || ParseEstimatorError::BadParams(raw.to_string());
        let (alpha, beta) = match raw.split_once(',') {
            Some((a, b)) => (
                a.trim().parse::<f64>().map_err(|_| bad())?,
                b.trim().parse::<f64>().map_err(|_| bad())?,
            ),
            None => (
                raw.parse::<f64>().map_err(|_| bad())?,
                SuccessiveConfig::default().beta,
            ),
        };
        let spec = spec.with_alpha_beta(alpha, beta);
        if !spec.params_in_range() {
            return Err(bad());
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> CapacityLadder {
        CapacityLadder::new(vec![32 * 1024, 24 * 1024])
    }

    #[test]
    fn every_spec_builds_and_names_consistently() {
        for name in EstimatorSpec::NAMES {
            let spec: EstimatorSpec = name.parse().unwrap();
            let built = spec.build(&ladder());
            assert_eq!(built.name(), spec.name());
        }
    }

    #[test]
    fn display_and_fromstr_round_trip_all_names() {
        for name in EstimatorSpec::NAMES {
            let spec: EstimatorSpec = name.parse().unwrap();
            assert_eq!(spec.short_name(), *name);
            assert_eq!(spec.to_string(), *name, "default specs omit the suffix");
            assert_eq!(spec.to_string().parse::<EstimatorSpec>().unwrap(), spec);
        }
        assert_eq!(
            "none".parse::<EstimatorSpec>().unwrap(),
            EstimatorSpec::PassThrough
        );
    }

    #[test]
    fn alpha_beta_suffix_round_trips() {
        let spec: EstimatorSpec = "successive:4,0.5".parse().unwrap();
        assert_eq!(
            spec,
            EstimatorSpec::paper_successive().with_alpha_beta(4.0, 0.5)
        );
        assert_eq!(spec.to_string(), "successive:4,0.5");
        assert_eq!(spec.to_string().parse::<EstimatorSpec>().unwrap(), spec);

        // Single parameter: beta stays default.
        let spec: EstimatorSpec = "adaptive:3".parse().unwrap();
        assert_eq!(spec.to_string(), "adaptive:3,0");

        // Whitespace tolerated.
        let spec: EstimatorSpec = " warm-start : 2.5 , 0.1 ".parse().unwrap();
        assert_eq!(spec.to_string(), "warm-start:2.5,0.1");
    }

    #[test]
    fn fromstr_rejects_bad_input() {
        assert!(matches!(
            "bogus".parse::<EstimatorSpec>(),
            Err(ParseEstimatorError::UnknownName(_))
        ));
        assert!(matches!(
            "successive:abc".parse::<EstimatorSpec>(),
            Err(ParseEstimatorError::BadParams(_))
        ));
        // Non-finite values, α ≤ 1 and β outside [0, 1) would panic in
        // `SuccessiveApproximation::new`; they are parse errors instead.
        for bad in [
            "successive:inf,0",
            "successive:2,nan",
            "successive:1",
            "successive:0.5",
            "successive:-3",
            "successive:2,1",
            "successive:2,-0.5",
            "adaptive:0.5",
            "per-resource:2,-0.5",
            "warm-start:3,1.5",
        ] {
            match bad.parse::<EstimatorSpec>() {
                Err(e @ ParseEstimatorError::BadParams(_)) => {
                    let msg = e.to_string();
                    assert!(msg.contains("alpha > 1 and 0 <= beta < 1"), "{msg}");
                }
                other => panic!("{bad} parsed as {other:?}"),
            }
        }
        assert!("successive:1.0001,0.9999".parse::<EstimatorSpec>().is_ok());
        assert!(matches!(
            "oracle:2,0".parse::<EstimatorSpec>(),
            Err(ParseEstimatorError::ParamsNotSupported("oracle"))
        ));
        let msg = "bogus".parse::<EstimatorSpec>().unwrap_err().to_string();
        assert!(msg.contains("pass-through"), "{msg}");
    }

    #[test]
    fn params_in_range_covers_every_channel() {
        assert!(EstimatorSpec::paper_successive().params_in_range());
        assert!(EstimatorSpec::Oracle.params_in_range());
        for (alpha, beta) in [
            (1.0, 0.0),
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.0),
            (2.0, 1.0),
        ] {
            let spec = EstimatorSpec::paper_successive().with_alpha_beta(alpha, beta);
            assert!(!spec.params_in_range(), "{alpha}, {beta}");
        }
        let cfg = PerResourceConfig {
            disk_beta: -0.5,
            ..PerResourceConfig::default()
        };
        assert!(!EstimatorSpec::PerResource(cfg).params_in_range());
        // Every family's defaults are in range; one spec per constructor
        // assert that `build` can reach is out of range and does panic.
        for name in EstimatorSpec::NAMES {
            let spec: EstimatorSpec = name.parse().unwrap();
            assert!(spec.params_in_range(), "{name}");
        }
        for spec in out_of_range_specs() {
            assert!(!spec.params_in_range(), "{spec:?}");
            let built = std::panic::catch_unwind(|| spec.build(&ladder()));
            assert!(built.is_err(), "{spec:?} built without panicking");
        }
    }

    /// One spec per constructor assert that `build` can reach.
    fn out_of_range_specs() -> Vec<EstimatorSpec> {
        let robust = |tolerance| {
            EstimatorSpec::Robust(RobustConfig {
                tolerance,
                ..RobustConfig::default()
            })
        };
        let regression = |safety_factor, min_samples| RegressionConfig {
            safety_factor,
            min_samples,
            ..RegressionConfig::default()
        };
        let warm = |prior_headroom, regression| {
            EstimatorSpec::WarmStart(WarmStartConfig {
                prior_headroom,
                regression,
                ..WarmStartConfig::default()
            })
        };
        let quantile = |quantile, window, margin, min_observations| {
            EstimatorSpec::Quantile(QuantileConfig {
                quantile,
                window,
                margin,
                min_observations,
                ..QuantileConfig::default()
            })
        };
        let last = |window, margin| {
            EstimatorSpec::LastInstance(LastInstanceConfig {
                window,
                margin,
                ..LastInstanceConfig::default()
            })
        };
        vec![
            robust(1.0),
            robust(f64::NAN),
            warm(0.5, RegressionConfig::default()),
            warm(2.0, regression(0.5, 50)),
            warm(2.0, regression(1.25, 0)),
            EstimatorSpec::WarmStart(WarmStartConfig::default()).with_alpha_beta(1.0, 0.0),
            quantile(0.0, 32, 1.1, 3),
            quantile(1.5, 32, 1.1, 3),
            quantile(1.0, 0, 1.1, 3),
            quantile(1.0, 32, 0.5, 3),
            quantile(1.0, 32, 1.1, 0),
            last(0, 1.0),
            last(1, 0.5),
            EstimatorSpec::Regression(regression(0.5, 50)),
            EstimatorSpec::Regression(regression(1.25, 0)),
        ]
    }

    #[test]
    fn explicit_feedback_flags() {
        assert!(
            EstimatorSpec::LastInstance(LastInstanceConfig::default()).wants_explicit_feedback()
        );
        assert!(EstimatorSpec::Regression(RegressionConfig::default()).wants_explicit_feedback());
        assert!(!EstimatorSpec::paper_successive().wants_explicit_feedback());
        assert!(!EstimatorSpec::PassThrough.wants_explicit_feedback());
    }
}
