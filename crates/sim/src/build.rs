//! Builder-first construction for [`Simulation`].
//!
//! The positional constructors on [`Simulation`] cover the common
//! no-observer case; the builder is the front door once a run needs any
//! combination of configuration, churn schedule, and observers:
//!
//! ```
//! use resmatch_sim::prelude::*;
//! use resmatch_cluster::ClusterBuilder;
//!
//! let cluster = ClusterBuilder::new().pool(16, 32 * 1024).build();
//! let sim = Simulation::builder()
//!     .config(SimConfig::default().with_seed(7))
//!     .cluster(cluster)
//!     .estimator(EstimatorSpec::paper_successive())
//!     .trace_log()
//!     .build()
//!     .unwrap();
//! # let _ = sim;
//! ```

use std::fmt;

use resmatch_cluster::{Cluster, PoolMatcher};
use resmatch_core::ResourceEstimator;

use crate::engine::{ChurnEvent, SimConfig, Simulation};
use crate::observer::{SimObserver, TraceLogObserver};
use crate::spec::EstimatorSpec;

/// Where the builder gets its estimator from.
enum EstimatorSource {
    /// Declarative spec, instantiated against the cluster's capacity
    /// ladder at [`SimulationBuilder::build`] time.
    Spec(EstimatorSpec),
    /// Caller-provided implementation, used as-is.
    Boxed(Box<dyn ResourceEstimator>),
}

/// The simulator crate's workspace-facing error type (formerly
/// `BuildError`): a missing builder component or an unusable estimator
/// spec. The enum is `#[non_exhaustive]` so later seams (workload
/// validation, churn-schedule checks) can add variants without a breaking
/// release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// No [`SimulationBuilder::cluster`] call.
    MissingCluster,
    /// Neither [`SimulationBuilder::estimator`] nor
    /// [`SimulationBuilder::boxed_estimator`] was called.
    MissingEstimator,
    /// The estimator spec's parameters lie outside the ranges its
    /// constructor accepts ([`EstimatorSpec::params_in_range`]).
    EstimatorParamsOutOfRange,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingCluster => write!(f, "simulation builder: no cluster supplied"),
            SimError::MissingEstimator => {
                write!(
                    f,
                    "simulation builder: no estimator spec or implementation supplied"
                )
            }
            SimError::EstimatorParamsOutOfRange => write!(
                f,
                "simulation builder: estimator parameters out of range (alpha must be finite \
                 and above 1, beta in [0, 1); see EstimatorSpec::params_in_range)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Typed, chainable construction for [`Simulation`].
///
/// Obtain one via [`Simulation::builder`]. `cluster` and an estimator
/// (spec or boxed) are required; everything else defaults to the paper's
/// baseline (default [`SimConfig`], no churn, no observers).
#[must_use = "call .build() to obtain the Simulation"]
pub struct SimulationBuilder {
    cfg: SimConfig,
    cluster: Option<Cluster>,
    estimator: Option<EstimatorSource>,
    churn: Vec<ChurnEvent>,
    observers: Vec<Box<dyn SimObserver>>,
    matchmaking: Option<Box<dyn PoolMatcher>>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// Fresh builder with default [`SimConfig`] and nothing else set.
    pub fn new() -> Self {
        SimulationBuilder {
            cfg: SimConfig::default(),
            cluster: None,
            estimator: None,
            churn: Vec::new(),
            observers: Vec::new(),
            matchmaking: None,
        }
    }

    /// Set the engine configuration (replaces the current one).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the cluster the workload runs against (required).
    pub fn cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Select an estimator by spec; it is instantiated against the
    /// cluster's capacity ladder when [`build`](Self::build) runs.
    /// Replaces any previously set estimator.
    pub fn estimator(mut self, spec: EstimatorSpec) -> Self {
        self.estimator = Some(EstimatorSource::Spec(spec));
        self
    }

    /// Use a caller-provided estimator implementation. Replaces any
    /// previously set estimator.
    pub fn boxed_estimator(mut self, estimator: Box<dyn ResourceEstimator>) -> Self {
        self.estimator = Some(EstimatorSource::Boxed(estimator));
        self
    }

    /// Attach a dynamic-membership schedule (replaces the current one).
    pub fn churn(mut self, churn: Vec<ChurnEvent>) -> Self {
        self.churn = churn;
        self
    }

    /// Attach an observer. May be called repeatedly; observers are
    /// stacked and called in attachment order.
    pub fn observer(mut self, observer: Box<dyn SimObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sugar for attaching a [`TraceLogObserver`], recording every
    /// scheduling decision into the run's
    /// [`SimResult::trace_log`](crate::metrics::SimResult::trace_log).
    pub fn trace_log(self) -> Self {
        self.observer(Box::new(TraceLogObserver::new()))
    }

    /// Attach a matchmaking layer (see
    /// [`Simulation::with_matchmaking`]). Replaces any previously set
    /// matcher; the default is the legacy capacity-only path.
    pub fn matchmaking(mut self, matcher: Box<dyn PoolMatcher>) -> Self {
        self.matchmaking = Some(matcher);
        self
    }

    /// Assemble the [`Simulation`].
    ///
    /// # Errors
    /// [`SimError::MissingCluster`] or [`SimError::MissingEstimator`]
    /// when a required component was never supplied, and
    /// [`SimError::EstimatorParamsOutOfRange`] for a spec whose
    /// parameters [`Simulation::new`] would panic on.
    pub fn build(self) -> Result<Simulation, SimError> {
        let cluster = self.cluster.ok_or(SimError::MissingCluster)?;
        let sim = match self.estimator.ok_or(SimError::MissingEstimator)? {
            EstimatorSource::Spec(spec) if !spec.params_in_range() => {
                return Err(SimError::EstimatorParamsOutOfRange)
            }
            EstimatorSource::Spec(spec) => Simulation::new(self.cfg, cluster, spec),
            EstimatorSource::Boxed(est) => Simulation::from_parts(self.cfg, cluster, est),
        };
        let mut sim = sim.with_churn(self.churn);
        if let Some(matcher) = self.matchmaking {
            sim = sim.with_matchmaking(matcher);
        }
        Ok(self
            .observers
            .into_iter()
            .fold(sim, Simulation::with_observer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_cluster::ClusterBuilder;

    fn cluster() -> Cluster {
        ClusterBuilder::new().pool(4, 32 * 1024).build()
    }

    #[test]
    fn missing_parts_are_reported() {
        assert_eq!(
            Simulation::builder().build().err(),
            Some(SimError::MissingCluster)
        );
        assert_eq!(
            Simulation::builder().cluster(cluster()).build().err(),
            Some(SimError::MissingEstimator)
        );
        let msg = SimError::MissingEstimator.to_string();
        assert!(msg.contains("estimator"), "{msg}");
    }

    #[test]
    fn out_of_range_params_are_reported() {
        use resmatch_core::{
            LastInstanceConfig, QuantileConfig, RegressionConfig, RobustConfig, WarmStartConfig,
        };
        // One spec per family whose constructor `Simulation::new` would
        // panic on.
        for spec in [
            EstimatorSpec::paper_successive().with_alpha_beta(1.0, 0.0),
            EstimatorSpec::Robust(RobustConfig {
                tolerance: 1.0,
                ..RobustConfig::default()
            }),
            EstimatorSpec::WarmStart(WarmStartConfig {
                prior_headroom: 0.5,
                ..WarmStartConfig::default()
            }),
            EstimatorSpec::Quantile(QuantileConfig {
                quantile: 0.0,
                ..QuantileConfig::default()
            }),
            EstimatorSpec::LastInstance(LastInstanceConfig {
                window: 0,
                ..LastInstanceConfig::default()
            }),
            EstimatorSpec::Regression(RegressionConfig {
                safety_factor: 0.5,
                ..RegressionConfig::default()
            }),
        ] {
            let built = Simulation::builder()
                .cluster(cluster())
                .estimator(spec)
                .build();
            assert_eq!(
                built.err(),
                Some(SimError::EstimatorParamsOutOfRange),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn full_chain_builds() {
        let sim = Simulation::builder()
            .config(SimConfig::default().with_seed(3))
            .cluster(cluster())
            .estimator(EstimatorSpec::PassThrough)
            .churn(vec![])
            .trace_log()
            .build();
        assert!(sim.is_ok());
    }
}
