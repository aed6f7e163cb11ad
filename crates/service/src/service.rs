//! The sharded estimator service.
//!
//! One [`EstimatorService`] owns `n` worker shards. Every similarity group
//! lives on exactly one shard — the one its key's stable hash selects — so
//! the hot query path ([`EstimatorService::estimate`]) touches a single
//! shard and nothing else: no cross-shard locks, no shared mutable state.
//! Shards are self-contained [`ServiceShard`] values, so a deployment can
//! split the service with [`EstimatorService::into_parts`] and drive each
//! shard from its own thread, as the integration test
//! `threaded_shards_match_the_single_threaded_service` does.
//!
//! Feedback ([`EstimatorService::observe`]) is not applied inline: it is
//! enqueued on the owning shard and applied as a batched write stream,
//! amortizing estimator-table access across
//! [`ServiceConfig::feedback_batch`] observations. Batching never changes
//! answers, because a shard flushes its queue before serving any estimate
//! the pending feedback could influence:
//!
//! - [`EstimateScope::Group`] estimators (the paper's similarity-based
//!   family) flush only when the queried job's *own group* has feedback
//!   pending — read-your-writes consistency at group granularity.
//! - [`EstimateScope::Global`] estimators flush on every estimate (their
//!   scope makes any pending feedback potentially visible), and are pinned
//!   to shard 0 since splitting global state would change results.
//! - [`EstimateScope::Static`] estimators never flush (feedback is inert).
//!
//! Together with hash-sharding this yields the service's core invariant,
//! proven by the crate's integration tests: **estimates are independent of
//! the shard count and of the batch size** — a 1-shard service, an 8-shard
//! service, and a bare estimator with inline feedback all return identical
//! demands for the same operation stream.

use resmatch_cluster::{CapacityLadder, Demand};
use resmatch_core::similarity::SimilarityPolicy;
use resmatch_core::snapshot::SnapshotState;
use resmatch_core::spec::EstimatorSpec;
use resmatch_core::traits::{EstimateScope, Feedback, ResourceEstimator};
use resmatch_workload::Job;

use crate::error::ServiceError;
use crate::file::SnapshotDocument;
pub use crate::shard::ServiceShard;

/// How to build an [`EstimatorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Which estimator family each shard runs.
    pub spec: EstimatorSpec,
    /// Capacity ladder of the cluster the service estimates for.
    pub ladder: CapacityLadder,
    /// Worker shard count. Group state is hash-partitioned across shards.
    pub shards: usize,
    /// Apply a shard's queued feedback once this many observations are
    /// pending (earlier if an estimate needs them — see the module docs).
    pub feedback_batch: usize,
}

impl ServiceConfig {
    /// A config with the service defaults: 8 shards, feedback batches of
    /// 1024 observations.
    pub fn new(spec: EstimatorSpec, ladder: CapacityLadder) -> Self {
        ServiceConfig {
            spec,
            ladder,
            shards: 8,
            feedback_batch: 1024,
        }
    }

    /// Set the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the feedback batch size.
    #[must_use]
    pub fn feedback_batch(mut self, feedback_batch: usize) -> Self {
        self.feedback_batch = feedback_batch;
        self
    }
}

/// Routes jobs to shards. Stateless after construction and independent of
/// any learning, so a router can serve a different thread than the shards.
pub struct JobRouter {
    /// A pristine estimator instance consulted only for `estimate_scope`,
    /// which the trait requires to be a pure function of the job — so an
    /// unfed instance answers identically to every shard's.
    scope_probe: Box<dyn ResourceEstimator>,
    shards: usize,
}

impl std::fmt::Debug for JobRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRouter")
            .field("estimator", &self.scope_probe.name())
            .field("shards", &self.shards)
            .finish()
    }
}

impl JobRouter {
    fn new(spec: &EstimatorSpec, ladder: &CapacityLadder, shards: usize) -> Self {
        JobRouter {
            scope_probe: spec.build(ladder),
            shards,
        }
    }

    /// Shard count this router distributes over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `job`'s estimator state.
    pub fn route(&self, job: &Job) -> usize {
        match self.scope_probe.estimate_scope(job) {
            // Group state lives where its hash points — the same routing
            // `SnapshotState::partition` uses.
            EstimateScope::Group(group) => (group % self.shards as u64) as usize,
            // Static estimators keep no state; spread the load by the full
            // similarity key so the distribution matches the group family's.
            EstimateScope::Static => {
                (SimilarityPolicy::UserAppRequest.key(job).stable_hash() % self.shards as u64)
                    as usize
            }
            // Global state cannot be split without changing results.
            EstimateScope::Global => 0,
        }
    }
}

/// Lifetime counters for one shard (and, summed, for the service).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Estimates served.
    pub queries: u64,
    /// Observations accepted (queued or applied).
    pub observations: u64,
    /// Observations already applied to the estimator.
    pub applied: u64,
    /// Queue flushes performed (batch-full, consistency, or explicit).
    pub batches: u64,
}

impl ServiceStats {
    /// Observations accepted but not yet applied.
    pub fn pending(&self) -> u64 {
        self.observations - self.applied
    }

    fn absorb(&mut self, other: &ServiceStats) {
        self.queries += other.queries;
        self.observations += other.observations;
        self.applied += other.applied;
        self.batches += other.batches;
    }
}

/// A long-running estimator service: `estimate` on the hot path, `observe`
/// on the write path, snapshot/restore for durability. See the module docs
/// for the consistency contract.
pub struct EstimatorService {
    spec: EstimatorSpec,
    router: JobRouter,
    shards: Vec<ServiceShard>,
}

impl std::fmt::Debug for EstimatorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimatorService")
            .field("spec", &self.spec)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl EstimatorService {
    /// Build a service: one estimator instance per shard plus a router.
    ///
    /// # Errors
    /// [`ServiceError::Config`] when `shards` or `feedback_batch` is zero,
    /// or when the spec's parameters lie outside the ranges its
    /// estimator's constructor accepts
    /// ([`EstimatorSpec::params_in_range`]).
    pub fn new(cfg: &ServiceConfig) -> Result<Self, ServiceError> {
        if !cfg.spec.params_in_range() {
            return Err(ServiceError::Config {
                detail: "estimator parameters out of range (alpha must be finite and above 1, \
                         beta in [0, 1); see EstimatorSpec::params_in_range)",
            });
        }
        if cfg.shards == 0 {
            return Err(ServiceError::Config {
                detail: "shard count must be at least 1",
            });
        }
        if cfg.feedback_batch == 0 {
            return Err(ServiceError::Config {
                detail: "feedback batch must be at least 1",
            });
        }
        let shards = (0..cfg.shards)
            .map(|index| ServiceShard::new(index, &cfg.spec, &cfg.ladder, cfg.feedback_batch))
            .collect();
        Ok(EstimatorService {
            spec: cfg.spec,
            router: JobRouter::new(&cfg.spec, &cfg.ladder, cfg.shards),
            shards,
        })
    }

    /// The estimator family every shard runs.
    pub fn spec(&self) -> &EstimatorSpec {
        &self.spec
    }

    /// Worker shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `job`'s group state.
    pub fn route(&self, job: &Job) -> usize {
        self.router.route(job)
    }

    /// Serve one estimate (shard-local; see [`ServiceShard::estimate`]).
    pub fn estimate(&mut self, job: &Job) -> Demand {
        let shard = self.router.route(job);
        self.shards[shard].estimate(job)
    }

    /// Enqueue one observation on the owning shard's write stream.
    pub fn observe(&mut self, job: &Job, granted: Demand, feedback: Feedback) {
        let shard = self.router.route(job);
        self.shards[shard].observe(job, granted, feedback);
    }

    /// Apply all queued feedback on every shard.
    pub fn flush(&mut self) {
        for shard in &mut self.shards {
            shard.flush();
        }
    }

    /// Counters summed over all shards.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats());
        }
        total
    }

    /// Flush everything and export the merged estimator state as a
    /// snapshot document ready for [`SnapshotDocument::write_to`].
    ///
    /// # Errors
    /// [`ServiceError::Snapshot`] when the estimator family does not
    /// support snapshots (e.g. the stateless baselines).
    pub fn snapshot(&mut self) -> Result<SnapshotDocument, ServiceError> {
        let mut parts = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            parts.push(shard.snapshot_part()?);
        }
        let state = SnapshotState::merge(parts)?;
        Ok(SnapshotDocument {
            estimator: self.spec.name().to_string(),
            shards_at_save: self.shards.len() as u32,
            state,
        })
    }

    /// Replace all shard state with a snapshot, re-partitioning for this
    /// service's shard count (snapshots are shard-count-portable). Queued
    /// feedback is discarded — it predates the restored state.
    ///
    /// # Errors
    /// [`ServiceError::Snapshot`] when the state belongs to a different
    /// estimator family than this service runs.
    pub fn restore(&mut self, state: SnapshotState) -> Result<(), ServiceError> {
        let parts = state.partition(self.shards.len());
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            shard.restore_part(part)?;
        }
        Ok(())
    }

    /// Split into a router plus owned shards, for driving each shard from
    /// its own thread. Reassemble with [`EstimatorService::from_parts`].
    pub fn into_parts(self) -> (JobRouter, Vec<ServiceShard>) {
        (self.router, self.shards)
    }

    /// Reassemble a service from parts produced by
    /// [`EstimatorService::into_parts`]. Shards are re-ordered by their
    /// recorded index, so threads may return them in any order.
    ///
    /// # Errors
    /// [`ServiceError::Config`] when the shard set does not match the
    /// router (wrong count, or duplicate/missing indices).
    pub fn from_parts(
        spec: EstimatorSpec,
        router: JobRouter,
        mut shards: Vec<ServiceShard>,
    ) -> Result<Self, ServiceError> {
        if shards.len() != router.shards() {
            return Err(ServiceError::Config {
                detail: "shard set does not match the router's shard count",
            });
        }
        shards.sort_by_key(ServiceShard::index);
        if shards.iter().enumerate().any(|(i, s)| s.index() != i) {
            return Err(ServiceError::Config {
                detail: "shard indices are not a permutation of 0..shards",
            });
        }
        Ok(EstimatorService {
            spec,
            router,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    const MB: u64 = 1024;

    fn ladder() -> CapacityLadder {
        CapacityLadder::new(vec![32 * MB, 24 * MB, 16 * MB, 8 * MB])
    }

    fn job(id: u64, user: u32) -> Job {
        JobBuilder::new(id)
            .user(user)
            .app(user % 5)
            .requested_mem_kb(32 * MB)
            .used_mem_kb(4 * MB)
            .build()
    }

    #[test]
    fn zero_shards_and_zero_batch_are_rejected() {
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder()).shards(0);
        assert!(matches!(
            EstimatorService::new(&cfg).unwrap_err(),
            ServiceError::Config { .. }
        ));
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder()).feedback_batch(0);
        assert!(matches!(
            EstimatorService::new(&cfg).unwrap_err(),
            ServiceError::Config { .. }
        ));
    }

    #[test]
    fn out_of_range_params_are_a_config_error() {
        use resmatch_core::{
            LastInstanceConfig, QuantileConfig, RegressionConfig, RobustConfig, WarmStartConfig,
        };
        // One spec per family whose constructor `EstimatorSpec::build`
        // would panic on.
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
            let err = EstimatorService::new(&ServiceConfig::new(spec, ladder())).unwrap_err();
            assert!(matches!(err, ServiceError::Config { .. }), "{err:?}");
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }

    #[test]
    fn feedback_is_batched_until_the_batch_fills() {
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder())
            .shards(1)
            .feedback_batch(4);
        let mut svc = EstimatorService::new(&cfg).expect("valid config");
        // Distinct groups: estimates target fresh groups, so no
        // consistency flush fires and the queue simply accumulates.
        for id in 0..3 {
            let j = job(id, id as u32);
            let d = svc.estimate(&j);
            svc.observe(&j, d, Feedback::success());
        }
        let stats = svc.stats();
        assert_eq!(stats.observations, 3);
        assert_eq!(stats.pending(), 3, "feedback applied too eagerly");
        assert_eq!(stats.batches, 0);
        // The 4th observation fills the batch and drains the queue.
        let j = job(3, 3);
        let d = svc.estimate(&j);
        svc.observe(&j, d, Feedback::success());
        assert_eq!(svc.stats().pending(), 0);
        assert_eq!(svc.stats().batches, 1);
    }

    #[test]
    fn estimates_see_their_groups_pending_feedback() {
        // Read-your-writes: a successive-approximation group must walk down
        // the ladder immediately after a success, even with a huge batch.
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder())
            .shards(4)
            .feedback_batch(1_000_000);
        let mut svc = EstimatorService::new(&cfg).expect("valid config");
        let j = job(1, 7);
        let first = svc.estimate(&j);
        assert_eq!(first.mem_kb, 32 * MB); // first contact: trust the request
        svc.observe(&j, first, Feedback::success());
        let second = svc.estimate(&job(2, 7));
        assert!(
            second.mem_kb < first.mem_kb,
            "pending feedback was not visible to the group's next estimate"
        );
    }

    #[test]
    fn unrelated_groups_do_not_force_flushes() {
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder())
            .shards(1)
            .feedback_batch(1_000_000);
        let mut svc = EstimatorService::new(&cfg).expect("valid config");
        let a = job(1, 1);
        let d = svc.estimate(&a);
        svc.observe(&a, d, Feedback::success());
        // A different group's estimate must not trigger the flush.
        let _ = svc.estimate(&job(2, 2));
        assert_eq!(svc.stats().pending(), 1);
        // The same group's estimate must.
        let _ = svc.estimate(&job(3, 1));
        assert_eq!(svc.stats().pending(), 0);
    }

    #[test]
    fn static_estimators_never_flush() {
        let cfg = ServiceConfig::new(EstimatorSpec::PassThrough, ladder())
            .shards(2)
            .feedback_batch(1_000_000);
        let mut svc = EstimatorService::new(&cfg).expect("valid config");
        for id in 0..10 {
            let j = job(id, id as u32);
            let d = svc.estimate(&j);
            assert_eq!(d.mem_kb, j.requested_mem_kb);
            svc.observe(&j, d, Feedback::success());
        }
        assert_eq!(svc.stats().pending(), 10);
        svc.flush();
        assert_eq!(svc.stats().pending(), 0);
    }

    #[test]
    fn global_estimators_pin_to_shard_zero_and_flush_eagerly() {
        let spec: EstimatorSpec = "reinforcement".parse().expect("known name");
        let cfg = ServiceConfig::new(spec, ladder())
            .shards(8)
            .feedback_batch(64);
        let mut svc = EstimatorService::new(&cfg).expect("valid config");
        for id in 0..20 {
            let j = job(id, id as u32);
            assert_eq!(svc.route(&j), 0, "global estimators must pin to shard 0");
            let d = svc.estimate(&j);
            svc.observe(&j, d, Feedback::success());
        }
        // Every estimate flushed the prior observation.
        assert!(svc.stats().pending() <= 1);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder()).shards(8);
        let svc = EstimatorService::new(&cfg).expect("valid config");
        for id in 0..100 {
            let j = job(id, (id % 37) as u32);
            let shard = svc.route(&j);
            assert!(shard < 8);
            assert_eq!(shard, svc.route(&j));
        }
    }

    #[test]
    fn snapshot_of_stateless_estimator_is_unsupported() {
        let cfg = ServiceConfig::new(EstimatorSpec::PassThrough, ladder()).shards(2);
        let mut svc = EstimatorService::new(&cfg).expect("valid config");
        assert!(matches!(
            svc.snapshot().unwrap_err(),
            ServiceError::Snapshot(_)
        ));
    }

    #[test]
    fn into_parts_round_trips_and_validates() {
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder()).shards(3);
        let svc = EstimatorService::new(&cfg).expect("valid config");
        let spec = *svc.spec();
        let (router, mut shards) = svc.into_parts();
        shards.reverse(); // threads may hand shards back in any order
        let svc = EstimatorService::from_parts(spec, router, shards).expect("reassembles");
        assert_eq!(svc.shard_count(), 3);

        let (router, mut shards) = svc.into_parts();
        shards.pop();
        assert!(matches!(
            EstimatorService::from_parts(spec, router, shards).unwrap_err(),
            ServiceError::Config { .. }
        ));
    }

    #[test]
    fn stats_absorb_sums_all_counters() {
        let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder())
            .shards(4)
            .feedback_batch(2);
        let mut svc = EstimatorService::new(&cfg).expect("valid config");
        for id in 0..50 {
            let j = job(id, (id % 13) as u32);
            let d = svc.estimate(&j);
            svc.observe(&j, d, Feedback::success());
        }
        let stats = svc.stats();
        assert_eq!(stats.queries, 50);
        assert_eq!(stats.observations, 50);
        assert!(stats.applied >= 40, "batches of 2 should drain steadily");
        assert!(stats.batches > 0);
    }
}
