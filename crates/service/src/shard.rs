//! One worker shard of the estimator service.
//!
//! A shard's fields are private to this module, so code outside
//! `impl ServiceShard` can reach its queue, estimator and counters only
//! through the methods below. That is what lets the service hand each
//! shard to its own thread ([`crate::EstimatorService::into_parts`]) with
//! no locks: nothing else can read or write a shard's state.

use std::collections::HashSet;

use resmatch_cluster::{CapacityLadder, Demand};
use resmatch_core::similarity::WordBuildHasher;
use resmatch_core::snapshot::SnapshotState;
use resmatch_core::spec::EstimatorSpec;
use resmatch_core::traits::{EstimateContext, EstimateScope, Feedback, ResourceEstimator};
use resmatch_workload::Job;

use crate::error::ServiceError;
use crate::service::ServiceStats;

/// The service has no scheduler queue or cluster occupancy to report; all
/// estimators that read the context treat this as "idle cluster".
const SERVICE_CTX: EstimateContext = EstimateContext {
    queue_len: 0,
    free_fraction: 1.0,
};

/// One observation waiting in a shard's write queue.
#[derive(Debug, Clone)]
struct QueuedObservation {
    job: Job,
    granted: Demand,
    feedback: Feedback,
}

/// One worker shard: an estimator instance owning a hash-slice of the
/// group space, plus its feedback write queue. `Send`, self-contained, and
/// lock-free — drive one per thread.
pub struct ServiceShard {
    index: usize,
    estimator: Box<dyn ResourceEstimator>,
    queue: Vec<QueuedObservation>,
    /// Group hashes with feedback sitting in `queue`, for the O(1)
    /// "does this estimate need a flush first?" check.
    pending_groups: HashSet<u64, WordBuildHasher>,
    feedback_batch: usize,
    stats: ServiceStats,
}

impl std::fmt::Debug for ServiceShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceShard")
            .field("index", &self.index)
            .field("estimator", &self.estimator.name())
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ServiceShard {
    pub(crate) fn new(
        index: usize,
        spec: &EstimatorSpec,
        ladder: &CapacityLadder,
        batch: usize,
    ) -> Self {
        ServiceShard {
            index,
            estimator: spec.build(ladder),
            queue: Vec::with_capacity(batch),
            pending_groups: HashSet::default(),
            feedback_batch: batch,
            stats: ServiceStats::default(),
        }
    }

    /// This shard's position in the service's shard table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Serve one estimate, first applying any queued feedback that could
    /// influence it (see the module docs for the per-scope rule).
    pub fn estimate(&mut self, job: &Job) -> Demand {
        let needs_flush = match self.estimator.estimate_scope(job) {
            EstimateScope::Group(group) => self.pending_groups.contains(&group),
            EstimateScope::Static => false,
            EstimateScope::Global => !self.queue.is_empty(),
        };
        if needs_flush {
            self.flush();
        }
        self.stats.queries += 1;
        self.estimator.estimate(job, &SERVICE_CTX)
    }

    /// Accept one observation into the write queue; applies the whole
    /// queue once it reaches the configured batch size.
    pub fn observe(&mut self, job: &Job, granted: Demand, feedback: Feedback) {
        if let EstimateScope::Group(group) = self.estimator.estimate_scope(job) {
            self.pending_groups.insert(group);
        }
        self.queue.push(QueuedObservation {
            job: job.clone(),
            granted,
            feedback,
        });
        self.stats.observations += 1;
        if self.queue.len() >= self.feedback_batch {
            self.flush();
        }
    }

    /// Apply every queued observation to the estimator, in arrival order.
    pub fn flush(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        for obs in self.queue.drain(..) {
            self.estimator
                .feedback(&obs.job, &obs.granted, &obs.feedback, &SERVICE_CTX);
            self.stats.applied += 1;
        }
        self.pending_groups.clear();
        self.stats.batches += 1;
    }

    pub(crate) fn snapshot_part(&mut self) -> Result<SnapshotState, ServiceError> {
        self.flush();
        self.estimator
            .snapshot_state()
            .ok_or(ServiceError::Snapshot(
                resmatch_core::snapshot::SnapshotError::Unsupported {
                    estimator: self.estimator.name(),
                },
            ))
    }

    pub(crate) fn restore_part(&mut self, part: SnapshotState) -> Result<(), ServiceError> {
        // Queued observations describe the pre-restore world; drop them.
        self.queue.clear();
        self.pending_groups.clear();
        self.estimator.restore_state(part)?;
        Ok(())
    }
}
