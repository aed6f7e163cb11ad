//! Reinforcement learning: implicit feedback, no similarity groups.
//!
//! Table 1's implicit-feedback/no-similarity quadrant. The paper (§4)
//! envisions an agent that learns a *global* policy over the system state —
//! "if all users over-estimated their resource capacities by 100%, the
//! global policy to which RL will converge is that it is sufficient to send
//! jobs for execution with only 50% of their requested resources".
//!
//! Per-job estimation is a one-step decision: observe state, pick a scaling
//! factor, and the job's termination delivers the (immediate) reward — so
//! the natural instantiation is a contextual bandit: tabular Q-values over a
//! discretized state (request-size bucket × cluster free fraction × queue
//! depth), ε-greedy exploration with a decaying ε, and incremental value
//! updates `Q ← Q + lr·(r − Q)`. Success earns the fraction of the request
//! the action saved; a failure (wasted execution, resubmission) costs a
//! fixed penalty, which keeps the learned policy conservative exactly as the
//! paper observed of its estimator.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use resmatch_cluster::Demand;
use resmatch_workload::{Job, JobId};

use crate::similarity::WordBuildHasher;
use crate::traits::{EstimateContext, Feedback, ResourceEstimator};

/// Scaling factors the agent chooses among; 1.0 is "trust the request".
pub const ACTIONS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.125];

const REQUEST_BUCKETS: usize = 6;
const FREE_BUCKETS: usize = 4;
const QUEUE_BUCKETS: usize = 3;
const STATES: usize = REQUEST_BUCKETS * FREE_BUCKETS * QUEUE_BUCKETS;

/// Tunables for [`ReinforcementEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReinforcementConfig {
    /// Learning rate for value updates.
    pub learning_rate: f64,
    /// Initial exploration probability.
    pub epsilon: f64,
    /// Visits after which exploration has halved.
    pub epsilon_decay_visits: f64,
    /// Penalty for a failed (under-provisioned) execution.
    pub failure_penalty: f64,
    /// RNG seed for exploration.
    pub seed: u64,
}

impl Default for ReinforcementConfig {
    fn default() -> Self {
        ReinforcementConfig {
            learning_rate: 0.1,
            epsilon: 0.2,
            epsilon_decay_visits: 2_000.0,
            failure_penalty: 2.0,
            seed: 0x5EED,
        }
    }
}

/// The RL (contextual-bandit) estimator.
pub struct ReinforcementEstimator {
    cfg: ReinforcementConfig,
    /// Q[state][action].
    q: Vec<[f64; ACTIONS.len()]>,
    /// Visit counts per state-action pair, for decaying exploration.
    visits: Vec<[u64; ACTIONS.len()]>,
    /// Action taken for each in-flight job, consumed by feedback.
    pending: HashMap<JobId, (usize, usize), WordBuildHasher>,
    total_decisions: u64,
    rng: StdRng,
}

fn request_bucket(job: &Job) -> usize {
    // log2 of the requested megabytes, clamped to the table width.
    let mb = (job.requested_mem_kb / 1024).max(1);
    (63 - mb.leading_zeros() as usize).min(REQUEST_BUCKETS - 1)
}

fn free_bucket(ctx: &EstimateContext) -> usize {
    ((ctx.free_fraction.clamp(0.0, 1.0) * FREE_BUCKETS as f64) as usize).min(FREE_BUCKETS - 1)
}

fn queue_bucket(ctx: &EstimateContext) -> usize {
    match ctx.queue_len {
        0 => 0,
        1..=10 => 1,
        _ => 2,
    }
}

fn state_index(job: &Job, ctx: &EstimateContext) -> usize {
    (request_bucket(job) * FREE_BUCKETS + free_bucket(ctx)) * QUEUE_BUCKETS + queue_bucket(ctx)
}

impl ReinforcementEstimator {
    /// Create a fresh agent.
    pub fn new(cfg: ReinforcementConfig) -> Self {
        ReinforcementEstimator {
            cfg,
            q: vec![[0.0; ACTIONS.len()]; STATES],
            visits: vec![[0; ACTIONS.len()]; STATES],
            pending: HashMap::default(),
            total_decisions: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    /// Current exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.cfg.epsilon * self.cfg.epsilon_decay_visits
            / (self.cfg.epsilon_decay_visits + self.total_decisions as f64)
    }

    /// Q-value of a state-action pair (test/inspection hook).
    pub fn q_value(&self, job: &Job, ctx: &EstimateContext, action: usize) -> f64 {
        self.q[state_index(job, ctx)][action]
    }

    /// The greedy action index for a state.
    pub fn greedy_action(&self, job: &Job, ctx: &EstimateContext) -> usize {
        let row = &self.q[state_index(job, ctx)];
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }
}

impl ResourceEstimator for ReinforcementEstimator {
    fn name(&self) -> &'static str {
        "reinforcement-learning"
    }

    fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
        let state = state_index(job, ctx);
        self.total_decisions += 1;
        let action = if self.rng.random::<f64>() < self.epsilon() {
            self.rng.random_range(0..ACTIONS.len())
        } else {
            let row = &self.q[state];
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        };
        self.pending.insert(job.id, (state, action));
        let mem_kb = ((job.requested_mem_kb as f64 * ACTIONS[action]).round() as u64)
            .clamp(64.min(job.requested_mem_kb), job.requested_mem_kb);
        Demand {
            mem_kb,
            disk_kb: job.requested_disk_kb,
            packages: job.requested_packages,
        }
    }

    fn feedback(&mut self, job: &Job, _granted: &Demand, fb: &Feedback, _ctx: &EstimateContext) {
        let Some((state, action)) = self.pending.remove(&job.id) else {
            return;
        };
        let reward = if fb.is_success() {
            1.0 - ACTIONS[action]
        } else {
            -self.cfg.failure_penalty
        };
        self.visits[state][action] += 1;
        let q = &mut self.q[state][action];
        *q += self.cfg.learning_rate * (reward - *q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    fn job(id: u64, req_mb: u64, used_mb: u64) -> Job {
        JobBuilder::new(id)
            .requested_mem_kb(req_mb * 1024)
            .used_mem_kb(used_mb * 1024)
            .build()
    }

    #[test]
    fn state_discretization() {
        let ctx_idle = EstimateContext {
            queue_len: 0,
            free_fraction: 1.0,
        };
        let ctx_busy = EstimateContext {
            queue_len: 50,
            free_fraction: 0.1,
        };
        let small = job(1, 1, 1);
        let big = job(2, 32, 32);
        assert_ne!(state_index(&small, &ctx_idle), state_index(&big, &ctx_idle));
        assert_ne!(state_index(&big, &ctx_idle), state_index(&big, &ctx_busy));
        for j in [&small, &big] {
            for ctx in [&ctx_idle, &ctx_busy] {
                assert!(state_index(j, ctx) < STATES);
            }
        }
    }

    #[test]
    fn epsilon_decays() {
        let mut e = ReinforcementEstimator::new(ReinforcementConfig::default());
        let initial = e.epsilon();
        let ctx = EstimateContext::default();
        for i in 0..5_000 {
            let _ = e.estimate(&job(i, 16, 8), &ctx);
        }
        assert!(e.epsilon() < initial / 2.0);
    }

    #[test]
    fn learns_global_half_request_policy() {
        // The paper's motivating case: every job uses ~40% of its request,
        // so the 0.5 action is the best safe reduction.
        let mut e = ReinforcementEstimator::new(ReinforcementConfig::default());
        let ctx = EstimateContext::default();
        for i in 0..20_000u64 {
            let j = job(i, 16, 6); // uses 6/16 = 37.5%
            let d = e.estimate(&j, &ctx);
            let success = d.mem_kb >= j.used_mem_kb;
            let fb = if success {
                Feedback::success()
            } else {
                Feedback::failure()
            };
            e.feedback(&j, &d, &fb, &ctx);
        }
        let probe = job(999_999, 16, 6);
        let greedy = e.greedy_action(&probe, &ctx);
        assert_eq!(
            ACTIONS[greedy], 0.5,
            "expected the half-request policy, got factor {}",
            ACTIONS[greedy]
        );
    }

    #[test]
    fn failure_penalty_deters_aggression() {
        // Jobs that use 90% of the request: every reduction fails; the agent
        // must settle on factor 1.0.
        let mut e = ReinforcementEstimator::new(ReinforcementConfig::default());
        let ctx = EstimateContext::default();
        for i in 0..20_000u64 {
            let j = job(i, 16, 15);
            let d = e.estimate(&j, &ctx);
            let fb = if d.mem_kb >= j.used_mem_kb {
                Feedback::success()
            } else {
                Feedback::failure()
            };
            e.feedback(&j, &d, &fb, &ctx);
        }
        let greedy = e.greedy_action(&job(999_999, 16, 15), &ctx);
        assert_eq!(ACTIONS[greedy], 1.0);
    }

    #[test]
    fn estimates_never_exceed_request() {
        let mut e = ReinforcementEstimator::new(ReinforcementConfig::default());
        let ctx = EstimateContext::default();
        for i in 0..500 {
            let j = job(i, 8, 4);
            let d = e.estimate(&j, &ctx);
            assert!(d.mem_kb <= j.requested_mem_kb);
            assert!(d.mem_kb > 0);
        }
    }

    #[test]
    fn feedback_without_pending_decision_is_ignored() {
        let mut e = ReinforcementEstimator::new(ReinforcementConfig::default());
        let ctx = EstimateContext::default();
        let j = job(1, 16, 8);
        // Must not panic or corrupt state.
        e.feedback(&j, &Demand::memory(1), &Feedback::failure(), &ctx);
        assert_eq!(e.q_value(&j, &ctx, 0), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = ReinforcementEstimator::new(ReinforcementConfig {
                seed,
                ..ReinforcementConfig::default()
            });
            let ctx = EstimateContext::default();
            (0..200u64)
                .map(|i| e.estimate(&job(i, 16, 8), &ctx).mem_kb)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
