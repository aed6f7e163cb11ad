//! Experiment selection and parallel execution.
//!
//! The runner is deliberately thin: it resolves a set of manifest entries
//! to run, picks the scale (`--quick` vs. default), and executes them on
//! the same bounded worker pool the simulator's sweeps use
//! ([`resmatch_sim::experiment::run_pooled`]), consulting the
//! [`crate::cache`] around each run. Everything the runner knows about an
//! experiment comes from its [`ExperimentDef`].

use std::path::Path;

use resmatch_sim::experiment::run_pooled;

use crate::cache::Cache;
use crate::manifest::{find, ExperimentDef, MANIFEST};
use crate::report::ExperimentOutput;

/// The trace configuration an experiment runs at.
///
/// Every experiment's `run` function is a pure, deterministic function of
/// this value (plus the code itself) — that determinism is what makes the
/// cache and the regression gate sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Trace size in jobs (`0` for trace-free experiments such as the
    /// Figure 7 trajectory).
    pub jobs: usize,
    /// Workload-generator seed.
    pub seed: u64,
}

/// How a batch of experiments should be executed.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Use each experiment's reduced `quick_jobs` scale (CI profile).
    pub quick: bool,
    /// Ignore cached results; always re-simulate.
    pub fresh: bool,
    /// Restrict to these experiment ids (empty = the whole manifest).
    pub only: Vec<String>,
}

/// One executed experiment.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The manifest entry that was run.
    pub def: &'static ExperimentDef,
    /// The scale it ran at.
    pub spec: RunSpec,
    /// What it produced.
    pub output: ExperimentOutput,
    /// Whether the output was replayed from the cache.
    pub cached: bool,
}

/// Resolve `--only` ids against the manifest (empty selects everything).
///
/// # Errors
/// Returns the offending id when it matches no manifest entry.
pub fn select(only: &[String]) -> Result<Vec<&'static ExperimentDef>, String> {
    if only.is_empty() {
        return Ok(MANIFEST.iter().collect());
    }
    only.iter()
        .map(|id| {
            find(id).ok_or_else(|| {
                format!("unknown experiment id `{id}` (run `resmatch-repro list` for the manifest)")
            })
        })
        .collect()
}

/// The scale an experiment runs at under the given options.
pub fn spec_for(def: &ExperimentDef, quick: bool) -> RunSpec {
    RunSpec {
        jobs: if quick {
            def.quick_jobs
        } else {
            def.default_jobs
        },
        seed: def.seed,
    }
}

/// Execute a selection of experiments in parallel, cache-aware.
///
/// Experiments run on the sim crate's bounded worker pool; results come
/// back in manifest order regardless of completion order. Unless
/// `opts.fresh` is set, each experiment first consults the on-disk cache
/// (keyed by id, scale, seed, and the executable fingerprint) and only
/// simulates on a miss; every fresh result is stored back.
///
/// # Errors
/// Returns an error for an unknown `--only` id.
pub fn run_all(workspace_root: &Path, opts: &RunOptions) -> Result<Vec<RunResult>, String> {
    let defs = select(&opts.only)?;
    let cache = Cache::new(workspace_root);
    let results = run_pooled(defs.len(), |i| {
        #[expect(
            clippy::expect_used,
            reason = "invariant: run_pooled only hands out indices below `count`"
        )]
        let &def = defs
            .get(i)
            .expect("invariant: run_pooled only hands out indices below `count`");
        let spec = spec_for(def, opts.quick);
        if !opts.fresh {
            if let Some(output) = cache.load(def.id, spec.jobs, spec.seed) {
                return RunResult {
                    def,
                    spec,
                    output,
                    cached: true,
                };
            }
        }
        let output = (def.run)(&spec);
        cache.store(def.id, spec.jobs, spec.seed, &output);
        RunResult {
            def,
            spec,
            output,
            cached: false,
        }
    });
    Ok(results)
}

/// Override metrics by name across all results (`check --perturb`).
///
/// This exists so the regression gate can be proven live: the integration
/// test perturbs a gated metric and asserts `check` exits nonzero. Any
/// result carrying a metric with a perturbed name gets the override.
pub fn apply_perturbations(results: &mut [RunResult], perturbations: &[(String, f64)]) {
    for result in results.iter_mut() {
        for (name, value) in perturbations {
            if result.output.metrics.get(name).is_some() {
                result.output.metrics.set(name, *value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_resolves_ids_and_rejects_unknowns() {
        assert_eq!(select(&[]).map(|v| v.len()), Ok(MANIFEST.len()));
        let picked = select(&["fig7_trajectory".to_string()]);
        assert_eq!(
            picked.map(|v| v.iter().map(|d| d.id).collect::<Vec<_>>()),
            Ok(vec!["fig7_trajectory"])
        );
        assert!(select(&["nope".to_string()]).is_err());
    }

    #[test]
    fn spec_for_honours_quick_scale() {
        let def = find("fig5_utilization").expect("invariant: fig5 is in the manifest");
        assert_eq!(spec_for(def, false).jobs, def.default_jobs);
        assert_eq!(spec_for(def, true).jobs, def.quick_jobs);
        assert_eq!(spec_for(def, true).seed, def.seed);
    }

    #[test]
    fn perturbation_overrides_only_present_metrics() {
        let def = find("fig7_trajectory").expect("invariant: fig7 is in the manifest");
        let mut output = ExperimentOutput {
            text: String::new(),
            metrics: crate::report::Metrics::new(),
        };
        output.metrics.set("trajectory_exact", 1.0);
        let mut results = vec![RunResult {
            def,
            spec: RunSpec { jobs: 0, seed: 42 },
            output,
            cached: false,
        }];
        apply_perturbations(
            &mut results,
            &[
                ("trajectory_exact".to_string(), 0.0),
                ("absent_metric".to_string(), 9.0),
            ],
        );
        let metrics = &results
            .first()
            .expect("invariant: one result was constructed above")
            .output
            .metrics;
        assert_eq!(metrics.get("trajectory_exact"), Some(0.0));
        assert_eq!(metrics.get("absent_metric"), None);
    }
}
