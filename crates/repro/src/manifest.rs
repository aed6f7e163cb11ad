//! The experiment manifest: the single registry every subcommand drives.
//!
//! One [`ExperimentDef`] per paper artifact binds together everything the
//! pipeline needs to know about an experiment: the library function that
//! runs it, the trace configuration it runs at (full and `--quick` scale,
//! seed), the `results/` artifact it renders, and the coded
//! [`Expectation`]s that gate it. Adding an experiment is adding an entry
//! here (see DESIGN.md §10 for the recipe); nothing else in the runner
//! enumerates experiments.

use crate::expect::Expectation;
use crate::experiments;
use crate::report::ExperimentOutput;
use crate::runner::RunSpec;

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct ExperimentDef {
    /// Stable identifier: the `results/<id>.txt` stem and the name
    /// `run --only` / `check --only` select by.
    pub id: &'static str,
    /// Which paper artifact this reproduces ("Figure 1", "Table 1", …).
    pub artifact: &'static str,
    /// One-line description shown by `list`.
    pub title: &'static str,
    /// Trace size (jobs) at the default scale — the scale the committed
    /// `results/` artifacts and EXPERIMENTS.md tables are rendered at.
    pub default_jobs: usize,
    /// Reduced trace size used by `--quick` (CI's regression profile).
    pub quick_jobs: usize,
    /// Generator seed. Fixed per experiment so reruns are bit-identical.
    pub seed: u64,
    /// The library function that runs the experiment.
    pub run: fn(&RunSpec) -> ExperimentOutput,
    /// The paper claims gated on this experiment's metrics.
    pub expectations: &'static [Expectation],
}

impl std::fmt::Debug for ExperimentDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentDef")
            .field("id", &self.id)
            .field("artifact", &self.artifact)
            .field("default_jobs", &self.default_jobs)
            .field("quick_jobs", &self.quick_jobs)
            .field("seed", &self.seed)
            .field("expectations", &self.expectations.len())
            .finish()
    }
}

/// Every experiment in the reproduction, in EXPERIMENTS.md order.
pub const MANIFEST: &[ExperimentDef] = &[
    ExperimentDef {
        id: "fig1_histogram",
        artifact: "Figure 1",
        title: "over-provisioning histogram and log-linear fit",
        default_jobs: 122_055,
        quick_jobs: 20_000,
        seed: 42,
        run: experiments::fig1::run,
        expectations: experiments::fig1::EXPECTATIONS,
    },
    ExperimentDef {
        id: "fig3_group_sizes",
        artifact: "Figure 3",
        title: "similarity-group size distribution",
        default_jobs: 122_055,
        quick_jobs: 20_000,
        seed: 42,
        run: experiments::fig3::run,
        expectations: experiments::fig3::EXPECTATIONS,
    },
    ExperimentDef {
        id: "fig4_gain_vs_range",
        artifact: "Figure 4",
        title: "possible gain vs. group similarity range",
        default_jobs: 122_055,
        quick_jobs: 20_000,
        seed: 42,
        run: experiments::fig4::run,
        expectations: experiments::fig4::EXPECTATIONS,
    },
    ExperimentDef {
        id: "fig5_utilization",
        artifact: "Figure 5",
        title: "utilization vs. offered load, with/without estimation",
        default_jobs: 122_055,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::fig5::run,
        expectations: experiments::fig5::EXPECTATIONS,
    },
    ExperimentDef {
        id: "fig6_slowdown",
        artifact: "Figure 6",
        title: "slowdown ratio vs. offered load",
        default_jobs: 122_055,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::fig6::run,
        expectations: experiments::fig6::EXPECTATIONS,
    },
    ExperimentDef {
        id: "fig7_trajectory",
        artifact: "Figure 7",
        title: "single-group estimate trajectory",
        default_jobs: 0,
        quick_jobs: 0,
        seed: 42,
        run: experiments::fig7::run,
        expectations: experiments::fig7::EXPECTATIONS,
    },
    ExperimentDef {
        id: "fig8_cluster_sweep",
        artifact: "Figure 8",
        title: "utilization ratio across cluster heterogeneity",
        default_jobs: 122_055,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::fig8::run,
        expectations: experiments::fig8::EXPECTATIONS,
    },
    ExperimentDef {
        id: "table1_estimators",
        artifact: "Table 1",
        title: "the estimator design-space matrix",
        default_jobs: 122_055,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::table1::run,
        expectations: experiments::table1::EXPECTATIONS,
    },
    ExperimentDef {
        id: "stats_conservativeness",
        artifact: "§3.2",
        title: "conservativeness: failure cost vs. estimation reach",
        default_jobs: 15_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::conservativeness::run,
        expectations: experiments::conservativeness::EXPECTATIONS,
    },
    ExperimentDef {
        id: "ablation_alpha_beta",
        artifact: "ablation",
        title: "alpha / beta / similarity-policy parameter study",
        default_jobs: 10_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::ablation_alpha_beta::run,
        expectations: experiments::ablation_alpha_beta::EXPECTATIONS,
    },
    ExperimentDef {
        id: "ablation_scheduler",
        artifact: "ablation",
        title: "scheduling policy x estimation (the §4 hypothesis)",
        default_jobs: 122_055,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::ablation_scheduler::run,
        expectations: experiments::ablation_scheduler::EXPECTATIONS,
    },
    ExperimentDef {
        id: "ablation_false_positives",
        artifact: "ablation",
        title: "injected false positives: implicit vs. explicit feedback",
        default_jobs: 15_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::ablation_false_positives::run,
        expectations: experiments::ablation_false_positives::EXPECTATIONS,
    },
    ExperimentDef {
        id: "ablation_match_policy",
        artifact: "ablation",
        title: "first/best/worst-fit matching x estimation",
        default_jobs: 15_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::ablation_match_policy::run,
        expectations: experiments::ablation_match_policy::EXPECTATIONS,
    },
    ExperimentDef {
        id: "ablation_churn",
        artifact: "ablation",
        title: "dynamic cluster membership (grid churn)",
        default_jobs: 12_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::ablation_churn::run,
        expectations: experiments::ablation_churn::EXPECTATIONS,
    },
    ExperimentDef {
        id: "futurework_estimators",
        artifact: "§4",
        title: "future-work estimators vs. published Algorithm 1",
        default_jobs: 15_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::futurework::run,
        expectations: experiments::futurework::EXPECTATIONS,
    },
    ExperimentDef {
        id: "matchmaking_scenarios",
        artifact: "§1.1",
        title: "ClassAd matchmaking: disk-constrained and license-pool scenarios",
        default_jobs: 15_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::matchmaking::run,
        expectations: experiments::matchmaking::EXPECTATIONS,
    },
    ExperimentDef {
        id: "robustness_workloads",
        artifact: "robustness",
        title: "Figure 5 replayed on an independent workload family",
        default_jobs: 12_000,
        quick_jobs: 3_000,
        seed: 42,
        run: experiments::robustness::run,
        expectations: experiments::robustness::EXPECTATIONS,
    },
    ExperimentDef {
        id: "validate_calibration",
        artifact: "generator",
        title: "generator calibration + cross-seed KS stability",
        // Generation-only (no simulation), so the quick profile runs the
        // full scale: the KS budget and 30% tolerance are calibrated for
        // 60k-job samples and would false-alarm on smaller ones.
        default_jobs: 60_000,
        quick_jobs: 60_000,
        seed: 42,
        run: experiments::calibration::run,
        expectations: experiments::calibration::EXPECTATIONS,
    },
];

/// Look up an experiment by id.
pub fn find(id: &str) -> Option<&'static ExperimentDef> {
    MANIFEST.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn manifest_covers_all_18_experiments_with_unique_ids() {
        assert_eq!(MANIFEST.len(), 18);
        let ids: BTreeSet<&str> = MANIFEST.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), MANIFEST.len(), "duplicate experiment id");
    }

    #[test]
    fn every_experiment_has_at_least_one_quick_expectation() {
        // `check --quick` must gate something for every experiment;
        // otherwise a regression could hide behind the reduced profile.
        for e in MANIFEST {
            assert!(
                e.expectations.iter().any(|x| x.quick),
                "{} has no quick-scale expectation",
                e.id
            );
        }
    }

    #[test]
    fn quick_scale_never_exceeds_default_scale() {
        for e in MANIFEST {
            assert!(e.quick_jobs <= e.default_jobs || e.default_jobs == 0);
        }
    }
}
