//! The experiment library: one module per paper artifact.
//!
//! Each module exposes `run(&RunSpec) -> ExperimentOutput` plus the
//! `EXPECTATIONS` that gate it; [`crate::manifest`] registers them all.

pub mod ablation_alpha_beta;
pub mod ablation_churn;
pub mod ablation_false_positives;
pub mod ablation_match_policy;
pub mod ablation_scheduler;
pub mod calibration;
pub mod conservativeness;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod futurework;
pub mod matchmaking;
pub mod robustness;
pub mod table1;
