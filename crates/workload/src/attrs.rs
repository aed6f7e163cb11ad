//! Synthetic multi-resource attributes for matchmaking experiments.
//!
//! The CM5 trace records memory but neither scratch-disk usage nor software
//! prerequisites, so the multi-resource matchmaking experiments synthesize
//! those two dimensions *after* generation. Synthesis is a separate pass on
//! purpose: the base generators ([`crate::synthetic`], [`crate::swf`]) stay
//! byte-identical for every existing experiment, and a trace only grows disk
//! requests and package masks when an experiment opts in.
//!
//! Attributes follow the same latent-class structure as the memory
//! dimension: every job in a similarity class (`user`, `app`, requested
//! memory) gets the same *requested* disk rung and package set — derived by
//! hashing the class identity, not sampled per job — while actual usage
//! jitters per job. That is what makes the per-resource estimator's
//! group-based learning meaningful on these dimensions, exactly as it is
//! for memory.
//!
//! Invariants guaranteed on every synthesized job:
//!
//! - `used_disk_kb <= requested_disk_kb` when a disk request exists; both
//!   stay zero (unconstrained) otherwise,
//! - `used_packages` is a subset of `requested_packages` (the paper's
//!   standing assumption that requests cover usage), and
//! - jobs are otherwise untouched — ids, submit order, memory, runtimes.
//!
//! Determinism: the pass is a pure function of `(workload, cfg, seed)`;
//! it draws no global randomness and holds no state.

use crate::job::Workload;
use crate::synthetic::splitmix64;

/// One megabyte in KB.
const MB: u64 = 1024;

/// Scratch-disk request rungs (KB per node) a disk-constrained class picks
/// from. Spread around typical per-node scratch partitions of the era so
/// that nodes provisioned with, say, 2 GB of scratch reject the top rungs.
const DISK_RUNGS_KB: [u64; 5] = [256 * MB, 512 * MB, 1024 * MB, 2048 * MB, 4096 * MB];

/// Configuration for [`synthesize_attributes`]. Defaults give both new
/// dimensions enough mass to matter without dominating: roughly a third of
/// classes carry a disk request and a fifth of applications need a licensed
/// package.
#[derive(Debug, Clone)]
pub struct AttrConfig {
    /// Fraction of similarity classes that request scratch disk at all.
    pub disk_class_fraction: f64,
    /// Fraction of applications that require at least one licensed software
    /// package.
    pub package_app_fraction: f64,
    /// Number of distinct licensed packages, i.e. how many low bits of the
    /// package mask are in play. Must be in `1..=32`.
    pub package_count: u32,
    /// Per-job probability that a requested package goes *unused* — the
    /// license-dimension analogue of memory over-provisioning (the
    /// prerequisite was declared defensively).
    pub package_unused_fraction: f64,
}

impl Default for AttrConfig {
    fn default() -> Self {
        AttrConfig {
            disk_class_fraction: 0.35,
            package_app_fraction: 0.20,
            package_count: 4,
            package_unused_fraction: 0.25,
        }
    }
}

/// Uniform draw in `[0, 1)` from lane `lane` of hash state `h`.
fn unit(h: u64, lane: u64) -> f64 {
    (splitmix64(h ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Enrich `workload` in place with synthetic disk requests/usage and
/// package masks. Deterministic for a given `(cfg, seed)`; idempotent in
/// the sense that re-running with the same inputs produces the same
/// attributes (previous values are overwritten, not accumulated).
///
/// # Panics
/// Panics when `cfg.package_count` is outside `1..=32` or a fraction is
/// outside `[0, 1]`.
pub fn synthesize_attributes(workload: &mut Workload, cfg: &AttrConfig, seed: u64) {
    assert!(
        (1..=32).contains(&cfg.package_count),
        "package_count must be in 1..=32"
    );
    for f in [
        cfg.disk_class_fraction,
        cfg.package_app_fraction,
        cfg.package_unused_fraction,
    ] {
        assert!((0.0..=1.0).contains(&f), "fractions must be in [0, 1]");
    }

    let salt = splitmix64(seed ^ 0x00A7_7215_D15C_0DE5);
    for job in workload.jobs_mut() {
        // Class identity: the same tuple the similarity policies key on, so
        // every member of a group sees the same requested attributes.
        let class_h = splitmix64(
            salt ^ splitmix64(u64::from(job.user) << 32 | u64::from(job.app))
                ^ splitmix64(job.requested_mem_kb),
        );
        let job_h = splitmix64(salt ^ splitmix64(job.id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Disk: class-level request rung and typical-use fraction, per-job
        // jitter on actual usage.
        if unit(class_h, 1) < cfg.disk_class_fraction {
            let rung =
                DISK_RUNGS_KB[(splitmix64(class_h ^ 2) % DISK_RUNGS_KB.len() as u64) as usize];
            // Typical usage 10%-90% of the request, clustered per class —
            // the disk analogue of the memory over-provisioning structure.
            let use_fraction = 0.10 + 0.80 * unit(class_h, 3);
            let used = (rung as f64 * use_fraction * (0.85 + 0.30 * unit(job_h, 4))).round() as u64;
            job.requested_disk_kb = rung;
            job.used_disk_kb = used.clamp(1, rung);
        } else {
            job.requested_disk_kb = 0;
            job.used_disk_kb = 0;
        }

        // Packages: application-level profile. An app either needs one
        // licensed package or (rarely) two adjacent ones.
        let app_h = splitmix64(salt ^ 0xA99 ^ u64::from(job.app));
        if unit(app_h, 5) < cfg.package_app_fraction {
            let first = splitmix64(app_h ^ 6) % u64::from(cfg.package_count);
            let mut mask = 1u32 << first;
            if cfg.package_count > 1 && unit(app_h, 7) < 0.25 {
                let second = (first + 1) % u64::from(cfg.package_count);
                mask |= 1u32 << second;
            }
            job.requested_packages = mask;
            // Over-declared prerequisite: some jobs never touch the
            // licensed software they asked for.
            job.used_packages = if unit(job_h, 8) < cfg.package_unused_fraction {
                0
            } else {
                mask
            };
        } else {
            job.requested_packages = 0;
            job.used_packages = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, Cm5Config};
    use std::collections::BTreeMap;

    fn enriched(jobs: usize, seed: u64) -> Workload {
        let mut w = generate(
            &Cm5Config {
                jobs,
                ..Cm5Config::default()
            },
            seed,
        );
        synthesize_attributes(&mut w, &AttrConfig::default(), seed);
        w
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let a = enriched(2_000, 7);
        let b = enriched(2_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn invariants_hold_everywhere() {
        let w = enriched(5_000, 11);
        for j in w.jobs() {
            assert!(j.request_covers_usage(), "job {:?}", j.id);
            if j.requested_disk_kb == 0 {
                assert_eq!(j.used_disk_kb, 0);
            } else {
                assert!(j.used_disk_kb >= 1 && j.used_disk_kb <= j.requested_disk_kb);
            }
            assert_eq!(j.used_packages & !j.requested_packages, 0);
        }
    }

    #[test]
    fn requested_attributes_are_stable_per_class() {
        let w = enriched(20_000, 42);
        let mut per_class: BTreeMap<(u32, u32, u64), u64> = BTreeMap::new();
        for j in w.jobs() {
            let key = (j.user, j.app, j.requested_mem_kb);
            let prev = per_class.entry(key).or_insert(j.requested_disk_kb);
            assert_eq!(
                *prev, j.requested_disk_kb,
                "class {key:?} disk request drifted"
            );
        }
        // Package profiles are per app.
        let mut per_app: BTreeMap<u32, u32> = BTreeMap::new();
        for j in w.jobs() {
            let prev = per_app.entry(j.app).or_insert(j.requested_packages);
            assert_eq!(*prev, j.requested_packages, "app {} mask drifted", j.app);
        }
    }

    #[test]
    fn both_dimensions_get_real_mass() {
        let w = enriched(20_000, 3);
        let disk_frac =
            w.jobs().iter().filter(|j| j.requested_disk_kb > 0).count() as f64 / w.len() as f64;
        let pkg_frac = w
            .jobs()
            .iter()
            .filter(|j| j.requested_packages != 0)
            .count() as f64
            / w.len() as f64;
        assert!(
            (0.1..0.7).contains(&disk_frac),
            "disk fraction {disk_frac:.3}"
        );
        assert!(
            (0.02..0.6).contains(&pkg_frac),
            "package fraction {pkg_frac:.3}"
        );
        // Over-provisioning exists in both new dimensions: some disk
        // requests are at least twice the usage, some requested packages go
        // unused.
        assert!(w
            .jobs()
            .iter()
            .any(|j| j.requested_disk_kb >= 2 * j.used_disk_kb.max(1) && j.requested_disk_kb > 0));
        assert!(w
            .jobs()
            .iter()
            .any(|j| j.requested_packages != 0 && j.used_packages == 0));
    }

    #[test]
    fn memory_and_ordering_untouched() {
        let base = generate(
            &Cm5Config {
                jobs: 2_000,
                ..Cm5Config::default()
            },
            9,
        );
        let mut enriched = base.clone();
        synthesize_attributes(&mut enriched, &AttrConfig::default(), 9);
        for (a, b) in base.jobs().iter().zip(enriched.jobs()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.requested_mem_kb, b.requested_mem_kb);
            assert_eq!(a.used_mem_kb, b.used_mem_kb);
            assert_eq!(a.runtime, b.runtime);
        }
    }

    #[test]
    fn zeroed_config_clears_attributes() {
        let mut w = enriched(500, 1);
        synthesize_attributes(
            &mut w,
            &AttrConfig {
                disk_class_fraction: 0.0,
                package_app_fraction: 0.0,
                package_count: 1,
                package_unused_fraction: 0.0,
            },
            1,
        );
        assert!(w
            .jobs()
            .iter()
            .all(|j| j.requested_disk_kb == 0 && j.requested_packages == 0));
    }

    #[test]
    #[should_panic(expected = "package_count")]
    fn package_count_validated() {
        let mut w = generate(
            &Cm5Config {
                jobs: 10,
                ..Cm5Config::default()
            },
            0,
        );
        synthesize_attributes(
            &mut w,
            &AttrConfig {
                package_count: 33,
                ..AttrConfig::default()
            },
            0,
        );
    }
}
