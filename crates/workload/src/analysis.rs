//! Trace analysis behind the paper's Figures 1, 3, and 4.
//!
//! These routines characterize a workload *before* any simulation: how badly
//! jobs over-provision (Figure 1), how similarity groups are sized
//! (Figure 3), and how much estimation could gain per group versus how
//! self-similar the group is (Figure 4).
//!
//! Groups and users are collected in `BTreeMap`s, so every function here
//! returns the same order on every call.

use std::collections::BTreeMap;

use resmatch_stats::histogram::LogHistogram;
use resmatch_stats::regression::SimpleLinearRegression;

use crate::job::{Job, Workload};

/// The paper's similarity key for the LANL CM5 trace: user ID, application
/// number, and requested memory. Jobs sharing all three are deemed similar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Submitting user.
    pub user: u32,
    /// Application number.
    pub app: u32,
    /// Requested memory, KB per node.
    pub requested_mem_kb: u64,
}

impl GroupKey {
    /// Extract the key from a job.
    pub fn of(job: &Job) -> Self {
        GroupKey {
            user: job.user,
            app: job.app,
            requested_mem_kb: job.requested_mem_kb,
        }
    }
}

/// Partition a workload into similarity groups, in key order.
pub fn group_jobs(workload: &Workload) -> BTreeMap<GroupKey, Vec<&Job>> {
    let mut groups: BTreeMap<GroupKey, Vec<&Job>> = BTreeMap::new();
    for job in workload.jobs() {
        groups.entry(GroupKey::of(job)).or_default().push(job);
    }
    groups
}

/// Histogram of requested/used memory ratios in power-of-two bins starting
/// at ratio 1 (the data behind Figure 1). Jobs with zero usage or zero
/// request are skipped.
pub fn overprovisioning_histogram(workload: &Workload, bins: usize) -> LogHistogram {
    let mut hist = LogHistogram::new(1.0, 2.0, bins);
    hist.record_all(
        workload
            .jobs()
            .iter()
            .filter_map(Job::overprovisioning_ratio),
    );
    hist
}

/// Fit the Figure 1 regression line: log10 of the per-bin job fraction
/// against the bin index. Empty bins are skipped (log of zero is undefined).
/// Returns `None` when fewer than two bins are populated.
pub fn histogram_log_fit(hist: &LogHistogram) -> Option<SimpleLinearRegression> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..hist.num_bins() {
        let frac = hist.fraction(i);
        if frac > 0.0 {
            xs.push(i as f64);
            ys.push(frac.log10());
        }
    }
    SimpleLinearRegression::fit(&xs, &ys)
}

/// Fraction of jobs whose over-provisioning ratio is at least `threshold`
/// (the paper quotes 32.8% for a threshold of 2 on the CM5 trace), relative
/// to jobs with a defined ratio.
pub fn overprovisioned_fraction(workload: &Workload, threshold: f64) -> f64 {
    let ratios: Vec<f64> = workload
        .jobs()
        .iter()
        .filter_map(Job::overprovisioning_ratio)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.iter().filter(|&&r| r >= threshold).count() as f64 / ratios.len() as f64
}

/// One point of the Figure 3 histogram: all groups of a given size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSizeBucket {
    /// Group size (number of jobs).
    pub size: usize,
    /// How many groups have this size.
    pub groups: usize,
    /// Fraction of all jobs contained in groups of this size.
    pub job_fraction: f64,
}

/// The distribution of jobs across group sizes (Figure 3), sorted by size.
pub fn group_size_distribution(workload: &Workload) -> Vec<GroupSizeBucket> {
    let groups = group_jobs(workload);
    let total_jobs = workload.len();
    let mut by_size: BTreeMap<usize, usize> = BTreeMap::new();
    for members in groups.values() {
        *by_size.entry(members.len()).or_default() += 1;
    }
    by_size
        .into_iter()
        .map(|(size, count)| GroupSizeBucket {
            size,
            groups: count,
            job_fraction: if total_jobs == 0 {
                0.0
            } else {
                (size * count) as f64 / total_jobs as f64
            },
        })
        .collect()
}

/// One point of Figure 4: a similarity group's potential gain versus its
/// internal spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainPoint {
    /// Number of jobs in the group.
    pub size: usize,
    /// Requested memory over the group's *maximum* used memory — the
    /// head-room estimation could reclaim.
    pub gain: f64,
    /// Maximum used memory over minimum used memory — the similarity range;
    /// 1 means all members use identical amounts.
    pub range: f64,
}

/// Compute Figure 4's scatter: for every group with at least `min_size`
/// members (the paper uses 10), the gain and similarity range, sorted by
/// range with ties in group-key order. Groups whose members report zero
/// usage are skipped.
pub fn gain_vs_range(workload: &Workload, min_size: usize) -> Vec<GainPoint> {
    let groups = group_jobs(workload);
    let mut points = Vec::new();
    for (key, members) in groups {
        if members.len() < min_size {
            continue;
        }
        let used = members.iter().map(|j| j.used_mem_kb).filter(|&u| u > 0);
        let (Some(max_used), Some(min_used)) = (used.clone().max(), used.min()) else {
            continue;
        };
        let (max_used, min_used) = (max_used as f64, min_used as f64);
        points.push(GainPoint {
            size: members.len(),
            gain: key.requested_mem_kb as f64 / max_used,
            range: max_used / min_used,
        });
    }
    points.sort_by(|a, b| a.range.total_cmp(&b.range));
    points
}

/// Per-user workload profile — who over-provisions, and by how much.
///
/// The paper attributes over-provisioning to "the difficulty users
/// encounter when trying to assess job requirements"; this view makes the
/// per-user structure inspectable (some users chronically pad requests,
/// others are exact), which is also what motivates keying similarity
/// groups by user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// User id.
    pub user: u32,
    /// Jobs submitted.
    pub jobs: usize,
    /// Distinct similarity groups this user's jobs form.
    pub groups: usize,
    /// Median over-provisioning ratio (jobs with defined ratios).
    pub median_ratio: f64,
    /// Total node-seconds demanded.
    pub node_seconds: f64,
}

/// Per-user profiles, sorted by descending node-seconds (heaviest users
/// first, ties by user id).
pub fn user_profiles(workload: &Workload) -> Vec<UserProfile> {
    use resmatch_stats::Summary;
    let mut by_user: BTreeMap<u32, Vec<&Job>> = BTreeMap::new();
    for job in workload.jobs() {
        by_user.entry(job.user).or_default().push(job);
    }
    let mut profiles: Vec<UserProfile> = by_user
        .into_iter()
        .map(|(user, jobs)| {
            let ratios: Vec<f64> = jobs
                .iter()
                .filter_map(|j| j.overprovisioning_ratio())
                .collect();
            let mut keys: Vec<GroupKey> = jobs.iter().map(|j| GroupKey::of(j)).collect();
            keys.sort_unstable();
            keys.dedup();
            UserProfile {
                user,
                jobs: jobs.len(),
                groups: keys.len(),
                median_ratio: Summary::from_slice(&ratios).median().unwrap_or(0.0),
                node_seconds: jobs.iter().map(|j| j.node_seconds()).sum(),
            }
        })
        .collect();
    profiles.sort_by(|a, b| b.node_seconds.total_cmp(&a.node_seconds));
    profiles
}

/// Headline statistics of a trace, printed by examples and experiment
/// binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Number of similarity groups.
    pub groups: usize,
    /// Mean group size.
    pub mean_group_size: f64,
    /// Fraction of jobs with ratio >= 2.
    pub overprovisioned_2x: f64,
    /// Largest over-provisioning ratio observed.
    pub max_ratio: f64,
    /// Total demanded node-seconds.
    pub node_seconds: f64,
}

/// Compute [`TraceStats`] for a workload.
pub fn trace_stats(workload: &Workload) -> TraceStats {
    let groups = group_jobs(workload);
    let max_ratio = workload
        .jobs()
        .iter()
        .filter_map(Job::overprovisioning_ratio)
        .fold(0.0f64, f64::max);
    TraceStats {
        jobs: workload.len(),
        groups: groups.len(),
        mean_group_size: if groups.is_empty() {
            0.0
        } else {
            workload.len() as f64 / groups.len() as f64
        },
        overprovisioned_2x: overprovisioned_fraction(workload, 2.0),
        max_ratio,
        node_seconds: workload.total_node_seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    fn wl(jobs: Vec<Job>) -> Workload {
        Workload::new(jobs)
    }

    fn job_with(id: u64, user: u32, app: u32, req: u64, used: u64) -> Job {
        JobBuilder::new(id)
            .user(user)
            .app(app)
            .requested_mem_kb(req)
            .used_mem_kb(used)
            .build()
    }

    #[test]
    fn grouping_by_key() {
        let w = wl(vec![
            job_with(1, 1, 1, 100, 50),
            job_with(2, 1, 1, 100, 60),
            job_with(3, 1, 1, 200, 60), // different request → different group
            job_with(4, 2, 1, 100, 50), // different user → different group
        ]);
        let groups = group_jobs(&w);
        assert_eq!(groups.len(), 3);
        let key = GroupKey {
            user: 1,
            app: 1,
            requested_mem_kb: 100,
        };
        assert_eq!(groups[&key].len(), 2);
    }

    #[test]
    fn histogram_counts_ratios() {
        let w = wl(vec![
            job_with(1, 1, 1, 100, 100), // ratio 1 → bin 0
            job_with(2, 1, 1, 100, 40),  // ratio 2.5 → bin 1
            job_with(3, 1, 1, 100, 10),  // ratio 10 → bin 3
            job_with(4, 1, 1, 100, 0),   // undefined, skipped
        ]);
        let h = overprovisioning_histogram(&w, 8);
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(3), 1);
    }

    #[test]
    fn overprovisioned_fraction_threshold() {
        let w = wl(vec![
            job_with(1, 1, 1, 100, 100),
            job_with(2, 1, 1, 100, 50),
            job_with(3, 1, 1, 100, 25),
            job_with(4, 1, 1, 100, 0),
        ]);
        assert!((overprovisioned_fraction(&w, 2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(overprovisioned_fraction(&Workload::default(), 2.0), 0.0);
    }

    #[test]
    fn log_fit_on_geometric_decay() {
        // Bin fractions decaying by 10x per bin → perfect log-linear fit
        // with slope -1.
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        for _ in 0..1000 {
            h.record(1.0);
        }
        for _ in 0..100 {
            h.record(2.0);
        }
        for _ in 0..10 {
            h.record(4.0);
        }
        h.record(8.0);
        let fit = histogram_log_fit(&h).unwrap();
        assert!((fit.slope + 1.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn log_fit_requires_two_populated_bins() {
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        h.record(1.0);
        assert!(histogram_log_fit(&h).is_none());
    }

    #[test]
    fn size_distribution_buckets() {
        let w = wl(vec![
            job_with(1, 1, 1, 100, 50),
            job_with(2, 1, 1, 100, 50),
            job_with(3, 2, 1, 100, 50),
            job_with(4, 3, 1, 100, 50),
        ]);
        let dist = group_size_distribution(&w);
        // Two groups of size 1, one group of size 2.
        assert_eq!(dist.len(), 2);
        assert_eq!(dist[0].size, 1);
        assert_eq!(dist[0].groups, 2);
        assert!((dist[0].job_fraction - 0.5).abs() < 1e-12);
        assert_eq!(dist[1].size, 2);
        assert_eq!(dist[1].groups, 1);
        assert!((dist[1].job_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gain_points_computed_per_group() {
        let mut jobs = Vec::new();
        for i in 0..10 {
            // Group A: request 320, usage 40..80 → gain 4, range 2.
            jobs.push(job_with(i, 1, 1, 320, 40 + (i % 2) * 40));
        }
        for i in 10..20 {
            // Group B: request 100, constant usage 100 → gain 1, range 1.
            jobs.push(job_with(i, 2, 1, 100, 100));
        }
        // Too-small group ignored.
        jobs.push(job_with(20, 3, 1, 100, 10));
        let points = gain_vs_range(&wl(jobs), 10);
        assert_eq!(points.len(), 2);
        let a = points.iter().find(|p| p.gain > 2.0).unwrap();
        assert!((a.gain - 4.0).abs() < 1e-12);
        assert!((a.range - 2.0).abs() < 1e-12);
        let b = points.iter().find(|p| p.gain <= 2.0).unwrap();
        assert!((b.gain - 1.0).abs() < 1e-12);
        assert!((b.range - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_summary() {
        let w = wl(vec![job_with(1, 1, 1, 100, 50), job_with(2, 1, 1, 100, 50)]);
        let s = trace_stats(&w);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.groups, 1);
        assert!((s.mean_group_size - 2.0).abs() < 1e-12);
        assert!((s.overprovisioned_2x - 1.0).abs() < 1e-12);
        assert!((s.max_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn user_profiles_aggregate_and_sort() {
        use crate::time::Time;
        let mut jobs = vec![
            // User 1: two jobs in one group, ratio 2.
            job_with(1, 1, 1, 100, 50),
            job_with(2, 1, 1, 100, 50),
            // User 2: one heavy job (more node-seconds), exact requester.
            JobBuilder::new(3)
                .user(2)
                .app(9)
                .requested_mem_kb(64)
                .used_mem_kb(64)
                .nodes(100)
                .runtime(Time::from_secs(1_000))
                .build(),
        ];
        jobs[0].nodes = 1;
        jobs[1].nodes = 1;
        let profiles = user_profiles(&wl(jobs));
        assert_eq!(profiles.len(), 2);
        // Heaviest first.
        assert_eq!(profiles[0].user, 2);
        assert_eq!(profiles[0].jobs, 1);
        assert_eq!(profiles[0].groups, 1);
        assert!((profiles[0].median_ratio - 1.0).abs() < 1e-12);
        assert_eq!(profiles[1].user, 1);
        assert_eq!(profiles[1].jobs, 2);
        assert!((profiles[1].median_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn user_profiles_empty() {
        assert!(user_profiles(&Workload::default()).is_empty());
    }

    #[test]
    fn repeated_calls_return_equal_vectors() {
        // At 20k jobs Figure 4 has hundreds of groups tied on `range`; a
        // per-process hash seed returned those ties in a new order on
        // every call.
        use crate::synthetic::{generate, Cm5Config};
        let w = generate(
            &Cm5Config {
                jobs: 20_000,
                ..Cm5Config::default()
            },
            42,
        );
        assert_eq!(gain_vs_range(&w, 10), gain_vs_range(&w, 10));
        assert_eq!(group_size_distribution(&w), group_size_distribution(&w));
        assert_eq!(user_profiles(&w), user_profiles(&w));
    }

    #[test]
    fn empty_workload_stats() {
        let s = trace_stats(&Workload::default());
        assert_eq!(s.jobs, 0);
        assert_eq!(s.groups, 0);
        assert_eq!(s.mean_group_size, 0.0);
    }
}
