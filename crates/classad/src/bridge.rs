//! Bridge between the workspace's native job/capacity types and `ClassAds`.
//!
//! The point of this module is the fidelity argument: our cluster's native
//! matcher (`Capacity::satisfies`) implements exactly the matching a
//! Condor-style matchmaker would perform over the generated ads — "the
//! available resource capacity is equal to or greater than the job
//! request". A property test asserts the equivalence, so the estimator's
//! demand-rewriting story carries over verbatim to declarative matchmaking
//! deployments: estimation rewrites the *job ad*, nothing else.

use std::fmt::Write as _;

use resmatch_cluster::{Capacity, Demand};
use resmatch_workload::Job;

use crate::ad::ClassAd;

/// Number of package bits the bridge advertises as boolean attributes.
pub const PACKAGE_BITS: u32 = 32;

/// Advertise a node's capacity as a machine ad.
///
/// # Panics
/// Never: the `Requirements` text is a fixed expression that parses.
pub fn machine_ad(capacity: &Capacity) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert_int("Memory", capacity.mem_kb.min(i64::MAX as u64) as i64);
    ad.insert_int("Disk", capacity.disk_kb.min(i64::MAX as u64) as i64);
    for bit in 0..PACKAGE_BITS {
        if capacity.packages & (1 << bit) != 0 {
            ad.insert_bool(&format!("HasPkg{bit}"), true);
        }
    }
    #[expect(clippy::expect_used, reason = "invariant: static expression parses")]
    ad.insert_expr(
        "Requirements",
        "other.RequestedMemory <= my.Memory && other.RequestedDisk <= my.Disk",
    )
    .expect("invariant: static expression parses");
    ad
}

/// Advertise a demand (a job request, possibly estimator-rewritten) as a
/// job ad.
///
/// # Panics
/// Never: the generated `Requirements` text always parses.
pub fn job_ad(demand: &Demand) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert_int("RequestedMemory", demand.mem_kb.min(i64::MAX as u64) as i64);
    ad.insert_int("RequestedDisk", demand.disk_kb.min(i64::MAX as u64) as i64);
    let mut requirements =
        String::from("other.Memory >= my.RequestedMemory && other.Disk >= my.RequestedDisk");
    for bit in 0..PACKAGE_BITS {
        if demand.packages & (1 << bit) != 0 {
            let _ = write!(requirements, " && other.HasPkg{bit} == true");
        }
    }
    #[expect(clippy::expect_used, reason = "invariant: generated expression parses")]
    ad.insert_expr("Requirements", &requirements)
        .expect("invariant: generated expression parses");
    ad
}

/// Advertise a workload job's *request* as a job ad (what a user would
/// submit without estimation), including identity attributes for
/// similarity-aware tooling.
pub fn job_request_ad(job: &Job) -> ClassAd {
    let mut ad = job_ad(&Demand {
        mem_kb: job.requested_mem_kb,
        disk_kb: 0,
        packages: job.requested_packages,
    });
    ad.insert_int("User", job.user as i64);
    ad.insert_int("App", job.app as i64);
    ad.insert_int("Nodes", job.nodes as i64);
    ad.insert_int("RequestedRuntime", job.requested_runtime.as_secs() as i64);
    ad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::matches;

    #[test]
    fn memory_matching_agrees_with_native() {
        let node = Capacity::memory(24 * 1024);
        for mem in [1, 16 * 1024, 24 * 1024, 24 * 1024 + 1, 32 * 1024] {
            let demand = Demand::memory(mem);
            let native = node.satisfies(&demand);
            let declarative = matches(&job_ad(&demand), &machine_ad(&node)).unwrap();
            assert_eq!(native, declarative, "mem {mem}");
        }
    }

    #[test]
    fn package_matching_agrees_with_native() {
        let node = Capacity::new(32 * 1024, u64::MAX, 0b1010);
        for pkgs in [0b0000, 0b0010, 0b1010, 0b0100, 0b1110] {
            let demand = Demand::new(1024, 0, pkgs);
            let native = node.satisfies(&demand);
            let declarative = matches(&job_ad(&demand), &machine_ad(&node)).unwrap();
            assert_eq!(native, declarative, "pkgs {pkgs:#b}");
        }
    }

    #[test]
    fn job_request_ad_carries_identity() {
        use resmatch_workload::job::JobBuilder;
        let job = JobBuilder::new(1)
            .user(7)
            .app(3)
            .nodes(64)
            .requested_mem_kb(32 * 1024)
            .build();
        let ad = job_request_ad(&job);
        assert_eq!(
            ad.evaluate("user", None).unwrap(),
            crate::value::Value::Int(7)
        );
        assert_eq!(
            ad.evaluate("nodes", None).unwrap(),
            crate::value::Value::Int(64)
        );
    }

    #[test]
    fn estimation_story_via_ads() {
        // The paper's scenario in declarative clothes: the raw request
        // matches only the big machine; the estimator's rewritten ad also
        // matches the small one.
        let big = machine_ad(&Capacity::memory(32 * 1024));
        let small = machine_ad(&Capacity::memory(24 * 1024));
        let raw = job_ad(&Demand::memory(32 * 1024));
        let estimated = job_ad(&Demand::memory(16 * 1024));
        assert!(matches(&raw, &big).unwrap());
        assert!(!matches(&raw, &small).unwrap());
        assert!(matches(&estimated, &big).unwrap());
        assert!(matches(&estimated, &small).unwrap());
    }
}
