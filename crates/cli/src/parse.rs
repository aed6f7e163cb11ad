//! Domain-value parsing: memory sizes, cluster layouts, load lists.

use resmatch_classad::PoolAd;
use resmatch_cluster::{Capacity, Cluster, ClusterBuilder};

use crate::{CliError, CliResult};

/// Parse a memory size: a plain number is KB; `M`/`m` suffix means MB,
/// `G`/`g` GB. A size whose KB value overflows `u64` is an error.
pub fn parse_mem_kb(raw: &str) -> CliResult<u64> {
    let raw = raw.trim();
    let (digits, factor) = match raw.chars().last() {
        Some('M') | Some('m') => (&raw[..raw.len() - 1], 1024),
        Some('G') | Some('g') => (&raw[..raw.len() - 1], 1024 * 1024),
        _ => (raw, 1),
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| CliError::new(format!("bad memory size {raw:?}")))?;
    value
        .checked_mul(factor)
        .ok_or_else(|| CliError::new(format!("memory size {raw:?} exceeds u64::MAX KB")))
}

/// Parse a cluster layout: comma-separated `COUNTxMEM` pools, e.g.
/// `512x32M,512x24M`. Sugar over [`parse_cluster_ads`] for callers that
/// only need the capacity model.
pub fn parse_cluster(raw: &str) -> CliResult<Cluster> {
    Ok(parse_cluster_ads(raw)?.0)
}

/// Parse a cluster layout together with per-pool capability ads.
///
/// Each pool is `COUNTxMEM` optionally followed by `:`-separated
/// attributes, e.g. `512x32M:disk=2G:pkgs=3:arch=sparc`:
///
/// - `disk=SIZE` — per-node scratch disk (same `M`/`G` suffixes as
///   memory; default unbounded),
/// - `pkgs=MASK` — bitmask of installed licensed packages (decimal, or
///   hex with an `0x` prefix; default all packages),
/// - `arch=NAME` — architecture tag advertised as the `Arch` ClassAd
///   attribute (default untagged).
///
/// The node counts may sum to at most `u32::MAX`.
///
/// The returned [`PoolAd`] list is index-aligned with the cluster's
/// pools, ready for [`resmatch_classad::Matchmaker::new`].
pub fn parse_cluster_ads(raw: &str) -> CliResult<(Cluster, Vec<PoolAd>)> {
    let mut builder = ClusterBuilder::new();
    let mut ads = Vec::new();
    let mut total: u32 = 0;
    for pool in raw.split(',') {
        let mut parts = pool.split(':');
        let head = parts.next().unwrap_or("");
        let (count, mem) = head
            .split_once(['x', 'X'])
            .ok_or_else(|| CliError::new(format!("pool {pool:?} must look like 512x32M")))?;
        let count: u32 = count
            .trim()
            .parse()
            .map_err(|_| CliError::new(format!("bad node count in {pool:?}")))?;
        if count == 0 {
            return Err(CliError::new(format!("pool {pool:?} has zero nodes")));
        }
        total = total.checked_add(count).ok_or_else(|| {
            CliError::new(format!(
                "cluster layout {raw:?} has more than {} nodes",
                u32::MAX
            ))
        })?;
        let mem_kb = parse_mem_kb(mem)?;
        // Unspecified attributes advertise no constraint, matching
        // `Capacity::memory`: unbounded disk, every package installed.
        let mut disk_kb = u64::MAX;
        let mut packages = u32::MAX;
        let mut arch: Option<&str> = None;
        for attr in parts {
            let (key, value) = attr.split_once('=').ok_or_else(|| {
                CliError::new(format!("pool attribute {attr:?} must be key=value"))
            })?;
            match key.trim() {
                "disk" => disk_kb = parse_mem_kb(value)?,
                "pkgs" => {
                    let value = value.trim();
                    packages = match value
                        .strip_prefix("0x")
                        .or_else(|| value.strip_prefix("0X"))
                    {
                        Some(hex) => u32::from_str_radix(hex, 16),
                        None => value.parse(),
                    }
                    .map_err(|_| CliError::new(format!("bad package mask in {pool:?}")))?;
                }
                "arch" => arch = Some(value.trim()),
                other => {
                    return Err(CliError::new(format!(
                        "unknown pool attribute {other:?}; expected disk=, pkgs=, or arch="
                    )))
                }
            }
        }
        let capacity = Capacity::new(mem_kb, disk_kb, packages);
        let mut ad = PoolAd::new(capacity);
        if let Some(arch) = arch {
            ad = ad.with_arch(arch);
        }
        builder = builder.pool_with(count, capacity);
        ads.push(ad);
    }
    if ads.is_empty() {
        return Err(CliError::new("cluster layout is empty"));
    }
    Ok((builder.build(), ads))
}

/// Parse a comma-separated load list, e.g. `0.2,0.4,0.8`.
pub fn parse_loads(raw: &str) -> CliResult<Vec<f64>> {
    let loads: Result<Vec<f64>, _> = raw.split(',').map(|s| s.trim().parse::<f64>()).collect();
    let loads = loads.map_err(|_| CliError::new(format!("bad load list {raw:?}")))?;
    if loads.is_empty() || loads.iter().any(|&l| l <= 0.0 || !l.is_finite()) {
        return Err(CliError::new("loads must be positive numbers"));
    }
    Ok(loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_suffixes() {
        assert_eq!(parse_mem_kb("1024").unwrap(), 1024);
        assert_eq!(parse_mem_kb("32M").unwrap(), 32 * 1024);
        assert_eq!(parse_mem_kb("32m").unwrap(), 32 * 1024);
        assert_eq!(parse_mem_kb("2G").unwrap(), 2 * 1024 * 1024);
        assert!(parse_mem_kb("abc").is_err());
        assert!(parse_mem_kb("12.5M").is_err());
        // 2^44 GB is 2^64 KB: one past u64::MAX.
        assert!(parse_mem_kb("17592186044416G").is_err());
        assert!(parse_mem_kb("17592186044417G").is_err());
        assert_eq!(
            parse_mem_kb("17592186044415G").unwrap(),
            17_592_186_044_415 * 1024 * 1024
        );
    }

    #[test]
    fn cluster_layouts() {
        let c = parse_cluster("512x32M,512x24M").unwrap();
        assert_eq!(c.total_nodes(), 1024);
        assert_eq!(c.memory_ladder().rungs(), &[24 * 1024, 32 * 1024]);
        let single = parse_cluster("16x8M").unwrap();
        assert_eq!(single.total_nodes(), 16);
    }

    #[test]
    fn cluster_layout_errors() {
        assert!(parse_cluster("512").is_err());
        assert!(parse_cluster("0x32M").is_err());
        assert!(parse_cluster("ax32M").is_err());
        assert!(parse_cluster("512xbogus").is_err());
        // Node totals past u32::MAX and sizes past u64::MAX KB are usage
        // errors, not a wrapped cluster.
        assert!(parse_cluster("4294967295x32M,2x24M").is_err());
        assert_eq!(
            parse_cluster("4294967294x32M,1x24M").unwrap().total_nodes(),
            u32::MAX
        );
        assert!(parse_cluster("4x17592186044416G,4x24M").is_err());
        assert!(parse_cluster("1024x17592186044417G").is_err());
    }

    #[test]
    fn pool_attribute_grammar() {
        let (c, ads) = parse_cluster_ads("4x32M:disk=2G:pkgs=3:arch=sparc,8x24M").unwrap();
        assert_eq!(c.total_nodes(), 12);
        assert_eq!(ads.len(), 2);
        assert_eq!(ads[0].capacity.mem_kb, 32 * 1024);
        assert_eq!(ads[0].capacity.disk_kb, 2 * 1024 * 1024);
        assert_eq!(ads[0].capacity.packages, 3);
        assert_eq!(ads[0].arch.as_deref(), Some("sparc"));
        // Unadorned pools advertise no constraint beyond memory.
        assert_eq!(ads[1].capacity.disk_kb, u64::MAX);
        assert_eq!(ads[1].capacity.packages, u32::MAX);
        assert_eq!(ads[1].arch, None);
    }

    #[test]
    fn pool_attribute_masks_accept_hex() {
        let (_, ads) = parse_cluster_ads("2x8M:pkgs=0xF").unwrap();
        assert_eq!(ads[0].capacity.packages, 0xF);
    }

    #[test]
    fn pool_attribute_errors() {
        assert!(parse_cluster_ads("4x32M:disk").is_err());
        assert!(parse_cluster_ads("4x32M:disk=bogus").is_err());
        assert!(parse_cluster_ads("4x32M:pkgs=zz").is_err());
        assert!(parse_cluster_ads("4x32M:frobs=1").is_err());
    }

    #[test]
    fn load_lists() {
        assert_eq!(parse_loads("0.2,0.4").unwrap(), vec![0.2, 0.4]);
        assert_eq!(parse_loads(" 1.0 ").unwrap(), vec![1.0]);
        assert!(parse_loads("0.2,-1").is_err());
        assert!(parse_loads("abc").is_err());
        assert!(parse_loads("0").is_err());
    }
}
