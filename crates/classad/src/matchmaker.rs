//! The allocation-path matchmaker: [`Matchmaker`] implements the
//! cluster's [`PoolMatcher`] seam over the bridge's `ClassAds`, with
//! expression evaluation hoisted entirely out of the per-attempt loop.
//!
//! Three layers keep the hot path at comparator cost (DESIGN.md §12):
//!
//! 1. **Indexed eligibility.** The pool table is fixed at construction, so
//!    it is lowered once into struct-of-arrays columns plus bitset
//!    indexes: a suffix table per sorted distinct memory/disk threshold
//!    (`row i` = pools at or above rung `i`) and a subset bitset per
//!    package mask seen. The bridge's `Requirements` are the threshold
//!    conjunction memory ≥ m ∧ disk ≥ d ∧ one `HasPkgN == true` atom per
//!    mask bit on the job side, mirrored on the machine side, so a
//!    demand's eligibility set is three table lookups AND-ed together —
//!    zero expression evaluation.
//! 2. **Operator expressions, evaluated once.** An operator
//!    `--constrain`/`--rank` expression is evaluated by the tree walk
//!    ([`crate::eval::eval`]) over per-pool machine ads built when it is
//!    installed. One that never reads the job ad folds into a static bit
//!    row (constraint) or a per-pool table (rank) at install time; a
//!    job-reading one runs once per demand signature and surviving pool,
//!    never per attempt.
//! 3. **Demand-signature memo.** Demands are interned into signatures,
//!    each owning its eligibility bit row. Without a job-reading
//!    expression whole *verdict classes* — every demand with the same
//!    rung rows and package mask — collapse into one signature through a
//!    flat class map, so [`PoolMatcher::prepare`] is two binary searches
//!    and a vector read; a job-reading constraint or rank reads the raw
//!    demand, so interning falls back to one signature per raw demand.
//!    [`PoolMatcher::matches`] is a bit test, and the allocator's
//!    counting walks read the whole row at once via
//!    [`PoolMatcher::eligible_pools`]. [`PoolMatcher::demand_signature`]
//!    still publishes the interned id; the simulator keys no cache on it.
//!
//! Matching semantics are Condor-symmetric, exactly
//! [`crate::ad::matches`]: the job's `Requirements`, the optional
//! operator constraint, and the machine's `Requirements` must each
//! evaluate to exactly `true`. By [`Value::and`]'s truth table an
//! `&&`-conjunction is exactly `true` iff every conjunct is, which is what
//! makes the indexed answer identical to evaluating the ads — the
//! `matchmaker_equiv` proptest pins it against the tree walk, and is the
//! only check that the bridge texts keep that shape.

use std::collections::BTreeMap;

use resmatch_cluster::{Capacity, Cluster, Demand, PoolMatcher};

use crate::ad::ClassAd;
use crate::bridge;
use crate::eval::{eval, Context};
use crate::parser::{parse, Expr, ParseError, Scope};
use crate::value::Value;

/// A pool's capability ad as the matchmaker consumes it: the per-node
/// capacity plus scenario-level tags the cluster model does not carry.
#[derive(Debug, Clone)]
pub struct PoolAd {
    /// Per-node capacity (memory, disk, packages) of every node in the
    /// pool.
    pub capacity: Capacity,
    /// Architecture / platform tag, advertised as the string attribute
    /// `Arch` when present.
    pub arch: Option<String>,
}

impl PoolAd {
    /// A tagless ad for `capacity`.
    pub fn new(capacity: Capacity) -> Self {
        PoolAd {
            capacity,
            arch: None,
        }
    }

    /// Attach an `Arch` tag.
    pub fn with_arch(mut self, arch: &str) -> Self {
        self.arch = Some(arch.to_string());
        self
    }

    /// The machine ad the bridge generates for this pool, plus `Arch`.
    fn machine_ad(&self) -> ClassAd {
        let mut ad = bridge::machine_ad(&self.capacity);
        if let Some(arch) = &self.arch {
            ad.insert_str("Arch", arch);
        }
        ad
    }
}

/// The ads' integer comparison space: u64 figures clamped into i64.
fn clamp(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

/// Interned demand key for the raw-interning path: the *raw* request
/// figures, so key equality is exactly [`Demand`] equality and the
/// signature guarantee holds trivially (clamping could collide distinct
/// demands at the i64 boundary).
type DemandKey = (u64, u64, u32);

/// Evaluate an operator expression with `my` = the job ad and `other` =
/// the machine ad. An [`crate::EvalError`] reads as `error`: no match,
/// rank 0.
fn eval_pair(expr: &Expr, job: &ClassAd, machine: &ClassAd) -> Value {
    let ctx = Context {
        my: job,
        other: Some(machine),
    };
    eval(expr, &ctx).unwrap_or(Value::Error)
}

/// Whether evaluating `expr` (`my` = job, `other` = machine) can read the
/// job ad: a `my.` reference, an unqualified one (resolved in the job ad
/// first), or any `Requirements` (the machine's reads `other`, the job).
/// Anything else reads only a machine ad's literal attributes, so its
/// value per pool is fixed for the matcher's lifetime.
fn reads_job(expr: &Expr) -> bool {
    match expr {
        Expr::Attr {
            scope: Scope::Other,
            name,
        } => name == "requirements",
        Expr::Attr { .. } => true,
        Expr::Unary { expr, .. } => reads_job(expr),
        Expr::Binary { lhs, rhs, .. } => reads_job(lhs) || reads_job(rhs),
        _ => false,
    }
}

/// An installed rank expression.
#[derive(Debug)]
enum Rank {
    /// Machine-only: one value per pool, evaluated at install time.
    Static(Vec<f64>),
    /// Job-reading: evaluated per (signature, matched pool) into
    /// `sig_rank`.
    PerSignature(Expr),
}

/// A `ClassAd` matchmaker for a fixed set of pools, pluggable into
/// [`resmatch_cluster::Cluster::try_allocate_matched`] (and the simulation
/// engine's `--matchmaking` mode) via [`PoolMatcher`].
#[derive(Debug)]
pub struct Matchmaker {
    // ---- layer 1: eligibility index over the fixed pool table ----
    /// The pool table, in cluster pool order.
    pools: Vec<PoolAd>,
    /// Words per pool bitset row.
    words: usize,
    /// Sorted distinct clamped pool memory values.
    mem_rungs: Vec<i64>,
    /// `(mem_rungs.len() + 1) × words` suffix table: row `i` holds pools
    /// with memory ≥ `mem_rungs[i]`; the extra final row is empty and
    /// serves demands above every rung.
    mem_suffix: Vec<u64>,
    disk_rungs: Vec<i64>,
    disk_suffix: Vec<u64>,
    /// Package masks lowered so far, parallel to rows of `mask_bits`.
    mask_keys: Vec<u32>,
    /// Per-mask subset bitsets: pools `p` with `mask & !pkgs[p] == 0`.
    mask_bits: Vec<u64>,
    /// Demand-independent bits: pool existence AND any machine-only
    /// constraint verdicts, folded once at install time.
    static_bits: Vec<u64>,

    // ---- layer 2: operator expressions ----
    /// One machine ad per pool, built by the first expression installed.
    machine_ads: Vec<ClassAd>,
    /// Job-reading operator constraints (`my` = job, `other` = machine);
    /// machine-only ones live in `static_bits` instead.
    job_constraints: Vec<Expr>,
    /// The rank expression (`my` = job, `other` = machine).
    rank: Option<Rank>,

    // ---- layer 3: demand-signature memo ----
    /// Raw-demand interning, used whenever a verdict input reads the job
    /// ad itself (a job-reading constraint or rank) and class collapse
    /// would be unsound.
    sig_lookup: BTreeMap<DemandKey, u32>,
    /// Verdict-class memo for the indexed path, flattened as
    /// `mask_row * class_stride + mem_row * (disk_rungs + 1) + disk_row`
    /// (`u32::MAX` = unbuilt). Every verdict input is then a pure
    /// function of that triple, so one signature serves every demand in
    /// the class and `prepare` is two binary searches plus a vector read.
    class_map: Vec<u32>,
    /// Rows per mask block of `class_map`:
    /// `(mem_rungs + 1) * (disk_rungs + 1)`, fixed at construction.
    class_stride: usize,
    /// Eligibility rows, `words` words per signature.
    sig_elig: Vec<u64>,
    /// Rank rows for job-reading ranks, one `f64` per pool per signature;
    /// filled only on matched pools (the allocator ranks candidates).
    sig_rank: Vec<f64>,
    /// The last prepared key — consecutive same-demand prepares skip even
    /// the memo probe.
    last_key: Option<DemandKey>,
    /// Signature selected by the last `prepare`.
    active: usize,
}

impl Matchmaker {
    /// Build for a fixed pool set. Pool index `i` here must correspond to
    /// the cluster's pool index `i` (construction order). An empty pool
    /// set gets one all-zero bitset word, so no pool is eligible for any
    /// demand.
    pub fn new(pools: &[PoolAd]) -> Self {
        let npools = pools.len();
        let words = npools.div_ceil(64).max(1);
        let pool_mem: Vec<i64> = pools.iter().map(|p| clamp(p.capacity.mem_kb)).collect();
        let pool_disk: Vec<i64> = pools.iter().map(|p| clamp(p.capacity.disk_kb)).collect();

        let mut mem_rungs = pool_mem.clone();
        mem_rungs.sort_unstable();
        mem_rungs.dedup();
        let mem_suffix = suffix_table(&mem_rungs, &pool_mem, words);
        let mut disk_rungs = pool_disk.clone();
        disk_rungs.sort_unstable();
        disk_rungs.dedup();
        let disk_suffix = suffix_table(&disk_rungs, &pool_disk, words);

        let mut static_bits = vec![0u64; words];
        for p in 0..npools {
            static_bits[p >> 6] |= 1 << (p & 63);
        }
        let class_stride = (mem_rungs.len() + 1) * (disk_rungs.len() + 1);

        let mut mm = Matchmaker {
            pools: pools.to_vec(),
            words,
            mem_rungs,
            mem_suffix,
            disk_rungs,
            disk_suffix,
            mask_keys: Vec::new(),
            mask_bits: Vec::new(),
            static_bits,
            machine_ads: Vec::new(),
            job_constraints: Vec::new(),
            rank: None,
            sig_lookup: BTreeMap::new(),
            class_map: Vec::new(),
            class_stride,
            sig_elig: Vec::new(),
            sig_rank: Vec::new(),
            last_key: None,
            active: 0,
        };
        // Warm the zero-demand signature (mask 0) so `active` always
        // addresses a valid row and a default workload never builds
        // during simulation.
        mm.reset_sigs();
        mm
    }

    /// Build pool ads straight from a cluster's pools (no arch tags).
    pub fn from_cluster(cluster: &Cluster) -> Self {
        let pools: Vec<PoolAd> = (0..cluster.num_pools())
            .map(|i| PoolAd::new(cluster.pool_capacity(i)))
            .collect();
        Matchmaker::new(&pools)
    }

    /// Add an operator constraint, conjoined into the job side of every
    /// match (`my` = the job ad, `other` = the machine ad). Like any
    /// requirement, it must evaluate to exactly `true` — an `undefined`
    /// result (e.g. probing `other.Arch` on an untagged pool) rejects.
    ///
    /// A constraint that never reads the job ad is a fixed predicate over
    /// the pool table; its verdicts fold into the static bit row here and
    /// cost nothing afterwards. Job-reading constraints are evaluated
    /// once per demand signature and surviving pool.
    ///
    /// # Errors
    /// Returns the parse failure for invalid expression text.
    pub fn with_constraint(mut self, text: &str) -> Result<Self, ParseError> {
        let expr = parse(text)?;
        self.build_machine_ads();
        if reads_job(&expr) {
            self.job_constraints.push(expr);
        } else {
            let job = ClassAd::new();
            for (p, machine) in self.machine_ads.iter().enumerate() {
                if !eval_pair(&expr, &job, machine).is_true() {
                    self.static_bits[p >> 6] &= !(1 << (p & 63));
                }
            }
        }
        self.reset_sigs();
        Ok(self)
    }

    /// Set a `Rank` expression (`my` = the job ad, `other` = the machine
    /// ad); higher ranks are preferred, ties keep allocation-policy order.
    ///
    /// A rank that never reads the job ad is evaluated once per pool here
    /// and served from a table; job-reading ranks are evaluated once per
    /// (demand signature, matched pool).
    ///
    /// # Errors
    /// Returns the parse failure for invalid expression text.
    pub fn with_rank(mut self, text: &str) -> Result<Self, ParseError> {
        let expr = parse(text)?;
        self.build_machine_ads();
        self.rank = Some(if reads_job(&expr) {
            Rank::PerSignature(expr)
        } else {
            let job = ClassAd::new();
            Rank::Static(
                self.machine_ads
                    .iter()
                    .map(|machine| eval_pair(&expr, &job, machine).as_rank())
                    .collect(),
            )
        });
        self.reset_sigs();
        Ok(self)
    }

    /// Build the per-pool machine ads, once: only an operator expression
    /// evaluates them, so construction alone never pays for them.
    fn build_machine_ads(&mut self) {
        if self.machine_ads.len() != self.pools.len() {
            self.machine_ads = self.pools.iter().map(PoolAd::machine_ad).collect();
        }
    }

    /// Whether signatures may collapse demands per verdict class: true
    /// when no verdict input reads the job ad (no job-reading constraint
    /// or rank), so eligibility — and any static rank — is a pure
    /// function of the demand's rung rows and package mask.
    fn class_indexed(&self) -> bool {
        self.job_constraints.is_empty() && !matches!(self.rank, Some(Rank::PerSignature(_)))
    }

    /// Drop every memoized signature — called when verdict inputs change
    /// (constraint/rank installation) — and re-warm the zero demand so
    /// `active` always addresses a valid eligibility row.
    fn reset_sigs(&mut self) {
        self.sig_lookup.clear();
        self.class_map.clear();
        self.sig_elig.clear();
        self.sig_rank.clear();
        self.last_key = None;
        self.active = 0;
        self.prepare(&Demand::new(0, 0, 0));
    }

    /// Row index of `mask` in `mask_bits`, building the subset bitset on
    /// first sight. Soundness of the subset test: the bridge appends one
    /// `other.HasPkgN == true` atom per set mask bit, and machine ads
    /// advertise `HasPkgN = true` exactly for set capacity bits, so every
    /// atom is exactly `true` iff `mask & !pkgs == 0` (an absent flag
    /// reads `undefined`, which `== true` leaves non-`true`). The
    /// `matchmaker_equiv` oracle pins this against the generated ads.
    fn mask_row(&mut self, mask: u32) -> usize {
        if let Some(i) = self.mask_keys.iter().position(|&m| m == mask) {
            return i;
        }
        let base = self.mask_bits.len();
        self.mask_bits.resize(base + self.words, 0);
        for (p, pool) in self.pools.iter().enumerate() {
            if mask & !pool.capacity.packages == 0 {
                self.mask_bits[base + (p >> 6)] |= 1 << (p & 63);
            }
        }
        self.mask_keys.push(mask);
        self.mask_keys.len() - 1
    }

    /// Intern a new demand: build its eligibility row from the index, then
    /// apply any job-reading constraint and rank against the demand's job
    /// ad, returning the new signature index.
    fn build_sig(&mut self, demand: &Demand) -> usize {
        let base = self.sig_elig.len();
        let idx = base / self.words;
        let mask = self.mask_row(demand.packages);
        let mrow = self
            .mem_rungs
            .partition_point(|&r| r < clamp(demand.mem_kb));
        let drow = self
            .disk_rungs
            .partition_point(|&r| r < clamp(demand.disk_kb));
        let w = self.words;
        for i in 0..w {
            self.sig_elig.push(
                self.mem_suffix[mrow * w + i]
                    & self.disk_suffix[drow * w + i]
                    & self.mask_bits[mask * w + i]
                    & self.static_bits[i],
            );
        }
        if self.class_indexed() {
            return idx;
        }
        let job = bridge::job_ad(demand);
        let npools = self.pools.len();
        let rank_base = self.sig_rank.len();
        if let Some(Rank::PerSignature(_)) = self.rank {
            self.sig_rank.resize(rank_base + npools, 0.0);
        }
        for (p, machine) in self.machine_ads.iter().enumerate() {
            let word = base + (p >> 6);
            let bit = 1u64 << (p & 63);
            if self.sig_elig[word] & bit == 0 {
                continue;
            }
            let holds = |c: &Expr| eval_pair(c, &job, machine).is_true();
            if !self.job_constraints.iter().all(holds) {
                self.sig_elig[word] &= !bit;
                continue;
            }
            if let Some(Rank::PerSignature(r)) = &self.rank {
                self.sig_rank[rank_base + p] = eval_pair(r, &job, machine).as_rank();
            }
        }
        idx
    }
}

/// Build the suffix bitset table for sorted distinct `rungs` over pool
/// column `vals`: row `i` holds the pools with `vals[p] >= rungs[i]`, and
/// one extra empty row serves demands above every rung. A demand `d`
/// resolves to row `partition_point(rungs, r < d)` — the first rung ≥ `d`
/// — which is exactly `{p : vals[p] >= d}` because every pool value *is* a
/// rung.
fn suffix_table(rungs: &[i64], vals: &[i64], words: usize) -> Vec<u64> {
    let mut table = vec![0u64; (rungs.len() + 1) * words];
    for (p, &v) in vals.iter().enumerate() {
        let rows = rungs.partition_point(|&r| r <= v);
        for row in 0..rows {
            table[row * words + (p >> 6)] |= 1 << (p & 63);
        }
    }
    table
}

impl PoolMatcher for Matchmaker {
    fn prepare(&mut self, demand: &Demand) {
        let key = (demand.mem_kb, demand.disk_kb, demand.packages);
        if self.last_key == Some(key) {
            return;
        }
        self.last_key = Some(key);
        // Indexed path: every verdict input is a pure function of (mem
        // row, disk row, package mask), so demands collapse into verdict
        // classes and the memo probe is a vector read. The `i64::MAX`
        // guard keeps clamping lossless — above it, distinct demands
        // could clamp into one class while a pool's raw capacity still
        // separated them under `Capacity::satisfies`.
        if self.class_indexed()
            && i64::try_from(demand.mem_kb).is_ok()
            && i64::try_from(demand.disk_kb).is_ok()
        {
            let mrow = self
                .mem_rungs
                .partition_point(|&r| r < demand.mem_kb as i64);
            let drow = self
                .disk_rungs
                .partition_point(|&r| r < demand.disk_kb as i64);
            let mask = self.mask_row(demand.packages);
            let ck = mask * self.class_stride + mrow * (self.disk_rungs.len() + 1) + drow;
            if self.class_map.len() <= ck {
                self.class_map.resize(ck + 1, u32::MAX);
            }
            let cached = self.class_map[ck];
            if cached != u32::MAX {
                self.active = cached as usize;
                return;
            }
            let i = self.build_sig(demand);
            self.class_map[ck] = i as u32;
            self.active = i;
            return;
        }
        if let Some(&i) = self.sig_lookup.get(&key) {
            self.active = i as usize;
            return;
        }
        let i = self.build_sig(demand);
        self.sig_lookup.insert(key, i as u32);
        self.active = i;
    }

    fn matches(&mut self, pool: usize, _capacity: &Capacity) -> bool {
        self.sig_elig[self.active * self.words + (pool >> 6)] >> (pool & 63) & 1 != 0
    }

    fn rank(&mut self, pool: usize, _capacity: &Capacity) -> f64 {
        match &self.rank {
            Some(Rank::Static(r)) => r[pool],
            Some(Rank::PerSignature(_)) => self.sig_rank[self.active * self.pools.len() + pool],
            None => 0.0,
        }
    }

    fn is_ranked(&self) -> bool {
        self.rank.is_some()
    }

    fn demand_signature(&self) -> Option<u64> {
        // Sound on both interning paths: raw interning gives one
        // signature per demand; class interning only collapses demands
        // with identical per-pool verdicts and (static) ranks.
        Some(self.active as u64)
    }

    fn eligible_pools(&self) -> Option<&[u64]> {
        let base = self.active * self.words;
        Some(&self.sig_elig[base..base + self.words])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_cluster::{ClusterBuilder, MatchPolicy};

    const MB: u64 = 1024;

    fn pools() -> Vec<PoolAd> {
        vec![
            PoolAd::new(Capacity::new(32 * MB, 1000, 0b01)).with_arch("x86"),
            PoolAd::new(Capacity::new(24 * MB, 200, 0b11)).with_arch("sparc"),
        ]
    }

    fn demands() -> Vec<Demand> {
        vec![
            Demand::memory(16 * MB),
            Demand::memory(28 * MB),
            Demand::new(8 * MB, 500, 0),
            Demand::new(8 * MB, 100, 0b10),
            Demand::new(8 * MB, 0, 0b100),
            Demand::new(0, 0, 0),
            Demand::new(u64::MAX, u64::MAX, u32::MAX),
        ]
    }

    #[test]
    fn capacity_dimensions_match_like_native_satisfies() {
        let mut mm = Matchmaker::new(&pools());
        for demand in demands() {
            mm.prepare(&demand);
            for (i, pool) in pools().iter().enumerate() {
                assert_eq!(
                    mm.matches(i, &pool.capacity),
                    pool.capacity.satisfies(&demand),
                    "pool {i}, demand {demand:?}"
                );
            }
        }
    }

    #[test]
    fn package_masks_are_lowered_once_each() {
        let mut mm = Matchmaker::new(&pools());
        assert_eq!(mm.mask_keys.len(), 1); // mask 0, from the warm signature
        for mask in [0, 0b01, 0b01, 0b11, 0] {
            mm.prepare(&Demand::new(MB, 0, mask));
        }
        assert_eq!(mm.mask_keys, [0, 0b01, 0b11]);
        // Only an installed expression builds machine ads.
        assert!(mm.machine_ads.is_empty());
    }

    #[test]
    fn reads_job_is_sound_under_tree_walk_scoping() {
        let reads = |text: &str| reads_job(&parse(text).unwrap());
        assert!(!reads("other.Memory > 100"));
        assert!(!reads("other.Arch == \"x86\" && !other.HasPkg3"));
        assert!(reads("other.Memory >= my.RequestedMemory"));
        // Unqualified names resolve in the job ad first, even ones the
        // job ad lacks today.
        assert!(reads("RequestedMemory"));
        assert!(reads("Nope + 1"));
        // A machine's `Requirements` reads `other`, the job.
        assert!(reads("other.Requirements"));
        assert!(reads("0 - (other.Memory + other.Requirements)"));
    }

    #[test]
    fn long_machine_only_conjunction_folds_exactly() {
        // 70 conjuncts nest 71 levels deep; an evaluator capped below
        // that would error on every pool and so refuse them all.
        let text = vec!["other.Memory > 0"; 70].join(" && ");
        let ads = [
            PoolAd::new(Capacity::memory(0)),
            PoolAd::new(Capacity::memory(32 * MB)),
        ];
        let mut mm = Matchmaker::new(&ads).with_constraint(&text).unwrap();
        mm.prepare(&Demand::new(0, 0, 0));
        assert!(!mm.matches(0, &ads[0].capacity));
        assert!(mm.matches(1, &ads[1].capacity));
    }

    #[test]
    fn constraint_conjoins_into_the_job_side() {
        let mut mm = Matchmaker::new(&pools())
            .with_constraint("other.Arch == \"sparc\"")
            .unwrap();
        mm.prepare(&Demand::memory(MB));
        assert!(!mm.matches(0, &pools()[0].capacity));
        assert!(mm.matches(1, &pools()[1].capacity));
        // Probing an attribute an untagged pool lacks yields undefined,
        // which rejects rather than matching vacuously.
        let untagged = [PoolAd::new(Capacity::memory(32 * MB))];
        let mut mm = Matchmaker::new(&untagged)
            .with_constraint("other.Arch == \"x86\"")
            .unwrap();
        mm.prepare(&Demand::memory(MB));
        assert!(!mm.matches(0, &untagged[0].capacity));
    }

    #[test]
    fn job_reading_constraint_is_folded_per_signature() {
        // Reads the job ad, so it cannot fold into the static bits —
        // each demand signature re-evaluates it.
        let mut mm = Matchmaker::new(&pools())
            .with_constraint("my.RequestedMemory * 2 <= other.Memory")
            .unwrap();
        let tight = Demand::memory(14 * MB); // 2x fits only the 32 MB pool
        mm.prepare(&tight);
        assert!(mm.matches(0, &pools()[0].capacity));
        assert!(!mm.matches(1, &pools()[1].capacity));
        let loose = Demand::memory(8 * MB);
        mm.prepare(&loose);
        assert!(mm.matches(0, &pools()[0].capacity));
        assert!(mm.matches(1, &pools()[1].capacity));
        // Revisiting a signature serves the memo, same verdicts.
        mm.prepare(&tight);
        assert!(!mm.matches(1, &pools()[1].capacity));
        // A second job-reading constraint conjoins with the first: for
        // `tight` each alone admits one pool, both together neither.
        let mut mm = mm
            .with_constraint("my.RequestedMemory * 2 >= other.Memory")
            .unwrap();
        mm.prepare(&tight);
        assert!(!mm.matches(0, &pools()[0].capacity));
        assert!(!mm.matches(1, &pools()[1].capacity));
    }

    #[test]
    fn constraint_after_warm_signature_still_applies() {
        // `new` warms the zero-demand signature; installing a constraint
        // must invalidate it, not serve the unconstrained memo.
        let mut mm = Matchmaker::new(&pools())
            .with_constraint("other.Arch == \"sparc\"")
            .unwrap();
        mm.prepare(&Demand::new(0, 0, 0));
        assert!(!mm.matches(0, &pools()[0].capacity));
        assert!(mm.matches(1, &pools()[1].capacity));
    }

    #[test]
    fn bad_expressions_surface_parse_errors() {
        assert!(Matchmaker::new(&pools()).with_constraint("1 +").is_err());
        assert!(Matchmaker::new(&pools()).with_rank("(Memory").is_err());
    }

    #[test]
    fn rank_expression_reorders_allocation() {
        let mut cluster = ClusterBuilder::new()
            .pool(4, 32 * MB)
            .pool(4, 24 * MB)
            .build();
        // FirstFit would draw from the 32 MB pool; ranking by smallest
        // sufficient memory sends the job to the 24 MB nodes instead.
        let mut mm = Matchmaker::from_cluster(&cluster)
            .with_rank("0 - other.Memory")
            .unwrap();
        let demand = Demand::memory(8 * MB);
        mm.prepare(&demand);
        let a = cluster
            .try_allocate_matched(2, &demand, MatchPolicy::FirstFit, 1, &mut mm)
            .unwrap();
        assert_eq!(a.per_pool(), &[(1, 2)]);
        cluster.release(a);
    }

    #[test]
    fn job_reading_rank_is_memoized_per_signature() {
        let mut mm = Matchmaker::new(&pools())
            .with_rank("other.Memory - my.RequestedMemory")
            .unwrap();
        assert!(mm.is_ranked());
        for demand in [Demand::memory(8 * MB), Demand::memory(20 * MB)] {
            mm.prepare(&demand);
            for (i, pool) in pools().iter().enumerate() {
                if !mm.matches(i, &pool.capacity) {
                    continue;
                }
                let want = (clamp(pool.capacity.mem_kb) - clamp(demand.mem_kb)) as f64;
                assert_eq!(mm.rank(i, &pool.capacity), want, "pool {i}");
            }
        }
    }

    #[test]
    fn eligible_pools_bits_agree_with_matches() {
        let mut mm = Matchmaker::new(&pools())
            .with_constraint("other.Arch == \"x86\"")
            .unwrap();
        for demand in demands() {
            mm.prepare(&demand);
            let bits = mm.eligible_pools().expect("matchmaker always indexes");
            assert_eq!(bits.len(), 1);
            let words = bits.to_vec();
            for (i, pool) in pools().iter().enumerate() {
                assert_eq!(
                    words[i >> 6] >> (i & 63) & 1 != 0,
                    mm.matches(i, &pool.capacity),
                    "pool {i}, demand {demand:?}"
                );
            }
        }
    }

    #[test]
    fn empty_pool_set_refuses_every_demand() {
        let mut mm = Matchmaker::new(&[]);
        for demand in demands() {
            mm.prepare(&demand);
            let bits = mm.eligible_pools().expect("matchmaker always indexes");
            assert!(bits.iter().all(|&w| w == 0), "{demand:?}: {bits:?}");
        }
    }

    #[test]
    fn demand_signature_is_stable_and_collapses_only_equal_verdicts() {
        let mut mm = Matchmaker::new(&pools());
        let mut seen = std::collections::BTreeMap::new();
        let mut verdicts = std::collections::BTreeMap::new();
        for _round in 0..2 {
            for demand in demands() {
                mm.prepare(&demand);
                let sig = mm.demand_signature().expect("matchmaker always vouches");
                // Stability: re-preparing a demand re-yields its signature.
                let key = (demand.mem_kb, demand.disk_kb, demand.packages);
                assert_eq!(*seen.entry(key).or_insert(sig), sig, "{demand:?}");
                // Soundness of collapse: one signature, one verdict set.
                let row: Vec<bool> = pools()
                    .iter()
                    .enumerate()
                    .map(|(i, p)| mm.matches(i, &p.capacity))
                    .collect();
                assert_eq!(*verdicts.entry(sig).or_insert_with(|| row.clone()), row);
            }
        }
        // The class memo actually collapses: both demands sit below every
        // pool's rungs, so they share a verdict class and a signature.
        mm.prepare(&Demand::memory(16 * MB));
        let a = mm.demand_signature();
        mm.prepare(&Demand::new(0, 0, 0));
        assert_eq!(a, mm.demand_signature());
        // And distinct verdict classes keep distinct signatures.
        mm.prepare(&Demand::memory(28 * MB));
        assert_ne!(a, mm.demand_signature());
    }

    #[test]
    fn from_cluster_mirrors_pool_order_and_agrees_with_bridge() {
        use crate::ad::matches as ad_matches;
        let cluster = ClusterBuilder::new()
            .pool_with(2, Capacity::new(32 * MB, 500, 0b10))
            .pool_with(2, Capacity::new(24 * MB, 100, 0b01))
            .build();
        let mut mm = Matchmaker::from_cluster(&cluster);
        for demand in [
            Demand::memory(28 * MB),
            Demand::new(8 * MB, 300, 0),
            Demand::new(8 * MB, 50, 0b01),
        ] {
            mm.prepare(&demand);
            for i in 0..cluster.num_pools() {
                let capacity = cluster.pool_capacity(i);
                let walked =
                    ad_matches(&bridge::job_ad(&demand), &bridge::machine_ad(&capacity)).unwrap();
                assert_eq!(
                    mm.matches(i, &capacity),
                    walked,
                    "pool {i}, demand {demand:?}"
                );
            }
        }
    }
}
