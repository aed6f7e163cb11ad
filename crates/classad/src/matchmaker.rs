//! The allocation-path matchmaker: [`Matchmaker`] implements the
//! cluster's [`PoolMatcher`] seam on top of compiled `ClassAds`, with the
//! expression machinery hoisted entirely out of the per-attempt loop.
//!
//! Three layers keep the hot path at comparator cost (DESIGN.md §12):
//!
//! 1. **Indexed eligibility.** The pool table is fixed at construction, so
//!    it is lowered once into struct-of-arrays columns plus bitset
//!    indexes: a suffix table per sorted distinct memory/disk threshold
//!    (`row i` = pools at or above rung `i`) and a subset bitset per
//!    package mask seen. A canonical demand's eligibility set is then
//!    three table lookups AND-ed together — zero expression evaluation.
//! 2. **Program-shape specialization.** Construction parses the bridge's
//!    `Requirements` texts and runs [`crate::compile::specialize`] over
//!    them; when they lower to the canonical threshold conjunction
//!    (memory ≥ m ∧ disk ≥ d ∧ package flags) the index above answers
//!    exactly, and the per-mask `HasPkgN == true` atoms become the subset
//!    test. If the texts ever stop lowering — or for arbitrary operator
//!    `--constrain`/`--rank` expressions — a postfix-interpreter fallback
//!    (`Interp`) is built lazily and evaluated once per *signature*,
//!    never per attempt. Machine-only constraints fold into a static bit
//!    row at build time; machine-only ranks memoize per pool for the
//!    matcher's lifetime; demand-reading ranks memoize per (signature,
//!    pool), evaluated only on matched pools.
//! 3. **Demand-signature memo.** Demands are interned into signatures,
//!    each owning its eligibility bit row. On the canonical path whole
//!    *verdict classes* — every demand with the same rung rows and
//!    package mask — collapse into one signature through a flat class
//!    map, so [`PoolMatcher::prepare`] is two binary searches and a
//!    vector read; when a verdict input reads the raw job row (fallback
//!    interpretation, job-reading constraints/ranks) interning falls
//!    back to one signature per raw demand. [`PoolMatcher::matches`] is
//!    a bit test, and the allocator's counting walks read the whole row
//!    at once via [`PoolMatcher::eligible_pools`].
//!    [`PoolMatcher::demand_signature`] still publishes the interned id;
//!    the simulator keys no cache on it.
//!
//! Matching semantics are unchanged and Condor-symmetric, exactly
//! [`crate::ad::matches`]: the job program, the optional operator
//! constraint, and the machine program must each evaluate to exactly
//! `true`. Exact truth of an `&&`-conjunction is atom-wise (see
//! [`crate::compile::ReqShape`]), which is what makes the indexed answer
//! identical to interpreting the programs — a property the unit tests
//! here and the `matchmaker_equiv` proptest oracle pin against the
//! tree-walking evaluator.

use std::collections::BTreeMap;

use resmatch_cluster::{Capacity, Cluster, Demand, PoolMatcher};

use crate::bridge;
use crate::compile::{compile, specialize, AdSchema, CompiledExpr, SlotRef};
use crate::parser::{parse, ParseError};
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
}

/// The ads' integer comparison space: u64 figures clamped into i64.
fn clamp(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

fn clamped(v: u64) -> Value {
    Value::Int(clamp(v))
}

/// Slot index of `RequestedMemory` in the job schema.
const JOB_MEM: usize = 0;
/// Slot index of `RequestedDisk` in the job schema.
const JOB_DISK: usize = 1;
/// Machine-schema slots, fixed by construction order in
/// [`Matchmaker::ensure_interp`]: `Memory`, `Disk`, `Arch`, then one
/// `HasPkgN` per package bit.
const MACH_MEM: usize = 0;
const MACH_DISK: usize = 1;
const MACH_ARCH: usize = 2;
const MACH_PKG0: usize = 3;

/// `HasPkgN` attribute names, spelled out so machine-schema construction
/// never formats strings per bit.
const HAS_PKG: [&str; bridge::PACKAGE_BITS as usize] = [
    "HasPkg0", "HasPkg1", "HasPkg2", "HasPkg3", "HasPkg4", "HasPkg5", "HasPkg6", "HasPkg7",
    "HasPkg8", "HasPkg9", "HasPkg10", "HasPkg11", "HasPkg12", "HasPkg13", "HasPkg14", "HasPkg15",
    "HasPkg16", "HasPkg17", "HasPkg18", "HasPkg19", "HasPkg20", "HasPkg21", "HasPkg22", "HasPkg23",
    "HasPkg24", "HasPkg25", "HasPkg26", "HasPkg27", "HasPkg28", "HasPkg29", "HasPkg30", "HasPkg31",
];

/// Interned demand key for the raw-interning path: the *raw* request
/// figures, so key equality is exactly [`Demand`] equality and the
/// signature guarantee holds trivially (clamping could collide distinct
/// demands at the i64 boundary).
type DemandKey = (u64, u64, u32);

/// The lazily built interpreter fallback: dense ad rows plus compiled
/// programs, exactly the pre-index evaluation model. Only constructed
/// when an operator constraint/rank is installed or the bridge programs
/// stop specializing — and even then it runs once per (signature, pool),
/// never per match attempt.
#[derive(Debug)]
struct Interp {
    job_schema: AdSchema,
    machine_schema: AdSchema,
    /// One slot row per pool.
    machine_rows: Vec<Vec<Value>>,
    /// The bridge's machine-side `Requirements` (`my` = machine,
    /// `other` = job), used only on the fallback path.
    machine_req: CompiledExpr,
    /// Fallback job-side programs, one per package mask.
    job_programs: BTreeMap<u32, CompiledExpr>,
    /// The prepared demand's slot row.
    job_row: Vec<Value>,
    /// Reused evaluation stack.
    stack: Vec<Value>,
}

/// A compiled-ad matchmaker for a fixed set of pools, pluggable into
/// [`resmatch_cluster::Cluster::try_allocate_matched`] (and the simulation
/// engine's `--matchmaking` mode) via [`PoolMatcher`].
#[derive(Debug)]
pub struct Matchmaker {
    // ---- layer 1: eligibility index over the fixed pool table ----
    /// Per-pool clamped memory / disk and package bits (struct-of-arrays
    /// columns).
    pool_mem: Vec<i64>,
    pool_disk: Vec<i64>,
    pool_pkgs: Vec<u32>,
    arches: Vec<Option<String>>,
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

    // ---- layer 2: specialization outcome + interpreter fallback ----
    /// The bridge `Requirements` failed shape recognition; signatures are
    /// built by interpretation instead of the index.
    fallback: bool,
    interp: Option<Box<Interp>>,
    /// Operator constraint conjunct (`my` = job, `other` = machine).
    constraint: Option<CompiledExpr>,
    /// The constraint reads the job row, so its verdicts are folded per
    /// signature rather than into `static_bits`.
    constraint_reads_my: bool,
    /// Rank expression (`my` = job, `other` = machine).
    rank: Option<CompiledExpr>,
    /// Machine-only rank values, one per pool, memoized for the matcher's
    /// lifetime.
    rank_static: Option<Vec<f64>>,
    /// The rank reads the job row, so values are memoized per
    /// (signature, pool) in `sig_rank` instead.
    rank_reads_my: bool,

    // ---- layer 3: demand-signature memo ----
    /// Raw-demand interning, used whenever a verdict input reads the job
    /// row itself (fallback interpretation, job-reading constraints or
    /// ranks) and class collapse would be unsound.
    sig_lookup: BTreeMap<DemandKey, u32>,
    /// Verdict-class memo for the canonical indexed path, flattened as
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
    /// the cluster's pool index `i` (construction order).
    pub fn new(pools: &[PoolAd]) -> Self {
        let npools = pools.len();
        let words = npools.div_ceil(64);
        let pool_mem: Vec<i64> = pools.iter().map(|p| clamp(p.capacity.mem_kb)).collect();
        let pool_disk: Vec<i64> = pools.iter().map(|p| clamp(p.capacity.disk_kb)).collect();
        let pool_pkgs: Vec<u32> = pools.iter().map(|p| p.capacity.packages).collect();
        let arches: Vec<Option<String>> = pools.iter().map(|p| p.arch.clone()).collect();

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
            pool_mem,
            pool_disk,
            pool_pkgs,
            arches,
            words,
            mem_rungs,
            mem_suffix,
            disk_rungs,
            disk_suffix,
            mask_keys: Vec::new(),
            mask_bits: Vec::new(),
            static_bits,
            fallback: !bridge_shape_is_canonical(),
            interp: None,
            constraint: None,
            constraint_reads_my: false,
            rank: None,
            rank_static: None,
            rank_reads_my: false,
            sig_lookup: BTreeMap::new(),
            class_map: Vec::new(),
            class_stride,
            sig_elig: Vec::new(),
            sig_rank: Vec::new(),
            last_key: None,
            active: 0,
        };
        if mm.fallback {
            mm.ensure_interp();
        }
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
    /// cost nothing afterwards. Job-reading constraints are interpreted
    /// once per demand signature.
    ///
    /// # Errors
    /// Returns the parse failure for invalid expression text.
    ///
    /// # Panics
    /// Never: the expression interpreter is set up just before its use.
    pub fn with_constraint(mut self, text: &str) -> Result<Self, ParseError> {
        let expr = parse(text)?;
        self.ensure_interp();
        #[expect(clippy::expect_used, reason = "invariant: ensure_interp just ran")]
        let interp = self
            .interp
            .as_mut()
            .expect("invariant: ensure_interp just ran");
        let c = compile(&expr, &interp.job_schema, &interp.machine_schema);
        if c.reads_my() {
            self.constraint_reads_my = true;
        } else {
            for p in 0..self.pool_mem.len() {
                if !c.eval_true(&interp.job_row, &interp.machine_rows[p], &mut interp.stack) {
                    self.static_bits[p >> 6] &= !(1 << (p & 63));
                }
            }
        }
        self.constraint = Some(c);
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
    ///
    /// # Panics
    /// Never: the expression interpreter is set up just before its use.
    pub fn with_rank(mut self, text: &str) -> Result<Self, ParseError> {
        let expr = parse(text)?;
        self.ensure_interp();
        #[expect(clippy::expect_used, reason = "invariant: ensure_interp just ran")]
        let interp = self
            .interp
            .as_mut()
            .expect("invariant: ensure_interp just ran");
        let r = compile(&expr, &interp.job_schema, &interp.machine_schema);
        if r.reads_my() {
            self.rank_reads_my = true;
        } else {
            self.rank_static = Some(
                (0..self.pool_mem.len())
                    .map(|p| {
                        r.eval_rank(&interp.job_row, &interp.machine_rows[p], &mut interp.stack)
                    })
                    .collect(),
            );
        }
        self.rank = Some(r);
        self.reset_sigs();
        Ok(self)
    }

    /// Number of distinct job-side programs lowered so far (one per
    /// package mask seen) — observability for the per-mask cache the hot
    /// path relies on.
    pub fn compiled_programs(&self) -> usize {
        self.mask_keys.len()
    }

    /// Whether signatures may collapse demands per verdict class: true
    /// when no verdict input reads the raw job row (no fallback
    /// interpretation, no job-reading constraint or rank), so eligibility
    /// — and any static rank — is a pure function of the demand's rung
    /// rows and package mask.
    fn class_indexed(&self) -> bool {
        !self.fallback && !self.constraint_reads_my && !self.rank_reads_my
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
        for (p, &pkgs) in self.pool_pkgs.iter().enumerate() {
            if mask & !pkgs == 0 {
                self.mask_bits[base + (p >> 6)] |= 1 << (p & 63);
            }
        }
        self.mask_keys.push(mask);
        self.mask_keys.len() - 1
    }

    /// Intern a new demand: build its eligibility row (and rank row when
    /// ranks read the job ad), returning the new signature index.
    fn build_sig(&mut self, demand: &Demand) -> usize {
        let base = self.sig_elig.len();
        let idx = base / self.words;
        let mask = self.mask_row(demand.packages);
        self.sig_elig.resize(base + self.words, 0);
        if self.fallback {
            self.interpret_sig(demand, base);
        } else {
            let mrow = self
                .mem_rungs
                .partition_point(|&r| r < clamp(demand.mem_kb));
            let drow = self
                .disk_rungs
                .partition_point(|&r| r < clamp(demand.disk_kb));
            let w = self.words;
            for i in 0..w {
                self.sig_elig[base + i] = self.mem_suffix[mrow * w + i]
                    & self.disk_suffix[drow * w + i]
                    & self.mask_bits[mask * w + i]
                    & self.static_bits[i];
            }
            if self.constraint_reads_my {
                self.constrain_sig(demand, base);
            }
        }
        if self.rank_reads_my {
            self.rank_sig(demand, base);
        }
        idx
    }

    /// Fold a job-reading constraint into a freshly indexed eligibility
    /// row: interpret it once per surviving pool (exactly the pools the
    /// old `&&` short-circuit would have evaluated it on).
    fn constrain_sig(&mut self, demand: &Demand, base: usize) {
        #[expect(
            clippy::expect_used,
            reason = "invariant: job-reading constraint implies interp"
        )]
        let interp = self
            .interp
            .as_mut()
            .expect("invariant: job-reading constraint implies interp");
        interp.job_row[JOB_MEM] = clamped(demand.mem_kb);
        interp.job_row[JOB_DISK] = clamped(demand.disk_kb);
        #[expect(
            clippy::expect_used,
            reason = "invariant: constraint_reads_my implies constraint"
        )]
        let c = self
            .constraint
            .as_ref()
            .expect("invariant: constraint_reads_my implies constraint");
        for p in 0..self.pool_mem.len() {
            let word = base + (p >> 6);
            let bit = 1u64 << (p & 63);
            if self.sig_elig[word] & bit != 0
                && !c.eval_true(&interp.job_row, &interp.machine_rows[p], &mut interp.stack)
            {
                self.sig_elig[word] &= !bit;
            }
        }
    }

    /// Build an eligibility row by full interpretation — the fallback for
    /// bridge programs that stopped specializing. Runs the same three
    /// exactly-`true` checks the pre-index matcher ran per attempt, once
    /// per (signature, pool).
    fn interpret_sig(&mut self, demand: &Demand, base: usize) {
        #[expect(clippy::expect_used, reason = "invariant: fallback implies interp")]
        let interp = self
            .interp
            .as_mut()
            .expect("invariant: fallback implies interp");
        let Interp {
            job_schema,
            machine_schema,
            machine_rows,
            machine_req,
            job_programs,
            job_row,
            stack,
        } = &mut **interp;
        job_row[JOB_MEM] = clamped(demand.mem_kb);
        job_row[JOB_DISK] = clamped(demand.disk_kb);
        #[expect(
            clippy::expect_used,
            reason = "invariant: bridge job ads always carry Requirements"
        )]
        let prog = job_programs.entry(demand.packages).or_insert_with(|| {
            // The program shape only depends on the mask; memory and disk
            // enter as slots. Reuse the bridge's generator verbatim.
            let ad = bridge::job_ad(&Demand::new(0, 0, demand.packages));
            compile(
                ad.expr("requirements")
                    .expect("invariant: bridge job ads always carry Requirements"),
                job_schema,
                machine_schema,
            )
        });
        let constraint = self.constraint.as_ref();
        for (p, machine) in machine_rows.iter().enumerate() {
            let ok = prog.eval_true(job_row, machine, stack)
                && constraint.is_none_or(|c| c.eval_true(job_row, machine, stack))
                && machine_req.eval_true(machine, job_row, stack);
            if ok {
                self.sig_elig[base + (p >> 6)] |= 1 << (p & 63);
            }
        }
    }

    /// Memoize a job-reading rank for a freshly built signature: evaluate
    /// on matched pools only (the allocator ranks candidates, which are
    /// matched by construction).
    fn rank_sig(&mut self, demand: &Demand, elig_base: usize) {
        #[expect(
            clippy::expect_used,
            reason = "invariant: job-reading rank implies interp"
        )]
        let interp = self
            .interp
            .as_mut()
            .expect("invariant: job-reading rank implies interp");
        interp.job_row[JOB_MEM] = clamped(demand.mem_kb);
        interp.job_row[JOB_DISK] = clamped(demand.disk_kb);
        #[expect(clippy::expect_used, reason = "invariant: rank_reads_my implies rank")]
        let r = self
            .rank
            .as_ref()
            .expect("invariant: rank_reads_my implies rank");
        let npools = self.pool_mem.len();
        let base = self.sig_rank.len();
        self.sig_rank.resize(base + npools, 0.0);
        for p in 0..npools {
            if self.sig_elig[elig_base + (p >> 6)] >> (p & 63) & 1 != 0 {
                self.sig_rank[base + p] =
                    r.eval_rank(&interp.job_row, &interp.machine_rows[p], &mut interp.stack);
            }
        }
    }

    /// Build the interpreter state (schemas, machine rows, compiled
    /// machine requirement) if not already present.
    fn ensure_interp(&mut self) {
        if self.interp.is_some() {
            return;
        }
        let mut job_schema = AdSchema::new();
        assert_eq!(job_schema.add("RequestedMemory") as usize, JOB_MEM);
        assert_eq!(job_schema.add("RequestedDisk") as usize, JOB_DISK);
        let mut machine_schema = AdSchema::new();
        assert_eq!(machine_schema.add("Memory") as usize, MACH_MEM);
        assert_eq!(machine_schema.add("Disk") as usize, MACH_DISK);
        assert_eq!(machine_schema.add("Arch") as usize, MACH_ARCH);
        for (bit, name) in HAS_PKG.iter().enumerate() {
            assert_eq!(machine_schema.add(name) as usize, MACH_PKG0 + bit);
        }
        let machine_rows = (0..self.pool_mem.len())
            .map(|p| {
                let mut row = machine_schema.blank_row();
                row[MACH_MEM] = Value::Int(self.pool_mem[p]);
                row[MACH_DISK] = Value::Int(self.pool_disk[p]);
                if let Some(arch) = &self.arches[p] {
                    row[MACH_ARCH] = Value::Str(arch.clone());
                }
                for bit in 0..bridge::PACKAGE_BITS {
                    if self.pool_pkgs[p] & (1 << bit) != 0 {
                        row[MACH_PKG0 + bit as usize] = Value::Bool(true);
                    }
                }
                row
            })
            .collect();
        // Lift the machine-side Requirements off a bridge-generated ad so
        // the fallback and the tree-walking bridge stay textually
        // identical.
        let machine_ad = bridge::machine_ad(&Capacity::memory(0));
        #[expect(
            clippy::expect_used,
            reason = "invariant: bridge machine ads always carry Requirements"
        )]
        let machine_req = compile(
            machine_ad
                .expr("requirements")
                .expect("invariant: bridge machine ads always carry Requirements"),
            &machine_schema,
            &job_schema,
        );
        self.interp = Some(Box::new(Interp {
            job_row: vec![Value::Int(0); job_schema.len()],
            job_schema,
            machine_schema,
            machine_rows,
            machine_req,
            job_programs: BTreeMap::new(),
            stack: Vec::new(),
        }));
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

/// Whether the bridge's `Requirements` texts still lower to the canonical
/// threshold shape the eligibility index implements: the job side demands
/// machine memory/disk at or above the request, the machine side mirrors
/// the same two thresholds (so its verdict is subsumed and needs no
/// separate check). Per-mask package atoms are covered by
/// [`Matchmaker::mask_row`]'s subset argument.
fn bridge_shape_is_canonical() -> bool {
    let mut job = AdSchema::new();
    job.add("RequestedMemory");
    job.add("RequestedDisk");
    let mut machine = AdSchema::new();
    machine.add("Memory");
    machine.add("Disk");
    let (Ok(job_req), Ok(mach_req)) = (
        parse(bridge::JOB_REQ_BASE_TEXT),
        parse(bridge::MACHINE_REQ_TEXT),
    ) else {
        return false;
    };
    let (Some(job_shape), Some(mach_shape)) = (
        specialize(&job_req, &job, &machine),
        specialize(&mach_req, &machine, &job),
    ) else {
        return false;
    };
    let want_job = [
        (SlotRef::Other(0), SlotRef::My(0)),
        (SlotRef::Other(1), SlotRef::My(1)),
    ];
    let want_mach = [
        (SlotRef::My(0), SlotRef::Other(0)),
        (SlotRef::My(1), SlotRef::Other(1)),
    ];
    job_shape.ge == want_job
        && job_shape.must_true.is_empty()
        && job_shape.eq_str.is_empty()
        && mach_shape.ge == want_mach
        && mach_shape.must_true.is_empty()
        && mach_shape.eq_str.is_empty()
}

impl PoolMatcher for Matchmaker {
    fn prepare(&mut self, demand: &Demand) {
        let key = (demand.mem_kb, demand.disk_kb, demand.packages);
        if self.last_key == Some(key) {
            return;
        }
        self.last_key = Some(key);
        // Canonical indexed path: every verdict input is a pure function
        // of (mem row, disk row, package mask), so demands collapse into
        // verdict classes and the memo probe is a vector read. The
        // `i64::MAX` guard keeps clamping lossless — above it, distinct
        // demands could clamp into one class while a pool's raw capacity
        // still separated them under `Capacity::satisfies`.
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
        if let Some(r) = &self.rank_static {
            return r[pool];
        }
        if self.rank_reads_my {
            return self.sig_rank[self.active * self.pool_mem.len() + pool];
        }
        0.0
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
    fn job_programs_are_cached_per_package_mask() {
        let mut mm = Matchmaker::new(&pools());
        assert_eq!(mm.compiled_programs(), 1); // mask 0 precompiled
        for mask in [0, 0b01, 0b01, 0b11, 0] {
            mm.prepare(&Demand::new(MB, 0, mask));
        }
        assert_eq!(mm.compiled_programs(), 3);
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
        // Reads the job row, so it cannot fold into the static bits —
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
    fn interpreter_fallback_agrees_with_the_index() {
        // Force the fallback path (as if the bridge texts stopped
        // specializing) and check it reproduces the indexed verdicts.
        let mut indexed = Matchmaker::new(&pools());
        let mut interpreted = Matchmaker::new(&pools());
        assert!(!interpreted.fallback, "bridge shape should specialize");
        interpreted.fallback = true;
        interpreted.ensure_interp();
        interpreted.reset_sigs();
        for demand in demands() {
            indexed.prepare(&demand);
            interpreted.prepare(&demand);
            for (i, pool) in pools().iter().enumerate() {
                assert_eq!(
                    indexed.matches(i, &pool.capacity),
                    interpreted.matches(i, &pool.capacity),
                    "pool {i}, demand {demand:?}"
                );
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
