//! A compiled form of `ClassAd` expressions for hot-path evaluation.
//!
//! The tree-walking evaluator in [`crate::eval`] resolves every attribute
//! reference through a `BTreeMap` lookup and recurses through boxed AST
//! nodes — fine for a match or two, unacceptable inside an allocator that
//! re-evaluates requirements on every queue-head retry. This module
//! compiles an [`Expr`] against a pair of [`AdSchema`]s into a flat
//! postfix instruction stream ([`CompiledExpr`]) evaluated iteratively
//! over dense slot arrays, with no lookups, no recursion, and no
//! allocation beyond a caller-reused value stack.
//!
//! # The slot model
//!
//! A schema fixes the set of *literal* attributes an ad may carry and
//! assigns each a dense slot index; an ad becomes a `Vec<Value>` row where
//! [`Value::Undefined`] means "absent". This is the one place compiled
//! semantics are narrower than the tree walk: compiled ads hold literal
//! values only (no expression-valued attributes to dereference, so no
//! reference cycles either), and an unqualified reference falls through
//! from `my` to `other` on an undefined slot, whereas the tree walk
//! distinguishes a stored literal `undefined` from a missing attribute.
//! Bridge-generated ads never store `undefined`, so the two evaluators
//! agree on everything the matchmaker produces — a property test below
//! pins that equivalence on random expressions and ads.
//!
//! References to attributes in neither schema compile to a constant
//! `undefined`, exactly what the tree walk yields for a missing attribute.
//!
//! Logical short-circuiting survives compilation: `&&`/`||` compile to a
//! conditional forward jump that skips the right operand when the left is
//! exactly `false`/`true`, reproducing the tree walk's asymmetric
//! semantics (`false && error` is `false`, `error && false` is what
//! [`Value::and`] says).

use std::cmp::Ordering;
use std::fmt;

use crate::parser::{BinOp, Expr, Scope};
use crate::value::Value;

/// A dense attribute layout: the set of literal attribute names one side
/// of a match may carry, each mapped to a slot index. Build one per ad
/// *shape* (all machine ads share one schema, all job ads another), then
/// represent each concrete ad as a `Vec<Value>` row from
/// [`AdSchema::blank_row`].
#[derive(Debug, Clone, Default)]
pub struct AdSchema {
    /// Lowered attribute names in slot order.
    names: Vec<String>,
}

impl AdSchema {
    /// An empty schema.
    pub fn new() -> Self {
        AdSchema::default()
    }

    /// Add an attribute (case-insensitive), returning its slot. Adding an
    /// existing name returns the existing slot.
    ///
    /// # Panics
    /// Panics past `u16::MAX` slots.
    pub fn add(&mut self, name: &str) -> u16 {
        let lower = name.to_ascii_lowercase();
        if let Some(slot) = self.slot_lowered(&lower) {
            return slot;
        }
        assert!(self.names.len() < u16::MAX as usize, "schema too large");
        self.names.push(lower);
        (self.names.len() - 1) as u16
    }

    /// Slot of an attribute (case-insensitive), if present.
    pub fn slot(&self, name: &str) -> Option<u16> {
        self.slot_lowered(&name.to_ascii_lowercase())
    }

    fn slot_lowered(&self, lower: &str) -> Option<u16> {
        self.names.iter().position(|n| n == lower).map(|i| i as u16)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no attributes have been added.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// A fresh all-absent ad row for this schema (every slot
    /// [`Value::Undefined`]).
    pub fn blank_row(&self) -> Vec<Value> {
        vec![Value::Undefined; self.names.len()]
    }
}

/// One postfix instruction. Every instruction nets exactly one value onto
/// the stack except `Bin` (pops two, pushes one) and the unary/jump forms.
#[derive(Debug, Clone)]
enum Instr {
    /// Push a literal.
    Push(Value),
    /// Push `my`'s slot value.
    LoadMy(u16),
    /// Push `other`'s slot value.
    LoadOther(u16),
    /// Push `my`'s slot value, falling through to `other`'s when absent —
    /// the unqualified-reference resolution order.
    LoadEither(u16, u16),
    /// Logical not of the top of stack.
    Not,
    /// Arithmetic negation of the top of stack.
    Neg,
    /// Apply a binary operator to the top two stack values.
    Bin(BinOp),
    /// Jump to the absolute instruction index when the top of stack is
    /// exactly `false`, leaving it in place as the result (`&&`
    /// short-circuit).
    JmpIfFalse(u32),
    /// Jump when the top of stack is exactly `true` (`||` short-circuit).
    JmpIfTrue(u32),
}

/// A compiled expression: evaluate with [`CompiledExpr::eval`] against two
/// ad rows laid out by the schemas it was compiled for.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    instrs: Vec<Instr>,
}

impl fmt::Display for CompiledExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} instrs>", self.instrs.len())
    }
}

impl CompiledExpr {
    /// Number of instructions — the unit of the hot-path cost model in
    /// DESIGN.md §12.
    pub fn ops(&self) -> usize {
        self.instrs.len()
    }

    /// Evaluate against the ad rows `my` and `other`. `stack` is caller
    /// scratch, reused across calls so steady-state evaluation allocates
    /// nothing; its contents on entry are ignored.
    ///
    /// Rows shorter than their schema are treated as all-absent past their
    /// end (slots out of range read as `undefined`).
    ///
    /// # Panics
    /// Never: [`compile`] emits stack-balanced programs, so every operator
    /// finds its operands.
    #[expect(
        clippy::expect_used,
        reason = "invariant: the compiler emits stack-balanced programs, so every operator finds its operands"
    )]
    pub fn eval(&self, my: &[Value], other: &[Value], stack: &mut Vec<Value>) -> Value {
        fn slot(row: &[Value], i: u16) -> Value {
            row.get(i as usize).cloned().unwrap_or(Value::Undefined)
        }
        stack.clear();
        let mut pc = 0usize;
        while pc < self.instrs.len() {
            match &self.instrs[pc] {
                Instr::Push(v) => stack.push(v.clone()),
                Instr::LoadMy(i) => stack.push(slot(my, *i)),
                Instr::LoadOther(i) => stack.push(slot(other, *i)),
                Instr::LoadEither(m, o) => {
                    let v = slot(my, *m);
                    stack.push(if v == Value::Undefined {
                        slot(other, *o)
                    } else {
                        v
                    });
                }
                Instr::Not => {
                    let v = stack.pop().expect("invariant: compiler balanced the stack");
                    stack.push(v.not());
                }
                Instr::Neg => {
                    let v = stack.pop().expect("invariant: compiler balanced the stack");
                    stack.push(v.neg());
                }
                Instr::Bin(op) => {
                    let b = stack.pop().expect("invariant: compiler balanced the stack");
                    let a = stack.pop().expect("invariant: compiler balanced the stack");
                    stack.push(match op {
                        BinOp::Add => a.add(&b),
                        BinOp::Sub => a.sub(&b),
                        BinOp::Mul => a.mul(&b),
                        BinOp::Div => a.div(&b),
                        BinOp::Lt => a.compare(&b, Ordering::is_lt),
                        BinOp::Le => a.compare(&b, Ordering::is_le),
                        BinOp::Gt => a.compare(&b, Ordering::is_gt),
                        BinOp::Ge => a.compare(&b, Ordering::is_ge),
                        BinOp::Eq => a.compare(&b, Ordering::is_eq),
                        BinOp::Ne => a.compare(&b, Ordering::is_ne),
                        BinOp::And => a.and(&b),
                        BinOp::Or => a.or(&b),
                    });
                }
                Instr::JmpIfFalse(target) => {
                    if stack.last() == Some(&Value::Bool(false)) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::JmpIfTrue(target) => {
                    if stack.last() == Some(&Value::Bool(true)) {
                        pc = *target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        stack.pop().unwrap_or(Value::Undefined)
    }

    /// [`CompiledExpr::eval`] coerced to a match verdict: true iff the
    /// result is exactly `true`.
    pub fn eval_true(&self, my: &[Value], other: &[Value], stack: &mut Vec<Value>) -> bool {
        self.eval(my, other, stack).is_true()
    }

    /// [`CompiledExpr::eval`] coerced to a rank: numbers as themselves,
    /// `true` as 1, everything else 0 (Condor's convention, identical to
    /// [`crate::ad::rank`]).
    pub fn eval_rank(&self, my: &[Value], other: &[Value], stack: &mut Vec<Value>) -> f64 {
        match self.eval(my, other, stack) {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
            Value::Bool(true) => 1.0,
            _ => 0.0,
        }
    }

    /// Whether evaluation can read the `my` row at all. A program that
    /// never does is a pure function of `other` — its verdict or rank per
    /// machine row can be computed once at setup and memoized for the
    /// matcher's whole lifetime (the machine table is fixed).
    pub fn reads_my(&self) -> bool {
        self.instrs
            .iter()
            .any(|i| matches!(i, Instr::LoadMy(_) | Instr::LoadEither(..)))
    }
}

/// Compile `expr` for evaluation against a `my` row laid out by
/// `my_schema` and an `other` row laid out by `other_schema`.
///
/// References to attributes absent from the relevant schema compile to
/// constant `undefined` — the same value the tree walk produces for a
/// missing attribute.
pub fn compile(expr: &Expr, my_schema: &AdSchema, other_schema: &AdSchema) -> CompiledExpr {
    let mut instrs = Vec::new();
    emit(expr, my_schema, other_schema, &mut instrs);
    CompiledExpr { instrs }
}

fn emit(expr: &Expr, my: &AdSchema, other: &AdSchema, out: &mut Vec<Instr>) {
    match expr {
        Expr::Int(i) => out.push(Instr::Push(Value::Int(*i))),
        Expr::Float(x) => out.push(Instr::Push(Value::Float(*x))),
        Expr::Bool(b) => out.push(Instr::Push(Value::Bool(*b))),
        Expr::Str(s) => out.push(Instr::Push(Value::Str(s.clone()))),
        Expr::Undefined => out.push(Instr::Push(Value::Undefined)),
        Expr::Error => out.push(Instr::Push(Value::Error)),
        Expr::Attr { scope, name } => {
            let (m, o) = (my.slot(name), other.slot(name));
            out.push(match (scope, m, o) {
                (Scope::My, Some(s), _) | (Scope::Either, Some(s), None) => Instr::LoadMy(s),
                (Scope::Other, _, Some(s)) | (Scope::Either, None, Some(s)) => Instr::LoadOther(s),
                (Scope::Either, Some(ms), Some(os)) => Instr::LoadEither(ms, os),
                _ => Instr::Push(Value::Undefined),
            });
        }
        Expr::Unary { logical, expr } => {
            emit(expr, my, other, out);
            out.push(if *logical { Instr::Not } else { Instr::Neg });
        }
        Expr::Binary { op, lhs, rhs } => {
            emit(lhs, my, other, out);
            let jump_at = match op {
                BinOp::And => {
                    out.push(Instr::JmpIfFalse(0));
                    Some(out.len() - 1)
                }
                BinOp::Or => {
                    out.push(Instr::JmpIfTrue(0));
                    Some(out.len() - 1)
                }
                _ => None,
            };
            emit(rhs, my, other, out);
            out.push(Instr::Bin(*op));
            if let Some(at) = jump_at {
                // Land just past the Bin, with the deciding operand still
                // on the stack as the result.
                let target = out.len() as u32;
                // `at` indexes the jump pushed above; nothing else can sit
                // there, so a non-jump is simply left untouched.
                if let Instr::JmpIfFalse(t) | Instr::JmpIfTrue(t) = &mut out[at] {
                    *t = target;
                }
            }
        }
    }
}

/// A slot reference inside a specialized requirement atom: which ad row
/// the operand reads, and which slot of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRef {
    /// Slot in the `my` row.
    My(u16),
    /// Slot in the `other` row.
    Other(u16),
}

/// The canonical-conjunction shape of a `Requirements` program, as
/// recognized by [`specialize`]: a bag of threshold, flag, and string-tag
/// atoms whose conjunction *is* the program.
///
/// Soundness of atom-wise evaluation: a match verdict demands the whole
/// program evaluate to exactly `true`, and by [`Value::and`]'s truth table
/// an `&&`-tree is exactly `true` iff every conjunct is exactly `true`
/// (any non-`true` operand — `false`, `undefined`, `error`, a non-bool —
/// yields a non-`true` conjunction). So checking each atom independently
/// and AND-ing the booleans reproduces `eval_true` of the full program,
/// short-circuit order and all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReqShape {
    /// Threshold atoms `hi >= lo`, from `a >= b` or `b <= a`. Exactly
    /// `true` iff both slots hold comparable values ordering that way
    /// (an absent slot is `undefined`, which never compares `true`).
    pub ge: Vec<(SlotRef, SlotRef)>,
    /// Flag atoms `attr == true`: the slot must hold exactly `Bool(true)`.
    pub must_true: Vec<SlotRef>,
    /// Tag atoms `attr == "lit"`: the slot must hold exactly that string.
    pub eq_str: Vec<(SlotRef, String)>,
}

/// Recognize `expr` as a canonical conjunction of threshold / flag /
/// string-tag atoms over explicitly scoped attributes, or `None` when any
/// part of it falls outside that shape (the caller then keeps the compiled
/// program and interprets). Unqualified (`Either`-scoped) references are
/// rejected: their fall-through resolution depends on both rows at once,
/// which the atom forms cannot express.
pub fn specialize(expr: &Expr, my: &AdSchema, other: &AdSchema) -> Option<ReqShape> {
    let mut shape = ReqShape::default();
    collect_atoms(expr, my, other, &mut shape).then_some(shape)
}

/// Resolve an explicitly scoped attribute reference to a slot.
fn atom_slot(expr: &Expr, my: &AdSchema, other: &AdSchema) -> Option<SlotRef> {
    match expr {
        Expr::Attr {
            scope: Scope::My,
            name,
        } => my.slot(name).map(SlotRef::My),
        Expr::Attr {
            scope: Scope::Other,
            name,
        } => other.slot(name).map(SlotRef::Other),
        _ => None,
    }
}

fn collect_atoms(expr: &Expr, my: &AdSchema, other: &AdSchema, out: &mut ReqShape) -> bool {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return false;
    };
    match op {
        BinOp::And => collect_atoms(lhs, my, other, out) && collect_atoms(rhs, my, other, out),
        BinOp::Ge | BinOp::Le => {
            let (hi, lo) = if *op == BinOp::Ge {
                (lhs, rhs)
            } else {
                (rhs, lhs)
            };
            match (atom_slot(hi, my, other), atom_slot(lo, my, other)) {
                (Some(hi), Some(lo)) => {
                    out.ge.push((hi, lo));
                    true
                }
                _ => false,
            }
        }
        BinOp::Eq => {
            // Literal on either side of the `==`.
            let (attr, lit) = if matches!(&**lhs, Expr::Attr { .. }) {
                (lhs, rhs)
            } else {
                (rhs, lhs)
            };
            let Some(slot) = atom_slot(attr, my, other) else {
                return false;
            };
            match &**lit {
                Expr::Bool(true) => {
                    out.must_true.push(slot);
                    true
                }
                Expr::Str(s) => {
                    out.eq_str.push((slot, s.clone()));
                    true
                }
                _ => false,
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::ClassAd;
    use crate::eval::{eval, Context};
    use crate::parser::parse;
    use proptest::prelude::*;

    /// Compile and evaluate `text` against slot rows built from
    /// `(name, value)` pairs.
    fn run(text: &str, my: &[(&str, Value)], other: &[(&str, Value)]) -> Value {
        let mut my_schema = AdSchema::new();
        let mut other_schema = AdSchema::new();
        let mut my_row = Vec::new();
        for (n, v) in my {
            my_schema.add(n);
            my_row.push(v.clone());
        }
        let mut other_row = Vec::new();
        for (n, v) in other {
            other_schema.add(n);
            other_row.push(v.clone());
        }
        let prog = compile(&parse(text).unwrap(), &my_schema, &other_schema);
        let mut stack = Vec::new();
        prog.eval(&my_row, &other_row, &mut stack)
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(run("1 + 2 * 3", &[], &[]), Value::Int(7));
        assert_eq!(run("(1 + 2) * 3", &[], &[]), Value::Int(9));
        assert_eq!(run("-4 / 2", &[], &[]), Value::Int(-2));
        assert_eq!(run("1.5 + 1", &[], &[]), Value::Float(2.5));
        assert_eq!(run("!true", &[], &[]), Value::Bool(false));
    }

    #[test]
    fn slot_resolution_order() {
        let my = [("x", Value::Int(1))];
        let other = [("x", Value::Int(2)), ("y", Value::Int(3))];
        assert_eq!(run("x", &my, &other), Value::Int(1));
        assert_eq!(run("y", &my, &other), Value::Int(3));
        assert_eq!(run("my.x", &my, &other), Value::Int(1));
        assert_eq!(run("other.x", &my, &other), Value::Int(2));
        assert_eq!(run("z", &my, &other), Value::Undefined);
        // In-schema but absent from the row: undefined, and `either`
        // falls through to the other side.
        assert_eq!(
            run("x", &[("x", Value::Undefined)], &[("x", Value::Int(9))]),
            Value::Int(9)
        );
    }

    #[test]
    fn short_circuit_skips_poison() {
        let boom = [("boom", Value::Error)];
        assert_eq!(run("false && boom", &[], &boom), Value::Bool(false));
        assert_eq!(run("true || boom", &[], &boom), Value::Bool(true));
        assert_eq!(run("true && boom", &[], &boom), Value::Error);
    }

    #[test]
    fn requirements_shape_evaluates_like_the_matchmaker_needs() {
        let job = [
            ("requestedmemory", Value::Int(16)),
            ("requesteddisk", Value::Int(0)),
        ];
        let machine = [("memory", Value::Int(24)), ("disk", Value::Int(100))];
        let text = "other.Memory >= my.RequestedMemory && other.Disk >= my.RequestedDisk";
        assert_eq!(run(text, &job, &machine), Value::Bool(true));
        let small = [("memory", Value::Int(8)), ("disk", Value::Int(100))];
        assert_eq!(run(text, &job, &small), Value::Bool(false));
        // A package probe against a machine without the attribute:
        // undefined, which is_true() treats as no-match.
        assert!(!Value::is_true(&run(
            "other.HasPkg3 == true",
            &job,
            &machine
        )));
    }

    #[test]
    fn rank_coercion_matches_condor() {
        let m = [("memory", Value::Int(24))];
        let mut stack = Vec::new();
        let mut schema = AdSchema::new();
        schema.add("memory");
        let row = vec![Value::Int(24)];
        let empty = AdSchema::new();
        let prog = compile(&parse("other.Memory").unwrap(), &empty, &schema);
        assert_eq!(prog.eval_rank(&[], &row, &mut stack), 24.0);
        let prog = compile(&parse("other.Missing").unwrap(), &empty, &schema);
        assert_eq!(prog.eval_rank(&[], &row, &mut stack), 0.0);
        let prog = compile(&parse("true").unwrap(), &empty, &schema);
        assert_eq!(prog.eval_rank(&[], &row, &mut stack), 1.0);
        let _ = m;
    }

    #[test]
    fn schema_slots_are_stable_and_case_insensitive() {
        let mut s = AdSchema::new();
        assert_eq!(s.add("Memory"), 0);
        assert_eq!(s.add("Disk"), 1);
        assert_eq!(s.add("MEMORY"), 0);
        assert_eq!(s.slot("memory"), Some(0));
        assert_eq!(s.slot("nope"), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.blank_row(), vec![Value::Undefined, Value::Undefined]);
    }

    #[test]
    fn specialize_recognizes_the_bridge_shape() {
        let mut job = AdSchema::new();
        job.add("RequestedMemory");
        job.add("RequestedDisk");
        let mut machine = AdSchema::new();
        machine.add("Memory");
        machine.add("Disk");
        machine.add("Arch");
        machine.add("HasPkg0");
        let text = "other.Memory >= my.RequestedMemory && other.Disk >= my.RequestedDisk \
                    && other.HasPkg0 == true && other.Arch == \"x86\"";
        let shape = specialize(&parse(text).unwrap(), &job, &machine).unwrap();
        assert_eq!(
            shape.ge,
            vec![
                (SlotRef::Other(0), SlotRef::My(0)),
                (SlotRef::Other(1), SlotRef::My(1)),
            ]
        );
        assert_eq!(shape.must_true, vec![SlotRef::Other(3)]);
        assert_eq!(shape.eq_str, vec![(SlotRef::Other(2), "x86".to_string())]);
        // The machine side (`my` = machine, `other` = job) lowers to the
        // mirrored thresholds.
        let text = "other.RequestedMemory <= my.Memory && other.RequestedDisk <= my.Disk";
        let shape = specialize(&parse(text).unwrap(), &machine, &job).unwrap();
        assert_eq!(
            shape.ge,
            vec![
                (SlotRef::My(0), SlotRef::Other(0)),
                (SlotRef::My(1), SlotRef::Other(1)),
            ]
        );
        // Literal order does not matter for == atoms.
        let shape = specialize(&parse("true == other.HasPkg0").unwrap(), &job, &machine).unwrap();
        assert_eq!(shape.must_true, vec![SlotRef::Other(3)]);
    }

    #[test]
    fn specialize_rejects_non_canonical_programs() {
        let mut job = AdSchema::new();
        job.add("RequestedMemory");
        let mut machine = AdSchema::new();
        machine.add("Memory");
        for text in [
            "other.Memory >= 1000",                       // literal threshold
            "Memory >= my.RequestedMemory",               // unqualified scope
            "other.Memory >= my.RequestedMemory || true", // disjunction
            "other.HasPkg0 == false",                     // flag polarity
            "other.Missing >= my.RequestedMemory",        // unresolvable slot
            "!other.Memory",
            "42",
        ] {
            assert!(
                specialize(&parse(text).unwrap(), &job, &machine).is_none(),
                "{text}"
            );
        }
    }

    #[test]
    fn reads_my_distinguishes_machine_only_programs() {
        let mut job = AdSchema::new();
        job.add("RequestedMemory");
        let mut machine = AdSchema::new();
        machine.add("Memory");
        let compiled = |text: &str| compile(&parse(text).unwrap(), &job, &machine);
        assert!(!compiled("other.Memory > 100").reads_my());
        assert!(compiled("other.Memory >= my.RequestedMemory").reads_my());
        // Unqualified references may fall through to `my`.
        assert!(compiled("RequestedMemory").reads_my());
        // Unknown names compile to constant undefined — not a `my` read.
        assert!(!compiled("Nope + 1").reads_my());
    }

    // ---- compiled == tree-walk, property-tested ------------------------

    use proptest::strategy::FnStrategy;
    use proptest::test_runner::TestRng;

    /// Attribute pool shared by expression and ad generators.
    const NAMES: [&str; 5] = ["a", "b", "c", "x", "y"];
    /// String literal pool (comparison behavior only needs a few shapes).
    const STRS: [&str; 4] = ["", "a", "ab", "xy"];

    fn gen_leaf(rng: &mut TestRng) -> Expr {
        match rng.next_u64() % 8 {
            0 => Expr::Int((rng.next_u64() % 200) as i64 - 100),
            1 => Expr::Float((rng.uniform() - 0.5) * 20.0),
            2 => Expr::Bool(rng.next_u64() & 1 == 1),
            3 => Expr::Str(STRS[(rng.next_u64() % STRS.len() as u64) as usize].to_string()),
            4 => Expr::Undefined,
            5 => Expr::Error,
            _ => Expr::Attr {
                scope: [Scope::Either, Scope::My, Scope::Other][(rng.next_u64() % 3) as usize],
                name: NAMES[(rng.next_u64() % NAMES.len() as u64) as usize].to_string(),
            },
        }
    }

    fn gen_expr(rng: &mut TestRng, depth: u32) -> Expr {
        if depth == 0 || rng.next_u64().is_multiple_of(3) {
            return gen_leaf(rng);
        }
        if rng.next_u64().is_multiple_of(4) {
            return Expr::Unary {
                logical: rng.next_u64() & 1 == 1,
                expr: Box::new(gen_expr(rng, depth - 1)),
            };
        }
        const OPS: [BinOp; 12] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
        ];
        Expr::Binary {
            op: OPS[(rng.next_u64() % OPS.len() as u64) as usize],
            lhs: Box::new(gen_expr(rng, depth - 1)),
            rhs: Box::new(gen_expr(rng, depth - 1)),
        }
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        FnStrategy::new(|rng: &mut TestRng| gen_expr(rng, 4))
    }

    /// A random ad over the shared name pool: literal, non-undefined
    /// values (the slot model represents absence as undefined, so stored
    /// literal `undefined` is the one documented divergence).
    fn arb_ad_values() -> impl Strategy<Value = Vec<Option<Value>>> {
        FnStrategy::new(|rng: &mut TestRng| {
            NAMES
                .iter()
                .map(|_| match rng.next_u64() % 5 {
                    0 => None,
                    1 => Some(Value::Int((rng.next_u64() % 200) as i64 - 100)),
                    2 => Some(Value::Float((rng.uniform() - 0.5) * 20.0)),
                    3 => Some(Value::Bool(rng.next_u64() & 1 == 1)),
                    _ => Some(Value::Str(
                        STRS[(rng.next_u64() % STRS.len() as u64) as usize].to_string(),
                    )),
                })
                .collect()
        })
    }

    fn to_ad(values: &[Option<Value>]) -> ClassAd {
        let mut ad = ClassAd::new();
        for (name, v) in NAMES.iter().zip(values) {
            match v {
                Some(Value::Int(i)) => ad.insert_int(name, *i),
                Some(Value::Float(f)) => ad.insert_float(name, *f),
                Some(Value::Bool(b)) => ad.insert_bool(name, *b),
                Some(Value::Str(s)) => ad.insert_str(name, s),
                Some(_) | None => continue,
            };
        }
        ad
    }

    fn to_row(values: &[Option<Value>], schema: &AdSchema) -> Vec<Value> {
        let mut row = schema.blank_row();
        for (name, v) in NAMES.iter().zip(values) {
            if let Some(v) = v {
                row[schema.slot(name).unwrap() as usize] = v.clone();
            }
        }
        row
    }

    proptest! {
        #[test]
        fn compiled_agrees_with_tree_walk(
            expr in arb_expr(),
            my in arb_ad_values(),
            other in arb_ad_values(),
        ) {
            let mut schema = AdSchema::new();
            for n in NAMES {
                schema.add(n);
            }
            let my_ad = to_ad(&my);
            let other_ad = to_ad(&other);
            let walked = eval(
                &expr,
                &Context { my: &my_ad, other: Some(&other_ad) },
            )
            .expect("literal ads cannot form reference cycles");
            let prog = compile(&expr, &schema, &schema);
            let mut stack = Vec::new();
            let compiled = prog.eval(
                &to_row(&my, &schema),
                &to_row(&other, &schema),
                &mut stack,
            );
            // NaN-safe structural comparison.
            let same = match (&walked, &compiled) {
                (Value::Float(a), Value::Float(b)) => {
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
                }
                (a, b) => a == b,
            };
            prop_assert!(same, "walked {walked:?} != compiled {compiled:?} for {expr:?}");
        }
    }
}
