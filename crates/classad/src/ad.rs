//! The `ClassAd` itself plus the two-ad matchmaker.

use std::collections::BTreeMap;

use crate::eval::{eval, Context, EvalError};
use crate::parser::{parse, Expr, ParseError};
use crate::value::Value;

/// An attribute advertisement: a named set of expressions. Attribute names
/// are case-insensitive (stored lowered), matching Condor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassAd {
    attrs: BTreeMap<String, Expr>,
}

impl ClassAd {
    /// An empty ad.
    pub fn new() -> Self {
        ClassAd::default()
    }

    /// Insert an integer attribute.
    pub fn insert_int(&mut self, name: &str, value: i64) -> &mut Self {
        self.attrs
            .insert(name.to_ascii_lowercase(), Expr::Int(value));
        self
    }

    /// Insert a float attribute.
    pub fn insert_float(&mut self, name: &str, value: f64) -> &mut Self {
        self.attrs
            .insert(name.to_ascii_lowercase(), Expr::Float(value));
        self
    }

    /// Insert a boolean attribute.
    pub fn insert_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.attrs
            .insert(name.to_ascii_lowercase(), Expr::Bool(value));
        self
    }

    /// Insert a string attribute.
    pub fn insert_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.attrs
            .insert(name.to_ascii_lowercase(), Expr::Str(value.to_string()));
        self
    }

    /// Insert an attribute from expression text (parsed now, evaluated
    /// lazily at match time).
    ///
    /// # Errors
    /// Returns the parse failure for invalid expression text.
    pub fn insert_expr(&mut self, name: &str, text: &str) -> Result<&mut Self, ParseError> {
        let expr = parse(text)?;
        self.attrs.insert(name.to_ascii_lowercase(), expr);
        Ok(self)
    }

    /// Raw expression for an attribute.
    pub fn expr(&self, name: &str) -> Option<&Expr> {
        self.attrs.get(&name.to_ascii_lowercase())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the ad has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Evaluate one of this ad's attributes against a candidate `other`.
    ///
    /// # Errors
    /// [`EvalError`] when attribute references chain past the evaluator's
    /// depth limit (a reference cycle).
    pub fn evaluate(&self, name: &str, other: Option<&ClassAd>) -> Result<Value, EvalError> {
        match self.expr(name) {
            None => Ok(Value::Undefined),
            Some(e) => eval(e, &Context { my: self, other }),
        }
    }
}

/// Condor's symmetric match: both ads' `Requirements` must evaluate to
/// exactly `true` against each other. A missing `Requirements` attribute
/// counts as unconstrained (true), but an `undefined`/`error` result does
/// not match.
///
/// # Errors
/// [`EvalError`] when either `Requirements` fails to evaluate.
pub fn matches(a: &ClassAd, b: &ClassAd) -> Result<bool, EvalError> {
    let a_req = match a.expr("requirements") {
        None => true,
        Some(_) => a.evaluate("requirements", Some(b))?.is_true(),
    };
    if !a_req {
        return Ok(false);
    }
    let b_req = match b.expr("requirements") {
        None => true,
        Some(_) => b.evaluate("requirements", Some(a))?.is_true(),
    };
    Ok(b_req)
}

/// Evaluate `a`'s `Rank` against `b`: higher is more preferred; missing or
/// non-numeric ranks count as 0 (Condor's convention).
///
/// # Errors
/// [`EvalError`] when `a`'s `Rank` fails to evaluate.
pub fn rank(a: &ClassAd, b: &ClassAd) -> Result<f64, EvalError> {
    Ok(a.evaluate("rank", Some(b))?.as_rank())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(mem: i64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.insert_int("Memory", mem)
            .insert_str("Arch", "sparc")
            .insert_expr("Requirements", "other.RequestedMemory <= my.Memory")
            .unwrap();
        ad
    }

    fn job(req_mem: i64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.insert_int("RequestedMemory", req_mem)
            .insert_expr(
                "Requirements",
                "other.Memory >= my.RequestedMemory && other.Arch == \"sparc\"",
            )
            .unwrap();
        ad
    }

    #[test]
    fn symmetric_matching() {
        assert!(matches(&job(16), &machine(32)).unwrap());
        assert!(!matches(&job(64), &machine(32)).unwrap());
        // Symmetry: either side's requirements can veto.
        let mut picky_machine = machine(128);
        picky_machine
            .insert_expr("Requirements", "other.User == \"alice\"")
            .unwrap();
        assert!(!matches(&job(16), &picky_machine).unwrap());
    }

    #[test]
    fn missing_requirements_is_unconstrained() {
        let free = ClassAd::new();
        assert!(matches(&free, &free).unwrap());
        // One-sided requirements still checked.
        assert!(!matches(&job(64), &{
            let mut m = ClassAd::new();
            m.insert_int("Memory", 32);
            m
        })
        .unwrap());
    }

    #[test]
    fn undefined_requirements_do_not_match() {
        let mut j = ClassAd::new();
        j.insert_expr("Requirements", "other.NoSuchAttr >= 1")
            .unwrap();
        let m = ClassAd::new();
        assert!(!matches(&j, &m).unwrap());
    }

    #[test]
    fn rank_orders_candidates() {
        let mut j = ClassAd::new();
        j.insert_int("RequestedMemory", 8)
            .insert_expr("Rank", "other.Memory")
            .unwrap();
        let small = machine(16);
        let big = machine(64);
        assert!(rank(&j, &big).unwrap() > rank(&j, &small).unwrap());
        // Missing rank defaults to zero.
        let norank = ClassAd::new();
        assert_eq!(rank(&norank, &small).unwrap(), 0.0);
    }

    #[test]
    fn attribute_names_case_insensitive() {
        let mut ad = ClassAd::new();
        ad.insert_int("MeMoRy", 5);
        assert_eq!(ad.evaluate("memory", None).unwrap(), Value::Int(5));
        assert_eq!(ad.evaluate("MEMORY", None).unwrap(), Value::Int(5));
        assert_eq!(ad.len(), 1);
    }

    #[test]
    fn builder_style() {
        let mut ad = ClassAd::new();
        ad.insert_int("a", 1)
            .insert_float("b", 2.5)
            .insert_bool("c", true)
            .insert_str("d", "x");
        assert_eq!(ad.len(), 4);
        assert!(!ad.is_empty());
    }
}
