//! Runtime values with `ClassAd` semantics.
//!
//! `ClassAds` are three-valued: expressions over missing attributes evaluate
//! to `Undefined` rather than failing, and `Undefined` propagates through
//! arithmetic and comparisons — but `&&`/`||` can absorb it
//! (`false && undefined = false`, `true || undefined = true`). Type
//! mismatches produce `Error`, which dominates everything.

#![allow(
    clippy::float_cmp,
    reason = "ClassAd `==`/`!=` on numbers is exact by the language's specification"
)]

use std::fmt;

/// A `ClassAd` runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Attribute missing / indeterminate.
    Undefined,
    /// Type error or division by zero.
    Error,
}

impl Value {
    /// Numeric view: ints widen to floats.
    fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// True when both operands are integers (arithmetic stays integral).
    fn both_int(&self, other: &Value) -> bool {
        matches!((self, other), (Value::Int(_), Value::Int(_)))
    }

    fn propagate(a: &Value, b: &Value) -> Option<Value> {
        if matches!(a, Value::Error) || matches!(b, Value::Error) {
            Some(Value::Error)
        } else if matches!(a, Value::Undefined) || matches!(b, Value::Undefined) {
            Some(Value::Undefined)
        } else {
            None
        }
    }

    /// Addition.
    pub fn add(&self, other: &Value) -> Value {
        self.arith(other, |a, b| a + b, i64::checked_add)
    }

    /// Subtraction.
    pub fn sub(&self, other: &Value) -> Value {
        self.arith(other, |a, b| a - b, i64::checked_sub)
    }

    /// Multiplication.
    pub fn mul(&self, other: &Value) -> Value {
        self.arith(other, |a, b| a * b, i64::checked_mul)
    }

    /// Division; integer division by zero is `Error`.
    pub fn div(&self, other: &Value) -> Value {
        if let Some(v) = Value::propagate(self, other) {
            return v;
        }
        if self.both_int(other) {
            if let (Value::Int(a), Value::Int(b)) = (self, other) {
                return if *b == 0 {
                    Value::Error
                } else {
                    Value::Int(a / b)
                };
            }
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) if b != 0.0 => Value::Float(a / b),
            _ => Value::Error,
        }
    }

    fn arith(
        &self,
        other: &Value,
        ff: impl Fn(f64, f64) -> f64,
        ii: impl Fn(i64, i64) -> Option<i64>,
    ) -> Value {
        if let Some(v) = Value::propagate(self, other) {
            return v;
        }
        if self.both_int(other) {
            if let (Value::Int(a), Value::Int(b)) = (self, other) {
                return ii(*a, *b).map_or(Value::Error, Value::Int);
            }
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => Value::Float(ff(a, b)),
            _ => Value::Error,
        }
    }

    /// Comparison under an ordering predicate; strings compare
    /// lexicographically, numbers numerically, booleans as false < true.
    pub fn compare(&self, other: &Value, pred: impl Fn(std::cmp::Ordering) -> bool) -> Value {
        use std::cmp::Ordering;
        if let Some(v) = Value::propagate(self, other) {
            return v;
        }
        let ord: Option<Ordering> = match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        };
        match ord {
            Some(o) => Value::Bool(pred(o)),
            None => Value::Error,
        }
    }

    /// `ClassAd` logical AND: `false` absorbs `Undefined`.
    pub fn and(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Error, _) | (_, Value::Error) => Value::Error,
            (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
            (Value::Undefined, _) | (_, Value::Undefined) => Value::Undefined,
            (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
            _ => Value::Error,
        }
    }

    /// `ClassAd` logical OR: `true` absorbs `Undefined`.
    pub fn or(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Error, _) | (_, Value::Error) => Value::Error,
            (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
            (Value::Undefined, _) | (_, Value::Undefined) => Value::Undefined,
            (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
            _ => Value::Error,
        }
    }

    /// Logical negation.
    pub fn not(&self) -> Value {
        match self {
            Value::Bool(b) => Value::Bool(!b),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        }
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Value {
        match self {
            Value::Int(i) => i.checked_neg().map_or(Value::Error, Value::Int),
            Value::Float(f) => Value::Float(-f),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        }
    }

    /// Is this exactly `Bool(true)`? The matchmaking criterion: undefined
    /// or error requirements do *not* match.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Undefined => write!(f, "undefined"),
            Value::Error => write!(f, "error"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_stays_integral() {
        assert_eq!(Value::Int(6).add(&Value::Int(7)), Value::Int(13));
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Value::Int(3));
        assert_eq!(Value::Int(6).mul(&Value::Int(-2)), Value::Int(-12));
    }

    #[test]
    fn mixed_arithmetic_widens() {
        assert_eq!(Value::Int(1).add(&Value::Float(0.5)), Value::Float(1.5));
        assert_eq!(Value::Float(7.0).div(&Value::Int(2)), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(Value::Int(1).div(&Value::Int(0)), Value::Error);
        assert_eq!(Value::Float(1.0).div(&Value::Float(0.0)), Value::Error);
    }

    #[test]
    fn overflow_is_error_not_panic() {
        assert_eq!(Value::Int(i64::MAX).add(&Value::Int(1)), Value::Error);
        assert_eq!(Value::Int(i64::MIN).neg(), Value::Error);
    }

    #[test]
    fn undefined_propagates_through_arithmetic_and_comparison() {
        assert_eq!(Value::Undefined.add(&Value::Int(1)), Value::Undefined);
        assert_eq!(
            Value::Int(1).compare(&Value::Undefined, |o| o.is_lt()),
            Value::Undefined
        );
    }

    #[test]
    fn error_dominates_undefined() {
        assert_eq!(Value::Error.add(&Value::Undefined), Value::Error);
        assert_eq!(Value::Undefined.and(&Value::Error), Value::Error);
    }

    #[test]
    fn three_valued_logic_absorption() {
        assert_eq!(
            Value::Bool(false).and(&Value::Undefined),
            Value::Bool(false)
        );
        assert_eq!(Value::Undefined.and(&Value::Bool(true)), Value::Undefined);
        assert_eq!(Value::Bool(true).or(&Value::Undefined), Value::Bool(true));
        assert_eq!(Value::Undefined.or(&Value::Bool(false)), Value::Undefined);
    }

    #[test]
    fn comparisons_across_types() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.5), |o| o.is_lt()),
            Value::Bool(true)
        );
        assert_eq!(
            Value::Str("abc".into()).compare(&Value::Str("abd".into()), |o| o.is_lt()),
            Value::Bool(true)
        );
        // String vs number is a type error.
        assert_eq!(
            Value::Str("1".into()).compare(&Value::Int(1), |o| o.is_eq()),
            Value::Error
        );
    }

    #[test]
    fn is_true_is_strict() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Undefined.is_true());
        assert!(!Value::Error.is_true());
        assert!(!Value::Int(1).is_true());
    }
}
