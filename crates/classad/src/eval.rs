//! Expression evaluation against a pair of ads.

use std::cmp::Ordering;

use crate::ad::ClassAd;
use crate::parser::{BinOp, Expr, Scope};
use crate::value::Value;

/// Evaluation failure (currently only depth exhaustion, see `MAX_DEPTH`;
/// type errors surface as [`Value::Error`] per `ClassAd` semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EvalError {}

/// Cap on evaluation depth, in levels: each operator and each attribute
/// dereference costs one, so a reference cycle (`a = b; b = a`) ends in
/// an error rather than recursing forever. It sits 64 levels above
/// [`crate::parser::MAX_DEPTH`], so every expression the parser accepts
/// also evaluates against the bridge's ads: their deepest dereference, a
/// job's `Requirements` with all 34 conjuncts, adds 36 levels.
const MAX_DEPTH: u32 = crate::parser::MAX_DEPTH + 64;

/// Evaluation context: the ad being evaluated (`my`) and the candidate
/// (`other`).
pub struct Context<'a> {
    /// The ad whose expression is being evaluated.
    pub my: &'a ClassAd,
    /// The ad on the other side of the match.
    pub other: Option<&'a ClassAd>,
}

/// Evaluate `expr` in `ctx`.
///
/// # Errors
/// [`EvalError`] when operators and attribute dereferences nest past the
/// depth limit (in practice, a reference cycle).
pub fn eval(expr: &Expr, ctx: &Context<'_>) -> Result<Value, EvalError> {
    eval_depth(expr, ctx, 0)
}

fn lookup(ctx: &Context<'_>, scope: Scope, name: &str, depth: u32) -> Result<Value, EvalError> {
    // Scoped lookups flip `my`/`other` for the referenced ad's own
    // sub-expressions.
    let resolve =
        |ad: &ClassAd, flip: bool, ctx: &Context<'_>| -> Result<Option<Value>, EvalError> {
            match ad.expr(name) {
                None => Ok(None),
                Some(e) => {
                    let sub = if flip {
                        Context {
                            my: ad,
                            other: Some(ctx.my),
                        }
                    } else {
                        Context {
                            my: ad,
                            other: ctx.other,
                        }
                    };
                    eval_depth(e, &sub, depth + 1).map(Some)
                }
            }
        };
    match scope {
        Scope::My => Ok(resolve(ctx.my, false, ctx)?.unwrap_or(Value::Undefined)),
        Scope::Other => match ctx.other {
            None => Ok(Value::Undefined),
            Some(other) => Ok(resolve(other, true, ctx)?.unwrap_or(Value::Undefined)),
        },
        Scope::Either => {
            if let Some(v) = resolve(ctx.my, false, ctx)? {
                return Ok(v);
            }
            match ctx.other {
                Some(other) => Ok(resolve(other, true, ctx)?.unwrap_or(Value::Undefined)),
                None => Ok(Value::Undefined),
            }
        }
    }
}

fn eval_depth(expr: &Expr, ctx: &Context<'_>, depth: u32) -> Result<Value, EvalError> {
    if depth > MAX_DEPTH {
        return Err(EvalError {
            message: format!(
                "evaluation nests deeper than {MAX_DEPTH} levels (an attribute reference cycle?)"
            ),
        });
    }
    Ok(match expr {
        Expr::Int(i) => Value::Int(*i),
        Expr::Float(x) => Value::Float(*x),
        Expr::Bool(b) => Value::Bool(*b),
        Expr::Str(s) => Value::Str(s.clone()),
        Expr::Undefined => Value::Undefined,
        Expr::Error => Value::Error,
        Expr::Attr { scope, name } => lookup(ctx, *scope, name, depth)?,
        Expr::Unary { logical, expr } => {
            let v = eval_depth(expr, ctx, depth + 1)?;
            if *logical {
                v.not()
            } else {
                v.neg()
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_depth(lhs, ctx, depth + 1)?;
            // Short-circuit for the logical operators: absorption can decide
            // without the right side, and evaluation of the right side could
            // be expensive or cyclic.
            match op {
                BinOp::And if a == Value::Bool(false) => return Ok(Value::Bool(false)),
                BinOp::Or if a == Value::Bool(true) => return Ok(Value::Bool(true)),
                _ => {}
            }
            let b = eval_depth(rhs, ctx, depth + 1)?;
            match op {
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
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::ClassAd;
    use crate::parser::parse;

    fn ad(pairs: &[(&str, &str)]) -> ClassAd {
        let mut ad = ClassAd::new();
        for (k, v) in pairs {
            ad.insert_expr(k, v).unwrap();
        }
        ad
    }

    fn eval_str(expr: &str, my: &ClassAd, other: Option<&ClassAd>) -> Value {
        eval(&parse(expr).unwrap(), &Context { my, other }).unwrap()
    }

    #[test]
    fn literals_and_arithmetic() {
        let empty = ClassAd::new();
        assert_eq!(eval_str("1 + 2 * 3", &empty, None), Value::Int(7));
        assert_eq!(eval_str("(1 + 2) * 3", &empty, None), Value::Int(9));
        assert_eq!(eval_str("-4 / 2", &empty, None), Value::Int(-2));
        assert_eq!(eval_str("1.5 + 1", &empty, None), Value::Float(2.5));
        assert_eq!(eval_str("!true", &empty, None), Value::Bool(false));
    }

    #[test]
    fn the_deepest_accepted_expressions_evaluate_against_bridge_ads() {
        use crate::bridge::{job_ad, machine_ad};
        use resmatch_cluster::{Capacity, Demand};
        // A job with every package bit carries the deepest bridge
        // `Requirements`; reaching it from the parser's deepest leaf is
        // the deepest evaluation any accepted expression can ask for.
        let job = job_ad(&Demand::new(1, 1, u32::MAX));
        let machine = machine_ad(&Capacity::new(2, 2, u32::MAX));
        let ctx = Context {
            my: &job,
            other: Some(&machine),
        };
        let wrappers = crate::parser::MAX_DEPTH as usize - 1;
        for (text, want) in [
            // 255 negations of `true`.
            (format!("{}Requirements", "!".repeat(wrappers)), false),
            (vec!["Requirements"; wrappers + 1].join(" && "), true),
        ] {
            let expr = parse(&text).unwrap();
            assert_eq!(eval(&expr, &ctx), Ok(Value::Bool(want)), "{}", &text[..20]);
        }
    }

    #[test]
    fn attribute_resolution_order() {
        let my = ad(&[("x", "1")]);
        let other = ad(&[("x", "2"), ("y", "3")]);
        // Unqualified: my first, then other.
        assert_eq!(eval_str("x", &my, Some(&other)), Value::Int(1));
        assert_eq!(eval_str("y", &my, Some(&other)), Value::Int(3));
        assert_eq!(eval_str("my.x", &my, Some(&other)), Value::Int(1));
        assert_eq!(eval_str("other.x", &my, Some(&other)), Value::Int(2));
        assert_eq!(eval_str("z", &my, Some(&other)), Value::Undefined);
        assert_eq!(eval_str("other.x", &my, None), Value::Undefined);
    }

    #[test]
    fn attributes_can_reference_attributes() {
        let my = ad(&[
            ("total", "per_node * nodes"),
            ("per_node", "4"),
            ("nodes", "8"),
        ]);
        assert_eq!(eval_str("total", &my, None), Value::Int(32));
    }

    #[test]
    fn cross_ad_references_flip_scope() {
        // other.threshold references *its own* base when evaluated.
        let my = ad(&[("base", "10")]);
        let other = ad(&[("threshold", "my.base + 1"), ("base", "100")]);
        // Evaluating other.threshold: inside, `my` is the other ad.
        assert_eq!(
            eval_str("other.threshold", &my, Some(&other)),
            Value::Int(101)
        );
    }

    #[test]
    fn reference_cycles_error_out() {
        let my = ad(&[("a", "b"), ("b", "a")]);
        let result = eval(
            &parse("a").unwrap(),
            &Context {
                my: &my,
                other: None,
            },
        );
        assert!(result.is_err());
    }

    #[test]
    fn short_circuit_skips_poison() {
        let my = ad(&[("boom", "1 / 0")]);
        assert_eq!(eval_str("false && boom", &my, None), Value::Bool(false));
        assert_eq!(eval_str("true || boom", &my, None), Value::Bool(true));
        // Without the short circuit the poison shows.
        assert_eq!(eval_str("true && boom", &my, None), Value::Error);
    }

    #[test]
    fn undefined_semantics_in_requirements() {
        let my = ClassAd::new();
        assert_eq!(eval_str("missing >= 4", &my, None), Value::Undefined);
        assert_eq!(
            eval_str("missing >= 4 || true", &my, None),
            Value::Bool(true)
        );
    }

    #[test]
    fn string_comparisons() {
        let my = ad(&[("os", "\"linux\"")]);
        assert_eq!(eval_str("os == \"linux\"", &my, None), Value::Bool(true));
        assert_eq!(eval_str("os == \"hpux\"", &my, None), Value::Bool(false));
    }
}
