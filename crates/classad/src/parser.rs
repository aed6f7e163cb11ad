//! Precedence-climbing parser producing the expression AST.
//!
//! Grammar (usual precedence, loosest first):
//!
//! ```text
//! or     := and ( '||' and )*
//! and    := cmp ( '&&' cmp )*
//! cmp    := sum ( ('<'|'<='|'>'|'>='|'=='|'!=') sum )?
//! sum    := term ( ('+'|'-') term )*
//! term   := unary ( ('*'|'/') unary )*
//! unary  := ('!'|'-') unary | '(' or ')' | atom
//! atom   := literal | ref
//! ref    := [ ('my'|'other') '.' ] ident
//! ```

use std::fmt;

use crate::lexer::{lex, LexError, Token};

/// Attribute reference scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Unqualified: resolve in `my`, then `other` (`ClassAd` convention).
    Either,
    /// `my.attr`.
    My,
    /// `other.attr`.
    Other,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// The `undefined` literal.
    Undefined,
    /// The `error` literal.
    Error,
    /// Attribute reference (names are case-insensitive, stored lowered).
    Attr {
        /// Resolution scope.
        scope: Scope,
        /// Lower-cased attribute name.
        name: String,
    },
    /// Unary negation / logical not.
    Unary {
        /// True for `!`, false for `-`.
        logical: bool,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Deepest expression [`parse`] accepts, in levels: each binary operator
/// (a chain such as `a && b && c` nests left-deep, one level per
/// operator), unary operator and parenthesised group counts one, and so
/// does the leaf. The parser, the evaluator and `Drop` each recurse once
/// per level, so the bound keeps all three well inside a thread's stack.
pub const MAX_DEPTH: u32 = 256;

/// A parsed subtree and its depth in [`MAX_DEPTH`]'s levels.
type Node = (Expr, u32);

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Unary operators and parenthesised groups open around the current
    /// position; checked on the way down, before the recursion they cost.
    open: u32,
}

/// The depth one level above a subtree `depth` deep, within
/// [`MAX_DEPTH`].
fn above(depth: u32) -> Result<u32, ParseError> {
    if depth < MAX_DEPTH {
        Ok(depth + 1)
    } else {
        Err(ParseError {
            message: format!("expression nests deeper than {MAX_DEPTH} levels"),
        })
    }
}

fn join(op: BinOp, (lhs, l): Node, (rhs, r): Node) -> Result<Node, ParseError> {
    let expr = Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    };
    Ok((expr, above(l.max(r))?))
}

/// Precedence of the comparison operators, the one level that does not
/// chain.
const CMP: u8 = 2;

/// The binary operator `t` spells, with its precedence (loosest 0).
fn binop(t: &Token) -> Option<(BinOp, u8)> {
    Some(match t {
        Token::OrOr => (BinOp::Or, 0),
        Token::AndAnd => (BinOp::And, 1),
        Token::Lt => (BinOp::Lt, CMP),
        Token::Le => (BinOp::Le, CMP),
        Token::Gt => (BinOp::Gt, CMP),
        Token::Ge => (BinOp::Ge, CMP),
        Token::EqEq => (BinOp::Eq, CMP),
        Token::Ne => (BinOp::Ne, CMP),
        Token::Plus => (BinOp::Add, 3),
        Token::Minus => (BinOp::Sub, 3),
        Token::Star => (BinOp::Mul, 4),
        Token::Slash => (BinOp::Div, 4),
        _ => return None,
    })
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Token) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The grammar's binary levels from precedence `min` up, by
    /// precedence climbing: each level is a left-associative loop whose
    /// right operands climb one level, except that a comparison takes a
    /// `sum` on each side and never another comparison.
    fn binary(&mut self, min: u8) -> Result<Node, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.peek().and_then(binop) {
            if prec < min {
                break;
            }
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            lhs = join(op, lhs, rhs)?;
            if prec == CMP && self.peek().and_then(binop).is_some_and(|(_, p)| p == CMP) {
                return Err(ParseError {
                    message: "comparisons do not chain".into(),
                });
            }
        }
        Ok(lhs)
    }

    /// One level of nesting (a unary operand or a parenthesised group)
    /// parsed by `inner`.
    fn nested(
        &mut self,
        inner: fn(&mut Parser) -> Result<Node, ParseError>,
    ) -> Result<Node, ParseError> {
        self.open = above(self.open)?;
        let (expr, depth) = inner(self)?;
        self.open -= 1;
        Ok((expr, above(depth)?))
    }

    fn unary(&mut self) -> Result<Node, ParseError> {
        let logical = match self.peek() {
            Some(Token::Bang) => true,
            Some(Token::Minus) => false,
            Some(Token::LParen) => {
                self.pos += 1;
                let node = self.nested(|p| p.binary(0))?;
                if !self.eat(&Token::RParen) {
                    return Err(ParseError {
                        message: "expected ')'".into(),
                    });
                }
                return Ok(node);
            }
            _ => return self.atom(),
        };
        self.pos += 1;
        let (expr, depth) = self.nested(Parser::unary)?;
        let expr = Expr::Unary {
            logical,
            expr: Box::new(expr),
        };
        Ok((expr, depth))
    }

    fn atom(&mut self) -> Result<Node, ParseError> {
        let leaf = match self.next() {
            Some(Token::Int(i)) => Expr::Int(i),
            Some(Token::Float(x)) => Expr::Float(x),
            Some(Token::Str(s)) => Expr::Str(s),
            Some(Token::Ident(name)) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => Expr::Bool(true),
                    "false" => Expr::Bool(false),
                    "undefined" => Expr::Undefined,
                    "error" => Expr::Error,
                    "my" | "other" if self.eat(&Token::Dot) => {
                        let attr = match self.next() {
                            Some(Token::Ident(a)) => a.to_ascii_lowercase(),
                            other => {
                                return Err(ParseError {
                                    message: format!("expected attribute after '.', got {other:?}"),
                                })
                            }
                        };
                        let scope = if lower == "my" {
                            Scope::My
                        } else {
                            Scope::Other
                        };
                        Expr::Attr { scope, name: attr }
                    }
                    _ => Expr::Attr {
                        scope: Scope::Either,
                        name: lower,
                    },
                }
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected token {other:?}"),
                })
            }
        };
        Ok((leaf, 1))
    }
}

/// Parse an expression string.
///
/// # Errors
/// [`ParseError`] for a lexing failure, empty input, tokens that do not
/// form one expression, or a tree deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Err(ParseError {
            message: "empty expression".into(),
        });
    }
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
    };
    let (expr, _) = p.binary(0)?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            message: format!("trailing tokens starting at {:?}", p.tokens[p.pos]),
        });
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(scope: Scope, name: &str) -> Expr {
        Expr::Attr {
            scope,
            name: name.into(),
        }
    }

    #[test]
    fn precedence_mul_over_add_over_cmp_over_and_over_or() {
        // a || b && c < 1 + 2 * 3  parses as  a || (b && (c < (1 + (2*3))))
        let e = parse("a || b && c < 1 + 2 * 3").unwrap();
        let Expr::Binary {
            op: BinOp::Or, rhs, ..
        } = e
        else {
            panic!("top must be ||");
        };
        let Expr::Binary {
            op: BinOp::And,
            rhs,
            ..
        } = *rhs
        else {
            panic!("next must be &&");
        };
        let Expr::Binary {
            op: BinOp::Lt, rhs, ..
        } = *rhs
        else {
            panic!("next must be <");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = *rhs
        else {
            panic!("next must be +");
        };
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn scoped_and_unscoped_attrs() {
        assert_eq!(parse("Memory").unwrap(), attr(Scope::Either, "memory"));
        assert_eq!(parse("my.Memory").unwrap(), attr(Scope::My, "memory"));
        assert_eq!(
            parse("OTHER.RequestedMemory").unwrap(),
            attr(Scope::Other, "requestedmemory")
        );
    }

    #[test]
    fn keywords_are_literals() {
        assert_eq!(parse("TRUE").unwrap(), Expr::Bool(true));
        assert_eq!(parse("false").unwrap(), Expr::Bool(false));
        assert_eq!(parse("undefined").unwrap(), Expr::Undefined);
        assert_eq!(parse("error").unwrap(), Expr::Error);
    }

    #[test]
    fn unary_chains() {
        let e = parse("!!a").unwrap();
        assert!(matches!(e, Expr::Unary { logical: true, .. }));
        let e = parse("--3").unwrap();
        assert!(matches!(e, Expr::Unary { logical: false, .. }));
    }

    #[test]
    fn parens_override() {
        let e = parse("(1 + 2) * 3").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("(1").is_err());
        assert!(parse("1 2").unwrap_err().message.contains("trailing"));
        assert!(parse("my.").is_err());
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        for text in [
            format!("{}true{}", "(".repeat(200_000), ")".repeat(200_000)),
            format!("{}true", "!".repeat(200_000)),
            vec!["1"; 1_000_000].join("&&"),
        ] {
            let err = parse(&text).unwrap_err();
            assert!(err.message.contains("deeper than 256"), "{}", err.message);
        }
    }

    #[test]
    fn the_depth_bound_counts_chains_unary_operators_and_parentheses() {
        // The leaf is one level, so 255 wrappers reach the bound exactly.
        let n = MAX_DEPTH as usize - 1;
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        let bangs = |n: usize| format!("{}a", "!".repeat(n));
        let chain = |n: usize| vec!["a"; n + 1].join(" && ");
        for build in [parens, bangs, chain] {
            assert!(parse(&build(n)).is_ok(), "{n} levels");
            assert!(parse(&build(n + 1)).is_err(), "{} levels", n + 1);
        }
        // Levels add up across kinds: a 200-term chain inside 57
        // parentheses is one level too deep.
        let mixed = |groups: usize| parens(groups).replace('a', &chain(199));
        assert!(parse(&mixed(56)).is_ok());
        assert!(parse(&mixed(57)).is_err());
    }

    #[test]
    fn comparison_is_non_associative() {
        // a < b < c is a parse-then-trailing error in this grammar.
        assert!(parse("a < b < c").is_err());
    }
}
