//! Recursive-descent parser producing the expression AST.
//!
//! Grammar (usual precedence, loosest first):
//!
//! ```text
//! or     := and ( '||' and )*
//! and    := cmp ( '&&' cmp )*
//! cmp    := sum ( ('<'|'<='|'>'|'>='|'=='|'!=') sum )?
//! sum    := term ( ('+'|'-') term )*
//! term   := unary ( ('*'|'/') unary )*
//! unary  := ('!'|'-') unary | atom
//! atom   := literal | ref | '(' or ')'
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

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
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

    fn or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and()?;
        while self.eat(&Token::OrOr) {
            let rhs = self.and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp()?;
        while self.eat(&Token::AndAnd) {
            let rhs = self.cmp()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.sum()?;
        let op = match self.peek() {
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.sum()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn sum(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.term()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Bang) {
            return Ok(Expr::Unary {
                logical: true,
                expr: Box::new(self.unary()?),
            });
        }
        if self.eat(&Token::Minus) {
            return Ok(Expr::Unary {
                logical: false,
                expr: Box::new(self.unary()?),
            });
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Int(i)),
            Some(Token::Float(x)) => Ok(Expr::Float(x)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::LParen) => {
                let e = self.or()?;
                if !self.eat(&Token::RParen) {
                    return Err(ParseError {
                        message: "expected ')'".into(),
                    });
                }
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => return Ok(Expr::Bool(true)),
                    "false" => return Ok(Expr::Bool(false)),
                    "undefined" => return Ok(Expr::Undefined),
                    "error" => return Ok(Expr::Error),
                    _ => {}
                }
                if (lower == "my" || lower == "other") && self.eat(&Token::Dot) {
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
                    return Ok(Expr::Attr { scope, name: attr });
                }
                Ok(Expr::Attr {
                    scope: Scope::Either,
                    name: lower,
                })
            }
            other => Err(ParseError {
                message: format!("unexpected token {other:?}"),
            }),
        }
    }
}

/// Parse an expression string.
///
/// # Errors
/// [`ParseError`] for a lexing failure, empty input, or tokens that do not
/// form one expression.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Err(ParseError {
            message: "empty expression".into(),
        });
    }
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.or()?;
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
    fn comparison_is_non_associative() {
        // a < b < c is a parse-then-trailing error in this grammar.
        assert!(parse("a < b < c").is_err());
    }
}
