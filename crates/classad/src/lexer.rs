//! Tokenizer for the expression language.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Quoted string literal (quotes stripped).
    Str(String),
    /// Identifier or keyword (`true`/`false`/`undefined`/`error` are
    /// resolved by the parser).
    Ident(String),
    /// `.` (scope separator).
    Dot,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `==`.
    EqEq,
    /// `!=`.
    Ne,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Bang,
}

/// A tokenization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

/// Tokenize an expression string.
///
/// # Errors
/// [`LexError`] at the first malformed token: a lone `=`, `&` or `|`, an
/// unterminated string, a bad number or an unexpected character.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '.' if !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Bang);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::EqEq);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "single '=' (use '==')".into(),
                    });
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "single '&' (use '&&')".into(),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "single '|' (use '||')".into(),
                    });
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(LexError {
                        offset: i,
                        message: "unterminated string".into(),
                    });
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit()
                || (c == '.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                let mut seen_dot = false;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit() || (bytes[i] == b'.' && !seen_dot))
                {
                    if bytes[i] == b'.' {
                        seen_dot = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                if seen_dot {
                    let f: f64 = text.parse().map_err(|_| LexError {
                        offset: start,
                        message: format!("bad float {text:?}"),
                    })?;
                    tokens.push(Token::Float(f));
                } else {
                    let n: i64 = text.parse().map_err(|_| LexError {
                        offset: start,
                        message: format!("integer {text:?} out of range"),
                    })?;
                    tokens.push(Token::Int(n));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_and_literals() {
        let toks = lex("a.b >= 32 && x != 1.5 || !(y == \"hi\")").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a".into()),
                Token::Dot,
                Token::Ident("b".into()),
                Token::Ge,
                Token::Int(32),
                Token::AndAnd,
                Token::Ident("x".into()),
                Token::Ne,
                Token::Float(1.5),
                Token::OrOr,
                Token::Bang,
                Token::LParen,
                Token::Ident("y".into()),
                Token::EqEq,
                Token::Str("hi".into()),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn leading_dot_float() {
        assert_eq!(lex(".5").unwrap(), vec![Token::Float(0.5)]);
    }

    #[test]
    fn whitespace_insensitive() {
        assert_eq!(lex("  1\t+\n2 ").unwrap(), lex("1+2").unwrap());
    }

    #[test]
    fn error_reporting() {
        assert!(lex("a = b").unwrap_err().message.contains("=="));
        assert!(lex("a & b").unwrap_err().message.contains("&&"));
        assert!(lex("\"open").unwrap_err().message.contains("unterminated"));
        assert!(lex("a # b").unwrap_err().message.contains("unexpected"));
    }

    #[test]
    fn big_integer_overflow_reported() {
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn empty_input() {
        assert!(lex("").unwrap().is_empty());
    }
}
