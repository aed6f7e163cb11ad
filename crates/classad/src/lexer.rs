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

/// On-demand tokenizer: each [`Lexer::next_token`] call scans one token,
/// so a parser that stops at an error never lexes the rest of its input.
#[derive(Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the first unread character.
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// The next token, or `None` at the end of the input.
    ///
    /// # Errors
    /// [`LexError`] when the next token is malformed: a lone `=`, `&` or
    /// `|`, an unterminated string, a bad number or an unexpected
    /// character. The lexer does not advance past it.
    pub fn next_token(&mut self) -> Result<Option<Token>, LexError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        self.pos = i;
        let Some(&b) = bytes.get(i) else {
            return Ok(None);
        };
        let next = bytes.get(i + 1).copied();
        let digit_follows = next.is_some_and(|n| n.is_ascii_digit());
        let fail = |offset, message| Err(LexError { offset, message });
        let (token, end) = match b as char {
            '(' => (Token::LParen, i + 1),
            ')' => (Token::RParen, i + 1),
            '.' if !digit_follows => (Token::Dot, i + 1),
            '+' => (Token::Plus, i + 1),
            '-' => (Token::Minus, i + 1),
            '*' => (Token::Star, i + 1),
            '/' => (Token::Slash, i + 1),
            '!' if next == Some(b'=') => (Token::Ne, i + 2),
            '!' => (Token::Bang, i + 1),
            '<' if next == Some(b'=') => (Token::Le, i + 2),
            '<' => (Token::Lt, i + 1),
            '>' if next == Some(b'=') => (Token::Ge, i + 2),
            '>' => (Token::Gt, i + 1),
            '=' if next == Some(b'=') => (Token::EqEq, i + 2),
            '&' if next == Some(b'&') => (Token::AndAnd, i + 2),
            '|' if next == Some(b'|') => (Token::OrOr, i + 2),
            c @ ('=' | '&' | '|') => return fail(i, format!("single '{c}' (use '{c}{c}')")),
            '"' => {
                let Some(len) = input[i + 1..].find('"') else {
                    return fail(i, "unterminated string".into());
                };
                let end = i + 1 + len;
                (Token::Str(input[i + 1..end].to_string()), end + 1)
            }
            c if c.is_ascii_digit() || (c == '.' && digit_follows) => {
                let mut end = i;
                let mut seen_dot = false;
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit() || (bytes[end] == b'.' && !seen_dot))
                {
                    seen_dot |= bytes[end] == b'.';
                    end += 1;
                }
                let text = &input[i..end];
                let token = if seen_dot {
                    match text.parse() {
                        Ok(f) => Token::Float(f),
                        Err(_) => return fail(i, format!("bad float {text:?}")),
                    }
                } else {
                    match text.parse() {
                        Ok(n) => Token::Int(n),
                        Err(_) => return fail(i, format!("integer {text:?} out of range")),
                    }
                };
                (token, end)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                (Token::Ident(input[i..end].to_string()), end)
            }
            other => return fail(i, format!("unexpected character {other:?}")),
        };
        self.pos = end;
        Ok(Some(token))
    }
}

/// Tokenize a whole expression string.
///
/// # Errors
/// [`LexError`] at the first malformed token (see [`Lexer::next_token`]).
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let mut lexer = Lexer::new(input);
    let mut tokens = Vec::new();
    while let Some(token) = lexer.next_token()? {
        tokens.push(token);
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
