//! Tokenizer for the `.pj` kernel language.

use std::fmt;

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

/// Token kinds of the kernel language.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f32),
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `..`
    DotDot,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Float(v) => write!(f, "float {v}"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::DotDot => write!(f, "`..`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexical error with position.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LexError {
    /// Description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Tokenizes a source string. `#` starts a comment to end of line.
///
/// # Errors
///
/// Returns the first lexical error (unknown character, malformed number).
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = src.chars().peekable();
    macro_rules! push {
        ($kind:expr, $c:expr) => {
            out.push(Token {
                kind: $kind,
                line,
                col: $c,
            })
        };
    }
    while let Some(&c) = chars.peek() {
        let start_col = col;
        match c {
            '\n' => {
                chars.next();
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                chars.next();
                col += 1;
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                    col += 1;
                }
            }
            '[' | ']' | '(' | ')' | '=' | '+' | '-' | '*' | '/' | ',' | ':' => {
                chars.next();
                col += 1;
                let kind = match c {
                    '[' => TokenKind::LBracket,
                    ']' => TokenKind::RBracket,
                    '(' => TokenKind::LParen,
                    ')' => TokenKind::RParen,
                    '=' => TokenKind::Eq,
                    '+' => TokenKind::Plus,
                    '-' => TokenKind::Minus,
                    '*' => TokenKind::Star,
                    '/' => TokenKind::Slash,
                    ',' => TokenKind::Comma,
                    _ => TokenKind::Colon,
                };
                push!(kind, start_col);
            }
            '.' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'.') {
                    chars.next();
                    col += 1;
                    push!(TokenKind::DotDot, start_col);
                } else {
                    return Err(LexError {
                        message: "expected `..`".into(),
                        line,
                        col: start_col,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '_' {
                        text.push(d);
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                // A `.` only starts a fraction if NOT followed by another
                // `.` (range operator).
                let mut is_float = false;
                if chars.peek() == Some(&'.') {
                    let mut look = chars.clone();
                    look.next();
                    if look.peek() != Some(&'.') {
                        is_float = true;
                        text.push('.');
                        chars.next();
                        col += 1;
                        while let Some(&d) = chars.peek() {
                            if d.is_ascii_digit() {
                                text.push(d);
                                chars.next();
                                col += 1;
                            } else {
                                break;
                            }
                        }
                    }
                }
                let text = text.replace('_', "");
                if is_float {
                    let v = text.parse::<f32>().map_err(|_| LexError {
                        message: format!("malformed float `{text}`"),
                        line,
                        col: start_col,
                    })?;
                    push!(TokenKind::Float(v), start_col);
                } else {
                    let v = text.parse::<i64>().map_err(|_| LexError {
                        message: format!("malformed integer `{text}`"),
                        line,
                        col: start_col,
                    })?;
                    push!(TokenKind::Int(v), start_col);
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        text.push(d);
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                push!(TokenKind::Ident(text), start_col);
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    line,
                    col: start_col,
                });
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("a[0] = 2.5 * b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::LBracket,
                TokenKind::Int(0),
                TokenKind::RBracket,
                TokenKind::Eq,
                TokenKind::Float(2.5),
                TokenKind::Star,
                TokenKind::Ident("b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn range_vs_float() {
        assert_eq!(
            kinds("0..N"),
            vec![
                TokenKind::Int(0),
                TokenKind::DotDot,
                TokenKind::Ident("N".into()),
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("0.5"), vec![TokenKind::Float(0.5), TokenKind::Eof]);
    }

    #[test]
    fn comments_and_positions() {
        let toks = lex("# a comment\nx").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x".into()));
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[0].col, 1);
        // param, N, =, 8, EOF: a trailing comment yields no token.
        assert_eq!(lex("param N = 8 # hi").unwrap().len(), 5);
    }

    #[test]
    fn underscored_integers() {
        assert_eq!(kinds("1_024"), vec![TokenKind::Int(1024), TokenKind::Eof]);
    }

    #[test]
    fn lex_error_position() {
        let e = lex("abc $").unwrap_err();
        assert_eq!(e.col, 5);
        assert!(e.message.contains('$'));
    }
}
