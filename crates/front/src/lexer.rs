//! Tokenizer for the `.pj` kernel language.
//!
//! Tokens borrow from the source: an identifier is a `&'src str` slice
//! of it, and a number is parsed straight from its slice (only a literal
//! written with `_` separators is copied, to drop them), so lexing
//! allocates the token vector and nothing per token. The scan walks
//! bytes: every token, space and line break of the language is ASCII,
//! and a multi-byte UTF-8 character is either inside a comment or the
//! error that ends the scan. Columns stay 1-based *char* columns,
//! advanced as the scan goes: by a token's length, and by the number of
//! characters (non-continuation bytes) a comment spans.

use std::borrow::Cow;
use std::fmt;

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token<'src> {
    /// The token kind/payload.
    pub kind: TokenKind<'src>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column, in chars.
    pub col: usize,
}

/// Token kinds of the kernel language.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TokenKind<'src> {
    /// Identifier or keyword, borrowed from the source.
    Ident(&'src str),
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

impl fmt::Display for TokenKind<'_> {
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
    /// 1-based column, in chars.
    pub col: usize,
}

/// Tokenizes a source string. `#` starts a comment to end of line.
///
/// # Errors
///
/// Returns the first lexical error (unknown character, malformed number).
pub(crate) fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    // Table II sources average a token per 2.6 bytes; the cap keeps a
    // long comment from reserving more than it will hold.
    let mut out = Vec::with_capacity((src.len() / 2 + 1).min(1 << 16));
    let (mut i, mut line, mut col) = (0, 1, 1);
    while let Some(&b) = bytes.get(i) {
        let err = |message: String| LexError { message, line, col };
        let (kind, end) = match b {
            b'\n' => {
                (i, line, col) = (i + 1, line + 1, 1);
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                (i, col) = (i + 1, col + 1);
                continue;
            }
            b'#' => {
                let end = scan(bytes, i, |b| b != b'\n');
                col += bytes[i..end].iter().filter(|&&b| b & 0xC0 != 0x80).count();
                i = end;
                continue;
            }
            b'.' if bytes.get(i + 1) == Some(&b'.') => (TokenKind::DotDot, i + 2),
            b'.' => return Err(err("expected `..`".into())),
            b'0'..=b'9' => number(src, i).map_err(err)?,
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let end = scan(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'_');
                (TokenKind::Ident(&src[i..end]), end)
            }
            b => match punctuation(b) {
                Some(kind) => (kind, i + 1),
                None => {
                    let other = src[i..].chars().next().expect("a char starts here");
                    return Err(err(format!("unexpected character `{other}`")));
                }
            },
        };
        out.push(Token { kind, line, col });
        // Every token is ASCII: its bytes are its chars.
        (i, col) = (end, col + end - i);
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(out)
}

/// The end of the run of bytes from `from` on that satisfy `keep`.
fn scan(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    from + bytes[from..].iter().take_while(|&&b| keep(b)).count()
}

/// The number literal starting at `start` (a digit), and where it ends.
fn number(src: &str, start: usize) -> Result<(TokenKind<'_>, usize), String> {
    let bytes = src.as_bytes();
    let mut end = scan(bytes, start, |b| b.is_ascii_digit() || b == b'_');
    // A `.` only starts a fraction if NOT followed by another `.` (range
    // operator).
    let is_float = bytes.get(end) == Some(&b'.') && bytes.get(end + 1) != Some(&b'.');
    if is_float {
        end = scan(bytes, end + 1, |b| b.is_ascii_digit());
    }
    let text = match &src[start..end] {
        t if t.contains('_') => Cow::Owned(t.replace('_', "")),
        t => Cow::Borrowed(t),
    };
    let kind = if is_float {
        let v: f32 = text
            .parse()
            .map_err(|_| format!("malformed float `{text}`"))?;
        // Above `f32::MAX` the parse yields `inf`, which no literal spells.
        if !v.is_finite() {
            return Err(format!("float `{text}` is out of range for f32"));
        }
        TokenKind::Float(v)
    } else {
        let v = text
            .parse()
            .map_err(|_| format!("malformed integer `{text}`"))?;
        TokenKind::Int(v)
    };
    Ok((kind, end))
}

/// The one-byte token `b` spells, if any.
fn punctuation(b: u8) -> Option<TokenKind<'static>> {
    Some(match b {
        b'[' => TokenKind::LBracket,
        b']' => TokenKind::RBracket,
        b'(' => TokenKind::LParen,
        b')' => TokenKind::RParen,
        b'=' => TokenKind::Eq,
        b'+' => TokenKind::Plus,
        b'-' => TokenKind::Minus,
        b'*' => TokenKind::Star,
        b'/' => TokenKind::Slash,
        b',' => TokenKind::Comma,
        b':' => TokenKind::Colon,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("a[0] = 2.5 * b"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::LBracket,
                TokenKind::Int(0),
                TokenKind::RBracket,
                TokenKind::Eq,
                TokenKind::Float(2.5),
                TokenKind::Star,
                TokenKind::Ident("b"),
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
                TokenKind::Ident("N"),
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("0.5"), vec![TokenKind::Float(0.5), TokenKind::Eof]);
    }

    #[test]
    fn comments_and_positions() {
        let toks = lex("# a comment\nx").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x"));
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
    fn a_float_literal_above_f32_max_is_an_error_at_its_position() {
        let e = lex(&format!("x = 1{}.0", "0".repeat(39))).unwrap_err();
        assert_eq!((e.line, e.col), (1, 5));
        assert!(e.message.contains("out of range for f32"), "{}", e.message);
        let max = format!("{}.0", f32::MAX);
        assert_eq!(
            kinds(&max),
            vec![TokenKind::Float(f32::MAX), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_error_position() {
        let e = lex("abc $").unwrap_err();
        assert_eq!(e.col, 5);
        assert!(e.message.contains('$'));
    }
}
