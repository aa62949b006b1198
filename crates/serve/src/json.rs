//! A minimal JSON value model with a deterministic writer and a
//! one-pass parser. The workspace builds fully offline and carries no
//! serde; the cache entry format and the daemon wire protocol both build
//! on this.
//!
//! The parser reads each byte of its (already valid UTF-8) input a
//! constant number of times and recurses at most [`MAX_DEPTH`] deep, so a
//! frame costs time and stack in proportion to its bytes whatever is in
//! it. It is stricter than RFC 8259 in nothing and laxer in three things:
//! raw control characters inside strings are accepted, numbers are
//! whatever `f64::from_str` takes over `[0-9.eE+-]` (so `01` and `1.`
//! parse), and duplicate object keys are kept. A `\u` escape is exactly
//! four hex digits; a high surrogate must be followed by an escaped low
//! one, and a lone low surrogate is an error.
//!
//! Determinism matters: cache entry checksums are computed over the
//! serialized payload, so serialization must be a pure function of the
//! value. Objects preserve insertion order and numbers use Rust's
//! shortest round-trip `f64` formatting (bit-exact through a
//! write→parse cycle, which is what lets cached Table II timings stay
//! byte-identical to a fresh compile).

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, and a frame of `[[[[…` must not decide
/// how much stack a connection thread needs; nothing the protocol, a
/// cache entry or a stats report builds nests a tenth of this.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (stored as `f64`; integers round-trip exactly up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value of a key out of an object, leaving `null` there.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key),
            _ => None,
        }
        .map(|(_, v)| std::mem::replace(v, Json::Null))
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object's pair list, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`Json::as_str`], with a descriptive
    /// error.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    }

    /// Convenience: `get(key)` then [`Json::as_f64`], with a descriptive
    /// error.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
    }

    /// Serializes the value to compact JSON text (deterministic: object
    /// order is preserved, numbers use shortest round-trip formatting).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends what [`Json::render`] returns to `out`.
    pub(crate) fn render_into(&self, out: &mut String) {
        self.write(out, None);
    }

    /// Serializes the value as indented (2-space) JSON text with a
    /// trailing newline, for human-facing files like `BENCH_table2.json`.
    /// Same determinism guarantees as [`Json::render`].
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The one writer. `indent` is `None` for compact text, else the
    /// depth this value sits at: a non-empty container then puts each
    /// member on its own line, one level deeper.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, len) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(true) => return out.push_str("true"),
            Json::Bool(false) => return out.push_str("false"),
            Json::Num(n) => return write_num(*n, out),
            Json::Str(s) => return write_str(s, out),
            Json::Arr(items) => ('[', ']', items.len()),
            Json::Obj(pairs) => ('{', '}', pairs.len()),
        };
        let inner = indent.filter(|_| len > 0).map(|depth| depth + 1);
        let line = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        };
        out.push(open);
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(depth) = inner {
                line(out, depth);
            }
            match self {
                Json::Arr(items) => items[i].write(out, inner),
                Json::Obj(pairs) => {
                    write_str(&pairs[i].0, out);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    pairs[i].1.write(out, inner);
                }
                _ => unreachable!("scalars returned above"),
            }
        }
        if let Some(depth) = inner {
            line(out, depth - 1);
        }
        out.push(close);
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error
    /// (including trailing garbage after the top-level value, and
    /// containers nested deeper than [`MAX_DEPTH`]).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(MAX_DEPTH)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 && !(n == 0.0 && n.is_sign_negative()) {
        // Integral values print as integers — except -0.0, whose sign
        // bit `as i64` would drop (bit-exactness matters for checksums).
        write!(out, "{}", n as i64).expect("write");
    } else {
        // Rust's shortest round-trip formatting; parses back bit-exact.
        write!(out, "{n:?}").expect("write");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Everything that needs escaping is ASCII, so the runs between two
    // such bytes are whole characters and are copied in one piece.
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect("write"),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A cursor over the document being parsed. Every byte is looked at a
/// constant number of times: nothing rescans what `pos` has passed.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    /// Parses one value whose containers may nest `room` levels further.
    fn value(&mut self, room: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                let Some(room) = room.checked_sub(1) else {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                };
                self.pos += 1;
                if open == b'[' {
                    let mut items = Vec::new();
                    self.members(b']', |p| {
                        items.push(p.value(room)?);
                        Ok(())
                    })?;
                    Ok(Json::Arr(items))
                } else {
                    let mut pairs = Vec::new();
                    self.members(b'}', |p| {
                        p.skip_ws();
                        let key = p.string()?;
                        p.skip_ws();
                        p.expect(b':')?;
                        pairs.push((key, p.value(room)?));
                        Ok(())
                    })?;
                    Ok(Json::Obj(pairs))
                }
            }
            Some(_) => self.number(),
        }
    }

    /// The comma-separated members of a container whose opening bracket
    /// is consumed, through its `close`; `member` parses one.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
        }
    }

    fn lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {s:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Both delimiters are ASCII, so the run up to the next one is
            // whole characters of an already valid `&str`: copy it as is.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
            });
        }
    }

    /// The scalar of a `\uXXXX` escape whose `\u` is consumed: one code
    /// unit, or a high surrogate and the `\uXXXX` low one that must follow.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            let low = match self.text.as_bytes().get(self.pos..self.pos + 2) {
                Some(b"\\u") => {
                    self.pos += 2;
                    self.hex4()?
                }
                _ => 0,
            };
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(format!("unpaired surrogate in escape at byte {at}"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| format!("invalid escape at byte {at}"))
    }

    /// Exactly four hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
        let digits = digits.ok_or("truncated \\u escape")?;
        let code = digits.iter().try_fold(0, |acc, &d| {
            let digit = (d as char).to_digit(16).ok_or("invalid \\u escape")?;
            Ok::<u32, String>(acc * 16 + digit)
        })?;
        self.pos += 4;
        Ok(code)
    }
}
