//! The JSON layer from outside: the one-pass parser and run-copying
//! writer held against the character-at-a-time scanner they replaced
//! (kept here, verbatim, as the reference), the three places they differ
//! on purpose, and the cost of a long string.

use polyject_arith::SplitMix64;
use polyject_serve::json::{Json, MAX_DEPTH};
use std::fmt::Write as _;

/// The parser and string writer as they were before they went one-pass.
/// `parse_string` re-validates the rest of the document per character,
/// so keep what it is given small.
mod reference {
    use super::Json;
    use std::fmt::Write as _;

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// The two writers as they were (numbers aside, whose writer did
    /// not change): compact, and indented by `depth`.
    pub fn render(v: &Json, pretty: Option<usize>, out: &mut String) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match (v, pretty) {
            (Json::Str(s), _) => write_str(s, out),
            (Json::Arr(items), Some(depth)) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    render(v, Some(depth + 1), out);
                }
                out.push('\n');
                pad(out, depth);
                out.push(']');
            }
            (Json::Obj(pairs), Some(depth)) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    render(v, Some(depth + 1), out);
                }
                out.push('\n');
                pad(out, depth);
                out.push('}');
            }
            (Json::Arr(items), _) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(v, None, out);
                }
                out.push(']');
            }
            (Json::Obj(pairs), _) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    render(v, None, out);
                }
                out.push('}');
            }
            (scalar, _) => out.push_str(&scalar.render()),
        }
    }

    fn write_str(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("write");
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    let v = parse_value(b, pos)?;
                    pairs.push((key, v));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {s:?} at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hi = parse_hex4(b, *pos + 1)?;
                            *pos += 4;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u')
                                {
                                    let lo = parse_hex4(b, *pos + 3)?;
                                    *pos += 6;
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| format!("invalid escape at byte {}", *pos))?);
                        }
                        _ => return Err(format!("invalid escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&b[*pos..])
                        .map_err(|_| format!("non-utf8 string at byte {}", *pos))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
        if at + 4 > b.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&b[at..at + 4]).map_err(|_| "non-utf8 escape".to_string())?;
        u32::from_str_radix(s, 16).map_err(|_| format!("invalid \\u escape {s:?}"))
    }
}

/// Appends a random string literal: ASCII runs, multi-byte characters
/// next to escapes, every escape the parser knows, valid surrogate
/// pairs, and raw control characters (accepted, as they always were).
fn gen_string(rng: &mut SplitMix64, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(8) {
        match rng.below(9) {
            0 => out.push_str("plain ascii run, with punctuation: {[1.5e3]}"),
            1 => out.push_str(["é", "雪", "😀", "\u{7f}", "ß∂"][rng.below(5)]),
            2 => out
                .push_str(["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"][rng.below(8)]),
            3 => write!(out, "\\u{:04x}", rng.below(0xD800)).unwrap(),
            4 => write!(out, "\\u{:04X}", 0xE000 + rng.below(0x2000)).unwrap(),
            5 => {
                let (hi, lo) = (0xD800 + rng.below(0x400), 0xDC00 + rng.below(0x400));
                write!(out, "\\u{hi:04x}\\u{lo:04x}").unwrap();
            }
            6 => out.push(['\u{1}', '\t', '\n', '\u{1f}'][rng.below(4)]),
            7 => out.push_str("kernel k\\nstmt S for (i in 0..N) B[i] = A[i]"),
            _ => out.push((b'a' + rng.below(26) as u8) as char),
        }
    }
    out.push('"');
}

fn gen_ws(rng: &mut SplitMix64, out: &mut String) {
    if rng.below(4) == 0 {
        out.push_str([" ", "\n", "\t ", "\r\n  "][rng.below(4)]);
    }
}

/// Appends a random document as *text*, so that whitespace, escape
/// spellings and number forms vary, not just values.
fn gen_value(rng: &mut SplitMix64, depth: usize, out: &mut String) {
    gen_ws(rng, out);
    match rng.below(if depth == 0 { 5 } else { 8 }) {
        0 => out.push_str(["null", "true", "false"][rng.below(3)]),
        1 => {
            out.push_str(["0", "-17", "3.25", "-0.0", "1e-7", "2.5E+3", "115.642465"][rng.below(7)])
        }
        2 => write!(out, "{}", rng.below(1 << 20)).unwrap(),
        3 | 4 => gen_string(rng, out),
        5 | 6 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                gen_value(rng, depth - 1, out);
            }
            gen_ws(rng, out);
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                gen_ws(rng, out);
                gen_string(rng, out);
                gen_ws(rng, out);
                out.push(':');
                gen_value(rng, depth - 1, out);
            }
            gen_ws(rng, out);
            out.push('}');
        }
    }
    gen_ws(rng, out);
}

fn documents() -> Vec<String> {
    let mut rng = SplitMix64::new(0x6a73_6f6e);
    (0..400)
        .map(|_| {
            let mut doc = String::new();
            gen_value(&mut rng, 5, &mut doc);
            doc
        })
        .collect()
}

/// Same `Ok` value, or both `Err` (the messages may differ).
fn assert_agree(text: &str) {
    match (Json::parse(text), reference::parse(text)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "{text:?}"),
        (Err(_), Err(_)) => {}
        (new, old) => panic!("{text:?}: one-pass {new:?}, reference {old:?}"),
    }
}

#[test]
fn one_pass_parser_agrees_with_the_scanner_it_replaced() {
    let docs = documents();
    assert!(docs.iter().any(|d| d.contains("\\ud")), "no surrogate pair");
    for doc in &docs {
        assert!(
            Json::parse(doc).is_ok(),
            "generated an invalid document: {doc:?}"
        );
        assert_agree(doc);
    }
    // Truncations at every byte (every character boundary: the input is
    // a `&str`) of a few of them, and a few hand-made malformations.
    for doc in docs.iter().filter(|d| d.len() > 40).take(12) {
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            assert_agree(&doc[..cut]);
        }
    }
    for bad in [
        "",
        " ",
        "{",
        "[1,]",
        "[1 2]",
        "{\"a\"}",
        "{\"a\":}",
        "{,}",
        "1 2",
        "nul",
        "tru",
        "-",
        "1e",
        "+1",
        "\"unterminated",
        "\"bad \\x escape\"",
        "\"\\",
        "\"\\u12\"",
        "\"\\u12g4\"",
        "\"\\udc00\"",
        "\"\\ud800\"",
        "\"\\ud800x\"",
        "\"\\ud800\\n\"",
        "\"\\ud800\\u12\"",
        "\"\\u-123\"",
        "\"\\u é\"",
        "[\"é\\",
        "{\"k\" 1}",
        "[]]",
        "01",
        "1.",
        "\"tab\there\"",
    ] {
        assert_agree(bad);
    }
}

#[test]
fn the_three_deliberate_differences() {
    // 1. Nesting is capped; the scanner recursed as deep as it was told.
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert_agree(&nested(MAX_DEPTH));
    let too_deep = nested(MAX_DEPTH + 1);
    assert!(reference::parse(&too_deep).is_ok());
    assert!(Json::parse(&too_deep)
        .unwrap_err()
        .contains("nesting deeper than 128"));
    let objects = format!(
        "{}1{}",
        "{\"k\":".repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    assert!(Json::parse(&objects).is_err());
    // What overflowed a connection thread's stack: an error, at once.
    assert!(Json::parse(&"[".repeat(20_000)).is_err());
    assert!(Json::parse(&"[{\"k\":".repeat(1 << 20)).is_err());

    // 2. A high surrogate wants a low one. The scanner subtracted
    // unchecked: a panic in debug builds, the wrong character in release
    // ones (so it is not run here).
    for bad in [
        "\"\\ud800\\u0041\"",
        "\"\\ud800\\ud800\"",
        "\"\\ud800\\uffff\"",
        "\"\\udbff\\ue000\"",
    ] {
        assert!(
            Json::parse(bad).unwrap_err().contains("unpaired surrogate"),
            "{bad}"
        );
    }
    assert_eq!(
        Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
        Some("😀")
    );
    assert_eq!(
        Json::parse("\"\\uDBFF\\uDFFF\"").unwrap().as_str(),
        Some("\u{10ffff}")
    );

    // 3. Four hex digits, not whatever `from_str_radix` takes.
    assert_eq!(
        reference::parse("\"\\u+12f\"").unwrap().as_str(),
        Some("\u{12f}")
    );
    assert!(Json::parse("\"\\u+12f\"").is_err());
    assert_eq!(
        Json::parse("\"\\u012f\"").unwrap().as_str(),
        Some("\u{12f}")
    );
}

#[test]
fn render_parse_render_is_a_fixed_point_and_writes_the_same_bytes() {
    for doc in documents() {
        let v = Json::parse(&doc).unwrap();
        let (compact, pretty) = (v.render(), v.render_pretty());
        assert_eq!(Json::parse(&compact).unwrap(), v, "{doc:?}");
        assert_eq!(Json::parse(&compact).unwrap().render(), compact);
        assert_eq!(Json::parse(&pretty).unwrap(), v, "{doc:?}");
        let (mut old_compact, mut old_pretty) = (String::new(), String::new());
        reference::render(&v, None, &mut old_compact);
        reference::render(&v, Some(0), &mut old_pretty);
        assert_eq!(compact, old_compact);
        assert_eq!(pretty, old_pretty + "\n");
    }
}

/// Linear time, without a stopwatch race: the scanner took 17 s for one
/// 1 MiB string and would take some 18 minutes for this one.
#[test]
fn an_eight_mebibyte_string_parses_and_renders_within_the_test_run() {
    let chunk = "0123456789 plain text, then \\\"escapes\\\" \\n and multi-byte: é雪😀 \\u00e9\\ud83d\\ude00 | ";
    let mut doc = String::with_capacity((8 << 20) + 256);
    doc.push_str("{\"src\":\"");
    while doc.len() < 8 << 20 {
        doc.push_str(chunk);
    }
    doc.push_str("\"}");
    let v = Json::parse(&doc).unwrap();
    let src = v.str_field("src").unwrap();
    let one = "0123456789 plain text, then \"escapes\" \n and multi-byte: é雪😀 é😀 | ";
    assert_eq!(src.len() % one.len(), 0);
    assert!(src.starts_with(one) && src.ends_with(one));
    assert_eq!(Json::parse(&v.render()).unwrap(), v);
}

#[test]
fn roundtrip_basic_values() {
    for text in [
        "null",
        "true",
        "false",
        "0",
        "-17",
        "3.25",
        "\"hi\"",
        "[]",
        "[1,2,3]",
        "{}",
        "{\"a\":1,\"b\":[true,null]}",
    ] {
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text, "{text}");
    }
}

#[test]
fn f64_roundtrip_is_bit_exact() {
    for x in [
        0.1,
        1.0 / 3.0,
        115.642465,
        f64::MIN_POSITIVE,
        1.7976931348623157e308,
        -0.0,
        2.5000000000000004,
    ] {
        let v = Json::Num(x).render();
        let back = Json::parse(&v).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {v}");
    }
}

#[test]
fn string_escapes_roundtrip() {
    let s = "line\nquote\"back\\slash\ttab\u{1}snow\u{2603}";
    let text = Json::Str(s.to_string()).render();
    assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
}

#[test]
fn surrogate_pair_escape() {
    let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
    assert_eq!(v.as_str().unwrap(), "😀");
}

#[test]
fn rejects_garbage() {
    assert!(Json::parse("{").is_err());
    assert!(Json::parse("[1,]").is_err());
    assert!(Json::parse("1 2").is_err());
    assert!(Json::parse("\"unterminated").is_err());
    assert!(Json::parse("nul").is_err());
}

#[test]
fn object_accessors() {
    let v = Json::parse("{\"k\":\"v\",\"n\":4,\"b\":true}").unwrap();
    assert_eq!(v.str_field("k").unwrap(), "v");
    assert_eq!(v.num_field("n").unwrap(), 4.0);
    assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
    assert_eq!(v.as_obj().unwrap().len(), 3);
    assert!(v.str_field("missing").is_err());
    assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
}

#[test]
fn pretty_rendering_reparses_identically() {
    let v = Json::parse("{\"a\":1,\"b\":[true,null,{\"c\":0.1}],\"e\":[],\"o\":{}}").unwrap();
    let pretty = v.render_pretty();
    assert!(pretty.contains("\n  \"b\": [\n"), "{pretty}");
    assert!(pretty.ends_with("}\n"));
    assert_eq!(Json::parse(&pretty).unwrap(), v);
}

#[test]
fn parses_existing_bench_schema() {
    let text = "{\n  \"bench\": \"table2\",\n  \"cores\": 1,\n  \"nets\": [ { \"name\": \"LSTM\", \"isl_ms\": 0.028640 } ]\n}\n";
    let v = Json::parse(text).unwrap();
    assert_eq!(v.str_field("bench").unwrap(), "table2");
    assert_eq!(
        v.get("nets").unwrap().as_arr().unwrap()[0]
            .num_field("isl_ms")
            .unwrap(),
        0.028640
    );
}
