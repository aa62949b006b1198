//! The canonical `.pj` bytes every cache key hashes, pinned.
//!
//! `polyject_front::canonical_pj` is the content-hash basis of the
//! serving cache: a change to its output re-keys every stored schedule.
//! This test holds it still across any rewrite of the lexer, parser or
//! emitter:
//!
//! * the FNV-1a 64 of the concatenated canonical forms of every distinct
//!   Table II source and every `.pj` under `examples/` equals a recorded
//!   literal;
//! * each canonical form is a fixed point (`canonical_pj(c) == c`);
//! * malformed sources fail with exact messages at exact line:col
//!   positions, columns counted in chars.

use polyject::arith::fnv1a64;
use polyject::workloads::all_networks;
use polyject_front::canonical_pj;
use std::collections::BTreeSet;

/// The FNV-1a 64 of every canonical form below, concatenated in order.
const CANONICAL_DIGEST: u64 = 2_184_621_646_002_434_142;

/// Every distinct Table II source, then every example `.pj` by file name.
fn sources() -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for item in polyject_bench::table2_batch_items(&all_networks()) {
        if seen.insert(item.src.clone()) {
            out.push(item.src);
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pj"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no example .pj found");
    out.extend(files.iter().map(|p| std::fs::read_to_string(p).unwrap()));
    out
}

#[test]
fn canonical_bytes_of_every_source_are_pinned_and_fixed_points() {
    let sources = sources();
    assert_eq!(sources.len(), 115, "114 Table II sources and one example");
    let mut all = String::new();
    for src in &sources {
        let canonical = canonical_pj(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_eq!(canonical_pj(&canonical).unwrap(), canonical);
        all.push_str(&canonical);
    }
    assert_eq!(
        fnv1a64(all.as_bytes()),
        CANONICAL_DIGEST,
        "canonical .pj bytes changed ({} bytes over {} sources)",
        all.len(),
        sources.len()
    );
}

#[test]
fn malformed_sources_fail_with_exact_messages_and_positions() {
    let head = "kernel k\nparam N = 8\ntensor A[N]: f32\ntensor B[N][N]: f32\n";
    let stmt = |body: &str| format!("{head}stmt S for (i in 0..N) {body}\n");
    let sum = |terms: usize| vec!["A[i]"; terms].join(" + ");
    let cases = [
        // Columns count chars, not bytes, past a multi-byte comment: an
        // unexpected character on the next line, end of input on its own.
        (
            "kernel k # ∑é comment\n  é".to_string(),
            "2:3: unexpected character `é`",
        ),
        (
            "kernel k # é∑".to_string(),
            "1:14: kernel k has no statements",
        ),
        ("kernel k\nparam N = .".to_string(), "2:11: expected `..`"),
        // An i64 overflow quotes the literal without its underscores.
        (
            "kernel k\nparam N = 9_223_372_036_854_775_808".to_string(),
            "2:11: malformed integer `9223372036854775808`",
        ),
        // Every digits-dot-digits literal parses as an f32, so a malformed
        // float is a second `.` the lexer cannot pair.
        (stmt("A[i] = 1.2.3"), "5:34: expected `..`"),
        (stmt("A[i] = 2.5 * $"), "5:37: unexpected character `$`"),
        (stmt("Z[i] = 1.0"), "5:25: unknown tensor `Z`"),
        (
            stmt("B[i] = 1.0"),
            "5:29: tensor `B` has rank 2, got 1 indices",
        ),
        (stmt("A[j] = 1.0"), "5:26: unknown iterator `j` in index"),
        (
            format!("{head}stmt S for (i in 0..N, i in 0..N) A[i] = 1.0\n"),
            "5:33: duplicate iterator `i`",
        ),
        // The depth cap, by a flat sum and by parentheses.
        (
            stmt(&format!("A[i] = {}", sum(257))),
            "6:1: expression nests deeper than 256 levels",
        ),
        (
            stmt(&format!("A[i] = {}A[i]", "(".repeat(600))),
            "5:543: expression nests deeper than 256 levels",
        ),
        (
            "kernel k\ntensor A[4]: f64".to_string(),
            "2:17: unknown element type `f64`",
        ),
        (
            stmt("A[i] = max(A[i] 1.0)"),
            "5:40: expected `,`, found float 1",
        ),
    ];
    for (src, want) in &cases {
        let got = canonical_pj(src).unwrap_err();
        assert_eq!(&got, want, "{src}");
    }
}
