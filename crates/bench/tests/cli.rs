//! Black-box tests of the `table2` binary: argument validation and the
//! `--bench` record merging into whatever the JSON report already holds.

use polyject_serve::Json;
use std::path::PathBuf;
use std::process::Command;

fn scratch_json(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("pj-table2-cli-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs `table2 --fast --json <fresh path> <args>` and asserts a usage
/// error saying `expect`, with nothing measured, printed or recorded.
fn assert_rejected(tag: &str, expect: &str, args: &[&str]) {
    let json = scratch_json(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--fast", "--json", json.to_str().unwrap()])
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must fail: {stderr}");
    assert!(out.stdout.is_empty(), "no table on a usage error");
    assert!(stderr.contains(expect), "{stderr}");
    assert!(stderr.contains("usage: table2"), "{stderr}");
    assert!(!stderr.contains("measuring"), "{args:?} started a run");
    assert!(!json.exists(), "{args:?} must not record a report");
}

#[test]
fn unparsable_or_missing_values_are_usage_errors() {
    assert_rejected(
        "workers",
        "--workers needs an integer, got \"x\"",
        &["--bench", "--workers", "x"],
    );
    // A flag where the value should be, or nothing at all: it is missing.
    assert_rejected(
        "missing",
        "--workers needs a value",
        &["--workers", "--bench"],
    );
    assert_rejected("trailing", "--json needs a value", &["--bench", "--json"]);
}

#[test]
fn unknown_flags_are_usage_errors_not_the_default_run() {
    assert_rejected(
        "typo",
        "unexpected argument --fsat",
        &["--fsat", "--serial", "--csv"],
    );
    assert_rejected("word", "unexpected argument lstm", &["lstm"]);
}

#[test]
fn tuning_and_throughput_flags_are_unknown() {
    // Tuning and serving throughput are measured by the benchmark
    // package's `tune_search` and `serve_batch`, not by table2.
    for (tag, args) in [
        ("tune", &["--tune"][..]),
        ("tune-seed", &["--tune-seed", "7"]),
        ("cache-dir", &["--cache-dir", "d"]),
        ("throughput", &["--throughput"]),
        ("shards", &["--shards", "3"]),
    ] {
        assert_rejected(tag, &format!("unexpected argument {}", args[0]), args);
    }
}

#[test]
fn valid_numeric_values_still_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--fast", "--csv", "--workers", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("network,op,class"));
}

#[test]
fn bench_merges_into_the_report_instead_of_erasing_it() {
    let json = scratch_json("merge");
    let seeded = "{\"bench\":\"table2\",\"speedup\":99,\"notes\":{\"items\":651}}";
    std::fs::write(&json, seeded).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--fast", "--bench", "--json", json.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&json).unwrap();
    let doc = Json::parse(&text).unwrap();
    let _ = std::fs::remove_file(&json);
    // The foreign section survived, beside fresh bench keys...
    let items = doc.get("notes").and_then(|t| t.get("items"));
    assert_eq!(items.and_then(Json::as_u64), Some(651), "{text}");
    for leg in ["serial", "parallel"] {
        let solver = doc.get(leg).and_then(|l| l.get("solver"));
        let lp_solves = solver.and_then(|s| s.get("lp_solves"));
        assert!(lp_solves.and_then(Json::as_u64) > Some(0), "{leg}: {text}");
    }
    assert_eq!(doc.get("identical"), Some(&Json::Bool(true)));
    assert!(text.contains("\"identical\": true"), "ci.sh greps this");
    // ...and a stale bench key was replaced, not kept.
    assert_ne!(doc.get("speedup").and_then(Json::as_u64), Some(99));
    let networks = doc.get("networks").and_then(Json::as_arr).unwrap();
    assert_eq!(networks[0].str_field("name"), Ok("LSTM"));
}
