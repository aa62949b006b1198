//! Black-box tests of the `table2` binary: argument validation and the
//! `--bench` report, which replaces whatever the JSON file held.

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
    assert_rejected("typo", "unexpected argument --fsat", &["--fsat", "--csv"]);
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
fn a_flag_without_its_mode_or_beside_its_rival_is_a_usage_error() {
    // `--json` names the `--bench` report; alone it would be ignored.
    assert_rejected("json-alone", "without --bench it does nothing", &[]);
    // `--csv` and `--per-op` each choose the output; neither is dropped.
    for (tag, args) in [
        ("csv-per-op", &["--bench", "--csv", "--per-op"]),
        ("per-op-csv", &["--bench", "--per-op", "--csv"]),
    ] {
        assert_rejected(tag, "--per-op and --csv each choose the output", args);
    }
}

#[test]
fn help_lists_seven_flags_and_one_worker_is_the_serial_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    let flags: Vec<&str> = (usage.split(|c: char| !(c.is_alphanumeric() || c == '-')))
        .filter(|w| w.starts_with("--"))
        .collect();
    let want = [
        "--per-op",
        "--csv",
        "--stats",
        "--fast",
        "--workers",
        "--bench",
        "--json",
    ];
    assert_eq!(flags, want, "{usage}");
    // One spelling for the serial reference path: `--workers 1`.
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--fast", "--stats", "--workers", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[stats] serial: 4 unique ops, 1 workers"),
        "{stderr}"
    );
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
fn bench_writes_the_report_whole() {
    let json = scratch_json("whole");
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
    // Nothing seeded survives: no foreign section, no stale bench key.
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want = [
        "bench",
        "cores",
        "speedup",
        "identical",
        "parallel_skipped",
        "serial",
        "parallel",
        "networks",
    ];
    assert_eq!(keys, want, "{text}");
    assert_ne!(doc.get("speedup").and_then(Json::as_u64), Some(99));
    assert_eq!(doc.str_field("bench"), Ok("table2"));
    assert_eq!(doc.get("identical"), Some(&Json::Bool(true)));
    for leg in ["serial", "parallel"] {
        let solver = doc.get(leg).and_then(|l| l.get("solver"));
        let lp_solves = solver.and_then(|s| s.get("lp_solves"));
        assert!(lp_solves.and_then(Json::as_u64) > Some(0), "{leg}: {text}");
    }
    let networks = doc.get("networks").and_then(Json::as_arr).unwrap();
    assert_eq!(networks[0].str_field("name"), Ok("LSTM"));
}
