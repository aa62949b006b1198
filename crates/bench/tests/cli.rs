//! Black-box tests of the `table2` driver's argument validation.

use std::process::Command;

/// Runs `table2 --fast <args> --json <fresh path>` and asserts a usage
/// error that names `flag` and leaves the JSON report unwritten.
fn assert_rejected(tag: &str, flag: &str, args: &[&str]) {
    let json =
        std::env::temp_dir().join(format!("pj-table2-cli-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&json);
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .arg("--fast")
        .args(args)
        .args(["--json", json.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must fail: {stderr}");
    assert!(out.stdout.is_empty(), "no table on a usage error");
    assert!(
        stderr.contains(&format!("{flag} needs a number")),
        "{stderr}"
    );
    assert!(stderr.contains("usage: table2"), "{stderr}");
    assert!(!json.exists(), "{args:?} must not record a report");
}

#[test]
fn unparsable_or_missing_numeric_values_are_usage_errors() {
    assert_rejected("seed", "--tune-seed", &["--tune", "--tune-seed", "0x7"]);
    assert_rejected("workers", "--workers", &["--bench", "--workers", "two"]);
    assert_rejected("shards", "--shards", &["--throughput", "--shards", "-1"]);
    // A flag where the value should be: the value is missing.
    assert_rejected("missing", "--workers", &["--workers", "--bench"]);
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
