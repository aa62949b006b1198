//! Black-box tests of the four serve binaries' front door: argument
//! validation (one cursor, one wording, nothing printed on stdout), and
//! `polyjectc` / `polyject-cache` against an in-test daemon.

#![cfg(unix)]

use polyject_serve::{run_daemon, Client, DaemonConfig, Endpoint, Json};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const SRC: &str = "kernel cli\ntensor t[8]: f32\nstmt S for (i in 0..8)\n  t[i] = (t[i] + 1.0)\n";

const POLYJECTC: &str = env!("CARGO_BIN_EXE_polyjectc");
const POLYJECT_CACHE: &str = env!("CARGO_BIN_EXE_polyject-cache");
const POLYJECTD: &str = env!("CARGO_BIN_EXE_polyjectd");
const POLYJECT_ROUTER: &str = env!("CARGO_BIN_EXE_polyject-router");

fn write_src(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pj-cli-{tag}-{}.pj", std::process::id()));
    std::fs::write(&path, SRC).unwrap();
    path
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

/// A daemon on this process's threads, over its own scratch directory
/// (`tag` keeps parallel tests off each other's socket and cache).
struct Daemon {
    endpoint: Endpoint,
    socket: String,
    dir: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<Json>>>,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let dir = std::env::temp_dir().join(format!("pj-cli-d-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let endpoint = Endpoint::Unix(dir.join("d.sock"));
        let config = DaemonConfig {
            endpoint: endpoint.clone(),
            workers: 1,
            cache_dir: Some(dir.join("cache")),
            ..DaemonConfig::default()
        };
        let thread = Some(std::thread::spawn(move || run_daemon(config)));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !Client::connect(&endpoint)
            .and_then(|mut c| c.ping())
            .unwrap_or(false)
        {
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(10));
        }
        Daemon {
            socket: endpoint.to_string(),
            endpoint,
            dir,
            thread,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = Client::connect(&self.endpoint).and_then(|mut c| c.shutdown());
        let _ = self.thread.take().map(|t| t.join());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn usage_errors_exit_nonzero_with_usage_on_stderr_and_nothing_on_stdout() {
    let src = write_src("usage");
    let file = src.to_str().unwrap();
    #[rustfmt::skip]
    let cases: &[(&str, &[&str], &str)] = &[
        // A flag at the end of the line, or before another flag: no value.
        (POLYJECTC, &[file, "--emit"], "--emit needs a value"),
        (POLYJECTC, &[file, "--config", "--emit", "cuda"], "--config needs a value"),
        (POLYJECT_CACHE, &["stats", "--remote"], "--remote needs a value"),
        (POLYJECTD, &["--socket"], "--socket needs a value"),
        (POLYJECT_ROUTER, &["--shard"], "--shard needs a value"),
        // Unknown flags and stray words.
        (POLYJECTC, &[file, "--emti", "cuda"], "unexpected argument --emti"),
        (POLYJECTC, &[file, "second.pj"], "unexpected argument second.pj"),
        (POLYJECT_CACHE, &["dir", "stats", "--fast"], "unexpected argument --fast"),
        (POLYJECT_CACHE, &["dir", "frobnicate"], "unknown command"),
        (POLYJECT_CACHE, &["dir", "rm"], "argument count"),
        (POLYJECTD, &["--sockte", "x"], "unexpected argument --sockte"),
        (POLYJECT_ROUTER, &["--shrad", "x"], "unexpected argument --shrad"),
        // The fan-out is fixed at a key's two replicas.
        (POLYJECT_ROUTER, &["--shard", "a.sock", "--replication", "2"], "unexpected argument --replication"),
        // The daemon never tunes; `polyjectc --tune` persists tunings it applies.
        (POLYJECTD, &["--background-tune"], "unexpected argument --background-tune"),
        (POLYJECT_ROUTER, &[], "at least one --shard"),
        // Non-integers.
        (POLYJECTC, &[file, "--tune", "--tune-seed", "0x7"], "--tune-seed needs an integer"),
        (POLYJECT_CACHE, &["dir", "warm", "src", "--workers", "two"], "--workers needs an integer"),
        (POLYJECTD, &["--workers", "-1"], "--workers needs an integer"),
        (POLYJECT_ROUTER, &["--shard", "a.sock", "--retries", "1.5"], "--retries needs an integer"),
        // A bad endpoint anywhere in a list.
        (POLYJECTC, &[file, "--remote", "a.sock,localhost:99999"], "bad --remote endpoint"),
        (POLYJECT_CACHE, &["stats", "--remote", "host:70000,b.sock"], "bad --remote endpoint"),
        (POLYJECT_ROUTER, &["--shard", "host:70000"], "bad --shard endpoint"),
        (POLYJECTC, &[file, "--remote", ","], "--remote needs an endpoint"),
        // Names with one table behind them.
        (POLYJECTC, &[file, "--config", "fast"], "expected isl|novec|infl"),
        (POLYJECT_CACHE, &["dir", "warm", "src", "--config", "fast"], "expected isl|novec|infl"),
        (POLYJECTD, &["--gpu", "h100"], "(v100|a100|consumer)"),
        (POLYJECT_ROUTER, &["--shard", "a.sock", "--gpu", "h100"], "(v100|a100|consumer)"),
        // Flags that only mean something together.
        (POLYJECTC, &["--batch", file], "--batch delegates to daemons"),
        (POLYJECTC, &[file, "--tune", "--remote", "a.sock"], "need the in-process pipeline"),
        (POLYJECTC, &[file, "--emit", "tree", "--remote", "a.sock"], "need the in-process pipeline"),
        (POLYJECTC, &[file, "--tune-seed", "7"], "configure --tune"),
        (POLYJECTC, &[file, "--cache-dir", "somewhere"], "configure --tune"),
        (POLYJECTC, &[], "expected one <file.pj>"),
        (POLYJECT_CACHE, &["dir", "stats", "--workers", "2"], "go with `warm <dir>`"),
        (POLYJECT_CACHE, &["dir", "stats", "--remote", "a.sock"], "expected <cache-dir> <command>"),
    ];
    for (bin, args, expect) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{} {args:?}", bin.rsplit('/').next().unwrap());
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what} wrote to stdout");
        assert!(stderr.contains(expect), "{what}: {stderr}");
        assert!(stderr.contains("usage:"), "{what}: {stderr}");
    }
    let _ = std::fs::remove_file(&src);
}

#[test]
fn unknown_emit_value_is_a_usage_error() {
    let path = write_src("bad-emit");
    let out = run(POLYJECTC, &[path.to_str().unwrap(), "--emit", "cdoe"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "typo'd --emit must fail, not print nothing"
    );
    assert!(out.stdout.is_empty(), "no partial output on a usage error");
    assert!(stderr.contains("unknown --emit \"cdoe\""), "{stderr}");
    assert!(
        stderr.contains("code|cuda|schedule"),
        "must list valid values: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_documented_emit_value_is_accepted() {
    let path = write_src("good-emit");
    for emit in [
        "code",
        "cuda",
        "schedule",
        "schedtree",
        "tree",
        "profile",
        "pj",
        "time",
        "all",
    ] {
        let out = run(POLYJECTC, &[path.to_str().unwrap(), "--emit", emit]);
        assert!(
            out.status.success(),
            "--emit {emit}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "--emit {emit} printed nothing");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_access_outside_its_tensor_is_an_error_not_a_kernel() {
    // `A[i][j + 4]` reads into the next row of A: in the flat buffer, so
    // execution cannot see it; the builder's extent check must.
    let path = std::env::temp_dir().join(format!("pj-cli-oob-{}.pj", std::process::id()));
    let src = "kernel oob\ntensor A[8][8]: f32\ntensor B[8][8]: f32\n\
               stmt S for (i in 0..8, j in 0..8)\n  B[i][j] = A[i][j + 4]\n";
    std::fs::write(&path, src).unwrap();
    let out = run(POLYJECTC, &[path.to_str().unwrap(), "--emit", "cuda"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "no kernel printed");
    assert!(
        stderr.contains(":4:1: S: read of A spans [4, 11] in dimension 1"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_float_literal_above_f32_max_is_an_error_at_its_position() {
    let path = std::env::temp_dir().join(format!("pj-cli-inf-{}.pj", std::process::id()));
    let src = format!(
        "kernel big\ntensor A[8]: f32\nstmt S for (i in 0..8)\n  A[i] = A[i] * 1{}.0\n",
        "0".repeat(39)
    );
    std::fs::write(&path, src).unwrap();
    let out = run(POLYJECTC, &[path.to_str().unwrap(), "--emit", "pj"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "no kernel printed");
    assert!(stderr.contains(":4:17: float `1000"), "{stderr}");
    assert!(stderr.contains("out of range for f32"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in [POLYJECTC, POLYJECT_CACHE, POLYJECTD, POLYJECT_ROUTER] {
        let out = run(bin, &["--help"]);
        assert!(out.status.success(), "{bin}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn remote_output_is_byte_identical_to_local() {
    let daemon = Daemon::start("emit");
    let path = write_src("remote-emit");
    let file = path.to_str().unwrap();
    let stdout = |args: &[&str]| {
        let out = run(POLYJECTC, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    for config in ["isl", "novec", "infl"] {
        for emit in ["code", "cuda", "schedule", "schedtree", "pj"] {
            let local = stdout(&[file, "--config", config, "--emit", emit]);
            let remote = stdout(&[
                file,
                "--config",
                config,
                "--emit",
                emit,
                "--remote",
                &daemon.socket,
            ]);
            assert!(!local.is_empty(), "{config} {emit}");
            assert_eq!(local, remote, "{config} {emit}");
        }
    }
    // The two deliberate differences: remote `time` says where the
    // artifact came from, and remote `all` has no tree/profile section.
    let time = |args: &[&str]| stdout(&[&[file, "--emit", "time"][..], args].concat());
    let local = time(&[]);
    let suffix = " ==\n";
    assert!(
        local.ends_with(&format!("vectorized loop(s)){suffix}")),
        "{local}"
    );
    let stem = local.strip_suffix(&format!("){suffix}")).unwrap();
    assert_eq!(
        time(&["--remote", &daemon.socket]),
        format!("{stem}, cached){suffix}"),
        "the emit loop above compiled it"
    );
    let all_local = stdout(&[file]);
    let all_remote = stdout(&[file, "--remote", &daemon.socket]);
    let titles = |out: &str| -> Vec<String> {
        let heads = out.lines().filter(|l| l.starts_with("== "));
        heads.map(|l| l.chars().take(14).collect()).collect()
    };
    let without_local_only: Vec<String> = (titles(&all_local).into_iter())
        .filter(|t| !t.starts_with("== influence") && !t.starts_with("== simulated p"))
        .collect();
    assert_eq!(titles(&all_local).len(), 7);
    assert_eq!(titles(&all_remote), without_local_only);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn remote_stats_is_one_report_wherever_the_flag_stands() {
    let daemon = Daemon::start("stats");
    let mut client = Client::connect(&daemon.endpoint).unwrap();
    client.compile(SRC, "infl").unwrap();
    client.compile(SRC, "infl").unwrap();
    drop(client);
    let report = |args: &[&str]| {
        let out = run(POLYJECT_CACHE, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap()
    };
    let first = report(&["stats", "--remote", &daemon.socket]);
    let second = report(&["--remote", &daemon.socket, "stats"]);
    // Each poll counts itself in `requests` and nothing else moves, so
    // with that count blanked the two spellings printed the same report.
    let canon = |r: &Json| -> String {
        let parts = r.render();
        let parts = parts.split("\"requests\":");
        parts
            .map(|p| p.trim_start_matches(|c: char| c.is_ascii_digit()))
            .collect()
    };
    assert_ne!(first.render(), second.render());
    assert_eq!(canon(&first), canon(&second));
    for key in ["status", "shards", "reachable", "totals", "per_shard"] {
        assert!(first.get(key).is_some(), "fleet schema lacks {key}");
    }
    assert_eq!(first.str_field("status"), Ok("ok"));
    let shard = &first.get("per_shard").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(shard.str_field("shard"), Ok(daemon.socket.as_str()));
    let counter = |section: &str, name: &str| shard.get(section)?.get(name)?.as_u64();
    assert_eq!(counter("stats", "misses"), Some(1));
    assert_eq!(counter("stats", "hits"), Some(1));
    assert_eq!(
        counter("cache", "misses"),
        Some(1),
        "the tuned-config probe of an untuned kernel is no cache miss"
    );

    // One unreachable endpoint degrades the report and fails the exit
    // status without hiding the reachable shard.
    let gone = daemon.dir.join("gone.sock");
    let list = format!("{},{}", daemon.socket, gone.display());
    let out = run(POLYJECT_CACHE, &["stats", "--remote", &list]);
    assert_eq!(out.status.code(), Some(1));
    let degraded = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    assert_eq!(degraded.str_field("status"), Ok("degraded"));
    assert_eq!(degraded.get("reachable").and_then(Json::as_u64), Some(1));
}
