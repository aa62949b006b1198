//! Seeded chaos suite: deterministic fault injection across the disk
//! cache's file operations and the daemon's socket frames.
//!
//! Invariants asserted, per ROADMAP robustness goals:
//!
//! * **no hangs** — every faulted operation returns (the test completing
//!   is the proof);
//! * **no corrupt entry is ever served** — whatever a faulted cache
//!   returns for a key is either a miss or exactly one of the payloads
//!   that was put for it (the checksum layer quarantines everything
//!   torn); a fabricated or truncated payload is never served;
//! * **fault-free replay is byte-identical** — the same puts against a
//!   clean filesystem produce bit-for-bit identical entry files, and the
//!   same seed produces the identical fault schedule.

#[cfg(unix)]
mod common;

use polyject_arith::SplitMix64;
use polyject_serve::{DiskCache, FaultyIo, Io, Json, RealIo};
use std::collections::HashMap;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let d = std::env::temp_dir().join(format!("polyject-chaos-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn payload(tag: u64) -> Json {
    Json::obj(vec![
        (
            "cuda",
            Json::Str(format!("__global__ void k{tag}() {{ /* {tag} */ }}")),
        ),
        ("schedule", Json::Str(format!("S{tag}: (i, j)"))),
        ("ms", Json::Num(tag as f64 * 0.5)),
    ])
}

/// Every payload the cache may legitimately serve for a key. A `put`
/// that returned `Ok` over an atomic rename makes its payload the only
/// acceptable value; a `put` that errored may still have landed (e.g.
/// the index append after the entry rename faulted), so its payload joins
/// the acceptable set. A miss is always acceptable — faults may
/// quarantine good entries, never the reverse.
type Model = HashMap<String, Vec<Json>>;

/// One chaos round: a cache over a fault-injecting filesystem, hammered
/// with puts/gets/removes driven by the same seed as the fault schedule.
/// Returns (faults injected, proof log of served values).
fn chaos_round(dir: &std::path::Path, seed: u64, model: &mut Model) -> (u64, Vec<String>) {
    let io = FaultyIo::new(RealIo, seed, 3);
    let injected = io.injected_counter();
    let mut log = Vec::new();
    let Ok(mut cache) = DiskCache::open_with_io(dir, 1 << 20, Box::new(io)) else {
        // Opening itself died on an injected fault (e.g. the index
        // flush): legal, as long as nothing hangs or panics.
        return (injected.load(std::sync::atomic::Ordering::SeqCst), log);
    };
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
    for op in 0..60 {
        let key = format!("key{:02}", rng.below(8));
        match rng.below(4) {
            0 => {
                let p = payload(rng.next_u64() % 1000);
                if cache.put(&key, "compile", &p).is_ok() {
                    model.insert(key.clone(), vec![p]);
                } else {
                    model.entry(key.clone()).or_default().push(p);
                }
            }
            1 | 2 => {
                if let Some((kind, served)) = cache.get(&key) {
                    // THE invariant: a hit is a payload that was put.
                    assert_eq!(kind, "compile", "op {op} seed {seed}");
                    let acceptable = model.get(&key).map(|l| l.contains(&served));
                    assert_eq!(
                        acceptable,
                        Some(true),
                        "corrupt/fabricated entry served for {key} (op {op}, seed {seed}): {}",
                        served.render()
                    );
                    log.push(format!("{key}={}", served.render()));
                } else {
                    log.push(format!("{key}=miss"));
                }
            }
            _ => {
                // A faulted remove may leave the file behind, so the
                // acceptable set never narrows here.
                let _ = cache.remove(&key);
            }
        }
    }
    (injected.load(std::sync::atomic::Ordering::SeqCst), log)
}

#[test]
fn cache_chaos_never_serves_corruption() {
    let dir = tmpdir("cache");
    let mut model = Model::new();
    let mut injected_total = 0;
    let mut seed = 0;
    // Keep reopening the same directory under fresh fault schedules until
    // well past the 200-injected-faults bar. Each reopen also exercises
    // index load/rebuild and the tmp sweep over whatever debris the
    // previous round left.
    while injected_total < 200 || seed < 8 {
        let (injected, _) = chaos_round(&dir, seed, &mut model);
        injected_total += injected;
        seed += 1;
        assert!(seed < 200, "fault rate too low to reach the bar");
    }
    assert!(injected_total >= 200, "only {injected_total} faults");

    // Fault-free recovery: a clean open must sweep torn temporaries and
    // serve only verified payloads, every one in the acceptable set.
    // Entries are checksum-verified lazily (on read), so the first full
    // verify may still quarantine debris torn at rest — but a second
    // pass must find nothing left to quarantine.
    let mut cache = DiskCache::open(&dir, 1 << 20).unwrap();
    cache.verify();
    let (_ok, quarantined) = cache.verify();
    assert_eq!(
        quarantined, 0,
        "verify failed to converge: torn entries survived"
    );
    for (key, acceptable) in &model {
        if let Some((_, served)) = cache.get(key) {
            assert!(
                acceptable.contains(&served),
                "post-chaos corruption for {key}: {}",
                served.render()
            );
        }
    }
    for sub in [dir.clone(), dir.join("entries")] {
        for e in std::fs::read_dir(&sub).unwrap() {
            let name = e.unwrap().file_name().to_string_lossy().to_string();
            assert!(
                !name.starts_with(".tmp."),
                "stale temporary {name} survived"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_indexes_every_verified_entry_and_serves_no_other() {
    // After each faulted round a clean reopen must index every file in
    // `entries/` (dropping none from `len()`), and after one read of each
    // indexed key, exactly the entries that verify — each a payload that
    // was put — with `total_bytes()` their size on disk.
    let dir = tmpdir("reopen");
    let mut model = Model::new();
    let files = |dir: &std::path::Path| -> Vec<u64> {
        let listing = std::fs::read_dir(dir.join("entries")).unwrap();
        listing
            .map(|e| e.unwrap().metadata().unwrap().len())
            .collect()
    };
    let mut quarantined = 0;
    for seed in 0..40 {
        chaos_round(&dir, seed, &mut model);
        let mut cache = DiskCache::open(&dir, 1 << 20).unwrap();
        assert_eq!(
            cache.len(),
            files(&dir).len(),
            "seed {seed}: a file lost its row"
        );
        for (key, ..) in cache.list() {
            match cache.get(&key) {
                Some((_, served)) => assert!(
                    model[&key].contains(&served),
                    "seed {seed}: {key} served {}",
                    served.render()
                ),
                None => quarantined += 1,
            }
        }
        let sizes = files(&dir);
        assert_eq!(
            (cache.len(), cache.total_bytes()),
            (sizes.len(), sizes.iter().sum()),
            "seed {seed}: index vs verified entries"
        );
    }
    assert!(
        quarantined > 0,
        "no schedule left a torn entry to reconcile"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_appends_leave_prefixes_that_the_next_row_glues_onto() {
    // Whatever a faulted append leaves, the file is a concatenation of
    // prefixes of the rows appended — one whole row per clean append —
    // and a row that fails to parse is never a row that was not written.
    let (mut torn, mut enospc) = (0, 0);
    for seed in 0..16 {
        let path = tmpdir("append");
        let mut io = FaultyIo::new(RealIo, seed, 2);
        let rows: Vec<String> = (0..20).map(|i| format!("{{\"row\":{i}}}\n")).collect();
        for row in &rows {
            let (before, injected) = (std::fs::read(&path).unwrap_or_default(), io.injected());
            let result = io.append(&path, row.as_bytes());
            let faulted = io.injected() > injected;
            let after = std::fs::read(&path).unwrap();
            let landed = after
                .strip_prefix(before.as_slice())
                .expect("append only appends");
            assert!(
                row.as_bytes().starts_with(landed),
                "seed {seed}: not a prefix"
            );
            assert_eq!(landed == row.as_bytes(), !faulted, "seed {seed}");
            match (faulted, result.is_ok()) {
                (true, true) => torn += 1,
                (true, false) => enospc += 1,
                (false, ok) => assert!(ok, "seed {seed}: a clean append failed"),
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines().filter(|l| Json::parse(l).is_ok()) {
            assert!(
                rows.iter().any(|r| r.trim_end() == line),
                "seed {seed}: invented {line:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
    assert!(torn > 0 && enospc > 0, "torn {torn}, enospc {enospc}");
}

#[test]
fn same_seed_replays_the_same_fault_schedule() {
    let run = |tag: &str| {
        let dir = tmpdir(tag);
        let mut model = Model::new();
        let out = chaos_round(&dir, 12345, &mut model);
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let (faults_a, log_a) = run("replay-a");
    let (faults_b, log_b) = run("replay-b");
    assert_eq!(faults_a, faults_b, "fault schedule must be deterministic");
    assert_eq!(log_a, log_b, "served values must replay identically");
    assert!(faults_a > 0, "rate 1/3 over 60 ops must inject");
}

/// Socket-frame chaos against a live daemon: mid-frame disconnects,
/// garbage prefixes, oversized frames, non-JSON and non-UTF-8 payloads.
/// The daemon must answer structured errors (or drop the connection) and
/// keep serving; shutting down cleanly afterwards proves no worker or
/// connection thread leaked.
#[cfg(unix)]
mod daemon_chaos {
    use super::SplitMix64;
    use crate::common::Daemon;
    use polyject_serve::{read_frame, Client, Endpoint, Json};
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    fn spawn(tag: &str, extra: &[&str]) -> Daemon {
        let dir =
            std::env::temp_dir().join(format!("pj-daemon-chaos-{tag}-{}", std::process::id()));
        let mut args = vec!["--workers", "2"];
        args.extend(extra);
        Daemon::spawn(&dir.join("d.sock"), &args, Some(dir))
    }

    const SRC: &str = "
kernel axpy
param N = 64
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
";

    #[test]
    fn daemon_survives_socket_frame_chaos() {
        // --max-frame-bytes 4096: small enough that the oversized-frame
        // path is exercised by a 5000-byte length prefix, large enough
        // for real requests.
        let daemon = spawn("frames", &["--max-frame-bytes", "4096"]);
        let Endpoint::Unix(socket) = &daemon.endpoint else {
            unreachable!("spawned on a Unix socket")
        };
        let mut rng = SplitMix64::new(99);
        let mut faults = 0;
        for round in 0..60 {
            let mut s = UnixStream::connect(socket).unwrap();
            match rng.below(4) {
                0 => {
                    // Mid-frame disconnect: length prefix promises 100
                    // bytes, connection dies after a few.
                    s.write_all(&100u32.to_be_bytes()).unwrap();
                    s.write_all(b"{\"op\":").unwrap();
                    drop(s);
                }
                1 => {
                    // Oversized frame: must be answered with a structured
                    // error, not an allocation.
                    s.write_all(&5000u32.to_be_bytes()).unwrap();
                    s.flush().unwrap();
                    let resp = read_frame(&mut s).expect("structured reply");
                    assert_eq!(resp.str_field("status").unwrap(), "error", "round {round}");
                    assert!(
                        resp.str_field("message").unwrap().contains("exceeds"),
                        "round {round}"
                    );
                }
                2 => {
                    // Non-UTF-8 frame body.
                    s.write_all(&4u32.to_be_bytes()).unwrap();
                    s.write_all(&[0xFF, 0xFE, 0x80, 0x81]).unwrap();
                    s.flush().unwrap();
                    let resp = read_frame(&mut s).expect("structured reply");
                    assert_eq!(resp.str_field("status").unwrap(), "error", "round {round}");
                }
                _ => {
                    // Valid length, garbage JSON.
                    let body = b"this is not json {{{";
                    s.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
                    s.write_all(body).unwrap();
                    s.flush().unwrap();
                    let resp = read_frame(&mut s).expect("structured reply");
                    assert_eq!(resp.str_field("status").unwrap(), "error", "round {round}");
                }
            }
            faults += 1;
        }
        assert!(faults >= 50, "socket chaos volume");

        // After all that, a real compile still succeeds...
        let mut client = Client::connect(&daemon.endpoint).unwrap();
        let resp = client.compile(SRC, "infl").unwrap();
        assert_eq!(resp.str_field("status").unwrap(), "ok");
        assert!(resp.str_field("cuda").unwrap().contains("__global__"));
        // ...and shutdown drains cleanly (no leaked workers/conns).
        daemon.shutdown_and_wait();
    }

    #[test]
    fn request_timeout_cancels_compile_and_reclaims_worker() {
        // A zero-second deadline times the seconds-long compile out
        // immediately; the timeout path must then trip the cancel flag so
        // the worker comes back instead of grinding to completion. The
        // tiny `axpy` kernel can finish before the timeout path even
        // stores the flag; the deep chain is always still mid-solve.
        let daemon = spawn("timeout", &["--timeout-secs", "0"]);
        let mut client = Client::connect(&daemon.endpoint).unwrap();
        let src = crate::common::slow_src("chain", 128);
        let mut timed_out = false;
        for _ in 0..200 {
            let resp = client.compile(&src, "infl").unwrap();
            match resp.str_field("status").unwrap() {
                "ok" => continue, // compile won the zero-width race
                "error" => {
                    assert!(resp.str_field("message").unwrap().contains("timed out"));
                    timed_out = true;
                    break;
                }
                other => panic!("unexpected status {other}"),
            }
        }
        assert!(timed_out, "200 compiles all beat a zero-second deadline");

        // The cancelled solve shows up in the governance counters once
        // the worker observes the flag.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = client.stats().unwrap();
            let cancelled = stats
                .get("governance")
                .and_then(|g| g.get("cancelled_solves"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let timeouts = stats
                .get("stats")
                .and_then(|s| s.get("timeouts"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if cancelled >= 1 && timeouts >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cancellation never reclaimed the worker: {}",
                stats.render()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // Shutdown waits for pending compiles to drain: it completing
        // proves the cancelled worker was reclaimed, not leaked.
        daemon.shutdown_and_wait();
    }
}

#[test]
fn torn_tuned_config_is_quarantined_as_a_miss() {
    // A tuned configuration whose entry file is torn mid-write must
    // never be half-applied: the checksum layer quarantines it, the
    // lookup is a miss, and the next tune runs a fresh search instead
    // of trusting debris.
    use polyject_gpusim::GpuModel;
    use polyject_serve::{tune_cached, CompileService, TUNED_KIND};
    use polyject_tune::TuneOptions;

    const SRC: &str = "
kernel axpy
param N = 64
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
";
    let dir = tmpdir("torn-tuned");
    let opts = TuneOptions {
        rounds: 1,
        initial_samples: 2,
        evals_per_round: 2,
        ..TuneOptions::default()
    };

    // Tune once; remember the persisted key and config.
    let svc = CompileService::new(
        Some(DiskCache::open(&dir, 1 << 20).unwrap()),
        GpuModel::v100(),
    );
    let cold = tune_cached(&svc, SRC, "infl", &opts).unwrap();
    assert!(!cold.cached);
    drop(svc);

    // Tear the entry: truncate the file mid-payload, as a crash between
    // write and rename-completion would leave it.
    let entry = dir.join("entries").join(format!("{}.json", cold.key));
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    // Reopen: the torn entry reads as a miss (quarantined, not served),
    // and tuning runs the search again, landing on the same winner.
    let svc = CompileService::new(
        Some(DiskCache::open(&dir, 1 << 20).unwrap()),
        GpuModel::v100(),
    );
    let miss = svc.with_cache(|c| c.get(&cold.key)).unwrap();
    assert!(miss.is_none(), "torn tuned entry must not be served");
    let retuned = tune_cached(&svc, SRC, "infl", &opts).unwrap();
    assert!(!retuned.cached, "torn entry forces a fresh search");
    assert_eq!(retuned.tuned, cold.tuned, "same seed, same winner");
    // The rewritten entry decodes again.
    let (kind, _) = svc.with_cache(|c| c.get(&cold.key)).unwrap().unwrap();
    assert_eq!(kind, TUNED_KIND);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_free_replay_is_byte_identical() {
    // The same puts against two clean filesystems produce bit-for-bit
    // identical entry files — the property that makes cached replies
    // indistinguishable from fresh compiles.
    let dirs = [tmpdir("replay-x"), tmpdir("replay-y")];
    for dir in &dirs {
        let mut cache = DiskCache::open(dir, 1 << 20).unwrap();
        for i in 0..10u64 {
            cache
                .put(&format!("key{i:02}"), "compile", &payload(i))
                .unwrap();
        }
    }
    for i in 0..10u64 {
        let name = format!("key{i:02}.json");
        let a = std::fs::read(dirs[0].join("entries").join(&name)).unwrap();
        let b = std::fs::read(dirs[1].join("entries").join(&name)).unwrap();
        assert_eq!(a, b, "{name} differs between identical replays");
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
