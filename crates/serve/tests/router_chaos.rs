//! Multi-node chaos for the replicated serving tier: a fleet of real
//! `polyjectd` processes behind an in-process [`Router`], with seeded
//! fault injection at both layers (disk faults inside each daemon via
//! `--fault-io`, network faults at the router via [`NetChaos`]).
//!
//! The robustness claims under test:
//!
//! * **Zero corruption** — every `ok` response's artifact is
//!   byte-identical to an in-process ground-truth compile, no matter
//!   which replica served it or what faults fired along the way.
//! * **No hangs** — every request is answered or structurally erred
//!   within bounded time, and every daemon still shuts down cleanly.
//! * **Degrade, don't fail** — a shard killed mid-run keeps its hot
//!   keys warm through a replica (zero fresh solver work).
//! * **Determinism** — same seeds + same request sequence replay to
//!   identical responses and identical injected chaos.

#![cfg(unix)]

mod common;

use common::{slow_src, Daemon};
use polyject_gpusim::GpuModel;
use polyject_serve::hash::hex_digest;
use polyject_serve::service::compile_reply;
use polyject_serve::{BatchItem, Client, Endpoint, Json, NetChaos, Request, Router, RouterConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn fetch(key: &str) -> Request {
    Request::Fetch {
        key: key.to_string(),
    }
}

/// Spawns a `polyjectd` at a caller-chosen socket and cache dir (fixed
/// paths let the replay test rebuild a byte-identical fleet), waiting
/// until it answers pings.
fn spawn_daemon(socket: &Path, cache_dir: &Path, extra: &[&str]) -> Daemon {
    std::fs::create_dir_all(cache_dir).unwrap();
    let mut args = vec!["--cache-dir", cache_dir.to_str().unwrap()];
    args.extend(extra);
    Daemon::spawn(socket, &args, None)
}

impl Daemon {
    fn stats(&self) -> Json {
        let mut c = Client::connect(&self.endpoint).unwrap();
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        c.stats().unwrap()
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pj-router-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An `axpy` variant per problem size, so the fleet serves a spread of
/// distinct cache keys.
fn axpy(n: u32) -> String {
    format!(
        "kernel axpy\nparam N = {n}\ntensor X[N]: f32\ntensor Y[N]: f32\n\
         stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]\n"
    )
}

/// The deterministic artifact fields as one comparable blob. Wall-clock
/// fields (`timing`, `compile_ms`) are excluded — a replica's fresh
/// compile legitimately differs there, the *artifact* must not.
fn artifact_blob(resp: &Json) -> String {
    let f = |k: &str| resp.str_field(k).unwrap_or("<missing>").to_string();
    let r = |k: &str| resp.get(k).map(Json::render).unwrap_or_default();
    format!(
        "key={}\ncanonical={}\ncode={}\ncuda={}\nschedule={}\nschedtree={}\nvec={}\ninfl={}",
        f("key"),
        f("canonical_pj"),
        f("code"),
        f("cuda"),
        f("schedule"),
        f("schedule_tree"),
        r("vector_loops"),
        r("influenced"),
    )
}

/// Ground truth for one source: `(cache key, artifact blob)` from an
/// in-process compile that never crosses a socket or a faulty disk.
fn truth(src: &str) -> (String, String) {
    let reply = compile_reply(src, "infl", &GpuModel::v100()).expect("ground-truth compile");
    let json = reply.to_json();
    (reply.key.clone(), artifact_blob(&json))
}

fn io_faults_of(d: &Daemon) -> u64 {
    d.stats()
        .get("cache")
        .and_then(|c| c.get("io_faults_injected"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Tentpole invariant: hundreds of injected faults across a 3-node
/// fleet (disk faults in every daemon, partitions/garbage/torn
/// transfers at the router) and still zero corrupt artifacts served,
/// every request answered or structurally erred, and a clean shutdown.
#[test]
fn multi_node_chaos_serves_zero_corrupt_artifacts() {
    let root = tmp_root("fleet");
    let daemons: Vec<Daemon> = (0..3)
        .map(|i| {
            spawn_daemon(
                &root.join(format!("s{i}.sock")),
                &root.join(format!("s{i}-cache")),
                &[
                    "--workers",
                    "2",
                    "--hot-entries",
                    "8",
                    "--fault-io",
                    &format!("{}/6", 100 + i),
                ],
            )
        })
        .collect();
    let router = Router::new(RouterConfig {
        shards: daemons.iter().map(|d| d.endpoint.clone()).collect(),
        retries: 4,
        hedge_after: Duration::from_millis(10),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        io_timeout: Duration::from_secs(10),
        seed: 0xC0FFEE,
        hot_threshold: 3,
        ..RouterConfig::default()
    })
    .with_chaos(NetChaos::new(0xC0FFEE, 3));

    let variants: Vec<String> = (1..=10).map(|k| axpy(8 * k)).collect();
    let truths: HashMap<String, String> = variants.iter().map(|s| truth(s)).collect();

    let (mut ok, mut errs) = (0u64, 0u64);
    for round in 0..20 {
        for src in &variants {
            let resp = router.compile(src, "infl");
            match resp.str_field("status").expect("response carries a status") {
                "ok" => {
                    ok += 1;
                    let key = resp.str_field("key").unwrap();
                    assert_eq!(
                        artifact_blob(&resp),
                        truths[key],
                        "round {round}: a corrupt artifact was served\n{}",
                        resp.render()
                    );
                }
                "error" => {
                    errs += 1;
                    assert!(
                        !resp.str_field("message").unwrap().is_empty(),
                        "errors must explain themselves"
                    );
                }
                other => panic!("unstructured status {other:?}: {}", resp.render()),
            }
        }
        let total = router.chaos_injected() + daemons.iter().map(io_faults_of).sum::<u64>();
        if round >= 4 && total >= 220 {
            break;
        }
    }

    let io_faults: u64 = daemons.iter().map(io_faults_of).sum();
    let total_faults = router.chaos_injected() + io_faults;
    assert!(ok > 0, "chaos drowned out every request");
    assert!(
        total_faults >= 200,
        "need >= 200 faults for the claim to mean anything, got {total_faults} \
         ({} network, {io_faults} disk); ok={ok} errs={errs}",
        router.chaos_injected()
    );

    // At rest: every entry a shard still serves over fetch must be the
    // ground-truth artifact (corrupt-at-rest entries are quarantined by
    // the cache layer and report as misses, never as payloads).
    let mut verified = 0;
    for d in &daemons {
        let mut c = Client::connect(&d.endpoint).unwrap();
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let keys = c.request(&Request::Keys).unwrap();
        for row in keys.get("keys").and_then(Json::as_arr).unwrap() {
            let key = row.str_field("key").unwrap();
            // Reads go through the fault injector too: retry a few
            // times so a transient injected fault is not mistaken for a
            // missing entry.
            for _ in 0..10 {
                let fetched = c.request(&fetch(key)).unwrap();
                if fetched.get("found").and_then(Json::as_bool) != Some(true) {
                    continue;
                }
                let payload = fetched.get("payload").unwrap();
                assert_eq!(
                    fetched.str_field("checksum").unwrap(),
                    hex_digest(&payload.render())
                );
                if let Some(expected) = truths.get(key) {
                    assert_eq!(&artifact_blob(payload), expected, "corrupt entry at rest");
                    verified += 1;
                }
                break;
            }
        }
    }
    assert!(verified > 0, "no entry survived to be verified at rest");
    // For the record (`--nocapture`): what hedging, failover and hot-key
    // replication did over the run.
    eprintln!(
        "[router_chaos] ok {ok} errs {errs}: {}",
        router.metrics_json(false).render()
    );

    for d in daemons {
        d.shutdown_and_wait();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Acceptance: kill the shard that served (and replicated) a hot key;
/// the router re-routes to the replica, which serves it warm — cache
/// hit, zero fresh solver work on the survivor.
#[test]
fn killed_shard_fails_over_to_warm_replica() {
    let root = tmp_root("failover");
    let mut daemons: Vec<Daemon> = (0..3)
        .map(|i| {
            spawn_daemon(
                &root.join(format!("f{i}.sock")),
                &root.join(format!("f{i}-cache")),
                &["--workers", "2", "--hot-entries", "8"],
            )
        })
        .collect();
    let router = Router::new(RouterConfig {
        shards: daemons.iter().map(|d| d.endpoint.clone()).collect(),
        hot_threshold: 2,
        retries: 2,
        hedge_after: Duration::from_secs(5),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        ..RouterConfig::default()
    });

    let src = axpy(64);
    let r1 = router.compile(&src, "infl");
    assert_eq!(r1.str_field("status").unwrap(), "ok", "{}", r1.render());
    assert_eq!(r1.get("cached").and_then(Json::as_bool), Some(false));
    let primary = r1.str_field("via").unwrap().to_string();

    // Second serve crosses the hot threshold and replicates the entry.
    let r2 = router.compile(&src, "infl");
    assert_eq!(r2.str_field("status").unwrap(), "ok", "{}", r2.render());
    assert_eq!(r2.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(r2.str_field("via").unwrap(), primary);
    assert!(
        router.total(|m| m.transfers_out) >= 1,
        "no replication happened"
    );

    // Exactly one survivor accepted the replica copy.
    let replicas: Vec<usize> = daemons
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            d.endpoint.to_string() != primary
                && d.stats()
                    .get("stats")
                    .and_then(|s| s.get("transfers_in"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    >= 1
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(replicas.len(), 1, "expected exactly one warm replica");
    let replica_idx = replicas[0];

    // Node death: SIGKILL the serving shard — no goodbye, no flush.
    let primary_idx = daemons
        .iter()
        .position(|d| d.endpoint.to_string() == primary)
        .expect("via names a fleet member");
    daemons[primary_idx].child.kill().unwrap();
    daemons[primary_idx].child.wait().unwrap();

    let r3 = router.compile(&src, "infl");
    assert_eq!(r3.str_field("status").unwrap(), "ok", "{}", r3.render());
    assert_eq!(
        r3.get("cached").and_then(Json::as_bool),
        Some(true),
        "failover must serve warm, not recompile: {}",
        r3.render()
    );
    assert_eq!(
        r3.str_field("via").unwrap(),
        daemons[replica_idx].endpoint.to_string()
    );
    assert!(router.total(|m| m.connect_failures) >= 1);
    assert!(router.total(|m| m.failovers) >= 1);

    // Zero solver work on the survivor: it served from the transferred
    // entry, never compiling this kernel itself.
    let survivor = daemons[replica_idx].stats();
    let stat = |k: &str| {
        survivor
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(
        stat("misses"),
        0,
        "replica compiled fresh: {}",
        survivor.render()
    );
    assert!(stat("hits") >= 1, "replica did not serve warm");

    for (i, d) in daemons.into_iter().enumerate() {
        if i != primary_idx {
            d.shutdown_and_wait();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Determinism: the same seeds (router jitter/chaos + per-daemon disk
/// faults) over the same request sequence replay to identical responses
/// and identical injected-fault counts, fleet for fleet.
#[test]
fn same_seed_replays_are_identical() {
    let root = tmp_root("replay");
    let variants: Vec<String> = (1..=6).map(|k| axpy(16 * k)).collect();

    /// Everything but the wall-clock fields, rendered. Socket paths are
    /// identical across fleets, so `via` and error messages compare too.
    fn replay_digest(resp: &Json) -> String {
        match resp {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "compile_ms" | "timing" | "solver"))
                    .cloned()
                    .collect(),
            )
            .render(),
            other => other.render(),
        }
    }

    let run_fleet = |fleet: &str| -> (Vec<String>, u64) {
        let daemons: Vec<Daemon> = (0..3)
            .map(|i| {
                spawn_daemon(
                    &root.join(format!("r{i}.sock")),
                    &root.join(format!("{fleet}-c{i}")),
                    &[
                        "--workers",
                        "2",
                        "--hot-entries",
                        "8",
                        // Seeds chosen to survive the faulty cache
                        // *open* — a daemon that dies at startup is a
                        // different test.
                        "--fault-io",
                        &format!("{}/6", [33, 44, 55][i]),
                    ],
                )
            })
            .collect();
        let router = Router::new(RouterConfig {
            shards: daemons.iter().map(|d| d.endpoint.clone()).collect(),
            retries: 3,
            // Hedging is raced against wall-clock time, so a replay
            // test pins it far beyond any compile.
            hedge_after: Duration::from_secs(60),
            io_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            seed: 4242,
            hot_threshold: 2,
            ..RouterConfig::default()
        })
        .with_chaos(NetChaos::new(4242, 3));
        let mut digests = Vec::new();
        for _ in 0..3 {
            for src in &variants {
                digests.push(replay_digest(&router.compile(src, "infl")));
            }
        }
        let injected = router.chaos_injected();
        for d in daemons {
            d.shutdown_and_wait();
        }
        (digests, injected)
    };

    let (first, injected_first) = run_fleet("a");
    let (second, injected_second) = run_fleet("b");
    assert_eq!(injected_first, injected_second, "chaos diverged");
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "request {i} diverged between same-seed replays");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Hedging: when the primary's worker is busy, the hedge leg wins and
/// the loser's solve is cancelled by request id — proven by the daemon's
/// governance counters, not just the router's.
#[test]
fn hedge_cancels_losing_leg_and_reclaims_worker() {
    let root = tmp_root("hedge");
    // Shard `a` has one worker, which an occupier holds until this test
    // cancels it, after the hedged request was answered: `a`'s leg of that
    // request waits behind it and loses by construction. The occupier
    // (depth 256, ~14 s) could only finish on its own long after `b`'s
    // answer (depth 128, ~1-2 s).
    let a = spawn_daemon(
        &root.join("a.sock"),
        &root.join("a-cache"),
        &["--workers", "1", "--queue-bound", "8"],
    );
    let b = spawn_daemon(
        &root.join("b.sock"),
        &root.join("b-cache"),
        &["--workers", "2"],
    );
    let counter = |group: &str, field: &str| {
        let s = a.stats();
        (s.get(group)
            .and_then(|v| v.get(field))
            .and_then(Json::as_u64))
        .unwrap_or(0)
    };

    let a_ep = a.endpoint.clone();
    let occupier = std::thread::spawn(move || {
        let mut c = Client::connect(&a_ep).unwrap();
        c.set_timeout(Some(Duration::from_secs(180))).unwrap();
        let occupy = Request::compile(&slow_src("occupy", 256), "infl", Some("occupy".into()));
        c.request(&occupy)
    });
    // Let the occupier reach a's worker before the hedged request.
    let deadline = Instant::now() + Duration::from_secs(30);
    while counter("stats", "requests") < 1 {
        assert!(Instant::now() < deadline, "the occupier never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));

    let router = Router::new(RouterConfig {
        shards: vec![a.endpoint.clone(), b.endpoint.clone()],
        retries: 1,
        hedge_after: Duration::from_millis(50),
        io_timeout: Duration::from_secs(120),
        hot_threshold: 1000,
        ..RouterConfig::default()
    });
    let resp = router.compile(&slow_src("hedged", 128), "infl");
    assert_eq!(resp.str_field("status").unwrap(), "ok", "{}", resp.render());

    assert!(router.total(|m| m.hedges_fired) >= 1, "hedge never fired");
    assert!(
        router.total(|m| m.hedge_cancels) >= 1,
        "losing leg was not cancelled"
    );
    // Release a's worker: the occupier is cancelled (one cancel, one
    // cancelled solve), and the loser, cancelled while it waited, aborts
    // at its first budget check (the second of each).
    let mut c = Client::connect(&a.endpoint).unwrap();
    let released = c
        .request(&Request::Cancel {
            req: "occupy".into(),
        })
        .unwrap();
    assert_eq!(released.get("cancelled"), Some(&Json::Bool(true)));
    let occupied = occupier.join().unwrap().unwrap();
    assert_eq!(occupied.str_field("status").unwrap(), "error");

    // The loser's worker is reclaimed: the daemon found the tagged
    // request, tripped its cancel flag, and the solver aborted.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let cancels = counter("stats", "cancels");
        if cancels >= 2 && counter("governance", "cancelled_solves") >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "loser never cancelled: {}",
            a.stats().render()
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    a.shutdown_and_wait();
    b.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// A hedge leg that breaks instantly (dead replica) must not outrank a
/// healthy leg mid-solve: the attempt keeps waiting for the surviving
/// leg's answer and never cancels its solve. With one dead shard in a
/// 2-replica set, every cold compile must still succeed on the first
/// attempt instead of exhausting retries.
#[test]
fn broken_hedge_leg_does_not_beat_healthy_leg() {
    let root = tmp_root("deadhedge");
    let a = spawn_daemon(
        &root.join("h.sock"),
        &root.join("h-cache"),
        &["--workers", "2"],
    );
    // Never bound: every connect to it fails in microseconds.
    let dead = Endpoint::Unix(root.join("dead.sock"));
    let router = Router::new(RouterConfig {
        shards: vec![a.endpoint.clone(), dead],
        retries: 1,
        // The hedge (whichever leg lands on the dead socket) always
        // reports Broken long before the healthy compile finishes: the
        // compile only has to outlast this 1 ms, and depth 16's 0.05 s
        // does.
        hedge_after: Duration::from_millis(1),
        io_timeout: Duration::from_secs(120),
        hot_threshold: 1000,
        ..RouterConfig::default()
    });
    let resp = router.compile(&slow_src("deadhedge", 16), "infl");
    assert_eq!(
        resp.str_field("status").unwrap(),
        "ok",
        "healthy leg lost to a dead socket: {}",
        resp.render()
    );
    assert_eq!(resp.str_field("via").unwrap(), a.endpoint.to_string());
    assert_eq!(
        router.total(|m| m.hedge_cancels),
        0,
        "a broken leg must never trigger a cancel of the healthy one"
    );
    // The daemon's governance agrees: nothing was cancelled mid-solve.
    let s = a.stats();
    assert_eq!(
        s.get("stats")
            .and_then(|v| v.get("cancels"))
            .and_then(Json::as_u64),
        Some(0),
        "{}",
        s.render()
    );

    a.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// In-batch duplicates the fleet's daemons answered from their primary.
fn dedup_hits(daemons: &[Daemon]) -> u64 {
    daemons
        .iter()
        .map(|d| {
            d.stats()
                .get("stats")
                .and_then(|s| s.get("batch_dedup_hits"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        })
        .sum()
}

/// Batched scatter-gather under two-layer chaos (disk faults in every
/// daemon, partitions and garbage frames torn into batch connections at
/// the router): every item of every batch — duplicates included — is
/// answered with either a ground-truth-identical artifact or a
/// structured per-item error, never a corrupt payload, never a missing
/// slot, never a batch-wide failure.
#[test]
fn batched_chaos_serves_zero_corrupt_artifacts() {
    let root = tmp_root("batchfleet");
    let daemons: Vec<Daemon> = (0..3)
        .map(|i| {
            spawn_daemon(
                &root.join(format!("b{i}.sock")),
                &root.join(format!("b{i}-cache")),
                &[
                    "--workers",
                    "2",
                    "--hot-entries",
                    "8",
                    "--fault-io",
                    &format!("{}/6", 100 + i),
                ],
            )
        })
        .collect();
    let router = Router::new(RouterConfig {
        shards: daemons.iter().map(|d| d.endpoint.clone()).collect(),
        retries: 4,
        hedge_after: Duration::from_millis(10),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        io_timeout: Duration::from_secs(10),
        seed: 0xBA7C4,
        hot_threshold: 3,
        ..RouterConfig::default()
    })
    .with_chaos(NetChaos::new(0xBA7C4, 3));

    let variants: Vec<String> = (1..=8).map(|k| axpy(8 * k)).collect();
    let truths: HashMap<String, String> = variants.iter().map(|s| truth(s)).collect();
    // Every variant twice per batch: the duplicates must come back as
    // correct artifacts too (daemon-side in-batch dedup answers them
    // from their primary's result).
    let batch: Vec<BatchItem> = variants
        .iter()
        .chain(variants.iter())
        .map(|s| BatchItem::new(s.as_str(), "infl"))
        .collect();

    let (mut ok, mut errs) = (0u64, 0u64);
    for round in 0..12 {
        let replies = router.compile_batch(&batch);
        assert_eq!(replies.len(), batch.len(), "round {round}: missing slots");
        for (i, resp) in replies.iter().enumerate() {
            match resp.str_field("status").expect("response carries a status") {
                "ok" => {
                    ok += 1;
                    let key = resp.str_field("key").unwrap();
                    assert_eq!(
                        artifact_blob(resp),
                        truths[key],
                        "round {round} item {i}: corrupt artifact\n{}",
                        resp.render()
                    );
                }
                "error" => {
                    errs += 1;
                    assert!(
                        !resp.str_field("message").unwrap().is_empty(),
                        "errors must explain themselves"
                    );
                }
                other => panic!("unstructured status {other:?}: {}", resp.render()),
            }
        }
        // A sub-batch reaches a daemon only when its scatter leg drew
        // neither a partition nor a garbage frame; which legs do depends
        // on the ring (socket paths carry the pid) and on how many chaos
        // draws the timing-raced item stage consumed. So the rounds go
        // on until one has, not for a fixed count.
        let total = router.chaos_injected() + daemons.iter().map(io_faults_of).sum::<u64>();
        if round >= 3 && total >= 150 && dedup_hits(&daemons) >= 1 {
            break;
        }
    }

    let total_faults = router.chaos_injected() + daemons.iter().map(io_faults_of).sum::<u64>();
    assert!(ok > 0, "chaos drowned out every batch item");
    assert!(
        total_faults >= 100,
        "need real fault pressure, got {total_faults}; ok={ok} errs={errs}"
    );
    // The duplicates rode the daemons' in-batch dedup at least once.
    let deduped = dedup_hits(&daemons);
    assert!(deduped >= 1, "no batch ever reached a daemon's dedup path");

    for d in daemons {
        d.shutdown_and_wait();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A shard killed between scatters must degrade its whole sub-batch to
/// the per-item failover path, not fail the batch: every item still
/// comes back `ok`, served by the survivors.
#[test]
fn shard_death_mid_scatter_degrades_to_failover() {
    let root = tmp_root("batchdeath");
    let mut daemons: Vec<Daemon> = (0..3)
        .map(|i| {
            spawn_daemon(
                &root.join(format!("d{i}.sock")),
                &root.join(format!("d{i}-cache")),
                &["--workers", "2", "--hot-entries", "8"],
            )
        })
        .collect();
    let router = Router::new(RouterConfig {
        shards: daemons.iter().map(|d| d.endpoint.clone()).collect(),
        retries: 2,
        hedge_after: Duration::from_secs(5),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(8),
        hot_threshold: 1000,
        ..RouterConfig::default()
    });

    let variants: Vec<String> = (1..=9).map(|k| axpy(24 * k)).collect();
    let truths: HashMap<String, String> = variants.iter().map(|s| truth(s)).collect();
    let batch: Vec<BatchItem> = variants
        .iter()
        .map(|s| BatchItem::new(s.as_str(), "infl"))
        .collect();

    // Scatter 1, fleet healthy: establishes which shard owns what.
    let first = router.compile_batch(&batch);
    let mut victim_endpoint = None;
    for resp in &first {
        assert_eq!(resp.str_field("status").unwrap(), "ok", "{}", resp.render());
        victim_endpoint.get_or_insert_with(|| resp.str_field("via").unwrap().to_string());
    }
    let victim = victim_endpoint.expect("a shard served something");
    let victim_idx = daemons
        .iter()
        .position(|d| d.endpoint.to_string() == victim)
        .expect("via names a fleet member");

    // Node death between scatters: SIGKILL, no goodbye. The next batch's
    // sub-batch for this shard breaks at connect and every one of its
    // items must fail over per-item to a survivor.
    daemons[victim_idx].child.kill().unwrap();
    daemons[victim_idx].child.wait().unwrap();

    let second = router.compile_batch(&batch);
    assert_eq!(second.len(), batch.len());
    for (i, resp) in second.iter().enumerate() {
        assert_eq!(
            resp.str_field("status").unwrap(),
            "ok",
            "item {i} failed after shard death: {}",
            resp.render()
        );
        let key = resp.str_field("key").unwrap();
        assert_eq!(
            artifact_blob(resp),
            truths[key],
            "item {i}: corrupt artifact"
        );
        assert_ne!(
            resp.str_field("via").unwrap(),
            victim,
            "item {i} claims service by a dead shard"
        );
    }
    assert!(
        router.total(|m| m.connect_failures) >= 1,
        "the dead shard's sub-batch never even failed to connect"
    );

    for (i, d) in daemons.into_iter().enumerate() {
        if i != victim_idx {
            d.shutdown_and_wait();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Determinism for batches: the same seeds over the same batch sequence
/// replay to identical per-item replies (artifacts, errors, `via` tags)
/// and identical injected-chaos counts, fleet for fleet.
#[test]
fn same_seed_batched_replays_are_identical() {
    let root = tmp_root("batchreplay");
    let variants: Vec<String> = (1..=6).map(|k| axpy(16 * k)).collect();
    // Duplicates in-batch, so the replayed stream exercises the dedup
    // path on both fleets.
    let batch: Vec<BatchItem> = variants
        .iter()
        .chain(variants.iter().take(3))
        .map(|s| BatchItem::new(s.as_str(), "infl"))
        .collect();

    fn replay_digest(resp: &Json) -> String {
        match resp {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "compile_ms" | "timing" | "solver"))
                    .cloned()
                    .collect(),
            )
            .render(),
            other => other.render(),
        }
    }

    let run_fleet = |fleet: &str| -> (Vec<String>, u64) {
        let daemons: Vec<Daemon> = (0..3)
            .map(|i| {
                spawn_daemon(
                    &root.join(format!("q{i}.sock")),
                    &root.join(format!("{fleet}-c{i}")),
                    &[
                        // One worker: `FaultyIo` hands out verdicts in
                        // arrival order, and two workers on one scattered
                        // sub-batch would race for the next one (item 20
                        // came back cached from one fleet and fresh from
                        // its twin, once in 12 runs).
                        "--workers",
                        "1",
                        "--hot-entries",
                        "8",
                        "--fault-io",
                        &format!("{}/6", [33, 44, 55][i]),
                    ],
                )
            })
            .collect();
        let router = Router::new(RouterConfig {
            shards: daemons.iter().map(|d| d.endpoint.clone()).collect(),
            retries: 3,
            hedge_after: Duration::from_secs(60),
            io_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            seed: 777,
            hot_threshold: 2,
            ..RouterConfig::default()
        })
        .with_chaos(NetChaos::new(777, 3));
        let mut digests = Vec::new();
        for _ in 0..3 {
            for resp in router.compile_batch(&batch) {
                digests.push(replay_digest(&resp));
            }
        }
        let injected = router.chaos_injected();
        for d in daemons {
            d.shutdown_and_wait();
        }
        (digests, injected)
    };

    let (first, injected_first) = run_fleet("a");
    let (second, injected_second) = run_fleet("b");
    assert_eq!(injected_first, injected_second, "chaos diverged");
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "batch item {i} diverged between same-seed replays");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Warm transfers are torn-transfer-safe and resumable: a payload torn
/// in flight is rejected by the receiver's checksum re-verification
/// (counted, not fatal), and the next rebalance pass lands it intact.
#[test]
fn torn_warm_transfer_is_rejected_then_resumed() {
    let root = tmp_root("torn");
    let daemons: Vec<Daemon> = (0..2)
        .map(|i| {
            spawn_daemon(
                &root.join(format!("t{i}.sock")),
                &root.join(format!("t{i}-cache")),
                &["--workers", "2"],
            )
        })
        .collect();
    let router = Router::new(RouterConfig {
        shards: daemons.iter().map(|d| d.endpoint.clone()).collect(),
        hot_threshold: 1000, // keep auto-replication out of the way
        hedge_after: Duration::from_secs(5),
        retries: 1,
        ..RouterConfig::default()
    })
    // one_in = 0: no random chaos, only the forced torn transfers.
    .with_chaos(NetChaos::new(5, 0));

    let src = axpy(32);
    let (key, expected) = truth(&src);
    let r1 = router.compile(&src, "infl");
    assert_eq!(r1.str_field("status").unwrap(), "ok", "{}", r1.render());
    let owner = r1.str_field("via").unwrap().to_string();
    let target = daemons
        .iter()
        .find(|d| d.endpoint.to_string() != owner)
        .unwrap();

    // Pass 1: the copy is torn mid-flight and must be rejected.
    router.force_torn_transfers(1);
    let (moved, _, failed) = router.rebalance();
    assert_eq!(moved, 0, "a torn transfer must not land");
    assert!(failed >= 1, "the torn transfer was not even attempted");
    let mut c = Client::connect(&target.endpoint).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let fetched = c.request(&fetch(&key)).unwrap();
    assert_eq!(
        fetched.get("found").and_then(Json::as_bool),
        Some(false),
        "receiver stored a torn payload: {}",
        fetched.render()
    );
    let rejected = target.stats();
    assert!(
        rejected
            .get("stats")
            .and_then(|s| s.get("errors"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "rejection must be counted: {}",
        rejected.render()
    );

    // Pass 2: resumable — the same entry lands intact.
    let (moved, _, failed) = router.rebalance();
    assert!(moved >= 1, "rebalance did not resume the failed transfer");
    assert_eq!(failed, 0);
    let fetched = c.request(&fetch(&key)).unwrap();
    assert_eq!(fetched.get("found").and_then(Json::as_bool), Some(true));
    let payload = fetched.get("payload").unwrap();
    assert_eq!(
        fetched.str_field("checksum").unwrap(),
        hex_digest(&payload.render())
    );
    assert_eq!(artifact_blob(payload), expected);
    let accepted = target.stats();
    assert!(
        accepted
            .get("stats")
            .and_then(|s| s.get("transfers_in"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );

    for d in daemons {
        d.shutdown_and_wait();
    }
    let _ = std::fs::remove_dir_all(&root);
}
