//! End-to-end daemon test: spawn the real `polyjectd` binary on a
//! temporary Unix socket, hammer it with concurrent clients over Table II
//! operators, and check every reply byte-identical to a direct
//! in-process compile.

#![cfg(unix)]

mod common;

use common::Daemon;
use polyject_front::emit_pj;
use polyject_gpusim::GpuModel;
use polyject_serve::{compile_reply, BatchItem, Client, Endpoint, Json, Request, ShardedClient};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spawns a daemon in its own scratch directory (`tag` keeps the tests
/// of this file, which run in parallel, off each other's socket and
/// cache).
fn spawn(tag: &str, extra: &[&str]) -> Daemon {
    let dir = std::env::temp_dir().join(format!("pj-daemon-it-{tag}-{}", std::process::id()));
    let cache = dir.join("cache");
    let mut args = vec!["--cache-dir", cache.to_str().unwrap()];
    args.extend(extra);
    Daemon::spawn(&dir.join("d.sock"), &args, Some(dir))
}

/// The reply fields a client actually consumes, as one comparable blob.
fn artifact_blob(resp: &Json) -> String {
    let f = |k: &str| resp.str_field(k).unwrap_or("<missing>").to_string();
    format!(
        "key={}\ncanonical={}\ncode={}\ncuda={}\nschedule={}\nschedtree={}\ntiming={}",
        f("key"),
        f("canonical_pj"),
        f("code"),
        f("cuda"),
        f("schedule"),
        f("schedule_tree"),
        resp.get("timing").map(Json::render).unwrap_or_default(),
    )
}

#[test]
fn concurrent_clients_get_byte_identical_replies() {
    let daemon = spawn("concurrent", &["--workers", "2"]);

    // Table II operators (the LSTM network's), expressed as .pj source.
    let sources: Vec<String> = polyject_workloads::lstm()
        .ops
        .iter()
        .filter_map(|op| emit_pj(&op.build()).ok())
        .take(3)
        .collect();
    assert!(
        sources.len() >= 2,
        "need at least two expressible operators"
    );

    // The ground truth: a direct in-process compile of each operator.
    let gpu = GpuModel::v100();
    let expected: Vec<String> = sources
        .iter()
        .map(|src| {
            artifact_blob(&polyject_serve::protocol::ok_response(
                &compile_reply(src, "infl", &gpu).unwrap(),
                false,
            ))
        })
        .collect();

    // Four concurrent clients, each compiling every operator.
    let sources = Arc::new(sources);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let sources = Arc::clone(&sources);
            let endpoint = daemon.endpoint.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                sources
                    .iter()
                    .map(|src| client.compile(src, "infl").unwrap())
                    .collect::<Vec<Json>>()
            })
        })
        .collect();
    for handle in handles {
        let replies = handle.join().unwrap();
        for (resp, want) in replies.iter().zip(&expected) {
            assert_eq!(resp.str_field("status").unwrap(), "ok");
            assert_eq!(artifact_blob(resp), *want);
        }
    }

    // A second round is served entirely out of the persistent cache.
    let mut client = Client::connect(&daemon.endpoint).unwrap();
    for (src, want) in sources.iter().zip(&expected) {
        let resp = client.compile(src, "infl").unwrap();
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(artifact_blob(&resp), *want);
    }

    // Stats reflect the traffic, and shutdown is graceful.
    let stats = client.stats().unwrap();
    let n = |k: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    let total = sources.len() as u64;
    assert_eq!(n("misses"), total, "{}", stats.render());
    assert_eq!(n("hits") + n("coalesced"), 4 * total, "{}", stats.render());
    assert_eq!(n("errors"), 0);

    daemon.shutdown_and_wait();
}

#[test]
fn daemon_survives_bad_requests() {
    let daemon = spawn("bad-requests", &["--workers", "2"]);
    let mut client = Client::connect(&daemon.endpoint).unwrap();

    // Parse errors and unknown configs come back as error responses …
    let resp = client.compile("kernel broken (", "infl").unwrap();
    assert_eq!(resp.str_field("status").unwrap(), "error");
    let resp = client.compile("kernel k\n", "nonsense").unwrap();
    assert_eq!(resp.str_field("status").unwrap(), "error");

    // … and the worker lives on to serve the next request.
    assert!(client.ping().unwrap());
    let resp = client
        .compile(
            "kernel ok\ntensor t[8]: f32\nstmt S for (i in 0..8)\n  t[i] = (t[i] + 1.0)\n",
            "isl",
        )
        .unwrap();
    assert_eq!(resp.str_field("status").unwrap(), "ok");
}

/// Requests built to take the process down, not just the request: each
/// is answered with a structured error and the daemon goes on. The two
/// nesting bombs used to overflow a thread's stack, which aborts the
/// process (no `catch_unwind` sees it); the bad surrogate pair panicked
/// debug builds and decoded to the wrong character in release ones.
#[test]
fn requests_built_to_kill_the_daemon_get_structured_errors() {
    use polyject_serve::protocol::MAX_FRAME;
    let daemon = spawn("killers", &["--workers", "1"]);
    let framed = |body: &[u8]| [&(body.len() as u32).to_be_bytes()[..], body].concat();
    // Malformed frames: answered, then the poisoned connection is dropped.
    for (what, bytes) in [
        ("20 000 open brackets", framed(&b"[".repeat(20_000))),
        (
            "an unpaired surrogate",
            framed(br#"{"op":"ping","note":"\ud800\u0041"}"#),
        ),
        (
            "a length prefix above MAX_FRAME",
            (MAX_FRAME + 1).to_be_bytes().to_vec(),
        ),
    ] {
        let mut raw = Client::connect(&daemon.endpoint).unwrap();
        raw.inject_raw(&bytes).unwrap();
        let reply = raw
            .read_response()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(reply.str_field("status"), Ok("error"), "{what}");
        assert!(raw.read_response().is_err(), "{what}: connection kept");
    }
    // Well-framed compiles whose source is the bomb: ordinary parse
    // errors, on a connection that stays usable.
    let mut client = Client::connect(&daemon.endpoint).unwrap();
    let head = "kernel k\nparam N = 8\ntensor A[N]: f32\ntensor B[N]: f32\n";
    let stmt = |expr: &str| format!("{head}stmt S for (i in 0..N) B[i] = {expr}\n");
    let parens = format!("{}A[i]{}", "(".repeat(5_000), ")".repeat(5_000));
    let sum = vec!["A[i]"; 100_000].join(" + ");
    let garbage = "\u{1}garbage \"quoted\" \\ é雪 ".repeat((4 << 20) / 24);
    for (what, src) in [
        ("5 000 nested parentheses", stmt(&parens)),
        ("a sum of 100 000 terms", stmt(&sum)),
        ("4 MiB of garbage", garbage),
    ] {
        let reply = client.compile(&src, "infl").unwrap();
        assert_eq!(reply.str_field("status"), Ok("error"), "{what}");
        assert!(reply.get("retryable").is_none(), "{what}: a parse error");
    }
    assert!(client.ping().unwrap());
    let report = client.stats().unwrap();
    let recovered = report.get("governance").unwrap().get("panics_recovered");
    assert_eq!(recovered.and_then(Json::as_u64), Some(0));
}

/// A cache hit is answered by the connection thread that read it: it
/// does not queue behind whatever the workers are compiling (it waited
/// out the whole compile when hits, too, were handed to the pool). What
/// it does not skip is admission: with the queue full it is shed.
#[test]
fn a_cached_answer_does_not_wait_for_a_busy_worker() {
    const SRC: &str = "kernel axpy\nparam N = 64\ntensor X[N]: f32\ntensor Y[N]: f32\n\
                       stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]\n";
    let daemon = spawn("no-hol", &["--workers", "1", "--queue-bound", "2"]);
    let mut client = Client::connect(&daemon.endpoint).unwrap();
    let cold = client.compile(SRC, "infl").unwrap();
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)));

    // No poll on the request path: a hit over a fresh connection read
    // ~20 ms while the accept loop slept between polls, ~0.2 ms since.
    let mut hit_ms: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let hit = Client::connect(&daemon.endpoint)
                .and_then(|mut c| c.compile(SRC, "infl"))
                .unwrap();
            assert_eq!(hit.get("cached"), Some(&Json::Bool(true)), "{hit:?}");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    hit_ms.sort_by(f64::total_cmp);
    let p50 = hit_ms[hit_ms.len() / 2];
    assert!(
        p50 <= 10.0,
        "new-connection hit p50 {p50:.2} ms: a poll is back"
    );

    // Starts a seconds-long compile on a connection of its own, and
    // returns once the daemon has taken the request in.
    let occupy = |client: &mut Client, id: &'static str| {
        let requests = |c: &mut Client| {
            let report = c.stats().unwrap();
            report
                .get("stats")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        let before = requests(client);
        let endpoint = daemon.endpoint.clone();
        let held = std::thread::spawn(move || {
            let mut c = Client::connect(&endpoint).unwrap();
            let slow = Request::compile(&common::slow_src(id, 128), "infl", Some(id.into()));
            c.request(&slow).unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        // (Each poll is a request too.)
        while requests(client) - before < 2 {
            assert!(Instant::now() < deadline, "{id} never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        held
    };
    let first = occupy(&mut client, "occupier_a");
    let hits_before = counters(&mut client)[0];
    let t0 = Instant::now();
    let warm = client.compile(SRC, "infl").unwrap();
    let took = t0.elapsed();
    assert_eq!(warm.get("cached"), Some(&Json::Bool(true)), "{warm:?}");
    assert!(took < Duration::from_millis(100), "the hit took {took:?}");
    assert_eq!(counters(&mut client)[0], hits_before + 1);

    // A second occupier queues behind the first and takes the last slot.
    let second = occupy(&mut client, "occupier_b");
    let shed = client.compile(SRC, "infl").unwrap();
    assert_eq!(shed.str_field("status"), Ok("overloaded"), "{shed:?}");

    // Both compiles were still in flight all along: each is there to be
    // cancelled, and reports so.
    for (id, held) in [("occupier_a", first), ("occupier_b", second)] {
        let cancelled = client.request(&Request::Cancel { req: id.into() }).unwrap();
        assert_eq!(cancelled.get("cancelled"), Some(&Json::Bool(true)), "{id}");
        let aborted = held.join().unwrap();
        assert_eq!(aborted.get("retryable"), Some(&Json::Bool(true)), "{id}");
    }
}

/// In-batch dedup keys on the submitted text, so two spellings of one
/// kernel both reach the lookup, both miss, and both go to the pool —
/// where the second finds the first one's flight, or its cached reply:
/// one compile either way.
#[test]
fn two_spellings_of_one_kernel_in_a_batch_compile_once() {
    let plain = "kernel axpy\nparam N = 96\ntensor X[N]: f32\ntensor Y[N]: f32\n\
                 stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]\n";
    let noisy = "# the same kernel\n\nkernel axpy\nparam N = 96\ntensor X[N]: f32\n\
                 tensor Y[N]: f32\nstmt S for (i in 0..N)\n  Y[i] = ((2.0 * X[i]) + Y[i])\n";
    for workers in ["1", "2"] {
        let daemon = spawn(&format!("spellings-{workers}"), &["--workers", workers]);
        let mut client = Client::connect(&daemon.endpoint).unwrap();
        let items = [BatchItem::new(plain, "infl"), BatchItem::new(noisy, "infl")];
        let replies = client.compile_batch(&items, None).unwrap();
        assert_eq!(replies[0].str_field("status"), Ok("ok"));
        assert_eq!(artifact_blob(&replies[0]), artifact_blob(&replies[1]));
        let [hits, misses, coalesced, errors, ..] = counters(&mut client);
        assert_eq!(misses, 1, "{workers} worker(s): compiled twice");
        assert_eq!((hits + coalesced, errors), (1, 0), "{workers} worker(s)");
    }
}

/// SIGTERM is the one stop no request thread can deliver: the handler
/// only sets a flag, and the listener's housekeeping tick has to turn
/// that into a wake-up. The daemon must exit 0 within 2 s with peers of
/// every kind still attached, and dump its final stats on stdout.
#[test]
fn sigterm_exits_promptly_with_final_stats() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    let mut daemon = spawn("sigterm", &[]);
    let Endpoint::Unix(socket) = daemon.endpoint.clone() else {
        unreachable!("spawned on a Unix socket")
    };
    // One peer that never sends a byte, one stopped inside a frame, and
    // one idle after a request, as a connection pool keeps them.
    let silent = UnixStream::connect(&socket).unwrap();
    let mut mid_frame = UnixStream::connect(&socket).unwrap();
    mid_frame.write_all(&100u32.to_be_bytes()).unwrap();
    let mut pooled = Client::connect(&daemon.endpoint).unwrap();
    assert!(pooled.ping().unwrap());
    // A second server probing the socket connects and hangs up without a
    // byte, as the daemon's own wake-up will.
    let refused = polyject_serve::transport::Listener::bind(&daemon.endpoint);
    assert!(refused.is_err(), "a live socket was stolen");

    let t0 = Instant::now();
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let status = loop {
        if let Some(status) = daemon.child.try_wait().unwrap() {
            break status;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "polyjectd still running 2 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "{status:?}");
    let mut report = String::new();
    let mut stdout = daemon.child.stdout.take().expect("piped stdout");
    stdout.read_to_string(&mut report).unwrap();
    let report = Json::parse(report.trim()).expect("final stats JSON on stdout");
    let stats = report.get("stats").expect("stats section");
    // The readiness ping and the pooled peer's ping: neither the silent
    // peers, the probe nor the wake-up count as requests or errors.
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(0));
    drop((silent, mid_frame, pooled));
}

/// The counters the equivalence below compares, in a fixed order:
/// hits, misses, coalesced, errors, overloaded, latency.count,
/// batch_requests, batch_items.
fn counters(client: &mut Client) -> [u64; 8] {
    let report = client.stats().unwrap();
    let stats = report.get("stats").expect("stats section");
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).expect(k);
    let samples = stats.get("latency").and_then(|l| l.get("count"));
    [
        n("hits"),
        n("misses"),
        n("coalesced"),
        n("errors"),
        n("overloaded"),
        samples.and_then(Json::as_u64).expect("latency.count"),
        n("batch_requests"),
        n("batch_items"),
    ]
}

/// A source that does not parse reads alike on every path: a one-shard
/// client sends it unkeyed, and the daemon's answer is the text a keyed
/// client gives with no shard contacted, `parse error: <line>:<col>: …`.
#[test]
fn a_one_shard_client_reads_the_keyed_parse_error() {
    let daemon = spawn("parse-error", &["--workers", "1"]);
    let gpu = GpuModel::v100();
    let mut one = ShardedClient::new(vec![daemon.endpoint.clone()], gpu.clone());
    let unreachable = Endpoint::parse("/nonexistent/pj-parse-error.sock").unwrap();
    let mut keyed = ShardedClient::new(vec![daemon.endpoint.clone(), unreachable], gpu);
    for bad in ["kernel broken (", "kernel k\nparam N = \n"] {
        let local = keyed.compile(bad, "infl").unwrap();
        let remote = one.compile(bad, "infl").unwrap();
        assert_eq!(remote.render(), local.render(), "{bad:?}");
        let message = remote.str_field("message").unwrap();
        let (line, rest) = message
            .strip_prefix("parse error: ")
            .unwrap()
            .split_once(':')
            .unwrap();
        let col = rest.split_once(':').unwrap().0;
        assert!(
            line.parse::<u32>().is_ok() && col.parse::<u32>().is_ok(),
            "{message}"
        );
    }
    let report = Client::connect(&daemon.endpoint).unwrap().stats().unwrap();
    let errors = report.get("stats").unwrap().get("errors");
    assert_eq!(
        errors.and_then(Json::as_u64),
        Some(2),
        "only the one-shard client asked"
    );
}

/// The equivalence the one request path rests on: a `compile` is a
/// `compile_batch` of one. The same five-case script — cold miss, warm
/// hit, parse error, unknown config, overloaded queue — runs against two
/// fresh daemons, one asked through `Client::compile`, the other through
/// `Client::compile_batch(&[item])[0]`. Case by case the replies must
/// render byte-identically and move the daemon's counters by the same
/// deltas; only `batch_requests` / `batch_items` may tell the forms
/// apart, counting the enveloped one alone.
#[test]
fn single_compile_is_a_batch_of_one() {
    const SRC: &str = "kernel axpy\nparam N = 64\ntensor X[N]: f32\ntensor Y[N]: f32\n\
                       stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]\n";
    type Ask = fn(&mut Client, &str, &str) -> Json;
    let single: Ask = |c, src, config| c.compile(src, config).unwrap();
    let enveloped: Ask = |c, src, config| {
        let mut replies = c
            .compile_batch(&[BatchItem::new(src, config)], None)
            .unwrap();
        assert_eq!(replies.len(), 1);
        replies.remove(0)
    };

    // Runs the script through one form; returns each case's rendered
    // reply and counter deltas.
    let script = |tag: &str, ask: Ask| -> Vec<(String, [u64; 8])> {
        // One worker, one queue slot: a single slow compile in flight
        // fills the queue.
        let daemon = spawn(tag, &["--workers", "1", "--queue-bound", "1"]);
        let mut client = Client::connect(&daemon.endpoint).unwrap();
        let case = |client: &mut Client, src: &str, config: &str| {
            let before = counters(client);
            let reply = ask(client, src, config);
            let after = counters(client);
            let delta: [u64; 8] = std::array::from_fn(|i| after[i] - before[i]);
            // `compile_ms` is the wall clock of the one fresh compile
            // behind a key (hits replay it) — the only field that
            // legitimately differs between two daemons.
            let rendered = match reply {
                Json::Obj(fields) => Json::Obj(
                    fields
                        .into_iter()
                        .filter(|(k, _)| k != "compile_ms")
                        .collect(),
                ),
                other => other,
            };
            (rendered.render(), delta)
        };
        let mut cases = vec![
            case(&mut client, SRC, "infl"),               // cold miss
            case(&mut client, SRC, "infl"),               // warm hit
            case(&mut client, "kernel broken (", "infl"), // parse error
            case(&mut client, SRC, "nonsense"),           // unknown config
        ];
        // Overloaded: a tagged slow compile on a second connection holds
        // the only slot; it is cancelled by id once the probe is done.
        let occupier = {
            let endpoint = daemon.endpoint.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&endpoint).unwrap();
                loop {
                    // Shed only if it raced a probe for the slot: retry.
                    let resp = c
                        .request(&Request::compile(
                            &common::slow_src("chain", 128),
                            "infl",
                            Some("occupy".into()),
                        ))
                        .unwrap();
                    if resp.str_field("status") != Ok("overloaded") {
                        break resp;
                    }
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let overloaded = loop {
            // Until the occupier is admitted a probe is a plain warm hit
            // (or races it for the slot): only a shed probe counts.
            let probe = case(&mut client, SRC, "infl");
            if probe.0.contains("\"status\":\"overloaded\"") {
                break probe;
            }
            assert!(Instant::now() < deadline, "queue never filled");
            std::thread::sleep(Duration::from_millis(5));
        };
        cases.push(overloaded);
        let cancelled = client
            .request(&Request::Cancel {
                req: "occupy".into(),
            })
            .unwrap();
        assert_eq!(cancelled.get("cancelled"), Some(&Json::Bool(true)));
        let aborted = occupier.join().unwrap();
        assert_eq!(aborted.get("retryable"), Some(&Json::Bool(true)));
        cases
    };

    let bare = script("equiv-single", single);
    let wrapped = script("equiv-batch", enveloped);
    //                 hits miss coal errs over lat
    let expected = [
        ("cold miss", "\"cached\":false", [0, 1, 0, 0, 0, 1]),
        ("warm hit", "\"cached\":true", [1, 0, 0, 0, 0, 1]),
        (
            "parse error",
            "\"message\":\"parse error: ",
            [0, 0, 0, 1, 0, 0],
        ),
        ("unknown config", "unknown config", [0, 0, 0, 1, 0, 0]),
        (
            "overloaded",
            "\"status\":\"overloaded\"",
            [0, 0, 0, 0, 1, 0],
        ),
    ];
    assert_eq!(bare.len(), expected.len());
    for (((name, marker, delta), one), many) in expected.iter().zip(&bare).zip(&wrapped) {
        assert!(one.0.contains(marker), "{name}: {}", one.0);
        assert_eq!(one.0, many.0, "{name}: the two forms rendered differently");
        assert_eq!(one.1[..6], delta[..], "{name}: single-form counter deltas");
        assert_eq!(many.1[..6], delta[..], "{name}: batch-form counter deltas");
        assert_eq!(
            one.1[6..],
            [0, 0],
            "{name}: a bare compile is no batch request"
        );
        assert_eq!(
            many.1[6..],
            [1, 1],
            "{name}: one enveloped request, one item"
        );
    }
}
