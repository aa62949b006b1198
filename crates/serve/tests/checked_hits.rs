//! The checked hit: a request whose text is the canonical text a cache
//! entry stores is answered with that entry's payload bytes, spliced into
//! the reply frame unparsed. These tests pin that such a hit is the reply
//! the decoding path gives, byte for byte, with the same counters, and
//! that an entry that is no well-formed reply is never served.

use polyject_front::{canonical_pj, emit_pj};
use polyject_gpusim::GpuModel;
use polyject_serve::protocol::{batch_item_response, ok_response, Frame};
use polyject_serve::service::Lookup;
use polyject_serve::{
    cache_key, run_daemon, BatchItem, Client, CompileReply, CompileService, DaemonConfig,
    DiskCache, Endpoint, Json, Request, ShardedClient,
};
use std::collections::BTreeSet;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pj-checked-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every distinct Table II item, its source canonical.
fn table2_items() -> Vec<BatchItem> {
    let mut sources = BTreeSet::new();
    for net in polyject_workloads::all_networks() {
        for op in &net.ops {
            if let Ok(src) = emit_pj(&op.build()) {
                sources.insert(canonical_pj(&src).unwrap());
            }
        }
    }
    let configs = ["isl", "novec", "infl"];
    let items = sources
        .iter()
        .flat_map(|src| configs.map(|c| BatchItem::new(src, c)));
    items.collect()
}

/// The reply frame the decoding path renders for `key`'s entry: the whole
/// entry file parsed, its payload decoded and re-encoded.
fn decoded_frame(dir: &Path, key: &str, cached: bool) -> (CompileReply, String) {
    let path = dir.join("entries").join(format!("{key}.json"));
    let mut entry = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let reply = CompileReply::from_json(&entry.take("payload").unwrap()).unwrap();
    let frame = ok_response(&reply, cached).render();
    (reply, frame)
}

/// A hit's frame, which is always its spliced text.
fn rendered(frame: &Frame) -> String {
    let Frame::Ok(text) = frame else {
        panic!("a hit's frame is not spliced text");
    };
    text.clone()
}

#[test]
fn every_table2_hit_frame_is_the_decoded_frame() {
    let items = table2_items();
    assert_eq!(items.len(), 342, "114 Table II sources x 3 configurations");
    let dir = tmpdir("table2");
    let svc = CompileService::new(
        Some(DiskCache::open_default(&dir).unwrap()),
        GpuModel::v100(),
    );
    let keys: Vec<String> = (items.iter())
        .map(|it| svc.serve(&it.src, &it.config).unwrap().0.key)
        .collect();
    // Once every entry landed: the first read of an entry decodes it and
    // answers the reply rendered again, and from the second on its stored
    // text answers (service.rs's `an_entrys_first_read_vouches_...` pins
    // that the second read parses nothing). Both answer the same frames.
    svc.with_cache(|_| ());
    for _ in 0..2 {
        for (item, key) in items.iter().zip(&keys) {
            let Lookup::Hit(answer) = svc.prepare(&item.src, &item.config).unwrap() else {
                panic!("{key} missed");
            };
            let (reply, want) = decoded_frame(&dir, key, true);
            assert_eq!(rendered(&answer.ok_frame(true)), want, "{key}");
            let (_, want) = decoded_frame(&dir, key, false);
            assert_eq!(rendered(&answer.ok_frame(false)), want, "{key}");
            assert_eq!(answer.decode().unwrap(), reply, "{key}");
        }
    }
    let stats = svc.with_cache(|c| c.stats()).unwrap();
    assert_eq!((stats.hits, stats.misses), (2 * 342, 342));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon over `dir` with no hot tier, so every hit reads the disk.
struct Daemon {
    endpoint: Endpoint,
    thread: std::thread::JoinHandle<std::io::Result<Json>>,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let socket = dir.join("d.sock");
        let endpoint = Endpoint::Unix(socket.clone());
        let config = DaemonConfig {
            endpoint: endpoint.clone(),
            workers: 1,
            cache_dir: Some(dir.join("cache")),
            hot_entries: 0,
            ..DaemonConfig::default()
        };
        let thread = std::thread::spawn(move || run_daemon(config));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !Client::connect(&endpoint).is_ok_and(|mut c| c.ping().unwrap_or(false)) {
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(10));
        }
        Daemon { endpoint, thread }
    }

    fn client(&self) -> Client {
        Client::connect(&self.endpoint).unwrap()
    }

    /// The raw bytes of the frames answering `req`, until `frames` arrived.
    fn raw(&self, req: &Request, frames: usize) -> Vec<String> {
        let Endpoint::Unix(path) = &self.endpoint else {
            unreachable!()
        };
        let mut conn = UnixStream::connect(path).unwrap();
        polyject_serve::write_frame(&mut conn, &req.to_json()).unwrap();
        (0..frames)
            .map(|_| {
                let mut len = [0u8; 4];
                conn.read_exact(&mut len).unwrap();
                let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
                conn.read_exact(&mut body).unwrap();
                String::from_utf8(body).unwrap()
            })
            .collect()
    }

    /// `(stats.hits, stats.misses, cache.hits, cache.misses)`.
    fn counters(&self) -> [u64; 4] {
        let report = self.client().stats().unwrap();
        let n = |group: &str, field: &str| report.get(group).unwrap().get(field).unwrap();
        let n = |group, field| n(group, field).as_u64().unwrap();
        [
            n("stats", "hits"),
            n("stats", "misses"),
            n("cache", "hits"),
            n("cache", "misses"),
        ]
    }

    fn stop(self) {
        self.client().shutdown().unwrap();
        self.thread.join().unwrap().unwrap();
    }
}

fn lstm_sources(n: usize) -> Vec<String> {
    (polyject_workloads::lstm().ops.iter())
        .filter_map(|op| emit_pj(&op.build()).ok())
        .map(|src| canonical_pj(&src).unwrap())
        .take(n)
        .collect()
}

#[test]
fn bare_and_enveloped_hit_frames_leave_the_daemon_as_decoded_frames() {
    let dir = tmpdir("wire");
    let daemon = Daemon::start(&dir);
    let sources = lstm_sources(3);
    let items: Vec<BatchItem> = sources.iter().map(|s| BatchItem::new(s, "infl")).collect();
    let keys: Vec<String> = items
        .iter()
        .map(|it| {
            let reply = daemon.client().compile(&it.src, &it.config).unwrap();
            assert_eq!(reply.get("cached"), Some(&Json::Bool(false)));
            reply.str_field("key").unwrap().to_string()
        })
        .collect();
    // Twice: the first hit decodes each entry, the second splices it.
    for _ in 0..2 {
        for (item, key) in items.iter().zip(&keys) {
            let (_, want) = decoded_frame(&dir.join("cache"), key, true);
            let bare = Request::compile(&item.src, &item.config, None);
            assert_eq!(daemon.raw(&bare, 1)[0], want, "{key}");
            let batch = Request::compile_batch(vec![item.clone()], None);
            let frames = daemon.raw(&batch, 2);
            let reply = Json::parse(&want).unwrap();
            assert_eq!(frames[0], batch_item_response(0, 1, reply).render());
        }
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reformatted_source_is_the_same_hit_with_the_same_counters() {
    let dir = tmpdir("reformat");
    let daemon = Daemon::start(&dir);
    let canonical = lstm_sources(1).remove(0);
    // Blank lines, comments and doubled spaces: the same kernel.
    let noisy = format!("\n# a comment\n{}\n", canonical.replace(' ', "  "));
    assert_ne!(noisy, canonical);
    assert_eq!(canonical_pj(&noisy).unwrap(), canonical);
    let mut client = daemon.client();
    let fresh = client.compile(&canonical, "infl").unwrap();
    assert_eq!(fresh.get("cached"), Some(&Json::Bool(false)));
    // Each kind of request twice, so both a decoding and a splicing read
    // are measured.
    let mut deltas = Vec::new();
    for src in [&canonical, &canonical, &noisy, &noisy] {
        let before = daemon.counters();
        let reply = client.compile(src, "infl").unwrap();
        let after = daemon.counters();
        assert_eq!(reply.get("cached"), Some(&Json::Bool(true)), "{src}");
        for field in [
            "key",
            "kernel",
            "canonical_pj",
            "code",
            "cuda",
            "schedule",
            "timing",
        ] {
            assert_eq!(reply.get(field), fresh.get(field), "{field}");
        }
        deltas.push([0, 1, 2, 3].map(|i| after[i] - before[i]));
    }
    assert!(deltas.iter().all(|d| *d == [1, 0, 1, 0]), "{deltas:?}");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-shard client sends a source as given: the daemon canonicalises
/// a hand-formatted spelling, and its repeat is the canonical spelling's
/// hit, byte for byte.
#[test]
fn a_one_shard_client_sends_a_hand_formatted_source_to_the_same_hit() {
    let dir = tmpdir("oneshard");
    let daemon = Daemon::start(&dir);
    let canonical = lstm_sources(1).remove(0);
    let noisy = format!("\n# a comment\n{}\n", canonical.replace(' ', "  "));
    let mut sc = ShardedClient::new(vec![daemon.endpoint.clone()], GpuModel::v100());
    let cached = |reply: &Json| reply.get("cached").and_then(Json::as_bool);
    assert_eq!(cached(&sc.compile(&noisy, "infl").unwrap()), Some(false));
    let again = sc.compile(&noisy, "infl").unwrap();
    assert_eq!(cached(&again), Some(true), "{}", again.render());
    let spelled = sc.compile(&canonical, "infl").unwrap();
    assert_eq!(again.render(), spelled.render());
    assert_eq!(daemon.counters(), [2, 1, 2, 1]);
    drop(sc);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed entry under `key` whose payload is `payload`.
fn put(dir: &Path, key: &str, payload: &Json) {
    DiskCache::open_default(dir)
        .unwrap()
        .put(key, "compile", payload)
        .unwrap();
}

/// Entries planted under a request's key: none may answer it, whether it
/// is no reply, or a reply to other canonical text.
#[test]
fn an_entry_that_is_no_well_formed_reply_is_never_served() {
    let gpu = GpuModel::v100();
    let sources = lstm_sources(2);
    let (canonical, other) = (sources[0].clone(), &sources[1]);
    let key = cache_key(&canonical, "infl", &gpu);
    let good = CompileService::new(None, gpu.clone())
        .serve(&canonical, "infl")
        .unwrap()
        .0;
    let mut missing = good.to_json();
    missing.take("code");
    // A reply whose canonical text is not canonical, filed under that
    // text's own hash: its `canonical_pj` equals what a client sends.
    let noisy = format!("{canonical}\n");
    let mut bent = good.clone();
    bent.canonical_pj = noisy.clone();
    // Another kernel's reply, filed under the hash of `noisy`: its
    // canonical text is a fixpoint, so its second read is stored text.
    let elsewhere = CompileService::new(None, gpu.clone());
    let foreign = elsewhere.serve(other, "infl").unwrap().0;
    assert_ne!(foreign.cuda, good.cuda);
    let cases = [
        (
            "no reply",
            key.clone(),
            Json::obj(vec![("not", Json::Str("a reply".into()))]),
            &canonical,
        ),
        ("missing code", key.clone(), missing, &canonical),
        (
            "no fixpoint",
            cache_key(&noisy, "infl", &gpu),
            bent.to_json(),
            &noisy,
        ),
        (
            "another kernel",
            cache_key(&noisy, "infl", &gpu),
            foreign.to_json(),
            &noisy,
        ),
    ];
    for (what, key, payload, src) in cases {
        let dir = tmpdir("planted");
        put(&dir, &key, &payload);
        let svc = CompileService::new(Some(DiskCache::open_default(&dir).unwrap()), gpu.clone());
        for _ in 0..2 {
            let (reply, _) = svc.serve(src, "infl").unwrap();
            assert_eq!(reply.cuda, good.cuda, "{what}");
            assert_eq!(reply.canonical_pj, canonical, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A transfer lands such a payload; a daemon never serves it.
    let dir = tmpdir("transfer");
    let daemon = Daemon::start(&dir);
    let payload = Json::obj(vec![("canonical_pj", Json::Str(canonical.clone()))]);
    let checksum = polyject_serve::hash::hex_digest(&payload.render());
    let kind = "compile".to_string();
    let transfer = Request::Transfer {
        key,
        kind,
        payload,
        checksum,
    };
    let mut client = daemon.client();
    let stored = client.request(&transfer).unwrap();
    assert_eq!(
        stored.get("stored"),
        Some(&Json::Bool(true)),
        "{}",
        stored.render()
    );
    for _ in 0..2 {
        let reply = client.compile(&canonical, "infl").unwrap();
        assert_eq!(reply.str_field("status"), Ok("ok"), "{}", reply.render());
        assert_eq!(reply.str_field("cuda"), Ok(good.cuda.as_str()));
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
