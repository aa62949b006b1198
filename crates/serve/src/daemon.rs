//! The `polyjectd` daemon: request dispatch, backpressure, per-request
//! timeouts, and graceful shutdown over the shared [`transport`].
//!
//! One thread per connection reads frames. Every compile (a `compile` is
//! a `compile_batch` of one, answered bare) takes one path, `serve_items`:
//! the connection thread answers cache hits, and misses go to a shared
//! [`WorkerPool`] behind a bounded pending count (`overloaded` past it).
//! SIGTERM/SIGINT or `shutdown` stops accepting, drains in-flight work and
//! the write-behind queue, flushes the cache index and dumps final stats.

use crate::cache::DiskCache;
use crate::client::Endpoint;
use crate::faults::{FaultyIo, RealIo};
use crate::hash::hex_digest;
use crate::hot::DEFAULT_HOT_ENTRIES;
use crate::json::Json;
use crate::pool::{default_workers, WorkerPool};
use crate::protocol::{
    error_response, ok_with, overloaded_response, retryable_error_response, write_frame, Answer,
    BatchItem, Frame, ReplyWriter, Request, Verdict, MAX_FRAME,
};
use crate::service::{CompileService, Lookup, Served};
use crate::stats::ServeStats;
use crate::transport::{self, Listener};
use polyject_core::Budget;
use polyject_gpusim::GpuModel;
use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// SIGTERM/SIGINT set a flag through the C `signal` function of the libc
/// already linked: the one place in the workspace that touches `unsafe`.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler; watched by the listener's housekeeping tick.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe operations here.
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the flag-setting handler for SIGTERM and SIGINT.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;

    /// Never set on platforms without POSIX signals.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    /// No-op.
    pub fn install() {}
}

/// Configuration of one daemon instance.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Compile worker threads.
    pub workers: usize,
    /// Maximum compile requests pending (queued + executing) before new
    /// ones are answered `overloaded`.
    pub queue_bound: usize,
    /// Per-request compile deadline.
    pub request_timeout: Duration,
    /// Persistent cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Cache payload byte budget.
    pub cache_max_bytes: u64,
    /// Maximum accepted request frame size in bytes, at most [`MAX_FRAME`];
    /// a larger length prefix is answered with an error, unallocated.
    pub max_frame: u32,
    /// GPU model requests compile against.
    pub gpu: GpuModel,
    /// In-memory hot-tier capacity in entries (`0`, or no cache
    /// directory, disables the tier).
    pub hot_entries: usize,
    /// `Some((seed, one_in))`: the cache over a [`FaultyIo`] faulting
    /// about one in `one_in` data operations (chaos suites).
    pub cache_faults: Option<(u64, usize)>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            endpoint: Endpoint::Unix(std::env::temp_dir().join("polyjectd.sock")),
            workers: default_workers(),
            queue_bound: 64,
            request_timeout: Duration::from_secs(120),
            cache_dir: None,
            cache_max_bytes: crate::cache::DEFAULT_MAX_BYTES,
            max_frame: MAX_FRAME,
            gpu: GpuModel::v100(),
            hot_entries: DEFAULT_HOT_ENTRIES,
            cache_faults: None,
        }
    }
}

struct Shared {
    service: CompileService,
    pool: WorkerPool,
    stats: Mutex<ServeStats>,
    stop: AtomicBool,
    pending: AtomicUsize,
    queue_bound: usize,
    request_timeout: Duration,
    max_frame: u32,
    /// This daemon's endpoint: the shard identity `metrics` reports.
    endpoint: String,
    /// Cancel flags of in-flight requests that carry an id.
    cancel_reg: Mutex<HashMap<String, Arc<AtomicBool>>>,
    /// Injected-fault counter of the cache's [`FaultyIo`], if any.
    io_faults: Option<Arc<AtomicU64>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || sig::STOP.load(Ordering::SeqCst)
    }

    fn stats(&self) -> MutexGuard<'_, ServeStats> {
        self.stats.lock().expect("stats lock poisoned")
    }

    /// The stats report (`stats` and `metrics` alike): shard identity,
    /// daemon counters and the cache's own view.
    fn stats_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let io_faults = self
            .io_faults
            .as_ref()
            .map_or(0, |c| c.load(Ordering::SeqCst));
        let (hot_entries, hot_hits) = self.service.hot_stats().unwrap_or((0, 0));
        let mut evictions = 0;
        let cache = self.service.with_cache(|c| {
            let s = c.stats();
            evictions = s.evictions;
            Json::obj(vec![
                ("entries", n(c.len() as u64)),
                ("bytes", n(c.total_bytes())),
                ("hits", n(s.hits)),
                ("misses", n(s.misses)),
                ("puts", n(s.puts)),
                ("evictions", n(s.evictions)),
                ("errors", n(s.errors)),
                ("hot_entries", n(hot_entries as u64)),
                ("hot_hits", n(hot_hits)),
                ("io_faults_injected", n(io_faults)),
            ])
        });
        let mut stats = self.stats();
        stats.evictions = evictions;
        let gov = self.service.governance();
        let panics = gov.panics_recovered + self.pool.panics_recovered();
        let governance = Json::obj(vec![
            ("degraded_solves", n(gov.degraded_solves)),
            ("cancelled_solves", n(gov.cancelled_solves)),
            ("panics_recovered", n(panics)),
            ("tuned_applied", n(gov.tuned_applied)),
        ]);
        ok_with(vec![
            ("shard", Json::Str(self.endpoint.clone())),
            ("stats", stats.to_json()),
            ("governance", governance),
            ("cache", cache.unwrap_or(Json::Null)),
        ])
    }
}

/// Answers one request frame on `out` (a compile through [`serve_items`]
/// and a [`ReplyWriter`] of its framing). Returns `false` when the
/// connection should close.
fn dispatch<W: Write>(shared: &Arc<Shared>, frame: &Json, out: &mut W) -> bool {
    shared.stats().requests += 1;
    let req = match Request::from_json(frame) {
        Ok(r) => r,
        Err(e) => {
            shared.stats().errors += 1;
            return write_frame(out, &error_response(&e)).is_ok();
        }
    };
    let reply = match req {
        Request::Compile {
            items,
            req,
            framing,
        } => {
            let out = ReplyWriter::new(out, framing, items.len());
            return serve_items(shared, out, &items, req);
        }
        Request::Ping => ok_with(vec![("pong", Json::Bool(true))]),
        Request::Stats | Request::Metrics => shared.stats_json(),
        Request::Cancel { req } => {
            let flag = shared
                .cancel_reg
                .lock()
                .expect("cancel registry poisoned")
                .get(&req)
                .cloned();
            if let Some(f) = &flag {
                f.store(true, Ordering::SeqCst);
                shared.stats().cancels += 1;
            }
            ok_with(vec![("cancelled", Json::Bool(flag.is_some()))])
        }
        Request::Keys => {
            let list = shared.service.with_cache(|c| c.list()).unwrap_or_default();
            let keys = list.into_iter().map(|(key, kind, _, _)| {
                Json::obj(vec![("key", Json::Str(key)), ("kind", Json::Str(kind))])
            });
            ok_with(vec![("keys", Json::Arr(keys.collect()))])
        }
        Request::Fetch { key } => {
            let entry = shared.service.with_cache(|c| c.get(&key)).flatten();
            let mut fields = vec![
                ("found", Json::Bool(entry.is_some())),
                ("key", Json::Str(key)),
            ];
            if let Some((kind, payload)) = entry {
                let checksum = hex_digest(&payload.render());
                fields.push(("kind", Json::Str(kind)));
                fields.push(("payload", payload));
                fields.push(("checksum", Json::Str(checksum)));
            }
            ok_with(fields)
        }
        Request::Transfer {
            key,
            kind,
            payload,
            checksum,
        } => serve_transfer(shared, &key, &kind, &payload, &checksum),
        Request::Join { .. } | Request::Leave { .. } => {
            error_response("membership changes are a polyject-router operation")
        }
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            let _ = write_frame(out, &ok_with(vec![("stopping", Json::Bool(true))]));
            return false;
        }
    };
    write_frame(out, &reply).is_ok()
}

/// Stores a pushed cache entry whose payload matches the sender's
/// checksum: a torn transfer never lands, so retrying is safe.
fn serve_transfer(
    shared: &Arc<Shared>,
    key: &str,
    kind: &str,
    payload: &Json,
    checksum: &str,
) -> Json {
    let actual = hex_digest(&payload.render());
    if actual != checksum {
        shared.stats().errors += 1;
        return retryable_error_response(&format!(
            "transfer of {key} torn in flight: payload digests to {actual}, sender claimed {checksum}"
        ));
    }
    match shared.service.with_cache(|c| c.put(key, kind, payload)) {
        None => error_response("no cache attached; transfers need --cache-dir"),
        Some(Err(e)) => {
            shared.stats().errors += 1;
            retryable_error_response(&format!("transfer of {key} failed to persist: {e}"))
        }
        Some(Ok(())) => {
            shared.stats().transfers_in += 1;
            ok_with(vec![
                ("stored", Json::Bool(true)),
                ("key", Json::Str(key.to_string())),
            ])
        }
    }
}

/// Reserves up to `want` queue slots in one atomic update, the only place
/// `pending` grows: no interleaving of requests slips past `queue_bound`.
fn reserve_slots(shared: &Shared, want: usize) -> usize {
    let free = |cur: usize| want.min(shared.queue_bound.saturating_sub(cur));
    let (seq, pending) = (Ordering::SeqCst, &shared.pending);
    let cur = pending.fetch_update(seq, seq, |cur| Some(cur + free(cur)));
    free(cur.expect("the update always applies"))
}

/// The one compile path, for N items (a `compile` is N = 1): admission
/// ([`reserve_slots`]; the tail is answered `overloaded` at once), dedup of
/// identical `(src, config)` items, then each unique item prepared on this
/// connection thread, so a hit never waits for a worker. Misses go to the
/// pool under one cancel flag (registered by request id), answered as
/// they land until settled or the deadline cancels the rest.
///
/// Every lookup happens, in item order, before the first miss is
/// submitted, so a one-worker daemon over a [`FaultyIo`] replays
/// identically. Returns `false` when the connection died.
fn serve_items<W: Write>(
    shared: &Arc<Shared>,
    mut out: ReplyWriter<'_, W>,
    items: &[BatchItem],
    req_id: Option<String>,
) -> bool {
    let enveloped = out.enveloped();
    if enveloped {
        let mut stats = shared.stats();
        stats.batch_requests += 1;
        stats.batch_items += items.len() as u64;
    }
    let granted = reserve_slots(shared, items.len());
    let deadline = Instant::now() + shared.request_timeout;

    // The first occurrence of each (src, config) is the primary; later
    // ones ride its result, their slots released at once.
    let mut primary_of: HashMap<(&str, &str), usize> = HashMap::new();
    let mut riders: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut primaries: Vec<usize> = Vec::new();
    for (i, it) in items[..granted].iter().enumerate() {
        match primary_of.entry((it.src.as_str(), it.config.as_str())) {
            Entry::Occupied(e) => riders.entry(*e.get()).or_default().push(i),
            Entry::Vacant(v) => {
                v.insert(i);
                primaries.push(i);
            }
        }
    }
    let riding = granted - primaries.len();
    if riding > 0 {
        shared.stats().batch_dedup_hits += riding as u64;
        shared.pending.fetch_sub(riding, Ordering::SeqCst);
    }

    // A tagged request is cancellable by id (a router's losing hedge).
    let cancel = Arc::new(AtomicBool::new(false));
    if let Some(id) = &req_id {
        let mut reg = shared.cancel_reg.lock().expect("cancel registry poisoned");
        reg.insert(id.clone(), Arc::clone(&cancel));
    }

    // Answers item `i` and its riders. A dead client cancels the work
    // left, but the loops below still drain counters and slots.
    let mut answer = |i: usize, frame: Frame| {
        for &j in riders.get(&i).into_iter().flatten() {
            match frame.verdict() {
                Verdict::Ok => shared.stats().coalesced += 1,
                _ => shared.stats().errors += 1,
            }
            out.item(j, frame.clone());
        }
        if !out.item(i, frame) {
            cancel.store(true, Ordering::SeqCst);
        }
    };
    // Books one settled item (`ms` from its `prepare` on): its frame.
    let settled = |result: Result<(Answer, Served), String>, reuses: u64, ms: f64| -> Frame {
        match result {
            Ok((answer, served)) => {
                let mut stats = shared.stats();
                stats.latency.record(ms);
                if enveloped {
                    stats.batch_session_reuses += reuses;
                }
                match served {
                    Served::Hit => stats.hits += 1,
                    Served::Fresh => stats.misses += 1,
                    Served::Coalesced => stats.coalesced += 1,
                }
                answer.ok_frame(served == Served::Hit)
            }
            Err(e) => {
                shared.stats().errors += 1;
                if cancel.load(Ordering::SeqCst) {
                    // Cancelled: another replica can still answer.
                    retryable_error_response(&e).into()
                } else {
                    error_response(&e).into()
                }
            }
        }
    };

    // The unadmitted tail first: what to retry, before any compile.
    for i in granted..items.len() {
        shared.stats().overloaded += 1;
        answer(
            i,
            overloaded_response(shared.pending.load(Ordering::SeqCst)).into(),
        );
    }

    // Every lookup, then every submission (see above).
    let mut misses = Vec::new();
    for i in primaries {
        let t0 = Instant::now();
        let prepared = shared.service.prepare(&items[i].src, &items[i].config);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let here = match prepared {
            Ok(Lookup::Miss(request)) => {
                misses.push((i, request, ms));
                continue;
            }
            Ok(Lookup::Hit(answer)) => Ok((answer, Served::Hit)),
            Err(e) => Err(e),
        };
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        answer(i, settled(here, 0, ms));
    }
    let mut open: Vec<usize> = misses.iter().map(|&(i, ..)| i).collect();
    let (tx, rx) = mpsc::channel();
    for (i, request, looked_up_ms) in misses {
        let (tx, cancel, worker) = (tx.clone(), Arc::clone(&cancel), Arc::clone(shared));
        shared.pool.submit(move || {
            // Thread-local solver counters: the delta is this item's.
            let before = polyject_sets::counters::snapshot();
            let t0 = Instant::now();
            let budget = Budget::unlimited().with_cancel(cancel);
            let result = worker.service.compile(request, &budget);
            let reuses = polyject_sets::counters::snapshot()
                .delta_since(&before)
                .session_reuses;
            let ms = looked_up_ms + t0.elapsed().as_secs_f64() * 1e3;
            worker.pending.fetch_sub(1, Ordering::SeqCst);
            let _ = tx.send((i, result, reuses, ms));
        });
    }
    drop(tx);

    while !open.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok((i, result, reuses, ms)) = rx.recv_timeout(left) else {
            // Deadline: cancel, and answer what is open retryably.
            cancel.store(true, Ordering::SeqCst);
            shared.stats().timeouts += open.len() as u64;
            let msg = format!(
                "request timed out after {:?} (compile cancelled; worker reclaimed)",
                shared.request_timeout
            );
            for i in open.drain(..) {
                answer(i, retryable_error_response(&msg).into());
            }
            break;
        };
        open.retain(|&p| p != i);
        answer(i, settled(result, reuses, ms));
    }
    if let Some(id) = &req_id {
        let mut reg = shared.cancel_reg.lock().expect("cancel registry poisoned");
        reg.remove(id);
    }
    out.finish()
}

/// Runs a daemon until SIGTERM/SIGINT or `shutdown`, drains in-flight
/// work, flushes the cache index and returns the final stats report.
///
/// # Errors
///
/// Propagates bind/cache-open failures; an already-listening daemon on
/// the same Unix socket is `AddrInUse`.
pub fn run_daemon(config: DaemonConfig) -> io::Result<Json> {
    sig::install();
    let mut io_faults = None;
    let (max_bytes, faults) = (config.cache_max_bytes, config.cache_faults);
    let cache = match (&config.cache_dir, faults) {
        (Some(dir), Some((seed, one_in))) => {
            let faulty = FaultyIo::new(RealIo, seed, one_in);
            io_faults = Some(faulty.injected_counter());
            Some(DiskCache::open_with_io(dir, max_bytes, Box::new(faulty))?)
        }
        (Some(dir), None) => Some(DiskCache::open(dir, max_bytes)?),
        (None, _) => None,
    };
    let hot_entries = cache.as_ref().map_or(0, |_| config.hot_entries);
    let listener = Listener::bind(&config.endpoint)?;
    let shared = Arc::new(Shared {
        service: CompileService::new(cache, config.gpu.clone()).with_hot_tier(hot_entries),
        pool: WorkerPool::new(config.workers),
        stats: Mutex::new(ServeStats::default()),
        stop: AtomicBool::new(false),
        pending: AtomicUsize::new(0),
        queue_bound: config.queue_bound.max(1),
        request_timeout: config.request_timeout,
        max_frame: config.max_frame.clamp(1, MAX_FRAME),
        endpoint: config.endpoint.to_string(),
        cancel_reg: Mutex::new(HashMap::new()),
        io_faults,
    });
    let cache = config.cache_dir.as_ref().map(|d| d.display().to_string());
    eprintln!(
        "[polyjectd] listening on {} ({} workers, queue bound {}, cache {})",
        config.endpoint,
        shared.pool.workers(),
        shared.queue_bound,
        cache.as_deref().unwrap_or("disabled"),
    );

    let conn = Arc::clone(&shared);
    listener.serve(
        || shared.stopping(),
        move |stream| {
            let max_frame = conn.max_frame;
            transport::serve_conn(
                stream,
                max_frame,
                || conn.stopping(),
                |frame, out| dispatch(&conn, frame, out),
            )
        },
    );
    eprintln!("[polyjectd] shutting down: connections drained");
    // Wait out compiles still on the pool; the flush lands their entries.
    while shared.pending.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(20));
    }
    if let Some(Err(e)) = shared.service.with_cache(DiskCache::flush) {
        eprintln!("[polyjectd] cache flush failed: {e}");
    }
    Ok(shared.stats_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
kernel axpy
param N = 64
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
";

    fn shared_with(service: CompileService, workers: usize, queue_bound: usize) -> Arc<Shared> {
        Arc::new(Shared {
            service,
            pool: WorkerPool::new(workers),
            stats: Mutex::new(ServeStats::default()),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            queue_bound,
            request_timeout: Duration::from_secs(30),
            max_frame: MAX_FRAME,
            endpoint: "/tmp/test-shard.sock".to_string(),
            cancel_reg: Mutex::new(HashMap::new()),
            io_faults: None,
        })
    }

    fn test_shared(queue_bound: usize) -> Arc<Shared> {
        let service = CompileService::new(None, GpuModel::v100());
        shared_with(service, 2, queue_bound)
    }

    /// Dispatches one request frame; returns the reply frames written
    /// and whether the connection would stay open.
    fn ask_all(shared: &Arc<Shared>, frame: &Json) -> (Vec<Json>, bool) {
        let mut out = Vec::new();
        let open = dispatch(shared, frame, &mut out);
        let mut cur = std::io::Cursor::new(out.as_slice());
        let mut frames = Vec::new();
        while (cur.position() as usize) < out.len() {
            frames.push(crate::protocol::read_frame(&mut cur).expect("well-formed frame"));
        }
        (frames, open)
    }

    /// Dispatches a request that is answered with exactly one frame.
    fn ask(shared: &Arc<Shared>, req: &Request) -> Json {
        let (mut frames, _) = ask_all(shared, &req.to_json());
        assert_eq!(frames.len(), 1, "one bare reply frame");
        frames.remove(0)
    }

    fn compile_one(shared: &Arc<Shared>, src: &str, config: &str) -> Json {
        ask(shared, &Request::compile(src, config, None))
    }

    fn batch(shared: &Arc<Shared>, items: Vec<BatchItem>) -> Vec<Json> {
        let (frames, open) = ask_all(shared, &Request::compile_batch(items, None).to_json());
        assert!(open, "an in-memory sink never dies");
        frames
    }

    #[test]
    fn dispatch_ping_stats_and_errors() {
        let shared = test_shared(4);
        let resp = ask(&shared, &Request::Ping);
        assert_eq!(resp.get("pong"), Some(&Json::Bool(true)));
        let (resp, _) = ask_all(&shared, &Json::obj(vec![("op", Json::Str("?".into()))]));
        assert!(resp[0].render().contains("\"error\""));
        let resp = ask(&shared, &Request::Stats);
        assert!(resp.get("stats").is_some());
        assert_eq!(resp.get("cache"), Some(&Json::Null), "no cache attached");
        assert_eq!(shared.stats.lock().unwrap().requests, 3);
    }

    #[test]
    fn dispatch_compile_and_shutdown() {
        let shared = test_shared(4);
        let resp = compile_one(&shared, SRC, "infl");
        assert_eq!(resp.str_field("status").unwrap(), "ok");
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)));
        assert!(resp.str_field("cuda").unwrap().contains("__global__"));
        assert_eq!(shared.stats.lock().unwrap().misses, 1);

        let (resp, open) = ask_all(&shared, &Request::Shutdown.to_json());
        assert!(!open, "shutdown closes the connection");
        assert_eq!(resp[0].get("stopping"), Some(&Json::Bool(true)));
        assert!(shared.stopping());
    }

    #[test]
    fn overload_rejects_instead_of_queueing() {
        let shared = test_shared(1);
        shared.pending.store(1, Ordering::SeqCst);
        let resp = compile_one(&shared, SRC, "infl");
        assert_eq!(resp.str_field("status").unwrap(), "overloaded");
        assert_eq!(shared.stats.lock().unwrap().overloaded, 1);
        shared.pending.store(0, Ordering::SeqCst);
    }

    #[test]
    fn concurrent_singles_cannot_exceed_queue_bound() {
        // Regression for the load-then-add admission race of the old
        // single path: with every worker held busy nothing admitted can
        // finish, so exactly `bound` of the racing one-item requests may
        // hold a slot and all the others must be shed.
        const BOUND: usize = 3;
        const CLIENTS: usize = 16;
        let shared = test_shared(BOUND);
        let (release, held) = mpsc::channel::<()>();
        let held = Arc::new(Mutex::new(held));
        for _ in 0..shared.pool.workers() {
            let held = Arc::clone(&held);
            shared.pool.submit(move || {
                let _ = held.lock().unwrap().recv();
            });
        }
        let start = Arc::new(std::sync::Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (shared, start) = (Arc::clone(&shared), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    compile_one(&shared, SRC, "infl")
                })
            })
            .collect();
        // Every request has been decided once the shed ones are counted.
        while shared.stats().overloaded < (CLIENTS - BOUND) as u64 {
            assert!(shared.pending.load(Ordering::SeqCst) <= BOUND);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(shared.pending.load(Ordering::SeqCst), BOUND);
        drop(release);
        let mut tally = HashMap::new();
        for c in clients {
            let resp = c.join().unwrap();
            *tally
                .entry(resp.str_field("status").unwrap().to_string())
                .or_insert(0) += 1;
        }
        assert_eq!(tally.get("ok"), Some(&BOUND), "{tally:?}");
        assert_eq!(
            tally.get("overloaded"),
            Some(&(CLIENTS - BOUND)),
            "{tally:?}"
        );
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn compile_errors_counted() {
        let shared = test_shared(4);
        let resp = compile_one(&shared, "kernel", "infl");
        assert_eq!(resp.str_field("status").unwrap(), "error");
        assert_eq!(shared.stats.lock().unwrap().errors, 1);
    }

    #[test]
    fn stats_and_metrics_are_one_report_with_the_shard_identity() {
        let shared = test_shared(4);
        let resp = ask(&shared, &Request::Metrics);
        assert_eq!(resp.str_field("status").unwrap(), "ok");
        assert_eq!(resp.str_field("shard").unwrap(), "/tmp/test-shard.sock");
        assert!(resp.get("stats").is_some());
        assert!(resp.get("governance").is_some());
        // Only `requests` moved in between: it counts the probe itself.
        let keys = |r: &Json| -> Vec<String> {
            let fields = r.as_obj().unwrap();
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(&ask(&shared, &Request::Stats)), keys(&resp));
    }

    #[test]
    fn framing_decides_the_envelope_and_the_batch_counters() {
        let shared = test_shared(4);
        // A batch of one is still answered enveloped, and counted.
        let frames = batch(&shared, vec![BatchItem::new(SRC, "infl")]);
        assert_eq!(frames.len(), 2, "item frame + batch_done");
        assert_eq!(frame_for_index(&frames, 0).str_field("status"), Ok("ok"));
        assert_eq!(frames[1].str_field("status"), Ok("batch_done"));
        // A `compile` is answered bare, and is not a batch request.
        let bare = compile_one(&shared, SRC, "infl");
        assert_eq!(bare.str_field("status"), Ok("ok"));
        let key = |r: &Json| r.str_field("key").unwrap().to_string();
        assert_eq!(key(&bare), key(frame_for_index(&frames, 0)));
        let stats = shared.stats();
        assert_eq!((stats.batch_requests, stats.batch_items), (1, 1));
        assert_eq!(stats.misses, 2, "no cache attached: both compiled");
    }

    #[test]
    fn cancel_by_id_trips_registered_flag() {
        let shared = test_shared(4);
        // Unknown id: answered, not an error, nothing cancelled.
        let resp = ask(&shared, &Request::Cancel { req: "nope".into() });
        assert_eq!(resp.get("cancelled"), Some(&Json::Bool(false)));

        let flag = Arc::new(AtomicBool::new(false));
        shared
            .cancel_reg
            .lock()
            .unwrap()
            .insert("r1".to_string(), Arc::clone(&flag));
        let resp = ask(&shared, &Request::Cancel { req: "r1".into() });
        assert_eq!(resp.get("cancelled"), Some(&Json::Bool(true)));
        assert!(flag.load(Ordering::SeqCst), "registered flag tripped");
        assert_eq!(shared.stats.lock().unwrap().cancels, 1);
    }

    #[test]
    fn keys_fetch_and_transfer_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pj-transfer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open_default(&dir).unwrap();
        let shared = shared_with(CompileService::new(Some(cache), GpuModel::v100()), 2, 4);

        // Populate one entry via a compile, list it, fetch it raw.
        let resp = compile_one(&shared, SRC, "infl");
        let key = resp.str_field("key").unwrap().to_string();
        let listing = ask(&shared, &Request::Keys);
        let keys = listing.get("keys").and_then(Json::as_arr).unwrap();
        assert!(keys
            .iter()
            .any(|k| k.str_field("key").ok() == Some(key.as_str())));
        let fetched = ask(&shared, &Request::Fetch { key: key.clone() });
        assert_eq!(fetched.get("found"), Some(&Json::Bool(true)));
        let payload = fetched.get("payload").unwrap().clone();
        let checksum = fetched.str_field("checksum").unwrap().to_string();
        assert_eq!(checksum, hex_digest(&payload.render()));

        // A torn transfer (checksum over different bytes) is rejected...
        let torn = Json::obj(vec![("half", Json::Num(1.0))]);
        let resp = ask(
            &shared,
            &Request::Transfer {
                key: "feedfacefeedface".to_string(),
                kind: "compile".to_string(),
                payload: torn,
                checksum: checksum.clone(),
            },
        );
        assert_eq!(resp.str_field("status").unwrap(), "error");
        assert!(resp
            .str_field("message")
            .unwrap()
            .contains("torn in flight"));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));

        // ...while the intact payload is stored and re-servable.
        let resp = ask(
            &shared,
            &Request::Transfer {
                key: "feedfacefeedface".to_string(),
                kind: "compile".to_string(),
                payload: payload.clone(),
                checksum,
            },
        );
        assert_eq!(resp.get("stored"), Some(&Json::Bool(true)));
        assert_eq!(shared.stats.lock().unwrap().transfers_in, 1);
        let stored = shared
            .service
            .with_cache(|c| c.get("feedfacefeedface"))
            .flatten()
            .unwrap();
        assert_eq!(stored.1, payload);

        // Fetch of a missing key is a structured miss, not an error.
        let resp = ask(
            &shared,
            &Request::Fetch {
                key: "0000000000000000".to_string(),
            },
        );
        assert_eq!(resp.get("found"), Some(&Json::Bool(false)));

        // Membership ops are router-only.
        let resp = ask(
            &shared,
            &Request::Join {
                endpoint: "x".into(),
            },
        );
        assert_eq!(resp.str_field("status").unwrap(), "error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn frame_for_index(frames: &[Json], index: usize) -> &Json {
        frames
            .iter()
            .find(|f| {
                f.str_field("status") == Ok("item")
                    && f.get("index").and_then(Json::as_u64) == Some(index as u64)
            })
            .unwrap_or_else(|| panic!("no item frame for index {index}"))
            .get("reply")
            .expect("item frame has reply")
    }

    #[test]
    fn batch_admission_respects_queue_bound() {
        // Regression for the backpressure bypass: a batch of N ops must
        // consume N bounded-queue slots at admission, exactly as N
        // concurrent singles would — not slip in as one request.
        let shared = test_shared(2);
        let items: Vec<BatchItem> = (0..5)
            .map(|i| {
                BatchItem::new(
                    format!(
                        "
kernel axpy
param N = {}
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
",
                        32 + i
                    ),
                    "infl",
                )
            })
            .collect();
        let frames = batch(&shared, items);
        assert_eq!(frames.len(), 6, "5 item frames + batch_done");
        // Only the first `queue_bound` items were admitted; the tail got
        // per-item overloaded answers (streamed first — the client can
        // retry them before any compile finishes).
        for i in 0..2 {
            assert_eq!(frame_for_index(&frames, i).str_field("status"), Ok("ok"));
        }
        for i in 2..5 {
            assert_eq!(
                frame_for_index(&frames, i).str_field("status"),
                Ok("overloaded"),
                "item {i} must be shed, not queued past the bound"
            );
        }
        let done = frames.last().unwrap();
        assert_eq!(done.str_field("status"), Ok("batch_done"));
        assert_eq!(done.get("items").and_then(Json::as_u64), Some(5));
        assert_eq!(done.get("ok").and_then(Json::as_u64), Some(2));
        assert_eq!(done.get("overloaded").and_then(Json::as_u64), Some(3));
        let stats = shared.stats.lock().unwrap();
        assert_eq!(stats.overloaded, 3);
        assert_eq!(stats.batch_requests, 1);
        assert_eq!(stats.batch_items, 5);
        drop(stats);
        assert_eq!(
            shared.pending.load(Ordering::SeqCst),
            0,
            "all slots released after the batch"
        );
    }

    #[test]
    fn batch_dedups_items_and_shares_sessions_across_configs() {
        // One worker so the unique items run serially and the family
        // session built by the first is warm for the second.
        let shared = shared_with(CompileService::new(None, GpuModel::v100()), 1, 8);
        let items = vec![
            BatchItem::new(SRC, "infl"),
            BatchItem::new(SRC, "infl"), // in-batch duplicate
            BatchItem::new(SRC, "isl"),  // same kernel family, other config
        ];
        let frames = batch(&shared, items);
        assert_eq!(frames.len(), 4);
        for i in 0..3 {
            assert_eq!(frame_for_index(&frames, i).str_field("status"), Ok("ok"));
        }
        // The duplicate rode its primary's result byte-for-byte.
        assert_eq!(
            frame_for_index(&frames, 0).render(),
            frame_for_index(&frames, 1).render()
        );
        // And the configs produced distinct artifacts.
        assert_ne!(
            frame_for_index(&frames, 0).str_field("key").unwrap(),
            frame_for_index(&frames, 2).str_field("key").unwrap()
        );
        let stats = shared.stats.lock().unwrap();
        assert_eq!(stats.batch_dedup_hits, 1, "one in-batch duplicate");
        assert_eq!(stats.misses, 2, "two unique compiles");
        assert_eq!(stats.coalesced, 1, "the duplicate is a coalesced serve");
        assert!(
            stats.batch_session_reuses > 0,
            "isl and infl share one schedule session (family reuse), got {}",
            stats.batch_session_reuses
        );
        drop(stats);
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
    }
}
