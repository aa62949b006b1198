//! Canonical kernel hashing and the compile-through-cache service.
//!
//! The cache key of a request is a content hash over the **canonical**
//! `.pj` rendering of the kernel (so formatting, comments, and statement
//! spelling differences that parse to the same kernel share one entry)
//! plus every knob that shapes the output: the pipeline [`Config`], the
//! [`CompileOptions`] the request compiles under (as their canonical
//! key), the scheduler defaults, the [`GpuModel`] the timing is
//! estimated on, and a key-format version tag. Anything that would change the artifacts
//! changes the key; anything that wouldn't, doesn't.
//!
//! [`CompileService`] layers single-flight deduplication on top: when
//! two requests for the same key arrive concurrently, one compiles and
//! the rest wait on the first result instead of duplicating solver work.

use crate::cache::DiskCache;
use crate::hash::{f64_bits_hex, Fnv64};
use crate::hot::HotTier;
use crate::json::Json;
use crate::protocol::CompileReply;
use crate::tuned::{load_tuned, tuned_key_of};
use polyject_codegen::{render_artifacts, CompileOptions, CompileSession, Config};
use polyject_core::{Budget, SchedulerOptions};
use polyject_gpusim::{estimate, GpuModel};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Version tag folded into every cache key; bump whenever key material
/// or the artifact schema changes meaning. Version 2: keys fold the
/// *actual* [`CompileOptions`] the request compiles under (tuned
/// requests get their own entries) instead of the option defaults.
/// Version 3: [`CompileOptions`] lost its scheduler group and the
/// Feautrier switch is gone, so the scheduler material is the five
/// [`SchedulerOptions::default`] constants; a v2 entry is never looked up.
/// Version 4: the options are folded as their
/// [`CompileOptions::canonical_key`], one field.
pub const KEY_VERSION: u64 = 4;

/// Resolves a configuration name (`isl|novec|infl`) to a [`Config`].
///
/// # Errors
///
/// The message every front door reports for an unknown name.
pub fn config_by_name(name: &str) -> Result<Config, String> {
    let found = Config::all().into_iter().find(|c| c.name() == name);
    found.ok_or_else(|| format!("unknown config {name:?} (expected isl|novec|infl)"))
}

fn write_f64_fields(h: &mut Fnv64, values: &[f64]) {
    for &v in values {
        h.write_field(&f64_bits_hex(v));
    }
}

/// The content-addressed cache key for compiling `canonical_pj` under
/// `config` on `gpu`, as a 16-hex-char digest.
///
/// `canonical_pj` must already be canonical (a fixpoint of
/// [`polyject_front::canonical_pj`]); callers canonicalize first so
/// formatting variants of one kernel map to one entry.
pub fn cache_key(canonical_pj: &str, config: &str, gpu: &GpuModel) -> String {
    cache_key_with_options(canonical_pj, config, gpu, &CompileOptions::default())
}

/// The key a request for `src` routes by: the [`cache_key`] of its
/// canonical form — the key the owning daemon files the artifact under,
/// so ring placement lines up with the daemons' caches.
///
/// # Errors
///
/// The parse error, when `src` has no canonical form.
pub(crate) fn routing_key(src: &str, config: &str, gpu: &GpuModel) -> Result<String, String> {
    Ok(cache_key(&polyject_front::canonical_pj(src)?, config, gpu))
}

/// [`cache_key`] generalized over the [`CompileOptions`] the request
/// actually compiles under, so a tuned compile and the default compile
/// of one kernel occupy distinct entries.
pub fn cache_key_with_options(
    canonical_pj: &str,
    config: &str,
    gpu: &GpuModel,
    opts: &CompileOptions,
) -> String {
    let mut h = Fnv64::new();
    h.write_field("polyject-compile");
    h.write_field(&KEY_VERSION.to_string());
    h.write_field(canonical_pj);
    h.write_field(config);

    // The options the pipeline compiles under, in their one encoding;
    // folding the actual values (not the defaults) both invalidates old
    // entries when a default changes and gives tuned compiles their own
    // entries.
    h.write_field(&opts.canonical_key());
    // Every compile schedules under the scheduler defaults; folding the
    // constants invalidates old entries when one of them changes.
    let sched = SchedulerOptions::default();
    h.write_field(&sched.bounds.max_coeff.to_string());
    h.write_field(&sched.bounds.max_const.to_string());
    h.write_field(&sched.bounds.max_bound.to_string());
    h.write_field(&sched.max_dims.to_string());
    h.write_field(&sched.max_attempts.to_string());

    h.write_field(&gpu.name);
    write_f64_fields(
        &mut h,
        &[
            gpu.dram_bw,
            gpu.l2_bw,
            gpu.fp32_flops,
            gpu.issue_rate,
            gpu.launch_overhead,
            gpu.saturation_threads,
            gpu.thread_ilp,
            gpu.scalar_bw_fraction,
            gpu.scattered_write_amp,
            gpu.scattered_read_amp,
            gpu.sector_bytes,
        ],
    );
    h.write_field(&gpu.warp_size.to_string());
    h.hex()
}

/// Compiles `.pj` source end to end and packages every artifact into a
/// [`CompileReply`] (the cache payload).
///
/// Runs entirely on the calling thread so the thread-local solver
/// counters attribute the work correctly.
///
/// # Errors
///
/// Returns parse, unknown-config, and scheduling failures as strings.
pub fn compile_reply(src: &str, config_name: &str, gpu: &GpuModel) -> Result<CompileReply, String> {
    let config = config_by_name(config_name)?;
    let kernel = polyject_front::parse(src).map_err(|e| e.to_string())?;
    let canonical = polyject_front::emit_pj(&kernel)?;
    let open = || Ok(Arc::new(CompileSession::new(&kernel)));
    let key = cache_key(&canonical, config.name(), gpu);
    let (budget, opts) = (Budget::unlimited(), CompileOptions::default());
    session_reply(open, canonical, key, config, gpu, &budget, &opts)
}

/// Compiles through the [`CompileSession`] that `open` yields and renders
/// every artifact into the [`CompileReply`] cache payload — the one body
/// behind a one-shot [`compile_reply`] and a [`CompileService`] request
/// served from its warm pool (under a budget, and the tuned options when
/// a tuning is persisted: `key` folds them, so tuned artifacts never
/// collide with the default compile's entry).
fn session_reply(
    open: impl FnOnce() -> Result<Arc<CompileSession>, String>,
    canonical: String,
    key: String,
    config: Config,
    gpu: &GpuModel,
    budget: &Budget,
    opts: &CompileOptions,
) -> Result<CompileReply, String> {
    // Bracket session opening too: the first request for a kernel pays
    // (and reports) the dependence analysis; only genuinely warm requests
    // report the smaller delta.
    let before = polyject_sets::counters::snapshot();
    let t0 = Instant::now();
    let session = open()?;
    let kernel = session.kernel();
    let compiled = session
        .compile_with(config, budget, opts)
        .map_err(|e| e.to_string())?;
    let artifacts = render_artifacts(kernel, &compiled);
    let timing = estimate(&compiled.ast, kernel, gpu);
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let solver = polyject_sets::counters::snapshot().delta_since(&before);
    Ok(CompileReply {
        key,
        kernel: kernel.name().to_string(),
        config: config.name().to_string(),
        canonical_pj: canonical,
        code: artifacts.code,
        cuda: artifacts.cuda,
        schedule: artifacts.schedule,
        schedule_tree: artifacts.schedule_tree,
        vector_loops: artifacts.vector_loops as u64,
        influenced: artifacts.influenced,
        timing: timing
            .to_pairs()
            .iter()
            .map(|&(k, v)| (k.to_string(), v))
            .collect(),
        solver,
        compile_ms,
    })
}

/// How a request was satisfied (feeds the daemon's counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Replayed from the persistent cache.
    Hit,
    /// Compiled now (and written to the cache, if one is attached).
    Fresh,
    /// Waited on an identical in-flight compile (single-flight).
    Coalesced,
}

/// A compile request after [`CompileService::prepare`]: what its text
/// alone decides. Opaque; it carries the canonical form and the key from
/// the thread that looked the request up to the one that compiles it, so
/// neither is derived twice.
#[derive(Debug)]
pub struct Prepared {
    config: Config,
    canonical: String,
    opts: CompileOptions,
    key: String,
}

struct Flight {
    result: Mutex<Option<Result<CompileReply, String>>>,
    done: Condvar,
}

/// Resource-governance counters of one [`CompileService`] (process-local):
/// how many requests degraded under budget pressure, were cancelled, or
/// panicked and were recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Governance {
    /// Requests whose scheduling degraded (influence dropped) because a
    /// budget was exhausted.
    pub degraded_solves: u64,
    /// Requests aborted by a tripped cancel flag (request timeouts).
    pub cancelled_solves: u64,
    /// Compiler panics converted to error replies.
    pub panics_recovered: u64,
    /// Requests compiled under a persisted tuned configuration instead
    /// of the option defaults.
    pub tuned_applied: u64,
}

/// How many per-kernel [`CompileSession`]s a [`CompileService`] keeps
/// warm (LRU-evicted). Small on purpose: one session holds the kernel's
/// dependence analysis, Farkas systems, and prepared scheduling context,
/// so this bounds resident memory while still covering a daemon's
/// working set of hot kernels.
const SESSION_CAP: usize = 8;

/// Compile-through-cache with single-flight deduplication. Shared by the
/// daemon's worker threads (all methods take `&self`).
///
/// Besides the persistent artifact cache, the service keeps a bounded
/// LRU pool of warm [`CompileSession`]s keyed by canonical kernel:
/// repeat requests for the same kernel under another configuration or
/// *different* options (`isl`, then `novec` and `infl`; the default
/// compile, then the tuned redirect once `polyjectc --tune` has persisted
/// a tuning into the shared cache directory) reuse one dependence
/// analysis and base scheduling context instead of recomputing the
/// option-invariant prefix per request. Metered budgets are kept off the
/// shared memos by the session itself, so resource accounting never
/// observes warm state.
pub struct CompileService {
    cache: Option<Mutex<DiskCache>>,
    /// Bounded in-memory hot tier above the disk cache (opt-in via
    /// [`CompileService::with_hot_tier`]). Entries only enter it from a
    /// checksum-verified disk hit or a fresh undegraded compile, so it
    /// keeps hot keys served even while the disk underneath faults.
    hot: Option<Mutex<HotTier>>,
    gpu: GpuModel,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    sessions: Mutex<Vec<(String, Arc<CompileSession>)>>,
    degraded: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    tuned_applied: AtomicU64,
}

impl CompileService {
    /// A service compiling for `gpu`, optionally backed by a persistent
    /// cache.
    pub fn new(cache: Option<DiskCache>, gpu: GpuModel) -> CompileService {
        CompileService {
            cache: cache.map(Mutex::new),
            hot: None,
            gpu,
            inflight: Mutex::new(HashMap::new()),
            sessions: Mutex::new(Vec::new()),
            degraded: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            tuned_applied: AtomicU64::new(0),
        }
    }

    /// Enables the in-memory hot tier, holding at most `cap` decoded
    /// replies (`0` leaves it disabled).
    pub fn with_hot_tier(mut self, cap: usize) -> CompileService {
        self.hot = (cap > 0).then(|| Mutex::new(HotTier::new(cap)));
        self
    }

    /// Hot-tier occupancy and lifetime hits, when the tier is enabled.
    pub fn hot_stats(&self) -> Option<(usize, u64)> {
        self.hot.as_ref().map(|m| {
            let hot = m.lock().expect("hot lock poisoned");
            (hot.len(), hot.hits())
        })
    }

    fn hot_get(&self, key: &str) -> Option<CompileReply> {
        self.hot
            .as_ref()
            .and_then(|m| m.lock().expect("hot lock poisoned").get(key))
    }

    fn hot_put(&self, key: &str, reply: &CompileReply) {
        if let Some(m) = &self.hot {
            m.lock().expect("hot lock poisoned").put(key, reply.clone());
        }
    }

    /// The GPU model requests compile against.
    pub fn gpu(&self) -> &GpuModel {
        &self.gpu
    }

    /// The service's resource-governance counters.
    pub fn governance(&self) -> Governance {
        Governance {
            degraded_solves: self.degraded.load(Ordering::SeqCst),
            cancelled_solves: self.cancelled.load(Ordering::SeqCst),
            panics_recovered: self.panics.load(Ordering::SeqCst),
            tuned_applied: self.tuned_applied.load(Ordering::SeqCst),
        }
    }

    /// Runs `f` on the attached cache, if any.
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut DiskCache) -> R) -> Option<R> {
        self.cache
            .as_ref()
            .map(|m| f(&mut m.lock().expect("cache lock poisoned")))
    }

    /// Returns the warm [`CompileSession`] for `canonical`, opening (and
    /// LRU-inserting) one on first use.
    ///
    /// Opening parses the kernel and runs dependence analysis *outside*
    /// the pool lock (a compiler panic must never poison the pool), with
    /// a re-check on insert so racing workers converge on one session.
    fn session_for(&self, canonical: &str) -> Result<Arc<CompileSession>, String> {
        let lookup = |pool: &mut Vec<(String, Arc<CompileSession>)>| {
            pool.iter().position(|(k, _)| k == canonical).map(|pos| {
                let entry = pool.remove(pos);
                let session = Arc::clone(&entry.1);
                pool.push(entry); // most-recently-used at the back
                session
            })
        };
        if let Some(session) = lookup(&mut self.sessions.lock().expect("session lock poisoned")) {
            return Ok(session);
        }
        let kernel = polyject_front::parse(canonical).map_err(|e| e.to_string())?;
        let session = Arc::new(CompileSession::new(&kernel));
        let mut pool = self.sessions.lock().expect("session lock poisoned");
        if let Some(raced) = lookup(&mut pool) {
            return Ok(raced); // another worker opened it first: share theirs
        }
        if pool.len() >= SESSION_CAP {
            pool.remove(0);
        }
        pool.push((canonical.to_string(), Arc::clone(&session)));
        Ok(session)
    }

    /// Serves one compile request unbudgeted: the composition of
    /// [`CompileService::prepare`], [`CompileService::lookup`] and, on a
    /// miss, [`CompileService::compile`], which the daemon calls one by
    /// one (the first two where the request arrives, the third on a
    /// compile worker).
    ///
    /// # Errors
    ///
    /// Those of the three steps.
    pub fn serve(&self, src: &str, config_name: &str) -> Result<(CompileReply, Served), String> {
        let request = self.prepare(src, config_name)?;
        match self.lookup(&request) {
            Some(reply) => Ok((reply, Served::Hit)),
            None => self.compile(request, &Budget::unlimited()),
        }
    }

    /// Runs compiler code that request input reaches, converting a panic
    /// into a counted error so the calling thread survives it.
    fn guarded<T>(&self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            self.panics.fetch_add(1, Ordering::SeqCst);
            polyject_sets::counters::note_panic_recovered(1);
            Err(format!("compiler panicked: {msg}"))
        })
    }

    /// Step one of a request: everything derived from its text alone —
    /// the configuration, the canonical form, the options it compiles
    /// under and the key they hash to. Reads no artifact.
    ///
    /// # Errors
    ///
    /// Unknown configuration names and parse errors.
    pub fn prepare(&self, src: &str, config_name: &str) -> Result<Prepared, String> {
        let config = config_by_name(config_name)?;
        let canonical = self.guarded(|| polyject_front::canonical_pj(src))?;

        // A persisted tuned configuration redirects the request: the
        // compile runs under the tuned options and is keyed by them, so
        // a tuning found once applies on every later compile while the
        // default entry (if any) stays untouched. The probe costs an
        // index lookup and, for a key this process never wrote, one
        // `stat`: no cache *read* for an untuned kernel.
        // The default-options key is hashed once: it is the untuned
        // request's cache key and the material of its tuned key.
        let base = cache_key(&canonical, config.name(), &self.gpu);
        let (opts, key) = match load_tuned(self, &tuned_key_of(&base)) {
            Some(tuned) => {
                self.tuned_applied.fetch_add(1, Ordering::SeqCst);
                let key =
                    cache_key_with_options(&canonical, config.name(), &self.gpu, &tuned.point);
                (tuned.point, key)
            }
            None => (CompileOptions::default(), base),
        };
        Ok(Prepared {
            config,
            canonical,
            opts,
            key,
        })
    }

    /// Step two: the cached reply for a prepared request, if there is
    /// one — the hot tier first, so a fault-injected (or dead) disk never
    /// stalls a hot key, then the disk entry, checksum-verified and
    /// decoded (and promoted to the hot tier). An entry of the wrong kind
    /// or an undecodable one is a miss; the compile overwrites it.
    pub fn lookup(&self, request: &Prepared) -> Option<CompileReply> {
        self.cached(&request.key, DiskCache::get)
    }

    fn cached(
        &self,
        key: &str,
        read: impl FnOnce(&mut DiskCache, &str) -> Option<(String, Json)>,
    ) -> Option<CompileReply> {
        if let Some(reply) = self.hot_get(key) {
            return Some(reply);
        }
        let (kind, payload) = self.with_cache(|c| read(c, key))??;
        if kind != "compile" {
            return None;
        }
        let reply = CompileReply::from_json(&payload).ok()?;
        self.hot_put(key, &reply);
        Some(reply)
    }

    /// Step three, for a request whose [`CompileService::lookup`] missed:
    /// compiles it, once per key however many identical requests are in
    /// flight (the first caller compiles, the rest wait and share its
    /// outcome, budget included).
    ///
    /// Budget exhaustion degrades the compile (influence dropped) rather
    /// than failing it; degraded results are answered but **not cached**,
    /// so a later unpressured request recompiles at full quality instead
    /// of replaying the compromise forever. Cancellation (the daemon
    /// trips the flag on request timeout) aborts with an error and
    /// reclaims the worker.
    ///
    /// # Errors
    ///
    /// Scheduling/cancellation errors, and panics inside the compiler
    /// converted to errors (the worker thread survives).
    pub fn compile(
        &self,
        request: Prepared,
        budget: &Budget,
    ) -> Result<(CompileReply, Served), String> {
        let key = &request.key;
        // Single-flight: first caller for a key compiles, the rest wait.
        let (flight, leader) = {
            let mut map = self.inflight.lock().expect("inflight lock poisoned");
            match map.get(key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            let mut slot = flight.result.lock().expect("flight lock poisoned");
            while slot.is_none() {
                slot = flight.done.wait(slot).expect("flight wait poisoned");
            }
            return slot
                .clone()
                .expect("checked above")
                .map(|r| (r, Served::Coalesced));
        }

        // The lookup that missed may be old by now (in the daemon a miss
        // waits for a worker), and a flight that landed in between has
        // cached its reply before it left the table: look again, as for
        // an optional entry, before paying for a compile.
        let (result, served) = match self.cached(key, DiskCache::get_if_present) {
            Some(reply) => (Ok(reply), Served::Hit),
            None => (self.fresh(&request, budget), Served::Fresh),
        };

        // Publish the result, wake waiters, and clear the flight.
        *flight.result.lock().expect("flight lock poisoned") = Some(result.clone());
        flight.done.notify_all();
        self.inflight
            .lock()
            .expect("inflight lock poisoned")
            .remove(key);

        result.map(|r| (r, served))
    }

    /// Compiles a prepared request, whatever the cache holds, and books
    /// the outcome: governance counters, and both cache tiers for a reply
    /// worth keeping.
    fn fresh(&self, request: &Prepared, budget: &Budget) -> Result<CompileReply, String> {
        let (canonical, key, gpu) = (&request.canonical, &request.key, &self.gpu);
        let open = || self.session_for(canonical);
        let compiled = self.guarded(|| {
            session_reply(
                open,
                canonical.clone(),
                key.clone(),
                request.config,
                gpu,
                budget,
                &request.opts,
            )
        });
        match &compiled {
            Ok(reply) => {
                self.degraded
                    .fetch_add(reply.solver.degraded_solves, Ordering::SeqCst);
                // A degraded reply is a budget-shaped compromise, not the
                // kernel's best schedule: serve it but keep it out of both
                // cache tiers so an unpressured request recompiles fully.
                if reply.solver.degraded_solves == 0 {
                    self.hot_put(key, reply);
                    if let Some(Err(e)) =
                        self.with_cache(|c| c.put(key, "compile", &reply.to_json()))
                    {
                        eprintln!("[serve] cache write for {key} failed: {e}");
                    }
                }
            }
            Err(_) if budget.is_cancelled() => {
                self.cancelled.fetch_add(1, Ordering::SeqCst);
            }
            Err(_) => {}
        }
        compiled
    }
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

    #[test]
    fn key_depends_on_source_config_and_gpu() {
        let canon = polyject_front::canonical_pj(SRC).unwrap();
        let v100 = GpuModel::v100();
        let base = cache_key(&canon, "infl", &v100);
        assert_eq!(base.len(), 16);
        assert_eq!(base, cache_key(&canon, "infl", &v100), "deterministic");
        assert_ne!(base, cache_key(&canon, "isl", &v100));
        assert_ne!(base, cache_key(&canon, "infl", &GpuModel::a100()));
        let other = canon.replace("64", "128");
        assert_ne!(base, cache_key(&other, "infl", &v100));
    }

    #[test]
    fn every_knob_moves_the_key() {
        use polyject_codegen::TilingOptions;
        let canon = polyject_front::canonical_pj(SRC).unwrap();
        let key =
            |opts: &CompileOptions| cache_key_with_options(&canon, "infl", &GpuModel::v100(), opts);
        let edits: [fn(&mut CompileOptions); 17] = [
            |o| o.influence.weights[0] = 0.5,
            |o| o.influence.weights[1] = 0.5,
            |o| o.influence.weights[2] = 0.5,
            |o| o.influence.weights[3] = 0.5,
            |o| o.influence.weights[4] = 0.5,
            |o| o.influence.thread_limit = 512,
            |o| o.influence.max_scenarios = 4,
            |o| o.influence.vector_widths = vec![4],
            |o| o.influence.fusion_variants = false,
            |o| o.influence.relaxed_variants = false,
            |o| o.mapping.max_threads = 256,
            |o| o.mapping.max_thread_axes = 3,
            |o| o.mapping.max_block_axes = 2,
            |o| o.tiling = Some(TilingOptions::default()),
            |o| {
                o.tiling = Some(TilingOptions {
                    tile_size: 64,
                    ..TilingOptions::default()
                })
            },
            |o| {
                o.tiling = Some(TilingOptions {
                    min_extent: 128,
                    ..TilingOptions::default()
                })
            },
            |o| {
                o.tiling = Some(TilingOptions {
                    max_tiled_loops: 3,
                    ..TilingOptions::default()
                })
            },
        ];
        let mut keys = vec![cache_key(&canon, "infl", &GpuModel::v100())];
        assert_eq!(keys[0], key(&CompileOptions::default()));
        for edit in &edits {
            let mut opts = CompileOptions::default();
            edit(&mut opts);
            let k = key(&opts);
            assert!(!keys.contains(&k), "{opts:?} shares a key");
            keys.push(k);
        }
    }

    #[test]
    fn formatting_variants_share_a_key() {
        let noisy = "\n\nkernel axpy\nparam N = 64\ntensor X[N]: f32\ntensor Y[N]: f32\nstmt S for (i in 0..N) Y[i] = ((2.0 * X[i]) + Y[i])\n";
        let a = polyject_front::canonical_pj(SRC).unwrap();
        let b = polyject_front::canonical_pj(noisy).unwrap();
        assert_eq!(a, b);
        let gpu = GpuModel::v100();
        assert_eq!(cache_key(&a, "infl", &gpu), cache_key(&b, "infl", &gpu));
    }

    #[test]
    fn compile_reply_produces_artifacts_and_counters() {
        let reply = compile_reply(SRC, "infl", &GpuModel::v100()).unwrap();
        assert_eq!(reply.kernel, "axpy");
        assert!(reply.cuda.contains("__global__"));
        assert!(reply.solver.lp_solves > 0, "a real compile solves LPs");
        assert!(reply.timing.iter().any(|(k, v)| k == "time" && *v > 0.0));
        // The canonical rendering is a fixpoint.
        assert_eq!(
            polyject_front::canonical_pj(&reply.canonical_pj).unwrap(),
            reply.canonical_pj
        );
    }

    #[test]
    fn unknown_config_and_parse_errors_are_reported() {
        assert!(compile_reply(SRC, "fast", &GpuModel::v100())
            .unwrap_err()
            .contains("unknown config"));
        assert!(compile_reply("kernel", "infl", &GpuModel::v100()).is_err());
        let svc = CompileService::new(None, GpuModel::v100());
        assert!(svc.serve(SRC, "bogus").is_err());
    }

    #[test]
    fn uncached_service_compiles_fresh_each_time() {
        let svc = CompileService::new(None, GpuModel::v100());
        let (a, how_a) = svc.serve(SRC, "infl").unwrap();
        let (b, how_b) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(how_a, Served::Fresh);
        assert_eq!(how_b, Served::Fresh);
        assert_eq!(a.cuda, b.cuda, "compilation is deterministic");
    }

    #[test]
    fn repeat_serves_reuse_the_warm_session() {
        // Without a disk cache every serve recompiles, but the second
        // request of the same kernel goes through the warm session: no
        // dependence analysis or Farkas work, identical artifacts.
        let svc = CompileService::new(None, GpuModel::v100());
        let start = polyject_sets::counters::snapshot();
        let (a, _) = svc.serve(SRC, "infl").unwrap();
        let mid = polyject_sets::counters::snapshot();
        let (b, _) = svc.serve(SRC, "infl").unwrap();
        let end = polyject_sets::counters::snapshot();

        assert_eq!(a.cuda, b.cuda);
        assert_eq!(a.schedule_tree, b.schedule_tree);
        let cold = mid.delta_since(&start);
        assert!(cold.dependence_analyses >= 1, "first serve analyzes deps");
        let warm = end.delta_since(&mid);
        assert_eq!(warm.dependence_analyses, 0, "warm serve reuses the session");
        assert_eq!(warm.farkas_linearizations, 0);
        assert!(warm.session_reuses >= 1);
    }

    #[test]
    fn configs_of_one_kernel_share_one_pool_slot() {
        // The session is per kernel: the first config pays the dependence
        // analysis, the other two reuse it from the same pool slot — with
        // artifacts identical to a one-shot compile of each config.
        let svc = CompileService::new(None, GpuModel::v100());
        let start = polyject_sets::counters::snapshot();
        let (isl, _) = svc.serve(SRC, "isl").unwrap();
        let mid = polyject_sets::counters::snapshot();
        let (novec, _) = svc.serve(SRC, "novec").unwrap();
        let (infl, _) = svc.serve(SRC, "infl").unwrap();
        let end = polyject_sets::counters::snapshot();

        assert_eq!(svc.sessions.lock().unwrap().len(), 1, "one slot per kernel");
        assert_eq!(mid.delta_since(&start).dependence_analyses, 1);
        let warm = end.delta_since(&mid);
        assert_eq!(warm.dependence_analyses, 0, "one analysis per kernel");
        assert_eq!(warm.farkas_linearizations, 0);
        assert!(warm.session_reuses >= 2, "one reuse per further config");

        for (reply, config) in [(&isl, "isl"), (&novec, "novec"), (&infl, "infl")] {
            let cold_reply = compile_reply(SRC, config, &GpuModel::v100()).unwrap();
            assert_eq!(reply.cuda, cold_reply.cuda, "{config} artifacts diverged");
            assert_eq!(reply.schedule_tree, cold_reply.schedule_tree);
            assert_eq!(reply.key, cold_reply.key);
        }
        assert_ne!(isl.key, infl.key, "configs keep distinct cache keys");
        assert_ne!(novec.key, infl.key);
    }

    #[test]
    fn ninth_kernel_evicts_the_least_recently_used_session() {
        let svc = CompileService::new(None, GpuModel::v100());
        let src_of = |i: usize| SRC.replace("64", &(64 + 4 * i).to_string());
        for i in 0..SESSION_CAP {
            svc.serve(&src_of(i), "isl").unwrap();
        }
        svc.serve(&src_of(0), "isl").unwrap(); // kernel 1 is now the oldest
        svc.serve(&src_of(SESSION_CAP), "isl").unwrap();
        let pool = svc.sessions.lock().unwrap();
        let held = |i: usize| {
            let canon = polyject_front::canonical_pj(&src_of(i)).unwrap();
            pool.iter().any(|(k, _)| *k == canon)
        };
        assert_eq!(pool.len(), SESSION_CAP);
        assert!(!held(1), "the least recently used kernel was evicted");
        assert!((0..=SESSION_CAP).filter(|&i| i != 1).all(held));
    }

    #[test]
    fn hot_tier_absorbs_reads_when_the_disk_entry_vanishes() {
        let dir = std::env::temp_dir().join(format!("pj-hot-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open_default(&dir).unwrap();
        let svc = CompileService::new(Some(cache), GpuModel::v100()).with_hot_tier(8);
        let (a, how) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(how, Served::Fresh);
        assert_eq!(
            svc.hot_stats().unwrap().0,
            1,
            "fresh compile enters hot tier"
        );

        // Nuke the disk entry out from under the service: the hot tier
        // must keep answering hits without touching the (now-empty) disk.
        std::fs::remove_dir_all(dir.join("entries")).unwrap();
        let (b, how) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(how, Served::Hit);
        assert_eq!(a, b, "hot tier serves the exact cached artifact");
        assert!(svc.hot_stats().unwrap().1 >= 1, "hot hit counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metered_requests_neither_read_nor_write_the_session_memos() {
        let svc = CompileService::new(None, GpuModel::v100());
        let metered = Budget::unlimited().with_max_pivots(u64::MAX);
        let serve = |budget: &Budget| {
            let before = polyject_sets::counters::snapshot();
            let request = svc.prepare(SRC, "infl").unwrap();
            assert!(svc.lookup(&request).is_none(), "no cache attached");
            let (reply, _) = svc.compile(request, budget).unwrap();
            (
                reply,
                polyject_sets::counters::snapshot().delta_since(&before),
            )
        };
        // The metered request opens the pooled session but leaves nothing
        // in it: the unmetered request after it solves from scratch.
        let (m1, d) = serve(&metered);
        assert_eq!(d.session_reuses, 0, "metered requests never reuse");
        let (u1, d) = serve(&Budget::unlimited());
        assert_eq!(d.session_reuses, 0, "the metered run left no warm state");
        assert!(d.lp_solves > 0);
        // Nor is it served from what the unmetered request memoized.
        let (m2, d) = serve(&metered);
        assert_eq!(d.session_reuses, 0);
        assert!(d.lp_solves > 0, "metered requests pay for their own solve");
        let (u2, d) = serve(&Budget::unlimited());
        assert!(d.session_reuses >= 1);
        assert_eq!(d.lp_solves, 0, "the memo survived the metered request");
        for reply in [&m1, &m2, &u2] {
            assert_eq!(reply.cuda, u1.cuda);
            assert_eq!(reply.schedule_tree, u1.schedule_tree);
            assert_eq!(reply.key, u1.key);
        }
    }
}
