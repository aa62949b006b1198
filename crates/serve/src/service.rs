//! Canonical kernel hashing and the compile-through-cache service.
//!
//! The cache key of a request hashes the **canonical** `.pj` rendering of
//! the kernel (formatting variants of one kernel share an entry) with
//! every knob that shapes the output: the pipeline [`Config`], the
//! [`CompileOptions`] (as their canonical key), the scheduler constants,
//! the [`GpuModel`] and a key-format version tag.
//!
//! [`CompileService`] serves requests through the cache tiers, compiling
//! each missed key once however many requests for it are in flight.

use crate::cache::{DiskCache, WriteBehind};
use crate::hash::{f64_bits_hex, Fnv64};
use crate::hot::HotTier;
use crate::json::Json;
use crate::protocol::{Answer, CompileReply};
use crate::tuned::{load_tuned, tuned_key_of};
use polyject_codegen::{render_artifacts, CompileOptions, CompileSession, Config};
use polyject_core::{Budget, MAX_ATTEMPTS, MAX_BOUND, MAX_COEFF, MAX_CONST, MAX_DIMS};
use polyject_gpusim::{estimate, GpuModel};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Version tag folded into every cache key; bump whenever key material
/// or the artifact schema changes meaning. 2: the actual options, not
/// the defaults. 3: the scheduler material is the five constants
/// ([`MAX_COEFF`] to [`MAX_ATTEMPTS`]). 4: the options as their
/// [`CompileOptions::canonical_key`]. 5: the CUDA prints the recorded
/// vector form.
pub const KEY_VERSION: u64 = 5;

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

/// The content-addressed cache key for compiling `canonical_pj` (a
/// fixpoint of [`polyject_front::canonical_pj`], so formatting variants
/// share it) under `config` on `gpu`, as 16 hex chars.
pub fn cache_key(canonical_pj: &str, config: &str, gpu: &GpuModel) -> String {
    cache_key_with_options(canonical_pj, config, gpu, &CompileOptions::default())
}

/// [`cache_key`] under the [`CompileOptions`] the request compiles
/// under, so a tuned and a default compile have distinct entries.
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

    // The actual option values and scheduler constants: a changed
    // default or constant invalidates old entries.
    h.write_field(&opts.canonical_key());
    h.write_field(&MAX_COEFF.to_string());
    h.write_field(&MAX_CONST.to_string());
    h.write_field(&MAX_BOUND.to_string());
    h.write_field(&MAX_DIMS.to_string());
    h.write_field(&MAX_ATTEMPTS.to_string());

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

/// Compiles `.pj` source end to end into a [`CompileReply`] (the cache
/// payload), on the calling thread, whose solver counters it reports.
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

/// Compiles through the [`CompileSession`] `open` yields into a
/// [`CompileReply`]: the body of [`compile_reply`] and of a service
/// compile.
fn session_reply(
    open: impl FnOnce() -> Result<Arc<CompileSession>, String>,
    canonical: String,
    key: String,
    config: Config,
    gpu: &GpuModel,
    budget: &Budget,
    opts: &CompileOptions,
) -> Result<CompileReply, String> {
    // Session opening is bracketed too: a kernel's first request reports
    // its dependence analysis.
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

/// What [`CompileService::prepare`] found for a request.
#[derive(Debug)]
pub enum Lookup {
    /// Its cached answer.
    Hit(Answer),
    /// A miss, to [`CompileService::compile`].
    Miss(Pending),
}

/// A missed request: what its compile needs.
#[derive(Debug)]
pub struct Pending {
    config: Config,
    canonical: String,
    opts: CompileOptions,
    key: String,
}

/// What [`CompileService::stored`] found: a hit, an entry that is no
/// usable reply (a miss, which a compile overwrites), or no entry.
enum Found {
    Hit(Answer),
    Unusable,
    Nothing,
}

#[derive(Default)]
struct Flight {
    result: Mutex<Option<Result<Answer, String>>>,
    done: Condvar,
}

/// Resource-governance counters of one [`CompileService`] (process-local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Governance {
    /// Requests whose scheduling degraded (influence dropped) under budget.
    pub degraded_solves: u64,
    /// Requests aborted by a tripped cancel flag (request timeouts).
    pub cancelled_solves: u64,
    /// Compiler panics converted to error replies.
    pub panics_recovered: u64,
    /// Requests compiled under a persisted tuned configuration.
    pub tuned_applied: u64,
}

/// How many per-kernel [`CompileSession`]s (dependence analysis, Farkas
/// systems, scheduling context) a [`CompileService`] keeps warm, LRU.
const SESSION_CAP: usize = 8;

/// Compile-through-cache with single-flight deduplication, shared by the
/// daemon's threads. Its pool of warm [`CompileSession`]s by canonical
/// kernel serves every configuration and option set of that kernel;
/// metered budgets never touch the shared memos.
pub struct CompileService {
    /// The disk cache, written behind the reply ([`WriteBehind`]).
    cache: Option<WriteBehind>,
    /// The in-memory tier above the disk ([`Self::with_hot_tier`]): the
    /// payloads of fresh undegraded compiles and of entries' first reads.
    hot: Option<Mutex<HotTier>>,
    gpu: GpuModel,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    sessions: Mutex<Vec<(String, Arc<CompileSession>)>>,
    governance: Mutex<Governance>,
}

impl CompileService {
    /// A service compiling for `gpu`, optionally over a cache.
    pub fn new(cache: Option<DiskCache>, gpu: GpuModel) -> CompileService {
        CompileService {
            cache: cache.map(WriteBehind::new),
            hot: None,
            gpu,
            inflight: Mutex::new(HashMap::new()),
            sessions: Mutex::new(Vec::new()),
            governance: Mutex::default(),
        }
    }

    /// Enables the hot tier of at most `cap` payloads (`0`: none).
    pub fn with_hot_tier(mut self, cap: usize) -> CompileService {
        self.hot = (cap > 0).then(|| Mutex::new(HotTier::new(cap)));
        self
    }

    /// Hot-tier occupancy and lifetime hits, when the tier is enabled.
    pub fn hot_stats(&self) -> Option<(usize, u64)> {
        self.hot().map(|hot| (hot.len(), hot.hits()))
    }

    fn hot(&self) -> Option<MutexGuard<'_, HotTier>> {
        Some(self.hot.as_ref()?.lock().expect("hot lock poisoned"))
    }

    fn hot_put(&self, key: &str, payload: &str) {
        if let Some(mut hot) = self.hot() {
            hot.put_payload(key, payload.to_string());
        }
    }

    /// The GPU model requests compile against.
    pub fn gpu(&self) -> &GpuModel {
        &self.gpu
    }

    /// The service's resource-governance counters.
    pub fn governance(&self) -> Governance {
        *self.count()
    }

    fn count(&self) -> MutexGuard<'_, Governance> {
        self.governance.lock().expect("governance lock poisoned")
    }

    /// Runs `f` on the cache, if any, once every answered entry landed.
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut DiskCache) -> R) -> Option<R> {
        self.cache.as_ref().map(|c| c.settled(f))
    }

    /// `key`'s entry in the attached cache, if any ([`WriteBehind::read`]).
    pub(crate) fn read_cache(&self, key: &str, optional: bool) -> Option<(String, Json)> {
        let entry = self.cache.as_ref()?.read(key, optional)?;
        let json = entry.json.or_else(|| Json::parse(&entry.payload).ok())?;
        Some((entry.kind, json))
    }

    /// The warm [`CompileSession`] for `canonical`, opened on first use
    /// outside the pool lock (a compiler panic must not poison it).
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

    /// Serves one request unbudgeted: [`CompileService::prepare`], then
    /// [`CompileService::compile`] on a miss (the daemon runs the second on
    /// a worker), the answer decoded.
    ///
    /// # Errors
    ///
    /// Those of the two steps.
    pub fn serve(&self, src: &str, config_name: &str) -> Result<(CompileReply, Served), String> {
        let (answer, served) = match self.prepare(src, config_name)? {
            Lookup::Hit(answer) => (answer, Served::Hit),
            Lookup::Miss(request) => self.compile(request, &Budget::unlimited())?,
        };
        Ok((answer.decode()?, served))
    }

    /// Runs compiler code on request input, a panic a counted error.
    fn guarded<T>(&self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            self.count().panics_recovered += 1;
            polyject_sets::counters::note_panic_recovered(1);
            Err(format!("compiler panicked: {msg}"))
        })
    }

    /// Step one of a request: its cached answer, or what its compile needs
    /// (configuration, canonical form, options — a persisted tuning
    /// redirects them — and their key).
    ///
    /// The checked hit: `src` is hashed as it arrived. If that key is
    /// queued or indexed, untuned, and its entry's canonical text is `src`,
    /// that text being a fixpoint proves `src` canonical and the entry its
    /// answer. Otherwise `src` is canonicalised; if it was canonical, what
    /// the probe read is this lookup.
    ///
    /// # Errors
    ///
    /// Unknown configuration names and parse errors.
    pub fn prepare(&self, src: &str, config_name: &str) -> Result<Lookup, String> {
        let config = config_by_name(config_name)?;
        let guess = cache_key(src, config.name(), &self.gpu);
        let mut probe = None;
        if self.cache.as_ref().is_some_and(|c| c.holds(&guess)) {
            // The tuned probe of an untuned kernel: an index lookup, a `stat`.
            let tuned = load_tuned(self, &tuned_key_of(&guess));
            match tuned.is_none().then(|| self.stored(&guess, true)) {
                Some(Found::Hit(answer)) if answer.canonical_is(src) => {
                    return Ok(Lookup::Hit(answer));
                }
                found => probe = Some((tuned, found)),
            }
        }
        let canonical = self.guarded(|| {
            polyject_front::canonical_pj(src).map_err(|e| format!("parse error: {e}"))
        })?;
        let (base, probe) = match canonical == src {
            true => (guess, probe),
            false => (cache_key(&canonical, config.name(), &self.gpu), None),
        };
        let (tuned, found) =
            probe.unwrap_or_else(|| (load_tuned(self, &tuned_key_of(&base)), None));
        let (opts, key) = match tuned {
            Some(tuned) => {
                self.count().tuned_applied += 1;
                let key =
                    cache_key_with_options(&canonical, config.name(), &self.gpu, &tuned.point);
                (tuned.point, key)
            }
            None => (CompileOptions::default(), base),
        };
        // A probe that found no entry counted no miss; this lookup does.
        let found = match found {
            Some(Found::Nothing) | None => self.stored(&key, false),
            Some(found) => found,
        };
        Ok(match found {
            Found::Hit(answer) => Lookup::Hit(answer),
            _ => Lookup::Miss(Pending {
                config,
                canonical,
                opts,
                key,
            }),
        })
    }

    /// `key`'s cached answer: the hot tier's, else the disk entry's — its
    /// stored text once vouched for. The entry's first read decodes it
    /// instead, answers (and enters the hot tier) with the reply rendered
    /// again, and vouches if that is the stored text. Another kind, an
    /// undecodable payload or a canonical text that is no fixpoint is
    /// [`Found::Unusable`].
    fn stored(&self, key: &str, optional: bool) -> Found {
        if let Some(payload) = self.hot().and_then(|mut hot| hot.get(key)) {
            return Found::Hit(Answer(payload));
        }
        let Some(cache) = &self.cache else {
            return Found::Nothing;
        };
        let Some(entry) = cache.read(key, optional) else {
            return Found::Nothing;
        };
        let reply = match (entry.kind == "compile", &entry.json) {
            (false, _) => return Found::Unusable,
            (true, None) => return Found::Hit(Answer(entry.payload)),
            (true, Some(json)) => CompileReply::from_json(json),
        };
        let Ok(reply) = reply else {
            return Found::Unusable;
        };
        let canonical = self.guarded(|| polyject_front::canonical_pj(&reply.canonical_pj));
        if canonical.as_ref() != Ok(&reply.canonical_pj) {
            return Found::Unusable;
        }
        let payload = reply.to_json().render();
        if payload == entry.payload {
            cache.vouch(key, entry.checksum);
        }
        self.hot_put(key, &payload);
        Found::Hit(Answer(payload))
    }

    /// Step two, for a missed request: compiles it once per key however
    /// many identical requests are in flight (they share its outcome). An
    /// exhausted budget degrades the compile: answered, **not cached**, so
    /// an unpressured request recompiles in full. A cancel flag aborts it.
    ///
    /// # Errors
    ///
    /// Scheduling and cancellation errors, and compiler panics.
    pub fn compile(&self, request: Pending, budget: &Budget) -> Result<(Answer, Served), String> {
        let key = &request.key;
        // Single-flight: first caller for a key compiles, the rest wait.
        let (flight, leader) = {
            let mut map = self.inflight.lock().expect("inflight lock poisoned");
            let leader = !map.contains_key(key);
            (Arc::clone(map.entry(key.clone()).or_default()), leader)
        };

        if !leader {
            let slot = flight.result.lock().expect("flight lock poisoned");
            let slot = flight.done.wait_while(slot, |r| r.is_none());
            let outcome = slot.expect("flight wait poisoned").clone();
            return outcome
                .expect("checked above")
                .map(|r| (r, Served::Coalesced));
        }

        // A flight that ended since the lookup cached its reply before
        // leaving the table: look again, as for an optional entry.
        let (result, served) = match self.stored(key, true) {
            Found::Hit(answer) => (Ok(answer), Served::Hit),
            _ => (self.fresh(&request, budget), Served::Fresh),
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

    /// Compiles a request and books the outcome: governance counters, and
    /// both cache tiers for an undegraded reply, which all take the one
    /// rendering of its payload.
    fn fresh(&self, request: &Pending, budget: &Budget) -> Result<Answer, String> {
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
        let reply = compiled.inspect_err(|_| {
            if budget.is_cancelled() {
                self.count().cancelled_solves += 1;
            }
        })?;
        let payload = reply.to_json().render();
        self.count().degraded_solves += reply.solver.degraded_solves;
        if reply.solver.degraded_solves == 0 {
            self.hot_put(key, &payload);
            if let Some(cache) = &self.cache {
                cache.put(DiskCache::encode(key, "compile", &payload));
            }
        }
        Ok(Answer(payload))
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

        // Nuke the disk entry, once landed, out from under the service: the
        // hot tier must keep answering hits without touching the disk.
        svc.with_cache(|_| ());
        std::fs::remove_dir_all(dir.join("entries")).unwrap();
        let (b, how) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(how, Served::Hit);
        assert_eq!(a, b, "hot tier serves the exact cached artifact");
        assert!(svc.hot_stats().unwrap().1 >= 1, "hot hit counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entrys_first_read_vouches_and_later_reads_parse_nothing() {
        let dir = std::env::temp_dir().join(format!("pj-vouch-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open_default(&dir).unwrap();
        let svc = CompileService::new(Some(cache), GpuModel::v100());
        let (reply, how) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(how, Served::Fresh);
        svc.with_cache(|_| ());
        // Whether a read of the landed entry parses its payload: only an
        // entry whose index row vouches for its checksum skips the parse.
        let read = || svc.cache.as_ref().unwrap().read(&reply.key, true).unwrap();
        assert!(read().json.is_some(), "a landed entry is not vouched for");
        let hit = || match svc.prepare(SRC, "infl").unwrap() {
            Lookup::Hit(answer) => answer.0,
            Lookup::Miss(_) => panic!("the landed entry missed"),
        };
        let first = hit();
        let entry = read();
        assert!(entry.json.is_none(), "the first lookup vouched for it");
        assert_eq!(first, entry.payload, "it answered the stored text");
        assert_eq!(hit(), entry.payload, "later lookups answer it too");
        assert!(read().json.is_none(), "and leave it vouched for");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metered_requests_neither_read_nor_write_the_session_memos() {
        let svc = CompileService::new(None, GpuModel::v100());
        let metered = Budget::unlimited().with_max_pivots(u64::MAX);
        let serve = |budget: &Budget| {
            let before = polyject_sets::counters::snapshot();
            let Lookup::Miss(request) = svc.prepare(SRC, "infl").unwrap() else {
                panic!("no cache attached");
            };
            let (answer, _) = svc.compile(request, budget).unwrap();
            (
                answer.decode().unwrap(),
                polyject_sets::counters::snapshot().delta_since(&before),
            )
        };
        // The metered request opens the pooled session but leaves its
        // schedule memo empty: the unmetered request after it solves anew.
        let (m1, d) = serve(&metered);
        assert_eq!(d.session_reuses, 0, "metered requests never reuse");
        let (u1, d) = serve(&Budget::unlimited());
        assert_eq!(d.session_reuses, 0, "the metered run left no warm state");
        assert!(d.lp_solves > 0);
        // Nor is it served from the schedule the unmetered one memoized.
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
