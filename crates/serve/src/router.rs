//! The `polyject-router` core: consistent-hash sharding of the cache
//! key space across a fleet of `polyjectd` daemons, with the robustness
//! machinery a front tier needs to *degrade instead of fail*:
//!
//! * **Hedged requests** — after a deterministic hedge delay (or as
//!   soon as the primary's socket breaks), a second replica is raced
//!   against the primary; the first *answer* wins — a broken socket
//!   only forfeits its own leg, never the attempt — and the loser's
//!   in-flight solve is cancelled by request id only once a definitive
//!   answer has won.
//! * **Retry with capped exponential backoff** — transient failures
//!   (socket errors, `overloaded`, errors tagged `"retryable":true`)
//!   walk the replica list with jittered backoff; deterministic errors
//!   (parse/config) are returned as-is, never retried.
//! * **Failover** — a dead or partitioned shard accrues failures and is
//!   deprioritized (tried last, never skipped) until a success heals it.
//! * **R-way replication of hot keys** — keys served at least
//!   [`RouterConfig::hot_threshold`] times are pushed to their ring
//!   replicas over checksummed `transfer` requests, so a shard death
//!   does not cold-start the fleet's hottest kernels.
//! * **Warm transfer on membership change** — join/leave re-homes
//!   entries to their new owners; transfers are resumable (failures are
//!   counted and retried on the next rebalance) and torn-transfer-safe
//!   (the receiver re-verifies the checksum before storing).
//!
//! One request path: [`Router::compile`] is [`Router::compile_batch`] of
//! one item. Its [`ShardedClient`] keys the items, scatters a batch of
//! several by owner and keeps shard health; whatever is still unanswered
//! — all of a one-item request — walks the hedged item stage, and every
//! reply, scattered or hedged, is settled by the same code.
//!
//! Every random decision (jitter, injected chaos) is drawn from one
//! SplitMix64 stream seeded by `seed ^ fnv1a64(key) ^ request index`,
//! and drawn *before* any thread is spawned, so a same-seed replay of
//! the same request sequence makes byte-identical decisions.

use crate::client::{run_leg, Client, Endpoint, ShardedClient};
use crate::faults::{LegChaos, NetChaos};
use crate::hash::{fnv1a64, hex_digest};
use crate::json::Json;
use crate::protocol::{error_response, ok_with, BatchItem, CompileReply, Request, Verdict};
use crate::stats::ShardMetrics;
use polyject_arith::SplitMix64;
use polyject_gpusim::GpuModel;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Router`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The backend `polyjectd` endpoints (the initial membership).
    pub shards: Vec<Endpoint>,
    /// How long the primary leg runs before a hedge leg is fired.
    pub hedge_after: Duration,
    /// Retry attempts after the first (each walks to the next replica).
    pub retries: u32,
    /// Base backoff between retries (doubled per attempt).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Socket read/write timeout per leg.
    pub io_timeout: Duration,
    /// Seed for jitter and injected chaos; same seed + same request
    /// sequence replays the same decisions.
    pub seed: u64,
    /// Requests served for one key before it is replicated.
    pub hot_threshold: u64,
    /// GPU model used for client-side cache keys (must match the
    /// daemons' model for shard placement to align with their caches).
    pub gpu: GpuModel,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: Vec::new(),
            hedge_after: Duration::from_millis(30),
            retries: 3,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
            seed: 0,
            hot_threshold: 2,
            gpu: GpuModel::v100(),
        }
    }
}

/// Per-key hotness bookkeeping.
#[derive(Default)]
struct HotKey {
    serves: u64,
    replicated: bool,
}

/// Outcome of one hedged attempt (up to two legs): the first frame a
/// leg answered, if any, and every leg that failed at the socket level
/// (or was still silent when the attempt as a whole timed out).
struct Attempt {
    answer: Option<(Endpoint, Json)>,
    broken: Vec<(Endpoint, String)>,
}

/// The routing front: shard selection, hedging, retry, failover,
/// replication, and warm transfer over a fleet of daemons.
pub struct Router {
    config: RouterConfig,
    /// The ring walk: keying, scatter, shard health, kept connections.
    client: ShardedClient,
    metrics: Mutex<HashMap<String, ShardMetrics>>,
    chaos: Option<Mutex<NetChaos>>,
    hot: Mutex<HashMap<String, HotKey>>,
    /// Per-router token mixed into request ids. Cancels address solves
    /// by id on shared daemons, so ids must be globally unique across
    /// router processes and restarts — two routers counting from the
    /// same `next_req` would cancel each other's in-flight work.
    instance: u64,
    next_req: AtomicU64,
    requests: AtomicU64,
}

impl Router {
    /// Builds a router over the configured shards.
    pub fn new(config: RouterConfig) -> Router {
        static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);
        let boot_nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let instance = SplitMix64::new(
            boot_nanos
                ^ (u64::from(std::process::id()) << 32)
                ^ INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed),
        )
        .next_u64();
        Router {
            client: ShardedClient::new(config.shards.clone(), config.gpu.clone()),
            config,
            metrics: Mutex::new(HashMap::new()),
            chaos: None,
            hot: Mutex::new(HashMap::new()),
            instance,
            next_req: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// Attaches a seeded network chaos injector (chaos suite only).
    pub fn with_chaos(mut self, chaos: NetChaos) -> Router {
        self.chaos = Some(Mutex::new(chaos));
        self
    }

    /// Chaos faults injected so far (0 without an injector).
    pub fn chaos_injected(&self) -> u64 {
        self.chaos
            .as_ref()
            .map(|c| c.lock().expect("chaos lock").injected())
            .unwrap_or(0)
    }

    /// Forces the next `n` transfer payloads to be torn mid-flight
    /// (chaos suites only; a no-op without an attached injector).
    pub fn force_torn_transfers(&self, n: u32) {
        if let Some(c) = &self.chaos {
            c.lock().expect("chaos lock").force_torn_transfers(n);
        }
    }

    fn with_metrics<R>(&self, endpoint: &Endpoint, f: impl FnOnce(&mut ShardMetrics) -> R) -> R {
        let mut map = self.metrics.lock().expect("metrics lock");
        f(map.entry(endpoint.to_string()).or_default())
    }

    /// Sum of one counter across all shards (test/report helper).
    pub fn total(&self, pick: impl Fn(&ShardMetrics) -> u64) -> u64 {
        let map = self.metrics.lock().expect("metrics lock");
        map.values().map(&pick).sum()
    }

    fn endpoints(&self) -> Vec<Endpoint> {
        let m = self.client.members();
        m.shards().iter().map(|s| s.endpoint.clone()).collect()
    }

    /// The key of every entry a shard holds; `None` when it is
    /// unreachable.
    fn shard_keys(&self, endpoint: &Endpoint) -> Option<Vec<String>> {
        let resp = self.ask(endpoint, |c| c.request(&Request::Keys)).ok()?;
        let rows = resp.get("keys").and_then(Json::as_arr)?;
        let key = |row: &Json| row.str_field("key").ok().map(str::to_string);
        Some(rows.iter().filter_map(key).collect())
    }

    /// One chaos-free exchange with a shard under the configured socket
    /// timeout (cancels, key listings, transfers).
    fn ask<T>(
        &self,
        endpoint: &Endpoint,
        send: impl Fn(&mut Client) -> io::Result<T>,
    ) -> io::Result<T> {
        let (pool, timeout) = (&self.client.pool, Some(self.config.io_timeout));
        run_leg(pool, endpoint, timeout, LegChaos::default(), send)
    }

    /// Pre-draws the chaos verdicts for one leg. Always called on the
    /// request thread, in a fixed order — leg threads must never
    /// consume shared randomness (replays would depend on scheduling).
    fn plan_leg(&self, endpoint: &Endpoint) -> LegChaos {
        let chaos = self.chaos.as_ref().map(|c| c.lock().expect("chaos lock"));
        chaos.map_or_else(LegChaos::default, |mut c| c.plan_leg(&endpoint.to_string()))
    }

    /// Compiles `.pj` source through the fleet — a batch of one. Always
    /// returns a frame: `ok` from whichever replica answered first, a
    /// deterministic `error` verbatim from a shard, or a structured
    /// routing error when every candidate was exhausted — never a hang,
    /// never a panic.
    pub fn compile(&self, src: &str, config: &str) -> Json {
        let mut replies = self.compile_batch(&[BatchItem::new(src, config)]);
        replies.pop().expect("one reply per item")
    }

    /// Compiles a batch, one reply per item in request order. The client
    /// keys the items (parse errors answered at once, no shard contact)
    /// and scatters a batch of several; its barrier keeps the item
    /// stage's RNG draws in item order. Whatever is still unanswered —
    /// all of a one-item request, and what a sub-batch could not settle
    /// (dead shard, poisoned connection, retryable reply) — walks the
    /// hedged/retried/failed-over item stage sequentially in item order.
    ///
    /// Chaos verdicts are pre-drawn on the request thread and the item
    /// stage is sequential, so a same-seed replay of the same request
    /// sequence makes byte-identical decisions.
    pub fn compile_batch(&self, items: &[BatchItem]) -> Vec<Json> {
        self.requests
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let keys: Vec<Result<String, Json>> = items.iter().map(|it| self.client.key(it)).collect();
        let scattered = items.len() > 1;
        let mut slots: Vec<Option<Json>> = vec![None; items.len()];
        if scattered {
            let plan = |endpoint: &Endpoint, n: usize| {
                self.with_metrics(endpoint, |m| m.requests += n as u64);
                self.plan_leg(endpoint)
            };
            let settle = |key: &str, by: &Endpoint, resp| self.settle(key, by, resp, false).ok();
            let timeout = Some(self.config.io_timeout);
            let broken = self
                .client
                .scatter(items, &keys, &mut slots, timeout, plan, settle);
            for endpoint in broken {
                self.with_metrics(&endpoint, |m| m.connect_failures += 1);
            }
        }
        (items.iter().zip(keys).zip(slots))
            .map(|((item, key), slot)| match (slot, key) {
                (Some(resp), _) | (None, Err(resp)) => resp,
                (None, Ok(key)) => self.item_stage(item, &key, scattered),
            })
            .collect()
    }

    /// The item stage: up to `1 + retries` hedged attempts walking the
    /// key's replicas, with capped exponential backoff and seeded
    /// jitter between them. `rerouted` marks an item the scatter stage
    /// already failed to settle (an `ok` here then counts as a
    /// failover).
    fn item_stage(&self, item: &BatchItem, key: &str, rerouted: bool) -> Json {
        let req_index = self.next_req.fetch_add(1, Ordering::Relaxed);
        let mut rng = SplitMix64::new(self.config.seed ^ fnv1a64(key.as_bytes()) ^ req_index);
        let candidates = self.client.replicas(key);
        if candidates.is_empty() {
            return error_response("no shards configured");
        }

        let mut last_failure = String::new();
        for attempt in 0..=self.config.retries {
            // Leg 0 is the primary, leg 1 (when the fleet has a second
            // candidate) the hedge. Every random verdict is drawn here,
            // up front: jitter, then each leg's chaos.
            let n = attempt as usize;
            let jitter_ms = rng.next_u64() % 16;
            let legs: Vec<(Endpoint, LegChaos)> = (0..candidates.len().min(2))
                .map(|leg| &candidates[(n + leg) % candidates.len()])
                .map(|ep| (ep.clone(), self.plan_leg(ep)))
                .collect();
            if attempt > 0 {
                self.with_metrics(&legs[0].0, |m| m.retries += 1);
                let shift = (attempt - 1).min(16);
                let backoff = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << shift)
                    .min(self.config.backoff_cap)
                    + Duration::from_millis(jitter_ms);
                std::thread::sleep(backoff);
            }
            let tried = self.hedged_attempt(item, req_index, attempt, &legs);
            for (ep, why) in &tried.broken {
                self.client.members().record_failure(ep);
                self.with_metrics(ep, |m| m.connect_failures += 1);
                last_failure = format!("{ep}: {why}");
            }
            if let Some((by, resp)) = tried.answer {
                // A later attempt, a sibling leg's dead socket within
                // this one, or a failed scatter leg before it: either
                // way the fleet routed around a failure.
                let rerouted = rerouted || attempt > 0 || !tried.broken.is_empty();
                match self.settle(key, &by, resp, rerouted) {
                    Ok(frame) => {
                        self.client.members().record_success(&by);
                        return frame;
                    }
                    Err(why) => last_failure = why,
                }
            }
        }
        error_response(&format!(
            "all {} replicas exhausted after {} attempts; last failure: {last_failure}",
            candidates.len(),
            self.config.retries + 1,
        ))
    }

    /// Settles the frame `by` answered for `key` — the [`ShardMetrics`]
    /// updates of every reply, scattered or hedged. `Ok` is the caller's
    /// final frame (and a success for `by`'s health); `Err` says why to
    /// try another replica.
    fn settle(&self, key: &str, by: &Endpoint, resp: Json, rerouted: bool) -> Result<Json, String> {
        match Verdict::of(&resp) {
            Verdict::Ok => {
                let cached = resp.get("cached").and_then(Json::as_bool) == Some(true);
                self.with_metrics(by, |m| {
                    m.ok += 1;
                    m.cache_hits += u64::from(cached);
                    m.failovers += u64::from(rerouted);
                });
                self.note_hot(key, by, &resp);
                Ok(tag_via(resp, by))
            }
            Verdict::Final => {
                self.with_metrics(by, |m| m.errors += 1);
                Ok(resp)
            }
            transient => {
                self.with_metrics(by, |m| m.errors += 1);
                let why = match transient {
                    Verdict::Overloaded => "overloaded",
                    _ => resp.str_field("message").unwrap_or("no status"),
                };
                Err(format!("{by}: {why}"))
            }
        }
    }

    /// Runs one attempt: the primary leg in a worker thread, the hedge
    /// leg fired once the primary is silent past the hedge delay (or as
    /// soon as its socket breaks). The first *answer* wins — a broken leg
    /// only forfeits its own slot, so a fast connect failure can never
    /// outrank a healthy replica mid-solve. Only a leg that lost to a
    /// definitive answer is cancelled; the attempt fails only when
    /// every spawned leg has broken.
    fn hedged_attempt(
        &self,
        item: &BatchItem,
        req_index: u64,
        attempt: u32,
        legs: &[(Endpoint, LegChaos)],
    ) -> Attempt {
        let (tx, rx) = mpsc::channel::<(usize, io::Result<Json>)>();
        let io_timeout = self.config.io_timeout;
        let req_of = |leg: usize| {
            let tag = if leg == 0 { 'a' } else { 'b' };
            format!("{:016x}.{req_index:08x}.{attempt}.{tag}", self.instance)
        };
        // All chaos verdicts were pre-drawn; a leg thread only does
        // socket work and reports through the channel (best-effort — the
        // receiver may already have a winner).
        let spawn = |leg: usize| {
            let (endpoint, chaos) = legs[leg].clone();
            self.with_metrics(&endpoint, |m| {
                m.requests += 1;
                m.hedges_fired += u64::from(leg == 1);
            });
            let tagged = Request::compile(&item.src, &item.config, Some(req_of(leg)));
            let (tx, pool) = (tx.clone(), Arc::clone(&self.client.pool));
            std::thread::spawn(move || {
                let outcome = run_leg(&pool, &endpoint, Some(io_timeout), chaos, |c| {
                    c.request(&tagged)
                });
                let _ = tx.send((leg, outcome));
            });
        };
        let named = |broken: Vec<(usize, String)>| -> Vec<(Endpoint, String)> {
            (broken.into_iter())
                .map(|(leg, why)| (legs[leg].0.clone(), why))
                .collect()
        };

        // Phase 1: the primary gets the hedge window to itself. An
        // answer here wins outright; a broken socket falls through and
        // fires the hedge immediately — no point waiting out the window
        // on a connection that already died.
        spawn(0);
        let mut broken: Vec<(usize, String)> = Vec::new();
        match rx.recv_timeout(self.config.hedge_after) {
            Ok((_, Ok(resp))) => {
                return Attempt {
                    answer: Some((legs[0].0.clone(), resp)),
                    broken: Vec::new(),
                }
            }
            Ok((leg, Err(e))) => broken.push((leg, e.to_string())),
            Err(_) => {}
        }
        let spawned = legs.len();
        if spawned > 1 {
            spawn(1);
        }
        drop(tx);

        // Phase 2: wait for the first answer while any leg is still in
        // flight; broken legs accumulate instead of deciding the race.
        let deadline = Instant::now() + io_timeout + self.config.hedge_after;
        while broken.len() < spawned {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok((leg, Ok(resp))) => {
                    let by = legs[leg].0.clone();
                    if leg == 1 {
                        self.with_metrics(&by, |m| m.hedge_wins += 1);
                    }
                    // Cancel only a leg that is still in flight and lost
                    // to a definitive answer (ok, or a deterministic
                    // error the caller will receive). A retryable answer
                    // leaves the sibling alone — it may yet produce the
                    // real result.
                    let other = 1 - leg;
                    let in_flight = other < spawned && !broken.iter().any(|(l, _)| *l == other);
                    if in_flight && !Verdict::of(&resp).transient() {
                        let loser = &legs[other].0;
                        if self.cancel_on(loser, &req_of(other)) {
                            self.with_metrics(loser, |m| m.hedge_cancels += 1);
                        }
                    }
                    return Attempt {
                        answer: Some((by, resp)),
                        broken: named(broken),
                    };
                }
                Ok((leg, Err(e))) => broken.push((leg, e.to_string())),
                Err(_) => {
                    // Attempt-level timeout: abandon the outstanding
                    // legs without cancelling them (they lost to
                    // nothing; a late answer may still warm the cache).
                    for leg in 0..spawned {
                        if !broken.iter().any(|(l, _)| *l == leg) {
                            broken.push((leg, "attempt timed out with no answer".to_string()));
                        }
                    }
                    broken.sort_by_key(|(leg, _)| *leg);
                }
            }
        }
        Attempt {
            answer: None,
            broken: named(broken),
        }
    }

    /// Best-effort cancel of `req` on `endpoint`; true when the daemon
    /// found and tripped an in-flight solve.
    fn cancel_on(&self, endpoint: &Endpoint, req: &str) -> bool {
        let cancel = Request::Cancel {
            req: req.to_string(),
        };
        self.ask(endpoint, |c| c.request(&cancel))
            .is_ok_and(|resp| resp.get("cancelled").and_then(Json::as_bool) == Some(true))
    }

    /// Bumps the key's serve count; once it crosses the hot threshold,
    /// pushes the entry to its ring replicas. Failures leave the key
    /// un-replicated so the next serve retries (resumable).
    fn note_hot(&self, key: &str, served_by: &Endpoint, resp: &Json) {
        let due = {
            let mut hot = self.hot.lock().expect("hot lock");
            let state = hot.entry(key.to_string()).or_default();
            state.serves += 1;
            state.serves >= self.config.hot_threshold && !state.replicated
        };
        if !due {
            return;
        }
        // `ok` responses embed the reply fields at the top level, so the
        // payload a replica stores is exactly the entry the serving shard
        // holds.
        let Ok(reply) = CompileReply::from_json(resp) else {
            return;
        };
        if self.replicate(&reply, served_by) {
            let mut hot = self.hot.lock().expect("hot lock");
            if let Some(state) = hot.get_mut(key) {
                state.replicated = true;
            }
        }
    }

    /// Pushes one entry to every ring replica except the shard that just
    /// served it. True only if every push landed.
    fn replicate(&self, reply: &CompileReply, served_by: &Endpoint) -> bool {
        let mut targets = self.client.replicas(&reply.key);
        targets.retain(|e| e != served_by);
        let payload = reply.to_json();
        let checksum = hex_digest(&payload.render());
        let mut all_ok = true;
        for target in targets {
            match self.push_entry(&target, &reply.key, "compile", &payload, &checksum) {
                Ok(true) => self.with_metrics(&target, |m| m.transfers_out += 1),
                _ => all_ok = false,
            }
        }
        all_ok
    }

    /// Transfers one entry to `target` under the sender's `checksum`.
    /// Chaos may tear the payload mid-flight (truncate it); the receiver
    /// re-verifies the checksum and must reject the torn copy.
    fn push_entry(
        &self,
        target: &Endpoint,
        key: &str,
        kind: &str,
        payload: &Json,
        checksum: &str,
    ) -> Result<bool, String> {
        let torn = self
            .chaos
            .as_ref()
            .and_then(|c| c.lock().expect("chaos lock").torn_transfer(payload));
        let push = Request::Transfer {
            key: key.to_string(),
            kind: kind.to_string(),
            payload: torn.unwrap_or_else(|| payload.clone()),
            checksum: checksum.to_string(),
        };
        let resp = self
            .ask(target, |c| c.request(&push))
            .map_err(|e| e.to_string())?;
        Ok(resp.get("stored").and_then(Json::as_bool) == Some(true))
    }

    /// Adds a shard and warm-transfers the entries it now owns from the
    /// rest of the fleet. Returns a progress report; transfer failures
    /// are counted, not fatal (rerunning the join resumes the transfer).
    pub fn join(&self, endpoint: &Endpoint) -> Json {
        let added = self.client.members().add(endpoint.clone());
        let report = self.rebalance();
        membership_report("join", added, report)
    }

    /// Removes a shard. While it is still reachable its entries are
    /// re-homed first (planned decommission); a dead shard is simply
    /// dropped and its keys re-converge from replicas.
    pub fn leave(&self, endpoint: &Endpoint) -> Json {
        let removed = self.client.members().remove(endpoint);
        let report = self.rebalance();
        membership_report("leave", removed, report)
    }

    /// One resumable rebalance pass: every reachable shard's entries are
    /// offered to the ring owners that do not hold them yet. Returns
    /// `(moved, skipped, failed)`.
    pub fn rebalance(&self) -> (u64, u64, u64) {
        let endpoints = self.endpoints();
        // Snapshot who holds what (unreachable shards contribute nothing
        // and receive nothing this pass — the next pass resumes).
        let mut held: HashMap<String, HashSet<String>> = HashMap::new();
        for ep in &endpoints {
            let keys = self.shard_keys(ep).unwrap_or_default();
            held.entry(ep.to_string()).or_default().extend(keys);
        }
        let (mut moved, mut skipped, mut failed) = (0u64, 0u64, 0u64);
        for src_ep in &endpoints {
            let src_keys: Vec<String> = held
                .get(&src_ep.to_string())
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
            for key in src_keys {
                for owner in self.client.replicas(&key) {
                    if owner == *src_ep {
                        continue;
                    }
                    let owner_has = held
                        .get(&owner.to_string())
                        .is_some_and(|s| s.contains(&key));
                    if owner_has {
                        skipped += 1;
                        continue;
                    }
                    match self.copy_entry(src_ep, &owner, &key) {
                        Ok(true) => {
                            moved += 1;
                            self.with_metrics(&owner, |m| m.transfers_out += 1);
                            held.entry(owner.to_string())
                                .or_default()
                                .insert(key.clone());
                        }
                        _ => failed += 1,
                    }
                }
            }
        }
        (moved, skipped, failed)
    }

    /// Fetches one entry from `src` and transfers it to `dst`, with the
    /// sender's checksum carried alongside so a torn copy is rejected.
    fn copy_entry(&self, src: &Endpoint, dst: &Endpoint, key: &str) -> Result<bool, String> {
        let fetch = Request::Fetch {
            key: key.to_string(),
        };
        let fetched = self
            .ask(src, |c| c.request(&fetch))
            .map_err(|e| e.to_string())?;
        if fetched.get("found").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{src} no longer holds {key}"));
        }
        let payload = fetched.get("payload").ok_or("missing payload")?;
        let (kind, checksum) = (fetched.str_field("kind")?, fetched.str_field("checksum")?);
        self.push_entry(dst, key, kind, payload, checksum)
    }

    /// The router's own metrics report. With `deep`, every shard is
    /// probed for its key list and `replica_lag` (keys the ring says it
    /// should hold but it does not) is computed; unreachable shards get
    /// `-1`.
    pub fn metrics_json(&self, deep: bool) -> Json {
        let endpoints = self.endpoints();
        let lags = if deep {
            self.replica_lags(&endpoints)
        } else {
            HashMap::new()
        };
        let shard_rows = (endpoints.iter())
            .map(|ep| {
                self.with_metrics(ep, |m| {
                    let name = ep.to_string();
                    if let Some(lag) = lags.get(&name) {
                        m.replica_lag = *lag;
                    }
                    let mut row = vec![("endpoint".to_string(), Json::Str(name))];
                    if let Json::Obj(fields) = m.to_json() {
                        row.extend(fields);
                    }
                    Json::Obj(row)
                })
            })
            .collect();
        ok_with(vec![
            (
                "requests",
                Json::Num(self.requests.load(Ordering::Relaxed) as f64),
            ),
            ("chaos_injected", Json::Num(self.chaos_injected() as f64)),
            ("shards", Json::Arr(shard_rows)),
        ])
    }

    /// For each shard: how many keys the ring assigns it that it does
    /// not hold. Unreachable shards report `-1`.
    fn replica_lags(&self, endpoints: &[Endpoint]) -> HashMap<String, i64> {
        let held: Vec<Option<HashSet<String>>> = (endpoints.iter())
            .map(|ep| Some(self.shard_keys(ep)?.into_iter().collect()))
            .collect();
        // One ring walk per key — not per (key x shard) — each under its
        // own short membership lock, so a deep metrics probe cannot stall
        // concurrent compile routing on a large cache.
        let all_keys: HashSet<&String> = held.iter().flatten().flatten().collect();
        let owners_by_key: Vec<(&String, Vec<Endpoint>)> = (all_keys.into_iter())
            .map(|k| (k, self.client.replicas(k)))
            .collect();
        (endpoints.iter().zip(&held))
            .map(|(ep, keys)| {
                let lag = keys.as_ref().map_or(-1, |keys| {
                    owners_by_key
                        .iter()
                        .filter(|(key, owners)| owners.contains(ep) && !keys.contains(*key))
                        .count() as i64
                });
                (ep.to_string(), lag)
            })
            .collect()
    }
}

fn tag_via(resp: Json, served_by: &Endpoint) -> Json {
    match resp {
        Json::Obj(mut fields) => {
            fields.push(("via".to_string(), Json::Str(served_by.to_string())));
            Json::Obj(fields)
        }
        other => other,
    }
}

fn membership_report(op: &str, changed: bool, (moved, skipped, failed): (u64, u64, u64)) -> Json {
    ok_with(vec![
        ("op", Json::Str(op.to_string())),
        ("changed", Json::Bool(changed)),
        ("moved", Json::Num(moved as f64)),
        ("skipped", Json::Num(skipped as f64)),
        ("failed", Json::Num(failed as f64)),
    ])
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
    fn empty_fleet_answers_structurally() {
        let router = Router::new(RouterConfig::default());
        let resp = router.compile(SRC, "infl");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert!(
            resp.str_field("message").unwrap().contains("no shards"),
            "{}",
            resp.render()
        );
    }

    #[test]
    #[cfg(unix)]
    fn client_and_router_route_alike_and_answer_parse_errors_locally() {
        use crate::transport::testing::TestServer;
        let shards: Vec<TestServer> = (0..3)
            .map(|i| TestServer::start(&format!("agree{i}"), false, |_, _| false))
            .collect();
        let eps: Vec<Endpoint> = shards.iter().map(|s| s.endpoint.clone()).collect();
        let mut sc = ShardedClient::new(eps.clone(), GpuModel::v100());
        let router = Router::new(RouterConfig {
            shards: eps,
            ..RouterConfig::default()
        });
        let nets = polyject_workloads::all_networks();
        for op in polyject_workloads::unique_ops(&nets).0 {
            let src = polyject_front::emit_pj(&op.build()).expect("Table II op as .pj");
            for config in ["isl", "novec", "infl"] {
                let route = sc.route(&src, config);
                assert_eq!(route.len(), 2);
                assert_eq!(router.client.route(&src, config), route);
            }
        }
        // An unparsable source: `parse error` from both, no shard touched.
        let bad = ["kernel {{{", "("].map(|src| BatchItem::new(src, "infl"));
        let (mut replies, round_trips) = sc.compile_batch(&bad);
        replies.push(sc.compile("(", "isl").unwrap());
        replies.extend(router.compile_batch(&bad));
        replies.push(router.compile("(", "isl"));
        for reply in &replies {
            let message = reply.str_field("message").unwrap_or_default();
            assert!(message.starts_with("parse error"), "{}", reply.render());
        }
        assert_eq!((round_trips, router.total(|m| m.requests)), (0, 0));
        for shard in shards {
            assert_eq!(shard.accepts.load(Ordering::SeqCst), 0);
            shard.stop();
        }
    }

    #[test]
    fn dead_fleet_exhausts_replicas_with_structured_error() {
        let router = Router::new(RouterConfig {
            shards: vec![
                Endpoint::parse("/nonexistent/a.sock").unwrap(),
                Endpoint::parse("/nonexistent/b.sock").unwrap(),
            ],
            retries: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            hedge_after: Duration::from_millis(1),
            ..RouterConfig::default()
        });
        let resp = router.compile(SRC, "infl");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert!(
            resp.str_field("message").unwrap().contains("exhausted"),
            "{}",
            resp.render()
        );
        assert!(router.total(|m| m.connect_failures) >= 2);
        // The failed shards accrued health strikes, and the metrics list
        // every shard.
        assert!(router
            .client
            .members()
            .shards()
            .iter()
            .all(|s| s.consecutive_failures > 0));
        let m = router.metrics_json(false);
        assert_eq!(m.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(m.get("shards").and_then(Json::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn membership_report_shape() {
        let r = membership_report("join", true, (3, 1, 2));
        assert_eq!(r.get("op").and_then(Json::as_str), Some("join"));
        assert_eq!(r.get("moved").and_then(Json::as_u64), Some(3));
        assert_eq!(r.get("skipped").and_then(Json::as_u64), Some(1));
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(2));
    }
}
