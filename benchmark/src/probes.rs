//! Layer probes of a traced run: public functions of one layer called
//! directly, in spans, on the inputs and replies of the workload — for
//! the layers whose own time cannot be seen from outside a daemon.
//!
//! In-process probes repeat `REPS` times; a probe's time is the sum over
//! items of the best repetition, like every other timed number here.

use crate::fleet::Items;
use crate::inputs::Population;
use crate::metrics::{Ledger, PER_LAYER};
use crate::trace::{self, Layers};
use polyject_codegen::{compile, render_artifacts, Config};
use polyject_core::{Budget, InfluenceOptions, ScheduleSession, SchedulerOptions};
use polyject_gpusim::{estimate, GpuModel};
use polyject_serve::protocol::{read_frame, write_frame};
use polyject_serve::{
    cache_key, parallel_map, Client, CompileReply, CompileService, DiskCache, Endpoint, HotTier,
    Json, Router, RouterConfig, Served, ShardedClient,
};
use polyject_sets::SolverCounters;
use std::time::Instant;

const REPS: usize = 2;

/// The fields of a counter snapshot that count work (not nanoseconds):
/// a deterministic program repeats them exactly.
pub fn count_fields(c: &SolverCounters) -> [u64; 19] {
    [
        c.lp_solves,
        c.ilp_solves,
        c.ilp_nodes,
        c.fm_eliminations,
        c.lp_phase1_pivots,
        c.lp_phase2_pivots,
        c.bb_repair_pivots,
        c.bb_warm_nodes,
        c.tab_i64_solves,
        c.tab_overflow_escalations,
        c.farkas_linearizations,
        c.dependence_analyses,
        c.session_reuses,
        c.redundancy_checks,
        c.spec_adopted,
        c.spec_discarded,
        c.degraded_solves,
        c.cancelled_solves,
        c.panics_recovered,
    ]
}

/// The `sets.*` rows from the per-pass counter deltas of the client
/// thread: counts from the first pass (the run fails unless all passes
/// agree), the program's own clocks as the best pass.
pub fn set_solver_layers(layers: &mut Ledger, passes: &[SolverCounters]) {
    let Some(c) = passes.first() else { return };
    for (name, value) in [
        ("lp_solves", c.lp_solves),
        ("ilp_solves", c.ilp_solves),
        ("ilp_nodes", c.ilp_nodes),
        ("fm_eliminations", c.fm_eliminations),
        ("lp_phase1_pivots", c.lp_phase1_pivots),
        ("lp_phase2_pivots", c.lp_phase2_pivots),
        ("bb_repair_pivots", c.bb_repair_pivots),
        ("bb_warm_nodes", c.bb_warm_nodes),
        ("tab_i64_solves", c.tab_i64_solves),
        ("tab_overflow_escalations", c.tab_overflow_escalations),
        ("farkas_linearizations", c.farkas_linearizations),
        ("redundancy_checks", c.redundancy_checks),
        ("spec_adopted", c.spec_adopted),
        ("spec_discarded", c.spec_discarded),
    ] {
        layers.set(&format!("sets.{name}"), value as f64);
    }
    if c.ilp_nodes > 0 {
        layers.set(
            "sets.warm_node_share",
            c.bb_warm_nodes as f64 / c.ilp_nodes as f64,
        );
    }
    let best_ms =
        |f: fn(&SolverCounters) -> u64| passes.iter().map(f).min().unwrap_or(0) as f64 / 1e6;
    layers.set("sets.solve_ms", best_ms(|c| c.solve_ns));
    layers.set("sets.assemble_ms", best_ms(|c| c.assemble_ns));
    layers.set("sets.preprocess_ms", best_ms(|c| c.preprocess_ns));
}

/// Every `<span>_ms` row is that span's self time, every
/// `<span>_ms_p50` row the median over identities of its whole time.
/// Rows without a recorded span keep what they hold.
pub fn set_span_layers(layers: &mut Ledger, spans: &Layers) {
    let recorded = spans.names();
    for def in PER_LAYER {
        if let Some(span) = def.name.strip_suffix("_ms_p50") {
            if recorded.contains(&span) {
                layers.set(def.name, spans.p50_ms(span));
            }
        } else if let Some(span) = def.name.strip_suffix("_ms") {
            if recorded.contains(&span) {
                layers.set(def.name, spans.self_ms(span));
            }
        }
    }
}

/// Input generation as the workloads do it: every class built, and for
/// the serving workloads emitted as `.pj`.
pub fn inputs(pop: &Population, emit: bool) {
    for rep in 1..=REPS {
        trace::set_pass(rep);
        for (i, op) in pop.ops.iter().enumerate() {
            let kernel = trace::op_span("ir.build", i, || op.class.build());
            if emit {
                trace::op_span("front.emit", i, || polyject_front::emit_pj(&kernel))
                    .expect("set-up emitted this class already");
            }
        }
    }
}

/// The multi-core row: one `compile_cold` pass over the unique ops on
/// one worker ÷ the same on two. Ungated: two busy threads on a shared
/// two-core box do not repeat.
pub fn pool_scaling(pop: &Population, gpu: &GpuModel) -> f64 {
    let wall = |workers: usize| {
        polyject_core::clear_assembly_caches();
        let t0 = Instant::now();
        let done = parallel_map(&pop.ops, workers, |op| {
            for config in Config::all() {
                let c = compile(&op.kernel, config).expect("compiled in every pass");
                let out = (
                    render_artifacts(&op.kernel, &c),
                    estimate(&c.ast, &op.kernel, gpu),
                );
                std::hint::black_box(out);
            }
        });
        std::hint::black_box(done);
        t0.elapsed().as_secs_f64()
    };
    wall(1) / wall(2)
}

/// A session opened and one influenced schedule taken from it, per
/// unique op: the two calls `tune_search` and the batch path amortise.
pub fn sessions(pop: &Population) {
    for rep in 1..=REPS {
        trace::set_pass(rep);
        polyject_core::clear_assembly_caches();
        for (i, op) in pop.ops.iter().enumerate() {
            let session = trace::op_span("core.session_new", i, || {
                ScheduleSession::new(&op.kernel, SchedulerOptions::default())
            });
            trace::op_span("core.schedule_with", i, || {
                session.schedule_with(Some(&InfluenceOptions::default()), &Budget::unlimited())
            })
            .expect("scheduled in every pass");
        }
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The read side of the request path, layer by layer, over the replies
/// `serve_warm` just received — then the ways a client can reach a warm
/// daemon, on the idle fleet.
pub fn read_path(
    items: &Items,
    replies: &[Option<Json>],
    endpoints: &[Endpoint],
    gpu: &GpuModel,
    layers: &mut Ledger,
) {
    let served: Vec<(usize, &Json, CompileReply)> = replies
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let r = r.as_ref()?;
            Some((i, r, CompileReply::from_json(r).ok()?))
        })
        .collect();

    let (mut src_bytes, mut reply_bytes) = (0, 0);
    for rep in 1..=REPS {
        trace::set_pass(rep);
        (src_bytes, reply_bytes) = (0, 0);
        for (i, item) in items.unique.iter().enumerate() {
            src_bytes += item.src.len();
            trace::op_span("front.parse", i, || polyject_front::parse(&item.src))
                .expect("the daemons parsed it");
            let canonical = trace::op_span("front.canonical", i, || {
                polyject_front::canonical_pj(&item.src)
            })
            .expect("the daemons canonicalised it");
            let key = trace::op_span("serve.service.key", i, || {
                cache_key(&canonical, &item.config, gpu)
            });
            std::hint::black_box(key);
        }
        for (i, reply, _) in &served {
            let text = trace::op_span("serve.json.render", *i, || reply.render());
            reply_bytes += text.len();
            trace::op_span("serve.json.parse", *i, || Json::parse(&text))
                .expect("rendered by the same library");
            trace::op_span("serve.protocol.frame", *i, || {
                let mut wire = Vec::with_capacity(text.len() + 4);
                write_frame(&mut wire, reply)?;
                read_frame(&mut wire.as_slice())
            })
            .expect("an in-memory frame");
        }
    }
    layers.set("front.src_bytes", src_bytes as f64);
    layers.set("serve.json.reply_bytes", reply_bytes as f64);

    // The two cache tiers and the service over them.
    let dir = scratch("probe-read");
    let mut cache = DiskCache::open_default(&dir).expect("probe cache");
    let mut hot = HotTier::new(served.len());
    for (_, _, reply) in &served {
        cache
            .put(&reply.key, "compile", &reply.to_json())
            .expect("probe cache put");
        hot.put(&reply.key, reply.clone());
    }
    for rep in 1..=REPS {
        trace::set_pass(rep);
        for (i, _, reply) in &served {
            let hit = trace::op_span("serve.cache.get", *i, || cache.get(&reply.key));
            assert!(hit.is_some(), "probe cache lost an entry");
            let hit = trace::op_span("serve.hot.get", *i, || hot.get(&reply.key));
            assert!(hit.is_some(), "hot tier lost an entry");
        }
    }
    let cold_tier = CompileService::new(Some(cache), gpu.clone());
    let serve_all = |service: &CompileService, span: &'static str| {
        for (i, _, _) in &served {
            let item = &items.unique[*i];
            let (_, how) = trace::op_span(span, *i, || service.serve(&item.src, &item.config))
                .expect("served from the probe cache");
            assert_eq!(how, Served::Hit, "the probe service compiled");
        }
    };
    for rep in 1..=REPS {
        trace::set_pass(rep);
        serve_all(&cold_tier, "serve.service.hit");
    }
    drop(cold_tier);
    let cache = DiskCache::open_default(&dir).expect("probe cache reopen");
    let hot_tier = CompileService::new(Some(cache), gpu.clone()).with_hot_tier(served.len());
    trace::set_pass(0);
    serve_all(&hot_tier, "serve.service.hot_fill");
    for rep in 1..=REPS {
        trace::set_pass(rep);
        serve_all(&hot_tier, "serve.service.hot_hit");
    }
    drop(hot_tier);
    let _ = std::fs::remove_dir_all(&dir);

    // Reaching a warm, idle daemon: a connection alone, a request over a
    // connection that stays open, and a request through the router.
    trace::set_pass(1);
    for i in 0..64 {
        let alive = trace::op_span("serve.client.connect", i, || {
            Client::connect(&endpoints[i % endpoints.len()]).and_then(|mut c| c.ping())
        });
        assert!(alive.unwrap_or(false), "a shard stopped answering pings");
    }
    let ring = ShardedClient::new(endpoints.to_vec(), gpu.clone());
    let mut open: Vec<(Endpoint, Client)> = endpoints
        .iter()
        .map(|ep| {
            (
                ep.clone(),
                Client::connect(ep).expect("persistent connection"),
            )
        })
        .collect();
    let router = Router::new(RouterConfig {
        shards: endpoints.to_vec(),
        gpu: gpu.clone(),
        ..RouterConfig::default()
    });
    for (i, item) in items.unique.iter().enumerate() {
        let owner = ring.route(&item.src, &item.config).remove(0);
        let client = &mut open
            .iter_mut()
            .find(|(ep, _)| *ep == owner)
            .expect("owner")
            .1;
        let reply = trace::op_span("serve.client.persistent_hit", i, || {
            client.compile(&item.src, &item.config)
        })
        .expect("persistent connection broke");
        assert!(crate::fleet::is_ok(&reply));
        let reply = trace::op_span("serve.router.hit", i, || {
            router.compile(&item.src, &item.config)
        });
        assert!(crate::fleet::is_ok(&reply));
    }
    layers.set(
        "serve.router.hedges_fired",
        router.total(|m| m.hedges_fired) as f64,
    );
    layers.set("serve.router.retries", router.total(|m| m.retries) as f64);
    layers.set(
        "serve.router.failovers",
        router.total(|m| m.failovers) as f64,
    );
}

/// The write side: a fresh compile through the service (cache put
/// included), and the put alone.
pub fn write_path(items: &Items, gpu: &GpuModel, layers: &mut Ledger) {
    trace::set_pass(1);
    let dir = scratch("probe-write");
    let cache = DiskCache::open_default(&dir.join("service")).expect("probe cache");
    let service = CompileService::new(Some(cache), gpu.clone());
    let mut replies = Vec::with_capacity(items.unique.len());
    for (i, item) in items.unique.iter().enumerate() {
        let (reply, how) = trace::op_span("serve.service.fresh", i, || {
            service.serve(&item.src, &item.config)
        })
        .expect("compiled in every pass");
        assert_eq!(how, Served::Fresh, "the probe cache was not empty");
        replies.push(reply);
    }
    drop(service);
    let mut cache = DiskCache::open_default(&dir.join("put")).expect("probe cache");
    for (i, reply) in replies.iter().enumerate() {
        let payload = reply.to_json();
        trace::op_span("serve.cache.put", i, || {
            cache.put(&reply.key, "compile", &payload)
        })
        .expect("probe cache put");
    }
    layers.set("serve.cache.quarantined", cache.quarantined_count() as f64);
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}
