//! The names this benchmark prints. `BENCHMARK.json` declares the same
//! sets; `check.sh` fails when the two disagree.

/// One declared metric. `exact` marks values that must repeat exactly:
/// counts of a deterministic program and the simulated-time ratios.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: true,
    }
}

pub const WORKLOADS: [&str; 4] = ["compile_cold", "tune_search", "serve_warm", "serve_batch"];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Def] = &[
    timed("setup_s", "s"),
    timed("ops_per_s", "1/s"),
    timed("op_ms_p50", "ms"),
    timed("op_ms_p90", "ms"),
    exact("infl_speedup_geomean", "x"),
    exact("vec_ops", "count"),
    exact("tuned_speedup_geomean", "x"),
    timed("peak_rss_mb", "MiB"),
];

/// The per-layer ledger of a traced run, `<crate>.<what>`. A layer the
/// workload never enters reads 0 — which is itself the prediction for
/// e.g. every `sets.*` row on `serve_warm`.
pub const PER_LAYER: &[Def] = &[
    // ir / front
    timed("ir.build_ms", "ms"),
    timed("front.emit_ms", "ms"),
    timed("front.parse_ms", "ms"),
    timed("front.canonical_ms", "ms"),
    exact("front.src_bytes", "B"),
    // deps
    timed("deps.compute_ms", "ms"),
    exact("deps.relations", "count"),
    // core
    timed("core.tree_ms", "ms"),
    timed("core.schedule_ms", "ms"),
    timed("core.session_new_ms", "ms"),
    timed("core.schedule_with_ms", "ms"),
    timed("core.verify_ms", "ms"),
    exact("core.ilp_solves", "count"),
    exact("core.tree_backtracks", "count"),
    exact("core.scc_separations", "count"),
    exact("core.feautrier_dims", "count"),
    exact("core.assemble_cache_hits", "count"),
    exact("core.degraded_solves", "count"),
    exact("core.influenced_share", "ratio"),
    // sets: counter deltas around one pass on the client thread; the
    // three _ms rows are the program's own ns counters.
    exact("sets.lp_solves", "count"),
    exact("sets.ilp_solves", "count"),
    exact("sets.ilp_nodes", "count"),
    exact("sets.fm_eliminations", "count"),
    exact("sets.lp_phase1_pivots", "count"),
    exact("sets.lp_phase2_pivots", "count"),
    exact("sets.bb_repair_pivots", "count"),
    exact("sets.bb_warm_nodes", "count"),
    exact("sets.warm_node_share", "ratio"),
    exact("sets.tab_i64_solves", "count"),
    exact("sets.tab_overflow_escalations", "count"),
    exact("sets.farkas_linearizations", "count"),
    exact("sets.redundancy_checks", "count"),
    exact("sets.spec_adopted", "count"),
    exact("sets.spec_discarded", "count"),
    timed("sets.solve_ms", "ms"),
    timed("sets.assemble_ms", "ms"),
    timed("sets.preprocess_ms", "ms"),
    // codegen
    timed("codegen.generate_ast_ms", "ms"),
    timed("codegen.passes_ms", "ms"),
    timed("codegen.render_ms", "ms"),
    exact("codegen.vector_loops", "count"),
    exact("codegen.cuda_bytes", "B"),
    exact("codegen.artifact_digest", "fnv48"),
    // gpusim
    timed("gpusim.estimate_ms", "ms"),
    timed("gpusim.execute_ms", "ms"),
    exact("gpusim.sim_isl_ms_total", "ms"),
    exact("gpusim.sim_infl_ms_total", "ms"),
    // tune
    timed("tune.search_ms", "ms"),
    timed("tune.oracle_ms", "ms"),
    exact("tune.evaluated", "count"),
    exact("tune.estimate_memo_hits", "count"),
    exact("tune.memo_hit_share", "ratio"),
    exact("tune.rank_correlation_mean", "ratio"),
    exact("tune.improved_ops", "count"),
    exact("tune.session_reuses", "count"),
    exact("tune.warm_dependence_analyses", "count"),
    // serve: in-process probes, then what the clients and daemons saw
    timed("serve.json.render_ms", "ms"),
    timed("serve.json.parse_ms", "ms"),
    // Replies and cache entries carry the service's own timings, whose
    // digits differ from run to run: the two byte counts are not exact.
    timed("serve.json.reply_bytes", "B"),
    timed("serve.protocol.frame_ms", "ms"),
    timed("serve.service.key_ms", "ms"),
    timed("serve.cache.put_ms", "ms"),
    timed("serve.cache.get_ms", "ms"),
    timed("serve.cache.bytes", "B"),
    exact("serve.cache.quarantined", "count"),
    timed("serve.hot.get_ms", "ms"),
    timed("serve.service.fresh_ms", "ms"),
    timed("serve.service.hit_ms", "ms"),
    timed("serve.service.hot_hit_ms", "ms"),
    timed("serve.client.connect_ms_p50", "ms"),
    timed("serve.client.persistent_hit_ms_p50", "ms"),
    timed("serve.client.perconn_hit_ms_p50", "ms"),
    timed("serve.client.batch_ms", "ms"),
    timed("serve.wait_ms_p50", "ms"),
    timed("serve.router.hit_ms_p50", "ms"),
    timed("serve.router.hedges_fired", "count"),
    timed("serve.router.retries", "count"),
    timed("serve.router.failovers", "count"),
    exact("serve.daemon.requests", "count"),
    exact("serve.daemon.hits", "count"),
    exact("serve.daemon.misses", "count"),
    timed("serve.daemon.coalesced", "count"),
    exact("serve.daemon.overloaded", "count"),
    exact("serve.daemon.errors", "count"),
    exact("serve.daemon.timeouts", "count"),
    exact("serve.daemon.batch_requests", "count"),
    exact("serve.daemon.batch_items", "count"),
    timed("serve.daemon.batch_dedup_hits", "count"),
    timed("serve.daemon.batch_session_reuses", "count"),
    timed("serve.daemon.dedup_share", "ratio"),
    timed("serve.daemon.latency_mean_ms", "ms"),
    exact("serve.client.round_trips", "count"),
    timed("serve.pool.scaling_2w", "x"),
    // the tracer itself
    timed("trace.overhead_share", "ratio"),
    timed("trace.unattributed_share", "ratio"),
];

/// Values for one declared set, all starting at 0.
pub struct Ledger {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Ledger {
    pub fn new(defs: &'static [Def]) -> Ledger {
        Ledger {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// # Panics
    ///
    /// On a name the set does not declare: a typo must not print.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}
