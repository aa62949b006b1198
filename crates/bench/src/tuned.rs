//! The autotuned Table II path (`table2 --tune`): every unique operator
//! is tuned by the deterministic beam search
//! ([`polyject_tune::beam_search`] via [`polyject_serve::batch_reports`])
//! and its default-versus-tuned simulated time is recorded as the
//! `"tune"` section of `BENCH_table2.json`.
//!
//! Every candidate of one operator's search compiles through a single
//! [`polyject_codegen::CompileSession`], so dependence analysis and
//! Farkas linearization run once per operator; the per-op
//! `warm_dependence_analyses` / `session_reuses` fields record that
//! (and `scripts/ci.sh` gates on them). Parallelism is across
//! *operators* — whole searches fan over the worker pool — which keeps
//! each search's thread-local counter deltas deterministic.
//!
//! Winners persist in the same [`DiskCache`] the daemon and
//! `polyjectc --tune` use (kind `"tuned-config"`), so a warm re-run
//! replays every configuration byte-identically with **zero** search —
//! the per-op `cached` flag and the bench-level `replayed` counter make
//! that visible in the report.

use polyject_core::Budget;
use polyject_gpusim::GpuModel;
use polyject_serve::{batch_reports, CompileService, DiskCache, Json, TuneJob};
use polyject_tune::TuneOptions;
use polyject_workloads::{op_key, unique_ops, Network};
use std::time::Instant;

/// One tuned Table II operator: its default-configuration time, the
/// beam-search winner's time, and the search provenance.
#[derive(Clone, Debug)]
pub struct TunedOp {
    /// The operator's identity key (see [`op_key`]).
    pub op: String,
    /// The operator class label.
    pub class: &'static str,
    /// Cache key the persisted configuration lives under.
    pub key: String,
    /// Simulated time under default compile options, milliseconds.
    pub default_ms: f64,
    /// Simulated time under the tuned configuration, milliseconds.
    pub tuned_ms: f64,
    /// Candidate configurations evaluated by the search (0 on replay).
    pub evaluated: usize,
    /// `true` when the configuration was replayed from the cache with
    /// zero search.
    pub cached: bool,
    /// Simulator estimates answered from the search's memo instead of
    /// re-simulating an already-seen AST (0 on replay).
    pub estimate_memo_hits: u64,
    /// Dependence analyses run while evaluating candidates **after** the
    /// default compile — 0 proves candidates 2..N reused the session's
    /// analysis (0 on replay, trivially).
    pub warm_dependence_analyses: u64,
    /// Farkas linearizations after the default compile (see above).
    pub warm_farkas_linearizations: u64,
    /// Times the search's compile session served a schedule from its
    /// warm prefix or memo (0 on replay).
    pub session_reuses: u64,
}

impl TunedOp {
    /// Default time over tuned time (≥ 1.0: the default point is always
    /// in the candidate pool, so the winner can never lose to it).
    pub fn speedup(&self) -> f64 {
        if self.tuned_ms > 0.0 {
            self.default_ms / self.tuned_ms
        } else {
            1.0
        }
    }
}

/// Outcome of one tuned Table II run: per-operator results plus the
/// headline geomean.
#[derive(Clone, Debug)]
pub struct TuneBench {
    /// The search seed (fixed → the whole bench is deterministic).
    pub seed: u64,
    /// One entry per unique operator, in first-seen network order.
    pub ops: Vec<TunedOp>,
    /// Operators searched this run (cache misses).
    pub searched: usize,
    /// Operators replayed from persisted configurations (zero search).
    pub replayed: usize,
    /// End-to-end wall-clock seconds.
    pub wall_s: f64,
}

impl TuneBench {
    /// Geometric-mean tuned-versus-default speedup over all operators.
    pub fn geomean_speedup(&self) -> f64 {
        if self.ops.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.ops.iter().map(|o| o.speedup().ln()).sum();
        (log_sum / self.ops.len() as f64).exp()
    }

    /// The `"tune"` JSON section of `BENCH_table2.json`.
    pub fn to_json(&self) -> Json {
        let ops = self
            .ops
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("op", Json::Str(o.op.clone())),
                    ("class", Json::Str(o.class.to_string())),
                    ("default_ms", Json::Num(o.default_ms)),
                    ("tuned_ms", Json::Num(o.tuned_ms)),
                    ("speedup", Json::Num(o.speedup())),
                    ("evaluated", Json::Num(o.evaluated as f64)),
                    ("cached", Json::Bool(o.cached)),
                    ("estimate_memo_hits", Json::Num(o.estimate_memo_hits as f64)),
                    (
                        "warm_dependence_analyses",
                        Json::Num(o.warm_dependence_analyses as f64),
                    ),
                    (
                        "warm_farkas_linearizations",
                        Json::Num(o.warm_farkas_linearizations as f64),
                    ),
                    ("session_reuses", Json::Num(o.session_reuses as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seed", Json::Str(format!("{:016x}", self.seed))),
            ("unique_ops", Json::Num(self.ops.len() as f64)),
            ("searched", Json::Num(self.searched as f64)),
            ("replayed", Json::Num(self.replayed as f64)),
            ("geomean_speedup", Json::Num(self.geomean_speedup())),
            ("wall_s", Json::Num(self.wall_s)),
            ("ops", Json::Arr(ops)),
        ])
    }
}

/// Tunes every unique operator of the given networks through a
/// persistent cache: operators with a persisted
/// [`polyject_tune::TunedConfig`] replay with zero search, the rest run
/// the beam search and persist their winner. Whole per-kernel searches
/// fan over `workers` threads (each search evaluates its candidates
/// serially through one compile session). Results are identical for any
/// worker count.
///
/// # Errors
///
/// An operator the `.pj` language cannot express, or a scheduling
/// failure in its default compile, as a string (the first failing
/// operator in network order).
pub fn run_table2_tuned(
    nets: &[Network],
    model: &GpuModel,
    opts: &TuneOptions,
    cache: DiskCache,
    workers: usize,
) -> Result<TuneBench, String> {
    let t0 = Instant::now();
    let (unique, _) = unique_ops(nets);

    let svc = CompileService::new(Some(cache), model.clone());
    let mut jobs = Vec::with_capacity(unique.len());
    for op in &unique {
        jobs.push(TuneJob {
            src: polyject_front::emit_pj(&op.build())
                .map_err(|e| format!("{}: not expressible as .pj: {e}", op_key(op)))?,
            config_name: "infl".to_string(),
        });
    }
    let reports = batch_reports(&svc, &jobs, opts, &Budget::unlimited(), workers);

    let mut ops = Vec::with_capacity(unique.len());
    let (mut searched, mut replayed) = (0, 0);
    for (op, res) in unique.iter().zip(reports) {
        let report = res.map_err(|e| format!("{}: {e}", op_key(op)))?;
        if report.cached {
            replayed += 1;
        } else {
            searched += 1;
        }
        ops.push(TunedOp {
            op: op_key(op),
            class: op.label(),
            key: report.key.clone(),
            default_ms: report.tuned.default_time * 1e3,
            tuned_ms: report.tuned.tuned_time * 1e3,
            evaluated: if report.cached {
                0
            } else {
                report.tuned.evaluated
            },
            cached: report.cached,
            estimate_memo_hits: report.estimate_memo_hits,
            warm_dependence_analyses: report.warm_dependence_analyses,
            warm_farkas_linearizations: report.warm_farkas_linearizations,
            session_reuses: report.session_reuses,
        });
    }
    if let Some(Err(e)) = svc.with_cache(|c| c.flush()) {
        eprintln!("tune cache index flush failed: {e}");
    }
    Ok(TuneBench {
        seed: opts.seed,
        ops,
        searched,
        replayed,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_workloads::lstm;

    fn fast_opts() -> TuneOptions {
        TuneOptions {
            rounds: 1,
            initial_samples: 3,
            evals_per_round: 3,
            ..TuneOptions::default()
        }
    }

    #[test]
    fn cold_then_warm_tuned_run_replays_byte_identically() {
        let dir = std::env::temp_dir().join(format!("pj-tuned-t2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let model = GpuModel::v100();
        let nets = vec![lstm()];
        let opts = fast_opts();

        let cache = DiskCache::open_default(&dir).unwrap();
        let cold = run_table2_tuned(&nets, &model, &opts, cache, 1).unwrap();
        assert_eq!(cold.replayed, 0);
        assert_eq!(cold.searched, cold.ops.len());
        assert!(cold.ops.iter().all(|o| !o.cached && o.evaluated > 0));
        // The winner never loses to the default point.
        assert!(cold.geomean_speedup() >= 1.0);
        // Amortization proof: candidates after the default compile reuse
        // the session's dependence analysis and Farkas systems.
        for o in &cold.ops {
            assert_eq!(o.warm_dependence_analyses, 0, "{}", o.op);
            assert_eq!(o.warm_farkas_linearizations, 0, "{}", o.op);
            assert!(o.session_reuses > 0, "{}", o.op);
        }

        let cache = DiskCache::open_default(&dir).unwrap();
        let warm = run_table2_tuned(&nets, &model, &opts, cache, 1).unwrap();
        assert_eq!(warm.searched, 0, "warm run must replay every config");
        assert_eq!(warm.replayed, warm.ops.len());
        for (c, w) in cold.ops.iter().zip(&warm.ops) {
            assert_eq!(c.op, w.op);
            assert_eq!(c.key, w.key);
            assert_eq!(c.default_ms.to_bits(), w.default_ms.to_bits());
            assert_eq!(c.tuned_ms.to_bits(), w.tuned_ms.to_bits());
            assert!(w.cached);
            assert_eq!(w.evaluated, 0);
            assert_eq!(w.session_reuses, 0, "replays do no session work");
            assert_eq!(w.estimate_memo_hits, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tune_json_has_schema_fields() {
        let b = TuneBench {
            seed: 0x5eed,
            ops: vec![TunedOp {
                op: "x".into(),
                class: "elementwise",
                key: "k".into(),
                default_ms: 2.0,
                tuned_ms: 1.0,
                evaluated: 7,
                cached: false,
                estimate_memo_hits: 2,
                warm_dependence_analyses: 0,
                warm_farkas_linearizations: 0,
                session_reuses: 6,
            }],
            searched: 1,
            replayed: 0,
            wall_s: 0.1,
        };
        assert!((b.geomean_speedup() - 2.0).abs() < 1e-12);
        let json = b.to_json().render();
        for key in [
            "\"seed\"",
            "\"unique_ops\"",
            "\"searched\"",
            "\"replayed\"",
            "\"geomean_speedup\"",
            "\"wall_s\"",
            "\"ops\"",
            "\"default_ms\"",
            "\"tuned_ms\"",
            "\"speedup\"",
            "\"evaluated\"",
            "\"cached\"",
            "\"estimate_memo_hits\"",
            "\"warm_dependence_analyses\"",
            "\"warm_farkas_linearizations\"",
            "\"session_reuses\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn geomean_of_empty_bench_is_one() {
        let b = TuneBench {
            seed: 0,
            ops: vec![],
            searched: 0,
            replayed: 0,
            wall_s: 0.0,
        };
        assert_eq!(b.geomean_speedup(), 1.0);
    }
}
