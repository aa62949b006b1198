//! The warm-run Table II path: per-operator measurements served out of a
//! persistent [`DiskCache`] (`table2 --cache-dir`), so a second run of the
//! full evaluation performs **zero** schedule solves.
//!
//! Operators are keyed by their canonical `.pj` rendering (via
//! [`polyject_front::emit_pj`]) folded through the same
//! [`polyject_serve::cache_key`] hash the daemon uses, so the cache is
//! invalidated by any change to the kernel, the pipeline option defaults,
//! or the GPU model — never by formatting.

use crate::{parallel_map, Table2Run};
use polyject_gpusim::GpuModel;
use polyject_serve::{cache_key, DiskCache, Json};
use polyject_sets::counters::SolverCounters;
use polyject_workloads::{
    aggregate_network, measure_op_with_perf, op_key, unique_ops, Network, OpClass, OpMeasurement,
    OpPerf,
};
use std::time::Instant;

/// The cache-entry kind tag for Table II per-operator measurements
/// (distinct from the daemon's `"compile"` entries).
pub const OP_KIND: &str = "table2-op";

/// The cache key of one Table II operator on one GPU model.
///
/// Identity is the canonical `.pj` rendering of the built kernel when the
/// language can express it, falling back to the operator's debug
/// rendering; either way the key also covers every compile-configuration
/// default and the GPU model via [`cache_key`].
pub fn op_cache_key(op: &OpClass, model: &GpuModel) -> String {
    let ident = polyject_front::emit_pj(&op.build()).unwrap_or_else(|_| op_key(op));
    cache_key(&ident, OP_KIND, model)
}

/// Serializes one measured operator (all four toolchain times plus the
/// compile-side cost that produced them) as a cache payload.
fn encode_measurement(m: &OpMeasurement, perf: &OpPerf) -> Json {
    let c = &perf.counters;
    Json::obj(vec![
        ("name", Json::Str(m.name.clone())),
        ("class", Json::Str(m.class.to_string())),
        (
            "time_ms",
            Json::Arr(m.time_ms.iter().map(|&t| Json::Num(t)).collect()),
        ),
        ("vec_eligible", Json::Bool(m.vec_eligible)),
        ("influenced", Json::Bool(m.influenced)),
        ("compile_ms", Json::Num(perf.compile_ms)),
        ("lp_solves", Json::Num(c.lp_solves as f64)),
        ("ilp_solves", Json::Num(c.ilp_solves as f64)),
        ("ilp_nodes", Json::Num(c.ilp_nodes as f64)),
        ("fm_eliminations", Json::Num(c.fm_eliminations as f64)),
    ])
}

/// Decodes a cached operator measurement; `class` comes from the live
/// [`OpClass`] (it is a `&'static str`), everything else from the payload.
/// Returns `None` on any shape mismatch, which the caller treats as a
/// plain miss.
fn decode_measurement(payload: &Json, class: &'static str) -> Option<OpMeasurement> {
    let times = payload.get("time_ms")?.as_arr()?;
    if times.len() != 4 {
        return None;
    }
    let mut time_ms = [0.0; 4];
    for (slot, v) in time_ms.iter_mut().zip(times) {
        *slot = v.as_f64()?;
    }
    Some(OpMeasurement {
        name: payload.get("name")?.as_str()?.to_string(),
        class,
        time_ms,
        vec_eligible: payload.get("vec_eligible")?.as_bool()?,
        influenced: payload.get("influenced")?.as_bool()?,
    })
}

/// Outcome of one cached Table II run.
pub struct CachedTable2 {
    /// The measurements, wall-clock, and **performed** compile work
    /// (cache hits contribute nothing to `run.perf` — a fully warm run
    /// reports zero solver counters).
    pub run: Table2Run,
    /// Unique operators served from the cache.
    pub hits: usize,
    /// Unique operators compiled (and written back) this run.
    pub misses: usize,
}

/// [`crate::run_table2_networks`] with a persistent per-operator cache:
/// hits skip the entire compile pipeline, misses are measured on the
/// worker pool and written back.
pub fn run_table2_networks_cached(
    nets: &[Network],
    model: &GpuModel,
    workers: usize,
    cache: &mut DiskCache,
) -> CachedTable2 {
    let t0 = Instant::now();
    let (unique, index) = unique_ops(nets);

    // Probe the cache serially (cheap disk reads), collecting misses.
    let keys: Vec<String> = unique.iter().map(|op| op_cache_key(op, model)).collect();
    let mut slots: Vec<Option<OpMeasurement>> = Vec::with_capacity(unique.len());
    let mut missing: Vec<usize> = Vec::new();
    for (i, op) in unique.iter().enumerate() {
        let cached = cache.get(&keys[i]).and_then(|(kind, payload)| {
            (kind == OP_KIND)
                .then(|| decode_measurement(&payload, op.label()))
                .flatten()
        });
        if cached.is_none() {
            missing.push(i);
        }
        slots.push(cached);
    }
    let hits = unique.len() - missing.len();

    // Compile the misses on the pool, then write them back.
    let miss_ops: Vec<&OpClass> = missing.iter().map(|&i| unique[i]).collect();
    let measured = parallel_map(&miss_ops, workers, |op| measure_op_with_perf(op, model));
    let mut perf = OpPerf::default();
    for (&i, (m, p)) in missing.iter().zip(&measured) {
        perf.accumulate(p);
        if let Err(e) = cache.put(&keys[i], OP_KIND, &encode_measurement(m, p)) {
            eprintln!("cache write failed for {}: {e}", m.name);
        }
        slots[i] = Some(m.clone());
    }
    if let Err(e) = cache.flush() {
        eprintln!("cache index flush failed: {e}");
    }

    let results = nets
        .iter()
        .map(|net| {
            let per_op = net
                .ops
                .iter()
                .map(|op| slots[index[&op_key(op)]].clone().expect("slot filled"))
                .collect();
            aggregate_network(net, per_op)
        })
        .collect();
    CachedTable2 {
        run: Table2Run {
            results,
            wall_s: t0.elapsed().as_secs_f64(),
            workers,
            unique_ops: unique.len(),
            perf,
        },
        hits,
        misses: missing.len(),
    }
}

/// The cold-vs-warm comparison recorded as the `"cache"` section of
/// `BENCH_table2.json`.
pub struct CacheBench {
    /// The cold run (empty cache: every unique operator compiled).
    pub cold: CachedTable2,
    /// The warm run (same cache: every unique operator a hit).
    pub warm: CachedTable2,
    /// Bitwise equality of the two runs' measurements.
    pub identical: bool,
}

impl CacheBench {
    /// Cold wall-clock over warm wall-clock.
    pub fn speedup(&self) -> f64 {
        if self.warm.run.wall_s > 0.0 {
            self.cold.run.wall_s / self.warm.run.wall_s
        } else {
            f64::INFINITY
        }
    }

    /// The `"cache"` JSON section.
    pub fn to_json(&self) -> Json {
        fn counters(c: &SolverCounters) -> Json {
            // The four solve-level counts: all a warm run has to show zero.
            Json::obj(
                c.fields()
                    .take(4)
                    .map(|(k, v)| (k, Json::Num(v as f64)))
                    .collect(),
            )
        }
        fn side(r: &CachedTable2) -> Json {
            Json::obj(vec![
                ("wall_s", Json::Num(r.run.wall_s)),
                ("compile_ms", Json::Num(r.run.perf.compile_ms)),
                ("hits", Json::Num(r.hits as f64)),
                ("misses", Json::Num(r.misses as f64)),
                ("solver", counters(&r.run.perf.counters)),
            ])
        }
        Json::obj(vec![
            ("unique_ops", Json::Num(self.cold.run.unique_ops as f64)),
            ("identical", Json::Bool(self.identical)),
            ("speedup", Json::Num(self.speedup())),
            ("cold", side(&self.cold)),
            ("warm", side(&self.warm)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurements_identical;
    use polyject_workloads::lstm;

    #[test]
    fn warm_run_hits_everything_and_matches() {
        let dir = std::env::temp_dir().join(format!("pj-cached-t2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = DiskCache::open_default(&dir).unwrap();
        let model = GpuModel::v100();
        let nets = vec![lstm()];

        let cold = run_table2_networks_cached(&nets, &model, 1, &mut cache);
        assert_eq!(cold.hits, 0);
        assert!(cold.misses > 0);
        assert!(cold.run.perf.counters.lp_solves > 0);

        let warm = run_table2_networks_cached(&nets, &model, 1, &mut cache);
        assert_eq!(warm.misses, 0, "second run must be fully cached");
        assert_eq!(warm.hits, cold.misses);
        // The acceptance bar: a warm run performs no schedule solves.
        assert_eq!(warm.run.perf.counters, SolverCounters::default());
        assert_eq!(warm.run.perf.compile_ms, 0.0);
        assert!(measurements_identical(&cold.run.results, &warm.run.results));

        // And it agrees bitwise with the uncached reference path.
        let direct = crate::run_table2_networks(&nets, &model, 1);
        assert!(measurements_identical(&direct.results, &warm.run.results));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn op_keys_are_stable_and_distinct() {
        let model = GpuModel::v100();
        let ops = &lstm().ops;
        let a = op_cache_key(&ops[0], &model);
        assert_eq!(a, op_cache_key(&ops[0], &model));
        let distinct = ops
            .iter()
            .any(|op| op_key(op) != op_key(&ops[0]) && op_cache_key(op, &model) != a);
        assert!(distinct, "different operators must key differently");
        assert_ne!(a, op_cache_key(&ops[0], &GpuModel::a100()));
    }
}
