//! The batched-compilation throughput leg: the whole Table II op stream
//! pushed through a small daemon fleet twice — once as sequential
//! per-op round trips, once as a single [`ShardedClient::compile_batch`]
//! scatter-gather — with byte-identity checked on the deterministic
//! artifact fields of every reply.
//!
//! Both legs start against a **fresh, cold** fleet (in-process daemons
//! on temp-dir Unix sockets with wiped cache directories), so the
//! comparison is cold-compile against cold-compile: the batched side's
//! advantage comes only from the batch path itself (fleet-wide worker
//! concurrency, in-batch dedup, cross-config schedule-session sharing),
//! not from a pre-warmed cache.
//!
//! The op stream deliberately keeps duplicates (the same operator class
//! recurs within and across networks) and crosses every op with all
//! three compile configs: the duplicates are what `batch_dedup_hits`
//! amortizes and the config siblings are what `batch_session_reuses`
//! amortizes.

use polyject_gpusim::GpuModel;
use polyject_serve::{
    run_daemon, BatchItem, Client, DaemonConfig, Endpoint, Json, ShardedClient, Verdict,
};
use polyject_workloads::Network;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An in-process daemon fleet on temp-dir Unix sockets.
///
/// Each shard is a real [`run_daemon`] accept loop on its own thread
/// with its own worker pool and (cold) cache directory — the same code
/// the `polyjectd` binary runs, minus the process boundary.
pub struct Fleet {
    endpoints: Vec<Endpoint>,
    handles: Vec<JoinHandle<std::io::Result<Json>>>,
    root: PathBuf,
}

impl Fleet {
    /// Spawns `shards` daemons and blocks until every one answers a ping.
    ///
    /// # Errors
    ///
    /// Socket binding failures, or a shard that never comes up.
    pub fn spawn(
        shards: usize,
        workers: usize,
        queue_bound: usize,
        tag: &str,
        gpu: &GpuModel,
    ) -> std::io::Result<Fleet> {
        let root = std::env::temp_dir().join(format!("pj-throughput-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for i in 0..shards {
            let endpoint = Endpoint::Unix(root.join(format!("shard{i}.sock")));
            let config = DaemonConfig {
                endpoint: endpoint.clone(),
                workers,
                queue_bound,
                request_timeout: Duration::from_secs(600),
                cache_dir: Some(root.join(format!("cache{i}"))),
                gpu: gpu.clone(),
                ..DaemonConfig::default()
            };
            handles.push(std::thread::spawn(move || run_daemon(config)));
            endpoints.push(endpoint);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        for ep in &endpoints {
            loop {
                if Client::connect(ep)
                    .and_then(|mut c| c.ping())
                    .unwrap_or(false)
                {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(std::io::Error::other(format!("shard {ep} never came up")));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(Fleet {
            endpoints,
            handles,
            root,
        })
    }

    /// The shard endpoints, in spawn order.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        self.endpoints.clone()
    }

    /// Shuts every shard down gracefully and returns their final stats
    /// reports (the same shape `polyjectc stats` sees), in spawn order.
    pub fn shutdown(self) -> Vec<Json> {
        for ep in &self.endpoints {
            let _ = Client::connect(ep).and_then(|mut c| c.shutdown());
        }
        let mut reports = Vec::new();
        for h in self.handles {
            if let Ok(Ok(report)) = h.join() {
                reports.push(report);
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
        reports
    }
}

/// The Table II op stream as batch items: every network's ops in
/// evaluation order (duplicates kept) × the three compile configs.
pub fn table2_batch_items(nets: &[Network]) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for net in nets {
        for op in &net.ops {
            let Ok(src) = polyject_front::emit_pj(&op.build()) else {
                continue;
            };
            for config in ["isl", "novec", "infl"] {
                items.push(BatchItem::new(&src, config));
            }
        }
    }
    items
}

/// The deterministic artifact fields of a compile reply, rendered for
/// byte comparison. Everything performance- or provenance-shaped is
/// excluded: `solver` counters depend on what the serving thread
/// compiled before, `compile_ms` is wall clock, `cached` depends on
/// arrival order, `via` on routing. What remains is exactly the
/// artifact the caller would lower to CUDA.
pub fn artifact_fields(resp: &Json) -> String {
    const KEEP: [&str; 11] = [
        "status",
        "key",
        "kernel",
        "config",
        "canonical_pj",
        "code",
        "cuda",
        "schedule",
        "schedule_tree",
        "vector_loops",
        "influenced",
    ];
    match resp {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| KEEP.contains(&k.as_str()))
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// One leg of the comparison.
#[derive(Clone, Debug)]
pub struct LegStats {
    /// Wall-clock seconds for the whole op stream.
    pub wall_s: f64,
    /// Client round trips spent.
    pub round_trips: u64,
    /// Items answered `status: ok`.
    pub ok: usize,
    /// Median per-item milliseconds (client round trip for the
    /// sequential leg, server-side compile time for the batched leg).
    pub p50_ms: f64,
    /// 95th-percentile per-item milliseconds (same sources).
    pub p95_ms: f64,
}

impl LegStats {
    /// Items per second over the leg's wall clock.
    pub fn ops_per_sec(&self, items: usize) -> f64 {
        if self.wall_s > 0.0 {
            items as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// The measured sequential-vs-batched comparison.
#[derive(Clone, Debug)]
pub struct ThroughputBench {
    /// Fleet size.
    pub shards: usize,
    /// Worker threads per shard.
    pub workers: usize,
    /// Total items in the op stream (duplicates included).
    pub items: usize,
    /// Distinct `(src, config)` pairs in the stream.
    pub unique_items: usize,
    /// Whether every batched reply matched its sequential twin on the
    /// deterministic artifact fields.
    pub identical: bool,
    /// Items whose artifact fields diverged (0 when `identical`).
    pub mismatches: usize,
    /// The one-round-trip-per-item leg.
    pub sequential: LegStats,
    /// The scatter-gather leg.
    pub batched: LegStats,
    /// Batch requests the daemons admitted, summed over the fleet (one
    /// sub-batch per shard when the scatter needs no fallback).
    pub batch_requests: u64,
    /// Batch items the daemons saw, summed over the fleet.
    pub batch_items: u64,
    /// Daemon-side in-batch duplicate hits, summed over the fleet.
    pub batch_dedup_hits: u64,
    /// Daemon-side schedule-session reuses within batches, summed.
    pub batch_session_reuses: u64,
}

impl ThroughputBench {
    /// Batched wall-clock speedup over the sequential leg.
    pub fn speedup(&self) -> f64 {
        if self.batched.wall_s > 0.0 {
            self.sequential.wall_s / self.batched.wall_s
        } else {
            0.0
        }
    }

    /// The `"throughput"` section of `BENCH_table2.json`.
    pub fn to_json(&self) -> Json {
        let leg = |l: &LegStats| {
            Json::obj(vec![
                ("wall_s", Json::Num(l.wall_s)),
                ("ops_per_sec", Json::Num(l.ops_per_sec(self.items))),
                ("round_trips", Json::Num(l.round_trips as f64)),
                ("ok", Json::Num(l.ok as f64)),
                ("p50_ms", Json::Num(l.p50_ms)),
                ("p95_ms", Json::Num(l.p95_ms)),
            ])
        };
        Json::obj(vec![
            ("shards", Json::Num(self.shards as f64)),
            ("workers_per_shard", Json::Num(self.workers as f64)),
            ("items", Json::Num(self.items as f64)),
            ("unique_items", Json::Num(self.unique_items as f64)),
            ("identical", Json::Bool(self.identical)),
            ("mismatches", Json::Num(self.mismatches as f64)),
            ("sequential", leg(&self.sequential)),
            ("batched", leg(&self.batched)),
            ("batch_requests", Json::Num(self.batch_requests as f64)),
            ("batch_items", Json::Num(self.batch_items as f64)),
            ("batch_dedup_hits", Json::Num(self.batch_dedup_hits as f64)),
            (
                "batch_session_reuses",
                Json::Num(self.batch_session_reuses as f64),
            ),
            ("speedup", Json::Num(self.speedup())),
        ])
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    // Nearest-rank, matching `LatencyAgg::p95_ms`.
    let rank = ((p * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

fn count_ok(replies: &[Json]) -> usize {
    replies
        .iter()
        .filter(|r| Verdict::of(r) == Verdict::Ok)
        .count()
}

/// Sums one named batch counter over the fleet's final stats reports
/// (the counters live in the nested `"stats"` object).
fn sum_counter(reports: &[Json], name: &str) -> u64 {
    reports
        .iter()
        .filter_map(|r| r.get("stats"))
        .filter_map(|s| s.get(name))
        .filter_map(Json::as_f64)
        .sum::<f64>() as u64
}

/// Runs the comparison: each leg gets its own cold fleet, the same op
/// stream goes through both, and replies are compared item-by-item on
/// the deterministic artifact fields.
///
/// # Errors
///
/// Fleet spawn failures, and any item either leg did not answer `ok`: a
/// failed reply compares equal to a failed reply, so a comparison over
/// failures records nothing.
pub fn run_throughput_bench(
    nets: &[Network],
    gpu: &GpuModel,
    shards: usize,
    workers: usize,
) -> Result<ThroughputBench, String> {
    let items = table2_batch_items(nets);
    let unique_items = {
        let mut seen = std::collections::HashSet::new();
        items
            .iter()
            .filter(|it| seen.insert((it.src.clone(), it.config.clone())))
            .count()
    };
    let queue_bound = items.len().max(64);
    let all_ok = |leg: &str, stats: &LegStats| match stats.ok == items.len() {
        true => Ok(()),
        false => Err(format!(
            "{leg} leg: only {} of {} item(s) answered ok",
            stats.ok,
            items.len()
        )),
    };

    // Leg 1: one round trip per item, strictly serial — the client a
    // network compiler without batching would be.
    let fleet = Fleet::spawn(shards, workers, queue_bound, "seq", gpu)
        .map_err(|e| format!("sequential fleet: {e}"))?;
    let mut sc = ShardedClient::new(fleet.endpoints(), gpu.clone());
    let mut latencies_ms = Vec::with_capacity(items.len());
    let mut seq_replies = Vec::with_capacity(items.len());
    let t0 = Instant::now();
    for item in &items {
        let t = Instant::now();
        let reply = sc
            .compile(&item.src, &item.config)
            .unwrap_or_else(|e| polyject_serve::protocol::error_response(&e.to_string()));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        seq_replies.push(reply);
    }
    let seq_wall = t0.elapsed().as_secs_f64();
    fleet.shutdown();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let sequential = LegStats {
        wall_s: seq_wall,
        round_trips: items.len() as u64,
        ok: count_ok(&seq_replies),
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
    };
    all_ok("sequential", &sequential)?;

    // Leg 2: the whole stream in one scatter-gather, on a fresh cold
    // fleet so both legs pay the same compile bill.
    let fleet = Fleet::spawn(shards, workers, queue_bound, "batch", gpu)
        .map_err(|e| format!("batched fleet: {e}"))?;
    let mut sc = ShardedClient::new(fleet.endpoints(), gpu.clone());
    let t0 = Instant::now();
    let (batch_replies, round_trips) = sc.compile_batch(&items);
    let batch_wall = t0.elapsed().as_secs_f64();
    let reports = fleet.shutdown();
    let mut service_ms: Vec<f64> = batch_replies
        .iter()
        .filter_map(|r| r.get("compile_ms"))
        .filter_map(Json::as_f64)
        .collect();
    service_ms.sort_by(|a, b| a.total_cmp(b));
    let batched = LegStats {
        wall_s: batch_wall,
        round_trips,
        ok: count_ok(&batch_replies),
        p50_ms: percentile(&service_ms, 0.50),
        p95_ms: percentile(&service_ms, 0.95),
    };
    all_ok("batched", &batched)?;

    let mismatches = seq_replies
        .iter()
        .zip(&batch_replies)
        .filter(|(a, b)| artifact_fields(a) != artifact_fields(b))
        .count();

    Ok(ThroughputBench {
        shards,
        workers,
        items: items.len(),
        unique_items,
        identical: mismatches == 0,
        mismatches,
        sequential,
        batched,
        batch_requests: sum_counter(&reports, "batch_requests"),
        batch_items: sum_counter(&reports, "batch_items"),
        batch_dedup_hits: sum_counter(&reports, "batch_dedup_hits"),
        batch_session_reuses: sum_counter(&reports, "batch_session_reuses"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_workloads::{resnet101, resnet50};

    #[test]
    fn op_stream_crosses_configs_and_keeps_duplicates() {
        // The resnet pair shares operator classes, so the stream carries
        // genuine duplicates — the population in-batch dedup amortizes.
        let nets = vec![resnet50(), resnet101()];
        let items = table2_batch_items(&nets);
        assert_eq!(items.len(), (nets[0].ops.len() + nets[1].ops.len()) * 3);
        let mut seen = std::collections::HashSet::new();
        let unique = items
            .iter()
            .filter(|it| seen.insert((it.src.clone(), it.config.clone())))
            .count();
        assert!(
            unique < items.len(),
            "expected duplicate ops in the stream ({unique} unique of {})",
            items.len()
        );
    }

    #[test]
    fn artifact_fields_ignore_performance_noise() {
        let a = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("key", Json::Str("k".into())),
            ("compile_ms", Json::Num(1.0)),
            ("cached", Json::Bool(false)),
        ]);
        let b = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("key", Json::Str("k".into())),
            ("compile_ms", Json::Num(99.0)),
            ("cached", Json::Bool(true)),
        ]);
        assert_eq!(artifact_fields(&a), artifact_fields(&b));
        let c = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("key", Json::Str("other".into())),
        ]);
        assert_ne!(artifact_fields(&a), artifact_fields(&c));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }
}
