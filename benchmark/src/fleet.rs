//! What the two serving workloads share: the daemon fleet, the Table II
//! item stream, and the checks and code-quality metrics read off replies.

use crate::est::Recorder;
use crate::inputs::{unique_items, Population, CONFIGS};
use crate::metrics::Ledger;
use polyject_bench::{artifact_fields, table2_batch_items, Fleet};
use polyject_gpusim::GpuModel;
use polyject_serve::protocol::ok_response;
use polyject_serve::{compile_reply, BatchItem, Client, Endpoint, Json};

/// A daemon fleet and the names its clients know the shards by.
pub struct Shards {
    fleet: Fleet,
    /// `s0`, `s1`, …: symlinks in the working directory to the shards'
    /// sockets. Clients place keys on a hash ring built from the endpoint
    /// *strings*, and `Fleet` names its sockets after the process id and
    /// the tag, so routing through the real paths would split the items
    /// between the shards differently in every process and for every
    /// fleet — on `serve_batch` that alone moved a batch's time 2×.
    pub endpoints: Vec<Endpoint>,
}

impl Shards {
    /// Shuts every shard down; their final stats reports, in shard order.
    pub fn shutdown(self) -> Vec<Json> {
        self.fleet.shutdown()
    }
}

/// In-process `run_daemon` threads on Unix sockets under `$TMPDIR`
/// (which `main` makes the working directory, so every path is short
/// enough for `sun_path` wherever the checkout lives). Every fleet has
/// two compile threads in all — this box's `nproc`.
pub fn spawn(shards: usize, tag: &str, queue_bound: usize, gpu: &GpuModel) -> Shards {
    let fleet = Fleet::spawn(shards, 2 / shards, queue_bound.max(64), tag, gpu)
        .unwrap_or_else(|e| panic!("fleet {tag}: {e}"));
    let endpoints = fleet
        .endpoints()
        .iter()
        .enumerate()
        .map(|(i, real)| {
            let Endpoint::Unix(socket) = real else {
                unreachable!("Fleet listens on Unix sockets")
            };
            let link = std::path::PathBuf::from(format!("s{i}"));
            let _ = std::fs::remove_file(&link);
            std::os::unix::fs::symlink(socket, &link)
                .unwrap_or_else(|e| panic!("{}: {e}", link.display()));
            Endpoint::Unix(link)
        })
        .collect();
    Shards { fleet, endpoints }
}

/// The live `stats` report of every shard.
pub fn stats(endpoints: &[Endpoint]) -> Vec<Json> {
    endpoints
        .iter()
        .map(|ep| {
            Client::connect(ep)
                .and_then(|mut c| c.stats())
                .unwrap_or_else(|e| panic!("stats from {ep}: {e}"))
        })
        .collect()
}

/// One counter of the reports' `section` object, summed over the fleet.
pub fn counter(reports: &[Json], section: &str, name: &str) -> f64 {
    reports
        .iter()
        .filter_map(|r| r.get(section)?.get(name)?.as_f64())
        .sum()
}

/// The Table II stream as the serving workloads see it.
pub struct Items {
    pub pop: Population,
    /// Every network's ops in evaluation order (duplicates kept) × the
    /// three configurations: 651 items.
    pub stream: Vec<BatchItem>,
    /// The 342 distinct `(src, config)` items, first-seen order.
    pub unique: Vec<BatchItem>,
    /// For every stream item, the index of its distinct twin.
    pub unique_of: Vec<usize>,
    /// For every distinct item, its `(unique op, configuration)`.
    home: Vec<(usize, usize)>,
}

impl Items {
    pub fn build() -> Items {
        let pop = Population::build();
        let stream = table2_batch_items(&pop.nets);
        let (unique, unique_of) = unique_items(&stream);
        // `table2_batch_items` walks networks → ops → configurations.
        let homes: Vec<(usize, usize)> = pop
            .net_ops
            .iter()
            .flatten()
            .flat_map(|&op| (0..CONFIGS.len()).map(move |c| (op, c)))
            .collect();
        assert_eq!(homes.len(), stream.len(), "an op failed to emit as .pj");
        assert_eq!(unique.len(), pop.ops.len() * CONFIGS.len());
        let mut home = vec![(0, 0); unique.len()];
        for (&u, &h) in unique_of.iter().zip(&homes) {
            home[u] = h;
        }
        Items {
            pop,
            stream,
            unique,
            unique_of,
            home,
        }
    }

    /// Every reply is `status: ok`, and carries the artifact an
    /// in-process compile of the same item produces.
    pub fn check_replies(&self, replies: &[Option<Json>], gpu: &GpuModel, rec: &mut Recorder) {
        rec.attempt(self.unique.len() as u64);
        for (item, reply) in self.unique.iter().zip(replies) {
            let expected = compile_reply(&item.src, &item.config, gpu)
                .map(|r| artifact_fields(&ok_response(&r, false)));
            let served = reply.as_ref().map(artifact_fields);
            if expected.as_ref().ok() != served.as_ref() {
                rec.fail(|| {
                    format!(
                        "served artifact of a {} item differs from the in-process compile",
                        item.config
                    )
                });
            }
        }
    }

    /// Table II from the served replies, with the definitions
    /// `compile_cold` uses on its own artifacts.
    pub fn quality(&self, replies: &[Option<Json>], e2e: &mut Ledger) {
        let n = self.pop.ops.len();
        let mut sim_ms = [vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; n]];
        let mut vectorized = vec![false; n];
        for (&(op, config), reply) in self.home.iter().zip(replies) {
            let Some(reply) = reply else { continue };
            if let Some(t) = reply.get("timing").and_then(|t| t.get("time")?.as_f64()) {
                sim_ms[config][op] = t * 1e3;
            }
            if CONFIGS[config] == "infl" {
                vectorized[op] = reply.get("vector_loops").and_then(Json::as_f64) > Some(0.0);
            }
        }
        e2e.set(
            "infl_speedup_geomean",
            self.pop.speedup_geomean(&sim_ms[0], &sim_ms[2]),
        );
        e2e.set("vec_ops", self.pop.count_over_networks(&vectorized) as f64);
        // Nothing here tunes: the code delivered is the default code.
        e2e.set("tuned_speedup_geomean", 1.0);
    }
}

/// `(samples, Σ ms)` over the shards' latency reservoirs — `count ×
/// mean_ms` each, exact while a reservoir has not wrapped (4 096 samples
/// per shard). The daemons record one sample per compile answered `ok`.
pub fn latency_totals(reports: &[Json]) -> (f64, f64) {
    reports
        .iter()
        .filter_map(|r| {
            let latency = r.get("stats")?.get("latency")?;
            let count = latency.get("count")?.as_f64()?;
            Some((count, count * latency.get("mean_ms")?.as_f64()?))
        })
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1))
}

pub fn is_ok(reply: &Json) -> bool {
    reply.get("status").and_then(Json::as_str) == Some("ok")
}

/// The `serve.daemon.*` rows: what the fleet's stats reports say happened
/// between `before` and `after` (since the fleet came up, with no
/// `before`).
pub fn set_daemon_layers(layers: &mut Ledger, before: Option<&[Json]>, after: &[Json]) {
    let delta = |name: &str| {
        counter(after, "stats", name) - before.map_or(0.0, |b| counter(b, "stats", name))
    };
    for name in [
        "hits",
        "misses",
        "coalesced",
        "overloaded",
        "errors",
        "timeouts",
        "batch_requests",
        "batch_items",
        "batch_dedup_hits",
        "batch_session_reuses",
    ] {
        layers.set(&format!("serve.daemon.{name}"), delta(name));
    }
    // `requests` counts every frame, and the `stats` frame that produced
    // a live `after` report counted itself on each shard.
    let own_frames = before.map_or(0.0, |_| after.len() as f64);
    layers.set("serve.daemon.requests", delta("requests") - own_frames);
    if delta("batch_items") > 0.0 {
        layers.set(
            "serve.daemon.dedup_share",
            delta("batch_dedup_hits") / delta("batch_items"),
        );
    }
    let (n0, ms0) = before.map_or((0.0, 0.0), latency_totals);
    let (n1, ms1) = latency_totals(after);
    if n1 > n0 {
        layers.set("serve.daemon.latency_mean_ms", (ms1 - ms0) / (n1 - n0));
    }
    layers.set("serve.cache.bytes", counter(after, "cache", "bytes"));
}
