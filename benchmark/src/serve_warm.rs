//! `serve_warm`: cache **reads**. One `ShardedClient::compile` — a new
//! connection per request, as `polyjectc --remote` and the shipped
//! sequential client do — per distinct Table II item (342), against a
//! fleet that one `compile_batch` filled during set-up.
//!
//! Every reply must be `cached: true` and the fleet's `misses` must not
//! grow, so solver work is exactly zero and the request path (connect,
//! accept, framing, JSON, canonicalisation, key, cache read + checksum)
//! is all there is. A solver speed-up must show no change here.
//!
//! The fleet is one shard. A daemon's accept loop sleeps 20 ms when it
//! finds nothing to accept, and a closed-loop client always arrives just
//! after it dozed off, so against one daemon every request waits the
//! whole sleep: 20.1 ms, flat. Against two, a request that changes shard
//! lands at a random phase of the other daemon's sleep, and that
//! phase pattern (not the programs) then decides the sum of best times —
//! it moved 53–76 ops/s between seeds. Routing still runs: the client
//! canonicalises, keys and walks its ring of one.

use crate::est::{Recorder, Workload};
use crate::fleet::{self, Items};
use crate::inputs::shuffle;
use crate::metrics::Ledger;
use crate::{probes, trace};
use polyject_arith::SplitMix64;
use polyject_gpusim::GpuModel;
use polyject_serve::{Json, ShardedClient};

pub struct ServeWarm {
    items: Items,
    gpu: GpuModel,
    order: Vec<usize>,
    fleet: fleet::Shards,
    client: ShardedClient,
    /// The fleet's stats right after the fill.
    filled: Vec<Json>,
    /// The fleet's stats around the latest traced pass.
    around_pass: Option<(Vec<Json>, Vec<Json>)>,
    last: Vec<Option<Json>>,
}

impl Workload for ServeWarm {
    fn set_up(seed: u64, rep: usize) -> (ServeWarm, Recorder) {
        let items = Items::build();
        let gpu = GpuModel::v100();
        let mut order: Vec<usize> = (0..items.unique.len()).collect();
        shuffle(&mut order, &mut SplitMix64::new(seed));
        let fleet = fleet::spawn(1, &format!("w{rep}"), items.unique.len(), &gpu);
        let mut client = ShardedClient::new(fleet.endpoints.clone(), gpu.clone());
        let mut rec = Recorder::new("serve.client.perconn_hit", vec![1; items.unique.len()]);
        let (replies, _) = client.compile_batch(&items.unique);
        rec.attempt(replies.len() as u64);
        for reply in replies.iter().filter(|r| !fleet::is_ok(r)) {
            rec.fail(|| format!("cache fill: {}", reply.render()));
        }
        let filled = fleet::stats(&fleet.endpoints);
        let last = vec![None; items.unique.len()];
        let w = ServeWarm {
            items,
            gpu,
            order,
            fleet,
            client,
            filled,
            around_pass: None,
            last,
        };
        (w, rec)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let before = trace::enabled().then(|| fleet::stats(&self.fleet.endpoints));
        for &id in &self.order {
            let item = &self.items.unique[id];
            let reply = rec.time(id, || self.client.compile(&item.src, &item.config));
            self.last[id] = match reply {
                Ok(r)
                    if fleet::is_ok(&r)
                        && r.get("cached").and_then(Json::as_bool) == Some(true) =>
                {
                    Some(r)
                }
                Ok(r) => {
                    let status = r.get("status").map(Json::render);
                    rec.fail(|| format!("item {id}: not a cache hit (status {status:?})"));
                    None
                }
                Err(e) => {
                    rec.fail(|| format!("item {id}: {e}"));
                    None
                }
            };
        }
        self.around_pass = before.map(|b| (b, fleet::stats(&self.fleet.endpoints)));
    }

    fn discard(self) {
        self.fleet.shutdown();
    }

    fn finish(self, rec: &mut Recorder, e2e: &mut Ledger, layers: Option<&mut Ledger>) {
        let endpoints = self.fleet.endpoints.clone();
        let measured = fleet::stats(&endpoints);
        let misses = |r: &[Json]| fleet::counter(r, "stats", "misses");
        if misses(&measured) != misses(&self.filled) {
            rec.violation(format!(
                "the warm fleet compiled: misses grew from {} to {}",
                misses(&self.filled),
                misses(&measured)
            ));
        }
        self.items.check_replies(&self.last, &self.gpu, rec);
        self.items.quality(&self.last, e2e);

        if let Some(layers) = layers {
            probes::inputs(&self.items.pop, true);
            probes::read_path(&self.items, &self.last, &endpoints, &self.gpu, layers);
            let spans = trace::layers();
            probes::set_span_layers(layers, &spans);
            // What the daemons did for one measured pass — 342 requests,
            // 342 hits, no miss — and how long they say it took them.
            // Client-observed latency minus theirs is the time a request
            // spends outside the service.
            let (before, after) = self.around_pass.as_ref().expect("a traced pass ran");
            fleet::set_daemon_layers(layers, Some(before), after);
            layers.set("serve.client.round_trips", self.order.len() as f64);
            let (n0, ms0) = fleet::latency_totals(before);
            let (n1, ms1) = fleet::latency_totals(after);
            layers.set(
                "serve.wait_ms_p50",
                spans.p50_ms("serve.client.perconn_hit") - (ms1 - ms0) / (n1 - n0),
            );
        }
        self.fleet.shutdown();
    }
}
