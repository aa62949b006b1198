//! `serve_batch`: cache **writes**, beside `serve_warm`'s reads. The
//! Table II stream — each network's ops in evaluation order, duplicates
//! kept, × 3 configurations — cut into consecutive batches of at most 9
//! items (3 ops × 3 configurations: 75 batches, 651 items, 342
//! distinct), each one `ShardedClient::compile_batch` against a **fresh
//! cold fleet every pass**: admission, in-batch dedup,
//! cross-configuration session sharing, scatter-gather over two shards,
//! cache put (and, for a duplicate whose twin was in an earlier batch,
//! the cache read).
//!
//! Chunked because an interval has to be short to reach its minimum on a
//! shared box: one 327-item BERT batch is most of a pass, and even a
//! 48-item BERT chunk is 250–450 ms of two busy threads. Interleaved on
//! this box, the spread of `ops_per_s` between runs was 17 % with
//! 48-item chunks, 8–12 % with 24 or 12, 2–4 % with 9 — but every batch
//! opens a connection per shard and waits out the daemons' 20 ms accept
//! poll (Σ best: 1.8 s with 48-item chunks, 2.2 s with 9, 2.8 s with 6),
//! and below 9 items that wait, not the batch path, is what the workload
//! measures. Nine keeps the three configurations of an op, whose session
//! the daemon shares, in one batch. A chunk waits for the slower of two
//! shards, so shard imbalance shows here first.

use crate::est::{Recorder, Workload};
use crate::fleet::{self, Items};
use crate::inputs::{shuffle, CONFIGS};
use crate::metrics::Ledger;
use crate::{probes, trace};
use polyject_arith::SplitMix64;
use polyject_gpusim::GpuModel;
use polyject_serve::{BatchItem, Json, ShardedClient};

const MAX_BATCH: usize = 9;

pub struct ServeBatch {
    items: Items,
    gpu: GpuModel,
    /// Each batch as indices into the stream.
    batches: Vec<Vec<usize>>,
    last: Vec<Option<Json>>,
    /// Round trips and final fleet reports of the latest pass.
    round_trips: u64,
    reports: Vec<Json>,
}

impl Workload for ServeBatch {
    fn set_up(seed: u64, _rep: usize) -> (ServeBatch, Recorder) {
        let items = Items::build();
        let mut rng = SplitMix64::new(seed);
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut start = 0;
        for net in &items.pop.nets {
            let len = net.ops.len() * CONFIGS.len();
            let stream: Vec<usize> = (start..start + len).collect();
            for chunk in stream.chunks(MAX_BATCH) {
                let mut batch = chunk.to_vec();
                shuffle(&mut batch, &mut rng);
                batches.push(batch);
            }
            start += len;
        }
        let weights = batches.iter().map(|b| b.len() as u32).collect();
        let last = vec![None; items.unique.len()];
        let w = ServeBatch {
            items,
            gpu: GpuModel::v100(),
            batches,
            last,
            round_trips: 0,
            reports: Vec::new(),
        };
        (w, Recorder::new("serve.client.batch", weights))
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let fleet = fleet::spawn(2, "b", self.items.stream.len(), &self.gpu);
        let mut client = ShardedClient::new(fleet.endpoints.clone(), self.gpu.clone());
        self.round_trips = 0;
        for (id, batch) in self.batches.iter().enumerate() {
            let request: Vec<BatchItem> = batch
                .iter()
                .map(|&s| self.items.stream[s].clone())
                .collect();
            let (replies, round_trips) = rec.time(id, || client.compile_batch(&request));
            self.round_trips += round_trips;
            for (&s, reply) in batch.iter().zip(replies) {
                let u = self.items.unique_of[s];
                if fleet::is_ok(&reply) {
                    self.last[u] = Some(reply);
                } else {
                    self.last[u] = None;
                    rec.fail(|| format!("stream item {s}: {}", reply.render()));
                }
            }
        }
        self.reports = fleet.shutdown();
    }

    fn finish(self, rec: &mut Recorder, e2e: &mut Ledger, layers: Option<&mut Ledger>) {
        self.items.check_replies(&self.last, &self.gpu, rec);
        self.items.quality(&self.last, e2e);
        if let Some(layers) = layers {
            probes::inputs(&self.items.pop, true);
            probes::write_path(&self.items, &self.gpu, layers);
            probes::set_span_layers(layers, &trace::layers());
            fleet::set_daemon_layers(layers, None, &self.reports);
            layers.set("serve.client.round_trips", self.round_trips as f64);
        }
    }
}
