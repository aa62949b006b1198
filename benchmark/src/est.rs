//! The estimator shared by every timed metric.
//!
//! A workload is a fixed list of operation identities executed once per
//! pass by one closed-loop client thread. The work is deterministic and
//! the noise of a shared box is additive, so an identity's time is its
//! **minimum over passes**; percentiles are taken across identities. The
//! per-pass totals are kept too, so the noisy median stays visible.

use crate::metrics::Ledger;
use crate::trace;
use std::time::{Duration, Instant};

/// Passes never exceed this, however short one pass is.
const MAX_PASSES: usize = 64;

/// Per-identity timing and the failure ledger of one workload run.
pub struct Recorder {
    root: &'static str,
    /// Operations each identity stands for (1, or the items of a batch).
    weights: Vec<u32>,
    /// Timings of the unrecorded passes, and (`[1]`) of the passes the
    /// tracer recorded.
    best_ns: [Vec<u64>; 2],
    pass_totals_ns: [Vec<u64>; 2],
    pass_total_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the detail line.
    pub failures: Vec<String>,
    /// Global (not per-operation) check failures: determinism, cache
    /// misses on the warm path, decomposed-vs-whole pipeline mismatch.
    pub violations: Vec<String>,
}

impl Recorder {
    /// `root` names the span that wraps each identity in a traced run.
    pub fn new(root: &'static str, weights: Vec<u32>) -> Recorder {
        Recorder {
            root,
            best_ns: [vec![u64::MAX; weights.len()], vec![u64::MAX; weights.len()]],
            weights,
            pass_totals_ns: [Vec::new(), Vec::new()],
            pass_total_ns: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            violations: Vec::new(),
        }
    }

    pub fn root(&self) -> &'static str {
        self.root
    }

    /// Takes over what a discarded set-up repetition recorded: the same
    /// seed made the same identities, so its warm-up pass is one more
    /// sample of each.
    fn absorb(&mut self, earlier: Recorder) {
        let [earlier_best, _] = earlier.best_ns;
        for (best, ns) in self.best_ns[0].iter_mut().zip(earlier_best) {
            *best = (*best).min(ns);
        }
        let [earlier_totals, _] = earlier.pass_totals_ns;
        self.pass_totals_ns[0].extend(earlier_totals);
        self.attempted += earlier.attempted;
        self.failed += earlier.failed;
        self.failures.extend(earlier.failures);
        self.failures.truncate(8);
    }

    /// Runs one identity, timed; its operations count as attempted.
    pub fn time<R>(&mut self, id: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = trace::op_span(self.root, id, f);
        let ns = t0.elapsed().as_nanos() as u64;
        let best = &mut self.best_ns[usize::from(trace::enabled())][id];
        *best = (*best).min(ns);
        self.pass_total_ns += ns;
        self.attempted += u64::from(self.weights[id]);
        out
    }

    /// Counts one failed operation (errored, refused, or wrong output).
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Counts operations attempted outside the timed passes (the output
    /// checks), so their failures have a denominator.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    fn end_pass(&mut self) {
        self.pass_totals_ns[usize::from(trace::enabled())].push(self.pass_total_ns);
        self.pass_total_ns = 0;
    }

    /// Forgets the timings (not the failure ledger), so the recorded and
    /// the unrecorded passes of a traced run are measured on equal terms.
    pub fn reset_timings(&mut self) {
        self.best_ns.iter_mut().for_each(|b| b.fill(u64::MAX));
        self.pass_totals_ns.iter_mut().for_each(Vec::clear);
    }

    /// The estimate from the unrecorded passes, or from the passes the
    /// tracer recorded.
    pub fn timing(&self, traced: bool) -> Timing {
        let best_ns = &self.best_ns[usize::from(traced)];
        let pass_totals_ns = &self.pass_totals_ns[usize::from(traced)];
        let ops: u64 = self.weights.iter().map(|&w| u64::from(w)).sum();
        let sum_best_ns: u64 = best_ns.iter().sum();
        // One entry per identity: (ms per operation, operations).
        let mut per_op_ms: Vec<(f64, u32)> = best_ns
            .iter()
            .zip(&self.weights)
            .map(|(&ns, &w)| (ns as f64 / 1e6 / f64::from(w), w))
            .collect();
        per_op_ms.sort_by(|a, b| a.0.total_cmp(&b.0));
        let pass_totals_s: Vec<f64> = pass_totals_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        Timing {
            sum_best_s: sum_best_ns as f64 / 1e9,
            ops_per_s: ops as f64 / (sum_best_ns as f64 / 1e9),
            ops_per_s_median: ops as f64 / median(&mut pass_totals_s.clone()),
            pass_totals_s,
            // The middle is dense and flat, so a window of twenty points
            // costs the median nothing and steadies it: with the 75
            // batches of `serve_batch`, ten points are seven batches, each
            // ±15 % by the phase of the daemons' accept poll alone. The
            // tail is steep, so the 90th keeps ten.
            op_ms_p50: mean_between(&per_op_ms, 0.40, 0.60),
            op_ms_p90: mean_between(&per_op_ms, 0.85, 0.95),
        }
    }
}

/// What the estimator reports for one set of measured passes.
pub struct Timing {
    /// Every pass's Σ over identities, in execution order.
    pub pass_totals_s: Vec<f64>,
    /// Σ over identities of the best time.
    pub sum_best_s: f64,
    pub ops_per_s: f64,
    /// From the median per-pass total: ungated, shows the box's noise.
    pub ops_per_s_median: f64,
    pub op_ms_p50: f64,
    pub op_ms_p90: f64,
}

/// The mean best time of the operations ranked between the `lo`-th and
/// the `hi`-th percentile. Each ascending `(value, n)` entry stands for
/// `n` operations with that value: every item of a batch took the
/// batch's time per item.
///
/// This is how a percentile is estimated here, because a single order
/// statistic sits on steep stretches of these distributions — around
/// `compile_cold`'s 90th percentile the best time climbs from 13 to 16 ms
/// within four ranks — and a neighbour changing place moved the
/// nearest-rank value ±10 % on identical code.
fn mean_between(sorted: &[(f64, u32)], lo: f64, hi: f64) -> f64 {
    let total: f64 = sorted.iter().map(|&(_, w)| f64::from(w)).sum();
    let (lo, hi) = (lo * total, hi * total);
    let (mut rank, mut sum) = (0.0, 0.0);
    for &(value, w) in sorted {
        let next = rank + f64::from(w);
        sum += value * (next.min(hi) - rank.max(lo)).max(0.0);
        rank = next;
    }
    sum / (hi - lo)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One workload, as the driver below sees it.
pub trait Workload: Sized {
    /// Generates the inputs from the seed and brings up whatever the
    /// passes run against. `rep` numbers the set-up repetitions so each
    /// gets its own scratch names.
    fn set_up(seed: u64, rep: usize) -> (Self, Recorder);
    /// Executes every identity once.
    fn pass(&mut self, rec: &mut Recorder);
    /// Releases what `set_up` brought up, without reporting.
    fn discard(self) {}
    /// Output checks, the code-quality metrics, and in a traced run the
    /// probes and the layer ledger; releases what `set_up` brought up.
    fn finish(self, rec: &mut Recorder, e2e: &mut Ledger, layers: Option<&mut Ledger>);
}

/// Set-up, repeated so its time is a median: up to three times, as long
/// as one more repetition still fits the measuring budget. Every
/// repetition is the full thing — inputs, fleets, cache fill, the
/// warm-up pass — and the last one is kept for measuring. Returns the
/// median seconds `set_up` took; the warm-up pass is not in them, because
/// a whole pass never runs undisturbed on a shared box and `setup_s`
/// counts it at its sum of best times instead.
///
/// The warm-up passes are recorded like any other. A first pass can only
/// be slower than a later one (cold caches, lazy set-up), and a minimum
/// over passes is deaf to slower samples; on a box whose speed wanders by
/// tens of percent within a second, three more samples per identity are
/// worth more than the purity of leaving them out.
pub fn set_up_repeated<W: Workload>(seed: u64, budget: Duration) -> (W, Recorder, f64) {
    let phase = Instant::now();
    let mut times = Vec::new();
    let mut discarded: Vec<Recorder> = Vec::new();
    loop {
        let t0 = Instant::now();
        let (mut w, mut rec) = W::set_up(seed, times.len());
        times.push(t0.elapsed().as_secs_f64());
        w.pass(&mut rec);
        rec.end_pass();
        let took = t0.elapsed();
        if times.len() == 3 || phase.elapsed() + took > budget {
            discarded.into_iter().for_each(|d| rec.absorb(d));
            return (w, rec, median(&mut times));
        }
        w.discard();
        discarded.push(rec);
    }
}

/// Measured passes: at least two (one when the budget is zero, the
/// `--quick` smoke), then until the budget is spent. In a traced run every
/// pass is followed by a recorded one, so what tracing costs is read off
/// passes that met the same weather on the box.
pub fn measure<W: Workload>(w: &mut W, rec: &mut Recorder, budget: Duration, traced: bool) {
    let min_passes = if budget.is_zero() { 1 } else { 2 };
    let t0 = Instant::now();
    for pass in 1..=MAX_PASSES {
        w.pass(rec);
        rec.end_pass();
        if traced {
            trace::record(true);
            trace::set_pass(pass);
            w.pass(rec);
            rec.end_pass();
            trace::record(false);
        }
        if pass >= min_passes && t0.elapsed() >= budget {
            break;
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not there).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
