//! `tune_search`: one `tune::beam_search` (influenced configuration,
//! V100, unlimited budget, serial runner, nothing persisted) per unique
//! Table II operator class (114).
//!
//! It uses the layers `compile_cold` uses, differently: one compile
//! session per search, ~37 candidates each, most oracle calls answered
//! from memos — session reuse, the memo layers, `gpusim::estimate` and
//! the ridge model do the work and cold ILP does little. So a change
//! that helps cold solving should move this little, and a change to the
//! search must not lower `tuned_speedup_geomean`.

use crate::est::{Recorder, Workload};
use crate::inputs::{shuffle, Population};
use crate::metrics::Ledger;
use crate::{probes, trace};
use polyject_arith::SplitMix64;
use polyject_codegen::{compile, compile_with_options, Config};
use polyject_core::Budget;
use polyject_gpusim::{estimate, GpuModel};
use polyject_sets::{counters, SolverCounters};
use polyject_tune::{
    beam_search, EvalCtx, Evaluated, JobRunner, KnobPoint, SerialRunner, TuneOptions, TuneOutcome,
    TuneRequest,
};

/// The serial runner inside a span: the oracle (session compile +
/// memoised estimate) apart from the search around it.
struct SpanRunner;

impl JobRunner for SpanRunner {
    fn evaluate(&self, ctx: &EvalCtx<'_>, points: &[KnobPoint]) -> Vec<Option<Evaluated>> {
        trace::span("tune.oracle", || SerialRunner.evaluate(ctx, points))
    }
}

pub struct TuneSearch {
    pop: Population,
    requests: Vec<TuneRequest>,
    options: TuneOptions,
    order: Vec<usize>,
    last: Vec<Option<TuneOutcome>>,
    /// Per pass, every search's log digest: equal digests mean the
    /// searches replayed bit for bit.
    pass_digests: Vec<Vec<u64>>,
    pass_counters: Vec<SolverCounters>,
}

impl Workload for TuneSearch {
    fn set_up(seed: u64, _rep: usize) -> (TuneSearch, Recorder) {
        let pop = Population::build();
        let gpu = GpuModel::v100();
        let requests: Vec<TuneRequest> = pop
            .ops
            .iter()
            .map(|op| TuneRequest {
                kernel: op.kernel.clone(),
                config: Config::Influenced,
                gpu: gpu.clone(),
                budget: Budget::unlimited(),
            })
            .collect();
        let mut order: Vec<usize> = (0..requests.len()).collect();
        shuffle(&mut order, &mut SplitMix64::new(seed));
        let n = requests.len();
        let w = TuneSearch {
            pop,
            requests,
            // The tuner keeps its own default seed: across tuner seeds
            // `tuned_speedup_geomean` moves 1.033–1.055, more than the
            // whole gain a regression bound would have to protect. The
            // benchmark seed orders the searches.
            options: TuneOptions::default(),
            order,
            last: (0..n).map(|_| None).collect(),
            pass_digests: Vec::new(),
            pass_counters: Vec::new(),
        };
        (w, Recorder::new("tune.search", vec![1; n]))
    }

    fn pass(&mut self, rec: &mut Recorder) {
        polyject_core::clear_assembly_caches();
        let before = counters::snapshot();
        let runner: &dyn JobRunner = if trace::enabled() {
            &SpanRunner
        } else {
            &SerialRunner
        };
        for &id in &self.order {
            let outcome = rec.time(id, || {
                beam_search(&self.requests[id], &self.options, runner)
            });
            self.last[id] = match outcome {
                Ok(o) if o.complete => Some(o),
                Ok(_) => {
                    rec.fail(|| format!("search {id}: stopped before its last round"));
                    None
                }
                Err(e) => {
                    rec.fail(|| format!("search {id}: {e}"));
                    None
                }
            };
        }
        self.pass_counters
            .push(counters::snapshot().delta_since(&before));
        self.pass_digests.push(
            self.last
                .iter()
                .map(|o| o.as_ref().map_or(0, |o| o.tuned.log_digest))
                .collect(),
        );
    }

    fn finish(self, rec: &mut Recorder, e2e: &mut Ledger, layers: Option<&mut Ledger>) {
        if self.pass_digests.windows(2).any(|w| w[0] != w[1]) {
            rec.violation("a search's candidate log differs between passes".into());
        }
        let counts: Vec<_> = self
            .pass_counters
            .iter()
            .map(probes::count_fields)
            .collect();
        if counts.windows(2).any(|w| w[0] != w[1]) {
            rec.violation("solver counter deltas differ between passes".into());
        }

        // Every winner, recompiled cold from its recorded options, must
        // reproduce its recorded time bit for bit.
        let n = self.requests.len();
        let gpu = &self.requests[0].gpu;
        rec.attempt(n as u64);
        let (mut isl_ms, mut infl_ms) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        let mut vectorized = vec![false; n];
        let mut ln_speedup = 0.0;
        for (id, outcome) in self.last.iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let kernel = &self.requests[id].kernel;
            let tuned = &outcome.tuned;
            let cold = compile_with_options(
                kernel,
                Config::Influenced,
                &Budget::unlimited(),
                &tuned.to_compile_options(),
            );
            match cold {
                Ok(c) => {
                    let replayed = estimate(&c.ast, kernel, gpu).time;
                    if replayed.to_bits() != tuned.tuned_time.to_bits() {
                        rec.fail(|| {
                            format!(
                                "search {id}: winner replays at {replayed} s, recorded {} s",
                                tuned.tuned_time
                            )
                        });
                    }
                    vectorized[id] = c.vector_loops > 0;
                }
                Err(e) => rec.fail(|| format!("search {id}: winner does not compile cold: {e}")),
            }
            ln_speedup += tuned.speedup().ln();
            // The search's own baseline is the default influenced code;
            // against a cold `isl` compile it must give Table II's ratio.
            infl_ms[id] = tuned.default_time * 1e3;
            if let Ok(isl) = compile(kernel, Config::Isl) {
                isl_ms[id] = estimate(&isl.ast, kernel, gpu).ms();
            }
        }
        e2e.set(
            "infl_speedup_geomean",
            self.pop.speedup_geomean(&isl_ms, &infl_ms),
        );
        e2e.set("vec_ops", self.pop.count_over_networks(&vectorized) as f64);
        e2e.set("tuned_speedup_geomean", (ln_speedup / n as f64).exp());

        let Some(layers) = layers else { return };
        probes::inputs(&self.pop, false);
        probes::sessions(&self.pop);
        probes::set_span_layers(layers, &trace::layers());
        probes::set_solver_layers(layers, &self.pass_counters);
        let searches = || self.last.iter().flatten();
        let evaluated: usize = searches().map(|o| o.tuned.evaluated).sum();
        let memo_hits: u64 = searches().map(|o| o.estimate_memo_hits).sum();
        layers.set("tune.evaluated", evaluated as f64);
        layers.set("tune.estimate_memo_hits", memo_hits as f64);
        layers.set("tune.memo_hit_share", memo_hits as f64 / evaluated as f64);
        layers.set(
            "tune.rank_correlation_mean",
            searches().map(|o| o.tuned.rank_correlation).sum::<f64>() / n as f64,
        );
        layers.set(
            "tune.improved_ops",
            searches().filter(|o| o.tuned.speedup() > 1.0).count() as f64,
        );
        layers.set(
            "tune.session_reuses",
            searches().map(|o| o.session_reuses).sum::<u64>() as f64,
        );
        layers.set(
            "tune.warm_dependence_analyses",
            searches().map(|o| o.warm_dependence_analyses).sum::<u64>() as f64,
        );
    }
}
