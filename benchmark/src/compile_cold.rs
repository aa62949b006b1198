//! `compile_cold`: what local `polyjectc` does per kernel — `compile` +
//! `render_artifacts` + `estimate` — for the 114 unique Table II operator
//! classes under the three configurations (342 identities).
//!
//! The scheduler is most of it, so this is the workload a solver or
//! scheduler speed-up must move; it is also where Table II's own
//! numbers (`infl_speedup_geomean`, `vec_ops`) are regenerated, so speed
//! is never traded for code quality unseen.

use crate::est::{Recorder, Workload};
use crate::inputs::{check_set, shuffle, Population};
use crate::metrics::Ledger;
use crate::{probes, trace};
use polyject_arith::SplitMix64;
use polyject_codegen::{
    compile, generate_ast, map_to_gpu, refine_parallel_loops, render_artifacts, vectorize,
    Artifacts, Compiled, Config, MappingOptions,
};
use polyject_core::{
    build_influence_tree, schedule_kernel, verify_schedule, InfluenceOptions, InfluenceTree,
    ScheduleStats, SchedulerOptions,
};
use polyject_deps::{compute_dependences, DepOptions};
use polyject_gpusim::{check_equivalence, estimate, seeded_buffers, GpuModel};
use polyject_ir::Kernel;
use polyject_serve::fnv1a64;
use polyject_sets::{counters, SolverCounters};

/// What one identity produced in the latest pass.
struct Done {
    compiled: Compiled,
    artifacts: Artifacts,
    sim_ms: f64,
}

pub struct CompileCold {
    pop: Population,
    gpu: GpuModel,
    seed: u64,
    /// Identity `3 * op + config`, in this seed's order.
    order: Vec<usize>,
    last: Vec<Option<Done>>,
    /// Per pass: the solver-counter delta and the artifact digest. A
    /// deterministic compiler repeats both exactly.
    pass_counters: Vec<SolverCounters>,
    pass_digests: Vec<u64>,
    /// The artifacts of the `compile()` pass before the first recorded
    /// pass, kept so the decomposed pipeline can be held against them.
    whole: Vec<Option<Artifacts>>,
    /// Per identity, from the decomposed pipeline only (`compile` does
    /// not return them).
    stats: Vec<ScheduleStats>,
    relations: Vec<usize>,
}

/// `compile()` taken apart into the public steps it is made of, each in
/// its own span. `finish` asserts the artifacts equal `compile()`'s.
fn compile_decomposed(
    kernel: &Kernel,
    config: Config,
) -> Result<(Compiled, ScheduleStats, usize), String> {
    let deps = trace::span("deps.compute", || {
        compute_dependences(kernel, DepOptions::default())
    });
    let tree = trace::span("core.tree", || match config {
        Config::Isl => InfluenceTree::new(),
        Config::NoVec | Config::Influenced => {
            build_influence_tree(kernel, &InfluenceOptions::default())
        }
    });
    let result = trace::span("core.schedule", || {
        schedule_kernel(kernel, &deps, &tree, SchedulerOptions::default())
    })
    .map_err(|e| e.to_string())?;
    let mut ast = trace::span("codegen.generate_ast", || {
        generate_ast(kernel, &result.schedule)
    });
    let vector_loops = trace::span("codegen.passes", || {
        refine_parallel_loops(&mut ast, &result.schedule, &deps);
        let vector_loops = if config == Config::Influenced {
            vectorize(&mut ast, kernel, &result.schedule)
        } else {
            0
        };
        map_to_gpu(&mut ast, kernel, MappingOptions::default());
        vector_loops
    });
    let compiled = Compiled {
        schedule: result.schedule,
        ast,
        influenced: result.influenced,
        vector_loops,
    };
    Ok((compiled, result.stats, deps.len()))
}

impl CompileCold {
    fn run_identity(&mut self, id: usize) -> Result<Done, String> {
        let kernel = &self.pop.ops[id / 3].kernel;
        let config = Config::all()[id % 3];
        let compiled = if trace::enabled() {
            let (compiled, stats, relations) = compile_decomposed(kernel, config)?;
            self.stats[id] = stats;
            self.relations[id] = relations;
            compiled
        } else {
            compile(kernel, config).map_err(|e| e.to_string())?
        };
        let artifacts = trace::span("codegen.render", || render_artifacts(kernel, &compiled));
        let sim_ms = trace::span("gpusim.estimate", || {
            estimate(&compiled.ast, kernel, &self.gpu).ms()
        });
        Ok(Done {
            compiled,
            artifacts,
            sim_ms,
        })
    }

    /// FNV-1a over every CUDA text, in identity order.
    fn artifact_digest(&self) -> u64 {
        let mut all = String::new();
        for done in self.last.iter().flatten() {
            all.push_str(&done.artifacts.cuda);
            all.push('\0');
        }
        fnv1a64(all.as_bytes())
    }

    /// Simulated ms per unique op under one configuration.
    fn sim_ms(&self, config: usize) -> Vec<f64> {
        (0..self.pop.ops.len())
            .map(|op| {
                self.last[3 * op + config]
                    .as_ref()
                    .map_or(f64::NAN, |d| d.sim_ms)
            })
            .collect()
    }
}

impl Workload for CompileCold {
    fn set_up(seed: u64, _rep: usize) -> (CompileCold, Recorder) {
        let pop = Population::build();
        let n = pop.ops.len() * 3;
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut SplitMix64::new(seed));
        let w = CompileCold {
            pop,
            gpu: GpuModel::v100(),
            seed,
            order,
            last: (0..n).map(|_| None).collect(),
            pass_counters: Vec::new(),
            pass_digests: Vec::new(),
            whole: Vec::new(),
            stats: vec![ScheduleStats::default(); n],
            relations: vec![0; n],
        };
        (w, Recorder::new("compile_cold.op", vec![1; n]))
    }

    fn pass(&mut self, rec: &mut Recorder) {
        // Every pass starts from empty assembly caches, so every pass
        // does the same work and the minimum over passes means something.
        polyject_core::clear_assembly_caches();
        if trace::enabled() && self.whole.is_empty() {
            self.whole = self
                .last
                .iter()
                .map(|d| d.as_ref().map(|d| d.artifacts.clone()))
                .collect();
        }
        let before = counters::snapshot();
        for i in 0..self.order.len() {
            let id = self.order[i];
            match rec.time(id, || self.run_identity(id)) {
                Ok(done) => self.last[id] = Some(done),
                Err(e) => {
                    self.last[id] = None;
                    rec.fail(|| format!("identity {id}: {e}"));
                }
            }
        }
        self.pass_counters
            .push(counters::snapshot().delta_since(&before));
        self.pass_digests.push(self.artifact_digest());
    }

    fn finish(self, rec: &mut Recorder, e2e: &mut Ledger, layers: Option<&mut Ledger>) {
        // Determinism: every pass must repeat the first one's counts and
        // bytes exactly.
        let counts: Vec<_> = self
            .pass_counters
            .iter()
            .map(probes::count_fields)
            .collect();
        if counts.windows(2).any(|w| w[0] != w[1]) {
            rec.violation("solver counter deltas differ between passes".into());
        }
        if self.pass_digests.windows(2).any(|w| w[0] != w[1]) {
            rec.violation("artifact digest differs between passes".into());
        }
        if !self.whole.is_empty() {
            let same = self
                .whole
                .iter()
                .zip(&self.last)
                .all(|(w, d)| w.as_ref() == d.as_ref().map(|d| &d.artifacts));
            if !same {
                rec.violation("decomposed pipeline artifacts differ from compile()".into());
            }
        }

        // Every schedule is legal.
        rec.attempt(self.last.len() as u64);
        trace::set_pass(0);
        for (id, done) in self.last.iter().enumerate() {
            let Some(done) = done else { continue };
            let kernel = &self.pop.ops[id / 3].kernel;
            let deps = compute_dependences(kernel, DepOptions::default());
            let report = trace::op_span("core.verify", id, || {
                verify_schedule(kernel, &deps, &done.compiled.schedule)
            });
            if !report.ok() {
                rec.fail(|| format!("identity {id}: schedule fails verify_schedule"));
            }
        }

        // The generated code computes what the kernel says: scaled-down
        // twins of every class, all three configurations, bit for bit
        // against the independent reference interpreter.
        let twins = check_set(&self.pop.ops);
        rec.attempt(twins.len() as u64 * 3);
        for (t, class) in twins.iter().enumerate() {
            let kernel = class.build();
            let params = kernel.param_defaults().to_vec();
            let inputs = seeded_buffers(&kernel, &params, self.seed);
            for config in Config::all() {
                let outcome = compile(&kernel, config)
                    .map_err(|e| e.to_string())
                    .and_then(|c| {
                        trace::op_span("gpusim.execute", t, || {
                            check_equivalence(&c.ast, &kernel, &inputs, &params)
                        })
                    });
                if let Err(e) = outcome {
                    rec.fail(|| format!("twin {class:?} under {}: {e}", config.name()));
                }
            }
        }

        // Table II from the artifacts just compiled.
        let (isl, infl) = (self.sim_ms(0), self.sim_ms(2));
        let vectorized: Vec<bool> = (0..self.pop.ops.len())
            .map(|op| {
                self.last[3 * op + 2]
                    .as_ref()
                    .is_some_and(|d| d.compiled.vector_loops > 0)
            })
            .collect();
        e2e.set(
            "infl_speedup_geomean",
            self.pop.speedup_geomean(&isl, &infl),
        );
        e2e.set("vec_ops", self.pop.count_over_networks(&vectorized) as f64);
        // Nothing here tunes: the code delivered is the default code.
        e2e.set("tuned_speedup_geomean", 1.0);
        crate::note(
            "per_network_speedup_infl",
            self.pop
                .nets
                .iter()
                .zip(self.pop.per_network_speedup(&isl, &infl))
                .map(|(n, s)| format!("{}={s:.4}", n.name))
                .collect::<Vec<_>>()
                .join(" "),
        );

        let Some(layers) = layers else { return };
        probes::inputs(&self.pop, false);
        let spans = trace::layers();
        probes::set_span_layers(layers, &spans);
        probes::set_solver_layers(layers, &self.pass_counters);
        let sum = |f: fn(&ScheduleStats) -> usize| self.stats.iter().map(f).sum::<usize>() as f64;
        layers.set("core.ilp_solves", sum(|s| s.ilp_solves));
        layers.set("core.tree_backtracks", sum(|s| s.tree_backtracks));
        layers.set("core.scc_separations", sum(|s| s.scc_separations));
        layers.set("core.feautrier_dims", sum(|s| s.feautrier_dims));
        layers.set("core.assemble_cache_hits", sum(|s| s.assemble_cache_hits));
        layers.set("core.degraded_solves", sum(|s| s.degraded_solves as usize));
        let influenced = self
            .last
            .iter()
            .enumerate()
            .filter(|(id, d)| id % 3 != 0 && d.as_ref().is_some_and(|d| d.compiled.influenced))
            .count();
        layers.set(
            "core.influenced_share",
            influenced as f64 / (self.pop.ops.len() * 2) as f64,
        );
        layers.set(
            "deps.relations",
            self.relations.iter().sum::<usize>() as f64,
        );
        let done = || self.last.iter().flatten();
        layers.set(
            "codegen.vector_loops",
            done().map(|d| d.compiled.vector_loops).sum::<usize>() as f64,
        );
        layers.set(
            "codegen.cuda_bytes",
            done().map(|d| d.artifacts.cuda.len()).sum::<usize>() as f64,
        );
        layers.set(
            "codegen.artifact_digest",
            (self.artifact_digest() & ((1 << 48) - 1)) as f64,
        );
        let over_networks =
            |ms: &[f64]| -> f64 { self.pop.net_ops.iter().flatten().map(|&i| ms[i]).sum() };
        layers.set("gpusim.sim_isl_ms_total", over_networks(&isl));
        layers.set("gpusim.sim_infl_ms_total", over_networks(&infl));
        layers.set(
            "serve.pool.scaling_2w",
            probes::pool_scaling(&self.pop, &self.gpu),
        );
    }
}
