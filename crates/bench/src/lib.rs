//! # polyject-bench
//!
//! The table/figure regeneration harness for the paper's evaluation
//! (Section VI): formatting helpers, the paper's published numbers for
//! side-by-side comparison, and shared driver code used by the `table1`,
//! `table2`, `fig1_pipeline`, `fig2_running_example` and
//! `fig3_constraint_tree` binaries, plus the in-process daemon [`Fleet`]
//! the benchmark package's serving workloads spawn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;

pub use fleet::{artifact_fields, table2_batch_items, Fleet};

use polyject_gpusim::GpuModel;
use polyject_serve::{parallel_map, Json};
use polyject_workloads::{
    aggregate_network, all_networks, measure_op_with_perf, op_key, unique_ops, Network,
    NetworkMeasurement, OpPerf, Tool,
};
use std::fmt::Write as _;
use std::time::Instant;

/// The paper's Table II reference values for one network row.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Network name.
    pub name: &'static str,
    /// total / vec / infl operator counts.
    pub counts: [usize; 3],
    /// All-operator speedups over isl: tvm, novec, infl.
    pub speedups_all: [f64; 3],
    /// Influenced-only speedups over isl: tvm, novec, infl.
    pub speedups_infl: [f64; 3],
}

/// The paper's Table II (speedups over isl; times omitted — absolute
/// milliseconds are testbed-specific).
pub fn paper_table2() -> Vec<PaperRow> {
    vec![
        PaperRow {
            name: "BERT",
            counts: [109, 53, 53],
            speedups_all: [0.18, 0.95, 1.05],
            speedups_infl: [1.01, 0.86, 1.15],
        },
        PaperRow {
            name: "LSTM",
            counts: [4, 3, 3],
            speedups_all: [0.94, 1.00, 1.05],
            speedups_infl: [0.94, 1.00, 1.05],
        },
        PaperRow {
            name: "MobileNetv2",
            counts: [18, 16, 16],
            speedups_all: [0.99, 0.99, 1.02],
            speedups_infl: [0.99, 0.99, 1.02],
        },
        PaperRow {
            name: "ResNet50",
            counts: [17, 10, 12],
            speedups_all: [3.07, 3.05, 3.43],
            speedups_infl: [5.14, 4.72, 5.93],
        },
        PaperRow {
            name: "ResNet101",
            counts: [22, 14, 16],
            speedups_all: [6.94, 6.75, 7.70],
            speedups_infl: [11.31, 10.07, 12.53],
        },
        PaperRow {
            name: "ResNeXt50",
            counts: [33, 21, 22],
            speedups_all: [1.13, 1.23, 1.36],
            speedups_infl: [1.19, 1.35, 1.56],
        },
        PaperRow {
            name: "VGG16",
            counts: [14, 9, 10],
            speedups_all: [1.09, 1.26, 1.42],
            speedups_infl: [1.09, 1.28, 1.45],
        },
    ]
}

/// Outcome of an instrumented Table II run.
#[derive(Clone, Debug)]
pub struct Table2Run {
    /// One Table II row per network, in [`all_networks`] order.
    pub results: Vec<NetworkMeasurement>,
    /// End-to-end wall-clock seconds.
    pub wall_s: f64,
    /// Worker threads used (1 = serial on the calling thread).
    pub workers: usize,
    /// Unique operator classes compiled (identical classes dedup to one
    /// compilation across all networks).
    pub unique_ops: usize,
    /// Aggregated compile wall-clock and solver counters over the unique
    /// operators.
    pub perf: OpPerf,
}

/// Runs Table II over the given networks with global operator
/// deduplication and `workers` pool threads (see
/// [`polyject_serve::parallel_map`]).
///
/// Unique operator classes are collected in first-seen order across all
/// networks, compiled in parallel, then each network row is reassembled
/// in operator order via [`aggregate_network`]. `measure_op` is a pure
/// function of the operator class, so the rows are identical no matter
/// the worker count.
pub fn run_table2_networks(nets: &[Network], model: &GpuModel, workers: usize) -> Table2Run {
    let t0 = Instant::now();
    let (unique, index) = unique_ops(nets);
    let measured = parallel_map(&unique, workers, |op| measure_op_with_perf(op, model));
    let mut perf = OpPerf::default();
    for (_, p) in &measured {
        perf.accumulate(p);
    }
    let results = nets
        .iter()
        .map(|net| {
            let per_op = net
                .ops
                .iter()
                .map(|op| measured[index[&op_key(op)]].0.clone())
                .collect();
            aggregate_network(net, per_op)
        })
        .collect();
    Table2Run {
        results,
        wall_s: t0.elapsed().as_secs_f64(),
        workers,
        unique_ops: unique.len(),
        perf,
    }
}

/// Inputs of the machine-readable `BENCH_table2.json` report.
#[derive(Clone, Debug)]
pub struct Table2Bench {
    /// CPU cores the machine reports.
    pub cores: usize,
    /// The serial run (workers = 1).
    pub serial: Table2Run,
    /// The parallel run — or, on a single-core machine, a serial repeat
    /// standing in as a determinism check (see [`Table2Bench::parallel_skipped`]).
    pub parallel: Table2Run,
    /// Whether both runs produced exactly identical tables.
    pub identical: bool,
}

/// `x` to `digits` decimals: the report records measurements at the
/// precision they mean something at.
fn round_to(x: f64, digits: i32) -> f64 {
    let unit = 10f64.powi(digits);
    (x * unit).round() / unit
}

impl Table2Bench {
    /// True when the machine has fewer than two cores and the "parallel"
    /// leg was therefore run serially: the recorded speedup measures
    /// run-to-run determinism, not parallel scaling.
    pub fn parallel_skipped(&self) -> bool {
        self.parallel.workers < 2
    }

    /// The `--bench` keys of `BENCH_table2.json` after its leading
    /// `"bench": "table2"` (schema in the repository README): `table2
    /// --bench` writes the file whole from them.
    pub fn sections(&self) -> Vec<(&'static str, Json)> {
        let n = |v: usize| Json::Num(v as f64);
        let rounded = |x: f64, digits: i32| Json::Num(round_to(x, digits));
        let run = |r: &Table2Run| {
            let solver = solver_pairs(&r.perf.counters).map(|(k, v)| (k, Json::Num(v)));
            Json::obj(vec![
                ("wall_s", rounded(r.wall_s, 6)),
                ("workers", n(r.workers)),
                ("unique_ops", n(r.unique_ops)),
                ("compile_ms_total", rounded(r.perf.compile_ms, 3)),
                ("solver", Json::Obj(solver.collect())),
            ])
        };
        // On a single-core machine the "parallel" leg is a serial repeat,
        // so a wall-clock ratio would be noise masquerading as scaling.
        let speedup = if self.parallel_skipped() {
            Json::Null
        } else if self.parallel.wall_s > 0.0 {
            rounded(self.serial.wall_s / self.parallel.wall_s, 3)
        } else {
            Json::Num(1.0)
        };
        let networks = (self.parallel.results.iter())
            .map(|m| {
                Json::obj(vec![
                    ("name", Json::Str(m.name.to_string())),
                    ("total_ops", n(m.total_ops)),
                    ("vec_ops", n(m.vec_ops)),
                    ("infl_ops", n(m.infl_ops)),
                    ("isl_ms", rounded(m.all_ms[0], 6)),
                    ("infl_ms", rounded(m.all_ms[3], 6)),
                    ("speedup_infl", rounded(m.speedup_all(Tool::Infl), 4)),
                ])
            })
            .collect();
        vec![
            ("cores", n(self.cores)),
            ("speedup", speedup),
            ("identical", Json::Bool(self.identical)),
            ("parallel_skipped", Json::Bool(self.parallel_skipped())),
            ("serial", run(&self.serial)),
            ("parallel", run(&self.parallel)),
            ("networks", Json::Arr(networks)),
        ]
    }
}

/// Every live solver counter as a `(key, value)` pair in declaration
/// order — the `"solver"` object of `BENCH_table2.json` and `table2
/// --stats`: counts verbatim, `*_ns` clocks as `*_ms` to three decimals.
pub fn solver_pairs(c: &polyject_sets::SolverCounters) -> impl Iterator<Item = (String, f64)> + '_ {
    c.fields().map(|(name, v)| match name.strip_suffix("_ns") {
        Some(stem) => (format!("{stem}_ms"), round_to(v as f64 / 1e6, 3)),
        None => (name.to_string(), v as f64),
    })
}

/// Renders measured results as the machine-readable per-operator CSV
/// (`table2 --csv`): a header, then one row per operator of every
/// network in order — the vectorized / influenced flags and the four
/// simulated times in milliseconds to six decimals.
pub fn render_csv(results: &[NetworkMeasurement]) -> String {
    let mut out = String::from("network,op,class,vec,influenced,isl_ms,tvm_ms,novec_ms,infl_ms\n");
    for net in results {
        for m in &net.per_op {
            let [isl, tvm, novec, infl] = m.time_ms;
            writeln!(
                out,
                "{},{},{},{},{},{isl:.6},{tvm:.6},{novec:.6},{infl:.6}",
                net.name, m.name, m.class, m.vec_eligible, m.influenced
            )
            .unwrap();
        }
    }
    out
}

/// Renders measured results as a paper-style Table II, with the paper's
/// speedups alongside for comparison.
pub fn render_table2(results: &[NetworkMeasurement]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "TABLE II — FUSED OPERATORS EXECUTION TIMES (simulated V100)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} | {:>5} {:>4} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>5} {:>6} {:>5} | {:>5} {:>6} {:>5} | paper(tvm/novec/infl)",
        "Network", "total", "vec", "infl", "isl(ms)", "tvm(ms)", "novec(ms)", "infl(ms)",
        "tvm", "novec", "infl", "tvm*", "novec*", "infl*"
    )
    .unwrap();
    let paper = paper_table2();
    for m in results {
        // Match the paper row by name so subset runs (e.g. `--fast`)
        // still line up with the right reference speedups.
        const UNKNOWN: PaperRow = PaperRow {
            name: "",
            counts: [0; 3],
            speedups_all: [0.0; 3],
            speedups_infl: [0.0; 3],
        };
        let p = paper.iter().find(|p| p.name == m.name).unwrap_or(&UNKNOWN);
        writeln!(
            out,
            "{:<12} | {:>5} {:>4} {:>5} | {:>9.3} {:>9.3} {:>9.3} {:>9.3} | {:>5.2} {:>6.2} {:>5.2} | {:>5.2} {:>6.2} {:>5.2} | {:.2}/{:.2}/{:.2}",
            m.name,
            m.total_ops,
            m.vec_ops,
            m.infl_ops,
            m.all_ms[0],
            m.all_ms[1],
            m.all_ms[2],
            m.all_ms[3],
            m.speedup_all(Tool::Tvm),
            m.speedup_all(Tool::NoVec),
            m.speedup_all(Tool::Infl),
            m.speedup_infl(Tool::Tvm),
            m.speedup_infl(Tool::NoVec),
            m.speedup_infl(Tool::Infl),
            p.speedups_all[0],
            p.speedups_all[1],
            p.speedups_all[2],
        )
        .unwrap();
    }
    writeln!(
        out,
        "(columns 9-11: measured all-operator speedups over isl; 12-14 (*): influenced-only; rightmost: paper's all-operator speedups)"
    )
    .unwrap();
    out
}

/// Renders Table I.
pub fn render_table1() -> String {
    let mut out = String::new();
    writeln!(out, "TABLE I — TARGET END-TO-END WORKLOADS").unwrap();
    writeln!(out, "{:<12} {:<5} Dataset", "Network", "Type").unwrap();
    for n in all_networks() {
        writeln!(out, "{:<12} {:<5} {}", n.name, n.kind.as_str(), n.dataset).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_cover_all_networks() {
        let paper = paper_table2();
        let nets = all_networks();
        assert_eq!(paper.len(), nets.len());
        for (p, n) in paper.iter().zip(&nets) {
            assert_eq!(p.name, n.name);
            assert_eq!(p.counts[0], n.ops.len(), "{}", n.name);
        }
    }

    fn bench(cores: usize, workers: usize, parallel_wall_s: f64) -> Table2Bench {
        let run = |workers, wall_s| Table2Run {
            results: vec![],
            wall_s,
            workers,
            unique_ops: 0,
            perf: OpPerf::default(),
        };
        Table2Bench {
            cores,
            serial: run(1, 1.5),
            parallel: run(workers, parallel_wall_s),
            identical: true,
        }
    }

    #[test]
    fn bench_sections_contain_schema_fields() {
        let json = Json::obj(bench(4, 4, 0.5).sections()).render_pretty();
        for key in [
            "\"cores\": 4",
            "\"speedup\": 3,",
            "\"identical\": true",
            "\"serial\"",
            "\"parallel\"",
            "\"wall_s\": 0.5",
            "\"workers\": 4",
            "\"unique_ops\"",
            "\"compile_ms_total\"",
            "\"solver\"",
            "\"lp_solves\"",
            "\"fm_eliminations\"",
            "\"lp_phase1_pivots\"",
            "\"lp_phase2_pivots\"",
            "\"bb_repair_pivots\"",
            "\"bb_warm_nodes\"",
            "\"tab_i64_solves\"",
            "\"tab_overflow_escalations\"",
            "\"farkas_linearizations\"",
            "\"redundancy_checks\"",
            "\"dependence_analyses\"",
            "\"session_reuses\"",
            "\"preprocess_ms\"",
            "\"degraded_solves\"",
            "\"cancelled_solves\"",
            "\"panics_recovered\"",
            "\"parallel_skipped\": false",
            "\"networks\": []",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn single_core_bench_records_skipped_parallel_leg() {
        let b = bench(1, 1, 1.0);
        assert!(b.parallel_skipped());
        let json = Json::obj(b.sections()).render_pretty();
        assert!(json.contains("\"parallel_skipped\": true"));
        assert!(json.contains("\"cores\": 1"));
        // A serial repeat measures determinism, not scaling: the speedup
        // must be null, never a run-to-run wall-clock ratio.
        assert!(json.contains("\"speedup\": null"), "got:\n{json}");
    }

    #[test]
    fn table1_renders_seven_rows() {
        let t = render_table1();
        assert_eq!(t.lines().count(), 9);
        assert!(t.contains("BERT"));
        assert!(t.contains("zhwiki"));
    }
}
