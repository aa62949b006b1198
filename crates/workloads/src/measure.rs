//! Measurement harness: runs every fused operator of a network through
//! the four evaluated tool chains and aggregates the Table II statistics.

use crate::classes::OpClass;
use crate::networks::Network;
use crate::tvm::compile_tvm;
use polyject_codegen::{compile, render, Config};
use polyject_gpusim::{estimate, GpuModel};
use polyject_sets::{counters, SolverCounters};
use std::collections::HashMap;
use std::time::Instant;

/// The four compared tool chains, in Table II column order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tool {
    /// Fused operators scheduled with standard isl-style scheduling.
    Isl,
    /// TVM's manual per-statement schedules.
    Tvm,
    /// Influenced scheduling without explicit load/store vectorization.
    NoVec,
    /// Influenced scheduling with vectorization (the paper's approach).
    Infl,
}

impl Tool {
    /// All tools in the paper's column order.
    pub fn all() -> [Tool; 4] {
        [Tool::Isl, Tool::Tvm, Tool::NoVec, Tool::Infl]
    }

    /// The Table II column name.
    pub fn name(&self) -> &'static str {
        match self {
            Tool::Isl => "isl",
            Tool::Tvm => "tvm",
            Tool::NoVec => "novec",
            Tool::Infl => "infl",
        }
    }

    fn index(&self) -> usize {
        match self {
            Tool::Isl => 0,
            Tool::Tvm => 1,
            Tool::NoVec => 2,
            Tool::Infl => 3,
        }
    }
}

/// Per-operator measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct OpMeasurement {
    /// The operator's kernel name.
    pub name: String,
    /// Operator class label.
    pub class: &'static str,
    /// Simulated execution time in milliseconds, indexed like
    /// [`Tool::all`].
    pub time_ms: [f64; 4],
    /// Whether the influenced compilation used explicit vector types
    /// (Table II's `vec` count).
    pub vec_eligible: bool,
    /// Whether influence actually changed the generated code w.r.t. the
    /// isl baseline (Table II's `infl` count).
    pub influenced: bool,
}

impl OpMeasurement {
    /// Time under one tool.
    pub fn time(&self, tool: Tool) -> f64 {
        self.time_ms[tool.index()]
    }
}

/// Per-network aggregation (one Table II row).
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkMeasurement {
    /// Network name.
    pub name: &'static str,
    /// Total fused operators.
    pub total_ops: usize,
    /// Operators eligible for load/store vectorization.
    pub vec_ops: usize,
    /// Operators whose code was modified by influence.
    pub infl_ops: usize,
    /// Sum of times over all operators, per tool (ms).
    pub all_ms: [f64; 4],
    /// Sum of times over influenced operators only, per tool (ms).
    pub infl_ms: [f64; 4],
    /// Per-operator detail.
    pub per_op: Vec<OpMeasurement>,
}

impl NetworkMeasurement {
    /// Speedup of `tool` over the isl baseline on all operators.
    pub fn speedup_all(&self, tool: Tool) -> f64 {
        self.all_ms[Tool::Isl.index()] / self.all_ms[tool.index()]
    }

    /// Speedup of `tool` over the isl baseline on influenced operators.
    pub fn speedup_infl(&self, tool: Tool) -> f64 {
        if self.infl_ms[tool.index()] == 0.0 {
            return 1.0;
        }
        self.infl_ms[Tool::Isl.index()] / self.infl_ms[tool.index()]
    }
}

/// Compilation-side performance of one [`measure_op`] call: how long the
/// four-tool-chain compilation took and how much solver work it needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpPerf {
    /// Wall-clock milliseconds spent compiling and estimating the
    /// operator under all four tool chains.
    pub compile_ms: f64,
    /// Solver work performed (LP solves, ILP solves/nodes, FM
    /// eliminations). Exact because each operator is compiled
    /// start-to-finish on one thread and the counters are thread-local.
    pub counters: SolverCounters,
}

impl OpPerf {
    /// Accumulates another operator's perf into this one.
    pub fn accumulate(&mut self, other: &OpPerf) {
        self.compile_ms += other.compile_ms;
        self.counters.accumulate(&other.counters);
    }
}

/// Measures one operator class under all four tools.
///
/// # Panics
///
/// Panics if scheduling fails even in the uninfluenced fallback (does not
/// happen on the shipped operator classes).
pub fn measure_op(op: &OpClass, model: &GpuModel) -> OpMeasurement {
    measure_op_with_perf(op, model).0
}

/// Like [`measure_op`], also reporting wall-clock and solver-work
/// performance counters for the compilation itself.
///
/// # Panics
///
/// Panics if scheduling fails even in the uninfluenced fallback.
pub fn measure_op_with_perf(op: &OpClass, model: &GpuModel) -> (OpMeasurement, OpPerf) {
    let t0 = Instant::now();
    let before = counters::snapshot();
    let kernel = op.build();
    let isl = compile(&kernel, Config::Isl).expect("isl compiles");
    let novec = compile(&kernel, Config::NoVec).expect("novec compiles");
    let infl = compile(&kernel, Config::Influenced).expect("infl compiles");

    let isl_t = estimate(&isl.ast, &kernel, model);
    let novec_t = estimate(&novec.ast, &kernel, model);
    let infl_t = estimate(&infl.ast, &kernel, model);
    let tvm_t: f64 = compile_tvm(&kernel)
        .iter()
        .map(|(sub, ast)| estimate(ast, sub, model).time)
        .sum();

    let influenced =
        infl.vector_loops > 0 || render(&infl.ast, &kernel) != render(&isl.ast, &kernel);
    let m = OpMeasurement {
        name: kernel.name().to_string(),
        class: op.label(),
        time_ms: [isl_t.ms(), tvm_t * 1e3, novec_t.ms(), infl_t.ms()],
        vec_eligible: infl.vector_loops > 0,
        influenced,
    };
    let perf = OpPerf {
        compile_ms: t0.elapsed().as_secs_f64() * 1e3,
        counters: counters::snapshot().delta_since(&before),
    };
    (m, perf)
}

/// The memoization key for an operator class: identical classes compile
/// to identical measurements, so they are measured once per run.
pub fn op_key(op: &OpClass) -> String {
    format!("{op:?}")
}

/// The distinct operator classes of `nets` in first-seen order, and each
/// [`op_key`]'s position in that list — the global deduplication every
/// Table II runner starts from.
pub fn unique_ops(nets: &[Network]) -> (Vec<&OpClass>, HashMap<String, usize>) {
    let mut index = HashMap::new();
    let mut unique = Vec::new();
    for op in nets.iter().flat_map(|net| &net.ops) {
        index.entry(op_key(op)).or_insert_with(|| {
            unique.push(op);
            unique.len() - 1
        });
    }
    (unique, index)
}

/// Builds the per-network aggregation (one Table II row) from
/// already-measured operators, given in the network's operator order.
/// Every Table II row is assembled here, so a serially measured row and
/// a row reassembled from a parallel run are identical by construction.
///
/// # Panics
///
/// Panics if `per_op` does not have one entry per network operator.
pub fn aggregate_network(net: &Network, per_op: Vec<OpMeasurement>) -> NetworkMeasurement {
    assert_eq!(per_op.len(), net.ops.len(), "one measurement per operator");
    let mut all_ms = [0.0; 4];
    let mut infl_ms = [0.0; 4];
    let mut vec_ops = 0;
    let mut infl_ops = 0;
    for m in &per_op {
        for (acc, t) in all_ms.iter_mut().zip(&m.time_ms) {
            *acc += t;
        }
        if m.vec_eligible {
            vec_ops += 1;
        }
        if m.influenced {
            infl_ops += 1;
            for (acc, t) in infl_ms.iter_mut().zip(&m.time_ms) {
                *acc += t;
            }
        }
    }
    NetworkMeasurement {
        name: net.name,
        total_ops: net.ops.len(),
        vec_ops,
        infl_ops,
        all_ms,
        infl_ms,
        per_op,
    }
}

/// Geometric mean of the per-network speedups of a tool (the paper's
/// headline aggregates a 1.7× geomean for `infl`).
pub fn geomean_speedup(nets: &[NetworkMeasurement], tool: Tool) -> f64 {
    if nets.is_empty() {
        return 1.0;
    }
    let product: f64 = nets.iter().map(|n| n.speedup_all(tool).ln()).sum();
    (product / nets.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ElemType;

    fn model() -> GpuModel {
        GpuModel::v100()
    }

    #[test]
    fn transpose_op_shape() {
        let m = measure_op(
            &OpClass::Transpose2D {
                rows: 1024,
                cols: 1024,
                elem: ElemType::F16,
            },
            &model(),
        );
        assert!(m.vec_eligible);
        assert!(m.influenced);
        // infl < novec < isl, and tvm lands near novec.
        assert!(m.time(Tool::Infl) <= m.time(Tool::NoVec));
        assert!(m.time(Tool::NoVec) < m.time(Tool::Isl));
        assert!(m.time(Tool::Tvm) < m.time(Tool::Isl));
    }

    #[test]
    fn odd_elementwise_not_influenced() {
        let m = measure_op(
            &OpClass::Elementwise {
                len: 98_301,
                depth: 3,
            },
            &model(),
        );
        assert!(!m.vec_eligible);
        assert!(!m.influenced);
        assert!((m.time(Tool::Isl) - m.time(Tool::Infl)).abs() < 1e-9);
    }

    #[test]
    fn tvm_fuses_chains_but_splits_layernorm() {
        // Pure injective chain: TVM inlines it, landing close to the
        // fused compiler.
        let chain = measure_op(
            &OpClass::Elementwise {
                len: 1 << 19,
                depth: 8,
            },
            &model(),
        );
        assert!(
            chain.time(Tool::Tvm) < 1.3 * chain.time(Tool::Isl),
            "TVM inlines injective chains: tvm {} vs isl {}",
            chain.time(Tool::Tvm),
            chain.time(Tool::Isl)
        );
        // Reduction-crossing fusion: TVM pays intermediates + launches.
        let ln = measure_op(
            &OpClass::LayerNorm {
                rows: 512,
                cols: 768,
            },
            &model(),
        );
        assert!(
            ln.time(Tool::Tvm) > 1.5 * ln.time(Tool::Isl),
            "TVM splits at reductions: tvm {} vs isl {}",
            ln.time(Tool::Tvm),
            ln.time(Tool::Isl)
        );
    }

    #[test]
    fn c3_transpose_influenced_but_not_vectorizable() {
        let m = measure_op(
            &OpClass::Transpose4D {
                n: 8,
                c: 3,
                h: 64,
                w: 64,
                elem: ElemType::F16,
            },
            &model(),
        );
        assert!(m.influenced);
        assert!(!m.vec_eligible);
    }

    #[test]
    fn network_aggregation_small() {
        let net = Network {
            name: "tiny",
            kind: crate::networks::NetKind::Cv,
            dataset: "none",
            ops: vec![
                OpClass::Transpose2D {
                    rows: 256,
                    cols: 256,
                    elem: ElemType::F32,
                },
                OpClass::Elementwise {
                    len: 98_301,
                    depth: 2,
                },
                OpClass::Transpose2D {
                    rows: 256,
                    cols: 256,
                    elem: ElemType::F32,
                },
            ],
        };
        let per_op = net.ops.iter().map(|op| measure_op(op, &model())).collect();
        let m = aggregate_network(&net, per_op);
        assert_eq!(m.total_ops, 3);
        assert_eq!(m.infl_ops, 2);
        assert!(m.speedup_all(Tool::Infl) > 1.0);
        assert!(m.speedup_infl(Tool::Infl) >= m.speedup_all(Tool::Infl));
        assert_eq!(m.per_op.len(), 3);
    }

    #[test]
    fn geomean_identity() {
        assert_eq!(geomean_speedup(&[], Tool::Infl), 1.0);
    }
}
