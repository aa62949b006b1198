//! # polyject
//!
//! A from-scratch Rust reproduction of **"Optimizing GPU Deep Learning
//! Operators with Polyhedral Scheduling Constraint Injection"** (Bastoul
//! et al., CGO 2022): a polyhedral scheduler that accepts *influence
//! constraint trees* built by a non-linear optimizer, steering fused AI/DL
//! operators towards GPU load/store vectorization, plus every substrate
//! the paper's system depends on — an exact integer-set library, a kernel
//! IR, dependence analysis, code generation with GPU mapping and a backend
//! vectorization pass, and a V100-class performance model standing in for
//! the paper's testbed.
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`arith`] | `polyject-arith` | exact rationals, matrices, integer kernels |
//! | [`sets`] | `polyject-sets` | constraint sets, simplex, ILP, Fourier–Motzkin |
//! | [`ir`] | `polyject-ir` | kernels, statements, accesses, executable expressions |
//! | [`deps`] | `polyject-deps` | dependence relations, dependence graph, SCCs |
//! | [`core`] | `polyject-core` | the influenced scheduler + influence trees (the paper's contribution) |
//! | [`codegen`] | `polyject-codegen` | AST generation, GPU mapping, vectorization, printing |
//! | [`gpusim`] | `polyject-gpusim` | functional interpreter + analytic V100 model |
//! | [`tune`] | `polyject-tune` | deterministic beam-search autotuner over influence, tiling and mapping knobs |
//! | [`workloads`] | `polyject-workloads` | Table I networks, TVM baseline, Table II harness |
//! | [`serve`] | `polyject-serve` | compilation daemon + persistent content-addressed cache |
//!
//! ## Quickstart
//!
//! ```
//! use polyject::prelude::*;
//!
//! // The paper's running example (Fig. 2), at N = 256.
//! let kernel = polyject::ir::ops::running_example(256);
//!
//! // Compile under the influenced configuration and simulate it.
//! let compiled = compile(&kernel, Config::Influenced).unwrap();
//! assert!(compiled.influenced);
//! assert_eq!(compiled.vector_loops, 1); // the forvec j loop of Fig. 2(c)
//!
//! let t = estimate(&compiled.ast, &kernel, &GpuModel::v100());
//! println!("{}", render(&compiled.ast, &kernel));
//! println!("simulated: {:.3} ms ({})", t.ms(), t.bottleneck());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use polyject_arith as arith;
pub use polyject_codegen as codegen;
pub use polyject_core as core;
pub use polyject_deps as deps;
pub use polyject_gpusim as gpusim;
pub use polyject_ir as ir;
pub use polyject_serve as serve;
pub use polyject_sets as sets;
pub use polyject_tune as tune;
pub use polyject_workloads as workloads;

/// The most common imports for working with the pipeline end to end.
pub mod prelude {
    pub use polyject_codegen::{
        compile, render, render_cuda, tile_ast, Compiled, Config, TilingOptions,
    };
    pub use polyject_core::{
        build_influence_tree, schedule_kernel, InfluenceOptions, InfluenceTree, Schedule,
        SchedulerOptions,
    };
    pub use polyject_deps::{compute_dependences, DepOptions};
    pub use polyject_gpusim::{
        check_equivalence, estimate, execute_ast, profile, ExecError, GpuModel,
    };
    pub use polyject_ir::{
        BinOp, ElemType, Expr, Extent, Idx, Kernel, KernelBuilder, StatementBuilder, StmtId, UnOp,
    };
    pub use polyject_workloads::{measure_network, measure_op, OpClass, Tool};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let kernel = crate::ir::ops::transpose_2d(16, 16);
        let c = compile(&kernel, Config::Isl).unwrap();
        assert!(!c.influenced);
    }
}
