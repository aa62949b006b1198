//! # polyject-codegen
//!
//! Code generation for scheduled kernels: polyhedral AST generation
//! ([`generate_ast`]), the GPU block/thread mapping pass and the backend
//! load/store vectorization pass ([`map_to_gpu`], [`vectorize`] — the two
//! AKG modifications of paper Section V), a CUDA-like pretty printer
//! ([`render`]), and the end-to-end [`compile`] pipeline covering the
//! paper's `isl` / `novec` / `infl` configurations. The pipeline has one
//! body, [`CompileSession::compile_with`]: a per-kernel session that
//! serves every configuration and option set of its kernel, of which
//! [`compile`] is the one-call use.
//!
//! # Examples
//!
//! ```
//! use polyject_codegen::{compile, render, Config};
//! use polyject_ir::ops;
//!
//! let kernel = ops::running_example(64);
//! let compiled = compile(&kernel, Config::Influenced).unwrap();
//! println!("{}", render(&compiled.ast, &kernel));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod cuda;
mod gen;
mod passes;
mod pipeline;
mod printer;
mod tiling;

pub use ast::{Ast, AstNode, Bound, Lanes, LoopKind, LoopNode, StmtNode};
pub use cuda::render_cuda;
pub use gen::generate_ast;
pub use passes::{
    access_offset_expr, access_stride_along, loop_extent, map_to_gpu, refine_parallel_loops,
    vectorize, MappingOptions,
};
pub use pipeline::{
    compile, compile_with_options, render_artifacts, Artifacts, CompileOptions, CompileSession,
    Compiled, Config,
};
pub use printer::render;
pub use tiling::{tile_ast, TilingOptions};
