//! # polyject-gpusim
//!
//! The GPU substrate standing in for the paper's Tesla V100 testbed:
//!
//! * [`execute_ast`] — functional interpretation of mapped ASTs on real
//!   `f32` buffers (the correctness oracle for every schedule);
//! * [`estimate`] — an analytic V100-class timing model capturing memory
//!   coalescing (32-byte sectors per warp), explicit vector types,
//!   fused-intermediate L2 reuse, occupancy and launch overhead — the
//!   mechanisms the paper's optimization acts through.
//!
//! # Examples
//!
//! ```
//! use polyject_codegen::{compile, Config};
//! use polyject_gpusim::{estimate, GpuModel};
//! use polyject_ir::ops;
//!
//! let kernel = ops::running_example(256);
//! let compiled = compile(&kernel, Config::Influenced).unwrap();
//! let t = estimate(&compiled.ast, &kernel, &GpuModel::v100());
//! println!("{:.3} ms, bound by {}", t.ms(), t.bottleneck());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod exec;
mod model;

pub use analyze::{estimate, profile, AccessMetric, AccessPattern, ProfileReport};
pub use exec::{check_equivalence, execute_ast, seeded_buffers, ExecError};
pub use model::{GpuModel, KernelTiming};
