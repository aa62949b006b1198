//! # polyject-tune
//!
//! The autotuning subsystem: a deterministic beam search over the joint
//! space of influence-tree variants ([`polyject_core::InfluenceOptions`]
//! weights and scenario-subset toggles), tilings, and GPU mappings, with
//! the analytic simulator ([`polyject_gpusim::estimate`]) as the oracle.
//!
//! The paper fixes its cost weights (w₁=5, w₂=3, …) and defers tile-size
//! and mapping selection to "respective tool auto-tuners"; this crate is
//! that tuner. Two properties shape the design:
//!
//! * **Determinism** — candidate generation is SplitMix64-seeded, every
//!   tie is key-broken, and no wall-clock value enters the outcome: the
//!   same seed and kernel replay the identical candidate log, winner,
//!   and [`TunedConfig`], byte for byte.
//! * **Pluggable evaluation** — batches go through the [`JobRunner`]
//!   seam over a shared [`EvalCtx`]; every candidate of one search
//!   compiles through one [`polyject_codegen::CompileSession`], so
//!   dependence analysis, Farkas linearization and the base scheduling
//!   context are paid once per kernel, not once per candidate. The
//!   serving layer parallelizes across *kernels* (whole searches), not
//!   within one. [`SerialRunner`] is the in-process default.
//!
//! Neighbor rounds use no cost model: survivors are mutated in beam
//! order and the first [`TuneOptions::evals_per_round`] unseen mutations
//! reach the oracle.
//!
//! # Examples
//!
//! ```
//! use polyject_codegen::Config;
//! use polyject_core::Budget;
//! use polyject_gpusim::GpuModel;
//! use polyject_ir::ops;
//! use polyject_tune::{beam_search, SerialRunner, TuneOptions, TuneRequest};
//!
//! let req = TuneRequest {
//!     kernel: ops::transpose_2d(128, 128),
//!     config: Config::Influenced,
//!     gpu: GpuModel::v100(),
//!     budget: Budget::unlimited(),
//! };
//! let opts = TuneOptions { rounds: 1, initial_samples: 3, ..TuneOptions::default() };
//! let out = beam_search(&req, &opts, &SerialRunner).unwrap();
//! assert!(out.tuned.tuned_time <= out.tuned.default_time);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod search;
pub mod space;

pub use search::{
    beam_search, log_digest, EvalCtx, EvalRecord, Evaluated, JobRunner, SerialRunner, TuneOptions,
    TuneOutcome, TuneRequest, TunedConfig,
};
pub use space::KnobPoint;
