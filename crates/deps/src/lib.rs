//! # polyject-deps
//!
//! Polyhedral dependence analysis for `polyject` kernels: exact
//! instance-wise [`DepRelation`]s (flow/anti/output/input), the
//! statement-level [`DepGraph`], and its strongly connected components —
//! everything the influenced scheduler consumes.
//!
//! # Examples
//!
//! ```
//! use polyject_deps::{compute_dependences, DepGraph, DepOptions};
//! use polyject_ir::ops;
//!
//! let kernel = ops::running_example(32);
//! let deps = compute_dependences(&kernel, DepOptions::default());
//! let graph = DepGraph::from_relations(kernel.statements().len(), deps.validity());
//! // X feeds Y through tensor B: two components, X's first.
//! let (x, y) = (polyject_ir::StmtId(0), polyject_ir::StmtId(1));
//! assert_eq!(graph.sccs(), vec![vec![x], vec![y]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod graph;
mod relation;

pub use analysis::{compute_dependences, DepOptions, Dependences};
pub use graph::DepGraph;
pub use relation::{DepKind, DepRelation};
