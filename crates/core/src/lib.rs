//! # polyject-core
//!
//! The paper's contribution: a polyhedral scheduler supporting **influence
//! constraint injection** ([`schedule_kernel`], paper Algorithm 1), the
//! [`InfluenceTree`] abstraction (Section IV-A.4), and the non-linear
//! optimizer that builds trees steering GPU fused operators towards
//! load/store vectorization ([`build_influence_tree`], Algorithm 2 and the
//! Section V cost model).
//!
//! Running the scheduler with an *empty* tree gives the paper's `isl`
//! baseline configuration; running with the optimizer-built tree gives the
//! `infl` configuration.
//!
//! # Examples
//!
//! ```
//! use polyject_core::{schedule_kernel, InfluenceTree, SchedulerOptions};
//! use polyject_deps::{compute_dependences, DepOptions};
//! use polyject_ir::ops;
//!
//! let kernel = ops::running_example(64);
//! let deps = compute_dependences(&kernel, DepOptions::default());
//! let result = schedule_kernel(&kernel, &deps, &InfluenceTree::new(),
//!                              SchedulerOptions::default()).unwrap();
//! println!("{}", result.schedule.render(&kernel));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod assembly;
mod builders;
mod checks;
mod farkas;
mod layout;
mod optimizer;
mod schedtree;
mod schedule;
mod session;
mod tree;
mod verify;

pub use algorithm::{
    schedule_kernel, ScheduleError, ScheduleErrorKind, ScheduleResult, ScheduleStats,
    SchedulerOptions, MAX_ATTEMPTS, MAX_DIMS,
};
pub use assembly::clear_caches as clear_assembly_caches;
pub use builders::{MAX_BOUND, MAX_COEFF, MAX_CONST};
pub use checks::{dim_is_coincident, schedule_respects};
pub use optimizer::{build_influence_tree, build_scenarios, InfluenceOptions, Scenario};
pub use polyject_sets::Budget;
pub use schedtree::{render_schedule_tree, schedule_tree, TreeNode};
pub use schedule::{DimFlags, Schedule, ScheduleRow, StatementSchedule};
pub use session::ScheduleSession;
pub use tree::InfluenceTree;
pub use verify::{verify_schedule, ScheduleReport};
