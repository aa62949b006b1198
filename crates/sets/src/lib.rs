//! # polyject-sets
//!
//! A small exact integer-set library — the subset of isl functionality the
//! `polyject` polyhedral compiler needs:
//!
//! * [`LinExpr`] — affine expressions with rational coefficients over a
//!   positional variable space (objectives, points, bounds);
//! * [`Constraint`] / [`ConstraintSet`] — polyhedra, each constraint one
//!   row of coprime integers;
//! * [`minimize`] / [`maximize`] — exact two-phase simplex;
//! * [`minimize_integer`] / [`lexmin_integer`] — branch-and-bound ILP with
//!   lexicographic objectives (the scheduler's per-dimension solver);
//! * [`SchedCtx`] — the same lexmin over a constraint prefix held in
//!   solved form and re-solved under small row deltas;
//! * [`eliminate_var`] / [`project_onto_prefix`] — Fourier–Motzkin
//!   projection (Farkas-multiplier elimination, loop-bound derivation);
//! * [`integer_points`] — enumeration for reference execution and tests.
//!
//! All arithmetic is exact and checked — integer rows, and
//! [`polyject_arith::Rat`] where a value can be fractional (LP points and
//! values, the reference solvers); there is no floating point anywhere in
//! a decision path. Constraint rows are normalized once, at construction,
//! and Fourier–Motzkin, the integer preprocessing and the tableau read
//! them as stored. Underneath, every LP is one
//! solved-tableau type with two verbs — *extend* by rows, *optimize* an
//! objective — on a fraction-free integer tableau (the private `tableau`
//! module documents it); the rational `*_reference` solvers are what the
//! differential tests hold it to.
//!
//! One door per question: every solver question has one public function.
//! Only the three calls the scheduler meters — [`SchedCtx::build`],
//! [`SchedCtx::try_lexmin`] and [`try_remove_redundant`] — take a
//! [`Budget`] (wall-clock deadline, node/pivot caps and a shared cancel
//! flag) that their simplex and branch-and-bound loops check
//! cooperatively, returning a structured [`BudgetError`] instead of
//! running away (see [`budget`]). The rest run unmetered.
//!
//! # Examples
//!
//! ```
//! use polyject_sets::{lexmin_integer, Constraint, ConstraintSet, IlpOutcome, LinExpr};
//!
//! // The scheduler's pattern: lexicographically minimize objectives over a
//! // bounded coefficient polytope.
//! let set = ConstraintSet::from_constraints(2, vec![
//!     Constraint::ge0(LinExpr::from_coeffs(&[1, 0], 0)),   // c0 >= 0
//!     Constraint::ge0(LinExpr::from_coeffs(&[0, 1], 0)),   // c1 >= 0
//!     Constraint::ge0(LinExpr::from_coeffs(&[1, 1], -1)),  // c0 + c1 >= 1
//! ]);
//! let objectives = [LinExpr::from_coeffs(&[1, 1], 0), LinExpr::from_coeffs(&[0, 1], 0)];
//! match lexmin_integer(&objectives, &set) {
//!     IlpOutcome::Optimal { point, .. } => assert_eq!(point, vec![1, 0]),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod constraint;
pub mod context;
pub mod counters;
mod fm;
mod ilp;
mod linexpr;
mod points;
mod preprocess;
mod simplex;
mod tableau;

pub use budget::{Budget, BudgetError, BudgetResource};
pub use constraint::{Constraint, ConstraintKind, ConstraintSet};
pub use context::{CtxMark, SchedCtx};
pub use counters::SolverCounters;
pub use fm::{
    bounds_for_var, eliminate_var, eliminate_var_reference, eliminate_vars, project_onto_prefix,
    try_remove_redundant, VarBounds,
};
pub use ilp::{
    is_integer_feasible, is_integer_feasible_reference, lexmin_integer, minimize_integer,
    minimize_integer_reference, IlpOutcome,
};
pub use linexpr::LinExpr;
pub use points::integer_points;
#[doc(hidden)]
pub use preprocess::integer_feasibility_route;
pub use simplex::{maximize, minimize, minimize_reference, LpOutcome};
#[doc(hidden)]
pub use tableau::set_force_wide_tableau;
