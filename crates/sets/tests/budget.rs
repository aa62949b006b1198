//! Budget-governance tests for the three metered doors —
//! `SchedCtx::build`, `SchedCtx::try_lexmin` and `try_remove_redundant`.
//! A solve aborted by a budget (cancellation, deadline, node or pivot
//! cap) returns a structured error and leaves no partial state behind, so
//! a later unbudgeted solve on the same inputs matches the reference
//! solver exactly.
//!
//! Every `try_lexmin` check runs on two contexts over the same system:
//! one built warm, and one built under `with_max_pivots(0)`, whose base
//! build exhausts, so every solve on it takes the cold path and its
//! branch-and-bound root solves cold.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use polyject_sets::{
    counters, lexmin_integer, minimize_integer_reference, set_force_wide_tableau,
    try_remove_redundant, Budget, BudgetError, BudgetResource, Constraint, ConstraintSet,
    IlpOutcome, LinExpr, SchedCtx,
};

fn ge(coeffs: &[i128], k: i128) -> Constraint {
    Constraint::ge0(LinExpr::from_coeffs(coeffs, k))
}

/// A small ILP whose relaxation is fractional, forcing real branching.
fn branching_problem() -> (LinExpr, ConstraintSet) {
    let set = ConstraintSet::from_constraints(
        3,
        vec![
            ge(&[2, 3, 5], -11),
            ge(&[1, 0, 0], 0),
            ge(&[0, 1, 0], 0),
            ge(&[0, 0, 1], 0),
            ge(&[-1, -1, -1], 7),
        ],
    );
    (LinExpr::from_coeffs(&[1, 1, 1], 0), set)
}

/// The warm and the cold context over `set`.
fn contexts(set: &ConstraintSet) -> [(&'static str, SchedCtx); 2] {
    let build = |budget: Budget| SchedCtx::build(set.clone(), &budget).expect("not cancelled");
    [
        ("warm", build(Budget::unlimited())),
        ("cold", build(Budget::unlimited().with_max_pivots(0))),
    ]
}

/// Solves `objs` on `ctx` under `budget`, checking that the call left the
/// context's rows exactly as they were, aborted or not.
fn lexmin_keeping_rows(
    ctx: &mut SchedCtx,
    objs: &[LinExpr],
    budget: &Budget,
) -> Result<IlpOutcome, BudgetError> {
    let rows = ctx.rows().clone();
    let out = ctx.try_lexmin(objs, budget);
    assert_eq!(ctx.rows(), &rows, "try_lexmin left rows behind");
    out
}

#[test]
fn the_cold_context_solves_its_root_cold() {
    let (obj, set) = branching_problem();
    let [(_, mut warm), (_, mut cold)] = contexts(&set);
    let lp_solves = |ctx: &mut SchedCtx| {
        let before = counters::snapshot();
        ctx.try_lexmin(std::slice::from_ref(&obj), &Budget::unlimited())
            .expect("unlimited");
        counters::snapshot().delta_since(&before).lp_solves
    };
    // The warm context serves the (unique) root vertex from its solved
    // base; the cold one pays a cold LP for it.
    assert_eq!(lp_solves(&mut cold), lp_solves(&mut warm) + 1);
}

#[test]
fn node_cap_aborts_with_structured_error() {
    let (obj, set) = branching_problem();
    let budget = Budget::unlimited().with_max_ilp_nodes(1);
    for (name, mut ctx) in contexts(&set) {
        assert_eq!(
            lexmin_keeping_rows(&mut ctx, std::slice::from_ref(&obj), &budget),
            Err(BudgetError::Exhausted(BudgetResource::IlpNodes)),
            "{name}"
        );
    }
}

#[test]
fn aborted_solve_leaves_no_partial_state() {
    let (obj, set) = branching_problem();
    let objs = [obj];
    let reference = minimize_integer_reference(&objs[0], &set);
    for (name, mut ctx) in contexts(&set) {
        // Trip the solve at every possible depth: whatever node the abort
        // lands on, the push/pop discipline must restore the rows, so the
        // follow-up unbudgeted solve on the *same* context matches the
        // reference solver exactly.
        for cap in 1..12 {
            let budget = Budget::unlimited().with_max_ilp_nodes(cap);
            let _ = lexmin_keeping_rows(&mut ctx, &objs, &budget);
            assert_eq!(
                ctx.try_lexmin(&objs, &Budget::unlimited()),
                Ok(reference.clone()),
                "{name}: partial state leaked after aborting at node cap {cap}"
            );
        }
    }
}

#[test]
fn cancelled_solve_leaves_no_partial_state() {
    let (obj, set) = branching_problem();
    let objs = [obj];
    let reference = minimize_integer_reference(&objs[0], &set);
    for (name, mut ctx) in contexts(&set) {
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel(Arc::clone(&flag));
        let before = counters::snapshot();
        assert_eq!(
            lexmin_keeping_rows(&mut ctx, &objs, &budget),
            Err(BudgetError::Cancelled),
            "{name}"
        );
        // Cooperative cancellation, like any budget abort, must not
        // register as an overflow escalation.
        let delta = counters::snapshot().delta_since(&before);
        assert_eq!(delta.tab_overflow_escalations, 0, "{name}");
        assert_eq!(
            ctx.try_lexmin(&objs, &Budget::unlimited()),
            Ok(reference.clone()),
            "{name}"
        );

        // Un-trip the flag: the same budget now completes on the fast
        // path to the exact reference answer.
        flag.store(false, Ordering::Relaxed);
        let before = counters::snapshot();
        assert_eq!(
            ctx.try_lexmin(&objs, &budget),
            Ok(reference.clone()),
            "{name}"
        );
        let delta = counters::snapshot().delta_since(&before);
        assert!(delta.tab_i64_solves > 0, "{name}: {delta:?}");
    }
}

#[test]
fn expired_deadline_aborts_lexmin() {
    let (_, set) = branching_problem();
    let objs = vec![
        LinExpr::from_coeffs(&[1, 1, 1], 0),
        LinExpr::from_coeffs(&[0, 0, -1], 0),
    ];
    let reference = lexmin_integer(&objs, &set);
    assert!(matches!(reference, IlpOutcome::Optimal { .. }));
    for (name, mut ctx) in contexts(&set) {
        let budget = Budget::unlimited().with_deadline(Instant::now());
        assert_eq!(
            lexmin_keeping_rows(&mut ctx, &objs, &budget),
            Err(BudgetError::Exhausted(BudgetResource::Deadline)),
            "{name}"
        );
        // And the unbudgeted lexmin still works on the same context.
        assert_eq!(
            ctx.try_lexmin(&objs, &Budget::unlimited()),
            Ok(reference.clone()),
            "{name}"
        );
    }
}

#[test]
fn budgeted_solve_matches_unbudgeted_when_it_completes() {
    let (obj, set) = branching_problem();
    let objs = [obj];
    let generous = Budget::unlimited()
        .with_max_ilp_nodes(1_000_000)
        .with_max_pivots(10_000_000);
    for (name, mut ctx) in contexts(&set) {
        assert_eq!(
            ctx.try_lexmin(&objs, &generous),
            Ok(minimize_integer_reference(&objs[0], &set)),
            "{name}"
        );
    }
}

#[test]
fn pivot_cap_trips_on_either_cell_width_without_escalating() {
    let (obj, set) = branching_problem();
    let objs = [obj];
    let reference = minimize_integer_reference(&objs[0], &set);
    let budget = Budget::unlimited().with_max_pivots(1);
    // Small coefficients: on the default path every tableau runs on
    // machine-int cells, so the cap is probed *inside* the i64 fast path;
    // forced wide, the same cap trips the identical structured error, so
    // a caller cannot observe which width hit it.
    for wide in [false, true] {
        let prev = set_force_wide_tableau(wide);
        for (name, mut ctx) in contexts(&set) {
            let before = counters::snapshot();
            assert_eq!(
                lexmin_keeping_rows(&mut ctx, &objs, &budget),
                Err(BudgetError::Exhausted(BudgetResource::Pivots)),
                "{name}, wide {wide}"
            );
            // A budget abort propagates as-is; it must never be misread
            // as an arithmetic overflow and escalated to i128.
            let delta = counters::snapshot().delta_since(&before);
            assert_eq!(delta.tab_overflow_escalations, 0, "{name}, wide {wide}");

            // No partial state: the unbudgeted follow-up matches the
            // reference, on the fast path unless forced wide.
            let before = counters::snapshot();
            assert_eq!(
                ctx.try_lexmin(&objs, &Budget::unlimited()),
                Ok(reference.clone()),
                "{name}, wide {wide}"
            );
            let delta = counters::snapshot().delta_since(&before);
            assert_eq!(delta.tab_i64_solves > 0, !wide, "{name}, wide {wide}");
            assert_eq!(delta.tab_overflow_escalations, 0, "{name}, wide {wide}");
        }
        set_force_wide_tableau(prev);
    }
}

/// The three metered doors in one table. Under a tripped cancel flag each
/// returns `Cancelled`. Under `with_max_pivots(0)`, on a system that needs
/// a pivot, `try_lexmin` and `try_remove_redundant` exhaust their pivots,
/// while `build` falls back to cold solving and a later unlimited
/// `try_lexmin` still answers like `lexmin_integer`. No door changes its
/// input.
#[test]
fn every_metered_door_under_cancel_and_a_zero_pivot_cap() {
    type Door = fn(&ConstraintSet, &[LinExpr], &Budget) -> Result<(), BudgetError>;
    let doors: [(&str, Door, Result<(), BudgetError>); 3] = [
        (
            "build",
            |set, objs, budget| {
                let mut ctx = SchedCtx::build(set.clone(), budget)?;
                assert_eq!(ctx.rows(), set);
                let out = lexmin_keeping_rows(&mut ctx, objs, &Budget::unlimited());
                assert_eq!(out, Ok(lexmin_integer(objs, set)));
                Ok(())
            },
            Ok(()),
        ),
        (
            "try_lexmin",
            |set, objs, budget| {
                let mut ctx = SchedCtx::build(set.clone(), &Budget::unlimited())?;
                lexmin_keeping_rows(&mut ctx, objs, budget).map(drop)
            },
            Err(BudgetError::Exhausted(BudgetResource::Pivots)),
        ),
        (
            "try_remove_redundant",
            |set, _, budget| {
                let before = set.clone();
                let out = try_remove_redundant(set, budget).map(drop);
                assert_eq!(set, &before);
                out
            },
            Err(BudgetError::Exhausted(BudgetResource::Pivots)),
        ),
    ];
    let (obj, set) = branching_problem();
    let objs = [obj];
    let cancelled = Budget::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
    let no_pivots = Budget::unlimited().with_max_pivots(0);
    for (name, door, under_no_pivots) in doors {
        assert_eq!(
            door(&set, &objs, &cancelled),
            Err(BudgetError::Cancelled),
            "{name}"
        );
        assert_eq!(door(&set, &objs, &no_pivots), under_no_pivots, "{name}");
    }
}
