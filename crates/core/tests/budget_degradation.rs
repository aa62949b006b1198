//! Graceful-degradation tests: budget exhaustion at an injection level
//! takes the same backtracking ladder as infeasibility, so a kernel
//! compiled under a hopeless deadline still returns a valid (if
//! uninfluenced) schedule; cancellation aborts with a structured error
//! and no fallback.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polyject_core::{
    schedule_kernel, schedule_kernel_budgeted, schedule_respects, Budget, CoeffLayout,
    InfluenceTree, ScheduleErrorKind, SchedulerOptions,
};
use polyject_deps::{compute_dependences, DepOptions};
use polyject_ir::{ops, StmtId};

/// An influence tree whose root injects a feasible but real constraint,
/// so the influenced path performs genuine solver work.
fn pinning_tree(kernel: &polyject_ir::Kernel) -> InfluenceTree {
    let layout = CoeffLayout::new(kernel);
    let n = layout.n_vars();
    let mut pin = polyject_sets::ConstraintSet::universe(n);
    let mut e = polyject_sets::LinExpr::var(n, layout.iter_coeff(StmtId(0), 0));
    e.set_constant(-1i128);
    pin.add(polyject_sets::Constraint::eq0(e));
    let mut tree = InfluenceTree::new();
    tree.add_root(pin, "pin");
    tree
}

#[test]
fn expired_deadline_degrades_to_valid_schedule() {
    let kernel = ops::running_example(16);
    let deps = compute_dependences(&kernel, DepOptions::default());
    let tree = pinning_tree(&kernel);

    // A deadline that is already over: every budgeted solve exhausts
    // immediately, the ladder runs dry, and the uninfluenced fallback
    // (cancel-only budget) must still deliver a valid schedule.
    let budget = Budget::unlimited().with_deadline(Instant::now());
    let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
        .expect("degraded-but-valid schedule");
    assert!(!res.influenced, "influence must have been dropped");
    assert!(res.stats.degraded_solves >= 1, "degradation was counted");
    let v: Vec<_> = deps.validity().collect();
    assert!(schedule_respects(v.iter().copied(), &res.schedule));
}

#[test]
fn tiny_node_budget_degrades_to_valid_schedule() {
    let kernel = ops::reduce_rows(8, 8);
    let deps = compute_dependences(&kernel, DepOptions::default());
    let tree = pinning_tree(&kernel);

    let budget = Budget::unlimited().with_max_ilp_nodes(0);
    let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
        .expect("degraded-but-valid schedule");
    assert!(res.stats.degraded_solves >= 1);
    let v: Vec<_> = deps.validity().collect();
    assert!(schedule_respects(v.iter().copied(), &res.schedule));
}

#[test]
fn pathological_kernel_under_100ms_deadline_degrades() {
    // The acceptance bar from the issue, literally: a kernel whose full
    // influenced solve takes several times a 100 ms deadline, given that
    // deadline, must come back degraded-but-valid instead of hanging or
    // erroring out. A deep elementwise chain blows up the ILP size: at
    // depth 72 the un-budgeted solve takes 0.27 s (release, 2-core box;
    // 0.32 s in the dev profile), about 3x the deadline, and the budgeted
    // run answers in 0.33 s (0.36 s dev). Depth 64 now solves in 0.17 s
    // (0.22 s dev), too close to the deadline on a faster box. Deeper
    // chains once hit a cliff (a base context that spent the deadline on
    // its own phase 1 left the fallback a cold-delegating prefix: 15 s at
    // depth 64 in a debug build, 25 s at depth 72 in release); re-time
    // both sides before moving the depth.
    let kernel = ops::elementwise_chain(48, 72);
    let deps = compute_dependences(&kernel, DepOptions::default());
    let tree = pinning_tree(&kernel);

    let budget = Budget::unlimited().with_deadline_in(Duration::from_millis(100));
    let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
        .expect("degraded-but-valid schedule");
    assert!(res.stats.degraded_solves >= 1, "deadline never tripped");
    let v: Vec<_> = deps.validity().collect();
    assert!(schedule_respects(v.iter().copied(), &res.schedule));
}

#[test]
fn pre_tripped_cancel_aborts_without_fallback() {
    let kernel = ops::running_example(16);
    let deps = compute_dependences(&kernel, DepOptions::default());
    let tree = pinning_tree(&kernel);

    let flag = Arc::new(AtomicBool::new(true));
    let budget = Budget::unlimited().with_cancel(Arc::clone(&flag));
    let before = polyject_sets::counters::snapshot();
    let err = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
        .expect_err("cancelled compile must not fall back");
    assert!(err.is_cancelled());
    assert_eq!(err.kind(), ScheduleErrorKind::Cancelled);
    let d = polyject_sets::counters::snapshot().delta_since(&before);
    assert_eq!(d.cancelled_solves, 1, "cancellation counted exactly once");

    // Untripping the flag restores normal scheduling with the same budget.
    flag.store(false, Ordering::Relaxed);
    let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
        .expect("schedulable once uncancelled");
    let v: Vec<_> = deps.validity().collect();
    assert!(schedule_respects(v.iter().copied(), &res.schedule));
}

#[test]
fn generous_budget_matches_unbudgeted_run() {
    let kernel = ops::running_example(16);
    let deps = compute_dependences(&kernel, DepOptions::default());
    let tree = pinning_tree(&kernel);

    let plain = schedule_kernel(&kernel, &deps, &tree, SchedulerOptions::default()).unwrap();
    let budget = Budget::unlimited().with_deadline_in(Duration::from_secs(3600));
    let budgeted = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget).unwrap();
    assert_eq!(
        plain.schedule.render(&kernel),
        budgeted.schedule.render(&kernel),
        "a budget that never trips must not change the schedule"
    );
    assert_eq!(budgeted.stats.degraded_solves, 0);
}
