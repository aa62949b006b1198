//! A compile abandoned through its cancel flag is counted once in
//! `SolverCounters::cancelled_solves`, whichever route reached the
//! scheduler: a metered session call (which schedules cold, through the
//! one-shot budgeted entry), and an unmetered session call on a fresh
//! session (whose first solve builds the scheduling prefix) and on a
//! warm one.

use polyject::core::{
    Budget, InfluenceOptions, ScheduleError, ScheduleResult, ScheduleSession, SchedulerOptions,
};
use polyject::ir::ops;
use polyject::sets::counters;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Runs `call` and returns how far it moved `cancelled_solves`, after
/// checking that it failed as a cancellation.
fn cancels_counted(
    route: &str,
    call: impl FnOnce() -> Result<ScheduleResult, ScheduleError>,
) -> u64 {
    let before = counters::snapshot();
    let err = call().expect_err(route);
    assert!(err.is_cancelled(), "{route}: {err}");
    counters::snapshot().delta_since(&before).cancelled_solves
}

#[test]
fn a_cancelled_compile_is_counted_once_on_every_route() {
    let kernel = ops::transpose_2d(64, 64);
    let io = InfluenceOptions::default();
    let cancelled = Budget::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
    let metered = cancelled.clone().with_max_pivots(u64::MAX);

    let warm = ScheduleSession::new(&kernel, SchedulerOptions::default());
    warm.schedule_with(None, &Budget::unlimited()).unwrap();
    let routes: [(&str, &ScheduleSession, &Budget); 3] = [
        ("metered session call", &warm, &metered),
        (
            "fresh session",
            &ScheduleSession::new(&kernel, SchedulerOptions::default()),
            &cancelled,
        ),
        ("warm session", &warm, &cancelled),
    ];
    for (route, session, budget) in routes {
        let n = cancels_counted(route, || session.schedule_with(Some(&io), budget));
        assert_eq!(n, 1, "{route}");
    }
}
