//! A compile session plans Algorithm 2 against one shape analysis per
//! kernel and memoizes schedules by scenario plan. Over every unique
//! Table II operator, under the default influence options and 16
//! sampled tuner points:
//!
//! * every schedule the session answers equals the one-shot
//!   [`schedule_kernel`] under [`build_influence_tree`] of the same
//!   options, so the tree it plans is the one a cold compile builds;
//! * an option set whose one-shot tree equals an earlier one's (its plan
//!   does too) is answered from the memo with no solver work and the
//!   earlier schedule, so two option sets with one plan cost one solve.
//!
//! The plan itself is private to the session; this test reaches it
//! through `ScheduleSession::schedule_with` only.

use polyject::arith::SplitMix64;
use polyject::core::{
    build_influence_tree, schedule_kernel, Budget, InfluenceOptions, ScheduleSession,
    SchedulerOptions,
};
use polyject::deps::{compute_dependences, DepOptions};
use polyject::sets::counters;
use polyject::tune::space::sample;
use polyject::workloads::{all_networks, op_key, unique_ops};

/// Sampled tuner points per operator, besides the default options.
const DRAWS: usize = 16;

#[test]
fn session_plans_build_the_one_shot_tree_and_equal_plans_solve_once() {
    let nets = all_networks();
    let (ops, _) = unique_ops(&nets);
    let mut rng = SplitMix64::new(7);
    let mut replays = 0;
    for op in ops {
        let name = op_key(op);
        let kernel = op.build();
        let session = ScheduleSession::new(&kernel, SchedulerOptions::default());
        let deps = compute_dependences(&kernel, DepOptions::default());
        let mut options = vec![InfluenceOptions::default()];
        options.extend((0..DRAWS).map(|_| sample(&mut rng).influence));
        let mut solved = Vec::new();
        for io in &options {
            let before = counters::snapshot();
            let result = session.schedule_with(Some(io), &Budget::unlimited());
            let d = counters::snapshot().delta_since(&before);
            let schedule = result.expect("schedulable").schedule.render(&kernel);
            let tree = build_influence_tree(&kernel, io);
            let one_shot = schedule_kernel(&kernel, &deps, &tree, SchedulerOptions::default());
            let one_shot = one_shot.expect("schedulable").schedule.render(&kernel);
            assert_eq!(schedule, one_shot, "{name} {io:?}");
            match solved.iter().find(|(t, _)| *t == tree) {
                Some((_, earlier)) => {
                    replays += 1;
                    let work = (d.ilp_solves, d.lp_solves, d.fm_eliminations);
                    assert_eq!(work, (0, 0, 0), "{name}: a known plan solves again");
                    assert_eq!(d.session_reuses, 1, "{name}");
                    assert_eq!(&schedule, earlier, "{name}");
                }
                None => solved.push((tree, schedule)),
            }
        }
    }
    assert!(replays > 0, "no two option sets shared a plan");
}
