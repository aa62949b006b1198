//! A compile session plans Algorithm 2 against one shape analysis per
//! kernel and memoizes schedules by [`ScenarioPlan`]. Over every unique
//! Table II operator, under the default influence options and 16
//! sampled tuner points:
//!
//! * the tree the session builds from a plan equals the one-shot
//!   [`build_influence_tree`] of the same options, so the analysis it
//!   holds is the one a cold compile computes;
//! * an option set whose plan equals an earlier one's is answered from
//!   the memo with no solver work and the earlier schedule, so two
//!   option sets with one plan cost one solve.

use polyject::arith::SplitMix64;
use polyject::core::{
    build_influence_tree, Budget, InfluenceOptions, ScheduleSession, SchedulerOptions,
};
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
        let mut options = vec![InfluenceOptions::default()];
        options.extend((0..DRAWS).map(|_| sample(&mut rng).influence));
        let mut solved = Vec::new();
        for io in &options {
            let plan = session.plan(Some(io));
            let tree = session.influence_tree(&plan);
            assert_eq!(tree, build_influence_tree(&kernel, io), "{name} {io:?}");
            let before = counters::snapshot();
            let result = session.schedule_with(Some(io), &Budget::unlimited());
            let d = counters::snapshot().delta_since(&before);
            let schedule = result.expect("schedulable").schedule.render(&kernel);
            match solved.iter().find(|(p, _)| *p == plan) {
                Some((_, earlier)) => {
                    replays += 1;
                    let work = (d.ilp_solves, d.lp_solves, d.fm_eliminations);
                    assert_eq!(work, (0, 0, 0), "{name}: a known plan solves again");
                    assert_eq!(d.session_reuses, 1, "{name}");
                    assert_eq!(&schedule, earlier, "{name}");
                }
                None => solved.push((plan, schedule)),
            }
        }
    }
    assert!(replays > 0, "no two option sets shared a plan");
}
