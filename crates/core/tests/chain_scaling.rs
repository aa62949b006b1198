//! The 13-statement elementwise fusion of Table II, the shape on which a
//! cold compile used to grow with the square of the statement count: the
//! lexmin chain must stay warm through every dense pin row, under the
//! empty tree and under the default influence tree alike.

use polyject_core::{
    build_influence_tree, schedule_kernel, InfluenceOptions, InfluenceTree, SchedulerOptions,
};
use polyject_deps::{compute_dependences, DepOptions};
use polyject_ir::ops;
use polyject_sets::counters;

#[test]
fn thirteen_statement_chain_keeps_the_lexmin_chain_warm() {
    let kernel = ops::elementwise_chain(393_216, 13);
    let deps = compute_dependences(&kernel, DepOptions::default());
    // One fused loop, statements in program order inside it.
    let golden: Vec<String> = (0..13).map(|k| format!("S{k}[i] -> (i, {k})")).collect();
    let default_tree = build_influence_tree(&kernel, &InfluenceOptions::default());
    for (name, tree) in [("empty", InfluenceTree::new()), ("default", default_tree)] {
        let before = counters::snapshot();
        let res = schedule_kernel(&kernel, &deps, &tree, SchedulerOptions::default())
            .expect("schedulable");
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.lexmin_cold_roots, 0, "{name} tree: {d:?}");
        assert!(d.tab_overflow_escalations <= 1, "{name} tree: {d:?}");
        let rendered = res.schedule.render(&kernel);
        assert_eq!(
            rendered.lines().collect::<Vec<_>>(),
            golden,
            "{name} tree moved the schedule"
        );
    }
}
