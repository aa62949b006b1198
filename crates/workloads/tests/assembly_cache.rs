//! Incremental-assembly regression test: recompiling the same fused
//! operator on the same thread must be served from the thread-local
//! Farkas-linearization and redundancy caches — the second compile
//! performs no fresh linearization or redundancy work — while producing
//! bitwise-identical measurements.

use polyject_gpusim::GpuModel;
use polyject_workloads::{all_networks, measure_op_with_perf, OpMeasurement};

fn identical(a: &OpMeasurement, b: &OpMeasurement) -> bool {
    a.name == b.name
        && a.class == b.class
        && a.vec_eligible == b.vec_eligible
        && a.influenced == b.influenced
        && a.time_ms
            .iter()
            .zip(b.time_ms.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn recompiling_an_op_hits_the_assembly_caches() {
    let model = GpuModel::v100();
    // A reduction-crossing BERT fusion: the most assembly-heavy class.
    let bert = all_networks().swap_remove(0);
    assert_eq!(bert.name, "BERT");
    let op = bert.ops[0].clone();

    let (first, cold) = measure_op_with_perf(&op, &model);
    assert!(
        cold.counters.farkas_linearizations > 0,
        "cold compile was expected to linearize dependences"
    );
    assert!(cold.counters.redundancy_checks > 0);

    let (second, warm) = measure_op_with_perf(&op, &model);
    assert!(
        identical(&first, &second),
        "recompilation changed the measurement: {first:?} vs {second:?}"
    );
    // Same kernel, same thread: every linearization and every redundancy
    // verdict is a cache hit.
    assert_eq!(
        warm.counters.farkas_linearizations, 0,
        "second compile re-linearized {} dependence(s)",
        warm.counters.farkas_linearizations
    );
    assert_eq!(
        warm.counters.redundancy_checks, 0,
        "second compile re-ran {} redundancy check(s)",
        warm.counters.redundancy_checks
    );
    // Redundancy elimination is itself LP work, so the warm compile does
    // strictly fewer LP solves — while the *scheduling* solves (the ILP
    // ladder) are untouched and repeat exactly.
    assert!(
        warm.counters.lp_solves < cold.counters.lp_solves,
        "warm compile did not save LP work: {} vs {}",
        warm.counters.lp_solves,
        cold.counters.lp_solves
    );
    assert_eq!(warm.counters.ilp_solves, cold.counters.ilp_solves);
    assert_eq!(warm.counters.ilp_nodes, cold.counters.ilp_nodes);
}
