//! The parallel Table II pipeline must produce results byte-identical to
//! the serial reference path: same rows, bitwise-equal f64 times.
//!
//! Runs the full Table II population (a serial pass takes well under a
//! second), which also exercises cross-network operator deduplication,
//! since the CV networks share operator classes.

use polyject_bench::{measurements_identical, render_table2, run_table2_networks};
use polyject_gpusim::GpuModel;
use polyject_workloads::{all_networks, measure_network};

#[test]
fn parallel_pipeline_matches_serial_reference() {
    let model = GpuModel::v100();
    let nets = all_networks();

    // Legacy serial path: per-network memoized measure_network.
    let reference: Vec<_> = nets.iter().map(|n| measure_network(n, &model)).collect();
    // Same pipeline serially (workers=1) and in parallel.
    let serial = run_table2_networks(&nets, &model, 1);
    let parallel = run_table2_networks(&nets, &model, 4);

    assert!(
        measurements_identical(&reference, &serial.results),
        "global-dedup serial pipeline diverged from measure_network"
    );
    assert!(
        measurements_identical(&serial.results, &parallel.results),
        "parallel run diverged from serial run"
    );
    // The rendered table — what the binary actually prints — is
    // byte-identical too.
    assert_eq!(
        render_table2(&serial.results),
        render_table2(&parallel.results)
    );
    assert_eq!(render_table2(&reference), render_table2(&parallel.results));

    // Dedup bookkeeping: at most as many unique ops as total ops, and
    // the counts agree between the two pipeline runs.
    let total: usize = nets.iter().map(|n| n.ops.len()).sum();
    assert!(serial.unique_ops <= total);
    assert_eq!(serial.unique_ops, parallel.unique_ops);

    // Solver work is attributed in both modes (thread-local counters are
    // captured per operator regardless of which worker compiles it).
    assert!(serial.perf.counters.ilp_solves > 0);
    assert_eq!(
        serial.perf.counters.ilp_solves,
        parallel.perf.counters.ilp_solves
    );
    assert_eq!(
        serial.perf.counters.ilp_nodes,
        parallel.perf.counters.ilp_nodes
    );
}
