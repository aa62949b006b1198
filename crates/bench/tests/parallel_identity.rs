//! The parallel Table II pipeline must produce results byte-identical to
//! the serial reference path: same rows, bitwise-equal f64 times.
//!
//! Runs the full Table II population (a serial pass takes well under a
//! second), which also exercises cross-network operator deduplication,
//! since the CV networks share operator classes.

use polyject_bench::{render_table2, run_table2_networks};
use polyject_gpusim::GpuModel;
use polyject_workloads::all_networks;

#[test]
fn parallel_pipeline_matches_serial_reference() {
    let model = GpuModel::v100();
    let nets = all_networks();

    // Same pipeline serially (workers=1) and in parallel.
    let serial = run_table2_networks(&nets, &model, 1);
    let parallel = run_table2_networks(&nets, &model, 4);

    // Every time is a finite sum of positive values, so `==` on the rows
    // is bit equality of everything rendered into the table.
    assert!(
        serial.results == parallel.results,
        "parallel run diverged from serial run"
    );
    // The rendered table — what the binary actually prints — is
    // byte-identical too.
    assert_eq!(
        render_table2(&serial.results),
        render_table2(&parallel.results)
    );

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
