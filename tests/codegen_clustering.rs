//! AST generation asks the ILP only what the schedule and the clustering
//! union-find do not already answer: an S-statement fused elementwise
//! chain costs `generate_ast` at most S integer solves, not one per pair
//! of statements, and its rendered AST keeps its pinned digest.

use polyject::arith::fnv1a64;
use polyject::codegen::{generate_ast, render};
use polyject::core::{schedule_kernel, InfluenceTree, SchedulerOptions};
use polyject::deps::{compute_dependences, DepOptions};
use polyject::ir::ops;
use polyject::sets::counters;

#[test]
fn elementwise_chain_codegen_solves_at_most_one_ilp_per_statement() {
    // (statements, fnv1a64 of the rendered AST)
    let cases = [
        (8, 0x2dc3_d7fd_2b4d_c24d_u64),
        (16, 0xbd01_7a9d_1c50_6789),
        (32, 0x0557_527a_2d64_0014),
        (64, 0x8f43_328c_594d_bf2a),
    ];
    for (s, digest) in cases {
        let kernel = ops::elementwise_chain(4096, s);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let res = schedule_kernel(
            &kernel,
            &deps,
            &InfluenceTree::new(),
            SchedulerOptions::default(),
        )
        .expect("schedulable");
        // Counters are per-thread: both snapshots are taken on this one.
        let before = counters::snapshot();
        let ast = generate_ast(&kernel, &res.schedule);
        let ilps = counters::snapshot().delta_since(&before).ilp_solves;
        assert!(
            ilps <= s as u64,
            "{s}-statement chain: generate_ast solved {ilps} ILPs, more than {s}"
        );
        let got = fnv1a64(render(&ast, &kernel).as_bytes());
        assert_eq!(got, digest, "{s}-statement chain: AST {got:016x} moved");
    }
}
