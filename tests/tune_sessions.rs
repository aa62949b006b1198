//! The autotuner amortises its search through one compile session per
//! kernel: over the unique LSTM operators, candidates 2..N of a beam
//! search re-run no dependence analysis and no Farkas linearization, the
//! session serves their schedules from its prefix or memo, the winner
//! never loses to the default point, and a same-seed search repeats its
//! candidate log exactly.
//!
//! The memos under the oracle are keyed by the values their computations
//! read, so how many calls they answer is pinned per operator: a memo
//! that served one call more or fewer would move `estimate_memo_hits` or
//! `session_reuses`, and one that served a wrong value would move the
//! log digest.

use polyject::codegen::{CompileOptions, Config, TilingOptions};
use polyject::core::Budget;
use polyject::gpusim::GpuModel;
use polyject::ir::ops;
use polyject::tune::{beam_search, EvalCtx, SerialRunner, TuneOptions, TuneRequest};
use polyject::workloads::{lstm, op_key, unique_ops};

/// Per LSTM operator: `(op key, evaluated, estimate_memo_hits,
/// session_reuses, log_digest)` of the search below.
#[rustfmt::skip]
const PINNED: [(&str, usize, u64, u64, u64); 4] = [
    ("Elementwise { len: 102400, depth: 4 }", 11, 10, 10, 0x0a23_bf30_23b8_8301),
    ("Elementwise { len: 102400, depth: 6 }", 11, 10, 10, 0xb724_4e69_72c6_3b84),
    ("Elementwise { len: 25600, depth: 3 }", 11, 10, 10, 0xac3a_b304_0dab_8444),
    ("Elementwise { len: 98301, depth: 2 }", 11, 9, 10, 0x95cc_254f_d868_c5f6),
];

fn request(kernel: polyject::ir::Kernel) -> TuneRequest {
    TuneRequest {
        kernel,
        config: Config::Influenced,
        gpu: GpuModel::v100(),
        budget: Budget::unlimited(),
    }
}

#[test]
fn every_candidate_after_the_first_reuses_the_session() {
    let nets = [lstm()];
    let opts = TuneOptions {
        rounds: 1,
        initial_samples: 3,
        evals_per_round: 3,
        ..TuneOptions::default()
    };
    let (ops, _) = unique_ops(&nets);
    let names: Vec<String> = ops.iter().map(|op| op_key(op)).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|p| p.0).collect();
    assert_eq!(names, pinned, "the LSTM population changed");
    for (op, &(name, evaluated, memo_hits, reuses, digest)) in ops.into_iter().zip(&PINNED) {
        let req = request(op.build());
        let out = beam_search(&req, &opts, &SerialRunner).unwrap();
        assert!(out.complete, "{name}");
        assert_eq!(out.warm_dependence_analyses, 0, "{name}");
        assert_eq!(out.warm_farkas_linearizations, 0, "{name}");
        assert!(out.tuned.tuned_time <= out.tuned.default_time, "{name}");
        assert_eq!(out.tuned.evaluated, evaluated, "{name}");
        assert_eq!(out.estimate_memo_hits, memo_hits, "{name}");
        assert_eq!(out.session_reuses, reuses, "{name}");
        assert_eq!(out.tuned.log_digest, digest, "{name}");

        let again = beam_search(&req, &opts, &SerialRunner).unwrap();
        assert_eq!(again.tuned.log_digest, out.tuned.log_digest, "{name}");
    }
}

#[test]
fn one_ast_under_two_lowering_keys_is_simulated_once() {
    // A tiling whose `min_extent` exceeds every loop leaves the AST as
    // the untiled compile made it: two lowered-memo keys, one AST, so
    // one estimate entry and one hit.
    let req = request(ops::transpose_2d(32, 32));
    let ctx = EvalCtx::new(&req);
    let untiled = CompileOptions::default();
    let below_extent = CompileOptions {
        tiling: Some(TilingOptions {
            tile_size: 32,
            min_extent: 64,
            max_tiled_loops: 2,
        }),
        ..CompileOptions::default()
    };
    let a = ctx.compile(&untiled).unwrap();
    let b = ctx.compile(&below_extent).unwrap();
    assert_eq!(a.ast, b.ast);
    let ta = ctx.evaluate(&untiled).unwrap().timing;
    let tb = ctx.evaluate(&below_extent).unwrap().timing;
    assert_eq!(ta.time.to_bits(), tb.time.to_bits());
    assert_eq!(ctx.estimate_memo_hits(), 1);
}
