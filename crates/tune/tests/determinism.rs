//! Tuner determinism: same seed + same kernel ⇒ identical candidate
//! sequence, identical winner, identical digest (ISSUE 7 satellite).

use polyject_codegen::Config;
use polyject_core::Budget;
use polyject_gpusim::GpuModel;
use polyject_ir::ops;
use polyject_tune::{beam_search, SerialRunner, TuneOptions, TuneOutcome, TuneRequest};

fn run(seed: u64) -> TuneOutcome {
    let req = TuneRequest {
        // Large enough that tiling pays for its occupancy cost in the
        // simulator (small transposes legitimately stay untiled).
        kernel: ops::transpose_2d(512, 512),
        config: Config::Influenced,
        gpu: GpuModel::v100(),
        budget: Budget::unlimited(),
    };
    let opts = TuneOptions {
        seed,
        rounds: 2,
        initial_samples: 6,
        evals_per_round: 6,
        ..TuneOptions::default()
    };
    beam_search(&req, &opts, &SerialRunner).unwrap()
}

#[test]
fn same_seed_replays_byte_identically() {
    let a = run(2026);
    let b = run(2026);
    // Identical candidate sequence: round, key, and exact float bits.
    assert_eq!(a.log.len(), b.log.len());
    for (x, y) in a.log.iter().zip(&b.log) {
        assert_eq!(x.round, y.round);
        assert_eq!(x.key, y.key);
        assert_eq!(x.time.to_bits(), y.time.to_bits());
    }
    // Identical winner and provenance.
    assert_eq!(a.tuned, b.tuned);
    assert_eq!(a.tuned.log_digest, b.tuned.log_digest);
}

#[test]
fn different_seeds_share_the_default_anchor() {
    let a = run(1);
    let b = run(2);
    // Whatever the walk, both runs evaluate the default point first and
    // never regress below it.
    assert_eq!(a.log[0].key, b.log[0].key);
    assert_eq!(
        a.tuned.default_time.to_bits(),
        b.tuned.default_time.to_bits()
    );
    assert!(a.tuned.tuned_time <= a.tuned.default_time);
    assert!(b.tuned.tuned_time <= b.tuned.default_time);
}

#[test]
fn winner_improves_on_default_for_transpose() {
    // Transpose gains from tiling, so the searched winner should beat
    // the untiled default outright, not just tie it.
    let out = run(7);
    assert!(
        out.tuned.tuned_time < out.tuned.default_time,
        "expected strict improvement, got {} vs {}",
        out.tuned.tuned_time,
        out.tuned.default_time
    );
    assert!(out.complete);
}
