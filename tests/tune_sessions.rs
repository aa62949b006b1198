//! The autotuner amortises its search through one compile session per
//! kernel: over the unique LSTM operators, candidates 2..N of a beam
//! search re-run no dependence analysis and no Farkas linearization, the
//! session serves their schedules from its prefix or memo, the winner
//! never loses to the default point, and a same-seed search repeats its
//! candidate log exactly.

use polyject::codegen::Config;
use polyject::core::Budget;
use polyject::gpusim::GpuModel;
use polyject::tune::{beam_search, SerialRunner, TuneOptions, TuneRequest};
use polyject::workloads::{lstm, op_key, unique_ops};

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
    assert!(!ops.is_empty());
    for op in ops {
        let req = TuneRequest {
            kernel: op.build(),
            config: Config::Influenced,
            gpu: GpuModel::v100(),
            budget: Budget::unlimited(),
        };
        let name = op_key(op);
        let out = beam_search(&req, &opts, &SerialRunner).unwrap();
        assert!(out.complete, "{name}");
        assert_eq!(out.warm_dependence_analyses, 0, "{name}");
        assert_eq!(out.warm_farkas_linearizations, 0, "{name}");
        assert!(out.session_reuses > 0, "{name}");
        assert!(out.tuned.tuned_time <= out.tuned.default_time, "{name}");

        let again = beam_search(&req, &opts, &SerialRunner).unwrap();
        assert_eq!(again.tuned.log_digest, out.tuned.log_digest, "{name}");
    }
}
