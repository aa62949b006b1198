//! Table II's exact outputs, the ground every "nothing moved" claim
//! stands on. For the `--fast` subset (the 4 LSTM ops) and the whole
//! population (217 rows, 114 unique ops), each run serially from empty
//! assembly caches the way `table2 --workers 1` runs:
//!
//! * the per-operator CSV equals its checked-in golden byte for byte —
//!   the vectorized / influenced flags and the four simulated times;
//! * every solver count (the `*_ms` clocks aside) equals its block of
//!   `scripts/solver_counters.snapshot.json`, with no count missing on
//!   either side;
//! * the machine-integer tableau is engaged, and overflow escalations to
//!   the 128-bit tableau stay at or under a fixed ceiling: 36 for the
//!   whole population, 1 for `--fast`, 0 for `chain`. These are counts,
//!   not a share of LP solves, so a change that removes solves that
//!   never overflow cannot fail the gate; a re-record may lower a
//!   ceiling, never raise it.
//!
//! A third block, `chain`, pins the counts of one influenced compile of
//! a 64-statement elementwise chain over 48 elements: its scheduling
//! context's tableau is ~1 100 columns wide where a Table II row
//! averages 67 cells, so it holds the solver's decisions on wide rows as
//! well.
//!
//! A fourth block, `tune`, pins the counts of one default-options beam
//! search over the population's first `f16` 2-D transpose: every
//! candidate compiles through one session, so it holds the session
//! memos and the lowering the tuner's oracle leans on, where the other
//! blocks compile each operator once.
//!
//! The counts are deterministic on one code revision, so a difference is
//! a schedule, a timing or a solver decision that moved (or
//! instrumentation that came unwired). Re-record a golden or a block
//! only with the change that moves it, and state the delta.

use polyject::codegen::{compile, Config};
use polyject::core::clear_assembly_caches;
use polyject::gpusim::GpuModel;
use polyject::ir::ops;
use polyject::ir::ElemType;
use polyject::serve::Json;
use polyject::sets::{counters, SolverCounters};
use polyject::tune::{beam_search, SerialRunner, TuneOptions, TuneRequest};
use polyject::workloads::{all_networks, lstm, unique_ops, Network, OpClass};
use polyject_bench::{render_csv, run_table2_networks, solver_pairs, Table2Run};

/// A file under `scripts/`, read from the repository root.
fn script_file(name: &str) -> String {
    let path = format!("{}/scripts/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The serial run `table2 --workers 1` makes: assembly caches emptied
/// first, so the counters measure this run alone.
fn serial_run(nets: &[Network]) -> Table2Run {
    clear_assembly_caches();
    run_table2_networks(nets, &GpuModel::v100(), 1)
}

/// Statements in the `chain` block's elementwise chain.
const CHAIN_DEPTH: usize = 64;

/// How to regenerate a block's counts.
fn rerecord_hint(block: &str) -> String {
    match block {
        "chain" | "tune" => "the live values above".to_string(),
        _ => format!(
            "the `[stats] serial:` line of\n  \
             cargo run --release -p polyject-bench --bin table2 -- {} --stats",
            table2_flags(block)
        ),
    }
}

/// The `table2` flags that reproduce a block (`fast` adds `--fast`).
fn table2_flags(block: &str) -> &'static str {
    match block {
        "fast" => "--fast --workers 1",
        _ => "--workers 1",
    }
}

/// The most overflow escalations a block's run may make.
fn escalation_ceiling(block: &str) -> u64 {
    match block {
        "fast" => 1,
        "chain" | "tune" => 0,
        _ => 36,
    }
}

fn assert_csv_matches_golden(block: &str, run: &Table2Run) {
    let golden_name = format!("table2_{block}.golden.csv");
    let golden = script_file(&golden_name);
    let live = render_csv(&run.results);
    if live == golden {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), live.lines().collect());
    let row = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    panic!(
        "{block} CSV differs from scripts/{golden_name} at line {}:\n  golden: {}\n  live:   {}\n\
         if the change moves a schedule or the timing model on purpose, re-record with\n  \
         cargo run --release -p polyject-bench --bin table2 -- {} --csv > scripts/{golden_name}",
        row + 1,
        want.get(row).unwrap_or(&"<end of file>"),
        got.get(row).unwrap_or(&"<end of output>"),
        table2_flags(block),
    );
}

fn assert_counts_match_snapshot(block: &str, counters: &SolverCounters) {
    let snapshot = Json::parse(&script_file("solver_counters.snapshot.json")).unwrap();
    let want = snapshot.get(block).and_then(Json::as_obj).unwrap();
    let live: Vec<(String, f64)> = solver_pairs(counters)
        .filter(|(name, _)| !name.ends_with("_ms"))
        .collect();
    let count = |name: &str| live.iter().find(|(k, _)| k == name).map(|&(_, v)| v as u64);
    let mut bad: Vec<String> = Vec::new();
    for (name, value) in want {
        let (recorded, measured) = (value.as_u64(), count(name));
        if recorded != measured {
            bad.push(format!("{name}: live {measured:?}, snapshot {recorded:?}"));
        }
    }
    for (name, value) in &live {
        if !want.iter().any(|(k, _)| k == name) {
            bad.push(format!("{name}: live {value}, not in the snapshot"));
        }
    }
    if counters.tab_i64_solves == 0 {
        bad.push("the i64 tableau path never engaged".to_string());
    }
    let (esc, ceiling) = (counters.tab_overflow_escalations, escalation_ceiling(block));
    if esc > ceiling {
        bad.push(format!(
            "{esc} overflow escalations, above the ceiling {ceiling}"
        ));
    }
    assert!(
        bad.is_empty(),
        "{block} solver counters fail their gate (scripts/solver_counters.snapshot.json):\n  {}\n\
         if the change moves solver work on purpose, re-record the `{block}` block from {}",
        bad.join("\n  "),
        rerecord_hint(block),
    );
}

#[test]
fn fast_run_equals_its_golden_and_snapshot() {
    let run = serial_run(&[lstm()]);
    assert_csv_matches_golden("fast", &run);
    assert_counts_match_snapshot("fast", &run.perf.counters);
}

#[test]
fn full_run_equals_its_golden_and_snapshot() {
    let run = serial_run(&all_networks());
    assert_csv_matches_golden("full", &run);
    assert_counts_match_snapshot("full", &run.perf.counters);
}

#[test]
fn deep_chain_compile_equals_its_snapshot() {
    clear_assembly_caches();
    let before = counters::snapshot();
    let compiled = compile(&ops::elementwise_chain(48, CHAIN_DEPTH), Config::Influenced);
    assert!(compiled.expect("the chain compiles").influenced);
    assert_counts_match_snapshot("chain", &counters::snapshot().delta_since(&before));
}

#[test]
fn default_beam_search_on_an_f16_transpose_equals_its_snapshot() {
    let nets = all_networks();
    let (ops, _) = unique_ops(&nets);
    let transpose = ops
        .into_iter()
        .find(|op| {
            matches!(
                op,
                OpClass::Transpose2D {
                    elem: ElemType::F16,
                    ..
                }
            )
        })
        .expect("Table II transposes f16 activations");
    let req = TuneRequest {
        kernel: transpose.build(),
        config: Config::Influenced,
        gpu: GpuModel::v100(),
        budget: polyject::core::Budget::unlimited(),
    };
    clear_assembly_caches();
    let before = counters::snapshot();
    let out = beam_search(&req, &TuneOptions::default(), &SerialRunner);
    assert!(out.expect("the default point compiles").complete);
    assert_counts_match_snapshot("tune", &counters::snapshot().delta_since(&before));
}
