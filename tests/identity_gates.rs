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
//!   the 128-bit tableau stay at or under 1 % of LP solves.
//!
//! The counts are deterministic on one code revision, so a difference is
//! a schedule, a timing or a solver decision that moved (or
//! instrumentation that came unwired). Re-record a golden or a block
//! only with the change that moves it, and state the delta.

use polyject::core::clear_assembly_caches;
use polyject::gpusim::GpuModel;
use polyject::serve::Json;
use polyject::workloads::{all_networks, lstm, Network};
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

/// The `table2` flags that reproduce a block (`fast` adds `--fast`).
fn table2_flags(block: &str) -> &'static str {
    match block {
        "fast" => "--fast --workers 1",
        _ => "--workers 1",
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

fn assert_counts_match_snapshot(block: &str, run: &Table2Run) {
    let snapshot = Json::parse(&script_file("solver_counters.snapshot.json")).unwrap();
    let want = snapshot.get(block).and_then(Json::as_obj).unwrap();
    let live: Vec<(String, f64)> = solver_pairs(&run.perf.counters)
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
    let (esc, lps) = (
        run.perf.counters.tab_overflow_escalations,
        run.perf.counters.lp_solves,
    );
    if run.perf.counters.tab_i64_solves == 0 {
        bad.push("the i64 tableau path never engaged".to_string());
    }
    if esc * 100 > lps {
        bad.push(format!("escalation rate {esc}/{lps} LP solves above 1%"));
    }
    assert!(
        bad.is_empty(),
        "{block} solver counters fail their gate (scripts/solver_counters.snapshot.json):\n  {}\n\
         if the change moves solver work on purpose, re-record the `{block}` block from the \
         `[stats] serial:` line of\n  \
         cargo run --release -p polyject-bench --bin table2 -- {} --stats",
        bad.join("\n  "),
        table2_flags(block),
    );
}

#[test]
fn fast_run_equals_its_golden_and_snapshot() {
    let run = serial_run(&[lstm()]);
    assert_csv_matches_golden("fast", &run);
    assert_counts_match_snapshot("fast", &run);
}

#[test]
fn full_run_equals_its_golden_and_snapshot() {
    let run = serial_run(&all_networks());
    assert_csv_matches_golden("full", &run);
    assert_counts_match_snapshot("full", &run);
}
