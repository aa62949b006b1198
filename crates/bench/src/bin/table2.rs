//! Regenerates Table II: runs every fused operator of every network
//! through the four tool chains on the simulated V100 and prints the
//! paper-style table plus the geometric-mean headline.
//!
//! Flags:
//! * `--per-op` — per-operator detail dump;
//! * `--csv` — machine-readable per-operator CSV;
//! * `--stats` — compile-side performance counters (LP/ILP solves,
//!   branch-and-bound nodes, FM eliminations, compile wall-clock);
//! * `--fast` — one-network subset (LSTM) for CI smoke runs;
//! * `--serial` — force the serial reference path (one worker);
//! * `--workers N` — pool size (default: available parallelism);
//! * `--bench` — run serially *and* in parallel, verify the outputs are
//!   identical, and record both legs in `BENCH_table2.json` (see `--json
//!   PATH`) beside whatever other sections the file holds.
//!
//! Tuning and serving throughput are measured by the benchmark package
//! (`polyject-benchmark --workload tune_search|serve_batch`), not here.
//!
//! An unknown flag or a missing/unparsable value prints the usage text
//! and exits 2 before anything is measured or written.

use polyject_bench::{
    measurements_identical, render_table2, run_table2_networks, solver_pairs, Table2Bench,
    Table2Run,
};
use polyject_gpusim::GpuModel;
use polyject_serve::args::{self, Args};
use polyject_serve::{default_workers, Json};
use polyject_workloads::{all_networks, geomean_speedup, lstm, Network, Tool};

/// Clears the calling thread's memoized assembly state (Farkas
/// linearizations, redundancy verdicts) so each bench leg's counters
/// measure that leg alone instead of inheriting warmth from the one
/// before. Pool workers are spawned fresh per leg; the main thread is
/// the only one that persists across legs.
fn isolate_leg() {
    polyject_core::clear_assembly_caches();
}

fn print_stats(label: &str, run: &Table2Run) {
    let solver: Vec<String> = solver_pairs(&run.perf.counters)
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    eprintln!(
        "[stats] {label}: {} unique ops, {} workers, wall {:.2}s, compile {:.1}ms | {}",
        run.unique_ops,
        run.workers,
        run.wall_s,
        run.perf.compile_ms,
        solver.join(" ")
    );
}

/// Replaces (or adds) the named sections of the bench JSON file,
/// preserving every other section already recorded there.
fn splice_sections(json_path: &str, sections: Vec<(&str, Json)>) {
    let existing = std::fs::read_to_string(json_path)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let mut pairs = match existing {
        Some(Json::Obj(pairs)) => pairs,
        _ => vec![("bench".to_string(), Json::Str("table2".to_string()))],
    };
    for (name, section) in sections {
        match pairs.iter_mut().find(|(k, _)| k == name) {
            Some((_, slot)) => *slot = section,
            None => pairs.push((name.to_string(), section)),
        }
    }
    std::fs::write(json_path, Json::Obj(pairs).render_pretty()).expect("write bench json");
}

const USAGE: &str =
    "usage: table2 [--per-op | --csv] [--stats] [--fast] [--serial | --workers N] [--bench] [--json PATH]";

#[derive(Default)]
struct Cli {
    per_op: bool,
    csv: bool,
    stats: bool,
    fast: bool,
    serial: bool,
    bench: bool,
    workers: Option<usize>,
    json: Option<String>,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli::default();
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--per-op" => cli.per_op = true,
            "--csv" => cli.csv = true,
            "--stats" => cli.stats = true,
            "--fast" => cli.fast = true,
            "--serial" => cli.serial = true,
            "--bench" => cli.bench = true,
            "--workers" => cli.workers = Some(args.int()?),
            "--json" => cli.json = Some(args.value()?),
            _ => return Err(args.unexpected()),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = args::parse(USAGE, parse_args);
    let workers = match cli.serial {
        true => 1,
        false => cli.workers.unwrap_or_else(default_workers),
    };
    let json_path = cli.json.unwrap_or_else(|| "BENCH_table2.json".to_string());

    let model = GpuModel::v100();
    let nets: Vec<Network> = if cli.fast {
        vec![lstm()]
    } else {
        all_networks()
    };
    // On a single-core machine a "parallel" leg would only measure thread
    // overhead; run the second leg serially and record that honestly.
    let cores = default_workers();
    let bench_workers = if cores < 2 { 1 } else { workers.max(2) };
    if cli.bench {
        if cores < 2 {
            eprintln!(
                "measuring {} network(s) on {} twice serially ({cores} core: \
                 parallel leg skipped, second run checks determinism) ...",
                nets.len(),
                model.name,
            );
        } else {
            eprintln!(
                "measuring {} network(s) on {} serially and with {} worker(s) ...",
                nets.len(),
                model.name,
                bench_workers
            );
        }
    } else {
        eprintln!(
            "measuring {} network(s) on {} with {} worker(s) ...",
            nets.len(),
            model.name,
            workers
        );
    }

    let run = if cli.bench {
        isolate_leg();
        let serial = run_table2_networks(&nets, &model, 1);
        isolate_leg();
        let parallel = run_table2_networks(&nets, &model, bench_workers);
        let identical = measurements_identical(&serial.results, &parallel.results);
        let b = Table2Bench {
            cores,
            serial,
            parallel,
            identical,
        };
        splice_sections(&json_path, b.sections());
        // A serial repeat has no scaling story to tell: label it a
        // determinism repeat instead of printing a meaningless ratio
        // (mirrored by `"speedup": null` in the JSON report).
        let verdict = if b.parallel_skipped() {
            "determinism repeat".to_string()
        } else if b.parallel.wall_s > 0.0 {
            format!("{:.2}x", b.serial.wall_s / b.parallel.wall_s)
        } else {
            "1.00x".to_string()
        };
        eprintln!(
            "[bench] serial {:.2}s, {} {:.2}s ({} workers) -> {}, identical: {} -> {}",
            b.serial.wall_s,
            if b.parallel_skipped() {
                "serial repeat"
            } else {
                "parallel"
            },
            b.parallel.wall_s,
            b.parallel.workers,
            verdict,
            b.identical,
            json_path
        );
        assert!(b.identical, "serial and parallel Table II runs diverged");
        if cli.stats {
            print_stats("serial", &b.serial);
            print_stats("parallel", &b.parallel);
        }
        b.parallel
    } else {
        isolate_leg();
        let run = run_table2_networks(&nets, &model, workers);
        if cli.stats {
            print_stats(if workers <= 1 { "serial" } else { "parallel" }, &run);
        }
        run
    };
    let results = &run.results;

    if cli.csv {
        // Machine-readable per-operator dump.
        println!("network,op,class,vec,influenced,isl_ms,tvm_ms,novec_ms,infl_ms");
        for net in results {
            for m in &net.per_op {
                println!(
                    "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6}",
                    net.name,
                    m.name,
                    m.class,
                    m.vec_eligible,
                    m.influenced,
                    m.time_ms[0],
                    m.time_ms[1],
                    m.time_ms[2],
                    m.time_ms[3]
                );
            }
        }
        return;
    }
    if cli.per_op {
        // The paper's "detailed analysis of fused operators".
        for net in results {
            println!("== {} ==", net.name);
            for m in &net.per_op {
                println!(
                    "  {:<40} {:<22} vec={:<5} infl={:<5} isl={:>8.4} tvm={:>8.4} novec={:>8.4} infl={:>8.4}  (x{:.2})",
                    m.name,
                    m.class,
                    m.vec_eligible,
                    m.influenced,
                    m.time_ms[0],
                    m.time_ms[1],
                    m.time_ms[2],
                    m.time_ms[3],
                    m.time_ms[0] / m.time_ms[3]
                );
            }
        }
        println!();
    }
    print!("{}", render_table2(results));
    println!();
    println!(
        "geomean speedup over isl:  infl {:.2}x  novec {:.2}x  tvm {:.2}x   (paper headline: infl 1.7x)",
        geomean_speedup(results, Tool::Infl),
        geomean_speedup(results, Tool::NoVec),
        geomean_speedup(results, Tool::Tvm),
    );
    eprintln!("({} networks in {:.1}s)", results.len(), run.wall_s);
}
