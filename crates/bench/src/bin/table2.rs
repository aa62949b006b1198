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
//!   PATH`) beside whatever other sections the file holds;
//! * `--tune` — autotune every unique operator with the deterministic
//!   beam search, persist the winners in the cache dir, and splice a
//!   `"tune"` section (per-op default-vs-tuned times plus the geomean)
//!   into `BENCH_table2.json`; a warm re-run replays every persisted
//!   configuration with zero search;
//! * `--tune-seed N` — override the search seed (default: the tuner's);
//! * `--cache-dir DIR` — where `--tune` persists its winners (default: a
//!   directory under the system temp dir);
//! * `--throughput` — batched-vs-sequential serving comparison: spawn a
//!   cold in-process daemon fleet per leg, push the whole op stream ×
//!   three configs through `compile_batch` and through one-at-a-time
//!   round trips, verify the artifact fields are identical, and splice a
//!   `"throughput"` section into `BENCH_table2.json`;
//! * `--shards N` — fleet size for `--throughput` (default 3, at least 1).
//!
//! An unknown flag, a missing/unparsable value or a flag whose mode is
//! absent prints the usage text and exits 2 before anything is measured
//! or written.

use polyject_bench::{
    measurements_identical, render_table2, run_table2_networks, run_table2_tuned, solver_pairs,
    Table2Bench, Table2Run,
};
use polyject_gpusim::GpuModel;
use polyject_serve::args::{self, Args};
use polyject_serve::{default_workers, DiskCache, Json};
use polyject_tune::TuneOptions;
use polyject_workloads::{all_networks, geomean_speedup, lstm, Network, Tool};
use std::path::Path;

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

/// Replaces (or adds) the named sections of the bench JSON file — the
/// one way any mode writes it — preserving every other section already
/// recorded there.
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

/// The `--tune` mode: beam-search every unique operator through the
/// persistent cache and record the `"tune"` section.
fn run_tune_bench(
    nets: &[Network],
    model: &GpuModel,
    seed: Option<u64>,
    workers: usize,
    stats: bool,
    dir: &str,
    json_path: &str,
) {
    let opts = TuneOptions {
        seed: seed.unwrap_or(TuneOptions::default().seed),
        ..TuneOptions::default()
    };
    let cache = DiskCache::open_default(Path::new(dir)).expect("open cache dir");
    eprintln!(
        "[tune] tuning unique operators (seed {:016x}, cache at {dir}) ...",
        opts.seed
    );
    isolate_leg();
    let before = polyject_sets::counters::snapshot();
    let b = run_table2_tuned(nets, model, &opts, cache, workers).expect("tune bench");
    if stats {
        // With one worker every search runs on this thread, so the delta
        // is the whole tune leg; with a pool it covers the serial share.
        let c = polyject_sets::counters::snapshot().delta_since(&before);
        eprintln!(
            "[stats] tune: lp_solves {} ilp_nodes {} | phases dep {:.1}ms \
             assemble {:.1}ms solve {:.1}ms codegen {:.1}ms \
             | farkas {} deps {} session_reuses {}",
            c.lp_solves,
            c.ilp_nodes,
            c.dependence_ns as f64 / 1e6,
            c.assemble_ns as f64 / 1e6,
            c.solve_ns as f64 / 1e6,
            c.codegen_ns as f64 / 1e6,
            c.farkas_linearizations,
            c.dependence_analyses,
            c.session_reuses
        );
    }
    eprintln!(
        "[tune] {} op(s) in {:.2}s: {} searched, {} replayed from cache \
         | geomean tuned-vs-default {:.3}x -> {json_path}",
        b.ops.len(),
        b.wall_s,
        b.searched,
        b.replayed,
        b.geomean_speedup()
    );
    assert!(
        b.geomean_speedup() >= 1.0,
        "the default point is in every candidate pool; tuning cannot lose"
    );
    splice_sections(json_path, vec![("tune", b.to_json())]);
}

/// The `--throughput` mode: the op stream through a cold fleet one item
/// per round trip, then through a fresh cold fleet as one scatter-gather
/// batch, artifact-identity checked and recorded as the `"throughput"`
/// section.
fn run_throughput(
    nets: &[Network],
    model: &GpuModel,
    shards: usize,
    json_path: &str,
) -> Result<(), String> {
    eprintln!("[throughput] spawning {shards}-shard fleets: sequential leg, then batched ...");
    let b = polyject_bench::run_throughput_bench(nets, model, shards, 2)?;
    eprintln!(
        "[throughput] {} item(s) ({} unique): sequential {:.2}s / {} round trip(s) vs \
         batched {:.2}s / {} round trip(s) -> {:.2}x \
         | dedup_hits {} session_reuses {} | identical: {} -> {json_path}",
        b.items,
        b.unique_items,
        b.sequential.wall_s,
        b.sequential.round_trips,
        b.batched.wall_s,
        b.batched.round_trips,
        b.speedup(),
        b.batch_dedup_hits,
        b.batch_session_reuses,
        b.identical
    );
    if !b.identical {
        return Err(format!(
            "batched and sequential replies diverged on {} item(s)",
            b.mismatches
        ));
    }
    splice_sections(json_path, vec![("throughput", b.to_json())]);
    Ok(())
}

const USAGE: &str = "usage: table2 [--per-op | --csv] [--stats] [--fast] [--serial | --workers N] \
[--bench] [--json PATH] [--tune [--tune-seed N] [--cache-dir DIR]] \
[--throughput [--shards N]]";

#[derive(Default)]
struct Cli {
    per_op: bool,
    csv: bool,
    stats: bool,
    fast: bool,
    serial: bool,
    bench: bool,
    tune: bool,
    throughput: bool,
    workers: Option<usize>,
    json: Option<String>,
    cache_dir: Option<String>,
    tune_seed: Option<u64>,
    shards: Option<usize>,
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
            "--tune" => cli.tune = true,
            "--throughput" => cli.throughput = true,
            "--workers" => cli.workers = Some(args.int()?),
            "--json" => cli.json = Some(args.value()?),
            "--cache-dir" => cli.cache_dir = Some(args.value()?),
            "--tune-seed" => cli.tune_seed = Some(args.int()?),
            "--shards" => match args.int()? {
                0 => return Err("--shards needs at least one shard".to_string()),
                n => cli.shards = Some(n),
            },
            _ => return Err(args.unexpected()),
        }
    }
    if cli.cache_dir.is_some() && !cli.tune {
        return Err(
            "--cache-dir is where --tune persists its winners; it needs --tune".to_string(),
        );
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
    let cache_dir = cli.cache_dir.unwrap_or_else(|| {
        std::env::temp_dir()
            .join("polyject-table2-cache")
            .to_string_lossy()
            .into_owned()
    });

    let model = GpuModel::v100();
    let nets: Vec<Network> = if cli.fast {
        vec![lstm()]
    } else {
        all_networks()
    };
    if cli.throughput {
        if let Err(e) = run_throughput(&nets, &model, cli.shards.unwrap_or(3), &json_path) {
            eprintln!("table2: {e}");
            std::process::exit(1);
        }
        return;
    }
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
    if cli.tune {
        // Tuning rides on whatever run mode executed above and fans
        // candidate evaluation over the same worker budget.
        run_tune_bench(
            &nets,
            &model,
            cli.tune_seed,
            workers,
            cli.stats,
            &cache_dir,
            &json_path,
        );
    }
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
