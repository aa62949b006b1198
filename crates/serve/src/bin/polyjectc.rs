//! `polyjectc` — the polyject command-line compiler driver.
//!
//! ```text
//! polyjectc <file.pj> [--config isl|novec|infl]
//!           [--emit code|cuda|schedule|schedtree|tree|profile|pj|time|all]
//!           [--remote <endpoint>[,<endpoint>...]]
//!           [--tune] [--tune-seed <n>] [--cache-dir <dir>]
//! ```
//!
//! With `--remote`, compilation is delegated to a running `polyjectd`
//! daemon (hitting its persistent cache); `tree` and `profile` need the
//! in-process pipeline and are only available locally. A comma-separated
//! `--remote` list shards requests client-side over the same
//! consistent-hash ring a `polyject-router` uses, failing over across a
//! key's replicas when its shard is down.
//!
//! With `--tune` (local only), the deterministic beam-search autotuner
//! runs before compilation and the kernel compiles under the winning
//! configuration. With `--cache-dir`, the tuned configuration persists:
//! a warm re-run (and any daemon sharing the directory) replays it with
//! zero search.
//!
//! With `--batch <file>` (remote only), every kernel in the file (one
//! per `kernel ...` block) is compiled in one `compile_batch` round
//! trip per shard instead of one round trip per kernel; replies stream
//! back as they complete and are printed in request order.

use polyject_codegen::{compile, render, render_cuda, Config};
use polyject_core::{build_influence_tree, render_schedule_tree, schedule_tree, Budget};
use polyject_front::{emit_pj, parse};
use polyject_gpusim::{estimate, profile, GpuModel, KernelTiming};
use polyject_serve::client::ShardedClient;
use polyject_serve::{tune_cached, BatchItem, CompileService, DiskCache, Endpoint, Json};
use polyject_tune::TuneOptions;
use std::process::ExitCode;

const USAGE: &str = "usage: polyjectc <file.pj> [--config isl|novec|infl] \
     [--emit code|cuda|schedule|schedtree|tree|profile|pj|time|all] \
     [--remote <endpoint>[,<endpoint>...]] [--batch <file.pj>] \
     [--tune] [--tune-seed <n>] [--cache-dir <dir>]";

/// Every `--emit` value the driver understands.
const EMIT_VALUES: [&str; 9] = [
    "code",
    "cuda",
    "schedule",
    "schedtree",
    "tree",
    "profile",
    "pj",
    "time",
    "all",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut config = Config::Influenced;
    let mut emit = "all".to_string();
    let mut remote: Vec<Endpoint> = Vec::new();
    let mut batch: Option<String> = None;
    let mut tune = false;
    let mut tune_seed: Option<u64> = None;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                i += 1;
                config = match args.get(i).map(String::as_str) {
                    Some("isl") => Config::Isl,
                    Some("novec") => Config::NoVec,
                    Some("infl") => Config::Influenced,
                    other => {
                        eprintln!("unknown --config {other:?} (isl|novec|infl)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--emit" => {
                i += 1;
                emit = args.get(i).cloned().unwrap_or_default();
            }
            "--remote" => {
                i += 1;
                match args.get(i) {
                    Some(addrs) => {
                        for addr in addrs.split(',').filter(|a| !a.is_empty()) {
                            match Endpoint::parse(addr) {
                                Ok(ep) => remote.push(ep),
                                Err(e) => {
                                    eprintln!("bad --remote endpoint: {e}");
                                    return ExitCode::FAILURE;
                                }
                            }
                        }
                    }
                    None => {
                        eprintln!("--remote needs a socket path or host:port\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--batch" => {
                i += 1;
                match args.get(i) {
                    Some(f) => batch = Some(f.clone()),
                    None => {
                        eprintln!("--batch needs a file of kernels\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--tune" => tune = true,
            "--tune-seed" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => tune_seed = Some(n),
                    None => {
                        eprintln!("--tune-seed needs an integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => cache_dir = Some(d.into()),
                    None => {
                        eprintln!("--cache-dir needs a directory\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if file.is_none() => file = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    // Validate --emit up front: a typo'd value used to silently print
    // nothing (every `emit == "..."` check simply missed).
    if !EMIT_VALUES.contains(&emit.as_str()) {
        eprintln!(
            "unknown --emit {emit:?} (expected one of: {})\n{USAGE}",
            EMIT_VALUES.join("|")
        );
        return ExitCode::FAILURE;
    }
    if let Some(batch_file) = batch {
        if remote.is_empty() {
            eprintln!("--batch delegates to daemons; it needs --remote");
            return ExitCode::FAILURE;
        }
        return run_batch(&remote, &batch_file, config);
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !remote.is_empty() {
        if tune {
            eprintln!("--tune needs the in-process pipeline; drop --remote to use it");
            return ExitCode::FAILURE;
        }
        return run_remote(&remote, &file, &src, config, &emit);
    }

    let kernel = match parse(&src) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{file}:{e}");
            return ExitCode::FAILURE;
        }
    };

    // Autotune first: the winner's options shape everything emitted
    // below. The [tune] line is deterministic for a fixed seed (model
    // times only, no wall clock).
    let tuned_options = if tune {
        let cache = match &cache_dir {
            Some(dir) => match DiskCache::open_default(dir) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("cannot open cache {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        let svc = CompileService::new(cache, GpuModel::v100());
        let opts = TuneOptions {
            seed: tune_seed.unwrap_or(TuneOptions::default().seed),
            ..TuneOptions::default()
        };
        let report = match tune_cached(&svc, &src, config.name(), &opts, &Budget::unlimited()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{file}: tuning failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "[tune] default_ms={:.6} tuned_ms={:.6} speedup={:.3} evaluated={} cached={}",
            report.tuned.default_time * 1e3,
            report.tuned.tuned_time * 1e3,
            report.tuned.speedup(),
            report.tuned.evaluated,
            report.cached,
        );
        Some(report.tuned.to_compile_options())
    } else {
        None
    };

    let infl_options = tuned_options
        .as_ref()
        .map(|o| o.influence.clone())
        .unwrap_or_default();
    if emit == "tree" || emit == "all" {
        let tree = build_influence_tree(&kernel, &infl_options);
        println!("== influence constraint tree ==");
        print!("{}", tree.render());
    }
    let compiled = match match &tuned_options {
        Some(opts) => {
            polyject_codegen::compile_with_options(&kernel, config, &Budget::unlimited(), opts)
        }
        None => compile(&kernel, config),
    } {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if emit == "schedule" || emit == "all" {
        println!("== schedule ({}) ==", config.name());
        print!("{}", compiled.schedule.render(&kernel));
    }
    if emit == "schedtree" || emit == "all" {
        println!("== schedule tree ==");
        let st = schedule_tree(&kernel, &compiled.schedule);
        print!("{}", render_schedule_tree(&st, &kernel));
    }
    if emit == "code" || emit == "all" {
        println!("== generated code ({}) ==", config.name());
        print!("{}", render(&compiled.ast, &kernel));
    }
    if emit == "cuda" || emit == "all" {
        println!("== CUDA source ==");
        print!("{}", render_cuda(&compiled.ast, &kernel));
    }
    if emit == "profile" || emit == "all" {
        println!("== simulated profile (V100) ==");
        print!(
            "{}",
            profile(&compiled.ast, &kernel, &GpuModel::v100()).render()
        );
    }
    if emit == "pj" {
        match emit_pj(&kernel) {
            Ok(src) => print!("{src}"),
            Err(e) => eprintln!("cannot re-emit: {e}"),
        }
    }
    if emit == "time" || emit == "all" {
        let t = estimate(&compiled.ast, &kernel, &GpuModel::v100());
        println!(
            "== simulated V100: {:.4} ms (bound by {}, {} vectorized loop(s)) ==",
            t.ms(),
            t.bottleneck(),
            compiled.vector_loops
        );
    }
    ExitCode::SUCCESS
}

/// Splits a multi-kernel `.pj` file into one source per `kernel` block.
/// A prologue before the first `kernel` line (file-header comments) is
/// dropped rather than submitted as a bogus item.
fn split_kernels(src: &str) -> Vec<String> {
    let mut entries: Vec<String> = Vec::new();
    for line in src.lines() {
        if line.trim_start().starts_with("kernel ") || entries.is_empty() {
            entries.push(String::new());
        }
        let entry = entries.last_mut().expect("entry started above");
        entry.push_str(line);
        entry.push('\n');
    }
    entries.retain(|e| e.lines().any(|l| l.trim_start().starts_with("kernel ")));
    entries
}

/// Compiles every kernel in `batch_file` through the fleet in one
/// `compile_batch` round trip per shard, printing a per-item summary
/// line in request order plus the round-trip count a sequential client
/// would have spent one-per-kernel.
fn run_batch(endpoints: &[Endpoint], batch_file: &str, config: Config) -> ExitCode {
    let src = match std::fs::read_to_string(batch_file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{batch_file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let items: Vec<BatchItem> = split_kernels(&src)
        .into_iter()
        .map(|s| BatchItem::new(s, config.name()))
        .collect();
    if items.is_empty() {
        eprintln!("{batch_file}: no kernels found (expected `kernel <name>` blocks)");
        return ExitCode::FAILURE;
    }
    let (replies, round_trips) =
        ShardedClient::new(endpoints.to_vec(), GpuModel::v100()).compile_batch(&items);
    let mut failed = 0usize;
    for (i, resp) in replies.iter().enumerate() {
        match resp.str_field("status") {
            Ok("ok") => {
                let cached = resp.get("cached").and_then(Json::as_bool).unwrap_or(false);
                println!(
                    "[{i}] ok key={} vector_loops={} {}{}",
                    resp.str_field("key").unwrap_or("?"),
                    resp.get("vector_loops").and_then(Json::as_u64).unwrap_or(0),
                    if cached { "cached" } else { "compiled" },
                    resp.str_field("via")
                        .map(|v| format!(" via={v}"))
                        .unwrap_or_default(),
                );
            }
            Ok("overloaded") => {
                failed += 1;
                println!("[{i}] overloaded (retry later)");
            }
            _ => {
                failed += 1;
                println!(
                    "[{i}] error: {}",
                    resp.str_field("message").unwrap_or("daemon error")
                );
            }
        }
    }
    println!(
        "[batch] {} kernel(s), {} ok, {} failed, {} round trip(s)",
        replies.len(),
        replies.len() - failed,
        failed,
        round_trips,
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Delegates the compile to the key's replicas across the fleet the
/// comma-separated endpoints name (one daemon or router is a fleet of
/// one), then prints the requested artifacts from the reply.
fn run_remote(
    endpoints: &[Endpoint],
    file: &str,
    src: &str,
    config: Config,
    emit: &str,
) -> ExitCode {
    if emit == "tree" || emit == "profile" {
        eprintln!("--emit {emit} needs the in-process pipeline; drop --remote to use it");
        return ExitCode::FAILURE;
    }
    let mut fleet = ShardedClient::new(endpoints.to_vec(), GpuModel::v100());
    let resp = match fleet.compile(src, config.name()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("no daemon answered: {e}");
            return ExitCode::FAILURE;
        }
    };
    match resp.str_field("status") {
        Ok("ok") => {}
        Ok("overloaded") => {
            eprintln!("daemon overloaded; retry later");
            return ExitCode::FAILURE;
        }
        _ => {
            eprintln!(
                "{file}: {}",
                resp.str_field("message").unwrap_or("daemon error")
            );
            return ExitCode::FAILURE;
        }
    }
    let cached = resp.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let field = |name: &str| resp.str_field(name).unwrap_or("");
    if emit == "schedule" || emit == "all" {
        println!("== schedule ({}) ==", config.name());
        print!("{}", field("schedule"));
    }
    if emit == "schedtree" || emit == "all" {
        println!("== schedule tree ==");
        print!("{}", field("schedule_tree"));
    }
    if emit == "code" || emit == "all" {
        println!("== generated code ({}) ==", config.name());
        print!("{}", field("code"));
    }
    if emit == "cuda" || emit == "all" {
        println!("== CUDA source ==");
        print!("{}", field("cuda"));
    }
    if emit == "pj" {
        print!("{}", field("canonical_pj"));
    }
    if emit == "time" || emit == "all" {
        let pairs: Vec<(String, f64)> = resp
            .get("timing")
            .and_then(Json::as_obj)
            .map(|fields| {
                fields
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                    .collect()
            })
            .unwrap_or_default();
        let t = KernelTiming::from_pairs(pairs.iter().map(|(k, v)| (k.as_str(), *v)));
        let vector_loops = resp.get("vector_loops").and_then(Json::as_u64).unwrap_or(0);
        println!(
            "== simulated V100: {:.4} ms (bound by {}, {} vectorized loop(s), {}) ==",
            t.ms(),
            t.bottleneck(),
            vector_loops,
            if cached { "cached" } else { "compiled" },
        );
    }
    ExitCode::SUCCESS
}
