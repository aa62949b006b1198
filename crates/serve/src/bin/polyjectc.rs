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

use polyject_codegen::{compile_with_options, render_artifacts, Artifacts, CompileOptions, Config};
use polyject_core::{build_influence_tree, Budget};
use polyject_front::{emit_pj, parse};
use polyject_gpusim::{estimate, profile, GpuModel, KernelTiming};
use polyject_serve::args::{self, Args};
use polyject_serve::client::ShardedClient;
use polyject_serve::{
    config_by_name, tune_cached, BatchItem, CompileReply, CompileService, DiskCache, Endpoint,
    Json, Verdict,
};
use polyject_tune::TuneOptions;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: polyjectc <file.pj> [--config isl|novec|infl] \
     [--emit code|cuda|schedule|schedtree|tree|profile|pj|time|all] \
     [--remote <endpoint>[,<endpoint>...]] [--batch <file.pj>] \
     [--tune [--tune-seed <n>] [--cache-dir <dir>]]";

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

/// Whether `--emit <emit>` asks for `section`.
fn wants(emit: &str, section: &str) -> bool {
    emit == section || emit == "all"
}

struct Cli {
    file: Option<String>,
    config: Config,
    emit: String,
    remote: Vec<Endpoint>,
    batch: Option<String>,
    tune: bool,
    tune_seed: Option<u64>,
    cache_dir: Option<PathBuf>,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli {
        file: None,
        config: Config::Influenced,
        emit: "all".to_string(),
        remote: Vec::new(),
        batch: None,
        tune: false,
        tune_seed: None,
        cache_dir: None,
    };
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--config" => cli.config = config_by_name(&args.value()?)?,
            "--emit" => cli.emit = args.value()?,
            "--remote" => cli.remote = args.endpoints()?,
            "--batch" => cli.batch = Some(args.value()?),
            "--tune" => cli.tune = true,
            "--tune-seed" => cli.tune_seed = Some(args.int()?),
            "--cache-dir" => cli.cache_dir = Some(args.value()?.into()),
            flag if flag.starts_with("--") || cli.file.is_some() => return Err(args.unexpected()),
            _ => cli.file = Some(arg),
        }
    }
    // A typo'd --emit would otherwise print nothing (every section
    // check simply misses), and a flag nobody reads is a silent no-op.
    let (emit, remote) = (cli.emit.as_str(), !cli.remote.is_empty());
    if !EMIT_VALUES.contains(&emit) {
        let expected = EMIT_VALUES.join("|");
        Err(format!(
            "unknown --emit {emit:?} (expected one of: {expected})"
        ))
    } else if cli.batch.is_some() != cli.file.is_none() {
        Err("expected one <file.pj>, or --batch <file.pj> in its place".to_string())
    } else if cli.batch.is_some() && !remote {
        Err("--batch delegates to daemons; it needs --remote".to_string())
    } else if remote && (cli.tune || matches!(emit, "tree" | "profile")) {
        Err(
            "--tune, --emit tree and --emit profile need the in-process pipeline; drop --remote"
                .to_string(),
        )
    } else if !cli.tune && (cli.tune_seed.is_some() || cli.cache_dir.is_some()) {
        Err("--tune-seed and --cache-dir configure --tune; without it they do nothing".to_string())
    } else {
        Ok(cli)
    }
}

fn main() -> ExitCode {
    let cli = args::parse(USAGE, parse_args);
    let outcome = match (&cli.batch, &cli.file) {
        (Some(batch_file), _) => run_batch(&cli.remote, batch_file, cli.config),
        (None, Some(file)) => std::fs::read_to_string(file)
            .map_err(|e| format!("{file}: {e}"))
            .and_then(|src| match cli.remote.is_empty() {
                true => compile_local(&cli, file, &src),
                false => compile_remote(&cli.remote, file, &src, cli.config),
            })
            .map(|output| output.print(cli.config, &cli.emit)),
        (None, None) => unreachable!("parse_args demands a file or a batch"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// What one compile has to show, whichever side produced it.
struct Output {
    /// [`render_artifacts`] locally, the reply's fields remotely — the
    /// same strings, since the daemon fills its reply from that function.
    artifacts: Artifacts,
    timing: KernelTiming,
    /// The canonical `.pj` rendering.
    pj: String,
    /// Local only: these need the in-process pipeline.
    tree: Option<String>,
    profile: Option<String>,
    /// Remote only: whether the daemon replayed the artifact from cache.
    cached: Option<bool>,
}

impl Output {
    /// Prints the sections `emit` asks for, in one order for both sides.
    fn print(&self, config: Config, emit: &str) {
        let section = |name: &str, title: &str, body: Option<&String>| {
            if let (true, Some(body)) = (wants(emit, name), body) {
                println!("== {title} ==");
                print!("{body}");
            }
        };
        let (art, config) = (&self.artifacts, config.name());
        section("tree", "influence constraint tree", self.tree.as_ref());
        section(
            "schedule",
            &format!("schedule ({config})"),
            Some(&art.schedule),
        );
        section("schedtree", "schedule tree", Some(&art.schedule_tree));
        section(
            "code",
            &format!("generated code ({config})"),
            Some(&art.code),
        );
        section("cuda", "CUDA source", Some(&art.cuda));
        section("profile", "simulated profile (V100)", self.profile.as_ref());
        if emit == "pj" {
            print!("{}", self.pj);
        }
        if wants(emit, "time") {
            println!(
                "== simulated V100: {:.4} ms (bound by {}, {} vectorized loop(s){}) ==",
                self.timing.ms(),
                self.timing.bottleneck(),
                art.vector_loops,
                match self.cached {
                    None => "",
                    Some(true) => ", cached",
                    Some(false) => ", compiled",
                },
            );
        }
    }
}

/// Compiles in process — after the autotuner, with `--tune`: the
/// winner's options shape everything shown. The `[tune]` line is
/// deterministic for a fixed seed (model times only, no wall clock).
fn compile_local(cli: &Cli, file: &str, src: &str) -> Result<Output, String> {
    let gpu = GpuModel::v100();
    let kernel = parse(src).map_err(|e| format!("{file}:{e}"))?;
    let mut opts = CompileOptions::default();
    if cli.tune {
        let cache = match &cli.cache_dir {
            Some(dir) => Some(
                DiskCache::open_default(dir)
                    .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        let svc = CompileService::new(cache, gpu.clone());
        let tune_opts = TuneOptions {
            seed: cli.tune_seed.unwrap_or(TuneOptions::default().seed),
            ..TuneOptions::default()
        };
        let report = tune_cached(&svc, src, cli.config.name(), &tune_opts)
            .map_err(|e| format!("{file}: tuning failed: {e}"))?;
        println!(
            "[tune] default_ms={:.6} tuned_ms={:.6} speedup={:.3} evaluated={} cached={}",
            report.tuned.default_time * 1e3,
            report.tuned.tuned_time * 1e3,
            report.tuned.speedup(),
            report.tuned.evaluated,
            report.cached,
        );
        opts = report.tuned.to_compile_options();
    }
    let compiled = compile_with_options(&kernel, cli.config, &Budget::unlimited(), &opts)
        .map_err(|e| format!("{file}: {e}"))?;
    Ok(Output {
        artifacts: render_artifacts(&kernel, &compiled),
        timing: estimate(&compiled.ast, &kernel, &gpu),
        pj: emit_pj(&kernel).map_err(|e| format!("{file}: cannot re-emit: {e}"))?,
        tree: wants(&cli.emit, "tree")
            .then(|| build_influence_tree(&kernel, &opts.influence).render()),
        profile: wants(&cli.emit, "profile")
            .then(|| profile(&compiled.ast, &kernel, &gpu).render()),
        cached: None,
    })
}

/// Delegates the compile to the key's replicas across the fleet the
/// endpoints name (one daemon or router is a fleet of one).
fn compile_remote(
    endpoints: &[Endpoint],
    file: &str,
    src: &str,
    config: Config,
) -> Result<Output, String> {
    let resp = ShardedClient::new(endpoints.to_vec(), GpuModel::v100())
        .compile(src, config.name())
        .map_err(|e| format!("no daemon answered: {e}"))?;
    match Verdict::of(&resp) {
        Verdict::Ok => {}
        Verdict::Overloaded => return Err("daemon overloaded; retry later".to_string()),
        _ => {
            let why = resp.str_field("message").unwrap_or("daemon error");
            return Err(format!("{file}: {why}"));
        }
    }
    // `ok` responses embed the reply fields at the top level.
    let reply = CompileReply::from_json(&resp).map_err(|e| format!("malformed reply: {e}"))?;
    Ok(Output {
        timing: KernelTiming::from_pairs(reply.timing.iter().map(|(k, v)| (k.as_str(), *v))),
        artifacts: Artifacts {
            code: reply.code,
            cuda: reply.cuda,
            schedule: reply.schedule,
            schedule_tree: reply.schedule_tree,
            vector_loops: usize::try_from(reply.vector_loops).unwrap_or(usize::MAX),
            influenced: reply.influenced,
        },
        pj: reply.canonical_pj,
        tree: None,
        profile: None,
        cached: resp.get("cached").and_then(Json::as_bool),
    })
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
fn run_batch(endpoints: &[Endpoint], batch_file: &str, config: Config) -> Result<(), String> {
    let src = std::fs::read_to_string(batch_file).map_err(|e| format!("{batch_file}: {e}"))?;
    let items: Vec<BatchItem> = split_kernels(&src)
        .into_iter()
        .map(|s| BatchItem::new(s, config.name()))
        .collect();
    if items.is_empty() {
        return Err(format!(
            "{batch_file}: no kernels found (expected `kernel <name>` blocks)"
        ));
    }
    let (replies, round_trips) =
        ShardedClient::new(endpoints.to_vec(), GpuModel::v100()).compile_batch(&items);
    let mut failed = 0usize;
    for (i, resp) in replies.iter().enumerate() {
        match Verdict::of(resp) {
            Verdict::Ok => {
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
            Verdict::Overloaded => {
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
    match failed {
        0 => Ok(()),
        n => Err(format!("{batch_file}: {n} kernel(s) failed")),
    }
}
