//! `polyject-cache` — inspect and maintain a persistent schedule cache.
//!
//! ```text
//! polyject-cache <cache-dir> stats
//! polyject-cache <cache-dir> ls
//! polyject-cache <cache-dir> rm <key>
//! polyject-cache <cache-dir> verify
//! polyject-cache <cache-dir> purge-quarantine
//! polyject-cache <cache-dir> warm <dir-of-.pj-files> [--config isl|novec|infl|all] [--workers <n>]
//! polyject-cache stats --remote <endpoint>[,<endpoint>...]
//! ```
//!
//! `stats --remote` asks running `polyjectd` daemons (or a router) for
//! their `metrics` report (per-shard identity, hit/miss/cancel/transfer
//! counters, hot-tier and fault-injection state) instead of opening a
//! cache directory, and prints one schema whether the comma-separated
//! list names one endpoint or a fleet: `status`, `shards`, `reachable`,
//! fleet-wide `totals` (numeric counters summed across shards) and the
//! `per_shard` breakdown. Unreachable shards are reported per shard and
//! fail the exit status without hiding the reachable ones.
//!
//! `warm` compiles every `.pj` file under the given directory through the
//! cache (on a worker pool) and writes `compile` entries, so a daemon
//! started on the directory answers those kernels as hits.

use polyject_codegen::Config;
use polyject_core::Budget;
use polyject_gpusim::GpuModel;
use polyject_serve::args::{self, Args};
use polyject_serve::{
    config_by_name, decode_tuned, default_workers, parallel_map, Client, CompileService, DiskCache,
    Endpoint, Json, Lookup, Request, Served, Verdict, TUNED_KIND,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: polyject-cache <cache-dir> \
     stats|ls|rm <key>|verify|purge-quarantine|warm <dir> \
     [--config isl|novec|infl|all] [--workers <n>] | \
     polyject-cache stats --remote <endpoint>[,<endpoint>...]";

#[derive(Default)]
struct Cli {
    remote: Vec<Endpoint>,
    /// `<cache-dir> <command> [<key> | <dir>]`, or `stats` with `--remote`.
    words: Vec<String>,
    /// `warm` only: what to compile under, on how many workers.
    configs: Option<Vec<Config>>,
    workers: Option<usize>,
}

fn parse_args(args: &mut Args) -> Result<Cli, String> {
    let mut cli = Cli::default();
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--remote" => cli.remote = args.endpoints()?,
            "--config" => {
                cli.configs = Some(match args.value()?.as_str() {
                    "all" => Config::all().to_vec(),
                    one => vec![config_by_name(one)?],
                })
            }
            "--workers" => cli.workers = Some(args.int()?),
            flag if flag.starts_with("--") => return Err(args.unexpected()),
            _ => cli.words.push(arg),
        }
    }
    let words: Vec<&str> = cli.words.iter().map(String::as_str).collect();
    let local = cli.remote.is_empty();
    let warm_flags = cli.configs.is_some() || cli.workers.is_some();
    match words.as_slice() {
        [_, "warm", _] if local => Ok(cli),
        _ if warm_flags => Err("--config and --workers go with `warm <dir>`".to_string()),
        ["stats"] if !local => Ok(cli),
        [_, "stats" | "ls" | "verify" | "purge-quarantine"] | [_, "rm", _] if local => Ok(cli),
        [_, cmd, ..] if local => Err(format!("unknown command or argument count: {cmd}")),
        _ => Err("expected <cache-dir> <command>, or `stats` with --remote".to_string()),
    }
}

fn main() -> ExitCode {
    let cli = args::parse(USAGE, parse_args);
    if !cli.remote.is_empty() {
        return remote_stats(&cli.remote);
    }
    let dir = &cli.words[0];
    let mut cache = match DiskCache::open_default(Path::new(dir)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open cache {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cli.words[1].as_str() {
        "stats" => {
            // Per-kind entry counts (compile replies vs tuned configs vs
            // anything future), sorted by kind for stable output.
            let mut kinds: Vec<(String, u64)> = Vec::new();
            for (_, kind, _, _) in cache.list() {
                match kinds.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => kinds.push((kind, 1)),
                }
            }
            kinds.sort();
            let by_kind = Json::Obj(
                kinds
                    .into_iter()
                    .map(|(k, n)| (k, Json::Num(n as f64)))
                    .collect(),
            );
            let report = Json::obj(vec![
                ("dir", Json::Str(dir.clone())),
                ("entries", Json::Num(cache.len() as f64)),
                ("bytes", Json::Num(cache.total_bytes() as f64)),
                ("by_kind", by_kind),
            ]);
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        "ls" => {
            for (key, kind, bytes, last_used) in cache.list() {
                // Tuned configs get their headline numbers inline, so a
                // plain `ls` shows what tuning bought each kernel.
                let detail = if kind == TUNED_KIND {
                    cache
                        .get(&key)
                        .and_then(|(_, payload)| decode_tuned(&payload).ok())
                        .map(|t| {
                            format!(
                                "  speedup={:.3} evaluated={} seed={:016x}",
                                t.speedup(),
                                t.evaluated,
                                t.seed
                            )
                        })
                        .unwrap_or_default()
                } else {
                    String::new()
                };
                println!("{key}  {kind:<12}  {bytes:>8} B  used@{last_used}{detail}");
            }
            ExitCode::SUCCESS
        }
        "rm" => {
            let key = &cli.words[2];
            if cache.remove(key) {
                if let Err(e) = cache.flush() {
                    eprintln!("index flush failed: {e}");
                    return ExitCode::FAILURE;
                }
                println!("removed {key}");
                ExitCode::SUCCESS
            } else {
                eprintln!("no entry {key}");
                ExitCode::FAILURE
            }
        }
        "verify" => {
            let (ok, quarantined) = cache.verify();
            if let Err(e) = cache.flush() {
                eprintln!("index flush failed: {e}");
                return ExitCode::FAILURE;
            }
            // Exit status gates on *this run's* findings. Corpses left
            // by earlier runs are reported as a backlog but must not
            // keep CI red forever after one transient corruption —
            // operators acknowledge them with `purge-quarantine`.
            let backlog = cache.quarantined_count();
            println!("verified: {ok} ok, {quarantined} quarantined, {backlog} in quarantine");
            if quarantined == 0 {
                if backlog > 0 {
                    eprintln!(
                        "note: {backlog} quarantined corpse(s) from earlier runs await \
                         inspection (`polyject-cache {dir} purge-quarantine` clears them)"
                    );
                }
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "verify failed: {quarantined} corrupt entrie(s) quarantined this run \
                     (CI should gate on this)"
                );
                ExitCode::FAILURE
            }
        }
        "purge-quarantine" => match cache.purge_quarantine() {
            Ok(n) => {
                println!("purged {n} quarantined corpse(s)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("purge failed: {e}");
                ExitCode::FAILURE
            }
        },
        "warm" => warm(
            cache,
            Path::new(&cli.words[2]),
            &cli.configs.unwrap_or(vec![Config::Influenced]),
            cli.workers.unwrap_or_else(default_workers),
        ),
        other => unreachable!("parse_args let {other} through"),
    }
}

/// Recursively sums the numeric fields of `report` into `total`
/// (objects merge by key; strings, booleans, and arrays are identity
/// fields, not counters, and are skipped). Latency aggregates are
/// skipped too — a sum of per-shard means/percentiles is not a fleet
/// aggregate; the per-shard breakdown keeps them.
fn add_numeric(total: &mut Json, report: &Json) {
    let (Json::Obj(acc), Json::Obj(fields)) = (total, report) else {
        return;
    };
    for (k, v) in fields {
        if k == "latency" {
            continue;
        }
        match v {
            Json::Num(n) => match acc.iter_mut().find(|(ak, _)| ak == k) {
                Some((_, Json::Num(a))) => *a += n,
                Some(_) => {}
                None => acc.push((k.clone(), Json::Num(*n))),
            },
            Json::Obj(_) => {
                if !acc.iter().any(|(ak, _)| ak == k) {
                    acc.push((k.clone(), Json::Obj(Vec::new())));
                }
                let slot = acc
                    .iter_mut()
                    .find_map(|(ak, av)| (ak == k).then_some(av))
                    .expect("slot pushed above");
                add_numeric(slot, v);
            }
            _ => {}
        }
    }
}

/// Polls every endpoint for its `metrics` report and prints the fleet
/// report — one endpoint is a fleet of one: fleet-wide totals plus the
/// per-shard breakdown. Unreachable shards appear in the breakdown with
/// an `error` field; the exit status is nonzero unless every shard
/// answered `ok`.
fn remote_stats(endpoints: &[Endpoint]) -> ExitCode {
    let mut totals = Json::Obj(Vec::new());
    let mut per_shard = Vec::new();
    let mut reachable = 0usize;
    for endpoint in endpoints {
        let result = Client::connect(endpoint).and_then(|mut c| c.request(&Request::Metrics));
        let mut row = vec![("endpoint".to_string(), Json::Str(endpoint.to_string()))];
        match result {
            Ok(resp) if Verdict::of(&resp) == Verdict::Ok => {
                reachable += 1;
                add_numeric(&mut totals, &resp);
                if let Json::Obj(fields) = resp {
                    row.extend(fields.into_iter().filter(|(k, _)| k != "status"));
                }
            }
            Ok(resp) => {
                let why = resp
                    .str_field("message")
                    .unwrap_or("daemon answered non-ok");
                row.push(("error".to_string(), Json::Str(why.to_string())));
            }
            Err(e) => row.push(("error".to_string(), Json::Str(e.to_string()))),
        }
        per_shard.push(Json::Obj(row));
    }
    let all_ok = reachable == endpoints.len();
    let report = Json::obj(vec![
        (
            "status",
            Json::Str(if all_ok { "ok" } else { "degraded" }.to_string()),
        ),
        ("shards", Json::Num(endpoints.len() as f64)),
        ("reachable", Json::Num(reachable as f64)),
        ("totals", totals),
        ("per_shard", Json::Arr(per_shard)),
    ]);
    println!("{}", report.render_pretty());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn warm(cache: DiskCache, src_dir: &Path, configs: &[Config], workers: usize) -> ExitCode {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(src_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "pj"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", src_dir.display());
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("no .pj files under {}", src_dir.display());
        return ExitCode::FAILURE;
    }
    let jobs: Vec<(PathBuf, &str)> = files
        .iter()
        .flat_map(|f| configs.iter().map(move |c| (f.clone(), c.name())))
        .collect();
    let service = CompileService::new(Some(cache), GpuModel::v100());
    let outcomes = parallel_map(&jobs, workers, |(path, config)| {
        let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Ok::<_, String>(match service.prepare(&src, config)? {
            Lookup::Hit(_) => Served::Hit,
            Lookup::Miss(request) => service.compile(request, &Budget::unlimited())?.1,
        })
    });
    let (mut fresh, mut hit, mut failed) = (0, 0, 0);
    for ((path, config), outcome) in jobs.iter().zip(&outcomes) {
        match outcome {
            Ok(Served::Hit) => hit += 1,
            Ok(_) => fresh += 1,
            Err(e) => {
                failed += 1;
                eprintln!("{} ({config}): {e}", path.display());
            }
        }
    }
    println!(
        "warmed {} job(s): {fresh} compiled, {hit} already cached, {failed} failed",
        jobs.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
