//! `polyjectd` — the long-lived compilation daemon.
//!
//! ```text
//! polyjectd [--socket <path> | --tcp <host:port>]
//!           [--cache-dir <dir>] [--cache-max-bytes <n>]
//!           [--workers <n>] [--queue-bound <n>] [--timeout-secs <n>]
//!           [--max-frame-bytes <n>] [--gpu v100|a100|consumer]
//!           [--background-tune] [--hot-entries <n>]
//!           [--fault-io <seed>/<one_in>]
//! ```
//!
//! `--hot-entries` bounds the in-memory hot tier above the disk cache
//! (0 disables it); `--fault-io` wires the seeded fault injector in
//! front of every cache file operation — chaos suites only.
//!
//! With `--background-tune` (needs `--cache-dir`), idle time is spent
//! autotuning cached kernels: the daemon picks cached compiles without
//! a persisted tuned configuration, searches the knob space one kernel
//! at a time, and stops the moment a request arrives. Later compiles of
//! a tuned kernel apply its configuration automatically.
//!
//! Serves the length-prefixed JSON protocol (see `polyject_serve::protocol`)
//! until SIGTERM/SIGINT or a `shutdown` request, then flushes the cache
//! index and dumps final stats as JSON on stdout.

use polyject_gpusim::GpuModel;
use polyject_serve::{run_daemon, DaemonConfig, Endpoint};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: polyjectd [--socket <path> | --tcp <host:port>] \
     [--cache-dir <dir>] [--cache-max-bytes <n>] [--workers <n>] \
     [--queue-bound <n>] [--timeout-secs <n>] [--max-frame-bytes <n>] \
     [--gpu v100|a100|consumer] [--background-tune] [--hot-entries <n>] \
     [--fault-io <seed>/<one_in>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run_daemon(config) {
        Ok(report) => {
            // The final stats dump, parseable by scripts.
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("polyjectd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the command line; `Ok(None)` is `--help`.
fn parse_args(args: &[String]) -> Result<Option<DaemonConfig>, String> {
    let mut config = DaemonConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn int<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} needs an integer"))
        }
        match flag.as_str() {
            "--socket" => config.endpoint = Endpoint::Unix(value()?.into()),
            "--tcp" => config.endpoint = Endpoint::Tcp(value()?.clone()),
            "--cache-dir" => config.cache_dir = Some(value()?.into()),
            "--cache-max-bytes" => config.cache_max_bytes = int(flag, value()?)?,
            "--workers" => config.workers = int(flag, value()?)?,
            "--queue-bound" => config.queue_bound = int(flag, value()?)?,
            "--timeout-secs" => config.request_timeout = Duration::from_secs(int(flag, value()?)?),
            "--max-frame-bytes" => config.max_frame = int(flag, value()?)?,
            "--gpu" => {
                config.gpu = match value()?.as_str() {
                    "v100" => GpuModel::v100(),
                    "a100" => GpuModel::a100(),
                    "consumer" => GpuModel::consumer(),
                    other => return Err(format!("unknown --gpu {other:?} (v100|a100|consumer)")),
                }
            }
            "--background-tune" => config.background_tune = true,
            "--hot-entries" => config.hot_entries = int(flag, value()?)?,
            "--fault-io" => {
                let parsed = value()?
                    .split_once('/')
                    .and_then(|(seed, one_in)| Some((seed.parse().ok()?, one_in.parse().ok()?)));
                config.cache_faults =
                    Some(parsed.ok_or("--fault-io needs <seed>/<one_in>, e.g. 7/50")?);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unexpected argument {other}\n{USAGE}")),
        }
    }
    if config.background_tune && config.cache_dir.is_none() {
        return Err(
            "--background-tune needs --cache-dir (tuned configs persist in the cache)".to_string(),
        );
    }
    Ok(Some(config))
}
