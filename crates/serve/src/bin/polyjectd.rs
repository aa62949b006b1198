//! `polyjectd` — the long-lived compilation daemon.
//!
//! ```text
//! polyjectd [--socket <path> | --tcp <host:port>]
//!           [--cache-dir <dir>] [--cache-max-bytes <n>]
//!           [--workers <n>] [--queue-bound <n>] [--timeout-secs <n>]
//!           [--max-frame-bytes <n>] [--gpu v100|a100|consumer]
//!           [--hot-entries <n>] [--fault-io <seed>/<one_in>]
//! ```
//!
//! `--hot-entries` bounds the in-memory hot tier above the disk cache
//! (0 disables it); `--fault-io` wires the seeded fault injector in
//! front of every cache file operation — chaos suites only.
//!
//! The daemon never tunes. A `tuned-config` entry persisted into its
//! `--cache-dir` by `polyjectc --tune` is applied to later compiles of
//! that kernel automatically.
//!
//! Serves the length-prefixed JSON protocol (see `polyject_serve::protocol`)
//! until SIGTERM/SIGINT or a `shutdown` request, then flushes the cache
//! index and dumps final stats as JSON on stdout.

use polyject_serve::args::{self, Args};
use polyject_serve::{run_daemon, DaemonConfig, Endpoint};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: polyjectd [--socket <path> | --tcp <host:port>] \
     [--cache-dir <dir>] [--cache-max-bytes <n>] [--workers <n>] \
     [--queue-bound <n>] [--timeout-secs <n>] [--max-frame-bytes <n>] \
     [--gpu v100|a100|consumer] [--hot-entries <n>] [--fault-io <seed>/<one_in>]";

fn main() -> ExitCode {
    match run_daemon(args::parse(USAGE, parse_args)) {
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

fn parse_args(args: &mut Args) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--socket" => config.endpoint = Endpoint::Unix(args.value()?.into()),
            "--tcp" => config.endpoint = Endpoint::Tcp(args.value()?),
            "--cache-dir" => config.cache_dir = Some(args.value()?.into()),
            "--cache-max-bytes" => config.cache_max_bytes = args.int()?,
            "--workers" => config.workers = args.int()?,
            "--queue-bound" => config.queue_bound = args.int()?,
            "--timeout-secs" => config.request_timeout = Duration::from_secs(args.int()?),
            "--max-frame-bytes" => config.max_frame = args.int()?,
            "--gpu" => config.gpu = args.gpu()?,
            "--hot-entries" => config.hot_entries = args.int()?,
            "--fault-io" => {
                let value = args.value()?;
                let parsed = value
                    .split_once('/')
                    .and_then(|(seed, one_in)| Some((seed.parse().ok()?, one_in.parse().ok()?)));
                config.cache_faults =
                    Some(parsed.ok_or("--fault-io needs <seed>/<one_in>, e.g. 7/50")?);
            }
            _ => return Err(args.unexpected()),
        }
    }
    Ok(config)
}
