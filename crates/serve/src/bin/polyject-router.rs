//! `polyject-router` — the replicated-sharding front for a fleet of
//! `polyjectd` daemons.
//!
//! ```text
//! polyject-router [--socket <path> | --tcp <host:port>]
//!                 --shard <endpoint> [--shard <endpoint> ...]
//!                 [--replication <n>] [--hedge-ms <n>] [--retries <n>]
//!                 [--backoff-ms <n>] [--backoff-cap-ms <n>]
//!                 [--io-timeout-secs <n>] [--seed <n>]
//!                 [--hot-threshold <n>] [--gpu v100|a100|consumer]
//! ```
//!
//! Speaks the same length-prefixed JSON protocol as the daemons:
//! `compile` requests are consistent-hash routed (with hedging, retry,
//! failover, and hot-key replication — see `polyject_serve::router`),
//! `stats` returns the router's shallow per-shard counters, `metrics`
//! additionally probes every shard for replica lag, and `join`/`leave`
//! change membership with a warm transfer of re-homed entries.

use polyject_gpusim::GpuModel;
use polyject_serve::protocol::{error_response, ok_with, write_frame, ReplyWriter, MAX_FRAME};
use polyject_serve::transport::{self, Listener};
use polyject_serve::{BatchItem, Endpoint, Json, Request, Router, RouterConfig};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: polyject-router [--socket <path> | --tcp <host:port>] \
     --shard <endpoint> [--shard <endpoint> ...] [--replication <n>] \
     [--hedge-ms <n>] [--retries <n>] [--backoff-ms <n>] [--backoff-cap-ms <n>] \
     [--io-timeout-secs <n>] [--seed <n>] [--hot-threshold <n>] \
     [--gpu v100|a100|consumer]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (endpoint, config) = match parse_args(&args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(endpoint, config) {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("polyject-router: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the command line; `Ok(None)` is `--help`.
fn parse_args(args: &[String]) -> Result<Option<(Endpoint, RouterConfig)>, String> {
    let mut endpoint = Endpoint::Unix("polyject-router.sock".into());
    let mut config = RouterConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let int = |v: &String| -> Result<u64, String> {
            v.parse().map_err(|_| format!("{flag} needs an integer"))
        };
        match flag.as_str() {
            "--socket" => endpoint = Endpoint::Unix(value()?.into()),
            "--tcp" => endpoint = Endpoint::Tcp(value()?.clone()),
            "--shard" => config
                .shards
                .push(Endpoint::parse(value()?).map_err(|e| format!("bad --shard endpoint: {e}"))?),
            "--replication" => config.replication = int(value()?)? as usize,
            "--hedge-ms" => config.hedge_after = Duration::from_millis(int(value()?)?),
            "--retries" => config.retries = int(value()?)? as u32,
            "--backoff-ms" => config.backoff_base = Duration::from_millis(int(value()?)?),
            "--backoff-cap-ms" => config.backoff_cap = Duration::from_millis(int(value()?)?),
            "--io-timeout-secs" => config.io_timeout = Duration::from_secs(int(value()?)?),
            "--seed" => config.seed = int(value()?)?,
            "--hot-threshold" => config.hot_threshold = int(value()?)?,
            "--gpu" => {
                config.gpu = match value()?.as_str() {
                    "v100" => GpuModel::v100(),
                    "a100" => GpuModel::a100(),
                    "consumer" => GpuModel::consumer(),
                    other => return Err(format!("unknown --gpu {other:?} (v100|a100|consumer)")),
                }
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unexpected argument {other}\n{USAGE}")),
        }
    }
    if config.shards.is_empty() {
        return Err(format!("at least one --shard is required\n{USAGE}"));
    }
    Ok(Some((endpoint, config)))
}

fn run(endpoint: Endpoint, config: RouterConfig) -> Result<Json, String> {
    let listener = Listener::bind(&endpoint).map_err(|e| format!("bind {endpoint}: {e}"))?;
    eprintln!(
        "[polyject-router] listening on {endpoint}, {} shard(s)",
        config.shards.len()
    );
    let router = Arc::new(Router::new(config));
    let stop = Arc::new(AtomicBool::new(false));
    let (conn_router, conn_stop) = (Arc::clone(&router), Arc::clone(&stop));
    listener.serve(
        || stop.load(Ordering::SeqCst),
        || {},
        move |stream| {
            transport::serve_conn(
                stream,
                MAX_FRAME,
                || conn_stop.load(Ordering::SeqCst),
                |frame, out| dispatch(&conn_router, frame, &conn_stop, out),
            )
        },
    );
    Ok(router.metrics_json(false))
}

/// Answers one request frame on `out`; `false` closes the connection.
/// Both compile ops are one `Router::compile_batch` call — the router
/// scatter-gathers, so replies go out reassembled in request order —
/// and differ only in the [`ReplyWriter`] framing.
fn dispatch(router: &Router, frame: &Json, stop: &AtomicBool, out: &mut impl Write) -> bool {
    let req = match Request::from_json(frame) {
        Ok(r) => r,
        Err(e) => return write_frame(out, &error_response(&e)).is_ok(),
    };
    let reply = match req {
        Request::Compile { src, config, .. } => {
            let replies = router.compile_batch(&[BatchItem { src, config }]);
            return write_replies(ReplyWriter::bare(out), replies);
        }
        Request::CompileBatch { items, .. } => {
            let replies = router.compile_batch(&items);
            return write_replies(ReplyWriter::envelope(out, items.len()), replies);
        }
        Request::Ping => ok_with(vec![("pong", Json::Bool(true))]),
        Request::Stats => router.metrics_json(false),
        Request::Metrics => router.metrics_json(true),
        Request::Join { endpoint } => match Endpoint::parse(&endpoint) {
            Ok(ep) => router.join(&ep),
            Err(e) => error_response(&format!("bad join endpoint: {e}")),
        },
        Request::Leave { endpoint } => match Endpoint::parse(&endpoint) {
            Ok(ep) => router.leave(&ep),
            Err(e) => error_response(&format!("bad leave endpoint: {e}")),
        },
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            let _ = write_frame(out, &ok_with(vec![("stopping", Json::Bool(true))]));
            return false;
        }
        Request::Cancel { .. }
        | Request::Keys
        | Request::Fetch { .. }
        | Request::Transfer { .. } => {
            error_response("cache-entry operations address a polyjectd shard, not the router")
        }
    };
    write_frame(out, &reply).is_ok()
}

fn write_replies<W: Write>(mut out: ReplyWriter<'_, W>, replies: Vec<Json>) -> bool {
    for (i, reply) in replies.into_iter().enumerate() {
        out.item(i, reply);
    }
    out.finish()
}
