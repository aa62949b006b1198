//! `polyject-router` — the replicated-sharding front for a fleet of
//! `polyjectd` daemons.
//!
//! ```text
//! polyject-router [--socket <path> | --tcp <host:port>]
//!                 --shard <endpoint> [--shard <endpoint> ...]
//!                 [--hedge-ms <n>] [--retries <n>] [--backoff-ms <n>]
//!                 [--backoff-cap-ms <n>] [--io-timeout-secs <n>] [--seed <n>]
//!                 [--hot-threshold <n>] [--gpu v100|a100|consumer]
//! ```
//!
//! Speaks the same length-prefixed JSON protocol as the daemons:
//! `compile` requests take the same ring walk as `polyjectc --remote
//! a,b,c` (the router routes through a `ShardedClient`: same keys, same
//! two replicas per key, same scatter) plus hedging, retry, hot-key
//! replication and warm transfer — see `polyject_serve::router`;
//! `stats` returns the router's shallow per-shard counters, `metrics`
//! additionally probes every shard for replica lag, and `join`/`leave`
//! change membership with a warm transfer of re-homed entries.

use polyject_serve::args::{self, Args};
use polyject_serve::protocol::{error_response, ok_with, write_frame, ReplyWriter, MAX_FRAME};
use polyject_serve::transport::{self, Listener};
use polyject_serve::{Endpoint, Json, Request, Router, RouterConfig};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: polyject-router [--socket <path> | --tcp <host:port>] \
     --shard <endpoint> [--shard <endpoint> ...] [--hedge-ms <n>] [--retries <n>] \
     [--backoff-ms <n>] [--backoff-cap-ms <n>] [--io-timeout-secs <n>] [--seed <n>] \
     [--hot-threshold <n>] [--gpu v100|a100|consumer]";

fn main() -> ExitCode {
    let (endpoint, config) = args::parse(USAGE, parse_args);
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

fn parse_args(args: &mut Args) -> Result<(Endpoint, RouterConfig), String> {
    let mut endpoint = Endpoint::Unix("polyject-router.sock".into());
    let mut config = RouterConfig::default();
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--socket" => endpoint = Endpoint::Unix(args.value()?.into()),
            "--tcp" => endpoint = Endpoint::Tcp(args.value()?),
            "--shard" => config.shards.extend(args.endpoints()?),
            "--hedge-ms" => config.hedge_after = Duration::from_millis(args.int()?),
            "--retries" => config.retries = args.int()?,
            "--backoff-ms" => config.backoff_base = Duration::from_millis(args.int()?),
            "--backoff-cap-ms" => config.backoff_cap = Duration::from_millis(args.int()?),
            "--io-timeout-secs" => config.io_timeout = Duration::from_secs(args.int()?),
            "--seed" => config.seed = args.int()?,
            "--hot-threshold" => config.hot_threshold = args.int()?,
            "--gpu" => config.gpu = args.gpu()?,
            _ => return Err(args.unexpected()),
        }
    }
    if config.shards.is_empty() {
        return Err("at least one --shard is required".to_string());
    }
    Ok((endpoint, config))
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
/// A compile is one `Router::compile_batch` call whichever framing it
/// arrived in — the router scatter-gathers, so replies go out
/// reassembled in request order through a [`ReplyWriter`] of that framing.
fn dispatch(router: &Router, frame: &Json, stop: &AtomicBool, out: &mut impl Write) -> bool {
    let req = match Request::from_json(frame) {
        Ok(r) => r,
        Err(e) => return write_frame(out, &error_response(&e)).is_ok(),
    };
    let reply = match req {
        Request::Compile { items, framing, .. } => {
            let mut out = ReplyWriter::new(out, framing, items.len());
            for (i, reply) in router.compile_batch(&items).into_iter().enumerate() {
                out.item(i, reply);
            }
            return out.finish();
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
