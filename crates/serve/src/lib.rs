//! # polyject-serve
//!
//! The serving layer: a long-lived compilation daemon (`polyjectd`) with a
//! persistent, content-addressed schedule cache, turning repeated
//! compilation cost from O(requests) into O(unique kernels).
//!
//! * [`args`] — the one command-line cursor every polyject binary parses
//!   its flags with;
//! * [`pool`] — the dependency-free work-stealing worker pool (moved here
//!   from `polyject-bench` so both the Table II harness and the daemon
//!   share one executor), plus a persistent [`pool::WorkerPool`];
//! * [`json`] — a minimal, deterministic JSON value model (the workspace
//!   is offline and carries no serde);
//! * [`hash`] — stable FNV-1a content hashing for cache keys;
//! * [`cache`] — the on-disk cache: versioned JSON entries, atomic
//!   writes, checksum-verified reads with quarantine, LRU eviction, a
//!   startup sweep of torn temporaries;
//! * [`faults`] — the deterministic fault-injection seam: an [`faults::Io`]
//!   trait in front of every cache file operation, with a SplitMix64-seeded
//!   fault schedule for the chaos suite;
//! * [`protocol`] — the length-prefixed JSON request/response wire format;
//! * [`transport`] — the one Unix/TCP socket layer under the daemon, the
//!   router front and the client: live-listener-safe bind, blocking
//!   accept and connection loops that stop on events, not polls;
//! * [`service`] — canonical kernel hashing + compile-through-cache with
//!   single-flight deduplication;
//! * [`daemon`] — `polyjectd`: one compile path (a single compile is a
//!   batch of one), bounded queue, backpressure, per-request timeouts,
//!   graceful shutdown;
//! * [`client`] — the client used by `polyjectc --remote` and tests,
//!   including client-side shard selection ([`client::ShardedClient`]);
//! * [`stats`] — hit/miss/eviction/error counters and latency
//!   aggregates, plus the router's per-shard [`stats::ShardMetrics`];
//! * [`tuned`] — persisted tuned configurations: the autotuner's
//!   cache-backed entry point (`tune_cached`: probe the cache, else one
//!   beam search on the calling thread, persisted when complete) and the
//!   `tuned-config` entry kind;
//! * [`membership`] — the consistent-hash ring over the FNV-1a key
//!   space, with per-shard health for failover ordering;
//! * [`hot`] — the bounded in-memory hot tier above the disk cache;
//! * [`router`] — the `polyject-router` core: hedged requests,
//!   retry/backoff with seeded jitter, failover, R-way replication of
//!   hot keys, and resumable cross-node warm transfer.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cache;
pub mod client;
pub mod daemon;
pub mod faults;
pub mod hash;
pub mod hot;
pub mod json;
pub mod membership;
pub mod pool;
pub mod protocol;
pub mod router;
pub mod service;
pub mod stats;
pub mod transport;
pub mod tuned;

pub use cache::{CacheStats, DiskCache};
pub use client::ShardedClient;
pub use client::{Client, Endpoint};
pub use daemon::{run_daemon, DaemonConfig};
pub use faults::{FaultyIo, Io, NetChaos, RealIo};
pub use hash::{fnv1a64, Fnv64};
pub use hot::HotTier;
pub use json::Json;
pub use membership::{HashRing, Membership, ShardState};
pub use pool::{default_workers, parallel_map, WorkerPool};
pub use protocol::{read_frame, write_frame, BatchItem, CompileReply, Request, Verdict};
pub use router::{Router, RouterConfig};
pub use service::{
    cache_key, cache_key_with_options, compile_reply, config_by_name, CompileService, Governance,
    Lookup, Served,
};
pub use stats::{LatencyAgg, ServeStats, ShardMetrics};
pub use tuned::{
    decode_tuned, encode_tuned, tune_cached, tuned_key, TuneReport, TUNED_FORMAT_VERSION,
    TUNED_KIND,
};
