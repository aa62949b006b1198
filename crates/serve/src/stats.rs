//! Serving-side observability: request counters and latency aggregates,
//! reported by the daemon's `stats` protocol request and dumped as JSON
//! on shutdown.

use crate::json::Json;

/// Latency aggregates: a lifetime count and sum (`count × mean_ms` is the
/// lifetime total), and a ring buffer of the most recent `cap` samples for
/// min and p95, which thus follow current behaviour in a long-lived daemon.
#[derive(Clone, Debug)]
pub struct LatencyAgg {
    samples_ms: Vec<f64>,
    next: usize,
    cap: usize,
    total: u64,
    sum_ms: f64,
}

impl LatencyAgg {
    /// A reservoir keeping the last `cap` samples (`cap >= 1`).
    pub fn new(cap: usize) -> LatencyAgg {
        LatencyAgg {
            samples_ms: Vec::new(),
            next: 0,
            cap: cap.max(1),
            total: 0,
            sum_ms: 0.0,
        }
    }

    /// Records one latency sample in milliseconds.
    pub fn record(&mut self, ms: f64) {
        if self.samples_ms.len() < self.cap {
            self.samples_ms.push(ms);
        } else {
            self.samples_ms[self.next] = ms;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
        self.sum_ms += ms;
    }

    /// Total samples ever recorded (not just retained).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Minimum retained sample.
    pub fn min_ms(&self) -> f64 {
        self.samples_ms.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Mean of every sample ever recorded (`NaN` before the first).
    pub fn mean_ms(&self) -> f64 {
        self.sum_ms / self.total as f64
    }

    /// 95th percentile of retained samples (nearest-rank).
    pub fn p95_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return f64::NAN;
        }
        let mut v = self.samples_ms.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let rank = ((v.len() as f64) * 0.95).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The aggregates as a JSON object (`NaN` degrades to `null`): `count`
    /// and `mean_ms` lifetime, `min_ms` and `p95_ms` over the reservoir.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.total as f64)),
            ("min_ms", Json::Num(self.min_ms())),
            ("mean_ms", Json::Num(self.mean_ms())),
            ("p95_ms", Json::Num(self.p95_ms())),
        ])
    }
}

impl Default for LatencyAgg {
    fn default() -> LatencyAgg {
        LatencyAgg::new(4096)
    }
}

/// Daemon-side counters, merged with the cache's own
/// [`crate::cache::CacheStats`] in stats reports.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Total requests received (all kinds).
    pub requests: u64,
    /// Compile requests answered from the cache.
    pub hits: u64,
    /// Compile requests that required a fresh compilation.
    pub misses: u64,
    /// Compile requests that attached to an identical in-flight
    /// compilation (single-flight deduplication).
    pub coalesced: u64,
    /// Requests rejected with an `overloaded` response.
    pub overloaded: u64,
    /// Requests that failed (parse/compile/protocol errors).
    pub errors: u64,
    /// Requests that hit the per-request timeout.
    pub timeouts: u64,
    /// Cache entries evicted while serving.
    pub evictions: u64,
    /// In-flight compiles cancelled by id (`cancel` requests that found
    /// their target — a router cancelling the losing hedge leg).
    pub cancels: u64,
    /// Cache entries accepted over `transfer` requests (replication and
    /// warm transfer), after checksum re-verification.
    pub transfers_in: u64,
    /// `compile_batch` requests received.
    pub batch_requests: u64,
    /// Items carried by those batches (each also counted in
    /// hits/misses/coalesced/overloaded/errors like a standalone
    /// compile).
    pub batch_items: u64,
    /// Batch items answered from an identical earlier item of the *same*
    /// batch (in-batch deduplication; cross-request dedup is `coalesced`).
    pub batch_dedup_hits: u64,
    /// Warm-session reuses observed while compiling batch items — ops in
    /// one batch that hash to the same kernel family share one schedule
    /// session, so the family's dependence analysis and Farkas work run
    /// once per batch instead of once per item.
    pub batch_session_reuses: u64,
    /// Compile request latency aggregates.
    pub latency: LatencyAgg,
}

impl ServeStats {
    /// The stats as the JSON object returned by the `stats` protocol
    /// request and dumped on shutdown.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::Num(self.requests as f64)),
            ("hits", Json::Num(self.hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("coalesced", Json::Num(self.coalesced as f64)),
            ("overloaded", Json::Num(self.overloaded as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("timeouts", Json::Num(self.timeouts as f64)),
            ("evictions", Json::Num(self.evictions as f64)),
            ("cancels", Json::Num(self.cancels as f64)),
            ("transfers_in", Json::Num(self.transfers_in as f64)),
            ("batch_requests", Json::Num(self.batch_requests as f64)),
            ("batch_items", Json::Num(self.batch_items as f64)),
            ("batch_dedup_hits", Json::Num(self.batch_dedup_hits as f64)),
            (
                "batch_session_reuses",
                Json::Num(self.batch_session_reuses as f64),
            ),
            ("latency", self.latency.to_json()),
        ])
    }
}

/// Per-shard counters a router keeps about one backend daemon.
#[derive(Clone, Debug, Default)]
pub struct ShardMetrics {
    /// Attempts routed at this shard (primary or hedge leg).
    pub requests: u64,
    /// Attempts answered `status:"ok"`.
    pub ok: u64,
    /// Of the `ok` answers, how many were served from the shard's cache.
    pub cache_hits: u64,
    /// Attempts answered with a structured error.
    pub errors: u64,
    /// Attempts that failed at the socket level (connect/IO).
    pub connect_failures: u64,
    /// Hedge legs fired *against* this shard.
    pub hedges_fired: u64,
    /// Hedge legs against this shard that won the race.
    pub hedge_wins: u64,
    /// Losing legs on this shard that were cancelled by id.
    pub hedge_cancels: u64,
    /// Retry attempts re-routed to this shard after a failure elsewhere.
    pub retries: u64,
    /// Requests this shard absorbed because an earlier candidate was
    /// dead or partitioned.
    pub failovers: u64,
    /// Entries pushed to this shard (replication + warm transfer).
    pub transfers_out: u64,
    /// Keys this shard should replicate but does not hold yet, as of
    /// the last deep metrics probe (`-1` when unprobed/unreachable).
    pub replica_lag: i64,
}

impl ShardMetrics {
    /// The counters as a JSON object (without the endpoint name).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::Num(self.requests as f64)),
            ("ok", Json::Num(self.ok as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("connect_failures", Json::Num(self.connect_failures as f64)),
            ("hedges_fired", Json::Num(self.hedges_fired as f64)),
            ("hedge_wins", Json::Num(self.hedge_wins as f64)),
            ("hedge_cancels", Json::Num(self.hedge_cancels as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("failovers", Json::Num(self.failovers as f64)),
            ("transfers_out", Json::Num(self.transfers_out as f64)),
            ("replica_lag", Json::Num(self.replica_lag as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_over_samples() {
        let mut a = LatencyAgg::new(100);
        for i in 1..=100 {
            a.record(i as f64);
        }
        assert_eq!(a.count(), 100);
        assert_eq!(a.min_ms(), 1.0);
        assert!((a.mean_ms() - 50.5).abs() < 1e-9);
        assert_eq!(a.p95_ms(), 95.0);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut a = LatencyAgg::new(4);
        for i in 0..10 {
            a.record(i as f64);
        }
        assert_eq!(a.count(), 10);
        assert!((a.mean_ms() - 4.5).abs() < 1e-9, "{}", a.mean_ms());
        assert_eq!(a.min_ms(), 6.0, "min stays over the reservoir");
        assert_eq!(a.p95_ms(), 9.0, "p95 stays over the reservoir");
    }

    #[test]
    fn empty_reservoir_degrades_to_null_json() {
        let a = LatencyAgg::new(8);
        let text = a.to_json().render();
        // min/mean/p95 are NaN with no samples; JSON renders them null.
        assert_eq!(text.matches("null").count(), 3, "{text}");
        assert!(text.contains("\"count\":0"), "{text}");
    }

    #[test]
    fn stats_json_has_all_counters() {
        let s = ServeStats {
            requests: 7,
            hits: 3,
            ..Default::default()
        };
        let j = s.to_json().render();
        for key in [
            "requests",
            "hits",
            "misses",
            "coalesced",
            "overloaded",
            "errors",
            "timeouts",
            "evictions",
            "cancels",
            "transfers_in",
            "batch_requests",
            "batch_items",
            "batch_dedup_hits",
            "batch_session_reuses",
            "latency",
        ] {
            assert!(j.contains(key), "{key} missing in {j}");
        }
    }

    #[test]
    fn shard_metrics_json_has_all_counters() {
        let m = ShardMetrics {
            requests: 4,
            hedge_wins: 1,
            replica_lag: -1,
            ..Default::default()
        };
        let j = m.to_json().render();
        for key in [
            "requests",
            "ok",
            "cache_hits",
            "errors",
            "connect_failures",
            "hedges_fired",
            "hedge_wins",
            "hedge_cancels",
            "retries",
            "failovers",
            "transfers_out",
            "replica_lag",
        ] {
            assert!(j.contains(key), "{key} missing in {j}");
        }
        assert!(j.contains("\"replica_lag\":-1"), "{j}");
    }
}
