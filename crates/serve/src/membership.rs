//! Shard membership: a consistent-hash ring over the FNV-1a cache-key
//! space, plus per-shard health tracking for failover ordering.
//!
//! Cache keys are 16-hex-char FNV-1a digests (see [`crate::hash`]); the
//! ring hashes them back to a `u64` and walks clockwise to the owning
//! shard. Each shard contributes a fixed number of virtual nodes so
//! load stays balanced and a membership change only re-homes the keys
//! adjacent to the moved points (minimal disruption — the property the
//! warm-transfer machinery relies on to keep rebalances small).

use crate::client::Endpoint;
use crate::hash::fnv1a64;

/// Virtual nodes per shard. 64 keeps the max/min load ratio under ~2x
/// for small fleets without making ring rebuilds noticeable.
pub const VNODES: usize = 64;

/// An immutable consistent-hash ring over a set of shard endpoints.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, shard index)` sorted by point.
    points: Vec<(u64, usize)>,
    shards: Vec<String>,
}

impl HashRing {
    /// Builds a ring with [`VNODES`] virtual nodes per shard.
    pub fn new(shards: &[String]) -> HashRing {
        let mut points = Vec::with_capacity(shards.len() * VNODES);
        for (idx, shard) in shards.iter().enumerate() {
            for v in 0..VNODES {
                let point = fnv1a64(format!("{shard}#{v}").as_bytes());
                points.push((point, idx));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: shards.to_vec(),
        }
    }

    /// The first `r` distinct shards clockwise from the key's point, in
    /// ring order. Fewer than `r` come back when the fleet is smaller.
    pub fn replicas(&self, key: &str, r: usize) -> Vec<usize> {
        let mut out = Vec::new();
        if self.points.is_empty() || r == 0 {
            return out;
        }
        let h = fnv1a64(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == r.min(self.shards.len()) {
                    break;
                }
            }
        }
        out
    }

    /// The primary owner of a key (first replica), if any shard exists.
    pub fn owner(&self, key: &str) -> Option<usize> {
        self.replicas(key, 1).first().copied()
    }
}

/// Health state of one shard as seen from a router.
#[derive(Clone, Debug)]
pub struct ShardState {
    /// The shard's endpoint.
    pub endpoint: Endpoint,
    /// Consecutive failed attempts since the last success.
    pub consecutive_failures: u32,
}

/// Failures in a row before a shard is deprioritized (tried last, never
/// skipped — degrade, don't fail: a healed partition recovers on the
/// next successful attempt).
pub const UNHEALTHY_AFTER: u32 = 3;

impl ShardState {
    /// Whether the shard is currently considered healthy.
    pub fn healthy(&self) -> bool {
        self.consecutive_failures < UNHEALTHY_AFTER
    }
}

/// Mutable shard membership: the ring plus health, with add/remove for
/// membership changes.
#[derive(Clone, Debug)]
pub struct Membership {
    shards: Vec<ShardState>,
    ring: HashRing,
}

impl Membership {
    /// Builds a membership over the given endpoints.
    pub fn new(endpoints: Vec<Endpoint>) -> Membership {
        let shards: Vec<ShardState> = endpoints
            .into_iter()
            .map(|endpoint| ShardState {
                endpoint,
                consecutive_failures: 0,
            })
            .collect();
        let ring = Self::build_ring(&shards);
        Membership { shards, ring }
    }

    fn build_ring(shards: &[ShardState]) -> HashRing {
        let names: Vec<String> = shards.iter().map(|s| s.endpoint.to_string()).collect();
        HashRing::new(&names)
    }

    /// All shard states, in membership order.
    pub fn shards(&self) -> &[ShardState] {
        &self.shards
    }

    /// The `r` replica endpoints for a key, ring-ordered but with
    /// unhealthy shards moved to the back: a dead or partitioned primary
    /// re-routes to its replica, while the sick shard still gets probed
    /// last so a healed partition is noticed.
    pub fn replicas_for(&self, key: &str, r: usize) -> Vec<Endpoint> {
        let idxs = self.ring.replicas(key, r);
        let (healthy, sick): (Vec<usize>, Vec<usize>) =
            idxs.into_iter().partition(|&i| self.shards[i].healthy());
        healthy
            .into_iter()
            .chain(sick)
            .map(|i| self.shards[i].endpoint.clone())
            .collect()
    }

    /// Adds a shard (no-op when already a member). Returns whether the
    /// membership changed.
    pub fn add(&mut self, endpoint: Endpoint) -> bool {
        if self.index_of(&endpoint).is_some() {
            return false;
        }
        self.shards.push(ShardState {
            endpoint,
            consecutive_failures: 0,
        });
        self.ring = Self::build_ring(&self.shards);
        true
    }

    /// Removes a shard. Returns whether the membership changed.
    pub fn remove(&mut self, endpoint: &Endpoint) -> bool {
        match self.index_of(endpoint) {
            Some(i) => {
                self.shards.remove(i);
                self.ring = Self::build_ring(&self.shards);
                true
            }
            None => false,
        }
    }

    fn index_of(&self, endpoint: &Endpoint) -> Option<usize> {
        self.shards.iter().position(|s| &s.endpoint == endpoint)
    }

    /// Records a failed attempt against a shard.
    pub fn record_failure(&mut self, endpoint: &Endpoint) {
        if let Some(i) = self.index_of(endpoint) {
            self.shards[i].consecutive_failures =
                self.shards[i].consecutive_failures.saturating_add(1);
        }
    }

    /// Records a successful attempt (clears the failure streak).
    pub fn record_success(&mut self, endpoint: &Endpoint) {
        if let Some(i) = self.index_of(endpoint) {
            self.shards[i].consecutive_failures = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn eps(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("/tmp/shard{i}.sock")).collect()
    }

    fn some_keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("{:016x}", fnv1a64(format!("key-{i}").as_bytes())))
            .collect()
    }

    #[test]
    fn ring_balances_load() {
        let ring = HashRing::new(&eps(3));
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for key in some_keys(3000) {
            *counts.entry(ring.owner(&key).unwrap()).or_default() += 1;
        }
        for shard in 0..3 {
            let share = counts[&shard] as f64 / 3000.0;
            assert!(
                (0.15..=0.60).contains(&share),
                "shard {shard} owns {share:.2} of keys"
            );
        }
    }

    #[test]
    fn ring_replicas_are_distinct_and_capped() {
        let ring = HashRing::new(&eps(3));
        for key in some_keys(100) {
            let reps = ring.replicas(&key, 2);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            // Asking for more replicas than shards caps at the fleet size.
            assert_eq!(ring.replicas(&key, 9).len(), 3);
        }
        assert!(HashRing::new(&[]).replicas("ab", 2).is_empty());
    }

    #[test]
    fn removal_disrupts_only_the_removed_shards_keys() {
        let before = HashRing::new(&eps(3));
        let two: Vec<String> = eps(3).into_iter().take(2).collect();
        let after = HashRing::new(&two);
        for key in some_keys(1000) {
            let owner = before.owner(&key).unwrap();
            if owner < 2 {
                assert_eq!(
                    after.owner(&key),
                    Some(owner),
                    "key {key} moved off a surviving shard"
                );
            }
        }
    }

    #[test]
    fn membership_health_reorders_replicas() {
        let endpoints: Vec<Endpoint> = eps(3).iter().map(|s| Endpoint::parse(s).unwrap()).collect();
        let mut m = Membership::new(endpoints);
        let key = "00112233aabbccdd";
        let orig = m.replicas_for(key, 2);
        assert_eq!(orig.len(), 2);
        // Mark the primary unhealthy: the replica takes the lead, the
        // sick shard stays in the list (probed last, never skipped).
        for _ in 0..UNHEALTHY_AFTER {
            m.record_failure(&orig[0]);
        }
        let reordered = m.replicas_for(key, 2);
        assert_eq!(reordered[0], orig[1]);
        assert_eq!(reordered[1], orig[0]);
        // A success heals it.
        m.record_success(&orig[0]);
        assert_eq!(m.replicas_for(key, 2), orig);
    }

    #[test]
    fn membership_add_remove_rebuilds_ring() {
        let endpoints: Vec<Endpoint> = eps(2).iter().map(|s| Endpoint::parse(s).unwrap()).collect();
        let mut m = Membership::new(endpoints);
        let ring_size = |m: &Membership| m.replicas_for("00112233aabbccdd", 9).len();
        assert_eq!(ring_size(&m), 2);
        let third = Endpoint::parse("/tmp/shard2.sock").unwrap();
        assert!(m.add(third.clone()));
        assert!(!m.add(third.clone()), "double-add must be a no-op");
        assert_eq!(ring_size(&m), 3);
        assert!(m.remove(&third));
        assert!(!m.remove(&third));
        assert_eq!(ring_size(&m), 2);
    }
}
