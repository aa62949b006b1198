//! An in-memory hot tier above [`crate::cache::DiskCache`]: a bounded LRU
//! of payload text ([`CompileReply::to_json`] renderings) that keeps hot
//! keys served while the disk is fault-injected or slow; a hit is a lookup
//! and a copy of the text a reply frame splices in. Only a fresh compile or
//! an entry's first (decoded, checked) read enters it, never a text hit.
//! So it never serves bytes the checksummed tier would reject.

use crate::protocol::CompileReply;
use std::collections::HashMap;

/// Default hot-tier capacity (entries) used by the daemon.
pub const DEFAULT_HOT_ENTRIES: usize = 256;

/// A bounded LRU of reply payloads, keyed by cache key.
#[derive(Debug, Default)]
pub struct HotTier {
    cap: usize,
    tick: u64,
    hits: u64,
    map: HashMap<String, (u64, String)>,
}

impl HotTier {
    /// Builds a tier holding at most `cap` entries (`0` disables it).
    pub fn new(cap: usize) -> HotTier {
        HotTier {
            cap,
            ..HotTier::default()
        }
    }

    /// Looks up a key's payload, refreshing its recency on hit.
    pub fn get(&mut self, key: &str) -> Option<String> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, payload) = self.map.get_mut(key)?;
        *stamp = tick;
        self.hits += 1;
        Some(payload.clone())
    }

    /// Inserts (or refreshes) `reply`'s payload.
    pub fn put(&mut self, key: &str, reply: CompileReply) {
        self.put_payload(key, reply.to_json().render());
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// one when over capacity.
    pub(crate) fn put_payload(&mut self, key: &str, payload: String) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(key.to_string(), (self.tick, payload));
        while self.map.len() > self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            } else {
                break;
            }
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Configured capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_sets::SolverCounters;

    fn reply(key: &str) -> CompileReply {
        CompileReply {
            key: key.to_string(),
            kernel: "k".to_string(),
            config: "infl".to_string(),
            canonical_pj: "kernel k\n".to_string(),
            code: String::new(),
            cuda: String::new(),
            schedule: String::new(),
            schedule_tree: String::new(),
            vector_loops: 0,
            influenced: false,
            timing: vec![],
            solver: SolverCounters::default(),
            compile_ms: 1.0,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut hot = HotTier::new(2);
        hot.put("a", reply("a"));
        hot.put("b", reply("b"));
        // A hit is the payload text; it refreshes a, so b is now LRU.
        assert_eq!(hot.get("a"), Some(reply("a").to_json().render()));
        hot.put("c", reply("c"));
        assert_eq!(hot.len(), 2);
        assert!(hot.get("b").is_none());
        assert!(hot.get("a").is_some());
        assert!(hot.get("c").is_some());
        assert_eq!(hot.hits(), 3);
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let mut hot = HotTier::new(0);
        hot.put("a", reply("a"));
        assert!(hot.is_empty());
        assert!(hot.get("a").is_none());
    }
}
