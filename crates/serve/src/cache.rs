//! The persistent content-addressed schedule cache.
//!
//! On-disk layout under the cache directory:
//!
//! ```text
//! <cache-dir>/
//!   index.json                  LRU index {version, tick, entries:[...]}
//!   entries/<key>.json          one versioned entry per cache key
//!   quarantine/<key>.json.<n>   corrupt entries moved aside, never deleted
//! ```
//!
//! Each entry file is a JSON object
//! `{"format": FORMAT_VERSION, "key", "kind", "checksum", "payload"}`
//! where `checksum` is the FNV-1a 64 hex digest of the serialized
//! payload. Entries are written atomically (tmp file + rename in the
//! same directory). Reads re-verify the checksum; any parse, version,
//! key, or checksum failure counts as a miss, bumps the error counter
//! and moves the file to `quarantine/` for post-mortem instead of
//! silently serving bad artifacts.
//!
//! Every filesystem call goes through the [`crate::faults::Io`] seam, so
//! the chaos suite can open the same cache over a fault-injecting
//! filesystem ([`DiskCache::open_with_io`]) and prove that no failure
//! mode ever serves a corrupt payload. Opening also sweeps stale
//! `.tmp.*` files left by writes that died between create and rename.
//!
//! Eviction is LRU over a logical tick (persisted in the index, so
//! recency survives restarts) and bounded by a total payload byte
//! budget.

use crate::faults::{Io, RealIo};
use crate::hash::hex_digest;
use crate::json::Json;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Cache entry format version; bump on any incompatible change to the
/// entry or payload schema — old entries then read as misses.
pub const FORMAT_VERSION: u64 = 1;

/// Default size bound: 256 MiB of payload bytes.
pub const DEFAULT_MAX_BYTES: u64 = 256 << 20;

/// Prefix of the temporary files atomic writes stage their bytes in.
/// Files with this prefix are, by construction, never a live entry, so
/// the startup sweep may remove any it finds.
const TMP_PREFIX: &str = ".tmp.";

/// Operation counters of one [`DiskCache`] instance (process-local, not
/// persisted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful, checksum-verified reads.
    pub hits: u64,
    /// Reads that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub puts: u64,
    /// Entries evicted by the LRU size bound.
    pub evictions: u64,
    /// Corrupt entries quarantined.
    pub errors: u64,
    /// Stale `.tmp.*` files removed by the startup sweep.
    pub swept_tmps: u64,
}

#[derive(Clone, Debug)]
struct IndexEntry {
    kind: String,
    bytes: u64,
    last_used: u64,
}

/// A persistent, content-addressed, size-bounded LRU cache of compile
/// artifacts.
///
/// Keys are 16-hex-char content hashes (see [`crate::service::cache_key`]);
/// payloads are arbitrary JSON values whose schema is identified by a
/// `kind` string.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: u64,
    tick: u64,
    entries: HashMap<String, IndexEntry>,
    stats: CacheStats,
    io: Box<dyn Io>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory with the given
    /// payload byte budget.
    ///
    /// A missing or unreadable `index.json` is not an error: the index
    /// is rebuilt by scanning `entries/` (recency resets). Stale
    /// temporaries from writes that died mid-flight are swept.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path, max_bytes: u64) -> io::Result<DiskCache> {
        DiskCache::open_with_io(dir, max_bytes, Box::new(RealIo))
    }

    /// [`DiskCache::open`] over an explicit [`Io`] implementation — the
    /// chaos suite's entry point for fault injection.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with_io(dir: &Path, max_bytes: u64, io: Box<dyn Io>) -> io::Result<DiskCache> {
        let mut cache = DiskCache {
            dir: dir.to_path_buf(),
            max_bytes: max_bytes.max(1),
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            io,
        };
        cache.io.create_dir_all(&dir.join("entries"))?;
        cache.io.create_dir_all(&dir.join("quarantine"))?;
        cache.sweep_stale_tmps();
        if !cache.load_index() {
            cache.rebuild_index()?;
            cache.flush()?;
        }
        Ok(cache)
    }

    /// Opens with the default size budget.
    ///
    /// # Errors
    ///
    /// See [`DiskCache::open`].
    pub fn open_default(dir: &Path) -> io::Result<DiskCache> {
        DiskCache::open(dir, DEFAULT_MAX_BYTES)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Process-local operation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join("entries").join(format!("{key}.json"))
    }

    /// Files `key` in the index, over any earlier row.
    fn index(&mut self, key: &str, kind: &str, bytes: u64, last_used: u64) {
        let kind = kind.to_string();
        let row = IndexEntry {
            kind,
            bytes,
            last_used,
        };
        self.entries.insert(key.to_string(), row);
    }

    /// Indexes a verified entry file the index did not know, at its size
    /// on disk.
    fn adopt(&mut self, key: &str, kind: &str, last_used: u64) {
        let path = self.entry_path(key);
        let bytes = self.io.metadata_len(&path).unwrap_or(0);
        self.index(key, kind, bytes, last_used);
    }

    /// Removes every `.tmp.*` staging file in the cache root and
    /// `entries/` — debris of atomic writes that died between create and
    /// rename (torn state). Live entries never carry the prefix, so this
    /// can only reclaim garbage.
    fn sweep_stale_tmps(&mut self) {
        for sub in [self.dir.clone(), self.dir.join("entries")] {
            let Ok(names) = self.io.read_dir_names(&sub) else {
                continue;
            };
            for name in names {
                if name.starts_with(TMP_PREFIX) && self.io.remove_file(&sub.join(&name)).is_ok() {
                    self.stats.swept_tmps += 1;
                }
            }
        }
    }

    /// Whether an entry for `key` is indexed here or on disk (another
    /// process sharing the directory may have written it). Moves no
    /// counter: the probe for optional entries, whose absence is the
    /// normal case rather than a miss.
    pub fn contains(&mut self, key: &str) -> bool {
        let path = self.entry_path(key);
        self.entries.contains_key(key) || self.io.exists(&path)
    }

    /// Looks up a key, verifying the entry checksum. Returns the
    /// `(kind, payload)` on a hit. Corrupt entries are quarantined and
    /// reported as misses.
    pub fn get(&mut self, key: &str) -> Option<(String, Json)> {
        let found = self.get_if_present(key);
        if found.is_none() {
            self.stats.misses += 1;
        }
        found
    }

    /// [`DiskCache::get`] for an optional entry: one [`DiskCache::contains`]
    /// probe, and an absent entry moves no counter (an entry that is
    /// there but corrupt is quarantined all the same, uncounted as a miss).
    pub fn get_if_present(&mut self, key: &str) -> Option<(String, Json)> {
        if !self.contains(key) {
            return None;
        }
        match self.read_verified(key) {
            Ok((kind, payload)) => {
                self.stats.hits += 1;
                self.tick += 1;
                let tick = self.tick;
                match self.entries.get_mut(key) {
                    Some(e) => e.last_used = tick,
                    // Valid entry written by another process: adopt it.
                    None => self.adopt(key, &kind, tick),
                }
                Some((kind, payload))
            }
            Err(reason) => {
                self.quarantine(key, &reason);
                None
            }
        }
    }

    fn read_verified(&mut self, key: &str) -> Result<(String, Json), String> {
        let path = self.entry_path(key);
        let text = self
            .io
            .read_to_string(&path)
            .map_err(|e| format!("unreadable: {e}"))?;
        let mut v = Json::parse(&text).map_err(|e| format!("bad json: {e}"))?;
        let format = v
            .get("format")
            .and_then(Json::as_u64)
            .ok_or("missing format")?;
        if format != FORMAT_VERSION {
            return Err(format!("format {format} != {FORMAT_VERSION}"));
        }
        if v.str_field("key")? != key {
            return Err("key mismatch".to_string());
        }
        let kind = v.str_field("kind")?.to_string();
        let checksum = v.str_field("checksum")?.to_string();
        // The payload is most of the entry: moved out, not copied.
        let payload = v.take("payload").ok_or("missing payload")?;
        let actual = hex_digest(&payload.render());
        if checksum != actual {
            return Err(format!("checksum {actual} != recorded {checksum}"));
        }
        Ok((kind, payload))
    }

    /// Writes an entry atomically (tmp + rename), updates the index, and
    /// evicts least-recently-used entries if the byte budget is
    /// exceeded.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the cache directory is left
    /// consistent (the rename either happened or it didn't).
    pub fn put(&mut self, key: &str, kind: &str, payload: &Json) -> io::Result<()> {
        let payload_text = payload.render();
        let entry = Json::obj(vec![
            ("format", Json::Num(FORMAT_VERSION as f64)),
            ("key", Json::Str(key.to_string())),
            ("kind", Json::Str(kind.to_string())),
            ("checksum", Json::Str(hex_digest(&payload_text))),
            ("payload", payload.clone()),
        ]);
        let text = entry.render();
        let path = self.entry_path(key);
        self.write_atomic(&path, text.as_bytes())?;
        self.tick += 1;
        self.index(key, kind, text.len() as u64, self.tick);
        self.stats.puts += 1;
        self.evict_to_budget(key);
        self.flush()
    }

    /// Evicts LRU entries until the budget holds, never evicting
    /// `keep` (the entry just written).
    fn evict_to_budget(&mut self, keep: &str) {
        while self.total_bytes() > self.max_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(key, _)| *key != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else { break };
            let path = self.entry_path(&victim);
            let _ = self.io.remove_file(&path);
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Removes an entry. Returns whether it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        let existed = self.entries.remove(key).is_some();
        let path = self.entry_path(key);
        let on_disk = self.io.remove_file(&path).is_ok();
        existed || on_disk
    }

    /// Lists `(key, kind, bytes, last_used)` for every indexed entry,
    /// most recently used first.
    pub fn list(&self) -> Vec<(String, String, u64, u64)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .map(|(key, e)| (key.clone(), e.kind.clone(), e.bytes, e.last_used))
            .collect();
        v.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Re-reads and checksum-verifies every entry — indexed ones *and*
    /// unindexed `entries/*.json` files (written by another process or
    /// orphaned by an index loss) — quarantining the corrupt ones.
    /// Returns `(ok, quarantined)` counts.
    pub fn verify(&mut self) -> (usize, usize) {
        let mut keys: Vec<String> = self.entries.keys().cloned().collect();
        if let Ok(names) = self.io.read_dir_names(&self.dir.join("entries")) {
            for name in names {
                if name.starts_with(TMP_PREFIX) {
                    continue;
                }
                if let Some(key) = name.strip_suffix(".json") {
                    keys.push(key.to_string());
                }
            }
        }
        keys.sort();
        keys.dedup();
        let (mut ok, mut bad) = (0, 0);
        for key in keys {
            match self.read_verified(&key) {
                Ok(_) => ok += 1,
                Err(reason) => {
                    self.quarantine(&key, &reason);
                    bad += 1;
                }
            }
        }
        (ok, bad)
    }

    /// Number of quarantined corpses on disk — corrupt entries moved
    /// aside by earlier runs and kept for post-mortem. Nonzero means an
    /// operator has uninspected corruption to look at.
    pub fn quarantined_count(&mut self) -> usize {
        self.io
            .read_dir_names(&self.dir.join("quarantine"))
            .map(|names| names.len())
            .unwrap_or(0)
    }

    /// Deletes every quarantined corpse — the operator's acknowledgment
    /// after a post-mortem, so `verify` backlogs do not linger forever.
    /// Returns the number removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn purge_quarantine(&mut self) -> io::Result<usize> {
        let qdir = self.dir.join("quarantine");
        let names = match self.io.read_dir_names(&qdir) {
            Ok(names) => names,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for name in names {
            self.io.remove_file(&qdir.join(&name))?;
            removed += 1;
        }
        Ok(removed)
    }

    fn quarantine(&mut self, key: &str, reason: &str) {
        let src = self.entry_path(key);
        if self.io.exists(&src) {
            // Find a free quarantine slot (don't clobber earlier corpses).
            let qdir = self.dir.join("quarantine");
            for n in 0.. {
                let dst = qdir.join(format!("{key}.json.{n}"));
                if !self.io.exists(&dst) {
                    let _ = self.io.rename(&src, &dst);
                    break;
                }
            }
        }
        self.entries.remove(key);
        self.stats.errors += 1;
        eprintln!("[cache] quarantined {key}: {reason}");
    }

    /// Persists the LRU index atomically. Called after every `put`; call
    /// explicitly after read-heavy phases to persist recency bumps.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn flush(&mut self) -> io::Result<()> {
        let entries: Vec<Json> = self
            .list()
            .into_iter()
            .map(|(key, kind, bytes, last_used)| {
                Json::obj(vec![
                    ("key", Json::Str(key)),
                    ("kind", Json::Str(kind)),
                    ("bytes", Json::Num(bytes as f64)),
                    ("last_used", Json::Num(last_used as f64)),
                ])
            })
            .collect();
        let index = Json::obj(vec![
            ("version", Json::Num(FORMAT_VERSION as f64)),
            ("tick", Json::Num(self.tick as f64)),
            ("entries", Json::Arr(entries)),
        ]);
        self.write_atomic(&self.dir.join("index.json"), index.render().as_bytes())
    }

    /// Loads `index.json`; returns `false` (leaving the cache empty) on
    /// any problem, in which case the caller rebuilds by scanning.
    fn load_index(&mut self) -> bool {
        let index_path = self.dir.join("index.json");
        let Ok(text) = self.io.read_to_string(&index_path) else {
            return false;
        };
        let Ok(v) = Json::parse(&text) else {
            return false;
        };
        if v.get("version").and_then(Json::as_u64) != Some(FORMAT_VERSION) {
            return false;
        }
        let Some(entries) = v.get("entries").and_then(Json::as_arr) else {
            return false;
        };
        self.tick = v.get("tick").and_then(Json::as_u64).unwrap_or(0);
        for e in entries {
            let (Ok(key), Ok(kind)) = (e.str_field("key"), e.str_field("kind")) else {
                continue;
            };
            // Stale index rows for deleted files are dropped here.
            let path = self.entry_path(key);
            if !self.io.exists(&path) {
                continue;
            }
            let n = |field: &str| e.get(field).and_then(Json::as_u64).unwrap_or(0);
            self.index(key, kind, n("bytes"), n("last_used"));
        }
        true
    }

    /// Rebuilds the index by scanning `entries/` (used when the index is
    /// missing or unreadable). Unverifiable files are quarantined.
    fn rebuild_index(&mut self) -> io::Result<()> {
        self.entries.clear();
        let names = self.io.read_dir_names(&self.dir.join("entries"))?;
        for name in names {
            let Some(key) = name.strip_suffix(".json") else {
                continue;
            };
            match self.read_verified(key) {
                Ok((kind, _)) => self.adopt(key, &kind, 0),
                Err(reason) => self.quarantine(key, &reason),
            }
        }
        Ok(())
    }

    /// Writes `bytes` to `path` atomically: a tmp file in the same
    /// directory (same filesystem, so the rename is atomic), flushed,
    /// then renamed over the target.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "path has no parent directory")
        })?;
        let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let tmp = dir.join(format!("{TMP_PREFIX}{}.{base}", std::process::id()));
        self.io.write(&tmp, bytes)?;
        self.io.rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let d = std::env::temp_dir().join(format!(
            "polyject-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn payload(tag: &str) -> Json {
        Json::obj(vec![
            ("cuda", Json::Str(format!("__global__ void {tag}() {{}}"))),
            ("ms", Json::Num(1.25)),
        ])
    }

    #[test]
    fn put_get_roundtrip_and_persistence() {
        let dir = tmpdir("roundtrip");
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert!(c.get("aaaa").is_none());
        c.put("aaaa", "compile", &payload("k")).unwrap();
        let (kind, p) = c.get("aaaa").unwrap();
        assert_eq!(kind, "compile");
        assert_eq!(p, payload("k"));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                puts: 1,
                ..CacheStats::default()
            }
        );
        drop(c);
        // Reopen: entry and recency survive.
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("aaaa").unwrap().1, payload("k"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_rebuild_after_index_loss() {
        let dir = tmpdir("rebuild");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("k1", "compile", &payload("a")).unwrap();
        c.put("k2", "compile", &payload("b")).unwrap();
        drop(c);
        std::fs::remove_file(dir.join("index.json")).unwrap();
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get("k1").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let dir = tmpdir("lru");
        let one = payload("x").render();
        let entry_overhead = 120; // format/key/kind/checksum wrapper
        let budget = 2 * (one.len() as u64 + entry_overhead);
        let mut c = DiskCache::open(&dir, budget).unwrap();
        c.put("k1", "compile", &payload("x")).unwrap();
        c.put("k2", "compile", &payload("x")).unwrap();
        // Touch k1 so k2 becomes the LRU victim.
        assert!(c.get("k1").is_some());
        c.put("k3", "compile", &payload("x")).unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get("k2").is_none(), "LRU entry evicted");
        assert!(c.get("k1").is_some(), "recently used entry kept");
        assert!(c.get("k3").is_some(), "new entry kept");
        assert!(!dir.join("entries").join("k2.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_and_list() {
        let dir = tmpdir("rm");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("k1", "compile", &payload("a")).unwrap();
        c.put("k2", "tuned-config", &payload("b")).unwrap();
        let l = c.list();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].0, "k2", "most recent first");
        assert!(c.remove("k1"));
        assert!(!c.remove("k1"));
        assert_eq!(c.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmps_swept_on_open() {
        // Simulate writes that died between create and rename: torn
        // `.tmp.*` staging files in both the root (index writes) and
        // `entries/` (entry writes). Opening must reclaim them all while
        // leaving live entries untouched.
        let dir = tmpdir("sweep");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("live", "compile", &payload("keep")).unwrap();
        drop(c);
        let torn_entry = dir.join("entries").join(".tmp.4242.dead.json");
        let torn_index = dir.join(".tmp.4242.index.json");
        std::fs::write(&torn_entry, "{\"format\":1,\"key\":\"dead").unwrap();
        std::fs::write(&torn_index, "{\"version\":1,\"ti").unwrap();

        let mut c = DiskCache::open_default(&dir).unwrap();
        assert_eq!(c.stats().swept_tmps, 2);
        assert!(!torn_entry.exists(), "torn entry tmp removed");
        assert!(!torn_index.exists(), "torn index tmp removed");
        assert_eq!(c.get("live").unwrap().1, payload("keep"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_entry_is_quarantined_not_served() {
        // A torn rename can land a truncated entry file under the real
        // entry name; the checksum layer must quarantine it, never
        // serve it.
        let dir = tmpdir("torn");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("kk", "compile", &payload("v")).unwrap();
        drop(c);
        let entry = dir.join("entries").join("kk.json");
        let full = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, &full[..full.len() / 2]).unwrap();

        let mut c = DiskCache::open_default(&dir).unwrap();
        assert!(c.get("kk").is_none(), "torn entry must read as a miss");
        assert!(!entry.exists(), "torn entry moved aside");
        assert!(
            dir.join("quarantine").join("kk.json.0").exists(),
            "torn entry preserved for post-mortem"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_covers_unindexed_entries_and_counts_corpses() {
        let dir = tmpdir("verify");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("good", "compile", &payload("ok")).unwrap();
        drop(c);
        // An entry file the index knows nothing about (e.g. dropped from
        // a stale index), corrupted on disk.
        let orphan = dir.join("entries").join("orphan.json");
        std::fs::write(&orphan, "{\"format\":1,\"key\":\"orphan\",\"ga").unwrap();
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert!(!c.entries.contains_key("orphan"), "not in the index");
        let (ok, bad) = c.verify();
        assert_eq!((ok, bad), (1, 1), "orphan found and quarantined");
        assert!(!orphan.exists());
        assert_eq!(c.quarantined_count(), 1);
        // A second verify finds nothing new: the backlog persists until
        // an operator purges it, and purging empties it exactly once.
        let (_, bad) = c.verify();
        assert_eq!(bad, 0, "already-quarantined corpse re-flagged");
        assert_eq!(c.quarantined_count(), 1);
        assert_eq!(c.purge_quarantine().unwrap(), 1);
        assert_eq!(c.quarantined_count(), 0);
        assert_eq!(c.purge_quarantine().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
