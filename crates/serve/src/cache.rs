//! The persistent content-addressed schedule cache.
//!
//! ```text
//! <cache-dir>/
//!   index.json                  LRU index {version, tick, entries:[...]}
//!   index.log                   one {key, kind, bytes, last_used} row per
//!                               put since index.json was last written
//!   entries/<key>.json          one versioned entry per cache key
//!   quarantine/<key>.json.<n>   corrupt entries moved aside, never deleted
//! ```
//!
//! An entry file is `{"format": FORMAT_VERSION, "key", "kind", "checksum",
//! "payload"}`, `checksum` the FNV-1a 64 hex digest of the rendered
//! payload. Every read re-checks format, key and checksum, and parses the
//! payload unless its row vouches for it (`DiskCache::vouch`); a
//! failure is a miss, counted as an error, that moves the file to
//! `quarantine/` for post-mortem.
//!
//! **Durability.** A put is `encode` (render), `land` (tmp file, fsync,
//! rename) and `commit` (index, one `index.log` row, no fsync), in line
//! in [`DiskCache::put`], after the reply in a `WriteBehind`. `entries/`
//! is the record, the index a recency and budget hint: opening replays
//! `index.json` and the log (torn lines skipped) and reconciles them with
//! one listing of `entries/` (rows without a file dropped, files without a
//! row adopted unread); [`DiskCache::flush`] compacts the log. A crash can
//! lose recency, never an entry or the budget.
//!
//! Every filesystem call goes through the [`crate::faults::Io`] seam
//! ([`DiskCache::open_with_io`] for the chaos suite). Opening sweeps the
//! `.tmp.*` debris of dead writes. Eviction is LRU over a logical tick
//! within a payload byte budget.

use crate::faults::{Io, RealIo};
use crate::hash::{fnv1a64, hex_digest};
use crate::json::Json;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Cache entry format version; bump on any incompatible change to the
/// entry or payload schema — old entries then read as misses.
pub const FORMAT_VERSION: u64 = 1;

/// Default size bound: 256 MiB of payload bytes.
pub const DEFAULT_MAX_BYTES: u64 = 256 << 20;

/// Prefix of the tmp files atomic writes stage in, which opening sweeps.
const TMP_PREFIX: &str = ".tmp.";

const INDEX: &str = "index.json";
const LOG: &str = "index.log";

/// `index.log` is compacted past this many rows for an index of `rows`,
/// so a put costs O(1) amortised.
const fn compaction_bound(rows: usize) -> usize {
    4 * rows + 64
}

/// Operation counters of one [`DiskCache`] instance (process-local).
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

/// One index row; `kind` is empty until a read names an adopted entry.
#[derive(Clone, Debug)]
struct IndexEntry {
    kind: String,
    bytes: u64,
    last_used: u64,
    /// In memory only: the checksum of a payload vouched for.
    vouched: Option<u64>,
}

impl IndexEntry {
    fn new(kind: String, bytes: u64, last_used: u64) -> IndexEntry {
        IndexEntry {
            kind,
            bytes,
            last_used,
            vouched: None,
        }
    }

    /// The row as `index.json` lists it and `index.log` appends it.
    fn to_json(&self, key: &str) -> Json {
        Json::obj(vec![
            ("key", Json::Str(key.to_string())),
            ("kind", Json::Str(self.kind.clone())),
            ("bytes", Json::Num(self.bytes as f64)),
            ("last_used", Json::Num(self.last_used as f64)),
        ])
    }

    fn parse(v: &Json) -> Option<(String, IndexEntry)> {
        let n = |field: &str| v.get(field).and_then(Json::as_u64).unwrap_or(0);
        let kind = v.str_field("kind").ok()?.to_string();
        let row = IndexEntry::new(kind, n("bytes"), n("last_used"));
        Some((v.str_field("key").ok()?.to_string(), row))
    }
}

/// A persistent, content-addressed, size-bounded LRU cache of compile
/// artifacts: keys are 16-hex-char content hashes, payloads JSON values
/// whose schema a `kind` string names.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: u64,
    tick: u64,
    entries: HashMap<String, IndexEntry>,
    /// Σ `bytes` over `entries`.
    total: u64,
    /// Rows this handle appended to `index.log` since it last compacted.
    log_rows: usize,
    stats: CacheStats,
    io: Box<dyn Io>,
    /// Whether `io` is the stateless [`RealIo`] (see [`WriteBehind`]).
    real: bool,
}

/// An entry rendered for landing ([`DiskCache::encode`]).
#[derive(Debug)]
pub(crate) struct Encoded {
    key: String,
    kind: String,
    text: String,
}

/// An entry [`DiskCache::read`] checked: its payload as stored, parsed
/// unless its row vouched for it, the payload's checksum, the file's size.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) kind: String,
    pub(crate) payload: String,
    pub(crate) json: Option<Json>,
    pub(crate) checksum: u64,
    bytes: u64,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory with a payload byte
    /// budget; a missing, torn or stale index is reconciled, no error.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path, max_bytes: u64) -> io::Result<DiskCache> {
        DiskCache::open_on(dir, max_bytes, Box::new(RealIo), true)
    }

    /// [`DiskCache::open`] over an explicit [`Io`] (fault injection).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with_io(dir: &Path, max_bytes: u64, io: Box<dyn Io>) -> io::Result<DiskCache> {
        DiskCache::open_on(dir, max_bytes, io, false)
    }

    fn open_on(dir: &Path, max_bytes: u64, io: Box<dyn Io>, real: bool) -> io::Result<DiskCache> {
        let mut cache = DiskCache {
            dir: dir.to_path_buf(),
            max_bytes: max_bytes.max(1),
            tick: 0,
            entries: HashMap::new(),
            total: 0,
            log_rows: 0,
            stats: CacheStats::default(),
            io,
            real,
        };
        let entries = dir.join("entries");
        cache.io.create_dir_all(&entries)?;
        cache.io.create_dir_all(&dir.join("quarantine"))?;
        let root = cache.io.read_dir_names(dir).unwrap_or_default();
        cache.sweep_stale_tmps(dir, root);
        let names = cache.io.read_dir_names(&entries)?;
        let files = cache.sweep_stale_tmps(&entries, names);
        if cache.reconcile(files) {
            // Best effort: a compaction that fails leaves the log, which
            // the next open replays.
            let _ = cache.flush();
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
        self.total
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        entry_path(&self.dir, key)
    }

    /// Files `key` in the index, over any earlier row.
    fn index(&mut self, key: String, row: IndexEntry) {
        self.total += row.bytes;
        if let Some(old) = self.entries.insert(key, row) {
            self.total -= old.bytes;
        }
    }

    /// Drops `key`'s row; returns whether there was one.
    fn unindex(&mut self, key: &str) -> bool {
        let old = self.entries.remove(key);
        self.total -= old.as_ref().map_or(0, |e| e.bytes);
        old.is_some()
    }

    /// Removes the `.tmp.*` files among `names`, the listing of `sub`, and
    /// returns the other names.
    fn sweep_stale_tmps(&mut self, sub: &Path, names: Vec<String>) -> Vec<String> {
        let mut kept = Vec::with_capacity(names.len());
        for name in names {
            if !name.starts_with(TMP_PREFIX) {
                kept.push(name);
            } else if self.io.remove_file(&sub.join(&name)).is_ok() {
                self.stats.swept_tmps += 1;
            }
        }
        kept
    }

    /// Builds the index from `index.json`, `index.log` and `files` (the
    /// listing of `entries/`). Returns whether it wants compacting.
    fn reconcile(&mut self, files: Vec<String>) -> bool {
        let mut read = |name: &str| self.io.read_to_string(&self.dir.join(name)).ok();
        let (index, log) = (read(INDEX), read(LOG));
        let mut rows: HashMap<String, IndexEntry> = HashMap::new();
        let index = index.and_then(|text| Json::parse(&text).ok());
        let current = |v: &Json| v.get("version").and_then(Json::as_u64) == Some(FORMAT_VERSION);
        if let Some(v) = index.filter(current) {
            self.tick = v.get("tick").and_then(Json::as_u64).unwrap_or(0);
            let listed = v.get("entries").and_then(Json::as_arr).unwrap_or_default();
            rows.extend(listed.iter().filter_map(IndexEntry::parse));
        }
        let mut dirty = log.is_some();
        // A torn append leaves a prefix the next row is glued onto: both
        // fail to parse and are skipped; their files are adopted below.
        let logged = log.iter().flat_map(|text| text.lines());
        for (key, mut row) in logged.filter_map(|l| IndexEntry::parse(&Json::parse(l).ok()?)) {
            // A put's row never lowers recency an earlier compaction recorded.
            row.last_used = row.last_used.max(rows.get(&key).map_or(0, |e| e.last_used));
            rows.insert(key, row);
        }
        for name in files {
            let Some(key) = name.strip_suffix(".json") else {
                continue;
            };
            match rows.remove(key) {
                Some(row) => {
                    self.tick = self.tick.max(row.last_used);
                    self.index(key.to_string(), row);
                }
                None => {
                    let bytes = self.io.metadata_len(&self.entry_path(key)).unwrap_or(0);
                    self.index(key.to_string(), IndexEntry::new(String::new(), bytes, 0));
                    dirty = true;
                }
            }
        }
        dirty || !rows.is_empty()
    }

    /// Whether an entry for `key` is indexed here or on disk (another
    /// process may have written it). Moves no counter.
    pub fn contains(&mut self, key: &str) -> bool {
        let path = self.entry_path(key);
        self.entries.contains_key(key) || self.io.exists(&path)
    }

    /// Looks up a key (`DiskCache::read`): `(kind, payload)`. Corrupt
    /// entries are quarantined and reported as misses.
    pub fn get(&mut self, key: &str) -> Option<(String, Json)> {
        let entry = self.read(key, false)?;
        let json = entry.json.or_else(|| Json::parse(&entry.payload).ok())?;
        Some((entry.kind, json))
    }

    /// The one counted read: `key`'s entry, checked, its row rewritten from
    /// the file (adopting one another process wrote). A corrupt entry is
    /// quarantined; it and an absent one are a miss unless `optional`.
    pub(crate) fn read(&mut self, key: &str, optional: bool) -> Option<Entry> {
        let vouched = self.entries.get(key).and_then(|row| row.vouched);
        let found = match self.contains(key).then(|| self.check(key, vouched)) {
            Some(Ok(entry)) => Some(entry),
            Some(Err(reason)) => {
                self.quarantine(key, &reason);
                None
            }
            None => None,
        };
        let Some(entry) = found else {
            self.stats.misses += u64::from(!optional);
            return None;
        };
        self.stats.hits += 1;
        self.tick += 1;
        let row = IndexEntry::new(entry.kind.clone(), entry.bytes, self.tick);
        self.index(key.to_string(), IndexEntry { vouched, ..row });
        Some(entry)
    }

    /// Reads `key`'s entry and checks format, key and checksum, and that
    /// the payload (which `encode` writes last) parses unless `vouched` is
    /// its checksum.
    fn check(&mut self, key: &str, vouched: Option<u64>) -> Result<Entry, String> {
        let path = self.entry_path(key);
        let read = self.io.read_to_string(&path);
        let mut text = read.map_err(|e| format!("unreadable: {e}"))?;
        let at = text.find(",\"payload\":").ok_or("missing payload")?;
        let head =
            Json::parse(&format!("{}}}", &text[..at])).map_err(|e| format!("bad json: {e}"))?;
        match head.get("format").and_then(Json::as_u64) {
            Some(FORMAT_VERSION) => {}
            format => return Err(format!("format {format:?} != {FORMAT_VERSION}")),
        }
        if head.str_field("key")? != key {
            return Err("key mismatch".to_string());
        }
        let start = at + ",\"payload\":".len();
        let payload = (text[start..].trim_end().strip_suffix('}')).ok_or("unterminated entry")?;
        let (recorded, checksum) = (head.str_field("checksum")?, fnv1a64(payload.as_bytes()));
        if recorded != format!("{checksum:016x}") {
            return Err(format!("checksum {checksum:016x} != recorded {recorded}"));
        }
        let json = match vouched == Some(checksum) {
            true => None,
            false => Some(Json::parse(payload).map_err(|e| format!("bad json: {e}"))?),
        };
        let (bytes, end) = (text.len() as u64, start + payload.len());
        text.truncate(end);
        text.drain(..start);
        let kind = head.str_field("kind")?.to_string();
        Ok(Entry {
            kind,
            payload: text,
            json,
            checksum,
            bytes,
        })
    }

    /// Records that `key`'s payload of checksum `checksum` was shown
    /// well-formed: its reads skip the parse.
    pub(crate) fn vouch(&mut self, key: &str, checksum: u64) {
        if let Some(row) = self.entries.get_mut(key) {
            row.vouched = Some(checksum);
        }
    }

    /// Writes an entry atomically and commits its row, in line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the cache directory is left
    /// consistent (the rename either happened or it didn't).
    pub fn put(&mut self, key: &str, kind: &str, payload: &Json) -> io::Result<()> {
        let entry = DiskCache::encode(key, kind, &payload.render());
        land(self.io.as_mut(), &self.dir, &entry)?;
        self.commit(&entry)
    }

    /// Renders the entry file of a put of the rendered `payload_text`,
    /// touching no cache state.
    pub(crate) fn encode(key: &str, kind: &str, payload_text: &str) -> Encoded {
        let head = Json::obj(vec![
            ("format", Json::Num(FORMAT_VERSION as f64)),
            ("key", Json::Str(key.to_string())),
            ("kind", Json::Str(kind.to_string())),
            ("checksum", Json::Str(hex_digest(payload_text))),
        ]);
        // The payload is spliced in as the last field.
        let mut text = String::with_capacity(payload_text.len() + 128);
        head.render_into(&mut text);
        text.pop();
        text.push_str(",\"payload\":");
        text.push_str(payload_text);
        text.push('}');
        let (key, kind) = (key.to_string(), kind.to_string());
        Encoded { key, kind, text }
    }

    /// Files a landed entry: indexes its row, evicts to the budget, and
    /// appends the row to `index.log`, compacting the log past its bound.
    fn commit(&mut self, entry: &Encoded) -> io::Result<()> {
        self.tick += 1;
        let row = IndexEntry::new(entry.kind.clone(), entry.text.len() as u64, self.tick);
        let mut line = row.to_json(&entry.key).render();
        line.push('\n');
        self.index(entry.key.clone(), row);
        self.stats.puts += 1;
        self.evict_to_budget(&entry.key);
        self.io.append(&self.dir.join(LOG), line.as_bytes())?;
        self.log_rows += 1;
        if self.log_rows > compaction_bound(self.entries.len()) {
            self.flush()?;
        }
        Ok(())
    }

    /// Evicts LRU entries until the budget holds, never evicting
    /// `keep` (the entry just written).
    fn evict_to_budget(&mut self, keep: &str) {
        while self.total > self.max_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(key, _)| *key != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else { break };
            let path = self.entry_path(&victim);
            let _ = self.io.remove_file(&path);
            self.unindex(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Removes an entry. Returns whether it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        let existed = self.unindex(key);
        let path = self.entry_path(key);
        let on_disk = self.io.remove_file(&path).is_ok();
        existed || on_disk
    }

    /// Lists `(key, kind, bytes, last_used)` for every indexed entry,
    /// most recently used first.
    pub fn list(&self) -> Vec<(String, String, u64, u64)> {
        (self.by_recency().into_iter())
            .map(|(key, e)| (key.clone(), e.kind.clone(), e.bytes, e.last_used))
            .collect()
    }

    fn by_recency(&self) -> Vec<(&String, &IndexEntry)> {
        let mut rows: Vec<_> = self.entries.iter().collect();
        rows.sort_by(|a, b| b.1.last_used.cmp(&a.1.last_used).then_with(|| a.0.cmp(b.0)));
        rows
    }

    /// Re-checks every entry, indexed or only in `entries/`: the corrupt
    /// quarantined, the sound re-indexed. Returns `(ok, quarantined)`.
    pub fn verify(&mut self) -> (usize, usize) {
        let mut keys: Vec<String> = self.entries.keys().cloned().collect();
        let names = (self.io.read_dir_names(&self.dir.join("entries"))).unwrap_or_default();
        let files = names.iter().filter(|name| !name.starts_with(TMP_PREFIX));
        keys.extend(files.filter_map(|name| Some(name.strip_suffix(".json")?.to_string())));
        keys.sort();
        keys.dedup();
        let (mut ok, mut bad) = (0, 0);
        for key in keys {
            match self.check(&key, None) {
                Ok(Entry { kind, bytes, .. }) => {
                    let last_used = self.entries.get(&key).map_or(0, |e| e.last_used);
                    self.index(key, IndexEntry::new(kind, bytes, last_used));
                    ok += 1;
                }
                Err(reason) => {
                    self.quarantine(&key, &reason);
                    bad += 1;
                }
            }
        }
        (ok, bad)
    }

    /// Number of quarantined corpses on disk (uninspected corruption).
    pub fn quarantined_count(&mut self) -> usize {
        self.io
            .read_dir_names(&self.dir.join("quarantine"))
            .map(|names| names.len())
            .unwrap_or(0)
    }

    /// Deletes every quarantined corpse. Returns the number removed.
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
        self.unindex(key);
        self.stats.errors += 1;
        eprintln!("[cache] quarantined {key}: {reason}");
    }

    /// Compacts: writes the index to `index.json` atomically, then removes
    /// `index.log` (at shutdown, or once the log outgrows the index).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn flush(&mut self) -> io::Result<()> {
        let rows = self.by_recency().into_iter();
        let entries = rows.map(|(key, row)| row.to_json(key)).collect();
        let index = Json::obj(vec![
            ("version", Json::Num(FORMAT_VERSION as f64)),
            ("tick", Json::Num(self.tick as f64)),
            ("entries", Json::Arr(entries)),
        ]);
        write_atomic(
            self.io.as_mut(),
            &self.dir.join(INDEX),
            index.render().as_bytes(),
        )?;
        self.log_rows = 0;
        match self.io.remove_file(&self.dir.join(LOG)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join("entries").join(format!("{key}.json"))
}

/// Lands `entry` in the cache at `dir`: written, fsynced, renamed.
fn land(io: &mut dyn Io, dir: &Path, entry: &Encoded) -> io::Result<()> {
    write_atomic(io, &entry_path(dir, &entry.key), entry.text.as_bytes())
}

/// Writes `bytes` to `path` atomically: a tmp file beside it, flushed,
/// renamed over it.
fn write_atomic(io: &mut dyn Io, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let tmp = path.with_file_name(format!("{TMP_PREFIX}{}.{base}", std::process::id()));
    io.write(&tmp, bytes)?;
    io.rename(&tmp, path)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("cache lock poisoned")
}

/// Entries answered but not yet committed, oldest first (the front one
/// stays queued while it lands), and whether the queue is closed.
type Queue = (VecDeque<Arc<Encoded>>, bool);

/// A [`DiskCache`] with one persister thread that lands and commits
/// queued puts in FIFO order: over [`RealIo`] without the cache's lock,
/// over another [`Io`] under it (a [`crate::FaultyIo`]'s verdicts stay one
/// stream). Reads wait for the queue to empty, except of an absent key
/// ([`WriteBehind::read`]). Dropping it lands the queue.
#[derive(Debug)]
pub(crate) struct WriteBehind {
    shared: Arc<Shared>,
    persister: Option<JoinHandle<()>>,
}

/// What a [`WriteBehind`] shares with its persister.
#[derive(Debug)]
struct Shared {
    cache: Mutex<DiskCache>,
    queue: Mutex<Queue>,
    /// Rung on every change of the queue.
    bell: Condvar,
}

impl Shared {
    /// The queue, once `ready` holds of it.
    fn queue_when(&self, ready: impl Fn(&Queue) -> bool) -> MutexGuard<'_, Queue> {
        (self.bell.wait_while(lock(&self.queue), |q| !ready(q))).expect("cache lock poisoned")
    }

    /// The persister's loop, until the queue is closed and empty.
    fn persist(&self, dir: &Path, real: bool) {
        loop {
            let queue = self.queue_when(|q| !q.0.is_empty() || q.1);
            let Some(entry) = queue.0.front().cloned() else {
                return;
            };
            drop(queue);
            let landed = if real {
                land(&mut RealIo, dir, &entry)
            } else {
                land(lock(&self.cache).io.as_mut(), dir, &entry)
            };
            if let Err(e) = landed.and_then(|()| lock(&self.cache).commit(&entry)) {
                eprintln!("[serve] cache write for {} failed: {e}", entry.key);
            }
            lock(&self.queue).0.pop_front();
            self.bell.notify_all();
        }
    }
}

impl WriteBehind {
    pub(crate) fn new(cache: DiskCache) -> WriteBehind {
        let (dir, real) = (cache.dir.clone(), cache.real);
        let (cache, queue, bell) = (Mutex::new(cache), Mutex::default(), Condvar::new());
        let shared = Arc::new(Shared { cache, queue, bell });
        let persist = Arc::clone(&shared);
        let persister = Some(std::thread::spawn(move || persist.persist(&dir, real)));
        WriteBehind { shared, persister }
    }

    /// Queues `entry` for the persister.
    pub(crate) fn put(&self, entry: Encoded) {
        lock(&self.shared.queue).0.push_back(Arc::new(entry));
        self.shared.bell.notify_all();
    }

    /// Runs `f` once every queued entry landed, the persister idle until
    /// it returns: `f`'s filesystem calls come in a queueless order.
    pub(crate) fn settled<R>(&self, f: impl FnOnce(&mut DiskCache) -> R) -> R {
        let _idle = self.shared.queue_when(|q| q.0.is_empty());
        f(&mut lock(&self.shared.cache))
    }

    fn queued(&self, key: &str) -> bool {
        lock(&self.shared.queue).0.iter().any(|e| e.key == key)
    }

    /// Whether `key` is queued or indexed; touches no file.
    pub(crate) fn holds(&self, key: &str) -> bool {
        self.queued(key) || lock(&self.shared.cache).entries.contains_key(key)
    }

    /// [`DiskCache::read`] of `key`: at once for a key with no queued
    /// entry, no row and no file (a probe no [`crate::FaultyIo`] rolls
    /// for), else once settled.
    pub(crate) fn read(&self, key: &str, optional: bool) -> Option<Entry> {
        if !self.queued(key) {
            let mut cache = lock(&self.shared.cache);
            if !cache.contains(key) {
                cache.stats.misses += u64::from(!optional);
                return None;
            }
        }
        self.settled(|c| c.read(key, optional))
    }

    /// [`DiskCache::vouch`], without waiting for the queue.
    pub(crate) fn vouch(&self, key: &str, checksum: u64) {
        lock(&self.shared.cache).vouch(key, checksum);
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        (self.shared.queue.lock())
            .unwrap_or_else(PoisonError::into_inner)
            .1 = true;
        self.shared.bell.notify_all();
        if let Some(Err(_)) = self.persister.take().map(JoinHandle::join) {
            eprintln!("[serve] the cache persister panicked");
        }
    }
}
