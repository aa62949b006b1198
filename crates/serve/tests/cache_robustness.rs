//! Robustness tests for the persistent schedule cache: byte-identical
//! replay, corruption quarantine, single-flight deduplication, the LRU
//! size bound, the index journal (what a put writes, what an open
//! reconciles), and directories shared by two handles.

use polyject_gpusim::GpuModel;
use polyject_serve::hash::hex_digest;
use polyject_serve::{compile_reply, CacheStats, CompileService, DiskCache, Io, Json, Served};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const SRC: &str = "kernel roundtrip\n\
                   tensor a[64]: f32\n\
                   tensor b[64]: f32\n\
                   stmt S for (i in 0..64)\n  b[i] = (a[i] * 2.0)\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pj-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cache_replay_is_byte_identical_to_fresh_compile() {
    let dir = temp_dir("replay");
    let gpu = GpuModel::v100();
    let service = CompileService::new(Some(DiskCache::open_default(&dir).unwrap()), gpu.clone());

    let (fresh, served) = service.serve(SRC, "infl").unwrap();
    assert_eq!(served, Served::Fresh);
    let (replay, served) = service.serve(SRC, "infl").unwrap();
    assert_eq!(served, Served::Hit);

    // The cached reply must replay every artifact byte for byte —
    // including bit-exact f64 timings — against both the first serve and
    // a from-scratch in-process compile.
    assert_eq!(replay.to_json().render(), fresh.to_json().render());
    // Against a from-scratch compile everything but the compile
    // wall-clock (the only nondeterministic field) must agree.
    let mut direct = compile_reply(SRC, "infl", &gpu).unwrap();
    let mut replay_norm = replay.clone();
    direct.compile_ms = 0.0;
    replay_norm.compile_ms = 0.0;
    assert_eq!(replay_norm.to_json().render(), direct.to_json().render());
    assert!(replay.cuda.contains("__global__"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_truncated_entries_are_quarantined_misses() {
    let dir = temp_dir("corrupt");
    let mut cache = DiskCache::open_default(&dir).unwrap();
    let payload = Json::obj(vec![("v", Json::Num(42.0))]);
    for key in ["truncated", "flipped", "garbage"] {
        cache.put(key, "test", &payload).unwrap();
    }
    cache.flush().unwrap();

    let entries = dir.join("entries");
    // Truncate one entry mid-JSON.
    let p = entries.join("truncated.json");
    let text = std::fs::read_to_string(&p).unwrap();
    std::fs::write(&p, &text[..text.len() / 2]).unwrap();
    // Flip the payload of another so its checksum no longer matches.
    let p = entries.join("flipped.json");
    let text = std::fs::read_to_string(&p).unwrap();
    std::fs::write(&p, text.replace("42", "43")).unwrap();
    // And replace one with outright garbage.
    std::fs::write(entries.join("garbage.json"), "not json at all").unwrap();

    for key in ["truncated", "flipped", "garbage"] {
        assert!(cache.get(key).is_none(), "{key} must miss");
        assert!(
            !entries.join(format!("{key}.json")).exists(),
            "{key} must be moved aside"
        );
    }
    let quarantined: Vec<_> = std::fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .filter_map(|e| e.ok())
        .collect();
    assert_eq!(
        quarantined.len(),
        3,
        "corrupt entries are kept, not deleted"
    );
    assert_eq!(cache.stats().misses, 3);
    assert_eq!(cache.stats().errors, 3);

    // A quarantined key can be rewritten and then hits again.
    cache.put("flipped", "test", &payload).unwrap();
    assert_eq!(cache.get("flipped").unwrap().1, payload);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_same_key_requests_compile_exactly_once() {
    let dir = temp_dir("singleflight");
    let service = Arc::new(CompileService::new(
        Some(DiskCache::open_default(&dir).unwrap()),
        GpuModel::v100(),
    ));

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.serve(SRC, "infl").unwrap())
        })
        .collect();
    let outcomes: Vec<(String, Served)> = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .map(|(reply, served)| (reply.to_json().render(), served))
        .collect();

    let fresh = outcomes.iter().filter(|(_, s)| *s == Served::Fresh).count();
    assert_eq!(
        fresh, 1,
        "exactly one thread may run the compiler: {outcomes:?}"
    );
    // Everyone gets the same bytes regardless of how they were served.
    assert!(outcomes.iter().all(|(r, _)| *r == outcomes[0].0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_eviction_respects_the_size_bound() {
    let dir = temp_dir("lru");
    let payload = Json::Str("x".repeat(512));
    let budget = 4 * 1024;
    let mut cache = DiskCache::open(&dir, budget).unwrap();
    for i in 0..32 {
        cache.put(&format!("k{i}"), "test", &payload).unwrap();
        // Keep k0 hot so recency, not insertion order, decides eviction.
        assert!(cache.get("k0").is_some(), "hot key evicted at step {i}");
        assert!(cache.total_bytes() <= budget, "budget exceeded at step {i}");
    }
    assert!(cache.stats().evictions > 0);
    assert!(cache.get("k1").is_none(), "cold key must be evicted");

    // The bound also holds for the files actually on disk.
    let on_disk: u64 = std::fs::read_dir(dir.join("entries"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .sum();
    assert!(on_disk <= budget, "{on_disk} bytes on disk > {budget}");

    let _ = std::fs::remove_dir_all(&dir);
}

fn payload(tag: &str) -> Json {
    Json::obj(vec![
        ("cuda", Json::Str(format!("__global__ void {tag}() {{}}"))),
        ("ms", Json::Num(1.25)),
    ])
}

/// Asserts the index holds exactly what `entries/` holds: one row per
/// file, and `total_bytes()` their summed size.
fn assert_indexes_entries_dir(cache: &DiskCache, dir: &Path) {
    let sizes: Vec<u64> = std::fs::read_dir(dir.join("entries"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .collect();
    assert_eq!(
        (cache.len(), cache.total_bytes()),
        (sizes.len(), sizes.iter().sum()),
        "index (rows, bytes) vs entries/ (files, bytes)"
    );
}

#[test]
fn put_get_roundtrip_and_persistence() {
    let dir = temp_dir("roundtrip");
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
    let dir = temp_dir("rebuild");
    let mut c = DiskCache::open_default(&dir).unwrap();
    c.put("k1", "compile", &payload("a")).unwrap();
    c.put("k2", "compile", &payload("b")).unwrap();
    c.flush().unwrap();
    drop(c);
    std::fs::remove_file(dir.join("index.json")).unwrap();
    let mut c = DiskCache::open_default(&dir).unwrap();
    assert_eq!(c.len(), 2);
    assert_indexes_entries_dir(&c, &dir);
    assert!(c.get("k1").is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lru_eviction_respects_recency_and_budget() {
    let dir = temp_dir("lru-recency");
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
    let dir = temp_dir("rm");
    let mut c = DiskCache::open_default(&dir).unwrap();
    c.put("k1", "compile", &payload("a")).unwrap();
    c.put("k2", "tuned-config", &payload("b")).unwrap();
    let l = c.list();
    assert_eq!(l.len(), 2);
    assert_eq!(l[0].0, "k2", "most recent first");
    assert!(c.remove("k1"));
    assert!(!c.remove("k1"));
    assert_eq!(c.len(), 1);
    assert_indexes_entries_dir(&c, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_tmps_swept_on_open() {
    // Simulate writes that died between create and rename: torn
    // `.tmp.*` staging files in both the root (index writes) and
    // `entries/` (entry writes). Opening must reclaim them all while
    // leaving live entries untouched.
    let dir = temp_dir("sweep");
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
    let dir = temp_dir("torn");
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
    assert!(c.is_empty(), "and dropped from the index");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_covers_unindexed_entries_and_counts_corpses() {
    let dir = temp_dir("verify");
    let mut c = DiskCache::open_default(&dir).unwrap();
    c.put("good", "compile", &payload("ok")).unwrap();
    drop(c);
    // An entry file the index knows nothing about (e.g. dropped from
    // a stale index), corrupted on disk.
    let orphan = dir.join("entries").join("orphan.json");
    std::fs::write(&orphan, "{\"format\":1,\"key\":\"orphan\",\"ga").unwrap();
    let mut c = DiskCache::open_default(&dir).unwrap();
    assert!(
        c.list().iter().any(|row| row.0 == "orphan"),
        "adopted unread"
    );
    let (ok, bad) = c.verify();
    assert_eq!((ok, bad), (1, 1), "orphan found and quarantined");
    assert!(!orphan.exists());
    assert_eq!(c.len(), 1, "and dropped from the index");
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

#[test]
fn entry_bytes_are_the_whole_entry_object_rendered() {
    // `put` renders the payload once and splices it into the entry text;
    // the bytes must be those of rendering the whole object, escapes and
    // all, or every checksum and replay digest downstream moves.
    let dir = temp_dir("splice");
    let mut c = DiskCache::open_default(&dir).unwrap();
    let p = Json::obj(vec![
        (
            "cuda",
            Json::Str("a \"quoted\"\n\tline \\ é ✓ \u{1}".to_string()),
        ),
        ("ms", Json::Num(-0.0)),
        (
            "nested",
            Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(0.1)]),
        ),
    ]);
    for (key, kind) in [("00ff00ff00ff00ff", "compile"), ("k\"2", "tuned-config")] {
        c.put(key, kind, &p).unwrap();
        let want = Json::obj(vec![
            ("format", Json::Num(1.0)),
            ("key", Json::Str(key.to_string())),
            ("kind", Json::Str(kind.to_string())),
            ("checksum", Json::Str(hex_digest(&p.render()))),
            ("payload", p.clone()),
        ])
        .render();
        let got = std::fs::read_to_string(dir.join("entries").join(format!("{key}.json")));
        assert_eq!(got.unwrap(), want, "{key}");
        assert_eq!(c.get(key).unwrap(), (kind.to_string(), p.clone()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_writes_the_index_format_older_readers_expect() {
    // A compacted directory is a plain `index.json` and no log: exactly
    // the layout a reader without the journal loads.
    let dir = temp_dir("compat");
    let mut c = DiskCache::open_default(&dir).unwrap();
    c.put("k1", "compile", &payload("a")).unwrap();
    c.put("k2", "tuned-config", &payload("b")).unwrap();
    assert!(dir.join("index.log").exists(), "a put appends a row");
    c.flush().unwrap();
    assert!(
        !dir.join("index.log").exists(),
        "compaction removes the log"
    );
    let bytes = |k: &str| {
        std::fs::metadata(dir.join("entries").join(k))
            .unwrap()
            .len()
    };
    let want = format!(
        "{{\"version\":1,\"tick\":2,\"entries\":[\
         {{\"key\":\"k2\",\"kind\":\"tuned-config\",\"bytes\":{},\"last_used\":2}},\
         {{\"key\":\"k1\",\"kind\":\"compile\",\"bytes\":{},\"last_used\":1}}]}}",
        bytes("k2.json"),
        bytes("k1.json")
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("index.json")).unwrap(),
        want
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_handles_on_one_directory_keep_every_entry_in_the_budget() {
    // The documented sharing (`contains`, adoption on read): A puts k1,
    // B puts k2, A puts k3. A compacts from its own view, which never
    // saw k2. Reopened, the index must still count all three files.
    let dir = temp_dir("two-handles");
    let mut a = DiskCache::open_default(&dir).unwrap();
    let mut b = DiskCache::open_default(&dir).unwrap();
    a.put("k1", "compile", &payload("one")).unwrap();
    b.put("k2", "compile", &payload("two")).unwrap();
    a.put("k3", "compile", &payload("three")).unwrap();
    drop(b);
    a.flush().unwrap();
    drop(a);
    let mut c = DiskCache::open_default(&dir).unwrap();
    assert_eq!(c.len(), 3);
    assert_indexes_entries_dir(&c, &dir);
    for (key, tag) in [("k1", "one"), ("k2", "two"), ("k3", "three")] {
        assert_eq!(c.get(key).unwrap(), ("compile".to_string(), payload(tag)));
    }
    assert_indexes_entries_dir(&c, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_entry_renamed_without_its_row_still_counts_against_the_budget() {
    // A kill between an entry's rename and its index row leaves a file no
    // row names. Simulated by landing a sound entry written elsewhere.
    let (dir, other) = (temp_dir("crash-window"), temp_dir("crash-window-src"));
    let mut c = DiskCache::open_default(&dir).unwrap();
    c.put("k1", "compile", &payload("a")).unwrap();
    c.put("k2", "compile", &payload("b")).unwrap();
    c.flush().unwrap();
    drop(c);
    let mut o = DiskCache::open_default(&other).unwrap();
    o.put("k3", "compile", &payload("c")).unwrap();
    drop(o);
    let landed = dir.join("entries").join("k3.json");
    std::fs::copy(other.join("entries").join("k3.json"), &landed).unwrap();

    let mut c = DiskCache::open_default(&dir).unwrap();
    assert_eq!(c.len(), 3);
    assert_indexes_entries_dir(&c, &dir);
    assert_eq!(c.get("k3").unwrap().1, payload("c"));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&other).unwrap();
}

/// One filesystem call as [`MemIo`] saw it: the operation, the file name
/// it touched (a rename's destination), and the bytes it wrote.
type Op = (&'static str, String, usize);

/// An in-memory [`Io`] that logs every call, so a test can pin what a
/// put costs without a disk or a clock.
#[derive(Debug, Default)]
struct MemIo {
    files: BTreeMap<PathBuf, Vec<u8>>,
    ops: Arc<Mutex<Vec<Op>>>,
}

impl MemIo {
    fn log(&self, op: &'static str, path: &Path, bytes: usize) {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        self.ops.lock().unwrap().push((op, name, bytes));
    }

    fn missing() -> io::Error {
        io::Error::from(io::ErrorKind::NotFound)
    }
}

impl Io for MemIo {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.log("mkdir", path, 0);
        Ok(())
    }

    fn read_to_string(&mut self, path: &Path) -> io::Result<String> {
        self.log("read", path, 0);
        let bytes = self.files.get(path).ok_or_else(MemIo::missing)?;
        Ok(String::from_utf8(bytes.clone()).unwrap())
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("write", path, bytes.len());
        self.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("append", path, bytes.len());
        self.files
            .entry(path.to_path_buf())
            .or_default()
            .extend(bytes);
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.log("rename", to, 0);
        let bytes = self.files.remove(from).ok_or_else(MemIo::missing)?;
        self.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.log("remove", path, 0);
        self.files.remove(path).map(drop).ok_or_else(MemIo::missing)
    }

    fn metadata_len(&mut self, path: &Path) -> io::Result<u64> {
        self.log("stat", path, 0);
        let bytes = self.files.get(path).ok_or_else(MemIo::missing)?;
        Ok(bytes.len() as u64)
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.log("exists", path, 0);
        self.files.contains_key(path)
    }

    fn read_dir_names(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.log("readdir", dir, 0);
        let names = self.files.keys().filter(|p| p.parent() == Some(dir));
        Ok(names
            .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
            .collect())
    }
}

/// A cache over a fresh [`MemIo`], and the handle to its call log.
fn mem_cache() -> (DiskCache, Arc<Mutex<Vec<Op>>>) {
    let io = MemIo::default();
    let ops = Arc::clone(&io.ops);
    let cache = DiskCache::open_with_io(Path::new("/mem-cache"), 1 << 40, Box::new(io)).unwrap();
    (cache, ops)
}

/// Runs `f` and returns the calls it made.
fn calls(ops: &Mutex<Vec<Op>>, f: impl FnOnce()) -> Vec<Op> {
    ops.lock().unwrap().clear();
    f();
    std::mem::take(&mut *ops.lock().unwrap())
}

#[test]
fn a_put_is_one_entry_write_one_rename_and_one_append() {
    // Eight keys put over and over: the index keeps 8 rows, so the log is
    // compacted on the put that takes it past 4 * 8 + 64 = 96 rows, and
    // no put before that touches index.json.
    let (mut cache, ops) = mem_cache();
    let mut compactions = Vec::new();
    for i in 0..200 {
        let key = format!("k{}", i % 8);
        let done = calls(&ops, || {
            cache
                .put(&key, "compile", &payload(&i.to_string()))
                .unwrap()
        });
        let names: Vec<(&str, &str)> = done.iter().map(|(op, f, _)| (*op, f.as_str())).collect();
        let entry = format!("{key}.json");
        assert_eq!(
            names[1..3],
            [("rename", entry.as_str()), ("append", "index.log")]
        );
        assert_eq!(names[0].0, "write");
        if names.len() > 3 {
            assert_eq!(
                names[3..],
                [
                    ("write", names[3].1),
                    ("rename", "index.json"),
                    ("remove", "index.log")
                ],
                "put {i}"
            );
            compactions.push(i);
        }
    }
    assert_eq!(compactions, [96, 193], "compacted exactly at the bound");
}

#[test]
fn a_put_costs_the_same_io_however_full_the_cache() {
    // 5 000 distinct equal-sized puts: the last 1 000 issue as many calls
    // as the first 1 000 and write as many bytes, give or take the tick's
    // extra digits in each row (an index rewrite per put would write
    // thousands of rows more).
    let (mut cache, ops) = mem_cache();
    let mut per_put = Vec::new();
    for i in 0..5_000u64 {
        let p = Json::Str(format!("{i:08}"));
        let done = calls(&ops, || {
            cache.put(&format!("{i:016x}"), "compile", &p).unwrap()
        });
        per_put.push((done.len(), done.iter().map(|op| op.2).sum::<usize>()));
    }
    let sum = |range: std::ops::Range<usize>| {
        let span = &per_put[range];
        let n: usize = span.iter().map(|p| p.0).sum();
        let bytes: usize = span.iter().map(|p| p.1).sum();
        (n, bytes)
    };
    let ((first_n, first_b), (last_n, last_b)) = (sum(0..1_000), sum(4_000..5_000));
    assert_eq!((first_n, last_n), (3_000, 3_000), "write, rename, append");
    assert!(last_b <= first_b + 2 * 1_000, "{first_b} -> {last_b} bytes");
    assert_eq!(cache.len(), 5_000);
}

#[test]
fn open_replays_the_log_and_compacts_it_once() {
    let dir = temp_dir("replay-log");
    let mut c = DiskCache::open_default(&dir).unwrap();
    for i in 0..10 {
        c.put(&format!("k{i}"), "compile", &payload(&i.to_string()))
            .unwrap();
    }
    assert!(c.get("k3").is_some());
    let before = c.list();
    drop(c);
    assert!(!dir.join("index.json").exists(), "nothing compacted yet");
    let c = DiskCache::open_default(&dir).unwrap();
    assert!(dir.join("index.json").exists() && !dir.join("index.log").exists());
    // Recency of the puts survives; the read's bump was never logged.
    let order = |rows: &[(String, String, u64, u64)]| -> Vec<String> {
        rows.iter()
            .map(|r| r.0.clone())
            .filter(|k| k != "k3")
            .collect()
    };
    assert_eq!(order(&c.list()), order(&before));
    assert_indexes_entries_dir(&c, &dir);
    drop(c);
    // A torn tail (half a row, no newline) is skipped, not fatal.
    std::fs::write(dir.join("index.log"), "{\"key\":\"k1\",\"ki").unwrap();
    let c = DiskCache::open_default(&dir).unwrap();
    assert_eq!(c.len(), 10);
    assert_indexes_entries_dir(&c, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}
