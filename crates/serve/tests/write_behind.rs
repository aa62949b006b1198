//! The write-behind contract of a cache-backed `CompileService`: a fresh
//! compile is answered before its entry is written, a later request for
//! the key waits for the entry and reads it back from disk, and dropping
//! the service or shutting a daemon down lands every queued entry.

use polyject_gpusim::GpuModel;
use polyject_serve::{
    run_daemon, BatchItem, Client, CompileReply, CompileService, DaemonConfig, DiskCache, Endpoint,
    FaultyIo, Io, RealIo, Served,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn axpy(n: usize) -> String {
    format!(
        "kernel axpy\nparam N = {n}\ntensor X[N]: f32\ntensor Y[N]: f32\n\
         stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]\n"
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pj-wb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A gate that starts closed and, once opened, stays open.
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

/// An [`Io`] whose `write` waits at a [`Gate`] and then logs its outcome.
#[derive(Debug)]
struct GatedIo<I: Io> {
    inner: I,
    gate: Arc<Gate>,
    writes: Arc<Mutex<Vec<io::Result<()>>>>,
}

impl<I: Io> GatedIo<I> {
    fn new(inner: I, gate: &Arc<Gate>) -> GatedIo<I> {
        let (gate, writes) = (Arc::clone(gate), Arc::default());
        GatedIo {
            inner,
            gate,
            writes,
        }
    }
}

impl<I: Io> Io for GatedIo<I> {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_to_string(&mut self, path: &Path) -> io::Result<String> {
        self.inner.read_to_string(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.gate.pass();
        let result = self.inner.write(path, bytes);
        let logged = result
            .as_ref()
            .map_err(|e| io::Error::new(e.kind(), e.to_string()));
        self.writes.lock().unwrap().push(logged.copied());
        result
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn metadata_len(&mut self, path: &Path) -> io::Result<u64> {
        self.inner.metadata_len(path)
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn read_dir_names(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(dir)
    }
}

fn service_over(dir: &Path, io: impl Io + 'static) -> CompileService {
    let cache = DiskCache::open_with_io(dir, 1 << 20, Box::new(io)).unwrap();
    CompileService::new(Some(cache), GpuModel::v100())
}

/// Whether two replies carry the same artifacts under the same key.
fn same(a: &CompileReply, b: &CompileReply) -> bool {
    (&a.key, &a.cuda, &a.schedule_tree) == (&b.key, &b.cuda, &b.schedule_tree)
}

/// Whether `key`'s entry in `dir` reads back, checksum-verified, as `reply`.
fn verifies(dir: &Path, key: &str, reply: &CompileReply) -> bool {
    let found = DiskCache::open(dir, 1 << 20).unwrap().get(key);
    found.is_some_and(|(kind, payload)| {
        kind == "compile" && CompileReply::from_json(&payload).is_ok_and(|r| same(&r, reply))
    })
}

#[test]
fn a_fresh_reply_is_answered_before_its_entry_is_written_and_read_back_after() {
    let dir = tmpdir("gate");
    let gate = Arc::new(Gate::default());
    let svc = service_over(&dir, GatedIo::new(RealIo, &gate));
    let src = axpy(64);
    let (fresh, how) = svc.serve(&src, "infl").unwrap();
    assert_eq!(how, Served::Fresh);
    let entry = dir.join("entries").join(format!("{}.json", fresh.key));
    assert!(!entry.exists(), "answered while the entry write is blocked");

    std::thread::scope(|s| {
        let repeat = s.spawn(|| svc.serve(&src, "infl").unwrap());
        std::thread::sleep(Duration::from_millis(100));
        assert!(!repeat.is_finished(), "the repeat waits for the entry");
        gate.open();
        let (again, how) = repeat.join().unwrap();
        assert_eq!(how, Served::Hit, "read back from disk, not recompiled");
        assert!(same(&again, &fresh));
    });
    let stats = svc.with_cache(|c| c.stats()).unwrap();
    assert_eq!((stats.puts, stats.hits), (1, 1), "compiled once");
    drop(svc);
    assert!(verifies(&dir, &fresh.key, &fresh));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dropping_the_service_lands_its_queued_entry() {
    let dir = tmpdir("drop");
    let gate = Arc::new(Gate::default());
    let svc = service_over(&dir, GatedIo::new(RealIo, &gate));
    let (fresh, _) = svc.serve(&axpy(48), "isl").unwrap();
    let entry = dir.join("entries").join(format!("{}.json", fresh.key));
    assert!(!entry.exists());
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            gate.open();
        })
    };
    drop(svc);
    assert!(entry.exists(), "drop returned before the entry landed");
    opener.join().unwrap();
    assert!(verifies(&dir, &fresh.key, &fresh));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_enospc_on_a_queued_put_answers_ok_and_the_next_request_recompiles() {
    // Every operation of this FaultyIo faults; under seed 1 the entry
    // write is the ENOSPC kind (a prefix lands, then the write fails).
    let dir = tmpdir("enospc");
    let gate = Arc::new(Gate::default());
    gate.open();
    let io = GatedIo::new(FaultyIo::new(RealIo, 1, 1), &gate);
    let writes = Arc::clone(&io.writes);
    let svc = service_over(&dir, io);
    let src = axpy(40);
    let (first, how) = svc.serve(&src, "infl").expect("the reply does not wait");
    assert_eq!(how, Served::Fresh);
    let puts = svc.with_cache(|c| c.stats().puts).unwrap();
    let failed = writes.lock().unwrap()[0].as_ref().unwrap_err().to_string();
    assert!(failed.contains("no space left on device"), "{failed}");
    assert_eq!(puts, 0, "the failed write was never indexed");
    let (second, how) = svc.serve(&src, "infl").unwrap();
    assert_eq!(how, Served::Fresh, "nothing cached: compiled again");
    assert_eq!(second.cuda, first.cuda);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_shutdown_lands_every_answered_entry() {
    let dir = tmpdir("daemon");
    std::fs::create_dir_all(&dir).unwrap();
    let endpoint = Endpoint::Unix(dir.join("d.sock"));
    let config = DaemonConfig {
        endpoint: endpoint.clone(),
        workers: 1,
        cache_dir: Some(dir.join("cache")),
        ..DaemonConfig::default()
    };
    let daemon = std::thread::spawn(move || run_daemon(config));
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = loop {
        if let Ok(mut c) = Client::connect(&endpoint) {
            if c.ping().unwrap_or(false) {
                break c;
            }
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(10));
    };
    let items: Vec<BatchItem> = (0..6)
        .map(|i| BatchItem::new(axpy(32 + i), "infl"))
        .collect();
    let replies = client.compile_batch(&items, None).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    for reply in &replies {
        assert_eq!(reply.str_field("status"), Ok("ok"), "{}", reply.render());
        let reply = CompileReply::from_json(reply).unwrap();
        assert!(
            verifies(&dir.join("cache"), &reply.key, &reply),
            "{}",
            reply.key
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
