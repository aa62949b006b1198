//! Deterministic fault injection for the disk cache's file operations.
//!
//! [`Io`] is the seam: every filesystem call [`crate::cache::DiskCache`]
//! makes goes through it. Production uses [`RealIo`] (plain `std::fs`);
//! the chaos test suite wraps it in [`FaultyIo`], which consults a
//! SplitMix64-seeded schedule and injects the failure modes a real
//! filesystem exhibits under crash/disk-full conditions:
//!
//! * **partial write + ENOSPC** — a prefix of the bytes lands on disk,
//!   then the write errors (disk full mid-write); appends alike;
//! * **torn write** — a prefix lands on disk and the write *reports
//!   success* (lost flush; only the checksum layer can catch this); a
//!   torn append leaves a line the next append is glued onto;
//! * **torn rename** — the rename happens but the destination is
//!   truncated (crash between rename and data sync);
//! * **failed rename / remove** — the metadata operation errors,
//!   leaving temporaries behind;
//! * **truncated or failed read** — a read returns a prefix of the
//!   file, or errors outright.
//!
//! Identical seeds produce identical fault schedules on every platform
//! (over which operation orders, see [`FaultyIo`]). Metadata probes
//! (`exists`, `metadata_len`, `read_dir_names`, `create_dir_all`) pass
//! through unfaulted: the interesting corruption lives in the data path.

use polyject_arith::SplitMix64;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The filesystem operations [`crate::cache::DiskCache`] performs,
/// abstracted so tests can interpose deterministic faults.
pub trait Io: Send + std::fmt::Debug {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()>;
    /// `std::fs::read_to_string`.
    fn read_to_string(&mut self, path: &Path) -> io::Result<String>;
    /// Creates/truncates `path`, writes `bytes`, and syncs the file.
    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to `path` (created if missing) in one write, unsynced.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// `std::fs::rename`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// `std::fs::remove_file`.
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;
    /// File size in bytes (`std::fs::metadata().len()`).
    fn metadata_len(&mut self, path: &Path) -> io::Result<u64>;
    /// Whether `path` exists.
    fn exists(&mut self, path: &Path) -> bool;
    /// The file names (not full paths) inside a directory.
    fn read_dir_names(&mut self, dir: &Path) -> io::Result<Vec<String>>;
}

/// The production [`Io`]: plain `std::fs`, no faults.
#[derive(Debug, Default)]
pub struct RealIo;

impl Io for RealIo {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_to_string(&mut self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn metadata_len(&mut self, path: &Path) -> io::Result<u64> {
        std::fs::metadata(path).map(|m| m.len())
    }

    fn exists(&mut self, path: &Path) -> bool {
        path.exists()
    }

    fn read_dir_names(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for dirent in std::fs::read_dir(dir)? {
            if let Some(name) = dirent?.path().file_name().and_then(|n| n.to_str()) {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }
}

/// An [`Io`] wrapper injecting faults on a deterministic seeded schedule.
///
/// Roughly one in `one_in` data operations faults (`0`: none — the
/// fault-free replay mode). Verdicts come off one stream in *arrival*
/// order, so the same-seed guarantee covers one operation sequence — one
/// caller, or a daemon with one worker; two workers race for the next.
#[derive(Debug)]
pub struct FaultyIo<I: Io> {
    inner: I,
    rng: SplitMix64,
    one_in: usize,
    injected: Arc<AtomicU64>,
}

impl<I: Io> FaultyIo<I> {
    /// Wraps `inner` with a fault schedule derived from `seed`, faulting
    /// roughly one in `one_in` data operations.
    pub fn new(inner: I, seed: u64, one_in: usize) -> FaultyIo<I> {
        FaultyIo {
            inner,
            rng: SplitMix64::new(seed),
            one_in,
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A shared handle to the injected-fault count, usable after the
    /// wrapper is boxed into a cache.
    pub fn injected_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.injected)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn roll(&mut self) -> bool {
        if self.one_in == 0 {
            return false;
        }
        let hit = self.rng.below(self.one_in) == 0;
        if hit {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        hit
    }

    /// A cut point strictly inside `len` (0 truncates to nothing).
    fn cut(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.rng.below(len)
        }
    }

    fn enospc() -> io::Error {
        io::Error::other("no space left on device (injected)")
    }

    /// Lands `bytes` through `op`, or on a faulted roll a prefix of them,
    /// then reports either ENOSPC (disk full mid-write) or success (a
    /// torn write: prefix on disk, success reported).
    fn land(
        &mut self,
        path: &Path,
        bytes: &[u8],
        op: fn(&mut I, &Path, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        if !self.roll() {
            return op(&mut self.inner, path, bytes);
        }
        let cut = self.cut(bytes.len());
        op(&mut self.inner, path, &bytes[..cut])?;
        if self.rng.below(2) == 0 {
            return Err(Self::enospc());
        }
        Ok(())
    }
}

impl<I: Io> Io for FaultyIo<I> {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_to_string(&mut self, path: &Path) -> io::Result<String> {
        if self.roll() {
            if self.rng.below(2) == 0 {
                return Err(io::Error::other("input/output error (injected)"));
            }
            // Truncated read: the caller sees a prefix of the file.
            let text = self.inner.read_to_string(path)?;
            let mut cut = self.cut(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(text[..cut].to_string());
        }
        self.inner.read_to_string(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.land(path, bytes, I::write)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.land(path, bytes, I::append)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        if self.roll() {
            if self.rng.below(2) == 0 {
                // Failed rename: the temporary is left behind.
                return Err(Self::enospc());
            }
            // Torn rename: the destination appears, but truncated
            // (crash between rename and data sync). Reported as success.
            let text = self.inner.read_to_string(from).unwrap_or_default();
            let mut cut = self.cut(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            self.inner.write(to, &text.as_bytes()[..cut])?;
            let _ = self.inner.remove_file(from);
            return Ok(());
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        if self.roll() {
            return Err(io::Error::other("remove failed (injected)"));
        }
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

/// The pre-drawn chaos verdicts for one leg (one connection to one
/// shard); the default injects nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct LegChaos {
    /// Refuse the connect (the shard is inside a partition window).
    pub blocked: bool,
    /// Line noise to send instead of the request, poisoning the leg.
    pub garbage: Option<Vec<u8>>,
}

/// A deterministic network fault plan for the router, mirroring
/// [`FaultyIo`] one level up the stack: instead of torn files it injects
/// the failure modes a fleet exhibits — partitions (connects to a shard
/// refused for a stretch of operations), garbage frames on the wire,
/// and transfer payloads torn in flight. All decisions come from one
/// SplitMix64 stream, so identical seeds replay identical chaos.
#[derive(Debug)]
pub struct NetChaos {
    rng: SplitMix64,
    one_in: usize,
    /// Endpoint → operations left in its current partition window.
    partitioned: std::collections::HashMap<String, u32>,
    /// Test knob: tear the next N transfer payloads unconditionally.
    force_torn_transfers: u32,
    injected: u64,
    partitions: u64,
    garbage_frames: u64,
    torn_transfers: u64,
}

impl NetChaos {
    /// Builds a plan faulting roughly one in `one_in` decision points
    /// (`0` disables injection).
    pub fn new(seed: u64, one_in: usize) -> NetChaos {
        NetChaos {
            rng: SplitMix64::new(seed),
            one_in,
            partitioned: std::collections::HashMap::new(),
            force_torn_transfers: 0,
            injected: 0,
            partitions: 0,
            garbage_frames: 0,
            torn_transfers: 0,
        }
    }

    fn roll(&mut self) -> bool {
        if self.one_in == 0 {
            return false;
        }
        let hit = self.rng.below(self.one_in) == 0;
        if hit {
            self.injected += 1;
        }
        hit
    }

    /// Whether a connect to `endpoint` should be refused right now.
    /// Starting a partition blocks the shard for the next few attempts,
    /// then it heals — the router must ride it out via replicas.
    pub fn connect_blocked(&mut self, endpoint: &str) -> bool {
        if let Some(left) = self.partitioned.get_mut(endpoint) {
            if *left > 0 {
                *left -= 1;
                self.injected += 1;
                return true;
            }
            self.partitioned.remove(endpoint);
        }
        if self.roll() {
            let window = 1 + self.rng.below(4) as u32;
            self.partitioned.insert(endpoint.to_string(), window);
            self.partitions += 1;
            return true;
        }
        false
    }

    /// Draws both connection-level verdicts for one leg to `endpoint`,
    /// partition first. Routers call this on the request thread, before
    /// any leg thread exists, so replays never depend on scheduling.
    pub(crate) fn plan_leg(&mut self, endpoint: &str) -> LegChaos {
        LegChaos {
            blocked: self.connect_blocked(endpoint),
            garbage: self.garbage_frame(),
        }
    }

    /// A garbage byte sequence to squirt at the daemon before the real
    /// request, when the schedule says so. The daemon must answer it
    /// with a structured error (and close), never wedge.
    pub fn garbage_frame(&mut self) -> Option<Vec<u8>> {
        if !self.roll() {
            return None;
        }
        self.garbage_frames += 1;
        let len = 4 + self.rng.below(12);
        let mut bytes = (len as u32).to_be_bytes().to_vec();
        for _ in 0..len {
            // Bias toward invalid UTF-8/JSON so the frame parser, not
            // just the dispatcher, gets exercised.
            bytes.push(0x80u8.wrapping_add(self.rng.below(0x70) as u8));
        }
        Some(bytes)
    }

    /// Possibly tears a transfer payload: a valid JSON object with a
    /// prefix of the original fields, whose checksum no longer matches.
    /// The receiving shard must reject it.
    pub fn torn_transfer(&mut self, payload: &crate::json::Json) -> Option<crate::json::Json> {
        let forced = self.force_torn_transfers > 0;
        if forced {
            self.force_torn_transfers -= 1;
            self.injected += 1;
        } else if !self.roll() {
            return None;
        }
        self.torn_transfers += 1;
        let fields = payload.as_obj()?;
        let keep = if fields.is_empty() {
            0
        } else {
            self.rng.below(fields.len())
        };
        Some(crate::json::Json::Obj(fields[..keep].to_vec()))
    }

    /// Test knob: unconditionally tear the next `n` transfer payloads.
    pub fn force_torn_transfers(&mut self, n: u32) {
        self.force_torn_transfers = n;
    }

    /// Total faults injected (partitions counted per blocked operation).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Partition windows started.
    pub fn partitions(&self) -> u64 {
        self.partitions
    }

    /// Garbage frames emitted.
    pub fn garbage_frames(&self) -> u64 {
        self.garbage_frames
    }

    /// Transfer payloads torn.
    pub fn torn_transfers(&self) -> u64 {
        self.torn_transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("polyject-faults-{}-{tag}", std::process::id()))
    }

    #[test]
    fn real_io_roundtrips() {
        let p = tmpfile("real");
        let mut io = RealIo;
        io.write(&p, b"hello").unwrap();
        assert_eq!(io.read_to_string(&p).unwrap(), "hello");
        assert_eq!(io.metadata_len(&p).unwrap(), 5);
        assert!(io.exists(&p));
        io.remove_file(&p).unwrap();
        assert!(!io.exists(&p));
    }

    #[test]
    fn zero_rate_is_transparent() {
        let p = tmpfile("transparent");
        let mut io = FaultyIo::new(RealIo, 42, 0);
        for _ in 0..100 {
            io.write(&p, b"payload").unwrap();
            assert_eq!(io.read_to_string(&p).unwrap(), "payload");
        }
        assert_eq!(io.injected(), 0);
        io.remove_file(&p).unwrap();
    }

    #[test]
    fn schedule_is_deterministic() {
        // Same seed: identical fault decisions, observable as identical
        // injected counts over the same op sequence.
        let run = |seed: u64| {
            let p = tmpfile(&format!("det-{seed}"));
            let mut io = FaultyIo::new(RealIo, seed, 2);
            for _ in 0..50 {
                let _ = io.write(&p, b"abcdefgh");
                let _ = io.read_to_string(&p);
            }
            let _ = RealIo.remove_file(&p);
            io.injected()
        };
        assert_eq!(run(7), run(7));
        assert!(run(7) > 0, "rate 1/2 over 100 ops must fault");
    }

    #[test]
    fn faults_never_fabricate_data() {
        // Whatever a faulty read returns, it is a prefix of the real
        // contents — faults lose data, they never invent it.
        let p = tmpfile("prefix");
        RealIo.write(&p, b"0123456789").unwrap();
        let mut io = FaultyIo::new(RealIo, 3, 2);
        for _ in 0..50 {
            if let Ok(text) = io.read_to_string(&p) {
                assert!("0123456789".starts_with(&text), "got {text:?}");
            }
        }
        RealIo.remove_file(&p).unwrap();
    }

    #[test]
    fn net_chaos_is_deterministic_and_countable() {
        let run = |seed: u64| {
            let mut chaos = NetChaos::new(seed, 3);
            let mut blocked = 0u32;
            let mut garbage = 0u32;
            for i in 0..200 {
                if chaos.connect_blocked(&format!("/tmp/s{}.sock", i % 3)) {
                    blocked += 1;
                }
                if chaos.garbage_frame().is_some() {
                    garbage += 1;
                }
            }
            (blocked, garbage, chaos.injected())
        };
        assert_eq!(run(11), run(11));
        let (blocked, garbage, injected) = run(11);
        assert!(blocked > 0 && garbage > 0 && injected > 0);
        // Disabled plan injects nothing.
        assert_eq!(NetChaos::new(11, 0).injected(), 0);
    }

    #[test]
    fn torn_transfer_is_a_field_prefix() {
        use crate::json::Json;
        let payload = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Num(2.0)),
            ("c", Json::Num(3.0)),
        ]);
        let mut chaos = NetChaos::new(5, 0);
        assert!(chaos.torn_transfer(&payload).is_none(), "rate 0, no force");
        chaos.force_torn_transfers(1);
        let torn = chaos.torn_transfer(&payload).unwrap();
        let fields = torn.as_obj().unwrap();
        assert!(fields.len() < 3);
        let orig = payload.as_obj().unwrap();
        assert_eq!(&orig[..fields.len()], fields);
        assert_eq!(chaos.torn_transfers(), 1);
        // Knob consumed.
        assert!(chaos.torn_transfer(&payload).is_none());
    }
}
