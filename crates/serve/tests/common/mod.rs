//! What the serving suites share.

use polyject_serve::{Client, Endpoint, Json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A chain of `depth` elementwise statements over 48 elements, as `.pj`
/// source: the "seconds-long compile" fixture. Its `infl` compile on the
/// 2-core CI box takes 0.01 s at depth 16, 0.3 s at 64, 0.8 s at 96,
/// 1.8 s at 128, 2.8 s at 160 and 4.7 s at 192 in the dev profile the
/// tests build (release: 0.25, 0.7, 1.1, 2.4 and 3.9 s from depth 64) —
/// every caller names the depth whose window it needs, and a scheduler
/// speed-up means re-timing them.
pub fn slow_src(name: &str, depth: usize) -> String {
    let mut src = format!("kernel {name}\nparam N = 48\ntensor A[N]: f32\n");
    for s in 0..depth {
        src.push_str(&format!("tensor T{s}[N]: f32\n"));
    }
    for s in 0..depth {
        let prev = match s {
            0 => "A".to_string(),
            _ => format!("T{}", s - 1),
        };
        src.push_str(&format!(
            "stmt S{s} for (i in 0..N) T{s}[i] = {prev}[i] * 2.0\n"
        ));
    }
    src
}

/// A `polyjectd` child process, killed on drop. A daemon spawned with a
/// scratch directory also removes it on drop.
pub struct Daemon {
    pub child: Child,
    pub endpoint: Endpoint,
    scratch: Option<PathBuf>,
}

impl Daemon {
    /// Spawns `polyjectd --socket <socket> <args>` (stdout piped, stderr
    /// discarded) and waits up to 30 s until it answers a ping. A stale
    /// socket file, which would block the bind, is removed first.
    /// `scratch`, if given, is emptied and created before the spawn and
    /// belongs to the daemon from then on.
    pub fn spawn(socket: &Path, args: &[&str], scratch: Option<PathBuf>) -> Daemon {
        if let Some(dir) = &scratch {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).unwrap();
        }
        let _ = std::fs::remove_file(socket);
        let child = Command::new(env!("CARGO_BIN_EXE_polyjectd"))
            .arg("--socket")
            .arg(socket)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn polyjectd");
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(&endpoint) {
                if c.ping().unwrap_or(false) {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(50));
        }
        Daemon {
            child,
            endpoint,
            scratch,
        }
    }

    /// Graceful shutdown with a hang deadline — part of the "no worker
    /// or connection leaked" claim.
    pub fn shutdown_and_wait(mut self) {
        let mut client = Client::connect(&self.endpoint).unwrap();
        let bye = client.shutdown().unwrap();
        assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().unwrap() {
                Some(status) => {
                    assert!(status.success(), "{status:?}");
                    break;
                }
                None => {
                    assert!(
                        Instant::now() < deadline,
                        "daemon hung on shutdown: a worker or connection leaked"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
