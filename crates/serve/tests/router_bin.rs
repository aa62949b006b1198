//! Black-box tests of the `polyject-router` binary's bind and shutdown,
//! which it now shares with `polyjectd` through `transport`: it must
//! not wait on idle clients to exit, and must not steal a live socket.

#![cfg(unix)]

use polyject_serve::{Client, Endpoint, Json};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pj-router-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a router on `socket` over a shard nobody listens on (routing
/// is not under test here).
fn spawn_router(socket: &std::path::Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_polyject-router"))
        .args(["--socket", socket.to_str().unwrap()])
        .args(["--shard", "/nonexistent/shard.sock"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn polyject-router")
}

fn wait_ready(endpoint: &Endpoint) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !Client::connect(endpoint).is_ok_and(|mut c| c.ping().unwrap_or(false)) {
        assert!(Instant::now() < deadline, "router never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn shutdown_does_not_wait_on_an_idle_connection() {
    let dir = scratch("idle");
    let socket = dir.join("r.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let mut router = spawn_router(&socket);
    wait_ready(&endpoint);

    // A client that connected, spoke once, and then just sits there —
    // it stays open for the whole shutdown.
    let mut idle = Client::connect(&endpoint).unwrap();
    assert!(idle.ping().unwrap());

    let t0 = Instant::now();
    let bye = Client::connect(&endpoint).unwrap().shutdown().unwrap();
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
    let status = loop {
        if let Some(status) = router.try_wait().unwrap() {
            break status;
        }
        if t0.elapsed() > Duration::from_secs(1) {
            let _ = router.kill();
            panic!("router still running 1 s after shutdown: it is blocked on the idle client");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{status:?}");
    assert!(!socket.exists(), "socket file removed on exit");
    drop(idle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_router_on_a_live_socket_is_refused() {
    let dir = scratch("bind");
    let socket = dir.join("r.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let mut first = spawn_router(&socket);
    wait_ready(&endpoint);

    // The newcomer must fail its bind and leave the socket alone.
    let second = spawn_router(&socket).wait_with_output().unwrap();
    assert!(!second.status.success(), "second bind must be refused");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("already listening"), "{stderr}");
    assert!(
        Client::connect(&endpoint).unwrap().ping().unwrap(),
        "the live router lost its socket to the newcomer"
    );

    let _ = Client::connect(&endpoint).unwrap().shutdown();
    assert!(first.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
