//! The one socket layer under `polyjectd`, `polyject-router` and
//! [`crate::Client`]: a Unix/TCP [`Stream`], a [`Listener`] that refuses
//! to steal a live socket, and the accept / per-connection loops. Both
//! loops block — in `accept` and in `read` — so a request waits on
//! nothing. The stop flag reaches them as events: a wake-up connect for
//! the accept loop, a read-half shutdown for every connection, both
//! delivered off the request path so shutdown never waits on an idle
//! peer.

use crate::client::Endpoint;
use crate::json::Json;
use crate::protocol::{error_response, read_frame_within, write_frame};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The housekeeping period of [`Listener::serve`]: how often the stop
/// flag is looked at. Nothing on the request path waits on it.
const TICK: Duration = Duration::from_millis(20);

/// One connected socket, Unix or TCP.
#[derive(Debug)]
pub enum Stream {
    /// A Unix domain socket.
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP socket.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to a listening endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (nobody listening, bad address).
    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets unavailable: {}", path.display()),
            )),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).and_then(Stream::tcp),
        }
    }

    /// A TCP stream that sends each write at once. A frame is one write,
    /// but a reply of several frames (a batch's items) is several, and
    /// left to Nagle each after the first would wait out the peer's
    /// delayed ACK of the one before (~40 ms).
    fn tcp(stream: TcpStream) -> io::Result<Stream> {
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// Sets the read and write timeouts (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub(crate) fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
            Stream::Tcp(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
        }
    }

    /// A second handle on the same socket.
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Shuts down one or both halves of the socket, for every handle on
    /// it: a thread blocked in `read` on a shut read half sees EOF.
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound, blocking server socket. Dropping it removes the Unix socket
/// file it created.
pub enum Listener {
    /// Listening on a Unix domain socket at the given path.
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
    /// Listening on a TCP address.
    Tcp(TcpListener),
}

/// A connection being served: its thread, and a second handle on its
/// socket through which the listener hangs up the read half at stop.
struct Live {
    thread: JoinHandle<()>,
    peer: Arc<Stream>,
}

impl Listener {
    /// Binds `endpoint`. A Unix socket file left by a dead process is
    /// replaced; one a live process still answers on is not.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when a server is already listening on the Unix
    /// socket; otherwise propagates the bind failure.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    // Stale socket from a dead server? Probe it.
                    if UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a server is already listening on {}", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets unavailable: {}", path.display()),
            )),
            Endpoint::Tcp(addr) => TcpListener::bind(addr).map(Listener::Tcp),
        }
    }

    /// Blocks until a connection arrives.
    fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Stream::tcp(s)),
        }
    }

    /// Wakes a blocked [`Listener::accept`] by connecting to the
    /// listener's own address and hanging up without sending a byte. A
    /// TCP listener on an unspecified address is reached over loopback.
    ///
    /// That address may be gone, or someone else's, by now — a Unix
    /// socket file unlinked or replaced under the listener — so the
    /// listening socket is also shut down through a second handle, which
    /// on Linux fails the blocked `accept` by itself (elsewhere it
    /// changes nothing and the connect does the waking).
    fn wake(&self) {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, path) => {
                drop(UnixStream::connect(path));
                shut_listening(l.try_clone().map(Into::into));
            }
            Listener::Tcp(l) => {
                if let Ok(mut addr) = l.local_addr() {
                    if addr.ip().is_unspecified() {
                        addr.set_ip(match addr {
                            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                        });
                    }
                    drop(TcpStream::connect(addr));
                }
                #[cfg(unix)]
                shut_listening(l.try_clone().map(Into::into));
            }
        }
    }

    /// Serves until `stopping()`: one thread per connection running
    /// `conn`, accepted by a loop that blocks in `accept`. A housekeeping
    /// thread ticks every 20 ms beside it — the stop flag may be set by
    /// a signal handler, which can do nothing else — and once
    /// `stopping()` wakes the accept loop. Then every connection's read
    /// half is shut down, so quiet peers read EOF at once while a request
    /// in flight still writes its reply, and every connection thread is
    /// joined.
    pub fn serve(
        &self,
        stopping: impl Fn() -> bool + Sync,
        conn: impl Fn(Stream) + Send + Sync + 'static,
    ) {
        // The housekeeper ticks for as long as the accept loop holds its
        // end of this channel.
        let (accepting, ticks) = mpsc::channel::<()>();
        let live = std::thread::scope(|scope| {
            let stopping = &stopping;
            scope.spawn(move || {
                while ticks.recv_timeout(TICK) == Err(RecvTimeoutError::Timeout) {
                    if stopping() {
                        self.wake();
                    }
                }
            });
            let live = accept_until(|| self.accept(), stopping, conn);
            drop(accepting);
            live
        });
        for c in &live {
            let _ = c.peer.shutdown(Shutdown::Read);
        }
        for c in live {
            let _ = c.thread.join();
        }
    }
}

/// Shuts a listening socket down: `shutdown(2)` acts on the socket,
/// whatever type wraps its descriptor.
#[cfg(unix)]
fn shut_listening(listening: io::Result<std::os::fd::OwnedFd>) {
    let _ = listening.map(|fd| TcpStream::from(fd).shutdown(Shutdown::Both));
}

/// The accept loop over any source of connections (the unit test
/// scripts one): spawns `conn` on each, and returns the connections
/// still live once `stopping()` — the only thing that ends it. Whatever
/// `accept` returned after the flag was set, the wake-up connect
/// included, is dropped, not served.
fn accept_until(
    mut accept: impl FnMut() -> io::Result<Stream>,
    stopping: impl Fn() -> bool,
    conn: impl Fn(Stream) + Send + Sync + 'static,
) -> Vec<Live> {
    let conn = Arc::new(conn);
    let mut live: Vec<Live> = Vec::new();
    loop {
        let accepted = accept();
        if stopping() {
            return live;
        }
        match accepted {
            Ok(stream) => {
                // Without a second handle the listener could not hang
                // up on this peer at stop: refuse it rather than let
                // shutdown wait on it.
                if let Ok(peer) = stream.try_clone().map(Arc::new) {
                    let (conn, hangup) = (Arc::clone(&conn), Arc::clone(&peer));
                    let thread = std::thread::spawn(move || {
                        conn(stream);
                        // `peer` outlives `stream`, so dropping that no
                        // longer closes the socket: hang up explicitly,
                        // and the other side reads EOF now rather than
                        // at the next prune.
                        let _ = hangup.shutdown(Shutdown::Both);
                    });
                    live.push(Live { thread, peer });
                }
            }
            // The peer gave up while queued, or a signal arrived: the
            // next connection is unaffected.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                ) => {}
            // Out of descriptors (`EMFILE` 24, `ENFILE` 23), or anything
            // else a retry at once would only repeat: give the finished
            // connections pruned below a tick to free theirs.
            Err(_) => std::thread::sleep(TICK),
        }
        live.retain(|c| !c.thread.is_finished());
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The per-connection loop of a server: blocks in `read` for each
/// request frame (of at most `max_frame` bytes) and hands it to
/// `handle`, which writes the replies and returns whether to keep the
/// connection, until the peer closes, `handle` says stop, or shutdown —
/// which arrives as EOF, when [`Listener::serve`] shuts the read half. A
/// malformed frame is answered with a structured error and the poisoned
/// connection dropped.
pub fn serve_conn(
    mut stream: Stream,
    max_frame: u32,
    stopping: impl Fn() -> bool,
    mut handle: impl FnMut(&Json, &mut Stream) -> bool,
) {
    while !stopping() {
        match read_frame_within(&mut stream, max_frame) {
            Ok(frame) => {
                if !handle(&frame, &mut stream) {
                    return;
                }
            }
            // The peer closed (cleanly or mid-frame), or shutdown began.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return,
            Err(e) => {
                let _ = write_frame(&mut stream, &error_response(&e.to_string()));
                return;
            }
        }
    }
}

/// Test support shared by this crate's unit tests.
#[cfg(all(test, unix))]
pub(crate) mod testing {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A server over the real accept and connection loops, for this
    /// crate's tests: `handle` answers every frame until [`TestServer::stop`].
    pub(crate) struct TestServer {
        pub endpoint: Endpoint,
        /// Connections handed to a connection thread.
        pub accepts: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
        thread: JoinHandle<()>,
    }

    impl TestServer {
        /// Listens on a fresh Unix socket named after `tag`, or (`tcp`) on a
        /// loopback port the kernel picks.
        pub fn start(
            tag: &str,
            tcp: bool,
            handle: impl Fn(&Json, &mut Stream) -> bool + Send + Sync + 'static,
        ) -> TestServer {
            let endpoint = if tcp {
                Endpoint::Tcp("127.0.0.1:0".to_string())
            } else {
                let name = format!("pj-transport-{tag}-{}.sock", std::process::id());
                Endpoint::Unix(std::env::temp_dir().join(name))
            };
            let listener = Listener::bind(&endpoint).expect("bind test server");
            let endpoint = match &listener {
                Listener::Tcp(l) => Endpoint::Tcp(l.local_addr().unwrap().to_string()),
                Listener::Unix(..) => endpoint,
            };
            let accepts = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let (accepted, flag) = (Arc::clone(&accepts), Arc::clone(&stop));
            let thread = std::thread::spawn(move || {
                let stopping = move || flag.load(Ordering::SeqCst);
                let conn_stopping = stopping.clone();
                listener.serve(stopping, move |stream| {
                    accepted.fetch_add(1, Ordering::SeqCst);
                    serve_conn(stream, 1 << 20, &conn_stopping, &handle)
                })
            });
            TestServer {
                endpoint,
                accepts,
                stop,
                thread,
            }
        }

        /// Sets the stop flag and waits for `serve` to return; how long that
        /// took.
        pub fn stop(self) -> Duration {
            let t0 = std::time::Instant::now();
            self.stop.store(true, Ordering::SeqCst);
            self.thread.join().expect("test server panicked");
            t0.elapsed()
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::testing::TestServer;
    use super::*;
    use crate::protocol::{ok_with, read_frame, Request};
    use crate::Client;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    fn pong(frame: &Json, out: &mut Stream) -> bool {
        assert_eq!(Request::from_json(frame), Ok(Request::Ping));
        write_frame(out, &ok_with(vec![("pong", Json::Bool(true))])).is_ok()
    }

    #[test]
    fn bind_replaces_stale_socket_but_refuses_live_one() {
        let path = std::env::temp_dir().join(format!("pj-transport-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path.clone());
        // A socket file nobody listens on is debris: replaced.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        let live = Listener::bind(&ep).expect("stale socket replaced");
        // A second bind while the first still listens is refused, and
        // the live listener keeps its socket.
        let err = Listener::bind(&ep).err().expect("live socket stolen");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        assert!(Stream::connect(&ep).is_ok());
        drop(live);
        assert!(!path.exists(), "drop removes the socket file");
    }

    #[test]
    fn a_new_connection_waits_on_no_poll() {
        for tcp in [false, true] {
            let server = TestServer::start("fresh", tcp, pong);
            let t0 = Instant::now();
            for _ in 0..50 {
                assert!(Client::connect(&server.endpoint).unwrap().ping().unwrap());
            }
            // An accept loop that slept 20 ms between polls needed >= 1 s.
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(500), "tcp {tcp}: {took:?}");
            assert_eq!(server.accepts.load(Ordering::SeqCst), 50);
            server.stop();
        }
    }

    #[test]
    fn a_kept_connection_waits_on_no_delayed_ack() {
        for tcp in [false, true] {
            let server = TestServer::start("kept", tcp, pong);
            let mut client = Client::connect(&server.endpoint).unwrap();
            let t0 = Instant::now();
            for _ in 0..50 {
                assert!(client.ping().unwrap());
            }
            // Under Nagle a kept TCP connection stalls ~40 ms per frame.
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(500), "tcp {tcp}: {took:?}");
            assert_eq!(server.accepts.load(Ordering::SeqCst), 1);
            server.stop();
        }
    }

    #[test]
    fn stop_does_not_wait_on_silent_or_mid_frame_peers() {
        for tcp in [false, true] {
            let server = TestServer::start("quiet", tcp, pong);
            let silent = Stream::connect(&server.endpoint).unwrap();
            let mut mid_frame = Stream::connect(&server.endpoint).unwrap();
            mid_frame.write_all(&100u32.to_be_bytes()).unwrap();
            // Let the accept loop take both peers and block again.
            std::thread::sleep(4 * TICK);
            assert_eq!(server.accepts.load(Ordering::SeqCst), 2);
            let (accepts, took) = (Arc::clone(&server.accepts), server.stop());
            assert!(took < Duration::from_secs(1), "tcp {tcp}: {took:?}");
            // The wake-up connect was dropped, not served.
            assert_eq!(accepts.load(Ordering::SeqCst), 2);
            drop((silent, mid_frame));
        }
    }

    #[test]
    fn stop_survives_an_unlinked_socket_file() {
        // `ci.sh` removes its scratch directory, sockets included, and
        // only then signals the daemons: the wake-up connect has nothing
        // left to connect to.
        let server = TestServer::start("unlinked", false, pong);
        let Endpoint::Unix(path) = server.endpoint.clone() else {
            unreachable!("started on a Unix socket")
        };
        let idle_peer = Stream::connect(&server.endpoint).unwrap();
        // Let the accept loop take the peer and block again.
        std::thread::sleep(2 * TICK);
        std::fs::remove_file(&path).unwrap();
        let took = server.stop();
        assert!(took < Duration::from_secs(1), "{took:?}");
        drop(idle_peer);
    }

    #[test]
    fn garbage_frame_is_answered_then_hung_up_on() {
        for tcp in [false, true] {
            let server = TestServer::start("garbage", tcp, pong);
            let mut peer = Stream::connect(&server.endpoint).unwrap();
            peer.set_timeouts(Some(Duration::from_secs(1)), None)
                .unwrap();
            let body = b"this is not json {{{";
            peer.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
            peer.write_all(body).unwrap();
            let reply = read_frame(&mut peer).expect("structured reply");
            assert_eq!(reply.str_field("status").unwrap(), "error");
            // EOF follows at once (a timeout would be an error here),
            // though the listener still holds a handle on the socket.
            assert_eq!(peer.read(&mut [0u8; 1]).expect("EOF, not a timeout"), 0);
            server.stop();
        }
    }

    #[test]
    fn only_the_stop_flag_ends_the_accept_loop() {
        let stop = AtomicBool::new(false);
        let (ours, _theirs) = UnixStream::pair().unwrap();
        let kind = |k: io::ErrorKind| Err(io::Error::from(k));
        let mut script = vec![
            kind(io::ErrorKind::ConnectionAborted),
            kind(io::ErrorKind::Interrupted),
            kind(io::ErrorKind::WouldBlock),
            Err(io::Error::from_raw_os_error(24)),
            Err(io::Error::from_raw_os_error(23)),
            Ok(Stream::Unix(ours)),
        ]
        .into_iter();
        let served = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&served);
        let t0 = Instant::now();
        let live = accept_until(
            || {
                script.next().unwrap_or_else(|| {
                    // The script ran out without ending the loop: stop it
                    // the only way there is, with one last arrival.
                    stop.store(true, Ordering::SeqCst);
                    Ok(Stream::Unix(UnixStream::pair().unwrap().0))
                })
            },
            || stop.load(Ordering::SeqCst),
            move |_stream| {
                count.fetch_add(1, Ordering::SeqCst);
            },
        );
        // Descriptor exhaustion backed off a tick each time; the rest
        // retried at once.
        assert!(t0.elapsed() >= 2 * TICK);
        for c in live {
            c.thread.join().unwrap();
        }
        // One connection served; the one that arrived after the stop
        // flag was dropped.
        assert_eq!(served.load(Ordering::SeqCst), 1);
    }
}
