//! The one socket layer under `polyjectd`, `polyject-router` and
//! [`crate::Client`]: a Unix/TCP [`Stream`], a [`Listener`] that refuses
//! to steal a live socket, and the accept / per-connection loops that
//! poll a stop flag so shutdown never waits on an idle peer.

use crate::client::Endpoint;
use crate::json::Json;
use crate::protocol::{error_response, read_frame_within, write_frame};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::Duration;

/// How long an idle accept loop sleeps between polls of the listener
/// and the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Server-side read timeout: how often a connection thread blocked on a
/// quiet peer re-checks the stop flag.
const READ_POLL: Duration = Duration::from_millis(200);

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
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
        }
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

/// A bound, non-blocking server socket. Dropping it removes the Unix
/// socket file it created.
pub enum Listener {
    /// Listening on a Unix domain socket at the given path.
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
    /// Listening on a TCP address.
    Tcp(TcpListener),
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
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets unavailable: {}", path.display()),
            )),
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Nonblocking accept; `Ok(None)` when no connection is waiting.
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than `WouldBlock`.
    fn accept(&self) -> io::Result<Option<Stream>> {
        let accepted = match self {
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match accepted {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The accept loop: one thread per connection running `conn`, `idle`
    /// called on every empty poll, until `stopping()`; then every
    /// connection thread is joined.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn serve(
        &self,
        stopping: impl Fn() -> bool,
        mut idle: impl FnMut(),
        conn: impl Fn(Stream) + Send + Sync + 'static,
    ) -> io::Result<()> {
        let conn = Arc::new(conn);
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !stopping() {
            match self.accept()? {
                Some(stream) => {
                    let conn = Arc::clone(&conn);
                    conns.push(std::thread::spawn(move || conn(stream)));
                }
                None => {
                    idle();
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            conns.retain(|h| !h.is_finished());
        }
        for h in conns {
            let _ = h.join();
        }
        Ok(())
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

/// A server's view of a connection while it waits for a frame: read
/// timeouts (every [`READ_POLL`]) are ridden out — reported as
/// `Interrupted`, which `read_exact` retries — until `stopping()`, which
/// ends the read as if the peer had closed.
struct Polled<'a, F: Fn() -> bool> {
    stream: &'a mut Stream,
    stopping: &'a F,
}

impl<F: Fn() -> bool> Read for Polled<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.stream.read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(if (self.stopping)() {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "shutting down")
                } else {
                    io::ErrorKind::Interrupted.into()
                })
            }
            other => other,
        }
    }
}

/// The per-connection loop of a server: hands each request frame (of at
/// most `max_frame` bytes) to `handle`, which writes the replies and
/// returns whether to keep the connection, until the peer closes,
/// `handle` says stop, or `stopping()`. A malformed frame is answered
/// with a structured error and the poisoned connection dropped.
pub fn serve_conn(
    mut stream: Stream,
    max_frame: u32,
    stopping: impl Fn() -> bool,
    mut handle: impl FnMut(&Json, &mut Stream) -> bool,
) {
    let _ = stream.set_timeouts(Some(READ_POLL), None);
    while !stopping() {
        let mut polled = Polled {
            stream: &mut stream,
            stopping: &stopping,
        };
        match read_frame_within(&mut polled, max_frame) {
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

#[cfg(all(test, unix))]
mod tests {
    use super::*;

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
}
