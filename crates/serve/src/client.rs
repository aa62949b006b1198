//! The daemon client: used by `polyjectc --remote`, `polyject-cache`,
//! tests, and anything else that talks to a running `polyjectd`.

use crate::faults::LegChaos;
use crate::json::Json;
use crate::membership::Membership;
use crate::protocol::{error_response, read_frame, write_frame, BatchItem, Request};
use crate::service::cache_key;
use crate::transport::Stream;
use polyject_gpusim::GpuModel;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Where a daemon listens: a Unix socket path (the default) or a TCP
/// `host:port` fallback for platforms/namespaces without Unix sockets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` address.
    Tcp(String),
}

impl Endpoint {
    /// Parses an endpoint string: `host:port` (no `/`, a numeric port) is
    /// TCP, anything else a Unix socket path.
    ///
    /// # Errors
    ///
    /// A `host:port` whose port does not fit in 0-65535.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if !s.contains('/') {
            if let Some((host, port)) = s.rsplit_once(':') {
                if !host.is_empty() && !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit())
                {
                    return match port.parse::<u16>() {
                        Ok(_) => Ok(Endpoint::Tcp(s.to_string())),
                        Err(_) => Err(format!(
                            "invalid port {port:?} in endpoint {s:?} (expected 0-65535; \
                             for a Unix socket path, include a '/')"
                        )),
                    };
                }
            }
        }
        Ok(Endpoint::Unix(PathBuf::from(s)))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "{a}"),
        }
    }
}

/// A blocking protocol client over one connection, one request at a time.
#[derive(Debug)]
pub struct Client {
    conn: Stream,
    /// Complete reply frames read so far.
    frames_in: u64,
}

impl Client {
    /// Connects to a daemon endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (daemon not running, bad address).
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            conn: Stream::connect(endpoint)?,
            frames_in: 0,
        })
    }

    /// Sets the socket's read/write timeout (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.set_timeouts(timeout, timeout)
    }

    /// Sends one request and reads one response frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn request(&mut self, req: &Request) -> io::Result<Json> {
        write_frame(&mut self.conn, &req.to_json())?;
        self.read_response()
    }

    /// Compiles `.pj` source under a configuration: the raw response.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn compile(&mut self, src: &str, config: &str) -> io::Result<Json> {
        self.request(&Request::compile(src, config, None))
    }

    /// Compiles a batch in one round trip: one `compile_batch` frame out,
    /// item frames in until `batch_done`. One reply per item, in request
    /// order; an item never answered gets a structured error.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures (a mid-batch disconnect loses
    /// the items already received — retry the batch).
    pub fn compile_batch(
        &mut self,
        items: &[BatchItem],
        req: Option<&str>,
    ) -> io::Result<Vec<Json>> {
        let batch = Request::compile_batch(items.to_vec(), req.map(str::to_string));
        write_frame(&mut self.conn, &batch.to_json())?;
        let mut slots: Vec<Option<Json>> = vec![None; items.len()];
        loop {
            let mut frame = self.read_response()?;
            match frame.str_field("status") {
                Ok("item") => {
                    let index = frame.num_field("index").map_err(invalid_data)? as usize;
                    let reply = frame
                        .take("reply")
                        .ok_or_else(|| invalid_data("item frame missing reply".to_string()))?;
                    if let Some(slot) = slots.get_mut(index) {
                        *slot = Some(reply);
                    }
                }
                Ok("batch_done") => break,
                // A top-level error (malformed batch) aborts the call.
                _ => {
                    return Err(invalid_data(format!(
                        "unexpected batch frame: {}",
                        frame.render()
                    )))
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.unwrap_or_else(|| error_response("server sent no reply for this item")))
            .collect())
    }

    /// Writes raw bytes onto the connection, unframed (chaos harness).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn inject_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.write_all(bytes)?;
        self.conn.flush()
    }

    /// Reads one response frame, sending nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn read_response(&mut self) -> io::Result<Json> {
        let frame = read_frame(&mut self.conn)?;
        self.frames_in += 1;
        Ok(frame)
    }

    /// Liveness probe; `Ok(true)` when the daemon answered the ping.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn ping(&mut self) -> io::Result<bool> {
        let resp = self.request(&Request::Ping)?;
        Ok(resp.get("pong").and_then(Json::as_bool) == Some(true))
    }

    /// Fetches the daemon's stats report.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&Request::Stats)
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&Request::Shutdown)
    }
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Idle connections a [`ConnPool`] keeps per endpoint.
const POOL_PER_ENDPOINT: usize = 4;

/// Kept-open connections to shards. One is checked in only after a
/// complete exchange, and out to one leg at a time, so every leg reads
/// its own reply; a failed exchange drops its connection.
#[derive(Default)]
pub(crate) struct ConnPool {
    idle: Mutex<Vec<(Endpoint, Client)>>,
}

impl ConnPool {
    /// The most recently used idle connection to `endpoint`, if any.
    fn check_out(&self, endpoint: &Endpoint) -> Option<Client> {
        let mut idle = self.idle.lock().expect("pool lock");
        let at = idle.iter().rposition(|(ep, _)| ep == endpoint)?;
        Some(idle.remove(at).1)
    }

    fn check_in(&self, endpoint: &Endpoint, client: Client) {
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.iter().filter(|(ep, _)| ep == endpoint).count() < POOL_PER_ENDPOINT {
            idle.push((endpoint.clone(), client));
        }
    }
}

/// One leg, one exchange with one shard (every routed exchange runs
/// here): apply the pre-drawn chaos, take a kept connection or dial one,
/// `send`, check the connection back in.
///
/// A kept connection its shard closed since (a restart) fails before any
/// reply frame, not by timeout: the leg then dials afresh and sends once
/// more. Only a fresh dial's failure is the leg's.
pub(crate) fn run_leg<T>(
    pool: &ConnPool,
    endpoint: &Endpoint,
    io_timeout: Option<Duration>,
    chaos: LegChaos,
    send: impl Fn(&mut Client) -> io::Result<T>,
) -> io::Result<T> {
    let ctx =
        |what: &'static str| move |e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"));
    if chaos.blocked {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("partition: connect to {endpoint} blocked"),
        ));
    }
    let dial = || -> io::Result<Client> {
        let mut client = Client::connect(endpoint).map_err(ctx("connect"))?;
        if io_timeout.is_some() {
            // (A fresh socket already blocks forever.)
            client
                .set_timeout(io_timeout)
                .map_err(ctx("socket options"))?;
        }
        Ok(client)
    };
    let kept = pool.check_out(endpoint);
    let reused = kept.is_some();
    let mut client = match kept {
        Some(client) => client,
        None => dial()?,
    };
    if let Some(bytes) = chaos.garbage {
        // Injected line noise: a garbage frame, its (error) answer read,
        // the connection then poisoned.
        let _ = client.inject_raw(&bytes);
        let _ = client.read_response();
        return Err(io::Error::other(
            "garbage frame injected; connection poisoned",
        ));
    }
    let answered = client.frames_in;
    let mut outcome = send(&mut client);
    if let Err(e) = &outcome {
        let timed_out = matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        );
        if reused && client.frames_in == answered && !timed_out {
            client = dial()?;
            outcome = send(&mut client);
        }
    }
    let reply = outcome.map_err(ctx("io"))?;
    pool.check_in(endpoint, client);
    Ok(reply)
}

/// Client-side shard selection (`polyjectc --remote a,b,c`): keys each
/// item, scatters a batch by owner and tries a key's replicas in health
/// order. A `polyject-router` routes through one and adds hedging,
/// retries, replication and warm transfer; alone it never retries a frame.
pub struct ShardedClient {
    membership: Mutex<Membership>,
    gpu: GpuModel,
    /// Kept connections, shared with the router's hedge legs.
    pub(crate) pool: Arc<ConnPool>,
}

/// How many of a key's replicas a request tries and a hot key is copied to.
const REPLICATION: usize = 2;

impl ShardedClient {
    /// Builds a sharded client over the daemon endpoints.
    pub fn new(endpoints: Vec<Endpoint>, gpu: GpuModel) -> ShardedClient {
        ShardedClient {
            membership: Mutex::new(Membership::new(endpoints)),
            gpu,
            pool: Arc::default(),
        }
    }

    /// An item as it is sent, its source canonical (the form a daemon's
    /// checked hit compares), and the key it routes by: the cache key the
    /// owning daemon files it under. A source that does not parse has no
    /// key; its answer is the parse error, given with no shard contacted.
    pub(crate) fn key(&self, item: &BatchItem) -> (BatchItem, Result<String, Json>) {
        match polyject_front::canonical_pj(&item.src) {
            Ok(src) => {
                let key = cache_key(&src, &item.config, &self.gpu);
                (BatchItem::new(src, &item.config), Ok(key))
            }
            Err(e) => (
                item.clone(),
                Err(error_response(&format!("parse error: {e}"))),
            ),
        }
    }

    /// The ring and shard health.
    pub(crate) fn members(&self) -> MutexGuard<'_, Membership> {
        self.membership.lock().expect("membership lock")
    }

    /// A key's replicas, healthy shards first.
    pub(crate) fn replicas(&self, key: &str) -> Vec<Endpoint> {
        self.members().replicas_for(key, REPLICATION)
    }

    /// The replicas (health-ordered) a source routes to; none if unparsable.
    pub fn route(&self, src: &str, config: &str) -> Vec<Endpoint> {
        (self.key(&BatchItem::new(src, config)).1.ok())
            .map_or_else(Vec::new, |key| self.replicas(&key))
    }

    /// Compiles through the owning shard, failing over on socket errors;
    /// any response frame is returned as-is.
    ///
    /// # Errors
    ///
    /// The last socket failure when no replica answered a frame.
    pub fn compile(&mut self, src: &str, config: &str) -> io::Result<Json> {
        let (mut replies, _) = self.route_batch(&[BatchItem::new(src, config)]);
        replies.pop().expect("one reply per item")
    }

    /// Compiles a batch by scatter-gather: one `compile_batch` per owning
    /// shard, replies in request order; an item whose sub-batch failed
    /// walks its replicas. Returns the replies and the round trips taken.
    pub fn compile_batch(&mut self, items: &[BatchItem]) -> (Vec<Json>, u64) {
        let (replies, round_trips) = self.route_batch(items);
        let replies = replies
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| error_response(&format!("all replicas failed: {e}"))))
            .collect();
        (replies, round_trips)
    }

    /// The one request path: key, scatter (several items), then the
    /// replica walk for what is unanswered.
    fn route_batch(&self, items: &[BatchItem]) -> (Vec<io::Result<Json>>, u64) {
        let (items, keys): (Vec<_>, Vec<_>) = items.iter().map(|it| self.key(it)).unzip();
        let mut slots: Vec<Option<Json>> = vec![None; items.len()];
        let mut round_trips = 0;
        if items.len() > 1 {
            let plan = |_: &Endpoint, _| {
                round_trips += 1;
                LegChaos::default()
            };
            self.scatter(&items, &keys, &mut slots, None, plan, |_, _, r| Some(r));
        }
        let replies = (items.iter().zip(keys).zip(slots))
            .map(|((item, key), slot)| match (slot, key) {
                (Some(reply), _) | (None, Err(reply)) => Ok(reply),
                (None, Ok(key)) => {
                    round_trips += 1;
                    self.walk_replicas(item, &key)
                }
            })
            .collect();
        (replies, round_trips)
    }

    /// The scatter stage (this client's and the router's): keyed items
    /// grouped by owner in order of first occurrence, each group ONE
    /// `compile_batch` leg, all in flight, gathered at a barrier. Then in
    /// group order a broken leg strikes its shard, and each reply `settle`
    /// makes final fills its slot and heals its shard. `plan` draws each
    /// leg's chaos, in group order, first. Returns the broken shards.
    pub(crate) fn scatter(
        &self,
        items: &[BatchItem],
        keys: &[Result<String, Json>],
        slots: &mut [Option<Json>],
        io_timeout: Option<Duration>,
        mut plan: impl FnMut(&Endpoint, usize) -> LegChaos,
        mut settle: impl FnMut(&str, &Endpoint, Json) -> Option<Json>,
    ) -> Vec<Endpoint> {
        let mut groups: Vec<(Endpoint, Vec<usize>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let Ok(key) = key else { continue };
            let Some(owner) = self.replicas(key).into_iter().next() else {
                continue;
            };
            match groups.iter_mut().find(|(ep, _)| *ep == owner) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((owner, vec![i])),
            }
        }
        let chaos: Vec<_> = groups.iter().map(|(ep, at)| plan(ep, at.len())).collect();
        let pool = &*self.pool;
        let gathered: Vec<io::Result<Vec<Json>>> = std::thread::scope(|scope| {
            let legs: Vec<_> = (groups.iter().zip(chaos))
                .map(|((endpoint, idxs), chaos)| {
                    let sub: Vec<BatchItem> = idxs.iter().map(|&i| items[i].clone()).collect();
                    let send = move |c: &mut Client| c.compile_batch(&sub, None);
                    scope.spawn(move || run_leg(pool, endpoint, io_timeout, chaos, send))
                })
                .collect();
            (legs.into_iter())
                .map(|leg| (leg.join()).unwrap_or_else(|_| Err(io::Error::other("leg panicked"))))
                .collect()
        });
        let mut broken = Vec::new();
        for ((endpoint, idxs), leg) in groups.into_iter().zip(gathered) {
            let Ok(replies) = leg else {
                self.members().record_failure(&endpoint);
                broken.push(endpoint);
                continue;
            };
            for (&i, reply) in idxs.iter().zip(replies) {
                let key = keys[i].as_ref().expect("only keyed items scatter");
                slots[i] = settle(key, &endpoint, reply);
                if slots[i].is_some() {
                    self.members().record_success(&endpoint);
                }
            }
        }
        broken
    }

    /// The item stage: the key's replicas in health order, until one answers.
    fn walk_replicas(&self, item: &BatchItem, key: &str) -> io::Result<Json> {
        let mut last = io::Error::new(io::ErrorKind::NotFound, "no shard endpoints configured");
        for endpoint in self.replicas(key) {
            let leg = run_leg(&self.pool, &endpoint, None, LegChaos::default(), |c| {
                c.compile(&item.src, &item.config)
            });
            match leg {
                Ok(resp) => {
                    self.members().record_success(&endpoint);
                    return Ok(resp);
                }
                Err(e) => {
                    self.members().record_failure(&endpoint);
                    last = io::Error::new(e.kind(), format!("shard {endpoint} unreachable: {e}"));
                }
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(unix)]
    use crate::transport::testing::TestServer;

    #[test]
    fn endpoint_parsing_heuristic() {
        assert_eq!(
            Endpoint::parse("/tmp/pjd.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/pjd.sock"))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7421").unwrap(),
            Endpoint::Tcp("127.0.0.1:7421".to_string())
        );
        assert_eq!(
            Endpoint::parse("localhost:65535").unwrap(),
            Endpoint::Tcp("localhost:65535".to_string())
        );
        // An out-of-range numeric port is a mistyped TCP address, not a
        // Unix path — reject it up front instead of failing the connect
        // later with a misleading missing-file error.
        let err = Endpoint::parse("localhost:99999").unwrap_err();
        assert!(err.contains("invalid port"), "{err}");
        assert!(Endpoint::parse("host:123456789012").is_err());
        // Portless or non-numeric suffixes are paths (files may contain
        // colons), as are anything with a path separator.
        assert_eq!(
            Endpoint::parse("pjd.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("pjd.sock"))
        );
        assert_eq!(
            Endpoint::parse("some:name").unwrap(),
            Endpoint::Unix(PathBuf::from("some:name"))
        );
        assert_eq!(
            Endpoint::parse("/dir/localhost:99999").unwrap(),
            Endpoint::Unix(PathBuf::from("/dir/localhost:99999"))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7421").unwrap().to_string(),
            "127.0.0.1:7421"
        );
    }

    #[test]
    fn tcp_roundtrip_against_manual_server() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_frame(&mut s).unwrap();
            assert_eq!(Request::from_json(&req).unwrap(), Request::Ping);
            write_frame(
                &mut s,
                &Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("pong", Json::Bool(true)),
                ]),
            )
            .unwrap();
        });
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
        assert!(client.ping().unwrap());
        server.join().unwrap();
    }

    // Satellite audit of the remote error paths: every socket-level
    // failure must surface as a structured `io::Error` (no panic, no
    // unwrap) that a CLI can turn into stderr + nonzero exit.

    #[test]
    fn connect_to_missing_socket_is_a_structured_error() {
        let err = Client::connect(&Endpoint::Unix(PathBuf::from(
            "/nonexistent/never/pjd.sock",
        )))
        .unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::NotFound | io::ErrorKind::Other),
            "{err}"
        );
        let err = Client::connect(&Endpoint::Tcp("127.0.0.1:1".to_string())).unwrap_err();
        assert_ne!(err.to_string(), "");
    }

    /// The error a `stats()` call surfaces when the server answers the
    /// request with `raw_reply` bytes and hangs up.
    fn stats_error_against(raw_reply: Vec<u8>) -> io::Error {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame(&mut s);
            s.write_all(&raw_reply).unwrap();
        });
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
        let err = client.stats().unwrap_err();
        server.join().unwrap();
        err
    }

    #[test]
    fn mid_frame_close_is_unexpected_eof() {
        // Promise an 8-byte frame, deliver 3, hang up.
        let err = stats_error_against([&8u32.to_be_bytes()[..], b"abc"].concat());
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn invalid_utf8_frame_is_invalid_data() {
        let body = [0x80, 0xfe, 0xff, 0x81];
        let err = stats_error_against([&4u32.to_be_bytes()[..], &body].concat());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // A length prefix far past MAX_FRAME; no body follows.
        let err = stats_error_against(u32::MAX.to_be_bytes().to_vec());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// A shard for the pool tests: echoes a compile's source, and
    /// misbehaves on request — a `fetch` of `slow` answers late, one of
    /// `half` hangs up inside the reply frame, and a batch hangs up at an
    /// item named `cut`, before `batch_done`.
    #[cfg(unix)]
    fn echo_shard(frame: &Json, out: &mut Stream) -> bool {
        use crate::protocol::{ok_with, ReplyWriter};
        let echo = |s: &str| ok_with(vec![("echo", Json::Str(s.to_string()))]);
        match Request::from_json(frame).expect("well-formed request") {
            Request::Compile { items, framing, .. } => {
                let mut replies = ReplyWriter::new(out, framing, items.len());
                for (i, item) in items.iter().enumerate() {
                    if item.src == "cut" {
                        return false;
                    }
                    replies.item(i, echo(&item.src));
                }
                replies.finish()
            }
            Request::Fetch { key } if key == "half" => {
                let _ = out.write_all(&[0, 0, 0, 100, b'{', b'"']);
                false
            }
            Request::Fetch { key } => {
                if key == "slow" {
                    std::thread::sleep(Duration::from_millis(300));
                }
                write_frame(out, &echo(&key)).is_ok()
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[cfg(unix)]
    fn echoed(reply: &Json) -> &str {
        reply.str_field("echo").expect("an echo reply")
    }

    /// A kernel named `name`: a source the client can key.
    #[cfg(unix)]
    fn pj(name: &str) -> String {
        format!("kernel {name}\nparam N = 8\ntensor X[N]: f32\nstmt S for (i in 0..N) X[i] = 2.0\n")
    }

    /// What a routed client sends for `pj(name)`: its canonical text.
    #[cfg(unix)]
    fn sent(name: &str) -> String {
        let canonical = polyject_front::canonical_pj(&pj(name)).unwrap();
        assert_ne!(canonical, pj(name), "the fixture is hand-formatted");
        canonical
    }

    #[test]
    #[cfg(unix)]
    fn sharded_client_dials_once_for_many_requests() {
        use std::sync::atomic::Ordering;
        let shard = TestServer::start("pool-once", false, echo_shard);
        let mut sc = ShardedClient::new(vec![shard.endpoint.clone()], GpuModel::v100());
        for i in 0..20 {
            let name = format!("k{i}");
            assert_eq!(
                echoed(&sc.compile(&pj(&name), "infl").unwrap()),
                sent(&name)
            );
        }
        // The scatter path goes through the same pool.
        let batch = [
            BatchItem::new(pj("a"), "isl"),
            BatchItem::new(pj("b"), "isl"),
        ];
        let (replies, round_trips) = sc.compile_batch(&batch);
        assert_eq!(
            [echoed(&replies[0]), echoed(&replies[1])],
            [sent("a"), sent("b")]
        );
        assert_eq!(round_trips, 1);
        assert_eq!(shard.accepts.load(Ordering::SeqCst), 1);
        shard.stop();
    }

    #[test]
    #[cfg(unix)]
    fn restarted_shard_costs_one_redial_and_no_strike() {
        use std::sync::atomic::Ordering;
        let first = TestServer::start("pool-restart", false, echo_shard);
        let mut sc = ShardedClient::new(vec![first.endpoint.clone()], GpuModel::v100());
        let strikes = |sc: &ShardedClient| sc.members().shards()[0].consecutive_failures;
        assert_eq!(
            echoed(&sc.compile(&pj("one"), "infl").unwrap()),
            sent("one")
        );
        // The shard stops while the client still holds its kept
        // connection (as `Fleet::shutdown` finds it): that must not wait
        // on the client.
        let took = first.stop();
        assert!(took < Duration::from_secs(1), "{took:?}");
        // A new shard on the same socket: the kept connection is dead, the
        // request re-dials once and the caller never hears of it.
        let second = TestServer::start("pool-restart", false, echo_shard);
        assert_eq!(
            echoed(&sc.compile(&pj("two"), "infl").unwrap()),
            sent("two")
        );
        assert_eq!(
            echoed(&sc.compile(&pj("six"), "infl").unwrap()),
            sent("six")
        );
        assert_eq!(second.accepts.load(Ordering::SeqCst), 1);
        assert_eq!(strikes(&sc), 0);
        // Nobody listening at all: the fresh dial fails, and that is the
        // shard's failure — structured, and counted.
        second.stop();
        let err = sc.compile(&pj("four"), "infl").unwrap_err();
        assert!(err.to_string().contains("unreachable"), "{err}");
        assert_eq!(strikes(&sc), 1);
    }

    #[test]
    #[cfg(unix)]
    fn broken_exchange_is_never_handed_out_again() {
        use std::sync::atomic::Ordering;
        let shard = TestServer::start("pool-poison", false, echo_shard);
        let pool = ConnPool::default();
        let timeout = Some(Duration::from_millis(100));
        let no_chaos = LegChaos::default;
        let fetch = |key: &str| {
            run_leg(&pool, &shard.endpoint, timeout, no_chaos(), |c| {
                c.request(&Request::Fetch { key: key.into() })
            })
        };
        let kept = || pool.idle.lock().unwrap().len();
        let accepts = || shard.accepts.load(Ordering::SeqCst);

        // A complete exchange keeps its connection for the next one.
        assert_eq!(echoed(&fetch("a").unwrap()), "a");
        assert_eq!(echoed(&fetch("b").unwrap()), "b");
        assert_eq!((kept(), accepts()), (1, 1));
        // One that timed out does not, and is not retried: the shard is
        // still working on it. Its late reply must reach nobody — the
        // next request reads its own.
        let err = fetch("slow").unwrap_err();
        let timed_out = [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut];
        assert!(timed_out.contains(&err.kind()), "{err}");
        assert_eq!((kept(), accepts()), (0, 1));
        assert_eq!(echoed(&fetch("c").unwrap()), "c");
        assert_eq!((kept(), accepts()), (1, 2));
        // Nor does one the shard hung up on inside a frame.
        let err = fetch("half").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(kept(), 0);
        assert_eq!(echoed(&fetch("d").unwrap()), "d");
        // A batch stream cut before `batch_done` had begun to answer:
        // the leg fails without a second dial, and the connection is gone.
        let before = accepts();
        let cut = [BatchItem::new("e", "isl"), BatchItem::new("cut", "isl")];
        let err = run_leg(&pool, &shard.endpoint, timeout, no_chaos(), |c| {
            c.compile_batch(&cut, None)
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!((kept(), accepts()), (0, before));
        assert_eq!(echoed(&fetch("f").unwrap()), "f");
        shard.stop();
    }

    #[test]
    fn sharded_client_routes_deterministically_and_fails_over() {
        let eps = vec![
            Endpoint::parse("/nonexistent/s0.sock").unwrap(),
            Endpoint::parse("/nonexistent/s1.sock").unwrap(),
            Endpoint::parse("/nonexistent/s2.sock").unwrap(),
        ];
        let mut sc = ShardedClient::new(eps.clone(), GpuModel::v100());
        let src = "
kernel axpy
param N = 64
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
";
        let route = sc.route(src, "infl");
        assert_eq!(route.len(), 2);
        assert_eq!(route, sc.route(src, "infl"), "routing must be stable");
        // All replicas dead: structured error naming a shard, no panic.
        let err = sc.compile(src, "infl").unwrap_err();
        assert!(err.to_string().contains("unreachable"), "{err}");
        // An unparsable source routes nowhere (it is answered locally)
        // instead of panicking.
        assert!(sc.route("kernel {{{ not a kernel", "infl").is_empty());
        let none = ShardedClient::new(Vec::new(), GpuModel::v100())
            .compile(src, "infl")
            .unwrap_err();
        assert_eq!(none.kind(), io::ErrorKind::NotFound);
    }
}
