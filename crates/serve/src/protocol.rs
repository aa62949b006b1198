//! The daemon wire protocol: every message is a 4-byte big-endian length
//! and that many bytes of UTF-8 JSON. Requests carry an `"op"`, responses
//! a `"status"` of `"ok"`, `"error"` or `"overloaded"`.
//!
//! ```text
//! -> {"op":"compile","src":"kernel k\n...","config":"infl"}
//! <- {"status":"ok","cached":true,"key":"1f0e...","cuda":"...",...}
//! -> {"op":"stats"}
//! <- {"status":"ok","stats":{...},"cache":{...}}
//! -> {"op":"ping"}           <- {"status":"ok","pong":true}
//! -> {"op":"shutdown"}       <- {"status":"ok","stopping":true}
//! ```

use crate::json::Json;
use polyject_sets::SolverCounters;
use std::io::{self, Read, Write};

/// Maximum accepted frame size (64 MiB), checked before any allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Writes one frame, prefix and body in a single `write`.
///
/// # Errors
///
/// Propagates I/O failures; refuses frames above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    let mut frame = String::from(ROOM);
    msg.render_into(&mut frame);
    send_frame(w, frame)
}

/// Room for the length prefix, ahead of a frame's body.
const ROOM: &str = "\0\0\0\0";

/// The text framer under [`write_frame`] and [`ReplyWriter`]: `frame` is
/// [`ROOM`] then the body.
fn send_frame(w: &mut impl Write, frame: String) -> io::Result<()> {
    let len = u32::try_from(frame.len() - ROOM.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    let mut frame = frame.into_bytes();
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame of at most [`MAX_FRAME`] bytes.
///
/// # Errors
///
/// As [`read_frame_within`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Json> {
    read_frame_within(r, MAX_FRAME)
}

/// Reads one frame of at most `max_frame` bytes.
///
/// # Errors
///
/// `UnexpectedEof` when the peer closed; `InvalidData` for oversized,
/// non-UTF-8 or non-JSON frames; other I/O failures as-is.
pub fn read_frame_within(r: &mut impl Read, max_frame: u32) -> io::Result<Json> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    let text = String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 frame"))?;
    Json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// One `(src, config)` item of a [`Request::Compile`].
#[derive(Clone, Debug, PartialEq)]
pub struct BatchItem {
    /// `.pj` source text of this item.
    pub src: String,
    /// Configuration name (`isl|novec|infl`).
    pub config: String,
}

impl BatchItem {
    /// A batch item from its source and configuration name.
    pub fn new(src: impl Into<String>, config: impl Into<String>) -> BatchItem {
        BatchItem {
            src: src.into(),
            config: config.into(),
        }
    }
}

/// The wire framing a compile request arrived in, and its replies leave in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// The one-frame `compile` op: one item, answered by one bare reply.
    Bare,
    /// The `compile_batch` op: each reply in a [`batch_item_response`],
    /// then a [`batch_done_response`].
    Envelope,
}

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Compile `.pj` sources, each item answered with the frame a request
    /// of it alone would get; enveloped replies stream as they complete,
    /// tagged with their index.
    Compile {
        /// The items, answered per item by index.
        items: Vec<BatchItem>,
        /// Optional request id; a `cancel` of it aborts what is in flight.
        req: Option<String>,
        /// The wire framing (a [`Framing::Bare`] request has one item).
        framing: Framing,
    },
    /// Counter/latency report.
    Stats,
    /// Per-shard metrics (on a router: hedge/retry/failover counters).
    Metrics,
    /// Cancel an in-flight compile by its request id.
    Cancel {
        /// Request id given on the `Compile` being cancelled.
        req: String,
    },
    /// List `(key, kind)` of every cache entry the shard holds.
    Keys,
    /// Fetch one raw cache entry (payload + checksum) by key.
    Fetch {
        /// Cache key (16 hex chars).
        key: String,
    },
    /// Store one raw cache entry, refused unless its checksum matches.
    Transfer {
        /// Cache key (16 hex chars).
        key: String,
        /// Entry kind (`"compile"` / `"tuned-config"`).
        kind: String,
        /// Entry payload object.
        payload: Json,
        /// FNV-1a hex digest of `payload.render()` computed by the sender.
        checksum: String,
    },
    /// Router-only: add a shard and warm-transfer the keys it now owns.
    Join {
        /// Endpoint string of the shard to add.
        endpoint: String,
    },
    /// Router-only: remove a shard and re-home the keys it owned.
    Leave {
        /// Endpoint string of the shard to remove.
        endpoint: String,
    },
    /// Liveness probe.
    Ping,
    /// Graceful daemon shutdown.
    Shutdown,
}

impl Request {
    /// The one-frame `compile` request of a single item.
    pub fn compile(src: &str, config: &str, req: Option<String>) -> Request {
        Request::Compile {
            items: vec![BatchItem::new(src, config)],
            req,
            framing: Framing::Bare,
        }
    }

    /// The `compile_batch` request of `items`.
    pub fn compile_batch(items: Vec<BatchItem>, req: Option<String>) -> Request {
        Request::Compile {
            items,
            req,
            framing: Framing::Envelope,
        }
    }

    /// The request as a wire object: `op`, its fields, the request id.
    pub fn to_json(&self) -> Json {
        let s = |v: &str| Json::Str(v.to_string());
        let item = |it: &BatchItem| vec![("src", s(&it.src)), ("config", s(&it.config))];
        let (op, mut fields) = match self {
            Request::Compile { items, framing, .. } => match (framing, items.as_slice()) {
                (Framing::Bare, [it]) => ("compile", item(it)),
                _ => {
                    let rows = items.iter().map(|it| Json::obj(item(it))).collect();
                    ("compile_batch", vec![("items", Json::Arr(rows))])
                }
            },
            Request::Stats => ("stats", vec![]),
            Request::Metrics => ("metrics", vec![]),
            Request::Cancel { req } => ("cancel", vec![("req", s(req))]),
            Request::Keys => ("keys", vec![]),
            Request::Fetch { key } => ("fetch", vec![("key", s(key))]),
            Request::Transfer {
                key,
                kind,
                payload,
                checksum,
            } => (
                "transfer",
                vec![
                    ("key", s(key)),
                    ("kind", s(kind)),
                    ("payload", payload.clone()),
                    ("checksum", s(checksum)),
                ],
            ),
            Request::Join { endpoint } => ("join", vec![("endpoint", s(endpoint))]),
            Request::Leave { endpoint } => ("leave", vec![("endpoint", s(endpoint))]),
            Request::Ping => ("ping", vec![]),
            Request::Shutdown => ("shutdown", vec![]),
        };
        if let Request::Compile { req: Some(id), .. } = self {
            fields.push(("req", s(id)));
        }
        fields.insert(0, ("op", s(op)));
        Json::obj(fields)
    }

    /// Parses a wire JSON object.
    ///
    /// # Errors
    ///
    /// Describes the missing/unknown field.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        // A missing config defaults to `infl`, in either framing.
        let item = |row: &Json| -> Result<BatchItem, String> {
            let config = row.str_field("config").unwrap_or("infl");
            Ok(BatchItem::new(row.str_field("src")?, config))
        };
        let req = v.str_field("req").ok().map(str::to_string);
        match v.str_field("op")? {
            "compile" => Ok(Request::Compile {
                items: vec![item(v)?],
                req,
                framing: Framing::Bare,
            }),
            "compile_batch" => {
                let rows = v
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or("missing items")?;
                let items = rows
                    .iter()
                    .enumerate()
                    .map(|(i, row)| item(row).map_err(|e| format!("item {i}: {e}")))
                    .collect::<Result<_, String>>()?;
                Ok(Request::compile_batch(items, req))
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "cancel" => Ok(Request::Cancel {
                req: v.str_field("req")?.to_string(),
            }),
            "keys" => Ok(Request::Keys),
            "fetch" => Ok(Request::Fetch {
                key: v.str_field("key")?.to_string(),
            }),
            "transfer" => Ok(Request::Transfer {
                key: v.str_field("key")?.to_string(),
                kind: v.str_field("kind")?.to_string(),
                payload: v.get("payload").cloned().ok_or("missing payload")?,
                checksum: v.str_field("checksum")?.to_string(),
            }),
            "join" => Ok(Request::Join {
                endpoint: v.str_field("endpoint")?.to_string(),
            }),
            "leave" => Ok(Request::Leave {
                endpoint: v.str_field("endpoint")?.to_string(),
            }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// The artifacts of one compile: also the payload of a `"compile"` cache
/// entry, so a hit replays a fresh compile's bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileReply {
    /// Content-addressed cache key of the request.
    pub key: String,
    /// Kernel name (from the parsed source).
    pub kernel: String,
    /// Configuration name the kernel was compiled under.
    pub config: String,
    /// Canonical `.pj` rendering (the hash basis).
    pub canonical_pj: String,
    /// Generated pseudo-code (`render`).
    pub code: String,
    /// CUDA C source (`render_cuda`).
    pub cuda: String,
    /// Schedule rendering.
    pub schedule: String,
    /// Schedule tree rendering.
    pub schedule_tree: String,
    /// Loops rewritten with vector types.
    pub vector_loops: u64,
    /// Whether influence changed the schedule.
    pub influenced: bool,
    /// Simulated timing, as `(field, value)` pairs of
    /// [`polyject_gpusim::KernelTiming`].
    pub timing: Vec<(String, f64)>,
    /// Solver work of the compilation (zero when served from cache).
    pub solver: SolverCounters,
    /// Wall-clock milliseconds the compilation took (the original
    /// compile for cached replies).
    pub compile_ms: f64,
}

/// How many leading [`SolverCounters::fields`] (the artifact's, not one
/// run's) a reply carries.
const WIRE_COUNTERS: usize = 8;

impl CompileReply {
    /// The reply as the cache payload ([`crate::cache::FORMAT_VERSION`]).
    pub fn to_json(&self) -> Json {
        let timing = Json::Obj(
            self.timing
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        // Phase times and run-shaped counters stay out: payloads replay
        // byte for byte.
        let solver = self.solver.fields().take(WIRE_COUNTERS);
        Json::obj(vec![
            ("key", Json::Str(self.key.clone())),
            ("kernel", Json::Str(self.kernel.clone())),
            ("config", Json::Str(self.config.clone())),
            ("canonical_pj", Json::Str(self.canonical_pj.clone())),
            ("code", Json::Str(self.code.clone())),
            ("cuda", Json::Str(self.cuda.clone())),
            ("schedule", Json::Str(self.schedule.clone())),
            ("schedule_tree", Json::Str(self.schedule_tree.clone())),
            ("vector_loops", Json::Num(self.vector_loops as f64)),
            ("influenced", Json::Bool(self.influenced)),
            ("timing", timing),
            (
                "solver",
                Json::obj(solver.map(|(k, v)| (k, Json::Num(v as f64))).collect()),
            ),
            ("compile_ms", Json::Num(self.compile_ms)),
        ])
    }

    /// Parses the cache payload schema back into a reply.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<CompileReply, String> {
        let timing = v
            .get("timing")
            .and_then(Json::as_obj)
            .ok_or("missing timing")?
            .iter()
            .map(|(k, val)| {
                val.as_f64()
                    .map(|f| (k.clone(), f))
                    .ok_or_else(|| format!("non-numeric timing field {k:?}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Only the first four wire counters are mandatory (older entries
        // lack the rest).
        let mut solver = SolverCounters::default();
        let wire = v.get("solver").ok_or("missing solver")?;
        for (i, (field, slot)) in solver.fields_mut().take(WIRE_COUNTERS).enumerate() {
            match wire.get(field).and_then(Json::as_u64) {
                Some(n) => *slot = n,
                None if i < 4 => return Err(format!("missing solver.{field}")),
                None => {}
            }
        }
        Ok(CompileReply {
            key: v.str_field("key")?.to_string(),
            kernel: v.str_field("kernel")?.to_string(),
            config: v.str_field("config")?.to_string(),
            canonical_pj: v.str_field("canonical_pj")?.to_string(),
            code: v.str_field("code")?.to_string(),
            cuda: v.str_field("cuda")?.to_string(),
            schedule: v.str_field("schedule")?.to_string(),
            schedule_tree: v.str_field("schedule_tree")?.to_string(),
            vector_loops: v
                .get("vector_loops")
                .and_then(Json::as_u64)
                .ok_or("missing vector_loops")?,
            influenced: v
                .get("influenced")
                .and_then(Json::as_bool)
                .ok_or("missing influenced")?,
            timing,
            solver,
            compile_ms: v.num_field("compile_ms")?,
        })
    }
}

/// Builds an `ok` compile response frame from a reply.
pub fn ok_response(reply: &CompileReply, cached: bool) -> Json {
    let mut pairs = vec![
        ("status".to_string(), Json::Str("ok".to_string())),
        ("cached".to_string(), Json::Bool(cached)),
    ];
    if let Json::Obj(fields) = reply.to_json() {
        pairs.extend(fields);
    }
    Json::Obj(pairs)
}

/// A compile's answer: its payload, the text of a
/// [`CompileReply::to_json`] rendering as its cache entry stores it.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer(pub(crate) String);

impl Answer {
    /// The decoded reply.
    ///
    /// # Errors
    ///
    /// An undecodable payload.
    pub fn decode(self) -> Result<CompileReply, String> {
        CompileReply::from_json(&Json::parse(&self.0)?)
    }

    /// Whether the reply's `canonical_pj` is `src`: the payload's first
    /// field of that name (none of the three strings before it holds one).
    pub(crate) fn canonical_is(&self, src: &str) -> bool {
        let want = Json::Str(src.to_string()).render();
        let field = self.0.split_once(",\"canonical_pj\":");
        field.is_some_and(|(_, rest)| rest.starts_with(&want))
    }

    /// The `ok` frame, [`ok_response`]'s bytes, the payload spliced in.
    pub fn ok_frame(&self, cached: bool) -> Frame {
        let fields = self.0.strip_prefix('{').unwrap_or(&self.0);
        Frame::Ok(format!("{{\"status\":\"ok\",\"cached\":{cached},{fields}"))
    }
}

/// A reply frame on its way out.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A frame to render.
    Json(Json),
    /// The rendered text of an `ok` frame ([`Answer::ok_frame`]).
    Ok(String),
}

impl From<Json> for Frame {
    fn from(frame: Json) -> Frame {
        Frame::Json(frame)
    }
}

impl Frame {
    /// How the frame settles ([`Verdict::of`]).
    pub fn verdict(&self) -> Verdict {
        match self {
            Frame::Json(frame) => Verdict::of(frame),
            Frame::Ok(_) => Verdict::Ok,
        }
    }
}

/// Builds an `error` response frame.
pub fn error_response(message: &str) -> Json {
    Json::obj(vec![
        ("status", Json::Str("error".to_string())),
        ("message", Json::Str(message.to_string())),
    ])
}

/// Builds an `error` response frame tagged retryable, for a transient
/// failure (timeout, cancellation) a replica may not repeat.
pub fn retryable_error_response(message: &str) -> Json {
    Json::obj(vec![
        ("status", Json::Str("error".to_string())),
        ("message", Json::Str(message.to_string())),
        ("retryable", Json::Bool(true)),
    ])
}

/// Builds the `overloaded` backpressure response frame.
pub fn overloaded_response(queue_len: usize) -> Json {
    Json::obj(vec![
        ("status", Json::Str("overloaded".to_string())),
        ("queue_len", Json::Num(queue_len as f64)),
    ])
}

/// Builds one streamed item frame of a batch reply: `inner` is the frame
/// the item alone would get, `index` its place in the request.
pub fn batch_item_response(index: usize, total: usize, inner: Json) -> Json {
    Json::obj(vec![
        ("status", Json::Str("item".to_string())),
        ("index", Json::Num(index as f64)),
        ("of", Json::Num(total as f64)),
        ("reply", inner),
    ])
}

/// Builds the closing frame of a batch reply: per-status tallies.
pub fn batch_done_response(items: usize, ok: usize, errors: usize, overloaded: usize) -> Json {
    Json::obj(vec![
        ("status", Json::Str("batch_done".to_string())),
        ("items", Json::Num(items as f64)),
        ("ok", Json::Num(ok as f64)),
        ("errors", Json::Num(errors as f64)),
        ("overloaded", Json::Num(overloaded as f64)),
    ])
}

/// How a reply frame settles: [`Verdict::of`] is the one reader of a
/// reply's `status` and `retryable`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `ok`: the artifact (or the report asked for).
    Ok,
    /// A deterministic `error` (parse, config), which a retry repeats.
    Final,
    /// `overloaded`: shed by a full queue before any work was done.
    Overloaded,
    /// An `error` tagged `"retryable":true`, or no known status at all.
    Retryable,
}

impl Verdict {
    /// Classifies a reply frame.
    pub fn of(resp: &Json) -> Verdict {
        // Only an error is searched for `retryable`.
        let retryable = || resp.get("retryable").and_then(Json::as_bool) == Some(true);
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => Verdict::Ok,
            Some("overloaded") => Verdict::Overloaded,
            Some("error") if !retryable() => Verdict::Final,
            _ => Verdict::Retryable,
        }
    }

    /// Whether another replica or attempt may still succeed.
    pub fn transient(self) -> bool {
        matches!(self, Verdict::Overloaded | Verdict::Retryable)
    }
}

/// The write edge of a compile request, the one place the [`Framing`]s
/// differ: a bare reply goes out as-is, a batch's in the envelope. The
/// daemon and the router front write through it.
pub struct ReplyWriter<'a, W: Write> {
    out: &'a mut W,
    /// `Some(total)` wraps replies in the item/`batch_done` envelope.
    envelope: Option<usize>,
    /// Replies seen so far, as `[ok, errors, overloaded]`.
    tally: [usize; 3],
    alive: bool,
}

impl<'a, W: Write> ReplyWriter<'a, W> {
    /// The writer for `total` items that arrived in `framing`.
    pub fn new(out: &'a mut W, framing: Framing, total: usize) -> ReplyWriter<'a, W> {
        ReplyWriter {
            out,
            envelope: (framing == Framing::Envelope).then_some(total),
            tally: [0; 3],
            alive: true,
        }
    }

    /// Whether replies go out inside the batch envelope.
    pub fn enveloped(&self) -> bool {
        self.envelope.is_some()
    }

    /// Writes item `index`'s reply. Returns `false` once the peer is
    /// gone; later writes are then skipped, but still tallied.
    pub fn item(&mut self, index: usize, reply: impl Into<Frame>) -> bool {
        let reply = reply.into();
        let slot = match reply.verdict() {
            Verdict::Ok => 0,
            Verdict::Overloaded => 2,
            Verdict::Final | Verdict::Retryable => 1,
        };
        self.tally[slot] += 1;
        // The envelope around a `null` reply, which the reply replaces.
        let mut frame = String::from(ROOM);
        if let Some(total) = self.envelope {
            batch_item_response(index, total, Json::Null).render_into(&mut frame);
            frame.truncate(frame.len() - "null}".len());
        }
        match &reply {
            Frame::Json(json) => json.render_into(&mut frame),
            Frame::Ok(text) => frame.push_str(text),
        }
        if self.envelope.is_some() {
            frame.push('}');
        }
        self.alive = self.alive && send_frame(self.out, frame).is_ok();
        self.alive
    }

    /// Closes the reply (enveloped: the tally). Whether the connection
    /// is still usable.
    pub fn finish(self) -> bool {
        let [ok, errors, overloaded] = self.tally;
        match self.envelope {
            Some(total) if self.alive => write_frame(
                self.out,
                &batch_done_response(total, ok, errors, overloaded),
            )
            .is_ok(),
            _ => self.alive,
        }
    }
}

/// Builds an `ok` response frame carrying `fields`.
pub fn ok_with(fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("status", Json::Str("ok".to_string()))];
    pairs.extend(fields);
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reply_roundtrips() {
        let reply = CompileReply {
            key: "aa11".to_string(),
            kernel: "k".to_string(),
            config: "infl".to_string(),
            canonical_pj: "kernel k\n".to_string(),
            code: "for i ...".to_string(),
            cuda: "__global__ ...".to_string(),
            schedule: "S: (i)".to_string(),
            schedule_tree: "band ...".to_string(),
            vector_loops: 1,
            influenced: true,
            timing: vec![("time".to_string(), 1.5e-3), ("flops".to_string(), 2048.0)],
            solver: SolverCounters {
                lp_solves: 10,
                ilp_solves: 4,
                ilp_nodes: 5,
                fm_eliminations: 3,
                lp_phase1_pivots: 20,
                lp_phase2_pivots: 30,
                bb_repair_pivots: 2,
                bb_warm_nodes: 1,
                ..SolverCounters::default() // the rest is not carried over the wire
            },
            compile_ms: 12.75,
        };
        let back = CompileReply::from_json(&reply.to_json()).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn compile_items_default_config_and_name_the_offending_item() {
        // A missing per-item config defaults like a standalone compile.
        for frame in [
            r#"{"op":"compile","src":"kernel a\n"}"#,
            r#"{"op":"compile_batch","items":[{"src":"kernel a\n"}]}"#,
        ] {
            match Request::from_json(&Json::parse(frame).unwrap()).unwrap() {
                Request::Compile { items, req, .. } => {
                    assert_eq!(items, vec![BatchItem::new("kernel a\n", "infl")]);
                    assert!(req.is_none());
                }
                other => panic!("parsed {other:?}"),
            }
        }
        // Structural errors name the offending item.
        let err = Request::from_json(
            &Json::parse("{\"op\":\"compile_batch\",\"items\":[{\"config\":\"infl\"}]}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("item 0"), "{err}");
        assert!(
            Request::from_json(&Json::parse("{\"op\":\"compile_batch\"}").unwrap()).is_err(),
            "missing items is structural"
        );
    }

    #[test]
    fn router_requests_roundtrip() {
        let payload = Json::obj(vec![("key", Json::Str("ab".into()))]);
        let reqs = vec![
            Request::compile("kernel k\n", "infl", Some("0007.1.0".to_string())),
            Request::Metrics,
            Request::Cancel {
                req: "0007.1.1".to_string(),
            },
            Request::Keys,
            Request::Fetch {
                key: "deadbeefdeadbeef".to_string(),
            },
            Request::Transfer {
                key: "deadbeefdeadbeef".to_string(),
                kind: "compile".to_string(),
                payload,
                checksum: "0011223344556677".to_string(),
            },
            Request::Join {
                endpoint: "127.0.0.1:7471".to_string(),
            },
            Request::Leave {
                endpoint: "127.0.0.1:7471".to_string(),
            },
        ];
        for r in reqs {
            assert_eq!(Request::from_json(&r.to_json()).unwrap(), r);
        }
        // Transfer requests with a missing payload or checksum are
        // structural errors, not panics.
        assert!(Request::from_json(
            &Json::parse("{\"op\":\"transfer\",\"key\":\"aa\",\"kind\":\"compile\"}").unwrap()
        )
        .is_err());
    }
}
