//! Spans recorded from the benchmark's own side of each layer boundary.
//!
//! Nothing in the programs under test is patched: a span wraps a call
//! into a public function. Spans stay in memory and are written out when
//! the run ends. A layer's self time is its span minus the spans it
//! caused; a layer metric is the sum over operation identities of the
//! best-of-pass self time, the same estimator the end-to-end times use.
//!
//! The load generator is one thread, so the tracer is a thread-local.
//! While it is not recording (every end-to-end run, and every other pass
//! of a traced run) `span` is a flag test.

use polyject_serve::Json;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// The operation identity the span belongs to (inherited from the
    /// enclosing [`op_span`]), `NONE` outside any.
    op: u32,
    pass: u32,
}

struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    pass: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts or pauses recording. A traced run alternates recorded and
/// unrecorded passes, so both kinds meet the same weather on the box.
pub fn record(on: bool) {
    TRACER.with(|t| {
        t.borrow_mut()
            .get_or_insert_with(|| Tracer {
                recording: false,
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                op: NONE,
                pass: 0,
            })
            .recording = on;
    });
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().as_ref().is_some_and(|t| t.recording))
}

/// Numbers the pass later spans belong to (probes use it for their
/// repetitions, so a probe's time is a best-of too).
pub fn set_pass(pass: usize) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.pass = pass as u32;
        }
    });
}

fn begin(name: &'static str, op: Option<usize>) -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut().filter(|t| t.recording) else {
            return false;
        };
        if let Some(op) = op {
            t.op = op as u32;
        }
        let span = Span {
            name,
            start_ns: t.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: t.open.last().copied().unwrap_or(NONE),
            op: t.op,
            pass: t.pass,
        };
        t.open.push(t.spans.len() as u32);
        t.spans.push(span);
        true
    })
}

fn end(closes_op: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("span ended with tracing off");
        let now = t.epoch.elapsed().as_nanos() as u64;
        let idx = t.open.pop().expect("span ended twice");
        t.spans[idx as usize].end_ns = now;
        if closes_op {
            t.op = NONE;
        }
    });
}

/// Runs `f` inside a span (or bare, with tracing off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let on = begin(name, None);
    let out = f();
    if on {
        end(false);
    }
    out
}

/// A span that also names the operation identity it and every span it
/// causes belong to.
pub fn op_span<R>(name: &'static str, op: usize, f: impl FnOnce() -> R) -> R {
    let on = begin(name, Some(op));
    let out = f();
    if on {
        end(true);
    }
    out
}

/// What the recorded spans say about each span name.
pub struct Layers {
    /// name → Σ over identities of the best-of-pass self time, ms.
    self_ms: HashMap<&'static str, f64>,
    /// name → per identity, the best-of-pass total (not self) time, ms.
    per_op_ms: HashMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Σ over identities of the best-of-pass self time of `name`, in ms
    /// (0 when the workload never entered that layer).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Median over identities of the best-of-pass span time of `name`.
    pub fn p50_ms(&self, name: &str) -> f64 {
        match self.per_op_ms.get(name) {
            Some(v) if !v.is_empty() => crate::est::median(&mut v.clone()),
            _ => 0.0,
        }
    }

    /// Σ over identities of the best-of-pass whole time of `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.per_op_ms.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Every recorded span name, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.self_ms.keys().copied().collect();
        names.sort_unstable();
        names
    }
}

/// Aggregates the spans recorded so far.
pub fn layers() -> Layers {
    TRACER.with(|t| {
        let t = t.borrow();
        let Some(t) = t.as_ref() else {
            return Layers {
                self_ms: HashMap::new(),
                per_op_ms: HashMap::new(),
            };
        };
        let mut self_ns: Vec<u64> = t.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &t.spans {
            if s.parent != NONE {
                self_ns[s.parent as usize] -= s.end_ns - s.start_ns;
            }
        }
        // (name, op) → pass → (Σ self, Σ total) of that name's spans.
        type PerPass = HashMap<u32, (u64, u64)>;
        let mut cells: HashMap<(&'static str, u32), PerPass> = HashMap::new();
        for (s, &own) in t.spans.iter().zip(&self_ns) {
            let cell = cells
                .entry((s.name, s.op))
                .or_default()
                .entry(s.pass)
                .or_default();
            cell.0 += own;
            cell.1 += s.end_ns - s.start_ns;
        }
        let mut self_ms: HashMap<&'static str, f64> = HashMap::new();
        let mut per_op_ms: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for ((name, _), passes) in cells {
            let best_self = passes.values().map(|c| c.0).min().unwrap_or(0);
            let best_total = passes.values().map(|c| c.1).min().unwrap_or(0);
            *self_ms.entry(name).or_default() += best_self as f64 / 1e6;
            per_op_ms
                .entry(name)
                .or_default()
                .push(best_total as f64 / 1e6);
        }
        Layers { self_ms, per_op_ms }
    })
}

/// Writes every span as `{name, start_ns, end_ns, parent, op, pass}`;
/// `parent` indexes the `spans` array, `-1` for none.
pub fn write(path: &str, workload: &str, seed: u64) -> std::io::Result<()> {
    let index = |v: u32| {
        if v == NONE {
            Json::Num(-1.0)
        } else {
            Json::Num(f64::from(v))
        }
    };
    let spans = TRACER.with(|t| {
        let t = t.borrow();
        t.as_ref().map_or(Vec::new(), |t| {
            t.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", index(s.parent)),
                        ("op", index(s.op)),
                        ("pass", Json::Num(f64::from(s.pass))),
                    ])
                })
                .collect()
        })
    });
    let doc = Json::obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::write(path, doc.render())
}
