//! The end-to-end compilation pipeline: schedule → AST → vectorize → map,
//! under one of the paper's four evaluated configurations.

use crate::ast::Ast;
use crate::gen::generate_ast;
use crate::passes::{map_to_gpu, vectorize, MappingOptions};
use crate::tiling::{tile_ast, TilingOptions};
use polyject_core::{
    Budget, InfluenceOptions, Schedule, ScheduleError, ScheduleResult, SchedulerOptions,
};
use polyject_deps::Dependences;
use polyject_ir::Kernel;

/// The four configurations of the paper's evaluation (Section VI).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Config {
    /// Standard isl-style scheduling (no influence), AKG pipeline.
    Isl,
    /// Influenced scheduling, but with the explicit load/store
    /// vectorization backend pass disabled.
    NoVec,
    /// Influenced scheduling with vectorization (the paper's approach).
    Influenced,
}

impl Config {
    /// All pipeline configurations in the paper's column order (TVM is a
    /// separate baseline handled by the workload harness).
    pub fn all() -> [Config; 3] {
        [Config::Isl, Config::NoVec, Config::Influenced]
    }

    /// The paper's column name.
    pub fn name(&self) -> &'static str {
        match self {
            Config::Isl => "isl",
            Config::NoVec => "novec",
            Config::Influenced => "infl",
        }
    }
}

/// The compiled form of a kernel: schedule, mapped AST and provenance.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The schedule the polyhedral phase produced.
    pub schedule: Schedule,
    /// The mapped (and possibly vectorized) AST.
    pub ast: Ast,
    /// Whether influence constraints shaped the schedule.
    pub influenced: bool,
    /// Number of loops rewritten with vector types.
    pub vector_loops: usize,
}

/// Every textual artifact of one compilation, in one struct: the unit
/// the serving layer's content-addressed cache stores and replays, so a
/// cache hit reproduces byte-identical outputs to a fresh compile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifacts {
    /// Generated pseudo-code ([`crate::render`]).
    pub code: String,
    /// CUDA C source ([`crate::render_cuda`]).
    pub cuda: String,
    /// Schedule rendering ([`polyject_core::Schedule::render`]).
    pub schedule: String,
    /// Schedule tree rendering ([`polyject_core::render_schedule_tree`]).
    pub schedule_tree: String,
    /// Loops rewritten with vector types.
    pub vector_loops: usize,
    /// Whether influence constraints shaped the schedule.
    pub influenced: bool,
}

/// Renders every artifact of a [`Compiled`] kernel.
///
/// # Examples
///
/// ```
/// use polyject_codegen::{compile, render_artifacts, Config};
/// use polyject_ir::ops;
///
/// let kernel = ops::transpose_2d(64, 64);
/// let compiled = compile(&kernel, Config::Influenced).unwrap();
/// let a = render_artifacts(&kernel, &compiled);
/// assert!(a.cuda.contains("__global__"));
/// assert_eq!(a.vector_loops, compiled.vector_loops);
/// ```
pub fn render_artifacts(kernel: &Kernel, compiled: &Compiled) -> Artifacts {
    let st = polyject_core::schedule_tree(kernel, &compiled.schedule);
    Artifacts {
        code: crate::render(&compiled.ast, kernel),
        cuda: crate::render_cuda(&compiled.ast, kernel),
        schedule: compiled.schedule.render(kernel),
        schedule_tree: polyject_core::render_schedule_tree(&st, kernel),
        vector_loops: compiled.vector_loops,
        influenced: compiled.influenced,
    }
}

/// Compiles a kernel end to end under a configuration.
///
/// # Errors
///
/// Propagates [`ScheduleError`] if even uninfluenced scheduling fails.
///
/// # Examples
///
/// ```
/// use polyject_codegen::{compile, Config};
/// use polyject_ir::ops;
///
/// let kernel = ops::transpose_2d(64, 64);
/// let isl = compile(&kernel, Config::Isl).unwrap();
/// let infl = compile(&kernel, Config::Influenced).unwrap();
/// assert!(!isl.influenced);
/// assert!(infl.influenced);
/// ```
pub fn compile(kernel: &Kernel, config: Config) -> Result<Compiled, ScheduleError> {
    compile_with_options(
        kernel,
        config,
        &Budget::unlimited(),
        &CompileOptions::default(),
    )
}

/// Every knob the pipeline compiles under, in one struct. The defaults
/// reproduce [`compile`] exactly; the autotuner searches over the
/// non-default points and replays winners through this entry. The
/// scheduler core has no knob of its own.
///
/// [`CompileOptions::canonical_key`] is the one encoding of the option
/// set: the tuner's candidate log, the persisted tuned configuration and
/// the serving cache key all carry it, so a new knob is encoded here
/// and nowhere else.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompileOptions {
    /// Influence-optimizer knobs (weights, scenario-variant toggles).
    pub influence: InfluenceOptions,
    /// Block/thread mapping knobs.
    pub mapping: MappingOptions,
    /// Optional tiling applied after mapping (`None` = untiled, the
    /// pipeline default).
    pub tiling: Option<TilingOptions>,
}

impl CompileOptions {
    /// A canonical, injective textual encoding of the options. Floats are
    /// rendered as IEEE-754 bit patterns, so the key is stable across
    /// formatting changes and two keys are equal exactly when the options
    /// are. [`CompileOptions::from_canonical_key`] inverts it.
    pub fn canonical_key(&self) -> String {
        let mut s = String::with_capacity(160);
        self.write_key(&mut s)
            .expect("formatting into a String cannot fail");
        s
    }

    fn write_key(&self, s: &mut String) -> std::fmt::Result {
        use std::fmt::Write;
        let infl = &self.influence;
        s.push_str("w=");
        for (i, w) in infl.weights.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(s, "{sep}{:016x}", w.to_bits())?;
        }
        write!(s, ";L={};S={};V=", infl.thread_limit, infl.max_scenarios)?;
        for (i, v) in infl.vector_widths.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(s, "{sep}{v}")?;
        }
        write!(
            s,
            ";F={};R={}",
            infl.fusion_variants as u8, infl.relaxed_variants as u8
        )?;
        match self.tiling {
            None => s.push_str(";T=-"),
            Some(t) => write!(
                s,
                ";T={}/{}/{}",
                t.tile_size, t.min_extent, t.max_tiled_loops
            )?,
        }
        let map = &self.mapping;
        write!(
            s,
            ";M={}/{}/{}",
            map.max_threads, map.max_thread_axes, map.max_block_axes
        )
    }

    /// Decodes a [`CompileOptions::canonical_key`]. Accepts exactly the
    /// strings `canonical_key` emits.
    ///
    /// # Errors
    ///
    /// Any other string — truncated, with an unknown tag or field, a
    /// malformed number, or a non-canonical spelling of one.
    pub fn from_canonical_key(key: &str) -> Result<CompileOptions, String> {
        parse_key(key)
            // Re-encoding rejects what the lenient number parsers accept
            // but `canonical_key` never writes: signs, leading zeros,
            // upper-case hex.
            .filter(|opts| opts.canonical_key() == key)
            .ok_or_else(|| format!("not a canonical options key: {key:?}"))
    }
}

fn parse_key(key: &str) -> Option<CompileOptions> {
    fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
        s.parse().ok()
    }
    fn triple(s: &str) -> Option<[&str; 3]> {
        let mut parts = s.split('/');
        let t = [parts.next()?, parts.next()?, parts.next()?];
        parts.next().is_none().then_some(t)
    }
    let flag = |f: &str| match f {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    };
    let mut fields = key.split(';');
    let mut field = |tag: &str| fields.next()?.strip_prefix(tag);
    let weights: Vec<f64> = field("w=")?
        .split(',')
        .map(|w| u64::from_str_radix(w, 16).ok().map(f64::from_bits))
        .collect::<Option<_>>()?;
    let thread_limit = num(field("L=")?)?;
    let max_scenarios = num(field("S=")?)?;
    let vector_widths = match field("V=")? {
        "" => Vec::new(),
        v => v.split(',').map(num).collect::<Option<_>>()?,
    };
    let fusion_variants = flag(field("F=")?)?;
    let relaxed_variants = flag(field("R=")?)?;
    let tiling = match field("T=")? {
        "-" => None,
        t => {
            let [size, extent, loops] = triple(t)?;
            Some(TilingOptions {
                tile_size: num(size)?,
                min_extent: num(extent)?,
                max_tiled_loops: num(loops)?,
            })
        }
    };
    let [threads, thread_axes, block_axes] = triple(field("M=")?)?;
    Some(CompileOptions {
        influence: InfluenceOptions {
            weights: weights.try_into().ok()?,
            thread_limit,
            max_scenarios,
            vector_widths,
            fusion_variants,
            relaxed_variants,
        },
        mapping: MappingOptions {
            max_threads: num(threads)?,
            max_thread_axes: num(thread_axes)?,
            max_block_axes: num(block_axes)?,
        },
        tiling,
    })
}

/// [`compile`] under a cooperative [`Budget`] — the scheduling phase
/// checks its deadline, caps and cancel flag, degrading to an
/// uninfluenced schedule on exhaustion and aborting with a structured
/// error on cancellation (see [`polyject_core::ScheduleSession::schedule_with`])
/// — and explicit [`CompileOptions`] instead of the defaults: influence
/// tree built from `opts.influence`, mapping from `opts.mapping`, and —
/// when `opts.tiling` is set — tiling applied after mapping with the
/// mapping re-run (tiling reverts mapped kinds on tile loops). A cold
/// compile is a [`CompileSession`] of one call.
///
/// # Errors
///
/// Propagates [`ScheduleError`] like [`compile`].
pub fn compile_with_options(
    kernel: &Kernel,
    config: Config,
    budget: &Budget,
    opts: &CompileOptions,
) -> Result<Compiled, ScheduleError> {
    CompileSession::new(kernel).compile_with(config, budget, opts)
}

/// The schedule half of lowering: schedule → AST → parallel-loop
/// refinement → vectorization when `config` is [`Config::Influenced`].
/// It reads no [`CompileOptions`], so a session runs it once per
/// schedule; the unmapped AST it returns is what [`map_and_tile`]
/// starts from.
fn lower_schedule(
    kernel: &Kernel,
    config: Config,
    deps: &Dependences,
    schedule: &Schedule,
) -> Lowered {
    let mut ast = generate_ast(kernel, schedule);
    crate::passes::refine_parallel_loops(&mut ast, schedule, deps);
    let vector_loops = if config == Config::Influenced {
        vectorize(&mut ast, kernel, schedule)
    } else {
        0
    };
    Lowered { ast, vector_loops }
}

/// The options half of lowering, run on every compile: GPU mapping, then
/// — when `opts.tiling` is set — tiling with a re-map.
fn map_and_tile(ast: &mut Ast, kernel: &Kernel, schedule: &Schedule, opts: &CompileOptions) {
    map_to_gpu(ast, kernel, opts.mapping);
    if let Some(t) = opts.tiling {
        tile_ast(ast, kernel, schedule, t);
        // Tiling reverts mapped kinds on the loops it splits; re-map so
        // the tiled AST is launchable again.
        map_to_gpu(ast, kernel, opts.mapping);
    }
}

/// A per-kernel compile session — the only route from a kernel to a
/// [`Compiled`]. Dependence analysis, Farkas linearization and the base
/// scheduling context depend on neither [`Config`] nor
/// [`CompileOptions`], so they are computed once (inside the held
/// [`polyject_core::ScheduleSession`]) and every
/// [`compile_with`](CompileSession::compile_with) call re-runs only the
/// configuration- and option-dependent suffix — scenario planning,
/// constraint injection and the per-dimension ILP ladder for a new plan,
/// AST generation for a new schedule, and mapping and tiling always.
///
/// [`compile_with_options`] is a session of one call; the autotuner and
/// the compile service keep one open per kernel, so candidate 2..N (and
/// the sibling configurations) of a kernel cost zero dependence analyses
/// and zero Farkas linearizations (observable in the
/// `dependence_analyses` / `farkas_linearizations` counters). A long-lived
/// session answers bitwise what a fresh one would — pinned by the session
/// differential suite in `crates/workloads`.
pub struct CompileSession {
    session: polyject_core::ScheduleSession,
    lowered: std::sync::Mutex<LoweredMemo>,
}

/// The schedule half of lowering ([`lower_schedule`]) memoized per
/// [`LoweredKey`], compared with `==`.
///
/// `lower_schedule` is a pure function of exactly the key's values —
/// `vectorize` reads the kernel and schedule only — and reads no
/// mapping or tiling knob, so every candidate that lands on an already
/// lowered schedule (beam-search mutations of the weights, the mapping or
/// the tiling alike) clones its unmapped AST and runs only
/// [`map_and_tile`]. The key holds the whole schedule, so metered and
/// unmetered compiles share the memo safely: a degraded schedule is a
/// different key from an undegraded one, and never answers for it.
struct LoweredMemo {
    entries: Vec<(LoweredKey, Lowered)>,
}

/// Every input [`lower_schedule`] reads besides the session's kernel and
/// dependences: the configuration and the schedule.
type LoweredKey = (Config, Schedule);

/// The unmapped AST of one schedule and the loops `vectorize` rewrote.
#[derive(Clone)]
struct Lowered {
    ast: Ast,
    vector_loops: usize,
}

/// Cap on memoized lowerings per session. Every unmetered schedule
/// comes out of the schedule memo (64 entries), and `novec` and `infl`
/// lower each of those under their own key, so a search never evicts a
/// live entry.
const LOWERED_CAP: usize = 128;

impl CompileSession {
    /// Opens a session for one kernel, analyzing its dependences once.
    pub fn new(kernel: &Kernel) -> CompileSession {
        CompileSession {
            session: polyject_core::ScheduleSession::new(kernel, SchedulerOptions::default()),
            lowered: std::sync::Mutex::new(LoweredMemo {
                entries: Vec::new(),
            }),
        }
    }

    /// The session's kernel.
    pub fn kernel(&self) -> &Kernel {
        self.session.kernel()
    }

    /// Compiles the session's kernel under a configuration and explicit
    /// options. A budget with resource limits bypasses the schedule memo
    /// (see [`polyject_core::ScheduleSession::schedule_with`]); the
    /// lowered memo is keyed by the schedule it lowers, so every budget
    /// reads and writes it.
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] if even uninfluenced scheduling fails, or on
    /// cancellation.
    pub fn compile_with(
        &self,
        config: Config,
        budget: &Budget,
        opts: &CompileOptions,
    ) -> Result<Compiled, ScheduleError> {
        let influence = match config {
            Config::Isl => None,
            Config::NoVec | Config::Influenced => Some(&opts.influence),
        };
        let ScheduleResult {
            schedule,
            influenced,
            ..
        } = self.session.schedule_with(influence, budget)?;
        let t0 = std::time::Instant::now();
        let memoized = {
            let memo = self.lowered.lock().expect("lowered memo lock poisoned");
            let hit = (memo.entries.iter()).find(|((c, s), _)| *c == config && *s == schedule);
            hit.map(|(_, lowered)| lowered.clone())
        };
        let Lowered {
            mut ast,
            vector_loops,
        } = match memoized {
            Some(lowered) => lowered,
            None => {
                let lowered = lower_schedule(self.kernel(), config, self.session.deps(), &schedule);
                let mut memo = self.lowered.lock().expect("lowered memo lock poisoned");
                if memo.entries.len() >= LOWERED_CAP {
                    memo.entries.remove(0);
                }
                memo.entries
                    .push(((config, schedule.clone()), lowered.clone()));
                lowered
            }
        };
        map_and_tile(&mut ast, self.kernel(), &schedule, opts);
        polyject_sets::counters::add_codegen_ns(t0.elapsed().as_nanos() as u64);
        Ok(Compiled {
            schedule,
            ast,
            influenced,
            vector_loops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::LoopKind;
    use polyject_ir::ops;

    #[test]
    fn transpose_influenced_vectorizes() {
        let kernel = ops::transpose_2d(128, 128);
        let c = compile(&kernel, Config::Influenced).unwrap();
        assert!(c.influenced);
        assert_eq!(c.vector_loops, 1);
        let loops = c.ast.loops();
        assert!(loops.iter().any(|l| matches!(l.kind, LoopKind::Vector(4))));
    }

    #[test]
    fn novec_does_not_vectorize_but_influences() {
        let kernel = ops::transpose_2d(128, 128);
        let c = compile(&kernel, Config::NoVec).unwrap();
        assert!(c.influenced);
        assert_eq!(c.vector_loops, 0);
        assert!(c
            .ast
            .loops()
            .iter()
            .all(|l| !matches!(l.kind, LoopKind::Vector(_))));
    }

    #[test]
    fn isl_maps_threads() {
        let kernel = ops::transpose_2d(128, 128);
        let c = compile(&kernel, Config::Isl).unwrap();
        let loops = c.ast.loops();
        assert!(loops.iter().any(|l| matches!(l.kind, LoopKind::Thread(0))));
        assert!(loops.iter().any(|l| matches!(l.kind, LoopKind::Block(_))));
    }

    #[test]
    fn config_names() {
        assert_eq!(Config::Isl.name(), "isl");
        assert_eq!(Config::all().len(), 3);
    }

    #[test]
    fn default_options_reproduce_compile() {
        let kernel = ops::transpose_2d(128, 128);
        let a = compile(&kernel, Config::Influenced).unwrap();
        let b = compile_with_options(
            &kernel,
            Config::Influenced,
            &Budget::unlimited(),
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(format!("{:?}", a.ast), format!("{:?}", b.ast));
        assert_eq!(a.vector_loops, b.vector_loops);
        assert_eq!(a.influenced, b.influenced);
    }

    #[test]
    fn one_shot_compile_analyzes_once_and_reuses_nothing() {
        // A cold compile is a session of one call: exactly one dependence
        // analysis and no session reuse, so the recorded solver-counter
        // snapshot of the cold table cannot drift.
        let kernel = ops::transpose_2d(128, 128);
        let before = polyject_sets::counters::snapshot();
        compile(&kernel, Config::Influenced).unwrap();
        let d = polyject_sets::counters::snapshot().delta_since(&before);
        assert_eq!(d.dependence_analyses, 1);
        assert_eq!(d.session_reuses, 0);
    }

    #[test]
    fn metered_and_unmetered_compiles_share_the_lowered_memo_exactly() {
        let kernel = ops::transpose_2d(128, 128);
        let opts = CompileOptions::default();
        let fresh = compile_with_options(&kernel, Config::Influenced, &Budget::unlimited(), &opts);
        let fresh = format!("{:?}", fresh.unwrap());
        let metered = Budget::unlimited().with_max_pivots(u64::MAX);
        let session = CompileSession::new(&kernel);
        for budget in [&metered, &Budget::unlimited(), &metered] {
            let c = session.compile_with(Config::Influenced, budget, &opts);
            assert_eq!(format!("{:?}", c.unwrap()), fresh);
        }
    }

    #[test]
    fn a_mapping_or_tiling_only_candidate_does_no_solver_work() {
        use polyject_sets::counters;
        let kernel = ops::running_example(64);
        let budget = Budget::unlimited();
        let session = CompileSession::new(&kernel);
        let base = CompileOptions::default();
        session
            .compile_with(Config::Influenced, &budget, &base)
            .unwrap();
        let remapped = CompileOptions {
            mapping: MappingOptions {
                max_threads: 256,
                ..MappingOptions::default()
            },
            ..base.clone()
        };
        let tiled = CompileOptions {
            tiling: Some(TilingOptions {
                tile_size: 16,
                min_extent: 32,
                max_tiled_loops: 2,
            }),
            ..base.clone()
        };
        for opts in [&remapped, &tiled] {
            let before = counters::snapshot();
            let warm = session.compile_with(Config::Influenced, &budget, opts);
            let d = counters::snapshot().delta_since(&before);
            assert_eq!((d.ilp_solves, d.lp_solves, d.fm_eliminations), (0, 0, 0));
            let before = counters::snapshot();
            let fresh = compile_with_options(&kernel, Config::Influenced, &budget, opts);
            let cold = counters::snapshot().delta_since(&before);
            assert!(
                cold.fm_eliminations > 0,
                "a cold compile lowers from scratch"
            );
            assert_eq!(warm.unwrap().ast, fresh.unwrap().ast);
        }
    }

    #[test]
    fn tiling_option_tiles_and_remaps() {
        let kernel = ops::transpose_2d(256, 256);
        let opts = CompileOptions {
            tiling: Some(TilingOptions::default()),
            ..CompileOptions::default()
        };
        let c = compile_with_options(&kernel, Config::Isl, &Budget::unlimited(), &opts).unwrap();
        let loops = c.ast.loops();
        assert!(
            loops.len() > compile(&kernel, Config::Isl).unwrap().ast.loops().len(),
            "tiling must add tile loops"
        );
        assert!(loops.iter().any(|l| matches!(l.kind, LoopKind::Thread(0))));
    }

    const DEFAULT_KEY: &str = "w=4014000000000000,4008000000000000,3ff0000000000000,\
        3ff0000000000000,3ff0000000000000;L=1024;S=8;V=4,2;F=1;R=1;T=-;M=1024/2/3";

    #[test]
    fn canonical_key_of_the_defaults_is_pinned_and_decodes() {
        let opts = CompileOptions::default();
        assert_eq!(opts.canonical_key(), DEFAULT_KEY);
        assert_eq!(CompileOptions::from_canonical_key(DEFAULT_KEY), Ok(opts));
        // An empty width list is a point too.
        let mut no_widths = CompileOptions::default();
        no_widths.influence.vector_widths.clear();
        let key = no_widths.canonical_key();
        assert!(key.contains(";V=;"));
        assert_eq!(CompileOptions::from_canonical_key(&key), Ok(no_widths));
    }

    #[test]
    fn from_canonical_key_rejects_everything_else() {
        // Every proper prefix is a truncated key.
        for (cut, _) in DEFAULT_KEY.char_indices() {
            let truncated = &DEFAULT_KEY[..cut];
            assert!(
                CompileOptions::from_canonical_key(truncated).is_err(),
                "{truncated:?}"
            );
        }
        let bad = [
            DEFAULT_KEY.replace("L=", "X="),
            DEFAULT_KEY.replace(";S=8", ""),
            DEFAULT_KEY.replace("4014000000000000", "40140000000000zz"),
            DEFAULT_KEY.replace("4014000000000000", "4014000000000000,"),
            DEFAULT_KEY.replace("3ff0000000000000;", "3ff0000000000000,3ff0000000000000;"),
            DEFAULT_KEY.replace("F=1", "F=2"),
            DEFAULT_KEY.replace("V=4,2", "V=4,,2"),
            DEFAULT_KEY.replace("T=-", "T=32/64"),
            DEFAULT_KEY.replace("T=-", "T=32/64/2/1"),
            DEFAULT_KEY.replace("M=1024/2/3", "M=1024/2/3/4"),
            format!("{DEFAULT_KEY};Q=1"),
            format!("{DEFAULT_KEY};"),
            // Spellings the number parsers accept but the encoder never
            // writes.
            DEFAULT_KEY.replace("L=1024", "L=+1024"),
            DEFAULT_KEY.replace("S=8", "S=08"),
            DEFAULT_KEY.replace("3ff0000000000000;", "3FF0000000000000;"),
            DEFAULT_KEY.replace("4014000000000000", "+4014000000000000"),
        ];
        for key in &bad {
            assert!(CompileOptions::from_canonical_key(key).is_err(), "{key:?}");
        }
    }
}
