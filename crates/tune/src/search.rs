//! Deterministic beam search over the joint knob space, with the
//! analytic GPU simulator as the oracle.
//!
//! The search is replayable byte-for-byte: candidate generation is
//! driven by one [`SplitMix64`] stream seeded from [`TuneOptions::seed`],
//! every tie is broken by the candidate's canonical key, and no
//! wall-clock value enters the outcome — the same seed and kernel always
//! produce the identical candidate log, the identical winner, and the
//! identical [`TunedConfig`].
//!
//! Evaluation is pluggable through [`JobRunner`] over a shared
//! [`EvalCtx`]: every candidate of one search compiles through one
//! [`CompileSession`], so the option-invariant prefix (dependence
//! analysis, Farkas systems, the solved base context) is paid once per
//! kernel. [`SerialRunner`] is the in-process default; the serving layer
//! parallelizes across whole searches (different kernels) instead of
//! within one. Results must come back in input order — the search's
//! determinism does not depend on evaluation order, only on the order
//! results are *absorbed*, which the contract fixes.

use crate::space::{mutate, sample};
use polyject_arith::fnv1a64;
use polyject_arith::SplitMix64;
use polyject_codegen::{
    Ast, CompileOptions, CompileSession, Compiled, Config, MappingOptions, TilingOptions,
};
use polyject_core::{Budget, ScheduleError};
use polyject_gpusim::{estimate, GpuModel, KernelTiming};
use polyject_ir::Kernel;
use std::sync::Mutex;

/// Search-shape knobs. The defaults evaluate ≈ 30 candidates, which
/// keeps a full Table II tuning run in the seconds range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneOptions {
    /// PRNG seed; the whole search replays from it.
    pub seed: u64,
    /// Survivors kept per round.
    pub beam_width: usize,
    /// Neighbor rounds after the uniform seed round.
    pub rounds: usize,
    /// Uniform samples in the seed round (the default point and the
    /// [`grid_anchors`] are always evaluated additionally, first).
    pub initial_samples: usize,
    /// Mutations drawn per survivor per round.
    pub neighbors_per_survivor: usize,
    /// Oracle evaluations per neighbor round: the first this many
    /// deduplicated mutations, in beam × draw order.
    pub evals_per_round: usize,
}

impl Default for TuneOptions {
    fn default() -> TuneOptions {
        TuneOptions {
            seed: 0x5eed_1e55_ca11_ab1e,
            beam_width: 3,
            rounds: 3,
            initial_samples: 8,
            neighbors_per_survivor: 6,
            evals_per_round: 8,
        }
    }
}

/// Everything one tuning run needs: the kernel, the pipeline
/// configuration, the device model, and the cooperative budget that lets
/// a supervisor stop the search between rounds.
#[derive(Clone, Debug)]
pub struct TuneRequest {
    /// Kernel under tuning.
    pub kernel: Kernel,
    /// Pipeline configuration the candidates compile under.
    pub config: Config,
    /// Device the oracle simulates.
    pub gpu: GpuModel,
    /// Cooperative budget; checked between rounds (a fresh clone each
    /// time, so the deadline probe is never amortized away).
    pub budget: Budget,
}

/// One oracle-evaluated point.
#[derive(Clone, Debug)]
pub struct Evaluated {
    /// The candidate.
    pub point: CompileOptions,
    /// Its simulated timing.
    pub timing: KernelTiming,
}

/// One line of the candidate log.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalRecord {
    /// Round the candidate was evaluated in (0 = default + seed round).
    pub round: usize,
    /// The candidate's canonical knob key.
    pub key: String,
    /// Simulated time in seconds.
    pub time: f64,
}

/// Shared evaluation context of one tuning search: the request, the live
/// [`CompileSession`] every candidate compiles through, and the estimate
/// memo. One `EvalCtx` exists per [`beam_search`] call; the
/// [`JobRunner`] receives it instead of raw request data so every
/// candidate — however the runner schedules them — reuses the same
/// dependence analysis, Farkas systems and solved base context.
pub struct EvalCtx<'a> {
    req: &'a TuneRequest,
    session: CompileSession,
    memo: Mutex<EstimateMemo>,
}

/// Estimate memo state: one entry per distinct generated AST, compared
/// with `==`, plus the total call count. Hits are derived as
/// `calls - entries.len()` — an order-independent formula, so the
/// reported count is deterministic no matter how a runner interleaves
/// candidates.
struct EstimateMemo {
    entries: Vec<(Ast, KernelTiming)>,
    calls: u64,
}

impl<'a> EvalCtx<'a> {
    /// Opens the context: builds the compile session (dependence analysis
    /// runs here, once) and an empty estimate memo.
    pub fn new(req: &'a TuneRequest) -> EvalCtx<'a> {
        EvalCtx {
            req,
            session: CompileSession::new(&req.kernel),
            memo: Mutex::new(EstimateMemo {
                entries: Vec::new(),
                calls: 0,
            }),
        }
    }

    /// The request this context evaluates against.
    pub fn request(&self) -> &TuneRequest {
        self.req
    }

    /// Compiles one candidate through the shared session.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] like
    /// [`polyject_codegen::compile_with_options`].
    pub fn compile(&self, point: &CompileOptions) -> Result<Compiled, ScheduleError> {
        self.session
            .compile_with(self.req.config, &self.req.budget, point)
    }

    /// Simulates a compiled candidate, memoized on the generated AST:
    /// distinct knob points frequently lower to the identical AST (e.g.
    /// tilings below the extent threshold all degenerate to the untiled
    /// mapping), and the simulator is pure in (AST, kernel, model).
    pub fn estimate(&self, c: &Compiled) -> KernelTiming {
        let mut memo = self.memo.lock().expect("estimate memo lock poisoned");
        memo.calls += 1;
        if let Some((_, t)) = memo.entries.iter().find(|(ast, _)| *ast == c.ast) {
            return t.clone();
        }
        let t = estimate(&c.ast, &self.req.kernel, &self.req.gpu);
        memo.entries.push((c.ast.clone(), t.clone()));
        t
    }

    /// Compiles and simulates one candidate — the oracle call. `None` on
    /// any compile failure.
    pub fn evaluate(&self, point: &CompileOptions) -> Option<Evaluated> {
        let c = self.compile(point).ok()?;
        Some(Evaluated {
            point: point.clone(),
            timing: self.estimate(&c),
        })
    }

    /// Estimate calls answered from the memo so far.
    pub fn estimate_memo_hits(&self) -> u64 {
        let memo = self.memo.lock().expect("estimate memo lock poisoned");
        memo.calls - memo.entries.len() as u64
    }
}

/// Batch evaluation seam. Implementations must return one slot per input
/// point, **in input order**; a slot is `None` when that candidate's
/// compile failed (infeasible, cancelled mid-batch, …) — the search
/// skips it and moves on.
///
/// All evaluation goes through the given [`EvalCtx`]: the shared compile
/// session serializes the polyhedral phase of one kernel's candidates,
/// so runners gain nothing from fanning a single search's batch across
/// threads — parallelism belongs at the whole-search (per-kernel) level.
pub trait JobRunner {
    /// Evaluates `points` through `ctx`, preserving order.
    fn evaluate(&self, ctx: &EvalCtx<'_>, points: &[CompileOptions]) -> Vec<Option<Evaluated>>;
}

/// The in-process runner: evaluates candidates one by one on the calling
/// thread via [`EvalCtx::evaluate`].
pub struct SerialRunner;

impl JobRunner for SerialRunner {
    fn evaluate(&self, ctx: &EvalCtx<'_>, points: &[CompileOptions]) -> Vec<Option<Evaluated>> {
        points.iter().map(|p| ctx.evaluate(p)).collect()
    }
}

/// A fixed tiling × mapping grid over the default influence options
/// (untiled, plus two tile sizes under two thread budgets). The beam
/// search evaluates these as deterministic anchors in its seed round, so
/// its winner is never worse than the best of this grid.
pub fn grid_anchors() -> Vec<CompileOptions> {
    let tilings = [
        None,
        Some(TilingOptions {
            tile_size: 32,
            min_extent: 64,
            max_tiled_loops: 2,
        }),
        Some(TilingOptions {
            tile_size: 64,
            min_extent: 128,
            max_tiled_loops: 2,
        }),
    ];
    let mappings = [
        MappingOptions::default(),
        MappingOptions {
            max_threads: 256,
            ..MappingOptions::default()
        },
    ];
    let mut anchors = Vec::new();
    for tiling in &tilings {
        for mapping in &mappings {
            // Untiled candidates never re-map; normalize like the grid.
            let mapping = if tiling.is_none() {
                MappingOptions::default()
            } else {
                *mapping
            };
            let p = CompileOptions {
                tiling: *tiling,
                mapping,
                ..CompileOptions::default()
            };
            if !anchors.contains(&p) {
                anchors.push(p);
            }
        }
    }
    anchors
}

/// The persisted outcome of one tuning run: the winning point plus the
/// provenance needed to trust and replay it. This is the value the serve
/// layer stores under its `TunedConfig` cache kind.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedConfig {
    /// Winning knob point.
    pub point: CompileOptions,
    /// Seed the search ran under.
    pub seed: u64,
    /// Neighbor rounds the search was configured for.
    pub rounds: usize,
    /// Candidates the oracle evaluated (log length).
    pub evaluated: usize,
    /// Simulated time of the default point, seconds.
    pub default_time: f64,
    /// Simulated time of the winner, seconds (≤ `default_time`; the
    /// default is always in the pool).
    pub tuned_time: f64,
    /// Always 0.0: no cost model ranks candidates; the name is kept for
    /// `benchmark/`.
    pub rank_correlation: f64,
    /// FNV-1a digest of the candidate log ([`log_digest`]) — two runs
    /// replayed identically have equal digests.
    pub log_digest: u64,
}

impl TunedConfig {
    /// A tuned configuration from the values a search produces (or a
    /// persisted payload carries).
    pub fn new(
        point: CompileOptions,
        seed: u64,
        rounds: usize,
        evaluated: usize,
        default_time: f64,
        tuned_time: f64,
        log_digest: u64,
    ) -> TunedConfig {
        TunedConfig {
            point,
            seed,
            rounds,
            evaluated,
            default_time,
            tuned_time,
            rank_correlation: 0.0,
            log_digest,
        }
    }

    /// Tuned-over-default simulated speedup (≥ 1.0 by construction).
    pub fn speedup(&self) -> f64 {
        if self.tuned_time > 0.0 {
            self.default_time / self.tuned_time
        } else {
            1.0
        }
    }

    /// The winner's pipeline options.
    pub fn to_compile_options(&self) -> CompileOptions {
        self.point.clone()
    }
}

/// A finished search: the tuned config plus the full candidate log.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The winner and its provenance.
    pub tuned: TunedConfig,
    /// Every evaluated candidate, in evaluation order.
    pub log: Vec<EvalRecord>,
    /// `false` when the budget stopped the search before all rounds ran
    /// — callers should not persist an incomplete outcome, since a
    /// replay with more budget would differ.
    pub complete: bool,
    /// Oracle estimate calls answered from the per-search AST memo
    /// (distinct knob points lowering to the identical AST).
    pub estimate_memo_hits: u64,
    /// Full dependence analyses performed *after* the default point's
    /// compile, i.e. by candidates 2..N. The compile session pins this to
    /// zero; CI gates on it.
    pub warm_dependence_analyses: u64,
    /// Farkas linearizations performed after the default point's compile
    /// — zero when every candidate reuses the session's systems.
    pub warm_farkas_linearizations: u64,
    /// Schedules served from the session's shared prefix or memo over the
    /// whole search (every successful candidate after the first).
    pub session_reuses: u64,
}

/// Digest of a candidate log: FNV-1a over a canonical rendering with
/// floats as IEEE-754 bit patterns, so equal digests mean bit-equal
/// logs.
pub fn log_digest(records: &[EvalRecord]) -> u64 {
    let mut s = String::new();
    for r in records {
        s.push_str(&format!(
            "{}|{}|{:016x}\n",
            r.round,
            r.key,
            r.time.to_bits()
        ));
    }
    fnv1a64(s.as_bytes())
}

/// Accumulating search state shared by the absorb step. `records[i]`
/// logs `pool[i]`, so it holds that point's canonical key.
struct State {
    pool: Vec<Evaluated>,
    records: Vec<EvalRecord>,
}

impl State {
    /// Orders pool points `i` and `j` fastest first, ties broken by
    /// canonical key — read from the log, not formatted again.
    fn cmp_rank(&self, i: usize, j: usize) -> std::cmp::Ordering {
        let (a, b) = (&self.pool[i].timing.time, &self.pool[j].timing.time);
        a.total_cmp(b)
            .then_with(|| self.records[i].key.cmp(&self.records[j].key))
    }
}

/// Evaluates a batch through the runner and folds the results into the
/// state, preserving batch order.
fn absorb(
    state: &mut State,
    ctx: &EvalCtx<'_>,
    runner: &dyn JobRunner,
    round: usize,
    batch: &[CompileOptions],
) {
    for ev in runner.evaluate(ctx, batch).into_iter().flatten() {
        state.records.push(EvalRecord {
            round,
            key: ev.point.canonical_key(),
            time: ev.timing.time,
        });
        state.pool.push(ev);
    }
}

/// Records `p` in `seen`; `false` when the point was already there.
fn first_sight(seen: &mut Vec<String>, p: &CompileOptions) -> bool {
    let key = p.canonical_key();
    let fresh = !seen.contains(&key);
    if fresh {
        seen.push(key);
    }
    fresh
}

/// Runs the deterministic beam search.
///
/// The default point is compiled first (its failure is the only error —
/// with no valid default there is nothing to tune); the
/// [`grid_anchors`] and a uniform seed round follow, then `opts.rounds`
/// neighbor rounds where survivors spawn mutations in beam order and the
/// first `evals_per_round` unseen ones reach the oracle. The budget is
/// probed between rounds; tripping it ends the search early with
/// [`TuneOutcome::complete`] `false`.
///
/// # Errors
///
/// Propagates [`ScheduleError`] from the default point's compile
/// (infeasibility or cancellation before the search started).
pub fn beam_search(
    req: &TuneRequest,
    opts: &TuneOptions,
    runner: &dyn JobRunner,
) -> Result<TuneOutcome, ScheduleError> {
    // One compile session for the whole search: dependence analysis and
    // the scheduling prefix are paid for by the default point's compile
    // below, and candidates 2..N run only the option-dependent suffix.
    // The counter snapshots bracketing that first compile feed the
    // outcome's warm-work fields — measured on this thread, so they are
    // deterministic however callers fan whole searches out.
    let search_start = polyject_sets::counters::snapshot();
    let ctx = EvalCtx::new(req);
    let default_point = CompileOptions::default();
    let compiled = ctx.compile(&default_point)?;
    let default_timing = ctx.estimate(&compiled);
    let after_default = polyject_sets::counters::snapshot();
    let default_time = default_timing.time;

    let mut state = State {
        pool: vec![Evaluated {
            point: default_point.clone(),
            timing: default_timing,
        }],
        records: vec![EvalRecord {
            round: 0,
            key: default_point.canonical_key(),
            time: default_time,
        }],
    };
    let mut seen: Vec<String> = vec![default_point.canonical_key()];
    let mut rng = SplitMix64::new(opts.seed);
    let mut complete = true;

    // Seed round: the grid anchors first (deterministic, no RNG draw),
    // then uniform samples, all deduped.
    let mut batch = grid_anchors();
    batch.retain(|p| first_sight(&mut seen, p));
    let mut tries = 0;
    let mut sampled = 0;
    while sampled < opts.initial_samples && tries < opts.initial_samples * 16 {
        tries += 1;
        let p = sample(&mut rng);
        if first_sight(&mut seen, &p) {
            batch.push(p);
            sampled += 1;
        }
    }
    absorb(&mut state, &ctx, runner, 0, &batch);

    for round in 1..=opts.rounds {
        // A fresh clone re-arms the amortized deadline probe, so the
        // first check always looks at the clock (and the cancel flag).
        if req.budget.clone().check().is_err() {
            complete = false;
            break;
        }

        // Beam: the `beam_width` fastest points, key-tie-broken.
        let mut order: Vec<usize> = (0..state.pool.len()).collect();
        order.sort_by(|&i, &j| state.cmp_rank(i, j));
        let beam = order.iter().take(opts.beam_width);

        // Neighbors: fresh mutations of each survivor, in beam × draw
        // order. Candidates past the per-round evaluation cap are
        // dropped and their keys stay in `seen`: they don't come back.
        let mut cands: Vec<CompileOptions> = Vec::new();
        for &survivor in beam {
            for _ in 0..opts.neighbors_per_survivor {
                let p = mutate(&state.pool[survivor].point, &mut rng);
                if first_sight(&mut seen, &p) {
                    cands.push(p);
                }
            }
        }
        cands.truncate(opts.evals_per_round);
        absorb(&mut state, &ctx, runner, round, &cands);
    }
    if req.budget.clone().check().is_err() {
        complete = false;
    }

    let best = (0..state.pool.len())
        .min_by(|&i, &j| state.cmp_rank(i, j))
        .map(|i| &state.pool[i])
        .expect("pool contains at least the default point");
    let tuned = TunedConfig::new(
        best.point.clone(),
        opts.seed,
        opts.rounds,
        state.records.len(),
        default_time,
        best.timing.time,
        log_digest(&state.records),
    );
    let end = polyject_sets::counters::snapshot();
    let warm = end.delta_since(&after_default);
    Ok(TuneOutcome {
        tuned,
        log: state.records,
        complete,
        estimate_memo_hits: ctx.estimate_memo_hits(),
        warm_dependence_analyses: warm.dependence_analyses,
        warm_farkas_linearizations: warm.farkas_linearizations,
        session_reuses: end.delta_since(&search_start).session_reuses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ops;

    fn request(kernel: Kernel) -> TuneRequest {
        TuneRequest {
            kernel,
            config: Config::Influenced,
            gpu: GpuModel::v100(),
            budget: Budget::unlimited(),
        }
    }

    #[test]
    fn tuned_is_never_worse_than_default() {
        let req = request(ops::transpose_2d(256, 256));
        let opts = TuneOptions {
            rounds: 2,
            initial_samples: 4,
            evals_per_round: 4,
            ..TuneOptions::default()
        };
        let out = beam_search(&req, &opts, &SerialRunner).unwrap();
        assert!(out.complete);
        assert!(out.tuned.tuned_time <= out.tuned.default_time);
        assert!(out.tuned.speedup() >= 1.0);
        assert_eq!(out.tuned.evaluated, out.log.len());
        assert_eq!(out.tuned.log_digest, log_digest(&out.log));
    }

    #[test]
    fn neighbor_round_keeps_the_first_unseen_mutations_in_generation_order() {
        // Replays the search's RNG stream by hand: round 1 must log
        // exactly the first `evals_per_round` unseen mutations, beam
        // survivor by survivor and draw by draw — no re-ranking.
        let req = request(ops::transpose_2d(512, 512));
        let opts = TuneOptions {
            rounds: 1,
            evals_per_round: 5,
            ..TuneOptions::default()
        };
        let out = beam_search(&req, &opts, &SerialRunner).unwrap();

        // Seed round: the default point, the anchors, uniform samples.
        let mut rng = SplitMix64::new(opts.seed);
        let mut pool = vec![CompileOptions::default()];
        pool.extend(grid_anchors());
        pool.dedup(); // the untiled anchor is the default point
        let seeded = pool.len() + opts.initial_samples;
        while pool.len() < seeded {
            let p = sample(&mut rng);
            if !pool.contains(&p) {
                pool.push(p);
            }
        }
        let mut seen: Vec<String> = pool.iter().map(CompileOptions::canonical_key).collect();
        let round0: Vec<&EvalRecord> = out.log.iter().filter(|r| r.round == 0).collect();
        let logged: Vec<&str> = round0.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(logged, seen, "every seed candidate compiled, in order");

        // Beam: the fastest seed points, key-tie-broken.
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&i, &j| {
            (round0[i].time.total_cmp(&round0[j].time)).then_with(|| seen[i].cmp(&seen[j]))
        });
        let mut expected = Vec::new();
        for &i in order.iter().take(opts.beam_width) {
            for _ in 0..opts.neighbors_per_survivor {
                let key = mutate(&pool[i], &mut rng).canonical_key();
                if !seen.contains(&key) {
                    seen.push(key.clone());
                    expected.push(key);
                }
            }
        }
        assert!(expected.len() > opts.evals_per_round, "the cap must bite");
        expected.truncate(opts.evals_per_round);
        let round1: Vec<&str> = (out.log.iter().filter(|r| r.round == 1))
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(round1, expected);
    }

    #[test]
    fn log_has_no_duplicate_candidates() {
        let req = request(ops::bias_add_relu(128, 128));
        let out = beam_search(&req, &TuneOptions::default(), &SerialRunner).unwrap();
        for (i, a) in out.log.iter().enumerate() {
            for b in &out.log[i + 1..] {
                assert_ne!(a.key, b.key, "candidate evaluated twice");
            }
        }
    }

    #[test]
    fn expired_deadline_stops_early_and_marks_incomplete() {
        let mut req = request(ops::transpose_2d(64, 64));
        req.budget = Budget::unlimited().with_deadline_in(std::time::Duration::ZERO);
        let out = beam_search(&req, &TuneOptions::default(), &SerialRunner).unwrap();
        assert!(!out.complete);
    }

    #[test]
    fn pre_cancelled_budget_errors() {
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let mut req = request(ops::transpose_2d(64, 64));
        req.budget = Budget::unlimited().with_cancel(flag);
        assert!(beam_search(&req, &TuneOptions::default(), &SerialRunner).is_err());
    }
}
