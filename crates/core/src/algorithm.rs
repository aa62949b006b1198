//! Algorithm 1: influenced scheduling construction.
//!
//! A Pluto-style iterative scheduler (one ILP per dimension, outermost to
//! innermost) extended with influence-constraint-tree injection and the
//! paper's multi-level backtracking ladder:
//!
//! 1. influence asks for extra dimensions on an empty dependence set →
//!    drop progression constraints;
//! 2. try the node's right sibling (lower-priority alternative);
//! 3. discard dependences already strongly satisfied (give up the
//!    permutable band);
//! 4. backtrack to the closest right sibling of an ancestor, withdrawing
//!    the schedule dimensions built below it;
//! 5. separate strongly connected components with a scalar dimension;
//! 6. ultimately, re-run without any influence constraint.

use crate::builders::progression_constraints;
use crate::checks::{dim_is_coincident, is_strongly_satisfied};
use crate::schedule::{DimFlags, Schedule, ScheduleRow};
use crate::session::SchedulePrefix;
use crate::tree::{InfluenceTree, NodeId};
use polyject_deps::{DepGraph, DepRelation, Dependences};
use polyject_ir::{Kernel, StmtId};
use polyject_sets::{Budget, BudgetError, ConstraintSet, IlpOutcome, SchedCtx};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

/// Maximum number of schedule dimensions to construct.
pub const MAX_DIMS: usize = 12;
/// Safety cap on solver attempts (ILP solves + backtracks).
pub const MAX_ATTEMPTS: usize = 512;

/// The scheduler has no setting: the coefficient bounds
/// ([`MAX_COEFF`](crate::MAX_COEFF), [`MAX_CONST`](crate::MAX_CONST),
/// [`MAX_BOUND`](crate::MAX_BOUND)) and the caps above are constants.
/// This field-less type stays in the signatures of [`schedule_kernel`]
/// and [`ScheduleSession::new`](crate::ScheduleSession::new) only until
/// `benchmark/` stops passing it, like [`ScheduleStats::feautrier_dims`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerOptions {}

/// Why schedule construction failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleErrorKind {
    /// No valid schedule was found within the attempt limits.
    Infeasible,
    /// A deadline, node or pivot cap ran out, even after degradation.
    Exhausted,
    /// The shared cancel flag tripped; the caller abandoned the compile.
    Cancelled,
}

/// Failure of schedule construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleError {
    kind: ScheduleErrorKind,
    msg: String,
}

impl ScheduleError {
    fn infeasible(msg: impl Into<String>) -> ScheduleError {
        ScheduleError {
            kind: ScheduleErrorKind::Infeasible,
            msg: msg.into(),
        }
    }

    pub(crate) fn from_budget(e: BudgetError) -> ScheduleError {
        let kind = match e {
            BudgetError::Cancelled => ScheduleErrorKind::Cancelled,
            BudgetError::Exhausted(_) => ScheduleErrorKind::Exhausted,
        };
        ScheduleError {
            kind,
            msg: e.to_string(),
        }
    }

    /// Why scheduling failed.
    pub fn kind(&self) -> ScheduleErrorKind {
        self.kind
    }

    /// Whether the failure was a cooperative cancellation (the caller
    /// abandoned the compile; no fallback was attempted).
    pub fn is_cancelled(&self) -> bool {
        self.kind == ScheduleErrorKind::Cancelled
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scheduling failed: {}", self.msg)
    }
}

impl std::error::Error for ScheduleError {}

/// Counters reported with a schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Number of per-dimension ILP solves attempted.
    pub ilp_solves: usize,
    /// Sibling/ancestor moves in the influence tree.
    pub tree_backtracks: usize,
    /// Scalar dimensions inserted by SCC separation.
    pub scc_separations: usize,
    /// Always 0: nothing ticks it; the name is kept for `benchmark/`.
    pub feautrier_dims: usize,
    /// Per-dimension constraint systems served from the assemble cache
    /// instead of being rebuilt (ladder retries at an unchanged schedule).
    pub assemble_cache_hits: usize,
    /// Solves that exhausted their budget and were degraded through the
    /// backtracking ladder (influence dropped, retried relaxed) instead of
    /// failing the compile.
    pub degraded_solves: u64,
}

impl ScheduleStats {
    /// Folds a solver-counter delta (captured around schedule
    /// construction) into these stats.
    pub(crate) fn absorb_solver_delta(&mut self, d: &polyject_sets::SolverCounters) {
        self.degraded_solves += d.degraded_solves;
    }

    /// Merges another run's stats into these (used when the uninfluenced
    /// fallback re-runs the driver).
    fn merge(&mut self, other: &ScheduleStats) {
        self.ilp_solves += other.ilp_solves;
        self.tree_backtracks += other.tree_backtracks;
        self.scc_separations += other.scc_separations;
        self.assemble_cache_hits += other.assemble_cache_hits;
        self.degraded_solves += other.degraded_solves;
    }
}

/// A constructed schedule plus provenance information.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// The schedule.
    pub schedule: Schedule,
    /// Whether any influence constraint actually shaped the construction
    /// (false when the tree was empty or entirely infeasible).
    pub influenced: bool,
    /// Solver counters.
    pub stats: ScheduleStats,
}

/// Constructs a schedule for `kernel` under its dependences, guided by an
/// influence constraint tree (pass an empty tree for plain isl/Pluto-style
/// scheduling — this is the paper's `isl` baseline configuration).
///
/// # Errors
///
/// Returns [`ScheduleError`] if no valid schedule is found within the
/// attempt budget even after discarding all influence.
pub fn schedule_kernel(
    kernel: &Kernel,
    deps: &Dependences,
    tree: &InfluenceTree,
    _: SchedulerOptions,
) -> Result<ScheduleResult, ScheduleError> {
    schedule_kernel_budgeted(kernel, deps, tree, &Budget::unlimited())
}

/// [`schedule_kernel`] under a cooperative [`Budget`].
///
/// Budget exhaustion takes the same backtracking ladder as infeasibility:
/// a solve that runs out of nodes, pivots, rows or wall-clock at an
/// injection level is treated as an infeasible level — influence
/// constraints are dropped and the step retried relaxed — and the
/// ultimate fallback re-runs without any influence under a cancel-only
/// budget, so a pathological kernel with a tight deadline still returns a
/// degraded-but-valid schedule. Each degraded solve is counted in
/// [`ScheduleStats::degraded_solves`]. Cancellation is different: it
/// propagates immediately as an error with no fallback (the caller has
/// abandoned the compile).
pub(crate) fn schedule_kernel_budgeted(
    kernel: &Kernel,
    deps: &Dependences,
    tree: &InfluenceTree,
    budget: &Budget,
) -> Result<ScheduleResult, ScheduleError> {
    schedule_over(kernel, deps, tree, budget, || {
        SchedulePrefix::build(kernel, deps, budget)
    })
}

/// Algorithm 1 over the option-invariant prefix (layout, linearized
/// systems, solved base context) that `prefix` yields: built for this
/// call by [`schedule_kernel_budgeted`], shared by a live
/// [`crate::ScheduleSession`] otherwise. Every route runs this one
/// function, which counts a cancellation once, whether it hit the
/// prefix build or the solve.
pub(crate) fn schedule_over<P: Borrow<SchedulePrefix>>(
    kernel: &Kernel,
    deps: &Dependences,
    tree: &InfluenceTree,
    budget: &Budget,
    prefix: impl FnOnce() -> Result<P, ScheduleError>,
) -> Result<ScheduleResult, ScheduleError> {
    let before = polyject_sets::counters::snapshot();
    let result = prefix().and_then(|p| solve(kernel, deps, tree, budget, p.borrow(), &before));
    if result.as_ref().is_err_and(ScheduleError::is_cancelled) {
        polyject_sets::counters::note_cancelled_solve(1);
    }
    result
}

fn solve(
    kernel: &Kernel,
    deps: &Dependences,
    tree: &InfluenceTree,
    budget: &Budget,
    prefix: &SchedulePrefix,
    before: &polyject_sets::SolverCounters,
) -> Result<ScheduleResult, ScheduleError> {
    let mut driver = Driver::new(kernel, deps, tree, budget, prefix);
    let (schedule, influenced, mut stats) = match driver.run() {
        Ok(schedule) => (schedule, driver.influenced, driver.stats),
        Err(e) if tree.is_empty() || e.is_cancelled() => return Err(e),
        Err(e) => {
            // Ultimate fallback: no influence at all. Runs under a
            // cancel-only budget — the degraded path is the last resort,
            // so it may overshoot an exhausted deadline to guarantee a
            // valid schedule, but stays cancellable. The prefix is
            // tree-independent, so the plain driver reuses it.
            if e.kind() == ScheduleErrorKind::Exhausted {
                polyject_sets::counters::note_degraded_solve(1);
            }
            let relaxed = budget.cancel_only();
            let empty = InfluenceTree::new();
            let mut plain = Driver::new(kernel, deps, &empty, &relaxed, prefix);
            let schedule = plain.run()?;
            let mut stats = driver.stats;
            stats.merge(&plain.stats);
            (schedule, false, stats)
        }
    };
    stats.absorb_solver_delta(&polyject_sets::counters::snapshot().delta_since(before));
    Ok(ScheduleResult {
        schedule,
        influenced,
        stats,
    })
}

struct Driver<'a> {
    kernel: &'a Kernel,
    tree: &'a InfluenceTree,
    budget: &'a Budget,
    validity: Vec<&'a DepRelation>,
    /// The option-invariant prefix: layout, linearized per-relation
    /// systems, static bounds, objectives, and the solved dimension-0
    /// base context.
    prefix: &'a SchedulePrefix,
    influenced: bool,
    stats: ScheduleStats,
    /// Bumped whenever the schedule prefix changes (dimension appended,
    /// rows truncated by backtracking, SCC separation). Keys both caches
    /// below; retries of the failure ladder at an unchanged schedule are
    /// the common case and hit them.
    sched_version: u64,
    /// Progression constraints for the current schedule version.
    prog_cache: Option<(u64, ConstraintSet)>,
    /// Key of the system currently held by `ctx`: (schedule version,
    /// use_progression, remaining dependence set). The assembled rows
    /// themselves live inside the context.
    base_cache: Option<(u64, bool, BTreeSet<usize>)>,
    /// Persistent solving context over the assembled base system: the
    /// shared constraint prefix is phase-1-solved once per key above;
    /// ladder retries push only the node's delta rows against it and the
    /// lexmin chain re-optimizes the same tableau per objective.
    ctx: Option<SchedCtx>,
}

impl<'a> Driver<'a> {
    fn new(
        kernel: &'a Kernel,
        deps: &'a Dependences,
        tree: &'a InfluenceTree,
        budget: &'a Budget,
        prefix: &'a SchedulePrefix,
    ) -> Driver<'a> {
        Driver {
            kernel,
            tree,
            budget,
            validity: deps.validity().collect(),
            prefix,
            influenced: false,
            stats: ScheduleStats::default(),
            sched_version: 0,
            prog_cache: None,
            base_cache: None,
            ctx: None,
        }
    }

    fn all_full_rank(&self, schedule: &Schedule) -> bool {
        self.kernel
            .statements()
            .iter()
            .enumerate()
            .all(|(i, s)| schedule.stmt(StmtId(i)).iter_rank() >= s.n_iters())
    }

    fn run(&mut self) -> Result<Schedule, ScheduleError> {
        let mut schedule = Schedule::empty(self.kernel);
        let mut remaining: BTreeSet<usize> = (0..self.validity.len()).collect();
        let mut backup: Vec<BTreeSet<usize>> = Vec::new();
        let mut node: Option<NodeId> = self.tree.first_root();
        let mut d = 0usize;
        let mut attempts = 0usize;
        // The dependence set active while the *previous* dimension was
        // built, for permutable-band detection.
        let mut prev_dim_deps: Option<BTreeSet<usize>> = None;
        // Snapshot of the deepest failure seen since the last successful
        // dimension: when every influence alternative is exhausted and SCC
        // separation becomes the only way out, separating at the deepest
        // reached depth (re-using the rows built on the way there)
        // preserves the outer fused loops instead of distributing the
        // whole kernel at dimension 0.
        let mut deep_mark: Option<(usize, Schedule, BTreeSet<usize>, Option<NodeId>)> = None;

        loop {
            // Dimension construction ends when every statement's iterator
            // space is spanned and no influence node demands further
            // dimensions. Dependences still in `remaining` are weakly
            // satisfied at every dimension (pointwise validity was
            // enforced throughout); the trailing scalar dimension below
            // finishes them off.
            if node.is_none() && self.all_full_rank(&schedule) {
                break;
            }
            if d >= MAX_DIMS {
                return Err(ScheduleError::infeasible(format!(
                    "dimension budget exhausted at depth {d}"
                )));
            }
            if backup.len() <= d {
                backup.resize(d + 1, BTreeSet::new());
            }
            backup[d] = remaining.clone();
            let mut use_progression = true;

            'retry: loop {
                attempts += 1;
                if attempts > MAX_ATTEMPTS {
                    return Err(ScheduleError::infeasible("attempt budget exhausted"));
                }
                self.assemble_base(&schedule, &remaining, use_progression)?;
                self.stats.ilp_solves += 1;
                let t_solve = std::time::Instant::now();
                let (tree, prefix) = (self.tree, self.prefix);
                let ctx = self.ctx.as_mut().expect("assemble_base built the context");
                // Delta rows on top of the prepared base: only the
                // node's own constraints; popped right after the solve
                // so ladder retries reuse the same solved prefix.
                let mark = ctx.mark();
                if let Some(n) = node {
                    ctx.push_set(&tree.node(n).constraints);
                }
                let solved = ctx.try_lexmin(&prefix.objectives, self.budget);
                ctx.pop(mark);
                polyject_sets::counters::add_solve_ns(t_solve.elapsed().as_nanos() as u64);
                let outcome = match solved {
                    Ok(o) => o,
                    Err(e @ BudgetError::Cancelled) => return Err(ScheduleError::from_budget(e)),
                    Err(BudgetError::Exhausted(_)) => {
                        // Budget exhaustion takes the same ladder as
                        // infeasibility: drop influence, retry relaxed.
                        polyject_sets::counters::note_degraded_solve(1);
                        IlpOutcome::Infeasible
                    }
                };
                if let IlpOutcome::Optimal { point, .. } = outcome {
                    deep_mark = None;
                    self.append_dimension(&mut schedule, &point, node, &remaining, d);
                    self.sched_version += 1;
                    let band = prev_dim_deps.as_ref() == Some(&remaining);
                    if band {
                        let fl = schedule.flags_mut();
                        let last = fl.len() - 1;
                        fl[last].permutable = true;
                    }
                    prev_dim_deps = Some(remaining.clone());
                    if let Some(n) = node {
                        if !self.tree.node(n).constraints.is_empty() {
                            self.influenced = true;
                        }
                    }
                    node = node.and_then(|n| self.tree.first_child(n));
                    d += 1;
                    break 'retry;
                }

                // ---- failure ladder ----
                if deep_mark.as_ref().is_none_or(|(md, ..)| d > *md) {
                    deep_mark = Some((d, schedule.clone(), remaining.clone(), node));
                }
                // (1) influence wants a dimension past full progression:
                // only once every statement is fully ranked may the
                // progression constraints be dropped.
                if remaining.is_empty()
                    && use_progression
                    && node.is_some()
                    && self.all_full_rank(&schedule)
                {
                    use_progression = false;
                    continue 'retry;
                }
                // (2) lower-priority sibling at the same depth.
                if let Some(n) = node {
                    if let Some(sib) = self.tree.right_sibling(n) {
                        node = Some(sib);
                        remaining = backup[d].clone();
                        self.stats.tree_backtracks += 1;
                        continue 'retry;
                    }
                }
                // (3) discard strongly satisfied dependences (give up the
                // permutable band).
                let satisfied: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&i| is_strongly_satisfied(self.validity[i], &schedule))
                    .collect();
                if !satisfied.is_empty() {
                    for i in satisfied {
                        remaining.remove(&i);
                    }
                    prev_dim_deps = None; // the band is broken
                    continue 'retry;
                }
                // (4) backtrack to an ancestor's right sibling.
                if let Some(n) = node {
                    if let Some(anc) = self.tree.ancestor_right_sibling(n) {
                        let nd = self.tree.depth(anc);
                        node = Some(anc);
                        d = nd;
                        remaining = backup[nd].clone();
                        for i in 0..self.kernel.statements().len() {
                            schedule.stmt_mut(StmtId(i)).truncate(nd);
                        }
                        schedule.flags_mut().truncate(nd);
                        self.sched_version += 1;
                        self.stats.tree_backtracks += 1;
                        prev_dim_deps = None;
                        continue 'retry;
                    }
                }
                // (5) separate strongly connected components. If a deeper
                // point was reached on some alternative, restore it and
                // separate there (keeping the fused outer dimensions);
                // afterwards the pending influence node is retried at the
                // next dimension.
                if let Some((md, msched, mrem, mnode)) = deep_mark.take() {
                    if md > d {
                        schedule = msched;
                        self.sched_version += 1;
                        remaining = mrem;
                        node = mnode;
                        d = md;
                        if backup.len() <= d {
                            backup.resize(d + 1, BTreeSet::new());
                        }
                        backup[d] = remaining.clone();
                    }
                }
                if self.separate_sccs(&mut schedule, &mut remaining)? {
                    prev_dim_deps = None;
                    d += 1;
                    break 'retry;
                }
                return Err(ScheduleError::infeasible(format!(
                    "no solution at dimension {d} with {} dependences left",
                    remaining.len()
                )));
            }
        }

        // A final scalar dimension orders statements whose dates may tie
        // (e.g. a perfectly fused producer/consumer pair).
        let needs_order = self
            .validity
            .iter()
            .any(|r| !is_strongly_satisfied(r, &schedule));
        if needs_order {
            for (i, s) in self.kernel.statements().iter().enumerate() {
                schedule.stmt_mut(StmtId(i)).push(ScheduleRow::scalar(
                    s.n_iters(),
                    self.kernel.n_params(),
                    i as i128,
                ));
            }
            schedule.flags_mut().push(DimFlags {
                scalar: true,
                ..DimFlags::default()
            });
        }
        Ok(schedule)
    }

    /// Progression constraints for the current schedule, cached per
    /// schedule version (rebuilding them dominates ladder retries that
    /// leave the schedule untouched).
    fn progression(&mut self, schedule: &Schedule) -> &ConstraintSet {
        if self.prog_cache.as_ref().map(|(v, _)| *v) != Some(self.sched_version) {
            let all: Vec<StmtId> = (0..self.kernel.statements().len()).map(StmtId).collect();
            let cs = progression_constraints(self.kernel, schedule, &self.prefix.layout, &all);
            self.prog_cache = Some((self.sched_version, cs));
        }
        &self.prog_cache.as_ref().expect("just filled").1
    }

    /// Ensures the persistent context holds the base system for the given
    /// key (schedule version, progression flag, remaining dependences),
    /// assembling and phase-1-preparing it only when the key changed.
    /// Ladder retries at an unchanged schedule are the common case and
    /// reuse the solved prefix untouched.
    fn assemble_base(
        &mut self,
        schedule: &Schedule,
        remaining: &BTreeSet<usize>,
        use_progression: bool,
    ) -> Result<(), ScheduleError> {
        let t0 = std::time::Instant::now();
        let hit = self.base_cache.as_ref().is_some_and(|(v, p, rem)| {
            *v == self.sched_version && *p == use_progression && rem == remaining
        });
        if hit {
            self.stats.assemble_cache_hits += 1;
            polyject_sets::counters::add_assemble_ns(t0.elapsed().as_nanos() as u64);
            return Ok(());
        }
        // The prefix already holds this exact system solved: the
        // dimension-0 base over the full dependence set. A clone of the
        // pristine context replaces assembly + phase 1 outright.
        if self.sched_version == 0 && use_progression && *remaining == self.prefix.full_set {
            self.base_cache = Some((0, true, remaining.clone()));
            polyject_sets::counters::add_assemble_ns(t0.elapsed().as_nanos() as u64);
            let t1 = std::time::Instant::now();
            self.ctx = Some(self.prefix.base_ctx.clone());
            polyject_sets::counters::add_solve_ns(t1.elapsed().as_nanos() as u64);
            return Ok(());
        }
        // The full per-dimension base system: coefficient bounds,
        // (optionally) progression, and the validity + bounding systems
        // of every remaining dependence.
        let mut sys = self.prefix.bounds_cs.clone();
        if use_progression {
            self.progression(schedule);
            sys.intersect(&self.prog_cache.as_ref().expect("progression cached").1);
        }
        for &i in remaining {
            sys.intersect(&self.prefix.val_cache[i]);
            sys.intersect(&self.prefix.bound_cache[i]);
        }
        self.base_cache = Some((self.sched_version, use_progression, remaining.clone()));
        polyject_sets::counters::add_assemble_ns(t0.elapsed().as_nanos() as u64);
        // Preparing the context (the base's phase 1) is solver work, not
        // assembly; an exhausted build degrades to cold delegation inside
        // the context, only cancellation propagates.
        let t1 = std::time::Instant::now();
        let ctx = SchedCtx::build(sys, self.budget).map_err(ScheduleError::from_budget);
        polyject_sets::counters::add_solve_ns(t1.elapsed().as_nanos() as u64);
        self.ctx = Some(ctx?);
        Ok(())
    }

    fn append_dimension(
        &self,
        schedule: &mut Schedule,
        point: &[i128],
        node: Option<NodeId>,
        remaining: &BTreeSet<usize>,
        d: usize,
    ) {
        let n_params = self.kernel.n_params();
        let mut all_scalar = true;
        for (i, s) in self.kernel.statements().iter().enumerate() {
            let sid = StmtId(i);
            let row = ScheduleRow {
                iter_coeffs: (0..s.n_iters())
                    .map(|it| point[self.prefix.layout.iter_coeff(sid, it)])
                    .collect(),
                param_coeffs: (0..n_params)
                    .map(|p| point[self.prefix.layout.param_coeff(sid, p)])
                    .collect(),
                constant: point[self.prefix.layout.const_coeff(sid)],
            };
            if !row.is_constant_row() {
                all_scalar = false;
            }
            schedule.stmt_mut(sid).push(row);
        }
        let parallel = dim_is_coincident(remaining.iter().map(|&i| self.validity[i]), schedule, d);
        let mut flags = DimFlags {
            parallel,
            scalar: all_scalar,
            ..DimFlags::default()
        };
        if let Some(n) = node {
            for &s in &self.tree.node(n).vector_stmts {
                schedule.set_vector_dim(s, d);
                flags.vector = true;
            }
        }
        schedule.flags_mut().push(flags);
    }

    /// Paper lines 32–35: orders two or more SCCs of the remaining
    /// dependence graph with a scalar dimension. Returns `Ok(false)` if the
    /// graph is a single component (separation impossible).
    fn separate_sccs(
        &mut self,
        schedule: &mut Schedule,
        remaining: &mut BTreeSet<usize>,
    ) -> Result<bool, ScheduleError> {
        let graph = DepGraph::from_relations(
            self.kernel.statements().len(),
            remaining.iter().map(|&i| self.validity[i]),
        );
        let sccs = graph.sccs();
        if sccs.len() < 2 {
            return Ok(false);
        }
        let mut component = vec![0usize; self.kernel.statements().len()];
        for (ci, comp) in sccs.iter().enumerate() {
            for s in comp {
                component[s.0] = ci;
            }
        }
        for (i, s) in self.kernel.statements().iter().enumerate() {
            schedule.stmt_mut(StmtId(i)).push(ScheduleRow::scalar(
                s.n_iters(),
                self.kernel.n_params(),
                component[i] as i128,
            ));
        }
        schedule.flags_mut().push(DimFlags {
            scalar: true,
            ..DimFlags::default()
        });
        self.sched_version += 1;
        self.stats.scc_separations += 1;
        let before = remaining.len();
        remaining.retain(|&i| !is_strongly_satisfied(self.validity[i], schedule));
        if remaining.len() == before && before > 0 {
            // Separation made no progress; avoid spinning forever.
            return Err(ScheduleError::infeasible("SCC separation made no progress"));
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::schedule_respects;
    use crate::layout::CoeffLayout;
    use polyject_deps::{compute_dependences, DepOptions};
    use polyject_ir::ops;

    fn plain_schedule(kernel: &Kernel) -> ScheduleResult {
        let deps = compute_dependences(kernel, DepOptions::default());
        schedule_kernel(
            kernel,
            &deps,
            &InfluenceTree::new(),
            SchedulerOptions::default(),
        )
        .expect("schedulable")
    }

    #[test]
    fn running_example_plain_is_valid() {
        let kernel = ops::running_example(16);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let res = plain_schedule(&kernel);
        let v: Vec<_> = deps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &res.schedule));
        assert!(!res.influenced);
        // Every statement fully scheduled.
        for (i, s) in kernel.statements().iter().enumerate() {
            assert_eq!(res.schedule.stmt(StmtId(i)).iter_rank(), s.n_iters());
        }
    }

    #[test]
    fn running_example_outer_dim_is_parallel() {
        let kernel = ops::running_example(16);
        let res = plain_schedule(&kernel);
        assert!(
            res.schedule.flags()[0].parallel,
            "the fused outer i loop is coincident: {:?}",
            res.schedule.flags()
        );
    }

    #[test]
    fn single_statement_transpose() {
        let kernel = ops::transpose_2d(32, 64);
        let res = plain_schedule(&kernel);
        let s = res.schedule.stmt(StmtId(0));
        assert_eq!(s.iter_rank(), 2);
        // No dependences at all: every dim parallel.
        assert!(res.schedule.flags().iter().all(|f| f.parallel || f.scalar));
    }

    #[test]
    fn reduction_keeps_sequential_dim() {
        let kernel = ops::reduce_rows(16, 16);
        let kdeps = compute_dependences(&kernel, DepOptions::default());
        let res = plain_schedule(&kernel);
        let v: Vec<_> = kdeps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &res.schedule));
        // The reduction carries a dependence along j: not every dimension
        // can be parallel.
        let loop_dims: Vec<_> = res.schedule.flags().iter().filter(|f| !f.scalar).collect();
        assert!(loop_dims.iter().any(|f| !f.parallel));
        assert!(loop_dims.iter().any(|f| f.parallel));
    }

    #[test]
    fn elementwise_chain_schedules_and_orders() {
        let kernel = ops::elementwise_chain(64, 4);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let res = plain_schedule(&kernel);
        let v: Vec<_> = deps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &res.schedule));
    }

    #[test]
    fn infeasible_influence_falls_back() {
        // An influence branch demanding an impossible row (iterator
        // coefficient both 0 and 1) must be abandoned; scheduling still
        // succeeds uninfluenced.
        let kernel = ops::transpose_2d(8, 8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let layout = CoeffLayout::new(&kernel);
        let n = layout.n_vars();
        let mut impossible = ConstraintSet::universe(n);
        let v = layout.iter_coeff(StmtId(0), 0);
        impossible.add(polyject_sets::Constraint::eq0(polyject_sets::LinExpr::var(
            n, v,
        )));
        let mut e = polyject_sets::LinExpr::var(n, v);
        e.set_constant(-1i128);
        impossible.add(polyject_sets::Constraint::eq0(e));
        let mut tree = InfluenceTree::new();
        tree.add_root(impossible, "impossible");
        let res = schedule_kernel(&kernel, &deps, &tree, SchedulerOptions::default()).unwrap();
        assert!(!res.influenced);
        assert_eq!(res.schedule.stmt(StmtId(0)).iter_rank(), 2);
    }

    #[test]
    fn influence_pins_inner_dimension() {
        // Force the transpose's dim-1 row to iterator 0 ("i"), the
        // opposite of the plain choice; check it is honored.
        let kernel = ops::transpose_2d(8, 8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let layout = CoeffLayout::new(&kernel);
        let n = layout.n_vars();
        let mut tree = InfluenceTree::new();
        let vi = layout.iter_coeff(StmtId(0), 0);
        let vj = layout.iter_coeff(StmtId(0), 1);
        // Depth 0 keeps "i" for the inner dimension (as the optimizer's
        // scenario translation does), depth 1 pins the row to "i".
        let mut keep = ConstraintSet::universe(n);
        keep.add(polyject_sets::Constraint::eq0(polyject_sets::LinExpr::var(
            n, vi,
        )));
        let root = tree.add_root(keep, "reserve i");
        let mut pin = ConstraintSet::universe(n);
        let mut e = polyject_sets::LinExpr::var(n, vi);
        e.set_constant(-1i128);
        pin.add(polyject_sets::Constraint::eq0(e)); // c_i == 1
        pin.add(polyject_sets::Constraint::eq0(polyject_sets::LinExpr::var(
            n, vj,
        ))); // c_j == 0
        let child = tree.add_child(root, pin, "inner = i");
        tree.mark_vector(child, StmtId(0));
        let res = schedule_kernel(&kernel, &deps, &tree, SchedulerOptions::default()).unwrap();
        assert!(res.influenced);
        let rows = res.schedule.stmt(StmtId(0)).rows();
        assert_eq!(rows[1].iter_coeffs, vec![1, 0], "dim 1 pinned to i");
        assert_eq!(
            rows[0].iter_coeffs,
            vec![0, 1],
            "dim 0 takes the other iterator"
        );
        assert_eq!(res.schedule.vector_dim(StmtId(0)), Some(1));
        assert!(res.schedule.flags()[1].vector);
    }

    #[test]
    fn stats_are_populated() {
        let kernel = ops::running_example(8);
        let before = polyject_sets::counters::snapshot();
        let res = plain_schedule(&kernel);
        let d = polyject_sets::counters::snapshot().delta_since(&before);
        assert!(res.stats.ilp_solves >= 1);
        // Building a schedule takes LP solves, branch-and-bound nodes and
        // (for the Farkas systems) Fourier–Motzkin eliminations.
        assert!(d.lp_solves >= 1);
        assert!(d.ilp_nodes >= 1);
        assert!(d.fm_eliminations >= 1);
    }

    #[test]
    fn assemble_cache_preserves_schedules() {
        // The assemble/progression caches are keyed by schedule version;
        // results must be identical to rebuilding every system, and
        // repeated runs deterministic.
        for kernel in [
            ops::running_example(16),
            ops::reduce_rows(16, 16),
            ops::elementwise_chain(64, 4),
        ] {
            let a = plain_schedule(&kernel);
            let b = plain_schedule(&kernel);
            assert_eq!(a.schedule.render(&kernel), b.schedule.render(&kernel));
        }
    }

    #[test]
    fn unconstrained_node_leaves_the_schedule_unchanged() {
        let kernel = ops::transpose_2d(16, 16);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let plain = plain_schedule(&kernel);
        let layout = CoeffLayout::new(&kernel);
        let mut tree = InfluenceTree::new();
        tree.add_root(ConstraintSet::universe(layout.n_vars()), "noop");
        let with_node =
            schedule_kernel(&kernel, &deps, &tree, SchedulerOptions::default()).unwrap();
        assert_eq!(
            plain.schedule.render(&kernel),
            with_node.schedule.render(&kernel)
        );
    }
}

/// Graceful-degradation tests: budget exhaustion at an injection level
/// takes the same backtracking ladder as infeasibility, so a kernel
/// compiled under a hopeless deadline still returns a valid (if
/// uninfluenced) schedule; cancellation aborts with a structured error
/// and no fallback.
#[cfg(test)]
mod budget_degradation {
    use super::*;
    use crate::checks::schedule_respects;
    use crate::layout::CoeffLayout;
    use polyject_deps::{compute_dependences, DepOptions};
    use polyject_ir::ops;
    use polyject_sets::{Constraint, ConstraintSet, LinExpr};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// An influence tree whose root injects a feasible but real constraint,
    /// so the influenced path performs genuine solver work.
    fn pinning_tree(kernel: &Kernel) -> InfluenceTree {
        let layout = CoeffLayout::new(kernel);
        let n = layout.n_vars();
        let mut pin = ConstraintSet::universe(n);
        let mut e = LinExpr::var(n, layout.iter_coeff(StmtId(0), 0));
        e.set_constant(-1i128);
        pin.add(Constraint::eq0(e));
        let mut tree = InfluenceTree::new();
        tree.add_root(pin, "pin");
        tree
    }

    #[test]
    fn expired_deadline_degrades_to_valid_schedule() {
        let kernel = ops::running_example(16);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let tree = pinning_tree(&kernel);

        // A deadline that is already over: every budgeted solve exhausts
        // immediately, the ladder runs dry, and the uninfluenced fallback
        // (cancel-only budget) must still deliver a valid schedule.
        let budget = Budget::unlimited().with_deadline(Instant::now());
        let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
            .expect("degraded-but-valid schedule");
        assert!(!res.influenced, "influence must have been dropped");
        assert!(res.stats.degraded_solves >= 1, "degradation was counted");
        let v: Vec<_> = deps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &res.schedule));
    }

    #[test]
    fn tiny_node_budget_degrades_to_valid_schedule() {
        let kernel = ops::reduce_rows(8, 8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let tree = pinning_tree(&kernel);

        let budget = Budget::unlimited().with_max_ilp_nodes(0);
        let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
            .expect("degraded-but-valid schedule");
        assert!(res.stats.degraded_solves >= 1);
        let v: Vec<_> = deps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &res.schedule));
    }

    #[test]
    fn pathological_kernel_under_100ms_deadline_degrades() {
        // The acceptance bar from the issue, literally: a kernel whose full
        // influenced solve takes several times a 100 ms deadline, given that
        // deadline, must come back degraded-but-valid instead of hanging or
        // erroring out. A deep elementwise chain blows up the ILP size: at
        // depth 72 the un-budgeted solve takes 0.27 s (release, 2-core box;
        // 0.32 s in the dev profile), about 3x the deadline, and the budgeted
        // run answers in 0.33 s (0.36 s dev). Depth 64 now solves in 0.17 s
        // (0.22 s dev), too close to the deadline on a faster box. Deeper
        // chains once hit a cliff (a base context that spent the deadline on
        // its own phase 1 left the fallback a cold-delegating prefix: 15 s at
        // depth 64 in a debug build, 25 s at depth 72 in release); re-time
        // both sides before moving the depth.
        let kernel = ops::elementwise_chain(48, 72);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let tree = pinning_tree(&kernel);

        let budget = Budget::unlimited().with_deadline(Instant::now() + Duration::from_millis(100));
        let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
            .expect("degraded-but-valid schedule");
        assert!(res.stats.degraded_solves >= 1, "deadline never tripped");
        let v: Vec<_> = deps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &res.schedule));
    }

    #[test]
    fn pre_tripped_cancel_aborts_without_fallback() {
        let kernel = ops::running_example(16);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let tree = pinning_tree(&kernel);

        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel(Arc::clone(&flag));
        let before = polyject_sets::counters::snapshot();
        let err = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
            .expect_err("cancelled compile must not fall back");
        assert!(err.is_cancelled());
        assert_eq!(err.kind(), ScheduleErrorKind::Cancelled);
        let d = polyject_sets::counters::snapshot().delta_since(&before);
        assert_eq!(d.cancelled_solves, 1, "cancellation counted exactly once");

        // Untripping the flag restores normal scheduling with the same budget.
        flag.store(false, Ordering::Relaxed);
        let res = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget)
            .expect("schedulable once uncancelled");
        let v: Vec<_> = deps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &res.schedule));
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let kernel = ops::running_example(16);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let tree = pinning_tree(&kernel);

        let plain = schedule_kernel(&kernel, &deps, &tree, SchedulerOptions::default()).unwrap();
        let budget = Budget::unlimited().with_deadline(Instant::now() + Duration::from_secs(3600));
        let budgeted = schedule_kernel_budgeted(&kernel, &deps, &tree, &budget).unwrap();
        assert_eq!(
            plain.schedule.render(&kernel),
            budgeted.schedule.render(&kernel),
            "a budget that never trips must not change the schedule"
        );
        assert_eq!(budgeted.stats.degraded_solves, 0);
    }
}
