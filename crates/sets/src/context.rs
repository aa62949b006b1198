//! Persistent scheduling contexts: shared-prefix LP basis reuse.
//!
//! The influenced scheduler solves hundreds of lexicographic ILPs whose
//! constraint systems share a large common prefix — the Farkas-linearized
//! validity/bound rows of one dimension sweep — under small per-attempt
//! deltas (a node's own constraints, the backtracking ladder's relaxed
//! variants) and a chain of single-row objective pins. The historical
//! path rebuilt and re-established feasibility of that prefix from
//! scratch on every `lexmin` call: a cold two-phase simplex per
//! objective, dominated by phase-1 pivots over rows that never changed.
//!
//! A [`SchedCtx`] keeps the prefix in solved form instead, in the style
//! of isl's `isl_context`/tableau pairing. Building the context runs the
//! objective-independent half of a solve once (row build, phase 1,
//! artificial drive-out); each `lexmin` call then
//!
//! 1. clones the prepared tableau and appends the pushed delta rows
//!    priced out against the basis, repairing primal feasibility with
//!    dual simplex pivots;
//! 2. re-optimizes the same tableau per objective (a primal run from the
//!    incumbent basis — no phase 1 at all);
//! 3. threads the branch-and-bound root basis from objective *k* into
//!    objective *k+1*, extending it with the pin row `obj_k = opt_k`.
//!
//! # Exactness
//!
//! Emitted schedules must be byte-identical to the cold path, so a warm
//! answer is only used when it is provably the one a cold solve would
//! produce:
//!
//! * **Infeasible / Unbounded** are properties of the constraint system,
//!   independent of any basis — always safe.
//! * The optimal **value** of an LP is unique — always safe; it feeds
//!   only value-based pruning decisions and the objective pins.
//! * An **intermediate** objective's optimum point influences nothing
//!   but the attainable upper bound passed to the next step, and
//!   [`crate::minimize_integer_bounded`]'s contract makes the search
//!   result — outcome, value and tie-broken point — independent of
//!   which attainable bound is supplied. Any optimal vertex may be
//!   served there.
//! * The **final** objective's point is the emitted answer, so it is
//!   trusted only when the tableau proves the optimum vertex *unique*
//!   (all enterable nonbasic reduced costs strictly positive, no basic
//!   artificial). A unique LP vertex is exactly the cold path's
//!   tie-broken answer. Anything weaker falls back to a cold root solve
//!   inside [`crate::try_minimize_integer_bounded`]'s search, unchanged.
//!
//! The differential suite in `tests/differential.rs` drives randomized
//! push/pop/lexmin traces through a context against the cold solver and
//! asserts identical outcomes, values, and tie-broken points.

use crate::budget::{Budget, BudgetError};
use crate::constraint::{Constraint, ConstraintSet};
use crate::counters;
use crate::ilp::{
    expect_within_node_limit, try_find_integer_point, try_lexmin_integer,
    try_minimize_integer_rooted, IlpOutcome,
};
use crate::linexpr::LinExpr;
use crate::simplex::LpOutcome;
use crate::tableau::{
    ctx_extend, ctx_optimize, ctx_prepare, ctx_resume, CtxOpt, CtxPrepared, LpBasis, PreparedTab,
    SolveAbort,
};
use polyject_arith::Rat;

/// A stack mark returned by [`SchedCtx::mark`]/[`SchedCtx::push`];
/// passing it to [`SchedCtx::pop`] truncates the row stack back to the
/// state at the time of the mark.
#[derive(Clone, Copy, Debug)]
pub struct CtxMark(usize);

/// A persistent solving context over a fixed base constraint set.
///
/// The base rows are prepared (feasibility-established) once; delta rows
/// pushed on top are appended to a clone of the prepared tableau per
/// solve, and successive lexicographic objectives re-optimize warm. See
/// the module docs for the exactness argument.
///
/// `Clone` copies the solved base and the live row stack; a pristine
/// clone taken right after [`SchedCtx::build`] is how compile sessions
/// hand every candidate an identical prepared tableau without re-running
/// the base's phase 1.
#[derive(Clone)]
pub struct SchedCtx {
    /// The full current system: base rows then pushed delta rows. Kept as
    /// a real `ConstraintSet` so cold fallbacks (and branch-and-bound
    /// below the root) see exactly what the historical path saw,
    /// including `add`'s dedup/trivially-true filtering.
    rows: ConstraintSet,
    base_len: usize,
    /// The solved base prefix; `None` when the base is unsupported
    /// (sign-split space, no rows, infeasible, overflow, or an exhausted
    /// build budget) and every solve delegates cold.
    base: Option<PreparedTab>,
}

impl SchedCtx {
    /// Prepares a persistent context over `base`. Never fails functionally:
    /// when the base cannot be held in solved form (it needs the p−q sign
    /// split, is empty or infeasible, overflows, or the build exhausts the
    /// budget's caps) the context simply delegates every solve to the cold
    /// path. Only cancellation propagates as an error.
    pub fn build(base: ConstraintSet, budget: &Budget) -> Result<SchedCtx, BudgetError> {
        let prepared = match ctx_prepare(&base, budget) {
            Ok(CtxPrepared::Ready(p)) => Some(p),
            Ok(CtxPrepared::Unsupported) | Err(SolveAbort::Overflow | SolveAbort::PivotLimit) => {
                None
            }
            Err(SolveAbort::Budget(BudgetError::Cancelled)) => return Err(BudgetError::Cancelled),
            Err(SolveAbort::Budget(BudgetError::Exhausted(_))) => None,
        };
        let base_len = base.len();
        Ok(SchedCtx {
            rows: base,
            base_len,
            base: prepared,
        })
    }

    /// The current full constraint system (base plus pushed rows).
    pub fn rows(&self) -> &ConstraintSet {
        &self.rows
    }

    /// A mark capturing the current top of the row stack.
    pub fn mark(&self) -> CtxMark {
        CtxMark(self.rows.len())
    }

    /// Pushes one delta constraint; returns the mark from before the push.
    pub fn push(&mut self, c: Constraint) -> CtxMark {
        let m = self.mark();
        self.rows.add(c);
        m
    }

    /// Pushes every constraint of `cs`; returns the mark from before.
    pub fn push_set(&mut self, cs: &ConstraintSet) -> CtxMark {
        let m = self.mark();
        self.rows.intersect(cs);
        m
    }

    /// Pops the row stack back to `m`. Popping never touches the prepared
    /// base, so it is exact regardless of what any solve in between did —
    /// including budget-exhausted ones.
    pub fn pop(&mut self, m: CtxMark) {
        assert!(
            m.0 >= self.base_len,
            "CtxMark would pop below the context base"
        );
        self.rows.truncate(m.0);
    }

    /// [`SchedCtx::try_lexmin`] under an unlimited budget.
    ///
    /// # Panics
    ///
    /// Panics if branch-and-bound exceeds its node limit, exactly like
    /// [`crate::lexmin_integer`].
    pub fn lexmin(&mut self, objectives: &[LinExpr]) -> IlpOutcome {
        expect_within_node_limit(self.try_lexmin(objectives, &Budget::unlimited()))
    }

    /// Lexicographically minimizes `objectives` over the current system —
    /// same contract and bit-identical results as
    /// [`crate::try_lexmin_integer`] on [`SchedCtx::rows`], but with the
    /// base prefix solved once at build time instead of per call.
    pub fn try_lexmin(
        &mut self,
        objectives: &[LinExpr],
        budget: &Budget,
    ) -> Result<IlpOutcome, BudgetError> {
        // Objective pins are pushed onto the live row stack (so dedup and
        // trivially-true filtering match the cold path row-for-row) and
        // always unwound, error paths included.
        let pin_mark = self.rows.len();
        let out = self.lexmin_pinned(objectives, budget);
        self.rows.truncate(pin_mark);
        out
    }

    fn lexmin_pinned(
        &mut self,
        objectives: &[LinExpr],
        budget: &Budget,
    ) -> Result<IlpOutcome, BudgetError> {
        if self.base.is_none() {
            return try_lexmin_integer(objectives, &self.rows, budget);
        }

        // Extend a clone of the prepared base with the pushed delta rows.
        // `None` means the warm chain is dead and solves run cold (with
        // warm upper bounds only) from here on.
        let mut chain: Option<PreparedTab> = {
            let base_tab = self.base.as_ref().expect("checked above");
            let delta = &self.rows.constraints()[self.base_len..];
            if delta.is_empty() {
                Some(base_tab.clone())
            } else {
                let mut t = base_tab.clone();
                match ctx_extend(&mut t, delta, budget) {
                    Ok(true) => Some(t),
                    Ok(false) => return self.serve_warm_terminal(IlpOutcome::Infeasible, budget),
                    Err(SolveAbort::Overflow | SolveAbort::PivotLimit) => None,
                    Err(SolveAbort::Budget(e)) => return Err(e),
                }
            }
        };

        let mut last: Option<(Vec<i128>, Rat)> = None;
        for (idx, obj) in objectives.iter().enumerate() {
            // The emitted answer is the LAST objective's optimum point; the
            // points of earlier objectives feed nothing but the attainable
            // upper bound below, and [`crate::minimize_integer_bounded`]'s
            // contract makes the search result — outcome, value and
            // tie-broken point — independent of which attainable bound is
            // supplied. So intermediate roots may be served from ANY
            // optimal vertex; only the final objective's root must be the
            // provably unique (hence cold-identical) one.
            let is_last = idx + 1 == objectives.len();
            // The previous optimum satisfies every pin added so far, so it
            // is feasible here and its objective value is attainable.
            let warm_ub = last.as_ref().map(|(p, _)| obj.eval_int(p));
            // Re-optimize the incumbent tableau under the new objective.
            let mut served: Option<(LpOutcome, Option<LpBasis>)> = None;
            if let Some(t) = chain.take() {
                match ctx_optimize(t, obj, budget) {
                    Ok(CtxOpt::Unbounded) => {
                        return self.serve_warm_terminal(IlpOutcome::Unbounded, budget)
                    }
                    Ok(CtxOpt::Optimal {
                        value,
                        point,
                        unique,
                        basis,
                    }) => {
                        if unique || !is_last {
                            served = Some((LpOutcome::Optimal { point, value }, Some(basis)));
                        }
                        // Non-unique final: the cold tie-broken vertex is
                        // the answer, so the root re-solves cold below.
                    }
                    Err(SolveAbort::Overflow | SolveAbort::PivotLimit) => {}
                    Err(SolveAbort::Budget(e)) => return Err(e),
                }
            }
            if served.is_none() {
                counters::count_lexmin_cold_root(1);
            }
            let (out, basis) =
                try_minimize_integer_rooted(obj, &self.rows, warm_ub, budget, served)?;
            match out {
                IlpOutcome::Optimal { point, value } => {
                    // Pin this objective at its optimum for the later ones.
                    let mut pin = obj.clone();
                    pin.set_constant(obj.constant_term() - value);
                    let before = self.rows.len();
                    self.rows.add(Constraint::eq0(pin));
                    // Re-arm the chain from the root's optimal basis,
                    // extended with the pin row when `add` kept it.
                    chain = match basis {
                        Some(b) => {
                            let mut t = ctx_resume(b);
                            if self.rows.len() > before {
                                let added = &self.rows.constraints()[before..];
                                match ctx_extend(&mut t, added, budget) {
                                    Ok(true) => Some(t),
                                    Ok(false) => {
                                        debug_assert!(
                                            false,
                                            "pin row infeasible at its own optimum"
                                        );
                                        None
                                    }
                                    Err(SolveAbort::Overflow | SolveAbort::PivotLimit) => None,
                                    Err(SolveAbort::Budget(e)) => return Err(e),
                                }
                            } else {
                                Some(t)
                            }
                        }
                        None => None,
                    };
                    last = Some((point, value));
                }
                other => return Ok(other),
            }
        }
        match last {
            Some((point, value)) => Ok(IlpOutcome::Optimal { point, value }),
            None => match try_find_integer_point(&self.rows, budget)? {
                Some(point) => Ok(IlpOutcome::Optimal {
                    point,
                    value: Rat::ZERO,
                }),
                None => Ok(IlpOutcome::Infeasible),
            },
        }
    }

    /// Reports a basis-independent terminal outcome (infeasible/unbounded)
    /// discovered warm, ticking the counters the equivalent cold solve's
    /// single root node would have: one ILP solve, one node, served warm.
    fn serve_warm_terminal(
        &self,
        out: IlpOutcome,
        budget: &Budget,
    ) -> Result<IlpOutcome, BudgetError> {
        counters::count_ilp_solve(1);
        counters::count_ilp_node(1);
        counters::count_bb_warm_node(1);
        budget.check()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::DUAL_PIVOT_LIMIT_OVERRIDE;

    /// A dual repair that hits its pivot cap is not an overflow: wider
    /// cells would replay the same pivots, so the chain must go cold at
    /// once — no escalation counted — and still return the cold answer.
    #[test]
    fn pivot_limit_goes_cold_without_escalating() {
        let n = 3;
        let mut base = ConstraintSet::universe(n);
        for v in 0..n {
            base.add(Constraint::ge0(LinExpr::var(n, v)));
            let mut hi = LinExpr::var(n, v).scaled(-Rat::ONE);
            hi.set_constant(5i128);
            base.add(Constraint::ge0(hi));
        }
        // Cuts off the origin the prepared base sits at, so extending the
        // base with it needs at least one repair pivot.
        let delta = Constraint::ge0(LinExpr::from_coeffs(&[1, 1, 1], -4));
        let objs = [
            LinExpr::from_coeffs(&[1, 1, 1], 0),
            LinExpr::from_coeffs(&[1, 2, 4], 0),
        ];
        let budget = Budget::unlimited();
        let mut cold = base.clone();
        cold.add(delta.clone());
        let reference = try_lexmin_integer(&objs, &cold, &budget).expect("unlimited");

        let mut ctx = SchedCtx::build(base, &budget).expect("not cancelled");
        assert!(ctx.base.is_some(), "a sign-rowed box prepares warm");
        ctx.push(delta);
        DUAL_PIVOT_LIMIT_OVERRIDE.with(|l| l.set(Some(0)));
        let before = counters::snapshot();
        let out = ctx.try_lexmin(&objs, &budget);
        let d = counters::snapshot().delta_since(&before);
        DUAL_PIVOT_LIMIT_OVERRIDE.with(|l| l.set(None));

        assert_eq!(out.expect("unlimited"), reference);
        assert!(d.bb_repair_pivots >= 1, "no repair was attempted: {d:?}");
        assert!(d.lexmin_cold_roots >= 1, "the cap never tripped: {d:?}");
        assert_eq!(d.tab_overflow_escalations, 0, "{d:?}");
    }
}
