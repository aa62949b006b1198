//! Persistent scheduling contexts: shared-prefix tableau reuse.
//!
//! The influenced scheduler solves hundreds of lexicographic ILPs whose
//! constraint systems share a large common prefix — the Farkas-linearized
//! validity/bound rows of one dimension sweep — under small per-attempt
//! deltas (a node's own constraints, the backtracking ladder's relaxed
//! variants) and a chain of single-row objective pins. Solved cold, each
//! objective is a two-phase simplex dominated by phase-1 pivots over rows
//! that never changed.
//!
//! A [`SchedCtx`] keeps the prefix as a solved tableau instead (the
//! crate's one `tableau::Solved` type), in the style of isl's
//! `isl_context`/tableau pairing, built once. Each
//! [`SchedCtx::try_lexmin`] call then runs the chain from it with that
//! type's two verbs:
//!
//! 1. a clone of the base is *extended* by the pushed delta rows;
//! 2. each objective is *optimized* on the same tableau (a primal run
//!    from the incumbent basis — no phase 1 at all) and handed to
//!    branch-and-bound as its pre-resolved root;
//! 3. the root's optimal tableau comes back and is *extended* by the pin
//!    row `obj_k = opt_k` for objective *k+1*.
//!
//! [`crate::lexmin_integer`] is the same loop without a base: every root
//! solves cold and nothing is carried between objectives.
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
//!   branch-and-bound's bound contract (see `ilp::try_minimize_integer_rooted`)
//!   makes the search result — outcome, value and tie-broken point —
//!   independent of which attainable bound is supplied. Any optimal
//!   vertex may be served there.
//! * The **final** objective's point is the emitted answer, so it is
//!   trusted only when the tableau proves the optimum vertex *unique*
//!   (all enterable nonbasic reduced costs strictly positive, no basic
//!   artificial). A unique LP vertex is exactly the cold path's
//!   tie-broken answer. Anything weaker falls back to a cold root solve
//!   inside the same branch-and-bound search, unchanged.
//!
//! The differential suite in `tests/differential.rs` drives randomized
//! push/pop/lexmin traces through a context against the cold solver and
//! asserts identical outcomes, values, and tie-broken points.

use crate::budget::{Budget, BudgetError};
use crate::constraint::{Constraint, ConstraintSet};
use crate::counters;
use crate::ilp::{try_find_integer_point, try_minimize_integer_rooted, IlpOutcome};
use crate::linexpr::LinExpr;
use crate::simplex::LpOutcome;
use crate::tableau::{self, or_cold, Built, Solved};
use polyject_arith::Rat;

/// A stack mark returned by [`SchedCtx::mark`]/[`SchedCtx::push`];
/// passing it to [`SchedCtx::pop`] truncates the row stack back to the
/// state at the time of the mark.
#[derive(Clone, Copy, Debug)]
pub struct CtxMark(usize);

/// A persistent solving context over a fixed base constraint set.
///
/// The base rows are built into solved form once; delta rows pushed on
/// top extend a clone of it per solve, and successive lexicographic
/// objectives re-optimize warm. See the module docs for the exactness
/// argument.
///
/// `Clone` copies the solved base and the live row stack; a pristine
/// clone taken right after [`SchedCtx::build`] is how compile sessions
/// hand every candidate an identical base tableau without re-running its
/// phase 1.
#[derive(Clone)]
pub struct SchedCtx {
    /// The full current system: base rows then pushed delta rows. Kept as
    /// a real `ConstraintSet` so cold fallbacks (and branch-and-bound
    /// below the root) see exactly what a cold solve would, including
    /// `add`'s dedup/trivially-true filtering.
    rows: ConstraintSet,
    base_len: usize,
    /// The solved base prefix; `None` when the base is unsupported
    /// (sign-split space, no rows, infeasible, overflow, or an exhausted
    /// build budget) and every solve delegates cold.
    base: Option<Solved>,
}

impl SchedCtx {
    /// Prepares a persistent context over `base`. Never fails functionally:
    /// when the base cannot be held in solved form (it needs the p−q sign
    /// split, is empty or infeasible, overflows, or the build exhausts the
    /// budget's caps) the context simply delegates every solve to the cold
    /// path. Only cancellation propagates as an error.
    pub fn build(base: ConstraintSet, budget: &Budget) -> Result<SchedCtx, BudgetError> {
        let solved = match or_cold(tableau::build(&base, budget)) {
            Ok(Some(Built::Ready(solved))) => solved.extendable(),
            Ok(_) | Err(BudgetError::Exhausted(_)) => None,
            Err(BudgetError::Cancelled) => return Err(BudgetError::Cancelled),
        };
        let base_len = base.len();
        Ok(SchedCtx {
            rows: base,
            base_len,
            base: solved,
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

    /// Pops the row stack back to `m`. Popping never touches the solved
    /// base, so it is exact regardless of what any solve in between did —
    /// including budget-exhausted ones.
    pub fn pop(&mut self, m: CtxMark) {
        assert!(
            m.0 >= self.base_len,
            "CtxMark would pop below the context base"
        );
        self.rows.truncate(m.0);
    }

    /// Lexicographically minimizes `objectives` over the current system
    /// under a cooperative [`Budget`] — bit-identical results to
    /// [`crate::lexmin_integer`] on [`SchedCtx::rows`], but with the base
    /// prefix solved once at build time instead of per call. The budget
    /// spans the whole lexicographic sequence: a deadline or node cap is
    /// shared across all objectives, not reset per step. An unlimited
    /// budget can still surface the built-in branch-and-bound node cap as
    /// [`BudgetError::Exhausted`].
    pub fn try_lexmin(
        &mut self,
        objectives: &[LinExpr],
        budget: &Budget,
    ) -> Result<IlpOutcome, BudgetError> {
        // Objective pins are pushed onto the live row stack (so dedup and
        // trivially-true filtering match the cold path row-for-row) and
        // always unwound, error paths included.
        let pin_mark = self.rows.len();
        let base = self.base.as_ref().map(|solved| (solved, self.base_len));
        let out = lexmin_chain(objectives, &mut self.rows, base, budget);
        self.rows.truncate(pin_mark);
        out
    }
}

/// The pin-and-continue loop of lexicographic minimization: minimize an
/// objective over `rows`, pin it at its optimum (the pin is left on
/// `rows`), continue with the next. `base` is a solved tableau of the
/// first `base_len` rows; with one, roots are served from the warm chain
/// the module docs describe, and `lexmin_cold_roots` counts the roots it
/// could not serve. Without one the chain starts absent and stays so.
pub(crate) fn lexmin_chain(
    objectives: &[LinExpr],
    rows: &mut ConstraintSet,
    base: Option<(&Solved, usize)>,
    budget: &Budget,
) -> Result<IlpOutcome, BudgetError> {
    let live = base.is_some();
    // The tableau the next root is served from; `None` while the warm
    // chain is dead and roots solve cold (with warm upper bounds only).
    let mut chain: Option<Solved> = None;
    if let Some((solved, base_len)) = base {
        let mut t = solved.clone();
        match or_cold(t.extend(&rows.constraints()[base_len..], budget))? {
            Some(true) => chain = Some(t),
            Some(false) => return serve_warm_terminal(IlpOutcome::Infeasible, budget),
            None => {}
        }
    }

    let mut last: Option<(Vec<i128>, Rat)> = None;
    for (idx, obj) in objectives.iter().enumerate() {
        // Only the last objective's point is emitted, so only its root
        // must be the provably unique (hence cold-identical) vertex; see
        // the module docs.
        let is_last = idx + 1 == objectives.len();
        // The previous optimum satisfies every pin added so far, so it
        // is feasible here and its objective value is attainable.
        let warm_ub = last.as_ref().map(|(p, _)| obj.eval_int(p));
        let mut served: Option<(LpOutcome, Option<Solved>)> = None;
        if let Some(mut t) = chain.take() {
            match or_cold(t.optimize(obj, budget))? {
                Some(true) => {
                    let v = t.vertex();
                    if v.unique || !is_last {
                        let (point, value) = (v.point, v.value);
                        served = Some((LpOutcome::Optimal { point, value }, Some(t)));
                    }
                    // Non-unique final: the cold tie-broken vertex is
                    // the answer, so the root re-solves cold below.
                }
                Some(false) => return serve_warm_terminal(IlpOutcome::Unbounded, budget),
                None => {}
            }
        }
        if live && served.is_none() {
            counters::count_lexmin_cold_root(1);
        }
        let (out, root) = try_minimize_integer_rooted(obj, rows, warm_ub, budget, served)?;
        let IlpOutcome::Optimal { point, value } = out else {
            return Ok(out);
        };
        // Pin this objective at its optimum for the later ones.
        let mut pin = obj.clone();
        pin.set_constant(obj.constant_term() - value);
        let before = rows.len();
        rows.add(Constraint::eq0(pin));
        // Re-arm the chain from the root's optimal tableau, extended with
        // the pin row when `add` kept it.
        if let Some(mut t) = root.filter(|_| live) {
            match or_cold(t.extend(&rows.constraints()[before..], budget))? {
                Some(true) => chain = Some(t),
                Some(false) => debug_assert!(false, "pin row infeasible at its own optimum"),
                None => {}
            }
        }
        last = Some((point, value));
    }
    match last {
        Some((point, value)) => Ok(IlpOutcome::Optimal { point, value }),
        None => Ok(match try_find_integer_point(rows, budget)? {
            Some(point) => IlpOutcome::Optimal {
                point,
                value: Rat::ZERO,
            },
            None => IlpOutcome::Infeasible,
        }),
    }
}

/// Reports a basis-independent terminal outcome (infeasible/unbounded)
/// discovered warm, ticking the counters the equivalent cold solve's
/// single root node would have: one ILP solve, one node, served warm.
fn serve_warm_terminal(out: IlpOutcome, budget: &Budget) -> Result<IlpOutcome, BudgetError> {
    counters::count_ilp_solve(1);
    counters::count_ilp_node(1);
    counters::count_bb_warm_node(1);
    budget.check()?;
    Ok(out)
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
        let reference = crate::lexmin_integer(&objs, &cold);

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
