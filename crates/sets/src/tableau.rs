//! Fraction-free integer simplex tableau: one solved form, two verbs.
//!
//! The rational reference ([`crate::minimize_reference`]) stores a dense
//! tableau of [`Rat`] entries and pays a GCD normalization on every entry
//! of every pivot. This module stores each row as integer entries over a
//! single positive per-row denominator (`row_rational = a / den`), in the
//! style of Edmonds/Bareiss fraction-free elimination: a pivot is two
//! integer multiplies and a subtract per entry — one multiply and a
//! subtract per *non-zero of the pivot row* when the pivot element is ±1,
//! as most are — with one early-exiting content-GCD pass per *row*
//! instead of per *entry*, and rationals are only materialized at
//! solution read-out.
//!
//! # One solved tableau, two verbs
//!
//! Algorithm 1 re-solves one lexicographic ILP per schedule dimension
//! under small row deltas, which isl serves from a context/tableau
//! pairing. Here that machinery is one type and two operations:
//!
//! * [`build`] turns a constraint set into a [`Solved`] tableau: rows,
//!   initial basis, phase 1, artificials driven out and barred, the zero
//!   objective installed. A `Solved` is always primal-feasible for its
//!   rows and dual-feasible for its installed objective.
//! * [`Solved::extend`] prices rows in against the current basis and
//!   repairs primal feasibility with dual simplex pivots; the installed
//!   objective stays optimal.
//! * [`Solved::optimize`] installs an objective and runs primal simplex
//!   from the current basis.
//! * [`Solved::vertex`] reads value, point and a uniqueness proof.
//!
//! Everything else is a composition. A cold LP ([`solve_int`]) is build +
//! optimize. A branch-and-bound child is its parent's clone extended by
//! the one bound row. A [`crate::SchedCtx`] lexmin is the built base's
//! clone extended by the pushed delta rows, optimized per objective, the
//! root's optimal tableau extended by the `objective = optimum` pin
//! before the next objective. The verbs return `Ok(false)` for the one
//! dead end each can prove without reference to a basis (infeasible,
//! unbounded), and such answers are always safe to serve; a *point* read
//! from a warm tableau is the cold path's tie-broken vertex only when
//! [`Vertex::unique`] holds, and callers re-solve cold otherwise.
//!
//! # Machine-int fast path
//!
//! The tableau is generic over its cell type ([`Cell`]): scheduling
//! systems have small coefficients, so tableaux start on `i64` rows —
//! roughly half the memory traffic and markedly cheaper multiplies than
//! `i128`. All arithmetic is checked; when an `i64` operation overflows,
//! the *whole operation* (the build, or one verb) is redone from its
//! pre-operation state on `i128` rows, after rewinding the pivot counters
//! the abandoned attempt ticked. Both widths run the identical algorithm
//! on identical integer entries (an `i64` tableau widened to `i128` is
//! exactly the tableau a pure-`i128` run would hold at that point), so
//! the decision sequence, the returned outcome, *and the final counter
//! values* are bit-for-bit those of a pure-`i128` run — the escalation is
//! invisible except to the `tab_i64_solves` / `tab_overflow_escalations`
//! counters. It is written once for the build ([`build`]) and once for
//! the verbs (`Solved::apply`).
//!
//! # Exactness and identity
//!
//! Every decision of the rational algorithm is invariant under scaling a
//! row by a positive rational: the Bland entering test reads only the
//! *sign* of a reduced cost, the min-ratio test compares `b_r / a_rc`
//! (the per-row denominator cancels), and ties compare basis indices. The
//! code below maintains the invariant that each stored row is a strictly
//! positive multiple of the corresponding row of the rational tableau
//! (pivots with a negative pivot element re-negate the pivot row), so the
//! pivot sequence — and therefore the returned outcome, optimal value,
//! and tie-broken optimum point — is bit-for-bit identical to the
//! reference solver. The differential suite in `tests/differential.rs`
//! asserts exactly that, for both cell widths.
//!
//! Any overflow of the widest (`i128`) representation aborts with
//! [`SolveAbort::Overflow`] and the caller falls back to its cold path
//! (ultimately the rational reference), so there are no panic paths.
//! Budget trips ([`SolveAbort::Budget`]) propagate out instead — a
//! cancelled or exhausted solve must not silently restart on a slower
//! path — and, like a hit pivot cap ([`SolveAbort::PivotLimit`]), never
//! trigger an `i64`→`i128` escalation.

use crate::budget::{Budget, BudgetError};
use crate::constraint::{Constraint, ConstraintKind, ConstraintSet};
use crate::counters;
use crate::linexpr::LinExpr;
use crate::simplex::LpOutcome;
use polyject_arith::{lcm, Rat};
use std::cmp::Ordering;

/// Cap on dual-simplex repair pivots per [`Solved::extend`]; beyond it the
/// caller falls back to a cold solve (Bland's rule terminates in theory,
/// but the cap bounds the damage of any bug).
const DUAL_PIVOT_LIMIT: u64 = 20_000;

#[cfg(test)]
thread_local! {
    /// Unit-test override of [`DUAL_PIVOT_LIMIT`] on this thread.
    pub(crate) static DUAL_PIVOT_LIMIT_OVERRIDE: std::cell::Cell<Option<u64>> =
        const { std::cell::Cell::new(None) };
}

fn dual_pivot_limit() -> u64 {
    #[cfg(test)]
    if let Some(limit) = DUAL_PIVOT_LIMIT_OVERRIDE.with(|l| l.get()) {
        return limit;
    }
    DUAL_PIVOT_LIMIT
}

#[derive(PartialEq, Eq)]
enum RunResult {
    Optimal,
    Unbounded,
}

/// Why an integer-tableau solve stopped early.
pub(crate) enum SolveAbort {
    /// An intermediate value overflowed the cell type. For `i64` cells
    /// the operation is redone on `i128`; for `i128` cells the caller
    /// falls back to the cold/rational path.
    Overflow,
    /// A dual repair hit [`DUAL_PIVOT_LIMIT`]. Wider cells would replay the
    /// same pivots, so this never escalates: the caller falls back to the
    /// cold path at once.
    PivotLimit,
    /// The budget tripped; propagated all the way out, no fallback.
    Budget(BudgetError),
}

impl From<BudgetError> for SolveAbort {
    fn from(e: BudgetError) -> SolveAbort {
        SolveAbort::Budget(e)
    }
}

/// What an abort means to a caller with a cold path to fall back on: a
/// budget error ends the solve; an `i128` overflow or a hit pivot cap
/// (`None`) only says the answer has to come from the cold path.
pub(crate) fn or_cold<T>(r: Result<T, SolveAbort>) -> Result<Option<T>, BudgetError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(SolveAbort::Overflow | SolveAbort::PivotLimit) => Ok(None),
        Err(SolveAbort::Budget(e)) => Err(e),
    }
}

/// Maps the checked-arithmetic `None` onto [`SolveAbort::Overflow`].
#[inline]
fn ov<T>(o: Option<T>) -> Result<T, SolveAbort> {
    o.ok_or(SolveAbort::Overflow)
}

/// Integer cell of a tableau: checked arithmetic over a symmetric range
/// plus the exact cross-multiplied comparison the ratio tests need.
///
/// Both widths reject their `MIN`, so negation is total on representable
/// values and `a - b` overflows exactly when `b - a` does — which is what
/// lets a pivot on `-1` add where the general formula negates, subtracts
/// and negates back, and still report overflow on the same cells. The
/// `i64` implementation widens ratio-test products to `i128`, where they
/// always fit — a ratio comparison alone never forces an escalation.
pub(crate) trait Cell: Copy + Eq + Ord + std::fmt::Debug + 'static {
    const ZERO: Self;
    const ONE: Self;
    const NEG_ONE: Self;
    /// Narrowing conversion from the canonical `i128` build values;
    /// `None` when the value does not fit the cell's symmetric range.
    fn narrow(v: i128) -> Option<Self>;
    fn widen(self) -> i128;
    fn cneg(self) -> Option<Self>;
    fn cadd(self, o: Self) -> Option<Self>;
    fn csub(self, o: Self) -> Option<Self>;
    fn cmul(self, o: Self) -> Option<Self>;
    /// GCD of representable values (never overflows: the result's
    /// magnitude is bounded by the larger operand's).
    fn gcd(self, o: Self) -> Self;
    /// Exact division by a known divisor (content-GCD reduction).
    fn div_exact(self, d: Self) -> Self;
    /// Whether `d > 0` divides this value: the one-remainder test that
    /// saves [`Cell::gcd`]'s Euclid loop when it does.
    fn divisible_by(self, d: Self) -> bool;
    /// Exact comparison of `a*b` with `c*d`; `None` when a product cannot
    /// be formed in the cell's comparison domain.
    fn cmp_products(a: Self, b: Self, c: Self, d: Self) -> Option<Ordering>;
    /// Wraps a finished tableau of this cell type into the width enum.
    fn wrap(tab: IntTableau<Self>) -> Tab;
}

/// Rejects `i64::MIN` so the `i64` range stays symmetric under negation.
#[inline]
fn sym64(v: i64) -> Option<i64> {
    if v == i64::MIN {
        None
    } else {
        Some(v)
    }
}

/// [`sym64`] for the wide cells.
#[inline]
fn sym128(v: i128) -> Option<i128> {
    if v == i128::MIN {
        None
    } else {
        Some(v)
    }
}

impl Cell for i64 {
    const ZERO: i64 = 0;
    const ONE: i64 = 1;
    const NEG_ONE: i64 = -1;
    #[inline]
    fn narrow(v: i128) -> Option<i64> {
        i64::try_from(v).ok().and_then(sym64)
    }
    #[inline]
    fn widen(self) -> i128 {
        self as i128
    }
    #[inline]
    fn cneg(self) -> Option<i64> {
        self.checked_neg()
    }
    #[inline]
    fn cadd(self, o: i64) -> Option<i64> {
        self.checked_add(o).and_then(sym64)
    }
    #[inline]
    fn csub(self, o: i64) -> Option<i64> {
        self.checked_sub(o).and_then(sym64)
    }
    #[inline]
    fn cmul(self, o: i64) -> Option<i64> {
        self.checked_mul(o).and_then(sym64)
    }
    #[inline]
    fn gcd(self, o: i64) -> i64 {
        polyject_arith::gcd(self as i128, o as i128) as i64
    }
    #[inline]
    fn div_exact(self, d: i64) -> i64 {
        self / d
    }
    #[inline]
    fn divisible_by(self, d: i64) -> bool {
        self % d == 0
    }
    #[inline]
    fn cmp_products(a: i64, b: i64, c: i64, d: i64) -> Option<Ordering> {
        // Products of two representable i64 values always fit in i128.
        Some(((a as i128) * (b as i128)).cmp(&((c as i128) * (d as i128))))
    }
    fn wrap(tab: IntTableau<i64>) -> Tab {
        Tab::Small(tab)
    }
}

impl Cell for i128 {
    const ZERO: i128 = 0;
    const ONE: i128 = 1;
    const NEG_ONE: i128 = -1;
    #[inline]
    fn narrow(v: i128) -> Option<i128> {
        sym128(v)
    }
    #[inline]
    fn widen(self) -> i128 {
        self
    }
    #[inline]
    fn cneg(self) -> Option<i128> {
        self.checked_neg()
    }
    #[inline]
    fn cadd(self, o: i128) -> Option<i128> {
        self.checked_add(o).and_then(sym128)
    }
    #[inline]
    fn csub(self, o: i128) -> Option<i128> {
        self.checked_sub(o).and_then(sym128)
    }
    #[inline]
    fn cmul(self, o: i128) -> Option<i128> {
        self.checked_mul(o).and_then(sym128)
    }
    #[inline]
    fn gcd(self, o: i128) -> i128 {
        polyject_arith::gcd(self, o)
    }
    #[inline]
    fn div_exact(self, d: i128) -> i128 {
        self / d
    }
    #[inline]
    fn divisible_by(self, d: i128) -> bool {
        self % d == 0
    }
    #[inline]
    fn cmp_products(a: i128, b: i128, c: i128, d: i128) -> Option<Ordering> {
        let lhs = a.checked_mul(b)?;
        let rhs = c.checked_mul(d)?;
        Some(lhs.cmp(&rhs))
    }
    fn wrap(tab: IntTableau<i128>) -> Tab {
        Tab::Big(tab)
    }
}

/// Dense integer tableau: row-major `data` with `stride = ncols + 1` (the
/// right-hand side lives in the last slot of each row), one positive
/// denominator per row, and a cost row with its own denominator.
#[derive(Clone)]
pub(crate) struct IntTableau<C: Cell> {
    ncols: usize,
    stride: usize,
    data: Vec<C>,
    den: Vec<C>,
    cost: Vec<C>,
    /// Numerator of the objective value `val = valnum / cost_den`.
    valnum: C,
    cost_den: C,
    basis: Vec<usize>,
    /// Artificial columns occupy `art_lo..art_hi`; they may not enter the
    /// basis once `bar_artificials` is set (phase 2 and all warm repairs).
    art_lo: usize,
    art_hi: usize,
    bar_artificials: bool,
    /// Pivot scratch: the pivot row's copy, and its non-zero columns.
    scratch: Vec<C>,
    nonzero: Vec<usize>,
}

/// A tableau at either cell width. Every tableau starts [`Tab::Small`]
/// (unless its build values do not fit `i64`, or wide mode is forced) and
/// is promoted to [`Tab::Big`] by the first operation that overflows.
#[derive(Clone)]
pub(crate) enum Tab {
    Small(IntTableau<i64>),
    Big(IntTableau<i128>),
}

/// Widens an `i64` tableau into the identical `i128` tableau: a pure
/// representation change — same rational row values, same basis, same
/// normalization state — so continuing on the widened copy replays
/// exactly what a pure-`i128` run would have done from this state.
fn widen_tab(t: &IntTableau<i64>) -> IntTableau<i128> {
    IntTableau {
        ncols: t.ncols,
        stride: t.stride,
        data: t.data.iter().map(|&v| v as i128).collect(),
        den: t.den.iter().map(|&v| v as i128).collect(),
        cost: t.cost.iter().map(|&v| v as i128).collect(),
        valnum: t.valnum as i128,
        cost_den: t.cost_den as i128,
        basis: t.basis.clone(),
        art_lo: t.art_lo,
        art_hi: t.art_hi,
        bar_artificials: t.bar_artificials,
        scratch: Vec::with_capacity(t.stride),
        nonzero: Vec::new(),
    }
}

/// The GCD of `g > 0` and every entry of `row`. Stops as soon as it hits
/// 1 and calls [`Cell::gcd`] only on an entry the running value does not
/// already divide, so a reduced row costs a few compares and a row with a
/// common factor one remainder per non-zero entry.
fn content<C: Cell>(mut g: C, row: &[C]) -> C {
    for &v in row {
        if g == C::ONE {
            break;
        }
        if v != C::ZERO && !v.divisible_by(g) {
            g = C::gcd(g, v);
        }
    }
    g
}

/// Divides a row's non-zero entries by `g`, which divides them all.
fn divide_content<C: Cell>(row: &mut [C], g: C) {
    for v in row.iter_mut().filter(|v| **v != C::ZERO) {
        *v = v.div_exact(g);
    }
}

/// Divides a row and its positive denominator by their content GCD.
fn reduce_content<C: Cell>(den: &mut C, row: &mut [C]) {
    let g = content(*den, row);
    if g > C::ONE {
        *den = den.div_exact(g);
        divide_content(row, g);
    }
}

impl<C: Cell> IntTableau<C> {
    fn rows(&self) -> usize {
        self.basis.len()
    }

    #[inline]
    fn at(&self, r: usize, j: usize) -> C {
        self.data[r * self.stride + j]
    }

    #[inline]
    fn b(&self, r: usize) -> C {
        self.data[r * self.stride + self.ncols]
    }

    #[inline]
    fn enterable(&self, j: usize) -> bool {
        !(self.bar_artificials && j >= self.art_lo && j < self.art_hi)
    }

    /// Restores `den > 0` and divides the row by its content GCD.
    fn normalize_row(&mut self, r: usize) -> Option<()> {
        let stride = self.stride;
        let row = &mut self.data[r * stride..(r + 1) * stride];
        if self.den[r] < C::ZERO {
            self.den[r] = self.den[r].cneg()?;
            for v in row.iter_mut() {
                *v = v.cneg()?;
            }
        }
        reduce_content(&mut self.den[r], row);
        Some(())
    }

    /// Same reduction for the cost row (entries, value numerator, and its
    /// denominator).
    fn normalize_cost(&mut self) -> Option<()> {
        if self.cost_den < C::ZERO {
            self.cost_den = self.cost_den.cneg()?;
            self.valnum = self.valnum.cneg()?;
            for v in self.cost.iter_mut() {
                *v = v.cneg()?;
            }
        }
        let g = content(C::gcd(self.cost_den, self.valnum), &self.cost);
        if g > C::ONE {
            self.cost_den = self.cost_den.div_exact(g);
            self.valnum = self.valnum.div_exact(g);
            divide_content(&mut self.cost, g);
        }
        Some(())
    }

    /// Fraction-free pivot at `(r, c)`: rows `i != r` become
    /// `a_i * p - a_ic * a_r` over `den_i * p`; the pivot row itself is
    /// left unscaled (re-negated when `p < 0` to keep the positive-scale
    /// invariant). Returns `None` on arithmetic overflow.
    fn pivot(&mut self, r: usize, c: usize) -> Option<()> {
        let stride = self.stride;
        let p = self.data[r * stride + c];
        debug_assert!(p != C::ZERO, "pivot on a zero element");
        let mut prow = std::mem::take(&mut self.scratch);
        prow.clear();
        prow.extend_from_slice(&self.data[r * stride..(r + 1) * stride]);
        if p == C::ONE || p == C::NEG_ONE {
            self.eliminate_unit(r, c, p == C::ONE, &prow)?;
        } else {
            self.eliminate(r, c, p, &prow)?;
        }
        if p < C::ZERO {
            let row = &mut self.data[r * stride..(r + 1) * stride];
            for v in row.iter_mut() {
                *v = v.cneg()?;
            }
        }
        self.basis[r] = c;
        self.scratch = prow;
        Some(())
    }

    /// Clears column `c` from every row but `r` and from the cost row,
    /// for a pivot element `p` of any size.
    fn eliminate(&mut self, r: usize, c: usize, p: C, prow: &[C]) -> Option<()> {
        let stride = self.stride;
        for i in 0..self.rows() {
            if i == r {
                continue;
            }
            let f = self.data[i * stride + c];
            if f == C::ZERO {
                continue;
            }
            let row = &mut self.data[i * stride..(i + 1) * stride];
            for (v, &pv) in row.iter_mut().zip(prow.iter()) {
                *v = v.cmul(p)?.csub(f.cmul(pv)?)?;
            }
            self.den[i] = self.den[i].cmul(p)?;
            self.normalize_row(i)?;
        }
        let f = self.cost[c];
        if f != C::ZERO {
            for (v, &pv) in self.cost.iter_mut().zip(prow.iter()) {
                *v = v.cmul(p)?.csub(f.cmul(pv)?)?;
            }
            self.valnum = self.valnum.cmul(p)?.cadd(f.cmul(prow[self.ncols])?)?;
            self.cost_den = self.cost_den.cmul(p)?;
            self.normalize_cost()?;
        }
        Some(())
    }

    /// [`IntTableau::eliminate`] for a pivot element of `+1` (`plus`) or
    /// `-1` — four pivots in five. There the formula reads
    /// `a_i ∓ a_ic * a_r` over an unchanged denominator, so a touched row
    /// is written only where `a_r` is non-zero (a tenth of the columns,
    /// on scheduling tableaux) and a row over denominator 1 needs no
    /// content pass. The integers stored, and the cells an overflow is
    /// reported on, are those of the general formula.
    fn eliminate_unit(&mut self, r: usize, c: usize, plus: bool, prow: &[C]) -> Option<()> {
        let stride = self.stride;
        let ncols = self.ncols;
        let step = |v: C, f: C, pv: C| {
            let t = f.cmul(pv)?;
            if plus {
                v.csub(t)
            } else {
                v.cadd(t)
            }
        };
        let mut nonzero = std::mem::take(&mut self.nonzero);
        nonzero.clear();
        nonzero.extend((0..stride).filter(|&j| prow[j] != C::ZERO));
        for i in 0..self.rows() {
            if i == r {
                continue;
            }
            let f = self.data[i * stride + c];
            if f == C::ZERO {
                continue;
            }
            let row = &mut self.data[i * stride..(i + 1) * stride];
            for &j in &nonzero {
                row[j] = step(row[j], f, prow[j])?;
            }
            if self.den[i] != C::ONE {
                reduce_content(&mut self.den[i], row);
            }
        }
        let f = self.cost[c];
        if f != C::ZERO {
            for &j in nonzero.iter().filter(|&&j| j < ncols) {
                self.cost[j] = step(self.cost[j], f, prow[j])?;
            }
            // The value is minus the cost row's right-hand side, so its
            // update mirrors the entries': `valnum * p + f * b_r`.
            let t = f.cmul(prow[ncols])?;
            self.valnum = if plus {
                self.valnum.cadd(t)?
            } else {
                self.valnum.csub(t)?
            };
            if self.cost_den != C::ONE {
                self.normalize_cost()?;
            }
        }
        self.nonzero = nonzero;
        Some(())
    }

    /// Installs an integer objective row, pricing it out against the
    /// current basis (basic columns end with reduced cost zero). Mirrors
    /// the rational `install_objective` row-for-row.
    fn install_objective(&mut self, cost: Vec<C>) -> Option<()> {
        debug_assert_eq!(cost.len(), self.ncols);
        self.cost = cost;
        self.valnum = C::ZERO;
        self.cost_den = C::ONE;
        let stride = self.stride;
        for r in 0..self.rows() {
            let cb = self.cost[self.basis[r]];
            if cb == C::ZERO {
                continue;
            }
            // Positive by the positive-scale invariant: the rational row
            // has +1 in its basic column.
            let pb = self.data[r * stride + self.basis[r]];
            debug_assert!(pb > C::ZERO);
            let mut valnum = self.valnum.cmul(pb)?;
            for (v, j) in self.cost.iter_mut().zip(0..) {
                *v = v.cmul(pb)?.csub(cb.cmul(self.data[r * stride + j])?)?;
            }
            valnum = valnum.cadd(cb.cmul(self.data[r * stride + self.ncols])?)?;
            self.valnum = valnum;
            self.cost_den = self.cost_den.cmul(pb)?;
            self.normalize_cost()?;
        }
        Some(())
    }

    /// Primal simplex with Bland's rule; identical pivot choices to the
    /// rational reference. Aborts on overflow or a tripped budget. Pivots
    /// are ticked into [`crate::counters`] one by one so an in-flight
    /// solve is visible to budget pivot caps.
    fn run(&mut self, budget: &Budget, phase1: bool) -> Result<RunResult, SolveAbort> {
        loop {
            budget.check()?;
            let Some(c) = (0..self.ncols).find(|&j| self.enterable(j) && self.cost[j] < C::ZERO)
            else {
                return Ok(RunResult::Optimal);
            };
            // Min-ratio on b_r / a_rc (per-row denominators cancel),
            // cross-multiplied; ties break on the smaller basis index.
            let mut leave: Option<usize> = None;
            for r in 0..self.rows() {
                let arc = self.at(r, c);
                if arc <= C::ZERO {
                    continue;
                }
                let better = match leave {
                    None => true,
                    Some(l) => {
                        match ov(C::cmp_products(self.b(r), self.at(l, c), self.b(l), arc))? {
                            Ordering::Less => true,
                            Ordering::Equal => self.basis[r] < self.basis[l],
                            Ordering::Greater => false,
                        }
                    }
                };
                if better {
                    leave = Some(r);
                }
            }
            let Some(r) = leave else {
                return Ok(RunResult::Unbounded);
            };
            ov(self.pivot(r, c))?;
            if phase1 {
                counters::count_lp_phase1_pivots(1);
            } else {
                counters::count_lp_phase2_pivots(1);
            }
        }
    }

    /// Reads the installed objective's optimum off the basic rows. A
    /// basic variable's value is `b_r / a_r,bv` — the row denominator
    /// cancels, and `a_r,bv > 0` by the positive-scale invariant; the
    /// objective value is `valnum / cost_den`, unscaled by `obj_scale`
    /// and shifted by the objective's constant term.
    fn read_out(&self, n: usize, split: bool, obj_scale: i128, obj_const: Rat) -> Vertex {
        let mut point = vec![Rat::ZERO; n];
        let mut basic = vec![false; self.ncols];
        for r in 0..self.rows() {
            let bv = self.basis[r];
            basic[bv] = true;
            if bv < n {
                point[bv] += Rat::new(self.b(r).widen(), self.at(r, bv).widen());
            } else if split && bv < 2 * n {
                point[bv - n] -= Rat::new(self.b(r).widen(), self.at(r, bv).widen());
            }
        }
        let unique = (0..self.ncols)
            .all(|j| basic[j] || !self.enterable(j) || self.cost[j] > C::ZERO)
            && (self.art_lo..self.art_hi).all(|j| !basic[j]);
        Vertex {
            value: Rat::new(self.valnum.widen(), self.cost_den.widen()) / Rat::int(obj_scale)
                + obj_const,
            point,
            unique,
        }
    }

    /// Appends a fresh all-zero column (re-striding the flat storage) and
    /// returns its index: the slack of a row [`Solved::extend`] takes.
    fn append_column(&mut self) -> usize {
        let old = self.stride;
        let ncols = self.ncols;
        let m = self.rows();
        let mut data = vec![C::ZERO; m * (old + 1)];
        for r in 0..m {
            let src = &self.data[r * old..(r + 1) * old];
            let dst = &mut data[r * (old + 1)..r * (old + 1) + old + 1];
            dst[..ncols].copy_from_slice(&src[..ncols]);
            dst[ncols] = C::ZERO;
            dst[ncols + 1] = src[ncols];
        }
        self.data = data;
        self.ncols += 1;
        self.stride += 1;
        self.cost.push(C::ZERO);
        ncols
    }
}

/// A tableau in solved form, the one state every LP in the crate passes
/// through: primal-feasible for the rows it holds, artificials barred,
/// and dual-feasible for the objective it has installed (the zero
/// objective straight out of [`build`]). Both verbs keep it that way —
/// [`Solved::extend`] takes rows, [`Solved::optimize`] takes an
/// objective — so they compose in any order; [`Solved::vertex`] reads the
/// optimum. `Clone` is how a caller keeps a state to return to (a context
/// base, a branch-and-bound parent).
#[derive(Clone)]
pub(crate) struct Solved {
    tab: Tab,
    /// Variables of the constraint space.
    n: usize,
    /// Whether each variable is carried as a difference `p − q` of two
    /// nonnegative columns (the space has a variable without a sign row).
    split: bool,
    /// The installed cost row is `obj_scale · (objective − obj_const)`.
    obj_scale: i128,
    obj_const: Rat,
}

/// What [`build`] made of a constraint set.
#[allow(clippy::large_enum_variant)] // built once, matched once: boxing buys nothing
pub(crate) enum Built {
    /// Trivially or phase-1 infeasible.
    Infeasible,
    /// No rows survive filtering (the whole space is `x >= 0` or free).
    Empty { split: bool },
    /// Feasibility established.
    Ready(Solved),
}

/// The optimum of the installed objective, as [`Solved::vertex`] reads it.
pub(crate) struct Vertex {
    /// The optimal value — unique, hence the one any correct solver
    /// returns, whatever the basis.
    pub(crate) value: Rat,
    /// A point attaining it; the cold path's tie-broken vertex only when
    /// `unique` holds.
    pub(crate) point: Vec<Rat>,
    /// Whether the tableau proves the optimal vertex unique: every
    /// enterable nonbasic column has a strictly positive reduced cost
    /// and (extra conservatively) no artificial sits in the basis.
    pub(crate) unique: bool,
}

thread_local! {
    /// Test hook: force every fresh tableau onto `i128` rows. Every `i64`
    /// tableau originates in [`build`], so gating the build keeps the
    /// whole downstream chain of verbs on the wide path.
    static FORCE_WIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Forces (or releases) the pure-`i128` tableau path on this thread and
/// returns the previous setting. Test-only oracle for the differential
/// suite: a run with the fast path and a forced-wide run must make
/// identical decisions and tick identical pivot counters.
pub fn set_force_wide_tableau(on: bool) -> bool {
    FORCE_WIDE.with(|f| f.replace(on))
}

/// Builds the tableau for a set and establishes feasibility: raw rows,
/// initial slack/artificial basis, phase 1 (when needed) and the
/// artificial drive-out, mirroring the rational reference row for row.
/// Everything here is a pure function of the ordered row list, so a
/// clone of the result optimized under any objective reproduces a cold
/// solve of that objective bit for bit.
fn build_typed<C: Cell>(set: &ConstraintSet, budget: &Budget) -> Result<Built, SolveAbort> {
    let n = set.n_vars();
    if set.has_trivial_contradiction() {
        return Ok(Built::Infeasible);
    }
    // Mirror of the reference: skip the p−q split (and drop the sign rows)
    // when every variable carries an explicit `x >= 0` constraint.
    let mut nonneg = vec![false; n];
    for c in set.constraints() {
        if c.kind() == ConstraintKind::Ge && is_sign_row(c.expr()) {
            if let Some(v) = single_var(c.expr()) {
                nonneg[v] = true;
            }
        }
    }
    let split = !nonneg.iter().all(|&b| b) || n == 0;
    let rows: Vec<&Constraint> = set
        .constraints()
        .iter()
        .filter(|c| split || !(c.kind() == ConstraintKind::Ge && is_sign_row(c.expr())))
        .collect();
    let m = rows.len();
    if m == 0 {
        return Ok(Built::Empty { split });
    }

    let n_x = if split { 2 * n } else { n };
    let n_slack = rows
        .iter()
        .filter(|c| c.kind() == ConstraintKind::Ge)
        .count();
    let n_struct = n_x + n_slack;

    // A row is stored with a nonnegative right-hand side and, where it
    // has one, its slack basic at +1: `expr >= 0` with a nonnegative
    // constant is flipped to `-expr + s = constant`. Every other row —
    // an equality, or a negative constant — needs an artificial, so the
    // column count is known before a cell is written and the rows go
    // straight into the flat storage. Constraints are coprime-integer by
    // construction; the integer extraction only fails on a malformed
    // expression, which the rational path then handles.
    let needs_artificial =
        |c: &Constraint| c.kind() == ConstraintKind::Eq || c.expr().constant_term().is_negative();
    let n_total = n_struct + rows.iter().filter(|c| needs_artificial(c)).count();
    let stride = n_total + 1;
    let mut data = vec![C::ZERO; m * stride];
    let mut basis = Vec::with_capacity(m);
    let (mut slack_idx, mut art_idx) = (n_x, n_struct);
    for (c, row) in rows.iter().zip(data.chunks_exact_mut(stride)) {
        let flip = !needs_artificial(c) || c.expr().constant_term().is_positive();
        let cell = |r: Rat| {
            let v = ov(C::narrow(ov(int_of(r))?))?;
            ov(if flip { v.cneg() } else { Some(v) })
        };
        for (i, coef) in c.expr().coeffs().iter().enumerate() {
            row[i] = cell(*coef)?;
            if split {
                row[n + i] = ov(row[i].cneg())?;
            }
        }
        row[n_total] = ov(cell(c.expr().constant_term())?.cneg())?;
        if c.kind() == ConstraintKind::Ge {
            row[slack_idx] = if flip { C::ONE } else { C::NEG_ONE };
            slack_idx += 1;
        }
        if needs_artificial(c) {
            row[art_idx] = C::ONE;
            basis.push(art_idx);
            art_idx += 1;
        } else {
            basis.push(slack_idx - 1);
        }
    }
    let needy = n_total - n_struct;

    let mut tab = IntTableau {
        ncols: n_total,
        stride,
        data,
        den: vec![C::ONE; m],
        cost: vec![C::ZERO; n_total],
        valnum: C::ZERO,
        cost_den: C::ONE,
        basis,
        art_lo: n_struct,
        art_hi: n_total,
        bar_artificials: false,
        scratch: Vec::with_capacity(stride),
        nonzero: Vec::new(),
    };

    // Phase 1: minimize the artificial sum.
    if needy > 0 {
        let mut phase1 = vec![C::ZERO; n_total];
        for slot in phase1.iter_mut().take(n_total).skip(n_struct) {
            *slot = C::ONE;
        }
        ov(tab.install_objective(phase1))?;
        let res = tab.run(budget, true)?;
        if res == RunResult::Unbounded {
            unreachable!("phase-1 objective is bounded below by zero");
        }
        if tab.valnum > C::ZERO {
            return Ok(Built::Infeasible);
        }
        // Drive basic artificials out where a structural pivot exists.
        for r in 0..m {
            if tab.basis[r] >= n_struct {
                if let Some(c) = (0..n_struct).find(|&c| tab.at(r, c) != C::ZERO) {
                    ov(tab.pivot(r, c))?;
                    counters::count_lp_phase1_pivots(1);
                }
            }
        }
        // Leave the zero objective behind: dual-feasible for any basis,
        // so the result takes rows as readily as an objective.
        tab.cost.fill(C::ZERO);
        tab.valnum = C::ZERO;
        tab.cost_den = C::ONE;
    }
    tab.bar_artificials = true;
    Ok(Built::Ready(Solved {
        tab: C::wrap(tab),
        n,
        split,
        obj_scale: 1,
        obj_const: Rat::ZERO,
    }))
}

/// [`build_typed`] behind the width dispatch. There is no tableau to
/// widen yet, so an `i64` overflow redoes the whole build on `i128` rows
/// (pivot counters rewound, as in [`Solved::apply`]).
pub(crate) fn build(set: &ConstraintSet, budget: &Budget) -> Result<Built, SolveAbort> {
    if FORCE_WIDE.with(|f| f.get()) {
        return build_typed::<i128>(set, budget);
    }
    let marks = counters::pivot_marks();
    match build_typed::<i64>(set, budget) {
        Ok(built) => {
            if !matches!(built, Built::Empty { .. }) {
                counters::count_tab_i64_solve(1);
            }
            Ok(built)
        }
        Err(SolveAbort::Overflow) => {
            counters::rewind_pivots(marks);
            counters::count_tab_overflow_escalation(1);
            build_typed::<i128>(set, budget)
        }
        Err(e @ (SolveAbort::Budget(_) | SolveAbort::PivotLimit)) => Err(e),
    }
}

/// One of the two operations on a [`Solved`], as data, so that
/// [`Solved::apply`] can run it at either cell width.
#[derive(Clone, Copy)]
enum Verb<'a> {
    Extend(&'a [Constraint]),
    /// The objective and the positive scale that clears its denominators.
    Optimize(&'a LinExpr, i128),
}

impl Verb<'_> {
    /// Runs the verb on typed cells. `Ok(false)` is the verb's
    /// basis-independent dead end: the extended system is infeasible, or
    /// the objective is unbounded below.
    fn run<C: Cell>(
        self,
        tab: &mut IntTableau<C>,
        n: usize,
        split: bool,
        budget: &Budget,
    ) -> Result<bool, SolveAbort> {
        match self {
            Verb::Extend(rows) => {
                for c in rows {
                    // Mirror the build's row filter: in a non-split space,
                    // sign rows are implicit and never materialized.
                    if c.kind() == ConstraintKind::Ge && is_sign_row(c.expr()) {
                        continue;
                    }
                    if !append_priced_row(tab, c)? {
                        return Ok(false);
                    }
                }
                dual_repair(tab, budget)
            }
            Verb::Optimize(objective, obj_scale) => {
                // The scale is positive, so reduced-cost signs — and hence
                // pivots — are those of the unscaled objective.
                let mut phase2 = vec![C::ZERO; tab.ncols];
                for i in 0..n {
                    let c = objective.coeff(i);
                    let v = ov(c.numer().checked_mul(obj_scale / c.denom()))?;
                    phase2[i] = ov(C::narrow(v))?;
                    if split {
                        phase2[n + i] = ov(C::narrow(ov(v.checked_neg())?))?;
                    }
                }
                ov(tab.install_objective(phase2))?;
                Ok(tab.run(budget, false)? == RunResult::Optimal)
            }
        }
    }
}

impl Solved {
    /// Runs a verb in place — the crate's one `i64`→`i128` escalation of
    /// an existing tableau. On `i64` cells the pre-operation state is
    /// kept aside; if the attempt overflows, the pivot counters it ticked
    /// are rewound, the escalation is counted, and the verb is redone on
    /// the widened copy, which then replaces the tableau. Budget and
    /// pivot-limit aborts pass through untouched (wider cells would
    /// replay the same pivots). After an `Err` the tableau is mid-pivot
    /// and only good for dropping.
    fn apply(&mut self, verb: Verb<'_>, budget: &Budget) -> Result<bool, SolveAbort> {
        let (n, split) = (self.n, self.split);
        match &mut self.tab {
            Tab::Big(t) => verb.run(t, n, split, budget),
            Tab::Small(t) => {
                let marks = counters::pivot_marks();
                let backup = t.clone();
                match verb.run(t, n, split, budget) {
                    Ok(done) => {
                        counters::count_tab_i64_solve(1);
                        Ok(done)
                    }
                    Err(SolveAbort::Overflow) => {
                        counters::rewind_pivots(marks);
                        counters::count_tab_overflow_escalation(1);
                        let mut big = widen_tab(&backup);
                        let done = verb.run(&mut big, n, split, budget);
                        self.tab = Tab::Big(big);
                        done
                    }
                    Err(e @ (SolveAbort::Budget(_) | SolveAbort::PivotLimit)) => Err(e),
                }
            }
        }
    }

    /// Prices `rows` in against the current basis and repairs primal
    /// feasibility with dual simplex pivots, keeping the installed
    /// objective optimal. `Ok(false)` means the extended system has no
    /// feasible point — a basis-independent fact, safe to report without
    /// a cold re-solve. Needs a non-split space ([`Solved::extendable`]).
    pub(crate) fn extend(
        &mut self,
        rows: &[Constraint],
        budget: &Budget,
    ) -> Result<bool, SolveAbort> {
        debug_assert!(!self.split);
        if rows.is_empty() {
            return Ok(true);
        }
        self.apply(Verb::Extend(rows), budget)
    }

    /// Installs `objective` and runs primal simplex from the current
    /// basis — phase 2 of a cold solve when the tableau comes straight
    /// from [`build`], a warm re-optimization otherwise. `Ok(false)`
    /// means the LP is unbounded below (basis-independent, hence exact).
    pub(crate) fn optimize(
        &mut self,
        objective: &LinExpr,
        budget: &Budget,
    ) -> Result<bool, SolveAbort> {
        self.obj_scale = (0..self.n).fold(1, |s, i| lcm(s, objective.coeff(i).denom()));
        self.obj_const = objective.constant_term();
        self.apply(Verb::Optimize(objective, self.obj_scale), budget)
    }

    /// The optimum of the installed objective; meaningful after a verb
    /// returned `Ok(true)`.
    pub(crate) fn vertex(&self) -> Vertex {
        match &self.tab {
            Tab::Small(t) => t.read_out(self.n, self.split, self.obj_scale, self.obj_const),
            Tab::Big(t) => t.read_out(self.n, self.split, self.obj_scale, self.obj_const),
        }
    }

    /// `Some(self)` when the tableau can take rows: appended rows are
    /// written over the `n` natural columns only, which a sign-split
    /// space does not have.
    pub(crate) fn extendable(self) -> Option<Solved> {
        (!self.split).then_some(self)
    }
}

/// A cold LP: build, then optimize. Mirrors the rational reference
/// decision for decision; aborts with [`SolveAbort::Overflow`] if any
/// intermediate value overflows `i128` (callers fall back to the
/// reference solver) and propagates budget errors. Beside the outcome it
/// hands back the optimal tableau when that can serve as a warm start.
pub(crate) fn solve_int(
    objective: &LinExpr,
    set: &ConstraintSet,
    budget: &Budget,
) -> Result<(LpOutcome, Option<Solved>), SolveAbort> {
    match build(set, budget)? {
        Built::Infeasible => Ok((LpOutcome::Infeasible, None)),
        Built::Empty { split } => {
            let unbounded = if split {
                !objective.is_constant()
            } else {
                objective.coeffs().iter().any(Rat::is_negative)
            };
            let out = if unbounded {
                LpOutcome::Unbounded
            } else {
                LpOutcome::Optimal {
                    point: vec![Rat::ZERO; set.n_vars()],
                    value: objective.constant_term(),
                }
            };
            Ok((out, None))
        }
        Built::Ready(mut solved) => {
            if !solved.optimize(objective, budget)? {
                return Ok((LpOutcome::Unbounded, None));
            }
            let Vertex { value, point, .. } = solved.vertex();
            Ok((LpOutcome::Optimal { point, value }, solved.extendable()))
        }
    }
}

/// Appends one constraint to a solved tableau, priced out against the
/// current basis. A `Ge` row gets a fresh slack column and enters the
/// basis through it (possibly primal-infeasible, i.e. negative); an `Eq`
/// row pivots in through its smallest enterable nonzero column, or is
/// dropped when it prices out to an identity the current rows imply.
/// Either way the caller must restore primal feasibility with
/// [`dual_repair`]. `Ok(false)` means the row priced out to `0 = rhs`
/// with `rhs != 0`: the extended system has no feasible point
/// (basis-independent, hence exact).
fn append_priced_row<C: Cell>(
    tab: &mut IntTableau<C>,
    extra: &Constraint,
) -> Result<bool, SolveAbort> {
    let slack_col = if extra.kind() == ConstraintKind::Ge {
        Some(tab.append_column())
    } else {
        None
    };
    let stride = tab.stride;
    let ncols = tab.ncols;

    // New row for `expr - s = 0` (resp. `expr = 0`).
    let mut row = vec![C::ZERO; stride];
    for (i, coef) in extra.expr().coeffs().iter().enumerate() {
        row[i] = ov(C::narrow(ov(int_of(*coef))?))?;
    }
    if let Some(col) = slack_col {
        row[col] = C::NEG_ONE;
    }
    row[ncols] = ov(C::narrow(ov(
        ov(int_of(extra.expr().constant_term()))?.checked_neg()
    )?))?;
    let mut den: C = C::ONE;
    // Price the row out against the current basis: zero each basic column
    // (basic columns of distinct rows are disjoint, so one sweep works).
    // The running row stays content-reduced, as `install_objective` keeps
    // the cost row: a dense row (a lexmin pin over every statement block)
    // multiplies through one pivot per basic column it touches, and the
    // unreduced product overflows even `i128` on rows whose reduced form
    // fits `i64`. The row is stored as the sweep leaves it: reduced, over
    // a positive denominator.
    for r in 0..tab.rows() {
        let cb = tab.basis[r];
        let f = row[cb];
        if f == C::ZERO {
            continue;
        }
        let pb = tab.at(r, cb);
        debug_assert!(pb > C::ZERO);
        for (j, v) in row.iter_mut().enumerate() {
            let scaled = ov(v.cmul(pb))?;
            let sub = ov(f.cmul(tab.data[r * stride + j]))?;
            *v = ov(scaled.csub(sub))?;
        }
        den = ov(den.cmul(pb))?;
        reduce_content(&mut den, &mut row);
    }
    let r_new = tab.rows();
    match slack_col {
        Some(col) => {
            // The eliminations only scaled the fresh slack's coefficient,
            // which started at -1: negate the row so the slack is basic
            // with a positive coefficient (the positive-scale invariant).
            debug_assert!(row[col] < C::ZERO);
            for v in row.iter_mut() {
                *v = ov(v.cneg())?;
            }
            tab.data.extend_from_slice(&row);
            tab.den.push(den);
            tab.basis.push(col);
        }
        None => {
            // An equality row has no slack of its own: pick a basic column
            // among the enterable ones. Pricing already zeroed every basic
            // column, and barred artificials are pinned to zero in any
            // represented solution, so if no enterable column remains the
            // row reads `0 = rhs`.
            let Some(c) = (0..ncols).find(|&j| tab.enterable(j) && row[j] != C::ZERO) else {
                return Ok(row[ncols] == C::ZERO);
            };
            tab.data.extend_from_slice(&row);
            tab.den.push(den);
            tab.basis.push(c);
            ov(tab.pivot(r_new, c))?;
            counters::count_bb_repair_pivots(1);
        }
    }
    Ok(true)
}

/// Dual simplex: the basis must be dual-feasible (reduced costs
/// nonnegative for the installed objective); repairs primal feasibility.
/// Bland-style anti-cycling: leaving row with the smallest basis index
/// among the violated, entering column by cross-multiplied dual ratio
/// with ties to the smallest column. Returns `Ok(false)` when the dual is
/// unbounded, i.e. the primal has no feasible point.
fn dual_repair<C: Cell>(tab: &mut IntTableau<C>, budget: &Budget) -> Result<bool, SolveAbort> {
    let mut pivots = 0u64;
    loop {
        budget.check()?;
        let mut leave: Option<usize> = None;
        for r in 0..tab.rows() {
            if tab.b(r) < C::ZERO && leave.is_none_or(|l| tab.basis[r] < tab.basis[l]) {
                leave = Some(r);
            }
        }
        let Some(r) = leave else {
            return Ok(true);
        };
        let mut enter: Option<usize> = None;
        for j in 0..tab.ncols {
            if !tab.enterable(j) || tab.at(r, j) >= C::ZERO {
                continue;
            }
            let na_j = ov(tab.at(r, j).cneg())?;
            let better = match enter {
                None => true,
                Some(e) => {
                    let na_e = ov(tab.at(r, e).cneg())?;
                    ov(C::cmp_products(tab.cost[j], na_e, tab.cost[e], na_j))? == Ordering::Less
                }
            };
            if better {
                enter = Some(j);
            }
        }
        let Some(c) = enter else {
            return Ok(false);
        };
        ov(tab.pivot(r, c))?;
        counters::count_bb_repair_pivots(1);
        pivots += 1;
        if pivots > dual_pivot_limit() {
            return Err(SolveAbort::PivotLimit);
        }
    }
}

fn int_of(r: Rat) -> Option<i128> {
    r.to_integer()
}

/// Whether the expression is exactly `x_v` for some variable `v` (an
/// explicit sign constraint when used as `expr >= 0`).
pub(crate) fn is_sign_row(e: &LinExpr) -> bool {
    e.constant_term().is_zero()
        && e.coeffs().iter().filter(|c| !c.is_zero()).count() == 1
        && e.coeffs().iter().all(|c| c.is_zero() || *c == Rat::ONE)
}

pub(crate) fn single_var(e: &LinExpr) -> Option<usize> {
    e.coeffs().iter().position(|c| !c.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_arith::SplitMix64;

    /// The content reduction [`reduce_content`] replaced: a GCD with
    /// every entry, then a division of every entry.
    fn reduce_content_reference<C: Cell>(den: &mut C, row: &mut [C]) {
        let mut g = *den;
        for &v in row.iter() {
            if g == C::ONE {
                return;
            }
            g = C::gcd(g, v);
        }
        if g > C::ONE {
            *den = den.div_exact(g);
            for v in row.iter_mut() {
                *v = v.div_exact(g);
            }
        }
    }

    /// The pivot [`IntTableau::pivot`] replaced: the dense fraction-free
    /// formula whatever the pivot element, the denominator's sign
    /// restored and the content reduced over every touched row.
    fn pivot_reference<C: Cell>(t: &mut IntTableau<C>, r: usize, c: usize) -> Option<()> {
        let (stride, ncols) = (t.stride, t.ncols);
        let prow = t.data[r * stride..(r + 1) * stride].to_vec();
        let p = prow[c];
        for i in (0..t.rows()).filter(|&i| i != r) {
            let f = t.data[i * stride + c];
            if f == C::ZERO {
                continue;
            }
            let row = &mut t.data[i * stride..(i + 1) * stride];
            for (v, &pv) in row.iter_mut().zip(&prow) {
                *v = v.cmul(p)?.csub(f.cmul(pv)?)?;
            }
            t.den[i] = t.den[i].cmul(p)?;
            if t.den[i] < C::ZERO {
                t.den[i] = t.den[i].cneg()?;
                for v in row.iter_mut() {
                    *v = v.cneg()?;
                }
            }
            reduce_content_reference(&mut t.den[i], row);
        }
        let f = t.cost[c];
        if f != C::ZERO {
            for (v, &pv) in t.cost.iter_mut().zip(&prow) {
                *v = v.cmul(p)?.csub(f.cmul(pv)?)?;
            }
            t.valnum = t.valnum.cmul(p)?.cadd(f.cmul(prow[ncols])?)?;
            t.cost_den = t.cost_den.cmul(p)?;
            if t.cost_den < C::ZERO {
                t.cost_den = t.cost_den.cneg()?;
                t.valnum = t.valnum.cneg()?;
                for v in t.cost.iter_mut() {
                    *v = v.cneg()?;
                }
            }
            // The value rides along as one more entry of the cost row.
            t.cost.push(t.valnum);
            reduce_content_reference(&mut t.cost_den, &mut t.cost);
            t.valnum = t.cost.pop().expect("pushed above");
        }
        if p < C::ZERO {
            for v in t.data[r * stride..(r + 1) * stride].iter_mut() {
                *v = v.cneg()?;
            }
        }
        t.basis[r] = c;
        Some(())
    }

    /// A sparse entry: mostly zero or a unit, sometimes a small integer,
    /// rarely one within a few bits of the cell's edge `2^bits`.
    fn arb_cell<C: Cell>(g: &mut SplitMix64, bits: u32) -> C {
        let v = match g.below(24) {
            0..=12 => 0,
            13..=18 => [1, -1][g.below(2)],
            19..=22 => g.range_i128(-6, 7),
            _ => [1, -1][g.below(2)] * (i128::MAX >> (127 - bits + g.below(6) as u32)),
        };
        C::narrow(v).expect("within the cell's range")
    }

    /// A random tableau in the state every pivot finds one: rows and the
    /// cost row content-reduced over positive denominators.
    fn arb_tableau<C: Cell>(g: &mut SplitMix64, bits: u32) -> IntTableau<C> {
        let (m, ncols) = (2 + g.below(4), 3 + g.below(6));
        let stride = ncols + 1;
        let mut data: Vec<C> = (0..m * stride).map(|_| arb_cell(g, bits)).collect();
        let mut arb_den = || C::narrow([1, 1, 1, 2, 3, 6][g.below(6)]).expect("small");
        let mut den: Vec<C> = (0..m).map(|_| arb_den()).collect();
        for (d, row) in den.iter_mut().zip(data.chunks_exact_mut(stride)) {
            reduce_content_reference(d, row);
        }
        let mut cost_den = arb_den();
        let mut cost: Vec<C> = (0..stride).map(|_| arb_cell(g, bits)).collect();
        reduce_content_reference(&mut cost_den, &mut cost);
        let valnum = cost.pop().expect("stride >= 1");
        IntTableau {
            ncols,
            stride,
            data,
            den,
            cost,
            valnum,
            cost_den,
            basis: (0..m).collect(),
            art_lo: ncols,
            art_hi: ncols,
            bar_artificials: false,
            scratch: Vec::new(),
            nonzero: Vec::new(),
        }
    }

    /// Chains of random pivots through [`IntTableau::pivot`] and through
    /// the formula it replaced: the same pivots overflow, and every other
    /// one leaves the same cells, denominators, cost row and basis. The
    /// overflow parity is what keeps `tab_overflow_escalations` where
    /// the counter snapshot has it.
    fn pivots_match_reference<C: Cell>(seed: u64, bits: u32) {
        let mut g = SplitMix64::new(seed);
        let (mut unit, mut general, mut overflowed) = (0, 0, 0);
        for _ in 0..3000 {
            let mut t: IntTableau<C> = arb_tableau(&mut g, bits);
            for _ in 0..6 {
                let spots: Vec<(usize, usize)> = (0..t.rows())
                    .flat_map(|r| (0..t.ncols).map(move |c| (r, c)))
                    .filter(|&(r, c)| t.at(r, c) != C::ZERO)
                    .collect();
                if spots.is_empty() {
                    break;
                }
                let (r, c) = spots[g.below(spots.len())];
                let p = t.at(r, c);
                let mut reference = t.clone();
                let want = pivot_reference(&mut reference, r, c);
                let got = t.pivot(r, c);
                assert_eq!(got, want, "pivot on {p:?} at ({r}, {c})");
                if got.is_none() {
                    overflowed += 1;
                    break;
                }
                if p == C::ONE || p == C::NEG_ONE {
                    unit += 1;
                } else {
                    general += 1;
                }
                assert_eq!(t.data, reference.data, "cells after {p:?} at ({r}, {c})");
                assert_eq!(t.den, reference.den);
                assert_eq!(t.cost, reference.cost);
                assert_eq!(
                    (t.valnum, t.cost_den),
                    (reference.valnum, reference.cost_den)
                );
                assert_eq!(t.basis, reference.basis);
            }
        }
        assert!(
            unit > 1000 && general > 1000 && overflowed > 100,
            "{unit} unit, {general} general, {overflowed} overflowed"
        );
    }

    #[test]
    fn pivots_match_the_dense_reference_at_both_widths() {
        pivots_match_reference::<i64>(0x5eed_0233, 63);
        pivots_match_reference::<i128>(0x5eed_0234, 127);
    }

    fn content_reduction_matches_reference<C: Cell>(seed: u64, bits: u32) {
        let mut g = SplitMix64::new(seed);
        let mut reduced = 0;
        for _ in 0..5000 {
            let factor = [1, 1, 2, 3, 4, 6, 35][g.below(7)];
            let entry = |g: &mut SplitMix64| {
                let v = arb_cell::<C>(g, bits - 8).widen() * factor;
                C::narrow(v).expect("eight bits of headroom")
            };
            let mut row: Vec<C> = (0..g.below(10)).map(|_| entry(&mut g)).collect();
            let mut den = C::narrow(factor * g.range_i128(1, 9)).expect("small");
            let (mut want_row, mut want_den) = (row.clone(), den);
            reduce_content_reference(&mut want_den, &mut want_row);
            reduce_content(&mut den, &mut row);
            assert_eq!((den, &row), (want_den, &want_row));
            reduced += usize::from(den != want_den || factor > 1);
        }
        assert!(reduced > 1000, "{reduced} rows had content to lose");
    }

    #[test]
    fn content_reduction_matches_the_reference_at_both_widths() {
        content_reduction_matches_reference::<i64>(0x5eed_0235, 63);
        content_reduction_matches_reference::<i128>(0x5eed_0236, 127);
    }
}
