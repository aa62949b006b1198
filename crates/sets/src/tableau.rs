//! Fraction-free integer simplex tableau.
//!
//! The historical solver (kept as [`crate::minimize_reference`]) stores a
//! dense tableau of [`Rat`] entries and pays a GCD normalization on every
//! entry of every pivot. This module stores each row as integer entries
//! over a single positive per-row denominator (`row_rational = a / den`),
//! in the style of Edmonds/Bareiss fraction-free elimination: a pivot is
//! two integer multiplies and a subtract per entry, with one early-exiting
//! content-GCD pass per *row* instead of per *entry*, and rationals are
//! only materialized at solution read-out.
//!
//! # Machine-int fast path
//!
//! The tableau is generic over its cell type ([`Cell`]): scheduling
//! systems have small coefficients, so solves start on `i64` rows —
//! roughly half the memory traffic and markedly cheaper multiplies than
//! `i128`. All arithmetic is checked; when an `i64` operation overflows,
//! the *whole operation* (prepare, finish, warm re-solve, context extend
//! or re-optimize) is redone from its pristine pre-operation state on
//! `i128` rows, after rewinding the pivot counters the abandoned attempt
//! ticked. Both representations run the identical algorithm on identical
//! integer entries (an `i64` tableau widened to `i128` is exactly the
//! tableau a pure-`i128` run would hold at that point), so the decision
//! sequence, the returned outcome, *and the final counter values* are
//! bit-for-bit those of a pure-`i128` run — the escalation is invisible
//! except to the `tab_i64_solves` / `tab_overflow_escalations` counters.
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
//! Any overflow of the widest (`i128`) representation aborts the integer
//! solve with [`SolveAbort::Overflow`] and the caller falls back to the
//! rational reference, so no new panic paths are introduced. Budget trips
//! ([`SolveAbort::Budget`]) propagate out instead — a cancelled or
//! exhausted solve must not silently restart on the slower rational path,
//! and never triggers an `i64`→`i128` escalation.

use crate::budget::{Budget, BudgetError};
use crate::constraint::{Constraint, ConstraintKind, ConstraintSet};
use crate::counters;
use crate::linexpr::LinExpr;
use crate::simplex::LpOutcome;
use polyject_arith::{lcm, Rat};
use std::cmp::Ordering;

/// Cap on dual-simplex repair pivots per warm-started node; beyond it the
/// node falls back to a cold solve (Bland's rule terminates in theory, but
/// the cap bounds the damage of any bug).
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
    /// the operation wrapper escalates to `i128`; for `i128` cells the
    /// caller falls back to the cold/rational path, exactly as the
    /// historical `None` return did.
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

/// Maps the checked-arithmetic `None` onto [`SolveAbort::Overflow`].
#[inline]
fn ov<T>(o: Option<T>) -> Result<T, SolveAbort> {
    o.ok_or(SolveAbort::Overflow)
}

/// Integer cell of a tableau: checked arithmetic over a symmetric range
/// plus the exact cross-multiplied comparison the ratio tests need.
///
/// The `i64` implementation keeps its range symmetric (`i64::MIN` is
/// rejected everywhere) so negation is total on representable values, and
/// widens ratio-test products to `i128`, where they always fit — a ratio
/// comparison alone never forces an escalation. The `i128` implementation
/// preserves the historical checked-`i128` semantics verbatim.
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
        Some(v)
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
        self.checked_add(o)
    }
    #[inline]
    fn csub(self, o: i128) -> Option<i128> {
        self.checked_sub(o)
    }
    #[inline]
    fn cmul(self, o: i128) -> Option<i128> {
        self.checked_mul(o)
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
    scratch: Vec<C>,
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
    }
}

/// Divides a row and its positive denominator by their content GCD. The
/// accumulation starts from the denominator and exits as soon as it hits
/// 1, so already-reduced rows cost a handful of compares.
fn reduce_content<C: Cell>(den: &mut C, row: &mut [C]) {
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
        let mut g = C::gcd(self.cost_den, self.valnum);
        for &v in self.cost.iter() {
            if g == C::ONE {
                return Some(());
            }
            g = C::gcd(g, v);
        }
        if g > C::ONE {
            self.cost_den = self.cost_den.div_exact(g);
            self.valnum = self.valnum.div_exact(g);
            for v in self.cost.iter_mut() {
                *v = v.div_exact(g);
            }
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

    /// Accumulates the values of the original variables from the basic
    /// rows. The basic value is `b_r / a_r,bv` — the row denominator
    /// cancels, and `a_r,bv > 0` by the positive-scale invariant.
    fn read_point(&self, n: usize, split: bool) -> Vec<Rat> {
        let mut point = vec![Rat::ZERO; n];
        for r in 0..self.rows() {
            let bv = self.basis[r];
            if bv < n {
                point[bv] += Rat::new(self.b(r).widen(), self.at(r, bv).widen());
            } else if split && bv < 2 * n {
                point[bv - n] -= Rat::new(self.b(r).widen(), self.at(r, bv).widen());
            }
        }
        point
    }

    /// The objective value `valnum / cost_den`, unscaled by `obj_scale`
    /// and shifted by the objective's constant term.
    fn value(&self, obj_scale: i128, obj_const: Rat) -> Rat {
        Rat::new(self.valnum.widen(), self.cost_den.widen()) / Rat::int(obj_scale) + obj_const
    }

    /// Appends a fresh all-zero column (re-striding the flat storage) and
    /// returns its index. Used by warm starts to add the new bound's slack.
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

/// The exported optimal basis of a solved LP over a non-split variable
/// space, reusable as a dual-simplex warm start after one more constraint
/// is pushed (branch-and-bound's child nodes).
#[derive(Clone)]
pub(crate) struct LpBasis {
    tab: Tab,
    n: usize,
    obj_scale: i128,
    obj_const: Rat,
}

/// Result of a warm-started (dual simplex) re-solve.
pub(crate) enum WarmOutcome {
    /// The child LP is empty. Always safe to use: no point is produced.
    Infeasible,
    /// The child LP solved to optimality. `value` is always trustworthy
    /// (the optimal value is unique); `point` may be used only when
    /// `unique` proves the optimal vertex is the one every correct solver
    /// — in particular the cold reference path — must return.
    Optimal {
        value: Rat,
        point: Vec<Rat>,
        unique: bool,
        basis: Box<LpBasis>,
    },
}

/// The objective-independent half of a solve: a tableau whose feasibility
/// has been established (phase 1 run, artificials driven out and barred),
/// ready to accept any phase-2 objective. Cloning one and finishing it
/// with [`finish_int`] reproduces a cold [`solve_int`] bit-for-bit,
/// because everything up to `install_objective(phase2)` is a pure
/// function of the ordered row list.
#[derive(Clone)]
pub(crate) struct PreparedTab {
    tab: Tab,
    n: usize,
    split: bool,
}

/// Outcome of the objective-independent preparation pass.
#[allow(clippy::large_enum_variant)] // built once, matched once: boxing buys nothing
pub(crate) enum Prep {
    /// Trivially or phase-1 infeasible.
    Infeasible,
    /// No rows survive filtering (the whole space is `x >= 0` or free).
    Empty { split: bool },
    /// Feasibility established.
    Ready(PreparedTab),
}

/// Typed intermediate of [`prepare_typed`], before width-erasure.
#[allow(clippy::large_enum_variant)]
enum PrepT<C: Cell> {
    Infeasible,
    Empty {
        split: bool,
    },
    Ready {
        tab: IntTableau<C>,
        n: usize,
        split: bool,
    },
}

thread_local! {
    /// Test hook: force every fresh tableau onto `i128` rows. Since every
    /// `i64` tableau originates in [`prepare_int`], gating the build is
    /// enough to keep the whole downstream chain (warm starts, context
    /// extends, re-optimizations) on the wide path.
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
/// artificial drive-out — everything [`solve_int`] does before the
/// phase-2 objective is installed, verbatim.
fn prepare_typed<C: Cell>(set: &ConstraintSet, budget: &Budget) -> Result<PrepT<C>, SolveAbort> {
    let n = set.n_vars();
    if set.has_trivial_contradiction() {
        return Ok(PrepT::Infeasible);
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
        return Ok(PrepT::Empty { split });
    }

    let n_x = if split { 2 * n } else { n };
    let n_slack = rows
        .iter()
        .filter(|c| c.kind() == ConstraintKind::Ge)
        .count();
    let n_struct = n_x + n_slack;

    // Constraints are coprime-integer by construction; the defensive
    // integer extraction below only fails on a malformed expression, in
    // which case the rational path handles it. Rows are assembled in
    // canonical `i128` and narrowed into the cell type at data-fill time.
    let mut raw: Vec<Vec<i128>> = Vec::with_capacity(m);
    let mut basis0: Vec<Option<usize>> = vec![None; m];
    let mut slack_idx = n_x;
    for (r, c) in rows.iter().enumerate() {
        let mut row = vec![0i128; n_struct + 1];
        for (i, coef) in c.expr().coeffs().iter().enumerate() {
            let v = ov(int_of(*coef))?;
            row[i] = v;
            if split {
                row[n + i] = ov(v.checked_neg())?;
            }
        }
        row[n_struct] = ov(ov(int_of(c.expr().constant_term()))?.checked_neg())?;
        let mut slack: Option<usize> = None;
        if c.kind() == ConstraintKind::Ge {
            row[slack_idx] = -1;
            slack = Some(slack_idx);
            slack_idx += 1;
        }
        if row[n_struct] < 0 {
            for v in row.iter_mut() {
                *v = ov(v.checked_neg())?;
            }
            basis0[r] = slack;
        } else if row[n_struct] == 0 {
            if let Some(s) = slack {
                for v in row.iter_mut() {
                    *v = ov(v.checked_neg())?;
                }
                basis0[r] = Some(s);
            }
        }
        raw.push(row);
    }
    let needy: Vec<usize> = (0..m).filter(|&r| basis0[r].is_none()).collect();
    let n_total = n_struct + needy.len();
    let stride = n_total + 1;
    let mut data = vec![C::ZERO; m * stride];
    for (r, row) in raw.iter().enumerate() {
        for (j, &v) in row[..n_struct].iter().enumerate() {
            data[r * stride + j] = ov(C::narrow(v))?;
        }
        data[r * stride + n_total] = ov(C::narrow(row[n_struct]))?;
    }
    for (k, &r) in needy.iter().enumerate() {
        data[r * stride + n_struct + k] = C::ONE;
        basis0[r] = Some(n_struct + k);
    }

    let mut tab = IntTableau {
        ncols: n_total,
        stride,
        data,
        den: vec![C::ONE; m],
        cost: vec![C::ZERO; n_total],
        valnum: C::ZERO,
        cost_den: C::ONE,
        basis: basis0.into_iter().map(|o| o.expect("row basis")).collect(),
        art_lo: n_struct,
        art_hi: n_total,
        bar_artificials: false,
        scratch: Vec::with_capacity(stride),
    };

    // Phase 1: minimize the artificial sum.
    if !needy.is_empty() {
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
            return Ok(PrepT::Infeasible);
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
    }
    tab.bar_artificials = true;
    Ok(PrepT::Ready { tab, n, split })
}

/// Width-dispatching preparation: tries `i64` rows first (unless wide mode
/// is forced) and redoes the whole preparation on `i128` rows if the
/// attempt overflows, rewinding the abandoned attempt's pivot counters so
/// the final counts match a pure-`i128` run.
pub(crate) fn prepare_int(set: &ConstraintSet, budget: &Budget) -> Result<Prep, SolveAbort> {
    if FORCE_WIDE.with(|f| f.get()) {
        return prepare_typed::<i128>(set, budget).map(erase_prep);
    }
    let marks = counters::pivot_marks();
    match prepare_typed::<i64>(set, budget) {
        Ok(p) => {
            if !matches!(p, PrepT::Empty { .. }) {
                counters::count_tab_i64_solve(1);
            }
            Ok(erase_prep(p))
        }
        Err(e @ (SolveAbort::Budget(_) | SolveAbort::PivotLimit)) => Err(e),
        Err(SolveAbort::Overflow) => {
            counters::rewind_pivots(marks);
            counters::count_tab_overflow_escalation(1);
            prepare_typed::<i128>(set, budget).map(erase_prep)
        }
    }
}

fn erase_prep<C: Cell>(p: PrepT<C>) -> Prep {
    match p {
        PrepT::Infeasible => Prep::Infeasible,
        PrepT::Empty { split } => Prep::Empty { split },
        PrepT::Ready { tab, n, split } => Prep::Ready(PreparedTab {
            tab: C::wrap(tab),
            n,
            split,
        }),
    }
}

/// The objective-dependent half of [`solve_int`]: installs the phase-2
/// objective on a feasibility-established tableau and runs it to
/// optimality.
#[allow(clippy::type_complexity)]
fn finish_typed<C: Cell>(
    mut tab: IntTableau<C>,
    n: usize,
    split: bool,
    objective: &LinExpr,
    want_basis: bool,
    budget: &Budget,
) -> Result<(LpOutcome, Option<(IntTableau<C>, i128)>), SolveAbort> {
    // Phase 2: the real objective, cleared of denominators. The scale is
    // positive, so reduced-cost signs — and hence pivots — are unchanged.
    let mut obj_scale: i128 = 1;
    for i in 0..n {
        obj_scale = lcm(obj_scale, objective.coeff(i).denom());
    }
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
    let res = tab.run(budget, false)?;
    if res == RunResult::Unbounded {
        return Ok((LpOutcome::Unbounded, None));
    }

    let point = tab.read_point(n, split);
    let value = tab.value(obj_scale, objective.constant_term());
    let basis = if want_basis && !split {
        Some((tab, obj_scale))
    } else {
        None
    };
    Ok((LpOutcome::Optimal { point, value }, basis))
}

/// [`finish_typed`] behind the width dispatch: an `i64` tableau is cloned
/// before the attempt so an overflow can redo the finish from the
/// pristine state on `i128` rows (with the pivot counters rewound).
fn finish_int(
    prepared: PreparedTab,
    objective: &LinExpr,
    want_basis: bool,
    budget: &Budget,
) -> Result<(LpOutcome, Option<LpBasis>), SolveAbort> {
    let PreparedTab { tab, n, split } = prepared;
    let obj_const = objective.constant_term();
    let pack = |basis: Option<(Tab, i128)>| {
        basis.map(|(tab, obj_scale)| LpBasis {
            tab,
            n,
            obj_scale,
            obj_const,
        })
    };
    match tab {
        Tab::Small(t) => {
            let marks = counters::pivot_marks();
            let backup = t.clone();
            match finish_typed(t, n, split, objective, want_basis, budget) {
                Ok((out, basis)) => {
                    counters::count_tab_i64_solve(1);
                    Ok((out, pack(basis.map(|(t, s)| (Tab::Small(t), s)))))
                }
                Err(e @ (SolveAbort::Budget(_) | SolveAbort::PivotLimit)) => Err(e),
                Err(SolveAbort::Overflow) => {
                    counters::rewind_pivots(marks);
                    counters::count_tab_overflow_escalation(1);
                    let (out, basis) =
                        finish_typed(widen_tab(&backup), n, split, objective, want_basis, budget)?;
                    Ok((out, pack(basis.map(|(t, s)| (Tab::Big(t), s)))))
                }
            }
        }
        Tab::Big(t) => {
            let (out, basis) = finish_typed(t, n, split, objective, want_basis, budget)?;
            Ok((out, pack(basis.map(|(t, s)| (Tab::Big(t), s)))))
        }
    }
}

/// Solves the LP with the integer tableau, mirroring the rational
/// reference decision-for-decision. Aborts with [`SolveAbort::Overflow`]
/// if any intermediate value overflows `i128` (callers fall back to the
/// reference solver) and propagates budget errors; otherwise returns the
/// outcome plus — when requested and the variable space needed no
/// sign-splitting — the optimal basis for warm starts.
pub(crate) fn solve_int(
    objective: &LinExpr,
    set: &ConstraintSet,
    want_basis: bool,
    budget: &Budget,
) -> Result<(LpOutcome, Option<LpBasis>), SolveAbort> {
    match prepare_int(set, budget)? {
        Prep::Infeasible => Ok((LpOutcome::Infeasible, None)),
        Prep::Empty { split } => {
            let n = set.n_vars();
            let unbounded = if split {
                !objective.is_constant()
            } else {
                objective.coeffs().iter().any(Rat::is_negative)
            };
            let out = if unbounded {
                LpOutcome::Unbounded
            } else {
                LpOutcome::Optimal {
                    point: vec![Rat::ZERO; n],
                    value: objective.constant_term(),
                }
            };
            Ok((out, None))
        }
        Prep::Ready(prepared) => finish_int(prepared, objective, want_basis, budget),
    }
}

/// What became of a constraint appended by [`append_priced_row`].
enum RowFate {
    /// The row is in the tableau (primal feasibility may need repair).
    Added,
    /// The row priced out to an identity implied by the current rows.
    Dropped,
    /// The row priced out to `0 = rhs` with `rhs != 0`: the extended
    /// system has no feasible point. Basis-independent, hence exact.
    Infeasible,
}

/// Appends one constraint to a solved tableau, priced out against the
/// current basis. A `Ge` row gets a fresh slack column and enters the
/// basis through it (possibly primal-infeasible, i.e. negative); an `Eq`
/// row pivots in through its smallest enterable nonzero column. Either
/// way the caller must restore primal feasibility with [`dual_repair`].
fn append_priced_row<C: Cell>(
    tab: &mut IntTableau<C>,
    extra: &Constraint,
) -> Result<RowFate, SolveAbort> {
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
    // fits `i64`. The stored row is the same canonical one either way —
    // `normalize_row` below reduces whatever content is left.
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
            ov(tab.normalize_row(r_new))?;
            Ok(RowFate::Added)
        }
        None => {
            // An equality row has no slack of its own: pick a basic column
            // among the enterable ones. Pricing already zeroed every basic
            // column, and barred artificials are pinned to zero in any
            // represented solution, so if no enterable column remains the
            // row reads `0 = rhs`.
            let Some(c) = (0..ncols).find(|&j| tab.enterable(j) && row[j] != C::ZERO) else {
                return Ok(if row[ncols] == C::ZERO {
                    RowFate::Dropped
                } else {
                    RowFate::Infeasible
                });
            };
            tab.data.extend_from_slice(&row);
            tab.den.push(den);
            tab.basis.push(c);
            ov(tab.normalize_row(r_new))?;
            ov(tab.pivot(r_new, c))?;
            counters::count_bb_repair_pivots(1);
            Ok(RowFate::Added)
        }
    }
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

/// The optimum point is provably the one the cold path would return only
/// when it is the *unique* optimum: every enterable nonbasic column must
/// have a strictly positive reduced cost (and, extra conservatively, no
/// artificial may sit in the basis).
fn unique_optimum<C: Cell>(tab: &IntTableau<C>) -> bool {
    let mut basic = vec![false; tab.ncols];
    for &bv in &tab.basis {
        basic[bv] = true;
    }
    let strictly_positive =
        (0..tab.ncols).all(|j| basic[j] || !tab.enterable(j) || tab.cost[j] > C::ZERO);
    let no_basic_artificial = tab
        .basis
        .iter()
        .all(|&bv| !(bv >= tab.art_lo && bv < tab.art_hi));
    strictly_positive && no_basic_artificial
}

/// Typed body of [`warm_resolve`], starting from an owned clone (or
/// widened copy) of the parent's tableau.
#[allow(clippy::type_complexity)]
fn warm_typed<C: Cell>(
    mut tab: IntTableau<C>,
    n: usize,
    parent_scale: i128,
    parent_const: Rat,
    extra: &Constraint,
    budget: &Budget,
) -> Result<Option<(Rat, Vec<Rat>, bool, IntTableau<C>)>, SolveAbort> {
    match append_priced_row(&mut tab, extra)? {
        RowFate::Added | RowFate::Dropped => {}
        RowFate::Infeasible => return Ok(None),
    }
    if !dual_repair(&mut tab, budget)? {
        // Dual unbounded: the child LP has no feasible point.
        return Ok(None);
    }
    let value = tab.value(parent_scale, parent_const);
    let point = tab.read_point(n, false);
    let unique = unique_optimum(&tab);
    Ok(Some((value, point, unique, tab)))
}

/// Re-solves the parent's LP with one extra `expr >= 0` row, repairing the
/// parent's optimal basis with dual simplex pivots instead of a cold
/// two-phase solve. An `i64` parent is retried on a widened copy if the
/// repair overflows; an `i128` overflow surfaces as
/// [`SolveAbort::Overflow`] and the pivot cap (at either width, without a
/// retry) as [`SolveAbort::PivotLimit`], both telling the caller to fall
/// back to a cold solve. Budget errors propagate.
pub(crate) fn warm_resolve(
    parent: &LpBasis,
    extra: &Constraint,
    budget: &Budget,
) -> Result<WarmOutcome, SolveAbort> {
    debug_assert_eq!(extra.kind(), ConstraintKind::Ge);
    let n = parent.n;
    let pack = |r: Option<(Rat, Vec<Rat>, bool, Tab)>| match r {
        None => WarmOutcome::Infeasible,
        Some((value, point, unique, tab)) => WarmOutcome::Optimal {
            value,
            point,
            unique,
            basis: Box::new(LpBasis {
                tab,
                n,
                obj_scale: parent.obj_scale,
                obj_const: parent.obj_const,
            }),
        },
    };
    match &parent.tab {
        Tab::Small(t) => {
            let marks = counters::pivot_marks();
            match warm_typed(
                t.clone(),
                n,
                parent.obj_scale,
                parent.obj_const,
                extra,
                budget,
            ) {
                Ok(r) => {
                    counters::count_tab_i64_solve(1);
                    Ok(pack(r.map(|(v, p, u, t)| (v, p, u, Tab::Small(t)))))
                }
                Err(e @ (SolveAbort::Budget(_) | SolveAbort::PivotLimit)) => Err(e),
                Err(SolveAbort::Overflow) => {
                    counters::rewind_pivots(marks);
                    counters::count_tab_overflow_escalation(1);
                    let r = warm_typed(
                        widen_tab(t),
                        n,
                        parent.obj_scale,
                        parent.obj_const,
                        extra,
                        budget,
                    )?;
                    Ok(pack(r.map(|(v, p, u, t)| (v, p, u, Tab::Big(t)))))
                }
            }
        }
        Tab::Big(t) => {
            let r = warm_typed(
                t.clone(),
                n,
                parent.obj_scale,
                parent.obj_const,
                extra,
                budget,
            )?;
            Ok(pack(r.map(|(v, p, u, t)| (v, p, u, Tab::Big(t)))))
        }
    }
}

/// Outcome of preparing a base set for a [`crate::context::SchedCtx`].
#[allow(clippy::large_enum_variant)] // built once, matched once: boxing buys nothing
pub(crate) enum CtxPrepared {
    /// Feasibility established; extensions and re-optimizations welcome.
    Ready(PreparedTab),
    /// The base set is already infeasible, or it needs the p−q sign
    /// split / has no rows — shapes the persistent context does not
    /// accelerate. The context falls back to cold solves.
    Unsupported,
}

/// Prepares a base constraint set for persistent reuse: runs the
/// objective-independent half of a solve and installs a zero objective
/// (trivially dual-feasible) so delta rows can be appended and repaired
/// immediately.
pub(crate) fn ctx_prepare(set: &ConstraintSet, budget: &Budget) -> Result<CtxPrepared, SolveAbort> {
    match prepare_int(set, budget)? {
        Prep::Ready(mut prepared) if !prepared.split => {
            // A zero objective prices out to nothing: no arithmetic, no
            // overflow, on either cell width.
            match &mut prepared.tab {
                Tab::Small(t) => {
                    let ncols = t.ncols;
                    ov(t.install_objective(vec![0i64; ncols]))?;
                }
                Tab::Big(t) => {
                    let ncols = t.ncols;
                    ov(t.install_objective(vec![0i128; ncols]))?;
                }
            }
            Ok(CtxPrepared::Ready(prepared))
        }
        _ => Ok(CtxPrepared::Unsupported),
    }
}

/// Typed body of [`ctx_extend`].
fn ctx_extend_typed<C: Cell>(
    tab: &mut IntTableau<C>,
    extra: &[Constraint],
    budget: &Budget,
) -> Result<bool, SolveAbort> {
    for c in extra {
        // Mirror the cold row filter: in a non-split space, sign rows are
        // implicit in the tableau and never materialized.
        if c.kind() == ConstraintKind::Ge && is_sign_row(c.expr()) {
            continue;
        }
        match append_priced_row(tab, c)? {
            RowFate::Added | RowFate::Dropped => {}
            RowFate::Infeasible => return Ok(false),
        }
    }
    dual_repair(tab, budget)
}

/// Extends a prepared (or previously optimized) tableau with extra
/// constraint rows and repairs primal feasibility. The installed cost row
/// must be dual-feasible — true right after [`ctx_prepare`] (zero
/// objective) and right after [`ctx_optimize`] (optimal reduced costs).
/// Returns `Ok(false)` when the extension makes the system infeasible —
/// a basis-independent fact, safe to report without a cold re-solve.
/// An `i64` tableau that overflows mid-extend is promoted in place: the
/// whole extension is redone on a widened copy of the pre-extend state.
pub(crate) fn ctx_extend(
    prepared: &mut PreparedTab,
    extra: &[Constraint],
    budget: &Budget,
) -> Result<bool, SolveAbort> {
    debug_assert!(!prepared.split);
    match &mut prepared.tab {
        Tab::Small(t) => {
            let marks = counters::pivot_marks();
            let backup = t.clone();
            match ctx_extend_typed(t, extra, budget) {
                Ok(r) => {
                    counters::count_tab_i64_solve(1);
                    Ok(r)
                }
                Err(e @ (SolveAbort::Budget(_) | SolveAbort::PivotLimit)) => Err(e),
                Err(SolveAbort::Overflow) => {
                    counters::rewind_pivots(marks);
                    counters::count_tab_overflow_escalation(1);
                    let mut big = widen_tab(&backup);
                    let r = ctx_extend_typed(&mut big, extra, budget)?;
                    prepared.tab = Tab::Big(big);
                    Ok(r)
                }
            }
        }
        Tab::Big(t) => ctx_extend_typed(t, extra, budget),
    }
}

/// Result of re-optimizing a prepared tableau under a fresh objective.
#[allow(clippy::large_enum_variant)] // built once, matched once: boxing buys nothing
pub(crate) enum CtxOpt {
    /// The LP is unbounded below. Basis-independent, hence exact.
    Unbounded,
    /// Solved to optimality. `value` is always exact; `point` matches the
    /// cold path's tie-broken vertex only when `unique` holds.
    Optimal {
        value: Rat,
        point: Vec<Rat>,
        unique: bool,
        basis: LpBasis,
    },
}

/// Typed body of [`ctx_optimize`].
#[allow(clippy::type_complexity)]
fn ctx_optimize_typed<C: Cell>(
    mut tab: IntTableau<C>,
    n: usize,
    objective: &LinExpr,
    budget: &Budget,
) -> Result<Option<(Rat, Vec<Rat>, bool, IntTableau<C>, i128)>, SolveAbort> {
    let mut obj_scale: i128 = 1;
    for i in 0..n {
        obj_scale = lcm(obj_scale, objective.coeff(i).denom());
    }
    let mut phase2 = vec![C::ZERO; tab.ncols];
    for (i, slot) in phase2.iter_mut().enumerate().take(n) {
        let c = objective.coeff(i);
        let v = ov(c.numer().checked_mul(obj_scale / c.denom()))?;
        *slot = ov(C::narrow(v))?;
    }
    ov(tab.install_objective(phase2))?;
    if tab.run(budget, false)? == RunResult::Unbounded {
        return Ok(None);
    }
    let point = tab.read_point(n, false);
    let value = tab.value(obj_scale, objective.constant_term());
    let unique = unique_optimum(&tab);
    Ok(Some((value, point, unique, tab, obj_scale)))
}

/// Installs a fresh objective on a feasibility-established tableau and
/// runs primal simplex from the current basis — the warm replacement for
/// a cold two-phase solve when only the objective changed. An `i64`
/// tableau is cloned before the attempt; overflow redoes the
/// re-optimization on the widened pristine copy.
pub(crate) fn ctx_optimize(
    prepared: PreparedTab,
    objective: &LinExpr,
    budget: &Budget,
) -> Result<CtxOpt, SolveAbort> {
    let PreparedTab { tab, n, split } = prepared;
    debug_assert!(!split);
    let obj_const = objective.constant_term();
    let pack = |r: Option<(Rat, Vec<Rat>, bool, Tab, i128)>| match r {
        None => CtxOpt::Unbounded,
        Some((value, point, unique, tab, obj_scale)) => CtxOpt::Optimal {
            value,
            point,
            unique,
            basis: LpBasis {
                tab,
                n,
                obj_scale,
                obj_const,
            },
        },
    };
    match tab {
        Tab::Small(t) => {
            let marks = counters::pivot_marks();
            let backup = t.clone();
            match ctx_optimize_typed(t, n, objective, budget) {
                Ok(r) => {
                    counters::count_tab_i64_solve(1);
                    Ok(pack(r.map(|(v, p, u, t, s)| (v, p, u, Tab::Small(t), s))))
                }
                Err(e @ (SolveAbort::Budget(_) | SolveAbort::PivotLimit)) => Err(e),
                Err(SolveAbort::Overflow) => {
                    counters::rewind_pivots(marks);
                    counters::count_tab_overflow_escalation(1);
                    let r = ctx_optimize_typed(widen_tab(&backup), n, objective, budget)?;
                    Ok(pack(r.map(|(v, p, u, t, s)| (v, p, u, Tab::Big(t), s))))
                }
            }
        }
        Tab::Big(t) => {
            let r = ctx_optimize_typed(t, n, objective, budget)?;
            Ok(pack(r.map(|(v, p, u, t, s)| (v, p, u, Tab::Big(t), s))))
        }
    }
}

/// Re-wraps an optimal basis (e.g. the root basis handed back by
/// branch-and-bound) as a prepared tableau so the lexmin chain can extend
/// it with the next pin row. The optimal cost row stays installed — it is
/// dual-feasible, exactly what [`ctx_extend`] needs.
pub(crate) fn ctx_resume(basis: LpBasis) -> PreparedTab {
    PreparedTab {
        tab: basis.tab,
        n: basis.n,
        split: false,
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
