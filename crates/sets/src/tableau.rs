//! Fraction-free integer simplex tableau: one solved form, two verbs.
//!
//! The rational reference ([`crate::minimize_reference`]) stores a dense
//! tableau of [`Rat`] entries and pays a GCD normalization on every entry
//! of every pivot. This module stores each row as integer entries over a
//! single positive per-row denominator (`row_rational = a / den`), in the
//! style of Edmonds/Bareiss fraction-free elimination, and rationals are
//! only materialized at solution read-out.
//!
//! Most cells are zero (a Table II pivot row has ~8 % non-zeros, a
//! 128-statement chain's ~1 %), so each row carries an exact bitmap of
//! its non-zero cells and every row operation ([`update_row`]) walks set
//! bits: a pivot is two integer multiplies and a subtract per cell that
//! is non-zero in the row or the pivot row — one multiply and a subtract
//! per *non-zero of the pivot row* when the pivot element divides the
//! row's entry in the pivot column (always when it is ±1, as four in five
//! are, and in four rows of five otherwise) — with one early-exiting
//! content-GCD pass over the row's non-zeros. Row operations never read
//! or write a cell that is zero in both rows: it would compute 0 and
//! cannot overflow, and a GCD ignores zeros, so every stored value and
//! every overflow is the dense formula's. The ratio tests and dual repair
//! still read a column cell by cell, and the first-pivot copy clones the
//! dense cells.
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
//! the abandoned attempt ticked. A verb copies that state only when it
//! first pivots ([`Undo`]): before, it has only appended rows and slack
//! columns, which the redo drops. Both widths run the identical algorithm
//! on identical integer entries (an `i64` tableau widened to `i128` is
//! exactly the tableau a pure-`i128` run would hold at that point), so
//! the decision sequence, the returned outcome, *and the final counter
//! values* are bit-for-bit those of a pure-`i128` run — the escalation is
//! invisible except to the `tab_i64_solves` / `tab_overflow_escalations`
//! counters, which the pivot's integer-multiplier rows can only move one
//! way: they overflow only where the dense formula would. It is written
//! once for the build ([`build`]) and once for the verbs
//! (`Solved::apply`).
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
/// lets the general elimination run over `|p|` with the multiplier negated
/// to match, and still report overflow on the same cells. The
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
    fn csub(self, o: Self) -> Option<Self>;
    fn cmul(self, o: Self) -> Option<Self>;
    /// GCD of representable values (never overflows: the result's
    /// magnitude is bounded by the larger operand's).
    fn gcd(self, o: Self) -> Self;
    /// Exact division by a known divisor (content-GCD reduction).
    fn div_exact(self, d: Self) -> Self;
    /// Whether `d != 0` divides this value: the one-remainder test that
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

/// Integer tableau: row-major `data` with `stride = ncols + 1` (the
/// right-hand side lives in the last slot of each row), one positive
/// denominator per row, and a cost row of the same shape with its own
/// denominator (its right-hand side is minus the objective value). The
/// cells are stored densely, so `at(r, c)` is one load; beside them each
/// row, the cost row too, keeps an exact bitmap of its non-zero cells,
/// which is what row operations walk.
#[derive(Clone)]
pub(crate) struct IntTableau<C: Cell> {
    ncols: usize,
    stride: usize,
    /// Bitmap words per row, `ceil(stride / 64)`.
    words: usize,
    data: Vec<C>,
    /// Row `r`'s bitmap is `bits[r * words..][..words]`: bit `j % 64` of
    /// its word `j / 64` is set exactly when cell `(r, j)` is non-zero.
    bits: Vec<u64>,
    den: Vec<C>,
    cost: Vec<C>,
    cost_bits: Vec<u64>,
    cost_den: C,
    basis: Vec<usize>,
    /// Artificial columns occupy `art_lo..art_hi`; they may not enter the
    /// basis once `bar_artificials` is set (phase 2 and all warm repairs).
    art_lo: usize,
    art_hi: usize,
    bar_artificials: bool,
    undo: Undo<C>,
}

/// How [`Solved::apply`] gets back to an overflowing `i64` verb's start.
/// Before its first pivot a verb only appends rows and slack columns
/// (zero in every earlier row), which [`widen_tab`] drops, and, as
/// `Optimize`, overwrites the cost row, which the redo installs afresh.
/// So only the first pivot copies the tableau.
#[derive(Clone)]
enum Undo<C: Cell> {
    /// Not inside an `i64` verb.
    Off,
    /// Inside one that has not pivoted.
    Armed,
    /// Inside one that has: the tableau as its first pivot found it.
    Saved(Box<IntTableau<C>>),
}

/// A tableau at either cell width. Every tableau starts [`Tab::Small`]
/// (unless its build values do not fit `i64`, or wide mode is forced) and
/// is promoted to [`Tab::Big`] by the first operation that overflows.
#[derive(Clone)]
pub(crate) enum Tab {
    Small(IntTableau<i64>),
    Big(IntTableau<i128>),
}

/// Widens the first `rows` rows and `ncols` columns (and the right-hand
/// side) of a tableau into the identical `i128` tableau: a pure
/// representation change — same rational row values, same basis, same
/// normalization state — so continuing on the widened copy replays
/// exactly what a pure-`i128` run would have done from that state. The
/// bitmaps are marked afresh from the cells: an `i64` verb that overflowed
/// before its first pivot may have left its cost row half written.
fn widen_tab<C: Cell>(t: &IntTableau<C>, rows: usize, ncols: usize) -> IntTableau<i128> {
    let data = t.data.chunks_exact(t.stride).take(rows);
    IntTableau {
        ncols,
        stride: ncols + 1,
        words: 0,
        data: data
            .flat_map(|row| row[..ncols].iter().chain(&row[t.ncols..]))
            .map(|v| v.widen())
            .collect(),
        bits: Vec::new(),
        den: t.den[..rows].iter().map(|v| v.widen()).collect(),
        cost: t.cost[..ncols]
            .iter()
            .chain(&t.cost[t.ncols..])
            .map(|v| v.widen())
            .collect(),
        cost_bits: Vec::new(),
        cost_den: t.cost_den.widen(),
        basis: t.basis[..rows].to_vec(),
        art_lo: t.art_lo,
        art_hi: t.art_hi,
        bar_artificials: t.bar_artificials,
        undo: Undo::Off,
    }
    .marked()
}

/// Writes a dense row's non-zero pattern into its bitmap.
fn mark<C: Cell>(row: &[C], bits: &mut [u64]) {
    for (word, cells) in bits.iter_mut().zip(row.chunks(64)) {
        *word = cells
            .iter()
            .enumerate()
            .fold(0, |w, (k, &v)| w | u64::from(v != C::ZERO) << k);
    }
}

/// Writes `v` into cell `j` of a zero-initialized row and its bitmap.
#[inline]
fn put<C: Cell>(row: &mut [C], bits: &mut [u64], j: usize, v: C) {
    row[j] = v;
    bits[j / 64] |= u64::from(v != C::ZERO) << (j % 64);
}

/// The set bits of a bitmap, in increasing order.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut x = word;
        std::iter::from_fn(move || {
            (x != 0).then(|| {
                let k = x.trailing_zeros() as usize;
                x &= x - 1;
                w * 64 + k
            })
        })
    })
}

/// Whether bit `j` of a bitmap is set.
#[inline]
fn has(bits: &[u64], j: usize) -> bool {
    bits[j / 64] >> (j % 64) & 1 == 1
}

/// The crate's one row operation, for tableau rows and the cost row
/// alike: `row ← (s·row − f·prow) / g` over `den ← den·s / g`, where
/// `s > 0` and `g` is the content GCD of the result and its denominator.
/// `bits` and `pbits` are the two rows' bitmaps; only cells set in one of
/// them are read or written — in `prow`'s alone when `s` is 1 — and
/// `bits` stays exact. Cells zero in both rows would compute 0 and
/// cannot overflow, and zeros do not move a GCD, so the stored row and
/// every overflow (`None`) are the dense formula's. With `f = 0` and
/// `s = 1` it only reduces the row's content.
fn update_row<C: Cell>(
    row: &mut [C],
    bits: &mut [u64],
    den: &mut C,
    s: C,
    f: C,
    prow: &[C],
    pbits: &[u64],
) -> Option<()> {
    let unit = s == C::ONE;
    for (w, (word, &pword)) in bits.iter_mut().zip(pbits).enumerate() {
        let visit = if unit { pword } else { *word | pword };
        let (mut x, mut nonzero) = (visit, 0u64);
        while x != 0 {
            let k = x.trailing_zeros();
            x &= x - 1;
            let j = w * 64 + k as usize;
            let v = if unit { row[j] } else { row[j].cmul(s)? };
            row[j] = v.csub(f.cmul(prow[j])?)?;
            nonzero |= u64::from(row[j] != C::ZERO) << k;
        }
        *word = *word & !visit | nonzero;
    }
    if !unit {
        *den = den.cmul(s)?;
    }
    // The content: stops as soon as it hits 1, and calls `Cell::gcd` only
    // on an entry the running value does not already divide, so a
    // reduced row costs a few compares.
    let mut g = *den;
    let mut cells = ones(bits);
    while g != C::ONE {
        let Some(j) = cells.next() else { break };
        if !row[j].divisible_by(g) {
            g = C::gcd(g, row[j]);
        }
    }
    if g > C::ONE {
        *den = den.div_exact(g);
        for j in ones(bits) {
            row[j] = row[j].div_exact(g);
        }
    }
    Some(())
}

/// The multipliers `(s, f)` that clear a row's entry `f` against a pivot
/// element `p`. When `p` divides `f` (always when `p` is ±1, as four
/// pivots in five are; in four rows of five otherwise) they are
/// `(1, f/p)`: the row changes only where the pivot row is non-zero, over
/// the unchanged denominator, and its cells are the dense formula's
/// divided by `|p|`, so they overflow only where it does. Else they are
/// `(|p|, sign(p)·f)`. Both store the row's one content-reduced form over
/// a positive denominator.
#[inline]
fn multipliers<C: Cell>(f: C, p: C) -> Option<(C, C)> {
    match p {
        _ if p == C::ONE => Some((C::ONE, f)),
        _ if p == C::NEG_ONE => Some((C::ONE, f.cneg()?)),
        _ if f.divisible_by(p) => Some((C::ONE, f.div_exact(p))),
        _ if p < C::ZERO => Some((p.cneg()?, f.cneg()?)),
        _ => Some((p, f)),
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

    /// Row `r`'s bitmap.
    #[inline]
    fn row_bits(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    #[inline]
    fn enterable(&self, j: usize) -> bool {
        !(self.bar_artificials && j >= self.art_lo && j < self.art_hi)
    }

    /// The tableau with every bitmap marked from its row's cells: the
    /// finish of a tableau written densely (a widening).
    fn marked(mut self) -> Self {
        self.words = self.stride.div_ceil(64);
        self.bits = vec![0; self.rows() * self.words];
        for (row, bits) in self
            .data
            .chunks_exact(self.stride)
            .zip(self.bits.chunks_exact_mut(self.words))
        {
            mark(row, bits);
        }
        self.cost_bits = vec![0; self.words];
        mark(&self.cost, &mut self.cost_bits);
        self.check_bits();
        self
    }

    /// Test builds assert, after every build, widening, pivot and appended
    /// row, that each bitmap is exactly its row's non-zero pattern; other
    /// builds compile this away.
    fn check_bits(&self) {
        #[cfg(test)]
        {
            let rows = self.data.chunks_exact(self.stride);
            let rows = rows.zip(self.bits.chunks_exact(self.words));
            let cost = (&self.cost[..], &self.cost_bits[..]);
            for (r, (row, bits)) in rows.chain([cost]).enumerate() {
                let mut want = vec![0; self.words];
                mark(row, &mut want);
                assert_eq!(
                    bits,
                    want,
                    "bitmap of row {r} (row {} is the cost row)",
                    self.rows()
                );
            }
        }
    }

    /// Fraction-free pivot at `(r, c)`: every other row and the cost row
    /// with a non-zero in column `c` is cleared there by [`update_row`]
    /// with the row's [`multipliers`]; the pivot row itself is left
    /// unscaled (re-negated when `p < 0` to keep the positive-scale
    /// invariant). Returns `None` on arithmetic overflow. Inside an `i64`
    /// verb the first pivot keeps the tableau as it found it ([`Undo`]).
    fn pivot(&mut self, r: usize, c: usize) -> Option<()> {
        if matches!(self.undo, Undo::Armed) {
            let mut copy = self.clone();
            copy.undo = Undo::Off;
            self.undo = Undo::Saved(Box::new(copy));
        }
        let (stride, words) = (self.stride, self.words);
        let (above, rest) = self.data.split_at_mut(r * stride);
        let (prow, below) = rest.split_at_mut(stride);
        let (bits_above, bits_rest) = self.bits.split_at_mut(r * words);
        let (pbits, bits_below) = bits_rest.split_at_mut(words);
        let (den_above, den_rest) = self.den.split_at_mut(r);
        let p = prow[c];
        debug_assert!(p != C::ZERO, "pivot on a zero element");
        let clear = |row: &mut [C], bits: &mut [u64], den: &mut C| {
            if !has(bits, c) {
                return Some(());
            }
            let (s, f) = multipliers(row[c], p)?;
            update_row(row, bits, den, s, f, prow, pbits)
        };
        let rows_above = above
            .chunks_exact_mut(stride)
            .zip(bits_above.chunks_exact_mut(words));
        for ((row, bits), den) in rows_above.zip(den_above) {
            clear(row, bits, den)?;
        }
        let rows_below = below
            .chunks_exact_mut(stride)
            .zip(bits_below.chunks_exact_mut(words));
        for ((row, bits), den) in rows_below.zip(&mut den_rest[1..]) {
            clear(row, bits, den)?;
        }
        clear(&mut self.cost, &mut self.cost_bits, &mut self.cost_den)?;
        if p < C::ZERO {
            for j in ones(pbits) {
                prow[j] = prow[j].cneg()?;
            }
        }
        self.basis[r] = c;
        self.check_bits();
        Some(())
    }

    /// Installs an integer objective row, pricing it out against the
    /// current basis (basic columns end with reduced cost zero). Mirrors
    /// the rational `install_objective` row-for-row.
    fn install_objective(&mut self, mut cost: Vec<C>) -> Option<()> {
        debug_assert_eq!(cost.len(), self.ncols);
        cost.push(C::ZERO);
        self.cost = cost;
        mark(&self.cost, &mut self.cost_bits);
        self.cost_den = C::ONE;
        let (stride, words) = (self.stride, self.words);
        for r in 0..self.rows() {
            let cb = self.cost[self.basis[r]];
            if cb == C::ZERO {
                continue;
            }
            // Positive by the positive-scale invariant: the rational row
            // has +1 in its basic column.
            let pb = self.data[r * stride + self.basis[r]];
            debug_assert!(pb > C::ZERO);
            update_row(
                &mut self.cost,
                &mut self.cost_bits,
                &mut self.cost_den,
                pb,
                cb,
                &self.data[r * stride..(r + 1) * stride],
                &self.bits[r * words..(r + 1) * words],
            )?;
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
            let Some(c) = ones(&self.cost_bits)
                .take_while(|&j| j < self.ncols)
                .find(|&j| self.enterable(j) && self.cost[j] < C::ZERO)
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
    /// objective value is minus the cost row's right-hand side over
    /// `cost_den`, unscaled by `obj_scale` and shifted by the objective's
    /// constant term.
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
            value: Rat::new(-self.cost[self.ncols].widen(), self.cost_den.widen())
                / Rat::int(obj_scale)
                + obj_const,
            point,
            unique,
        }
    }

    /// Appends a fresh all-zero column (re-striding the flat storage and
    /// the bitmaps) and returns its index: the slack of a row
    /// [`Solved::extend`] takes.
    fn append_column(&mut self) -> usize {
        let (old, old_words) = (self.stride, self.words);
        let ncols = self.ncols;
        let m = self.rows();
        let words = (old + 1).div_ceil(64);
        let mut data = vec![C::ZERO; m * (old + 1)];
        let mut bits = vec![0; m * words];
        for r in 0..m {
            let src = &self.data[r * old..(r + 1) * old];
            let dst = &mut data[r * (old + 1)..r * (old + 1) + old + 1];
            dst[..ncols].copy_from_slice(&src[..ncols]);
            dst[ncols] = C::ZERO;
            dst[ncols + 1] = src[ncols];
            let dst = &mut bits[r * words..(r + 1) * words];
            dst[..old_words].copy_from_slice(&self.bits[r * old_words..(r + 1) * old_words]);
            shift_rhs_bit(dst, ncols);
        }
        self.data = data;
        self.bits = bits;
        self.ncols += 1;
        self.stride += 1;
        self.words = words;
        self.cost.insert(ncols, C::ZERO);
        self.cost_bits.resize(words, 0);
        shift_rhs_bit(&mut self.cost_bits, ncols);
        ncols
    }

    /// Appends a row with its bitmap, denominator and basic column.
    fn push_row(&mut self, row: &[C], bits: &[u64], den: C, basic: usize) {
        self.data.extend_from_slice(row);
        self.bits.extend_from_slice(bits);
        self.den.push(den);
        self.basis.push(basic);
        self.check_bits();
    }
}

/// Moves a bitmap's right-hand-side bit from column `ncols` to
/// `ncols + 1`, past a zero column inserted before it.
fn shift_rhs_bit(bits: &mut [u64], ncols: usize) {
    if has(bits, ncols) {
        bits[ncols / 64] &= !(1 << (ncols % 64));
        bits[(ncols + 1) / 64] |= 1 << ((ncols + 1) % 64);
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
#[cfg_attr(test, derive(Debug, PartialEq))]
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
    for v in set.constraints().iter().filter_map(Constraint::sign_var) {
        nonneg[v] = true;
    }
    let split = !nonneg.iter().all(|&b| b) || n == 0;
    let rows: Vec<&Constraint> = set
        .constraints()
        .iter()
        .filter(|c| split || c.sign_var().is_none())
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
    // straight into the flat storage, copied from the constraints'
    // integer rows.
    let needs_artificial = |c: &Constraint| c.kind() == ConstraintKind::Eq || c.constant() < 0;
    let n_total = n_struct + rows.iter().filter(|c| needs_artificial(c)).count();
    let stride = n_total + 1;
    let words = stride.div_ceil(64);
    let mut data = vec![C::ZERO; m * stride];
    let mut bits = vec![0; m * words];
    let mut basis = Vec::with_capacity(m);
    let (mut slack_idx, mut art_idx) = (n_x, n_struct);
    let rows_out = data
        .chunks_exact_mut(stride)
        .zip(bits.chunks_exact_mut(words));
    for (c, (row, bits)) in rows.iter().zip(rows_out) {
        let flip = !needs_artificial(c) || c.constant() > 0;
        let cell = |v: i128| {
            let v = ov(C::narrow(v))?;
            ov(if flip { v.cneg() } else { Some(v) })
        };
        let coeffs = c.coeffs().iter().enumerate();
        for (i, &coef) in coeffs.filter(|(_, &coef)| coef != 0) {
            let v = cell(coef)?;
            put(row, bits, i, v);
            if split {
                put(row, bits, n + i, ov(v.cneg())?);
            }
        }
        let rhs = ov(cell(c.constant())?.cneg())?;
        put(row, bits, n_total, rhs);
        if c.kind() == ConstraintKind::Ge {
            put(row, bits, slack_idx, if flip { C::ONE } else { C::NEG_ONE });
            slack_idx += 1;
        }
        if needs_artificial(c) {
            put(row, bits, art_idx, C::ONE);
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
        words,
        data,
        bits,
        den: vec![C::ONE; m],
        cost: vec![C::ZERO; stride],
        cost_bits: vec![0; words],
        cost_den: C::ONE,
        basis,
        art_lo: n_struct,
        art_hi: n_total,
        bar_artificials: false,
        undo: Undo::Off,
    };
    tab.check_bits();

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
        // A positive optimum: the cost row's right-hand side is its negation.
        if tab.cost[n_total] < C::ZERO {
            return Ok(Built::Infeasible);
        }
        // Drive basic artificials out where a structural pivot exists.
        for r in 0..m {
            if tab.basis[r] >= n_struct {
                let structural = ones(tab.row_bits(r)).next().filter(|&c| c < n_struct);
                if let Some(c) = structural {
                    ov(tab.pivot(r, c))?;
                    counters::count_lp_phase1_pivots(1);
                }
            }
        }
        // Leave the zero objective behind: dual-feasible for any basis,
        // so the result takes rows as readily as an objective.
        tab.cost.fill(C::ZERO);
        tab.cost_bits.fill(0);
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
                    if c.sign_var().is_some() {
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
    /// an existing tableau. On `i64` cells the pre-operation state stays
    /// recoverable ([`Undo`]: a copy only once the verb pivots); if the
    /// attempt overflows, the pivot counters it ticked are rewound, the
    /// escalation is counted, and the verb is redone on the widened
    /// pre-operation state, which then replaces the tableau. Budget and
    /// pivot-limit aborts pass through untouched (wider cells would
    /// replay the same pivots). After an `Err` the tableau is mid-pivot
    /// and only good for dropping.
    fn apply(&mut self, verb: Verb<'_>, budget: &Budget) -> Result<bool, SolveAbort> {
        let (n, split) = (self.n, self.split);
        match &mut self.tab {
            Tab::Big(t) => verb.run(t, n, split, budget),
            Tab::Small(t) => {
                let marks = counters::pivot_marks();
                let (rows, ncols) = (t.rows(), t.ncols);
                t.undo = Undo::Armed;
                let result = verb.run(t, n, split, budget);
                let undo = std::mem::replace(&mut t.undo, Undo::Off);
                match result {
                    Ok(done) => {
                        counters::count_tab_i64_solve(1);
                        Ok(done)
                    }
                    Err(SolveAbort::Overflow) => {
                        counters::rewind_pivots(marks);
                        counters::count_tab_overflow_escalation(1);
                        let start = match &undo {
                            Undo::Saved(copy) => copy,
                            _ => &*t,
                        };
                        let mut big = widen_tab(start, rows, ncols);
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
    let (stride, ncols, words) = (tab.stride, tab.ncols, tab.words);

    // New row for `expr - s = 0` (resp. `expr = 0`).
    let mut row = vec![C::ZERO; stride];
    let mut bits = vec![0; words];
    let coeffs = extra.coeffs().iter().enumerate();
    for (i, &coef) in coeffs.filter(|(_, &coef)| coef != 0) {
        put(&mut row, &mut bits, i, ov(C::narrow(coef))?);
    }
    if let Some(col) = slack_col {
        put(&mut row, &mut bits, col, C::NEG_ONE);
    }
    let rhs = ov(extra.constant().checked_neg())?;
    put(&mut row, &mut bits, ncols, ov(C::narrow(rhs))?);
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
        let prow = &tab.data[r * stride..(r + 1) * stride];
        ov(update_row(
            &mut row,
            &mut bits,
            &mut den,
            pb,
            f,
            prow,
            tab.row_bits(r),
        ))?;
    }
    let r_new = tab.rows();
    match slack_col {
        Some(col) => {
            // The eliminations only scaled the fresh slack's coefficient,
            // which started at -1: negate the row so the slack is basic
            // with a positive coefficient (the positive-scale invariant).
            debug_assert!(row[col] < C::ZERO);
            for j in ones(&bits) {
                row[j] = ov(row[j].cneg())?;
            }
            tab.push_row(&row, &bits, den, col);
        }
        None => {
            // An equality row has no slack of its own: pick a basic column
            // among the enterable ones. Pricing already zeroed every basic
            // column, and barred artificials are pinned to zero in any
            // represented solution, so if no enterable column remains the
            // row reads `0 = rhs`.
            let Some(c) = ones(&bits)
                .take_while(|&j| j < ncols)
                .find(|&j| tab.enterable(j))
            else {
                return Ok(row[ncols] == C::ZERO);
            };
            tab.push_row(&row, &bits, den, c);
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
        for j in ones(tab.row_bits(r)).take_while(|&j| j < tab.ncols) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_arith::SplitMix64;

    /// Content reduction over the dense row: a GCD with every entry, then
    /// a division of every entry.
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

    /// The pivot [`IntTableau::pivot`] must match: the dense fraction-free
    /// formula over every cell whatever the pivot element, the
    /// denominator's sign restored and the content reduced over every
    /// touched row; the bitmaps are re-marked from the result.
    fn pivot_reference<C: Cell>(t: &mut IntTableau<C>, r: usize, c: usize) -> Option<()> {
        let stride = t.stride;
        let prow = t.data[r * stride..(r + 1) * stride].to_vec();
        let p = prow[c];
        let dense = |row: &mut [C], den: &mut C| {
            let f = row[c];
            if f == C::ZERO {
                return Some(());
            }
            for (v, &pv) in row.iter_mut().zip(&prow) {
                *v = v.cmul(p)?.csub(f.cmul(pv)?)?;
            }
            *den = den.cmul(p)?;
            if *den < C::ZERO {
                *den = den.cneg()?;
                for v in row.iter_mut() {
                    *v = v.cneg()?;
                }
            }
            reduce_content_reference(den, row);
            Some(())
        };
        for i in (0..t.rows()).filter(|&i| i != r) {
            dense(&mut t.data[i * stride..(i + 1) * stride], &mut t.den[i])?;
        }
        dense(&mut t.cost, &mut t.cost_den)?;
        if p < C::ZERO {
            for v in t.data[r * stride..(r + 1) * stride].iter_mut() {
                *v = v.cneg()?;
            }
        }
        t.basis[r] = c;
        *t = t.clone().marked();
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
    /// cost row content-reduced over positive denominators. One in four
    /// is wide (60 to 199 columns, so its rows span one to four bitmap
    /// words) and sparser, as wide scheduling rows are.
    fn arb_tableau<C: Cell>(g: &mut SplitMix64, bits: u32) -> IntTableau<C> {
        let wide = g.below(4) == 0;
        let m = 2 + g.below(4);
        let ncols = if wide {
            60 + g.below(140)
        } else {
            3 + g.below(6)
        };
        let stride = ncols + 1;
        let cell = |g: &mut SplitMix64| {
            if wide && g.below(8) > 0 {
                C::ZERO
            } else {
                arb_cell(g, bits)
            }
        };
        let mut data: Vec<C> = (0..m * stride).map(|_| cell(g)).collect();
        let mut arb_den = || C::narrow([1, 1, 1, 2, 3, 6][g.below(6)]).expect("small");
        let mut den: Vec<C> = (0..m).map(|_| arb_den()).collect();
        for (d, row) in den.iter_mut().zip(data.chunks_exact_mut(stride)) {
            reduce_content_reference(d, row);
        }
        let mut cost_den = arb_den();
        let mut cost: Vec<C> = (0..stride).map(|_| cell(g)).collect();
        reduce_content_reference(&mut cost_den, &mut cost);
        IntTableau {
            ncols,
            stride,
            words: 0,
            data,
            bits: Vec::new(),
            den,
            cost,
            cost_bits: Vec::new(),
            cost_den,
            basis: (0..m).collect(),
            art_lo: ncols,
            art_hi: ncols,
            bar_artificials: false,
            undo: Undo::Off,
        }
        .marked()
    }

    /// Everything a pivot writes, widened so two cell types compare.
    type Written = (Vec<i128>, Vec<i128>, Vec<i128>, i128, Vec<usize>);
    fn written<C: Cell>(t: &IntTableau<C>) -> Written {
        let w = widen_tab(t, t.rows(), t.ncols);
        (w.data, w.den, w.cost, w.cost_den, w.basis)
    }

    /// Chains of random pivots through [`IntTableau::pivot`] and through
    /// the dense formula. Where the dense formula fits, `pivot` does too
    /// and writes the same cells, denominators, cost row and basis; where
    /// only the dense formula overflows, `pivot` writes what it writes on
    /// the `i128`-widened tableau. Returns how many such avoided overflows
    /// were checked (an `i128` sweep has no wider tableau to check on).
    fn pivots_match_reference<C: Cell>(seed: u64, bits: u32) -> usize {
        let mut g = SplitMix64::new(seed);
        let (mut unit, mut int_rows, mut overflowed, mut avoided) = (0, 0, 0, 0);
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
                let unit_p = p == C::ONE || p == C::NEG_ONE;
                let divides = |i| i != r && t.at(i, c) != C::ZERO && t.at(i, c).divisible_by(p);
                unit += usize::from(unit_p);
                int_rows += (0..t.rows()).filter(|&i| !unit_p && divides(i)).count();
                let mut wide = widen_tab(&t, t.rows(), t.ncols);
                let mut reference = t.clone();
                let want = pivot_reference(&mut reference, r, c);
                let got = t.pivot(r, c);
                let at = format!("pivot on {p:?} at ({r}, {c})");
                match (got, want) {
                    (Some(()), Some(())) => assert_eq!(written(&t), written(&reference), "{at}"),
                    (None, Some(())) => panic!("{at} overflows where the dense formula fits"),
                    (Some(()), None) => {
                        if pivot_reference(&mut wide, r, c).is_some() {
                            assert_eq!(written(&t), written(&wide), "{at}");
                            avoided += 1;
                        }
                    }
                    (None, None) => {
                        overflowed += 1;
                        break;
                    }
                }
            }
        }
        assert!(
            unit > 1000 && int_rows > 1000 && overflowed > 100,
            "{unit} unit pivots, {int_rows} integer-multiplier rows, {overflowed} overflowed"
        );
        avoided
    }

    #[test]
    fn pivots_match_the_dense_reference_at_both_widths() {
        let avoided = pivots_match_reference::<i64>(0x5eed_0233, 63);
        assert!(avoided > 0, "no overflow of the dense formula was avoided");
        pivots_match_reference::<i128>(0x5eed_0234, 127);
    }

    /// Extends `0 <= x, y <= 100`, optimized for `-x` (`x` basic at 100),
    /// by `rows` (`c0·x + c1·y + c2 >= 0`, or `= 0`): as an `i64` attempt
    /// that overflows after `want.0` pivots with a copy of shape `want.1`
    /// and can undo back to the base, then fast and forced wide, which
    /// agree on the answer, the vertex and every decision counter.
    fn escalate(rows: &[([i128; 3], bool)], want: (u64, Option<(usize, usize)>)) {
        let constraint = |c: [i128; 3], eq: bool| {
            [Constraint::ge0, Constraint::eq0][usize::from(eq)](LinExpr::from_coeffs(&c[..2], c[2]))
        };
        let rows: Vec<Constraint> = rows.iter().map(|&(c, eq)| constraint(c, eq)).collect();
        let budget = Budget::unlimited();
        let box_rows = [[1, 0, 0], [0, 1, 0], [-1, 0, 100], [0, -1, 100]];
        let set = ConstraintSet::from_constraints(2, box_rows.map(|c| constraint(c, false)));
        let minus_x = LinExpr::from_coeffs(&[-1, 0], 0);
        let base = || solve_int(&minus_x, &set, &budget).ok().and_then(|s| s.1);
        let Some(Tab::Small(mut t)) = base().map(|s| s.tab) else {
            panic!("the box fits i64");
        };
        let start = written(&t);
        t.undo = Undo::Armed;
        let before = counters::snapshot();
        let out = Verb::Extend(&rows).run(&mut t, 2, false, &budget);
        let pivots = counters::snapshot().delta_since(&before).bb_repair_pivots;
        let undo = std::mem::replace(&mut t.undo, Undo::Off);
        let from = match &undo {
            Undo::Saved(copy) => copy,
            _ => &t,
        };
        let copy = matches!(undo, Undo::Saved(_)).then(|| (from.rows(), from.ncols));
        assert!(matches!(out, Err(SolveAbort::Overflow)));
        assert_eq!((pivots, copy), want);
        assert_eq!(written(&widen_tab(from, 2, 4)), start);

        let run = || {
            let before = counters::snapshot();
            let mut solved = base().expect("the box is bounded");
            let done = solved.extend(&rows, &budget).ok();
            let mut d = counters::snapshot().delta_since(&before);
            let escalations = d.tab_overflow_escalations;
            (d.tab_i64_solves, d.tab_overflow_escalations) = (0, 0);
            ((done, solved.vertex(), d), escalations)
        };
        let fast = run();
        let prev = set_force_wide_tableau(true);
        let wide = run();
        set_force_wide_tableau(prev);
        assert_eq!((fast.0 .0, fast.1, wide.1), (Some(true), 1, 0));
        assert_eq!(fast.0, wide.0);
    }

    #[test]
    fn rows_appended_across_a_bitmap_word_answer_as_a_cold_solve() {
        // `x + y = 10` takes phase 1; 140 rows `x >= 1 | 2` and
        // `y >= 3 | 4`, one slack column each, take the tableau from 3
        // columns past 64 and 128, and dual repair pivots on them. Every
        // bitmap is checked after each build, pivot and appended row.
        let budget = Budget::unlimited();
        let row = |v: usize, bound: i128| {
            let mut c = [0; 2];
            c[v] = 1;
            Constraint::ge0(LinExpr::from_coeffs(&c, -bound))
        };
        let sum = Constraint::eq0(LinExpr::from_coeffs(&[1, 1], -10));
        let base = ConstraintSet::from_constraints(2, [sum, row(0, 0), row(1, 0)]);
        let bound = |k: usize| (k % 4 / 2 + 1 + k % 2 * 2) as i128;
        let rows: Vec<Constraint> = (0..140).map(|k| row(k % 2, bound(k))).collect();
        let Ok(Built::Ready(mut solved)) = build(&base, &budget) else {
            panic!("the base is feasible");
        };
        let minus_x = LinExpr::from_coeffs(&[-1, 0], 0);
        let before = counters::snapshot();
        assert!(matches!(solved.extend(&rows, &budget), Ok(true)));
        assert!(counters::snapshot().delta_since(&before).bb_repair_pivots > 0);
        assert!(matches!(solved.optimize(&minus_x, &budget), Ok(true)));
        let all = base.constraints().iter().chain(&rows).cloned();
        let all = ConstraintSet::from_constraints(2, all);
        let Ok((LpOutcome::Optimal { point, value }, _)) = solve_int(&minus_x, &all, &budget)
        else {
            panic!("the extended system is bounded");
        };
        let vertex = solved.vertex();
        assert_eq!((vertex.value, vertex.point), (value, point));
        assert_eq!(value, Rat::int(-6));
    }

    const B: i128 = 1 << 33;

    #[test]
    fn an_overflow_before_any_pivot_escalates_without_a_copy() {
        // The first row and its slack are appended; pricing the second
        // against `x + s = 100` puts `3 - 2^62 * 100` in its right side.
        escalate(&[([1, 1, -1], false), ([1 << 62, 1, -3], false)], (0, None));
    }

    #[test]
    fn an_overflow_in_dual_repair_escalates_from_the_first_pivots_copy() {
        // Both rows and their slacks are in the copy; `y >= (2^33 + 2) x`
        // is violated, dual repair pivots once, and its next pivot
        // overflows.
        escalate(
            &[([1, -1, 0], false), ([-(B + 2), 1, 0], false)],
            (1, Some((4, 6))),
        );
    }

    #[test]
    fn a_slack_column_appended_after_the_copy_is_dropped_with_its_row() {
        // The equality pivots in, so the copy holds its row; the
        // inequality's slack column is appended to the live tableau only.
        escalate(
            &[([1, -(B + 6), 0], true), ([B + 8, -(B + 5), 0], false)],
            (1, Some((3, 4))),
        );
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
            let len = [g.below(10), g.below(200)][g.below(2)];
            let mut row: Vec<C> = (0..len).map(|_| entry(&mut g)).collect();
            let mut den = C::narrow(factor * g.range_i128(1, 9)).expect("small");
            let (mut want_row, mut want_den) = (row.clone(), den);
            reduce_content_reference(&mut want_den, &mut want_row);
            let mut nonzero = vec![0; len.div_ceil(64)];
            mark(&row, &mut nonzero);
            let pattern = nonzero.clone();
            update_row(&mut row, &mut nonzero, &mut den, C::ONE, C::ZERO, &[], &[])
                .expect("a reduction cannot overflow");
            assert_eq!((den, &row, &nonzero), (want_den, &want_row, &pattern));
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
