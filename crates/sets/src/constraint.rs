//! Affine constraints and constraint sets (polyhedra whose integer
//! points are of interest).
//!
//! A [`Constraint`] stores one row of coprime integers — its variable
//! coefficients, then its constant — and its kind. Every constructor
//! brings the row to that form once ([`normalize`]), so the solvers,
//! Fourier–Motzkin and the integer preprocessing read the cells as they
//! are stored. [`LinExpr`] stays the rational input and output type.

use crate::linexpr::LinExpr;
use polyject_arith::{gcd, lcm, Fnv64, Rat};
use std::fmt;

/// The sense of a constraint on an affine expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConstraintKind {
    /// `expr == 0`
    Eq,
    /// `expr >= 0`
    Ge,
}

/// A single affine constraint: `expr == 0` or `expr >= 0`, held as the
/// coprime integer row of `expr`.
///
/// # Examples
///
/// ```
/// use polyject_sets::{Constraint, LinExpr};
/// // 2*x0 - 6 >= 0, i.e. x0 >= 3
/// let c = Constraint::ge0(LinExpr::from_coeffs(&[2], -6));
/// assert_eq!((c.coeffs(), c.constant()), (&[1][..], -3));
/// assert!(c.is_satisfied_int(&[5]));
/// assert!(!c.is_satisfied_int(&[2]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The variable coefficients, then the constant.
    row: Vec<i128>,
    kind: ConstraintKind,
}

/// Brings an integer row to its canonical form in place: divided by the
/// content of its entries (the scan stops at the first gcd of 1) and, for
/// an equality only, with its first non-zero entry positive.
fn normalize(row: &mut [i128], kind: ConstraintKind) {
    let mut g: i128 = 0;
    for &c in row.iter() {
        if g == 1 {
            break;
        }
        if c != 0 {
            g = gcd(g, c);
        }
    }
    if g > 1 {
        row.iter_mut().for_each(|c| *c /= g);
    }
    if kind == ConstraintKind::Eq && row.iter().find(|&&c| c != 0).is_some_and(|&c| c < 0) {
        for c in row.iter_mut() {
            *c = c.checked_neg().expect("rational overflow");
        }
    }
}

/// The entries of `expr` — coefficients, then the constant — scaled by
/// the lcm of their denominators, so each is an integer.
fn integer_entries(expr: &LinExpr) -> Vec<i128> {
    let denom_lcm = expr
        .entries()
        .filter(|c| !c.is_integer())
        .fold(1, |l, c| lcm(l, c.denom()));
    expr.entries()
        .map(|c| {
            c.numer()
                .checked_mul(denom_lcm / c.denom())
                .expect("rational overflow")
        })
        .collect()
}

impl Constraint {
    /// Creates the constraint `expr >= 0`.
    ///
    /// # Panics
    ///
    /// Panics with `"rational overflow"` if an entry of the normalized row
    /// does not fit `i128`.
    pub fn ge0(expr: LinExpr) -> Constraint {
        Constraint::from_row(ConstraintKind::Ge, integer_entries(&expr))
    }

    /// Creates the constraint `expr == 0`.
    ///
    /// # Panics
    ///
    /// As [`Constraint::ge0`].
    pub fn eq0(expr: LinExpr) -> Constraint {
        Constraint::from_row(ConstraintKind::Eq, integer_entries(&expr))
    }

    /// Creates `lhs == rhs`.
    pub fn eq(lhs: &LinExpr, rhs: &LinExpr) -> Constraint {
        Constraint::eq0(lhs - rhs)
    }

    /// The constraint of `kind` on the integer row `row` (coefficients,
    /// then the constant), normalized.
    pub(crate) fn from_row(kind: ConstraintKind, mut row: Vec<i128>) -> Constraint {
        normalize(&mut row, kind);
        Constraint { row, kind }
    }

    /// The normalized row: the variable coefficients, then the constant.
    pub(crate) fn row(&self) -> &[i128] {
        &self.row
    }

    /// The variable coefficients.
    pub fn coeffs(&self) -> &[i128] {
        &self.row[..self.n_vars()]
    }

    /// Coefficient of variable `var`.
    pub fn coeff(&self, var: usize) -> i128 {
        self.coeffs()[var]
    }

    /// The constant term.
    pub fn constant(&self) -> i128 {
        self.row[self.n_vars()]
    }

    /// Number of variables in the constraint's space.
    pub(crate) fn n_vars(&self) -> usize {
        self.row.len() - 1
    }

    /// The constrained expression, for callers that do rational
    /// arithmetic on it (an LP objective, the `*_reference` solvers) or
    /// render it.
    pub fn to_expr(&self) -> LinExpr {
        LinExpr::from_coeffs(self.coeffs(), self.constant())
    }

    /// The constraint sense.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// Whether this is an equality constraint.
    pub fn is_equality(&self) -> bool {
        self.kind == ConstraintKind::Eq
    }

    /// The variable `v` when this is the sign row `x_v >= 0`.
    pub(crate) fn sign_var(&self) -> Option<usize> {
        if self.kind != ConstraintKind::Ge || self.constant() != 0 {
            return None;
        }
        let mut vars = self.coeffs().iter().enumerate().filter(|(_, &c)| c != 0);
        match (vars.next(), vars.next()) {
            (Some((v, 1)), None) => Some(v),
            _ => None,
        }
    }

    /// The constrained expression's value at an integer point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.n_vars()`, or with `"rational
    /// overflow"` if the value does not fit `i128`.
    pub fn value_at(&self, point: &[i128]) -> i128 {
        assert_eq!(point.len(), self.n_vars(), "dimension mismatch");
        self.coeffs()
            .iter()
            .zip(point)
            .try_fold(self.constant(), |acc, (&c, &x)| {
                acc.checked_add(c.checked_mul(x)?)
            })
            .expect("rational overflow")
    }

    /// Whether the sense holds for the expression value `v`.
    fn holds(&self, v: i128) -> bool {
        match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::Ge => v >= 0,
        }
    }

    /// Checks satisfaction at an integer point.
    pub fn is_satisfied_int(&self, point: &[i128]) -> bool {
        self.holds(self.value_at(point))
    }

    /// Checks satisfaction at a rational point.
    pub(crate) fn is_satisfied(&self, point: &[Rat]) -> bool {
        assert_eq!(point.len(), self.n_vars(), "dimension mismatch");
        let v = self
            .coeffs()
            .iter()
            .zip(point)
            .fold(Rat::int(self.constant()), |acc, (&c, &x)| {
                acc + Rat::int(c) * x
            });
        match self.kind {
            ConstraintKind::Eq => v.is_zero(),
            ConstraintKind::Ge => !v.is_negative(),
        }
    }

    /// Returns the constraint with its space extended to `n_vars`.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars < self.n_vars()`.
    pub fn extended(&self, n_vars: usize) -> Constraint {
        assert!(n_vars >= self.n_vars(), "cannot shrink space");
        self.with_vars_inserted(self.n_vars(), n_vars - self.n_vars())
    }

    /// Returns the constraint with `count` fresh variables inserted at `at`.
    pub fn with_vars_inserted(&self, at: usize, count: usize) -> Constraint {
        assert!(at <= self.n_vars(), "insertion point out of range");
        let mut row = Vec::with_capacity(self.row.len() + count);
        row.extend_from_slice(&self.row[..at]);
        row.extend(std::iter::repeat_n(0, count));
        row.extend_from_slice(&self.row[at..]);
        // Zero columns change neither the content nor the first non-zero
        // entry: the row stays normalized.
        Constraint {
            row,
            kind: self.kind,
        }
    }

    /// The constraint over `n_vars` variables whose coefficient `j` is
    /// this one's coefficient `old_of(j)`, with the same constant and
    /// kind: the columns permuted, or projected away where they are zero.
    /// Normalized again, as a permutation can move an equality's first
    /// non-zero entry.
    pub fn remapped(&self, n_vars: usize, old_of: impl Fn(usize) -> usize) -> Constraint {
        let row = (0..n_vars)
            .map(|j| self.coeff(old_of(j)))
            .chain([self.constant()])
            .collect();
        Constraint::from_row(self.kind, row)
    }

    /// Whether the row has no variable term.
    fn is_constant(&self) -> bool {
        self.coeffs().iter().all(|&c| c == 0)
    }

    /// A trivially true constraint is `c >= 0` with `c >= 0`, or `0 == 0`.
    pub(crate) fn is_trivially_true(&self) -> bool {
        self.is_constant() && self.holds(self.constant())
    }

    /// A trivially false constraint is `c >= 0` with `c < 0`, or `c == 0`
    /// with `c != 0`.
    pub(crate) fn is_trivially_false(&self) -> bool {
        self.is_constant() && !self.holds(self.constant())
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            ConstraintKind::Eq => "=",
            ConstraintKind::Ge => ">=",
        };
        write!(f, "{} {} 0", self.to_expr(), op)
    }
}

/// A conjunction of affine constraints over a shared positional variable
/// space — a polyhedron.
///
/// # Examples
///
/// ```
/// use polyject_sets::{Constraint, ConstraintSet, LinExpr};
///
/// // { x0, x1 | 0 <= x0 <= 3, x1 == x0 }
/// let mut set = ConstraintSet::universe(2);
/// set.add(Constraint::ge0(LinExpr::from_coeffs(&[1, 0], 0)));
/// set.add(Constraint::ge0(LinExpr::from_coeffs(&[-1, 0], 3)));
/// set.add(Constraint::eq0(LinExpr::from_coeffs(&[1, -1], 0)));
/// assert!(set.contains_int(&[2, 2]));
/// assert!(!set.contains_int(&[2, 1]));
/// ```
#[derive(Clone)]
pub struct ConstraintSet {
    n_vars: usize,
    constraints: Vec<Constraint>,
    /// `fingerprint(&constraints[i])` for every `i`, kept in lockstep by
    /// every mutation. Dedup scans these words and compares constraints
    /// deeply only on a match, and a row that moves between sets
    /// ([`ConstraintSet::intersect`]) brings its word along instead of
    /// being hashed again.
    hashes: Vec<u64>,
}

/// The constraint's kind and row folded through [`Fnv64::write_word`]:
/// one step per entry that fits a word — every entry of a scheduling row
/// — and a tagged three-word form for anything wider. A pure function of
/// the constraint, so equal constraints always collide: unequal
/// fingerprints prove unequal constraints, equal ones prove nothing.
/// Lives only in memory, in front of a deep comparison.
fn fingerprint(c: &Constraint) -> u64 {
    /// Announces an entry in `i128` halves.
    const WIDE: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = Fnv64::new();
    h.write_word(match c.kind {
        ConstraintKind::Eq => 0,
        ConstraintKind::Ge => 1,
    });
    for &v in &c.row {
        match i64::try_from(v) {
            Ok(v) => h.write_word(v as u64),
            Err(_) => {
                h.write_word(WIDE);
                h.write_word(v as u64);
                h.write_word((v >> 64) as u64);
            }
        }
    }
    h.finish()
}

impl PartialEq for ConstraintSet {
    fn eq(&self, other: &ConstraintSet) -> bool {
        // `hashes` is derived data; comparing it would be redundant.
        self.n_vars == other.n_vars && self.constraints == other.constraints
    }
}

impl Eq for ConstraintSet {}

impl ConstraintSet {
    /// The unconstrained set over `n_vars` variables.
    pub fn universe(n_vars: usize) -> ConstraintSet {
        ConstraintSet {
            n_vars,
            constraints: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Builds a set from constraints.
    ///
    /// # Panics
    ///
    /// Panics if any constraint has a different variable count.
    pub fn from_constraints(
        n_vars: usize,
        constraints: impl IntoIterator<Item = Constraint>,
    ) -> ConstraintSet {
        let constraints = constraints.into_iter();
        let mut set = ConstraintSet::universe(n_vars);
        set.reserve(constraints.size_hint().0);
        for c in constraints {
            set.add(c);
        }
        set
    }

    fn reserve(&mut self, additional: usize) {
        self.constraints.reserve(additional);
        self.hashes.reserve(additional);
    }

    /// Whether the set already holds `c`, whose fingerprint is `fp`.
    fn holds(&self, fp: u64, c: &Constraint) -> bool {
        self.hashes
            .iter()
            .zip(&self.constraints)
            .any(|(&h, e)| h == fp && e == c)
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether there are no constraints (the universe set).
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// A 64-bit fingerprint of the whole set: the variable count folded
    /// with every per-constraint fingerprint, order-sensitively. Equal
    /// sets always collide, so inequality of fingerprints proves
    /// inequality of sets — use as a pre-filter in front of deep
    /// equality, never as identity.
    pub fn fingerprint64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_word(self.n_vars as u64);
        for &fp in &self.hashes {
            h.write_word(fp);
        }
        h.finish()
    }

    /// Adds a constraint, deduplicating syntactically identical ones and
    /// dropping trivially true ones.
    ///
    /// # Panics
    ///
    /// Panics if the constraint's variable count differs.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(c.n_vars(), self.n_vars, "constraint space mismatch");
        if c.is_trivially_true() {
            return;
        }
        let fp = fingerprint(&c);
        if !self.holds(fp, &c) {
            self.constraints.push(c);
            self.hashes.push(fp);
        }
    }

    /// Drops every constraint after the first `len`, restoring the set to
    /// an earlier state recorded with [`ConstraintSet::len`]. Because
    /// [`ConstraintSet::add`] only ever appends (or no-ops on duplicates
    /// and trivially-true constraints), a `len()`/`add`/`truncate`
    /// sequence is an exact push/pop — branch-and-bound uses this to avoid
    /// cloning the whole set at every search node.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current constraint count (which would
    /// indicate a mismatched push/pop pair, not a restore).
    pub fn truncate(&mut self, len: usize) {
        assert!(
            len <= self.constraints.len(),
            "truncate beyond current length"
        );
        self.constraints.truncate(len);
        self.hashes.truncate(len);
    }

    /// Adds every constraint of `other`.
    ///
    /// # Panics
    ///
    /// Panics if spaces differ.
    pub fn intersect(&mut self, other: &ConstraintSet) {
        assert_eq!(other.n_vars, self.n_vars, "space mismatch");
        self.reserve(other.len());
        // Every row of `other` went through `add` once: none is trivially
        // true, and `other.hashes` holds its fingerprint.
        for (c, &fp) in other.constraints.iter().zip(&other.hashes) {
            if !self.holds(fp, c) {
                self.constraints.push(c.clone());
                self.hashes.push(fp);
            }
        }
    }

    /// Whether an integer point satisfies all constraints.
    pub fn contains_int(&self, point: &[i128]) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied_int(point))
    }

    /// Whether a rational point satisfies all constraints.
    pub fn contains(&self, point: &[Rat]) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(point))
    }

    /// Whether any constraint is syntactically false (quick emptiness
    /// witness; sound but incomplete — use the solver for a real test).
    pub fn has_trivial_contradiction(&self) -> bool {
        self.constraints.iter().any(Constraint::is_trivially_false)
    }

    /// Returns the set with its space extended to `n_vars`.
    pub fn extended(&self, n_vars: usize) -> ConstraintSet {
        let constraints: Vec<Constraint> = self
            .constraints
            .iter()
            .map(|c| c.extended(n_vars))
            .collect();
        let hashes = constraints.iter().map(fingerprint).collect();
        ConstraintSet {
            n_vars,
            constraints,
            hashes,
        }
    }

    /// Returns the set with `count` fresh unconstrained variables inserted
    /// at position `at`.
    pub fn with_vars_inserted(&self, at: usize, count: usize) -> ConstraintSet {
        let constraints: Vec<Constraint> = self
            .constraints
            .iter()
            .map(|c| c.with_vars_inserted(at, count))
            .collect();
        let hashes = constraints.iter().map(fingerprint).collect();
        ConstraintSet {
            n_vars: self.n_vars + count,
            constraints,
            hashes,
        }
    }
}

impl fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ConstraintSet({} vars) {{", self.n_vars)?;
        for c in &self.constraints {
            writeln!(f, "  {}", c)?;
        }
        write!(f, "}}")
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        for c in iter {
            self.add(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> ConstraintSet {
        // 0 <= x0 <= 1, 0 <= x1 <= 1
        ConstraintSet::from_constraints(
            2,
            vec![
                Constraint::ge0(LinExpr::from_coeffs(&[1, 0], 0)),
                Constraint::ge0(LinExpr::from_coeffs(&[-1, 0], 1)),
                Constraint::ge0(LinExpr::from_coeffs(&[0, 1], 0)),
                Constraint::ge0(LinExpr::from_coeffs(&[0, -1], 1)),
            ],
        )
    }

    #[test]
    fn membership() {
        let b = unit_box();
        assert!(b.contains_int(&[0, 1]));
        assert!(!b.contains_int(&[2, 0]));
        assert!(b.contains(&[Rat::new(1, 2), Rat::new(1, 3)]));
    }

    #[test]
    fn dedup_and_trivial_drop() {
        let mut s = ConstraintSet::universe(1);
        let c = Constraint::ge0(LinExpr::from_coeffs(&[1], 0));
        s.add(c.clone());
        s.add(c);
        assert_eq!(s.len(), 1);
        s.add(Constraint::ge0(LinExpr::constant(1, 5)));
        assert_eq!(s.len(), 1, "trivially true constraint dropped");
    }

    #[test]
    fn trivial_contradiction() {
        let mut s = ConstraintSet::universe(1);
        s.add(Constraint::ge0(LinExpr::constant(1, -1)));
        assert!(s.has_trivial_contradiction());
    }

    #[test]
    fn equality_membership() {
        let mut s = unit_box();
        s.add(Constraint::eq(&LinExpr::var(2, 0), &LinExpr::var(2, 1)));
        assert!(s.contains_int(&[1, 1]));
        assert!(!s.contains_int(&[0, 1]));
    }

    #[test]
    fn insertion_preserves_meaning() {
        let b = unit_box().with_vars_inserted(1, 1);
        assert_eq!(b.n_vars(), 3);
        // Middle variable is unconstrained.
        assert!(b.contains_int(&[1, 99, 0]));
        assert!(!b.contains_int(&[2, 0, 0]));
    }

    #[test]
    fn normalization_on_creation() {
        let c = Constraint::ge0(LinExpr::from_coeffs(&[2, 4], 6));
        assert_eq!(c.row(), [1, 2, 3]);
        assert_eq!((c.coeff(1), c.constant(), c.n_vars()), (2, 3, 2));
        assert_eq!(c.to_expr(), LinExpr::from_coeffs(&[1, 2], 3));
    }

    /// An expression with rational entries.
    fn rat_expr(coeffs: &[Rat], k: Rat) -> LinExpr {
        let mut e = LinExpr::constant(coeffs.len(), k);
        for (v, &c) in coeffs.iter().enumerate() {
            e.set_coeff(v, c);
        }
        e
    }

    #[test]
    fn normalization_inequality_keeps_direction() {
        // (1/2)x0 - (3/2) >= 0 normalizes to x0 - 3 >= 0.
        let e = rat_expr(&[Rat::new(1, 2)], Rat::new(-3, 2));
        assert_eq!(Constraint::ge0(e).row(), [1, -3]);
        // -2x0 + 4 >= 0 normalizes to -x0 + 2 >= 0 (no sign flip!).
        let e = LinExpr::from_coeffs(&[-2], 4);
        assert_eq!(Constraint::ge0(e).row(), [-1, 2]);
    }

    #[test]
    fn normalization_equality_canonical_sign() {
        let e = LinExpr::from_coeffs(&[-2, 4], -6);
        assert_eq!(Constraint::eq0(e).row(), [1, -2, 3]);
    }

    /// The route the integer normalizer replaced: one scaling factor — an
    /// lcm over every denominator, a gcd over every integerized numerator
    /// — applied through `LinExpr::scaled`, and a sign flip for an
    /// equality with a negative leading entry.
    fn normalized_reference(e: &LinExpr, kind: ConstraintKind) -> LinExpr {
        let denom_lcm = e.entries().fold(1, |l, c| lcm(l, c.denom()));
        let g = e.entries().fold(0, |g, c| {
            let int = c.numer().checked_mul(denom_lcm / c.denom());
            gcd(g, int.expect("reference overflow"))
        });
        let n = e.scaled(Rat::new(denom_lcm, g.max(1)));
        let lead = n.entries().find(|c| !c.is_zero()).copied();
        if kind == ConstraintKind::Eq && lead.is_some_and(|l| l.is_negative()) {
            n.scaled(-Rat::ONE)
        } else {
            n
        }
    }

    #[test]
    fn normalization_matches_the_scaling_route_on_random_rows() {
        let mut g = polyject_arith::SplitMix64::new(0x5eed_0231);
        for case in 0..3000 {
            let n = g.below(7);
            // Sparse rows, a common factor now and then, fractions in
            // every third row, the odd all-zero row.
            let factor = [1, 1, 2, 3, 6, 10][g.below(6)];
            let fractional = case % 3 == 0;
            let mut entry = || {
                if g.below(3) == 0 {
                    return Rat::ZERO;
                }
                let num = factor * g.range_i128(-9, 10);
                let den = if fractional { g.range_i128(1, 13) } else { 1 };
                Rat::new(num, den)
            };
            let coeffs: Vec<Rat> = (0..n).map(|_| entry()).collect();
            let e = rat_expr(&coeffs, entry());
            for kind in [ConstraintKind::Ge, ConstraintKind::Eq] {
                let c = match kind {
                    ConstraintKind::Ge => Constraint::ge0(e.clone()),
                    ConstraintKind::Eq => Constraint::eq0(e.clone()),
                };
                assert_eq!(c.to_expr(), normalized_reference(&e, kind), "{e}");
                let again = Constraint::from_row(kind, c.row().to_vec());
                assert_eq!(again, c, "idempotent on {e}");
            }
        }
    }

    #[test]
    fn normalization_of_a_large_row_is_exact() {
        // lcm 3 * 2^20: the entries integerize to 2^120 and 3, coprime.
        let e = rat_expr(&[Rat::new(1 << 100, 3)], Rat::new(1, 1 << 20));
        assert_eq!(Constraint::ge0(e.clone()).row(), [1 << 120, 3]);
        assert_eq!(
            normalized_reference(&e, ConstraintKind::Ge),
            LinExpr::from_coeffs(&[1 << 120], 3)
        );
        // And a common factor of 2^100 comes out of integers as wide.
        let e = LinExpr::from_coeffs(&[-(3 << 100), 5 << 100], 1 << 101);
        assert_eq!(Constraint::eq0(e).row(), [3, -5, -2]);
    }

    /// The integerized entry `2^100 * 2^30` does not fit `i128`: that is a
    /// panic with the exact layer's message under every profile, never a
    /// wrapped product normalizing to some other constraint.
    #[test]
    #[should_panic(expected = "rational overflow")]
    fn normalization_overflow_panics_instead_of_wrapping() {
        let e = rat_expr(&[Rat::new(1 << 100, 3)], Rat::new(1, 1 << 30));
        let _ = Constraint::ge0(e);
    }

    #[test]
    fn remapping_columns_renormalizes_an_equality() {
        // -x0 + 2*x1 == 0 is stored as x0 - 2*x1 == 0; swapping the
        // columns puts -2 first, so the sign flips back.
        let c = Constraint::eq0(LinExpr::from_coeffs(&[-1, 2], 0));
        let swapped = c.remapped(2, |j| 1 - j);
        assert_eq!(swapped.row(), [2, -1, 0]);
        assert_eq!(swapped, Constraint::eq0(LinExpr::from_coeffs(&[-2, 1], 0)));
        // A projection drops a zero column; an inequality keeps its sign.
        let c = Constraint::ge0(LinExpr::from_coeffs(&[0, -3, 0], 6));
        assert_eq!(c.remapped(1, |j| j + 1).row(), [-1, 2]);
    }

    /// `hashes` is `fingerprint` over `constraints`, entry for entry.
    fn assert_lockstep(s: &ConstraintSet) {
        let derived: Vec<u64> = s.constraints.iter().map(fingerprint).collect();
        assert_eq!(s.hashes, derived);
    }

    /// A row over few small values, so that draws repeat: now and then
    /// trivially true, an equality, a multiple of an earlier draw, or
    /// wider than a word.
    fn arb_constraint(g: &mut polyject_arith::SplitMix64, n: usize) -> Constraint {
        let mut coeffs = g.vec_i128(n, -1, 2);
        let mut k = g.range_i128(-2, 3);
        match g.below(8) {
            0 => coeffs.fill(0),
            1 => coeffs.iter_mut().for_each(|c| *c *= 3),
            2 => k = (k << 70) + 1,
            _ => {}
        }
        let e = LinExpr::from_coeffs(&coeffs, k);
        if g.below(4) == 0 {
            Constraint::eq0(e)
        } else {
            Constraint::ge0(e)
        }
    }

    #[test]
    fn intersect_is_a_fold_of_add_and_hashes_stay_in_lockstep() {
        let mut g = polyject_arith::SplitMix64::new(0x5eed_0232);
        for _ in 0..400 {
            let n = 1 + g.below(3);
            let draw = |g: &mut polyject_arith::SplitMix64| {
                let rows: Vec<Constraint> =
                    (0..g.below(12)).map(|_| arb_constraint(g, n)).collect();
                let set = ConstraintSet::from_constraints(n, rows.iter().cloned());
                let mut folded = ConstraintSet::universe(n);
                rows.into_iter().for_each(|c| folded.add(c));
                assert_eq!(set.constraints, folded.constraints);
                assert_eq!(set.hashes, folded.hashes);
                set
            };
            let (a, b) = (draw(&mut g), draw(&mut g));
            let mut met = a.clone();
            met.intersect(&b);
            let mut folded = a.clone();
            b.constraints().iter().for_each(|c| folded.add(c.clone()));
            assert_eq!(met.constraints, folded.constraints, "rows and their order");
            assert_eq!(met.hashes, folded.hashes);
            assert_eq!(met.fingerprint64(), folded.fingerprint64());
            assert!(met.len() <= a.len() + b.len());

            assert_lockstep(&met);
            assert_lockstep(&met.clone());
            assert_lockstep(&met.with_vars_inserted(g.below(n + 1), g.below(3)));
            assert_lockstep(&met.extended(n + g.below(3)));
            let mut cut = met.clone();
            cut.truncate(g.below(met.len() + 1));
            assert_lockstep(&cut);
            assert_eq!(cut.constraints, met.constraints[..cut.len()]);
        }
    }

    #[test]
    fn fingerprint_tells_wide_entries_apart() {
        let row = |k: i128| Constraint {
            row: vec![1, k],
            kind: ConstraintKind::Ge,
        };
        // One word, two halves of a wide integer.
        let entries = [
            5,
            5 + (1 << 64),
            5 + (1 << 100),
            i64::MIN as i128,
            i64::MIN as i128 - 1,
        ];
        let fps: Vec<u64> = entries.iter().map(|&k| fingerprint(&row(k))).collect();
        for (i, a) in fps.iter().enumerate() {
            assert_eq!(*a, fingerprint(&row(entries[i])), "a pure function");
            assert!(fps[..i].iter().all(|b| a != b), "{:?}", entries[i]);
        }
        let eq = Constraint {
            kind: ConstraintKind::Eq,
            ..row(entries[0])
        };
        assert_ne!(fingerprint(&eq), fps[0]);
    }

    #[test]
    fn fingerprints_track_constraints_through_every_mutation() {
        // Equal constraints (after normalization) must dedup through the
        // fingerprint path, and derived sets must carry fingerprints for
        // the *transformed* rows, not the originals.
        let mut s = unit_box();
        let len = s.len();
        s.add(Constraint::ge0(LinExpr::from_coeffs(&[2, 0], 0))); // = x0 >= 0
        assert_eq!(s.len(), len, "normalized duplicate deduped via fingerprint");

        let wider = s.extended(3);
        let mut w2 = wider.clone();
        for c in wider.constraints() {
            w2.add(c.clone());
        }
        assert_eq!(
            w2.len(),
            wider.len(),
            "extended rows dedup against themselves"
        );

        let ins = s.with_vars_inserted(0, 1);
        let mut i2 = ins.clone();
        for c in ins.constraints() {
            i2.add(c.clone());
        }
        assert_eq!(i2.len(), ins.len());

        // Push/pop restores both vectors in lockstep.
        let mark = s.len();
        s.add(Constraint::ge0(LinExpr::from_coeffs(&[1, 1], -7)));
        s.truncate(mark);
        s.add(Constraint::ge0(LinExpr::from_coeffs(&[1, 1], -7)));
        assert_eq!(s.len(), mark + 1, "re-adding after truncate works");
    }
}
