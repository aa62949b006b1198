//! Affine constraints and constraint sets (rational polyhedra with integer
//! points of interest).

use crate::linexpr::LinExpr;
use polyject_arith::{Fnv64, Rat};
use std::fmt;

/// The sense of a constraint on an affine expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConstraintKind {
    /// `expr == 0`
    Eq,
    /// `expr >= 0`
    Ge,
}

/// A single affine constraint: `expr == 0` or `expr >= 0`.
///
/// # Examples
///
/// ```
/// use polyject_sets::{Constraint, LinExpr};
/// // x0 - 3 >= 0, i.e. x0 >= 3
/// let c = Constraint::ge0(LinExpr::from_coeffs(&[1], -3));
/// assert!(c.is_satisfied_int(&[5]));
/// assert!(!c.is_satisfied_int(&[2]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    expr: LinExpr,
    kind: ConstraintKind,
}

impl Constraint {
    /// Creates the constraint `expr >= 0`.
    pub fn ge0(expr: LinExpr) -> Constraint {
        Constraint {
            expr: expr.normalized_ineq(),
            kind: ConstraintKind::Ge,
        }
    }

    /// Creates the constraint `expr == 0`.
    pub fn eq0(expr: LinExpr) -> Constraint {
        Constraint {
            expr: expr.normalized_eq(),
            kind: ConstraintKind::Eq,
        }
    }

    /// Creates `lhs >= rhs`.
    pub fn ge(lhs: &LinExpr, rhs: &LinExpr) -> Constraint {
        Constraint::ge0(lhs - rhs)
    }

    /// Creates `lhs == rhs`.
    pub fn eq(lhs: &LinExpr, rhs: &LinExpr) -> Constraint {
        Constraint::eq0(lhs - rhs)
    }

    /// The constrained expression.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The constraint sense.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// Whether this is an equality constraint.
    pub fn is_equality(&self) -> bool {
        self.kind == ConstraintKind::Eq
    }

    /// Checks satisfaction at an integer point.
    pub fn is_satisfied_int(&self, point: &[i128]) -> bool {
        let v = self.expr.eval_int(point);
        match self.kind {
            ConstraintKind::Eq => v.is_zero(),
            ConstraintKind::Ge => !v.is_negative(),
        }
    }

    /// Checks satisfaction at a rational point.
    pub fn is_satisfied(&self, point: &[Rat]) -> bool {
        let v = self.expr.eval(point);
        match self.kind {
            ConstraintKind::Eq => v.is_zero(),
            ConstraintKind::Ge => !v.is_negative(),
        }
    }

    /// Returns the constraint with its space extended to `n_vars`.
    pub fn extended(&self, n_vars: usize) -> Constraint {
        Constraint {
            expr: self.expr.extended(n_vars),
            kind: self.kind,
        }
    }

    /// Returns the constraint with `count` fresh variables inserted at `at`.
    pub fn with_vars_inserted(&self, at: usize, count: usize) -> Constraint {
        Constraint {
            expr: self.expr.with_vars_inserted(at, count),
            kind: self.kind,
        }
    }

    /// A trivially true constraint is `c >= 0` with `c >= 0`, or `0 == 0`.
    pub fn is_trivially_true(&self) -> bool {
        if !self.expr.is_constant() {
            return false;
        }
        match self.kind {
            ConstraintKind::Eq => self.expr.constant_term().is_zero(),
            ConstraintKind::Ge => !self.expr.constant_term().is_negative(),
        }
    }

    /// A trivially false constraint is `c >= 0` with `c < 0`, or `c == 0`
    /// with `c != 0`.
    pub fn is_trivially_false(&self) -> bool {
        if !self.expr.is_constant() {
            return false;
        }
        match self.kind {
            ConstraintKind::Eq => !self.expr.constant_term().is_zero(),
            ConstraintKind::Ge => self.expr.constant_term().is_negative(),
        }
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
        write!(f, "{} {} 0", self.expr, op)
    }
}

/// A conjunction of affine constraints over a shared positional variable
/// space — a rational polyhedron.
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
    /// One 64-bit fingerprint per constraint, in lockstep with
    /// `constraints`. Dedup in [`ConstraintSet::add`] scans these first
    /// and only falls back to a deep comparison on a fingerprint match,
    /// turning the quadratic growth of Fourier–Motzkin output sets into
    /// cheap integer scans.
    hashes: Vec<u64>,
}

/// FNV-1a over the constraint's kind, coefficients and constant. A pure
/// function of the (normalized) constraint, so equal constraints always
/// collide — inequality of fingerprints proves inequality of constraints.
fn fingerprint(c: &Constraint) -> u64 {
    let mut h = Fnv64::new();
    let mut mix = |v: i128| h.write(&v.to_le_bytes());
    mix(match c.kind {
        ConstraintKind::Eq => 0,
        ConstraintKind::Ge => 1,
    });
    for r in c.expr.coeffs() {
        mix(r.numer());
        mix(r.denom());
    }
    mix(c.expr.constant_term().numer());
    mix(c.expr.constant_term().denom());
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
        let mut set = ConstraintSet::universe(n_vars);
        for c in constraints {
            set.add(c);
        }
        set
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
        assert_eq!(c.expr().n_vars(), self.n_vars, "constraint space mismatch");
        if c.is_trivially_true() {
            return;
        }
        let fp = fingerprint(&c);
        let dup = self
            .hashes
            .iter()
            .zip(&self.constraints)
            .any(|(&h, e)| h == fp && *e == c);
        if !dup {
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
        for c in &other.constraints {
            self.add(c.clone());
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

    /// Splits the constraints into (equalities, inequalities).
    pub fn split(&self) -> (Vec<&Constraint>, Vec<&Constraint>) {
        self.constraints.iter().partition(|c| c.is_equality())
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
        assert_eq!(c.expr(), &LinExpr::from_coeffs(&[1, 2], 3));
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
