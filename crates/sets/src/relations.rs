//! Set-level relations: inclusion and equality — the isl set operations
//! the higher layers occasionally need beyond projection and
//! optimization.

use crate::constraint::ConstraintSet;
use crate::simplex::{minimize, LpOutcome};

/// Whether every rational point of `a` also satisfies `b` (polyhedral
/// inclusion, exact via one LP per constraint of `b`).
///
/// # Examples
///
/// ```
/// use polyject_sets::{is_subset, Constraint, ConstraintSet, LinExpr};
///
/// let tight = ConstraintSet::from_constraints(1, vec![
///     Constraint::ge0(LinExpr::from_coeffs(&[1], 0)),   // x >= 0
///     Constraint::ge0(LinExpr::from_coeffs(&[-1], 5)),  // x <= 5
/// ]);
/// let loose = ConstraintSet::from_constraints(1, vec![
///     Constraint::ge0(LinExpr::from_coeffs(&[1], 3)),   // x >= -3
/// ]);
/// assert!(is_subset(&tight, &loose));
/// assert!(!is_subset(&loose, &tight));
/// ```
///
/// # Panics
///
/// Panics if the spaces differ.
pub fn is_subset(a: &ConstraintSet, b: &ConstraintSet) -> bool {
    assert_eq!(a.n_vars(), b.n_vars(), "space mismatch");
    for c in b.constraints() {
        // a ⊆ {c} iff min over a of c.expr is >= 0 (and == 0 both ways
        // for equalities).
        let e = c.to_expr();
        let lo = match minimize(&e, a) {
            LpOutcome::Infeasible => return true, // empty ⊆ anything
            LpOutcome::Unbounded => return false,
            LpOutcome::Optimal { value, .. } => value,
        };
        if lo.is_negative() {
            return false;
        }
        if c.is_equality() {
            match minimize(&-&e, a) {
                LpOutcome::Infeasible => return true,
                LpOutcome::Unbounded => return false,
                LpOutcome::Optimal { value, .. } => {
                    if value.is_negative() {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Whether two sets contain exactly the same rational points.
pub fn set_eq(a: &ConstraintSet, b: &ConstraintSet) -> bool {
    is_subset(a, b) && is_subset(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::ilp::{lexmin_integer, IlpOutcome};
    use crate::linexpr::LinExpr;

    fn ge(coeffs: &[i128], k: i128) -> Constraint {
        Constraint::ge0(LinExpr::from_coeffs(coeffs, k))
    }

    fn unit_box(n_vars: usize, hi: i128) -> ConstraintSet {
        let mut s = ConstraintSet::universe(n_vars);
        for v in 0..n_vars {
            let mut lo = vec![0; n_vars];
            lo[v] = 1;
            s.add(ge(&lo, 0));
            let mut up = vec![0; n_vars];
            up[v] = -1;
            s.add(ge(&up, hi));
        }
        s
    }

    #[test]
    fn subset_reflexive_and_antisymmetric() {
        let b = unit_box(2, 4);
        assert!(is_subset(&b, &b));
        assert!(set_eq(&b, &b));
        let bigger = unit_box(2, 9);
        assert!(is_subset(&b, &bigger));
        assert!(!is_subset(&bigger, &b));
        assert!(!set_eq(&b, &bigger));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let empty = ConstraintSet::from_constraints(1, vec![ge(&[1], -5), ge(&[-1], 2)]);
        let any = unit_box(1, 1);
        assert!(is_subset(&empty, &any));
    }

    #[test]
    fn subset_with_equalities() {
        // Diagonal of the box vs the box.
        let mut diag = unit_box(2, 4);
        diag.add(Constraint::eq0(LinExpr::from_coeffs(&[1, -1], 0)));
        let b = unit_box(2, 4);
        assert!(is_subset(&diag, &b));
        assert!(!is_subset(&b, &diag));
    }

    /// The lexicographically smallest integer point: `lexmin_integer`
    /// over the unit objectives `x0, x1, …`.
    fn lexmin_point(set: &ConstraintSet) -> Option<Vec<i128>> {
        let n = set.n_vars();
        let units: Vec<LinExpr> = (0..n).map(|v| LinExpr::var(n, v)).collect();
        match lexmin_integer(&units, set) {
            IlpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    #[test]
    fn lex_extrema() {
        // Triangle 0 <= y <= x <= 3.
        let set = ConstraintSet::from_constraints(
            2,
            vec![ge(&[0, 1], 0), ge(&[1, -1], 0), ge(&[-1, 0], 3)],
        );
        assert_eq!(lexmin_point(&set), Some(vec![0, 0]));
    }

    #[test]
    fn lex_extrema_of_empty() {
        let empty = ConstraintSet::from_constraints(1, vec![ge(&[1], -5), ge(&[-1], 2)]);
        assert_eq!(lexmin_point(&empty), None);
    }

    #[test]
    fn unbounded_has_no_lexmin() {
        let half = ConstraintSet::from_constraints(1, vec![ge(&[-1], 0)]);
        // x <= 0, unbounded below.
        assert_eq!(lexmin_point(&half), None);
    }
}
