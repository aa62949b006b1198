//! Enumeration of the integer points of bounded sets.
//!
//! Used by the functional GPU interpreter (reference execution on concrete
//! shapes) and by property tests that compare schedules pointwise.

use crate::constraint::ConstraintSet;
use crate::fm::{bounds_for_var, project_onto_prefix};
use polyject_arith::Rat;

/// Enumerates every integer point of a bounded set, in lexicographic order
/// of the variables.
///
/// # Errors
///
/// Returns `Err` with a message if the set is unbounded in some variable or
/// the point count exceeds `limit`.
///
/// # Examples
///
/// ```
/// use polyject_sets::{integer_points, Constraint, ConstraintSet, LinExpr};
///
/// // Triangle 0 <= y <= x <= 2.
/// let set = ConstraintSet::from_constraints(2, vec![
///     Constraint::ge0(LinExpr::from_coeffs(&[0, 1], 0)),
///     Constraint::ge0(LinExpr::from_coeffs(&[1, -1], 0)),
///     Constraint::ge0(LinExpr::from_coeffs(&[-1, 0], 2)),
/// ]);
/// let pts = integer_points(&set, 100).unwrap();
/// assert_eq!(pts.len(), 6); // (0,0) (1,0) (1,1) (2,0) (2,1) (2,2)
/// ```
pub fn integer_points(set: &ConstraintSet, limit: usize) -> Result<Vec<Vec<i128>>, String> {
    let n = set.n_vars();
    if n == 0 {
        return Ok(if set.has_trivial_contradiction() {
            vec![]
        } else {
            vec![vec![]]
        });
    }
    // Progressive projections: proj[k] constrains variables 0..=k.
    let mut projections = Vec::with_capacity(n);
    for k in 1..=n {
        let p = project_onto_prefix(set, k);
        if p.has_trivial_contradiction() {
            return Ok(Vec::new()); // empty set: no points, no bounds needed
        }
        projections.push(p);
    }
    let mut out = Vec::new();
    let mut prefix = Vec::with_capacity(n);
    enumerate(&projections, set, &mut prefix, &mut out, limit)?;
    Ok(out)
}

fn enumerate(
    projections: &[ConstraintSet],
    full: &ConstraintSet,
    prefix: &mut Vec<i128>,
    out: &mut Vec<Vec<i128>>,
    limit: usize,
) -> Result<(), String> {
    let depth = prefix.len();
    let n = projections.len();
    let proj = &projections[depth];
    let (lo, hi) = concrete_bounds(proj, depth, prefix)?;
    for v in lo..=hi {
        prefix.push(v);
        // Quick prune: the prefix must satisfy the projection.
        if proj.contains_int(prefix) {
            if depth + 1 == n {
                if full.contains_int(prefix) {
                    if out.len() >= limit {
                        return Err(format!("more than {limit} integer points"));
                    }
                    out.push(prefix.clone());
                }
            } else {
                enumerate(projections, full, prefix, out, limit)?;
            }
        }
        prefix.pop();
    }
    Ok(())
}

/// Concrete integer bounds for variable `var` of `proj` (a set over
/// `var + 1` variables) given the fixed integer prefix.
fn concrete_bounds(
    proj: &ConstraintSet,
    var: usize,
    prefix: &[i128],
) -> Result<(i128, i128), String> {
    let b = bounds_for_var(proj, var);
    let mut lo: Option<i128> = None;
    let mut hi: Option<i128> = None;
    // Evaluate each symbolic bound at the prefix (entry `var` is unused but
    // must exist for `eval_int`).
    let mut point: Vec<i128> = prefix.to_vec();
    point.push(0);
    for (e, d) in &b.lowers {
        let v = e.eval_int(&point) / Rat::int(*d);
        let v = v.ceil();
        lo = Some(lo.map_or(v, |c: i128| c.max(v)));
    }
    for (e, d) in &b.uppers {
        let v = e.eval_int(&point) / Rat::int(*d);
        let v = v.floor();
        hi = Some(hi.map_or(v, |c: i128| c.min(v)));
    }
    match (lo, hi) {
        (Some(l), Some(h)) => Ok((l, h)),
        _ => Err(format!("variable {var} is unbounded")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::linexpr::LinExpr;

    fn ge(coeffs: &[i128], k: i128) -> Constraint {
        Constraint::ge0(LinExpr::from_coeffs(coeffs, k))
    }

    #[test]
    fn box_count() {
        let set = ConstraintSet::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[-1, 0], 3),
                ge(&[0, 1], 0),
                ge(&[0, -1], 2),
            ],
        );
        assert_eq!(integer_points(&set, 1000).unwrap().len(), 12);
    }

    #[test]
    fn empty_set_has_no_points() {
        let set = ConstraintSet::from_constraints(1, vec![ge(&[1], -5), ge(&[-1], 2)]);
        assert_eq!(integer_points(&set, 10).unwrap(), Vec::<Vec<i128>>::new());
    }

    #[test]
    fn unbounded_is_an_error() {
        let set = ConstraintSet::from_constraints(1, vec![ge(&[1], 0)]);
        assert!(integer_points(&set, 10).is_err());
    }

    #[test]
    fn limit_is_enforced() {
        let set = ConstraintSet::from_constraints(1, vec![ge(&[1], 0), ge(&[-1], 99)]);
        assert!(integer_points(&set, 10).is_err());
        assert!(integer_points(&set, 100).is_ok());
    }

    #[test]
    fn lexicographic_order() {
        let set = ConstraintSet::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[-1, 0], 1),
                ge(&[0, 1], 0),
                ge(&[0, -1], 1),
            ],
        );
        let pts = integer_points(&set, 100).unwrap();
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn equality_slices() {
        // 0 <= x <= 4, y == x: 5 points on the diagonal.
        let set = ConstraintSet::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[-1, 0], 4),
                Constraint::eq0(LinExpr::from_coeffs(&[1, -1], 0)),
            ],
        );
        let pts = integer_points(&set, 100).unwrap();
        assert_eq!(pts.len(), 5);
        assert!(pts.iter().all(|p| p[0] == p[1]));
    }

    #[test]
    fn zero_dimensional() {
        assert_eq!(
            integer_points(&ConstraintSet::universe(0), 10).unwrap(),
            vec![vec![]]
        );
    }
}
