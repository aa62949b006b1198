//! Constraint preprocessing for integer-feasibility queries.
//!
//! [`tighten_for_integrality`] decides whether a set has an integer point
//! on plain integer rows, before any tableau is built, or hands
//! branch-and-bound a smaller set that has an integer point exactly when
//! the input does:
//!
//! * an equality with a ±1 coefficient on `x_v` is solved for `x_v` and
//!   substituted out of every other row (isl's equality elimination):
//!   `x_v = ∓rest(x)` is an integer at every integer point of the other
//!   variables, so the substitution is a bijection between integer points;
//! * a row whose variable coefficients share a content `g > 1` is divided
//!   through — an inequality rounds its constant toward the feasible side
//!   (`2x + 2y >= 1` becomes `x + y >= 1`), an equality whose constant `g`
//!   does not divide has no integer solution (`2x + 2y == 1`), and a row
//!   left constant is either void or proves infeasibility;
//! * single-variable rows merge into one integer lower/upper bound per
//!   variable (`2x - 3 >= 0` becomes `x >= 2`); crossing bounds prove
//!   infeasibility, and when no row over two or more variables is left,
//!   the set is feasible with no tableau at all;
//! * otherwise branch-and-bound sees only the rows over two or more
//!   variables plus the bounds of the variables they mention, compacted to
//!   those variables: every other one takes any integer within its bounds.
//!
//! The pass copies the stored integer rows; an `i128` overflow in any
//! rewrite hands the input to branch-and-bound unchanged.
//!
//! This pass is used only by boolean feasibility queries
//! ([`crate::is_integer_feasible`]): optimizing solves must see the
//! original rows, because rewriting them changes which tie-broken vertex
//! the simplex reports even when the optimal value is unchanged.

use crate::constraint::{Constraint, ConstraintKind, ConstraintSet};

/// Result of the tightening pass.
pub(crate) enum PreOutcome {
    /// The set provably contains no integer point.
    Infeasible,
    /// The set provably contains an integer point.
    Feasible,
    /// A set with an integer point exactly when the input has one.
    Reduced(ConstraintSet),
    /// A rewrite overflowed: decide the input.
    Unchanged,
}

/// What [`tighten_row`] leaves of a row: the row, nothing (`Void`: it
/// holds everywhere) or no integer point at all (`Empty`).
enum Tight {
    Keep,
    Void,
    Empty,
}

/// Runs the pass described in the module docs.
pub(crate) fn tighten_for_integrality(set: &ConstraintSet) -> PreOutcome {
    // Row-major integer rows — variable coefficients, then the constant —
    // and whether each is an equality.
    let w = set.n_vars() + 1;
    let mut rows = Vec::with_capacity(set.len() * w);
    let mut eqs = Vec::with_capacity(set.len());
    for c in set.constraints() {
        rows.extend_from_slice(c.row());
        eqs.push(c.is_equality());
    }
    decide(w, rows, eqs).unwrap_or(PreOutcome::Unchanged)
}

/// The pass over integer rows of width `w`; `None` on overflow.
fn decide(w: usize, mut rows: Vec<i128>, mut eqs: Vec<bool>) -> Option<PreOutcome> {
    let n = w - 1;
    // The first sweep tightens every row; each later one substitutes the
    // unit equality `unit` (removed from `rows`) for its variable and
    // re-tightens the rows that mention that variable.
    let mut unit: Option<(Vec<i128>, usize)> = None;
    loop {
        let mut i = 0;
        while i < eqs.len() {
            let row = &mut rows[i * w..(i + 1) * w];
            if let Some((e, v)) = &unit {
                if row[*v] == 0 {
                    i += 1;
                    continue;
                }
                let f = row[*v].checked_mul(e[*v])?;
                for (r, &a) in row.iter_mut().zip(e) {
                    *r = r.checked_sub(f.checked_mul(a)?)?;
                }
            }
            match tighten_row(row, eqs[i])? {
                Tight::Empty => return Some(PreOutcome::Infeasible),
                Tight::Void => {
                    rows.drain(i * w..(i + 1) * w);
                    eqs.remove(i);
                }
                Tight::Keep => i += 1,
            }
        }
        let next = (0..eqs.len()).filter(|&i| eqs[i]).find_map(|i| {
            let v = rows[i * w..i * w + n]
                .iter()
                .position(|a| a.unsigned_abs() == 1);
            v.map(|v| (i, v))
        });
        let Some((i, v)) = next else { break };
        unit = Some((rows.drain(i * w..(i + 1) * w).collect(), v));
        eqs.remove(i);
    }
    // Tightened single-variable rows are `±x + k >= 0`: a single-variable
    // equality had a unit coefficient after tightening, so it is gone.
    let (mut lo, mut hi) = (vec![None::<i128>; n], vec![None::<i128>; n]);
    let mut multi = Vec::new();
    for (row, &eq) in rows.chunks_exact(w).zip(&eqs) {
        let mut vars = (0..n).filter(|&v| row[v] != 0);
        match (vars.next(), vars.next()) {
            (Some(v), None) if row[v] == 1 => {
                lo[v] = Some(lo[v].map_or(-row[n], |l| l.max(-row[n])));
            }
            (Some(v), None) => hi[v] = Some(hi[v].map_or(row[n], |h| h.min(row[n]))),
            _ => multi.push((row, eq)),
        }
    }
    if (0..n).any(|v| matches!((lo[v], hi[v]), (Some(l), Some(h)) if l > h)) {
        return Some(PreOutcome::Infeasible);
    }
    if multi.is_empty() {
        return Some(PreOutcome::Feasible);
    }
    let keep: Vec<usize> = (0..n)
        .filter(|&v| multi.iter().any(|(row, _)| row[v] != 0))
        .collect();
    let m = keep.len();
    let mut out = ConstraintSet::universe(m);
    for (row, eq) in multi {
        let kept = keep.iter().map(|&v| row[v]).chain([row[n]]).collect();
        let kind = if eq {
            ConstraintKind::Eq
        } else {
            ConstraintKind::Ge
        };
        out.add(Constraint::from_row(kind, kept));
    }
    let bound = |j: usize, a: i128, k: i128| {
        let mut row = vec![0; m + 1];
        (row[j], row[m]) = (a, k);
        Constraint::from_row(ConstraintKind::Ge, row)
    };
    for (j, &v) in keep.iter().enumerate() {
        if let Some(l) = lo[v] {
            out.add(bound(j, 1, -l));
        }
        if let Some(h) = hi[v] {
            out.add(bound(j, -1, h));
        }
    }
    Some(PreOutcome::Reduced(out))
}

/// Which way the pass decides `set`: `"infeasible"`, `"feasible"`,
/// `"reduced"` (to a smaller tableau) or `"unchanged"`. Exposed for the
/// differential tests, which count how often each way is taken.
#[doc(hidden)]
pub fn integer_feasibility_route(set: &ConstraintSet) -> &'static str {
    match tighten_for_integrality(set) {
        PreOutcome::Infeasible => "infeasible",
        PreOutcome::Feasible => "feasible",
        PreOutcome::Reduced(_) => "reduced",
        PreOutcome::Unchanged => "unchanged",
    }
}

/// Divides `row` by the content of its variable coefficients (an
/// inequality's constant rounded toward the feasible side) and reports
/// what is left of it; `None` on an entry of magnitude `2^127`, which
/// neither a gcd nor a negation can take.
fn tighten_row(row: &mut [i128], eq: bool) -> Option<Tight> {
    if row.contains(&i128::MIN) {
        return None;
    }
    let (coeffs, k) = row.split_at_mut(row.len() - 1);
    let k = &mut k[0];
    let g = coeffs.iter().fold(0, |g, &a| polyject_arith::gcd(g, a));
    let holds = if eq { *k == 0 } else { *k >= 0 };
    Some(match g {
        0 if holds => Tight::Void,
        0 => Tight::Empty,
        1 => Tight::Keep,
        _ if eq && *k % g != 0 => Tight::Empty,
        _ => {
            coeffs.iter_mut().for_each(|a| *a /= g);
            *k = k.div_euclid(g);
            Tight::Keep
        }
    })
}

#[cfg(test)]
mod tests {
    use super::tighten_for_integrality as tighten;
    use super::*;
    use crate::linexpr::LinExpr;

    fn pts(set: &ConstraintSet) -> Vec<Vec<i128>> {
        crate::points::integer_points(set, 10_000).unwrap()
    }

    fn ge(n: usize, coeffs: &[i128], k: i128) -> Constraint {
        assert_eq!(coeffs.len(), n);
        Constraint::ge0(LinExpr::from_coeffs(coeffs, k))
    }

    fn eq(n: usize, coeffs: &[i128], k: i128) -> Constraint {
        assert_eq!(coeffs.len(), n);
        Constraint::eq0(LinExpr::from_coeffs(coeffs, k))
    }

    /// `0 <= x_v <= hi` for every variable.
    fn boxed(n: usize, hi: i128) -> Vec<Constraint> {
        let unit = |v: usize, a: i128| {
            (0..n)
                .map(|j| if j == v { a } else { 0 })
                .collect::<Vec<_>>()
        };
        (0..n)
            .flat_map(|v| [ge(n, &unit(v, 1), 0), ge(n, &unit(v, -1), hi)])
            .collect()
    }

    fn reduced(set: &ConstraintSet) -> ConstraintSet {
        match tighten(set) {
            PreOutcome::Reduced(s) => s,
            _ => panic!("not reduced to a tableau"),
        }
    }

    #[test]
    fn crossing_integer_bounds_are_infeasible() {
        // 1/3 <= x <= 2/3 → merged bounds 1 <= x <= 0 → infeasible, no LP.
        let set = ConstraintSet::from_constraints(1, vec![ge(1, &[3], -1), ge(1, &[-3], 2)]);
        assert!(matches!(tighten(&set), PreOutcome::Infeasible));
    }

    #[test]
    fn equality_lattice_gap_detected() {
        // 2x + 2y == 1 has no integer solution.
        let set = ConstraintSet::from_constraints(2, vec![eq(2, &[2, 2], -1)]);
        assert!(matches!(tighten(&set), PreOutcome::Infeasible));
    }

    #[test]
    fn gcd_tightening_preserves_integer_points() {
        // 2x + 2y >= 1 tightens to x + y >= 1 — same integer points.
        let mut rows = boxed(2, 2);
        rows.push(ge(2, &[2, 2], -1));
        let set = ConstraintSet::from_constraints(2, rows);
        let r = reduced(&set);
        assert_eq!(pts(&set), pts(&r));
        assert!(r.constraints().iter().any(|c| c.row() == [1, 1, -1]));
    }

    #[test]
    fn single_variable_bounds_are_decided_without_a_tableau() {
        // 2x >= 3 and 3x >= 4 and x <= 10 → 2 <= x <= 10: feasible.
        let set = ConstraintSet::from_constraints(
            1,
            vec![ge(1, &[2], -3), ge(1, &[3], -4), ge(1, &[-1], 10)],
        );
        assert!(matches!(tighten(&set), PreOutcome::Feasible));
        // x <= 1 crosses the merged lower bound 2.
        let mut set = set;
        set.add(ge(1, &[-1], 1));
        assert!(matches!(tighten(&set), PreOutcome::Infeasible));
    }

    #[test]
    fn pinned_equality_is_substituted() {
        // 3x == 12 pins x = 4: feasible, and infeasible under x <= 3;
        // 3x == 11 has no integer solution.
        let set = ConstraintSet::from_constraints(1, vec![eq(1, &[3], -12)]);
        assert!(matches!(tighten(&set), PreOutcome::Feasible));
        let mut capped = set.clone();
        capped.add(ge(1, &[-1], 3));
        assert!(matches!(tighten(&capped), PreOutcome::Infeasible));
        let bad = ConstraintSet::from_constraints(1, vec![eq(1, &[3], -11)]);
        assert!(matches!(tighten(&bad), PreOutcome::Infeasible));
    }

    #[test]
    fn a_chain_of_unit_equalities_is_substituted_away() {
        // x == y, y == z + 1 over the box [0, 3]^3: x = z + 1 with
        // 0 <= z <= 2, feasible with no tableau.
        let mut rows = boxed(3, 3);
        rows.extend([eq(3, &[1, -1, 0], 0), eq(3, &[0, 1, -1], -1)]);
        let set = ConstraintSet::from_constraints(3, rows.clone());
        assert!(matches!(tighten(&set), PreOutcome::Feasible));
        // x + z >= 6 then needs z >= 5/2, above z's upper bound 2.
        rows.push(ge(3, &[1, 0, 1], -6));
        let set = ConstraintSet::from_constraints(3, rows);
        assert!(matches!(tighten(&set), PreOutcome::Infeasible));
        assert!(pts(&set).is_empty());
    }

    #[test]
    fn a_non_unit_equality_stays_a_row() {
        // 2x == 3y over the box [0, 6]^2 has no unit coefficient: it goes
        // to the tableau as a row, over both variables.
        let mut rows = boxed(2, 6);
        rows.push(eq(2, &[2, -3], 0));
        let set = ConstraintSet::from_constraints(2, rows);
        let r = reduced(&set);
        assert_eq!(r.n_vars(), 2);
        assert!(r.constraints().iter().any(Constraint::is_equality));
        assert_eq!(pts(&set), pts(&r));
    }

    #[test]
    fn a_lattice_gap_that_appears_only_after_substitution() {
        // z == x + y, then 3z - x - y == 1 becomes 2x + 2y == 1.
        let set = ConstraintSet::from_constraints(
            3,
            vec![eq(3, &[1, -1, -1], 0), eq(3, &[3, -1, -1], -1)],
        );
        assert!(matches!(tighten(&set), PreOutcome::Infeasible));
    }

    #[test]
    fn only_the_coupled_variables_reach_the_tableau() {
        // Over (x, y, z, w): x == w is substituted away, after which w is
        // bounded alone; 2y + 3z >= 7 couples y and z, the only variables
        // the tableau sees.
        let mut rows = boxed(4, 3);
        rows.extend([eq(4, &[1, 0, 0, -1], 0), ge(4, &[0, 2, 3, 0], -7)]);
        let set = ConstraintSet::from_constraints(4, rows);
        let r = reduced(&set);
        assert_eq!(r.n_vars(), 2, "only y and z are coupled: {r:?}");
        assert_eq!(pts(&set).is_empty(), pts(&r).is_empty());
    }

    #[test]
    fn overflow_hands_the_input_over_unchanged() {
        // Substituting x = y into 2^126 x + 2^126 y + z >= 0 needs the
        // coefficient 2^127.
        let big = 1i128 << 126;
        let set = ConstraintSet::from_constraints(
            3,
            vec![eq(3, &[1, -1, 0], 0), ge(3, &[big, big, 1], 0)],
        );
        assert!(matches!(tighten(&set), PreOutcome::Unchanged));
    }

    #[test]
    fn trivial_contradiction_short_circuits() {
        let mut set = ConstraintSet::universe(2);
        set.add(Constraint::ge0(LinExpr::constant(2, -1)));
        assert!(matches!(tighten(&set), PreOutcome::Infeasible));
    }
}
