//! Fourier–Motzkin elimination (existential projection) and redundancy
//! pruning.
//!
//! The scheduler uses this to eliminate Farkas multipliers from the
//! linearized validity/proximity systems; code generation uses it to derive
//! loop bounds for each schedule dimension.

use crate::budget::{infallible, Budget, BudgetError};
use crate::constraint::{Constraint, ConstraintSet};
use crate::counters;
use crate::linexpr::LinExpr;
use crate::simplex::{try_minimize, LpOutcome};
use polyject_arith::Rat;

/// Threshold above which LP-based redundancy pruning kicks in during
/// elimination, to contain the FM blowup.
const PRUNE_THRESHOLD: usize = 32;

/// Eliminates one variable existentially. The variable stays in the space
/// but no remaining constraint mentions it.
///
/// # Examples
///
/// ```
/// use polyject_sets::{eliminate_var, Constraint, ConstraintSet, LinExpr};
///
/// // { (x, y) | 0 <= y <= 5, x == y } — eliminating y leaves 0 <= x <= 5.
/// let set = ConstraintSet::from_constraints(2, vec![
///     Constraint::ge0(LinExpr::from_coeffs(&[0, 1], 0)),
///     Constraint::ge0(LinExpr::from_coeffs(&[0, -1], 5)),
///     Constraint::eq0(LinExpr::from_coeffs(&[1, -1], 0)),
/// ]);
/// let proj = eliminate_var(&set, 1);
/// assert!(proj.contains_int(&[3, 999])); // y unconstrained now
/// assert!(!proj.contains_int(&[9, 0]));
/// ```
pub fn eliminate_var(set: &ConstraintSet, var: usize) -> ConstraintSet {
    assert!(var < set.n_vars(), "variable out of range");
    counters::count_fm_elimination(1);
    eliminate_var_impl(set, var, true)
}

/// [`eliminate_var`] without the integer combination fast path: every row
/// combination goes through rational arithmetic. Kept as a reference
/// implementation for differential tests of the integer path, which must
/// produce syntactically identical constraint sets.
pub fn eliminate_var_reference(set: &ConstraintSet, var: usize) -> ConstraintSet {
    assert!(var < set.n_vars(), "variable out of range");
    eliminate_var_impl(set, var, false)
}

fn eliminate_var_impl(set: &ConstraintSet, var: usize, use_int: bool) -> ConstraintSet {
    // Prefer substitution through an equality involving the variable.
    if let Some(eq) = set
        .constraints()
        .iter()
        .find(|c| c.is_equality() && !c.expr().coeff(var).is_zero())
    {
        let a = eq.expr().coeff(var);
        // Normalized rows are integer, so the substitution can be computed
        // as sign(a)·(a·c − b·eq): a positive integer multiple of the
        // rational combination c − (b/a)·eq, hence the same constraint
        // after canonical normalization — without any rational division.
        let eq_row = if use_int {
            integer_row(eq.expr())
        } else {
            None
        };
        let mut out = ConstraintSet::universe(set.n_vars());
        for c in set.constraints() {
            if std::ptr::eq(c, eq) {
                continue;
            }
            let b = c.expr().coeff(var);
            if b.is_zero() {
                out.add(c.clone());
            } else {
                let combined = eq_row
                    .as_ref()
                    .and_then(|(erow, ek)| eq_combine_int(c.expr(), erow, *ek, var))
                    .unwrap_or_else(|| c.expr() - &eq.expr().scaled(b / a));
                debug_assert!(combined.coeff(var).is_zero());
                let nc = if c.is_equality() {
                    Constraint::eq0(combined)
                } else {
                    Constraint::ge0(combined)
                };
                if nc.is_trivially_false() {
                    // Substitution exposed a contradiction (e.g. `0 == 1`
                    // after combining two incompatible equalities): the
                    // set is empty, so its projection is empty. Return an
                    // explicitly infeasible set immediately — dropping or
                    // skipping the constraint here would silently turn an
                    // empty set into a non-empty projection.
                    let mut empty = ConstraintSet::universe(set.n_vars());
                    empty.add(Constraint::ge0(LinExpr::constant(set.n_vars(), -1)));
                    return empty;
                }
                if !nc.is_trivially_true() {
                    out.add(nc);
                }
            }
        }
        return out;
    }

    // Pure inequality elimination.
    let mut lowers = Vec::new(); // coeff > 0: gives a lower bound on var
    let mut uppers = Vec::new(); // coeff < 0: gives an upper bound on var
    let mut out = ConstraintSet::universe(set.n_vars());
    for c in set.constraints() {
        let a = c.expr().coeff(var);
        if a.is_zero() {
            out.add(c.clone());
        } else if a.is_positive() {
            lowers.push(c);
        } else {
            uppers.push(c);
        }
    }
    // Extract each row's integer form once, not once per pair.
    let lo_rows: Vec<Option<(Vec<i128>, i128)>> = lowers
        .iter()
        .map(|c| use_int.then(|| integer_row(c.expr())).flatten())
        .collect();
    let up_rows: Vec<Option<(Vec<i128>, i128)>> = uppers
        .iter()
        .map(|c| use_int.then(|| integer_row(c.expr())).flatten())
        .collect();
    for (lo, lo_row) in lowers.iter().zip(&lo_rows) {
        for (up, up_row) in uppers.iter().zip(&up_rows) {
            // p > 0, n < 0: (-n)*lo + p*up eliminates var, both scaled
            // positively so the >= direction is preserved.
            let combined = match (lo_row, up_row) {
                (Some(l), Some(u)) => pair_combine_int(l, u, var),
                _ => None,
            }
            .unwrap_or_else(|| {
                let p = lo.expr().coeff(var);
                let n = up.expr().coeff(var);
                &lo.expr().scaled(-n) + &up.expr().scaled(p)
            });
            debug_assert!(combined.coeff(var).is_zero());
            let nc = Constraint::ge0(combined);
            if !nc.is_trivially_true() {
                out.add_even_if_false(nc);
            }
        }
    }
    if out.len() > PRUNE_THRESHOLD {
        infallible(try_remove_redundant(&out, &Budget::unlimited()))
    } else {
        out
    }
}

/// Integer form of the equality substitution `c − (b/a)·eq` for `eq` with
/// integer row `(erow, ek)`: returns `sign(a)·(a·c − b·eq)`, a positive
/// integer multiple, or `None` on non-integer rows or overflow (the caller
/// falls back to rational arithmetic).
fn eq_combine_int(c: &LinExpr, erow: &[i128], ek: i128, var: usize) -> Option<LinExpr> {
    let (crow, ck) = integer_row(c)?;
    let a = erow[var];
    let b = crow[var];
    let s: i128 = if a > 0 { 1 } else { -1 };
    let mut coeffs = Vec::with_capacity(crow.len());
    for (cv, ev) in crow.iter().zip(erow) {
        let t = a.checked_mul(*cv)?.checked_sub(b.checked_mul(*ev)?)?;
        coeffs.push(t.checked_mul(s)?);
    }
    let k = a
        .checked_mul(ck)?
        .checked_sub(b.checked_mul(ek)?)?
        .checked_mul(s)?;
    Some(LinExpr::from_coeffs(&coeffs, k))
}

/// Integer form of the pairwise combination `(−n)·lo + p·up` (with
/// `p = lo[var] > 0`, `n = up[var] < 0`), or `None` on overflow.
fn pair_combine_int(lo: &(Vec<i128>, i128), up: &(Vec<i128>, i128), var: usize) -> Option<LinExpr> {
    let (lrow, lk) = lo;
    let (urow, uk) = up;
    let p = lrow[var];
    let nn = urow[var].checked_neg()?;
    let mut coeffs = Vec::with_capacity(lrow.len());
    for (lv, uv) in lrow.iter().zip(urow) {
        coeffs.push(nn.checked_mul(*lv)?.checked_add(p.checked_mul(*uv)?)?);
    }
    let k = nn.checked_mul(*lk)?.checked_add(p.checked_mul(*uk)?)?;
    Some(LinExpr::from_coeffs(&coeffs, k))
}

/// Eliminates several variables existentially (in the given order).
pub fn eliminate_vars(set: &ConstraintSet, vars: &[usize]) -> ConstraintSet {
    let mut cur = set.clone();
    for &v in vars {
        cur = eliminate_var(&cur, v);
        if cur.has_trivial_contradiction() {
            break;
        }
    }
    cur
}

/// Projects the set onto its first `keep` variables: eliminates all later
/// variables and shrinks the space to `keep` dimensions.
///
/// # Panics
///
/// Panics if `keep > set.n_vars()`.
pub fn project_onto_prefix(set: &ConstraintSet, keep: usize) -> ConstraintSet {
    assert!(
        keep <= set.n_vars(),
        "cannot keep more variables than exist"
    );
    let vars: Vec<usize> = (keep..set.n_vars()).collect();
    let eliminated = eliminate_vars(set, &vars);
    if eliminated.has_trivial_contradiction() {
        // Elimination stopped early on a contradiction; the projection of
        // an empty set is empty.
        let mut out = ConstraintSet::universe(keep);
        out.add(Constraint::ge0(LinExpr::constant(keep, -1)));
        return out;
    }
    let mut out = ConstraintSet::universe(keep);
    for c in eliminated.constraints() {
        debug_assert!((keep..set.n_vars()).all(|v| c.expr().coeff(v).is_zero()));
        let coeffs: Vec<Rat> = (0..keep).map(|v| c.expr().coeff(v)).collect();
        let expr = LinExpr::from_rat_coeffs(coeffs, c.expr().constant_term());
        let nc = if c.is_equality() {
            Constraint::eq0(expr)
        } else {
            Constraint::ge0(expr)
        };
        out.add_even_if_false(nc);
    }
    out
}

/// Removes constraints that are implied by the others (LP-based, exact)
/// under a cooperative [`Budget`]: each redundancy probe is a budgeted LP
/// solve, and an exhausted or cancelled budget aborts the whole pass.
///
/// A constraint `e >= 0` is redundant iff the minimum of `e` subject to the
/// remaining constraints is `>= 0`. Equalities are kept as-is.
pub fn try_remove_redundant(
    set: &ConstraintSet,
    budget: &Budget,
) -> Result<ConstraintSet, BudgetError> {
    let mut kept: Vec<Constraint> = set.constraints().to_vec();
    let mut i = 0;
    while i < kept.len() {
        if kept[i].is_equality() {
            i += 1;
            continue;
        }
        let candidate = kept.remove(i);
        let rest = ConstraintSet::from_constraints(set.n_vars(), kept.iter().cloned());
        let redundant = match try_minimize(candidate.expr(), &rest, budget)? {
            LpOutcome::Optimal { value, .. } => !value.is_negative(),
            LpOutcome::Infeasible => true, // empty set: everything is implied
            LpOutcome::Unbounded => false,
        };
        if !redundant {
            kept.insert(i, candidate);
            i += 1;
        }
    }
    let mut out = ConstraintSet::universe(set.n_vars());
    for c in kept {
        out.add_even_if_false(c);
    }
    Ok(out)
}

/// Lower/upper bound expressions for one variable, for loop-bound
/// generation.
///
/// Each lower entry `(e, d)` means `var >= e / d` (with `d > 0` and `e` not
/// mentioning `var`); each upper entry means `var <= e / d`.
#[derive(Clone, Debug, Default)]
pub struct VarBounds {
    /// Lower bounds: `var >= expr / divisor`.
    pub lowers: Vec<(LinExpr, Rat)>,
    /// Upper bounds: `var <= expr / divisor`.
    pub uppers: Vec<(LinExpr, Rat)>,
}

/// Extracts the bound expressions that the set imposes on `var`, in terms
/// of the other variables.
///
/// Constraint `a·var + rest >= 0` with `a > 0` yields lower bound
/// `(-rest, a)`; with `a < 0`, upper bound `(rest', a')` after sign
/// normalization. Equalities contribute to both sides.
pub fn bounds_for_var(set: &ConstraintSet, var: usize) -> VarBounds {
    let mut out = VarBounds::default();
    for c in set.constraints() {
        let a = c.expr().coeff(var);
        if a.is_zero() {
            continue;
        }
        let mut rest = c.expr().clone();
        rest.set_coeff(var, Rat::ZERO);
        if a.is_positive() {
            // a*var + rest >= 0  =>  var >= -rest/a
            out.lowers.push((-&rest, a));
            if c.is_equality() {
                out.uppers.push((-&rest, a));
            }
        } else {
            // a*var + rest >= 0, a < 0  =>  var <= rest/(-a)
            out.uppers.push((rest.clone(), -a));
            if c.is_equality() {
                out.lowers.push((rest, -a));
            }
        }
    }
    out
}

impl ConstraintSet {
    /// Like [`ConstraintSet::add`] but keeps trivially false constraints so
    /// that emptiness remains visible; still drops trivially true ones.
    pub(crate) fn add_even_if_false(&mut self, c: Constraint) {
        if c.is_trivially_false() {
            // Record a single canonical contradiction.
            if !self.has_trivial_contradiction() {
                self.add(Constraint::ge0(LinExpr::constant(self.n_vars(), -1)));
            }
        } else {
            self.add(c);
        }
    }
}

/// The expression's coefficients and constant as integers, if they all are.
/// Normalized constraints always satisfy this.
fn integer_row(expr: &LinExpr) -> Option<(Vec<i128>, i128)> {
    let mut ints = Vec::with_capacity(expr.n_vars());
    for c in expr.coeffs() {
        ints.push(c.to_integer()?);
    }
    Some((ints, expr.constant_term().to_integer()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::is_rational_feasible;

    fn ge(coeffs: &[i128], k: i128) -> Constraint {
        Constraint::ge0(LinExpr::from_coeffs(coeffs, k))
    }

    fn eq(coeffs: &[i128], k: i128) -> Constraint {
        Constraint::eq0(LinExpr::from_coeffs(coeffs, k))
    }

    #[test]
    fn eliminate_between_bounds() {
        // 0 <= y, y <= x, x <= 10: eliminating y gives 0 <= x <= 10.
        let set = ConstraintSet::from_constraints(
            2,
            vec![ge(&[0, 1], 0), ge(&[1, -1], 0), ge(&[-1, 0], 10)],
        );
        let p = eliminate_var(&set, 1);
        assert!(p.contains_int(&[0, 0]));
        assert!(p.contains_int(&[10, 0]));
        assert!(!p.contains_int(&[-1, 0]));
        assert!(!p.contains_int(&[11, 0]));
    }

    #[test]
    fn eliminate_detects_emptiness() {
        // y >= 5 and y <= x and x <= 3 → empty after eliminating y.
        let set = ConstraintSet::from_constraints(
            2,
            vec![ge(&[0, 1], -5), ge(&[1, -1], 0), ge(&[-1, 0], 3)],
        );
        let p = eliminate_var(&set, 1);
        assert!(p.has_trivial_contradiction() || !is_rational_feasible(&p));
    }

    #[test]
    fn equality_substitution_contradicting_equalities_infeasible() {
        // { (x, y) | y == 0, y == 1 }: substituting y := 0 into y == 1
        // yields the trivially-false `-1 == 0`. Regression test: the
        // projection must come back explicitly infeasible, not silently
        // drop the contradiction and report a non-empty set.
        let set = ConstraintSet::from_constraints(2, vec![eq(&[0, 1], 0), eq(&[0, 1], -1)]);
        let p = eliminate_var(&set, 1);
        assert!(p.has_trivial_contradiction());
        assert!(!is_rational_feasible(&p));
        assert!(!p.contains_int(&[0, 0]));
    }

    #[test]
    fn equality_substitution_contradicting_inequality_infeasible() {
        // { (x, y) | y == 2, y >= 5 }: substitution yields `-3 >= 0`.
        let set = ConstraintSet::from_constraints(2, vec![eq(&[0, 1], -2), ge(&[0, 1], -5)]);
        let p = eliminate_var(&set, 1);
        assert!(p.has_trivial_contradiction());
        assert!(!is_rational_feasible(&p));
    }

    #[test]
    fn elimination_ticks_fm_counter() {
        let before = crate::counters::snapshot();
        let set = ConstraintSet::from_constraints(2, vec![ge(&[0, 1], 0), ge(&[1, -1], 0)]);
        let _ = eliminate_var(&set, 1);
        let d = crate::counters::snapshot().delta_since(&before);
        assert_eq!(d.fm_eliminations, 1);
    }

    #[test]
    fn equality_substitution_path() {
        // x == 2y, 1 <= y <= 3: eliminating y gives 2 <= x <= 6.
        let set = ConstraintSet::from_constraints(
            2,
            vec![eq(&[1, -2], 0), ge(&[0, 1], -1), ge(&[0, -1], 3)],
        );
        let p = eliminate_var(&set, 1);
        assert!(p.contains(&[Rat::int(2), Rat::ZERO]));
        assert!(p.contains(&[Rat::int(6), Rat::ZERO]));
        assert!(!p.contains(&[Rat::int(7), Rat::ZERO]));
    }

    #[test]
    fn projection_shrinks_space() {
        let set = ConstraintSet::from_constraints(
            3,
            vec![
                ge(&[1, 0, 0], 0),
                ge(&[-1, 0, 1], 0),
                ge(&[0, 0, -1], 7),
                ge(&[0, 1, 0], 0),
            ],
        );
        // x0 >= 0, x0 <= x2 <= 7, x1 >= 0; project onto x0.
        let p = project_onto_prefix(&set, 1);
        assert_eq!(p.n_vars(), 1);
        assert!(p.contains_int(&[7]));
        assert!(!p.contains_int(&[8]));
    }

    #[test]
    fn redundancy_removal() {
        // x >= 0, x >= -5 (redundant), x <= 10, x <= 20 (redundant).
        let set = ConstraintSet::from_constraints(
            1,
            vec![ge(&[1], 0), ge(&[1], 5), ge(&[-1], 10), ge(&[-1], 20)],
        );
        let r = try_remove_redundant(&set, &Budget::unlimited()).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains_int(&[0]) && r.contains_int(&[10]));
        assert!(!r.contains_int(&[-1]) && !r.contains_int(&[11]));
    }

    #[test]
    fn bounds_extraction() {
        // 2x >= y - 4  and  x <= 9.
        let set = ConstraintSet::from_constraints(2, vec![ge(&[2, -1], 4), ge(&[-1, 0], 9)]);
        let b = bounds_for_var(&set, 0);
        assert_eq!(b.lowers.len(), 1);
        assert_eq!(b.uppers.len(), 1);
        let (lo, d) = &b.lowers[0];
        // x >= (y - 4)/2
        assert_eq!(*d, Rat::int(2));
        assert_eq!(lo, &LinExpr::from_coeffs(&[0, 1], -4));
    }

    #[test]
    fn projection_of_projection_is_stable() {
        let set = ConstraintSet::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[-1, 0], 5),
                ge(&[0, 1], 0),
                ge(&[0, -1], 5),
            ],
        );
        let once = project_onto_prefix(&set, 1);
        let twice = project_onto_prefix(&once.extended(2), 1);
        assert_eq!(once, twice);
    }
}
