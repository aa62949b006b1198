//! Fourier–Motzkin elimination (existential projection) and redundancy
//! pruning.
//!
//! The scheduler uses this to eliminate Farkas multipliers from the
//! linearized validity/proximity systems; code generation uses it to derive
//! loop bounds for each schedule dimension.

use crate::budget::{infallible, Budget, BudgetError};
use crate::constraint::{Constraint, ConstraintKind, ConstraintSet};
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
    eliminate_var_impl(set, var, &INTEGER)
}

/// [`eliminate_var`] with every row combination done in rational
/// arithmetic on [`Constraint::to_expr`]. Kept as a reference
/// implementation for differential tests of the integer combinations,
/// which must produce syntactically identical constraint sets.
pub fn eliminate_var_reference(set: &ConstraintSet, var: usize) -> ConstraintSet {
    assert!(var < set.n_vars(), "variable out of range");
    eliminate_var_impl(set, var, &RATIONAL)
}

/// How [`eliminate_var_impl`] combines two rows into one free of `var`.
struct Combine {
    /// Row `c` with `var` substituted out through the equality `eq`, as a
    /// constraint of `c`'s kind.
    substitute: fn(c: &Constraint, eq: &Constraint, var: usize) -> Constraint,
    /// The positive combination of a lower bound `lo` and an upper bound
    /// `up` on `var` in which `var` cancels.
    pair: fn(lo: &Constraint, up: &Constraint, var: usize) -> Constraint,
}

/// Combinations on the stored integer rows. With `g` the gcd of the two
/// coefficients of `var` — `a` in `eq` and `b` in `c`, or `p > 0` in `lo`
/// and `n < 0` in `up` — the substitution is
/// `sign(a)·((a/g)·c − (b/g)·eq)` and the pair `(−n/g)·lo + (p/g)·up`:
/// positive multiples of the rational combinations, so the same
/// constraints once normalized.
const INTEGER: Combine = Combine {
    substitute: |c, eq, var| {
        let (a, b) = (eq.coeff(var), c.coeff(var));
        let (fc, feq) = if a > 0 { (a, neg(b)) } else { (neg(a), b) };
        combine_rows(c, fc, eq, feq)
    },
    pair: |lo, up, var| combine_rows(lo, neg(up.coeff(var)), up, lo.coeff(var)),
};

/// `-v`, panicking with `"rational overflow"` on `i128::MIN`.
fn neg(v: i128) -> i128 {
    v.checked_neg().expect("rational overflow")
}

/// The reference's combinations, in [`Rat`] arithmetic.
const RATIONAL: Combine = Combine {
    substitute: |c, eq, var| {
        let (a, b) = (Rat::int(eq.coeff(var)), Rat::int(c.coeff(var)));
        let combined = &c.to_expr() - &eq.to_expr().scaled(b / a);
        match c.kind() {
            ConstraintKind::Eq => Constraint::eq0(combined),
            ConstraintKind::Ge => Constraint::ge0(combined),
        }
    },
    pair: |lo, up, var| {
        let (p, n) = (Rat::int(lo.coeff(var)), Rat::int(up.coeff(var)));
        Constraint::ge0(&lo.to_expr().scaled(-n) + &up.to_expr().scaled(p))
    },
};

/// `(fx/g)·x + (fy/g)·y` with `g = gcd(fx, fy)` and `fx > 0`, as a
/// constraint of `x`'s kind.
///
/// # Panics
///
/// Panics with `"rational overflow"` if an entry does not fit `i128`.
fn combine_rows(x: &Constraint, fx: i128, y: &Constraint, fy: i128) -> Constraint {
    let g = polyject_arith::gcd(fx, fy);
    let (fx, fy) = (fx / g, fy / g);
    let row = x
        .row()
        .iter()
        .zip(y.row())
        .map(|(&a, &b)| {
            fx.checked_mul(a)
                .and_then(|a| a.checked_add(fy.checked_mul(b)?))
                .expect("rational overflow")
        })
        .collect();
    Constraint::from_row(x.kind(), row)
}

fn eliminate_var_impl(set: &ConstraintSet, var: usize, combine: &Combine) -> ConstraintSet {
    // Prefer substitution through an equality involving the variable.
    if let Some(eq) = set
        .constraints()
        .iter()
        .find(|c| c.is_equality() && c.coeff(var) != 0)
    {
        let mut out = ConstraintSet::universe(set.n_vars());
        for c in set.constraints() {
            if std::ptr::eq(c, eq) {
                continue;
            }
            if c.coeff(var) == 0 {
                out.add(c.clone());
            } else {
                let nc = (combine.substitute)(c, eq, var);
                debug_assert_eq!(nc.coeff(var), 0);
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
        match c.coeff(var) {
            0 => out.add(c.clone()),
            a if a > 0 => lowers.push(c),
            _ => uppers.push(c),
        }
    }
    for lo in &lowers {
        for up in &uppers {
            let nc = (combine.pair)(lo, up, var);
            debug_assert_eq!(nc.coeff(var), 0);
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
        debug_assert!(c.coeffs()[keep..].iter().all(|&a| a == 0));
        out.add_even_if_false(c.remapped(keep, |v| v));
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
        let redundant = match try_minimize(&candidate.to_expr(), &rest, budget)? {
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
    pub lowers: Vec<(LinExpr, i128)>,
    /// Upper bounds: `var <= expr / divisor`.
    pub uppers: Vec<(LinExpr, i128)>,
}

/// Extracts the bound expressions that the set imposes on `var`, in terms
/// of the other variables.
///
/// Constraint `a·var + rest >= 0` with `a > 0` yields lower bound
/// `(-rest, a)`; with `a < 0`, upper bound `(rest, -a)`. Equalities
/// contribute to both sides.
pub fn bounds_for_var(set: &ConstraintSet, var: usize) -> VarBounds {
    let mut out = VarBounds::default();
    for c in set.constraints() {
        let a = c.coeff(var);
        if a == 0 {
            continue;
        }
        let mut rest = c.to_expr();
        rest.set_coeff(var, 0);
        if a > 0 {
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
        assert_eq!(*d, 2);
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
