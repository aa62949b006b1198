//! Exact two-phase simplex.
//!
//! Variables of a [`ConstraintSet`] are *free* (unrestricted in sign); the
//! solver internally splits each into a difference of two non-negative
//! variables and works on a dense exact tableau with Bland's rule, so it
//! never cycles and never loses precision.
//!
//! Solves run on the fraction-free integer tableau of [`crate::tableau`]
//! (a cold LP is its build + optimize), which replays the exact pivot
//! sequence of the rational tableau below at a fraction of the cost; the
//! rational implementation, [`minimize_reference`], serves both as the
//! fallback on (never yet observed) `i128` overflow and as the oracle for
//! the differential test suite.

use crate::budget::{infallible, Budget, BudgetError};
use crate::constraint::{Constraint, ConstraintKind, ConstraintSet};
use crate::linexpr::LinExpr;
use crate::tableau::{self, Solved};
use polyject_arith::Rat;

/// Result of a linear program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpOutcome {
    /// The constraint set has no rational point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// An optimal vertex was found.
    Optimal {
        /// A point attaining the optimum (one of possibly many).
        point: Vec<Rat>,
        /// The optimal objective value.
        value: Rat,
    },
}

impl LpOutcome {
    /// The optimal point, if any.
    pub fn point(&self) -> Option<&[Rat]> {
        match self {
            LpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    /// The optimal value, if any.
    pub fn value(&self) -> Option<Rat> {
        match self {
            LpOutcome::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

/// Minimizes an affine objective over a constraint set.
///
/// # Examples
///
/// ```
/// use polyject_sets::{minimize, Constraint, ConstraintSet, LinExpr, LpOutcome};
/// use polyject_arith::Rat;
///
/// // minimize x0 + x1 s.t. x0 >= 2, x1 >= 3
/// let set = ConstraintSet::from_constraints(2, vec![
///     Constraint::ge0(LinExpr::from_coeffs(&[1, 0], -2)),
///     Constraint::ge0(LinExpr::from_coeffs(&[0, 1], -3)),
/// ]);
/// let out = minimize(&LinExpr::from_coeffs(&[1, 1], 0), &set);
/// assert_eq!(out.value(), Some(Rat::int(5)));
/// ```
///
/// # Panics
///
/// Panics if the objective's variable count differs from the set's.
pub fn minimize(objective: &LinExpr, set: &ConstraintSet) -> LpOutcome {
    infallible(try_minimize(objective, set, &Budget::unlimited()))
}

/// [`minimize`] under a cooperative [`Budget`]: the simplex loops check
/// the budget every iteration and abort with the structured error instead
/// of running away.
pub(crate) fn try_minimize(
    objective: &LinExpr,
    set: &ConstraintSet,
    budget: &Budget,
) -> Result<LpOutcome, BudgetError> {
    minimize_with_basis(objective, set, budget).map(|(out, _)| out)
}

/// [`try_minimize`], additionally handing back the optimal tableau (when
/// one exists and the variable space needed no sign-splitting) so
/// branch-and-bound children and the next lexmin objective can start
/// from it instead of from phase 1.
pub(crate) fn minimize_with_basis(
    objective: &LinExpr,
    set: &ConstraintSet,
    budget: &Budget,
) -> Result<(LpOutcome, Option<Solved>), BudgetError> {
    assert_eq!(objective.n_vars(), set.n_vars(), "objective space mismatch");
    crate::counters::count_lp_solve(1);
    match tableau::or_cold(tableau::solve_int(objective, set, budget))? {
        Some(solved) => Ok(solved),
        None => Ok((Simplex::new(set).minimize(objective, budget)?, None)),
    }
}

/// The historical dense-rational two-phase simplex, kept verbatim as the
/// reference implementation. The integer-tableau fast path must agree
/// with it bit-for-bit — outcome, optimal value, and tie-broken optimum
/// point — which the differential suite asserts; it also serves as the
/// fallback when an integer solve overflows `i128`.
pub fn minimize_reference(objective: &LinExpr, set: &ConstraintSet) -> LpOutcome {
    assert_eq!(objective.n_vars(), set.n_vars(), "objective space mismatch");
    crate::counters::count_lp_solve(1);
    infallible(Simplex::new(set).minimize(objective, &Budget::unlimited()))
}

/// Maximizes an affine objective over a constraint set.
pub fn maximize(objective: &LinExpr, set: &ConstraintSet) -> LpOutcome {
    match minimize(&-objective, set) {
        LpOutcome::Optimal { point, value } => LpOutcome::Optimal {
            point,
            value: -value,
        },
        other => other,
    }
}

/// Whether a constraint set has at least one rational point.
#[cfg(test)]
pub(crate) fn is_rational_feasible(set: &ConstraintSet) -> bool {
    !matches!(
        minimize(&LinExpr::zero(set.n_vars()), set),
        LpOutcome::Infeasible
    )
}

/// Dense exact simplex solver on the split-variable standard form of a
/// constraint set. Construct once per set, then [`Simplex::minimize`] any
/// number of objectives (each call re-solves from scratch).
struct Simplex<'a> {
    set: &'a ConstraintSet,
    n: usize,
}

impl<'a> Simplex<'a> {
    fn new(set: &'a ConstraintSet) -> Simplex<'a> {
        Simplex {
            set,
            n: set.n_vars(),
        }
    }

    fn minimize(&self, objective: &LinExpr, budget: &Budget) -> Result<LpOutcome, BudgetError> {
        if self.set.has_trivial_contradiction() {
            return Ok(LpOutcome::Infeasible);
        }
        // Variables with an explicit `x_v >= 0` constraint can use their
        // natural column directly; when *all* variables are non-negative
        // (the scheduler's ILPs always are) the split into x = p − q is
        // skipped entirely and the sign rows are dropped — a large
        // constant-factor win on the dense exact tableau.
        let mut nonneg = vec![false; self.n];
        for v in self
            .set
            .constraints()
            .iter()
            .filter_map(Constraint::sign_var)
        {
            nonneg[v] = true;
        }
        let split = !nonneg.iter().all(|&b| b) || self.n == 0;
        let rows: Vec<&Constraint> = self
            .set
            .constraints()
            .iter()
            .filter(|c| split || c.sign_var().is_none())
            .collect();
        let m = rows.len();
        if m == 0 {
            // Either the universe set, or only sign rows: optimum at 0
            // unless a negative objective coefficient (with x free or
            // x >= 0 unbounded above) exists.
            let unbounded = if split {
                !objective.is_constant()
            } else {
                objective.coeffs().iter().any(Rat::is_negative)
            };
            return Ok(if unbounded {
                LpOutcome::Unbounded
            } else {
                LpOutcome::Optimal {
                    point: vec![Rat::ZERO; self.n],
                    value: objective.constant_term(),
                }
            });
        }

        // Columns: [x (or p,q) | slacks | artificials-for-needy-rows].
        let n_x = if split { 2 * self.n } else { self.n };
        let n_slack = rows
            .iter()
            .filter(|c| c.kind() == ConstraintKind::Ge)
            .count();
        let n_struct = n_x + n_slack;

        // First pass: build structural rows and find which need an
        // artificial (equalities, and inequalities violated at x = 0).
        let mut a = vec![vec![Rat::ZERO; n_struct]; m];
        let mut b = vec![Rat::ZERO; m];
        let mut basis0: Vec<Option<usize>> = vec![None; m];
        let mut slack_idx = n_x;
        for (r, c) in rows.iter().enumerate() {
            for (i, &coef) in c.coeffs().iter().enumerate() {
                a[r][i] = Rat::int(coef);
                if split {
                    a[r][self.n + i] = -Rat::int(coef);
                }
            }
            // expr >= 0  =>  expr - s = 0, s >= 0; expr == 0 => expr = 0.
            b[r] = -Rat::int(c.constant());
            let mut slack: Option<usize> = None;
            if c.kind() == ConstraintKind::Ge {
                a[r][slack_idx] = -Rat::ONE;
                slack = Some(slack_idx);
                slack_idx += 1;
            }
            if b[r].is_negative() {
                for v in &mut a[r] {
                    *v = -*v;
                }
                b[r] = -b[r];
                // After negation the slack coefficient became +1: the
                // slack can start basic and no artificial is needed.
                basis0[r] = slack;
            } else if b[r].is_zero() {
                if let Some(s) = slack {
                    // Degenerate row: flip so the slack is basic at 0.
                    for v in &mut a[r] {
                        *v = -*v;
                    }
                    basis0[r] = Some(s);
                }
            }
        }
        let needy: Vec<usize> = (0..m).filter(|&r| basis0[r].is_none()).collect();
        let n_total = n_struct + needy.len();
        for row in &mut a {
            row.resize(n_total, Rat::ZERO);
        }
        for (k, &r) in needy.iter().enumerate() {
            a[r][n_struct + k] = Rat::ONE;
            basis0[r] = Some(n_struct + k);
        }

        let mut tab = Tableau {
            a,
            b,
            cost: vec![Rat::ZERO; n_total],
            val: Rat::ZERO,
            basis: basis0.into_iter().map(|o| o.expect("row basis")).collect(),
            allowed: n_total,
        };

        // Phase 1 (only when artificials exist): minimize their sum.
        if !needy.is_empty() {
            let mut phase1 = vec![Rat::ZERO; n_total];
            for slot in phase1.iter_mut().take(n_total).skip(n_struct) {
                *slot = Rat::ONE;
            }
            tab.install_objective(&phase1);
            if tab.run(budget)? == RunResult::Unbounded {
                unreachable!("phase-1 objective is bounded below by zero");
            }
            if tab.val.is_positive() {
                return Ok(LpOutcome::Infeasible);
            }
            // Drive basic artificials out of the basis where possible.
            for r in 0..m {
                if tab.basis[r] >= n_struct {
                    if let Some(c) = (0..n_struct).find(|&c| !tab.a[r][c].is_zero()) {
                        tab.pivot(r, c);
                    }
                    // If the whole row is zero the constraint was
                    // redundant; the artificial stays basic at value 0,
                    // which is harmless once artificial columns are barred
                    // from entering.
                }
            }
        }
        tab.allowed = n_struct;

        // Phase 2: the real objective.
        let mut phase2 = vec![Rat::ZERO; n_total];
        for i in 0..self.n {
            phase2[i] = objective.coeff(i);
            if split {
                phase2[self.n + i] = -objective.coeff(i);
            }
        }
        tab.install_objective(&phase2);
        if tab.run(budget)? == RunResult::Unbounded {
            return Ok(LpOutcome::Unbounded);
        }

        let mut point = vec![Rat::ZERO; self.n];
        for r in 0..m {
            let bv = tab.basis[r];
            if bv < self.n {
                point[bv] += tab.b[r];
            } else if split && bv < 2 * self.n {
                point[bv - self.n] -= tab.b[r];
            }
        }
        Ok(LpOutcome::Optimal {
            point,
            value: tab.val + objective.constant_term(),
        })
    }
}

#[derive(PartialEq, Eq)]
enum RunResult {
    Optimal,
    Unbounded,
}

struct Tableau {
    a: Vec<Vec<Rat>>,
    b: Vec<Rat>,
    cost: Vec<Rat>,
    val: Rat,
    basis: Vec<usize>,
    /// Columns `>= allowed` may not enter the basis (used to bar
    /// artificials in phase 2).
    allowed: usize,
}

impl Tableau {
    /// Installs a fresh objective, pricing it out against the current basis
    /// so that reduced costs of basic columns are zero.
    fn install_objective(&mut self, cost: &[Rat]) {
        self.cost = cost.to_vec();
        self.val = Rat::ZERO;
        for r in 0..self.b.len() {
            let cb = self.cost[self.basis[r]];
            if cb.is_zero() {
                continue;
            }
            for j in 0..self.cost.len() {
                let s = self.a[r][j] * cb;
                self.cost[j] -= s;
            }
            self.val += cb * self.b[r];
        }
    }

    fn pivot(&mut self, r: usize, c: usize) {
        let p = self.a[r][c];
        debug_assert!(!p.is_zero());
        let inv = p.recip();
        for v in &mut self.a[r] {
            *v *= inv;
        }
        self.b[r] *= inv;
        for i in 0..self.b.len() {
            if i == r {
                continue;
            }
            let f = self.a[i][c];
            if f.is_zero() {
                continue;
            }
            for j in 0..self.cost.len() {
                let s = self.a[r][j] * f;
                self.a[i][j] -= s;
            }
            let s = self.b[r] * f;
            self.b[i] -= s;
        }
        let f = self.cost[c];
        if !f.is_zero() {
            for j in 0..self.cost.len() {
                let s = self.a[r][j] * f;
                self.cost[j] -= s;
            }
            self.val += f * self.b[r];
        }
        self.basis[r] = c;
    }

    /// Runs simplex iterations with Bland's rule until optimal or unbounded.
    ///
    /// Invariant: `z = val + Σ cost_j·y_j` over nonbasic `y_j >= 0`, so a
    /// column with negative reduced cost lowers the minimization objective
    /// as it enters the basis; `val` is updated inside [`Tableau::pivot`].
    fn run(&mut self, budget: &Budget) -> Result<RunResult, BudgetError> {
        loop {
            budget.check()?;
            // Bland: smallest-index entering column with negative reduced
            // cost.
            let Some(c) = (0..self.allowed).find(|&j| self.cost[j].is_negative()) else {
                return Ok(RunResult::Optimal);
            };
            // Min-ratio leaving row; Bland tie-break on basis variable index.
            let mut leave: Option<(usize, Rat)> = None;
            for r in 0..self.b.len() {
                if self.a[r][c].is_positive() {
                    let ratio = self.b[r] / self.a[r][c];
                    let better = match &leave {
                        None => true,
                        Some((lr, lratio)) => {
                            ratio < *lratio || (ratio == *lratio && self.basis[r] < self.basis[*lr])
                        }
                    };
                    if better {
                        leave = Some((r, ratio));
                    }
                }
            }
            let Some((r, _)) = leave else {
                return Ok(RunResult::Unbounded);
            };
            self.pivot(r, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;

    fn ge(coeffs: &[i128], k: i128) -> Constraint {
        Constraint::ge0(LinExpr::from_coeffs(coeffs, k))
    }

    fn eq(coeffs: &[i128], k: i128) -> Constraint {
        Constraint::eq0(LinExpr::from_coeffs(coeffs, k))
    }

    #[test]
    fn simple_minimum() {
        // min x0 s.t. x0 >= -5 (free variables can go negative).
        let set = ConstraintSet::from_constraints(1, vec![ge(&[1], 5)]);
        let out = minimize(&LinExpr::var(1, 0), &set);
        assert_eq!(out.value(), Some(Rat::int(-5)));
    }

    #[test]
    fn two_variable_lp() {
        // min -x0 - 2x1 s.t. x0 + x1 <= 4, x0 <= 2, x0 >= 0, x1 >= 0.
        let set = ConstraintSet::from_constraints(
            2,
            vec![
                ge(&[-1, -1], 4),
                ge(&[-1, 0], 2),
                ge(&[1, 0], 0),
                ge(&[0, 1], 0),
            ],
        );
        let out = minimize(&LinExpr::from_coeffs(&[-1, -2], 0), &set);
        // Optimum at (0, 4): value -8.
        assert_eq!(out.value(), Some(Rat::int(-8)));
    }

    #[test]
    fn equality_constraints() {
        // min x0 + x1 s.t. x0 + x1 == 10, x0 - x1 == 2.
        let set = ConstraintSet::from_constraints(2, vec![eq(&[1, 1], -10), eq(&[1, -1], -2)]);
        let out = minimize(&LinExpr::from_coeffs(&[1, 1], 0), &set);
        match out {
            LpOutcome::Optimal { point, value } => {
                assert_eq!(value, Rat::int(10));
                assert_eq!(point, vec![Rat::int(6), Rat::int(4)]);
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn infeasible() {
        let set = ConstraintSet::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 2)]);
        // x0 >= 3 and x0 <= 2.
        assert_eq!(minimize(&LinExpr::var(1, 0), &set), LpOutcome::Infeasible);
        assert!(!is_rational_feasible(&set));
    }

    #[test]
    fn unbounded() {
        let set = ConstraintSet::from_constraints(1, vec![ge(&[-1], 10)]);
        // x0 <= 10, minimize x0 → unbounded below.
        assert_eq!(minimize(&LinExpr::var(1, 0), &set), LpOutcome::Unbounded);
    }

    #[test]
    fn universe_cases() {
        let set = ConstraintSet::universe(2);
        assert!(is_rational_feasible(&set));
        assert_eq!(
            minimize(&LinExpr::constant(2, 7), &set).value(),
            Some(Rat::int(7))
        );
        assert_eq!(minimize(&LinExpr::var(2, 0), &set), LpOutcome::Unbounded);
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // min x0 s.t. 2*x0 >= 1  → x0 = 1/2.
        let set = ConstraintSet::from_constraints(1, vec![ge(&[2], -1)]);
        assert_eq!(
            minimize(&LinExpr::var(1, 0), &set).value(),
            Some(Rat::new(1, 2))
        );
    }

    #[test]
    fn maximize_works() {
        let set = ConstraintSet::from_constraints(1, vec![ge(&[-1], 9), ge(&[1], 0)]);
        assert_eq!(
            maximize(&LinExpr::var(1, 0), &set).value(),
            Some(Rat::int(9))
        );
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        // Same equality twice (syntactic dedup off via different scaling is
        // normalized away, so craft two distinct but dependent equalities).
        let set = ConstraintSet::from_constraints(
            2,
            vec![eq(&[1, 1], -4), eq(&[2, 2], -8), eq(&[1, -1], 0)],
        );
        let out = minimize(&LinExpr::from_coeffs(&[1, 0], 0), &set);
        assert_eq!(out.value(), Some(Rat::int(2)));
    }

    #[test]
    fn optimum_point_is_feasible() {
        let set = ConstraintSet::from_constraints(
            3,
            vec![
                ge(&[1, 0, 0], 0),
                ge(&[0, 1, 0], 0),
                ge(&[0, 0, 1], 0),
                ge(&[-1, -1, -1], 6),
            ],
        );
        let obj = LinExpr::from_coeffs(&[-1, -1, -2], 0);
        match minimize(&obj, &set) {
            LpOutcome::Optimal { point, value } => {
                assert!(set.contains(&point));
                assert_eq!(obj.eval(&point), value);
                assert_eq!(value, Rat::int(-12)); // all weight on x2.
            }
            other => panic!("unexpected {:?}", other),
        }
    }
}
