//! Integer linear programming by branch-and-bound on the exact simplex
//! relaxation, plus lexicographic minimization.
//!
//! The influenced scheduler solves one (lexicographic) ILP per scheduling
//! dimension; dependence analysis uses integer feasibility tests.
//!
//! Branch-and-bound works on a **single mutable** [`ConstraintSet`]: each
//! node pushes one bound constraint, recurses, and pops it by truncating
//! back to the recorded length, instead of cloning the whole set per node
//! (the historical behavior, kept as [`minimize_integer_reference`] for
//! differential testing). The search order is identical, so outcomes —
//! including tie-broken optimum points — are bit-for-bit the same.

use crate::budget::{Budget, BudgetError, BudgetResource};
use crate::constraint::{Constraint, ConstraintSet};
use crate::context::lexmin_chain;
use crate::counters;
use crate::linexpr::LinExpr;
use crate::preprocess::{self, PreOutcome};
use crate::simplex::{minimize, minimize_with_basis, LpOutcome};
use crate::tableau::{or_cold, Solved, Vertex};
use polyject_arith::Rat;

/// Result of an integer linear program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IlpOutcome {
    /// No integer point satisfies the constraints.
    Infeasible,
    /// The relaxation (and hence the ILP) is unbounded below.
    Unbounded,
    /// An optimal integer point.
    Optimal {
        /// A point attaining the optimum.
        point: Vec<i128>,
        /// The optimal objective value (always an integer point evaluation,
        /// but kept rational because objectives may have rational
        /// coefficients).
        value: Rat,
    },
}

impl IlpOutcome {
    /// The optimal point, if any.
    pub fn point(&self) -> Option<&[i128]> {
        match self {
            IlpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    /// The optimal value, if any.
    pub fn value(&self) -> Option<Rat> {
        match self {
            IlpOutcome::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

/// Hard cap on branch-and-bound nodes; scheduling ILPs explore a handful.
/// Budgeted solves surface the cap as a structured
/// [`BudgetError::Exhausted`]; the plain entry points panic.
const NODE_LIMIT: usize = 100_000;

/// Unwraps a solve run under [`Budget::unlimited`]: the only error an
/// unlimited budget can surface is the built-in [`NODE_LIMIT`] cap, which
/// the plain entry points report as their documented panic.
pub(crate) fn expect_within_node_limit<T>(r: Result<T, BudgetError>) -> T {
    match r {
        Ok(v) => v,
        Err(BudgetError::Exhausted(BudgetResource::IlpNodes)) => {
            panic!("branch-and-bound node limit exceeded")
        }
        Err(e) => unreachable!("unlimited budget tripped: {e}"),
    }
}

/// Minimizes an affine objective over the integer points of a set.
///
/// # Examples
///
/// ```
/// use polyject_sets::{minimize_integer, Constraint, ConstraintSet, LinExpr};
/// use polyject_arith::Rat;
///
/// // min x s.t. 2x >= 3 → rational opt 3/2, integer opt 2.
/// let set = ConstraintSet::from_constraints(1, vec![
///     Constraint::ge0(LinExpr::from_coeffs(&[2], -3)),
/// ]);
/// let out = minimize_integer(&LinExpr::var(1, 0), &set);
/// assert_eq!(out.value(), Some(Rat::int(2)));
/// ```
///
/// # Panics
///
/// Panics if branch-and-bound exceeds its node limit (a malformed,
/// effectively unbounded search).
pub fn minimize_integer(objective: &LinExpr, set: &ConstraintSet) -> IlpOutcome {
    let unlimited = Budget::unlimited();
    let solved = try_minimize_integer_rooted(objective, &mut set.clone(), None, &unlimited, None);
    expect_within_node_limit(solved).0
}

/// Branch-and-bound minimization of `objective` over the integer points
/// of `set`, every node checking `budget`.
///
/// `upper_bound` is an optional *attainable* bound on the objective:
/// subtrees whose LP relaxation strictly exceeds it are pruned before any
/// incumbent exists. The caller must guarantee that some feasible integer
/// point attains a value `<= upper_bound` (e.g. the objective evaluated at
/// a known feasible point, as [`lexmin_integer`] does between successive
/// objectives). Under that contract the result — outcome, value *and*
/// tie-broken point — is identical to the unbounded search: pruning only
/// removes subtrees whose every integer point is strictly worse than the
/// optimum, and the depth-first order of the remaining nodes is unchanged.
///
/// `root` is a pre-resolved root relaxation: when a lexmin chain has
/// already solved the root LP by warm re-optimization — and its vertex
/// may stand in for the one a cold solve would tie-break to — the root
/// node consumes it instead of solving cold. Also hands back the root's
/// optimal tableau (when the space needed no sign split), which the chain
/// extends with the pin row to start the *next* objective.
/// Branch-and-bound pushes and pops its bound rows on `set` itself, which
/// comes back as it went in, budget errors included.
pub(crate) fn try_minimize_integer_rooted(
    objective: &LinExpr,
    set: &mut ConstraintSet,
    upper_bound: Option<Rat>,
    budget: &Budget,
    root: Option<(LpOutcome, Option<Solved>)>,
) -> Result<(IlpOutcome, Option<Solved>), BudgetError> {
    counters::count_ilp_solve(1);
    let mut best: Option<(Rat, Vec<i128>)> = None;
    let mut nodes = 0usize;
    let mut root_basis: Option<Solved> = None;
    match branch(
        objective,
        set,
        upper_bound,
        &mut best,
        &mut nodes,
        None,
        root,
        Some(&mut root_basis),
        budget,
    )? {
        BranchResult::Unbounded => Ok((IlpOutcome::Unbounded, None)),
        BranchResult::Done => match best {
            Some((value, point)) => Ok((IlpOutcome::Optimal { point, value }, root_basis)),
            None if upper_bound.is_some() => {
                // The bound contract was violated (no feasible point at or
                // below it). Fall back to the exact unbounded search rather
                // than report a spurious Infeasible.
                debug_assert!(false, "unattainable upper bound");
                try_minimize_integer_rooted(objective, set, None, budget, None)
                    .map(|(o, _)| (o, None))
            }
            None => Ok((IlpOutcome::Infeasible, None)),
        },
    }
}

/// Whether a set contains at least one integer point.
///
/// Runs a preprocessing pass first (unit equalities substituted out, rows
/// tightened by their content, single-variable rows merged into bounds)
/// that decides nearly every dependence test with no tableau at all.
/// The answer is identical to solving the raw set — only the point that
/// would witness feasibility may differ, and no point is reported here.
pub fn is_integer_feasible(set: &ConstraintSet) -> bool {
    let t0 = std::time::Instant::now();
    let pre = preprocess::tighten_for_integrality(set);
    counters::add_preprocess_ns(t0.elapsed().as_nanos() as u64);
    let point = match pre {
        PreOutcome::Infeasible => return false,
        PreOutcome::Feasible => return true,
        PreOutcome::Reduced(reduced) => try_find_integer_point(&reduced, &Budget::unlimited()),
        PreOutcome::Unchanged => try_find_integer_point(set, &Budget::unlimited()),
    };
    expect_within_node_limit(point).is_some()
}

/// [`is_integer_feasible`] without preprocessing: branch-and-bound on the
/// raw set via the clone-per-node reference search. Differential tests
/// check the boolean answers always agree.
pub fn is_integer_feasible_reference(set: &ConstraintSet) -> bool {
    matches!(
        minimize_integer_reference(&LinExpr::zero(set.n_vars()), set),
        IlpOutcome::Optimal { .. }
    )
}

/// Finds some integer point of the set, if one exists, under a
/// cooperative [`Budget`].
pub(crate) fn try_find_integer_point(
    set: &ConstraintSet,
    budget: &Budget,
) -> Result<Option<Vec<i128>>, BudgetError> {
    let zero = LinExpr::zero(set.n_vars());
    match try_minimize_integer_rooted(&zero, &mut set.clone(), None, budget, None)?.0 {
        IlpOutcome::Optimal { point, .. } => Ok(Some(point)),
        IlpOutcome::Unbounded => unreachable!("zero objective cannot be unbounded"),
        IlpOutcome::Infeasible => Ok(None),
    }
}

/// Lexicographically minimizes a sequence of objectives over the integer
/// points of a set: minimize the first, pin it, minimize the second, and so
/// on. Returns the final optimum point together with the per-objective
/// optimal values.
///
/// Between successive objectives the previous optimum point is reused as a
/// warm start: it stays feasible after its objective is pinned, so its
/// value under the next objective is an attainable upper bound that lets
/// branch-and-bound prune strictly-worse subtrees from the start; results
/// are identical to solving each step cold. [`SchedCtx::try_lexmin`] is
/// the same chain over a base prefix held in solved form, under a
/// [`Budget`].
///
/// [`SchedCtx::try_lexmin`]: crate::SchedCtx::try_lexmin
///
/// # Examples
///
/// ```
/// use polyject_sets::{lexmin_integer, Constraint, ConstraintSet, IlpOutcome, LinExpr};
///
/// // Box 0..=3 × 0..=3; lexmin (x0+x1, -x1): first minimize the sum
/// // (0), then maximize x1 subject to the sum staying 0 → (0, 0).
/// let set = ConstraintSet::from_constraints(2, vec![
///     Constraint::ge0(LinExpr::from_coeffs(&[1, 0], 0)),
///     Constraint::ge0(LinExpr::from_coeffs(&[-1, 0], 3)),
///     Constraint::ge0(LinExpr::from_coeffs(&[0, 1], 0)),
///     Constraint::ge0(LinExpr::from_coeffs(&[0, -1], 3)),
/// ]);
/// let objs = vec![LinExpr::from_coeffs(&[1, 1], 0), LinExpr::from_coeffs(&[0, -1], 0)];
/// match lexmin_integer(&objs, &set) {
///     IlpOutcome::Optimal { point, .. } => assert_eq!(point, vec![0, 0]),
///     other => panic!("unexpected {:?}", other),
/// }
/// ```
pub fn lexmin_integer(objectives: &[LinExpr], set: &ConstraintSet) -> IlpOutcome {
    let unlimited = Budget::unlimited();
    expect_within_node_limit(lexmin_chain(objectives, &mut set.clone(), None, &unlimited))
}

enum BranchResult {
    Done,
    Unbounded,
}

#[allow(clippy::too_many_arguments)]
fn branch(
    objective: &LinExpr,
    set: &mut ConstraintSet,
    upper_bound: Option<Rat>,
    best: &mut Option<(Rat, Vec<i128>)>,
    nodes: &mut usize,
    warm_ctx: Option<(&Solved, &Constraint)>,
    preresolved: Option<(LpOutcome, Option<Solved>)>,
    basis_sink: Option<&mut Option<Solved>>,
    budget: &Budget,
) -> Result<BranchResult, BudgetError> {
    *nodes += 1;
    counters::count_ilp_node(1);
    if *nodes > NODE_LIMIT {
        return Err(BudgetError::Exhausted(BudgetResource::IlpNodes));
    }
    budget.check()?;
    // Resolve this node's LP relaxation. When the caller already solved it
    // (a lexmin chain's warm re-optimization), consume that; when the
    // parent handed down its optimal tableau, extend a clone of it by the
    // one pushed bound row; a cold solve only happens when neither answer
    // can be proven identical to one. The LP outcome used for branching
    // decisions is bit-for-bit the cold one either way.
    let mut resolved: Option<(LpOutcome, Option<Solved>)> = preresolved;
    if resolved.is_some() {
        counters::count_bb_warm_node(1);
    } else if let Some((parent, bound)) = warm_ctx {
        let mut child = parent.clone();
        match or_cold(child.extend(std::slice::from_ref(bound), budget))? {
            Some(false) => {
                counters::count_bb_warm_node(1);
                resolved = Some((LpOutcome::Infeasible, None));
            }
            Some(true) => {
                let Vertex {
                    value,
                    point,
                    unique,
                } = child.vertex();
                // The optimal *value* is unique even when the vertex is
                // not, so value-based pruning decisions made here are
                // always identical to a cold solve's.
                let prunes = upper_bound.is_some_and(|ub| value > ub)
                    || best.as_ref().is_some_and(|(bv, _)| value >= *bv);
                if prunes {
                    counters::count_bb_warm_node(1);
                    return Ok(BranchResult::Done);
                }
                if unique {
                    counters::count_bb_warm_node(1);
                    resolved = Some((LpOutcome::Optimal { point, value }, Some(child)));
                }
                // Non-unique optimum that survives pruning: the cold
                // path's tie-broken vertex drives branching, so fall
                // through to a cold solve.
            }
            None => {}
        }
    }
    let (outcome, basis) = match resolved {
        Some(r) => r,
        None => minimize_with_basis(objective, set, budget)?,
    };
    // Export the root's optimal tableau to the caller (the lexmin chain
    // reseeds from it) while keeping it borrowable for child warm starts.
    let local_basis: Option<Solved>;
    let basis: &Option<Solved> = match basis_sink {
        Some(sink) => {
            *sink = basis;
            sink
        }
        None => {
            local_basis = basis;
            &local_basis
        }
    };
    match outcome {
        LpOutcome::Infeasible => Ok(BranchResult::Done),
        LpOutcome::Unbounded => Ok(BranchResult::Unbounded),
        LpOutcome::Optimal { point, value } => {
            // Every integer point below this node is >= the relaxation
            // value: strictly above the attainable bound means the subtree
            // cannot contain an optimum.
            if let Some(ub) = upper_bound {
                if value > ub {
                    return Ok(BranchResult::Done);
                }
            }
            if let Some((bv, _)) = best {
                if value >= *bv {
                    return Ok(BranchResult::Done); // cannot improve
                }
            }
            match first_fractional(&point) {
                None => {
                    let int_point: Vec<i128> = point
                        .iter()
                        .map(|r| r.to_integer().expect("integer point"))
                        .collect();
                    if best.as_ref().is_none_or(|(bv, _)| value < *bv) {
                        *best = Some((value, int_point));
                    }
                    Ok(BranchResult::Done)
                }
                Some(i) => {
                    let f = point[i];
                    let n = set.n_vars();
                    // x_i <= floor(f): push the bound, recurse, pop it.
                    // The pop happens before `?` propagates any budget
                    // error so an aborted solve leaves no partial state.
                    let saved = set.len();
                    let mut e = LinExpr::var(n, i).scaled(-Rat::ONE);
                    e.set_constant(Rat::int(f.floor()));
                    let c = Constraint::ge0(e);
                    set.add(c.clone());
                    let ctx = basis.as_ref().map(|b| (b, &c));
                    let lo = branch(
                        objective,
                        set,
                        upper_bound,
                        best,
                        nodes,
                        ctx,
                        None,
                        None,
                        budget,
                    );
                    set.truncate(saved);
                    if let BranchResult::Unbounded = lo? {
                        return Ok(BranchResult::Unbounded);
                    }
                    // x_i >= ceil(f)
                    let saved = set.len();
                    let mut e = LinExpr::var(n, i);
                    e.set_constant(Rat::int(-f.ceil()));
                    let c = Constraint::ge0(e);
                    set.add(c.clone());
                    let ctx = basis.as_ref().map(|b| (b, &c));
                    let hi = branch(
                        objective,
                        set,
                        upper_bound,
                        best,
                        nodes,
                        ctx,
                        None,
                        None,
                        budget,
                    );
                    set.truncate(saved);
                    hi
                }
            }
        }
    }
}

/// The historical clone-per-node branch-and-bound, kept verbatim as a
/// reference implementation for differential property tests of the
/// push/pop rewrite. Semantics (outcome, optimal value, and tie-broken
/// optimum point) must always match [`minimize_integer`].
pub fn minimize_integer_reference(objective: &LinExpr, set: &ConstraintSet) -> IlpOutcome {
    let mut best: Option<(Rat, Vec<i128>)> = None;
    let mut nodes = 0usize;
    match branch_cloning(objective, set.clone(), &mut best, &mut nodes) {
        BranchResult::Unbounded => IlpOutcome::Unbounded,
        BranchResult::Done => match best {
            Some((value, point)) => IlpOutcome::Optimal { point, value },
            None => IlpOutcome::Infeasible,
        },
    }
}

fn branch_cloning(
    objective: &LinExpr,
    set: ConstraintSet,
    best: &mut Option<(Rat, Vec<i128>)>,
    nodes: &mut usize,
) -> BranchResult {
    *nodes += 1;
    assert!(*nodes <= NODE_LIMIT, "branch-and-bound node limit exceeded");
    match minimize(objective, &set) {
        LpOutcome::Infeasible => BranchResult::Done,
        LpOutcome::Unbounded => BranchResult::Unbounded,
        LpOutcome::Optimal { point, value } => {
            if let Some((bv, _)) = best {
                if value >= *bv {
                    return BranchResult::Done; // cannot improve
                }
            }
            match first_fractional(&point) {
                None => {
                    let int_point: Vec<i128> = point
                        .iter()
                        .map(|r| r.to_integer().expect("integer point"))
                        .collect();
                    if best.as_ref().is_none_or(|(bv, _)| value < *bv) {
                        *best = Some((value, int_point));
                    }
                    BranchResult::Done
                }
                Some(i) => {
                    let f = point[i];
                    let n = set.n_vars();
                    // x_i <= floor(f)
                    let mut lo = set.clone();
                    let mut e = LinExpr::var(n, i).scaled(-Rat::ONE);
                    e.set_constant(Rat::int(f.floor()));
                    lo.add(Constraint::ge0(e));
                    if let BranchResult::Unbounded = branch_cloning(objective, lo, best, nodes) {
                        return BranchResult::Unbounded;
                    }
                    // x_i >= ceil(f)
                    let mut hi = set;
                    let mut e = LinExpr::var(n, i);
                    e.set_constant(Rat::int(-f.ceil()));
                    hi.add(Constraint::ge0(e));
                    branch_cloning(objective, hi, best, nodes)
                }
            }
        }
    }
}

fn first_fractional(point: &[Rat]) -> Option<usize> {
    point.iter().position(|r| !r.is_integer())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge(n: usize, coeffs: &[i128], k: i128) -> Constraint {
        assert_eq!(coeffs.len(), n);
        Constraint::ge0(LinExpr::from_coeffs(coeffs, k))
    }

    #[test]
    fn rounding_up_from_fractional_relaxation() {
        // min x+y s.t. 2x + 2y >= 5, x,y >= 0: LP opt 5/2, ILP opt 3.
        let set = ConstraintSet::from_constraints(
            2,
            vec![ge(2, &[2, 2], -5), ge(2, &[1, 0], 0), ge(2, &[0, 1], 0)],
        );
        let out = minimize_integer(&LinExpr::from_coeffs(&[1, 1], 0), &set);
        assert_eq!(out.value(), Some(Rat::int(3)));
        let p = out.point().unwrap();
        assert!(set.contains_int(p));
    }

    #[test]
    fn no_integer_point_in_nonempty_rational_set() {
        // 1/3 <= x <= 2/3: rationally feasible, integrally empty.
        let set = ConstraintSet::from_constraints(1, vec![ge(1, &[3], -1), ge(1, &[-3], 2)]);
        assert!(crate::simplex::is_rational_feasible(&set));
        assert!(!is_integer_feasible(&set));
    }

    #[test]
    fn equality_lattice_gap() {
        // 2x == 1 has no integer solution.
        let set = ConstraintSet::from_constraints(
            1,
            vec![Constraint::eq0(LinExpr::from_coeffs(&[2], -1))],
        );
        assert!(!is_integer_feasible(&set));
    }

    #[test]
    fn unbounded_objective() {
        let set = ConstraintSet::from_constraints(1, vec![ge(1, &[-1], 0)]);
        assert_eq!(
            minimize_integer(&LinExpr::var(1, 0), &set),
            IlpOutcome::Unbounded
        );
    }

    #[test]
    fn push_pop_leaves_no_residue() {
        // After a deep branch-and-bound, the working set must have been
        // restored at every level: run the same solve twice and through
        // the reference implementation, expecting identical outcomes.
        let set = ConstraintSet::from_constraints(
            3,
            vec![
                ge(3, &[2, 3, 5], -11),
                ge(3, &[1, 0, 0], 0),
                ge(3, &[0, 1, 0], 0),
                ge(3, &[0, 0, 1], 0),
                ge(3, &[-1, -1, -1], 7),
            ],
        );
        let obj = LinExpr::from_coeffs(&[1, 1, 1], 0);
        let a = minimize_integer(&obj, &set);
        let b = minimize_integer(&obj, &set);
        let r = minimize_integer_reference(&obj, &set);
        assert_eq!(a, b);
        assert_eq!(a, r);
    }

    #[test]
    fn bounded_search_matches_unbounded() {
        // min x+y s.t. 2x + 2y >= 5, x,y >= 0, with the attainable bound
        // from the feasible point (3, 0) → value 3 (which is the optimum).
        let set = ConstraintSet::from_constraints(
            2,
            vec![ge(2, &[2, 2], -5), ge(2, &[1, 0], 0), ge(2, &[0, 1], 0)],
        );
        let obj = LinExpr::from_coeffs(&[1, 1], 0);
        let bounded = |ub: i128| {
            let unlimited = Budget::unlimited();
            let root = None;
            try_minimize_integer_rooted(
                &obj,
                &mut set.clone(),
                Some(Rat::int(ub)),
                &unlimited,
                root,
            )
            .unwrap()
            .0
        };
        let cold = minimize_integer(&obj, &set);
        assert_eq!(cold, bounded(3));
        assert_eq!(cold, bounded(100));
    }

    #[test]
    fn lexmin_orders_objectives() {
        // Box 0..=2 × 0..=2 with x0 + x1 >= 2.
        let set = ConstraintSet::from_constraints(
            2,
            vec![
                ge(2, &[1, 0], 0),
                ge(2, &[-1, 0], 2),
                ge(2, &[0, 1], 0),
                ge(2, &[0, -1], 2),
                ge(2, &[1, 1], -2),
            ],
        );
        // lexmin (x0, x1): minimize x0 first → x0=0 forces x1=2.
        let objs = vec![LinExpr::var(2, 0), LinExpr::var(2, 1)];
        match lexmin_integer(&objs, &set) {
            IlpOutcome::Optimal { point, .. } => assert_eq!(point, vec![0, 2]),
            other => panic!("unexpected {:?}", other),
        }
        // Opposite order → (2, 0).
        let objs = vec![LinExpr::var(2, 1), LinExpr::var(2, 0)];
        match lexmin_integer(&objs, &set) {
            IlpOutcome::Optimal { point, .. } => assert_eq!(point, vec![2, 0]),
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn lexmin_empty_objectives_finds_point() {
        let set = ConstraintSet::from_constraints(1, vec![ge(1, &[1], -4), ge(1, &[-1], 4)]);
        match lexmin_integer(&[], &set) {
            IlpOutcome::Optimal { point, .. } => assert_eq!(point, vec![4]),
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn lexmin_infeasible() {
        let set = ConstraintSet::from_constraints(1, vec![ge(1, &[1], -4), ge(1, &[-1], 2)]);
        assert_eq!(
            lexmin_integer(&[LinExpr::var(1, 0)], &set),
            IlpOutcome::Infeasible
        );
    }

    #[test]
    fn find_point_in_shifted_lattice() {
        // x ≡ solution of 3x == 12 → x = 4.
        let set = ConstraintSet::from_constraints(
            1,
            vec![Constraint::eq0(LinExpr::from_coeffs(&[3], -12))],
        );
        assert_eq!(
            try_find_integer_point(&set, &Budget::unlimited()),
            Ok(Some(vec![4]))
        );
    }

    #[test]
    fn solver_counters_tick() {
        let before = crate::counters::snapshot();
        let set = ConstraintSet::from_constraints(
            2,
            vec![ge(2, &[2, 2], -5), ge(2, &[1, 0], 0), ge(2, &[0, 1], 0)],
        );
        minimize_integer(&LinExpr::from_coeffs(&[1, 1], 0), &set);
        let d = crate::counters::snapshot().delta_since(&before);
        assert_eq!(d.ilp_solves, 1);
        assert!(d.ilp_nodes >= 1);
        assert!(
            d.lp_solves + d.bb_warm_nodes >= d.ilp_nodes,
            "each node either solves an LP cold or is served warm"
        );
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
            vec![ge(2, &[0, 1], 0), ge(2, &[1, -1], 0), ge(2, &[-1, 0], 3)],
        );
        assert_eq!(lexmin_point(&set), Some(vec![0, 0]));
    }

    #[test]
    fn lex_extrema_of_empty() {
        let empty = ConstraintSet::from_constraints(1, vec![ge(1, &[1], -5), ge(1, &[-1], 2)]);
        assert_eq!(lexmin_point(&empty), None);
    }

    #[test]
    fn unbounded_has_no_lexmin() {
        let half = ConstraintSet::from_constraints(1, vec![ge(1, &[-1], 0)]);
        // x <= 0, unbounded below.
        assert_eq!(lexmin_point(&half), None);
    }
}
