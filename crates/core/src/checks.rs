//! Post-solution schedule analysis: strong/weak dependence satisfaction and
//! coincidence (parallelism) checks, evaluated exactly on the dependence
//! relations.

use crate::schedule::{Schedule, ScheduleRow};
use polyject_deps::DepRelation;
use polyject_sets::{is_integer_feasible, maximize, Constraint, ConstraintSet, LinExpr, LpOutcome};

/// The reuse distance `φ_T(t) − φ_S(s)` at schedule dimension `d`, as a
/// concrete affine expression over the relation space
/// `[s_iters..., t_iters..., params...]`. Statements whose schedule is
/// shallower than `d` contribute a zero row.
pub(crate) fn distance_at_dim(rel: &DepRelation, schedule: &Schedule, d: usize) -> LinExpr {
    let n = rel.n_vars();
    let zero_s = ScheduleRow::zero(rel.n_source_iters, rel.n_params);
    let zero_t = ScheduleRow::zero(rel.n_target_iters, rel.n_params);
    let s_row = schedule.stmt(rel.source).rows().get(d).unwrap_or(&zero_s);
    let t_row = schedule.stmt(rel.target).rows().get(d).unwrap_or(&zero_t);
    let mut e = LinExpr::zero(n);
    for (v, &c) in s_row.iter_coeffs.iter().enumerate() {
        e.set_coeff(v, -c);
    }
    for (v, &c) in t_row.iter_coeffs.iter().enumerate() {
        let cur = e.coeff(rel.n_source_iters + v);
        e.set_coeff(rel.n_source_iters + v, cur + polyject_arith::Rat::int(c));
    }
    let p_base = rel.n_source_iters + rel.n_target_iters;
    for p in 0..rel.n_params {
        e.set_coeff(p_base + p, t_row.param_coeffs[p] - s_row.param_coeffs[p]);
    }
    e.set_constant(t_row.constant - s_row.constant);
    e
}

/// The relation restricted to instance pairs whose logical dates coincide
/// on dimensions `0..depth`.
pub(crate) fn equal_date_prefix(
    rel: &DepRelation,
    schedule: &Schedule,
    depth: usize,
) -> ConstraintSet {
    let mut set = rel.set.clone();
    for d in 0..depth {
        set.add(Constraint::eq0(distance_at_dim(rel, schedule, d)));
    }
    set
}

/// Whether the schedule prefix (all rows built so far) strongly satisfies
/// the relation: no dependent instance pair is left with fully equal dates.
///
/// This is exact under the invariant the scheduler maintains — every built
/// dimension weakly satisfies every relation still under consideration.
pub(crate) fn is_strongly_satisfied(rel: &DepRelation, schedule: &Schedule) -> bool {
    let depth = schedule
        .stmt(rel.source)
        .depth()
        .max(schedule.stmt(rel.target).depth());
    if depth == 0 {
        return false;
    }
    let residual = equal_date_prefix(rel, schedule, depth);
    residual.has_trivial_contradiction() || !is_integer_feasible(&residual)
}

/// Whether dimension `d` is *coincident* (parallel) with respect to the
/// given relations: the distance at `d` is identically zero on every
/// relation, restricted to pairs with equal dates on dimensions `0..d`.
///
/// Relations already strongly satisfied before `d` are automatically
/// coincident (their restricted relation is empty).
pub fn dim_is_coincident<'a>(
    rels: impl IntoIterator<Item = &'a DepRelation>,
    schedule: &Schedule,
    d: usize,
) -> bool {
    for rel in rels {
        let restricted = equal_date_prefix(rel, schedule, d);
        if restricted.has_trivial_contradiction() {
            continue;
        }
        let dist = distance_at_dim(rel, schedule, d);
        // Validity guarantees dist >= 0 pointwise; parallel iff max == 0.
        match maximize(&dist, &restricted) {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => return false,
            LpOutcome::Optimal { value, .. } => {
                if value.is_positive() {
                    return false;
                }
            }
        }
    }
    true
}

/// Full lexicographic validity of a schedule against a set of relations:
/// for every relation there is a dimension that strongly satisfies it while
/// all earlier dimensions weakly satisfy it on the equal-date subset.
pub fn schedule_respects<'a>(
    rels: impl IntoIterator<Item = &'a DepRelation>,
    schedule: &Schedule,
) -> bool {
    for rel in rels {
        let depth = schedule
            .stmt(rel.source)
            .depth()
            .max(schedule.stmt(rel.target).depth());
        // Walk dimensions maintaining the equal-prefix restriction; the
        // relation must die (become empty or strictly positive) by the end.
        let mut restricted = rel.set.clone();
        let mut satisfied = false;
        for d in 0..depth {
            if restricted.has_trivial_contradiction() || !is_integer_feasible(&restricted) {
                satisfied = true;
                break;
            }
            let dist = distance_at_dim(rel, schedule, d);
            // Any pair with negative distance here violates the order.
            let mut viol = restricted.clone();
            let mut e = -&dist;
            e.set_constant(e.constant_term() - polyject_arith::Rat::ONE);
            viol.add(Constraint::ge0(e));
            if is_integer_feasible(&viol) {
                return false;
            }
            restricted.add(Constraint::eq0(dist));
        }
        if !satisfied && is_integer_feasible(&restricted) {
            return false; // some pair ends with fully equal dates
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_deps::{compute_dependences, DepOptions};
    use polyject_ir::ops;

    #[test]
    fn identity_schedule_is_valid_and_satisfies_all() {
        let kernel = ops::running_example(8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let sched = Schedule::identity(&kernel);
        let v: Vec<_> = deps.validity().collect();
        assert!(schedule_respects(v.iter().copied(), &sched));
        for rel in &v {
            assert!(
                is_strongly_satisfied(rel, &sched),
                "identity satisfies {:?}",
                rel.kind
            );
        }
    }

    #[test]
    fn reversed_schedule_is_invalid() {
        let kernel = ops::running_example(8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let mut sched = Schedule::identity(&kernel);
        // Flip the scalar ordering dimension: Y before X breaks the flow.
        let mut rows0 = sched.stmt(polyject_ir::StmtId(0)).rows().to_vec();
        rows0[0].constant = 1;
        let mut rows1 = sched.stmt(polyject_ir::StmtId(1)).rows().to_vec();
        rows1[0].constant = 0;
        *sched.stmt_mut(polyject_ir::StmtId(0)) = rows_to_schedule(rows0);
        *sched.stmt_mut(polyject_ir::StmtId(1)) = rows_to_schedule(rows1);
        let v: Vec<_> = deps.validity().collect();
        assert!(!schedule_respects(v.iter().copied(), &sched));
    }

    fn rows_to_schedule(rows: Vec<ScheduleRow>) -> crate::schedule::StatementSchedule {
        let mut ss = crate::schedule::StatementSchedule::default();
        for r in rows {
            ss.push(r);
        }
        ss
    }

    #[test]
    fn coincidence_of_identity_dims() {
        let kernel = ops::running_example(8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let sched = Schedule::identity(&kernel);
        let v: Vec<_> = deps.validity().collect();
        // Dim 0 (scalar order) is not coincident: X→Y distance is 1.
        assert!(!dim_is_coincident(v.iter().copied(), &sched, 0));
        // Dim 1 ("i" for both) is coincident: every remaining dependent
        // pair shares i.
        assert!(dim_is_coincident(v.iter().copied(), &sched, 1));
    }
}
