//! Property-based tests of the exact set library: simplex optimality
//! against brute force, Fourier–Motzkin projection soundness and
//! completeness on sampled points, ILP vs enumeration, inclusion
//! coherence, and agreement of the push/pop branch-and-bound with the
//! historical clone-per-node implementation.
//!
//! Inputs are sampled with a deterministic generator (the build is fully
//! offline, so no `proptest`); every case is reproducible from the fixed
//! seeds below.

use polyject_arith::{Rat, SplitMix64};
use polyject_sets::{
    eliminate_var, integer_points, lexmin_integer, minimize, minimize_integer,
    minimize_integer_reference, Constraint, ConstraintSet, IlpOutcome, LinExpr, LpOutcome,
};

/// A random bounded constraint set over `n` variables: a box [0, hi] per
/// variable plus a few random half-spaces through it.
fn arb_bounded_set(g: &mut SplitMix64, n: usize) -> ConstraintSet {
    let mut s = ConstraintSet::universe(n);
    for v in 0..n {
        let hi = g.range_i128(1, 6);
        let mut lo = vec![0i128; n];
        lo[v] = 1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&lo, 0)));
        let mut up = vec![0i128; n];
        up[v] = -1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&up, hi)));
    }
    for _ in 0..g.below(3) {
        let coeffs = g.vec_i128(n, -3, 4);
        let k = g.range_i128(-6, 7);
        s.add(Constraint::ge0(LinExpr::from_coeffs(&coeffs, k)));
    }
    s
}

#[test]
fn ilp_matches_enumeration() {
    let mut g = SplitMix64::new(0x5E75_0001);
    for _ in 0..64 {
        let set = arb_bounded_set(&mut g, 3);
        let obj = g.vec_i128(3, -3, 4);
        let objective = LinExpr::from_coeffs(&obj, 0);
        let points = integer_points(&set, 10_000).expect("bounded");
        let brute = points.iter().map(|p| objective.eval_int(p)).min();
        match (minimize_integer(&objective, &set), brute) {
            (IlpOutcome::Optimal { value, point }, Some(best)) => {
                assert_eq!(value, best);
                assert!(set.contains_int(&point));
            }
            (IlpOutcome::Infeasible, None) => {}
            (got, want) => panic!("ilp {:?} vs brute {:?}", got, want),
        }
    }
}

/// The push/pop rewrite of branch-and-bound must agree with the
/// historical clone-per-node implementation *exactly* — same outcome,
/// same optimal value, and the same optimum point (the search order is
/// preserved, so even tie-breaks must match).
#[test]
fn ilp_push_pop_agrees_with_clone_reference() {
    let mut g = SplitMix64::new(0x5E75_0002);
    for _ in 0..96 {
        let set = arb_bounded_set(&mut g, 3);
        let obj = g.vec_i128(3, -3, 4);
        let objective = LinExpr::from_coeffs(&obj, 0);
        let fast = minimize_integer(&objective, &set);
        let refr = minimize_integer_reference(&objective, &set);
        assert_eq!(fast, refr, "set {:?} obj {:?}", set, objective);
    }
}

/// The same agreement must hold through the lexicographic driver, which
/// additionally exercises the warm-started (objective-bounded) search.
#[test]
fn lexmin_agrees_with_clone_reference() {
    let mut g = SplitMix64::new(0x5E75_0003);
    for _ in 0..48 {
        let set = arb_bounded_set(&mut g, 3);
        let objs: Vec<LinExpr> = (0..2)
            .map(|_| LinExpr::from_coeffs(&g.vec_i128(3, -3, 4), 0))
            .collect();
        let fast = lexmin_integer(&objs, &set);
        // Reference: pin each objective with the clone-based solver.
        let mut cur = set.clone();
        let mut reference = IlpOutcome::Infeasible;
        let mut feasible = true;
        for obj in &objs {
            match minimize_integer_reference(obj, &cur) {
                IlpOutcome::Optimal { point, value } => {
                    let mut pin = obj.clone();
                    pin.set_constant(obj.constant_term() - value);
                    cur.add(Constraint::eq0(pin));
                    reference = IlpOutcome::Optimal { point, value };
                }
                other => {
                    reference = other;
                    feasible = false;
                    break;
                }
            }
        }
        if feasible {
            match (&fast, &reference) {
                (
                    IlpOutcome::Optimal {
                        value: vf,
                        point: pf,
                    },
                    IlpOutcome::Optimal { value: vr, .. },
                ) => {
                    assert_eq!(vf, vr);
                    assert!(cur.contains_int(pf), "lexmin point satisfies all pins");
                }
                (got, want) => panic!("lexmin {:?} vs reference {:?}", got, want),
            }
        } else {
            assert_eq!(fast, reference);
        }
    }
}

#[test]
fn lp_relaxation_bounds_ilp() {
    let mut g = SplitMix64::new(0x5E75_0004);
    for _ in 0..64 {
        let set = arb_bounded_set(&mut g, 3);
        let obj = g.vec_i128(3, -3, 4);
        let objective = LinExpr::from_coeffs(&obj, 0);
        if let (LpOutcome::Optimal { value: lp, .. }, IlpOutcome::Optimal { value: ilp, .. }) = (
            minimize(&objective, &set),
            minimize_integer(&objective, &set),
        ) {
            assert!(lp <= ilp, "LP {lp} must lower-bound ILP {ilp}");
        }
    }
}

#[test]
fn fm_projection_sound_and_complete() {
    let mut g = SplitMix64::new(0x5E75_0005);
    for _ in 0..64 {
        let set = arb_bounded_set(&mut g, 3);
        // Soundness: every point of the set satisfies the projection.
        // Completeness (on integer samples): every integer point of the
        // projection lifts to an integer point of the set in the
        // eliminated variable... rational completeness is what FM
        // guarantees, so check with rational witnesses via the LP.
        let proj = eliminate_var(&set, 2);
        for p in integer_points(&set, 2_000).expect("bounded") {
            assert!(proj.contains_int(&p), "projection must contain {:?}", p);
        }
        // Rational completeness: any integer point satisfying the
        // projection admits some rational x2 satisfying the set.
        for p in integer_points(&proj_fix(&proj), 2_000).expect("bounded") {
            let mut fixed = set.clone();
            let n = fixed.n_vars();
            for (v, &pv) in p.iter().enumerate().take(2) {
                let mut e = LinExpr::var(n, v);
                e.set_constant(Rat::int(-pv));
                fixed.add(Constraint::eq0(e));
            }
            assert!(
                !matches!(minimize(&LinExpr::zero(n), &fixed), LpOutcome::Infeasible),
                "point {:?} of the projection must lift",
                p
            );
        }
    }
}

#[test]
fn lexmin_is_minimal() {
    let mut g = SplitMix64::new(0x5E75_0006);
    for _ in 0..64 {
        let set = arb_bounded_set(&mut g, 3);
        let points = integer_points(&set, 10_000).expect("bounded");
        let brute = points.iter().min().cloned();
        let units: Vec<LinExpr> = (0..3).map(|v| LinExpr::var(3, v)).collect();
        let lexmin = match lexmin_integer(&units, &set) {
            IlpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        };
        assert_eq!(lexmin, brute);
    }
}

/// The projection keeps the eliminated variable unconstrained; fix it to 0
/// so enumeration stays bounded.
fn proj_fix(proj: &ConstraintSet) -> ConstraintSet {
    let mut s = proj.clone();
    let n = s.n_vars();
    s.add(Constraint::eq0(LinExpr::var(n, 2)));
    s
}
