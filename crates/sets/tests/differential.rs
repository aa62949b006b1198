//! Differential tests pinning the rewritten solver hot paths to their
//! retained reference implementations, on deterministic PRNG-driven
//! random instances (SplitMix64; the build is fully offline, so no
//! `proptest`):
//!
//! * [`minimize`] (integer fraction-free tableau) vs
//!   [`minimize_reference`] (rational dense tableau) — **exact** outcome
//!   equality including the tie-broken optimum point, across feasible,
//!   infeasible, unbounded and free-variable (split-mode) instances;
//! * [`minimize_integer`] (dual warm-started branch-and-bound) vs
//!   [`minimize_integer_reference`] (cold clone-per-node search);
//! * [`eliminate_var`] (integer row combinations) vs
//!   [`eliminate_var_reference`] (rational combinations) — syntactic
//!   constraint-set equality;
//! * [`is_integer_feasible`] (preprocessed) vs
//!   [`is_integer_feasible_reference`] (raw branch-and-bound), on random
//!   boxes and on dependence-shaped sets that take each of the
//!   preprocessing's four ways (infeasible, feasible, reduced, unchanged).

use polyject_arith::{Rat, SplitMix64};
use polyject_sets::{
    eliminate_var, eliminate_var_reference, integer_feasibility_route, is_integer_feasible,
    is_integer_feasible_reference, lexmin_integer, minimize, minimize_integer,
    minimize_integer_reference, minimize_reference, Budget, BudgetError, Constraint, ConstraintSet,
    LinExpr, SchedCtx,
};

/// A random bounded set: a box `[0, hi]` per variable plus random
/// half-spaces and occasionally an equality. May be integer-infeasible.
fn arb_bounded_set(g: &mut SplitMix64, n: usize) -> ConstraintSet {
    let mut s = ConstraintSet::universe(n);
    for v in 0..n {
        let hi = g.range_i128(1, 7);
        let mut lo = vec![0i128; n];
        lo[v] = 1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&lo, 0)));
        let mut up = vec![0i128; n];
        up[v] = -1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&up, hi)));
    }
    for _ in 0..g.below(4) {
        let coeffs = g.vec_i128(n, -4, 5);
        let k = g.range_i128(-8, 9);
        if g.below(5) == 0 {
            s.add(Constraint::eq0(LinExpr::from_coeffs(&coeffs, k)));
        } else {
            s.add(Constraint::ge0(LinExpr::from_coeffs(&coeffs, k)));
        }
    }
    s
}

/// A fully random set: no guaranteed box, so variables may be free
/// (exercising the simplex split mode) and objectives may be unbounded;
/// contradictions arise naturally.
fn arb_general_set(g: &mut SplitMix64, n: usize) -> ConstraintSet {
    let mut s = ConstraintSet::universe(n);
    for _ in 0..g.below(6) + 1 {
        let coeffs = g.vec_i128(n, -4, 5);
        let k = g.range_i128(-8, 9);
        if g.below(6) == 0 {
            s.add(Constraint::eq0(LinExpr::from_coeffs(&coeffs, k)));
        } else {
            s.add(Constraint::ge0(LinExpr::from_coeffs(&coeffs, k)));
        }
    }
    s
}

/// A dependence-shaped set: source iterators `s` (1–3) then target
/// iterators `t` (1–3), each in a box; access equalities `s_i = t_j + c`
/// (one in five strided, `2 s_i = t_j + c`); sometimes a strict order
/// row `t_k >= s_k + 1` and a non-unit equality.
///
/// One set in five instead takes the access `t_0 = 2^64 s_0`, an extra
/// variable `u` and the row `2^64 t_0 + u >= 0`: substituting `t_0` into
/// it needs the coefficient `2^128`, so preprocessing hands the set over
/// unchanged. The tableau never pivots on `t_0` or `u` — every box is
/// `[0, hi]` with `hi >= 1` (no sign split, no tie with a zero bound), and
/// no other row mentions `t_0` or `u` — so both solvers decide it without
/// overflow.
fn arb_dependence_set(g: &mut SplitMix64) -> ConstraintSet {
    let (d1, d2) = (1 + g.below(3), 1 + g.below(3));
    let overflow = g.below(5) == 0;
    let n = d1 + d2 + usize::from(overflow);
    let row = |terms: &[(usize, i128)], k: i128| {
        let mut coeffs = vec![0i128; n];
        for &(v, a) in terms {
            coeffs[v] += a;
        }
        LinExpr::from_coeffs(&coeffs, k)
    };
    let mut s = ConstraintSet::universe(n);
    for v in 0..n {
        let (lo, width) = match overflow {
            true => (0, g.range_i128(1, 6)),
            false => (g.range_i128(0, 3), g.range_i128(0, 6)),
        };
        s.add(Constraint::ge0(row(&[(v, 1)], -lo)));
        s.add(Constraint::ge0(row(&[(v, -1)], lo + width)));
    }
    if overflow {
        // Both rows are built from coprime entries: normalization keeps them.
        s.add(Constraint::eq0(row(&[(0, 1 << 64), (d1, -1)], 0)));
        s.add(Constraint::ge0(row(&[(d1, 1 << 64), (n - 1, 1)], 0)));
    }
    for i in usize::from(overflow)..d1.min(d2) {
        let j = d1 + g.below(d2);
        if g.below(4) != 0 && !(overflow && j == d1) {
            let scale = if g.below(5) == 0 { 2 } else { 1 };
            s.add(Constraint::eq0(row(
                &[(i, scale), (j, -1)],
                g.range_i128(-1, 2),
            )));
        }
    }
    if overflow {
        return s;
    }
    if g.below(2) == 0 {
        let k = g.below(d1.min(d2));
        s.add(Constraint::ge0(row(&[(d1 + k, 1), (k, -1)], -1)));
    }
    let (a, b) = (g.below(d1), d1 + g.below(d2));
    match g.below(4) {
        0 => s.add(Constraint::eq0(row(&[(a, 2), (b, 2)], g.range_i128(-8, 0)))),
        1 => s.add(Constraint::eq0(row(
            &[(a, 2), (b, -3)],
            g.range_i128(-2, 3),
        ))),
        _ => {}
    }
    s
}

/// A random objective, sometimes with rational coefficients (exercising
/// the tableau's objective denominator scaling).
fn arb_objective(g: &mut SplitMix64, n: usize) -> LinExpr {
    if g.below(4) == 0 {
        let coeffs: Vec<Rat> = (0..n)
            .map(|_| Rat::new(g.range_i128(-5, 6), g.range_i128(1, 4)))
            .collect();
        let mut e = LinExpr::constant(n, Rat::new(g.range_i128(-3, 4), g.range_i128(1, 3)));
        for (v, c) in coeffs.into_iter().enumerate() {
            e.set_coeff(v, c);
        }
        e
    } else {
        LinExpr::from_coeffs(&g.vec_i128(n, -4, 5), g.range_i128(-3, 4))
    }
}

/// The integer tableau must reproduce the rational simplex **exactly**:
/// same outcome variant, same optimal value, and the same tie-broken
/// vertex, on bounded boxes.
#[test]
fn lp_integer_tableau_matches_rational_reference_bounded() {
    let mut g = SplitMix64::new(0x5E75_1001);
    for _ in 0..256 {
        let n = 1 + g.below(4);
        let set = arb_bounded_set(&mut g, n);
        let obj = arb_objective(&mut g, n);
        let fast = minimize(&obj, &set);
        let refr = minimize_reference(&obj, &set);
        assert_eq!(fast, refr, "set {set:?} obj {obj:?}");
    }
}

/// Same agreement on unconstrained-variable instances, where the solver
/// splits each free variable into a difference of nonnegative ones, and
/// on naturally infeasible and unbounded instances.
#[test]
fn lp_integer_tableau_matches_rational_reference_general() {
    let mut g = SplitMix64::new(0x5E75_1002);
    let mut seen_infeasible = 0u32;
    let mut seen_unbounded = 0u32;
    for _ in 0..256 {
        let n = 1 + g.below(4);
        let set = arb_general_set(&mut g, n);
        let obj = arb_objective(&mut g, n);
        let fast = minimize(&obj, &set);
        let refr = minimize_reference(&obj, &set);
        assert_eq!(fast, refr, "set {set:?} obj {obj:?}");
        match fast {
            polyject_sets::LpOutcome::Infeasible => seen_infeasible += 1,
            polyject_sets::LpOutcome::Unbounded => seen_unbounded += 1,
            _ => {}
        }
    }
    assert!(
        seen_infeasible > 0 && seen_unbounded > 0,
        "generator must exercise infeasible ({seen_infeasible}) and unbounded ({seen_unbounded}) paths"
    );
}

/// The warm-started branch-and-bound must agree with the cold
/// clone-per-node reference — same outcome, value, and optimum point.
/// Instances are biased toward fractional LP relaxations (odd constants
/// against even coefficients) so the search actually branches and the
/// dual-simplex repair path runs — the Table II goldens reach a child
/// node only twice per table. Children must really be served from their
/// parent's extended tableau, at both cell widths, and the decision
/// counters summed over the instances must equal the sums recorded on
/// the commit before children moved onto the shared `extend` verb.
#[test]
fn ilp_warm_start_agrees_with_cold_reference() {
    let mut g = SplitMix64::new(0x5E75_1003);
    let (mut fast_sum, mut wide_sum) = ([0u64; 6], [0u64; 6]);
    for _ in 0..192 {
        let n = 2 + g.below(2);
        let mut set = arb_bounded_set(&mut g, n);
        // A plane like 2x + 2y >= 5 forces a fractional vertex.
        let coeffs: Vec<i128> = (0..n).map(|_| 2 * g.range_i128(0, 3)).collect();
        if coeffs.iter().any(|&c| c != 0) {
            let k = -(2 * g.range_i128(0, 6) + 1);
            set.add(Constraint::ge0(LinExpr::from_coeffs(&coeffs, k)));
        }
        let obj = LinExpr::from_coeffs(&g.vec_i128(n, -4, 5), 0);
        let (fast, wide, df, dw) = both_widths(|| minimize_integer(&obj, &set));
        let refr = minimize_integer_reference(&obj, &set);
        assert_eq!(fast, refr, "set {set:?} obj {obj:?}");
        assert_eq!(wide, refr, "set {set:?} obj {obj:?}");
        for (sum, d) in [(&mut fast_sum, df), (&mut wide_sum, dw)] {
            for (s, v) in sum.iter_mut().zip(decisions(&d)) {
                *s += v;
            }
        }
    }
    // lp_solves, phase-1, phase-2, repair pivots, nodes, warm nodes.
    const RECORDED: [u64; 6] = [233, 493, 132, 180, 430, 197];
    for sum in [fast_sum, wide_sum] {
        assert!(sum[3] > 0, "no child repaired its parent's basis: {sum:?}");
        assert!(sum[5] > 0, "no child was served warm: {sum:?}");
        assert_eq!(sum, RECORDED);
    }
}

/// Fourier–Motzkin with integer row combinations must produce
/// syntactically identical constraint sets to the rational path — both
/// the equality-substitution and the pairwise inequality branch.
#[test]
fn fm_integer_combinations_match_rational_reference() {
    let mut g = SplitMix64::new(0x5E75_1004);
    for _ in 0..256 {
        let n = 2 + g.below(3);
        let set = if g.below(2) == 0 {
            arb_bounded_set(&mut g, n)
        } else {
            arb_general_set(&mut g, n)
        };
        let var = g.below(n);
        let fast = eliminate_var(&set, var);
        let refr = eliminate_var_reference(&set, var);
        assert_eq!(fast, refr, "set {set:?} var {var}");
    }
    // Substituting through `2^64·x0 + x1 == 0` (a = 2^64): for both
    // inequalities b = ±2^64, so the unreduced `a·c − b·eq` multiplies
    // two entries of magnitude 2^64 and overflows `i128`, while the
    // gcd-reduced `(a/g)·c − (b/g)·eq` is `c ∓ eq`.
    let big = 1i128 << 64;
    let set = ConstraintSet::from_constraints(
        3,
        vec![
            Constraint::eq0(LinExpr::from_coeffs(&[big, 1, 0], 0)),
            Constraint::ge0(LinExpr::from_coeffs(&[big, big + 1, 0], -1)),
            Constraint::ge0(LinExpr::from_coeffs(&[-big, 0, 1], 3)),
        ],
    );
    let fast = eliminate_var(&set, 0);
    assert_eq!(fast, eliminate_var_reference(&set, 0));
    let rows: Vec<_> = fast
        .constraints()
        .iter()
        .map(|c| (c.coeffs(), c.constant()))
        .collect();
    assert_eq!(rows, [(&[0, big, 0][..], -1), (&[0, 1, 1][..], 3)]);
}

/// Preprocessed integer-feasibility must answer exactly like the raw
/// branch-and-bound reference, including lattice-gap infeasibilities
/// that preprocessing short-circuits without any LP solve. Instances
/// stay bounded: on unbounded lattice-gap strips the *reference* search
/// visits thousands of nodes before its node limit trips (that blowup
/// is exactly what preprocessing exists to avoid), which would make the
/// differential itself intractable.
#[test]
fn integer_feasibility_preprocessing_agrees_with_reference() {
    let mut g = SplitMix64::new(0x5E75_1005);
    for _ in 0..128 {
        let n = 1 + g.below(3);
        let mut set = arb_bounded_set(&mut g, n);
        // Sprinkle in lattice-gap rows: g*x == odd, or a/g-tightenable
        // inequality.
        match g.below(4) {
            0 => {
                let mut coeffs = vec![0i128; n];
                coeffs[g.below(n)] = 2 * g.range_i128(1, 4);
                let k = 2 * g.range_i128(-3, 4) + 1;
                set.add(Constraint::eq0(LinExpr::from_coeffs(&coeffs, k)));
            }
            1 => {
                let coeffs: Vec<i128> = (0..n).map(|_| 3 * g.range_i128(-2, 3)).collect();
                set.add(Constraint::ge0(LinExpr::from_coeffs(
                    &coeffs,
                    g.range_i128(-9, 10),
                )));
            }
            _ => {}
        }
        assert_eq!(
            is_integer_feasible(&set),
            is_integer_feasible_reference(&set),
            "set {set:?}"
        );
    }
    // Dependence-shaped sets, the bulk of the queries a compile asks;
    // every way the preprocessing can go must be taken often.
    let mut routes = std::collections::BTreeMap::new();
    for _ in 0..400 {
        let set = arb_dependence_set(&mut g);
        *routes.entry(integer_feasibility_route(&set)).or_insert(0) += 1;
        assert_eq!(
            is_integer_feasible(&set),
            is_integer_feasible_reference(&set),
            "set {set:?}"
        );
    }
    for route in ["infeasible", "feasible", "reduced", "unchanged"] {
        let taken = routes.get(route).copied().unwrap_or(0);
        assert!(taken > 20, "route {route} taken {taken} times: {routes:?}");
    }
}

/// Hand-picked regressions: the exact shapes the random generators can
/// miss — rational-gap boxes, pinned equalities, and free-variable LPs
/// with non-integer optima.
#[test]
fn differential_corner_cases() {
    // 1/3 <= x <= 2/3: rationally feasible, integrally empty.
    let gap = ConstraintSet::from_constraints(
        1,
        vec![
            Constraint::ge0(LinExpr::from_coeffs(&[3], -1)),
            Constraint::ge0(LinExpr::from_coeffs(&[-3], 2)),
        ],
    );
    assert_eq!(
        is_integer_feasible(&gap),
        is_integer_feasible_reference(&gap)
    );
    assert!(!is_integer_feasible(&gap));

    // Free variable, fractional optimum: min x s.t. 2x >= 1 (x free).
    let free =
        ConstraintSet::from_constraints(1, vec![Constraint::ge0(LinExpr::from_coeffs(&[2], -1))]);
    let obj = LinExpr::var(1, 0);
    assert_eq!(minimize(&obj, &free), minimize_reference(&obj, &free));

    // Unbounded below through a free variable.
    let unb =
        ConstraintSet::from_constraints(2, vec![Constraint::ge0(LinExpr::from_coeffs(&[1, 1], 0))]);
    let obj = LinExpr::from_coeffs(&[1, -1], 0);
    assert_eq!(minimize(&obj, &unb), minimize_reference(&obj, &unb));

    // Equality-pinned ILP solved entirely by substitution.
    let pinned = ConstraintSet::from_constraints(
        2,
        vec![
            Constraint::eq0(LinExpr::from_coeffs(&[3, 0], -12)),
            Constraint::ge0(LinExpr::from_coeffs(&[0, 1], 0)),
            Constraint::ge0(LinExpr::from_coeffs(&[0, -1], 5)),
        ],
    );
    let obj = LinExpr::from_coeffs(&[1, 1], 0);
    assert_eq!(
        minimize_integer(&obj, &pinned),
        minimize_integer_reference(&obj, &pinned)
    );
}

// ---------------------------------------------------------------------
// Persistent scheduling contexts ([`SchedCtx`]) vs the cold lexmin path.
// ---------------------------------------------------------------------

/// Random delta rows of the kind a scheduler pushes on top of a shared
/// base: mostly half-spaces, occasionally an equality, and often tight
/// enough to empty the set.
fn arb_delta(g: &mut SplitMix64, n: usize) -> Vec<Constraint> {
    let mut delta = Vec::new();
    for _ in 0..g.below(3) + 1 {
        let coeffs = g.vec_i128(n, -4, 5);
        let k = g.range_i128(-8, 9);
        if g.below(5) == 0 {
            delta.push(Constraint::eq0(LinExpr::from_coeffs(&coeffs, k)));
        } else {
            delta.push(Constraint::ge0(LinExpr::from_coeffs(&coeffs, k)));
        }
    }
    delta
}

/// A bounded box with shifted lower bounds (`lo <= x <= hi`, `lo` often
/// nonzero): integer-feasible but without `x >= 0` sign rows, so the
/// tableau needs the p−q split and a [`SchedCtx`] must refuse the warm
/// base and delegate every solve cold.
fn arb_shifted_box_set(g: &mut SplitMix64, n: usize) -> ConstraintSet {
    let mut s = ConstraintSet::universe(n);
    for v in 0..n {
        let lo = g.range_i128(-3, 2);
        let hi = lo + g.range_i128(1, 6);
        let mut l = vec![0i128; n];
        l[v] = 1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&l, -lo)));
        let mut u = vec![0i128; n];
        u[v] = -1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&u, hi)));
    }
    for _ in 0..g.below(3) {
        s.add(Constraint::ge0(LinExpr::from_coeffs(
            &g.vec_i128(n, -3, 4),
            g.range_i128(-6, 7),
        )));
    }
    s
}

/// A [`SchedCtx`] must reproduce the cold lexmin solver **exactly** —
/// outcome variant, per-objective optimal values, and the tie-broken
/// optimum point — across repeated push/lexmin/pop rounds against the
/// same prepared base, on both warm-eligible (sign-rowed) bases and
/// split-mode bases where the context delegates cold.
#[test]
fn sched_ctx_lexmin_matches_cold_solver() {
    let mut g = SplitMix64::new(0x5E75_2001);
    for case in 0..96u32 {
        let n = 1 + g.below(4);
        let base = if g.below(4) == 0 {
            arb_shifted_box_set(&mut g, n)
        } else {
            arb_bounded_set(&mut g, n)
        };
        let mut ctx = SchedCtx::build(base.clone(), &Budget::unlimited()).expect("not cancelled");
        // Several rounds against the same prepared base: each pushes a
        // fresh delta, solves a lexicographic chain, and pops.
        for round in 0..3u32 {
            let mark = ctx.mark();
            let mut cold = base.clone();
            for c in arb_delta(&mut g, n) {
                ctx.push(c.clone());
                cold.add(c);
            }
            // Up to 3 objectives: chains of length >= 2 exercise the
            // relaxed intermediate-objective serving (any optimal vertex)
            // in front of the uniqueness-gated final objective.
            let objs: Vec<LinExpr> = (0..g.below(4)).map(|_| arb_objective(&mut g, n)).collect();
            let warm = ctx
                .try_lexmin(&objs, &Budget::unlimited())
                .expect("unlimited");
            let cold_out = lexmin_integer(&objs, &cold);
            assert_eq!(warm, cold_out, "case {case} round {round} base {base:?}");
            // Lexmin must leave the pushed rows exactly as they were
            // (objective pins are unwound), and pop must restore the base.
            assert_eq!(ctx.rows().len(), cold.len(), "case {case} round {round}");
            ctx.pop(mark);
            assert_eq!(ctx.rows().len(), base.len(), "case {case} round {round}");
        }
    }
}

/// Budget exhaustion mid-solve must leave the context fully reusable:
/// the same call under an unlimited budget afterwards — and after a pop
/// back to the base — still matches the cold solver exactly. Also covers
/// a context *built* under an exhausted budget (cold delegation).
#[test]
fn sched_ctx_survives_budget_exhaustion() {
    let mut g = SplitMix64::new(0x5E75_2002);
    let mut exhausted_seen = 0u32;
    for case in 0..48u32 {
        let n = 2 + g.below(3);
        let base = arb_bounded_set(&mut g, n);
        // Every fourth context is built under an already-exhausted pivot
        // budget: the build must degrade to cold delegation, not fail.
        let build_budget = if case % 4 == 0 {
            Budget::unlimited().with_max_pivots(0)
        } else {
            Budget::unlimited()
        };
        let mut ctx = SchedCtx::build(base.clone(), &build_budget).expect("not cancelled");
        let mark = ctx.mark();
        let mut cold = base.clone();
        for c in arb_delta(&mut g, n) {
            ctx.push(c.clone());
            cold.add(c);
        }
        let objs = vec![arb_objective(&mut g, n), arb_objective(&mut g, n)];
        let tight = Budget::unlimited().with_max_pivots(1);
        match ctx.try_lexmin(&objs, &tight) {
            Err(BudgetError::Exhausted(_)) => exhausted_seen += 1,
            Ok(_) => {}
            Err(e) => panic!("case {case}: unexpected {e}"),
        }
        // The tight run must not have corrupted the pushed rows or the
        // prepared base: re-solving unlimited matches cold.
        let warm = ctx
            .try_lexmin(&objs, &Budget::unlimited())
            .expect("unlimited");
        let cold_out = lexmin_integer(&objs, &cold);
        assert_eq!(warm, cold_out, "case {case} base {base:?}");
        // Popping after an exhausted solve restores the bare base.
        ctx.pop(mark);
        let warm_base = ctx
            .try_lexmin(&objs, &Budget::unlimited())
            .expect("unlimited");
        let cold_base = lexmin_integer(&objs, &base);
        assert_eq!(warm_base, cold_base, "case {case} base {base:?}");
    }
    assert!(
        exhausted_seen > 0,
        "tight budgets must actually trip ({exhausted_seen})"
    );
}

// ---------------------------------------------------------------------
// Machine-int (i64) tableau fast path vs forced 128-bit arithmetic.
// ---------------------------------------------------------------------

use polyject_sets::{counters, set_force_wide_tableau, SolverCounters};

/// The solver's *decision* counters: everything that reflects which
/// pivots/branches were taken. The escalation contract demands these be
/// bit-identical between the i64 fast path (including rewind-and-retry
/// escalations) and forced 128-bit arithmetic; only `tab_i64_solves` /
/// `tab_overflow_escalations` — bookkeeping of *which width ran* — may
/// differ.
fn decisions(d: &SolverCounters) -> [u64; 6] {
    [
        d.lp_solves,
        d.lp_phase1_pivots,
        d.lp_phase2_pivots,
        d.bb_repair_pivots,
        d.ilp_nodes,
        d.bb_warm_nodes,
    ]
}

/// Runs `solve` twice — fast path, then with the i64 tableau disabled via
/// [`set_force_wide_tableau`] — and returns both results plus the two
/// counter deltas, asserting the width bookkeeping is sane.
fn both_widths<T>(solve: impl Fn() -> T) -> (T, T, SolverCounters, SolverCounters) {
    let b0 = counters::snapshot();
    let fast = solve();
    let mid = counters::snapshot();
    let prev = set_force_wide_tableau(true);
    let wide = solve();
    set_force_wide_tableau(prev);
    let dfast = mid.delta_since(&b0);
    let dwide = counters::snapshot().delta_since(&mid);
    assert_eq!(
        dwide.tab_i64_solves, 0,
        "forced-wide runs must never take the machine-int path"
    );
    assert_eq!(dwide.tab_overflow_escalations, 0);
    (fast, wide, dfast, dwide)
}

/// A *small* box `[0, 6]` per variable — so searches stay shallow — cut
/// by rows whose coefficients sit just off multiples of 2^31. Every row
/// still fits i64 (the machine-int tableau is built), and the unit-scale
/// perturbations leave the rows with content GCD 1, so normalization
/// cannot shrink them back; pivot cross-products then reach ~2^66 and
/// must escalate to 128-bit mid-solve.
fn arb_wide_set(g: &mut SplitMix64, n: usize) -> ConstraintSet {
    const S: i128 = 1 << 31;
    let mut s = ConstraintSet::universe(n);
    for v in 0..n {
        let hi = g.range_i128(1, 7);
        let mut lo = vec![0i128; n];
        lo[v] = 1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&lo, 0)));
        let mut up = vec![0i128; n];
        up[v] = -1;
        s.add(Constraint::ge0(LinExpr::from_coeffs(&up, hi)));
    }
    // Exactly one wide row: minors mixing *two* wide rows would push the
    // escalated 128-bit tableau past i128 as well, landing in the
    // rational fallback whose arithmetic this suite is not about.
    let coeffs: Vec<i128> = (0..n)
        .map(|_| g.range_i128(-4, 5) * S + g.range_i128(-3, 4))
        .collect();
    let k = g.range_i128(-2, 7) * S + g.range_i128(-8, 9);
    s.add(Constraint::ge0(LinExpr::from_coeffs(&coeffs, k)));
    s
}

/// On small coefficients the i64 fast path must (a) actually run, (b)
/// never escalate, and (c) reproduce the forced-wide solve exactly —
/// outcome, tie-broken vertex, and every decision counter.
#[test]
fn i64_fast_path_is_decision_identical_small_scale() {
    let mut g = SplitMix64::new(0x5E75_4001);
    let mut i64_solves = 0u64;
    for case in 0..192u32 {
        let n = 1 + g.below(4);
        let set = if g.below(3) == 0 {
            arb_general_set(&mut g, n)
        } else {
            arb_bounded_set(&mut g, n)
        };
        let obj = arb_objective(&mut g, n);
        let (fast, wide, df, dw) = both_widths(|| minimize(&obj, &set));
        assert_eq!(fast, wide, "case {case} set {set:?} obj {obj:?}");
        assert_eq!(
            decisions(&df),
            decisions(&dw),
            "case {case} set {set:?} obj {obj:?}"
        );
        assert_eq!(
            df.tab_overflow_escalations, 0,
            "small coefficients must stay machine-int: case {case}"
        );
        i64_solves += df.tab_i64_solves;
    }
    assert!(i64_solves > 0, "the fast path must actually engage");
}

/// Straddling the overflow boundary: rows fit i64, pivot products do
/// not. The mid-solve escalation must rewind to the pristine state and
/// redo on i128 — same outcome, same vertex, same decision counters as
/// running wide from the start.
#[test]
fn i64_escalation_is_decision_identical_at_overflow_boundary() {
    let mut g = SplitMix64::new(0x5E75_4002);
    let mut escalations = 0u64;
    for case in 0..128u32 {
        let n = 1 + g.below(4);
        let set = arb_wide_set(&mut g, n);
        let obj = arb_objective(&mut g, n);
        let (fast, wide, df, dw) = both_widths(|| minimize(&obj, &set));
        assert_eq!(fast, wide, "case {case} set {set:?} obj {obj:?}");
        assert_eq!(
            decisions(&df),
            decisions(&dw),
            "case {case} set {set:?} obj {obj:?}"
        );
        escalations += df.tab_overflow_escalations;
    }
    assert!(
        escalations > 0,
        "the suite must actually cross the i64 boundary (got {escalations})"
    );
}

/// The branch-and-bound search (dual warm-started repair included) under
/// both widths, on wide-scale instances biased toward fractional LP
/// relaxations so the tree actually branches.
#[test]
fn ilp_escalation_is_decision_identical() {
    let mut g = SplitMix64::new(0x5E75_4003);
    let mut escalations = 0u64;
    for case in 0..48u32 {
        let n = 2 + g.below(2);
        let mut set = arb_wide_set(&mut g, n);
        // A small-scale plane like 2x + 2y >= 5 forces a fractional
        // vertex so the search branches; the wide rows above force the
        // escalations.
        let coeffs: Vec<i128> = (0..n).map(|_| 2 * g.range_i128(0, 3)).collect();
        if coeffs.iter().any(|&c| c != 0) {
            let k = -(2 * g.range_i128(0, 6) + 1);
            set.add(Constraint::ge0(LinExpr::from_coeffs(&coeffs, k)));
        }
        let obj = LinExpr::from_coeffs(&g.vec_i128(n, -4, 5), 0);
        let (fast, wide, df, dw) = both_widths(|| minimize_integer(&obj, &set));
        assert_eq!(fast, wide, "case {case} set {set:?} obj {obj:?}");
        assert_eq!(
            decisions(&df),
            decisions(&dw),
            "case {case} set {set:?} obj {obj:?}"
        );
        escalations += df.tab_overflow_escalations;
    }
    assert!(
        escalations > 0,
        "ILP suite must escalate (got {escalations})"
    );
}

/// Persistent contexts under both widths: the prepared base, per-round
/// delta pushes, and lexmin chains must make identical decisions whether
/// the base tableau is machine-int (escalating on demand — including
/// in-place promotion of the shared base) or 128-bit from the start.
#[test]
fn sched_ctx_fast_path_is_decision_identical() {
    let mut g = SplitMix64::new(0x5E75_4004);
    for case in 0..48u32 {
        let n = 1 + g.below(3);
        let base = if g.below(2) == 0 {
            arb_wide_set(&mut g, n)
        } else {
            arb_bounded_set(&mut g, n)
        };
        let delta = arb_delta(&mut g, n);
        let objs: Vec<LinExpr> = (0..g.below(3) + 1)
            .map(|_| arb_objective(&mut g, n))
            .collect();
        let run = || {
            let mut ctx = SchedCtx::build(base.clone(), &Budget::unlimited()).expect("no cancel");
            let mark = ctx.mark();
            for c in &delta {
                ctx.push(c.clone());
            }
            let out = ctx
                .try_lexmin(&objs, &Budget::unlimited())
                .expect("unlimited");
            ctx.pop(mark);
            out
        };
        let (fast, wide, df, dw) = both_widths(run);
        assert_eq!(fast, wide, "case {case} base {base:?} objs {objs:?}");
        assert_eq!(
            decisions(&df),
            decisions(&dw),
            "case {case} base {base:?} objs {objs:?}"
        );
    }
}

/// Pricing a dense row must not cost more width than the row it stores.
/// Eight variables sit basic on rows `P·x_v − s_v = 1` with `P ≈ 2²⁰`;
/// a dense delta row (and each dense lexmin pin after it) prices out
/// against all eight, multiplying through `P` once per basic column. The
/// un-reduced running row reaches `P⁸ ≈ 2¹⁶⁰` — past `i128`, where the
/// chain used to die silently — while its content-reduced form never
/// leaves `O(P²)`: the warm extension stays on `i64` rows, every root is
/// served warm, and outcome, value, point and decisions equal both the
/// forced-wide run and the cold reference.
#[test]
fn dense_row_pricing_stays_content_reduced() {
    const P: i128 = 1_000_003;
    let n = 8usize;
    let unit = |v: usize, c: i128, k: i128| {
        let mut e = LinExpr::zero(n);
        e.set_coeff(v, c);
        e.set_constant(k);
        Constraint::ge0(e)
    };
    let mut base = ConstraintSet::universe(n);
    for v in 0..n {
        base.add(unit(v, 1, 0)); // x_v >= 0
        base.add(unit(v, P, -1)); // P·x_v >= 1
        base.add(unit(v, -1, 10)); // x_v <= 10
    }
    let dense: Vec<i128> = (0..n as i128).map(|v| v + 2).collect();
    let delta = Constraint::ge0(LinExpr::from_coeffs(&dense, -3));
    // Dense objectives, so every pin row is dense as well; the last one's
    // distinct weights make its optimum vertex unique.
    let objs = vec![
        LinExpr::from_coeffs(&vec![1; n], 0),
        LinExpr::from_coeffs(&dense, 0),
        LinExpr::from_coeffs(&(0..n as i128).map(|v| 1 << v).collect::<Vec<_>>(), 0),
    ];
    let run = || {
        let mut ctx = SchedCtx::build(base.clone(), &Budget::unlimited()).expect("no cancel");
        ctx.push(delta.clone());
        ctx.try_lexmin(&objs, &Budget::unlimited())
            .expect("unlimited")
    };
    let (fast, wide, df, dw) = both_widths(run);
    assert_eq!(fast, wide);
    assert_eq!(decisions(&df), decisions(&dw));
    assert_eq!(df.tab_overflow_escalations, 0, "{df:?}");
    assert!(df.tab_i64_solves > 0, "{df:?}");
    assert_eq!(df.lexmin_cold_roots, 0, "{df:?}");
    assert_eq!(dw.lexmin_cold_roots, 0, "{dw:?}");
    let mut cold = base.clone();
    cold.add(delta.clone());
    let reference = lexmin_integer(&objs, &cold);
    assert_eq!(fast, reference);
}
