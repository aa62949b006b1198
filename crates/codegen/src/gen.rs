//! Polyhedral AST generation: turns a kernel plus an affine schedule into
//! a loop-nest AST that scans every statement instance in schedule order.
//!
//! This is a simplified Quilleré-style generator specialized to the fused
//! AI/DL operator domain: schedules produced by the influenced scheduler
//! give every statement the same depth, scalar dimensions are literal
//! integer constants, and fused statements share loop bounds. Constant
//! rows are placed before/inside/after sibling loops by exact emptiness
//! and date-order checks, falling back to in-loop guards when placement
//! cannot be proven.

use crate::ast::{Ast, AstNode, Bound, LoopKind, LoopNode, StmtNode};
use polyject_arith::{Matrix, Rat};
use polyject_core::Schedule;
use polyject_ir::{Kernel, StmtId};
use polyject_sets::{
    bounds_for_var, eliminate_vars, is_integer_feasible, Constraint, ConstraintSet, LinExpr,
};

/// Generates the AST of a scheduled kernel.
///
/// Loop kinds are `Seq`/`Parallel` according to the schedule's dimension
/// flags; GPU mapping and vectorization are applied by later passes.
///
/// # Panics
///
/// Panics if the schedule is incomplete (a statement's iterator space is
/// not fully spanned) or if fused statements have bounds too dissimilar to
/// share a loop (not produced by the scheduler on this domain).
///
/// # Examples
///
/// ```
/// use polyject_codegen::generate_ast;
/// use polyject_core::Schedule;
/// use polyject_ir::ops;
///
/// let kernel = ops::running_example(8);
/// let sched = Schedule::identity(&kernel);
/// let ast = generate_ast(&kernel, &sched);
/// assert!(!ast.roots.is_empty());
/// ```
pub fn generate_ast(kernel: &Kernel, schedule: &Schedule) -> Ast {
    let n_params = kernel.n_params();
    let depth = schedule.depth();
    let gspace = depth + n_params; // global space: [t_0..t_{depth-1}, params]

    let stmts: Vec<GenStmt> = (0..kernel.statements().len())
        .map(|i| GenStmt::new(kernel, schedule, StmtId(i), depth))
        .collect();

    let gen = Generator {
        schedule,
        depth,
        gspace,
        n_params,
        param_defaults: kernel.param_defaults().to_vec(),
    };
    let roots = gen.generate(stmts, 0);
    Ast { roots, n_params }
}

/// Per-statement generation state.
#[derive(Clone)]
struct GenStmt {
    id: StmtId,
    /// Time polyhedron over the global space (constraints on the t-vars
    /// and params that this statement's instances occupy).
    time_poly: ConstraintSet,
    /// Iterator recovery: one expression per iterator over the global
    /// space.
    iter_exprs: Vec<LinExpr>,
    /// Accumulated guards (bounds not absorbed into loop bounds).
    guards: Vec<Constraint>,
    /// Whether the domain is known to have an instance at the kernel's
    /// default parameter values (see [`holds_lower_corner`]).
    inhabited: bool,
}

impl GenStmt {
    fn new(kernel: &Kernel, schedule: &Schedule, id: StmtId, depth: usize) -> GenStmt {
        let stmt = kernel.statement(id);
        let n_iters = stmt.n_iters();
        let n_params = kernel.n_params();
        let ss = schedule.stmt(id);
        assert_eq!(ss.depth(), depth, "uniform schedule depth expected");
        assert!(
            ss.iter_rank() >= n_iters,
            "incomplete schedule for {}",
            stmt.name()
        );

        // Space: [t (depth), iters (n_iters), params].
        let big = depth + n_iters + n_params;
        let mut set = stmt.domain().with_vars_inserted(0, depth);
        debug_assert_eq!(set.n_vars(), big);
        for (d, row) in ss.rows().iter().enumerate() {
            // t_d - φ_d(iters, params) == 0
            let mut e = LinExpr::var(big, d);
            for (it, &c) in row.iter_coeffs.iter().enumerate() {
                e.set_coeff(depth + it, -c);
            }
            for (p, &c) in row.param_coeffs.iter().enumerate() {
                e.set_coeff(depth + n_iters + p, -c);
            }
            e.set_constant(-row.constant);
            set.add(Constraint::eq0(e));
        }
        // Eliminate the iterators to get the time polyhedron.
        let iter_vars: Vec<usize> = (depth..depth + n_iters).collect();
        let eliminated = eliminate_vars(&set, &iter_vars);
        let mut time_poly = ConstraintSet::universe(depth + n_params);
        for c in eliminated.constraints() {
            debug_assert!(
                c.coeffs()[depth..depth + n_iters].iter().all(|&a| a == 0),
                "iterator survived elimination"
            );
            let old_of = |j: usize| if j < depth { j } else { j + n_iters };
            time_poly.add(c.remapped(depth + n_params, old_of));
        }

        GenStmt {
            id,
            time_poly,
            iter_exprs: recover_iterators(kernel, schedule, id, depth),
            guards: Vec::new(),
            inhabited: holds_lower_corner(stmt.domain(), n_iters, kernel.param_defaults()),
        }
    }

    /// The row of this statement's schedule at dimension `d`, as
    /// (is_constant, integer value if pure constant).
    fn row_const(&self, schedule: &Schedule, d: usize) -> Option<i128> {
        let row = &schedule.stmt(self.id).rows()[d];
        if row.is_constant_row() {
            Some(row.constant)
        } else {
            None
        }
    }
}

/// Inverts the schedule to express each iterator as an affine function of
/// `[t_0..t_{depth-1}, params...]`.
fn recover_iterators(
    kernel: &Kernel,
    schedule: &Schedule,
    id: StmtId,
    depth: usize,
) -> Vec<LinExpr> {
    let stmt = kernel.statement(id);
    let n_iters = stmt.n_iters();
    let n_params = kernel.n_params();
    let gspace = depth + n_params;
    if n_iters == 0 {
        return Vec::new();
    }
    let rows = schedule.stmt(id).rows();
    // Greedily select rows whose iterator parts are linearly independent.
    let mut selected: Vec<usize> = Vec::new();
    let mut m = Matrix::zero(0, 0);
    for (d, row) in rows.iter().enumerate() {
        if selected.len() == n_iters {
            break;
        }
        let mut cand = m.clone();
        cand.push_row(row.iter_coeffs.iter().map(|&c| Rat::int(c)).collect());
        if cand.rank() > m.rank() {
            m = cand;
            selected.push(d);
        }
    }
    assert_eq!(
        selected.len(),
        n_iters,
        "schedule not invertible for {}",
        stmt.name()
    );
    // Solve H·i = rhs_d for each selected dim: i = H⁻¹·rhs where
    // rhs_d = t_d - G_d·p - f_d.
    // Build H⁻¹ column by column via exact solves.
    let mut out = vec![LinExpr::zero(gspace); n_iters];
    for unit in 0..n_iters {
        // Column `unit` of H⁻¹: solve Hᵀ? We need x s.t. for each iterator
        // j: i_j = Σ_d inv[j][d]·rhs_d. inv = H⁻¹ where H[d][j] = coeff of
        // iterator j in selected row d. Solve H·e_col = unit vectors:
        // i = H⁻¹ rhs ⇒ row j of H⁻¹ = solution of Hᵀ x = e_j.
        let ht = m.transpose();
        let mut b = vec![Rat::ZERO; n_iters];
        b[unit] = Rat::ONE;
        let x = ht.solve(&b).expect("invertible selected rows");
        // x[d] multiplies rhs of selected[d] in the expression of i_unit.
        let mut e = LinExpr::zero(gspace);
        for (k, &d) in selected.iter().enumerate() {
            if x[k].is_zero() {
                continue;
            }
            let row = &rows[d];
            // rhs_d = t_d - Σ G·p - f
            let mut rhs = LinExpr::var(gspace, d);
            for (p, &c) in row.param_coeffs.iter().enumerate() {
                rhs.set_coeff(depth + p, -c);
            }
            rhs.set_constant(-row.constant);
            e = &e + &rhs.scaled(x[k]);
        }
        out[unit] = e;
    }
    out
}

/// Whether `domain` (over `[iters, params]`) contains its lower corner at
/// the parameter values `params`: each iterator at the largest lower bound
/// that an inequality on it alone states (0 without one). `true` proves
/// the domain has an instance there without a solve; `false` proves
/// nothing (the IR can build a statement that is empty at its defaults,
/// e.g. `for i in 5..3` or a zero-valued extent parameter).
fn holds_lower_corner(domain: &ConstraintSet, n_iters: usize, params: &[i64]) -> bool {
    let mut point: Vec<i128> = vec![0; n_iters];
    point.extend(params.iter().map(|&v| i128::from(v)));
    for it in 0..n_iters {
        // Iterators `it..` are still 0, so a constraint on `it` alone
        // evaluates to its parameter part.
        point[it] = domain
            .constraints()
            .iter()
            .filter(|c| {
                !c.is_equality()
                    && c.coeff(it) > 0
                    && (0..n_iters).all(|j| j == it || c.coeff(j) == 0)
            })
            .map(|c| Rat::new(-c.value_at(&point), c.coeff(it)).ceil())
            .max()
            .unwrap_or(0);
    }
    domain.contains_int(&point)
}

/// A statement at one level `d` of the generation, with the projection of
/// its time polyhedron onto `[t_0..t_d, params]` once clustering, a date
/// query or the loop bounds first ask for it. It lives for one level of
/// one [`generate_ast`] call: the cluster it lands in carries it to the
/// loop it becomes, and the next level starts from the statement.
struct LevelStmt {
    stmt: GenStmt,
    proj: Option<ConstraintSet>,
}

impl LevelStmt {
    /// The projection onto `[t_0..t_d, params]`, eliminating
    /// `t_{d+1}..t_{depth-1}` in that order.
    fn proj(&mut self, d: usize, depth: usize) -> &ConstraintSet {
        self.proj.get_or_insert_with(|| {
            let elim: Vec<usize> = (d + 1..depth).collect();
            eliminate_vars(&self.stmt.time_poly, &elim)
        })
    }
}

struct Generator<'a> {
    schedule: &'a Schedule,
    depth: usize,
    gspace: usize,
    n_params: usize,
    param_defaults: Vec<i64>,
}

impl Generator<'_> {
    fn generate(&self, stmts: Vec<GenStmt>, d: usize) -> Vec<AstNode> {
        if stmts.is_empty() {
            return Vec::new();
        }
        if d == self.depth {
            // All dimensions consumed: emit leaves in statement order
            // (dates are fully equal here; original order is the only
            // consistent choice and the scheduler guarantees it is safe).
            let mut leaves: Vec<&GenStmt> = stmts.iter().collect();
            leaves.sort_by_key(|s| s.id);
            return leaves.iter().map(|s| self.leaf(s)).collect();
        }

        // Statements whose time ranges at this dimension cannot overlap
        // are emitted as separate consecutive constructs, ordered by their
        // minimum date (Quilleré-style splitting, restricted to the whole-
        // range granularity this domain needs). A cluster is a connected
        // component of the overlap relation, so clustering it again would
        // return it unchanged: each is emitted as it stands.
        let level = stmts
            .into_iter()
            .map(|stmt| LevelStmt { stmt, proj: None })
            .collect();
        self.cluster_by_overlap(level, d)
            .into_iter()
            .flat_map(|c| self.generate_cluster(c, d))
            .collect()
    }

    /// Emits one cluster of [`Generator::cluster_by_overlap`] at dimension
    /// `d`: a run of scalar constructs, or one loop with the constant-row
    /// statements placed before, inside or after it.
    fn generate_cluster(&self, stmts: Vec<LevelStmt>, d: usize) -> Vec<AstNode> {
        let (consts, loops): (Vec<LevelStmt>, Vec<LevelStmt>) = stmts
            .into_iter()
            .partition(|s| s.stmt.row_const(self.schedule, d).is_some());
        let consts: Vec<GenStmt> = consts.into_iter().map(|s| s.stmt).collect();

        if loops.is_empty() {
            // Pure scalar dimension: partition by constant value.
            let mut values: Vec<i128> = consts
                .iter()
                .map(|s| s.row_const(self.schedule, d).expect("constant row"))
                .collect();
            values.sort_unstable();
            values.dedup();
            let mut out = Vec::new();
            for v in values {
                let group: Vec<GenStmt> = consts
                    .iter()
                    .filter(|s| s.row_const(self.schedule, d) == Some(v))
                    .cloned()
                    .collect();
                out.extend(self.generate(group, d + 1));
            }
            return out;
        }

        // Place each constant statement before, inside or after the loop.
        let loop_stmts: Vec<&GenStmt> = loops.iter().map(|l| &l.stmt).collect();
        let mut before: Vec<GenStmt> = Vec::new();
        let mut inside: Vec<GenStmt> = Vec::new();
        let mut after: Vec<GenStmt> = Vec::new();
        for mut c in consts {
            let v = c.row_const(self.schedule, d).expect("constant row");
            match self.placement(&c, v, &loop_stmts, d) {
                Placement::Before => before.push(c),
                Placement::After => after.push(c),
                Placement::Inside => {
                    // Guard t_d == v.
                    let mut e = LinExpr::var(self.gspace, d);
                    e.set_constant(-v);
                    c.guards.push(Constraint::eq0(e));
                    inside.push(c);
                }
            }
        }

        let mut out = self.generate(before, d + 1);
        out.push(self.emit_loop(loops, inside, d));
        out.extend(self.generate(after, d + 1));
        out
    }

    /// Groups statements into clusters: the connected components of "the
    /// `t_d` ranges overlap", where a pair overlaps when the intersection
    /// of its projected time polyhedra has an integer point. The ILP is
    /// asked only what the union-find and the schedule do not answer: a
    /// pair already in one component is not tested, nor is a pair whose
    /// rows at `d` are two different constants (`t_d = x ∧ t_d = y` is
    /// empty). With more than one cluster, clusters are ordered by their
    /// minimum date under the kernel's default parameter values (stable
    /// on ties), each member's date computed once.
    fn cluster_by_overlap(&self, mut stmts: Vec<LevelStmt>, d: usize) -> Vec<Vec<LevelStmt>> {
        let n = stmts.len();
        if n <= 1 {
            return vec![stmts];
        }
        let consts: Vec<Option<i128>> = stmts
            .iter()
            .map(|s| s.stmt.row_const(self.schedule, d))
            .collect();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for a in 0..n {
            for b in a + 1..n {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                let distinct_consts =
                    matches!((consts[a], consts[b]), (Some(x), Some(y)) if x != y);
                if ra == rb || distinct_consts {
                    continue;
                }
                let mut both = stmts[a].proj(d, self.depth).clone();
                both.intersect(stmts[b].proj(d, self.depth));
                if !both.has_trivial_contradiction() && is_integer_feasible(&both) {
                    parent[ra] = rb;
                }
            }
        }
        let mut group_of_root: Vec<Option<usize>> = vec![None; n];
        let mut groups: Vec<Vec<LevelStmt>> = Vec::new();
        for (i, s) in stmts.into_iter().enumerate() {
            let r = find(&mut parent, i);
            let gi = *group_of_root[r].get_or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(s);
        }
        if groups.len() == 1 {
            return groups;
        }
        let mut dated: Vec<(i128, Vec<LevelStmt>)> = groups
            .into_iter()
            .map(|mut g| {
                let min = g
                    .iter_mut()
                    .map(|s| self.min_date(s, d))
                    .min()
                    .expect("non-empty cluster");
                (min, g)
            })
            .collect();
        dated.sort_by_key(|(min, _)| *min);
        dated.into_iter().map(|(_, g)| g).collect()
    }

    /// Minimum `t_d` of a statement under the default parameter values.
    /// A constant row's minimum is its constant when the statement is
    /// known to have an instance there; otherwise the ILP answers on the
    /// projection (`i128::MIN / 2` when it is empty).
    fn min_date(&self, s: &mut LevelStmt, d: usize) -> i128 {
        match s.stmt.row_const(self.schedule, d) {
            Some(v) if s.stmt.inhabited => v,
            _ => self.extreme_date(s.proj(d, self.depth), d, false),
        }
    }

    /// Minimum or maximum `t_d` of a projected time polyhedron under the
    /// default parameter values.
    fn extreme_date(&self, proj: &ConstraintSet, d: usize, maximum: bool) -> i128 {
        let mut set = proj.clone();
        let n = set.n_vars();
        let n_t = n - self.n_params;
        for (p, &v) in self.param_defaults.iter().enumerate() {
            let mut e = LinExpr::var(n, n_t + p);
            e.set_constant(-(v as i128));
            set.add(Constraint::eq0(e));
        }
        let obj = if maximum {
            LinExpr::var(n, d).scaled((-1).into())
        } else {
            LinExpr::var(n, d)
        };
        match polyject_sets::minimize_integer(&obj, &set) {
            polyject_sets::IlpOutcome::Optimal { value, .. } => {
                let v = value.to_integer().expect("integer date");
                if maximum {
                    -v
                } else {
                    v
                }
            }
            _ => i128::MIN / 2,
        }
    }

    fn emit_loop(&self, mut loops: Vec<LevelStmt>, inside: Vec<GenStmt>, d: usize) -> AstNode {
        // Bounds of t_d per statement, over [t_0..t_{d-1}, params].
        let per_stmt: Vec<(Vec<Bound>, Vec<Bound>)> = loops
            .iter_mut()
            .map(|s| stmt_bounds(s.proj(d, self.depth), d))
            .collect();
        // Shared bounds: those present in every statement's list.
        let mut shared_lowers = shared_bounds(per_stmt.iter().map(|(l, _)| l));
        let mut shared_uppers = shared_bounds(per_stmt.iter().map(|(_, u)| u));
        if shared_lowers.is_empty() || shared_uppers.is_empty() {
            // Shifted fusion (overlapping but unequal ranges, e.g. a
            // Pluto-style constant offset): scan the concrete union range
            // and let the per-statement bounds become guards. This loses
            // parametricity, which concrete-shape fused operators don't
            // have anyway.
            let (mut lo, mut hi) = (i128::MAX, i128::MIN);
            for s in &mut loops {
                let proj = s.proj(d, self.depth);
                lo = lo.min(self.extreme_date(proj, d, false));
                hi = hi.max(self.extreme_date(proj, d, true));
            }
            assert!(lo <= hi, "empty union loop range at dim {d}");
            shared_lowers = vec![Bound {
                expr: LinExpr::constant(self.gspace, lo),
                divisor: 1,
            }];
            shared_uppers = vec![Bound {
                expr: LinExpr::constant(self.gspace, hi),
                divisor: 1,
            }];
        }
        let mut body_stmts: Vec<GenStmt> = Vec::new();
        for (s, (lo, up)) in loops.into_iter().zip(&per_stmt) {
            let mut gs = s.stmt;
            // Residual bounds become guards.
            for b in lo {
                if !shared_lowers.contains(b) {
                    gs.guards.push(bound_guard(self.gspace, d, b, true));
                }
            }
            for b in up {
                if !shared_uppers.contains(b) {
                    gs.guards.push(bound_guard(self.gspace, d, b, false));
                }
            }
            body_stmts.push(gs);
        }
        body_stmts.extend(inside);
        let flags = self.schedule.flags().get(d).copied().unwrap_or_default();
        let kind = if flags.parallel {
            LoopKind::Parallel
        } else {
            LoopKind::Seq
        };
        let body = self.generate(body_stmts, d + 1);
        AstNode::Loop(LoopNode {
            dim: d,
            var: format!("c{d}"),
            lowers: shared_lowers,
            uppers: shared_uppers,
            kind,
            step: 1,
            body,
        })
    }

    /// Decides where a constant-row statement sits relative to a loop at
    /// dimension `d`.
    fn placement(&self, c: &GenStmt, v: i128, loops: &[&GenStmt], d: usize) -> Placement {
        let mut all_ge = true;
        let mut all_le = true;
        for l in loops {
            // Any loop instance with t_d < v?
            if self.loop_reaches(l, d, v, true) {
                all_ge = false;
            }
            // Any with t_d > v?
            if self.loop_reaches(l, d, v, false) {
                all_le = false;
            }
        }
        // Tie order at t_d == v decided by the next differing constant
        // rows (the scheduler's trailing scalar ordering dimension).
        let tie_before = loops.iter().all(|l| self.const_sorts_before(c, l, d));
        let tie_after = loops.iter().all(|l| self.const_sorts_before(l, c, d));
        if all_ge && tie_before {
            Placement::Before
        } else if all_le && tie_after {
            Placement::After
        } else {
            Placement::Inside
        }
    }

    /// Whether the loop statement has an instance with `t_d < v` (below =
    /// true) or `t_d > v` (below = false).
    fn loop_reaches(&self, l: &GenStmt, d: usize, v: i128, below: bool) -> bool {
        let mut set = l.time_poly.clone();
        let mut e = LinExpr::var(self.gspace, d);
        if below {
            // t_d <= v - 1
            e = e.scaled((-1).into());
            e.set_constant(v - 1);
        } else {
            e.set_constant(-(v + 1));
        }
        set.add(Constraint::ge0(e));
        is_integer_feasible(&set)
    }

    /// Whether statement `a` sorts before statement `b` whenever their
    /// dates agree up to dimension `d` — decided by the first deeper
    /// dimension where both rows are constants with different values, and
    /// by statement order if all deeper constant rows tie.
    fn const_sorts_before(&self, a: &GenStmt, b: &GenStmt, d: usize) -> bool {
        for dd in d + 1..self.depth {
            match (
                a.row_const(self.schedule, dd),
                b.row_const(self.schedule, dd),
            ) {
                (Some(x), Some(y)) if x != y => return x < y,
                (Some(_), Some(_)) => continue,
                _ => return false, // undecidable syntactically
            }
        }
        a.id < b.id
    }

    fn leaf(&self, s: &GenStmt) -> AstNode {
        AstNode::Stmt(StmtNode {
            stmt: s.id,
            iter_exprs: s.iter_exprs.clone(),
            guards: s.guards.clone(),
            depth: self.depth,
            lanes: Vec::new(),
        })
    }
}

enum Placement {
    Before,
    Inside,
    After,
}

/// Bounds of `t_d` in a statement's projection onto `[t_0..t_d, params]`,
/// with variables `t_d..` removed from the expressions (they are zero after
/// projection).
fn stmt_bounds(proj: &ConstraintSet, d: usize) -> (Vec<Bound>, Vec<Bound>) {
    let vb = bounds_for_var(proj, d);
    let conv = |(e, div): &(LinExpr, i128)| Bound {
        expr: e.clone(),
        divisor: *div,
    };
    (
        vb.lowers.iter().map(conv).collect(),
        vb.uppers.iter().map(conv).collect(),
    )
}

/// Bounds present in every statement's bound list.
fn shared_bounds<'a>(mut lists: impl Iterator<Item = &'a Vec<Bound>>) -> Vec<Bound> {
    let Some(first) = lists.next() else {
        return Vec::new();
    };
    let mut shared = first.clone();
    for l in lists {
        shared.retain(|b| l.contains(b));
    }
    shared
}

/// Converts a residual bound into a guard constraint over the global
/// space: `t_d >= ceil(e/div)` ⇔ `div·t_d - e >= 0` (divisor positive).
fn bound_guard(gspace: usize, d: usize, b: &Bound, lower: bool) -> Constraint {
    let t = LinExpr::var(gspace, d).scaled(Rat::int(b.divisor));
    let e = if lower { &t - &b.expr } else { &b.expr - &t };
    Constraint::ge0(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ops;

    #[test]
    fn identity_running_example_structure() {
        let kernel = ops::running_example(8);
        let sched = Schedule::identity(&kernel);
        let ast = generate_ast(&kernel, &sched);
        // Identity: scalar dim splits X and Y into two nests.
        assert_eq!(ast.roots.len(), 2);
        let loops = ast.loops();
        // X nest: 2 loops; Y nest: 3 loops.
        assert_eq!(loops.len(), 5);
        assert_eq!(ast.statements().len(), 2);
    }

    #[test]
    fn identity_bounds_are_parametric() {
        let kernel = ops::running_example(8);
        let sched = Schedule::identity(&kernel);
        let ast = generate_ast(&kernel, &sched);
        let loops = ast.loops();
        // Outer loop of X: 0 <= c1 <= N-1. Global space: [t0..t3, N].
        let (lo, hi) = loops[0].range(&[0, 0, 0, 0, 8]);
        assert_eq!((lo, hi), (0, 7));
    }

    #[test]
    fn statement_empty_at_defaults_keeps_the_ilp_date() {
        use polyject_ir::{ElemType, Expr, Extent, Idx, KernelBuilder, StatementBuilder};
        // S1's domain 5 <= i <= 3 is empty, so its minimum date is no
        // constant: the ILP finds none and orders it first, where its
        // scalar row (1) alone would order it after S0.
        let mut kb = KernelBuilder::new("empty_second");
        let a = kb.tensor("A", vec![Extent::Const(8)], ElemType::F32);
        let b = kb.tensor("B", vec![Extent::Const(8)], ElemType::F32);
        for (name, lo, hi) in [("S0", 0, 7), ("S1", 5, 3)] {
            let sb = StatementBuilder::new(name, &["i"])
                .bound_range(0, lo, hi)
                .write(b, &[Idx::Iter(0)])
                .read(a, &[Idx::Iter(0)])
                .expr(Expr::Read(0));
            kb.add_statement(sb).unwrap();
        }
        let kernel = kb.finish().unwrap();
        let ast = generate_ast(&kernel, &Schedule::identity(&kernel));
        let order: Vec<StmtId> = ast.statements().iter().map(|s| s.stmt).collect();
        assert_eq!(order, [StmtId(1), StmtId(0)]);
    }

    #[test]
    fn iterator_recovery_identity() {
        let kernel = ops::running_example(8);
        let sched = Schedule::identity(&kernel);
        let ast = generate_ast(&kernel, &sched);
        let stmts = ast.statements();
        // Statement X: date (0, i, k, 0) so i = t1, k = t2; global space
        // is [t0, t1, t2, t3, N].
        let x = stmts.iter().find(|s| s.stmt == StmtId(0)).unwrap();
        let iters = x.instance(&[0, 3, 5, 0, 8]).unwrap();
        assert_eq!(iters, vec![3, 5]);
    }
}
