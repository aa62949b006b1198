//! Polyhedral dependence analysis over a kernel.
//!
//! For every ordered pair of accesses to the same tensor (at least one
//! being a write for validity kinds), we build the dependence relation
//! `δ_{S→T}` as a conjunction of:
//!
//! 1. both iteration domains,
//! 2. equality of the affine access indices,
//! 3. the original execution order (program order across statements,
//!    per-level lexicographic order within a statement),
//! 4. the parameter context (`param >= 1` for every parameter).
//!
//! Same-statement lexicographic order is a disjunction; it is split into
//! one relation per loop level, each of which is a plain conjunction.
//! Integrally empty relations are discarded.

use crate::relation::{DepKind, DepRelation};
use polyject_ir::{Access, Kernel, Statement, StmtId};
use polyject_sets::{is_integer_feasible, Constraint, ConstraintSet, LinExpr};

/// The parameter context: every parameter is assumed at least this.
/// AI/DL shapes are at least 1.
const PARAM_MIN: i128 = 1;

/// Dependence analysis has no setting: read-after-read (input) relations
/// are always computed, for proximity, and every parameter is assumed at
/// least 1.
/// This field-less type stays in the signature of [`compute_dependences`]
/// only until `benchmark/` stops passing it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepOptions {}

/// The set of dependence relations of a kernel.
#[derive(Clone, Debug, Default)]
pub struct Dependences {
    relations: Vec<DepRelation>,
}

impl Dependences {
    /// All relations.
    pub fn relations(&self) -> &[DepRelation] {
        &self.relations
    }

    /// Relations that constrain validity (flow, anti, output).
    pub fn validity(&self) -> impl Iterator<Item = &DepRelation> {
        self.relations.iter().filter(|r| r.kind.affects_validity())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether there are no relations at all.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// Computes all dependence relations of a kernel.
///
/// # Examples
///
/// ```
/// use polyject_deps::{compute_dependences, DepOptions};
/// use polyject_ir::ops;
///
/// let kernel = ops::running_example(64);
/// let deps = compute_dependences(&kernel, DepOptions::default());
/// // X writes B, Y reads B: at least one flow dependence must exist.
/// assert!(deps.validity().count() >= 1);
/// ```
pub fn compute_dependences(kernel: &Kernel, _: DepOptions) -> Dependences {
    let t0 = std::time::Instant::now();
    let mut relations = Vec::new();
    let stmts = kernel.statements();
    for (si, s) in stmts.iter().enumerate() {
        for (ti, t) in stmts.iter().enumerate().skip(si) {
            for (sa, s_writes) in s.accesses() {
                for (ta, t_writes) in t.accesses() {
                    if sa.tensor() != ta.tensor() {
                        continue;
                    }
                    let kind = match (s_writes, t_writes) {
                        (true, true) => DepKind::Output,
                        (true, false) => DepKind::Flow,
                        (false, true) => DepKind::Anti,
                        (false, false) => DepKind::Input,
                    };
                    // Note: a read access paired with *itself* is kept for
                    // same-statement pairs — the lexicographic-order split
                    // restricts it to distinct iterations, which is exactly
                    // the temporal-reuse information proximity wants.
                    relations.extend(build_pair_relations(
                        kernel,
                        (StmtId(si), s, sa),
                        (StmtId(ti), t, ta),
                        kind,
                    ));
                }
            }
        }
    }
    polyject_sets::counters::note_dependence_analysis(1);
    polyject_sets::counters::add_dependence_ns(t0.elapsed().as_nanos() as u64);
    Dependences { relations }
}

/// Builds the (possibly several, level-split) relations for one ordered
/// access pair.
fn build_pair_relations(
    kernel: &Kernel,
    (sid, s, sa): (StmtId, &Statement, &Access),
    (tid, t, ta): (StmtId, &Statement, &Access),
    kind: DepKind,
) -> Vec<DepRelation> {
    let n_params = kernel.n_params();
    let ns = s.n_iters();
    let nt = t.n_iters();
    let n = ns + nt + n_params;

    let mut base = ConstraintSet::universe(n);
    // Source domain: its space is [s_iters, params] → map to
    // [s_iters, (gap nt), params].
    base.intersect(&s.domain().with_vars_inserted(ns, nt));
    // Target domain: [t_iters, params] → [(gap ns), t_iters, params].
    base.intersect(&t.domain().with_vars_inserted(0, ns));
    // Access equality per tensor dimension.
    for (se, te) in sa.indices().iter().zip(ta.indices()) {
        let se = se.with_vars_inserted(ns, nt);
        let te = te.with_vars_inserted(0, ns);
        base.add(Constraint::eq(&se, &te));
    }
    // Parameter context.
    for p in 0..n_params {
        let mut e = LinExpr::var(n, ns + nt + p);
        e.set_constant(-PARAM_MIN);
        base.add(Constraint::ge0(e));
    }

    if sid != tid {
        // Program order: the whole source nest precedes the target nest;
        // no extra constraint needed.
        return finish(base, sid, tid, kind, ns, nt, n_params, None, sa);
    }

    // Same statement: split `s lex< t` into per-level conjunctions.
    let mut out = Vec::new();
    for level in 0..ns {
        let mut rel = base.clone();
        for l in 0..level {
            // s_l == t_l
            let se = LinExpr::var(n, l);
            let te = LinExpr::var(n, ns + l);
            rel.add(Constraint::eq(&se, &te));
        }
        // s_level < t_level  ⇔  t_level - s_level - 1 >= 0
        let mut e = LinExpr::var(n, ns + level);
        e.set_coeff(level, -1);
        e.set_constant(-1i128);
        rel.add(Constraint::ge0(e));
        out.extend(finish(
            rel,
            sid,
            tid,
            kind,
            ns,
            nt,
            n_params,
            Some(level),
            sa,
        ));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn finish(
    set: ConstraintSet,
    source: StmtId,
    target: StmtId,
    kind: DepKind,
    n_source_iters: usize,
    n_target_iters: usize,
    n_params: usize,
    level: Option<usize>,
    access: &Access,
) -> Vec<DepRelation> {
    if set.has_trivial_contradiction() || !is_integer_feasible(&set) {
        return Vec::new();
    }
    vec![DepRelation {
        source,
        target,
        kind,
        set,
        n_source_iters,
        n_target_iters,
        n_params,
        level,
        tensor: access.tensor().0,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ops;

    #[test]
    fn running_example_dependences() {
        let kernel = ops::running_example(16);
        let deps = compute_dependences(&kernel, DepOptions::default());

        // Flow X -> Y on B.
        let flow_xy: Vec<_> = deps
            .relations()
            .iter()
            .filter(|r| r.kind == DepKind::Flow && r.source == StmtId(0) && r.target == StmtId(1))
            .collect();
        assert_eq!(flow_xy.len(), 1);
        let r = flow_xy[0];
        // X(1, 2) produces B[1][2] consumed by Y(1, j, 2) for all j: pick
        // j = 0. Space: [i_X, k_X, i_Y, j_Y, k_Y, N].
        assert!(r.set.contains_int(&[1, 2, 1, 0, 2, 16]));
        assert!(!r.set.contains_int(&[1, 2, 2, 0, 2, 16]));

        // Self flow dependence on C within Y (the reduction), at level 2.
        let self_c: Vec<_> = deps
            .relations()
            .iter()
            .filter(|r| r.source == StmtId(1) && r.target == StmtId(1) && r.kind == DepKind::Flow)
            .collect();
        assert!(!self_c.is_empty());
        assert!(self_c.iter().all(|r| r.level == Some(2)));
    }

    #[test]
    fn no_false_dependences_on_distinct_tensors() {
        // Two statements writing different tensors with no shared reads.
        use polyject_ir::*;
        let mut kb = KernelBuilder::new("indep");
        let a = kb.tensor("A", vec![Extent::Const(4)], ElemType::F32);
        let b = kb.tensor("B", vec![Extent::Const(4)], ElemType::F32);
        let c = kb.tensor("Cin", vec![Extent::Const(4)], ElemType::F32);
        let d = kb.tensor("Din", vec![Extent::Const(4)], ElemType::F32);
        kb.add_statement(
            StatementBuilder::new("S0", &["i"])
                .bound_extent(0, 4)
                .write(a, &[Idx::Iter(0)])
                .read(c, &[Idx::Iter(0)])
                .expr(Expr::Read(0)),
        )
        .unwrap();
        kb.add_statement(
            StatementBuilder::new("S1", &["i"])
                .bound_extent(0, 4)
                .write(b, &[Idx::Iter(0)])
                .read(d, &[Idx::Iter(0)])
                .expr(Expr::Read(0)),
        )
        .unwrap();
        let kernel = kb.finish().unwrap();
        let deps = compute_dependences(&kernel, DepOptions::default());
        assert!(deps.relations().iter().all(|r| r.kind == DepKind::Input));
    }

    #[test]
    fn stencil_self_dependence_level_zero() {
        // A[i] = A[i-1] over 1 <= i < 8: a level-0 flow dependence.
        use polyject_ir::*;
        let mut kb = KernelBuilder::new("scan");
        let a = kb.tensor("A", vec![Extent::Const(8)], ElemType::F32);
        kb.add_statement(
            StatementBuilder::new("S", &["i"])
                .bound_range(0, 1, 7)
                .write(a, &[Idx::Iter(0)])
                .read(a, &[Idx::IterPlus(0, -1)])
                .expr(Expr::Read(0)),
        )
        .unwrap();
        let kernel = kb.finish().unwrap();
        let deps = compute_dependences(&kernel, DepOptions::default());
        let flows: Vec<_> = deps
            .relations()
            .iter()
            .filter(|r| r.kind == DepKind::Flow)
            .collect();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].level, Some(0));
        // Source i=1 writes A[1], read by target i=2.
        assert!(flows[0].set.contains_int(&[1, 2]));
        assert!(!flows[0].set.contains_int(&[1, 3]));
    }

    #[test]
    fn anti_and_output_detected() {
        // S0 reads A and writes B; S1 writes A (anti S0->S1); S2 writes A
        // again (output S1->S2).
        use polyject_ir::*;
        let mut kb = KernelBuilder::new("waw");
        let a = kb.tensor("A", vec![Extent::Const(4)], ElemType::F32);
        let b = kb.tensor("B", vec![Extent::Const(4)], ElemType::F32);
        kb.add_statement(
            StatementBuilder::new("S0", &["i"])
                .bound_extent(0, 4)
                .write(b, &[Idx::Iter(0)])
                .read(a, &[Idx::Iter(0)])
                .expr(Expr::Read(0)),
        )
        .unwrap();
        for name in ["S1", "S2"] {
            kb.add_statement(
                StatementBuilder::new(name, &["i"])
                    .bound_extent(0, 4)
                    .write(a, &[Idx::Iter(0)])
                    .expr(Expr::Const(1.0)),
            )
            .unwrap();
        }
        let kernel = kb.finish().unwrap();
        let deps = compute_dependences(&kernel, DepOptions::default());
        assert!(deps
            .relations()
            .iter()
            .any(|r| r.kind == DepKind::Anti && r.source == StmtId(0) && r.target == StmtId(1)));
        assert!(deps
            .relations()
            .iter()
            .any(|r| r.kind == DepKind::Output && r.source == StmtId(1) && r.target == StmtId(2)));
    }
}
