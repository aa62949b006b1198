//! The non-linear optimizer of Section V: builds influence constraint
//! trees that steer the scheduler towards GPU load/store vectorization.
//!
//! Algorithm 2 searches, per statement, for the best ordered list of up to
//! three innermost dimensions (an *influenced dimension scenario*) using a
//! non-affine cost model over concrete strides, extents and the thread
//! budget. Scenarios are then translated into per-depth affine constraints
//! on schedule coefficients and assembled into an [`InfluenceTree`]:
//! higher-priority fusion variants first, relaxed variants (vectorization
//! constraints only) after.

use crate::layout::CoeffLayout;
use crate::tree::InfluenceTree;
use polyject_ir::{Kernel, Statement, StmtId};
use polyject_sets::{Constraint, ConstraintSet, LinExpr};
use std::collections::btree_map::{BTreeMap, Entry};

/// Options of the influence optimizer (the paper's tuned configuration by
/// default).
#[derive(Clone, Debug, PartialEq)]
pub struct InfluenceOptions {
    /// Cost weights `w₁..w₅`: store vectorization, load vectorization,
    /// stride shortness, stride-minimal access count, thread contribution.
    pub weights: [f64; 5],
    /// Thread budget `L` per block (CUDA's 1024).
    pub thread_limit: i64,
    /// Maximum number of scenario branches in the tree (paper: 8).
    pub max_scenarios: usize,
    /// Supported vector widths in elements (64/128-bit for f32; width 3 is
    /// unsupported, as in the paper).
    pub vector_widths: Vec<i64>,
    /// Include the higher-priority *fusion* variants when assembling the
    /// tree (scenario branches that additionally constrain statements
    /// onto a common schedule prefix). The autotuner toggles scenario
    /// subsets through these switches; with both off the tree is empty
    /// and scheduling degenerates to the `isl` baseline.
    pub fusion_variants: bool,
    /// Include the relaxed variants (vectorization constraints only,
    /// appended after the fusion variants at lower priority).
    pub relaxed_variants: bool,
}

impl Default for InfluenceOptions {
    fn default() -> InfluenceOptions {
        InfluenceOptions {
            weights: [5.0, 3.0, 1.0, 1.0, 1.0],
            thread_limit: 1024,
            max_scenarios: 8,
            vector_widths: vec![4, 2],
            fusion_variants: true,
            relaxed_variants: true,
        }
    }
}

/// An influenced dimension scenario for one statement: the chosen innermost
/// iterator dimensions, innermost last, plus the vectorization verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The statement.
    pub stmt: StmtId,
    /// Chosen iterator indices, **outermost first, innermost last** (the
    /// paper's `I_s` list).
    pub dims: Vec<usize>,
    /// Whether the innermost chosen dimension qualifies for explicit
    /// vector types (conditions (a)–(c) of Section V).
    pub vectorizable: bool,
    /// Total cost score of the scenario (higher = more profitable).
    pub score: f64,
}

/// Per-iterator analysis of one statement under concrete shapes.
struct IterInfo {
    /// |stride| of each access along this iterator (write first).
    strides: Vec<i64>,
    /// Trip count.
    extent: i64,
}

fn analyze_statement(kernel: &Kernel, stmt: &Statement) -> Vec<IterInfo> {
    let params = kernel.param_defaults();
    (0..stmt.n_iters())
        .map(|it| {
            let strides = stmt
                .accesses()
                .map(|(a, _)| {
                    let ts = kernel.tensor(a.tensor()).strides(params);
                    a.stride_along(it, &ts).abs()
                })
                .collect();
            IterInfo {
                strides,
                extent: stmt.extent_of_iter(it, params),
            }
        })
        .collect()
}

/// Every statement's per-iterator analysis, in statement order.
fn analyze_kernel(kernel: &Kernel) -> Vec<Vec<IterInfo>> {
    let stmts = kernel.statements().iter();
    stmts.map(|stmt| analyze_statement(kernel, stmt)).collect()
}

/// Algorithm 2's option-invariant input for one kernel: the coefficient
/// layout its constraints are written over, and every statement's
/// per-iterator access strides and trip counts (one Fourier–Motzkin
/// projection per iterator). Only the knobs of [`InfluenceOptions`]
/// vary between calls, so a session analyses its kernel once and plans
/// every option set against the same analysis.
pub(crate) struct ShapeAnalysis {
    layout: CoeffLayout,
    stmts: Vec<Vec<IterInfo>>,
}

impl ShapeAnalysis {
    /// Analyses every statement of `kernel`.
    pub(crate) fn new(kernel: &Kernel) -> ShapeAnalysis {
        ShapeAnalysis {
            layout: CoeffLayout::new(kernel),
            stmts: analyze_kernel(kernel),
        }
    }

    /// The tree's branches under `opts`, without building a constraint:
    /// group the scenarios per statement, ranked by score, and combine
    /// the i-th best of each statement into the i-th global scenario,
    /// fusion variant first.
    pub(crate) fn plan(&self, kernel: &Kernel, opts: &InfluenceOptions) -> ScenarioPlan {
        let scenarios = scenarios(kernel, &self.stmts, opts);
        let mut per_stmt: BTreeMap<usize, Vec<&Scenario>> = BTreeMap::new();
        for sc in &scenarios {
            per_stmt.entry(sc.stmt.0).or_default().push(sc);
        }
        for v in per_stmt.values_mut() {
            v.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let max_rank = per_stmt.values().map(Vec::len).max().unwrap_or(0);
        let mut branches = Vec::new();
        for rank in 0..max_rank {
            let combo: Vec<Pick> = per_stmt
                .values()
                .map(|v| {
                    let sc = *v.get(rank).unwrap_or(&v[0]);
                    Pick {
                        stmt: sc.stmt,
                        dims: sc.dims.clone(),
                        vectorizable: sc.vectorizable,
                    }
                })
                .collect();
            // Higher priority: fusion variant; lower: vectorization only.
            // The scenario-subset toggles let callers (the autotuner)
            // search over which variant families enter the tree at all.
            for fusion in [true, false] {
                if fusion && !opts.fusion_variants {
                    continue;
                }
                if !fusion && !opts.relaxed_variants {
                    continue;
                }
                if branches.len() >= opts.max_scenarios {
                    break;
                }
                branches.push((combo.clone(), fusion));
            }
        }
        ScenarioPlan { branches }
    }

    /// Translates a plan into its influence tree: one chain of per-depth
    /// constraint nodes per branch, in plan order. Reads the plan and the
    /// kernel only, so equal plans build equal trees.
    pub(crate) fn tree(&self, kernel: &Kernel, plan: &ScenarioPlan) -> InfluenceTree {
        let mut tree = InfluenceTree::new();
        for (combo, fusion) in &plan.branches {
            add_branch(&mut tree, kernel, &self.layout, combo, *fusion);
        }
        tree
    }
}

/// The score-free outcome of Algorithm 2 under one option set: per tree
/// branch, each statement's chosen dimensions and vector verdict, plus
/// whether the branch is a fusion variant. The influence tree is a
/// function of the plan and the kernel alone, so two option sets with
/// equal plans schedule identically. The empty plan is the `isl`
/// baseline's empty tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ScenarioPlan {
    branches: Vec<(Vec<Pick>, bool)>,
}

impl ScenarioPlan {
    /// Whether the plan has no branch (its tree is empty).
    pub(crate) fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }
}

/// One statement's share of a plan branch.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pick {
    stmt: StmtId,
    dims: Vec<usize>,
    vectorizable: bool,
}

/// Whether the extent admits one of the supported vector widths.
fn width_ok(extent: i64, widths: &[i64]) -> bool {
    widths.iter().any(|w| extent >= *w && extent % w == 0)
}

/// The Section V cost function:
/// `cost = w₁|V_w| + w₂|V_r| + w₃/M + w₄|C| + w₅·F·L/N`.
fn cost(
    info: &[IterInfo],
    stmt: &Statement,
    d: usize,
    innermost: bool,
    budget: i64,
    opts: &InfluenceOptions,
) -> (f64, bool) {
    let [w1, w2, w3, w4, w5] = opts.weights;
    let it = &info[d];
    let n = it.extent.max(1);
    // V_w / V_r: vectorizable stores/loads — only scored at the innermost
    // position; an access is vectorizable along d if it is constant
    // (stride 0) or contiguous (stride 1) and the extent admits a width.
    let mut vw = 0usize;
    let mut vr = 0usize;
    let mut vectorizable = false;
    if innermost && width_ok(n, &opts.vector_widths) {
        for (i, &s) in it.strides.iter().enumerate() {
            if s <= 1 {
                if i == 0 {
                    vw += 1;
                } else {
                    vr += 1;
                }
            }
        }
        // The write must itself be contiguous for the backend to emit
        // vector stores (a stride-0 write re-hits one cell — a reduction —
        // which cannot be stored as a vector).
        vectorizable = it.strides[0] == 1;
        let _ = stmt;
    }
    // M: minimum stride over all accesses by dimension d (clamped at 1 —
    // an invariant access jumps nowhere, which is as good as contiguous).
    let m = it.strides.iter().map(|&s| s.max(1)).min().unwrap_or(1);
    // C: accesses with short memory jumps. The paper defines C as the
    // accesses attaining the minimum stride M and motivates it as "favors
    // as many references as possible with short memory jumps" / a
    // tie-break among stride-1 dimensions; counting minimal-but-huge
    // strides would let |C| overrule the stride term entirely, so C only
    // counts accesses that are constant or contiguous (stride <= 1).
    let c = it.strides.iter().filter(|&&s| s <= 1).count();
    // F: dimension fits the remaining thread budget. The paper prints the
    // last term as `w₅·F·L/N` but motivates it as "favors high
    // contribution to the number of threads not exceeding L" and as a mild
    // ordering tie-break ("w₅ = 1 is enough") — `L/N` would explode to
    // dominate every other term precisely for tiny dimensions (e.g. a
    // batch axis of 32), so we implement the thread *contribution*
    // `N/L ∈ (0, 1)` instead and document the deviation.
    let f = if n < budget { 1.0 } else { 0.0 };
    let score = w1 * vw as f64
        + w2 * vr as f64
        + w3 / m as f64
        + w4 * c as f64
        + w5 * f * n as f64 / budget.max(1) as f64;
    (score, vectorizable)
}

/// Algorithm 2: builds the best influenced dimension scenario per
/// statement (plus runner-up scenarios for alternative innermost choices).
pub fn build_scenarios(kernel: &Kernel, opts: &InfluenceOptions) -> Vec<Scenario> {
    scenarios(kernel, &analyze_kernel(kernel), opts)
}

/// [`build_scenarios`] over an already analysed kernel.
fn scenarios(kernel: &Kernel, stmts: &[Vec<IterInfo>], opts: &InfluenceOptions) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (si, (stmt, info)) in kernel.statements().iter().zip(stmts).enumerate() {
        let n_dims = stmt.n_iters();
        if n_dims == 0 {
            continue;
        }
        // Rank candidate innermost dimensions by cost; each spawns one
        // scenario (primary = best innermost).
        let mut inner_ranked: Vec<(usize, f64, bool)> = (0..n_dims)
            .map(|d| {
                let (s, v) = cost(info, stmt, d, true, opts.thread_limit, opts);
                (d, s, v)
            })
            .collect();
        inner_ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        // A runner-up innermost choice is only worth a branch when the
        // best one cannot be vectorized anyway — extra alternatives are
        // not free: exhausting infeasible ones drives the scheduler's
        // backtracking towards coarser fallbacks (SCC separation at outer
        // dimensions), degrading otherwise-fusable kernels.
        let n_alternatives = if inner_ranked.first().is_some_and(|r| r.2) {
            1
        } else {
            2
        };
        for &(inner, inner_score, vectorizable) in inner_ranked.iter().take(n_alternatives) {
            let mut dims = vec![inner];
            let mut score = inner_score;
            let mut budget = (opts.thread_limit / info[inner].extent.max(1)).max(1);
            while dims.len() < 3 && dims.len() < n_dims {
                let best = (0..n_dims)
                    .filter(|d| !dims.contains(d))
                    .map(|d| {
                        let (s, _) = cost(info, stmt, d, false, budget, opts);
                        (d, s)
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                let Some((b, s)) = best else { break };
                dims.insert(0, b); // head of the list: next-outer dimension
                score += s;
                budget = (budget / info[b].extent.max(1)).max(1);
            }
            out.push(Scenario {
                stmt: StmtId(si),
                dims,
                vectorizable,
                score,
            });
        }
    }
    out
}

/// Builds the influence constraint tree for a kernel: scenario search
/// (Algorithm 2), translation to per-depth affine constraints, and
/// priority-ordered assembly with fusion and relaxed variants. A
/// one-shot call: a [`ScheduleSession`](crate::ScheduleSession) analyses
/// its kernel once and builds the same tree for every option set.
///
/// # Examples
///
/// ```
/// use polyject_core::{build_influence_tree, InfluenceOptions};
/// use polyject_ir::ops;
///
/// let kernel = ops::running_example(64);
/// let tree = build_influence_tree(&kernel, &InfluenceOptions::default());
/// assert!(!tree.is_empty());
/// println!("{}", tree.render());
/// ```
pub fn build_influence_tree(kernel: &Kernel, opts: &InfluenceOptions) -> InfluenceTree {
    let analysis = ShapeAnalysis::new(kernel);
    analysis.tree(kernel, &analysis.plan(kernel, opts))
}

/// Translates one global scenario (one per-statement dimension list) into
/// a chain of tree nodes, one per schedule depth.
fn add_branch(
    tree: &mut InfluenceTree,
    kernel: &Kernel,
    layout: &CoeffLayout,
    combo: &[Pick],
    fusion: bool,
) {
    let max_depth = kernel
        .statements()
        .iter()
        .map(Statement::n_iters)
        .max()
        .unwrap_or(0);
    let n = layout.n_vars();
    let mut parent = None;
    for depth in 0..max_depth {
        let mut cs = ConstraintSet::universe(n);
        let mut vector_stmts = Vec::new();
        for sc in combo {
            let stmt = kernel.statement(sc.stmt);
            let n_iters = stmt.n_iters();
            if depth >= n_iters {
                continue;
            }
            let inner_pos = n_iters - 1 - depth; // 0 = statement's last dim
            let m = sc.dims.len();
            if inner_pos < m {
                // This depth hosts scenario dim `dims[m-1-inner_pos]`: pin
                // the row to exactly that iterator.
                let chosen = sc.dims[m - 1 - inner_pos];
                for it in 0..n_iters {
                    let v = layout.iter_coeff(sc.stmt, it);
                    let mut e = LinExpr::var(n, v);
                    if it == chosen {
                        e.set_constant(-1i128); // coeff == 1
                    }
                    cs.add(Constraint::eq0(e));
                }
                if inner_pos == 0 && sc.vectorizable {
                    vector_stmts.push(sc.stmt);
                }
            } else {
                // Outer depth: keep the scenario iterators for later.
                for &it in &sc.dims {
                    cs.add(Constraint::eq0(LinExpr::var(
                        n,
                        layout.iter_coeff(sc.stmt, it),
                    )));
                }
            }
        }
        if fusion {
            add_fusion_constraints(&mut cs, kernel, layout, depth);
        }
        let label = branch_label(kernel, combo, depth, fusion);
        let id = match parent {
            None => tree.add_root(cs, label),
            Some(p) => tree.add_child(p, cs, label),
        };
        for s in vector_stmts {
            tree.mark_vector(id, s);
        }
        parent = Some(id);
    }
}

/// Fusion influence: equate, at this depth, the coefficients of same-named
/// iterators (plus parameter coefficients and the constant) across the
/// statements deep enough to have this dimension. Each class of unknowns
/// is equated as a star on the first such statement carrying it — a
/// spanning tree of the class, so S statements cost S−1 rows per class
/// for the same affine subspace all S(S−1)/2 pairs describe.
fn add_fusion_constraints(
    cs: &mut ConstraintSet,
    kernel: &Kernel,
    layout: &CoeffLayout,
    depth: usize,
) {
    let n = layout.n_vars();
    let mut equate = |hub: usize, v: usize| {
        cs.add(Constraint::eq(&LinExpr::var(n, hub), &LinExpr::var(n, v)));
    };
    let mut iter_hubs: BTreeMap<&str, usize> = BTreeMap::new();
    let mut first: Option<StmtId> = None;
    for (s, stmt) in kernel.statements().iter().enumerate() {
        if depth >= stmt.n_iters() {
            continue;
        }
        let sid = StmtId(s);
        for (i, name) in stmt.iters().iter().enumerate() {
            let v = layout.iter_coeff(sid, i);
            match iter_hubs.entry(name.as_str()) {
                Entry::Occupied(hub) => equate(*hub.get(), v),
                Entry::Vacant(slot) => {
                    slot.insert(v);
                }
            }
        }
        let Some(hub) = first else {
            first = Some(sid);
            continue;
        };
        for p in 0..layout.n_params() {
            equate(layout.param_coeff(hub, p), layout.param_coeff(sid, p));
        }
        equate(layout.const_coeff(hub), layout.const_coeff(sid));
    }
}

fn branch_label(kernel: &Kernel, combo: &[Pick], depth: usize, fusion: bool) -> String {
    let mut parts = Vec::new();
    for sc in combo {
        let stmt = kernel.statement(sc.stmt);
        let names: Vec<&str> = sc.dims.iter().map(|&d| stmt.iters()[d].as_str()).collect();
        parts.push(format!(
            "{}:[{}]{}",
            stmt.name(),
            names.join(","),
            if sc.vectorizable { "v" } else { "" }
        ));
    }
    format!(
        "d{} {}{}",
        depth,
        if fusion { "fused " } else { "relaxed " },
        parts.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ops;

    #[test]
    fn running_example_scenarios_pick_j_for_y() {
        let kernel = ops::running_example(1024);
        let scenarios = build_scenarios(&kernel, &InfluenceOptions::default());
        // Best scenario for Y must put j innermost: C[i][j] store stride 1,
        // D[k][i][j] load stride 1 along j; k gives stride N² on D.
        let best_y = scenarios
            .iter()
            .filter(|s| s.stmt == StmtId(1))
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(*best_y.dims.last().unwrap(), 1, "innermost = j");
        assert!(best_y.vectorizable);
        // X's best: k innermost (stride 1 on both A and B).
        let best_x = scenarios
            .iter()
            .filter(|s| s.stmt == StmtId(0))
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(*best_x.dims.last().unwrap(), 1, "innermost = k");
        assert!(best_x.vectorizable);
    }

    #[test]
    fn transpose_prefers_write_contiguity() {
        // B[j][i] = A[i][j]: along j the load is contiguous (stride 1) but
        // the store jumps (stride rows); along i the store is contiguous.
        // w1 > w2 ⇒ the store side wins: innermost = i.
        let kernel = ops::transpose_2d(1024, 1024);
        let scenarios = build_scenarios(&kernel, &InfluenceOptions::default());
        let best = scenarios
            .iter()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(
            *best.dims.last().unwrap(),
            0,
            "innermost = i (store-contiguous)"
        );
        assert!(best.vectorizable);
    }

    #[test]
    fn odd_extent_disables_vectorization() {
        let kernel = ops::bias_add_relu(33, 33); // 33 not divisible by 2 or 4
        let scenarios = build_scenarios(&kernel, &InfluenceOptions::default());
        assert!(scenarios.iter().all(|s| !s.vectorizable));
    }

    #[test]
    fn tree_structure_for_running_example() {
        let kernel = ops::running_example(1024);
        let tree = build_influence_tree(&kernel, &InfluenceOptions::default());
        assert!(!tree.is_empty());
        // Chains are max_depth = 3 deep; fused branch first.
        let root = tree.first_root().unwrap();
        assert_eq!(tree.depth(root), 0);
        let c1 = tree.first_child(root).unwrap();
        let c2 = tree.first_child(c1).unwrap();
        assert_eq!(tree.first_child(c2), None);
        let rendered = tree.render();
        assert!(rendered.contains("fused"), "{rendered}");
        assert!(rendered.contains("relaxed"), "{rendered}");
        assert!(rendered.contains("vector"), "{rendered}");
    }

    #[test]
    fn variant_toggles_select_scenario_subsets() {
        let kernel = ops::running_example(1024);
        let both = build_influence_tree(&kernel, &InfluenceOptions::default());
        let fused_only = build_influence_tree(
            &kernel,
            &InfluenceOptions {
                relaxed_variants: false,
                ..InfluenceOptions::default()
            },
        );
        let relaxed_only = build_influence_tree(
            &kernel,
            &InfluenceOptions {
                fusion_variants: false,
                ..InfluenceOptions::default()
            },
        );
        let neither = build_influence_tree(
            &kernel,
            &InfluenceOptions {
                fusion_variants: false,
                relaxed_variants: false,
                ..InfluenceOptions::default()
            },
        );
        assert!(!fused_only.render().contains("relaxed"));
        assert!(fused_only.render().contains("fused"));
        assert!(!relaxed_only.render().contains("fused"));
        assert!(relaxed_only.render().contains("relaxed"));
        assert!(both.render().contains("fused") && both.render().contains("relaxed"));
        assert!(neither.is_empty(), "no variants selected = empty tree");
    }

    #[test]
    fn scenario_cap_respected() {
        let kernel = ops::running_example(1024);
        let opts = InfluenceOptions {
            max_scenarios: 2,
            ..InfluenceOptions::default()
        };
        let tree = build_influence_tree(&kernel, &opts);
        // 2 branches × 3 depth nodes.
        assert_eq!(tree.len(), 6);
    }

    #[test]
    fn elementwise_scenarios_are_trivially_vectorizable() {
        let kernel = ops::elementwise_chain(4096, 3);
        let scenarios = build_scenarios(&kernel, &InfluenceOptions::default());
        assert!(scenarios
            .iter()
            .filter(|s| s.dims.len() == 1)
            .all(|s| s.vectorizable));
    }

    /// The all-pairs description the star replaced, kept as the reference
    /// the star is compared against.
    fn all_pairs_fusion(kernel: &Kernel, layout: &CoeffLayout, depth: usize) -> ConstraintSet {
        let n = layout.n_vars();
        let mut cs = ConstraintSet::universe(n);
        let mut equate = |a: usize, b: usize| {
            cs.add(Constraint::eq(&LinExpr::var(n, a), &LinExpr::var(n, b)));
        };
        let stmts = kernel.statements();
        for a in 0..stmts.len() {
            for b in a + 1..stmts.len() {
                if depth >= stmts[a].n_iters() || depth >= stmts[b].n_iters() {
                    continue;
                }
                for (ia, name) in stmts[a].iters().iter().enumerate() {
                    if let Some(ib) = stmts[b].iters().iter().position(|x| x == name) {
                        equate(
                            layout.iter_coeff(StmtId(a), ia),
                            layout.iter_coeff(StmtId(b), ib),
                        );
                    }
                }
                for p in 0..layout.n_params() {
                    equate(
                        layout.param_coeff(StmtId(a), p),
                        layout.param_coeff(StmtId(b), p),
                    );
                }
                equate(layout.const_coeff(StmtId(a)), layout.const_coeff(StmtId(b)));
            }
        }
        cs
    }

    fn star_fusion(kernel: &Kernel, layout: &CoeffLayout, depth: usize) -> ConstraintSet {
        let mut cs = ConstraintSet::universe(layout.n_vars());
        add_fusion_constraints(&mut cs, kernel, layout, depth);
        cs
    }

    /// Four statements over `[i, k]`, `[i, j, k]`, `[j]` and `[k, i]`: every
    /// iterator name is carried by a different subset of statements, at
    /// different positions, and the rank-1 statement drops out below
    /// depth 0.
    fn mixed_names_kernel() -> Kernel {
        use polyject_ir::{ElemType, Expr, Extent, Idx, KernelBuilder, StatementBuilder};
        let mut kb = KernelBuilder::new("mixed_names");
        let p = kb.param("N", 8);
        let n = Extent::Param(p);
        let a = kb.tensor("A", vec![n, n], ElemType::F32);
        let v = kb.tensor("V", vec![n], ElemType::F32);
        let mut stage = |name: &str, iters: &[&str], write: &[usize], read: (_, &[usize])| {
            let out = kb.tensor(format!("O{name}"), vec![n; write.len()], ElemType::F32);
            let idx = |dims: &[usize]| dims.iter().map(|&d| Idx::Iter(d)).collect::<Vec<_>>();
            let mut sb = StatementBuilder::new(name, iters);
            for it in 0..iters.len() {
                sb = sb.bound_extent(it, p);
            }
            let sb = sb
                .write(out, &idx(write))
                .read(read.0, &idx(read.1))
                .expr(Expr::Read(0));
            kb.add_statement(sb).expect("valid statement");
        };
        stage("P", &["i", "k"], &[0, 1], (a, &[0, 1]));
        stage("Q", &["i", "j", "k"], &[0, 1, 2], (a, &[0, 2]));
        stage("R", &["j"], &[0], (v, &[0]));
        stage("S", &["k", "i"], &[0, 1], (a, &[1, 0]));
        kb.finish().expect("valid kernel")
    }

    #[test]
    fn fusion_star_spans_what_all_pairs_span() {
        for kernel in [
            mixed_names_kernel(),
            ops::layernorm_like(6, 8),
            ops::elementwise_chain(64, 5),
        ] {
            assert!(kernel.statements().len() >= 3);
            let layout = CoeffLayout::new(&kernel);
            for depth in 0..3 {
                let star = star_fusion(&kernel, &layout, depth);
                let pairs = all_pairs_fusion(&kernel, &layout, depth);
                assert!(star.len() <= pairs.len());
                assert!(
                    crate::assembly::tests::set_eq(&star, &pairs),
                    "{} depth {depth}\nstar {star:?}\npairs {pairs:?}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn fusion_of_two_statements_is_the_one_pair() {
        let kernel = ops::running_example(64);
        let layout = CoeffLayout::new(&kernel);
        for depth in 0..3 {
            assert_eq!(
                star_fusion(&kernel, &layout, depth),
                all_pairs_fusion(&kernel, &layout, depth),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn thirteen_statement_chain_fuses_in_a_spanning_tree() {
        // 13 pin rows + 12 iterator and 12 constant equalities (all 78
        // pairs used to cost 169).
        let kernel = ops::elementwise_chain(393_216, 13);
        let tree = build_influence_tree(&kernel, &InfluenceOptions::default());
        let root = tree.first_root().expect("non-empty tree");
        assert_eq!(tree.node(root).constraints.len(), 37);
    }
}
