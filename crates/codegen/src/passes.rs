//! Post-generation passes: GPU block/thread mapping and the backend
//! load/store vectorization pass (the two AKG modifications described at
//! the end of paper Section V).

use crate::ast::{Ast, AstNode, Bound, Lanes, LoopKind, LoopNode, StmtNode};
use polyject_arith::Rat;
use polyject_core::Schedule;
use polyject_ir::Kernel;
use polyject_sets::LinExpr;

/// Options of the mapping pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MappingOptions {
    /// Maximum threads per block.
    pub max_threads: i64,
    /// Maximum thread axes to use (CUDA allows 3).
    pub max_thread_axes: usize,
    /// Maximum block axes to use.
    pub max_block_axes: usize,
}

impl Default for MappingOptions {
    fn default() -> MappingOptions {
        MappingOptions {
            max_threads: 1024,
            max_thread_axes: 2,
            max_block_axes: 3,
        }
    }
}

/// Maps parallel loops of the AST to CUDA blocks and threads, skipping
/// loops marked for vectorization (the paper's first AKG modification).
///
/// Strategy per loop nest, mirroring AKG's default: the *innermost*
/// non-vector parallel loop becomes `threadIdx.x` (so that consecutive
/// threads scan consecutive schedule points — the coalescing axis), the
/// next one out `threadIdx.y` while the thread budget lasts, and remaining
/// outer parallel loops become block axes.
pub fn map_to_gpu(ast: &mut Ast, kernel: &Kernel, opts: MappingOptions) {
    let params = kernel.param_defaults();
    let pvals: Vec<i128> = params.iter().map(|&v| v as i128).collect();
    for root in &mut ast.roots {
        map_nest(root, &pvals, opts);
    }
}

fn map_nest(node: &mut AstNode, params: &[i128], opts: MappingOptions) {
    // Collect the parallel loops of this nest in outer-to-inner DFS order
    // (keyed by schedule dimension, which identifies a loop within a
    // nest). A dimension that already carries a hardware axis somewhere
    // in the nest (a tiled loop's point half, or a prior mapping pass) is
    // never remapped — assigning it again would duplicate the axis.
    let mut mapped: Vec<usize> = Vec::new();
    node.for_each_loop(&mut |l| {
        if matches!(l.kind, LoopKind::Thread(_) | LoopKind::Block(_)) {
            mapped.push(l.dim);
        }
    });
    let mut candidates: Vec<(usize, i64)> = Vec::new();
    node.for_each_loop(&mut |l| {
        if l.kind == LoopKind::Parallel
            && !mapped.contains(&l.dim)
            && !candidates.iter().any(|(d, _)| *d == l.dim)
        {
            candidates.push((l.dim, loop_extent(l, params).unwrap_or(i64::MAX)));
        }
    });
    // Vectorized loops (from the earlier vectorize pass) implicitly own
    // `threadIdx.x`: each thread handles `width` consecutive iterations of
    // the vector loop, so its strip-mined outer part is the x axis.
    let mut kinds: Vec<(usize, LoopKind)> = Vec::new();
    let mut budget = opts.max_threads;
    let mut thread_axis = 0usize;
    node.for_each_loop(&mut |l| {
        if let LoopKind::Vector(w) = l.kind {
            if thread_axis == 0 {
                thread_axis = 1;
                let groups = loop_extent(l, params).unwrap_or(i64::MAX) / i64::from(w);
                budget /= groups.clamp(1, budget);
            }
        }
    });
    let mut threaded = vec![false; candidates.len()];
    for (idx, &(dim, extent)) in candidates.iter().enumerate().rev() {
        // The innermost parallel loop always becomes `threadIdx.x`
        // (conceptually strip-mined into grid × block by the runtime when
        // its extent exceeds the block size); outer loops become thread
        // axes only while they fit the remaining block budget.
        let take = thread_axis == 0 || extent <= budget;
        if thread_axis < opts.max_thread_axes && budget > 1 && take {
            kinds.push((dim, LoopKind::Thread(thread_axis as u8)));
            threaded[idx] = true;
            budget /= extent.clamp(1, budget);
            thread_axis += 1;
        } else {
            break;
        }
    }
    let mut block_axis = 0usize;
    for (idx, &(dim, _)) in candidates.iter().enumerate() {
        if threaded[idx] || block_axis >= opts.max_block_axes {
            continue;
        }
        kinds.push((dim, LoopKind::Block(block_axis as u8)));
        block_axis += 1;
    }
    node.for_each_loop_mut(&mut |l| {
        if l.kind == LoopKind::Parallel {
            if let Some((_, k)) = kinds.iter().find(|(d, _)| *d == l.dim) {
                l.kind = *k;
            }
        }
    });
}

/// Trip count of a loop assuming rectangular bounds (evaluated with outer
/// schedule variables at zero — exact for the fused-operator domain).
pub fn loop_extent(l: &LoopNode, params: &[i128]) -> Option<i64> {
    // Bound expressions live over the global space [t…, params…].
    let mut outer = vec![0i128; l.lowers.first()?.expr.n_vars() - params.len()];
    outer.extend_from_slice(params);
    let (lo, hi) = l.range(&outer);
    let step = l.step.max(1) as i128;
    Some((hi - lo + step).div_euclid(step).max(0) as i64)
}

/// Refines loop parallelism per *generated loop*: a schedule dimension
/// that is not coincident across the whole kernel may still yield parallel
/// loops once code generation has split the statements apart (e.g. the
/// running example's `j` loop contains only `Y` and carries no dependence
/// among its own statements). AKG/isl mark coincidence per band member in
/// the same spirit.
///
/// Only upgrades `Seq` → `Parallel`; never downgrades.
pub fn refine_parallel_loops(
    ast: &mut Ast,
    schedule: &polyject_core::Schedule,
    deps: &polyject_deps::Dependences,
) {
    for root in &mut ast.roots {
        refine_node(root, schedule, deps);
    }
}

fn refine_node(
    node: &mut AstNode,
    schedule: &polyject_core::Schedule,
    deps: &polyject_deps::Dependences,
) {
    let AstNode::Loop(l) = node else { return };
    if l.kind == LoopKind::Seq {
        let mut inside: Vec<polyject_ir::StmtId> = Vec::new();
        for c in &l.body {
            inside.extend(c.statements().iter().map(|s| s.stmt));
        }
        inside.sort();
        inside.dedup();
        let relevant = deps
            .validity()
            .filter(|r| inside.contains(&r.source) && inside.contains(&r.target));
        if polyject_core::dim_is_coincident(relevant, schedule, l.dim) {
            l.kind = LoopKind::Parallel;
        }
    }
    for c in &mut l.body {
        refine_node(c, schedule, deps);
    }
}

/// The backend vectorization pass (the paper's second AKG modification):
/// rewrites innermost loops that the influence marked as vector candidates
/// into explicit vector-width loops, and records on each leaf how its
/// reads touch memory across the lanes ([`Lanes`]) — the one vector
/// decision the CUDA printer, the interpreter and the timing model read.
///
/// A loop is vectorized when its width `w` (4 or 2) divides the trip
/// count and every directly contained statement stores wide: stride +1
/// along the loop and aligned to `w` at the compiled parameters, under a
/// guard (if any) that does not mention the loop. A stride −1 or
/// unaligned store, or a guard on the loop variable, leaves it scalar.
///
/// Returns the number of loops vectorized.
pub fn vectorize(ast: &mut Ast, kernel: &Kernel, schedule: &Schedule) -> usize {
    let params = kernel.param_defaults();
    let pvals: Vec<i128> = params.iter().map(|&v| v as i128).collect();
    let mut count = 0;
    for root in &mut ast.roots {
        count += vectorize_node(root, kernel, schedule, &pvals);
    }
    count
}

fn vectorize_node(
    node: &mut AstNode,
    kernel: &Kernel,
    schedule: &Schedule,
    params: &[i128],
) -> usize {
    let AstNode::Loop(l) = node else { return 0 };
    let mut count = 0;
    for c in &mut l.body {
        count += vectorize_node(c, kernel, schedule, params);
    }
    // Innermost (only statement leaves), every leaf influence-marked for
    // this dimension, and the loop dependence-free (parallel after
    // refinement) — wide loads/stores reorder its iterations.
    let leaves: Vec<&StmtNode> = (l.body.iter())
        .filter_map(|c| match c {
            AstNode::Stmt(s) => Some(s),
            AstNode::Loop(_) => None,
        })
        .collect();
    let marked = |s: &&StmtNode| schedule.vector_dim(s.stmt) == Some(l.dim);
    if leaves.len() != l.body.len() || leaves.is_empty() || !leaves.iter().all(marked) {
        return count;
    }
    // Width: largest supported width dividing the trip count.
    let width = |e: i64| [4i64, 2].into_iter().find(|w| e >= *w && e % w == 0);
    let Some(w) = loop_extent(l, params).and_then(width) else {
        return count;
    };
    if l.kind != LoopKind::Parallel {
        return count;
    }
    // Every store is wide; reads may mix vector and scalar types
    // (Section V: "we may mix vector types with scalar types").
    let pvals: Vec<i64> = params.iter().map(|&v| v as i64).collect();
    let mut written = Vec::with_capacity(leaves.len());
    let mut reads = Vec::with_capacity(leaves.len());
    for s in &leaves {
        let stmt = kernel.statement(s.stmt);
        let offset = |a| access_offset_expr(kernel, s, a, &pvals);
        let woff = offset(stmt.write());
        let lane_guard = s.guards.iter().any(|g| g.coeff(l.dim) != 0);
        if lane_guard || lanes(&woff, l, w, params) != Lanes::Wide {
            return count;
        }
        written.push((stmt.write().tensor(), woff));
        let offsets = stmt.reads().iter().map(|a| (a.tensor(), offset(a)));
        reads.push(offsets.collect::<Vec<_>>());
    }
    // Legality: iterations of a vector loop execute as wide operations, so
    // no dependence may be carried at this dimension among the contained
    // statements. With distinct stored cells, the only way a dependence
    // can arise inside the loop is a read of a tensor some leaf writes at
    // a *different* cell: require every such read to target exactly the
    // writer's cell (the read-modify-write pattern of fused operators).
    let foreign = |(t, off): &(_, _)| written.iter().any(|(wt, w)| t == wt && off != w);
    if reads.iter().flatten().any(foreign) {
        return count;
    }
    let form = |rs: &Vec<(_, _)>| rs.iter().map(|(_, off)| lanes(off, l, w, params)).collect();
    let forms: Vec<Vec<Lanes>> = reads.iter().map(form).collect();
    l.kind = LoopKind::Vector(w as u8);
    for (c, form) in l.body.iter_mut().zip(forms) {
        if let AstNode::Stmt(s) = c {
            s.lanes = form;
        }
    }
    count + 1
}

/// How an access at flat offset `off` touches memory across the lanes of
/// the vector loop `l` of width `w`.
fn lanes(off: &LinExpr, l: &LoopNode, w: i64, params: &[i128]) -> Lanes {
    let stride = off.coeff(l.dim);
    if stride.is_zero() {
        Lanes::Broadcast
    } else if stride == Rat::ONE && l.lowers.iter().all(|b| aligned(off, b, l.dim, w, params)) {
        Lanes::Wide
    } else {
        Lanes::PerLane
    }
}

/// Whether a unit-stride offset is a multiple of `w` at every lane 0 of
/// the loop over `dim` that starts at lower bound `b` — for every outer
/// value, at the compiled parameters.
fn aligned(off: &LinExpr, b: &Bound, dim: usize, w: i64, params: &[i128]) -> bool {
    let mut first = off + &b.expr;
    first.set_coeff(dim, first.coeff(dim) - Rat::ONE);
    let n_t = first.n_vars() - params.len();
    let folded = params
        .iter()
        .enumerate()
        .fold(first.constant_term(), |acc, (p, &v)| {
            acc + first.coeff(n_t + p) * Rat::int(v)
        });
    let multiple = |c: &Rat| c.to_integer().is_some_and(|v| v % i128::from(w) == 0);
    b.divisor == 1 && first.coeffs()[..n_t].iter().all(multiple) && multiple(&folded)
}

/// The memory stride (in elements) of an access along schedule dimension
/// `t_dim`: the coefficient of [`access_offset_expr`] there. `None` if
/// non-integer.
pub fn access_stride_along(
    kernel: &Kernel,
    stmt_node: &StmtNode,
    access: &polyject_ir::Access,
    t_dim: usize,
    params: &[i128],
) -> Option<i64> {
    let pvals: Vec<i64> = params.iter().map(|&v| v as i64).collect();
    let off = access_offset_expr(kernel, stmt_node, access, &pvals);
    off.coeff(t_dim).to_integer().map(|v| v as i64)
}

/// The flat element offset of an access, as an affine function of the
/// global space `[t_0.., params...]`: its indices composed with the
/// leaf's iterator-recovery expressions and weighted by the tensor's
/// strides at `params`. The one address function: vectorization, the
/// CUDA printer, the interpreter's vector lanes and the timing model all
/// read addresses from it.
pub fn access_offset_expr(
    kernel: &Kernel,
    stmt_node: &StmtNode,
    access: &polyject_ir::Access,
    params: &[i64],
) -> LinExpr {
    // Composing is linear: flatten over [iters, params], then compose once.
    let strides = kernel.tensor(access.tensor()).strides(params);
    let mut flat = LinExpr::zero(stmt_node.iter_exprs.len() + kernel.n_params());
    for (idx, stride) in access.indices().iter().zip(&strides) {
        flat = &flat + &idx.scaled(Rat::int(*stride as i128));
    }
    stmt_node.compose_index(&flat, kernel)
}
