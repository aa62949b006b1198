//! Post-generation passes: GPU block/thread mapping and the backend
//! load/store vectorization pass (the two AKG modifications described at
//! the end of paper Section V).

use crate::ast::{Ast, AstNode, LoopKind, LoopNode, StmtNode};
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
    let mut outer = vec![0i128; l.dim];
    outer.extend_from_slice(params);
    // Bound expressions live over [t_0..t_{d-1}, params…] extended to the
    // global space; pad to the widest expression.
    let width = l
        .lowers
        .iter()
        .chain(&l.uppers)
        .map(|b| b.expr.n_vars())
        .max()?;
    while outer.len() < width {
        outer.insert(l.dim, 0);
    }
    let lo = l.lowers.iter().map(|b| b.eval_lower(&outer)).max()?;
    let hi = l.uppers.iter().map(|b| b.eval_upper(&outer)).min()?;
    if hi < lo {
        return Some(0);
    }
    let step = l.step.max(1) as i128;
    Some((((hi - lo) / step) + 1) as i64)
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
/// into explicit vector-width loops (`float4`/`float2`), when every
/// directly contained statement accesses memory with stride 0 or 1 along
/// the loop and the trip count divides the width.
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
    // Innermost check: body contains only statement leaves.
    let leaves: Vec<&StmtNode> = l
        .body
        .iter()
        .filter_map(|c| match c {
            AstNode::Stmt(s) => Some(s),
            AstNode::Loop(_) => None,
        })
        .collect();
    if leaves.len() != l.body.len() || leaves.is_empty() {
        return count;
    }
    // All leaves must be influence-marked for this dimension, and the
    // loop itself must be dependence-free (parallel after refinement) —
    // wide loads/stores reorder its iterations.
    if !leaves
        .iter()
        .all(|s| schedule.vector_dim(s.stmt) == Some(l.dim))
    {
        return count;
    }
    if l.kind != LoopKind::Parallel {
        return count;
    }
    // Stride discipline: the *write* of every leaf must be contiguous
    // along the loop variable (distinct iterations store distinct cells,
    // emitted as vector stores); reads may mix vector and scalar types
    // (Section V: "we may mix vector types with scalar types").
    for s in &leaves {
        let w = kernel.statement(s.stmt).write();
        match access_stride_along(kernel, s, w, l.dim, params) {
            Some(1) | Some(-1) => {}
            _ => return count,
        }
    }
    // Legality: iterations of a vector loop execute as wide operations, so
    // no dependence may be carried at this dimension among the contained
    // statements. With contiguous writes, the only way a dependence can
    // arise inside the loop is a read of a tensor some leaf writes at a
    // *different* cell: require every such read to target exactly the
    // writer's cell (the read-modify-write pattern of fused operators).
    {
        let pvals: Vec<i64> = params.iter().map(|&v| v as i64).collect();
        let written: Vec<(polyject_ir::TensorId, polyject_sets::LinExpr)> = leaves
            .iter()
            .map(|s| {
                let w = kernel.statement(s.stmt).write();
                (w.tensor(), access_offset_expr(kernel, s, w, &pvals))
            })
            .collect();
        for s in &leaves {
            for a in kernel.statement(s.stmt).reads() {
                for (wt, woff) in &written {
                    if a.tensor() == *wt && access_offset_expr(kernel, s, a, &pvals) != *woff {
                        return count;
                    }
                }
            }
        }
    }
    // Width: largest supported width dividing the trip count.
    let Some(extent) = loop_extent(l, params) else {
        return count;
    };
    let width = [4i64, 2]
        .into_iter()
        .find(|w| extent >= *w && extent % w == 0);
    let Some(w) = width else { return count };
    l.kind = LoopKind::Vector(w as u8);
    count + 1
}

/// The memory stride (in elements) of an access along schedule dimension
/// `t_dim`, obtained by composing the access's affine indices with the
/// statement's iterator-recovery expressions and the tensor's concrete
/// strides. `None` if non-integer.
pub fn access_stride_along(
    kernel: &Kernel,
    stmt_node: &StmtNode,
    access: &polyject_ir::Access,
    t_dim: usize,
    params: &[i128],
) -> Option<i64> {
    let stmt = kernel.statement(stmt_node.stmt);
    let tensor = kernel.tensor(access.tensor());
    let pvals: Vec<i64> = params.iter().map(|&v| v as i64).collect();
    let strides = tensor.strides(&pvals);
    let n_iters = stmt.n_iters();
    let mut total = polyject_arith::Rat::ZERO;
    for (dim, stride) in strides.iter().enumerate() {
        // d(index_dim)/d(t_dim) = Σ_it coeff(index, it)·d(it)/d(t_dim)
        let mut deriv = polyject_arith::Rat::ZERO;
        for it in 0..n_iters {
            let c = access.indices()[dim].coeff(it);
            if !c.is_zero() {
                deriv += c * stmt_node.iter_exprs[it].coeff(t_dim);
            }
        }
        total += deriv * polyject_arith::Rat::int(*stride as i128);
    }
    total.to_integer().map(|v| v as i64)
}

/// Substitutes `iter_exprs` into an access to express its full element
/// offset as an affine function of the global space — how vectorization
/// tells a read of a leaf's own written cell from a read of another.
pub(crate) fn access_offset_expr(
    kernel: &Kernel,
    stmt_node: &StmtNode,
    access: &polyject_ir::Access,
    params: &[i64],
) -> LinExpr {
    let tensor = kernel.tensor(access.tensor());
    let strides = tensor.strides(params);
    let gspace = stmt_node
        .iter_exprs
        .first()
        .map(LinExpr::n_vars)
        .unwrap_or(access.indices().first().map(LinExpr::n_vars).unwrap_or(0));
    let mut total = LinExpr::zero(gspace);
    for (idx, stride) in access.indices().iter().zip(&strides) {
        let composed = stmt_node.compose_index(idx, kernel);
        total = &total + &composed.scaled(polyject_arith::Rat::int(*stride as i128));
    }
    total
}
