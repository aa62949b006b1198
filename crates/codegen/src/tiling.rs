//! Loop tiling (strip-mining) of permutable bands.
//!
//! The paper's production pipeline tiles the permutable bands the
//! scheduler exposes before mapping ("Tile sizes are selected by
//! respective tool auto-tuners", Section VI); this pass implements the
//! strip-mining transformation at the AST level plus a small auto-tuner
//! that picks tile sizes from loop extents and a cache budget.
//!
//! Strip-mining `for t in [lo, hi]` by `T` produces
//!
//! ```text
//! for tt = lo; tt <= hi; tt += T        // tile loop (same dim, step T)
//!   for t = tt; t <= min(hi, tt+T-1)    // point loop
//! ```
//!
//! Both loops share the original schedule dimension's variable slot: the
//! tile loop deposits the tile base into it and the point loop re-reads
//! it as its own lower bound (`Bound` expressions may reference the
//! variable being defined, which is evaluated against the *enclosing*
//! value), so no statement expression needs rewriting.

use crate::ast::{Ast, AstNode, Bound, LoopKind, LoopNode};
use crate::passes::loop_extent;
use polyject_arith::Rat;
use polyject_core::Schedule;
use polyject_ir::Kernel;
use polyject_sets::LinExpr;

/// Options of the tiling pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TilingOptions {
    /// Tile size applied to every tiled loop.
    pub tile_size: i64,
    /// Only loops with at least this many iterations are tiled.
    pub min_extent: i64,
    /// Tile at most this many loops per nest (innermost band members
    /// first), bounding the depth growth.
    pub max_tiled_loops: usize,
}

impl Default for TilingOptions {
    fn default() -> TilingOptions {
        TilingOptions {
            tile_size: 32,
            min_extent: 64,
            max_tiled_loops: 2,
        }
    }
}

/// Picks a tile size for a band from the loop extents and a cache budget,
/// in the spirit of the auto-tuners the paper defers to: the largest
/// power of two `≤ preferred` that divides the innermost extent (falling
/// back to `preferred` with a remainder tile).
pub(crate) fn auto_tile_size(extent: i64, preferred: i64) -> i64 {
    let mut t = preferred.max(2);
    while t > 2 && (extent % t != 0 || extent < t) {
        t /= 2;
    }
    t.min(extent.max(1))
}

/// Tiles the permutable band loops of an AST in place. Returns the number
/// of loops strip-mined.
///
/// Only loops whose schedule dimension is flagged `permutable` (or that
/// are parallel) and whose extent exceeds `min_extent` are tiled; vector
/// loops and scalar dimensions never are. Semantics are preserved for
/// permutable/parallel dimensions by construction (tiling a band member
/// only reorders within the band).
///
/// # Examples
///
/// ```
/// use polyject_codegen::{compile, tile_ast, Config, TilingOptions};
/// use polyject_ir::ops;
///
/// let kernel = ops::transpose_2d(256, 256);
/// let mut c = compile(&kernel, Config::Isl).unwrap();
/// let n = tile_ast(&mut c.ast, &kernel, &c.schedule, TilingOptions::default());
/// assert!(n > 0);
/// ```
pub fn tile_ast(ast: &mut Ast, kernel: &Kernel, schedule: &Schedule, opts: TilingOptions) -> usize {
    let params: Vec<i128> = kernel.param_defaults().iter().map(|&v| v as i128).collect();
    let mut count = 0;
    for root in &mut ast.roots {
        count += tile_node(root, schedule, &params, opts, 0);
    }
    count
}

fn tile_node(
    node: &mut AstNode,
    schedule: &Schedule,
    params: &[i128],
    opts: TilingOptions,
    tiled_so_far: usize,
) -> usize {
    let AstNode::Loop(l) = node else { return 0 };
    let mut count = 0;
    let tileable = tiled_so_far < opts.max_tiled_loops
        && l.step == 1
        && !matches!(l.kind, LoopKind::Vector(_))
        && is_band_dim(schedule, l.dim)
        && loop_extent(l, params).unwrap_or(0) >= opts.min_extent;
    if tileable {
        let extent = loop_extent(l, params).unwrap_or(0);
        let t = auto_tile_size(extent, opts.tile_size);
        if t >= 2 && t < extent {
            strip_mine(l, t);
            count += 1;
            // Recurse into the *point* loop's body (skip re-tiling it).
            let AstNode::Loop(point) = &mut l.body[0] else {
                unreachable!()
            };
            for c in &mut point.body {
                count += tile_node(c, schedule, params, opts, tiled_so_far + count);
            }
            return count;
        }
    }
    for c in &mut l.body {
        count += tile_node(c, schedule, params, opts, tiled_so_far + count);
    }
    count
}

/// Whether a schedule dimension belongs to a tilable band: permutable
/// with a neighbor, or parallel (a 1-wide band is still safely
/// strip-minable).
fn is_band_dim(schedule: &Schedule, dim: usize) -> bool {
    schedule
        .flags()
        .get(dim)
        .map(|f| !f.scalar && (f.permutable || f.parallel))
        .unwrap_or(false)
}

/// Replaces `l` by the tile loop containing the point loop.
fn strip_mine(l: &mut LoopNode, tile: i64) {
    let width = l
        .lowers
        .iter()
        .chain(&l.uppers)
        .map(|b| b.expr.n_vars())
        .max()
        .expect("loop has bounds");
    // Point loop: from the tile base (the value the tile loop left in the
    // shared variable slot) to min(base + T - 1, original uppers).
    let base = LinExpr::var(width, l.dim);
    let mut base_plus = base.clone();
    base_plus.set_constant(Rat::int((tile - 1) as i128));
    let mut point_uppers = l.uppers.clone();
    point_uppers.push(Bound {
        expr: base_plus,
        divisor: 1,
    });
    // Split the hardware mapping by axis role: a *block* axis stays on
    // the tile loop (one tile per block — the structure that makes the
    // tile's working set cache resident) with the point loop walking the
    // tile sequentially, while a *thread* axis stays on the point loop
    // (consecutive threads must keep scanning consecutive points — the
    // coalescing axis) with the tile loop reverting to plain parallel.
    let (tile_kind, point_kind) = match l.kind {
        LoopKind::Block(a) => (LoopKind::Block(a), LoopKind::Seq),
        LoopKind::Seq => (LoopKind::Seq, LoopKind::Seq),
        k => (LoopKind::Parallel, k),
    };
    let point = LoopNode {
        dim: l.dim,
        var: format!("{}p", l.var),
        lowers: vec![Bound {
            expr: base,
            divisor: 1,
        }],
        uppers: point_uppers,
        kind: point_kind,
        step: 1,
        body: std::mem::take(&mut l.body),
    };
    l.var = format!("{}t", l.var);
    l.step = tile;
    l.kind = tile_kind;
    l.body = vec![AstNode::Loop(point)];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, Config};
    use polyject_ir::ops;

    #[test]
    fn auto_tile_size_prefers_divisors() {
        assert_eq!(auto_tile_size(256, 32), 32);
        assert_eq!(auto_tile_size(48, 32), 16);
        assert_eq!(auto_tile_size(20, 32), 4);
        assert_eq!(auto_tile_size(7, 32), 2);
    }

    #[test]
    fn tiling_preserves_structure() {
        let kernel = ops::transpose_2d(128, 128);
        let c = compile(&kernel, Config::Isl).unwrap();
        let mut ast = c.ast.clone();
        let before = ast.loops().len();
        let n = tile_ast(&mut ast, &kernel, &c.schedule, TilingOptions::default());
        assert_eq!(n, 2, "both loops tiled");
        assert_eq!(ast.loops().len(), before + 2);
        // Tile loops step by the tile size; point loops step 1.
        let steps: Vec<i64> = ast.loops().iter().map(|l| l.step).collect();
        assert_eq!(steps, vec![32, 1, 32, 1]);
    }

    #[test]
    fn vector_loops_never_tiled() {
        let kernel = ops::transpose_2d(256, 256);
        let mut compiled = compile(&kernel, Config::Influenced).unwrap();
        assert!(compiled.vector_loops > 0);
        tile_ast(
            &mut compiled.ast,
            &kernel,
            &compiled.schedule,
            TilingOptions::default(),
        );
        for l in compiled.ast.loops() {
            if matches!(l.kind, LoopKind::Vector(_)) {
                assert_eq!(l.step, 1, "vector loop left intact (step is width-driven)");
            }
        }
    }
}
