//! The generated-code AST: loop nests over schedule dimensions with
//! statement instances at the leaves.

use polyject_ir::{Kernel, StmtId};
use polyject_sets::{Constraint, LinExpr};
use std::fmt;

/// How a loop executes after GPU mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LoopKind {
    /// Plain sequential loop.
    #[default]
    Seq,
    /// Parallel loop not (yet) mapped to hardware.
    Parallel,
    /// Mapped to a CUDA block index axis (0 = x, 1 = y, 2 = z).
    Block(u8),
    /// Mapped to a CUDA thread index axis (0 = x, 1 = y, 2 = z).
    Thread(u8),
    /// Load/store-vectorized loop with the given element width (2 or 4).
    Vector(u8),
}

impl fmt::Display for LoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopKind::Seq => write!(f, "for"),
            LoopKind::Parallel => write!(f, "forall"),
            LoopKind::Block(a) => write!(f, "forall/*blockIdx.{}*/", axis_name(*a)),
            LoopKind::Thread(a) => write!(f, "forall/*threadIdx.{}*/", axis_name(*a)),
            LoopKind::Vector(w) => write!(f, "forvec/*x{w}*/"),
        }
    }
}

pub(crate) fn axis_name(a: u8) -> char {
    match a {
        0 => 'x',
        1 => 'y',
        _ => 'z',
    }
}

/// An affine bound `expr / divisor` (`ceil` for lowers, `floor` for
/// uppers) over `[t_0..t_{d-1}, params...]` — the outer schedule variables
/// and the kernel parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// The numerator expression.
    pub expr: LinExpr,
    /// The (positive) divisor.
    pub divisor: i128,
}

impl Bound {
    /// Evaluates the bound at concrete outer values, rounding as a lower
    /// bound (`ceil`).
    pub(crate) fn eval_lower(&self, outer: &[i128]) -> i128 {
        (self.expr.eval_int(outer) / polyject_arith::Rat::int(self.divisor)).ceil()
    }

    /// Evaluates the bound at concrete outer values, rounding as an upper
    /// bound (`floor`).
    pub(crate) fn eval_upper(&self, outer: &[i128]) -> i128 {
        (self.expr.eval_int(outer) / polyject_arith::Rat::int(self.divisor)).floor()
    }
}

/// A loop over one schedule dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNode {
    /// The schedule dimension this loop scans.
    pub dim: usize,
    /// Loop variable name (`c0`, `c1`, …).
    pub var: String,
    /// Lower bounds; the loop starts at their maximum.
    pub lowers: Vec<Bound>,
    /// Upper bounds (inclusive); the loop ends at their minimum.
    pub uppers: Vec<Bound>,
    /// Execution kind.
    pub kind: LoopKind,
    /// Iteration step (1 except for the outer part of a strip-mined
    /// (tiled) loop, which advances by the tile size).
    pub step: i64,
    /// Loop body.
    pub body: Vec<AstNode>,
}

impl LoopNode {
    /// Concrete inclusive range at given outer values: `(lo, hi)`.
    pub(crate) fn range(&self, outer: &[i128]) -> (i128, i128) {
        let lo = self
            .lowers
            .iter()
            .map(|b| b.eval_lower(outer))
            .max()
            .expect("lower bound");
        let hi = self
            .uppers
            .iter()
            .map(|b| b.eval_upper(outer))
            .min()
            .expect("upper bound");
        (lo, hi)
    }

    /// The values the loop variable takes at given outer values.
    pub fn values(&self, outer: &[i128]) -> impl Iterator<Item = i128> {
        let (lo, hi) = self.range(outer);
        let step = self.step.max(1) as i128;
        (lo..=hi).step_by(step as usize)
    }
}

/// A statement instance: how to recover the statement's iterators from the
/// schedule variables, plus residual guards.
#[derive(Clone, Debug, PartialEq)]
pub struct StmtNode {
    /// The statement.
    pub stmt: StmtId,
    /// One expression per statement iterator, over
    /// `[t_0..t_{depth-1}, params...]`.
    pub iter_exprs: Vec<LinExpr>,
    /// Residual guard constraints over the same space (empty when the
    /// enclosing loop bounds are exact for this statement).
    pub guards: Vec<Constraint>,
    /// Depth of the schedule-variable prefix the expressions refer to.
    pub depth: usize,
    /// Under a vector loop, how each read touches memory across the
    /// lanes, as [`crate::vectorize`] recorded it (the store is always
    /// [`Lanes::Wide`]); empty elsewhere.
    pub lanes: Vec<Lanes>,
}

/// How one access of a vector leaf touches memory across the `w` lanes of
/// its loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lanes {
    /// Stride 1 and aligned to `w` elements: one wide access of `w`
    /// consecutive cells from lane 0's address.
    Wide,
    /// Stride 0: lane 0's cell serves every lane.
    Broadcast,
    /// Anything else: each lane its own cell, one scalar access each.
    PerLane,
}

impl StmtNode {
    /// Composes one access index (over `[iters, params]`) into the global
    /// `[t_0.., params...]` space by substituting the iterator-recovery
    /// expressions.
    pub(crate) fn compose_index(&self, idx: &LinExpr, kernel: &Kernel) -> LinExpr {
        let n_iters = self.iter_exprs.len();
        let mut e = LinExpr::constant(self.depth + kernel.n_params(), idx.constant_term());
        for (it, recover) in self.iter_exprs.iter().enumerate() {
            let c = idx.coeff(it);
            if !c.is_zero() {
                e = &e + &recover.scaled(c);
            }
        }
        for p in 0..kernel.n_params() {
            let v = self.depth + p;
            e.set_coeff(v, e.coeff(v) + idx.coeff(n_iters + p));
        }
        e
    }

    /// Evaluates the iterator vector at concrete schedule-variable and
    /// parameter values; `None` if a guard fails or an iterator is
    /// fractional.
    pub fn instance(&self, time_and_params: &[i128]) -> Option<Vec<i64>> {
        for g in &self.guards {
            if !g.is_satisfied_int(time_and_params) {
                return None;
            }
        }
        self.iter_exprs
            .iter()
            .map(|e| e.eval_int(time_and_params).to_integer().map(|v| v as i64))
            .collect()
    }
}

/// A node of the generated AST.
#[derive(Clone, Debug, PartialEq)]
pub enum AstNode {
    /// A loop.
    Loop(LoopNode),
    /// A statement instance leaf.
    Stmt(StmtNode),
}

impl AstNode {
    /// Depth-first iteration over all loops.
    pub(crate) fn for_each_loop<'s>(&'s self, f: &mut impl FnMut(&'s LoopNode)) {
        if let AstNode::Loop(l) = self {
            f(l);
            for c in &l.body {
                c.for_each_loop(f);
            }
        }
    }

    /// Depth-first mutable iteration over all loops.
    pub(crate) fn for_each_loop_mut(&mut self, f: &mut impl FnMut(&mut LoopNode)) {
        if let AstNode::Loop(l) = self {
            f(l);
            for c in &mut l.body {
                c.for_each_loop_mut(f);
            }
        }
    }

    /// All statement leaves under this node.
    pub fn statements(&self) -> Vec<&StmtNode> {
        let mut out = Vec::new();
        self.collect_stmts(&mut out);
        out
    }

    fn collect_stmts<'s>(&'s self, out: &mut Vec<&'s StmtNode>) {
        match self {
            AstNode::Stmt(s) => out.push(s),
            AstNode::Loop(l) => {
                for c in &l.body {
                    c.collect_stmts(out);
                }
            }
        }
    }
}

/// A complete generated program: a sequence of top-level nodes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ast {
    /// Top-level nodes in execution order.
    pub roots: Vec<AstNode>,
    /// Number of kernel parameters referenced by bound expressions.
    pub n_params: usize,
}

impl Ast {
    /// Width of the global variable space `[t…, params…]` the AST's
    /// expressions live over.
    pub fn width(&self) -> usize {
        self.statements().first().map_or(0, |s| s.depth) + self.n_params
    }

    /// All loops of the program, depth-first.
    pub fn loops(&self) -> Vec<&LoopNode> {
        let mut out = Vec::new();
        for r in &self.roots {
            r.for_each_loop(&mut |l| out.push(l));
        }
        out
    }

    /// All statement leaves.
    pub fn statements(&self) -> Vec<&StmtNode> {
        let mut out = Vec::new();
        for r in &self.roots {
            out.extend(r.statements());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_rounding() {
        // t/2 as lower: ceil; as upper: floor.
        let b = Bound {
            expr: LinExpr::from_coeffs(&[1], 1),
            divisor: 2,
        };
        assert_eq!(b.eval_lower(&[2]), 2); // ceil(3/2)
        assert_eq!(b.eval_upper(&[2]), 1); // floor(3/2)
    }

    #[test]
    fn loop_range() {
        let l = LoopNode {
            dim: 0,
            var: "c0".into(),
            lowers: vec![Bound {
                expr: LinExpr::from_coeffs(&[0], 0),
                divisor: 1,
            }],
            uppers: vec![Bound {
                expr: LinExpr::from_coeffs(&[1], -1),
                divisor: 1,
            }],
            kind: LoopKind::Seq,
            step: 1,
            body: vec![],
        };
        // Space: [N]; range 0..=N-1.
        assert_eq!(l.range(&[8]), (0, 7));
        let tiled = LoopNode {
            step: 3,
            ..l.clone()
        };
        assert_eq!(tiled.values(&[8]).collect::<Vec<_>>(), vec![0, 3, 6]);
    }

    #[test]
    fn stmt_instance_guard() {
        let s = StmtNode {
            stmt: StmtId(0),
            iter_exprs: vec![LinExpr::from_coeffs(&[1, 0], 0)],
            guards: vec![Constraint::ge0(LinExpr::from_coeffs(&[1, 0], -2))],
            depth: 1,
            lanes: Vec::new(),
        };
        assert_eq!(s.instance(&[5, 9]), Some(vec![5]));
        assert_eq!(s.instance(&[1, 9]), None); // guard t >= 2 fails
    }

    #[test]
    fn loopkind_display() {
        assert_eq!(LoopKind::Seq.to_string(), "for");
        assert_eq!(LoopKind::Parallel.to_string(), "forall");
        assert_eq!(LoopKind::Vector(4).to_string(), "forvec/*x4*/");
        assert_eq!(LoopKind::Thread(0).to_string(), "forall/*threadIdx.x*/");
    }
}
