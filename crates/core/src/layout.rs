//! The variable layout of the per-dimension scheduling ILP.
//!
//! When the scheduler constructs dimension `d`, the unknowns of its integer
//! linear program are laid out as:
//!
//! ```text
//! [ u_0 … u_{p-1} | w | stmt0: c_iter…, c_param…, c_const | stmt1: … ]
//! ```
//!
//! where `u, w` bound the reuse distance (paper eq. (2)) and each
//! statement block holds the coefficients of one schedule row
//! `φ_{S,d}(i, p) = c_iter·i + c_param·p + c_const`.

use polyject_ir::{Kernel, StmtId};
use polyject_sets::{ConstraintSet, LinExpr};

/// Describes where each unknown of the per-dimension ILP lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CoeffLayout {
    n_params: usize,
    stmt_offsets: Vec<usize>,
    stmt_iters: Vec<usize>,
    total: usize,
}

impl CoeffLayout {
    /// Builds the layout for a kernel.
    pub fn new(kernel: &Kernel) -> CoeffLayout {
        let n_params = kernel.n_params();
        let mut stmt_offsets = Vec::with_capacity(kernel.statements().len());
        let mut stmt_iters = Vec::with_capacity(kernel.statements().len());
        let mut off = n_params + 1; // after u… and w
        for s in kernel.statements() {
            stmt_offsets.push(off);
            stmt_iters.push(s.n_iters());
            off += s.n_iters() + n_params + 1;
        }
        CoeffLayout {
            n_params,
            stmt_offsets,
            stmt_iters,
            total: off,
        }
    }

    /// The compact layout of `stmts` (ascending, distinct): `u…, w` and
    /// those statements' blocks alone, renumbered `0..` in that order. A
    /// dependence relation touches one or two blocks however many the
    /// kernel has, so its systems are built here and [`embed`]ded.
    ///
    /// [`embed`]: CoeffLayout::embed
    pub(crate) fn compact(&self, stmts: &[StmtId]) -> CoeffLayout {
        let mut off = self.n_params + 1;
        let mut stmt_offsets = Vec::with_capacity(stmts.len());
        for &s in stmts {
            stmt_offsets.push(off);
            off += self.stmt_vars(s).len();
        }
        CoeffLayout {
            n_params: self.n_params,
            stmt_offsets,
            stmt_iters: stmts.iter().map(|&s| self.n_iters(s)).collect(),
            total: off,
        }
    }

    /// Embeds a system over [`compact`](CoeffLayout::compact)`(stmts)`
    /// into this layout, row for row: every unknown keeps its relative
    /// position (the embedding is monotone) and the blocks of all other
    /// statements are zero columns.
    pub(crate) fn embed(&self, stmts: &[StmtId], mut cs: ConstraintSet) -> ConstraintSet {
        // `at` is the first index not yet aligned with this layout.
        let mut at = self.n_params + 1;
        let blocks = stmts.iter().map(|&s| self.stmt_vars(s));
        for block in blocks.chain(std::iter::once(self.total..self.total)) {
            if block.start > at {
                cs = cs.with_vars_inserted(at, block.start - at);
            }
            at = block.end;
        }
        cs
    }

    /// Total number of ILP unknowns.
    pub fn n_vars(&self) -> usize {
        self.total
    }

    /// Number of kernel parameters.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of statements.
    pub(crate) fn n_statements(&self) -> usize {
        self.stmt_offsets.len()
    }

    /// Number of iterators of a statement.
    pub fn n_iters(&self, s: StmtId) -> usize {
        self.stmt_iters[s.0]
    }

    /// Index of the reuse-bound coefficient `u_p`.
    pub(crate) fn u(&self, p: usize) -> usize {
        assert!(p < self.n_params, "parameter index out of range");
        p
    }

    /// Index of the reuse-bound constant `w`.
    pub(crate) fn w(&self) -> usize {
        self.n_params
    }

    /// Index of statement `s`'s coefficient for iterator `i`.
    pub fn iter_coeff(&self, s: StmtId, i: usize) -> usize {
        assert!(i < self.stmt_iters[s.0], "iterator index out of range");
        self.stmt_offsets[s.0] + i
    }

    /// Index of statement `s`'s coefficient for parameter `p`.
    pub(crate) fn param_coeff(&self, s: StmtId, p: usize) -> usize {
        assert!(p < self.n_params, "parameter index out of range");
        self.stmt_offsets[s.0] + self.stmt_iters[s.0] + p
    }

    /// Index of statement `s`'s constant coefficient.
    pub(crate) fn const_coeff(&self, s: StmtId) -> usize {
        self.stmt_offsets[s.0] + self.stmt_iters[s.0] + self.n_params
    }

    /// A unit [`LinExpr`] selecting one unknown.
    pub(crate) fn var_expr(&self, index: usize) -> LinExpr {
        LinExpr::var(self.total, index)
    }

    /// All unknown indices belonging to statement `s` (iterators, then
    /// parameters, then the constant).
    pub(crate) fn stmt_vars(&self, s: StmtId) -> std::ops::Range<usize> {
        let start = self.stmt_offsets[s.0];
        start..start + self.stmt_iters[s.0] + self.n_params + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ops;

    #[test]
    fn running_example_layout() {
        let kernel = ops::running_example(8);
        let l = CoeffLayout::new(&kernel);
        // 1 param: u, w = 2; X: 2 iters + 1 param + 1 = 4; Y: 3 + 1 + 1 = 5.
        assert_eq!(l.n_vars(), 11);
        assert_eq!(l.u(0), 0);
        assert_eq!(l.w(), 1);
        assert_eq!(l.iter_coeff(StmtId(0), 0), 2);
        assert_eq!(l.iter_coeff(StmtId(0), 1), 3);
        assert_eq!(l.param_coeff(StmtId(0), 0), 4);
        assert_eq!(l.const_coeff(StmtId(0)), 5);
        assert_eq!(l.iter_coeff(StmtId(1), 0), 6);
        assert_eq!(l.const_coeff(StmtId(1)), 10);
        assert_eq!(l.stmt_vars(StmtId(1)), 6..11);
    }

    #[test]
    #[should_panic(expected = "iterator index out of range")]
    fn bad_iterator_panics() {
        let kernel = ops::running_example(8);
        let l = CoeffLayout::new(&kernel);
        let _ = l.iter_coeff(StmtId(0), 2);
    }
}
