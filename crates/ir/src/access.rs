//! Affine memory accesses.

use crate::types::{ParamId, TensorId};
use polyject_sets::LinExpr;

/// A convenient way to write one index expression of an access. The paper's
/// fused operators only use constants and single iterators with coefficient
/// 1 ("access functions are extremely simple"); [`Idx::Expr`] is the
/// general escape hatch.
#[derive(Clone, Debug, PartialEq)]
pub enum Idx {
    /// The statement iterator at the given position.
    Iter(usize),
    /// `iterator + offset`.
    IterPlus(usize, i64),
    /// A constant index.
    Const(i64),
    /// A kernel parameter value used as an index.
    Param(ParamId),
    /// A fully general affine expression over `[iters..., params...]`.
    Expr(LinExpr),
}

impl Idx {
    /// Lowers this index into a [`LinExpr`] over the statement's space of
    /// `n_iters` iterators followed by `n_params` parameters.
    ///
    /// # Panics
    ///
    /// Panics if an iterator/parameter position is out of range, or if an
    /// `Idx::Expr` has the wrong variable count.
    pub(crate) fn lower(&self, n_iters: usize, n_params: usize) -> LinExpr {
        let n = n_iters + n_params;
        match self {
            Idx::Iter(i) => {
                assert!(*i < n_iters, "iterator index out of range");
                LinExpr::var(n, *i)
            }
            Idx::IterPlus(i, c) => {
                assert!(*i < n_iters, "iterator index out of range");
                let mut e = LinExpr::var(n, *i);
                e.set_constant(*c as i128);
                e
            }
            Idx::Const(c) => LinExpr::constant(n, *c as i128),
            Idx::Param(p) => {
                assert!(p.0 < n_params, "parameter index out of range");
                LinExpr::var(n, n_iters + p.0)
            }
            Idx::Expr(e) => {
                assert_eq!(e.n_vars(), n, "index expression space mismatch");
                e.clone()
            }
        }
    }
}

/// An affine access to a tensor: one [`LinExpr`] per tensor dimension, over
/// the owning statement's `[iters..., params...]` space.
///
/// # Examples
///
/// ```
/// // The read A[i][j] of the transpose B[j][i] = A[i][j], A 4 x 16.
/// let kernel = polyject_ir::ops::transpose_2d(4, 16);
/// let acc = &kernel.statements()[0].reads()[0];
/// assert_eq!(acc.stride_along(0, &[16, 1]), 16); // i walks rows
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Access {
    tensor: TensorId,
    indices: Vec<LinExpr>,
    n_iters: usize,
    n_params: usize,
}

impl Access {
    /// Creates an access from index descriptions.
    pub(crate) fn new(
        tensor: TensorId,
        indices: &[Idx],
        n_iters: usize,
        n_params: usize,
    ) -> Access {
        Access {
            tensor,
            indices: indices.iter().map(|i| i.lower(n_iters, n_params)).collect(),
            n_iters,
            n_params,
        }
    }

    /// The accessed tensor.
    pub fn tensor(&self) -> TensorId {
        self.tensor
    }

    /// The affine index expressions (one per tensor dimension).
    pub fn indices(&self) -> &[LinExpr] {
        &self.indices
    }

    /// Number of iterators of the owning statement.
    pub fn n_iters(&self) -> usize {
        self.n_iters
    }

    /// Evaluates the multi-index at a concrete iteration/parameter point.
    ///
    /// # Panics
    ///
    /// Panics if an index expression evaluates to a non-integer (never
    /// happens for integer-coefficient accesses).
    pub(crate) fn eval_index(&self, iters: &[i64], param_values: &[i64]) -> Vec<i64> {
        assert_eq!(
            iters.len(),
            self.n_iters,
            "iteration vector length mismatch"
        );
        assert_eq!(
            param_values.len(),
            self.n_params,
            "parameter count mismatch"
        );
        let point: Vec<i128> = iters
            .iter()
            .map(|&v| v as i128)
            .chain(param_values.iter().map(|&v| v as i128))
            .collect();
        self.indices
            .iter()
            .map(|e| {
                e.eval_int(&point)
                    .to_integer()
                    .expect("access index must evaluate to an integer") as i64
            })
            .collect()
    }

    /// The coefficient of iterator `iter` in index dimension `dim`, as an
    /// integer (the paper's domain only has integer access coefficients).
    pub fn iter_coeff(&self, dim: usize, iter: usize) -> i64 {
        self.indices[dim]
            .coeff(iter)
            .to_integer()
            .expect("integer access coefficient") as i64
    }

    /// The element stride of this access along iterator `iter`, given the
    /// tensor's concrete strides: `Σ_dim coeff(dim, iter) · stride[dim]`.
    ///
    /// A stride of 0 means the access is invariant in `iter` (a reuse); a
    /// stride of 1 means consecutive iterations touch consecutive elements
    /// (coalescing-friendly).
    pub fn stride_along(&self, iter: usize, tensor_strides: &[i64]) -> i64 {
        assert_eq!(
            tensor_strides.len(),
            self.indices.len(),
            "stride rank mismatch"
        );
        (0..self.indices.len())
            .map(|d| self.iter_coeff(d, iter) * tensor_strides[d])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_lowering() {
        // Space: 2 iters + 1 param.
        let e = Idx::Iter(1).lower(2, 1);
        assert_eq!(e, LinExpr::from_coeffs(&[0, 1, 0], 0));
        let e = Idx::IterPlus(0, -1).lower(2, 1);
        assert_eq!(e, LinExpr::from_coeffs(&[1, 0, 0], -1));
        let e = Idx::Const(5).lower(2, 1);
        assert_eq!(e, LinExpr::from_coeffs(&[0, 0, 0], 5));
        let e = Idx::Param(ParamId(0)).lower(2, 1);
        assert_eq!(e, LinExpr::from_coeffs(&[0, 0, 1], 0));
    }

    #[test]
    #[should_panic(expected = "iterator index out of range")]
    fn idx_out_of_range() {
        let _ = Idx::Iter(2).lower(2, 0);
    }

    #[test]
    fn eval_transposed_access() {
        // D[k][i][j] for statement iterators (i, j, k), no params.
        let acc = Access::new(
            TensorId(0),
            &[Idx::Iter(2), Idx::Iter(0), Idx::Iter(1)],
            3,
            0,
        );
        assert_eq!(acc.eval_index(&[1, 2, 3], &[]), vec![3, 1, 2]);
    }

    #[test]
    fn strides_along_iterators() {
        // D[k][i][j] with tensor strides (N*N, N, 1) for N = 4 → (16, 4, 1).
        let acc = Access::new(
            TensorId(0),
            &[Idx::Iter(2), Idx::Iter(0), Idx::Iter(1)],
            3,
            0,
        );
        let strides = [16, 4, 1];
        assert_eq!(acc.stride_along(0, &strides), 4); // i sits in dim 1
        assert_eq!(acc.stride_along(1, &strides), 1); // j sits in dim 2
        assert_eq!(acc.stride_along(2, &strides), 16); // k sits in dim 0
    }

    #[test]
    fn invariant_iterator_has_zero_stride() {
        // B[i][k] for statement (i, j, k): j does not occur.
        let acc = Access::new(TensorId(0), &[Idx::Iter(0), Idx::Iter(2)], 3, 0);
        assert_eq!(acc.stride_along(1, &[8, 1]), 0);
    }
}
