//! Tensors and their (row-major) memory layout.

use crate::types::{ElemType, Extent};

/// A named multi-dimensional array with a row-major layout.
///
/// # Examples
///
/// ```
/// let kernel = polyject_ir::ops::transpose_2d(2, 3); // B[3][2] = A[2][3]
/// let t = &kernel.tensors()[0];
/// assert_eq!(t.strides(&[]), vec![3, 1]);
/// assert_eq!(t.size_bytes(&[]), 24);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tensor {
    name: String,
    dims: Vec<Extent>,
    elem: ElemType,
}

impl Tensor {
    /// Creates a tensor.
    pub(crate) fn new(name: impl Into<String>, dims: Vec<Extent>, elem: ElemType) -> Tensor {
        Tensor {
            name: name.into(),
            dims,
            elem,
        }
    }

    /// The tensor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The (possibly parametric) dimension extents.
    pub fn dims(&self) -> &[Extent] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Element type.
    pub fn elem(&self) -> ElemType {
        self.elem
    }

    /// Concrete shape under the given parameter values.
    pub(crate) fn shape(&self, param_values: &[i64]) -> Vec<i64> {
        self.dims.iter().map(|e| e.resolve(param_values)).collect()
    }

    /// Row-major strides, in elements, under the given parameter values.
    /// The last dimension always has stride 1.
    pub fn strides(&self, param_values: &[i64]) -> Vec<i64> {
        let shape = self.shape(param_values);
        let mut strides = vec![1i64; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        strides
    }

    /// Total number of elements under the given parameter values.
    pub(crate) fn num_elements(&self, param_values: &[i64]) -> usize {
        self.shape(param_values).iter().product::<i64>().max(0) as usize
    }

    /// Total size in bytes.
    pub fn size_bytes(&self, param_values: &[i64]) -> usize {
        self.num_elements(param_values) * self.elem.size_bytes()
    }

    /// Linearizes a concrete multi-index into an element offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank differs from the tensor rank or an index is
    /// out of bounds (debug assertions).
    pub(crate) fn linearize(&self, index: &[i64], param_values: &[i64]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let shape = self.shape(param_values);
        let strides = self.strides(param_values);
        let mut off = 0i64;
        for d in 0..index.len() {
            debug_assert!(
                index[d] >= 0 && index[d] < shape[d],
                "index {} out of bounds for dim {d} of {} (extent {})",
                index[d],
                self.name,
                shape[d],
            );
            off += index[d] * strides[d];
        }
        off as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ParamId;

    #[test]
    fn parametric_shape_and_strides() {
        let t = Tensor::new(
            "D",
            vec![
                Extent::Param(ParamId(0)),
                Extent::Const(4),
                Extent::Param(ParamId(0)),
            ],
            ElemType::F32,
        );
        assert_eq!(t.shape(&[8]), vec![8, 4, 8]);
        assert_eq!(t.strides(&[8]), vec![32, 8, 1]);
        assert_eq!(t.num_elements(&[8]), 256);
        assert_eq!(t.size_bytes(&[8]), 1024);
    }

    #[test]
    fn linearize_row_major() {
        let t = Tensor::new("A", vec![Extent::Const(3), Extent::Const(5)], ElemType::F32);
        assert_eq!(t.linearize(&[0, 0], &[]), 0);
        assert_eq!(t.linearize(&[1, 0], &[]), 5);
        assert_eq!(t.linearize(&[2, 4], &[]), 14);
    }

    #[test]
    fn scalar_tensor() {
        let t = Tensor::new("s", vec![], ElemType::F32);
        assert_eq!(t.num_elements(&[]), 1);
        assert_eq!(t.linearize(&[], &[]), 0);
    }
}
