//! Identifier newtypes and basic enumerations of the kernel IR.

use std::fmt;

/// Identifies a global parameter of a kernel (e.g. `N`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ParamId(pub usize);

/// Identifies a tensor of a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TensorId(pub usize);

/// Identifies a statement of a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StmtId(pub usize);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The extent of one tensor dimension or loop: a compile-time constant or a
/// global parameter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Extent {
    /// A fixed size.
    Const(i64),
    /// The value of a kernel parameter.
    Param(ParamId),
}

impl Extent {
    /// Resolves the extent against concrete parameter values.
    ///
    /// # Panics
    ///
    /// Panics if a referenced parameter is out of range.
    pub(crate) fn resolve(&self, param_values: &[i64]) -> i64 {
        match *self {
            Extent::Const(v) => v,
            Extent::Param(p) => param_values[p.0],
        }
    }
}

impl From<i64> for Extent {
    fn from(v: i64) -> Extent {
        Extent::Const(v)
    }
}

impl From<ParamId> for Extent {
    fn from(p: ParamId) -> Extent {
        Extent::Param(p)
    }
}

/// Element type of tensors. Deep-learning fused operators in the paper are
/// `float32`; `float16` doubles the elements per vector transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ElemType {
    /// 32-bit IEEE float (4 bytes).
    #[default]
    F32,
    /// 16-bit float (2 bytes); simulated in f32 precision.
    F16,
}

impl ElemType {
    /// Size of one element in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            ElemType::F32 => 4,
            ElemType::F16 => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_resolution() {
        assert_eq!(Extent::Const(8).resolve(&[]), 8);
        assert_eq!(Extent::Param(ParamId(1)).resolve(&[3, 9]), 9);
        assert_eq!(Extent::from(5i64), Extent::Const(5));
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemType::F32.size_bytes(), 4);
        assert_eq!(ElemType::F16.size_bytes(), 2);
    }

    #[test]
    fn stmt_display() {
        assert_eq!(StmtId(3).to_string(), "S3");
    }
}
