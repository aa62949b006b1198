//! Fused-operator classes: the shapes of operators graph-kernel fusion
//! produces in the evaluated networks.

use polyject_ir::{ops, ElemType, Kernel};

/// A parameterized fused-operator class.
///
/// Each class corresponds to an operator family the paper's analysis
/// names: elementwise fusions (NLP networks), layout transposes (the
/// ResNet family's dominant win), broadcast epilogues, reductions, and the
/// running example's multi-statement pattern.
#[derive(Clone, Debug, PartialEq)]
pub enum OpClass {
    /// A fused chain of `depth` elementwise stages over `len` elements.
    Elementwise {
        /// Flat element count.
        len: i64,
        /// Number of fused stages (statements).
        depth: usize,
    },
    /// The paper's running example `fused_mul_sub_mul_tensoradd` at size
    /// `n × n` (plus the `n³` tensor `D`).
    MulSubMulAdd {
        /// Problem size `N`.
        n: i64,
    },
    /// A 2-D transpose.
    Transpose2D {
        /// Rows of the source.
        rows: i64,
        /// Columns of the source.
        cols: i64,
        /// Element type (ImageNet networks transpose `f16` activations).
        elem: ElemType,
    },
    /// An NCHW → NHWC layout permutation.
    Transpose4D {
        /// Batch.
        n: i64,
        /// Channels (the vectorization axis after the permutation).
        c: i64,
        /// Height.
        h: i64,
        /// Width.
        w: i64,
        /// Element type.
        elem: ElemType,
    },
    /// Bias-add + ReLU epilogue over an `n × c` activation.
    BiasAddRelu {
        /// Rows.
        n: i64,
        /// Channels.
        c: i64,
    },
    /// Row-wise sum reduction of an `n × m` matrix.
    ReduceRows {
        /// Rows.
        n: i64,
        /// Reduced width.
        m: i64,
    },
    /// A layernorm-like operator: reductions interleaved with elementwise
    /// stages over `rows × cols` (fusable by graph-kernel fusion, split at
    /// every reduction by per-statement baselines).
    LayerNorm {
        /// Rows (the parallel axis).
        rows: i64,
        /// Normalized width.
        cols: i64,
    },
}

impl OpClass {
    /// Materializes the class as a kernel.
    pub fn build(&self) -> Kernel {
        match *self {
            OpClass::Elementwise { len, depth } => ops::elementwise_chain(len, depth),
            OpClass::MulSubMulAdd { n } => ops::running_example(n),
            OpClass::Transpose2D { rows, cols, elem } => ops::transpose_2d_of(rows, cols, elem),
            OpClass::Transpose4D { n, c, h, w, elem } => {
                ops::transpose_nchw_nhwc_of(n, c, h, w, elem)
            }
            OpClass::BiasAddRelu { n, c } => ops::bias_add_relu(n, c),
            OpClass::ReduceRows { n, m } => ops::reduce_rows(n, m),
            OpClass::LayerNorm { rows, cols } => ops::layernorm_like(rows, cols),
        }
    }

    /// The scaled-down twin of the class: same constructor, every tensor
    /// at most 4 096 elements, and each extent shrunk with its residue
    /// mod 4, so the twin keeps exactly the divisibility the vectorizer
    /// looks at. The interpreter (and a C++ compiler) run the whole Table
    /// II population of twins in well under a second.
    pub fn twin(&self) -> OpClass {
        let shrink = |x: i64, cap: i64| match cap / 4 * 4 + x % 4 {
            _ if x <= cap => x,
            c if c > cap => c - 4,
            c => c,
        };
        match *self {
            OpClass::Elementwise { len, depth } => OpClass::Elementwise {
                len: shrink(len, 4096),
                depth,
            },
            OpClass::MulSubMulAdd { n } => OpClass::MulSubMulAdd { n: shrink(n, 16) },
            OpClass::Transpose2D { rows, cols, elem } => OpClass::Transpose2D {
                rows: shrink(rows, 64),
                cols: shrink(cols, 64),
                elem,
            },
            OpClass::Transpose4D { n, c, h, w, elem } => OpClass::Transpose4D {
                n: shrink(n, 8),
                c: shrink(c, 8),
                h: shrink(h, 8),
                w: shrink(w, 8),
                elem,
            },
            OpClass::BiasAddRelu { n, c } => OpClass::BiasAddRelu {
                n: shrink(n, 64),
                c: shrink(c, 64),
            },
            OpClass::ReduceRows { n, m } => OpClass::ReduceRows {
                n: shrink(n, 64),
                m: shrink(m, 64),
            },
            OpClass::LayerNorm { rows, cols } => OpClass::LayerNorm {
                rows: shrink(rows, 64),
                cols: shrink(cols, 64),
            },
        }
    }

    /// A short class label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            OpClass::Elementwise { .. } => "elementwise",
            OpClass::MulSubMulAdd { .. } => "mul_sub_mul_tensoradd",
            OpClass::Transpose2D { .. } => "transpose2d",
            OpClass::Transpose4D { .. } => "transpose4d",
            OpClass::BiasAddRelu { .. } => "biasadd_relu",
            OpClass::ReduceRows { .. } => "reduce_rows",
            OpClass::LayerNorm { .. } => "layernorm",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_build() {
        let classes = [
            OpClass::Elementwise { len: 64, depth: 3 },
            OpClass::MulSubMulAdd { n: 8 },
            OpClass::Transpose2D {
                rows: 8,
                cols: 8,
                elem: ElemType::F16,
            },
            OpClass::Transpose4D {
                n: 1,
                c: 4,
                h: 4,
                w: 4,
                elem: ElemType::F32,
            },
            OpClass::BiasAddRelu { n: 8, c: 8 },
            OpClass::ReduceRows { n: 8, m: 8 },
            OpClass::LayerNorm { rows: 8, cols: 8 },
        ];
        for c in classes {
            let k = c.build();
            assert!(!k.statements().is_empty(), "{} builds", c.label());
        }
    }

    #[test]
    fn f16_transpose_elem() {
        let k = OpClass::Transpose2D {
            rows: 4,
            cols: 4,
            elem: ElemType::F16,
        }
        .build();
        assert_eq!(k.tensors()[0].elem(), ElemType::F16);
    }
}
