//! The target end-to-end workloads of Table I, with their fused-operator
//! populations (the data substitution for MindSpore's ModelZoo traces —
//! see DESIGN.md).

use crate::classes::OpClass;
use polyject_ir::ElemType;

/// Network category, as in Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetKind {
    /// Natural language processing.
    Nlp,
    /// Computer vision.
    Cv,
}

impl NetKind {
    /// Table I's `Type` column text.
    pub fn as_str(&self) -> &'static str {
        match self {
            NetKind::Nlp => "nlp",
            NetKind::Cv => "cv",
        }
    }
}

/// One target network: Table I metadata plus its fused-operator suite.
#[derive(Clone, Debug)]
pub struct Network {
    /// Network name.
    pub name: &'static str,
    /// Category.
    pub kind: NetKind,
    /// Dataset(s), as listed in Table I.
    pub dataset: &'static str,
    /// The fused operators submitted to the compiler.
    pub ops: Vec<OpClass>,
}

/// All seven networks of Table I, in the paper's row order.
pub fn all_networks() -> Vec<Network> {
    vec![
        bert(),
        lstm(),
        mobilenet_v2(),
        resnet50(),
        resnet101(),
        resnext50(),
        vgg16(),
    ]
}

/// Lengths divisible by 4 (vector-eligible) cycling over BERT-ish
/// hidden-size shapes.
const VEC_LENS: [i64; 6] = [
    128 * 768,
    512 * 768,
    128 * 3072,
    64 * 768,
    256 * 768,
    128 * 1024,
];

/// Odd lengths (not divisible by 2): vectorization-ineligible.
const ODD_LENS: [i64; 5] = [98_301, 196_607, 49_153, 393_215, 131_071];

/// BERT: 109 fused operators — 35 layernorm-style reduction-crossing
/// fusions, 15 vectorizable elementwise chains, 3 running-example-class
/// multi-statement operators, and 56 odd-length chains that influence
/// cannot improve. Matches Table II's counts: total 109, vec 53, infl 53.
fn bert() -> Network {
    let mut ops = Vec::new();
    for i in 0..35 {
        ops.push(OpClass::LayerNorm {
            rows: [128i64, 512, 256][i % 3],
            cols: [768i64, 1024, 3072][i % 3],
        });
    }
    for i in 0..15 {
        ops.push(OpClass::Elementwise {
            len: VEC_LENS[i % VEC_LENS.len()],
            depth: 5 + (i % 9),
        });
    }
    for _ in 0..3 {
        ops.push(OpClass::MulSubMulAdd { n: 256 });
    }
    for i in 0..56 {
        ops.push(OpClass::Elementwise {
            len: ODD_LENS[i % ODD_LENS.len()],
            depth: 4 + (i % 9),
        });
    }
    Network {
        name: "BERT",
        kind: NetKind::Nlp,
        dataset: "zhwiki",
        ops,
    }
}

/// LSTM: 4 fused operators (3 vectorizable). Table II: total 4, vec 3.
pub fn lstm() -> Network {
    let ops = vec![
        OpClass::Elementwise {
            len: 256 * 400,
            depth: 4,
        },
        OpClass::Elementwise {
            len: 256 * 400,
            depth: 6,
        },
        OpClass::Elementwise {
            len: 64 * 400,
            depth: 3,
        },
        OpClass::Elementwise {
            len: ODD_LENS[0],
            depth: 2,
        },
    ];
    Network {
        name: "LSTM",
        kind: NetKind::Nlp,
        dataset: "ACLIMDB, GloVe",
        ops,
    }
}

/// MobileNetv2: 18 operators — flattened elementwise epilogues (what
/// graph-kernel fusion emits for its inverted residual blocks) plus a
/// couple of 2-D broadcast epilogues. Table II: total 18, vec 16, infl 16.
fn mobilenet_v2() -> Network {
    let mut ops = Vec::new();
    for i in 0..14 {
        ops.push(OpClass::Elementwise {
            len: VEC_LENS[i % VEC_LENS.len()],
            depth: 2 + i % 4,
        });
    }
    ops.push(OpClass::BiasAddRelu { n: 56 * 56, c: 96 });
    ops.push(OpClass::BiasAddRelu { n: 28 * 28, c: 320 });
    ops.push(OpClass::Elementwise {
        len: ODD_LENS[1],
        depth: 3,
    });
    ops.push(OpClass::ReduceRows { n: 1281, m: 49 });
    Network {
        name: "MobileNetv2",
        kind: NetKind::Cv,
        dataset: "ImageNet",
        ops,
    }
}

#[allow(clippy::too_many_arguments)]
fn resnet_family(
    name: &'static str,
    dataset: &'static str,
    n_transposes: usize,
    n_c3: usize,
    n_vec_misc: usize,
    n_plain: usize,
    elem: ElemType,
    hw_mix: [i64; 4],
    misc_len_scale: i64,
) -> Network {
    let mut ops = Vec::new();
    let channel_mix = [64i64, 128, 256, 512];
    for i in 0..n_transposes {
        let c = channel_mix[i % 4];
        let hw = hw_mix[i % 4];
        if i % 3 == 0 {
            ops.push(OpClass::Transpose2D {
                rows: c * hw,
                cols: hw * 32,
                elem,
            });
        } else {
            ops.push(OpClass::Transpose4D {
                n: 32,
                c,
                h: hw,
                w: hw,
                elem,
            });
        }
    }
    for _ in 0..n_c3 {
        // The network-input layout change: 3 channels — influence changes
        // the loop order but the odd channel count blocks vector types.
        ops.push(OpClass::Transpose4D {
            n: 32,
            c: 3,
            h: 224,
            w: 224,
            elem,
        });
    }
    for i in 0..n_vec_misc {
        if i % 2 == 0 {
            ops.push(OpClass::BiasAddRelu {
                n: 32 * 56,
                c: channel_mix[i % 4],
            });
        } else {
            ops.push(OpClass::Elementwise {
                len: VEC_LENS[i % VEC_LENS.len()] * misc_len_scale,
                depth: 2 + i % 3,
            });
        }
    }
    for i in 0..n_plain {
        ops.push(OpClass::Elementwise {
            len: ODD_LENS[i % ODD_LENS.len()],
            depth: 2 + i % 4,
        });
    }
    Network {
        name,
        kind: NetKind::Cv,
        dataset,
        ops,
    }
}

/// ResNet-50: transpose-dominated. Table II: total 17, vec 10, infl 12.
fn resnet50() -> Network {
    resnet_family(
        "ResNet50",
        "CIFAR-10",
        8,
        2,
        2,
        5,
        ElemType::F16,
        [56, 56, 28, 28],
        1,
    )
}

/// ResNet-101: more and larger transposes. Table II: total 22, vec 14,
/// infl 16.
fn resnet101() -> Network {
    resnet_family(
        "ResNet101",
        "ImageNet",
        11,
        2,
        3,
        6,
        ElemType::F16,
        [56, 56, 28, 28],
        1,
    )
}

/// ResNeXt-50. Table II: total 33, vec 21, infl 22.
fn resnext50() -> Network {
    // Small transposes, large elementwise bodies: layout changes are a
    // minor share of the total, matching the paper's modest 1.36×.
    resnet_family(
        "ResNeXt50",
        "ImageNet",
        12,
        1,
        9,
        11,
        ElemType::F16,
        [14, 14, 7, 7],
        4,
    )
}

/// VGG-16 (CIFAR-10, f32 activations). Table II: total 14, vec 9, infl 10.
fn vgg16() -> Network {
    resnet_family(
        "VGG16",
        "CIFAR-10",
        5,
        1,
        4,
        4,
        ElemType::F32,
        [32, 16, 16, 8],
        4,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows() {
        let nets = all_networks();
        assert_eq!(nets.len(), 7);
        let names: Vec<&str> = nets.iter().map(|n| n.name).collect();
        assert_eq!(
            names,
            vec![
                "BERT",
                "LSTM",
                "MobileNetv2",
                "ResNet50",
                "ResNet101",
                "ResNeXt50",
                "VGG16"
            ]
        );
    }

    #[test]
    fn op_counts_match_table2() {
        let counts: Vec<(usize, &str)> = all_networks()
            .iter()
            .map(|n| (n.ops.len(), n.name))
            .collect();
        assert_eq!(
            counts,
            vec![
                (109, "BERT"),
                (4, "LSTM"),
                (18, "MobileNetv2"),
                (17, "ResNet50"),
                (22, "ResNet101"),
                (33, "ResNeXt50"),
                (14, "VGG16"),
            ]
        );
    }

    #[test]
    fn kinds_match_table1() {
        for n in all_networks() {
            let expected = if n.name == "BERT" || n.name == "LSTM" {
                NetKind::Nlp
            } else {
                NetKind::Cv
            };
            assert_eq!(n.kind, expected, "{}", n.name);
        }
    }

    #[test]
    fn every_op_builds() {
        for net in all_networks() {
            for op in &net.ops {
                let k = op.build();
                assert!(!k.statements().is_empty());
            }
        }
    }
}
