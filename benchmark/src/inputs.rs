//! Input generation: everything a workload feeds the programs under test
//! is made here from the Table II population and the `--seed`.

use polyject_arith::SplitMix64;
use polyject_ir::Kernel;
use polyject_serve::BatchItem;
use polyject_workloads::{all_networks, op_key, Network, OpClass};
use std::collections::HashMap;

/// The three compile configurations, in the paper's column order (the
/// order `table2_batch_items` crosses every op with).
pub const CONFIGS: [&str; 3] = ["isl", "novec", "infl"];

/// A unique Table II operator class, materialised.
pub struct Op {
    pub class: OpClass,
    pub kernel: Kernel,
}

/// The Table II population: the seven networks, their unique operator
/// classes in first-seen order, and for every network operator the index
/// of its class (so per-network sums can be rebuilt from per-class
/// results, duplicates included).
pub struct Population {
    pub nets: Vec<Network>,
    pub ops: Vec<Op>,
    pub net_ops: Vec<Vec<usize>>,
}

impl Population {
    pub fn build() -> Population {
        let nets = all_networks();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut ops: Vec<Op> = Vec::new();
        let net_ops = nets
            .iter()
            .map(|net| {
                net.ops
                    .iter()
                    .map(|class| {
                        *index.entry(op_key(class)).or_insert_with(|| {
                            ops.push(Op {
                                class: class.clone(),
                                kernel: class.build(),
                            });
                            ops.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        Population { nets, ops, net_ops }
    }

    /// Geometric mean over the networks of Σ `base` ÷ Σ `ours`, both
    /// indexed by unique class and summed in network operator order —
    /// Table II's headline when `base` is `isl` and `ours` is `infl`.
    pub fn speedup_geomean(&self, base: &[f64], ours: &[f64]) -> f64 {
        let ln_sum: f64 = self
            .per_network_speedup(base, ours)
            .iter()
            .map(|s| s.ln())
            .sum();
        (ln_sum / self.nets.len() as f64).exp()
    }

    /// The per-network ratios behind [`Population::speedup_geomean`].
    pub fn per_network_speedup(&self, base: &[f64], ours: &[f64]) -> Vec<f64> {
        self.net_ops
            .iter()
            .map(|idx| {
                let b: f64 = idx.iter().map(|&i| base[i]).sum();
                let o: f64 = idx.iter().map(|&i| ours[i]).sum();
                b / o
            })
            .collect()
    }

    /// Table II's `vec` column summed over the networks: network
    /// operators (duplicates counted) whose class is flagged.
    pub fn count_over_networks(&self, flagged: &[bool]) -> usize {
        self.net_ops
            .iter()
            .flatten()
            .filter(|&&i| flagged[i])
            .count()
    }
}

/// Fisher–Yates with the repo's own SplitMix64.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The distinct `(src, config)` items of a batch-item stream, in
/// first-seen order, plus for every stream item the index of its
/// distinct twin.
pub fn unique_items(stream: &[BatchItem]) -> (Vec<BatchItem>, Vec<usize>) {
    let mut index: HashMap<(&str, &str), usize> = HashMap::new();
    let mut unique = Vec::new();
    let of = stream
        .iter()
        .map(|it| {
            *index
                .entry((it.src.as_str(), it.config.as_str()))
                .or_insert_with(|| {
                    unique.push(it.clone());
                    unique.len() - 1
                })
        })
        .collect();
    (unique, of)
}

/// Largest value `<= cap` with the same residue mod 4 as `x` (or `x`
/// itself when it already fits), so a shrunk extent keeps exactly the
/// divisibility the vectorizer looks at.
fn shrink(x: i64, cap: i64) -> i64 {
    if x <= cap {
        return x;
    }
    let candidate = cap / 4 * 4 + x % 4;
    if candidate > cap {
        candidate - 4
    } else {
        candidate
    }
}

/// The scaled-down twin of an operator class: same constructor, every
/// tensor shrunk to at most 4 096 elements. The functional interpreter
/// needs ~128 s for the full-size population; the twins take well under
/// a second and exercise the same schedule shapes.
pub fn twin(class: &OpClass) -> OpClass {
    match *class {
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

/// The distinct twins of the population, in first-seen order.
pub fn check_set(ops: &[Op]) -> Vec<OpClass> {
    let mut seen = std::collections::HashSet::new();
    ops.iter()
        .map(|op| twin(&op.class))
        .filter(|t| seen.insert(op_key(t)))
        .collect()
}
