//! The out-of-tree benchmark's output checks, mirrored in-tree so tier-1
//! sees them: over the whole Table II population — every unique operator
//! class under `isl`, `novec` and `infl` — the generated code computes
//! what the kernel says, every schedule is legal, and a pass repeats
//! exactly. A scheduler change that passes the golden CSV can still move
//! an op these catch (PR 18 did), and the repeat check is the one any
//! cache that outlives `clear_assembly_caches()` would fail.

use polyject::codegen::{render_artifacts, Artifacts};
use polyject::core::{clear_assembly_caches, verify_schedule};
use polyject::gpusim::seeded_buffers;
use polyject::prelude::*;
use polyject::sets::{counters, is_integer_feasible_reference};
use polyject::workloads::{all_networks, op_key, unique_ops};
use std::collections::HashSet;

/// The unique operator classes of the seven networks, first seen first.
fn population() -> Vec<OpClass> {
    let nets = all_networks();
    unique_ops(&nets).0.into_iter().cloned().collect()
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

/// The scaled-down twin of a class: same constructor, every tensor at
/// most 4 096 elements, so the functional interpreter runs the whole
/// population in well under a second.
fn twin(class: &OpClass) -> OpClass {
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

#[test]
fn twins_of_every_class_compute_the_reference() {
    let mut seen = HashSet::new();
    let ops = population();
    let twins = ops.iter().map(twin).filter(|t| seen.insert(op_key(t)));
    for class in twins {
        let kernel = class.build();
        let params = kernel.param_defaults().to_vec();
        let inputs = seeded_buffers(&kernel, &params, 0x7AB1E2);
        for config in Config::all() {
            let compiled = compile(&kernel, config)
                .unwrap_or_else(|e| panic!("{class:?} under {}: {e}", config.name()));
            check_equivalence(&compiled.ast, &kernel, &inputs, &params)
                .unwrap_or_else(|e| panic!("{class:?} under {}: {e}", config.name()));
        }
    }
}

/// One pass over the full-size population from empty assembly caches:
/// the solver's count deltas (clocks left out) and every artifact.
fn pass(ops: &[OpClass]) -> (Vec<(&'static str, u64)>, Vec<Artifacts>) {
    clear_assembly_caches();
    let before = counters::snapshot();
    let mut artifacts = Vec::new();
    for class in ops {
        let kernel = class.build();
        let deps = compute_dependences(&kernel, DepOptions::default());
        for config in Config::all() {
            let compiled = compile(&kernel, config)
                .unwrap_or_else(|e| panic!("{class:?} under {}: {e}", config.name()));
            assert!(
                verify_schedule(&kernel, &deps, &compiled.schedule).ok(),
                "{class:?} under {}: illegal schedule",
                config.name()
            );
            artifacts.push(render_artifacts(&kernel, &compiled));
        }
    }
    let counts = counters::snapshot()
        .delta_since(&before)
        .fields()
        .filter(|(name, _)| !name.ends_with("_ns"))
        .collect();
    (counts, artifacts)
}

#[test]
fn full_size_schedules_are_legal_and_a_pass_repeats_exactly() {
    let ops = population();
    assert_eq!(ops.len(), 114);
    let (first_counts, first) = pass(&ops);
    let (second_counts, second) = pass(&ops);
    assert_eq!(first_counts, second_counts, "solver work differs");
    assert!(first == second, "artifacts differ between passes");
}

/// Integer-feasibility preprocessing decides nearly every dependence
/// test with no tableau; it must keep exactly the relations branch and
/// bound on the raw sets keeps. 827 is the count of the solver before
/// unit equalities were substituted, and every kept set has an integer
/// point by the unpreprocessed reference search.
#[test]
fn dependence_analysis_keeps_every_feasible_relation() {
    let mut kept = 0;
    for class in population() {
        let deps = compute_dependences(&class.build(), DepOptions::default());
        for rel in deps.relations() {
            assert!(
                is_integer_feasible_reference(&rel.set),
                "{class:?}: kept an empty relation {rel:?}"
            );
        }
        kept += deps.len();
    }
    assert_eq!(kept, 827);
}
