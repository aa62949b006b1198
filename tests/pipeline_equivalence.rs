//! Cross-crate integration: every operator class, compiled under every
//! pipeline configuration (and the TVM baseline), and tiled ASTs must
//! compute exactly the reference semantics.

use polyject::gpusim::{check_equivalence, execute_ast, seeded_buffers};
use polyject::ir::{ops, ElemType, Kernel};
use polyject::prelude::*;
use polyject::workloads::compile_tvm;

fn small_kernels() -> Vec<Kernel> {
    vec![
        ops::running_example(6),
        ops::transpose_2d(7, 9),
        ops::transpose_2d_of(8, 12, ElemType::F16),
        ops::transpose_nchw_nhwc(2, 3, 4, 5),
        ops::elementwise_chain(17, 5),
        ops::bias_add_relu(6, 8),
        ops::reduce_rows(5, 9),
        ops::layernorm_like(6, 8),
    ]
}

#[test]
fn all_configs_preserve_semantics() {
    for kernel in small_kernels() {
        let params = kernel.param_defaults().to_vec();
        let inputs = seeded_buffers(&kernel, &params, 0xC0FFEE);
        for config in Config::all() {
            let compiled = compile(&kernel, config)
                .unwrap_or_else(|e| panic!("{} fails on {}: {e}", config.name(), kernel.name()));
            check_equivalence(&compiled.ast, &kernel, &inputs, &params)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", config.name(), kernel.name()));
        }
    }
}

#[test]
fn tvm_baseline_preserves_semantics() {
    for kernel in small_kernels() {
        let params = kernel.param_defaults().to_vec();
        let inputs = seeded_buffers(&kernel, &params, 0xBEEF);
        let mut bufs = inputs.clone();
        for (sub, ast) in compile_tvm(&kernel) {
            execute_ast(&ast, &sub, &mut bufs, &params).unwrap();
        }
        let mut reference = inputs;
        kernel.execute_reference(&mut reference, &params);
        assert_eq!(bufs, reference, "tvm on {}", kernel.name());
    }
}

#[test]
fn tiled_asts_preserve_semantics() {
    // Extent 72 with the preferred tile 32 falls back to a divisor (8):
    // the tiled loops must still cover every point exactly once.
    let remainder = TilingOptions {
        min_extent: 16,
        ..TilingOptions::default()
    };
    let small_tiles = TilingOptions {
        tile_size: 16,
        min_extent: 32,
        max_tiled_loops: 3,
    };
    for (kernel, opts) in [
        (ops::transpose_2d(96, 80), small_tiles),
        (ops::running_example(72), small_tiles),
        (ops::bias_add_relu(96, 64), small_tiles),
        (ops::transpose_2d(72, 72), remainder),
    ] {
        let params = kernel.param_defaults().to_vec();
        let inputs = seeded_buffers(&kernel, &params, 0x711E);
        let compiled = compile(&kernel, Config::Isl).unwrap();
        let mut tiled = compiled.ast.clone();
        let n = tile_ast(&mut tiled, &kernel, &compiled.schedule, opts);
        assert!(n > 0, "{} tiled", kernel.name());
        check_equivalence(&tiled, &kernel, &inputs, &params)
            .unwrap_or_else(|e| panic!("tiled {}: {e}", kernel.name()));
    }
}

#[test]
fn influenced_equivalence_across_seeds() {
    let kernel = ops::running_example(5);
    let compiled = compile(&kernel, Config::Influenced).unwrap();
    for seed in 0..8u64 {
        let inputs = seeded_buffers(&kernel, &[5], seed);
        check_equivalence(&compiled.ast, &kernel, &inputs, &[5])
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn parametric_kernel_equivalence_at_several_sizes() {
    // The running example is parametric in N: the same influenced
    // schedule must be correct at every binding.
    for n in [2i64, 3, 4, 7] {
        let kernel = ops::running_example(n);
        let compiled = compile(&kernel, Config::Influenced).unwrap();
        let inputs = seeded_buffers(&kernel, &[n], 42);
        check_equivalence(&compiled.ast, &kernel, &inputs, &[n])
            .unwrap_or_else(|e| panic!("N={n}: {e}"));
    }
}
