//! Ablation of the Section V cost-model weights: the paper reports that
//! prioritizing vector types on *write* accesses over reads (w₁ = 5,
//! w₂ = 3) gave the best results. This study compiles transpose-family
//! operators under the paper's weights, uniform weights, and reversed
//! (load-priority) weights, and compares simulated times and the chosen
//! innermost dimension.

use polyject_codegen::{compile_with_options, CompileOptions, Config};
use polyject_core::{Budget, InfluenceOptions};
use polyject_gpusim::{estimate, GpuModel};
use polyject_ir::{ops, ElemType, Kernel};

fn compile_with_weights(kernel: &Kernel, weights: [f64; 5]) -> (String, f64, usize) {
    let opts = CompileOptions {
        influence: InfluenceOptions {
            weights,
            ..InfluenceOptions::default()
        },
        ..CompileOptions::default()
    };
    let res = compile_with_options(kernel, Config::Influenced, &Budget::unlimited(), &opts)
        .expect("schedulable");
    let t = estimate(&res.ast, kernel, &GpuModel::v100());
    // Innermost row of the first statement, as a label.
    let stmt = &kernel.statements()[0];
    let rows = res.schedule.stmt(polyject_ir::StmtId(0)).rows();
    let inner = rows
        .iter()
        .rev()
        .find(|r| !r.is_constant_row())
        .map(|r| {
            r.iter_coeffs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, _)| stmt.iters()[i].clone())
                .collect::<Vec<_>>()
                .join("+")
        })
        .unwrap_or_default();
    (inner, t.ms(), res.vector_loops)
}

fn main() {
    println!("ABLATION — Section V cost-model weights (w1 stores, w2 loads)");
    println!();
    let configs: [(&str, [f64; 5]); 3] = [
        ("paper (5,3,1,1,1)", [5.0, 3.0, 1.0, 1.0, 1.0]),
        ("uniform (1,1,1,1,1)", [1.0, 1.0, 1.0, 1.0, 1.0]),
        ("reversed (3,5,1,1,1)", [3.0, 5.0, 1.0, 1.0, 1.0]),
    ];
    let kernels: Vec<(&str, Kernel)> = vec![
        (
            "transpose2d f16 3584x1792",
            ops::transpose_2d_of(3584, 1792, ElemType::F16),
        ),
        (
            "transpose4d f16 32x64x56x56",
            ops::transpose_nchw_nhwc_of(32, 64, 56, 56, ElemType::F16),
        ),
        ("transpose2d f32 2048x2048", ops::transpose_2d(2048, 2048)),
    ];
    for (name, kernel) in &kernels {
        println!("== {name}");
        let mut best: Option<(f64, &str)> = None;
        for (label, w) in &configs {
            let (inner, ms, nvec) = compile_with_weights(kernel, *w);
            println!(
                "  {:<22} innermost = {:<4} vector loops = {}  time = {:.4} ms",
                label, inner, nvec, ms
            );
            if best.is_none() || ms < best.expect("set").0 {
                best = Some((ms, label));
            }
        }
        println!("  -> best: {}", best.expect("measured").1);
        println!();
    }
    println!(
        "expectation (paper): store-priority weights choose the store-contiguous\n\
         innermost dimension; load-priority flips it and pays scattered stores."
    );
}
