//! Auto-tune a fused operator (influence weights × tile sizes × thread
//! budgets, as the paper's "respective tool auto-tuners" do) and inspect
//! the winning variant with the nvprof-substitute profiler.
//!
//! Run with: `cargo run --release --example autotune_profile`

use polyject::codegen::compile_with_options;
use polyject::core::Budget;
use polyject::prelude::*;
use polyject::tune::{beam_search, SerialRunner, TuneOptions, TuneRequest};

fn main() {
    let kernel = polyject::ir::ops::transpose_2d_of(2048, 2048, ElemType::F16);
    let model = GpuModel::v100();

    for config in [Config::Isl, Config::Influenced] {
        println!("== {} ==", config.name());
        let req = TuneRequest {
            kernel: kernel.clone(),
            config,
            gpu: model.clone(),
            budget: Budget::unlimited(),
        };
        let out = beam_search(&req, &TuneOptions::default(), &SerialRunner).expect("tunable");
        for rec in &out.log {
            println!(
                "  round {} {:<96} -> {:.4} ms",
                rec.round,
                rec.key,
                rec.time * 1e3
            );
        }
        let tuned = &out.tuned;
        println!(
            "  winner: tile={:?} max_threads={} {:.4} ms ({:.2}x over the default point)",
            tuned.point.tiling.map(|t| t.tile_size),
            tuned.point.mapping.max_threads,
            tuned.tuned_time * 1e3,
            tuned.speedup()
        );
        // The winner replays cold from its recorded options.
        let best = compile_with_options(
            &kernel,
            config,
            &Budget::unlimited(),
            &tuned.to_compile_options(),
        )
        .expect("the winner compiled during the search");
        println!("{}", profile(&best.ast, &kernel, &model).render());
    }

    // On different device models the comparison shape persists.
    for m in [GpuModel::v100(), GpuModel::a100(), GpuModel::consumer()] {
        let isl = estimate(
            &compile(&kernel, Config::Isl).expect("compiles").ast,
            &kernel,
            &m,
        );
        let infl = estimate(
            &compile(&kernel, Config::Influenced).expect("compiles").ast,
            &kernel,
            &m,
        );
        println!(
            "{:<22} isl {:.4} ms  infl {:.4} ms  speedup {:.2}x",
            m.name,
            isl.ms(),
            infl.ms(),
            isl.time / infl.time
        );
    }
}
