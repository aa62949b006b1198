//! Integration tests asserting the *shape* of the paper's results: who
//! wins, in which direction, and the Table II operator counts. (The full
//! Table II regeneration lives in `cargo run -p polyject-bench --bin
//! table2`, its exact outputs in `identity_gates.rs`; these tests cover
//! the fast networks and single operators.)

use polyject::gpusim::{estimate, GpuModel};
use polyject::ir::{ops, ElemType};
use polyject::prelude::*;
use polyject::workloads::{
    all_networks, lstm, measure_op, Network, NetworkMeasurement, OpClass, Tool,
};
use polyject_bench::run_table2_networks;

fn model() -> GpuModel {
    GpuModel::v100()
}

/// The Table I network called `name`.
fn network(name: &str) -> Network {
    all_networks()
        .into_iter()
        .find(|n| n.name == name)
        .expect(name)
}

/// One network's Table II row, measured serially.
fn measure(net: &Network) -> NetworkMeasurement {
    let mut run = run_table2_networks(std::slice::from_ref(net), &model(), 1);
    run.results.remove(0)
}

#[test]
fn running_example_matches_fig2c_structure() {
    let kernel = ops::running_example(1024);
    let compiled = compile(&kernel, Config::Influenced).unwrap();
    // Fig. 2(c): X at (i, k), Y at (i, k, j) with j the forvec loop.
    let text = render(&compiled.ast, &kernel);
    assert!(text.contains("forvec"), "{text}");
    let x = compiled.schedule.stmt(StmtId(0));
    let y = compiled.schedule.stmt(StmtId(1));
    assert_eq!(x.rows()[0].iter_coeffs, vec![1, 0]); // i
    assert_eq!(x.rows()[1].iter_coeffs, vec![0, 1]); // k
    assert_eq!(y.rows()[0].iter_coeffs, vec![1, 0, 0]); // i
    assert_eq!(y.rows()[1].iter_coeffs, vec![0, 0, 1]); // k
    assert_eq!(y.rows()[2].iter_coeffs, vec![0, 1, 0]); // j (vectorized)
    assert_eq!(compiled.schedule.vector_dim(StmtId(1)), Some(2));
}

#[test]
fn transpose_ordering_infl_novec_isl() {
    // The paper's ResNet claim: influenced coalescing recovers most of the
    // win, vector types add on top; both beat plain isl by a multiple.
    let kernel = ops::transpose_2d_of(1024, 2048, ElemType::F16);
    let m = model();
    let isl = estimate(&compile(&kernel, Config::Isl).unwrap().ast, &kernel, &m);
    let novec = estimate(&compile(&kernel, Config::NoVec).unwrap().ast, &kernel, &m);
    let infl = estimate(
        &compile(&kernel, Config::Influenced).unwrap().ast,
        &kernel,
        &m,
    );
    assert!(infl.time <= novec.time);
    assert!(novec.time < isl.time);
    assert!(isl.time / infl.time > 2.0, "ratio {}", isl.time / infl.time);
}

#[test]
fn vectorization_gain_is_modest_on_elementwise() {
    // BERT/LSTM-class: influence only adds vector types; gains are the
    // few-percent range of the paper, not multiples.
    let m = measure_op(
        &OpClass::Elementwise {
            len: 1 << 20,
            depth: 6,
        },
        &model(),
    );
    let gain = m.time(Tool::Isl) / m.time(Tool::Infl);
    assert!((1.0..1.5).contains(&gain), "gain {gain}");
}

#[test]
fn table2_counts_match_paper() {
    // The per-network (total, vec, infl) counts of Table II. vec/infl are
    // *measured* (actual vectorized compilations), so this exercises the
    // whole pipeline per network; only fast networks are measured here.
    for (net, expect) in [
        (lstm(), (4usize, 3usize, 3usize)),
        (network("MobileNetv2"), (18, 16, 16)),
        (network("ResNet50"), (17, 10, 12)),
    ] {
        let m = measure(&net);
        assert_eq!(
            (m.total_ops, m.vec_ops, m.infl_ops),
            expect,
            "{} counts",
            net.name
        );
    }
}

#[test]
fn resnet50_speedups_have_paper_shape() {
    let m = measure(&network("ResNet50"));
    // Paper row: tvm 3.07, novec 3.05, infl 3.43 — all well above 1, infl
    // the best of the three pipeline configurations, influenced-only
    // larger than overall.
    let infl = m.speedup_all(Tool::Infl);
    let novec = m.speedup_all(Tool::NoVec);
    let tvm = m.speedup_all(Tool::Tvm);
    assert!(infl > 2.0, "infl {infl}");
    assert!(novec > 2.0, "novec {novec}");
    assert!(tvm > 2.0, "tvm {tvm}");
    assert!(infl >= novec, "vector types add on top of coalescing");
    assert!(
        m.speedup_infl(Tool::Infl) >= infl,
        "influenced-only is larger"
    );
}

#[test]
fn lstm_speedups_near_one() {
    let m = measure(&lstm());
    let infl = m.speedup_all(Tool::Infl);
    assert!((1.0..1.25).contains(&infl), "paper: 1.05, measured {infl}");
    let tvm = m.speedup_all(Tool::Tvm);
    assert!((0.7..1.3).contains(&tvm), "paper: 0.94, measured {tvm}");
}

#[test]
fn network_populations_match_table2_totals() {
    let totals: Vec<usize> = all_networks().iter().map(|n| n.ops.len()).collect();
    assert_eq!(totals, vec![109, 4, 18, 17, 22, 33, 14]);
}

#[test]
fn layernorm_tvm_splits_pay() {
    // The BERT mechanism: per-statement baselines cannot fuse across the
    // reductions; the fused compiler keeps intermediates in cache.
    let m = measure_op(
        &OpClass::LayerNorm {
            rows: 256,
            cols: 768,
        },
        &model(),
    );
    assert!(
        m.time(Tool::Tvm) > 2.0 * m.time(Tool::Isl),
        "tvm {} vs isl {}",
        m.time(Tool::Tvm),
        m.time(Tool::Isl)
    );
    assert!(m.time(Tool::Infl) <= m.time(Tool::Isl));
}
