//! The vector form `vectorize` records is what the CUDA text prints and
//! what the interpreter runs. Two fixtures that the printer once got
//! wrong: an f16 transpose whose lanes were written one in four, and a
//! guarded leaf whose `float4` store was printed without its guard.

use polyject::codegen::{render_cuda, Ast, AstNode, Lanes, LoopKind, StmtNode};
use polyject::gpusim::{check_equivalence, seeded_buffers};
use polyject::prelude::*;
use polyject::workloads::{all_networks, unique_ops};

/// `X: B[i] = A[i] * 2` over 16, then `Y: C[j][i] = B[15] + A[i]` over
/// 8 × 16: fused into one nest, `Y` keeps a guard inside the vector loop.
const GUARDED: &str = include_str!("fixtures/guarded_vector.pj");

/// The 16 × 8 f16 transpose, as `ops::transpose_2d_of(8, 16, F16)`.
const F16_TRANSPOSE: &str = include_str!("fixtures/f16_transpose.pj");

/// The leaves directly under vector loops.
fn vector_leaves(ast: &Ast) -> Vec<&StmtNode> {
    let vector = ast.loops().into_iter();
    let vector = vector.filter(|l| matches!(l.kind, LoopKind::Vector(_)));
    vector
        .flat_map(|l| &l.body)
        .filter_map(|c| match c {
            AstNode::Stmt(s) => Some(s),
            AstNode::Loop(_) => None,
        })
        .collect()
}

fn vector_leaves_mut(nodes: &mut [AstNode], f: &mut impl FnMut(&mut StmtNode)) {
    for n in nodes {
        if let AstNode::Loop(l) = n {
            if matches!(l.kind, LoopKind::Vector(_)) {
                for c in &mut l.body {
                    if let AstNode::Stmt(s) = c {
                        f(s);
                    }
                }
            }
            vector_leaves_mut(&mut l.body, f);
        }
    }
}

fn equivalent(ast: &Ast, kernel: &Kernel) -> Result<(), String> {
    let params = kernel.param_defaults().to_vec();
    check_equivalence(ast, kernel, &seeded_buffers(kernel, &params, 7), &params)
}

#[test]
fn f16_transpose_stores_every_lane_in_one_64_bit_store() {
    let kernel = polyject_front::parse(F16_TRANSPOSE).unwrap();
    let c = compile(&kernel, Config::Influenced).unwrap();
    assert_eq!(c.vector_loops, 1);
    equivalent(&c.ast, &kernel).unwrap();
    let cuda = render_cuda(&c.ast, &kernel);
    assert!(!cuda.contains("int vl"), "{cuda}");
    assert_eq!(
        cuda.matches("*reinterpret_cast<uint2*>(&B[").count(),
        1,
        "{cuda}"
    );
    // The transposed read is strided along the vector loop: one scalar
    // load per lane.
    assert_eq!(vector_leaves(&c.ast)[0].lanes, vec![Lanes::PerLane]);
}

#[test]
fn guarded_vector_leaf_prints_and_runs_its_guard() {
    let kernel = polyject_front::parse(GUARDED).unwrap();
    let c = compile(&kernel, Config::Influenced).unwrap();
    let leaves = vector_leaves(&c.ast);
    assert_eq!(leaves.len(), 1);
    assert!(
        !leaves[0].guards.is_empty(),
        "the fixture's point: a guard under forvec"
    );
    assert_eq!(leaves[0].lanes, vec![Lanes::Broadcast, Lanes::Wide]);
    equivalent(&c.ast, &kernel).unwrap();
    let cuda = render_cuda(&c.ast, &kernel);
    assert!(cuda.contains("      if (c0 - 15 >= 0) {\n"), "{cuda}");
    assert!(!cuda.contains("int vl"), "{cuda}");
}

#[test]
fn the_interpreter_runs_the_recorded_form() {
    // A form that drops a guard, or reads one lane's cell for all, is
    // not what the kernel computes, and check_equivalence says so.
    let kernel = polyject_front::parse(GUARDED).unwrap();
    let c = compile(&kernel, Config::Influenced).unwrap();
    let mut unguarded = c.ast.clone();
    vector_leaves_mut(&mut unguarded.roots, &mut |s| s.guards.clear());
    assert!(equivalent(&unguarded, &kernel).is_err());
    let mut broadcast = c.ast.clone();
    vector_leaves_mut(&mut broadcast.roots, &mut |s| {
        s.lanes = vec![Lanes::Broadcast; 2]
    });
    assert!(equivalent(&broadcast, &kernel).is_err());
}

#[test]
fn unaligned_unit_stride_reads_load_per_lane() {
    let kernel = polyject_front::parse(
        "kernel shifted\ntensor A[18]: f32\ntensor B[16]: f32\n\
         stmt S for (i in 0..16)\n  B[i] = A[i + 1] + A[i + 2]\n",
    )
    .unwrap();
    let c = compile(&kernel, Config::Influenced).unwrap();
    assert_eq!(vector_leaves(&c.ast)[0].lanes, vec![Lanes::PerLane; 2]);
    equivalent(&c.ast, &kernel).unwrap();
    let cuda = render_cuda(&c.ast, &kernel);
    assert!(!cuda.contains("float4*>(&A["), "{cuda}");
    assert!(cuda.contains("(A[c0 + 4] + A[c0 + 5])"), "{cuda}");
}

#[test]
fn every_vectorized_f16_table2_artifact_stores_each_leaf_once() {
    let nets = all_networks();
    let mut artifacts = 0;
    for class in unique_ops(&nets).0 {
        let kernel = class.build();
        if kernel.tensors().iter().all(|t| t.elem() != ElemType::F16) {
            continue;
        }
        let c = compile(&kernel, Config::Influenced).unwrap();
        let leaves = vector_leaves(&c.ast).len();
        if leaves == 0 {
            continue;
        }
        artifacts += 1;
        let cuda = render_cuda(&c.ast, &kernel);
        assert!(!cuda.contains("int vl"), "{cuda}");
        assert_eq!(
            cuda.matches("*reinterpret_cast<uint2*>(&").count(),
            leaves,
            "{cuda}"
        );
    }
    assert_eq!(artifacts, 16);
}
