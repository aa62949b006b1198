//! Dumps CUDA artifacts with their inputs and reference outputs, for
//! `scripts/cuda_run.sh` to compile with g++ under `scripts/cuda_shim/`
//! and run: the Table II twins under `isl`, `novec` and `infl`, one
//! tiled `infl` compile per twin (where tiling changes the text), and
//! each `.pj` fixture named on the command line under all three.
//!
//! Usage: `cuda_dump <out-dir> [fixture.pj ...]`
//!
//! For artifact `k<i>` the directory gets `k<i>.cu` (the CUDA text as
//! `render_cuda` prints it), `k<i>.bin` (per tensor: element bytes,
//! length, the seeded inputs and `execute_reference`'s outputs, as f32),
//! and a `tu<j>.cpp` per group of artifacts that registers each with the
//! launch it runs under.

use polyject_codegen::{
    compile_with_options, loop_extent, render_cuda, Ast, AstNode, CompileOptions, Config, LoopKind,
    TilingOptions,
};
use polyject_core::Budget;
use polyject_gpusim::seeded_buffers;
use polyject_ir::Kernel;
use polyject_workloads::{all_networks, op_key, unique_ops};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

/// Artifacts per translation unit.
const PER_TU: usize = 48;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((out, fixtures)) = args.split_first() else {
        eprintln!("usage: cuda_dump <out-dir> [fixture.pj ...]");
        std::process::exit(2);
    };
    let out = Path::new(out);
    std::fs::create_dir_all(out).expect("create the dump directory");
    let mut kernels: Vec<(String, Kernel)> = Vec::new();
    let mut seen = HashSet::new();
    for class in unique_ops(&all_networks()).0 {
        let twin = class.twin();
        if seen.insert(op_key(&twin)) {
            kernels.push((op_key(&twin), twin.build()));
        }
    }
    for path in fixtures {
        let src = std::fs::read_to_string(path).expect("read a fixture");
        kernels.push((
            path.clone(),
            polyject_front::parse(&src).expect("parse a fixture"),
        ));
    }
    let tiled = CompileOptions {
        tiling: Some(TilingOptions::default()),
        ..CompileOptions::default()
    };
    let mut artifacts: Vec<(String, &Kernel, Ast)> = Vec::new();
    for (name, kernel) in &kernels {
        let mut texts = HashSet::new();
        for (config, opts, tag) in [
            (Config::Isl, &CompileOptions::default(), "isl"),
            (Config::NoVec, &CompileOptions::default(), "novec"),
            (Config::Influenced, &CompileOptions::default(), "infl"),
            (Config::Influenced, &tiled, "infl tiled"),
        ] {
            let c = compile_with_options(kernel, config, &Budget::unlimited(), opts)
                .expect("a Table II twin compiles");
            if texts.insert(render_cuda(&c.ast, kernel)) || tag != "infl tiled" {
                artifacts.push((format!("{name} {tag}"), kernel, c.ast));
            }
        }
    }
    let mut tus = vec![String::new(); artifacts.len().div_ceil(PER_TU)];
    for (i, (name, kernel, ast)) in artifacts.iter().enumerate() {
        std::fs::write(out.join(format!("k{i}.cu")), render_cuda(ast, kernel)).expect("write");
        std::fs::write(out.join(format!("k{i}.bin")), data(kernel)).expect("write");
        register(&mut tus[i / PER_TU], i, name, kernel, ast);
    }
    for (j, tu) in tus.iter().enumerate() {
        let text = format!("#include \"cuda_shim.h\"\n{tu}");
        std::fs::write(out.join(format!("tu{j}.cpp")), text).expect("write");
    }
    println!(
        "{} artifacts in {} translation units",
        artifacts.len(),
        tus.len()
    );
}

/// Per tensor: element bytes and length (u32), then the seeded inputs and
/// the reference outputs (f32), all little-endian.
fn data(kernel: &Kernel) -> Vec<u8> {
    let params = kernel.param_defaults();
    let inputs = seeded_buffers(kernel, params, 7);
    let mut expected = inputs.clone();
    kernel.execute_reference(&mut expected, params);
    let mut out = (kernel.tensors().len() as u32).to_le_bytes().to_vec();
    for ((t, input), want) in kernel.tensors().iter().zip(&inputs).zip(&expected) {
        out.extend((t.elem().size_bytes() as u32).to_le_bytes());
        out.extend((input.len() as u32).to_le_bytes());
        out.extend(input.iter().chain(want).flat_map(|v| v.to_le_bytes()));
    }
    out
}

/// Appends artifact `i` to its translation unit: the kernel text renamed
/// `polyject_k<i>` (several share a kernel name), a call of it on the
/// dump's buffers, and its registration with its launch.
fn register(tu: &mut String, i: usize, name: &str, kernel: &Kernel, ast: &Ast) {
    let buffers = (0..kernel.tensors().len()).map(|t| format!("Arg{{b[{t}]}}"));
    let mut args: Vec<String> = buffers.collect();
    args.extend(kernel.param_defaults().iter().map(i64::to_string));
    let ([gx, gy, gz], [bx, by, bz]) = launch(ast, kernel);
    let k = kernel.name();
    writeln!(
        tu,
        "#define {k} polyject_k{i}\n#include \"k{i}.cu\"\n#undef {k}\n\
         static void run_k{i}(void* const* b) {{ polyject_k{i}({}); }}\n\
         static Register reg_k{i}({{\"k{i}: {name}\", \"k{i}.bin\", {{{gx}, {gy}, {gz}}}, \
         {{{bx}, {by}, {bz}}}, run_k{i}}});",
        args.join(", "),
        name = name.replace('"', "'"),
    )
    .expect("write to a String");
}

/// The launch an artifact runs under. The printed kernel does not state
/// one (its grid and block dimensions are still the caller's), so this
/// harness picks it: one block per index of each block axis, and on each
/// thread axis 4 threads (2 on y and z) when every leaf lies under a loop
/// of that axis, else 1, so that no thread repeats another's work.
fn launch(ast: &Ast, kernel: &Kernel) -> ([i64; 3], [i64; 3]) {
    let params: Vec<i128> = kernel.param_defaults().iter().map(|&v| v.into()).collect();
    let (mut grid, mut leaves) = ([1i64; 3], Vec::new());
    for root in &ast.roots {
        walk(root, &params, 0, &mut grid, &mut leaves);
    }
    let all = |bit: u8| leaves.iter().all(|axes| axes & bit != 0);
    let mut block = [1i64; 3];
    for a in 0..3 {
        assert!(grid[a] == 1 || all(1 << a), "a leaf outside block axis {a}");
        if all(8 << a) {
            block[a] = if a == 0 { 4 } else { 2 };
        }
    }
    (grid, block)
}

/// Records each block loop's trip count in `grid`, and for each leaf the
/// axes of the loops around it: bit `a` for block axis `a`, bit `3 + a`
/// for thread axis `a`.
fn walk(node: &AstNode, params: &[i128], mut axes: u8, grid: &mut [i64; 3], leaves: &mut Vec<u8>) {
    let AstNode::Loop(l) = node else {
        leaves.push(axes);
        return;
    };
    match l.kind {
        LoopKind::Block(a) => {
            let a = usize::from(a);
            grid[a] = grid[a].max(loop_extent(l, params).unwrap_or(1));
            axes |= 1 << a;
        }
        LoopKind::Thread(a) => axes |= 8 << a,
        LoopKind::Vector(_) => axes |= 8,
        LoopKind::Seq | LoopKind::Parallel => {}
    }
    for c in &l.body {
        walk(c, params, axes, grid, leaves);
    }
}
