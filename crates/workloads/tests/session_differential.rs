//! Compile-session differential suite: one long-lived
//! [`polyject_codegen::CompileSession`] per workload kernel, driven
//! through all three configurations × PRNG-driven option samples, must be
//! **bitwise identical** to a one-shot
//! [`polyject_codegen::compile_with_options`] call (a fresh session of
//! one) — every rendered artifact byte for byte and every simulated
//! timing f64 bit for bit — while candidates after the first perform zero
//! dependence analysis and zero Farkas linearization.

use polyject_codegen::{
    compile_with_options, render_artifacts, CompileOptions, CompileSession, Compiled, Config,
};
use polyject_core::Budget;
use polyject_gpusim::{estimate, GpuModel};
use polyject_ir::{ops, Kernel};
use polyject_workloads::all_networks;

/// SplitMix64: the workspace's standard deterministic PRNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[(self.next() % choices.len() as u64) as usize]
    }
}

/// A random-but-valid [`CompileOptions`] sample: influence, mapping, and
/// tiling all vary.
fn sample_options(rng: &mut SplitMix64) -> CompileOptions {
    let mut opts = CompileOptions::default();
    for w in opts.influence.weights.iter_mut() {
        *w = (1 + rng.next() % 8) as f64;
    }
    opts.influence.thread_limit = rng.pick(&[128, 256, 512, 1024]);
    opts.influence.max_scenarios = rng.pick(&[2usize, 4, 8]);
    opts.influence.vector_widths = match rng.next() % 4 {
        0 => vec![4, 2],
        1 => vec![2],
        2 => vec![4],
        _ => vec![8, 4, 2],
    };
    opts.influence.fusion_variants = !rng.next().is_multiple_of(4);
    opts.influence.relaxed_variants = !rng.next().is_multiple_of(4);
    opts.mapping.max_threads = rng.pick(&[256, 512, 1024]);
    opts.mapping.max_thread_axes = rng.pick(&[1usize, 2, 3]);
    if rng.next().is_multiple_of(2) {
        opts.tiling = Some(polyject_codegen::TilingOptions {
            tile_size: rng.pick(&[16, 32, 64]),
            max_tiled_loops: rng.pick(&[1usize, 2]),
            ..Default::default()
        });
    }
    opts
}

/// Everything the compile produces, reduced to comparable bits: rendered
/// artifacts verbatim plus the simulator's f64 timings by bit pattern.
fn fingerprint(kernel: &Kernel, compiled: &Compiled, gpu: &GpuModel) -> Vec<String> {
    let a = render_artifacts(kernel, compiled);
    let mut fp = vec![
        a.code,
        a.cuda,
        a.schedule,
        a.schedule_tree,
        a.vector_loops.to_string(),
        a.influenced.to_string(),
    ];
    for (name, v) in estimate(&compiled.ast, kernel, gpu).to_pairs() {
        fp.push(format!("{name}={:016x}", v.to_bits()));
    }
    fp
}

fn workload_kernels() -> Vec<(&'static str, Kernel)> {
    let bert = all_networks().swap_remove(0);
    assert_eq!(bert.name, "BERT");
    vec![
        // A reduction-free BERT fusion (elementwise chain).
        ("bert-elementwise", bert.ops[35].build()),
        // A layout transpose: permutation schedules, scattered accesses.
        ("transpose2d", ops::transpose_2d(64, 96)),
        // A reduction-crossing BERT fusion: the hardest class (fallback
        // and multi-dimensional schedules).
        ("bert-layernorm", bert.ops[0].build()),
    ]
}

#[test]
fn one_session_serves_every_config_and_option_sample_bit_identically() {
    let gpu = GpuModel::v100();
    let budget = Budget::unlimited();
    for (name, kernel) in workload_kernels() {
        let mut rng = SplitMix64(name.bytes().fold(0x005e_5510_d1ff_u64, |h, b| {
            h.wrapping_mul(31).wrapping_add(b as u64)
        }));
        let session = CompileSession::new(&kernel);
        // Default options first (the tuner's anchor point), then
        // PRNG-driven samples; repeat one sample to hit the memo too.
        let mut samples = vec![CompileOptions::default()];
        for _ in 0..5 {
            samples.push(sample_options(&mut rng));
        }
        samples.push(samples[1].clone());

        let candidates = Config::all()
            .into_iter()
            .flat_map(|config| samples.iter().map(move |opts| (config, opts)));
        for (n, (config, opts)) in candidates.enumerate() {
            let tag = format!("{name} candidate {n} ({})", config.name());
            let cold = compile_with_options(&kernel, config, &budget, opts)
                .unwrap_or_else(|e| panic!("{tag}: one-shot compile failed: {e}"));
            let before = polyject_sets::counters::snapshot();
            let warm = session
                .compile_with(config, &budget, opts)
                .unwrap_or_else(|e| panic!("{tag}: session compile failed: {e}"));
            let delta = polyject_sets::counters::snapshot().delta_since(&before);
            assert_eq!(
                fingerprint(&kernel, &cold, &gpu),
                fingerprint(&kernel, &warm, &gpu),
                "{tag}: session compile diverged from the one-shot compile"
            );
            // The session analyzed dependences when it opened and
            // linearized with its first schedule; no later candidate, under
            // any configuration, recomputes either.
            assert_eq!(delta.dependence_analyses, 0, "{tag}: re-analyzed");
            if n > 0 {
                assert_eq!(delta.farkas_linearizations, 0, "{tag}: re-linearized");
                assert!(delta.session_reuses >= 1, "{tag}: no session reuse");
            }
        }
    }
}
