//! The joint knob space the tuner searches: influence-tree options
//! (cost weights and scenario-variant toggles), tiling, and GPU mapping.
//!
//! Every knob draws from a small *discrete* menu so the space is finite,
//! every point has a canonical textual key (used for deduplication and
//! for digesting candidate logs), and sampling/mutation is driven by a
//! caller-supplied [`SplitMix64`] — the same seed always walks the same
//! sequence of points, which is what makes tuning replayable
//! byte-for-byte.

use polyject_arith::SplitMix64;
use polyject_codegen::{CompileOptions, MappingOptions, TilingOptions};

/// Menu for each of the five influence cost weights `w₁..w₅`.
const WEIGHT_CHOICES: [f64; 6] = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0];
/// Menu for the per-block thread budget `L`.
const THREAD_LIMITS: [i64; 3] = [256, 512, 1024];
/// Menu for the scenario-branch cap.
const MAX_SCENARIOS: [usize; 3] = [2, 4, 8];
/// Menu for the supported vector-width sets (elements; width 3 is
/// unsupported, as in the paper).
const VECTOR_WIDTH_SETS: [&[i64]; 3] = [&[4, 2], &[4], &[2]];
/// Menu for the tile size; `min_extent` follows as `2 × tile_size`.
const TILE_SIZES: [i64; 4] = [16, 32, 64, 128];
/// Menu for tiled loops per nest.
const TILED_LOOPS: [usize; 3] = [1, 2, 3];
/// Menu for the mapping thread budget.
const MAP_THREADS: [i64; 4] = [128, 256, 512, 1024];
/// Menu for thread axes.
const THREAD_AXES: [usize; 3] = [1, 2, 3];
/// Menu for block axes.
const BLOCK_AXES: [usize; 2] = [2, 3];

/// One point of the joint knob space — the pipeline's options, whose
/// [`CompileOptions::canonical_key`] the search dedups, tie-breaks and
/// digests by. The alias keeps the name `benchmark/`'s runner uses.
pub type KnobPoint = CompileOptions;

/// Draws a uniform point of the space.
pub fn sample(rng: &mut SplitMix64) -> CompileOptions {
    let mut p = CompileOptions::default();
    for i in 0..5 {
        p.influence.weights[i] = WEIGHT_CHOICES[rng.below(WEIGHT_CHOICES.len())];
    }
    p.influence.thread_limit = THREAD_LIMITS[rng.below(THREAD_LIMITS.len())];
    p.influence.max_scenarios = MAX_SCENARIOS[rng.below(MAX_SCENARIOS.len())];
    p.influence.vector_widths = VECTOR_WIDTH_SETS[rng.below(VECTOR_WIDTH_SETS.len())].to_vec();
    p.influence.fusion_variants = rng.below(2) == 0;
    p.influence.relaxed_variants = rng.below(2) == 0;
    p.tiling = sample_tiling(rng);
    p.mapping = sample_mapping(rng);
    p
}

/// Re-draws one knob group of `point` (a local move for the beam
/// search). The result may coincide with `point`; callers dedupe by
/// [`CompileOptions::canonical_key`].
pub(crate) fn mutate(point: &CompileOptions, rng: &mut SplitMix64) -> CompileOptions {
    let mut p = point.clone();
    match rng.below(8) {
        0 => {
            let i = rng.below(5);
            p.influence.weights[i] = WEIGHT_CHOICES[rng.below(WEIGHT_CHOICES.len())];
        }
        1 => p.influence.thread_limit = THREAD_LIMITS[rng.below(THREAD_LIMITS.len())],
        2 => p.influence.max_scenarios = MAX_SCENARIOS[rng.below(MAX_SCENARIOS.len())],
        3 => {
            p.influence.vector_widths =
                VECTOR_WIDTH_SETS[rng.below(VECTOR_WIDTH_SETS.len())].to_vec();
        }
        4 => {
            // Flip one variant toggle, but never both off: an empty
            // influence tree degenerates to the isl baseline, which
            // the default point already covers.
            if rng.below(2) == 0 {
                p.influence.fusion_variants = !p.influence.fusion_variants;
            } else {
                p.influence.relaxed_variants = !p.influence.relaxed_variants;
            }
            if !p.influence.fusion_variants && !p.influence.relaxed_variants {
                p.influence.fusion_variants = true;
            }
        }
        5 => p.tiling = sample_tiling(rng),
        6 => p.mapping = sample_mapping(rng),
        _ => {
            p.mapping.max_threads = MAP_THREADS[rng.below(MAP_THREADS.len())];
        }
    }
    p
}

fn sample_tiling(rng: &mut SplitMix64) -> Option<TilingOptions> {
    // Untiled with probability 1/(|TILE_SIZES|·|TILED_LOOPS| + 1)… keep it
    // simpler and more exploratory: one in four draws is untiled.
    if rng.below(4) == 0 {
        return None;
    }
    let tile_size = TILE_SIZES[rng.below(TILE_SIZES.len())];
    Some(TilingOptions {
        tile_size,
        min_extent: tile_size * 2,
        max_tiled_loops: TILED_LOOPS[rng.below(TILED_LOOPS.len())],
    })
}

fn sample_mapping(rng: &mut SplitMix64) -> MappingOptions {
    MappingOptions {
        max_threads: MAP_THREADS[rng.below(MAP_THREADS.len())],
        max_thread_axes: THREAD_AXES[rng.below(THREAD_AXES.len())],
        max_block_axes: BLOCK_AXES[rng.below(BLOCK_AXES.len())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::grid_anchors;

    #[test]
    fn canonical_key_is_injective_on_the_menus() {
        let mut rng = SplitMix64::new(7);
        let mut keys = Vec::new();
        let mut points = Vec::new();
        for _ in 0..200 {
            let p = sample(&mut rng);
            let k = p.canonical_key();
            if let Some(i) = keys.iter().position(|x| *x == k) {
                assert_eq!(points[i], p, "equal keys must mean equal points");
            }
            keys.push(k);
            points.push(p);
        }
    }

    /// The default point, one point per menu value (the rest default).
    fn menu_points() -> Vec<CompileOptions> {
        let mut points = vec![CompileOptions::default()];
        let mut with = |f: &dyn Fn(&mut CompileOptions)| {
            let mut p = CompileOptions::default();
            f(&mut p);
            points.push(p);
        };
        for i in 0..5 {
            for w in WEIGHT_CHOICES {
                with(&|p| p.influence.weights[i] = w);
            }
        }
        for l in THREAD_LIMITS {
            with(&|p| p.influence.thread_limit = l);
        }
        for s in MAX_SCENARIOS {
            with(&|p| p.influence.max_scenarios = s);
        }
        for v in VECTOR_WIDTH_SETS {
            with(&|p| p.influence.vector_widths = v.to_vec());
        }
        for (f, r) in [(false, true), (true, false), (false, false)] {
            with(&|p| (p.influence.fusion_variants, p.influence.relaxed_variants) = (f, r));
        }
        for tile_size in TILE_SIZES {
            for max_tiled_loops in TILED_LOOPS {
                with(&|p| {
                    p.tiling = Some(TilingOptions {
                        tile_size,
                        min_extent: 2 * tile_size,
                        max_tiled_loops,
                    })
                });
            }
        }
        for t in MAP_THREADS {
            with(&|p| p.mapping.max_threads = t);
        }
        for a in THREAD_AXES {
            with(&|p| p.mapping.max_thread_axes = a);
        }
        for b in BLOCK_AXES {
            with(&|p| p.mapping.max_block_axes = b);
        }
        points
    }

    #[test]
    fn canonical_key_round_trips_over_the_space() {
        let mut points = menu_points();
        points.extend(grid_anchors());
        let mut rng = SplitMix64::new(11);
        points.extend((0..1000).map(|_| sample(&mut rng)));
        let mut p = CompileOptions::default();
        for _ in 0..200 {
            p = mutate(&p, &mut rng);
            points.push(p.clone());
        }
        for p in &points {
            let key = p.canonical_key();
            let decoded = CompileOptions::from_canonical_key(&key).unwrap();
            assert_eq!(&decoded, p, "{key}");
            assert_eq!(decoded.canonical_key(), key);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let a: Vec<String> = {
            let mut rng = SplitMix64::new(42);
            (0..32).map(|_| sample(&mut rng).canonical_key()).collect()
        };
        let b: Vec<String> = {
            let mut rng = SplitMix64::new(42);
            (0..32).map(|_| sample(&mut rng).canonical_key()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn mutation_never_disables_both_variant_toggles() {
        let mut rng = SplitMix64::new(3);
        let mut p = CompileOptions::default();
        for _ in 0..500 {
            p = mutate(&p, &mut rng);
            assert!(p.influence.fusion_variants || p.influence.relaxed_variants);
        }
    }
}
