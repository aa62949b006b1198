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
use polyject_core::InfluenceOptions;

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

/// One point of the joint knob space.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KnobPoint {
    /// Influence-optimizer knobs (weights, limits, variant toggles).
    pub influence: InfluenceOptions,
    /// Optional tiling (`None` = untiled, the pipeline default).
    pub tiling: Option<TilingOptions>,
    /// Block/thread mapping knobs.
    pub mapping: MappingOptions,
}

impl KnobPoint {
    /// A canonical, injective textual encoding of the point. Floats are
    /// rendered as IEEE-754 bit patterns, so the key is stable across
    /// formatting changes and two keys are equal exactly when the points
    /// are.
    pub fn canonical_key(&self) -> String {
        let mut s = String::new();
        s.push_str("w=");
        for (i, w) in self.influence.weights.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{:016x}", w.to_bits()));
        }
        s.push_str(&format!(";L={}", self.influence.thread_limit));
        s.push_str(&format!(";S={}", self.influence.max_scenarios));
        s.push_str(";V=");
        for (i, v) in self.influence.vector_widths.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s.push_str(&format!(
            ";F={};R={}",
            self.influence.fusion_variants as u8, self.influence.relaxed_variants as u8
        ));
        match self.tiling {
            None => s.push_str(";T=-"),
            Some(t) => s.push_str(&format!(
                ";T={}/{}/{}",
                t.tile_size, t.min_extent, t.max_tiled_loops
            )),
        }
        s.push_str(&format!(
            ";M={}/{}/{}",
            self.mapping.max_threads, self.mapping.max_thread_axes, self.mapping.max_block_axes
        ));
        s
    }

    /// Lowers the point to the pipeline's [`CompileOptions`] — the tuner
    /// searches the spaces the paper leaves to "respective tool
    /// auto-tuners", not solver caps.
    pub fn to_compile_options(&self) -> CompileOptions {
        CompileOptions {
            influence: self.influence.clone(),
            mapping: self.mapping,
            tiling: self.tiling,
        }
    }

    /// Draws a uniform point of the space.
    pub fn sample(rng: &mut SplitMix64) -> KnobPoint {
        let mut p = KnobPoint::default();
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

    /// Re-draws one knob group (a local move for the beam search). The
    /// result may coincide with `self`; callers dedupe by
    /// [`KnobPoint::canonical_key`].
    pub fn mutate(&self, rng: &mut SplitMix64) -> KnobPoint {
        let mut p = self.clone();
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

    #[test]
    fn canonical_key_is_injective_on_the_menus() {
        let mut rng = SplitMix64::new(7);
        let mut keys = Vec::new();
        let mut points = Vec::new();
        for _ in 0..200 {
            let p = KnobPoint::sample(&mut rng);
            let k = p.canonical_key();
            if let Some(i) = keys.iter().position(|x| *x == k) {
                assert_eq!(points[i], p, "equal keys must mean equal points");
            }
            keys.push(k);
            points.push(p);
        }
    }

    #[test]
    fn default_point_lowers_to_default_options() {
        let opts = KnobPoint::default().to_compile_options();
        assert_eq!(opts.mapping, MappingOptions::default());
        assert!(opts.tiling.is_none());
        assert_eq!(opts.influence.weights, InfluenceOptions::default().weights);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let a: Vec<String> = {
            let mut rng = SplitMix64::new(42);
            (0..32)
                .map(|_| KnobPoint::sample(&mut rng).canonical_key())
                .collect()
        };
        let b: Vec<String> = {
            let mut rng = SplitMix64::new(42);
            (0..32)
                .map(|_| KnobPoint::sample(&mut rng).canonical_key())
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn mutation_never_disables_both_variant_toggles() {
        let mut rng = SplitMix64::new(3);
        let mut p = KnobPoint::default();
        for _ in 0..500 {
            p = p.mutate(&mut rng);
            assert!(p.influence.fusion_variants || p.influence.relaxed_variants);
        }
    }
}
