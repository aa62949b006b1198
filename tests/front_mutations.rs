//! Truncated and mutated `.pj` sources never panic the front end.
//!
//! The serving tier canonicalises whatever source a client sends, so
//! `polyject_front::canonical_pj` must answer every input with `Ok` or
//! `Err`. Over every distinct Table II source this test truncates at
//! every char boundary, then makes seeded single-character insertions
//! and substitutions from an alphabet of multi-byte characters, digits,
//! `.`, `_`, brackets and operators. Every `Ok` must be a fixed point.

use polyject::workloads::all_networks;
use polyject_front::canonical_pj;
use std::collections::BTreeSet;

/// The alphabet mutations draw from.
const ALPHABET: [char; 24] = [
    'é', '∑', '.', '_', '0', '1', '7', '9', '(', ')', '[', ']', '+', '-', '*', '/', ',', ':', '=',
    ' ', '\n', '#', 'N', 'i',
];

/// Seeded single-character mutations made over the whole population.
const MUTATIONS: usize = 400;

/// SplitMix64: a seeded, dependency-free generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `Ok` must be a fixed point; `Err` is an answer too. A panic fails
/// the test. Returns whether the source parsed.
fn check(src: &str) -> bool {
    match canonical_pj(src) {
        Ok(canonical) => {
            assert_eq!(canonical_pj(&canonical).as_ref(), Ok(&canonical), "{src}");
            true
        }
        Err(_) => false,
    }
}

fn table2_sources() -> Vec<String> {
    let mut seen = BTreeSet::new();
    polyject_bench::table2_batch_items(&all_networks())
        .into_iter()
        .filter(|item| seen.insert(item.src.clone()))
        .map(|item| item.src)
        .collect()
}

#[test]
fn every_truncation_of_every_table2_source_answers() {
    let (mut cuts, mut parsed) = (0, 0);
    for src in table2_sources() {
        for at in (0..=src.len()).filter(|&at| src.is_char_boundary(at)) {
            cuts += 1;
            parsed += usize::from(check(&src[..at]));
        }
    }
    assert!(cuts > 50_000, "{cuts} truncations");
    // The uncut source, and a cut after a statement's last token, parse.
    assert!(parsed > 0, "no truncation parsed");
}

#[test]
fn seeded_single_character_mutations_answer() {
    let sources = table2_sources();
    let mut rng = SplitMix64(7);
    let (mut parsed, mut rejected) = (0, 0);
    for _ in 0..MUTATIONS {
        let src = &sources[rng.below(sources.len())];
        let chars: Vec<char> = src.chars().collect();
        let at = rng.below(chars.len());
        let c = ALPHABET[rng.below(ALPHABET.len())];
        let mut mutated: String = chars[..at].iter().collect();
        mutated.push(c);
        // Odd draws insert, even draws substitute.
        let rest = if rng.next() % 2 == 1 { at } else { at + 1 };
        mutated.extend(&chars[rest..]);
        if check(&mutated) {
            parsed += 1;
        } else {
            rejected += 1;
        }
    }
    // Both outcomes occur, so neither path goes untested.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
