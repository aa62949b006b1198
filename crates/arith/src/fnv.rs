//! Stable content hashing: FNV-1a 64-bit, implemented in-repo (the
//! workspace is offline; no external hash crates) and guaranteed stable
//! across runs, platforms, and compiler versions — unlike
//! `std::collections::hash_map::DefaultHasher`, whose output is
//! explicitly unspecified and randomly seeded. The workspace's one
//! implementation: constraint fingerprints, tuner digests and the serving
//! layer's cache keys all fold through it.

/// An incremental FNV-1a 64-bit hasher.
///
/// # Examples
///
/// ```
/// use polyject_arith::{fnv1a64, Fnv64};
///
/// let mut h = Fnv64::new();
/// h.write(b"hello");
/// assert_eq!(h.finish(), fnv1a64(b"hello"));
/// ```
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs bytes, one FNV-1a step each — the published byte-wise hash.
    /// For text and for anything stored or compared across processes
    /// (cache keys, digests), whose value must never depend on how the
    /// input was chunked.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_word(u64::from(b));
        }
    }

    /// Absorbs one 64-bit word in a single xor-multiply step: an eighth
    /// of the multiplies `write` spends on the same eight bytes, and not
    /// the same hash. For in-memory fingerprints over machine words
    /// (constraint coefficients, already-mixed fingerprints being
    /// combined) that only pre-filter a deep comparison.
    #[inline]
    pub fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a string plus a separator byte (so `("ab","c")` and
    /// `("a","bc")` hash differently when fields are written in
    /// sequence).
    pub fn write_field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0x1f]);
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The current hash value as a fixed-width 16-char lowercase hex
    /// string (the cache key format).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_separation_avoids_concatenation_collisions() {
        let mut a = Fnv64::new();
        a.write_field("ab");
        a.write_field("c");
        let mut b = Fnv64::new();
        b.write_field("a");
        b.write_field("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
