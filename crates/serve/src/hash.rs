//! Cache-key renderings over the workspace's FNV-1a 64 hasher
//! ([`polyject_arith::Fnv64`]).

pub use polyject_arith::{fnv1a64, Fnv64};

/// One-shot FNV-1a 64 of a string, as the 16-char hex form used for
/// cache keys and entry checksums.
pub fn hex_digest(text: &str) -> String {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.hex()
}

/// Renders an `f64` as its IEEE-754 bit pattern in hex — the form used
/// inside cache key material so that configuration floats (influence
/// weights, GPU bandwidths) contribute exactly, with no formatting
/// ambiguity.
pub fn f64_bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_is_fixed_width() {
        let mut h = Fnv64::new();
        h.write(b"x");
        assert_eq!(h.hex().len(), 16);
        assert_eq!(hex_digest("x"), h.hex());
    }

    #[test]
    fn f64_bits_are_exact() {
        assert_ne!(f64_bits_hex(0.1), f64_bits_hex(0.1 + 1e-17_f64));
        assert_eq!(f64_bits_hex(5.0), f64_bits_hex(5.0));
        assert_ne!(f64_bits_hex(0.0), f64_bits_hex(-0.0));
    }
}
