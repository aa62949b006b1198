//! Exact rational numbers over `i128`.
//!
//! Polyhedral scheduling only ever manipulates tiny coefficients (loop
//! strides, Farkas multipliers, schedule coefficients), so an `i128`
//! numerator/denominator pair with eager normalization is both exact and
//! fast. All arithmetic is checked: an overflow is a bug in the caller's
//! problem formulation and panics rather than silently wrapping.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Greatest common divisor of two integers, by absolute value.
///
/// Safe on `i128::MIN`: magnitudes are taken with [`i128::unsigned_abs`],
/// so `gcd(i128::MIN, 3)` reduces normally instead of panicking inside
/// `abs()`. Small operands take a `u64` Euclid loop (`u64` remainders are
/// several times cheaper than `i128` ones on the solver hot path).
///
/// # Panics
///
/// Panics only when the mathematical result is `2^127` itself (i.e.
/// `gcd(i128::MIN, 0)` or `gcd(i128::MIN, i128::MIN)`), which is not
/// representable as an `i128`.
///
/// # Examples
///
/// ```
/// assert_eq!(polyject_arith::gcd(12, 18), 6);
/// assert_eq!(polyject_arith::gcd(0, 7), 7);
/// assert_eq!(polyject_arith::gcd(i128::MIN, 3), 1);
/// ```
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut x, mut y) = (a.unsigned_abs(), b.unsigned_abs());
    if x <= u64::MAX as u128 && y <= u64::MAX as u128 {
        let (mut x, mut y) = (x as u64, y as u64);
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        return x as i128;
    }
    while y != 0 {
        let t = x % y;
        x = y;
        y = t;
    }
    i128::try_from(x).expect("gcd of 2^127 is not representable as i128")
}

/// Least common multiple of two integers (by absolute value).
///
/// # Panics
///
/// Panics on overflow.
///
/// # Examples
///
/// ```
/// assert_eq!(polyject_arith::lcm(4, 6), 12);
/// assert_eq!(polyject_arith::lcm(0, 5), 0);
/// ```
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).checked_mul(b).expect("lcm overflow").abs()
}

/// An exact rational number with `i128` numerator and denominator.
///
/// Invariants: the denominator is strictly positive and
/// `gcd(|numer|, denom) == 1` (zero is stored as `0/1`).
///
/// # Examples
///
/// ```
/// use polyject_arith::Rat;
/// let a = Rat::new(1, 3);
/// let b = Rat::new(1, 6);
/// assert_eq!(a + b, Rat::new(1, 2));
/// assert!(a > b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    numer: i128,
    denom: i128,
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { numer: 0, denom: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { numer: 1, denom: 1 };

    /// Creates a rational from a numerator and denominator, normalizing sign
    /// and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use polyject_arith::Rat;
    /// assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
    /// ```
    pub fn new(numer: i128, denom: i128) -> Rat {
        assert!(denom != 0, "rational with zero denominator");
        let g = gcd(numer, denom);
        let (mut n, mut d) = if g == 0 {
            (0, 1)
        } else {
            (numer / g, denom / g)
        };
        if d < 0 {
            n = n.checked_neg().expect("rational overflow");
            d = d.checked_neg().expect("rational overflow");
        }
        Rat { numer: n, denom: d }
    }

    /// Creates an integer-valued rational.
    pub fn int(v: i128) -> Rat {
        Rat { numer: v, denom: 1 }
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.numer
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.denom
    }

    /// Whether this value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Whether this value is an integer.
    pub fn is_integer(&self) -> bool {
        self.denom == 1
    }

    /// Whether this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer < 0
    }

    /// Whether this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.numer > 0
    }

    /// Returns the integer value if this rational is an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use polyject_arith::Rat;
    /// assert_eq!(Rat::int(4).to_integer(), Some(4));
    /// assert_eq!(Rat::new(1, 2).to_integer(), None);
    /// ```
    pub fn to_integer(&self) -> Option<i128> {
        if self.denom == 1 {
            Some(self.numer)
        } else {
            None
        }
    }

    /// Largest integer `<= self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use polyject_arith::Rat;
    /// assert_eq!(Rat::new(7, 2).floor(), 3);
    /// assert_eq!(Rat::new(-7, 2).floor(), -4);
    /// ```
    pub fn floor(&self) -> i128 {
        self.numer.div_euclid(self.denom)
    }

    /// Smallest integer `>= self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use polyject_arith::Rat;
    /// assert_eq!(Rat::new(7, 2).ceil(), 4);
    /// assert_eq!(Rat::new(-7, 2).ceil(), -3);
    /// ```
    pub fn ceil(&self) -> i128 {
        let q = self.numer.div_euclid(self.denom);
        if self.numer.rem_euclid(self.denom) != 0 {
            q + 1
        } else {
            q
        }
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if the numerator is `i128::MIN` (whose magnitude is not
    /// representable).
    pub fn abs(&self) -> Rat {
        Rat {
            numer: self.numer.checked_abs().expect("rational overflow"),
            denom: self.denom,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(self.numer != 0, "reciprocal of zero");
        Rat::new(self.denom, self.numer)
    }

    /// `self + rhs` for any operands: cross-multiply, then one
    /// normalization in [`Rat::new`].
    fn add_fractions(self, rhs: Rat) -> Rat {
        if self.small() && rhs.small() {
            // i64-range operands cannot overflow i128 products or their sum.
            return Rat::new(
                self.numer * rhs.denom + rhs.numer * self.denom,
                self.denom * rhs.denom,
            );
        }
        let g = gcd(self.denom, rhs.denom);
        let (db, dd) = (self.denom / g, rhs.denom / g);
        let n = self
            .numer
            .checked_mul(dd)
            .and_then(|a| rhs.numer.checked_mul(db).and_then(|b| a.checked_add(b)));
        let d = self.denom.checked_mul(dd);
        Rat::checked(n, d)
    }

    /// `self * rhs` for any operands.
    fn mul_fractions(self, rhs: Rat) -> Rat {
        if self.small() && rhs.small() {
            // One normalization gcd instead of two cross-reductions plus one.
            return Rat::new(self.numer * rhs.numer, self.denom * rhs.denom);
        }
        // Cross-reduce before multiplying to shrink intermediates.
        let g1 = gcd(self.numer, rhs.denom);
        let g2 = gcd(rhs.numer, self.denom);
        let (n1, d2) = if g1 == 0 {
            (0, 1)
        } else {
            (self.numer / g1, rhs.denom / g1)
        };
        let (n2, d1) = if g2 == 0 {
            (0, 1)
        } else {
            (rhs.numer / g2, self.denom / g2)
        };
        Rat::checked(n1.checked_mul(n2), d1.checked_mul(d2))
    }

    fn checked(n: Option<i128>, d: Option<i128>) -> Rat {
        Rat::new(n.expect("rational overflow"), d.expect("rational overflow"))
    }

    /// Whether numerator and denominator both fit in `i64`. Products of two
    /// such values cannot overflow `i128`, so arithmetic on small rationals
    /// can skip the checked-multiply machinery entirely.
    #[inline]
    fn small(&self) -> bool {
        self.numer as i64 as i128 == self.numer && self.denom as i64 as i128 == self.denom
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::ZERO
    }
}

impl From<i128> for Rat {
    fn from(v: i128) -> Rat {
        Rat::int(v)
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::int(v as i128)
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat::int(v as i128)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b (b, d > 0)
        if self.small() && other.small() {
            return (self.numer * other.denom).cmp(&(other.numer * self.denom));
        }
        let lhs = self
            .numer
            .checked_mul(other.denom)
            .expect("rational overflow");
        let rhs = other
            .numer
            .checked_mul(self.denom)
            .expect("rational overflow");
        lhs.cmp(&rhs)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        if self.denom == 1 && rhs.denom == 1 {
            // A sum of integers is in lowest terms as it stands.
            return Rat::int(
                self.numer
                    .checked_add(rhs.numer)
                    .expect("rational overflow"),
            );
        }
        self.add_fractions(rhs)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.denom == 1 && rhs.denom == 1 {
            // A product of integers is in lowest terms as it stands.
            return Rat::int(
                self.numer
                    .checked_mul(rhs.numer)
                    .expect("rational overflow"),
            );
        }
        self.mul_fractions(rhs)
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiply-by-reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            numer: self.numer.checked_neg().expect("rational overflow"),
            denom: self.denom,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl std::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -5), Rat::ZERO);
        assert_eq!(Rat::new(0, 3).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rat::new(3, 7);
        assert_eq!(a + Rat::ZERO, a);
        assert_eq!(a * Rat::ONE, a);
        assert_eq!(a - a, Rat::ZERO);
        assert_eq!(a / a, Rat::ONE);
        assert_eq!(-(-a), a);
        assert_eq!(a * a.recip(), Rat::ONE);
    }

    #[test]
    fn mixed_arithmetic() {
        assert_eq!(Rat::new(1, 2) + Rat::new(1, 3), Rat::new(5, 6));
        assert_eq!(Rat::new(1, 2) - Rat::new(1, 3), Rat::new(1, 6));
        assert_eq!(Rat::new(2, 3) * Rat::new(3, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, 3) / Rat::new(4, 3), Rat::new(1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(7, 3) > Rat::int(2));
        let mut v = vec![Rat::int(3), Rat::new(1, 2), Rat::new(-5, 2)];
        v.sort();
        assert_eq!(v, vec![Rat::new(-5, 2), Rat::new(1, 2), Rat::int(3)]);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
        assert_eq!(Rat::new(5, 2).floor(), 2);
        assert_eq!(Rat::new(5, 2).ceil(), 3);
        assert_eq!(Rat::new(-5, 2).floor(), -3);
        assert_eq!(Rat::new(-5, 2).ceil(), -2);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 4).to_string(), "3/4");
        assert_eq!(Rat::int(-2).to_string(), "-2");
    }

    #[test]
    fn sum_iterator() {
        let s: Rat = (1..=4).map(|i| Rat::new(1, i)).sum();
        assert_eq!(s, Rat::new(25, 12));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(lcm(-4, 6), 12);
        assert_eq!(lcm(0, 0), 0);
    }

    #[test]
    fn gcd_i128_min_regression() {
        // gcd(i128::MIN, x) used to panic inside `a.abs()`; the magnitude
        // 2^127 must now reduce normally against any nonzero |x| < 2^127.
        assert_eq!(gcd(i128::MIN, 3), 1);
        assert_eq!(gcd(i128::MIN, 2), 2);
        assert_eq!(gcd(i128::MIN, 1), 1);
        assert_eq!(gcd(3, i128::MIN), 1);
        assert_eq!(gcd(i128::MIN, 1 << 40), 1 << 40);
        assert_eq!(gcd(i128::MIN, i128::MAX), 1);
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn gcd_i128_min_zero_panics_explicitly() {
        // The true gcd is 2^127, which i128 cannot hold; this must be a
        // clear panic, not a wrap.
        let _ = gcd(i128::MIN, 0);
    }

    #[test]
    fn gcd_large_path_beyond_u64() {
        let a = (1i128 << 100) * 3;
        let b = (1i128 << 100) * 5;
        assert_eq!(gcd(a, b), 1i128 << 100);
    }

    #[test]
    fn ceil_handles_extremes() {
        assert_eq!(Rat::int(i128::MIN).ceil(), i128::MIN);
        assert_eq!(Rat::int(i128::MAX).ceil(), i128::MAX);
        assert_eq!(
            Rat::new(i128::MIN + 1, 2).ceil(),
            (i128::MIN + 1).div_euclid(2) + 1
        );
    }

    type BinOp = fn(Rat, Rat) -> Rat;

    /// `f(a, b)`, or `None` where it panics (an overflow).
    fn outcome(f: BinOp, a: Rat, b: Rat) -> Option<Rat> {
        std::panic::catch_unwind(|| f(a, b)).ok()
    }

    /// The integer short cuts of `+`, `-` and `*` against the general
    /// path they stand in for: same value, same canonical form, same
    /// operands refused — on random integers of every magnitude, and at
    /// the `i64` and `i128` edges where the general path changes method
    /// (`small`) or overflows.
    #[test]
    fn integer_shortcuts_match_the_general_path() {
        let general: [(BinOp, BinOp); 3] = [
            (|a, b| a + b, |a, b| a.add_fractions(b)),
            (|a, b| a - b, |a, b| a.add_fractions(-b)),
            (|a, b| a * b, |a, b| a.mul_fractions(b)),
        ];
        let i64_edge = i64::MAX as i128;
        let mut edges = vec![0, 1, -1, 2, -3];
        for e in [i64_edge, 1 << 64, 1 << 100, i128::MAX] {
            edges.extend([e - 1, e, -e, 1 - e]);
        }
        edges.extend([i64_edge + 1, i64_edge + 2, i128::MIN, i128::MIN + 1]);
        let mut g = crate::SplitMix64::new(0x5eed_0023);
        let mut operands: Vec<(i128, i128)> = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .collect();
        for _ in 0..4000 {
            // A random magnitude first, so that every width is exercised.
            let mut draw = || {
                let wide = (g.next_u64() as i128) << 64 | g.next_u64() as i128;
                wide >> g.below(128)
            };
            operands.push((draw(), draw()));
        }
        let mismatches: Vec<_> = operands
            .iter()
            .flat_map(|&(a, b)| {
                general
                    .iter()
                    .enumerate()
                    .filter_map(move |(op, (short, long))| {
                        let got = outcome(*short, Rat::int(a), Rat::int(b));
                        let want = outcome(*long, Rat::int(a), Rat::int(b));
                        (got != want).then_some((op, a, b, got, want))
                    })
            })
            .collect();
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    /// A fraction on either side hands over to the general path.
    #[test]
    fn mixed_integer_and_fraction_operands_normalize() {
        let mut g = crate::SplitMix64::new(0x5eed_0024);
        for _ in 0..2000 {
            let a = Rat::int(g.range_i128(-50, 51));
            let b = Rat::new(g.range_i128(-50, 51), g.range_i128(1, 13));
            for r in [a + b, b + a, a - b, b - a, a * b, b * a] {
                assert_eq!(r, Rat::new(r.numer(), r.denom()), "{a} and {b}");
            }
            assert_eq!(a + b - b, a);
            if !b.is_zero() {
                assert_eq!(a * b / b, a);
            }
        }
    }

    #[test]
    fn large_value_arithmetic_falls_back() {
        // Values beyond i64 exercise the checked i128 path.
        let big = Rat::new(i64::MAX as i128 * 5, 3);
        assert_eq!(big + Rat::ZERO, big);
        assert_eq!(big * Rat::ONE, big);
        assert!(big > Rat::int(i64::MAX as i128));
    }
}
