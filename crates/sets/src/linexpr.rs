//! Affine expressions over a fixed, positional variable space.
//!
//! A [`LinExpr`] is `c₀·x₀ + … + c_{n-1}·x_{n-1} + k`. The meaning of each
//! position (iterator, parameter, schedule coefficient, Farkas multiplier…)
//! is owned by the caller; this crate is purely positional.

use polyject_arith::Rat;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine expression: rational coefficients over `n_vars` variables plus
/// a constant term.
///
/// # Examples
///
/// ```
/// use polyject_sets::LinExpr;
/// use polyject_arith::Rat;
///
/// // 2*x0 - x1 + 3 over a 2-variable space
/// let e = LinExpr::from_coeffs(&[2, -1], 3);
/// assert_eq!(e.eval(&[Rat::int(1), Rat::int(4)]), Rat::int(1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LinExpr {
    coeffs: Vec<Rat>,
    constant: Rat,
}

impl LinExpr {
    /// The zero expression over `n_vars` variables.
    pub fn zero(n_vars: usize) -> LinExpr {
        LinExpr {
            coeffs: vec![Rat::ZERO; n_vars],
            constant: Rat::ZERO,
        }
    }

    /// The expression consisting of the single variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn var(n_vars: usize, var: usize) -> LinExpr {
        assert!(var < n_vars, "variable index out of range");
        let mut e = LinExpr::zero(n_vars);
        e.coeffs[var] = Rat::ONE;
        e
    }

    /// A constant expression.
    pub fn constant(n_vars: usize, value: impl Into<Rat>) -> LinExpr {
        let mut e = LinExpr::zero(n_vars);
        e.constant = value.into();
        e
    }

    /// Builds an expression from integer coefficients and an integer
    /// constant.
    pub fn from_coeffs(coeffs: &[i128], constant: i128) -> LinExpr {
        LinExpr {
            coeffs: coeffs.iter().map(|&c| Rat::int(c)).collect(),
            constant: Rat::int(constant),
        }
    }

    /// Builds an expression from rational coefficients and constant.
    pub fn from_rat_coeffs(coeffs: Vec<Rat>, constant: Rat) -> LinExpr {
        LinExpr { coeffs, constant }
    }

    /// Number of variables in the expression's space.
    pub fn n_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// Coefficient of variable `var`.
    pub fn coeff(&self, var: usize) -> Rat {
        self.coeffs[var]
    }

    /// Sets the coefficient of variable `var`.
    pub fn set_coeff(&mut self, var: usize, value: impl Into<Rat>) {
        self.coeffs[var] = value.into();
    }

    /// The constant term.
    pub fn constant_term(&self) -> Rat {
        self.constant
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, value: impl Into<Rat>) {
        self.constant = value.into();
    }

    /// All coefficients as a slice.
    pub fn coeffs(&self) -> &[Rat] {
        &self.coeffs
    }

    /// Whether the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.constant.is_zero() && self.coeffs.iter().all(Rat::is_zero)
    }

    /// Whether the expression is a constant (no variable occurs).
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(Rat::is_zero)
    }

    /// Evaluates the expression at a point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.n_vars()`.
    pub fn eval(&self, point: &[Rat]) -> Rat {
        assert_eq!(point.len(), self.coeffs.len(), "dimension mismatch");
        self.coeffs
            .iter()
            .zip(point)
            .fold(self.constant, |acc, (&c, &x)| acc + c * x)
    }

    /// Evaluates the expression at an integer point.
    pub fn eval_int(&self, point: &[i128]) -> Rat {
        assert_eq!(point.len(), self.coeffs.len(), "dimension mismatch");
        self.coeffs
            .iter()
            .zip(point)
            .fold(self.constant, |acc, (&c, &x)| acc + c * Rat::int(x))
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: Rat) -> LinExpr {
        LinExpr {
            coeffs: self.coeffs.iter().map(|&c| c * factor).collect(),
            constant: self.constant * factor,
        }
    }

    /// Extends the variable space to `n_vars` (new variables get coefficient
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if `n_vars < self.n_vars()`.
    pub fn extended(&self, n_vars: usize) -> LinExpr {
        assert!(n_vars >= self.coeffs.len(), "cannot shrink space");
        let mut coeffs = self.coeffs.clone();
        coeffs.resize(n_vars, Rat::ZERO);
        LinExpr {
            coeffs,
            constant: self.constant,
        }
    }

    /// Inserts `count` fresh zero-coefficient variables starting at
    /// position `at`, shifting later variables right.
    pub fn with_vars_inserted(&self, at: usize, count: usize) -> LinExpr {
        assert!(at <= self.coeffs.len(), "insertion point out of range");
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + count);
        coeffs.extend_from_slice(&self.coeffs[..at]);
        coeffs.extend(std::iter::repeat_n(Rat::ZERO, count));
        coeffs.extend_from_slice(&self.coeffs[at..]);
        LinExpr {
            coeffs,
            constant: self.constant,
        }
    }

    /// Normalizes the expression so that all coefficients and the constant
    /// are coprime integers. Preserves the zero set of `expr = 0` and the
    /// direction of `expr >= 0` only up to a positive factor, so callers
    /// must not flip signs: the leading-sign canonicalization is applied
    /// only by [`LinExpr::normalized_eq`].
    ///
    /// # Panics
    ///
    /// Panics if an integerized entry overflows `i128`.
    pub fn normalized_ineq(&self) -> LinExpr {
        let mut e = self.clone();
        e.normalize_ineq();
        e
    }

    /// Normalization for equalities: integer, coprime, first nonzero entry
    /// positive (sign flips are allowed for `expr = 0`).
    ///
    /// # Panics
    ///
    /// Panics if an integerized entry overflows `i128`.
    pub fn normalized_eq(&self) -> LinExpr {
        let mut e = self.clone();
        e.normalize_eq();
        e
    }

    /// [`LinExpr::normalized_ineq`] in place. The work is proportional to
    /// what is not already normal: a row of integers (every row a solver
    /// or a projection hands back) costs one compare per entry for the
    /// denominators, its content scan stops at the first gcd of 1 — the
    /// first unit coefficient — and a row that was normal already is not
    /// written to. Only fractions pay an lcm, only a common factor a
    /// division per entry.
    pub(crate) fn normalize_ineq(&mut self) {
        let mut denom_lcm: i128 = 1;
        for c in self.entries() {
            if !c.is_integer() {
                denom_lcm = polyject_arith::lcm(denom_lcm, c.denom());
            }
        }
        if denom_lcm != 1 {
            self.map_entries(|c| {
                c.numer()
                    .checked_mul(denom_lcm / c.denom())
                    .expect("rational overflow")
            });
        }
        let mut g: i128 = 0;
        for c in self.entries() {
            if g == 1 {
                break;
            }
            if !c.is_zero() {
                g = polyject_arith::gcd(g, c.numer());
            }
        }
        if g > 1 {
            self.map_entries(|c| c.numer() / g);
        }
    }

    /// [`LinExpr::normalized_eq`] in place.
    pub(crate) fn normalize_eq(&mut self) {
        self.normalize_ineq();
        if self
            .entries()
            .find(|c| !c.is_zero())
            .is_some_and(Rat::is_negative)
        {
            self.map_entries(|c| c.numer().checked_neg().expect("rational overflow"));
        }
    }

    /// The coefficients, then the constant.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Rat> {
        self.coeffs.iter().chain(std::iter::once(&self.constant))
    }

    /// Replaces every entry by the integer `f` makes of it.
    fn map_entries(&mut self, f: impl Fn(Rat) -> i128) {
        for c in self.coeffs.iter_mut() {
            *c = Rat::int(f(*c));
        }
        self.constant = Rat::int(f(self.constant));
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " {} ", if c.is_negative() { "-" } else { "+" })?;
            } else if c.is_negative() {
                write!(f, "-")?;
            }
            let a = c.abs();
            if a != Rat::ONE {
                write!(f, "{}*", a)?;
            }
            write!(f, "x{}", i)?;
            first = false;
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if !self.constant.is_zero() {
            write!(
                f,
                " {} {}",
                if self.constant.is_negative() {
                    "-"
                } else {
                    "+"
                },
                self.constant.abs()
            )?;
        }
        Ok(())
    }
}

impl Add for &LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: &LinExpr) -> LinExpr {
        assert_eq!(self.coeffs.len(), rhs.coeffs.len(), "dimension mismatch");
        LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| a + b)
                .collect(),
            constant: self.constant + rhs.constant,
        }
    }
}

impl Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: &LinExpr) -> LinExpr {
        assert_eq!(self.coeffs.len(), rhs.coeffs.len(), "dimension mismatch");
        LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| a - b)
                .collect(),
            constant: self.constant - rhs.constant,
        }
    }
}

impl Neg for &LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-Rat::ONE)
    }
}

impl Mul<Rat> for &LinExpr {
    type Output = LinExpr;
    fn mul(self, rhs: Rat) -> LinExpr {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_arith() {
        let e1 = LinExpr::from_coeffs(&[1, 2], 3);
        let e2 = LinExpr::from_coeffs(&[0, -2], 1);
        let sum = &e1 + &e2;
        assert_eq!(sum, LinExpr::from_coeffs(&[1, 0], 4));
        let diff = &e1 - &e2;
        assert_eq!(diff, LinExpr::from_coeffs(&[1, 4], 2));
        assert_eq!(e1.eval_int(&[5, 1]), Rat::int(10));
    }

    #[test]
    fn var_and_constant_constructors() {
        let v = LinExpr::var(3, 1);
        assert_eq!(v.coeff(1), Rat::ONE);
        assert!(v.coeff(0).is_zero() && v.coeff(2).is_zero());
        let c = LinExpr::constant(2, 7);
        assert!(c.is_constant());
        assert_eq!(c.constant_term(), Rat::int(7));
    }

    #[test]
    fn normalization_inequality_keeps_direction() {
        // (1/2)x0 - (3/2) >= 0 normalizes to x0 - 3 >= 0.
        let e = LinExpr::from_rat_coeffs(vec![Rat::new(1, 2)], Rat::new(-3, 2));
        assert_eq!(e.normalized_ineq(), LinExpr::from_coeffs(&[1], -3));
        // -2x0 + 4 >= 0 normalizes to -x0 + 2 >= 0 (no sign flip!).
        let e = LinExpr::from_coeffs(&[-2], 4);
        assert_eq!(e.normalized_ineq(), LinExpr::from_coeffs(&[-1], 2));
    }

    #[test]
    fn normalization_equality_canonical_sign() {
        let e = LinExpr::from_coeffs(&[-2, 4], -6);
        assert_eq!(e.normalized_eq(), LinExpr::from_coeffs(&[1, -2], 3));
    }

    /// The route `normalize_ineq` replaced: one scaling factor — an lcm
    /// over every denominator, a gcd over every integerized numerator —
    /// applied through `scaled`.
    fn normalized_ineq_reference(e: &LinExpr) -> LinExpr {
        let denom_lcm = e
            .entries()
            .fold(1, |l, c| polyject_arith::lcm(l, c.denom()));
        let g = e.entries().fold(0, |g, c| {
            let int = c.numer().checked_mul(denom_lcm / c.denom());
            polyject_arith::gcd(g, int.expect("reference overflow"))
        });
        e.scaled(Rat::new(denom_lcm, g.max(1)))
    }

    fn normalized_eq_reference(e: &LinExpr) -> LinExpr {
        let n = normalized_ineq_reference(e);
        let lead = n.entries().find(|c| !c.is_zero()).copied();
        if lead.is_some_and(|l| l.is_negative()) {
            n.scaled(-Rat::ONE)
        } else {
            n
        }
    }

    #[test]
    fn normalization_matches_the_scaling_route_on_random_rows() {
        let mut g = polyject_arith::SplitMix64::new(0x5eed_0231);
        for case in 0..3000 {
            let n = g.below(7);
            // Sparse rows, a common factor now and then, fractions in
            // every third row, the odd all-zero row.
            let factor = [1, 1, 2, 3, 6, 10][g.below(6)];
            let fractional = case % 3 == 0;
            let mut entry = || {
                if g.below(3) == 0 {
                    return Rat::ZERO;
                }
                let num = factor * g.range_i128(-9, 10);
                let den = if fractional { g.range_i128(1, 13) } else { 1 };
                Rat::new(num, den)
            };
            let coeffs: Vec<Rat> = (0..n).map(|_| entry()).collect();
            let e = LinExpr::from_rat_coeffs(coeffs, entry());
            let ineq = e.normalized_ineq();
            assert_eq!(ineq, normalized_ineq_reference(&e), "{e}");
            assert_eq!(e.normalized_eq(), normalized_eq_reference(&e), "{e}");
            assert_eq!(ineq.normalized_ineq(), ineq, "idempotent on {e}");
        }
    }

    #[test]
    fn normalization_of_a_large_row_is_exact() {
        // lcm 3 * 2^20: the entries integerize to 2^120 and 3, coprime.
        let e = LinExpr::from_rat_coeffs(vec![Rat::new(1 << 100, 3)], Rat::new(1, 1 << 20));
        assert_eq!(e.normalized_ineq(), LinExpr::from_coeffs(&[1 << 120], 3));
        assert_eq!(
            normalized_ineq_reference(&e),
            LinExpr::from_coeffs(&[1 << 120], 3)
        );
        // And a common factor of 2^100 comes out of integers as wide.
        let e = LinExpr::from_coeffs(&[-(3 << 100), 5 << 100], 1 << 101);
        assert_eq!(e.normalized_eq(), LinExpr::from_coeffs(&[3, -5], -2));
    }

    /// The integerized entry `2^100 * 2^30` does not fit `i128`: that is a
    /// panic with the exact layer's message under every profile, never a
    /// wrapped product normalizing to some other constraint.
    #[test]
    #[should_panic(expected = "rational overflow")]
    fn normalization_overflow_panics_instead_of_wrapping() {
        let e = LinExpr::from_rat_coeffs(vec![Rat::new(1 << 100, 3)], Rat::new(1, 1 << 30));
        let _ = e.normalized_ineq();
    }

    #[test]
    fn extension_and_insertion() {
        let e = LinExpr::from_coeffs(&[1, 2], 5);
        let ext = e.extended(4);
        assert_eq!(ext.n_vars(), 4);
        assert_eq!(ext.coeff(0), Rat::int(1));
        assert!(ext.coeff(3).is_zero());
        let ins = e.with_vars_inserted(1, 2);
        assert_eq!(ins.n_vars(), 4);
        assert_eq!(ins.coeff(0), Rat::int(1));
        assert_eq!(ins.coeff(3), Rat::int(2));
        assert!(ins.coeff(1).is_zero() && ins.coeff(2).is_zero());
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::from_coeffs(&[2, 0, -1], -4);
        assert_eq!(e.to_string(), "2*x0 - x2 - 4");
        assert_eq!(LinExpr::zero(2).to_string(), "0");
    }
}
