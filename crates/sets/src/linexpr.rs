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
    pub(crate) fn is_constant(&self) -> bool {
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

    /// The coefficients, then the constant.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Rat> {
        self.coeffs.iter().chain(std::iter::once(&self.constant))
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
