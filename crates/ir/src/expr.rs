//! The executable scalar expression language of statements.
//!
//! Each statement computes one value from the values of its read accesses;
//! the expression is what makes kernels *runnable* (the functional GPU
//! interpreter executes it), not just schedulable.

use std::fmt;

/// Unary scalar operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// `exp(x)`.
    Exp,
    /// `max(x, 0)`.
    Relu,
    /// `sqrt(x)`.
    Sqrt,
    /// `1/x`.
    Recip,
    /// `tanh(x)`.
    Tanh,
}

/// Binary scalar operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

/// A scalar expression over the statement's read accesses.
///
/// # Examples
///
/// ```
/// use polyject_ir::{BinOp, Expr};
/// // reads[0] * reads[1] + 1.0
/// let e = Expr::bin(BinOp::Add, Expr::bin(BinOp::Mul, Expr::Read(0), Expr::Read(1)), Expr::Const(1.0));
/// assert_eq!(e.op_count(), 2);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// The value loaded by read access `i` of the statement.
    Read(usize),
    /// A floating-point constant.
    Const(f32),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a unary node.
    pub fn un(op: UnOp, arg: Expr) -> Expr {
        Expr::Unary(op, Box::new(arg))
    }

    /// Evaluates the expression given the loaded read values.
    ///
    /// # Panics
    ///
    /// Panics if a `Read` index is out of range of `reads`.
    pub fn eval(&self, reads: &[f32]) -> f32 {
        match self {
            Expr::Read(i) => reads[*i],
            Expr::Const(c) => *c,
            Expr::Unary(op, a) => {
                let x = a.eval(reads);
                match op {
                    UnOp::Neg => -x,
                    UnOp::Exp => x.exp(),
                    UnOp::Relu => x.max(0.0),
                    UnOp::Sqrt => x.sqrt(),
                    UnOp::Recip => 1.0 / x,
                    UnOp::Tanh => x.tanh(),
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval(reads);
                let y = b.eval(reads);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Max => x.max(y),
                    BinOp::Min => x.min(y),
                }
            }
        }
    }

    /// The highest read index mentioned, if any.
    pub(crate) fn max_read_index(&self) -> Option<usize> {
        match self {
            Expr::Read(i) => Some(*i),
            Expr::Const(_) => None,
            Expr::Unary(_, a) => a.max_read_index(),
            Expr::Binary(_, a, b) => a.max_read_index().max(b.max_read_index()),
        }
    }

    /// A rough operation count, used by the simulator's compute model.
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Read(_) | Expr::Const(_) => 0,
            Expr::Unary(op, a) => {
                let base = match op {
                    UnOp::Neg => 1,
                    UnOp::Relu => 1,
                    // Transcendentals cost several SFU cycles.
                    UnOp::Exp | UnOp::Sqrt | UnOp::Recip | UnOp::Tanh => 4,
                };
                base + a.op_count()
            }
            Expr::Binary(_, a, b) => 1 + a.op_count() + b.op_count(),
        }
    }

    /// Renders the expression with read accesses displayed through the
    /// given formatter callback.
    pub fn display_with<'a, F>(&'a self, read_name: F) -> ExprDisplay<'a, F>
    where
        F: Fn(usize) -> String,
    {
        ExprDisplay {
            expr: self,
            read_name,
        }
    }
}

/// Helper returned by [`Expr::display_with`].
pub struct ExprDisplay<'a, F> {
    expr: &'a Expr,
    read_name: F,
}

impl<F: Fn(usize) -> String> fmt::Display for ExprDisplay<'_, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self.expr, &self.read_name, f)
    }
}

fn fmt_expr<F: Fn(usize) -> String>(
    e: &Expr,
    read_name: &F,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    match e {
        Expr::Read(i) => write!(f, "{}", read_name(*i)),
        Expr::Const(c) => write!(f, "{c:?}f"),
        Expr::Unary(op, a) => {
            let name = match op {
                UnOp::Neg => "-",
                UnOp::Exp => "expf",
                UnOp::Relu => "relu",
                UnOp::Sqrt => "sqrtf",
                UnOp::Recip => "recipf",
                UnOp::Tanh => "tanhf",
            };
            write!(f, "{name}(")?;
            fmt_expr(a, read_name, f)?;
            write!(f, ")")
        }
        Expr::Binary(op, a, b) => {
            let name = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Max => "max",
                BinOp::Min => "min",
            };
            match op {
                BinOp::Max | BinOp::Min => {
                    write!(f, "{name}(")?;
                    fmt_expr(a, read_name, f)?;
                    write!(f, ", ")?;
                    fmt_expr(b, read_name, f)?;
                    write!(f, ")")
                }
                _ => {
                    write!(f, "(")?;
                    fmt_expr(a, read_name, f)?;
                    write!(f, " {name} ")?;
                    fmt_expr(b, read_name, f)?;
                    write!(f, ")")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::Read(0),
            Expr::bin(BinOp::Div, Expr::Read(1), Expr::Const(2.0)),
        );
        assert_eq!(e.eval(&[10.0, 4.0]), 8.0);
    }

    #[test]
    fn eval_unary() {
        assert_eq!(Expr::un(UnOp::Relu, Expr::Const(-3.0)).eval(&[]), 0.0);
        assert_eq!(Expr::un(UnOp::Neg, Expr::Read(0)).eval(&[7.0]), -7.0);
        assert!((Expr::un(UnOp::Exp, Expr::Const(0.0)).eval(&[]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_read_index() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Read(2),
            Expr::un(UnOp::Neg, Expr::Read(5)),
        );
        assert_eq!(e.max_read_index(), Some(5));
        assert_eq!(Expr::Const(1.0).max_read_index(), None);
    }

    #[test]
    fn op_count_weighting() {
        assert_eq!(
            Expr::bin(BinOp::Mul, Expr::Read(0), Expr::Read(1)).op_count(),
            1
        );
        assert_eq!(Expr::un(UnOp::Tanh, Expr::Read(0)).op_count(), 4);
    }

    #[test]
    fn display_renders_c_like() {
        let e = Expr::bin(BinOp::Max, Expr::Read(0), Expr::Const(0.0));
        let s = e.display_with(|i| format!("r{i}")).to_string();
        assert_eq!(s, "max(r0, 0.0f)");
    }
}
