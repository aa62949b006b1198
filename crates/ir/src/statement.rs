//! Statements: an iteration domain, accesses and a computed expression.

use crate::access::{Access, Idx};
use crate::expr::Expr;
use crate::types::{Extent, TensorId};
use polyject_arith::Rat;
use polyject_sets::{project_onto_prefix, Constraint, ConstraintSet, LinExpr};

/// A statement of a fused operator.
///
/// The statement's affine space is `[iters..., params...]`; its iteration
/// domain is a [`ConstraintSet`] over that space; it performs one write and
/// any number of reads, and computes [`Expr`] over the read values.
#[derive(Clone, Debug)]
pub struct Statement {
    name: String,
    iters: Vec<String>,
    n_params: usize,
    domain: ConstraintSet,
    write: Access,
    reads: Vec<Access>,
    expr: Expr,
}

impl Statement {
    /// The statement's name (e.g. `"X"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterator names, outermost first.
    pub fn iters(&self) -> &[String] {
        &self.iters
    }

    /// Number of iterators (the nest depth).
    pub fn n_iters(&self) -> usize {
        self.iters.len()
    }

    /// Number of kernel parameters in the statement's space.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The iteration domain over `[iters..., params...]`.
    pub fn domain(&self) -> &ConstraintSet {
        &self.domain
    }

    /// The write access.
    pub fn write(&self) -> &Access {
        &self.write
    }

    /// The read accesses.
    pub fn reads(&self) -> &[Access] {
        &self.reads
    }

    /// All accesses: the write first, then the reads.
    pub fn accesses(&self) -> impl Iterator<Item = (&Access, bool)> {
        std::iter::once((&self.write, true)).chain(self.reads.iter().map(|a| (a, false)))
    }

    /// The computed expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The iteration domain with parameters fixed to concrete values,
    /// projected onto the iterators only.
    pub(crate) fn concrete_domain(&self, param_values: &[i64]) -> ConstraintSet {
        assert_eq!(
            param_values.len(),
            self.n_params,
            "parameter count mismatch"
        );
        let n = self.n_iters() + self.n_params;
        let mut d = self.domain.clone();
        for (j, &v) in param_values.iter().enumerate() {
            let mut e = LinExpr::var(n, self.n_iters() + j);
            e.set_constant(-(v as i128));
            d.add(Constraint::eq0(e));
        }
        project_onto_prefix(&d, self.n_iters())
    }

    /// The trip count of iterator `iter` under concrete parameters (number
    /// of distinct values it takes, assuming a rectangular domain).
    pub fn extent_of_iter(&self, iter: usize, param_values: &[i64]) -> i64 {
        let d = self.concrete_domain(param_values);
        let proj = project_onto_prefix(&reorder_var_first(&d, iter), 1);
        let b = polyject_sets::bounds_for_var(&proj, 0);
        // Bound expressions live in the 1-variable projected space but do
        // not mention the variable itself, so evaluating at 0 is exact.
        let at = [0i128];
        let lo = b
            .lowers
            .iter()
            .map(|(e, div)| (e.eval_int(&at) / Rat::int(*div)).ceil())
            .max()
            .unwrap_or(0);
        let hi = b
            .uppers
            .iter()
            .map(|(e, div)| (e.eval_int(&at) / Rat::int(*div)).floor())
            .min()
            .unwrap_or(-1);
        (hi - lo + 1).max(0) as i64
    }
}

/// Moves variable `var` to position 0, shifting earlier variables right.
fn reorder_var_first(set: &ConstraintSet, var: usize) -> ConstraintSet {
    let old_of = |j: usize| match j {
        0 => var,
        j if j <= var => j - 1,
        j => j,
    };
    let rows = set.constraints().iter();
    ConstraintSet::from_constraints(set.n_vars(), rows.map(|c| c.remapped(set.n_vars(), old_of)))
}

/// Builder for [`Statement`], finished by
/// [`KernelBuilder::add_statement`](crate::KernelBuilder::add_statement).
///
/// # Examples
///
/// ```
/// use polyject_ir::{Expr, Idx, StatementBuilder, TensorId, UnOp};
///
/// let sb = StatementBuilder::new("X", &["i", "k"])
///     .bound_extent(0, 1024)
///     .bound_extent(1, 1024)
///     .write(TensorId(1), &[Idx::Iter(0), Idx::Iter(1)])
///     .read(TensorId(0), &[Idx::Iter(0), Idx::Iter(1)])
///     .expr(Expr::un(UnOp::Relu, Expr::Read(0)));
/// ```
#[derive(Clone, Debug)]
pub struct StatementBuilder {
    pub(crate) name: String,
    pub(crate) iters: Vec<String>,
    pub(crate) bounds: Vec<(usize, BoundSpec)>,
    pub(crate) extra_constraints: Vec<RawConstraint>,
    pub(crate) write: Option<(TensorId, Vec<Idx>)>,
    pub(crate) reads: Vec<(TensorId, Vec<Idx>)>,
    pub(crate) expr: Option<Expr>,
}

/// A `0 <= iter < extent` bound specification.
#[derive(Clone, Debug)]
pub(crate) enum BoundSpec {
    /// `lo <= iter <= hi` with constant bounds.
    Range(i64, i64),
    /// `0 <= iter < extent`.
    Extent(Extent),
}

/// A raw affine constraint added verbatim to the domain (over
/// `[iters..., params...]`).
#[derive(Clone, Debug)]
pub(crate) struct RawConstraint {
    pub(crate) expr: LinExpr,
    pub(crate) equality: bool,
}

impl StatementBuilder {
    /// Starts a statement with the given name and iterator names
    /// (outermost first).
    pub fn new(name: impl Into<String>, iters: &[&str]) -> StatementBuilder {
        StatementBuilder {
            name: name.into(),
            iters: iters.iter().map(|s| s.to_string()).collect(),
            bounds: Vec::new(),
            extra_constraints: Vec::new(),
            write: None,
            reads: Vec::new(),
            expr: None,
        }
    }

    /// Bounds iterator `iter` as `0 <= iter < extent`.
    pub fn bound_extent(mut self, iter: usize, extent: impl Into<Extent>) -> StatementBuilder {
        self.bounds.push((iter, BoundSpec::Extent(extent.into())));
        self
    }

    /// Bounds iterator `iter` as `lo <= iter <= hi` (inclusive constants).
    pub fn bound_range(mut self, iter: usize, lo: i64, hi: i64) -> StatementBuilder {
        self.bounds.push((iter, BoundSpec::Range(lo, hi)));
        self
    }

    /// Adds a raw affine constraint `expr >= 0` (or `expr == 0`) over the
    /// `[iters..., params...]` space; the space width is validated when the
    /// statement is added to a kernel.
    pub fn constraint(mut self, expr: LinExpr, equality: bool) -> StatementBuilder {
        self.extra_constraints
            .push(RawConstraint { expr, equality });
        self
    }

    /// Sets the (single) write access.
    pub fn write(mut self, tensor: TensorId, indices: &[Idx]) -> StatementBuilder {
        self.write = Some((tensor, indices.to_vec()));
        self
    }

    /// Appends a read access; reads are referenced by [`Expr::Read`] in
    /// order of addition.
    pub fn read(mut self, tensor: TensorId, indices: &[Idx]) -> StatementBuilder {
        self.reads.push((tensor, indices.to_vec()));
        self
    }

    /// Sets the computed expression.
    pub fn expr(mut self, expr: Expr) -> StatementBuilder {
        self.expr = Some(expr);
        self
    }

    /// Each iterator's `[lo, hi]` under its declared bounds at parameter
    /// values `params`; `None` where no bound is declared. Raw
    /// constraints are not read, so the box may hold more than the domain.
    pub(crate) fn iter_box(&self, params: &[i64]) -> Vec<Option<(i64, i64)>> {
        let mut boxes = vec![None; self.iters.len()];
        for (iter, spec) in &self.bounds {
            let (lo, hi) = match spec {
                BoundSpec::Range(lo, hi) => (*lo, *hi),
                BoundSpec::Extent(Extent::Const(c)) => (0, c - 1),
                // An unknown parameter fails `build` before the box is read.
                BoundSpec::Extent(Extent::Param(p)) => (0, params.get(p.0).map_or(0, |v| v - 1)),
            };
            if let Some(b) = boxes.get_mut(*iter) {
                *b = Some(b.map_or((lo, hi), |(l, h): (i64, i64)| (l.max(lo), h.min(hi))));
            }
        }
        boxes
    }

    /// Finalizes against a kernel context (called by the kernel builder).
    pub(crate) fn build(self, n_params: usize) -> Result<Statement, String> {
        let n_iters = self.iters.len();
        let n = n_iters + n_params;
        let mut domain = ConstraintSet::universe(n);
        for (iter, spec) in &self.bounds {
            if *iter >= n_iters {
                return Err(format!("bound on unknown iterator {iter} in {}", self.name));
            }
            match spec {
                BoundSpec::Range(lo, hi) => {
                    let mut e = LinExpr::var(n, *iter);
                    e.set_constant(-(*lo as i128));
                    domain.add(Constraint::ge0(e)); // iter >= lo
                    let mut e = LinExpr::var(n, *iter).scaled((-1).into());
                    e.set_constant(*hi as i128);
                    domain.add(Constraint::ge0(e)); // iter <= hi
                }
                BoundSpec::Extent(ext) => {
                    domain.add(Constraint::ge0(LinExpr::var(n, *iter))); // iter >= 0
                    let mut e = LinExpr::var(n, *iter).scaled((-1).into());
                    match ext {
                        Extent::Const(c) => e.set_constant((*c as i128) - 1),
                        Extent::Param(p) => {
                            if p.0 >= n_params {
                                return Err(format!("unknown parameter in bound of {}", self.name));
                            }
                            e.set_coeff(n_iters + p.0, 1);
                            e.set_constant(-1i128);
                        }
                    }
                    domain.add(Constraint::ge0(e)); // iter <= extent - 1
                }
            }
        }
        for rc in &self.extra_constraints {
            if rc.expr.n_vars() != n {
                return Err(format!("constraint space mismatch in {}", self.name));
            }
            domain.add(if rc.equality {
                Constraint::eq0(rc.expr.clone())
            } else {
                Constraint::ge0(rc.expr.clone())
            });
        }
        let (wt, wi) = self
            .write
            .ok_or_else(|| format!("{} has no write", self.name))?;
        let expr = self
            .expr
            .ok_or_else(|| format!("{} has no expression", self.name))?;
        if let Some(max) = expr.max_read_index() {
            if max >= self.reads.len() {
                return Err(format!(
                    "{} expression reads index {max} but only {} reads declared",
                    self.name,
                    self.reads.len()
                ));
            }
        }
        Ok(Statement {
            name: self.name,
            iters: self.iters,
            n_params,
            domain,
            write: Access::new(wt, &wi, n_iters, n_params),
            reads: self
                .reads
                .into_iter()
                .map(|(t, idx)| Access::new(t, &idx, n_iters, n_params))
                .collect(),
            expr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::UnOp;

    fn simple_statement() -> Statement {
        StatementBuilder::new("X", &["i", "k"])
            .bound_extent(0, 4)
            .bound_extent(1, 8)
            .write(TensorId(1), &[Idx::Iter(0), Idx::Iter(1)])
            .read(TensorId(0), &[Idx::Iter(0), Idx::Iter(1)])
            .expr(Expr::un(UnOp::Relu, Expr::Read(0)))
            .build(0)
            .unwrap()
    }

    #[test]
    fn build_and_query() {
        let s = simple_statement();
        assert_eq!(s.n_iters(), 2);
        assert_eq!(s.reads().len(), 1);
        assert!(s.domain().contains_int(&[3, 7]));
        assert!(!s.domain().contains_int(&[4, 0]));
    }

    #[test]
    fn concrete_domain_without_params_is_same_points() {
        let s = simple_statement();
        let d = s.concrete_domain(&[]);
        assert_eq!(polyject_sets::integer_points(&d, 1000).unwrap().len(), 32);
    }

    #[test]
    fn parametric_bound() {
        use crate::types::ParamId;
        let s = StatementBuilder::new("Y", &["i"])
            .bound_extent(0, Extent::Param(ParamId(0)))
            .write(TensorId(0), &[Idx::Iter(0)])
            .expr(Expr::Const(1.0))
            .build(1)
            .unwrap();
        let d = s.concrete_domain(&[5]);
        assert_eq!(polyject_sets::integer_points(&d, 100).unwrap().len(), 5);
        assert_eq!(s.extent_of_iter(0, &[5]), 5);
    }

    #[test]
    fn extent_of_inner_iter() {
        let s = simple_statement();
        assert_eq!(s.extent_of_iter(0, &[]), 4);
        assert_eq!(s.extent_of_iter(1, &[]), 8);
    }

    #[test]
    fn missing_write_is_error() {
        let r = StatementBuilder::new("Z", &["i"])
            .bound_extent(0, 2)
            .expr(Expr::Const(0.0))
            .build(0);
        assert!(r.is_err());
    }

    #[test]
    fn read_index_out_of_range_is_error() {
        let r = StatementBuilder::new("Z", &["i"])
            .bound_extent(0, 2)
            .write(TensorId(0), &[Idx::Iter(0)])
            .expr(Expr::Read(0))
            .build(0);
        assert!(r.is_err());
    }
}
