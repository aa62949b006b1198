//! Kernels: the fused operators submitted to the polyhedral pipeline.

use crate::statement::{Statement, StatementBuilder};
use crate::tensor::Tensor;
use crate::types::{ElemType, Extent, ParamId, StmtId, TensorId};
use polyject_sets::integer_points;
use std::collections::BTreeSet;

/// A fused operator: parameters, tensors and a sequence of statements whose
/// loop nests execute one after another (the shape graph-kernel fusion
/// produces).
///
/// # Examples
///
/// ```
/// use polyject_ir::*;
///
/// let mut kb = KernelBuilder::new("relu");
/// let a = kb.tensor("A", vec![Extent::Const(4)], ElemType::F32);
/// let b = kb.tensor("B", vec![Extent::Const(4)], ElemType::F32);
/// kb.add_statement(
///     StatementBuilder::new("X", &["i"])
///         .bound_extent(0, 4)
///         .write(b, &[Idx::Iter(0)])
///         .read(a, &[Idx::Iter(0)])
///         .expr(Expr::un(UnOp::Relu, Expr::Read(0))),
/// ).unwrap();
/// let kernel = kb.finish().unwrap();
/// assert_eq!(kernel.statements().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Kernel {
    name: String,
    param_names: Vec<String>,
    param_defaults: Vec<i64>,
    tensors: Vec<Tensor>,
    statements: Vec<Statement>,
}

impl Kernel {
    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter names.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Default (concrete) parameter values, used when no binding is given.
    pub fn param_defaults(&self) -> &[i64] {
        &self.param_defaults
    }

    /// Number of global parameters.
    pub fn n_params(&self) -> usize {
        self.param_names.len()
    }

    /// The tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// One tensor by id.
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// The statements, in original program order.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// One statement by id.
    pub fn statement(&self, id: StmtId) -> &Statement {
        &self.statements[id.0]
    }

    /// Ids of tensors that are written by some statement.
    pub fn output_tensors(&self) -> BTreeSet<TensorId> {
        self.statements.iter().map(|s| s.write().tensor()).collect()
    }

    /// Allocates zero-filled buffers for every tensor under the given
    /// parameter values.
    pub fn zero_buffers(&self, param_values: &[i64]) -> Vec<Vec<f32>> {
        self.tensors
            .iter()
            .map(|t| vec![0.0; t.num_elements(param_values)])
            .collect()
    }

    /// Executes the kernel in its *original* statement/loop order, in
    /// place: the reference semantics every schedule must preserve.
    ///
    /// Statement nests run one after another; each nest runs its domain in
    /// lexicographic iterator order.
    ///
    /// # Panics
    ///
    /// Panics if a domain is unbounded or an access goes out of bounds
    /// (debug builds).
    pub fn execute_reference(&self, buffers: &mut [Vec<f32>], param_values: &[i64]) {
        assert_eq!(
            param_values.len(),
            self.n_params(),
            "parameter count mismatch"
        );
        assert_eq!(buffers.len(), self.tensors.len(), "buffer count mismatch");
        for s in &self.statements {
            let domain = s.concrete_domain(param_values);
            let pts = integer_points(&domain, usize::MAX)
                .expect("reference execution requires a bounded domain");
            for p in pts {
                let iters: Vec<i64> = p.iter().map(|&v| v as i64).collect();
                self.execute_instance(s, &iters, buffers, param_values);
            }
        }
    }

    /// Executes a single statement instance (one iteration-vector point).
    ///
    /// # Panics
    ///
    /// Panics if an access lands outside its tensor buffer; long-lived
    /// callers (e.g. daemon worker threads) should use
    /// [`Kernel::try_execute_instance`] instead.
    pub(crate) fn execute_instance(
        &self,
        s: &Statement,
        iters: &[i64],
        buffers: &mut [Vec<f32>],
        param_values: &[i64],
    ) {
        self.try_execute_instance(s, iters, buffers, param_values)
            .unwrap_or_else(|e| panic!("{}", e));
    }

    /// Executes a single statement instance with checked accesses,
    /// reporting out-of-bounds reads/writes instead of panicking.
    ///
    /// # Errors
    ///
    /// Describes the statement, tensor and offset of the first access
    /// outside its buffer.
    pub fn try_execute_instance(
        &self,
        s: &Statement,
        iters: &[i64],
        buffers: &mut [Vec<f32>],
        param_values: &[i64],
    ) -> Result<(), String> {
        let oob = |what: &str, tensor: TensorId, off: usize, len: usize| {
            format!(
                "statement {}: {what} of tensor {} out of bounds at {iters:?} (offset {off}, len {len})",
                s.name(),
                self.tensor(tensor).name(),
            )
        };
        let mut read_vals = Vec::with_capacity(s.reads().len());
        for a in s.reads() {
            let idx = a.eval_index(iters, param_values);
            let off = self.tensor(a.tensor()).linearize(&idx, param_values);
            let buf = buffers
                .get(a.tensor().0)
                .ok_or_else(|| oob("read", a.tensor(), off, 0))?;
            read_vals.push(
                *buf.get(off)
                    .ok_or_else(|| oob("read", a.tensor(), off, buf.len()))?,
            );
        }
        let v = s.expr().eval(&read_vals);
        let w = s.write();
        let idx = w.eval_index(iters, param_values);
        let off = self.tensor(w.tensor()).linearize(&idx, param_values);
        let buf = buffers
            .get_mut(w.tensor().0)
            .ok_or_else(|| oob("write", w.tensor(), off, 0))?;
        let len = buf.len();
        *buf.get_mut(off)
            .ok_or_else(|| oob("write", w.tensor(), off, len))? = v;
        Ok(())
    }

    /// Extracts a consecutive group of statements as a standalone kernel
    /// sharing the same parameters and tensor declarations — how a
    /// per-group baseline (the paper's TVM comparison) executes a fused
    /// operator: one kernel launch per group, intermediates round-tripping
    /// through global memory.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or contains an invalid statement.
    pub fn with_statement_subset(&self, ids: &[StmtId]) -> Kernel {
        assert!(!ids.is_empty(), "subset must be nonempty");
        Kernel {
            name: format!("{}__{}", self.name, self.statement(ids[0]).name()),
            param_names: self.param_names.clone(),
            param_defaults: self.param_defaults.clone(),
            tensors: self.tensors.clone(),
            statements: ids.iter().map(|&i| self.statement(i).clone()).collect(),
        }
    }
}

/// Builder for [`Kernel`].
#[derive(Clone, Debug, Default)]
pub struct KernelBuilder {
    name: String,
    param_names: Vec<String>,
    param_defaults: Vec<i64>,
    tensors: Vec<Tensor>,
    statements: Vec<Statement>,
}

impl KernelBuilder {
    /// Starts a kernel with the given name.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares a global parameter with a default concrete value (AI/DL
    /// shapes are static in practice; the default is what the cost model
    /// and the simulator use).
    pub fn param(&mut self, name: impl Into<String>, default: i64) -> ParamId {
        self.param_names.push(name.into());
        self.param_defaults.push(default);
        ParamId(self.param_names.len() - 1)
    }

    /// Declares a tensor.
    pub fn tensor(
        &mut self,
        name: impl Into<String>,
        dims: Vec<Extent>,
        elem: ElemType,
    ) -> TensorId {
        self.tensors.push(Tensor::new(name, dims, elem));
        TensorId(self.tensors.len() - 1)
    }

    /// Adds a statement (program order = order of addition).
    ///
    /// # Errors
    ///
    /// Returns an error if the statement is malformed (missing write/expr,
    /// bad indices, unknown tensors, rank mismatches), or if an access
    /// can leave its tensor's extents at the parameter defaults.
    pub fn add_statement(&mut self, sb: StatementBuilder) -> Result<StmtId, String> {
        let boxes = sb.iter_box(&self.param_defaults);
        let stmt = sb.build(self.param_names.len())?;
        // Validate tensor references and ranks.
        for (a, _) in stmt.accesses() {
            let Some(t) = self.tensors.get(a.tensor().0) else {
                return Err(format!("{}: access to unknown tensor", stmt.name()));
            };
            if t.rank() != a.indices().len() {
                return Err(format!(
                    "{}: access to {} has {} indices, tensor has rank {}",
                    stmt.name(),
                    t.name(),
                    a.indices().len(),
                    t.rank()
                ));
            }
        }
        self.check_extents(&stmt, &boxes)?;
        self.statements.push(stmt);
        Ok(StmtId(self.statements.len() - 1))
    }

    /// Checks, per dimension, that every access of `stmt` stays inside its
    /// tensor's extent at the parameter defaults: interval arithmetic over
    /// the iterator box `boxes`, no solver call. A dimension whose index
    /// reads an unbounded iterator or has a fractional coefficient is not
    /// checked; an empty box passes.
    fn check_extents(&self, stmt: &Statement, boxes: &[Option<(i64, i64)>]) -> Result<(), String> {
        if boxes.iter().flatten().any(|(lo, hi)| lo > hi) {
            return Ok(());
        }
        let n_iters = stmt.n_iters();
        let value = |v: usize| match v.checked_sub(n_iters) {
            None => boxes[v].map(|(lo, hi)| (i128::from(lo), i128::from(hi))),
            Some(p) => self.param_defaults.get(p).map(|&x| (x.into(), x.into())),
        };
        for (a, is_write) in stmt.accesses() {
            let t = &self.tensors[a.tensor().0];
            for (d, (e, extent)) in a.indices().iter().zip(t.dims()).enumerate() {
                let terms = e.coeffs().iter().enumerate().filter(|(_, c)| !c.is_zero());
                let k = e.constant_term().to_integer();
                let span = terms.fold(k.map(|k| (k, k)), |span, (v, c)| {
                    let ((lo, hi), c, (vl, vh)) = (span?, c.to_integer()?, value(v)?);
                    let (x, y) = (c * vl, c * vh);
                    Some((lo + x.min(y), hi + x.max(y)))
                });
                let extent = extent.resolve(&self.param_defaults);
                if let Some((lo, hi)) = span.filter(|&(lo, hi)| lo < 0 || hi >= extent.into()) {
                    let what = if is_write { "write" } else { "read" };
                    return Err(format!(
                        "{}: {what} of {} spans [{lo}, {hi}] in dimension {d}, outside its extent {extent}",
                        stmt.name(),
                        t.name(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Finalizes the kernel.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel has no statements.
    pub fn finish(self) -> Result<Kernel, String> {
        if self.statements.is_empty() {
            return Err(format!("kernel {} has no statements", self.name));
        }
        Ok(Kernel {
            name: self.name,
            param_names: self.param_names,
            param_defaults: self.param_defaults,
            tensors: self.tensors,
            statements: self.statements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Idx;
    use crate::expr::{BinOp, Expr, UnOp};

    /// B[i][k] = relu(A[i][k]); C[i] = C[i] + B[i][k] (a tiny reduction).
    fn two_statement_kernel(n: i64) -> Kernel {
        let mut kb = KernelBuilder::new("test");
        let a = kb.tensor("A", vec![Extent::Const(n), Extent::Const(n)], ElemType::F32);
        let b = kb.tensor("B", vec![Extent::Const(n), Extent::Const(n)], ElemType::F32);
        let c = kb.tensor("C", vec![Extent::Const(n)], ElemType::F32);
        kb.add_statement(
            StatementBuilder::new("X", &["i", "k"])
                .bound_extent(0, n)
                .bound_extent(1, n)
                .write(b, &[Idx::Iter(0), Idx::Iter(1)])
                .read(a, &[Idx::Iter(0), Idx::Iter(1)])
                .expr(Expr::un(UnOp::Relu, Expr::Read(0))),
        )
        .unwrap();
        kb.add_statement(
            StatementBuilder::new("Y", &["i", "k"])
                .bound_extent(0, n)
                .bound_extent(1, n)
                .write(c, &[Idx::Iter(0)])
                .read(c, &[Idx::Iter(0)])
                .read(b, &[Idx::Iter(0), Idx::Iter(1)])
                .expr(Expr::bin(BinOp::Add, Expr::Read(0), Expr::Read(1))),
        )
        .unwrap();
        kb.finish().unwrap()
    }

    #[test]
    fn reference_execution_semantics() {
        let k = two_statement_kernel(3);
        let mut bufs = k.zero_buffers(&[]);
        // A = [[1, -2, 3], [4, 5, -6], [-7, 8, 9]]
        bufs[0] = vec![1.0, -2.0, 3.0, 4.0, 5.0, -6.0, -7.0, 8.0, 9.0];
        k.execute_reference(&mut bufs, &[]);
        // B = relu(A)
        assert_eq!(bufs[1], vec![1.0, 0.0, 3.0, 4.0, 5.0, 0.0, 0.0, 8.0, 9.0]);
        // C[i] = sum_k B[i][k]
        assert_eq!(bufs[2], vec![4.0, 9.0, 17.0]);
    }

    #[test]
    fn output_tensors_are_the_written_ones() {
        let k = two_statement_kernel(2);
        let outs: Vec<usize> = k.output_tensors().iter().map(|t| t.0).collect();
        assert_eq!(outs, vec![1, 2]);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.tensor("A", vec![Extent::Const(2), Extent::Const(2)], ElemType::F32);
        let r = kb.add_statement(
            StatementBuilder::new("X", &["i"])
                .bound_extent(0, 2)
                .write(a, &[Idx::Iter(0)])
                .expr(Expr::Const(0.0)),
        );
        assert!(r.is_err());
    }

    /// `S: B[i(, j)] = A[read]` over `i, j in 0..8`, `A` and `B` of extent 8
    /// in each of `read.len()` dimensions.
    fn copy_kernel(read: &[Idx]) -> Result<StmtId, String> {
        let rank = read.len();
        let mut kb = KernelBuilder::new("copy");
        let a = kb.tensor("A", vec![Extent::Const(8); rank], ElemType::F32);
        let b = kb.tensor("B", vec![Extent::Const(8); rank], ElemType::F32);
        kb.add_statement(
            StatementBuilder::new("S", &["i", "j"][..rank])
                .bound_extent(0, 8)
                .bound_range(rank - 1, 0, 7)
                .write(b, &[Idx::Iter(0), Idx::Iter(1)][..rank])
                .read(a, read)
                .expr(Expr::Read(0)),
        )
    }

    #[test]
    fn an_access_past_the_end_is_rejected() {
        let err = copy_kernel(&[Idx::IterPlus(0, 4)]).unwrap_err();
        assert_eq!(
            err,
            "S: read of A spans [4, 11] in dimension 0, outside its extent 8"
        );
        assert!(copy_kernel(&[Idx::IterPlus(0, -1)]).is_err());
        assert!(copy_kernel(&[Idx::Const(7)]).is_ok());
    }

    #[test]
    fn an_access_into_the_next_row_is_rejected() {
        // In the flat buffer A[i][j + 4] is in bounds for every i < 7, so
        // execution alone would not notice.
        let err = copy_kernel(&[Idx::Iter(0), Idx::IterPlus(1, 4)]).unwrap_err();
        assert_eq!(
            err,
            "S: read of A spans [4, 11] in dimension 1, outside its extent 8"
        );
        assert!(copy_kernel(&[Idx::Iter(1), Idx::Iter(0)]).is_ok());
    }

    #[test]
    fn empty_kernel_rejected() {
        assert!(KernelBuilder::new("empty").finish().is_err());
    }
}
