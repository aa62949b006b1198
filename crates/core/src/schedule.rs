//! Multidimensional affine schedules (the transformation matrices `T_S`).

use polyject_ir::{Kernel, StmtId};
use std::fmt;

/// Properties attached to one schedule dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DimFlags {
    /// All iterations at this dimension can run in parallel (zero reuse
    /// distance on every remaining dependence — a coincident dimension).
    pub parallel: bool,
    /// The dimension is a scalar (constant) dimension inserted to order
    /// strongly connected components or statement groups.
    pub scalar: bool,
    /// The dimension was prepared for explicit load/store vectorization by
    /// the influence optimizer (a `forvec` loop).
    pub vector: bool,
    /// The dimension belongs to a permutable band with the previous one.
    pub permutable: bool,
}

/// One row of a statement's transformation matrix:
/// `φ(i, p) = c_iter·i + c_param·p + c_const`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleRow {
    /// Coefficients of the statement's iterators.
    pub iter_coeffs: Vec<i128>,
    /// Coefficients of the kernel parameters.
    pub param_coeffs: Vec<i128>,
    /// The constant term.
    pub constant: i128,
}

impl ScheduleRow {
    /// A zero row for a statement shape.
    pub fn zero(n_iters: usize, n_params: usize) -> ScheduleRow {
        ScheduleRow {
            iter_coeffs: vec![0; n_iters],
            param_coeffs: vec![0; n_params],
            constant: 0,
        }
    }

    /// A scalar row with the given constant.
    pub fn scalar(n_iters: usize, n_params: usize, constant: i128) -> ScheduleRow {
        ScheduleRow {
            iter_coeffs: vec![0; n_iters],
            param_coeffs: vec![0; n_params],
            constant,
        }
    }

    /// Whether every coefficient (not the constant) is zero.
    pub fn is_constant_row(&self) -> bool {
        self.iter_coeffs.iter().all(|&c| c == 0) && self.param_coeffs.iter().all(|&c| c == 0)
    }

    /// Evaluates the row at a concrete instance.
    pub fn eval(&self, iters: &[i64], params: &[i64]) -> i128 {
        assert_eq!(
            iters.len(),
            self.iter_coeffs.len(),
            "iterator count mismatch"
        );
        assert_eq!(
            params.len(),
            self.param_coeffs.len(),
            "parameter count mismatch"
        );
        let mut v = self.constant;
        for (c, x) in self.iter_coeffs.iter().zip(iters) {
            v += c * (*x as i128);
        }
        for (c, x) in self.param_coeffs.iter().zip(params) {
            v += c * (*x as i128);
        }
        v
    }
}

/// The schedule of one statement: an ordered list of rows.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StatementSchedule {
    rows: Vec<ScheduleRow>,
}

impl StatementSchedule {
    /// The rows, outermost first.
    pub fn rows(&self) -> &[ScheduleRow] {
        &self.rows
    }

    /// Number of dimensions.
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row.
    pub fn push(&mut self, row: ScheduleRow) {
        self.rows.push(row);
    }

    /// Removes rows at positions `>= depth` (backtracking).
    pub fn truncate(&mut self, depth: usize) {
        self.rows.truncate(depth);
    }

    /// The iterator-coefficient part `H_S` of the matrix (one inner vec per
    /// row), used for linear-independence constraints.
    pub(crate) fn iter_matrix(&self) -> Vec<Vec<i128>> {
        self.rows.iter().map(|r| r.iter_coeffs.clone()).collect()
    }

    /// The rank of the iterator-coefficient part.
    pub fn iter_rank(&self) -> usize {
        let h = self.iter_matrix();
        if h.is_empty() {
            return 0;
        }
        polyject_arith::Matrix::from_rows(&h).rank()
    }
}

/// A complete schedule: one [`StatementSchedule`] per statement plus
/// per-dimension [`DimFlags`]. Equality is structural over every field
/// (integer coefficients, flags, vector dimensions) — two equal
/// schedules render and lower identically, which is what lets compile
/// sessions deduplicate downstream work by schedule value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    stmts: Vec<StatementSchedule>,
    flags: Vec<DimFlags>,
    /// For each statement, the (single) dimension its vectorized loop lives
    /// at, when the influence optimizer marked one.
    vector_dims: Vec<Option<usize>>,
}

impl Schedule {
    /// An empty schedule for a kernel.
    pub fn empty(kernel: &Kernel) -> Schedule {
        Schedule {
            stmts: vec![StatementSchedule::default(); kernel.statements().len()],
            flags: Vec::new(),
            vector_dims: vec![None; kernel.statements().len()],
        }
    }

    /// The identity schedule of a kernel: statement-order scalar dimension,
    /// then each statement's iterators in program order, zero-padded to a
    /// uniform depth (shallower statements get trailing constant-0
    /// dimensions). This is the original execution order.
    pub fn identity(kernel: &Kernel) -> Schedule {
        let n_params = kernel.n_params();
        let max_depth = kernel
            .statements()
            .iter()
            .map(|s| s.n_iters())
            .max()
            .unwrap_or(0);
        let mut sched = Schedule::empty(kernel);
        sched.flags.push(DimFlags {
            scalar: true,
            ..DimFlags::default()
        });
        for _ in 0..max_depth {
            sched.flags.push(DimFlags::default());
        }
        for (i, s) in kernel.statements().iter().enumerate() {
            let ss = &mut sched.stmts[i];
            ss.push(ScheduleRow::scalar(s.n_iters(), n_params, i as i128));
            for d in 0..max_depth {
                let mut row = ScheduleRow::zero(s.n_iters(), n_params);
                if d < s.n_iters() {
                    row.iter_coeffs[d] = 1;
                }
                ss.push(row);
            }
        }
        sched
    }

    /// Per-statement schedules.
    pub fn statements(&self) -> &[StatementSchedule] {
        &self.stmts
    }

    /// One statement's schedule.
    pub fn stmt(&self, s: StmtId) -> &StatementSchedule {
        &self.stmts[s.0]
    }

    /// Mutable access to one statement's schedule.
    pub fn stmt_mut(&mut self, s: StmtId) -> &mut StatementSchedule {
        &mut self.stmts[s.0]
    }

    /// Per-dimension flags (indexed by dimension).
    pub fn flags(&self) -> &[DimFlags] {
        &self.flags
    }

    /// Mutable per-dimension flags.
    pub fn flags_mut(&mut self) -> &mut Vec<DimFlags> {
        &mut self.flags
    }

    /// The maximum depth over statements.
    pub fn depth(&self) -> usize {
        self.stmts
            .iter()
            .map(StatementSchedule::depth)
            .max()
            .unwrap_or(0)
    }

    /// Marks statement `s`'s vector dimension.
    pub(crate) fn set_vector_dim(&mut self, s: StmtId, dim: usize) {
        self.vector_dims[s.0] = Some(dim);
    }

    /// The vector dimension of statement `s`, if marked.
    pub fn vector_dim(&self, s: StmtId) -> Option<usize> {
        self.vector_dims[s.0]
    }

    /// Renders the schedule as text, e.g. for golden tests and the Fig. 2
    /// regenerator.
    pub fn render(&self, kernel: &Kernel) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        for (i, s) in kernel.statements().iter().enumerate() {
            let ss = &self.stmts[i];
            write!(out, "{}[{}] -> (", s.name(), s.iters().join(", ")).expect("string write");
            let mut first = true;
            for row in ss.rows() {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&render_row(row, s.iters(), kernel.param_names()));
            }
            out.push_str(")\n");
        }
        out
    }
}

fn render_row(row: &ScheduleRow, iters: &[String], params: &[String]) -> String {
    let mut terms: Vec<String> = Vec::new();
    for (c, name) in row.iter_coeffs.iter().zip(iters) {
        push_term(&mut terms, *c, name);
    }
    for (c, name) in row.param_coeffs.iter().zip(params) {
        push_term(&mut terms, *c, name);
    }
    if row.constant != 0 || terms.is_empty() {
        terms.push(row.constant.to_string());
    }
    terms.join(" + ")
}

fn push_term(terms: &mut Vec<String>, c: i128, name: &str) {
    match c {
        0 => {}
        1 => terms.push(name.to_string()),
        _ => terms.push(format!("{c}*{name}")),
    }
}

impl fmt::Display for DimFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.scalar {
            parts.push("scalar");
        }
        if self.parallel {
            parts.push("parallel");
        }
        if self.vector {
            parts.push("vector");
        }
        if self.permutable {
            parts.push("permutable");
        }
        if parts.is_empty() {
            parts.push("seq");
        }
        write!(f, "{}", parts.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ops;

    #[test]
    fn identity_matches_program_order() {
        let k = ops::running_example(4);
        let sched = Schedule::identity(&k);
        let date = |s: usize, iters: &[i64]| -> Vec<i128> {
            let rows = &sched.stmt(StmtId(s)).rows;
            rows.iter().map(|r| r.eval(iters, &[4])).collect()
        };
        // X(2, 1) runs before Y(0, 0, 0) because of the scalar dimension.
        assert!(date(0, &[2, 1]) < date(1, &[0, 0, 0]));
        // Within X, lexicographic iterator order.
        assert!(date(0, &[1, 3]) < date(0, &[2, 0]));
    }

    #[test]
    fn row_eval() {
        let r = ScheduleRow {
            iter_coeffs: vec![1, 2],
            param_coeffs: vec![3],
            constant: -1,
        };
        assert_eq!(r.eval(&[5, 6], &[10]), 5 + 12 + 30 - 1);
    }

    #[test]
    fn iter_rank_detects_dependence() {
        let mut ss = StatementSchedule::default();
        ss.push(ScheduleRow {
            iter_coeffs: vec![1, 0],
            param_coeffs: vec![],
            constant: 0,
        });
        ss.push(ScheduleRow {
            iter_coeffs: vec![2, 0],
            param_coeffs: vec![],
            constant: 0,
        });
        assert_eq!(ss.iter_rank(), 1);
        ss.push(ScheduleRow {
            iter_coeffs: vec![0, 1],
            param_coeffs: vec![],
            constant: 0,
        });
        assert_eq!(ss.iter_rank(), 2);
    }

    #[test]
    fn truncate_backtracks() {
        let mut ss = StatementSchedule::default();
        ss.push(ScheduleRow::zero(2, 0));
        ss.push(ScheduleRow::zero(2, 0));
        ss.truncate(1);
        assert_eq!(ss.depth(), 1);
    }

    #[test]
    fn render_is_readable() {
        let k = ops::running_example(4);
        let sched = Schedule::identity(&k);
        let text = sched.render(&k);
        assert!(text.contains("X[i, k] -> (0, i, k, 0)"));
        assert!(text.contains("Y[i, j, k] -> (1, i, j, k)"));
    }

    #[test]
    fn scalar_row_flags() {
        let r = ScheduleRow::scalar(2, 1, 3);
        assert!(r.is_constant_row());
        assert_eq!(r.eval(&[9, 9], &[9]), 3);
    }
}
