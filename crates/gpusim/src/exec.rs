//! Functional interpretation of generated ASTs.
//!
//! Executes the mapped program on real `f32` buffers, in AST order — the
//! oracle every schedule/codegen/vectorization combination is validated
//! against (results must match the kernel's reference execution exactly,
//! since both perform the same floating-point operations in a semantically
//! equivalent order).
//!
//! Execution errors (mismatched buffers, out-of-bounds accesses from a
//! malformed AST) are reported as [`ExecError`] values rather than
//! panics, so a long-lived service (the `polyjectd` daemon) survives a
//! single bad kernel without tearing down a worker thread.

use polyject_codegen::{access_offset_expr, Ast, AstNode, Lanes, LoopKind, StmtNode};
use polyject_ir::Kernel;

/// Why an AST execution could not run to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// `param_values` does not match the kernel's parameter count.
    ParamCount {
        /// Parameters the kernel declares.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// `buffers` does not match the kernel's tensor count.
    BufferCount {
        /// Tensors the kernel declares.
        expected: usize,
        /// Buffers supplied.
        got: usize,
    },
    /// A statement instance accessed a tensor outside its buffer.
    Instance(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ParamCount { expected, got } => {
                write!(
                    f,
                    "parameter count mismatch: kernel has {expected}, got {got}"
                )
            }
            ExecError::BufferCount { expected, got } => {
                write!(f, "buffer count mismatch: kernel has {expected}, got {got}")
            }
            ExecError::Instance(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes a compiled AST on the given buffers.
///
/// Block and thread loops iterate sequentially here — their mapping only
/// affects *timing*, not semantics (mapped loops are dependence-free by
/// construction). A vector loop of width `w` runs `w` iterations at a
/// time, the way its printed wide accesses behave: each leaf gathers
/// every lane's reads as [`polyject_codegen::vectorize`] recorded them,
/// computes, then stores the lanes to consecutive cells from lane 0's
/// address, with the guard tested per lane.
///
/// # Errors
///
/// Returns an [`ExecError`] if the buffers don't match the kernel's
/// tensors or an instance evaluates out of bounds; the buffers may then
/// hold a partial execution.
///
/// # Examples
///
/// ```
/// use polyject_codegen::{compile, Config};
/// use polyject_gpusim::execute_ast;
/// use polyject_ir::ops;
///
/// let kernel = ops::transpose_2d(8, 8);
/// let compiled = compile(&kernel, Config::Influenced).unwrap();
/// let mut scheduled = kernel.zero_buffers(&[]);
/// scheduled[0] = (0..64).map(|v| v as f32).collect();
/// execute_ast(&compiled.ast, &kernel, &mut scheduled, &[]).unwrap();
///
/// let mut reference = kernel.zero_buffers(&[]);
/// reference[0] = (0..64).map(|v| v as f32).collect();
/// kernel.execute_reference(&mut reference, &[]);
/// assert_eq!(scheduled, reference);
/// ```
pub fn execute_ast(
    ast: &Ast,
    kernel: &Kernel,
    buffers: &mut [Vec<f32>],
    param_values: &[i64],
) -> Result<(), ExecError> {
    if param_values.len() != kernel.n_params() {
        return Err(ExecError::ParamCount {
            expected: kernel.n_params(),
            got: param_values.len(),
        });
    }
    if buffers.len() != kernel.tensors().len() {
        return Err(ExecError::BufferCount {
            expected: kernel.tensors().len(),
            got: buffers.len(),
        });
    }
    let mut tv = vec![0i128; ast.width()];
    let n_t = tv.len() - kernel.n_params();
    for (t, &v) in tv[n_t..].iter_mut().zip(param_values) {
        *t = i128::from(v);
    }
    let mut run = Run {
        kernel,
        buffers,
        params: param_values,
        tv,
    };
    ast.roots.iter().try_for_each(|r| run.node(r))
}

/// One execution: the kernel's buffers and the current point
/// `[t…, params…]` of the global space.
struct Run<'a> {
    kernel: &'a Kernel,
    buffers: &'a mut [Vec<f32>],
    params: &'a [i64],
    tv: Vec<i128>,
}

impl Run<'_> {
    fn node(&mut self, node: &AstNode) -> Result<(), ExecError> {
        match node {
            AstNode::Loop(l) => {
                let values: Vec<i128> = l.values(&self.tv).collect();
                // A vector loop runs its leaves w consecutive iterations at a time.
                let group = match l.kind {
                    LoopKind::Vector(w) => usize::from(w),
                    _ => 1,
                };
                for lanes in values.chunks(group) {
                    for c in &l.body {
                        match c {
                            AstNode::Stmt(s) if group > 1 => self.lanes(s, l.dim, lanes)?,
                            _ => {
                                self.tv[l.dim] = lanes[0];
                                self.node(c)?;
                            }
                        }
                    }
                }
                self.tv[l.dim] = 0;
            }
            AstNode::Stmt(s) => {
                if let Some(iters) = s.instance(&self.tv) {
                    let stmt = self.kernel.statement(s.stmt);
                    (self.kernel)
                        .try_execute_instance(stmt, &iters, self.buffers, self.params)
                        .map_err(ExecError::Instance)?;
                }
            }
        }
        Ok(())
    }

    /// One vector leaf over the iterations `lanes` of dimension `t_dim`,
    /// the way its printed wide accesses behave: every active lane's
    /// reads are gathered where the recorded form says (a read without
    /// one is per lane), computed, then stored to consecutive cells from
    /// lane 0's address (the store is always wide).
    fn lanes(&mut self, s: &StmtNode, t_dim: usize, lanes: &[i128]) -> Result<(), ExecError> {
        let stmt = self.kernel.statement(s.stmt);
        let offsets: Vec<_> = (stmt.accesses())
            .map(|(a, _)| access_offset_expr(self.kernel, s, a, self.params))
            .collect();
        let (mut first, mut stores) = (Vec::new(), Vec::new());
        for (k, &t) in (0..).zip(lanes) {
            self.tv[t_dim] = t;
            let own: Vec<i128> = offsets
                .iter()
                .map(|o| o.eval_int(&self.tv).floor())
                .collect();
            if k == 0 {
                first.clone_from(&own);
            }
            if s.instance(&self.tv).is_none() {
                continue;
            }
            let mut reads = Vec::with_capacity(s.lanes.len());
            for (r, a) in (1..).zip(stmt.reads()) {
                let at = match s.lanes.get(r - 1) {
                    Some(Lanes::Wide) => first[r] + k,
                    Some(Lanes::Broadcast) => first[r],
                    _ => own[r],
                };
                reads.push(*self.cell(a.tensor().0, at)?);
            }
            stores.push((first[0] + k, stmt.expr().eval(&reads)));
        }
        for (at, v) in stores {
            *self.cell(stmt.write().tensor().0, at)? = v;
        }
        Ok(())
    }

    /// The cell at flat offset `at` of buffer `t`.
    fn cell(&mut self, t: usize, at: i128) -> Result<&mut f32, ExecError> {
        let len = self.buffers[t].len();
        let cell = usize::try_from(at)
            .ok()
            .and_then(|i| self.buffers[t].get_mut(i));
        cell.ok_or_else(|| {
            ExecError::Instance(format!("vector access out of bounds at {at} of {len}"))
        })
    }
}

/// Convenience oracle: compiles nothing, just runs both executions and
/// compares them bitwise on the given inputs.
///
/// Returns `Ok(())` when every buffer matches, or a description of the
/// first mismatch.
///
/// # Errors
///
/// Returns a human-readable mismatch or execution-failure report.
pub fn check_equivalence(
    ast: &Ast,
    kernel: &Kernel,
    inputs: &[Vec<f32>],
    param_values: &[i64],
) -> Result<(), String> {
    let mut scheduled = inputs.to_vec();
    execute_ast(ast, kernel, &mut scheduled, param_values).map_err(|e| e.to_string())?;
    let mut reference = inputs.to_vec();
    kernel.execute_reference(&mut reference, param_values);
    for (ti, (a, b)) in scheduled.iter().zip(&reference).enumerate() {
        if a != b {
            let pos = a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(0);
            return Err(format!(
                "tensor {} ({}) differs at element {}: scheduled {} vs reference {}",
                ti,
                kernel.tensors()[ti].name(),
                pos,
                a[pos],
                b[pos]
            ));
        }
    }
    Ok(())
}

/// Fills input tensors with a deterministic pseudo-random pattern and
/// zeroes the outputs, returning the buffers.
pub fn seeded_buffers(kernel: &Kernel, param_values: &[i64], seed: u64) -> Vec<Vec<f32>> {
    let mut bufs = kernel.zero_buffers(param_values);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let outputs = kernel.output_tensors();
    for (ti, buf) in bufs.iter_mut().enumerate() {
        if outputs.contains(&polyject_ir::TensorId(ti)) {
            continue; // outputs start zeroed (reductions accumulate)
        }
        for v in buf.iter_mut() {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            *v = ((r >> 40) as i32 % 64) as f32 / 8.0;
        }
    }
    bufs
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_codegen::{compile, Config};
    use polyject_ir::ops;

    fn assert_all_configs_equivalent(kernel: &Kernel) {
        let params = kernel.param_defaults().to_vec();
        let inputs = seeded_buffers(kernel, &params, 42);
        for cfg in Config::all() {
            let c = compile(kernel, cfg).unwrap();
            check_equivalence(&c.ast, kernel, &inputs, &params)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", cfg.name(), kernel.name()));
        }
    }

    #[test]
    fn running_example_all_configs() {
        assert_all_configs_equivalent(&ops::running_example(6));
    }

    #[test]
    fn transpose_all_configs() {
        assert_all_configs_equivalent(&ops::transpose_2d(8, 12));
    }

    #[test]
    fn elementwise_chain_all_configs() {
        assert_all_configs_equivalent(&ops::elementwise_chain(16, 4));
    }

    #[test]
    fn bias_relu_all_configs() {
        assert_all_configs_equivalent(&ops::bias_add_relu(8, 8));
    }

    #[test]
    fn reduction_all_configs() {
        assert_all_configs_equivalent(&ops::reduce_rows(8, 8));
    }

    #[test]
    fn nchw_all_configs() {
        assert_all_configs_equivalent(&ops::transpose_nchw_nhwc(2, 3, 4, 4));
    }

    #[test]
    fn seeded_buffers_deterministic() {
        let k = ops::transpose_2d(4, 4);
        let a = seeded_buffers(&k, &[], 7);
        let b = seeded_buffers(&k, &[], 7);
        assert_eq!(a, b);
        let c = seeded_buffers(&k, &[], 8);
        assert_ne!(a, c);
    }

    #[test]
    fn bad_inputs_error_instead_of_panicking() {
        let kernel = ops::transpose_2d(8, 8);
        let c = compile(&kernel, Config::Isl).unwrap();

        // Wrong parameter count.
        let mut bufs = kernel.zero_buffers(&[]);
        let err = execute_ast(&c.ast, &kernel, &mut bufs, &[3]).unwrap_err();
        assert!(matches!(
            err,
            ExecError::ParamCount {
                expected: 0,
                got: 1
            }
        ));

        // Wrong buffer count.
        let mut one = vec![vec![0.0f32; 64]];
        let err = execute_ast(&c.ast, &kernel, &mut one, &[]).unwrap_err();
        assert!(matches!(
            err,
            ExecError::BufferCount {
                expected: 2,
                got: 1
            }
        ));

        // Undersized buffer: out-of-bounds access is reported, not a panic.
        let mut small = vec![vec![0.0f32; 4], vec![0.0f32; 64]];
        let err = execute_ast(&c.ast, &kernel, &mut small, &[]).unwrap_err();
        match &err {
            ExecError::Instance(msg) => assert!(msg.contains("out of bounds"), "{msg}"),
            other => panic!("expected Instance error, got {other:?}"),
        }
        // Errors render through Display for daemon logs.
        assert!(err.to_string().contains("out of bounds"));
    }
}
