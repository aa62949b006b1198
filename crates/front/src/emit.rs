//! Emission of IR kernels back to `.pj` source (the inverse of
//! [`parse`](crate::parse)), used for kernel round-tripping, debugging
//! dumps, and persisting generated workloads.

use polyject_ir::{Access, BinOp, ElemType, Expr, Extent, Kernel, Statement, UnOp};
use std::fmt::Write as _;
use std::ops::Range;

/// The canonical `.pj` rendering of a source text: parse then
/// [`emit_pj`].
///
/// This is the content-hash basis of the serving layer's schedule cache
/// (`polyject-serve`): two sources that differ only in whitespace,
/// ordering-irrelevant formatting, or redundant parentheses canonicalize
/// to the same bytes and therefore the same cache key, while any
/// semantic change (bounds, accesses, expressions, element types)
/// changes the rendering. Emission is a fixpoint through the parser, so
/// canonicalizing twice is the identity.
///
/// # Errors
///
/// Returns the parse error, or the [`emit_pj`] error if the kernel uses
/// a feature the language cannot re-express (callers hashing such
/// kernels should fall back to the raw source).
///
/// # Examples
///
/// ```
/// let a = polyject_front::canonical_pj("kernel k\ntensor t[4]: f32\nstmt S for (i in 0..4) t[i] = ((t[i]) * 2.0)").unwrap();
/// let b = polyject_front::canonical_pj("kernel   k\n tensor t [ 4 ] : f32\nstmt S for ( i in 0 .. 4 ) t[i] = (t[i] * 2.0)").unwrap();
/// assert_eq!(a, b);
/// assert_eq!(polyject_front::canonical_pj(&a).unwrap(), a);
/// ```
pub fn canonical_pj(src: &str) -> Result<String, String> {
    let kernel = crate::parser::parse(src).map_err(|e| e.to_string())?;
    emit_pj(&kernel)
}

/// Emits a kernel as `.pj` source.
///
/// # Errors
///
/// Returns a message if the kernel uses a feature the language cannot
/// express (non-rectangular domains with raw constraints, access indices
/// that are not `iterator + constant`, non-zero lower bounds combined with
/// parametric uppers).
///
/// # Examples
///
/// ```
/// use polyject_front::{emit_pj, parse};
/// use polyject_ir::ops;
///
/// let kernel = ops::running_example(64);
/// let src = emit_pj(&kernel).unwrap();
/// let reparsed = parse(&src).unwrap();
/// assert_eq!(reparsed.name(), kernel.name());
/// // Emission is a fixpoint through the parser.
/// assert_eq!(emit_pj(&reparsed).unwrap(), src);
/// ```
pub fn emit_pj(kernel: &Kernel) -> Result<String, String> {
    let mut out = String::with_capacity(512);
    let params = kernel.param_names();
    writeln!(out, "kernel {}", kernel.name()).expect("write");
    for (name, default) in params.iter().zip(kernel.param_defaults()) {
        writeln!(out, "param {name} = {default}").expect("write");
    }
    for t in kernel.tensors() {
        write!(out, "tensor {}", t.name()).expect("write");
        for d in t.dims() {
            match d {
                Extent::Const(v) => write!(out, "[{v}]"),
                Extent::Param(p) => write!(out, "[{}]", params[p.0]),
            }
            .expect("write");
        }
        let elem = match t.elem() {
            ElemType::F32 => "f32",
            ElemType::F16 => "f16",
        };
        writeln!(out, ": {elem}").expect("write");
    }
    // The statements' read accesses, rendered once each into `reads` at
    // `spans`, since an expression may name one read many times.
    let (mut reads, mut spans) = (String::new(), Vec::new());
    for s in kernel.statements() {
        out.push('\n');
        emit_statement(kernel, s, &mut out, &mut reads, &mut spans)?;
    }
    Ok(out)
}

fn emit_statement(
    kernel: &Kernel,
    s: &Statement,
    out: &mut String,
    reads: &mut String,
    spans: &mut Vec<Range<usize>>,
) -> Result<(), String> {
    // Iterator ranges: recover `lo..hi` from the concrete/parametric
    // domain (rectangular domains only).
    write!(out, "stmt {} for (", s.name()).expect("write");
    for (i, name) in s.iters().iter().enumerate() {
        let (lo, hi) = iter_range(s, i)?;
        let sep = if i == 0 { "" } else { ", " };
        match hi {
            Upper::Param(p) => write!(out, "{sep}{name} in {lo}..{}", kernel.param_names()[p]),
            Upper::Const(hi) => write!(out, "{sep}{name} in {lo}..{hi}"),
        }
        .expect("write");
    }
    out.push_str(")\n  ");
    write_access(kernel, s, s.write(), out)?;
    out.push_str(" = ");
    reads.clear();
    spans.clear();
    for a in s.reads() {
        let start = reads.len();
        write_access(kernel, s, a, reads)?;
        spans.push(start..reads.len());
    }
    write_expr(s.expr(), reads, spans, out);
    out.push('\n');
    Ok(())
}

/// An iterator's exclusive upper bound: a parameter or a constant.
enum Upper {
    Param(usize),
    Const(i128),
}

/// `(lower, upper_exclusive)` of one iterator.
fn iter_range(s: &Statement, iter: usize) -> Result<(i128, Upper), String> {
    // Probe the parametric domain: detect a parametric upper by matching
    // the bound structure `iter <= param - 1` in the domain constraints,
    // else a constant `iter <= c`.
    let n_iters = s.n_iters();
    for c in s.domain().constraints() {
        if c.is_equality() {
            continue;
        }
        if c.coeff(iter) == -1 && (0..n_iters).all(|v| v == iter || c.coeff(v) == 0) {
            // -iter + (param?) + const >= 0 → iter <= param + const.
            for p in 0..s.n_params() {
                if c.coeff(n_iters + p) == 1
                    && c.constant() == -1
                    && (0..s.n_params()).all(|q| q == p || c.coeff(n_iters + q) == 0)
                {
                    return Ok((lower_of(s, iter)?, Upper::Param(p)));
                }
            }
            if (0..s.n_params()).all(|q| c.coeff(n_iters + q) == 0) {
                return Ok((lower_of(s, iter)?, Upper::Const(c.constant() + 1)));
            }
        }
    }
    Err(format!(
        "iterator {iter} of {} has no recognizable upper bound",
        s.name()
    ))
}

fn lower_of(s: &Statement, iter: usize) -> Result<i128, String> {
    for c in s.domain().constraints() {
        if c.is_equality() {
            continue;
        }
        if c.coeff(iter) == 1
            && (0..s.n_iters()).all(|v| v == iter || c.coeff(v) == 0)
            && (0..s.n_params()).all(|q| c.coeff(s.n_iters() + q) == 0)
        {
            return Ok(-c.constant());
        }
    }
    Err(format!(
        "iterator {iter} of {} has no recognizable lower bound",
        s.name()
    ))
}

/// Appends access `a` as `name[idx]...`, each index `iter`, `iter ± k`
/// or `k`.
fn write_access(
    kernel: &Kernel,
    s: &Statement,
    a: &Access,
    out: &mut String,
) -> Result<(), String> {
    out.push_str(kernel.tensor(a.tensor()).name());
    for e in a.indices() {
        let k = e
            .constant_term()
            .to_integer()
            .ok_or_else(|| "non-integer index constant".to_string())?;
        let mut term = None;
        for it in 0..s.n_iters() {
            let c = e.coeff(it);
            if c.is_zero() {
                continue;
            }
            if c != polyject_arith::Rat::ONE || term.is_some() {
                return Err(format!("index too complex in {}", s.name()));
            }
            term = Some(&s.iters()[it]);
        }
        for p in 0..s.n_params() {
            if !e.coeff(s.n_iters() + p).is_zero() {
                return Err(format!("parametric index in {}", s.name()));
            }
        }
        match (term, k) {
            (Some(it), 0) => write!(out, "[{it}]"),
            (Some(it), k) if k > 0 => write!(out, "[{it} + {k}]"),
            (Some(it), k) => write!(out, "[{it} - {}]", -k),
            (None, k) => write!(out, "[{k}]"),
        }
        .expect("write");
    }
    Ok(())
}

/// Appends expression `e`, every binary operation parenthesised; read
/// `i` is `reads[spans[i]]`.
fn write_expr(e: &Expr, reads: &str, spans: &[Range<usize>], out: &mut String) {
    let sub = |e: &Expr, out: &mut String| write_expr(e, reads, spans, out);
    match e {
        Expr::Read(i) => out.push_str(&reads[spans[*i].clone()]),
        // An integral value keeps its `.0`, so it lexes as a float.
        Expr::Const(c) if c.fract() == 0.0 => write!(out, "{c:.1}").expect("write"),
        Expr::Const(c) => write!(out, "{c}").expect("write"),
        Expr::Unary(op, a) => {
            out.push_str(match op {
                UnOp::Neg => "(-",
                UnOp::Exp => "exp(",
                UnOp::Relu => "relu(",
                UnOp::Sqrt => "sqrt(",
                UnOp::Recip => "recip(",
                UnOp::Tanh => "tanh(",
            });
            sub(a, out);
            out.push(')');
        }
        Expr::Binary(op, a, b) => {
            let (open, mid) = match op {
                BinOp::Add => ("(", " + "),
                BinOp::Sub => ("(", " - "),
                BinOp::Mul => ("(", " * "),
                BinOp::Div => ("(", " / "),
                BinOp::Max => ("max(", ", "),
                BinOp::Min => ("min(", ", "),
            };
            out.push_str(open);
            sub(a, out);
            out.push_str(mid);
            sub(b, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use polyject_ir::ops;

    fn roundtrip(kernel: &Kernel) {
        let src = emit_pj(kernel).unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        let reparsed = parse(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", kernel.name()));
        // Fixpoint through parse→emit.
        assert_eq!(emit_pj(&reparsed).unwrap(), src, "{}", kernel.name());
        // Behavioral equivalence on the reference semantics.
        let params = kernel.param_defaults().to_vec();
        let mut a = kernel.zero_buffers(&params);
        for (i, buf) in a.iter_mut().enumerate() {
            for (j, v) in buf.iter_mut().enumerate() {
                *v = ((i * 13 + j * 7) % 19) as f32 / 2.0;
            }
        }
        let mut b = a.clone();
        kernel.execute_reference(&mut a, &params);
        reparsed.execute_reference(&mut b, &params);
        assert_eq!(a, b, "{}", kernel.name());
    }

    #[test]
    fn roundtrips_builtin_ops() {
        roundtrip(&ops::running_example(8));
        roundtrip(&ops::transpose_2d(6, 9));
        roundtrip(&ops::elementwise_chain(12, 4));
        roundtrip(&ops::bias_add_relu(6, 8));
        roundtrip(&ops::reduce_rows(5, 7));
        roundtrip(&ops::layernorm_like(4, 6));
        roundtrip(&ops::softmax_like(4, 6));
        roundtrip(&ops::transpose_nchw_nhwc(2, 3, 4, 5));
    }

    #[test]
    fn a_float_above_f32_max_has_no_canonical_form_and_f32_max_is_a_fixed_point() {
        let with = |lit: &str| {
            format!("kernel k\ntensor A[4]: f32\nstmt S for (i in 0..4) A[i] = A[i] * {lit}\n")
        };
        let err = canonical_pj(&with(&format!("1{}.0", "0".repeat(39)))).unwrap_err();
        assert!(err.starts_with("3:38: float `1000"), "{err}");
        let max = canonical_pj(&with(&format!("{}.0", f32::MAX))).unwrap();
        assert_eq!(canonical_pj(&max).unwrap(), max);
    }

    #[test]
    fn f16_elem_type_survives() {
        let kernel = ops::transpose_2d_of(4, 4, polyject_ir::ElemType::F16);
        let src = emit_pj(&kernel).unwrap();
        assert!(src.contains(": f16"));
        let reparsed = parse(&src).unwrap();
        assert_eq!(reparsed.tensors()[0].elem(), polyject_ir::ElemType::F16);
    }

    #[test]
    fn parametric_bounds_survive() {
        let kernel = ops::running_example(32);
        let src = emit_pj(&kernel).unwrap();
        assert!(src.contains("param N = 32"));
        assert!(src.contains("in 0..N"), "{src}");
        assert!(src.contains("tensor D[N][N][N]"), "{src}");
    }

    #[test]
    fn shifted_reads_survive() {
        let src = "
kernel scan
tensor a[8]: f32
stmt S for (i in 1..8) a[i] = (a[i - 1] + a[i])
";
        let kernel = parse(src).unwrap();
        let emitted = emit_pj(&kernel).unwrap();
        assert!(emitted.contains("a[i - 1]"), "{emitted}");
        assert!(emitted.contains("i in 1..8"), "{emitted}");
    }
}
