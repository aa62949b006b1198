//! CUDA-like pretty printer for generated ASTs (drives the Fig. 2
//! regenerator and golden tests).

use crate::ast::{Ast, AstNode, Bound, LoopKind, StmtNode};
use polyject_ir::Kernel;
use polyject_sets::LinExpr;
use std::fmt::Write as _;

/// Renders the whole program as pseudo-CUDA text.
///
/// # Examples
///
/// ```
/// use polyject_codegen::{generate_ast, render};
/// use polyject_core::Schedule;
/// use polyject_ir::ops;
///
/// let kernel = ops::running_example(8);
/// let ast = generate_ast(&kernel, &Schedule::identity(&kernel));
/// let text = render(&ast, &kernel);
/// assert!(text.contains("for"));
/// assert!(text.contains("B[c1][c2]")); // accesses in loop variables
/// ```
pub fn render(ast: &Ast, kernel: &Kernel) -> String {
    let mut out = String::new();
    let names = var_names(ast, kernel);
    for r in &ast.roots {
        render_node(r, kernel, &names, 0, &mut out);
    }
    out
}

/// Names of the global-space variables: loop vars then parameters.
pub(crate) fn var_names(ast: &Ast, kernel: &Kernel) -> Vec<String> {
    let n_t = ast.width() - kernel.n_params();
    let mut names: Vec<String> = (0..n_t).map(|d| format!("c{d}")).collect();
    names.extend(kernel.param_names().iter().cloned());
    names
}

fn render_node(node: &AstNode, kernel: &Kernel, names: &[String], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match node {
        AstNode::Loop(l) => {
            let lo = render_bound_list(&l.lowers, names, true);
            let hi = render_bound_list(&l.uppers, names, false);
            let step = match l.kind {
                LoopKind::Vector(w) => format!(" += {w}"),
                _ if l.step > 1 => format!(" += {}", l.step),
                _ => "++".to_string(),
            };
            writeln!(
                out,
                "{pad}{} ({} = {}; {} <= {}; {}{})",
                l.kind, l.var, lo, l.var, hi, l.var, step
            )
            .expect("string write");
            writeln!(out, "{pad}{{").expect("string write");
            for c in &l.body {
                render_node(c, kernel, names, indent + 1, out);
            }
            writeln!(out, "{pad}}}").expect("string write");
        }
        AstNode::Stmt(s) => render_stmt(s, kernel, names, &pad, out),
    }
}

fn render_stmt(s: &StmtNode, kernel: &Kernel, names: &[String], pad: &str, out: &mut String) {
    let stmt = kernel.statement(s.stmt);
    let guard_prefix = render_guard(s, names);
    let w = compose_access(stmt.write(), s, names, kernel);
    let reads: Vec<String> = stmt
        .reads()
        .iter()
        .map(|a| compose_access(a, s, names, kernel))
        .collect();
    let body = stmt.expr().display_with(|i| reads[i].clone());
    writeln!(out, "{pad}{guard_prefix}{}: {w} = {body};", stmt.name()).expect("string write");
}

/// The `if (...) ` prefix of a guarded statement; empty without guards.
pub(crate) fn render_guard(s: &StmtNode, names: &[String]) -> String {
    if s.guards.is_empty() {
        return String::new();
    }
    let conds: Vec<String> = s
        .guards
        .iter()
        .map(|g| {
            let op = if g.is_equality() { "==" } else { ">=" };
            format!("{} {op} 0", render_expr(&g.to_expr(), names))
        })
        .collect();
    format!("if ({}) ", conds.join(" && "))
}

pub(crate) fn compose_access(
    access: &polyject_ir::Access,
    node: &StmtNode,
    names: &[String],
    kernel: &Kernel,
) -> String {
    let tname = kernel.tensor(access.tensor()).name();
    let mut s = tname.to_string();
    for idx in access.indices() {
        // idx over [iters, params]: substitute the iterator-recovery
        // expressions to land in the global space, then render.
        let composed = node.compose_index(idx, kernel);
        write!(s, "[{}]", render_expr(&composed, names)).expect("string write");
    }
    s
}

pub(crate) fn render_bound_list(bounds: &[Bound], names: &[String], lower: bool) -> String {
    let parts: Vec<String> = bounds
        .iter()
        .map(|b| {
            let e = render_expr(&b.expr, names);
            if b.divisor == 1 {
                e
            } else if lower {
                format!("ceil({e}, {})", b.divisor)
            } else {
                format!("floor({e}, {})", b.divisor)
            }
        })
        .collect();
    match parts.len() {
        1 => parts.into_iter().next().expect("one bound"),
        _ if lower => format!("max({})", parts.join(", ")),
        _ => format!("min({})", parts.join(", ")),
    }
}

pub(crate) fn render_expr(e: &LinExpr, names: &[String]) -> String {
    let mut terms: Vec<String> = Vec::new();
    for v in 0..e.n_vars() {
        let c = e.coeff(v);
        if c.is_zero() {
            continue;
        }
        let name = names.get(v).cloned().unwrap_or_else(|| format!("x{v}"));
        if c == polyject_arith::Rat::ONE {
            terms.push(name);
        } else if c == -polyject_arith::Rat::ONE {
            terms.push(format!("-{name}"));
        } else {
            terms.push(format!("{c}*{name}"));
        }
    }
    let k = e.constant_term();
    if !k.is_zero() || terms.is_empty() {
        terms.push(k.to_string());
    }
    let mut s = String::new();
    for (i, t) in terms.iter().enumerate() {
        if i == 0 {
            s.push_str(t);
        } else if let Some(stripped) = t.strip_prefix('-') {
            write!(s, " - {stripped}").expect("string write");
        } else {
            write!(s, " + {t}").expect("string write");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_ast;
    use polyject_core::Schedule;
    use polyject_ir::ops;

    #[test]
    fn identity_render_shows_original_structure() {
        let kernel = ops::running_example(8);
        let ast = generate_ast(&kernel, &Schedule::identity(&kernel));
        let text = render(&ast, &kernel);
        assert!(
            text.contains("X: B[c1][c2] = (2.0f * A[c1][c2]);"),
            "{text}"
        );
        assert!(
            text.contains("Y: C[c1][c2] = (C[c1][c2] + (B[c1][c3] * D[c3][c1][c2]));"),
            "{text}"
        );
        assert!(text.contains("c1 <= N - 1"), "{text}");
    }

    #[test]
    fn bounds_render_with_divisors() {
        let b = Bound {
            expr: LinExpr::from_coeffs(&[1, 0], -1),
            divisor: 2,
        };
        assert_eq!(
            render_bound_list(std::slice::from_ref(&b), &["a".into(), "b".into()], true),
            "ceil(a - 1, 2)"
        );
        assert_eq!(
            render_bound_list(&[b], &["a".into(), "b".into()], false),
            "floor(a - 1, 2)"
        );
    }
}
