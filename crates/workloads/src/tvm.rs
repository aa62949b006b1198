//! The TVM comparison baseline: manual (template) scheduling.
//!
//! The paper compares against TVM's hand-tuned schedules. Offline, we
//! model the behaviour that matters for the comparison:
//!
//! * **injective chains fuse** — TVM's `compute_inline` trivially fuses
//!   consecutive elementwise stages over the same iteration space into one
//!   kernel (so TVM matches the fused compiler on LSTM-style chains);
//! * **reductions and shape changes split kernels** — TVM (pre-auto-
//!   scheduler) cannot fuse across a reduction or a domain change, so
//!   layernorm-style and multi-domain fused operators run one kernel per
//!   group, intermediates round-tripping through global memory with one
//!   launch each (the paper's BERT rows show the cost);
//! * per-kernel schedules are good manual templates: loops ordered by
//!   decreasing write stride (coalesced stores), no explicit vector types
//!   (related work the paper cites addresses coalescing only).

use polyject_codegen::{generate_ast, map_to_gpu, Ast, MappingOptions};
use polyject_core::{dim_is_coincident, schedule_respects, DimFlags, Schedule, ScheduleRow};
use polyject_deps::{compute_dependences, DepOptions, DepRelation};
use polyject_ir::{Kernel, StmtId};

/// A TVM-style compilation of a fused operator: one mapped kernel per
/// fusable statement group, in program order.
pub fn compile_tvm(kernel: &Kernel) -> Vec<(Kernel, Ast)> {
    fuse_groups(kernel)
        .into_iter()
        .map(|ids| {
            let sub = kernel.with_statement_subset(&ids);
            let sched = manual_schedule(&sub);
            let mut ast = generate_ast(&sub, &sched);
            map_to_gpu(&mut ast, &sub, MappingOptions::default());
            (sub, ast)
        })
        .collect()
}

/// Groups consecutive statements TVM can fuse: identical iteration domains
/// and identical write index patterns (a pure injective chain). A
/// reduction (write rank below the domain rank) or any domain/pattern
/// change starts a new kernel.
pub(crate) fn fuse_groups(kernel: &Kernel) -> Vec<Vec<StmtId>> {
    let stmts = kernel.statements();
    let mut groups: Vec<Vec<StmtId>> = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        let fits = groups.last().is_some_and(|g| {
            let prev = kernel.statement(*g.last().expect("nonempty group"));
            prev.domain() == s.domain()
                && prev.write().indices() == s.write().indices()
                && s.write().indices().len() == s.n_iters()
        });
        if fits {
            groups.last_mut().expect("nonempty groups").push(StmtId(i));
        } else {
            groups.push(vec![StmtId(i)]);
        }
    }
    groups
}

/// The manual schedule of a (single-group) kernel: iterators ordered by
/// decreasing write stride of the *last* statement (innermost = contiguous
/// store axis), applied to every statement, with a trailing scalar
/// statement-order dimension for multi-statement groups. Parallel flags
/// are derived from the group's dependences. Falls back to the identity
/// order if the reordering would violate a dependence.
pub(crate) fn manual_schedule(kernel: &Kernel) -> Schedule {
    let stmts = kernel.statements();
    let last = stmts.last().expect("nonempty kernel");
    let params = kernel.param_defaults();
    let w = last.write();
    let strides = kernel.tensor(w.tensor()).strides(params);
    let n_iters = last.n_iters();
    debug_assert!(
        stmts.iter().all(|s| s.n_iters() == n_iters),
        "groups share one iteration space"
    );
    let mut order: Vec<usize> = (0..n_iters).collect();
    order.sort_by_key(|&it| std::cmp::Reverse(w.stride_along(it, &strides).abs()));

    let mut sched = Schedule::empty(kernel);
    for &it in &order {
        for si in 0..stmts.len() {
            let mut row = ScheduleRow::zero(n_iters, kernel.n_params());
            row.iter_coeffs[it] = 1;
            sched.stmt_mut(StmtId(si)).push(row);
        }
        sched.flags_mut().push(DimFlags::default());
    }
    if stmts.len() > 1 {
        for si in 0..stmts.len() {
            sched.stmt_mut(StmtId(si)).push(ScheduleRow::scalar(
                n_iters,
                kernel.n_params(),
                si as i128,
            ));
        }
        sched.flags_mut().push(DimFlags {
            scalar: true,
            ..DimFlags::default()
        });
    }
    let deps = compute_dependences(kernel, DepOptions::default());
    let validity: Vec<&DepRelation> = deps.validity().collect();
    if !schedule_respects(validity.iter().copied(), &sched) {
        return Schedule::identity(kernel);
    }
    for d in 0..sched.depth() {
        let parallel =
            !sched.flags()[d].scalar && dim_is_coincident(validity.iter().copied(), &sched, d);
        sched.flags_mut()[d].parallel = parallel;
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_ir::ops;

    #[test]
    fn transpose_manual_is_store_aligned() {
        let k = ops::transpose_2d(64, 128);
        let sub = k.with_statement_subset(&[StmtId(0)]);
        let sched = manual_schedule(&sub);
        // Write B[j][i]: stride along j = 64 (outer), along i = 1 (inner).
        let rows = sched.stmt(StmtId(0)).rows();
        assert_eq!(rows[0].iter_coeffs, vec![0, 1], "outer = j");
        assert_eq!(
            rows[1].iter_coeffs,
            vec![1, 0],
            "inner = i (contiguous store)"
        );
        assert!(sched.flags().iter().all(|f| f.parallel));
    }

    #[test]
    fn reduction_manual_keeps_reduce_inner_and_sequential() {
        let k = ops::reduce_rows(32, 64);
        let sub = k.with_statement_subset(&[StmtId(0)]);
        let sched = manual_schedule(&sub);
        let rows = sched.stmt(StmtId(0)).rows();
        assert_eq!(rows[0].iter_coeffs, vec![1, 0], "i outer");
        assert_eq!(rows[1].iter_coeffs, vec![0, 1], "j inner");
        assert!(sched.flags()[0].parallel);
        assert!(
            !sched.flags()[1].parallel,
            "the reduction axis is sequential"
        );
    }

    #[test]
    fn injective_chain_fuses_into_one_kernel() {
        let k = ops::elementwise_chain(64, 5);
        let compiled = compile_tvm(&k);
        assert_eq!(compiled.len(), 1, "TVM inlines injective chains");
        assert_eq!(compiled[0].0.statements().len(), 5);
    }

    #[test]
    fn layernorm_splits_at_reductions() {
        let k = ops::layernorm_like(16, 32);
        let groups = fuse_groups(&k);
        // R1 | S2 | R3 | S4: reductions break every group.
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn multi_domain_op_splits() {
        let k = ops::running_example(8);
        let compiled = compile_tvm(&k);
        assert_eq!(compiled.len(), 2, "X and Y have different domains");
    }

    #[test]
    fn per_group_execution_matches_reference() {
        use polyject_gpusim::execute_ast;
        for k in [
            ops::running_example(6),
            ops::layernorm_like(6, 8),
            ops::elementwise_chain(16, 4),
        ] {
            let params = k.param_defaults().to_vec();
            let mut bufs = polyject_gpusim::seeded_buffers(&k, &params, 3);
            let mut reference = bufs.clone();
            k.execute_reference(&mut reference, &params);
            for (sub, ast) in compile_tvm(&k) {
                execute_ast(&ast, &sub, &mut bufs, &params).unwrap();
            }
            assert_eq!(bufs, reference, "{}", k.name());
        }
    }
}
