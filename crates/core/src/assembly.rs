//! Cross-compile assembly cache for the per-relation constraint systems.
//!
//! Farkas linearization ([`validity_constraints`] / [`bounding_constraints`])
//! and redundancy reduction ([`polyject_sets::try_remove_redundant`]) are
//! pure functions — of the relation as it reads in its own compact space
//! (its one or two statement blocks, see [`linearized_reduced`]) and of
//! the linearized system respectively. They are also the whole cost of the
//! assemble phase, and are recomputed far more often than their inputs change:
//! one operator is compiled under several configurations (isl baseline,
//! no-vector, influenced, plus every fused sub-kernel) over the *same*
//! kernel and dependences, and the scheduler's backtracking ladder
//! re-assembles per-dimension systems from the same relations dozens of
//! times. A ladder rung's delta push/pop never touches the per-relation
//! systems at all.
//!
//! This module memoizes both functions thread-locally *across* scheduler
//! instances, keyed by 64-bit fingerprint with a deep-equality check
//! behind it, so only relations never seen on this thread are linearized
//! or redundancy-checked. The caches are semantically transparent (pure
//! functions, deep-verified keys): compiles produce byte-identical results
//! with the caches hot, cold, or absent, which also keeps parallel workers
//! (each with their own thread-local caches) deterministic.
//!
//! The `farkas_linearizations` / `redundancy_checks` solver counters tick
//! only on misses — i.e. on work actually performed — so the incremental
//! savings are observable in `--stats` and regression-testable.
//!
//! Budget interplay: a reduction that exhausts its budget degrades to the
//! unreduced system (correct, just bigger) and is *not* cached, so a later
//! compile with a fresh budget redoes it properly; cancellation propagates
//! and caches nothing.

use crate::builders::{bounding_constraints, validity_constraints};
use crate::layout::CoeffLayout;
use polyject_deps::DepRelation;
use polyject_ir::StmtId;
use polyject_sets::{Budget, BudgetError, ConstraintSet};
use std::cell::RefCell;

/// Which linearized form of a relation is wanted.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    /// Validity constraints (paper eq. (1)).
    Validity,
    /// Reuse-distance bounding constraints (paper eq. (2)).
    Bounding,
}

/// Everything the linearized form depends on, captured for deep equality:
/// the relation as it reads in its own compact space (see
/// [`linearized_reduced`]) — `rel.source`/`rel.target` are positions in
/// that space, not kernel statement ids, so the identically shaped
/// relations of a fusion chain share one entry. `rel.tensor` is
/// deliberately not compared: it is provenance, not geometry — relations
/// differing only by tensor linearize identically.
struct LinKey {
    form: Form,
    rel: DepRelation,
    layout: CoeffLayout,
}

impl LinKey {
    fn matches(
        &self,
        form: Form,
        (source, target): (StmtId, StmtId),
        rel: &DepRelation,
        layout: &CoeffLayout,
    ) -> bool {
        self.form == form
            && self.rel.source == source
            && self.rel.target == target
            && self.rel.kind == rel.kind
            && self.rel.n_source_iters == rel.n_source_iters
            && self.rel.n_target_iters == rel.n_target_iters
            && self.rel.n_params == rel.n_params
            && self.rel.level == rel.level
            && self.rel.set == rel.set
            && self.layout == *layout
    }
}

struct LinEntry {
    fp: u64,
    key: LinKey,
    out: ConstraintSet,
}

struct RedEntry {
    fp: u64,
    key: ConstraintSet,
    out: ConstraintSet,
}

/// Runaway backstop: no real workload comes close (full Table II populates
/// a few hundred entries); beyond it the caches reset rather than grow.
const CACHE_CAP: usize = 8192;

thread_local! {
    static LIN_CACHE: RefCell<Vec<LinEntry>> = const { RefCell::new(Vec::new()) };
    static RED_CACHE: RefCell<Vec<RedEntry>> = const { RefCell::new(Vec::new()) };
}

/// Empties this thread's linearization and redundancy caches, so the
/// next compile pays full assembly cost again. Benchmarks call this
/// between legs to keep their solver counter blocks comparable —
/// without it a later leg inherits the earlier leg's warm cache and
/// reports near-zero `farkas_linearizations`.
pub fn clear_caches() {
    LIN_CACHE.with(|c| c.borrow_mut().clear());
    RED_CACHE.with(|c| c.borrow_mut().clear());
}

/// Fingerprint of a linearization key: the relation set's fingerprint
/// mixed with the form tag and the cheap scalar fields (the layout is
/// covered by the deep check; collisions only cost a deep compare).
fn lin_fp(form: Form, (source, target): (StmtId, StmtId), rel: &DepRelation) -> u64 {
    let tag: u64 = match form {
        Form::Validity => 0x9e37_79b9_7f4a_7c15,
        Form::Bounding => 0xc2b2_ae3d_27d4_eb4f,
    };
    rel.set
        .fingerprint64()
        .wrapping_mul(0x100_0000_01b3)
        .rotate_left(17)
        ^ tag
        ^ ((source.0 as u64) << 32 | target.0 as u64)
        ^ ((rel.n_source_iters as u64) << 48)
        ^ ((rel.n_target_iters as u64) << 40)
}

/// The linearized, redundancy-reduced constraint system of one relation
/// over `layout`.
///
/// A relation touches the blocks of its one or two statements and `u…, w`,
/// however many statements the kernel has, so it is linearized and reduced
/// in that compact space — statements ascending, source and target
/// renumbered to their positions in it — and the reduced rows are then
/// embedded into `layout`. Both steps are served from the thread-local
/// caches when this compact form has been assembled before on this
/// thread, whichever statements of whichever kernel it came from.
///
/// # Errors
///
/// Only cancellation surfaces; an exhausted reduction budget degrades to
/// the unreduced (still correct) system, counted as a degraded solve.
pub(crate) fn linearized_reduced(
    form: Form,
    rel: &DepRelation,
    layout: &CoeffLayout,
    budget: &Budget,
) -> Result<ConstraintSet, BudgetError> {
    let pair = [rel.source.min(rel.target), rel.source.max(rel.target)];
    let lo = pair[0];
    let stmts = if rel.source == rel.target {
        &pair[..1]
    } else {
        &pair[..]
    };
    let compact = layout.compact(stmts);
    let at = |s: StmtId| StmtId(usize::from(s != lo));
    let ends = (at(rel.source), at(rel.target));
    let fp = lin_fp(form, ends, rel);
    let hit = LIN_CACHE.with(|c| {
        c.borrow()
            .iter()
            .find(|e| e.fp == fp && e.key.matches(form, ends, rel, &compact))
            .map(|e| e.out.clone())
    });
    let cs = match hit {
        Some(cs) => cs,
        None => {
            polyject_sets::counters::note_farkas_linearization(1);
            let local = DepRelation {
                source: ends.0,
                target: ends.1,
                ..rel.clone()
            };
            let cs = match form {
                Form::Validity => validity_constraints([&local], &compact),
                Form::Bounding => bounding_constraints([&local], &compact),
            };
            LIN_CACHE.with(|c| {
                let mut c = c.borrow_mut();
                if c.len() >= CACHE_CAP {
                    c.clear();
                }
                c.push(LinEntry {
                    fp,
                    key: LinKey {
                        form,
                        rel: local,
                        layout: compact,
                    },
                    out: cs.clone(),
                });
            });
            cs
        }
    };
    Ok(layout.embed(stmts, reduced(cs, budget)?))
}

/// Memoized `try_remove_redundant`: identical systems reduce identically, so
/// the LP-backed redundancy check runs once per distinct system per
/// thread. Degraded (budget-exhausted) results are returned unreduced and
/// never cached.
fn reduced(cs: ConstraintSet, budget: &Budget) -> Result<ConstraintSet, BudgetError> {
    let fp = cs.fingerprint64();
    let hit = RED_CACHE.with(|c| {
        c.borrow()
            .iter()
            .find(|e| e.fp == fp && e.key == cs)
            .map(|e| e.out.clone())
    });
    if let Some(out) = hit {
        return Ok(out);
    }
    polyject_sets::counters::note_redundancy_check(1);
    let out = match polyject_sets::try_remove_redundant(&cs, budget) {
        Ok(r) => r,
        Err(e @ BudgetError::Cancelled) => return Err(e),
        Err(BudgetError::Exhausted(_)) => {
            polyject_sets::counters::note_degraded_solve(1);
            return Ok(cs);
        }
    };
    RED_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() >= CACHE_CAP {
            c.clear();
        }
        c.push(RedEntry {
            fp,
            key: cs,
            out: out.clone(),
        });
    });
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use polyject_deps::{compute_dependences, DepOptions};
    use polyject_ir::ops;
    use polyject_sets::{counters, minimize, LinExpr, LpOutcome};

    /// Whether every rational point of `a` satisfies `b`: one LP per
    /// constraint of `b`, both directions for an equality.
    fn is_subset(a: &ConstraintSet, b: &ConstraintSet) -> bool {
        let holds = |e: &LinExpr| match minimize(e, a) {
            LpOutcome::Infeasible => true,
            LpOutcome::Unbounded => false,
            LpOutcome::Optimal { value, .. } => !value.is_negative(),
        };
        b.constraints().iter().all(|c| {
            let e = c.to_expr();
            holds(&e) && (!c.is_equality() || holds(&-&e))
        })
    }

    /// Whether two sets hold exactly the same rational points.
    pub(crate) fn set_eq(a: &ConstraintSet, b: &ConstraintSet) -> bool {
        is_subset(a, b) && is_subset(b, a)
    }

    #[test]
    fn second_linearization_is_a_cache_hit() {
        let kernel = ops::running_example(8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let layout = CoeffLayout::new(&kernel);
        let rel = deps.validity().next().expect("has validity deps");
        let budget = Budget::unlimited();

        let before = counters::snapshot();
        let a = linearized_reduced(Form::Validity, rel, &layout, &budget).unwrap();
        let mid = counters::snapshot();
        let d1 = mid.delta_since(&before);
        let b = linearized_reduced(Form::Validity, rel, &layout, &budget).unwrap();
        let d2 = counters::snapshot().delta_since(&mid);

        assert_eq!(a, b, "cache must be semantically transparent");
        assert!(d1.farkas_linearizations >= 1, "{d1:?}");
        assert!(d1.redundancy_checks >= 1, "{d1:?}");
        assert_eq!(d2.farkas_linearizations, 0, "{d2:?}");
        assert_eq!(d2.redundancy_checks, 0, "{d2:?}");
        assert_eq!(d2.lp_solves, 0, "hit must cost zero solver work: {d2:?}");
    }

    #[test]
    fn forms_are_cached_separately() {
        let kernel = ops::running_example(8);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let layout = CoeffLayout::new(&kernel);
        let rel = deps.validity().next().expect("has validity deps");
        let budget = Budget::unlimited();
        let v = linearized_reduced(Form::Validity, rel, &layout, &budget).unwrap();
        let b = linearized_reduced(Form::Bounding, rel, &layout, &budget).unwrap();
        assert_ne!(v, b, "validity and bounding forms differ");
    }

    /// The relation with source and target swapped (and the two iterator
    /// blocks of its set with them): a well-formed backward pair, which
    /// program-ordered workload kernels never produce on their own.
    fn mirrored(rel: &DepRelation) -> DepRelation {
        let (a, b) = (rel.n_source_iters, rel.n_target_iters);
        let old_of = |j: usize| match j {
            j if j < b => a + j,
            j if j < a + b => j - b,
            j => j,
        };
        let rows = rel
            .set
            .constraints()
            .iter()
            .map(|c| c.remapped(rel.n_vars(), old_of));
        DepRelation {
            source: rel.target,
            target: rel.source,
            n_source_iters: b,
            n_target_iters: a,
            set: ConstraintSet::from_constraints(rel.n_vars(), rows),
            ..rel.clone()
        }
    }

    #[test]
    fn compact_space_describes_the_full_space_polyhedron() {
        // Relations drawn by PRNG from kernels of one to five statements:
        // what comes back from the compact space, embedded, and the
        // builders' own full-space system imply each other row by row.
        let mut g = polyject_arith::SplitMix64::new(0x1EA2_C0DE);
        let budget = Budget::unlimited();
        let (mut selfs, mut backward, mut forward) = (0, 0, 0);
        for kernel in [
            ops::running_example(8),
            ops::layernorm_like(6, 8),
            ops::softmax_like(4, 6),
            ops::reduce_rows(5, 7),
            ops::elementwise_chain(24, 5),
        ] {
            let deps = compute_dependences(&kernel, DepOptions::default());
            let layout = CoeffLayout::new(&kernel);
            let rels = deps.relations();
            for _ in 0..5 {
                let rel = &rels[g.below(rels.len())];
                let rel = match rel.source == rel.target {
                    true => rel.clone(),
                    false if g.below(2) == 0 => mirrored(rel),
                    false => rel.clone(),
                };
                match rel.source.cmp(&rel.target) {
                    std::cmp::Ordering::Equal => selfs += 1,
                    std::cmp::Ordering::Greater => backward += 1,
                    std::cmp::Ordering::Less => forward += 1,
                }
                for form in [Form::Validity, Form::Bounding] {
                    let ours = linearized_reduced(form, &rel, &layout, &budget).unwrap();
                    let full = match form {
                        Form::Validity => validity_constraints([&rel], &layout),
                        Form::Bounding => bounding_constraints([&rel], &layout),
                    };
                    assert_eq!(ours.n_vars(), layout.n_vars());
                    assert!(
                        set_eq(&ours, &full),
                        "{}: S{} -> S{}\ncompact {ours:?}\nfull {full:?}",
                        kernel.name(),
                        rel.source.0,
                        rel.target.0
                    );
                }
            }
        }
        assert!(
            selfs > 0 && backward > 0 && forward > 0,
            "draws missed a shape: {selfs} self, {backward} backward, {forward} forward"
        );
    }

    #[test]
    fn chain_relations_share_one_linearization() {
        // Twelve producer→consumer relations between thirteen different
        // statement pairs, one shape: one Farkas elimination and one
        // redundancy pass per form serve them all.
        let kernel = ops::elementwise_chain(393_216, 13);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let layout = CoeffLayout::new(&kernel);
        let budget = Budget::unlimited();
        assert_eq!(deps.validity().count(), 12);
        clear_caches();
        for form in [Form::Validity, Form::Bounding] {
            let before = counters::snapshot();
            for rel in deps.validity() {
                linearized_reduced(form, rel, &layout, &budget).unwrap();
            }
            let d = counters::snapshot().delta_since(&before);
            assert_eq!(d.farkas_linearizations, 1, "{d:?}");
            assert_eq!(d.redundancy_checks, 1, "{d:?}");
        }
    }
}
