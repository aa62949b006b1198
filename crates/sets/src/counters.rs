//! Thread-local solver performance counters.
//!
//! The scheduler's hot path is made of LP solves, branch-and-bound nodes
//! and Fourier–Motzkin eliminations; these counters let callers measure
//! exactly how much solver work a compilation performed without threading
//! a context object through every call. Counters are **per-thread** and
//! monotonically increasing: take a [`snapshot`] before and after a
//! region and subtract with [`SolverCounters::delta_since`]. This
//! composes naturally with the parallel compilation pipeline, where each
//! operator is compiled start-to-finish on a single worker thread.
//!
//! Beyond the solve-level counts, a phase breakdown records where the
//! pivot work actually goes: phase-1 vs phase-2 primal pivots on the
//! integer tableau, dual-simplex repair pivots spent warm-starting
//! branch-and-bound nodes (plus how many nodes the warm path fully
//! served), and nanoseconds spent in integer-feasibility preprocessing.

use std::cell::Cell;

/// Declares the counter list once: the [`SolverCounters`] snapshot struct
/// with its delta/accumulate/`fields` methods, the thread-local cell and
/// the tick function behind each `live` name, and [`snapshot`]. A tick
/// function is `pub` when the code that ticks it lives in another crate.
/// `frozen` names are public fields nothing ticks.
macro_rules! solver_counters {
    (
        live { $( $(#[$doc:meta])* $field:ident: $vis:vis $tick:ident, )* }
        frozen { $( $(#[$zdoc:meta])* $zero:ident, )* }
    ) => {
        /// A snapshot of the per-thread solver work counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct SolverCounters {
            $( $(#[$doc])* pub $field: u64, )*
            $( $(#[$zdoc])* pub $zero: u64, )*
        }

        impl SolverCounters {
            /// The work performed between `earlier` and `self` (both
            /// snapshots of the same thread).
            pub fn delta_since(&self, earlier: &SolverCounters) -> SolverCounters {
                SolverCounters {
                    $( $field: self.$field - earlier.$field, )*
                    $( $zero: self.$zero - earlier.$zero, )*
                }
            }

            /// Accumulates another delta into this one (for aggregating
            /// across operators or worker threads).
            pub fn accumulate(&mut self, other: &SolverCounters) {
                $( self.$field += other.$field; )*
                $( self.$zero += other.$zero; )*
            }

            /// Every live counter as `(field name, value)`, in declaration
            /// order: the eight artifact counters the wire carries first.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [ $( (stringify!($field), self.$field), )* ].into_iter()
            }

            /// [`fields`](SolverCounters::fields) with the values writable.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
                [ $( (stringify!($field), &mut self.$field), )* ].into_iter()
            }
        }

        /// One thread's live counters.
        struct Cells {
            $( $field: Cell<u64>, )*
        }

        thread_local! {
            static CELLS: Cells = const { Cells { $( $field: Cell::new(0), )* } };
        }

        /// The current thread's counter values.
        pub fn snapshot() -> SolverCounters {
            CELLS.with(|c| SolverCounters {
                $( $field: c.$field.get(), )*
                $( $zero: 0, )*
            })
        }

        $(
            #[doc = concat!("Adds `n` to this thread's [`SolverCounters::", stringify!($field), "`].")]
            $vis fn $tick(n: u64) {
                CELLS.with(|c| c.$field.set(c.$field.get() + n));
            }
        )*
    };
}

solver_counters! {
    live {
        /// Exact simplex solves ([`crate::minimize`] calls).
        lp_solves: pub(crate) count_lp_solve,
        /// Integer programs solved ([`crate::minimize_integer`] calls).
        ilp_solves: pub(crate) count_ilp_solve,
        /// Branch-and-bound nodes explored across all ILP solves.
        ilp_nodes: pub(crate) count_ilp_node,
        /// Fourier–Motzkin variable eliminations ([`crate::eliminate_var`]).
        fm_eliminations: pub(crate) count_fm_elimination,
        /// Phase-1 primal pivots (feasibility search and artificial
        /// drive-out) on the integer tableau.
        lp_phase1_pivots: pub(crate) count_lp_phase1_pivots,
        /// Phase-2 primal pivots (objective optimization) on the integer
        /// tableau.
        lp_phase2_pivots: pub(crate) count_lp_phase2_pivots,
        /// Dual-simplex pivots spent repairing parent bases at
        /// branch-and-bound child nodes.
        bb_repair_pivots: pub(crate) count_bb_repair_pivots,
        /// Branch-and-bound nodes fully served by a warm-started repair (no
        /// cold LP solve needed).
        bb_warm_nodes: pub(crate) count_bb_warm_node,
        /// Integer-tableau operations completed entirely on the machine-int
        /// (`i64`) row representation.
        tab_i64_solves: pub(crate) count_tab_i64_solve,
        /// Integer-tableau operations that overflowed `i64` mid-way and were
        /// redone from their pristine pre-operation state on `i128` rows.
        tab_overflow_escalations: pub(crate) count_tab_overflow_escalation,
        /// Farkas linearizations actually performed (assembly-cache misses);
        /// ticked by the scheduler crate's constraint builders.
        farkas_linearizations: pub note_farkas_linearization,
        /// Redundant-constraint elimination passes actually performed
        /// (assembly-cache misses); ticked by the scheduler's driver.
        redundancy_checks: pub note_redundancy_check,
        /// Full dependence analyses actually performed (ticked by
        /// `polyject-deps`); a compile session computes this once per kernel
        /// and candidates 2..N must not re-tick it.
        dependence_analyses: pub note_dependence_analysis,
        /// Schedules served from a live compile session's shared prefix or
        /// memo instead of a cold option-invariant rebuild (ticked by the
        /// scheduler crate's session layer).
        session_reuses: pub note_session_reuse,
        /// Nanoseconds spent in integer-feasibility preprocessing (bound
        /// tightening, infeasibility short-circuits).
        preprocess_ns: pub(crate) add_preprocess_ns,
        /// Nanoseconds spent in dependence analysis (ticked by
        /// `polyject-deps`).
        dependence_ns: pub add_dependence_ns,
        /// Nanoseconds spent assembling per-dimension constraint systems
        /// (ticked by the scheduler's driver).
        assemble_ns: pub add_assemble_ns,
        /// Nanoseconds spent inside (lexicographic) ILP solves on the
        /// scheduler's hot path (ticked by the scheduler's driver).
        solve_ns: pub add_solve_ns,
        /// Nanoseconds spent in AST generation, vectorization and GPU mapping
        /// (ticked by `polyject-codegen`).
        codegen_ns: pub add_codegen_ns,
        /// Schedule dimensions where a budget-exhausted solve was degraded
        /// through the backtracking ladder instead of failing the compile.
        degraded_solves: pub note_degraded_solve,
        /// Compilations abandoned because the shared cancellation flag
        /// tripped.
        cancelled_solves: pub note_cancelled_solve,
        /// Worker panics caught and recovered by the serving pool.
        panics_recovered: pub note_panic_recovered,
        /// Lexmin objectives whose root LP a [`crate::SchedCtx`] with a
        /// prepared base had to hand to branch-and-bound unserved — the
        /// warm chain was dead or its final vertex not provably unique —
        /// so the root re-solved cold, phase 1 included.
        lexmin_cold_roots: pub(crate) count_lexmin_cold_root,
    }
    frozen {
        /// Always 0: nothing ticks it; the name is kept for `benchmark/`.
        spec_adopted,
        /// Always 0: nothing ticks it; the name is kept for `benchmark/`.
        spec_discarded,
    }
}

/// A snapshot of the three pivot counters an in-flight tableau operation
/// advances, taken just before the operation starts so an abandoned `i64`
/// attempt can be rewound as if it never ran.
#[derive(Clone, Copy)]
pub(crate) struct PivotMarks {
    p1: u64,
    p2: u64,
    repair: u64,
}

/// The current thread's pivot-counter marks.
pub(crate) fn pivot_marks() -> PivotMarks {
    CELLS.with(|c| PivotMarks {
        p1: c.lp_phase1_pivots.get(),
        p2: c.lp_phase2_pivots.get(),
        repair: c.bb_repair_pivots.get(),
    })
}

/// Rewinds the pivot counters to `marks`. Used exclusively when an `i64`
/// tableau attempt overflows: the identical pivot sequence is about to be
/// replayed on `i128` rows, which re-ticks exactly the rewound pivots, so
/// the final counter values match a pure-`i128` run bit for bit. The
/// marks are always taken after any budget baseline was armed, so the
/// rewind can never drop a counter below a baseline a [`crate::Budget`]
/// measures deltas against.
pub(crate) fn rewind_pivots(marks: PivotMarks) {
    CELLS.with(|c| {
        c.lp_phase1_pivots.set(marks.p1);
        c.lp_phase2_pivots.set(marks.p2);
        c.bb_repair_pivots.set(marks.repair);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tick_lands_in_its_own_field() {
        let before = snapshot();
        count_lp_solve(1);
        count_ilp_solve(2);
        count_ilp_node(3);
        count_fm_elimination(4);
        count_lp_phase1_pivots(5);
        count_lp_phase2_pivots(6);
        count_bb_repair_pivots(7);
        count_bb_warm_node(8);
        count_tab_i64_solve(9);
        count_tab_overflow_escalation(10);
        note_farkas_linearization(11);
        note_redundancy_check(12);
        note_dependence_analysis(13);
        note_session_reuse(14);
        add_preprocess_ns(15);
        add_dependence_ns(16);
        add_assemble_ns(17);
        add_solve_ns(18);
        add_codegen_ns(19);
        note_degraded_solve(20);
        note_cancelled_solve(21);
        note_panic_recovered(22);
        count_lexmin_cold_root(23);
        let d = snapshot().delta_since(&before);
        // A distinct amount per tick, in declaration order.
        assert!(d.fields().map(|(_, v)| v).eq(1..=23));
        assert_eq!(d.fields().next(), Some(("lp_solves", 1)));
        assert_eq!(d.fields().last(), Some(("lexmin_cold_roots", 23)));
        assert_eq!((d.spec_adopted, d.spec_discarded), (0, 0));
    }

    #[test]
    fn accumulate_and_delta_cover_every_field() {
        let mut a = SolverCounters {
            spec_adopted: 21,
            spec_discarded: 22,
            ..SolverCounters::default()
        };
        for (i, (_, v)) in a.fields_mut().enumerate() {
            *v = i as u64 + 1;
        }
        let mut b = a;
        b.accumulate(&a);
        b.accumulate(&a);
        assert!(b
            .fields()
            .zip(a.fields())
            .all(|((_, b), (_, a))| b == 3 * a));
        assert_eq!((b.spec_adopted, b.spec_discarded), (63, 66));
        let mut twice = a;
        twice.accumulate(&a);
        assert_eq!(b.delta_since(&a), twice);
    }
}
