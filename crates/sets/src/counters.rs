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

/// A snapshot of the per-thread solver work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Exact simplex solves ([`crate::minimize`] calls).
    pub lp_solves: u64,
    /// Integer programs solved ([`crate::minimize_integer`] calls).
    pub ilp_solves: u64,
    /// Branch-and-bound nodes explored across all ILP solves.
    pub ilp_nodes: u64,
    /// Fourier–Motzkin variable eliminations ([`crate::eliminate_var`]).
    pub fm_eliminations: u64,
    /// Phase-1 primal pivots (feasibility search and artificial
    /// drive-out) on the integer tableau.
    pub lp_phase1_pivots: u64,
    /// Phase-2 primal pivots (objective optimization) on the integer
    /// tableau.
    pub lp_phase2_pivots: u64,
    /// Dual-simplex pivots spent repairing parent bases at
    /// branch-and-bound child nodes.
    pub bb_repair_pivots: u64,
    /// Branch-and-bound nodes fully served by a warm-started repair (no
    /// cold LP solve needed).
    pub bb_warm_nodes: u64,
    /// Integer-tableau operations completed entirely on the machine-int
    /// (`i64`) row representation.
    pub tab_i64_solves: u64,
    /// Integer-tableau operations that overflowed `i64` mid-way and were
    /// redone from their pristine pre-operation state on `i128` rows.
    pub tab_overflow_escalations: u64,
    /// Farkas linearizations actually performed (assembly-cache misses);
    /// ticked by the scheduler crate's constraint builders.
    pub farkas_linearizations: u64,
    /// Full dependence analyses actually performed (ticked by
    /// `polyject-deps`); a compile session computes this once per kernel
    /// and candidates 2..N must not re-tick it.
    pub dependence_analyses: u64,
    /// Schedules served from a live compile session's shared prefix or
    /// memo instead of a cold option-invariant rebuild (ticked by the
    /// scheduler crate's session layer).
    pub session_reuses: u64,
    /// Redundant-constraint elimination passes actually performed
    /// (assembly-cache misses); ticked by the scheduler's driver.
    pub redundancy_checks: u64,
    /// Always 0: nothing ticks it; the name is kept for `benchmark/`.
    pub spec_adopted: u64,
    /// Always 0: nothing ticks it; the name is kept for `benchmark/`.
    pub spec_discarded: u64,
    /// Nanoseconds spent in integer-feasibility preprocessing (bound
    /// tightening, infeasibility short-circuits).
    pub preprocess_ns: u64,
    /// Nanoseconds spent in dependence analysis (ticked by
    /// `polyject-deps`).
    pub dependence_ns: u64,
    /// Nanoseconds spent assembling per-dimension constraint systems
    /// (ticked by the scheduler's driver).
    pub assemble_ns: u64,
    /// Nanoseconds spent inside (lexicographic) ILP solves on the
    /// scheduler's hot path (ticked by the scheduler's driver).
    pub solve_ns: u64,
    /// Nanoseconds spent in AST generation, vectorization and GPU mapping
    /// (ticked by `polyject-codegen`).
    pub codegen_ns: u64,
    /// Schedule dimensions where a budget-exhausted solve was degraded
    /// through the backtracking ladder instead of failing the compile.
    pub degraded_solves: u64,
    /// Compilations abandoned because the shared cancellation flag
    /// tripped.
    pub cancelled_solves: u64,
    /// Worker panics caught and recovered by the serving pool.
    pub panics_recovered: u64,
}

impl SolverCounters {
    /// The work performed between `earlier` and `self` (both snapshots of
    /// the same thread).
    pub fn delta_since(&self, earlier: &SolverCounters) -> SolverCounters {
        SolverCounters {
            lp_solves: self.lp_solves - earlier.lp_solves,
            ilp_solves: self.ilp_solves - earlier.ilp_solves,
            ilp_nodes: self.ilp_nodes - earlier.ilp_nodes,
            fm_eliminations: self.fm_eliminations - earlier.fm_eliminations,
            lp_phase1_pivots: self.lp_phase1_pivots - earlier.lp_phase1_pivots,
            lp_phase2_pivots: self.lp_phase2_pivots - earlier.lp_phase2_pivots,
            bb_repair_pivots: self.bb_repair_pivots - earlier.bb_repair_pivots,
            bb_warm_nodes: self.bb_warm_nodes - earlier.bb_warm_nodes,
            tab_i64_solves: self.tab_i64_solves - earlier.tab_i64_solves,
            tab_overflow_escalations: self.tab_overflow_escalations
                - earlier.tab_overflow_escalations,
            farkas_linearizations: self.farkas_linearizations - earlier.farkas_linearizations,
            dependence_analyses: self.dependence_analyses - earlier.dependence_analyses,
            session_reuses: self.session_reuses - earlier.session_reuses,
            redundancy_checks: self.redundancy_checks - earlier.redundancy_checks,
            spec_adopted: self.spec_adopted - earlier.spec_adopted,
            spec_discarded: self.spec_discarded - earlier.spec_discarded,
            preprocess_ns: self.preprocess_ns - earlier.preprocess_ns,
            dependence_ns: self.dependence_ns - earlier.dependence_ns,
            assemble_ns: self.assemble_ns - earlier.assemble_ns,
            solve_ns: self.solve_ns - earlier.solve_ns,
            codegen_ns: self.codegen_ns - earlier.codegen_ns,
            degraded_solves: self.degraded_solves - earlier.degraded_solves,
            cancelled_solves: self.cancelled_solves - earlier.cancelled_solves,
            panics_recovered: self.panics_recovered - earlier.panics_recovered,
        }
    }

    /// Accumulates another delta into this one (for aggregating across
    /// operators or worker threads).
    pub fn accumulate(&mut self, other: &SolverCounters) {
        self.lp_solves += other.lp_solves;
        self.ilp_solves += other.ilp_solves;
        self.ilp_nodes += other.ilp_nodes;
        self.fm_eliminations += other.fm_eliminations;
        self.lp_phase1_pivots += other.lp_phase1_pivots;
        self.lp_phase2_pivots += other.lp_phase2_pivots;
        self.bb_repair_pivots += other.bb_repair_pivots;
        self.bb_warm_nodes += other.bb_warm_nodes;
        self.tab_i64_solves += other.tab_i64_solves;
        self.tab_overflow_escalations += other.tab_overflow_escalations;
        self.farkas_linearizations += other.farkas_linearizations;
        self.dependence_analyses += other.dependence_analyses;
        self.session_reuses += other.session_reuses;
        self.redundancy_checks += other.redundancy_checks;
        self.spec_adopted += other.spec_adopted;
        self.spec_discarded += other.spec_discarded;
        self.preprocess_ns += other.preprocess_ns;
        self.dependence_ns += other.dependence_ns;
        self.assemble_ns += other.assemble_ns;
        self.solve_ns += other.solve_ns;
        self.codegen_ns += other.codegen_ns;
        self.degraded_solves += other.degraded_solves;
        self.cancelled_solves += other.cancelled_solves;
        self.panics_recovered += other.panics_recovered;
    }
}

thread_local! {
    static LP_SOLVES: Cell<u64> = const { Cell::new(0) };
    static ILP_SOLVES: Cell<u64> = const { Cell::new(0) };
    static ILP_NODES: Cell<u64> = const { Cell::new(0) };
    static FM_ELIMS: Cell<u64> = const { Cell::new(0) };
    static LP_P1_PIVOTS: Cell<u64> = const { Cell::new(0) };
    static LP_P2_PIVOTS: Cell<u64> = const { Cell::new(0) };
    static BB_REPAIR_PIVOTS: Cell<u64> = const { Cell::new(0) };
    static BB_WARM_NODES: Cell<u64> = const { Cell::new(0) };
    static TAB_I64_SOLVES: Cell<u64> = const { Cell::new(0) };
    static TAB_OVERFLOW_ESCALATIONS: Cell<u64> = const { Cell::new(0) };
    static FARKAS_LINEARIZATIONS: Cell<u64> = const { Cell::new(0) };
    static DEPENDENCE_ANALYSES: Cell<u64> = const { Cell::new(0) };
    static SESSION_REUSES: Cell<u64> = const { Cell::new(0) };
    static REDUNDANCY_CHECKS: Cell<u64> = const { Cell::new(0) };
    static PREPROCESS_NS: Cell<u64> = const { Cell::new(0) };
    static DEPENDENCE_NS: Cell<u64> = const { Cell::new(0) };
    static ASSEMBLE_NS: Cell<u64> = const { Cell::new(0) };
    static SOLVE_NS: Cell<u64> = const { Cell::new(0) };
    static CODEGEN_NS: Cell<u64> = const { Cell::new(0) };
    static DEGRADED_SOLVES: Cell<u64> = const { Cell::new(0) };
    static CANCELLED_SOLVES: Cell<u64> = const { Cell::new(0) };
    static PANICS_RECOVERED: Cell<u64> = const { Cell::new(0) };
}

/// The current thread's counter values.
pub fn snapshot() -> SolverCounters {
    SolverCounters {
        lp_solves: LP_SOLVES.get(),
        ilp_solves: ILP_SOLVES.get(),
        ilp_nodes: ILP_NODES.get(),
        fm_eliminations: FM_ELIMS.get(),
        lp_phase1_pivots: LP_P1_PIVOTS.get(),
        lp_phase2_pivots: LP_P2_PIVOTS.get(),
        bb_repair_pivots: BB_REPAIR_PIVOTS.get(),
        bb_warm_nodes: BB_WARM_NODES.get(),
        tab_i64_solves: TAB_I64_SOLVES.get(),
        tab_overflow_escalations: TAB_OVERFLOW_ESCALATIONS.get(),
        farkas_linearizations: FARKAS_LINEARIZATIONS.get(),
        dependence_analyses: DEPENDENCE_ANALYSES.get(),
        session_reuses: SESSION_REUSES.get(),
        redundancy_checks: REDUNDANCY_CHECKS.get(),
        spec_adopted: 0,
        spec_discarded: 0,
        preprocess_ns: PREPROCESS_NS.get(),
        dependence_ns: DEPENDENCE_NS.get(),
        assemble_ns: ASSEMBLE_NS.get(),
        solve_ns: SOLVE_NS.get(),
        codegen_ns: CODEGEN_NS.get(),
        degraded_solves: DEGRADED_SOLVES.get(),
        cancelled_solves: CANCELLED_SOLVES.get(),
        panics_recovered: PANICS_RECOVERED.get(),
    }
}

pub(crate) fn count_lp_solve() {
    LP_SOLVES.set(LP_SOLVES.get() + 1);
}

pub(crate) fn count_ilp_solve() {
    ILP_SOLVES.set(ILP_SOLVES.get() + 1);
}

pub(crate) fn count_ilp_node() {
    ILP_NODES.set(ILP_NODES.get() + 1);
}

pub(crate) fn count_fm_elimination() {
    FM_ELIMS.set(FM_ELIMS.get() + 1);
}

pub(crate) fn count_lp_pivots(phase1: u64, phase2: u64) {
    LP_P1_PIVOTS.set(LP_P1_PIVOTS.get() + phase1);
    LP_P2_PIVOTS.set(LP_P2_PIVOTS.get() + phase2);
}

pub(crate) fn count_bb_repair_pivots(pivots: u64) {
    BB_REPAIR_PIVOTS.set(BB_REPAIR_PIVOTS.get() + pivots);
}

pub(crate) fn count_bb_warm_node() {
    BB_WARM_NODES.set(BB_WARM_NODES.get() + 1);
}

pub(crate) fn count_tab_i64_solve() {
    TAB_I64_SOLVES.set(TAB_I64_SOLVES.get() + 1);
}

pub(crate) fn count_tab_overflow_escalation() {
    TAB_OVERFLOW_ESCALATIONS.set(TAB_OVERFLOW_ESCALATIONS.get() + 1);
}

/// Records one Farkas linearization actually performed. Public: the
/// linearizer lives in the scheduler crate (`polyject-core`).
pub fn note_farkas_linearization() {
    FARKAS_LINEARIZATIONS.set(FARKAS_LINEARIZATIONS.get() + 1);
}

/// Records one full dependence analysis actually performed. Public:
/// ticked by `polyject-deps` inside `compute_dependences` — a compile
/// session runs it once per kernel and then shares the result.
pub fn note_dependence_analysis() {
    DEPENDENCE_ANALYSES.set(DEPENDENCE_ANALYSES.get() + 1);
}

/// Records one schedule served from a compile session's shared prefix or
/// memo instead of a cold option-invariant rebuild. Public: the session
/// layer lives in the scheduler crate (`polyject-core`).
pub fn note_session_reuse() {
    SESSION_REUSES.set(SESSION_REUSES.get() + 1);
}

/// Records one redundant-constraint elimination pass actually performed.
/// Public: ticked by the scheduler's driver around `try_remove_redundant`.
pub fn note_redundancy_check() {
    REDUNDANCY_CHECKS.set(REDUNDANCY_CHECKS.get() + 1);
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
    PivotMarks {
        p1: LP_P1_PIVOTS.get(),
        p2: LP_P2_PIVOTS.get(),
        repair: BB_REPAIR_PIVOTS.get(),
    }
}

/// Rewinds the pivot counters to `marks`. Used exclusively when an `i64`
/// tableau attempt overflows: the identical pivot sequence is about to be
/// replayed on `i128` rows, which re-ticks exactly the rewound pivots, so
/// the final counter values match a pure-`i128` run bit for bit. The
/// marks are always taken after any budget baseline was armed, so the
/// rewind can never drop a counter below a baseline a [`crate::Budget`]
/// measures deltas against.
pub(crate) fn rewind_pivots(marks: PivotMarks) {
    LP_P1_PIVOTS.set(marks.p1);
    LP_P2_PIVOTS.set(marks.p2);
    BB_REPAIR_PIVOTS.set(marks.repair);
}

pub(crate) fn add_preprocess_ns(ns: u64) {
    PREPROCESS_NS.set(PREPROCESS_NS.get() + ns);
}

/// Adds dependence-analysis wall time. Public: ticked by the
/// `polyject-deps` crate around `compute_dependences`.
pub fn add_dependence_ns(ns: u64) {
    DEPENDENCE_NS.set(DEPENDENCE_NS.get() + ns);
}

/// Adds constraint-system assembly wall time. Public: ticked by the
/// scheduler's driver in `polyject-core`.
pub fn add_assemble_ns(ns: u64) {
    ASSEMBLE_NS.set(ASSEMBLE_NS.get() + ns);
}

/// Adds scheduler ILP solve wall time. Public: ticked by the scheduler's
/// driver in `polyject-core` around its lexicographic solves.
pub fn add_solve_ns(ns: u64) {
    SOLVE_NS.set(SOLVE_NS.get() + ns);
}

/// Adds AST generation / vectorization / GPU mapping wall time. Public:
/// ticked by `polyject-codegen`'s pipeline.
pub fn add_codegen_ns(ns: u64) {
    CODEGEN_NS.set(CODEGEN_NS.get() + ns);
}

/// Records a budget-exhausted solve degraded through the scheduler's
/// backtracking ladder. Public: the degradation decision lives in the
/// scheduler crate, not here.
pub fn note_degraded_solve() {
    DEGRADED_SOLVES.set(DEGRADED_SOLVES.get() + 1);
}

/// Records a compilation abandoned on cancellation. Public: ticked by the
/// scheduler when it propagates [`crate::BudgetError::Cancelled`].
pub fn note_cancelled_solve() {
    CANCELLED_SOLVES.set(CANCELLED_SOLVES.get() + 1);
}

/// Records a worker panic caught and recovered by a serving pool. Public:
/// ticked on the worker thread by the daemon's pool.
pub fn note_panic_recovered() {
    PANICS_RECOVERED.set(PANICS_RECOVERED.get() + 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_advance_and_delta() {
        let before = snapshot();
        count_lp_solve();
        count_ilp_solve();
        count_ilp_node();
        count_ilp_node();
        count_fm_elimination();
        count_lp_pivots(3, 4);
        count_bb_repair_pivots(5);
        count_bb_warm_node();
        count_tab_i64_solve();
        count_tab_overflow_escalation();
        note_farkas_linearization();
        note_dependence_analysis();
        note_session_reuse();
        note_redundancy_check();
        add_preprocess_ns(17);
        add_dependence_ns(21);
        add_assemble_ns(22);
        add_solve_ns(23);
        add_codegen_ns(24);
        note_degraded_solve();
        note_cancelled_solve();
        note_panic_recovered();
        let after = snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.lp_solves, 1);
        assert_eq!(d.ilp_solves, 1);
        assert_eq!(d.ilp_nodes, 2);
        assert_eq!(d.fm_eliminations, 1);
        assert_eq!(d.lp_phase1_pivots, 3);
        assert_eq!(d.lp_phase2_pivots, 4);
        assert_eq!(d.bb_repair_pivots, 5);
        assert_eq!(d.bb_warm_nodes, 1);
        assert_eq!(d.tab_i64_solves, 1);
        assert_eq!(d.tab_overflow_escalations, 1);
        assert_eq!(d.farkas_linearizations, 1);
        assert_eq!(d.dependence_analyses, 1);
        assert_eq!(d.session_reuses, 1);
        assert_eq!(d.redundancy_checks, 1);
        assert_eq!(d.preprocess_ns, 17);
        assert_eq!(d.dependence_ns, 21);
        assert_eq!(d.assemble_ns, 22);
        assert_eq!(d.solve_ns, 23);
        assert_eq!(d.codegen_ns, 24);
        assert_eq!(d.degraded_solves, 1);
        assert_eq!(d.cancelled_solves, 1);
        assert_eq!(d.panics_recovered, 1);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = SolverCounters {
            lp_solves: 1,
            ilp_solves: 2,
            ilp_nodes: 3,
            fm_eliminations: 4,
            lp_phase1_pivots: 5,
            lp_phase2_pivots: 6,
            bb_repair_pivots: 7,
            bb_warm_nodes: 8,
            tab_i64_solves: 17,
            tab_overflow_escalations: 18,
            farkas_linearizations: 19,
            dependence_analyses: 23,
            session_reuses: 24,
            redundancy_checks: 20,
            spec_adopted: 21,
            spec_discarded: 22,
            preprocess_ns: 9,
            dependence_ns: 13,
            assemble_ns: 14,
            solve_ns: 15,
            codegen_ns: 16,
            degraded_solves: 10,
            cancelled_solves: 11,
            panics_recovered: 12,
        };
        let b = SolverCounters {
            lp_solves: 10,
            ilp_solves: 20,
            ilp_nodes: 30,
            fm_eliminations: 40,
            lp_phase1_pivots: 50,
            lp_phase2_pivots: 60,
            bb_repair_pivots: 70,
            bb_warm_nodes: 80,
            tab_i64_solves: 170,
            tab_overflow_escalations: 180,
            farkas_linearizations: 190,
            dependence_analyses: 230,
            session_reuses: 240,
            redundancy_checks: 200,
            spec_adopted: 210,
            spec_discarded: 220,
            preprocess_ns: 90,
            dependence_ns: 130,
            assemble_ns: 140,
            solve_ns: 150,
            codegen_ns: 160,
            degraded_solves: 100,
            cancelled_solves: 110,
            panics_recovered: 120,
        };
        a.accumulate(&b);
        assert_eq!(
            a,
            SolverCounters {
                lp_solves: 11,
                ilp_solves: 22,
                ilp_nodes: 33,
                fm_eliminations: 44,
                lp_phase1_pivots: 55,
                lp_phase2_pivots: 66,
                bb_repair_pivots: 77,
                bb_warm_nodes: 88,
                tab_i64_solves: 187,
                tab_overflow_escalations: 198,
                farkas_linearizations: 209,
                dependence_analyses: 253,
                session_reuses: 264,
                redundancy_checks: 220,
                spec_adopted: 231,
                spec_discarded: 242,
                preprocess_ns: 99,
                dependence_ns: 143,
                assemble_ns: 154,
                solve_ns: 165,
                codegen_ns: 176,
                degraded_solves: 110,
                cancelled_solves: 121,
                panics_recovered: 132,
            }
        );
    }
}
