//! Cooperative resource budgets for the exact solvers.
//!
//! A [`Budget`] bounds how much work a solver call may perform — a
//! wall-clock deadline, caps on branch-and-bound nodes and simplex
//! pivots, and a shared cancellation flag that a supervising thread (e.g.
//! the `polyjectd` request-timeout path) can trip at any time. Every
//! simplex and branch-and-bound loop calls [`Budget::check`]
//! cooperatively and unwinds with a structured [`BudgetError`] instead of
//! running away, so a pathological problem degrades or cancels instead of
//! hanging a worker forever.
//!
//! Only the three calls the scheduler meters take a budget:
//! [`crate::SchedCtx::build`], [`crate::SchedCtx::try_lexmin`] and
//! [`crate::try_remove_redundant`] — one door per question, as isl bounds
//! work with one per-context limit rather than a second entry point per
//! operation. Every other solver question ([`crate::minimize`],
//! [`crate::lexmin_integer`], [`crate::eliminate_var`], …) has one plain
//! function that runs unmetered; Fourier–Motzkin elimination and the
//! integer-feasibility preprocessing take no budget at all.
//!
//! Node and pivot consumption is measured against the thread-local
//! [`crate::counters`], with a baseline captured lazily on the first check
//! — the same per-thread monotonic counters the stats path already
//! maintains, so no extra mutable state is threaded through the solvers.
//! A budget therefore meters the *thread* it is first checked on; solves
//! run start-to-finish on one thread, which the compilation pipeline
//! guarantees. Deadline checks are amortized (one `Instant::now()` every
//! `DEADLINE_STRIDE` checks) so the per-pivot cost stays a few loads and
//! compares.

use crate::counters;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many [`Budget::check`] calls share one `Instant::now()` deadline
/// probe.
const DEADLINE_STRIDE: u32 = 64;

/// The resource a budget ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetResource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The branch-and-bound node cap (budgeted or the solver's own hard
    /// limit) was reached.
    IlpNodes,
    /// The simplex pivot cap (phase 1 + phase 2 + dual repairs) was
    /// reached.
    Pivots,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetResource::Deadline => "deadline",
            BudgetResource::IlpNodes => "ilp-nodes",
            BudgetResource::Pivots => "pivots",
        })
    }
}

/// Structured failure of a budgeted solver call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetError {
    /// A resource limit was exhausted; the caller may retry with a relaxed
    /// problem (the scheduler's degradation ladder does exactly that).
    Exhausted(BudgetResource),
    /// The shared cancellation flag was tripped; the caller should abandon
    /// the work entirely.
    Cancelled,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Exhausted(r) => write!(f, "solver budget exhausted ({r})"),
            BudgetError::Cancelled => f.write_str("solve cancelled"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A cooperative resource budget; see the module docs.
///
/// Cheap to construct and to check when unlimited. Cloning re-arms the
/// consumption baseline, so a clone meters its own solves (against the
/// same absolute deadline and cancel flag).
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    max_ilp_nodes: Option<u64>,
    max_pivots: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    /// `(ilp_nodes, pivots)` of this thread when first checked.
    base: Cell<Option<(u64, u64)>>,
    /// Check counter for amortizing deadline probes.
    tick: Cell<u32>,
}

impl Clone for Budget {
    fn clone(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            max_ilp_nodes: self.max_ilp_nodes,
            max_pivots: self.max_pivots,
            cancel: self.cancel.clone(),
            base: Cell::new(None),
            tick: Cell::new(0),
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits at all; [`Budget::check`] never fails.
    pub fn unlimited() -> Budget {
        Budget {
            deadline: None,
            max_ilp_nodes: None,
            max_pivots: None,
            cancel: None,
            base: Cell::new(None),
            tick: Cell::new(0),
        }
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Caps branch-and-bound nodes consumed after the budget is armed.
    pub fn with_max_ilp_nodes(mut self, max: u64) -> Budget {
        self.max_ilp_nodes = Some(max);
        self
    }

    /// Caps simplex pivots (phase 1 + phase 2 + dual repairs) consumed
    /// after the budget is armed.
    pub fn with_max_pivots(mut self, max: u64) -> Budget {
        self.max_pivots = Some(max);
        self
    }

    /// Attaches a shared cancellation flag; storing `true` into it makes
    /// the next [`Budget::check`] return [`BudgetError::Cancelled`].
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Budget {
        self.cancel = Some(flag);
        self
    }

    /// A copy keeping only the cancellation flag: resource limits are
    /// dropped, but a supervisor can still reclaim the thread. Used by the
    /// scheduler's final degradation fallback, which must be allowed to
    /// finish a valid (uninfluenced) schedule after the limits tripped.
    pub fn cancel_only(&self) -> Budget {
        let mut b = Budget::unlimited();
        b.cancel = self.cancel.clone();
        b
    }

    /// Whether the attached cancellation flag (if any) has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Whether any *resource* limit — deadline or node/pivot cap — is
    /// attached, i.e. anything beyond a cancellation flag.
    /// Resource-metered budgets account work against thread-local
    /// counters, so callers that could serve work paid for elsewhere
    /// (a compile session's shared prefix and memos) must check this and
    /// compute everything under the budget when it holds.
    pub fn has_resource_limits(&self) -> bool {
        self.deadline.is_some() || self.max_ilp_nodes.is_some() || self.max_pivots.is_some()
    }

    /// The cooperative check every solver loop performs. Cancellation is
    /// observed on every call; node/pivot caps compare the thread-local
    /// counters against the baseline captured on the first check; deadline
    /// probes are amortized across `DEADLINE_STRIDE` calls.
    pub fn check(&self) -> Result<(), BudgetError> {
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return Err(BudgetError::Cancelled);
            }
        }
        if !self.has_resource_limits() {
            return Ok(());
        }
        let snap = counters::snapshot();
        let pivots_now = snap.lp_phase1_pivots + snap.lp_phase2_pivots + snap.bb_repair_pivots;
        let (node_base, pivot_base) = match self.base.get() {
            Some(b) => b,
            None => {
                let b = (snap.ilp_nodes, pivots_now);
                self.base.set(Some(b));
                b
            }
        };
        if let Some(max) = self.max_ilp_nodes {
            if snap.ilp_nodes - node_base > max {
                return Err(BudgetError::Exhausted(BudgetResource::IlpNodes));
            }
        }
        if let Some(max) = self.max_pivots {
            if pivots_now - pivot_base > max {
                return Err(BudgetError::Exhausted(BudgetResource::Pivots));
            }
        }
        if let Some(deadline) = self.deadline {
            let t = self.tick.get();
            self.tick.set(t.wrapping_add(1));
            if t.is_multiple_of(DEADLINE_STRIDE) && Instant::now() >= deadline {
                return Err(BudgetError::Exhausted(BudgetResource::Deadline));
            }
        }
        Ok(())
    }
}

/// Unwraps a result produced under [`Budget::unlimited`], which cannot
/// fail for budget reasons. Used by the plain, unmetered entry points.
pub(crate) fn infallible<T>(r: Result<T, BudgetError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => unreachable!("unlimited budget reported {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..1_000 {
            assert_eq!(b.check(), Ok(()));
        }
        assert!(!b.is_cancelled());
    }

    #[test]
    fn cancel_flag_trips_immediately() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel(flag.clone());
        assert_eq!(b.check(), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.check(), Err(BudgetError::Cancelled));
        assert!(b.is_cancelled());
    }

    #[test]
    fn expired_deadline_trips_on_first_check() {
        let b = Budget::unlimited().with_deadline(Instant::now());
        // The first check always probes the clock (tick 0).
        assert_eq!(
            b.check(),
            Err(BudgetError::Exhausted(BudgetResource::Deadline))
        );
    }

    #[test]
    fn node_cap_measures_against_baseline() {
        let b = Budget::unlimited().with_max_ilp_nodes(2);
        assert_eq!(b.check(), Ok(())); // arms the baseline
        counters::count_ilp_node(1);
        counters::count_ilp_node(1);
        assert_eq!(b.check(), Ok(()));
        counters::count_ilp_node(1);
        assert_eq!(
            b.check(),
            Err(BudgetError::Exhausted(BudgetResource::IlpNodes))
        );
        // A clone re-arms and is satisfied again.
        assert_eq!(b.clone().check(), Ok(()));
    }

    #[test]
    fn pivot_cap_counts_all_pivot_kinds() {
        let b = Budget::unlimited().with_max_pivots(4);
        assert_eq!(b.check(), Ok(()));
        counters::count_lp_phase1_pivots(2);
        counters::count_lp_phase2_pivots(1);
        counters::count_bb_repair_pivots(1);
        assert_eq!(b.check(), Ok(()));
        counters::count_lp_phase2_pivots(1);
        assert_eq!(
            b.check(),
            Err(BudgetError::Exhausted(BudgetResource::Pivots))
        );
    }

    #[test]
    fn cancel_only_drops_limits_but_keeps_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited()
            .with_max_ilp_nodes(0)
            .with_deadline(Instant::now())
            .with_cancel(flag.clone());
        let relaxed = b.cancel_only();
        assert_eq!(relaxed.check(), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(relaxed.check(), Err(BudgetError::Cancelled));
    }
}
