//! Dependence relations between statement instances.

use polyject_ir::StmtId;
use polyject_sets::ConstraintSet;
use std::fmt;

/// The classical dependence kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Read-after-write (true/flow dependence).
    Flow,
    /// Write-after-read (anti dependence).
    Anti,
    /// Write-after-write (output dependence).
    Output,
    /// Read-after-read; irrelevant for validity but useful for locality
    /// (proximity) optimization.
    Input,
}

impl DepKind {
    /// Whether this kind constrains scheduling legality.
    pub(crate) fn affects_validity(&self) -> bool {
        !matches!(self, DepKind::Input)
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Input => "input",
        };
        f.write_str(s)
    }
}

/// A dependence relation `δ_{S→T}`: the set of instance pairs
/// `⟨s, t⟩` such that target instance `t` depends on source instance `s`.
///
/// The underlying [`ConstraintSet`] lives over the variable space
/// `[s_iters..., t_iters..., params...]`; it already conjoins both
/// iteration domains, the access-equality constraints, the original
/// execution-order constraint, and the parameter context.
#[derive(Clone, Debug)]
pub struct DepRelation {
    /// Source statement (producer in the original order).
    pub source: StmtId,
    /// Target statement (consumer in the original order).
    pub target: StmtId,
    /// Dependence kind.
    pub kind: DepKind,
    /// Instance-pair set over `[s_iters..., t_iters..., params...]`.
    pub set: ConstraintSet,
    /// Number of source iterators.
    pub n_source_iters: usize,
    /// Number of target iterators.
    pub n_target_iters: usize,
    /// Number of trailing parameters in the space.
    pub n_params: usize,
    /// For same-statement dependences, the loop level (0-based) at which
    /// the lexicographic order constraint was split; `None` across
    /// statements (program order suffices there).
    pub level: Option<usize>,
    /// The tensor whose accesses induce the dependence (index into the
    /// kernel's tensor list).
    pub tensor: usize,
}

impl DepRelation {
    /// Total variable count of the relation's space.
    pub fn n_vars(&self) -> usize {
        self.n_source_iters + self.n_target_iters + self.n_params
    }

    /// A short human-readable label like `flow X->Y (B)`.
    pub fn label(&self, stmt_name: impl Fn(StmtId) -> String, tensor_name: &str) -> String {
        format!(
            "{} {}->{} ({})",
            self.kind,
            stmt_name(self.source),
            stmt_name(self.target),
            tensor_name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_validity() {
        assert!(DepKind::Flow.affects_validity());
        assert!(DepKind::Anti.affects_validity());
        assert!(DepKind::Output.affects_validity());
        assert!(!DepKind::Input.affects_validity());
    }

    #[test]
    fn display_kind() {
        assert_eq!(DepKind::Output.to_string(), "output");
    }
}
