//! The influence constraint tree (paper Section IV-A.4, Fig. 3).
//!
//! An ordered tree whose node at depth `d` carries affine constraints on
//! the schedule coefficients of the row being constructed at dimension
//! `d` (the inter-dimension linkage of the paper's `C_{d,p}` matrices is
//! carried by the tree structure itself: once dimensions `0..d` are fixed,
//! constraints mentioning them are constants). Sibling order encodes
//! priority; the scheduler visits alternatives in depth-first order and
//! backtracks across siblings and ancestors when a branch is infeasible.

use polyject_ir::StmtId;
use polyject_sets::ConstraintSet;
use std::fmt::Write as _;

/// Index of a node inside an [`InfluenceTree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct NodeId(pub usize);

/// One node of the influence constraint tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct InfluenceNode {
    /// Constraints over the [`CoeffLayout`](crate::CoeffLayout) unknown
    /// space, injected into the ILP of the dimension this node's depth
    /// corresponds to.
    pub constraints: ConstraintSet,
    /// Statements whose schedule row built at this depth is their
    /// load/store vectorization dimension (`forvec` candidates).
    pub vector_stmts: Vec<StmtId>,
    /// Human-readable description of what this node asks for.
    pub label: String,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) depth: usize,
}

/// An influence constraint tree: prioritized multi-dimension optimization
/// scenarios produced by a non-linear optimizer and injected into the
/// affine scheduler.
///
/// # Examples
///
/// ```
/// use polyject_core::{build_influence_tree, InfluenceOptions, InfluenceTree};
/// use polyject_ir::ops;
///
/// assert!(InfluenceTree::new().is_empty()); // no influence: the isl baseline
/// let kernel = ops::running_example(8);
/// let tree = build_influence_tree(&kernel, &InfluenceOptions::default());
/// assert!(!tree.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InfluenceTree {
    nodes: Vec<InfluenceNode>,
    roots: Vec<NodeId>,
}

impl InfluenceTree {
    /// An empty tree (no influence at all).
    pub fn new() -> InfluenceTree {
        InfluenceTree::default()
    }

    /// Whether the tree has no branches.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Adds a depth-0 alternative (priority = insertion order).
    pub(crate) fn add_root(
        &mut self,
        constraints: ConstraintSet,
        label: impl Into<String>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(InfluenceNode {
            constraints,
            vector_stmts: Vec::new(),
            label: label.into(),
            parent: None,
            children: Vec::new(),
            depth: 0,
        });
        self.roots.push(id);
        id
    }

    /// Adds a child alternative under `parent` (priority = insertion
    /// order among its siblings).
    pub(crate) fn add_child(
        &mut self,
        parent: NodeId,
        constraints: ConstraintSet,
        label: impl Into<String>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let depth = self.nodes[parent.0].depth + 1;
        self.nodes.push(InfluenceNode {
            constraints,
            vector_stmts: Vec::new(),
            label: label.into(),
            parent: Some(parent),
            children: Vec::new(),
            depth,
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Marks a statement's row at this node's depth as its vector dim.
    pub(crate) fn mark_vector(&mut self, node: NodeId, stmt: StmtId) {
        if !self.nodes[node.0].vector_stmts.contains(&stmt) {
            self.nodes[node.0].vector_stmts.push(stmt);
        }
    }

    /// A node by id.
    pub(crate) fn node(&self, id: NodeId) -> &InfluenceNode {
        &self.nodes[id.0]
    }

    /// The highest-priority depth-0 node, if any.
    pub(crate) fn first_root(&self) -> Option<NodeId> {
        self.roots.first().copied()
    }

    /// The node's depth in the tree.
    pub(crate) fn depth(&self, id: NodeId) -> usize {
        self.nodes[id.0].depth
    }

    /// First (highest-priority) child of a node.
    pub(crate) fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].children.first().copied()
    }

    /// The next sibling to the right of `id` (lower priority alternative
    /// at the same depth under the same parent, or among the roots).
    pub(crate) fn right_sibling(&self, id: NodeId) -> Option<NodeId> {
        let siblings = match self.nodes[id.0].parent {
            Some(p) => &self.nodes[p.0].children,
            None => &self.roots,
        };
        let pos = siblings.iter().position(|&c| c == id)?;
        siblings.get(pos + 1).copied()
    }

    /// The closest right sibling of any ancestor of `id` (walking upward),
    /// for the paper's deep-backtracking step.
    pub(crate) fn ancestor_right_sibling(&self, id: NodeId) -> Option<NodeId> {
        let mut cur = self.nodes[id.0].parent;
        while let Some(a) = cur {
            if let Some(s) = self.right_sibling(a) {
                return Some(s);
            }
            cur = self.nodes[a.0].parent;
        }
        None
    }

    /// Renders the tree structure (the Fig. 3 regenerator uses this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, &r) in self.roots.iter().enumerate() {
            self.render_node(r, 0, i + 1, &mut out);
        }
        out
    }

    fn render_node(&self, id: NodeId, indent: usize, priority: usize, out: &mut String) {
        let n = &self.nodes[id.0];
        let pad = "  ".repeat(indent);
        writeln!(
            out,
            "{pad}[depth {} priority {}] {} ({} constraints{})",
            n.depth,
            priority,
            n.label,
            n.constraints.len(),
            if n.vector_stmts.is_empty() {
                String::new()
            } else {
                format!(
                    ", vector: {}",
                    n.vector_stmts
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            }
        )
        .expect("string write");
        for (i, &c) in n.children.iter().enumerate() {
            self.render_node(c, indent + 1, i + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> ConstraintSet {
        ConstraintSet::universe(3)
    }

    #[test]
    fn navigation() {
        let mut t = InfluenceTree::new();
        let r1 = t.add_root(universe(), "r1");
        let r2 = t.add_root(universe(), "r2");
        let c1 = t.add_child(r1, universe(), "c1");
        let c2 = t.add_child(r1, universe(), "c2");
        let g1 = t.add_child(c1, universe(), "g1");

        assert_eq!(t.first_root(), Some(r1));
        assert_eq!(t.right_sibling(r1), Some(r2));
        assert_eq!(t.right_sibling(r2), None);
        assert_eq!(t.first_child(r1), Some(c1));
        assert_eq!(t.right_sibling(c1), Some(c2));
        assert_eq!(t.depth(g1), 2);
        assert_eq!(t.first_child(g1), None);
        // g1's ancestors: c1 (sibling c2).
        assert_eq!(t.ancestor_right_sibling(g1), Some(c2));
        // c2 has no sibling to the right; its ancestor r1 has r2.
        assert_eq!(t.ancestor_right_sibling(c2), Some(r2));
    }

    #[test]
    fn vector_marks_dedupe() {
        let mut t = InfluenceTree::new();
        let r = t.add_root(universe(), "r");
        t.mark_vector(r, StmtId(1));
        t.mark_vector(r, StmtId(1));
        assert_eq!(t.node(r).vector_stmts, vec![StmtId(1)]);
    }

    #[test]
    fn render_shows_structure() {
        let mut t = InfluenceTree::new();
        let r = t.add_root(universe(), "fused + vectorize j");
        t.add_child(r, universe(), "vectorize j only");
        let s = t.render();
        assert!(s.contains("depth 0 priority 1"));
        assert!(s.contains("depth 1 priority 1"));
        assert!(s.contains("fused + vectorize j"));
    }

    #[test]
    fn empty_tree() {
        let t = InfluenceTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.first_root(), None);
    }
}
