//! isl-style schedule trees.
//!
//! The flat transformation matrices the scheduler produces are the
//! paper's formal object; production polyhedral compilers (isl, AKG)
//! exchange them as *schedule trees* — bands of permutable/coincident
//! dimensions, sequence nodes ordering statement groups, and leaf filters.
//! This module derives the tree from a [`Schedule`] and renders it in an
//! isl-like notation, giving the scheduler the same external shape as the
//! system in Fig. 1(c).

use crate::schedule::Schedule;
use polyject_ir::{Kernel, StmtId};
use std::fmt::Write as _;

/// A node of a schedule tree.
#[derive(Clone, Debug, PartialEq)]
pub enum TreeNode {
    /// A band of consecutive schedule dimensions applying to all
    /// statements below.
    Band {
        /// Dimension indices of the band members (consecutive).
        dims: Vec<usize>,
        /// Per-member coincidence (parallelism).
        coincident: Vec<bool>,
        /// Whether the band is permutable (tilable).
        permutable: bool,
        /// Per-member vector mark.
        vector: Vec<bool>,
        /// The child.
        child: Box<TreeNode>,
    },
    /// A sequence of filters ordered by a scalar dimension.
    Sequence {
        /// The scalar dimension whose constants order the children.
        dim: usize,
        /// Children with the statements they filter, ordered by date.
        children: Vec<(Vec<StmtId>, TreeNode)>,
    },
    /// A leaf: the statements that reach this point.
    Leaf(Vec<StmtId>),
}

impl TreeNode {
    /// All statements below this node.
    pub fn statements(&self) -> Vec<StmtId> {
        match self {
            TreeNode::Leaf(s) => s.clone(),
            TreeNode::Band { child, .. } => child.statements(),
            TreeNode::Sequence { children, .. } => children
                .iter()
                .flat_map(|(s, _)| s.iter().copied())
                .collect(),
        }
    }
}

/// Derives the schedule tree of a kernel's schedule.
///
/// Scalar dimensions become [`TreeNode::Sequence`] nodes partitioning the
/// statements by constant; maximal runs of loop dimensions become
/// [`TreeNode::Band`]s carrying the coincident/permutable/vector flags.
///
/// # Examples
///
/// ```
/// use polyject_core::{schedule_tree, InfluenceTree, SchedulerOptions, schedule_kernel};
/// use polyject_deps::{compute_dependences, DepOptions};
/// use polyject_ir::ops;
///
/// let kernel = ops::running_example(64);
/// let deps = compute_dependences(&kernel, DepOptions::default());
/// let res = schedule_kernel(&kernel, &deps, &InfluenceTree::new(),
///                           SchedulerOptions::default()).unwrap();
/// let tree = schedule_tree(&kernel, &res.schedule);
/// println!("{}", polyject_core::render_schedule_tree(&tree, &kernel));
/// ```
pub fn schedule_tree(kernel: &Kernel, schedule: &Schedule) -> TreeNode {
    let all: Vec<StmtId> = (0..kernel.statements().len()).map(StmtId).collect();
    build(schedule, all, 0)
}

fn build(schedule: &Schedule, stmts: Vec<StmtId>, dim: usize) -> TreeNode {
    let depth = schedule.depth();
    if dim >= depth || stmts.is_empty() {
        return TreeNode::Leaf(stmts);
    }
    // A dimension is scalar *for this group* when every member's row is a
    // pure constant.
    let all_const = stmts.iter().all(|&s| {
        schedule
            .stmt(s)
            .rows()
            .get(dim)
            .map(|r| r.is_constant_row())
            .unwrap_or(true)
    });
    if all_const {
        let mut values: Vec<i128> = stmts
            .iter()
            .map(|&s| schedule.stmt(s).rows()[dim].constant)
            .collect();
        values.sort_unstable();
        values.dedup();
        if values.len() <= 1 {
            // A trivial scalar dimension: skip it.
            return build(schedule, stmts, dim + 1);
        }
        let children = values
            .into_iter()
            .map(|v| {
                let group: Vec<StmtId> = stmts
                    .iter()
                    .copied()
                    .filter(|&s| schedule.stmt(s).rows()[dim].constant == v)
                    .collect();
                let node = build(schedule, group.clone(), dim + 1);
                (group, node)
            })
            .collect();
        return TreeNode::Sequence { dim, children };
    }
    // Collect the maximal run of loop dimensions for this group.
    let mut dims = Vec::new();
    let mut d = dim;
    while d < depth {
        let loopish = stmts.iter().any(|&s| {
            schedule
                .stmt(s)
                .rows()
                .get(d)
                .map(|r| !r.is_constant_row())
                .unwrap_or(false)
        });
        if !loopish {
            break;
        }
        dims.push(d);
        // Band runs break where the permutable flag does.
        let next_permutable = schedule
            .flags()
            .get(d + 1)
            .map(|f| f.permutable)
            .unwrap_or(false);
        d += 1;
        if !next_permutable {
            break;
        }
    }
    let coincident = dims
        .iter()
        .map(|&d| schedule.flags().get(d).map(|f| f.parallel).unwrap_or(false))
        .collect();
    let vector = dims
        .iter()
        .map(|&d| schedule.flags().get(d).map(|f| f.vector).unwrap_or(false))
        .collect();
    let permutable = dims.len() > 1;
    let child = Box::new(build(schedule, stmts, d));
    TreeNode::Band {
        dims,
        coincident,
        permutable,
        vector,
        child,
    }
}

/// Renders a schedule tree in isl-like notation.
pub fn render_schedule_tree(tree: &TreeNode, kernel: &Kernel) -> String {
    let mut out = String::new();
    render_node(tree, kernel, 0, &mut out);
    out
}

fn render_node(node: &TreeNode, kernel: &Kernel, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match node {
        TreeNode::Leaf(stmts) => {
            let names: Vec<&str> = stmts.iter().map(|&s| kernel.statement(s).name()).collect();
            writeln!(out, "{pad}leaf: {{ {} }}", names.join(", ")).expect("write");
        }
        TreeNode::Band {
            dims,
            coincident,
            permutable,
            vector,
            child,
        } => {
            let marks: Vec<String> = dims
                .iter()
                .zip(coincident)
                .zip(vector)
                .map(|((d, &c), &v)| {
                    let mut m = format!("t{d}");
                    if c {
                        m.push_str("[coincident]");
                    }
                    if v {
                        m.push_str("[vector]");
                    }
                    m
                })
                .collect();
            writeln!(
                out,
                "{pad}band: [{}]{}",
                marks.join(", "),
                if *permutable { " permutable" } else { "" }
            )
            .expect("write");
            render_node(child, kernel, indent + 1, out);
        }
        TreeNode::Sequence { dim, children } => {
            writeln!(out, "{pad}sequence (t{dim}):").expect("write");
            for (stmts, child) in children {
                let names: Vec<&str> = stmts.iter().map(|&s| kernel.statement(s).name()).collect();
                writeln!(out, "{pad}- filter: {{ {} }}", names.join(", ")).expect("write");
                render_node(child, kernel, indent + 2, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{schedule_kernel, SchedulerOptions};
    use crate::tree::InfluenceTree;
    use polyject_deps::{compute_dependences, DepOptions};
    use polyject_ir::ops;

    fn tree_for(kernel: &Kernel) -> (TreeNode, Schedule) {
        let deps = compute_dependences(kernel, DepOptions::default());
        let res = schedule_kernel(
            kernel,
            &deps,
            &InfluenceTree::new(),
            SchedulerOptions::default(),
        )
        .unwrap();
        (schedule_tree(kernel, &res.schedule), res.schedule)
    }

    #[test]
    fn running_example_tree_shape() {
        let kernel = ops::running_example(64);
        let (tree, _) = tree_for(&kernel);
        // One fused band (i, k, j) — X's member at the j dimension is the
        // constant-zero partial schedule — then the ordering sequence
        // putting X before Y.
        let TreeNode::Band { dims, child, .. } = &tree else {
            panic!("outer band expected, got {tree:?}");
        };
        assert_eq!(dims.len(), 3, "the fused (i, k, j) band");
        let TreeNode::Sequence { children, .. } = child.as_ref() else {
            panic!("sequence under the band, got {child:?}");
        };
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].0, vec![StmtId(0)], "X first");
        assert_eq!(children[1].0, vec![StmtId(1)], "Y second");
        assert!(matches!(children[0].1, TreeNode::Leaf(_)));
        assert!(matches!(children[1].1, TreeNode::Leaf(_)));
    }

    #[test]
    fn transpose_tree_is_one_band() {
        let kernel = ops::transpose_2d(32, 32);
        let (tree, _) = tree_for(&kernel);
        let TreeNode::Band {
            dims,
            coincident,
            child,
            ..
        } = &tree
        else {
            panic!("band expected");
        };
        assert_eq!(dims.len(), 2);
        assert!(
            coincident.iter().all(|&c| c),
            "transpose dims all coincident"
        );
        assert!(matches!(child.as_ref(), TreeNode::Leaf(_)));
    }

    /// Depth of the deepest band nesting.
    fn band_depth(node: &TreeNode) -> usize {
        match node {
            TreeNode::Leaf(_) => 0,
            TreeNode::Band { dims, child, .. } => dims.len() + band_depth(child),
            TreeNode::Sequence { children, .. } => children
                .iter()
                .map(|(_, c)| band_depth(c))
                .max()
                .unwrap_or(0),
        }
    }

    #[test]
    fn statements_and_depth() {
        let kernel = ops::layernorm_like(16, 32);
        let (tree, sched) = tree_for(&kernel);
        assert_eq!(tree.statements().len(), 4);
        assert!(band_depth(&tree) <= sched.depth());
        assert!(band_depth(&tree) >= 2);
    }

    #[test]
    fn renders_readably() {
        let kernel = ops::running_example(64);
        let (tree, _) = tree_for(&kernel);
        let text = render_schedule_tree(&tree, &kernel);
        assert!(text.contains("band:"), "{text}");
        assert!(text.contains("coincident"), "{text}");
        assert!(text.contains("sequence"), "{text}");
        assert!(text.contains("filter: { X }"), "{text}");
    }

    #[test]
    fn influenced_tree_carries_vector_marks() {
        let kernel = ops::running_example(64);
        let deps = compute_dependences(&kernel, DepOptions::default());
        let itree = crate::optimizer::build_influence_tree(
            &kernel,
            &crate::optimizer::InfluenceOptions::default(),
        );
        let res = schedule_kernel(&kernel, &deps, &itree, SchedulerOptions::default()).unwrap();
        let tree = schedule_tree(&kernel, &res.schedule);
        let text = render_schedule_tree(&tree, &kernel);
        assert!(text.contains("[vector]"), "{text}");
    }
}
