//! The statement-level dependence graph and its strongly connected
//! components (Tarjan), used by the scheduler's SCC-separation fallback
//! (Algorithm 1, lines 32–34).

use crate::relation::DepRelation;
use polyject_ir::StmtId;

/// A directed graph over statements with dependence edges.
#[derive(Clone, Debug)]
pub struct DepGraph {
    n: usize,
    edges: Vec<Vec<usize>>, // adjacency: edges[s] = targets
}

impl DepGraph {
    /// Builds the graph over `n_statements` nodes from a list of validity
    /// relations (self-edges are kept but do not affect SCC structure
    /// beyond making the node cyclic).
    pub fn from_relations<'a>(
        n_statements: usize,
        relations: impl IntoIterator<Item = &'a DepRelation>,
    ) -> DepGraph {
        let mut edges = vec![Vec::new(); n_statements];
        for r in relations {
            if !edges[r.source.0].contains(&r.target.0) {
                edges[r.source.0].push(r.target.0);
            }
        }
        DepGraph {
            n: n_statements,
            edges,
        }
    }

    /// Strongly connected components in *topological order* (every edge
    /// goes from an earlier component to a later one, except intra-SCC
    /// edges). Each component lists its statements.
    pub fn sccs(&self) -> Vec<Vec<StmtId>> {
        let mut state = Tarjan {
            graph: self,
            index: vec![usize::MAX; self.n],
            lowlink: vec![0; self.n],
            on_stack: vec![false; self.n],
            stack: Vec::new(),
            next_index: 0,
            components: Vec::new(),
        };
        for v in 0..self.n {
            if state.index[v] == usize::MAX {
                state.strongconnect(v);
            }
        }
        // Tarjan emits components in reverse topological order.
        let mut comps = state.components;
        comps.reverse();
        for c in &mut comps {
            c.sort();
        }
        comps
    }
}

struct Tarjan<'g> {
    graph: &'g DepGraph,
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    components: Vec<Vec<StmtId>>,
}

impl Tarjan<'_> {
    fn strongconnect(&mut self, v: usize) {
        self.index[v] = self.next_index;
        self.lowlink[v] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
        for i in 0..self.graph.edges[v].len() {
            let w = self.graph.edges[v][i];
            if self.index[w] == usize::MAX {
                self.strongconnect(w);
                self.lowlink[v] = self.lowlink[v].min(self.lowlink[w]);
            } else if self.on_stack[w] {
                self.lowlink[v] = self.lowlink[v].min(self.index[w]);
            }
        }
        if self.lowlink[v] == self.index[v] {
            let mut comp = Vec::new();
            loop {
                let w = self.stack.pop().expect("nonempty Tarjan stack");
                self.on_stack[w] = false;
                comp.push(StmtId(w));
                if w == v {
                    break;
                }
            }
            self.components.push(comp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> DepGraph {
        let mut adj = vec![Vec::new(); n];
        for &(s, t) in edges {
            adj[s].push(t);
        }
        DepGraph { n, edges: adj }
    }

    #[test]
    fn chain_gives_singleton_components_in_order() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let sccs = g.sccs();
        assert_eq!(
            sccs,
            vec![
                vec![StmtId(0)],
                vec![StmtId(1)],
                vec![StmtId(2)],
                vec![StmtId(3)]
            ]
        );
    }

    #[test]
    fn cycle_merges() {
        let g = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs[0], vec![StmtId(0), StmtId(1)]);
        assert_eq!(sccs[1], vec![StmtId(2)]);
    }

    #[test]
    fn isolated_nodes() {
        let g = graph(3, &[]);
        assert_eq!(g.sccs().len(), 3);
    }

    #[test]
    fn self_loop_is_singleton() {
        let g = graph(1, &[(0, 0)]);
        assert_eq!(g.sccs(), vec![vec![StmtId(0)]]);
    }

    #[test]
    fn topological_property() {
        // Diamond: 0→1, 0→2, 1→3, 2→3.
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let sccs = g.sccs();
        let pos = |s: StmtId| sccs.iter().position(|c| c.contains(&s)).unwrap();
        assert!(pos(StmtId(0)) < pos(StmtId(1)));
        assert!(pos(StmtId(0)) < pos(StmtId(2)));
        assert!(pos(StmtId(1)) < pos(StmtId(3)));
        assert!(pos(StmtId(2)) < pos(StmtId(3)));
    }
}
