//! Directed graphs with sorted adjacency lists: the builder that
//! generators and tests edit, before [`DualGraph::new`][crate::DualGraph::new]
//! freezes it into CSR rows.

use crate::node::NodeId;

/// A simple directed graph on nodes `0..n` (no self-loops, no multi-edges).
///
/// Out-lists are kept sorted, so membership tests are `O(log deg)` and
/// neighborhood iteration is in increasing node order (which keeps every
/// downstream computation deterministic). Only out-lists are kept: a
/// `Digraph` is the builder, and in-neighborhoods are read from a frozen
/// [`Csr`][crate::Csr]'s transpose.
///
/// The dual graph model builds on two of these: the reliable graph `G` and
/// the complete link graph `G′`, which [`crate::DualGraph::new`] validates,
/// freezes and drops.
///
/// # Examples
///
/// ```
/// use dualgraph_net::{Digraph, NodeId};
///
/// let mut g = Digraph::new(3);
/// g.add_edge(NodeId(0), NodeId(1));
/// g.add_undirected_edge(NodeId(1), NodeId(2));
/// assert!(g.has_edge(NodeId(0), NodeId(1)));
/// assert!(!g.has_edge(NodeId(1), NodeId(0)));
/// assert_eq!(g.edge_count(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Digraph {
    out: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Digraph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Digraph {
            out: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph from directed edge pairs.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The complete directed graph (every ordered pair, no self-loops).
    pub fn complete(n: usize) -> Self {
        let mut g = Self::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    g.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.out.len()).map(NodeId::from_index)
    }

    #[inline]
    fn check_node(&self, v: NodeId) {
        assert!(
            v.index() < self.out.len(),
            "node {v} out of range for graph with {} nodes",
            self.out.len()
        );
    }

    /// Adds the directed edge `(u, v)`. Returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.check_node(u);
        self.check_node(v);
        assert_ne!(u, v, "self-loops are not allowed (node {u})");
        match self.out[u.index()].binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.out[u.index()].insert(pos, v);
                self.edge_count += 1;
                true
            }
        }
    }

    /// Adds both `(u, v)` and `(v, u)`.
    ///
    /// # Panics
    ///
    /// Panics as [`Digraph::add_edge`] does.
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Tests whether the directed edge `(u, v)` exists.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.check_node(u);
        self.check_node(v);
        self.out[u.index()].binary_search(&v).is_ok()
    }

    /// Out-neighbors of `u`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.check_node(u);
        &self.out[u.index()]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_neighbors(u).len()
    }

    /// Iterates all directed edges in `(source, target)` lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out.iter().enumerate().flat_map(|(u, vs)| {
            let u = NodeId::from_index(u);
            vs.iter().map(move |&v| (u, v))
        })
    }

    /// `true` when for every edge `(u, v)` the reverse `(v, u)` exists — the
    /// paper's definition of an *undirected* network.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// `true` when every edge of `self` is an edge of `other`
    /// (used to validate `E ⊆ E′`).
    ///
    /// # Panics
    ///
    /// Panics if node counts differ.
    pub fn is_subgraph_of(&self, other: &Digraph) -> bool {
        assert_eq!(
            self.node_count(),
            other.node_count(),
            "subgraph check requires equal node counts"
        );
        self.edges().all(|(u, v)| other.has_edge(u, v))
    }

    /// Returns the union of the two graphs' edge sets.
    ///
    /// # Panics
    ///
    /// Panics if node counts differ.
    pub fn union(&self, other: &Digraph) -> Digraph {
        assert_eq!(
            self.node_count(),
            other.node_count(),
            "union requires equal node counts"
        );
        let mut g = self.clone();
        for (u, v) in other.edges() {
            g.add_edge(u, v);
        }
        g
    }

    /// Returns the graph with every edge's reverse added.
    pub fn symmetric_closure(&self) -> Digraph {
        let mut g = self.clone();
        for (u, v) in self.edges() {
            g.add_edge(v, u);
        }
        g
    }
}

impl std::fmt::Debug for Digraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Digraph({} nodes, {} edges)",
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_symmetric());
        assert_eq!(g.nodes().count(), 5);
    }

    #[test]
    fn add_edge_dedups() {
        let mut g = Digraph::new(3);
        assert!(g.add_edge(v(0), v(1)));
        assert!(!g.add_edge(v(0), v(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn adjacency_sorted() {
        let mut g = Digraph::new(5);
        g.add_edge(v(0), v(4));
        g.add_edge(v(0), v(1));
        g.add_edge(v(0), v(3));
        assert_eq!(g.out_neighbors(v(0)), &[v(1), v(3), v(4)]);
        assert_eq!(g.out_degree(v(0)), 3);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Digraph::new(2);
        g.add_edge(v(1), v(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = Digraph::new(2);
        g.add_edge(v(0), v(2));
    }

    #[test]
    fn complete_graph() {
        let g = Digraph::complete(4);
        assert_eq!(g.edge_count(), 12);
        assert!(g.is_symmetric());
    }

    #[test]
    fn symmetric_detection() {
        let mut g = Digraph::new(3);
        g.add_edge(v(0), v(1));
        assert!(!g.is_symmetric());
        g.add_edge(v(1), v(0));
        assert!(g.is_symmetric());
    }

    #[test]
    fn subgraph_relation() {
        let mut g = Digraph::new(3);
        g.add_edge(v(0), v(1));
        let h = Digraph::complete(3);
        assert!(g.is_subgraph_of(&h));
        assert!(!h.is_subgraph_of(&g));
    }

    #[test]
    fn union_and_closure() {
        let mut a = Digraph::new(3);
        a.add_edge(v(0), v(1));
        let mut b = Digraph::new(3);
        b.add_edge(v(1), v(2));
        let u = a.union(&b);
        assert_eq!(u.edge_count(), 2);
        let c = u.symmetric_closure();
        assert!(c.is_symmetric());
        assert_eq!(c.edge_count(), 4);
    }

    #[test]
    fn edges_iterator_lexicographic() {
        let mut g = Digraph::new(3);
        g.add_edge(v(1), v(0));
        g.add_edge(v(0), v(2));
        g.add_edge(v(0), v(1));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(v(0), v(1)), (v(0), v(2)), (v(1), v(0))]);
    }

    #[test]
    fn from_edges_builder() {
        let g = Digraph::from_edges(3, [(v(0), v(1)), (v(0), v(1)), (v(2), v(0))]);
        assert_eq!(g.edge_count(), 2);
    }
}
