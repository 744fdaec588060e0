//! Compressed-sparse-row (CSR) adjacency: the execution-time graph layout.
//!
//! [`crate::Digraph`] keeps one `Vec` per node — convenient to build, but
//! every row is a separate heap allocation, so the simulator's hot loop
//! pays a pointer chase (and a cache miss) per neighborhood visit. A
//! [`Csr`] freezes the same adjacency into two flat arrays:
//!
//! ```text
//! offsets: [0, 2, 5, 5, ...]    // n + 1 entries, offsets[u]..offsets[u+1]
//! targets: [v1, v2, v0, v3, v4] // all rows concatenated, each sorted
//! ```
//!
//! Rows stay sorted ascending (inherited from `Digraph`), so membership is
//! a binary search over a contiguous slice and iteration order — hence
//! every downstream computation — is unchanged from the `Vec<Vec<_>>` path.
//!
//! A `Csr` is frozen from a [`Digraph`] builder or from computed rows,
//! and is immutable.

use crate::graph::Digraph;
use crate::node::NodeId;

/// A frozen, flat adjacency structure (see the module docs).
///
/// # Examples
///
/// ```
/// use dualgraph_net::{Csr, Digraph, NodeId};
///
/// let mut g = Digraph::new(3);
/// g.add_edge(NodeId(0), NodeId(2));
/// g.add_edge(NodeId(0), NodeId(1));
/// let csr = Csr::from_digraph(&g);
/// assert_eq!(csr.row(NodeId(0)), &[NodeId(1), NodeId(2)]);
/// assert!(csr.contains(NodeId(0), NodeId(2)));
/// assert!(!csr.contains(NodeId(1), NodeId(0)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    /// `n + 1` row boundaries into `targets`.
    offsets: Vec<u32>,
    /// Concatenated out-neighbor rows, each sorted ascending.
    targets: Vec<NodeId>,
}

impl Csr {
    /// Freezes `g`'s out-adjacency into CSR form.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` edges (far beyond any
    /// simulated network).
    pub fn from_digraph(g: &Digraph) -> Self {
        Self::from_rows(g.node_count(), g.edge_count(), |u| {
            g.out_neighbors(u).iter().copied()
        })
    }

    /// Freezes `n` computed rows, `edges` targets in all, into CSR form in
    /// one pass that allocates the target array once. Used for derived
    /// neighborhoods such as `G′ ∖ G`, whose rows are never materialized.
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than `u32::MAX` edges. Debug builds
    /// also panic if a row is not sorted strictly ascending or the rows do
    /// not hold exactly `edges` targets.
    pub fn from_rows<I, F>(n: usize, edges: usize, mut row: F) -> Self
    where
        F: FnMut(NodeId) -> I,
        I: IntoIterator<Item = NodeId>,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(edges);
        offsets.push(0u32);
        for u in 0..n {
            let start = targets.len();
            targets.extend(row(NodeId::from_index(u)));
            debug_assert!(
                targets[start..].windows(2).all(|w| w[0] < w[1]),
                "CSR rows must be sorted strictly ascending"
            );
            // analyzer: allow(panic, reason = "invariant: edge count exceeds u32::MAX")
            offsets.push(u32::try_from(targets.len()).expect("edge count exceeds u32::MAX"));
        }
        debug_assert_eq!(targets.len(), edges, "CSR rows miscounted");
        Csr { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the structure has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The sorted out-neighbor row of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.row(u).len()
    }

    /// The range of **flat edge indices** backing `u`'s row: position `i`
    /// of [`Csr::row`] is edge `row_range(u).start + i` in the global
    /// `0..edge_count()` numbering. Lets per-edge state (e.g. the bursty
    /// adversary's Markov chains) live in one flat vector instead of a
    /// hash map keyed by `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn row_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.offsets[u.index()] as usize..self.offsets[u.index() + 1] as usize
    }

    /// Membership test for the edge `(u, v)`: binary search over the row,
    /// `O(log deg(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.row(u).binary_search(&v).is_ok()
    }

    /// Iterates all edges `(u, v)` in row order, which is `(u, v)`
    /// lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.len()).flat_map(move |u| {
            let u = NodeId::from_index(u);
            self.row(u).iter().map(move |&v| (u, v))
        })
    }

    /// The transposed adjacency: row `v` of the result is the sorted list
    /// of nodes `u` with `v ∈ row(u)` (the **in**-neighborhood of `v`).
    /// `O(n + m)` counting sort; rows come out sorted ascending because
    /// sources are visited in ascending order.
    ///
    /// The sharded engine resolves receptions receiver-side — each shard
    /// walks the in-rows of its own node range — so the dual graph freezes
    /// this on first use, and keeps it only when it differs from the
    /// forward CSR.
    pub fn transpose(&self) -> Csr {
        let n = self.len();
        let mut offsets = vec![0u32; n + 1];
        for &v in &self.targets {
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId(0); self.targets.len()];
        for u in 0..n {
            let u = NodeId::from_index(u);
            for &v in self.row(u) {
                let c = &mut cursor[v.index()];
                targets[*c as usize] = u;
                *c += 1;
            }
        }
        Csr { offsets, targets }
    }
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Csr({} nodes, {} edges)", self.len(), self.edge_count())
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
        let csr = Csr::from_digraph(&Digraph::new(0));
        assert!(csr.is_empty());
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn rows_match_digraph() {
        let mut g = Digraph::new(5);
        g.add_edge(v(0), v(4));
        g.add_edge(v(0), v(1));
        g.add_edge(v(3), v(2));
        g.add_undirected_edge(v(1), v(2));
        let csr = Csr::from_digraph(&g);
        assert_eq!(csr.len(), 5);
        assert_eq!(csr.edge_count(), g.edge_count());
        for u in g.nodes() {
            assert_eq!(csr.row(u), g.out_neighbors(u), "row {u}");
            assert_eq!(csr.degree(u), g.out_degree(u));
        }
    }

    #[test]
    fn contains_agrees_with_has_edge() {
        let g = Digraph::complete(7);
        let csr = Csr::from_digraph(&g);
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(csr.contains(u, w), g.has_edge(u, w), "({u}, {w})");
            }
        }
    }

    #[test]
    fn from_rows_concatenates() {
        let rows: Vec<Vec<NodeId>> = vec![vec![v(1), v(2)], vec![], vec![v(0)]];
        let csr = Csr::from_rows(3, 3, |u| rows[u.index()].iter().copied());
        assert_eq!(csr.row(v(0)), &[v(1), v(2)]);
        assert_eq!(csr.row(v(1)), &[] as &[NodeId]);
        assert_eq!(csr.row(v(2)), &[v(0)]);
        assert_eq!(csr.edge_count(), 3);
    }

    #[test]
    fn row_range_is_flat_edge_numbering() {
        let rows: Vec<Vec<NodeId>> = vec![vec![v(1), v(2)], vec![], vec![v(0)]];
        let csr = Csr::from_rows(3, 3, |u| rows[u.index()].iter().copied());
        assert_eq!(csr.row_range(v(0)), 0..2);
        assert_eq!(csr.row_range(v(1)), 2..2);
        assert_eq!(csr.row_range(v(2)), 2..3);
        // Flat indices partition 0..edge_count in row order.
        let mut seen = Vec::new();
        for u in 0..3 {
            seen.extend(csr.row_range(v(u)));
        }
        assert_eq!(seen, (0..csr.edge_count()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn row_out_of_range_panics() {
        let csr = Csr::from_digraph(&Digraph::new(2));
        csr.row(v(2));
    }

    #[test]
    fn debug_format() {
        let csr = Csr::from_digraph(&Digraph::complete(3));
        assert_eq!(format!("{csr:?}"), "Csr(3 nodes, 6 edges)");
    }

    #[test]
    fn transpose_is_the_in_adjacency() {
        let mut g = Digraph::new(5);
        g.add_edge(v(0), v(4));
        g.add_edge(v(0), v(1));
        g.add_edge(v(3), v(2));
        g.add_edge(v(3), v(4));
        g.add_undirected_edge(v(1), v(2));
        let csr = Csr::from_digraph(&g);
        let t = csr.transpose();
        assert_eq!(t.len(), csr.len());
        assert_eq!(t.edge_count(), csr.edge_count());
        for u in g.nodes() {
            let in_row: Vec<NodeId> = g.edges().filter(|e| e.1 == u).map(|e| e.0).collect();
            assert_eq!(t.row(u), in_row, "in-row {u}");
        }
        // Transposing twice round-trips.
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn transpose_of_symmetric_graph_is_identity() {
        let g = Digraph::complete(6);
        let csr = Csr::from_digraph(&g);
        assert_eq!(csr.transpose(), csr);
    }
}
