//! Breadth-first traversal utilities over the out-rows of a [`Digraph`]
//! builder or a frozen [`Csr`].

use std::collections::VecDeque;

use crate::bitset::FixedBitSet;
use crate::csr::Csr;
use crate::graph::Digraph;
use crate::node::NodeId;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Sorted out-rows over nodes `0..node_count()`: what a traversal reads.
/// Both the [`Digraph`] builder and a frozen [`Csr`] provide them, so one
/// BFS serves both.
pub trait Adjacency {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// The out-neighbors of `u`, sorted ascending.
    fn out_row(&self, u: NodeId) -> &[NodeId];
}

impl Adjacency for Digraph {
    fn node_count(&self) -> usize {
        Digraph::node_count(self)
    }

    fn out_row(&self, u: NodeId) -> &[NodeId] {
        self.out_neighbors(u)
    }
}

impl Adjacency for Csr {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn out_row(&self, u: NodeId) -> &[NodeId] {
        self.row(u)
    }
}

/// BFS distances (hop counts) from `source` along directed edges.
///
/// Unreachable nodes get [`UNREACHABLE`].
///
/// # Examples
///
/// ```
/// use dualgraph_net::{Digraph, NodeId, traversal};
///
/// let mut g = Digraph::new(3);
/// g.add_edge(NodeId(0), NodeId(1));
/// let d = traversal::bfs_distances(&g, NodeId(0));
/// assert_eq!(d, vec![0, 1, traversal::UNREACHABLE]);
/// ```
pub fn bfs_distances(g: &impl Adjacency, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    dist[source.index()] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.out_row(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The set of nodes reachable from `source` (including `source`).
pub fn reachable_set(g: &impl Adjacency, source: NodeId) -> FixedBitSet {
    let dist = bfs_distances(g, source);
    FixedBitSet::from_indices(
        g.node_count(),
        dist.iter()
            .enumerate()
            .filter(|(_, &d)| d != UNREACHABLE)
            .map(|(i, _)| i),
    )
}

/// `true` when every node is reachable from `source`.
pub fn all_reachable_from(g: &impl Adjacency, source: NodeId) -> bool {
    bfs_distances(g, source).iter().all(|&d| d != UNREACHABLE)
}

/// BFS layers from `source`: `layers[d]` is the sorted list of nodes at
/// distance `d`. Unreachable nodes do not appear.
pub fn bfs_layers(g: &Digraph, source: NodeId) -> Vec<Vec<NodeId>> {
    let dist = bfs_distances(g, source);
    let max = dist
        .iter()
        .copied()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0);
    let mut layers = vec![Vec::new(); max as usize + 1];
    for (i, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE {
            layers[d as usize].push(NodeId::from_index(i));
        }
    }
    layers
}

/// Eccentricity of `source`: the maximum finite BFS distance, or `None`
/// if some node is unreachable.
pub fn eccentricity(g: &impl Adjacency, source: NodeId) -> Option<u32> {
    let dist = bfs_distances(g, source);
    if dist.contains(&UNREACHABLE) {
        None
    } else {
        dist.into_iter().max()
    }
}

/// Diameter: the maximum over sources of eccentricity, or `None` if the
/// graph is not strongly connected.
///
/// Runs one BFS per node (`O(n·(n+m))`), fine at simulator scales.
pub fn diameter(g: &Digraph) -> Option<u32> {
    let mut best = 0;
    for s in g.nodes() {
        best = best.max(eccentricity(g, s)?);
    }
    Some(best)
}

/// `true` when the graph is strongly connected.
pub fn is_strongly_connected(g: &Digraph) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    g.nodes().all(|s| all_reachable_from(g, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    fn path(n: usize) -> Digraph {
        let mut g = Digraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
        }
        g
    }

    #[test]
    fn distances_on_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, v(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(
            bfs_distances(&g, v(2)),
            vec![UNREACHABLE, UNREACHABLE, 0, 1, 2]
        );
    }

    #[test]
    fn reachability() {
        let g = path(4);
        assert!(all_reachable_from(&g, v(0)));
        assert!(!all_reachable_from(&g, v(1)));
        let r = reachable_set(&g, v(2));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn layers_partition_reachable_nodes() {
        let mut g = path(4);
        g.add_edge(v(0), v(2));
        let layers = bfs_layers(&g, v(0));
        assert_eq!(layers[0], vec![v(0)]);
        assert_eq!(layers[1], vec![v(1), v(2)]);
        assert_eq!(layers[2], vec![v(3)]);
    }

    #[test]
    fn eccentricity_and_diameter() {
        let g = path(4);
        assert_eq!(eccentricity(&g, v(0)), Some(3));
        assert_eq!(eccentricity(&g, v(1)), None, "cannot reach node 0");
        assert_eq!(diameter(&g), None);

        let c = Digraph::complete(5);
        assert_eq!(diameter(&c), Some(1));
        assert!(is_strongly_connected(&c));
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn frozen_rows_answer_alike() {
        let g = path(4);
        let csr = Csr::from_digraph(&g);
        assert_eq!(eccentricity(&csr, v(0)), Some(3));
        assert_eq!(eccentricity(&csr, v(1)), None);
        assert_eq!(bfs_distances(&csr, v(1)), bfs_distances(&g, v(1)));
    }

    #[test]
    fn single_node() {
        let g = Digraph::new(1);
        assert_eq!(eccentricity(&g, v(0)), Some(0));
        assert_eq!(diameter(&g), Some(0));
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Digraph::new(0);
        assert!(is_strongly_connected(&g));
    }
}
