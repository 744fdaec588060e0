//! The dual graph network `(G, G′)` of the paper's §2.1.

use std::fmt;
use std::sync::OnceLock;

use crate::csr::Csr;
use crate::graph::Digraph;
use crate::node::NodeId;
use crate::traversal;

/// Error constructing a [`DualGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDualGraphError {
    /// `G` and `G′` have different node counts.
    NodeCountMismatch {
        /// Nodes in the reliable graph `G`.
        reliable: usize,
        /// Nodes in the total graph `G′`.
        total: usize,
    },
    /// An edge of `G` is missing from `G′` (violates `E ⊆ E′`).
    MissingReliableEdge {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// The designated source is not a valid node.
    SourceOutOfRange {
        /// The offending source id.
        source: NodeId,
        /// Number of nodes.
        nodes: usize,
    },
    /// Some node is not reachable from the source in `G`
    /// (the model assumes every node is reachable in the reliable graph).
    UnreachableNode {
        /// A node with no `G`-path from the source.
        node: NodeId,
    },
}

impl fmt::Display for BuildDualGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDualGraphError::NodeCountMismatch { reliable, total } => write!(
                f,
                "node count mismatch: G has {reliable} nodes but G' has {total}"
            ),
            BuildDualGraphError::MissingReliableEdge { from, to } => write!(
                f,
                "reliable edge ({from}, {to}) is missing from G' (E must be a subset of E')"
            ),
            BuildDualGraphError::SourceOutOfRange { source, nodes } => {
                write!(f, "source {source} out of range for {nodes} nodes")
            }
            BuildDualGraphError::UnreachableNode { node } => write!(
                f,
                "node {node} is not reachable from the source in the reliable graph G"
            ),
        }
    }
}

impl std::error::Error for BuildDualGraphError {}

/// A dual graph network `(G, G′)`: reliable links `G` plus unreliable extras.
///
/// Invariants enforced at construction (§2.1 of the paper):
///
/// * `G` and `G′` share the node set;
/// * `E ⊆ E′` — every reliable link is also a link;
/// * every node is reachable from the designated source in `G`.
///
/// The classical (static, reliable) radio model is the special case
/// `G = G′`; [`DualGraph::is_classical`] detects it.
///
/// # Examples
///
/// ```
/// use dualgraph_net::{Digraph, DualGraph, NodeId};
///
/// // A 3-node line in G, with an extra unreliable chord in G'.
/// let mut g = Digraph::new(3);
/// g.add_undirected_edge(NodeId(0), NodeId(1));
/// g.add_undirected_edge(NodeId(1), NodeId(2));
/// let mut gp = g.clone();
/// gp.add_undirected_edge(NodeId(0), NodeId(2));
///
/// let net = DualGraph::new(g, gp, NodeId(0))?;
/// assert_eq!(net.len(), 3);
/// assert!(!net.is_classical());
/// assert_eq!(net.unreliable_only_out(NodeId(0)), &[NodeId(2)]);
/// # Ok::<(), dualgraph_net::BuildDualGraphError>(())
/// ```
#[derive(Clone)]
pub struct DualGraph {
    reliable: Digraph,
    total: Digraph,
    source: NodeId,
    /// `G` frozen into CSR form for the simulator's hot loop.
    reliable_csr: Csr,
    /// `G`'s **transpose** (in-neighborhoods) frozen into CSR form: the
    /// sharded engine resolves receptions receiver-side, walking each
    /// receiver's in-row instead of scattering over senders' out-rows.
    /// Equal to `reliable_csr` for undirected networks, but frozen
    /// unconditionally so directed networks shard identically.
    reliable_in_csr: Csr,
    /// `G′` frozen into CSR form.
    total_csr: Csr,
    /// For each node `u`: out-neighbors in `G′` that are *not* out-neighbors
    /// in `G` — exactly the targets the adversary may grant or deny.
    /// Frozen into CSR form at construction.
    unreliable_only_csr: Csr,
    /// The transpose of `unreliable_only_csr` (`G′ ∖ G` in-neighborhoods),
    /// frozen on first use: only the sharded engine's in-shard oblivious
    /// sampling reads it, so networks that never take that path pay no
    /// set-up for it. `None` when `G′ ∖ G` is symmetric (every undirected
    /// network): its transpose is `unreliable_only_csr` itself.
    unreliable_only_in_csr: OnceLock<Option<Csr>>,
    /// Stable identities for the unreliable-only edges, aligned with the
    /// flat indices of `unreliable_only_csr` (see
    /// [`DualGraph::unreliable_edge_ids`]). `None` for a standalone graph,
    /// where the flat index *is* the identity. Attached by
    /// [`TopologySchedule`][crate::TopologySchedule] so per-edge adversary
    /// state survives epoch switches keyed by edge *identity*, not CSR
    /// position.
    unreliable_edge_ids: Option<UnreliableEdgeIds>,
}

/// The stable-identity map of [`DualGraph::unreliable_edge_ids`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct UnreliableEdgeIds {
    /// `ids[flat]` = stable identity of the flat CSR edge `flat`.
    ids: Vec<u32>,
    /// Size of the identity universe (`0..universe`); at least the number
    /// of distinct ids in `ids`, shared by every epoch of a schedule.
    universe: u32,
}

/// Equality is over the *topology* `(G, G′, source)` only: the frozen CSR
/// forms are derived from it, and the stable edge-id map is schedule
/// bookkeeping, not part of the network itself (a schedule epoch compares
/// equal to the raw graph it was built from).
impl PartialEq for DualGraph {
    fn eq(&self, other: &Self) -> bool {
        self.reliable == other.reliable && self.total == other.total && self.source == other.source
    }
}

impl Eq for DualGraph {}

impl DualGraph {
    /// Validates and builds a dual graph network.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildDualGraphError`] if node counts differ, `E ⊄ E′`,
    /// the source is out of range, or some node is unreachable from the
    /// source in `G`.
    pub fn new(
        reliable: Digraph,
        total: Digraph,
        source: NodeId,
    ) -> Result<Self, BuildDualGraphError> {
        if reliable.node_count() != total.node_count() {
            return Err(BuildDualGraphError::NodeCountMismatch {
                reliable: reliable.node_count(),
                total: total.node_count(),
            });
        }
        if source.index() >= reliable.node_count() {
            return Err(BuildDualGraphError::SourceOutOfRange {
                source,
                nodes: reliable.node_count(),
            });
        }
        for (u, v) in reliable.edges() {
            if !total.has_edge(u, v) {
                return Err(BuildDualGraphError::MissingReliableEdge { from: u, to: v });
            }
        }
        let dist = traversal::bfs_distances(&reliable, source);
        if let Some(unreached) = dist.iter().position(|&d| d == traversal::UNREACHABLE) {
            return Err(BuildDualGraphError::UnreachableNode {
                node: NodeId::from_index(unreached),
            });
        }
        let unreliable_only: Vec<Vec<NodeId>> = (0..reliable.node_count())
            .map(|u| {
                let u = NodeId::from_index(u);
                total
                    .out_neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| !reliable.has_edge(u, v))
                    .collect()
            })
            .collect();
        let n = reliable.node_count();
        let unreliable_only_csr = Csr::from_rows(n, |u| &unreliable_only[u.index()]);
        let reliable_csr = Csr::from_digraph(&reliable);
        let reliable_in_csr = Csr::from_rows(n, |u| reliable.in_neighbors(u));
        let total_csr = Csr::from_digraph(&total);
        Ok(DualGraph {
            reliable,
            total,
            source,
            reliable_csr,
            reliable_in_csr,
            total_csr,
            unreliable_only_csr,
            unreliable_only_in_csr: OnceLock::new(),
            unreliable_edge_ids: None,
        })
    }

    /// Builds the classical (fully reliable) network `G = G′`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DualGraph::new`].
    pub fn classical(g: Digraph, source: NodeId) -> Result<Self, BuildDualGraphError> {
        let total = g.clone();
        Self::new(g, total, source)
    }

    /// Number of nodes `n`.
    pub fn len(&self) -> usize {
        self.reliable.node_count()
    }

    /// `true` when the network has no nodes (never true for a validated
    /// network, which must contain its source).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reliable graph `G`.
    pub fn reliable(&self) -> &Digraph {
        &self.reliable
    }

    /// The total link graph `G′`.
    pub fn total(&self) -> &Digraph {
        &self.total
    }

    /// The designated source node `s`.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// `true` when `G = G′` (the classical static radio model).
    pub fn is_classical(&self) -> bool {
        self.reliable.edge_count() == self.total.edge_count()
    }

    /// `true` when both graphs are symmetric — the paper's *undirected*
    /// network.
    pub fn is_undirected(&self) -> bool {
        self.reliable.is_symmetric() && self.total.is_symmetric()
    }

    /// Out-neighbors of `u` in `G′` that are not out-neighbors in `G` —
    /// the adversary-controlled delivery targets for `u`'s transmissions.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn unreliable_only_out(&self, u: NodeId) -> &[NodeId] {
        self.unreliable_only_csr.row(u)
    }

    /// Total count of adversary-controlled (unreliable-only) directed edges.
    pub fn unreliable_edge_count(&self) -> usize {
        self.unreliable_only_csr.edge_count()
    }

    /// `G` in frozen CSR form — the layout the executor's hot loop reads.
    #[inline]
    pub fn reliable_csr(&self) -> &Csr {
        &self.reliable_csr
    }

    /// `G`'s transpose (in-neighborhoods) in frozen CSR form: row `v` is
    /// the sorted set of nodes whose reliable transmissions reach `v`.
    /// Identical content to [`DualGraph::reliable_csr`] on undirected
    /// networks; the sharded engine's receiver-side reception rebuild
    /// reads it for directed and undirected networks alike.
    #[inline]
    pub fn reliable_in_csr(&self) -> &Csr {
        &self.reliable_in_csr
    }

    /// `G′` in frozen CSR form.
    #[inline]
    pub fn total_csr(&self) -> &Csr {
        &self.total_csr
    }

    /// `G′ ∖ G` out-neighborhoods in frozen CSR form (the rows
    /// [`DualGraph::unreliable_only_out`] serves).
    #[inline]
    pub fn unreliable_only_csr(&self) -> &Csr {
        &self.unreliable_only_csr
    }

    /// `G′ ∖ G` **in**-neighborhoods in frozen CSR form: row `v` is the
    /// sorted set of nodes `u` with `v ∈ unreliable_only_out(u)` — the
    /// senders whose transmissions the adversary may grant or deny at
    /// `v`. The transpose of [`DualGraph::unreliable_only_csr`], frozen on
    /// the first call and cached (thread-safe), so the sharded engine can
    /// sample oblivious deliveries receiver-side without making every
    /// network pay for it at construction. When `G′ ∖ G` is symmetric —
    /// every undirected network — the transpose *is* the out-CSR, and no
    /// copy is built.
    pub fn unreliable_only_in_csr(&self) -> &Csr {
        let csr = &self.unreliable_only_csr;
        self.unreliable_only_in_csr
            .get_or_init(|| {
                let symmetric = self
                    .nodes()
                    .all(|u| csr.row(u).iter().all(|&v| csr.contains(v, u)));
                (!symmetric).then(|| csr.transpose())
            })
            .as_ref()
            .unwrap_or(csr)
    }

    /// Stable identities of the unreliable-only edges, aligned with the
    /// flat indices of [`DualGraph::unreliable_only_csr`] (`ids[flat]` is
    /// the identity of flat edge `flat`), or `None` for a standalone graph
    /// — where the flat index itself is the identity.
    ///
    /// [`TopologySchedule`][crate::TopologySchedule] attaches these maps
    /// at construction, keyed by the directed pair `(u, v)`: the same pair
    /// keeps the same identity in every epoch it appears in, so stateful
    /// per-edge adversaries (the bursty Gilbert–Elliott chains) can carry
    /// their chain state across epoch switches by *identity* instead of
    /// silently migrating it to whatever edge landed on the same CSR
    /// position.
    #[inline]
    pub fn unreliable_edge_ids(&self) -> Option<&[u32]> {
        self.unreliable_edge_ids.as_ref().map(|m| m.ids.as_slice())
    }

    /// The stable identity of the flat unreliable-only edge `flat` (the
    /// flat index itself when no identity map is attached).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range of the attached map (no bounds
    /// check happens without a map).
    #[inline]
    pub fn unreliable_edge_id(&self, flat: usize) -> usize {
        match &self.unreliable_edge_ids {
            Some(m) => m.ids[flat] as usize,
            None => flat,
        }
    }

    /// Size of the stable edge-identity universe: every value of
    /// [`DualGraph::unreliable_edge_ids`] lies in `0..universe`. Equals
    /// [`DualGraph::unreliable_edge_count`] when no map is attached; for a
    /// schedule epoch it is the number of *distinct* unreliable-only
    /// directed edges across the whole schedule (shared by every epoch).
    #[inline]
    pub fn unreliable_edge_universe(&self) -> usize {
        match &self.unreliable_edge_ids {
            Some(m) => m.universe as usize,
            None => self.unreliable_only_csr.edge_count(),
        }
    }

    /// Attaches a stable edge-identity map (see
    /// [`DualGraph::unreliable_edge_ids`]). Called by
    /// [`TopologySchedule`][crate::TopologySchedule] construction; also
    /// available to custom schedule builders.
    ///
    /// # Panics
    ///
    /// Panics if `ids` does not have one entry per unreliable-only edge,
    /// if an id is `>= universe`, or if two edges share an id.
    pub fn set_unreliable_edge_ids(&mut self, ids: Vec<u32>, universe: usize) {
        assert_eq!(
            ids.len(),
            self.unreliable_only_csr.edge_count(),
            "edge-id map must cover every unreliable-only edge"
        );
        let universe = u32::try_from(universe).expect("edge universe exceeds u32::MAX"); // analyzer: allow(panic, reason = "invariant: edge universe exceeds u32::MAX")
        let mut seen = vec![false; universe as usize];
        for &id in &ids {
            assert!(id < universe, "edge id {id} outside universe 0..{universe}");
            assert!(
                !std::mem::replace(&mut seen[id as usize], true),
                "duplicate edge id {id}"
            );
        }
        self.unreliable_edge_ids = Some(UnreliableEdgeIds { ids, universe });
    }

    /// Iterates all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.reliable.nodes()
    }

    /// BFS distance from the source to every node in `G` (all finite by the
    /// construction invariant).
    pub fn reliable_distances(&self) -> Vec<u32> {
        traversal::bfs_distances(&self.reliable, self.source)
    }

    /// Eccentricity of the source in `G`: a lower bound on broadcast time
    /// for any algorithm and any adversary.
    pub fn source_eccentricity(&self) -> u32 {
        traversal::eccentricity(&self.reliable, self.source)
            .expect("validated dual graph is source-connected") // analyzer: allow(panic, reason = "invariant: validated dual graph is source-connected")
    }

    /// Decomposes into `(G, G′, source)`.
    pub fn into_parts(self) -> (Digraph, Digraph, NodeId) {
        (self.reliable, self.total, self.source)
    }
}

impl fmt::Debug for DualGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DualGraph(n={}, |E|={}, |E'|={}, source={})",
            self.len(),
            self.reliable.edge_count(),
            self.total.edge_count(),
            self.source
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    fn line3() -> Digraph {
        let mut g = Digraph::new(3);
        g.add_undirected_edge(v(0), v(1));
        g.add_undirected_edge(v(1), v(2));
        g
    }

    #[test]
    fn classical_network() {
        let net = DualGraph::classical(line3(), v(0)).unwrap();
        assert!(net.is_classical());
        assert!(net.is_undirected());
        assert_eq!(net.unreliable_edge_count(), 0);
        assert_eq!(net.source_eccentricity(), 2);
    }

    #[test]
    fn dual_network_unreliable_neighbors() {
        let g = line3();
        let gp = Digraph::complete(3);
        let net = DualGraph::new(g, gp, v(0)).unwrap();
        assert!(!net.is_classical());
        assert_eq!(net.unreliable_only_out(v(0)), &[v(2)]);
        assert_eq!(net.unreliable_only_out(v(1)), &[] as &[NodeId]);
        assert_eq!(net.unreliable_edge_count(), 2);
    }

    #[test]
    fn rejects_node_count_mismatch() {
        let err = DualGraph::new(Digraph::new(2), Digraph::new(3), v(0)).unwrap_err();
        assert!(matches!(
            err,
            BuildDualGraphError::NodeCountMismatch {
                reliable: 2,
                total: 3
            }
        ));
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn rejects_missing_reliable_edge() {
        let g = line3();
        let mut gp = Digraph::new(3);
        gp.add_undirected_edge(v(0), v(1)); // (1,2) missing
        let err = DualGraph::new(g, gp, v(0)).unwrap_err();
        assert!(matches!(
            err,
            BuildDualGraphError::MissingReliableEdge { .. }
        ));
    }

    #[test]
    fn rejects_bad_source() {
        let err = DualGraph::classical(line3(), v(3)).unwrap_err();
        assert!(matches!(err, BuildDualGraphError::SourceOutOfRange { .. }));
    }

    #[test]
    fn rejects_unreachable_node() {
        let mut g = Digraph::new(3);
        g.add_edge(v(0), v(1)); // node 2 isolated in G
        let gp = Digraph::complete(3);
        let err = DualGraph::new(g, gp, v(0)).unwrap_err();
        assert!(matches!(
            err,
            BuildDualGraphError::UnreachableNode { node } if node == v(2)
        ));
    }

    #[test]
    fn directed_reachability_respected() {
        // 0 -> 1 -> 2 one-way suffices.
        let mut g = Digraph::new(3);
        g.add_edge(v(0), v(1));
        g.add_edge(v(1), v(2));
        let net = DualGraph::new(g.clone(), g, v(0)).unwrap();
        assert!(!net.is_undirected());
        assert_eq!(net.reliable_distances(), vec![0, 1, 2]);
    }

    #[test]
    fn reliable_in_csr_is_the_transpose() {
        let mut g = Digraph::new(4);
        g.add_edge(v(0), v(1));
        g.add_edge(v(0), v(2));
        g.add_edge(v(2), v(3));
        g.add_edge(v(1), v(3));
        let net = DualGraph::new(g.clone(), g.clone(), v(0)).unwrap();
        assert_eq!(net.reliable_in_csr(), &net.reliable_csr().transpose());
        for u in g.nodes() {
            assert_eq!(net.reliable_in_csr().row(u), g.in_neighbors(u));
        }
        // Undirected networks: in-rows equal out-rows.
        let sym = DualGraph::classical(line3(), v(0)).unwrap();
        assert_eq!(sym.reliable_in_csr(), sym.reliable_csr());
    }

    #[test]
    fn unreliable_only_in_csr_is_the_lazy_transpose() {
        // Directed extras: 0 -> 2 and 3 -> 1 are unreliable-only, so the
        // in-rows differ from the out-rows.
        let mut g = Digraph::new(4);
        g.add_edge(v(0), v(1));
        g.add_edge(v(1), v(2));
        g.add_edge(v(2), v(3));
        let mut gp = g.clone();
        gp.add_edge(v(0), v(2));
        gp.add_edge(v(3), v(1));
        gp.add_edge(v(0), v(3));
        let net = DualGraph::new(g, gp, v(0)).unwrap();
        assert!(net.unreliable_only_in_csr.get().is_none(), "built lazily");
        let t = net.unreliable_only_in_csr();
        assert_eq!(t, &net.unreliable_only_csr().transpose());
        assert_eq!(t.row(v(1)), &[v(3)]);
        assert_eq!(t.row(v(3)), &[v(0)]);
        assert_ne!(t, net.unreliable_only_csr());
        // Clones carry the frozen transpose along.
        assert_eq!(net.clone().unreliable_only_in_csr(), t);
        // Undirected networks share the out-CSR instead of copying it.
        let sym = DualGraph::new(line3(), Digraph::complete(3), v(0)).unwrap();
        assert!(std::ptr::eq(
            sym.unreliable_only_in_csr(),
            sym.unreliable_only_csr()
        ));
    }

    #[test]
    fn into_parts_roundtrip() {
        let net = DualGraph::classical(line3(), v(1)).unwrap();
        let (g, gp, s) = net.into_parts();
        assert_eq!(g, gp);
        assert_eq!(s, v(1));
    }

    #[test]
    fn edge_ids_default_to_flat_indices() {
        let g = line3();
        let gp = Digraph::complete(3);
        let mut net = DualGraph::new(g, gp, v(0)).unwrap();
        assert_eq!(net.unreliable_edge_ids(), None);
        assert_eq!(net.unreliable_edge_universe(), 2);
        assert_eq!(net.unreliable_edge_id(1), 1);
        net.set_unreliable_edge_ids(vec![5, 0], 6);
        assert_eq!(net.unreliable_edge_ids(), Some(&[5u32, 0][..]));
        assert_eq!(net.unreliable_edge_universe(), 6);
        assert_eq!(net.unreliable_edge_id(0), 5);
    }

    #[test]
    #[should_panic(expected = "duplicate edge id")]
    fn edge_ids_reject_duplicates() {
        let net = DualGraph::new(line3(), Digraph::complete(3), v(0)).unwrap();
        let mut net = net;
        net.set_unreliable_edge_ids(vec![1, 1], 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn edge_ids_reject_out_of_universe() {
        let mut net = DualGraph::new(line3(), Digraph::complete(3), v(0)).unwrap();
        net.set_unreliable_edge_ids(vec![0, 2], 2);
    }

    #[test]
    fn error_display_nonempty() {
        let e = BuildDualGraphError::UnreachableNode { node: v(7) };
        assert!(e.to_string().contains("v7"));
    }
}
