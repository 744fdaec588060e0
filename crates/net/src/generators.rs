//! Topology generators: the paper's lower-bound gadgets plus standard and
//! randomized dual-graph families, and the **schedule generators** that
//! evolve a dual graph over epochs (edge churn, gray-zone fading, disk
//! mobility) for the dynamics subsystem.
//!
//! Every generator returns a validated [`DualGraph`] (or a small struct
//! wrapping one when distinguished nodes matter, as in
//! [`clique_bridge`]), or a validated
//! [`TopologySchedule`] for the schedule family.
//! Randomized generators take an explicit seed and are fully deterministic
//! given it.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dual::DualGraph;
use crate::graph::Digraph;
use crate::node::NodeId;
use crate::schedule::{Epoch, TopologySchedule};
use crate::traversal;

/// The Theorem 2 gadget: an `(n−1)`-clique holding the source `s` and a
/// bridge `b`, plus one receiver `r` attached only to `b`; `G′` is complete.
///
/// The network is 2-broadcastable (`s` then `b` sending alone delivers the
/// message everywhere), yet §4 shows every deterministic algorithm needs
/// `> n−3` rounds against the right adversary.
#[derive(Debug, Clone)]
pub struct CliqueBridge {
    /// The validated network.
    pub network: DualGraph,
    /// The source node `s` (node 0).
    pub source: NodeId,
    /// The bridge node `b` (node `n−2`), the clique's only link to `r`.
    pub bridge: NodeId,
    /// The receiver node `r` (node `n−1`), attached only to `b` in `G`.
    pub receiver: NodeId,
}

/// Builds the [`CliqueBridge`] gadget on `n ≥ 3` nodes.
///
/// Node layout: clique `C = {0, …, n−2}` with source `0` and bridge `n−2`;
/// receiver `n−1`.
///
/// # Panics
///
/// Panics if `n < 3`.
///
/// # Examples
///
/// ```
/// let g = dualgraph_net::generators::clique_bridge(6);
/// assert_eq!(g.network.len(), 6);
/// assert_eq!(g.network.source_eccentricity(), 2);
/// ```
pub fn clique_bridge(n: usize) -> CliqueBridge {
    assert!(n >= 3, "clique_bridge requires n >= 3, got {n}");
    let mut g = Digraph::new(n);
    let bridge = NodeId::from_index(n - 2);
    let receiver = NodeId::from_index(n - 1);
    for u in 0..n - 1 {
        for v in (u + 1)..n - 1 {
            g.add_undirected_edge(NodeId::from_index(u), NodeId::from_index(v));
        }
    }
    g.add_undirected_edge(bridge, receiver);
    let total = Digraph::complete(n);
    let network = DualGraph::new(g, total, NodeId(0)).expect("clique_bridge construction is valid"); // analyzer: allow(panic, reason = "invariant: clique_bridge construction is valid")
    CliqueBridge {
        network,
        source: NodeId(0),
        bridge,
        receiver,
    }
}

/// The Theorem 12 gadget: the complete layered graph with `L_0 = {0}` and
/// two-node layers `L_k = {2k−1, 2k}`, with `G′` complete.
///
/// `G` edges: source to both nodes of `L_1`; the two nodes of each layer to
/// each other; all four pairs between consecutive layers. This is
/// [`layered_widths`] with every width 2.
///
/// # Panics
///
/// Panics if `n < 3` or `n` is even (layers must pair up exactly).
///
/// # Examples
///
/// ```
/// let net = dualgraph_net::generators::layered_pairs(9);
/// assert_eq!(net.source_eccentricity(), 4);
/// ```
pub fn layered_pairs(n: usize) -> DualGraph {
    assert!(n >= 3, "layered_pairs requires n >= 3, got {n}");
    assert!(
        n % 2 == 1,
        "layered_pairs requires odd n (2k+1 nodes), got {n}"
    );
    layered_widths(&vec![2; (n - 1) / 2])
}

/// A layered network with arbitrary layer widths (the §7 intuition:
/// "a layered network with layers of different sizes").
///
/// Layer 0 is the singleton source. Consecutive layers are completely
/// bipartitely connected in `G`; each layer is an internal clique; `G′` is
/// the complete graph, so old layers can always interfere.
///
/// # Panics
///
/// Panics if `widths` is empty or contains a zero.
pub fn layered_widths(widths: &[usize]) -> DualGraph {
    assert!(
        !widths.is_empty(),
        "layered_widths requires at least one layer"
    );
    assert!(
        widths.iter().all(|&w| w > 0),
        "layered_widths layer widths must be positive"
    );
    let n = 1 + widths.iter().sum::<usize>();
    let mut g = Digraph::new(n);
    let mut layers: Vec<Vec<NodeId>> = vec![vec![NodeId(0)]];
    let mut next = 1usize;
    for &w in widths {
        layers.push((next..next + w).map(NodeId::from_index).collect());
        next += w;
    }
    for k in 0..layers.len() {
        for i in 0..layers[k].len() {
            for j in (i + 1)..layers[k].len() {
                g.add_undirected_edge(layers[k][i], layers[k][j]);
            }
        }
        if k + 1 < layers.len() {
            for &u in &layers[k] {
                for &v in &layers[k + 1] {
                    g.add_undirected_edge(u, v);
                }
            }
        }
    }
    let total = Digraph::complete(n);
    // analyzer: allow(panic, reason = "invariant: layered_widths construction is valid")
    DualGraph::new(g, total, NodeId(0)).expect("layered_widths construction is valid")
}

/// A path `0 — 1 — ⋯ — n−1` in `G`; `G′` additionally contains every chord
/// of length at most `chord`, modeling occasional long-distance receptions
/// ("it is common … to occasionally receive packets from distances
/// significantly longer than the longest reliable link", §1).
///
/// With `chord = 1` this is the classical path (`G = G′`).
///
/// # Panics
///
/// Panics if `n == 0` or `chord == 0`.
pub fn line(n: usize, chord: usize) -> DualGraph {
    assert!(n > 0, "line requires n > 0");
    assert!(chord > 0, "line requires chord >= 1");
    let mut g = Digraph::new(n);
    for i in 0..n.saturating_sub(1) {
        g.add_undirected_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
    }
    let mut total = g.clone();
    for i in 0..n {
        for d in 2..=chord {
            if i + d < n {
                total.add_undirected_edge(NodeId::from_index(i), NodeId::from_index(i + d));
            }
        }
    }
    DualGraph::new(g, total, NodeId(0)).expect("line construction is valid") // analyzer: allow(panic, reason = "invariant: line construction is valid")
}

/// A ring of `n ≥ 3` nodes in `G`; `G′` adds chords up to `chord` hops.
///
/// # Panics
///
/// Panics if `n < 3` or `chord == 0`.
pub fn ring(n: usize, chord: usize) -> DualGraph {
    assert!(n >= 3, "ring requires n >= 3, got {n}");
    assert!(chord > 0, "ring requires chord >= 1");
    let mut g = Digraph::new(n);
    for i in 0..n {
        g.add_undirected_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n));
    }
    let mut total = g.clone();
    for i in 0..n {
        for d in 2..=chord.min(n / 2) {
            total.add_undirected_edge(NodeId::from_index(i), NodeId::from_index((i + d) % n));
        }
    }
    DualGraph::new(g, total, NodeId(0)).expect("ring construction is valid") // analyzer: allow(panic, reason = "invariant: ring construction is valid")
}

/// A star: the source at the hub, `n−1` leaves; `G′` complete.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> DualGraph {
    assert!(n > 0, "star requires n > 0");
    let mut g = Digraph::new(n);
    for i in 1..n {
        g.add_undirected_edge(NodeId(0), NodeId::from_index(i));
    }
    let total = Digraph::complete(n.max(1));
    DualGraph::new(g, total, NodeId(0)).expect("star construction is valid") // analyzer: allow(panic, reason = "invariant: star construction is valid")
}

/// The complete classical network (`G = G′ = K_n`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> DualGraph {
    assert!(n > 0, "complete requires n > 0");
    // analyzer: allow(panic, reason = "invariant: complete construction is valid")
    DualGraph::classical(Digraph::complete(n), NodeId(0)).expect("complete construction is valid")
}

/// A `w × h` grid in `G` (4-neighborhood); `G′` adds the diagonals
/// (8-neighborhood), modeling marginal diagonal links.
///
/// The source is the corner `(0, 0)`.
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
pub fn grid(w: usize, h: usize) -> DualGraph {
    assert!(w > 0 && h > 0, "grid requires positive dimensions");
    let n = w * h;
    let at = |x: usize, y: usize| NodeId::from_index(y * w + x);
    let mut g = Digraph::new(n);
    let mut total = Digraph::new(n);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_undirected_edge(at(x, y), at(x + 1, y));
            }
            if y + 1 < h {
                g.add_undirected_edge(at(x, y), at(x, y + 1));
            }
            if x + 1 < w && y + 1 < h {
                total.add_undirected_edge(at(x, y), at(x + 1, y + 1));
            }
            if x >= 1 && y + 1 < h {
                total.add_undirected_edge(at(x, y), at(x - 1, y + 1));
            }
        }
    }
    let total = total.union(&g);
    DualGraph::new(g, total, NodeId(0)).expect("grid construction is valid") // analyzer: allow(panic, reason = "invariant: grid construction is valid")
}

/// A complete binary tree in `G` rooted at the source; `G′` adds edges
/// between all pairs within `extra_radius` tree-hops.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize, extra_radius: usize) -> DualGraph {
    assert!(n > 0, "binary_tree requires n > 0");
    let mut g = Digraph::new(n);
    for i in 1..n {
        let parent = (i - 1) / 2;
        g.add_undirected_edge(NodeId::from_index(parent), NodeId::from_index(i));
    }
    let mut total = g.clone();
    if extra_radius >= 2 {
        let dist_from: Vec<Vec<u32>> = (0..n)
            .map(|i| traversal::bfs_distances(&g, NodeId::from_index(i)))
            .collect();
        for u in 0..n {
            for v in (u + 1)..n {
                if dist_from[u][v] as usize <= extra_radius {
                    total.add_undirected_edge(NodeId::from_index(u), NodeId::from_index(v));
                }
            }
        }
    }
    // analyzer: allow(panic, reason = "invariant: binary_tree construction is valid")
    DualGraph::new(g, total, NodeId(0)).expect("binary_tree construction is valid")
}

/// Parameters for the random Erdős–Rényi-style dual graph of [`er_dual`].
#[derive(Debug, Clone, Copy)]
pub struct ErDualParams {
    /// Number of nodes.
    pub n: usize,
    /// Probability of each undirected pair being a *reliable* edge
    /// (a random spanning tree is always added, so `G` is connected).
    pub reliable_p: f64,
    /// Probability of each remaining pair being an *unreliable* edge.
    pub unreliable_p: f64,
}

/// A random dual graph: random spanning tree ∪ `G(n, reliable_p)` as `G`,
/// plus independent extra pairs with probability `unreliable_p` in `G′`.
///
/// Undirected; deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n == 0` or a probability is outside `[0, 1]`.
pub fn er_dual(params: ErDualParams, seed: u64) -> DualGraph {
    let ErDualParams {
        n,
        reliable_p,
        unreliable_p,
    } = params;
    assert!(n > 0, "er_dual requires n > 0");
    assert!(
        (0.0..=1.0).contains(&reliable_p) && (0.0..=1.0).contains(&unreliable_p),
        "er_dual probabilities must lie in [0, 1]"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Digraph::new(n);
    // Random spanning tree: connect node i to a uniformly random earlier node.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.add_undirected_edge(NodeId::from_index(i), NodeId::from_index(j));
    }
    let mut total_extra: Vec<(NodeId, NodeId)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
            if !g.has_edge(u, v) && rng.gen_bool(reliable_p) {
                g.add_undirected_edge(u, v);
            } else if !g.has_edge(u, v) && rng.gen_bool(unreliable_p) {
                total_extra.push((u, v));
            }
        }
    }
    let mut total = g.clone();
    for (u, v) in total_extra {
        total.add_undirected_edge(u, v);
    }
    DualGraph::new(g, total, NodeId(0)).expect("er_dual construction is valid") // analyzer: allow(panic, reason = "invariant: er_dual construction is valid")
}

/// Parameters for the sparse large-scale dual graph of [`scale_dual`].
#[derive(Debug, Clone, Copy)]
pub struct ScaleDualParams {
    /// Number of nodes.
    pub n: usize,
    /// Random reliable chords added per node (small-world shortcuts; the
    /// expected diameter drops to `O(log n)` with one chord per node).
    pub chords_per_node: usize,
    /// Random unreliable (`G′`-only) edges added per node.
    pub extras_per_node: usize,
}

/// A sparse dual graph built in `O(n · (chords + extras))` time and memory:
/// a ring spine (connectivity) plus `chords_per_node` random reliable
/// chords (small-world shortcuts) in `G`, plus `extras_per_node` random
/// unreliable edges in `G′` only.
///
/// This is the scale-series workload generator: unlike [`er_dual`], which
/// loops over all `Θ(n²)` pairs, every step here is per-node, so networks
/// at `n = 2^20` build in seconds with `Θ(n)` edges. Undirected;
/// deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn scale_dual(params: ScaleDualParams, seed: u64) -> DualGraph {
    let ScaleDualParams {
        n,
        chords_per_node,
        extras_per_node,
    } = params;
    assert!(n > 0, "scale_dual requires n > 0");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Digraph::new(n);
    // Ring spine: guarantees source-connectivity.
    for i in 0..n {
        let j = (i + 1) % n;
        if i != j {
            g.add_undirected_edge(NodeId::from_index(i), NodeId::from_index(j));
        }
    }
    // Small-world chords: one RNG draw per slot whether or not it lands,
    // so edge placement is per-node deterministic.
    for i in 0..n {
        for _ in 0..chords_per_node {
            let j = rng.gen_range(0..n);
            if j != i {
                g.add_undirected_edge(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
    }
    let mut total = g.clone();
    for i in 0..n {
        for _ in 0..extras_per_node {
            let j = rng.gen_range(0..n);
            if j != i {
                total.add_undirected_edge(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
    }
    // analyzer: allow(panic, reason = "invariant: scale_dual construction is valid")
    DualGraph::new(g, total, NodeId(0)).expect("scale_dual construction is valid")
}

/// Parameters for the two-radius random geometric dual graph of
/// [`geometric_dual`].
#[derive(Debug, Clone, Copy)]
pub struct GeometricDualParams {
    /// Number of nodes, placed uniformly in the unit square.
    pub n: usize,
    /// Pairs within this distance are reliable (`G`).
    pub reliable_radius: f64,
    /// Pairs within this distance (but beyond `reliable_radius`) are
    /// unreliable (`G′` only) — the "gray zone" annulus.
    pub gray_radius: f64,
}

/// The two-radius disk model: reliable inside `reliable_radius`, unreliable
/// in the gray-zone annulus up to `gray_radius` — the geometric picture of
/// communication gray zones from the paper's introduction.
///
/// If the inner-disk graph is disconnected, the generator repairs
/// connectivity by adding the closest inter-component pair as a reliable
/// edge (documented substitution: real deployments assume a connected
/// reliable backbone).
///
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n == 0` or `gray_radius < reliable_radius`.
pub fn geometric_dual(params: GeometricDualParams, seed: u64) -> DualGraph {
    let GeometricDualParams {
        n,
        reliable_radius,
        gray_radius,
    } = params;
    assert!(n > 0, "geometric_dual requires n > 0");
    assert!(
        gray_radius >= reliable_radius,
        "gray_radius must be at least reliable_radius"
    );
    let pts = random_points(n, &mut SmallRng::seed_from_u64(seed));
    let (g, total) = disk_graphs(&pts, params);
    // analyzer: allow(panic, reason = "invariant: geometric_dual construction is valid")
    DualGraph::new(g, total, NodeId(0)).expect("geometric_dual construction is valid")
}

/// Squared euclidean distance between two unit-square points.
#[inline]
fn d2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    dx * dx + dy * dy
}

/// `n` points drawn uniformly from the unit square.
fn random_points(n: usize, rng: &mut SmallRng) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// The two-radius disk graphs over fixed points: reliable inside
/// `reliable_radius`, gray-zone (total-only) in the annulus up to
/// `gray_radius`, with the reliable part connectivity-repaired.
fn disk_graphs(pts: &[(f64, f64)], geometry: GeometricDualParams) -> (Digraph, Digraph) {
    let (n, reliable_radius, gray_radius) =
        (pts.len(), geometry.reliable_radius, geometry.gray_radius);
    let mut g = Digraph::new(n);
    let mut total = Digraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dist2 = d2(pts[u], pts[v]);
            let (nu, nv) = (NodeId::from_index(u), NodeId::from_index(v));
            if dist2 <= reliable_radius * reliable_radius {
                g.add_undirected_edge(nu, nv);
                total.add_undirected_edge(nu, nv);
            } else if dist2 <= gray_radius * gray_radius {
                total.add_undirected_edge(nu, nv);
            }
        }
    }
    repair_connectivity(&mut g, &mut total, pts);
    (g, total)
}

/// Greedily merges reliable components via closest crossing pairs until
/// every node is reachable from node 0 (the documented substitution: real
/// deployments assume a connected reliable backbone).
fn repair_connectivity(g: &mut Digraph, total: &mut Digraph, pts: &[(f64, f64)]) {
    let n = pts.len();
    loop {
        let reach = traversal::reachable_set(g, NodeId(0));
        if reach.count() == n {
            break;
        }
        let mut best: Option<(usize, usize, f64)> = None;
        for u in reach.iter() {
            for v in 0..n {
                if !reach.contains(v) {
                    let d = d2(pts[u], pts[v]);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((u, v, d));
                    }
                }
            }
        }
        let (u, v, _) = best.expect("disconnected graph has a crossing pair"); // analyzer: allow(panic, reason = "invariant: disconnected graph has a crossing pair")
        g.add_undirected_edge(NodeId::from_index(u), NodeId::from_index(v));
        total.add_undirected_edge(NodeId::from_index(u), NodeId::from_index(v));
    }
}

// ---------------------------------------------------------------------------
// Schedule generators: epoch-evolving dual graphs for the dynamics subsystem.
// ---------------------------------------------------------------------------

/// Parameters for [`churn_schedule`].
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Number of epochs in the schedule (≥ 1; epoch 0 is the base network).
    pub epochs: usize,
    /// Rounds each epoch covers (≥ 1).
    pub span: u64,
    /// Fraction of the unreliable-only edge set rewired per epoch step
    /// (`[0, 1]`).
    pub rewire_fraction: f64,
}

/// Edge churn: each epoch rewires a fraction of the **unreliable-only**
/// undirected pairs of `base` to fresh random non-pairs, while the
/// reliable spine `G` is held fixed (and therefore stays connected). The
/// unreliable edge *count* is preserved, so CSR-edge-indexed adversary
/// state (the bursty chains) stays well-formed across epochs — chains
/// follow edge slots, not edge identities (see `docs/DYNAMICS.md`).
///
/// Epoch 0 is `base` itself; epoch `i + 1` drifts from epoch `i`, so the
/// schedule is a random walk through topology space, not independent
/// resamples. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `base` is not undirected, `epochs == 0`, `span == 0`, or
/// `rewire_fraction` is outside `[0, 1]`.
pub fn churn_schedule(base: &DualGraph, params: ChurnParams, seed: u64) -> TopologySchedule {
    let ChurnParams {
        epochs,
        span,
        rewire_fraction,
    } = params;
    assert!(epochs >= 1, "churn_schedule requires at least one epoch");
    assert!(span >= 1, "churn_schedule requires span >= 1");
    assert!(
        (0.0..=1.0).contains(&rewire_fraction),
        "rewire_fraction must lie in [0, 1]"
    );
    assert!(
        base.is_undirected(),
        "churn_schedule rewires undirected pairs; base must be undirected"
    );
    let n = base.len();
    let reliable = Digraph::from_edges(n, base.reliable_csr().edges());
    let source = base.source();
    // The churned state: unreliable-only undirected pairs (u < v).
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for u in 0..n {
        for &v in base.unreliable_only_out(NodeId::from_index(u)) {
            if u < v.index() {
                pairs.push((u, v.index()));
            }
        }
    }
    let mut present: BTreeSet<(usize, usize)> = pairs.iter().copied().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let rewire = ((rewire_fraction * pairs.len() as f64).round() as usize).min(pairs.len());

    let mut epoch_list = Vec::with_capacity(epochs);
    epoch_list.push(Epoch::new(base.clone(), span));
    for _ in 1..epochs {
        // Pick `rewire` victims (partial Fisher-Yates), replace each with a
        // fresh random non-pair outside G and the current G′.
        for i in 0..rewire {
            let j = rng.gen_range(i..pairs.len());
            pairs.swap(i, j);
        }
        for i in 0..rewire {
            let old = pairs[i];
            // Bounded retry: on (near-)complete graphs a fresh pair may not
            // exist, in which case the old edge survives the epoch.
            let mut replacement = None;
            for _ in 0..64 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let (u, v) = if a < b { (a, b) } else { (b, a) };
                if u == v
                    || present.contains(&(u, v))
                    || reliable.has_edge(NodeId::from_index(u), NodeId::from_index(v))
                {
                    continue;
                }
                replacement = Some((u, v));
                break;
            }
            if let Some(fresh) = replacement {
                present.remove(&old);
                present.insert(fresh);
                pairs[i] = fresh;
            }
        }
        let mut total = reliable.clone();
        for &(u, v) in &pairs {
            total.add_undirected_edge(NodeId::from_index(u), NodeId::from_index(v));
        }
        let net = DualGraph::new(reliable.clone(), total, source)
            .expect("churn keeps the reliable spine, so every epoch validates"); // analyzer: allow(panic, reason = "invariant: churn keeps the reliable spine, so every epoch validates")
        epoch_list.push(Epoch::new(net, span));
    }
    TopologySchedule::new(epoch_list).expect("churn epochs share n and source") // analyzer: allow(panic, reason = "invariant: churn epochs share n and source")
}

/// Parameters for [`fading_schedule`].
#[derive(Debug, Clone, Copy)]
pub struct FadingParams {
    /// The fixed two-radius geometry (points, disk, annulus).
    pub geometry: GeometricDualParams,
    /// Probability that an annulus (gray-zone) pair exists in a given
    /// epoch's `G′`.
    pub gray_p: f64,
    /// Number of epochs (≥ 1).
    pub epochs: usize,
    /// Rounds each epoch covers (≥ 1).
    pub span: u64,
}

/// Gray-zone fading: node positions and the reliable disk graph are fixed
/// (connectivity-repaired once), while each epoch independently re-samples
/// **which annulus pairs exist** in `G′` — the long marginal links fade in
/// and out between epochs, the physical-layer picture of slow fading.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `epochs == 0`, `span == 0`, `gray_p` is outside `[0, 1]`, or
/// the geometry parameters are invalid (see [`geometric_dual`]).
pub fn fading_schedule(params: FadingParams, seed: u64) -> TopologySchedule {
    let FadingParams {
        geometry,
        gray_p,
        epochs,
        span,
    } = params;
    assert!(epochs >= 1, "fading_schedule requires at least one epoch");
    assert!(span >= 1, "fading_schedule requires span >= 1");
    assert!((0.0..=1.0).contains(&gray_p), "gray_p must lie in [0, 1]");
    assert!(geometry.n > 0, "fading_schedule requires n > 0");
    assert!(
        geometry.gray_radius >= geometry.reliable_radius,
        "gray_radius must be at least reliable_radius"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = random_points(geometry.n, &mut rng);
    let (g, full_total) = disk_graphs(&pts, geometry);
    // The fading candidates: annulus pairs (in the repaired total, not G).
    let mut gray_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for u in g.nodes() {
        for &v in full_total.out_neighbors(u) {
            if u < v && !g.has_edge(u, v) {
                gray_pairs.push((u, v));
            }
        }
    }
    let epoch_list = (0..epochs)
        .map(|_| {
            let mut total = g.clone();
            for &(u, v) in &gray_pairs {
                if rng.gen_bool(gray_p) {
                    total.add_undirected_edge(u, v);
                }
            }
            let net = DualGraph::new(g.clone(), total, NodeId(0))
                .expect("fading keeps the repaired reliable disk graph"); // analyzer: allow(panic, reason = "invariant: fading keeps the repaired reliable disk graph")
            Epoch::new(net, span)
        })
        .collect();
    // analyzer: allow(panic, reason = "invariant: fading epochs share n and source")
    TopologySchedule::new(epoch_list).expect("fading epochs share n and source")
}

/// Parameters for [`mobility_schedule`].
#[derive(Debug, Clone, Copy)]
pub struct MobilityParams {
    /// The two-radius geometry applied at every epoch.
    pub geometry: GeometricDualParams,
    /// Maximum per-coordinate displacement per epoch step (random walk,
    /// reflected at the unit-square boundary).
    pub step: f64,
    /// Number of epochs (≥ 1).
    pub epochs: usize,
    /// Rounds each epoch covers (≥ 1).
    pub span: u64,
}

/// Node mobility on the two-radius disk model: nodes perform a reflected
/// random walk in the unit square; each epoch freezes the current
/// positions into a [`geometric_dual`]-style snapshot (reliable disk +
/// gray annulus, reliable part connectivity-repaired). Deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics if `epochs == 0`, `span == 0`, `step < 0`, or the geometry
/// parameters are invalid (see [`geometric_dual`]).
pub fn mobility_schedule(params: MobilityParams, seed: u64) -> TopologySchedule {
    let MobilityParams {
        geometry,
        step,
        epochs,
        span,
    } = params;
    assert!(epochs >= 1, "mobility_schedule requires at least one epoch");
    assert!(span >= 1, "mobility_schedule requires span >= 1");
    assert!(step >= 0.0, "mobility step must be non-negative");
    assert!(geometry.n > 0, "mobility_schedule requires n > 0");
    assert!(
        geometry.gray_radius >= geometry.reliable_radius,
        "gray_radius must be at least reliable_radius"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pts = random_points(geometry.n, &mut rng);
    // Reflect `x + dx` into [0, 1].
    let reflect = |x: f64| -> f64 {
        let folded = x.rem_euclid(2.0);
        if folded > 1.0 {
            2.0 - folded
        } else {
            folded
        }
    };
    let mut epoch_list = Vec::with_capacity(epochs);
    for i in 0..epochs {
        if i > 0 && step > 0.0 {
            for p in pts.iter_mut() {
                p.0 = reflect(p.0 + rng.gen_range(-step..step));
                p.1 = reflect(p.1 + rng.gen_range(-step..step));
            }
        }
        let (g, total) = disk_graphs(&pts, geometry);
        let net = DualGraph::new(g, total, NodeId(0))
            .expect("repaired mobility snapshots always validate"); // analyzer: allow(panic, reason = "invariant: repaired mobility snapshots always validate")
        epoch_list.push(Epoch::new(net, span));
    }
    // analyzer: allow(panic, reason = "invariant: mobility epochs share n and source")
    TopologySchedule::new(epoch_list).expect("mobility epochs share n and source")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `G′`, rebuilt from the frozen rows.
    fn total(net: &DualGraph) -> Digraph {
        net.clone().into_parts().1
    }

    #[test]
    fn clique_bridge_shape() {
        for n in [3, 4, 8, 33] {
            let cb = clique_bridge(n);
            assert_eq!(cb.network.len(), n);
            assert!(cb.network.is_undirected());
            // Receiver touches only the bridge in G.
            assert_eq!(cb.network.reliable_csr().row(cb.receiver), &[cb.bridge]);
            // Clique: every non-receiver pair adjacent.
            for u in 0..n - 1 {
                for v in 0..n - 1 {
                    if u != v {
                        assert!(cb
                            .network
                            .reliable_csr()
                            .contains(NodeId::from_index(u), NodeId::from_index(v)));
                    }
                }
            }
            // G' complete.
            assert_eq!(total(&cb.network).edge_count(), n * (n - 1));
        }
    }

    #[test]
    fn clique_bridge_is_2_broadcastable_shape() {
        let cb = clique_bridge(10);
        assert_eq!(cb.network.source_eccentricity(), 2);
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn clique_bridge_too_small() {
        clique_bridge(2);
    }

    #[test]
    fn layered_pairs_shape() {
        let net = layered_pairs(9);
        assert_eq!(net.len(), 9);
        assert!(net.is_undirected());
        // Layers at distance k from source.
        assert_eq!(net.reliable_distances(), vec![0, 1, 1, 2, 2, 3, 3, 4, 4]);
        // Intra-layer edge.
        assert!(net.reliable_csr().contains(NodeId(3), NodeId(4)));
        // No skip edges in G.
        assert!(!net.reliable_csr().contains(NodeId(0), NodeId(3)));
        // But present in G'.
        assert!(total(&net).has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn layered_pairs_rejects_even() {
        layered_pairs(8);
    }

    #[test]
    fn layered_widths_shape() {
        let net = layered_widths(&[3, 1, 2]);
        assert_eq!(net.len(), 7);
        let d = net.reliable_distances();
        assert_eq!(d, vec![0, 1, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn line_and_chords() {
        let net = line(5, 1);
        assert!(net.is_classical());
        let net = line(5, 3);
        assert!(!net.is_classical());
        assert!(total(&net).has_edge(NodeId(0), NodeId(3)));
        assert!(!total(&net).has_edge(NodeId(0), NodeId(4)));
        assert_eq!(net.source_eccentricity(), 4);
    }

    #[test]
    fn ring_shape() {
        let net = ring(6, 2);
        assert_eq!(net.len(), 6);
        assert!(total(&net).has_edge(NodeId(0), NodeId(2)));
        assert!(!net.reliable_csr().contains(NodeId(0), NodeId(2)));
        assert_eq!(net.source_eccentricity(), 3);
    }

    #[test]
    fn star_and_complete() {
        let s = star(5);
        assert_eq!(s.source_eccentricity(), 1);
        assert_eq!(s.reliable_csr().edge_count(), 8);
        let c = complete(5);
        assert!(c.is_classical());
        assert_eq!(c.source_eccentricity(), 1);
    }

    #[test]
    fn grid_shape() {
        let net = grid(3, 2);
        assert_eq!(net.len(), 6);
        // 4-neighborhood reliable.
        assert!(net.reliable_csr().contains(NodeId(0), NodeId(1)));
        assert!(net.reliable_csr().contains(NodeId(0), NodeId(3)));
        // Diagonal unreliable.
        assert!(total(&net).has_edge(NodeId(0), NodeId(4)));
        assert!(!net.reliable_csr().contains(NodeId(0), NodeId(4)));
        assert_eq!(net.source_eccentricity(), 3);
    }

    #[test]
    fn binary_tree_shape() {
        let net = binary_tree(7, 2);
        assert_eq!(net.source_eccentricity(), 2);
        // Siblings are within 2 hops -> unreliable edge.
        assert!(total(&net).has_edge(NodeId(1), NodeId(2)));
        assert!(!net.reliable_csr().contains(NodeId(1), NodeId(2)));
    }

    #[test]
    fn er_dual_valid_and_deterministic() {
        let p = ErDualParams {
            n: 40,
            reliable_p: 0.05,
            unreliable_p: 0.2,
        };
        let a = er_dual(p, 7);
        let b = er_dual(p, 7);
        let c = er_dual(p, 8);
        assert_eq!(a.reliable_csr().edge_count(), b.reliable_csr().edge_count());
        assert_eq!(total(&a).edge_count(), total(&b).edge_count());
        // Different seeds almost surely differ at this size.
        assert!(
            total(&a).edge_count() != total(&c).edge_count()
                || a.reliable_csr().edge_count() != c.reliable_csr().edge_count()
        );
        assert!(a.is_undirected());
    }

    #[test]
    fn scale_dual_sparse_valid_and_deterministic() {
        let p = ScaleDualParams {
            n: 2000,
            chords_per_node: 1,
            extras_per_node: 1,
        };
        let a = scale_dual(p, 5);
        let b = scale_dual(p, 5);
        assert!(a.is_undirected());
        assert_eq!(a.reliable_csr(), b.reliable_csr());
        assert_eq!(total(&a), total(&b));
        // Sparse: Θ(n) edges, not Θ(n²).
        assert!(total(&a).edge_count() < 8 * p.n);
        assert!(a.unreliable_edge_count() > 0);
        // Small-world: diameter far below the ring's n/2.
        assert!(a.source_eccentricity() < 100);
        // Different seeds differ.
        let c = scale_dual(p, 6);
        assert!(total(&a) != total(&c));
    }

    #[test]
    fn scale_dual_degenerate_sizes() {
        let p = |n| ScaleDualParams {
            n,
            chords_per_node: 2,
            extras_per_node: 2,
        };
        assert_eq!(scale_dual(p(1), 0).len(), 1);
        let two = scale_dual(p(2), 0);
        assert_eq!(two.len(), 2);
        assert!(two.is_undirected());
    }

    #[test]
    fn geometric_dual_valid() {
        let p = GeometricDualParams {
            n: 50,
            reliable_radius: 0.18,
            gray_radius: 0.35,
        };
        let net = geometric_dual(p, 42);
        assert_eq!(net.len(), 50);
        assert!(net.is_undirected());
        // Validation implies source-connectivity; also gray edges exist.
        assert!(net.unreliable_edge_count() > 0);
    }

    #[test]
    fn geometric_dual_sparse_gets_repaired() {
        // Tiny radius: the repair loop must produce a connected G anyway.
        let p = GeometricDualParams {
            n: 30,
            reliable_radius: 0.01,
            gray_radius: 0.02,
        };
        let net = geometric_dual(p, 1);
        assert_eq!(net.len(), 30); // construction succeeded => connected
    }

    #[test]
    fn churn_keeps_spine_and_edge_count() {
        let base = er_dual(
            ErDualParams {
                n: 30,
                reliable_p: 0.08,
                unreliable_p: 0.2,
            },
            3,
        );
        let params = ChurnParams {
            epochs: 6,
            span: 10,
            rewire_fraction: 0.4,
        };
        let s = churn_schedule(&base, params, 9);
        assert_eq!(s.len(), 6);
        assert_eq!(s.total_rounds(), 60);
        // Epoch 0 is the base itself.
        assert_eq!(
            total(s.epoch(0).network()).edge_count(),
            total(&base).edge_count()
        );
        let mut drifted = false;
        for (i, e) in s.epochs().iter().enumerate() {
            let net = e.network();
            // Reliable spine held fixed.
            assert_eq!(net.reliable_csr(), base.reliable_csr(), "epoch {i}");
            // Unreliable-only *count* preserved (the CSR-chain contract).
            assert_eq!(
                net.unreliable_edge_count(),
                base.unreliable_edge_count(),
                "epoch {i}"
            );
            assert!(net.is_undirected());
            if total(net) != total(&base) {
                drifted = true;
            }
        }
        assert!(drifted, "rewiring never changed G'");
        // Deterministic in the seed.
        let again = churn_schedule(&base, params, 9);
        for (a, b) in s.epochs().iter().zip(again.epochs()) {
            assert_eq!(
                total(a.network()).edge_count(),
                total(b.network()).edge_count()
            );
            assert_eq!(total(a.network()), total(b.network()));
        }
        let other = churn_schedule(&base, params, 10);
        assert!(s
            .epochs()
            .iter()
            .zip(other.epochs())
            .skip(1)
            .any(|(a, b)| total(a.network()) != total(b.network())));
    }

    #[test]
    fn fading_resamples_only_the_gray_zone() {
        let s = fading_schedule(
            FadingParams {
                geometry: GeometricDualParams {
                    n: 40,
                    reliable_radius: 0.2,
                    gray_radius: 0.45,
                },
                gray_p: 0.5,
                epochs: 5,
                span: 7,
            },
            11,
        );
        assert_eq!(s.len(), 5);
        let g0 = s.epoch(0).network().reliable_csr().clone();
        let mut varied = false;
        for e in s.epochs() {
            assert_eq!(e.network().reliable_csr(), &g0, "reliable disk fixed");
            if total(e.network()) != total(s.epoch(0).network()) {
                varied = true;
            }
        }
        assert!(varied, "gray zone never faded");
    }

    #[test]
    fn mobility_walks_and_stays_valid() {
        let s = mobility_schedule(
            MobilityParams {
                geometry: GeometricDualParams {
                    n: 25,
                    reliable_radius: 0.25,
                    gray_radius: 0.4,
                },
                step: 0.1,
                epochs: 4,
                span: 12,
            },
            21,
        );
        assert_eq!(s.len(), 4);
        assert_eq!(s.node_count(), 25);
        // Positions move: the reliable graph must change at some epoch.
        assert!(s
            .epochs()
            .iter()
            .skip(1)
            .any(|e| e.network().reliable_csr() != s.epoch(0).network().reliable_csr()));
        // Every epoch validated at construction (source-connected G).
        for e in s.epochs() {
            assert_eq!(e.network().source(), NodeId(0));
        }
        // step = 0 degenerates to a frozen walk.
        let frozen = mobility_schedule(
            MobilityParams {
                geometry: GeometricDualParams {
                    n: 10,
                    reliable_radius: 0.3,
                    gray_radius: 0.4,
                },
                step: 0.0,
                epochs: 3,
                span: 1,
            },
            2,
        );
        for e in frozen.epochs() {
            assert_eq!(
                e.network().reliable_csr(),
                frozen.epoch(0).network().reliable_csr()
            );
        }
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn churn_rejects_directed_base() {
        let mut g = Digraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let net = DualGraph::new(g.clone(), g, NodeId(0)).unwrap();
        churn_schedule(
            &net,
            ChurnParams {
                epochs: 2,
                span: 1,
                rewire_fraction: 0.5,
            },
            0,
        );
    }
}
