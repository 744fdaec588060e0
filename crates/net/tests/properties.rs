//! Property-based tests for the graph substrate.

use dualgraph_net::{
    broadcastability, generators, traversal, Digraph, DualGraph, FixedBitSet, NodeId,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Adds `(u, v)`, and `(v, u)` too when `undirected`.
fn add(g: &mut Digraph, u: usize, v: usize, undirected: bool) {
    let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
    g.add_edge(u, v);
    if undirected {
        g.add_edge(v, u);
    }
}

/// A random valid `(G, G′, source)` on `n` nodes: a random `G`-tree rooted
/// at a random source, random extra `G` edges, and random `G′ ∖ G` edges.
fn random_dual(n: usize, undirected: bool, seed: u64) -> (Digraph, Digraph, NodeId) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let source = rng.gen_range(0..n);
    let at = |i: usize| (i + source) % n;
    let mut g = Digraph::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        add(&mut g, at(parent), at(i), undirected);
    }
    let mut random_edges = |g: &mut Digraph, count: usize| {
        for _ in 0..count {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                add(g, u, v, undirected);
            }
        }
    };
    random_edges(&mut g, n);
    let mut gp = g.clone();
    random_edges(&mut gp, 2 * n);
    (g, gp, NodeId::from_index(source))
}

/// Row `v` of the result lists every `u` with `(u, v)` in `edges`, which
/// come in lexicographic order, so each row is sorted.
fn in_rows(n: usize, edges: impl Iterator<Item = (NodeId, NodeId)>) -> Vec<Vec<NodeId>> {
    let mut rows = vec![Vec::new(); n];
    for (u, v) in edges {
        rows[v.index()].push(u);
    }
    rows
}

proptest! {
    /// Bitset membership agrees with a reference `Vec<bool>` model.
    #[test]
    fn bitset_matches_model(ops in prop::collection::vec((0usize..200, any::<bool>()), 0..300)) {
        let mut set = FixedBitSet::new(200);
        let mut model = [false; 200];
        for (idx, insert) in ops {
            if insert {
                set.insert(idx);
                model[idx] = true;
            } else {
                set.remove(idx);
                model[idx] = false;
            }
        }
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(set.contains(i), m);
        }
        prop_assert_eq!(set.count(), model.iter().filter(|&&b| b).count());
        let from_iter: Vec<usize> = set.iter().collect();
        let expected: Vec<usize> =
            model.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(from_iter, expected);
    }

    /// Union/intersection/difference agree with the model.
    #[test]
    fn bitset_ops_match_model(
        a in prop::collection::btree_set(0usize..128, 0..64),
        b in prop::collection::btree_set(0usize..128, 0..64),
    ) {
        let sa = FixedBitSet::from_indices(128, a.iter().copied());
        let sb = FixedBitSet::from_indices(128, b.iter().copied());

        let mut u = sa.clone();
        u.union_with(&sb);
        let expect: Vec<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), expect);

        let mut i = sa.clone();
        i.intersect_with(&sb);
        let expect: Vec<usize> = a.intersection(&b).copied().collect();
        prop_assert_eq!(i.iter().collect::<Vec<_>>(), expect);

        let mut d = sa.clone();
        d.difference_with(&sb);
        let expect: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), expect);

        prop_assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
        prop_assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(&b));
    }

    /// Digraphs built from arbitrary edge lists count their out-lists.
    #[test]
    fn digraph_edges_match_input(edges in prop::collection::vec((0u32..20, 0u32..20), 0..100)) {
        let clean: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        let g = Digraph::from_edges(20, clean.clone());
        let total_out: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(total_out, g.edge_count());
        // Edge membership matches the deduplicated input.
        for (u, v) in clean {
            prop_assert!(g.has_edge(u, v));
        }
    }

    /// er_dual always returns a valid network: E ⊆ E′ and source-connected.
    #[test]
    fn er_dual_always_valid(n in 2usize..40, rp in 0.0f64..0.3, up in 0.0f64..0.3, seed: u64) {
        let net = generators::er_dual(
            generators::ErDualParams { n, reliable_p: rp, unreliable_p: up },
            seed,
        );
        prop_assert_eq!(net.len(), n);
        let (g, gp, _) = net.clone().into_parts();
        prop_assert!(g.is_subgraph_of(&gp));
        prop_assert!(traversal::all_reachable_from(net.reliable_csr(), net.source()));
        prop_assert!(net.is_undirected());
    }

    /// geometric_dual always returns a valid, undirected, connected network.
    #[test]
    fn geometric_dual_always_valid(n in 2usize..40, r in 0.01f64..0.5, extra in 0.0f64..0.5, seed: u64) {
        let net = generators::geometric_dual(
            generators::GeometricDualParams {
                n,
                reliable_radius: r,
                gray_radius: r + extra,
            },
            seed,
        );
        let (g, gp, _) = net.clone().into_parts();
        prop_assert!(g.is_subgraph_of(&gp));
        prop_assert!(traversal::all_reachable_from(net.reliable_csr(), net.source()));
    }

    /// The greedy schedule really floods the graph: simulate it.
    #[test]
    fn greedy_schedule_floods(n in 2usize..30, rp in 0.0f64..0.2, seed: u64) {
        let net = generators::er_dual(
            generators::ErDualParams { n, reliable_p: rp, unreliable_p: 0.0 },
            seed,
        );
        let schedule = broadcastability::greedy_schedule(&net);
        let mut informed = FixedBitSet::new(n);
        informed.insert(net.source().index());
        for r in 0..schedule.len() {
            let sender = schedule.sender(r).unwrap();
            prop_assert!(informed.contains(sender.index()), "scheduled sender lacks message");
            for v in net.reliable_csr().row(sender) {
                informed.insert(v.index());
            }
        }
        prop_assert_eq!(informed.count(), n);
        // And it is never longer than n-1 (§3: every network is n-broadcastable).
        prop_assert!(schedule.len() < n.max(2));
    }

    /// Eccentricity lower bound never exceeds greedy upper bound.
    #[test]
    fn broadcastability_bounds_ordered(n in 2usize..30, seed: u64) {
        let net = generators::er_dual(
            generators::ErDualParams { n, reliable_p: 0.1, unreliable_p: 0.1 },
            seed,
        );
        prop_assert!(
            broadcastability::broadcastability_lower_bound(&net)
                <= broadcastability::broadcastability_upper_bound(&net)
        );
    }

    /// BFS distances satisfy the triangle property along edges.
    #[test]
    fn bfs_distances_tight_on_edges(n in 2usize..30, seed: u64) {
        let net = generators::er_dual(
            generators::ErDualParams { n, reliable_p: 0.15, unreliable_p: 0.0 },
            seed,
        );
        let d = traversal::bfs_distances(net.reliable_csr(), net.source());
        for (u, v) in net.reliable_csr().edges() {
            prop_assert!(d[v.index()] <= d[u.index()] + 1);
        }
    }

    /// Symmetric closure is symmetric and contains the original.
    #[test]
    fn symmetric_closure_properties(edges in prop::collection::vec((0u32..15, 0u32..15), 0..60)) {
        let clean: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        let g = Digraph::from_edges(15, clean);
        let c = g.symmetric_closure();
        prop_assert!(c.is_symmetric());
        prop_assert!(g.is_subgraph_of(&c));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The freeze keeps every input row: `G`'s rows, the `G′ ∖ G` rows, both
    /// transposes, the derived predicates and distances, and `into_parts`
    /// gives back the inputs.
    #[test]
    fn freeze_keeps_every_row(n in 1usize..24, undirected in any::<bool>(), seed: u64) {
        let (g, gp, s) = random_dual(n, undirected, seed);
        let net = DualGraph::new(g.clone(), gp.clone(), s).unwrap();
        prop_assert_eq!(net.len(), n);
        prop_assert_eq!(net.source(), s);
        prop_assert_eq!(net.nodes().collect::<Vec<_>>(), g.nodes().collect::<Vec<_>>());
        let extra: Vec<(NodeId, NodeId)> =
            gp.edges().filter(|&(u, v)| !g.has_edge(u, v)).collect();
        let g_in = in_rows(n, g.edges());
        let extra_in = in_rows(n, extra.iter().copied());
        for u in g.nodes() {
            prop_assert_eq!(net.reliable_csr().row(u), g.out_neighbors(u));
            let out: Vec<NodeId> =
                extra.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
            prop_assert_eq!(net.unreliable_only_out(u), &out[..]);
            prop_assert_eq!(net.unreliable_only_csr().row(u), &out[..]);
            prop_assert_eq!(net.reliable_in_csr().row(u), &g_in[u.index()][..]);
            prop_assert_eq!(net.unreliable_only_in_csr().row(u), &extra_in[u.index()][..]);
        }
        prop_assert_eq!(net.reliable_csr().edge_count(), g.edge_count());
        prop_assert_eq!(net.unreliable_edge_count(), extra.len());
        prop_assert_eq!(net.is_undirected(), g.is_symmetric() && gp.is_symmetric());
        prop_assert_eq!(net.is_classical(), g == gp);
        prop_assert_eq!(net.reliable_distances(), traversal::bfs_distances(&g, s));
        prop_assert_eq!(Some(net.source_eccentricity()), traversal::eccentricity(&g, s));
        prop_assert_eq!(net.into_parts(), (g, gp, s));
    }

    /// `==` on dual graphs is equality of `(G, G′, source)`.
    #[test]
    fn equality_is_input_equality(
        n in 1usize..8,
        undirected in any::<bool>(),
        a in 0u64..4,
        b in 0u64..4,
    ) {
        let (ga, gpa, sa) = random_dual(n, undirected, a);
        let (gb, gpb, sb) = random_dual(n, undirected, b);
        let same = (&ga, &gpa, sa) == (&gb, &gpb, sb);
        let net_a = DualGraph::new(ga.clone(), gpa.clone(), sa).unwrap();
        let net_b = DualGraph::new(gb, gpb, sb).unwrap();
        prop_assert_eq!(net_a == net_b, same);
        prop_assert!(net_a == DualGraph::new(ga.clone(), gpa.clone(), sa).unwrap());
        // Moving one `G′ ∖ G` edge into `G` keeps `G′` and changes `G`.
        if let Some((u, v)) = gpa.edges().find(|&(u, v)| !ga.has_edge(u, v)) {
            let mut g2 = ga.clone();
            g2.add_edge(u, v);
            prop_assert!(net_a != DualGraph::new(g2, gpa.clone(), sa).unwrap());
        }
        // Another source over the same graphs, where it reaches everything.
        let other = NodeId::from_index((sa.index() + 1) % n);
        if let Ok(moved) = DualGraph::new(ga, gpa, other) {
            prop_assert_eq!(net_a == moved, other == sa);
        }
    }
}

#[test]
fn classical_dualgraph_from_any_generator_is_classical() {
    let net = generators::line(12, 1);
    assert!(net.is_classical());
    let (g, gp, s) = net.into_parts();
    assert_eq!(g, gp);
    let rebuilt = DualGraph::classical(g, s).unwrap();
    assert!(rebuilt.is_classical());
}
