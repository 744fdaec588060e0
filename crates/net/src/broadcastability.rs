//! `k`-broadcastability estimates (§3 of the paper).
//!
//! A network `(G, G′)` is *`k`-broadcastable* when some deterministic
//! algorithm and `proc` mapping deliver the broadcast within `k` rounds in
//! **every** execution (CR1, synchronous start) — intuitively, contention
//! can be resolved so the message flows in `k` rounds.
//!
//! Exact minimization is a set-cover-like problem; this module provides the
//! two bounds the paper uses:
//!
//! * **lower bound** — the source's eccentricity in `G` (§3: "the distance
//!   from the source to each other node in `G` must be at most `k`");
//! * **upper bound** — the length of a greedy *collision-free schedule*: one
//!   sender per round can never collide, and a single sender always reaches
//!   all its `G`-out-neighbors no matter what the adversary does, so the
//!   schedule length witnesses `k`-broadcastability.

use crate::bitset::FixedBitSet;
use crate::dual::DualGraph;
use crate::node::NodeId;

/// A witness that a network is `len()`-broadcastable: a sequence of single
/// senders that provably floods the message under any adversary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollisionFreeSchedule {
    rounds: Vec<NodeId>,
}

impl CollisionFreeSchedule {
    /// The sender of round `r` (0-based).
    pub fn sender(&self, r: usize) -> Option<NodeId> {
        self.rounds.get(r).copied()
    }

    /// Number of rounds in the schedule.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` for the trivial schedule on a single-node network.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The scheduled senders, in round order.
    pub fn senders(&self) -> &[NodeId] {
        &self.rounds
    }
}

/// Greedy collision-free schedule: each round, among nodes guaranteed to
/// hold the message, send the one whose reliable out-neighborhood covers the
/// most still-uncovered nodes.
///
/// The returned schedule's length is an **upper bound** on the least `k`
/// for which the network is `k`-broadcastable. On [`CliqueBridge`] gadgets
/// it finds the optimal 2-round schedule (source, then bridge).
///
/// [`CliqueBridge`]: crate::generators::CliqueBridge
///
/// # Examples
///
/// ```
/// use dualgraph_net::broadcastability;
///
/// let gadget = dualgraph_net::generators::clique_bridge(10);
/// let schedule = broadcastability::greedy_schedule(&gadget.network);
/// assert_eq!(schedule.len(), 2);
/// assert_eq!(schedule.sender(0), Some(gadget.source));
/// assert_eq!(schedule.sender(1), Some(gadget.bridge));
/// ```
pub fn greedy_schedule(network: &DualGraph) -> CollisionFreeSchedule {
    let n = network.len();
    let g = network.reliable_csr();
    let mut informed = FixedBitSet::new(n);
    informed.insert(network.source().index());
    let mut rounds = Vec::new();
    while informed.count() < n {
        let mut best: Option<(NodeId, usize)> = None;
        for u in informed.iter() {
            let u = NodeId::from_index(u);
            let gain = g
                .row(u)
                .iter()
                .filter(|v| !informed.contains(v.index()))
                .count();
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((u, gain));
            }
        }
        let (sender, gain) = best.expect("informed set is nonempty"); // analyzer: allow(panic, reason = "invariant: informed set is nonempty")
        assert!(
            gain > 0,
            "validated network must always admit progress (unreachable node?)"
        );
        for v in g.row(sender) {
            informed.insert(v.index());
        }
        rounds.push(sender);
    }
    CollisionFreeSchedule { rounds }
}

/// Lower bound on the least `k` such that the network is `k`-broadcastable:
/// the source's eccentricity in `G`.
pub fn broadcastability_lower_bound(network: &DualGraph) -> u32 {
    network.source_eccentricity()
}

/// Upper bound on the least `k` such that the network is `k`-broadcastable:
/// the greedy collision-free schedule length.
pub fn broadcastability_upper_bound(network: &DualGraph) -> u32 {
    greedy_schedule(network).len() as u32
}

/// `true` when the network is provably `k`-broadcastable (via the greedy
/// schedule witness). A `false` answer is inconclusive — the greedy schedule
/// is not optimal in general.
pub fn is_k_broadcastable(network: &DualGraph, k: u32) -> bool {
    broadcastability_upper_bound(network) <= k
}

/// The **exact** least `k` such that a single-sender schedule floods the
/// network in `k` rounds, by breadth-first search over informed-set
/// states.
///
/// Single-sender schedules are adversary-proof, so this equals the least
/// collision-free broadcast time; the true `k`-broadcastability optimum
/// could in principle be smaller by letting non-interfering senders share
/// a round, but on `G′`-dense networks (all the paper's gadgets) parallel
/// senders always collide somewhere, making this exact there too.
///
/// Complexity: `O(2^n · n)` states — intended for `n ≤ 20`.
///
/// # Panics
///
/// Panics if `n > 24` (state space too large) or `n == 0`.
///
/// # Examples
///
/// ```
/// use dualgraph_net::broadcastability::exact_single_sender_optimum;
///
/// let gadget = dualgraph_net::generators::clique_bridge(8);
/// assert_eq!(exact_single_sender_optimum(&gadget.network), 2);
/// ```
pub fn exact_single_sender_optimum(network: &DualGraph) -> u32 {
    let n = network.len();
    assert!(n >= 1, "network must be nonempty");
    assert!(
        n <= 24,
        "exact solver is exponential in n; use greedy_schedule beyond n = 24"
    );
    let g = network.reliable_csr();
    // Precompute each node's closed reliable out-neighborhood as a mask.
    let cover: Vec<u32> = (0..n)
        .map(|u| {
            let mut m = 1u32 << u;
            for v in g.row(NodeId::from_index(u)) {
                m |= 1 << v.index();
            }
            m
        })
        .collect();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let start: u32 = 1 << network.source().index();
    if start == full {
        return 0;
    }
    let mut dist = vec![u8::MAX; 1usize << n];
    dist[start as usize] = 0;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(state) = queue.pop_front() {
        let d = dist[state as usize];
        let mut senders = state;
        while senders != 0 {
            let u = senders.trailing_zeros() as usize;
            senders &= senders - 1;
            let next = state | cover[u];
            if next == full {
                return u32::from(d) + 1;
            }
            if dist[next as usize] == u8::MAX {
                dist[next as usize] = d + 1;
                queue.push_back(next);
            }
        }
    }
    unreachable!("validated networks are always floodable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn clique_bridge_is_2_broadcastable() {
        for n in [3, 5, 16, 41] {
            let cb = generators::clique_bridge(n);
            assert!(is_k_broadcastable(&cb.network, 2), "n={n}");
            assert_eq!(broadcastability_lower_bound(&cb.network), 2);
        }
    }

    #[test]
    fn line_needs_n_minus_1_rounds() {
        let net = generators::line(6, 1);
        let s = greedy_schedule(&net);
        assert_eq!(s.len(), 5);
        assert_eq!(
            s.senders(),
            (0..5).map(NodeId::from_index).collect::<Vec<_>>()
        );
        assert_eq!(broadcastability_lower_bound(&net), 5);
    }

    #[test]
    fn layered_pairs_schedule_matches_depth() {
        let net = generators::layered_pairs(9);
        // One sender per layer suffices: 0, then one node of each layer.
        let s = greedy_schedule(&net);
        assert_eq!(s.len() as u32, broadcastability_lower_bound(&net));
    }

    #[test]
    fn star_is_1_broadcastable() {
        let net = generators::star(7);
        assert!(is_k_broadcastable(&net, 1));
        assert_eq!(greedy_schedule(&net).senders(), &[NodeId(0)]);
    }

    #[test]
    fn single_node_trivial() {
        let net = generators::complete(1);
        let s = greedy_schedule(&net);
        assert!(s.is_empty());
        assert_eq!(s.sender(0), None);
        assert!(is_k_broadcastable(&net, 0));
    }

    #[test]
    fn exact_optimum_matches_structure() {
        // Clique-bridge: exactly 2 (source, then bridge).
        assert_eq!(
            exact_single_sender_optimum(&generators::clique_bridge(10).network),
            2
        );
        // Line: exactly n-1 (each node relays once).
        assert_eq!(exact_single_sender_optimum(&generators::line(7, 1)), 6);
        // Star: 1. Single node: 0.
        assert_eq!(exact_single_sender_optimum(&generators::star(6)), 1);
        assert_eq!(exact_single_sender_optimum(&generators::complete(1)), 0);
    }

    #[test]
    fn greedy_never_beats_exact_and_is_often_equal() {
        for seed in 0..8u64 {
            let net = generators::er_dual(
                generators::ErDualParams {
                    n: 12,
                    reliable_p: 0.15,
                    unreliable_p: 0.1,
                },
                seed,
            );
            let exact = exact_single_sender_optimum(&net);
            let greedy = broadcastability_upper_bound(&net);
            let lower = broadcastability_lower_bound(&net);
            assert!(exact <= greedy, "seed={seed}");
            assert!(lower <= exact, "seed={seed}");
        }
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn exact_solver_rejects_large_networks() {
        exact_single_sender_optimum(&generators::line(30, 1));
    }

    #[test]
    fn every_network_is_at_most_n_minus_1_broadcastable() {
        // §3: every network in which all nodes are reachable is
        // n-broadcastable; the greedy witness is even at most n-1 senders.
        for seed in 0..5 {
            let net = generators::er_dual(
                generators::ErDualParams {
                    n: 25,
                    reliable_p: 0.08,
                    unreliable_p: 0.1,
                },
                seed,
            );
            assert!(greedy_schedule(&net).len() < 25);
        }
    }
}
