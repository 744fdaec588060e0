//! Theorems 2 and 4 (§4): the clique-bridge lower bound.
//!
//! The network is [`dualgraph_net::generators::clique_bridge`]: an
//! `(n−1)`-clique `C` (containing the source `s` and a bridge `b`) plus a
//! receiver `r` attached only to `b`; `G′` is complete. It is
//! 2-broadcastable — `s` then `b`, each sending alone, inform everyone —
//! yet the adversary below forces every deterministic algorithm to run
//! longer than `n−3` rounds (Theorem 2), and caps any randomized
//! algorithm's success probability within `k` rounds at `k/(n−2)`
//! (Theorem 4).
//!
//! The adversary resolves communication nondeterminism by the three rules
//! from the proof of Theorem 2:
//!
//! 1. more than one sender → every message reaches every process (all hear
//!    `⊤` under CR1);
//! 2. a single sender at a node of `C ∖ {b}` → its message reaches exactly
//!    the processes in `C` (the receiver hears `⊥`);
//! 3. a single sender at `b` or at `r` → the message reaches everyone.
//!
//! The crux: the receiver learns nothing until the process at the *bridge*
//! sends **alone**, and the algorithm cannot know which process sits on the
//! bridge — the adversary picks the assignment `proc(b) = i` that the
//! algorithm isolates last.

use dualgraph_net::generators::{clique_bridge as gadget, CliqueBridge};
use dualgraph_net::{DualGraph, NodeId};
use dualgraph_sim::{
    Adversary, Assignment, CollisionRule, Executor, ExecutorConfig, Message, ProcessId,
    RoundContext, StartRule,
};

use crate::algorithms::BroadcastAlgorithm;
use crate::runner::RunConfig;

/// The §4 adversary for the clique-bridge network.
///
/// Fixes the `proc` mapping `proc(s) = 0`, `proc(r) = n−1`,
/// `proc(b) = bridge_process`, remaining ids ascending on the remaining
/// clique nodes; resolves deliveries by the three proof rules.
#[derive(Debug, Clone)]
pub struct CliqueBridgeAdversary {
    bridge_process: ProcessId,
    bridge_node: NodeId,
    receiver_node: NodeId,
}

impl CliqueBridgeAdversary {
    /// Creates the adversary that assigns `bridge_process` to the bridge of
    /// an `n`-node clique-bridge gadget.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `bridge_process` is the source (`0`) or the
    /// receiver (`n−1`) id.
    pub fn new(n: usize, bridge_process: ProcessId) -> Self {
        assert!(n >= 3, "clique-bridge requires n >= 3");
        assert!(
            bridge_process.index() >= 1 && bridge_process.index() <= n - 2,
            "bridge process must come from {{1, …, n−2}}"
        );
        CliqueBridgeAdversary {
            bridge_process,
            bridge_node: NodeId::from_index(n - 2),
            receiver_node: NodeId::from_index(n - 1),
        }
    }
}

impl Adversary for CliqueBridgeAdversary {
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        let n = n_processes;
        assert_eq!(network.len(), n);
        // proc(s)=0, proc(r)=n-1, proc(b)=bridge_process, rest ascending.
        let mut node_to_proc: Vec<Option<ProcessId>> = vec![None; n];
        node_to_proc[network.source().index()] = Some(ProcessId(0));
        node_to_proc[self.receiver_node.index()] = Some(ProcessId::from_index(n - 1));
        node_to_proc[self.bridge_node.index()] = Some(self.bridge_process);
        let mut rest: Vec<ProcessId> = (1..n - 1)
            .map(ProcessId::from_index)
            .filter(|&p| p != self.bridge_process)
            .collect();
        rest.reverse(); // pop() yields ascending ids
        let node_to_proc: Vec<ProcessId> = node_to_proc
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| rest.pop().expect("enough ids"))) // analyzer: allow(panic, reason = "invariant: enough ids")
            .collect();
        // analyzer: allow(panic, reason = "invariant: bridge assignment is a permutation")
        Assignment::from_node_to_proc(node_to_proc).expect("bridge assignment is a permutation")
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        if ctx.senders.len() > 1 || sender == self.receiver_node {
            // Rule 1: with several senders, every message reaches every
            // process. Rule 3 (receiver part): a lone sender at r reaches
            // everyone; r's only G-edge is to b, so the adversary supplies
            // the rest.
            out.extend_from_slice(ctx.network.unreliable_only_out(sender));
        }
        // Rule 2 and the bridge part of rule 3: G-edges already deliver
        // exactly the intended set (C for clique nodes, everyone for b).
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Result of a worst-case bridge-assignment search (Theorem 2).
#[derive(Debug, Clone)]
pub struct WorstCaseBridge {
    /// Completion round for each bridge-process choice `i ∈ 1..=n−2`
    /// (`None` = did not complete within the budget).
    pub per_bridge: Vec<(ProcessId, Option<u64>)>,
    /// The adversary's pick: the assignment maximizing completion time.
    pub worst: (ProcessId, Option<u64>),
}

impl WorstCaseBridge {
    /// The worst completion round, treating "did not finish" as the round
    /// budget (a lower bound on the true value).
    pub fn worst_rounds_or(&self, budget: u64) -> u64 {
        self.worst.1.unwrap_or(budget)
    }
}

/// Theorem 2 harness: runs `algorithm` on the `n`-node clique-bridge
/// gadget under CR1 + synchronous start, once per bridge assignment, and
/// reports the worst case.
///
/// For any deterministic algorithm the worst case must exceed `n−3` rounds.
///
/// # Panics
///
/// Panics if executor construction fails (inconsistent algorithm factory).
pub fn worst_case_bridge(
    algorithm: &dyn BroadcastAlgorithm,
    n: usize,
    max_rounds: u64,
) -> WorstCaseBridge {
    let CliqueBridge { network, .. } = gadget(n);
    let mut per_bridge = Vec::with_capacity(n - 2);
    for i in 1..=n - 2 {
        let pid = ProcessId::from_index(i);
        let outcome = run_once(&network, algorithm, pid, max_rounds, 0);
        per_bridge.push((pid, outcome));
    }
    let worst = *per_bridge
        .iter()
        .max_by_key(|(_, r)| r.map_or(u64::MAX, |v| v))
        .expect("n >= 3 gives at least one bridge choice"); // analyzer: allow(panic, reason = "invariant: n >= 3 gives at least one bridge choice")
    WorstCaseBridge { per_bridge, worst }
}

fn run_once(
    network: &DualGraph,
    algorithm: &dyn BroadcastAlgorithm,
    bridge: ProcessId,
    max_rounds: u64,
    seed: u64,
) -> Option<u64> {
    let adversary = CliqueBridgeAdversary::new(network.len(), bridge);
    // Enum-dispatched slots: the bridge search runs one execution per
    // candidate assignment, so the batched table speeds up the whole sweep.
    let mut exec = Executor::from_slots(
        network,
        algorithm.slots(network.len(), seed),
        Box::new(adversary),
        ExecutorConfig {
            rule: CollisionRule::Cr1,
            start: StartRule::Synchronous,
            ..ExecutorConfig::default()
        },
    )
    .expect("clique-bridge executor construction"); // analyzer: allow(panic, reason = "invariant: clique-bridge executor construction")
    let outcome = exec.run_until_complete(max_rounds);
    outcome.completion_round
}

/// Theorem 4 harness: Monte-Carlo estimate of the probability that
/// `algorithm` completes within `k` rounds, per bridge assignment, versus
/// the paper's `k/(n−2)` ceiling.
#[derive(Debug, Clone)]
pub struct SuccessProbability {
    /// Round budget `k`.
    pub k: u64,
    /// Trials per bridge assignment.
    pub trials: u64,
    /// Estimated `P(complete ≤ k)` for each bridge choice.
    pub per_bridge: Vec<(ProcessId, f64)>,
    /// The adversary's pick: the minimum estimate.
    pub min_success: f64,
    /// The Theorem 4 ceiling `k/(n−2)`.
    pub bound: f64,
}

/// Estimates success probabilities within `k` rounds on the `n`-node
/// gadget for every bridge assignment, `trials` runs each.
///
/// Theorem 4 predicts `min_success ≤ k/(n−2)` (up to sampling error) for
/// `1 ≤ k ≤ n−3`.
///
/// # Panics
///
/// Panics if `trials == 0` or `k == 0`.
pub fn success_probability_within(
    algorithm: &dyn BroadcastAlgorithm,
    n: usize,
    k: u64,
    trials: u64,
    config: RunConfig,
) -> SuccessProbability {
    assert!(trials > 0, "need at least one trial");
    assert!(k > 0, "round budget must be positive");
    let CliqueBridge { network, .. } = gadget(n);
    let mut per_bridge = Vec::with_capacity(n - 2);
    for i in 1..=n - 2 {
        let pid = ProcessId::from_index(i);
        let mut successes = 0u64;
        for t in 0..trials {
            let seed = dualgraph_sim::rng::derive_seed2(config.seed, i as u64, t);
            if run_once(&network, algorithm, pid, k, seed).is_some() {
                successes += 1;
            }
        }
        per_bridge.push((pid, successes as f64 / trials as f64));
    }
    let min_success = per_bridge
        .iter()
        .map(|&(_, p)| p)
        .fold(f64::INFINITY, f64::min);
    SuccessProbability {
        k,
        trials,
        per_bridge,
        min_success,
        bound: k as f64 / (n as f64 - 2.0),
    }
}

/// Checks the §4 delivery rules directly: with a lone clique sender the
/// receiver hears nothing, while a lone bridge sender reaches everyone.
/// Exposed for tests and the experiments binary.
pub fn rules_demo(n: usize) -> (bool, bool) {
    let CliqueBridge {
        network,
        bridge,
        receiver,
        ..
    } = gadget(n);
    let mut adv = CliqueBridgeAdversary::new(n, ProcessId(1));
    let assignment = adv.assign(&network, n);
    let informed = dualgraph_net::FixedBitSet::new(n);
    let senders = [(network.source(), Message::signal(ProcessId(0)))];
    let ctx = RoundContext {
        round: 1,
        network: &network,
        assignment: &assignment,
        senders: &senders,
        informed: &informed,
    };
    let mut chosen = Vec::new();
    adv.unreliable_deliveries(&ctx, network.source(), &mut chosen);
    let clique_sender_misses_receiver = chosen.is_empty();
    let senders = [(bridge, Message::signal(ProcessId(1)))];
    let ctx = RoundContext {
        round: 2,
        network: &network,
        assignment: &assignment,
        senders: &senders,
        informed: &informed,
    };
    // The bridge's G-neighbors are already everyone.
    chosen.clear();
    adv.unreliable_deliveries(&ctx, bridge, &mut chosen);
    let bridge_reaches_all = chosen.is_empty() && network.reliable_csr().contains(bridge, receiver);
    (clique_sender_misses_receiver, bridge_reaches_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Harmonic, RoundRobin, StrongSelect, Uniform};

    #[test]
    fn adversary_assignment_places_ids_as_in_the_proof() {
        let net = gadget(8).network;
        let mut adv = CliqueBridgeAdversary::new(8, ProcessId(3));
        let a = adv.assign(&net, 8);
        assert_eq!(a.process_at(NodeId(0)), ProcessId(0)); // source
        assert_eq!(a.process_at(NodeId(7)), ProcessId(7)); // receiver
        assert_eq!(a.process_at(NodeId(6)), ProcessId(3)); // bridge

        // Default rule: remaining ids ascending on remaining nodes.
        assert_eq!(a.process_at(NodeId(1)), ProcessId(1));
        assert_eq!(a.process_at(NodeId(2)), ProcessId(2));
        assert_eq!(a.process_at(NodeId(3)), ProcessId(4));
        assert_eq!(a.process_at(NodeId(4)), ProcessId(5));
        assert_eq!(a.process_at(NodeId(5)), ProcessId(6));
    }

    #[test]
    #[should_panic(expected = "bridge process")]
    fn rejects_source_as_bridge() {
        CliqueBridgeAdversary::new(8, ProcessId(0));
    }

    #[test]
    fn delivery_rules() {
        let (clique_private, bridge_public) = rules_demo(10);
        assert!(clique_private);
        assert!(bridge_public);
    }

    #[test]
    fn round_robin_hits_linear_worst_case() {
        // Round robin isolates process i at round i+1; the adversary puts
        // the bridge on the latest-firing id, n-2, so completion takes
        // n-1 rounds: the receiver gets the message in round n-1 > n-3.
        let n = 12;
        let result = worst_case_bridge(&RoundRobin::new(), n, 10_000);
        let worst = result.worst.1.expect("round robin completes");
        assert!(
            worst as usize > n - 3,
            "Theorem 2 violated: worst={worst} for n={n}"
        );
        assert_eq!(worst as usize, n - 1);
        assert_eq!(result.worst.0, ProcessId::from_index(n - 2));
        assert_eq!(result.worst_rounds_or(10_000), worst);
    }

    #[test]
    fn strong_select_also_bounded_below() {
        // Theorem 2 applies to EVERY deterministic algorithm.
        let n = 10;
        let result = worst_case_bridge(&StrongSelect::new(), n, 1_000_000);
        let worst = result.worst_rounds_or(1_000_000);
        assert!(
            worst as usize > n - 3,
            "Theorem 2 violated by strong select: worst={worst}"
        );
    }

    #[test]
    fn per_bridge_results_cover_all_choices() {
        let n = 9;
        let result = worst_case_bridge(&RoundRobin::new(), n, 10_000);
        assert_eq!(result.per_bridge.len(), n - 2);
        // Bridge id i fires at round i+1; completion = i+1.
        for &(pid, rounds) in &result.per_bridge {
            assert_eq!(rounds, Some(pid.0 as u64 + 1));
        }
    }

    #[test]
    fn theorem4_bound_holds_for_uniform() {
        // Uniform(0.5) on the clique: the probability that the bridge
        // (hidden among n-2 ids) sends alone within k rounds is small.
        let n = 12;
        let k = 4;
        let result = success_probability_within(
            &Uniform::new(0.5),
            n,
            k,
            40,
            RunConfig::lower_bound_setting(),
        );
        // Sampling slack: allow 2.5 standard errors (~0.08 at 40 trials).
        assert!(
            result.min_success <= result.bound + 0.2,
            "min_success={} bound={}",
            result.min_success,
            result.bound
        );
        assert_eq!(result.per_bridge.len(), n - 2);
    }

    #[test]
    fn theorem4_bound_holds_for_harmonic() {
        let n = 12;
        let k = 4;
        let result = success_probability_within(
            &Harmonic::new(),
            n,
            k,
            40,
            RunConfig::lower_bound_setting(),
        );
        assert!(
            result.min_success <= result.bound + 0.2,
            "min_success={} bound={}",
            result.min_success,
            result.bound
        );
    }
}
