//! Lemma 1 / Appendix A: dual graphs subsume explicit-interference models.
//!
//! An *explicit-interference* network is a pair `(G_T, G_I)` with
//! `G_T ⊆ G_I`: transmission edges convey messages, the extra interference
//! edges only cause collisions — a message arriving on a `G_I ∖ G_T` edge
//! can never be received. Lemma 1 states that any algorithm that broadcasts
//! in `T(n)` rounds on all dual graphs also does so on all
//! explicit-interference graphs, because a dual-graph adversary on
//! `(G = G_T, G′ = G_I)` can reproduce the explicit model's feedback
//! exactly: it deploys a `G_I`-only edge `{u, v}` (with `v` sending) only
//! when some `G_T`-neighbor of `u` transmits and `u` receives no message —
//! so the extra deliveries only ever create collisions that the explicit
//! model also had.
//!
//! This module provides the explicit-interference executor, the simulating
//! dual-graph adversary, and an equivalence checker that replays one
//! execution under both semantics and compares every reception.

use dualgraph_net::{Digraph, DualGraph, FixedBitSet, NodeId};
use dualgraph_sim::rng::splitmix64;
use dualgraph_sim::{
    ActivationCause, Adversary, BroadcastOutcome, CollisionRule, Cr4Resolution, Executor,
    ExecutorConfig, Message, PayloadId, Process, ProcessSlot, Reception, RoundContext, StartRule,
    TraceEvent,
};

/// Error building an [`InterferenceNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildInterferenceError {
    /// Node counts differ between `G_T` and `G_I`.
    NodeCountMismatch,
    /// A transmission edge is missing from the interference graph
    /// (violates `G_T ⊆ G_I`).
    MissingTransmissionEdge {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// Some node is unreachable from the source in `G_T`.
    UnreachableNode {
        /// The unreachable node.
        node: NodeId,
    },
    /// Source index out of range.
    SourceOutOfRange,
}

impl std::fmt::Display for BuildInterferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildInterferenceError::NodeCountMismatch => {
                write!(f, "transmission and interference graphs differ in size")
            }
            BuildInterferenceError::MissingTransmissionEdge { from, to } => {
                write!(f, "transmission edge ({from}, {to}) missing from G_I")
            }
            BuildInterferenceError::UnreachableNode { node } => {
                write!(f, "node {node} unreachable from the source in G_T")
            }
            BuildInterferenceError::SourceOutOfRange => write!(f, "source out of range"),
        }
    }
}

impl std::error::Error for BuildInterferenceError {}

/// An explicit-interference network `(G_T, G_I)` with a designated source.
#[derive(Debug, Clone)]
pub struct InterferenceNetwork {
    transmission: Digraph,
    interference: Digraph,
    source: NodeId,
}

impl InterferenceNetwork {
    /// Validates and builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`BuildInterferenceError`] when `G_T ⊄ G_I`, sizes differ,
    /// or the source does not reach every node in `G_T`.
    pub fn new(
        transmission: Digraph,
        interference: Digraph,
        source: NodeId,
    ) -> Result<Self, BuildInterferenceError> {
        if transmission.node_count() != interference.node_count() {
            return Err(BuildInterferenceError::NodeCountMismatch);
        }
        if source.index() >= transmission.node_count() {
            return Err(BuildInterferenceError::SourceOutOfRange);
        }
        for (u, v) in transmission.edges() {
            if !interference.has_edge(u, v) {
                return Err(BuildInterferenceError::MissingTransmissionEdge { from: u, to: v });
            }
        }
        let dist = dualgraph_net::traversal::bfs_distances(&transmission, source);
        if let Some(i) = dist
            .iter()
            .position(|&d| d == dualgraph_net::traversal::UNREACHABLE)
        {
            return Err(BuildInterferenceError::UnreachableNode {
                node: NodeId::from_index(i),
            });
        }
        Ok(InterferenceNetwork {
            transmission,
            interference,
            source,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.transmission.node_count()
    }

    /// `true` when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The transmission graph `G_T`.
    pub fn transmission(&self) -> &Digraph {
        &self.transmission
    }

    /// The interference graph `G_I`.
    pub fn interference(&self) -> &Digraph {
        &self.interference
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The Lemma 1 mapping: the dual graph `(G = G_T, G′ = G_I)`.
    ///
    /// # Panics
    ///
    /// Never panics for a validated interference network.
    pub fn to_dual(&self) -> DualGraph {
        DualGraph::new(
            self.transmission.clone(),
            self.interference.clone(),
            self.source,
        )
        .expect("validated interference network maps to a valid dual graph") // analyzer: allow(panic, reason = "invariant: validated interference network maps to a valid dual graph")
    }
}

/// Deterministic CR4 tie-breaking shared by the two executions: hash of
/// `(seed, round, node)` picks silence (50%) or one receivable message.
#[derive(Debug, Clone, Copy)]
pub struct Cr4Policy {
    /// Hash seed.
    pub seed: u64,
}

impl Cr4Policy {
    /// Chooses among `candidates` receivable messages (may be 0).
    /// Returns `None` for silence.
    pub fn choose(&self, round: u64, node: NodeId, candidates: usize) -> Option<usize> {
        if candidates == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ splitmix64(round) ^ splitmix64(node.index() as u64 + 1));
        if h & 1 == 0 {
            None
        } else {
            Some(((h >> 1) as usize) % candidates)
        }
    }
}

/// Full record of an explicit-interference execution (used to drive and
/// check the simulating dual-graph adversary).
#[derive(Debug, Clone)]
pub struct ExplicitRun {
    /// Broadcast statistics.
    pub outcome: BroadcastOutcome,
    /// Per round: the transmitting nodes with their messages.
    pub senders: Vec<Vec<(NodeId, Message)>>,
    /// Per round: the reception at every node.
    pub receptions: Vec<Vec<Reception>>,
}

/// Runs `processes` on the explicit-interference network under the
/// appendix's semantics: `G_I` messages reach (and collide); only `G_T`
/// messages are receivable.
///
/// The `proc` assignment is the identity (the equivalence argument is
/// per-assignment; tests vary assignments by permuting processes).
///
/// # Panics
///
/// Panics if `processes.len() != network.len()`.
pub fn run_explicit(
    network: &InterferenceNetwork,
    mut processes: Vec<ProcessSlot>,
    rule: CollisionRule,
    start: StartRule,
    cr4: Cr4Policy,
    max_rounds: u64,
) -> ExplicitRun {
    let n = network.len();
    assert_eq!(processes.len(), n, "one process per node");
    let src = network.source().index();

    let mut active_from: Vec<Option<u64>> = vec![None; n];
    let mut informed = FixedBitSet::new(n);
    let mut first_receive: Vec<Option<u64>> = vec![None; n];
    let input = Message::with_payload(processes[src].id(), PayloadId(0));
    processes[src].on_activate(ActivationCause::Input(input));
    active_from[src] = Some(1);
    informed.insert(src);
    first_receive[src] = Some(0);
    if start == StartRule::Synchronous {
        for (i, p) in processes.iter_mut().enumerate() {
            if i != src {
                p.on_activate(ActivationCause::SynchronousStart);
                active_from[i] = Some(1);
            }
        }
    }

    let mut all_senders = Vec::new();
    let mut all_receptions = Vec::new();
    let mut sends = 0u64;
    let mut collisions = 0u64;
    let mut round = 0u64;
    while informed.count() < n && round < max_rounds {
        let t = round + 1;
        let mut senders: Vec<(NodeId, Message)> = Vec::new();
        for i in 0..n {
            if let Some(from) = active_from[i] {
                if from <= t {
                    if let Some(m) = processes[i].transmit(t - from + 1) {
                        senders.push((NodeId::from_index(i), m));
                    }
                }
            }
        }
        sends += senders.len() as u64;

        // Reaching sets: receivable (G_T) and interference-only messages.
        let mut receivable: Vec<Vec<Message>> = vec![Vec::new(); n];
        let mut interfering: Vec<usize> = vec![0; n];
        let mut own: Vec<Option<Message>> = vec![None; n];
        for &(u, m) in &senders {
            own[u.index()] = Some(m);
            for &v in network.interference.out_neighbors(u) {
                if network.transmission.has_edge(u, v) {
                    receivable[v.index()].push(m);
                } else {
                    interfering[v.index()] += 1;
                }
            }
        }

        let receptions: Vec<Reception> = (0..n)
            .map(|v| {
                let own_m = own[v];
                let sent = own_m.is_some();
                // Total reaching messages, own included for senders.
                let total = receivable[v].len() + interfering[v] + usize::from(sent);
                if total >= 2 {
                    collisions += 1;
                }
                if sent {
                    match rule {
                        CollisionRule::Cr1 => {
                            if total >= 2 {
                                Reception::Collision
                            } else {
                                // analyzer: allow(panic, reason = "invariant: sender has own message")
                                Reception::Message(own_m.expect("sender has own message"))
                            }
                        }
                        _ => Reception::Message(own_m.expect("sender has own message")), // analyzer: allow(panic, reason = "invariant: sender has own message")
                    }
                } else {
                    match total {
                        0 => Reception::Silence,
                        1 => match receivable[v].first() {
                            Some(&m) => Reception::Message(m),
                            None => Reception::Silence, // lone interference-only message
                        },
                        _ => match rule {
                            CollisionRule::Cr1 | CollisionRule::Cr2 => Reception::Collision,
                            CollisionRule::Cr3 => Reception::Silence,
                            CollisionRule::Cr4 => {
                                match cr4.choose(t, NodeId::from_index(v), receivable[v].len()) {
                                    Some(idx) => Reception::Message(receivable[v][idx]),
                                    None => Reception::Silence,
                                }
                            }
                        },
                    }
                }
            })
            .collect();

        for (v, reception) in receptions.iter().enumerate() {
            let got_payload = reception.message().is_some_and(|m| m.carries_payload());
            match active_from[v] {
                // Silence is no reception: the automaton is not called.
                Some(_) if *reception == Reception::Silence => {}
                Some(from) if from <= t => {
                    processes[v].receive(t - from + 1, *reception);
                }
                _ => {
                    if let Reception::Message(m) = reception {
                        processes[v].on_activate(ActivationCause::Reception(*m));
                        active_from[v] = Some(t + 1);
                    }
                }
            }
            if got_payload && informed.insert(v) {
                first_receive[v] = Some(t);
            }
        }

        all_senders.push(senders);
        all_receptions.push(receptions);
        round = t;
    }

    let completed = informed.count() == n;
    ExplicitRun {
        outcome: BroadcastOutcome {
            completed,
            completion_round: completed.then(|| {
                if n == 1 {
                    0
                } else {
                    // analyzer: allow(panic, reason = "invariant: guarded by completed, which means every node has a first-receive round")
                    first_receive.iter().map(|r| r.unwrap()).max().unwrap_or(0)
                }
            }),
            rounds_executed: round,
            first_receive,
            sends,
            physical_collisions: collisions,
        },
        senders: all_senders,
        receptions: all_receptions,
    }
}

/// The Lemma 1 simulating adversary: replays a recorded explicit run on
/// the dual graph `(G_T, G_I)`, scheduling exactly the interference edges
/// the proof prescribes and resolving CR4 to the recorded receptions.
#[derive(Debug, Clone)]
pub struct SimulatingAdversary {
    transmission: Digraph,
    /// Per round (1-based indexing into the vec by `round − 1`): nodes that
    /// received an actual message in the explicit run.
    received: Vec<FixedBitSet>,
    /// Recorded explicit receptions, for CR4 resolution.
    receptions: Vec<Vec<Reception>>,
}

impl SimulatingAdversary {
    /// Builds the adversary from a recorded explicit run.
    pub fn new(network: &InterferenceNetwork, run: &ExplicitRun) -> Self {
        let n = network.len();
        let received = run
            .receptions
            .iter()
            .map(|round| {
                FixedBitSet::from_indices(
                    n,
                    round
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| matches!(r, Reception::Message(_)))
                        .map(|(i, _)| i),
                )
            })
            .collect();
        SimulatingAdversary {
            transmission: network.transmission.clone(),
            received,
            receptions: run.receptions.clone(),
        }
    }
}

impl Adversary for SimulatingAdversary {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let Some(received) = self.received.get(ctx.round as usize - 1) else {
            return;
        };
        // Deploy {u, sender} ∈ G_I ∖ G_T iff: some G_T-in-neighbor of u
        // sends (condition 1), u receives no message in the explicit run
        // (condition 2); condition 3 (sender ∈ S) holds by construction.
        out.extend(
            ctx.network
                .unreliable_only_out(sender)
                .iter()
                .copied()
                .filter(|&u| {
                    let has_gt_sender = ctx
                        .senders
                        .iter()
                        .any(|&(w, _)| self.transmission.has_edge(w, u));
                    has_gt_sender && !received.contains(u.index())
                }),
        );
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        match self
            .receptions
            .get(ctx.round as usize - 1)
            .map(|r| r[node.index()])
        {
            Some(Reception::Message(m)) => {
                let idx = reaching
                    .iter()
                    .position(|&x| x == m)
                    .expect("recorded message must be among those reaching the node"); // analyzer: allow(panic, reason = "invariant: recorded message must be among those reaching the node")
                Cr4Resolution::Deliver(idx)
            }
            _ => Cr4Resolution::Silence,
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// Rounds compared.
    pub rounds: u64,
    /// `true` when every node received identical feedback every round.
    pub equivalent: bool,
    /// First `(round, node)` divergence, if any.
    pub first_divergence: Option<(u64, NodeId)>,
}

/// Lemma 1, executably: runs the algorithm on the explicit-interference
/// network, then replays it on the corresponding dual graph under the
/// simulating adversary, and verifies every process receives identical
/// feedback in every round.
///
/// # Panics
///
/// Panics if executor construction fails (mismatched process vectors).
pub fn check_equivalence(
    network: &InterferenceNetwork,
    make_processes: impl Fn() -> Vec<ProcessSlot>,
    rule: CollisionRule,
    start: StartRule,
    cr4_seed: u64,
    max_rounds: u64,
) -> EquivalenceReport {
    let explicit = run_explicit(
        network,
        make_processes(),
        rule,
        start,
        Cr4Policy { seed: cr4_seed },
        max_rounds,
    );
    let dual = network.to_dual();
    let adversary = SimulatingAdversary::new(network, &explicit);
    let mut exec = Executor::from_slots(
        &dual,
        make_processes(),
        Box::new(adversary),
        ExecutorConfig {
            rule,
            start,
            ..ExecutorConfig::default()
        },
    )
    .expect("dual executor construction"); // analyzer: allow(panic, reason = "invariant: dual executor construction")
    let rounds = explicit.outcome.rounds_executed;

    // Step the dual execution round by round, comparing each round's
    // receptions (whole messages, round tags included) as it goes. The
    // round's non-silent receptions come in ascending node order, so one
    // pass over the nodes matches them up.
    let mut events: Vec<TraceEvent> = Vec::new();
    for (r, expected) in explicit.receptions.iter().enumerate() {
        let round = r as u64 + 1;
        events.clear();
        exec.step_traced(&mut events);
        let mut heard = events.iter().filter_map(TraceEvent::heard).peekable();
        for (v, want) in expected.iter().enumerate() {
            let node = NodeId::from_index(v);
            let got = heard
                .next_if(|&(u, _)| u == node)
                .map_or(Reception::Silence, |(_, reception)| reception);
            if got != *want {
                return EquivalenceReport {
                    rounds,
                    equivalent: false,
                    first_divergence: Some((round, node)),
                };
            }
        }
    }
    EquivalenceReport {
        rounds,
        equivalent: true,
        first_divergence: None,
    }
}

/// Random explicit-interference network: spanning tree + extra `G_T` edges
/// with probability `p_t`, plus interference-only edges with probability
/// `p_i`. Undirected; deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n == 0` or probabilities are outside `[0, 1]`.
pub fn random_interference(n: usize, p_t: f64, p_i: f64, seed: u64) -> InterferenceNetwork {
    let dual = dualgraph_net::generators::er_dual(
        dualgraph_net::generators::ErDualParams {
            n,
            reliable_p: p_t,
            unreliable_p: p_i,
        },
        seed,
    );
    let (g, gp, s) = dual.into_parts();
    // analyzer: allow(panic, reason = "invariant: er_dual output is a valid interference network")
    InterferenceNetwork::new(g, gp, s).expect("er_dual output is a valid interference network")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BroadcastAlgorithm, Harmonic, RoundRobin, StrongSelect};
    use dualgraph_net::NodeId;

    fn tiny_network() -> InterferenceNetwork {
        // G_T: path 0-1-2; G_I adds interference edge {0, 2}.
        let mut gt = Digraph::new(3);
        gt.add_undirected_edge(NodeId(0), NodeId(1));
        gt.add_undirected_edge(NodeId(1), NodeId(2));
        let mut gi = gt.clone();
        gi.add_undirected_edge(NodeId(0), NodeId(2));
        InterferenceNetwork::new(gt, gi, NodeId(0)).unwrap()
    }

    #[test]
    fn validation_errors() {
        let g2 = Digraph::new(2);
        let g3 = Digraph::new(3);
        assert_eq!(
            InterferenceNetwork::new(g2.clone(), g3, NodeId(0)).unwrap_err(),
            BuildInterferenceError::NodeCountMismatch
        );
        let mut gt = Digraph::new(2);
        gt.add_undirected_edge(NodeId(0), NodeId(1));
        assert!(matches!(
            InterferenceNetwork::new(gt, Digraph::new(2), NodeId(0)).unwrap_err(),
            BuildInterferenceError::MissingTransmissionEdge { .. }
        ));
        assert_eq!(
            InterferenceNetwork::new(g2.clone(), g2, NodeId(0)).unwrap_err(),
            BuildInterferenceError::UnreachableNode { node: NodeId(1) }
        );
    }

    #[test]
    fn to_dual_preserves_structure() {
        let net = tiny_network();
        let dual = net.to_dual();
        assert_eq!(dual.len(), 3);
        assert_eq!(dual.unreliable_only_out(NodeId(0)), &[NodeId(2)]);
    }

    #[test]
    fn interference_only_message_is_never_received() {
        // Node 2's process transmits constantly (it is the "source" of a
        // different payload? keep it simple: make node 0 the source and let
        // round robin run; node 2's transmissions reach node 0 only as
        // interference).
        let net = tiny_network();
        let run = run_explicit(
            &net,
            RoundRobin::new().slots(3, 0),
            CollisionRule::Cr1,
            StartRule::Synchronous,
            Cr4Policy { seed: 1 },
            100,
        );
        assert!(run.outcome.completed);
        // Completion works through the G_T path despite the G_I edge.
        assert_eq!(run.outcome.first_receive[1], Some(1));
    }

    #[test]
    fn lone_interference_message_reads_as_silence() {
        // Directed chain 0 -> 1 -> 2 -> 3, plus 2 -> 0 interference only.
        // Round robin: process 2 fires alone in round 3; its message
        // reaches node 0 only via the interference edge, so node 0 must
        // hear ⊥ that round (the broadcast completes in the same round,
        // keeping round 3 inside the recorded execution).
        let mut gt = Digraph::new(4);
        gt.add_edge(NodeId(0), NodeId(1));
        gt.add_edge(NodeId(1), NodeId(2));
        gt.add_edge(NodeId(2), NodeId(3));
        let mut gi = gt.clone();
        gi.add_edge(NodeId(2), NodeId(0));
        let net = InterferenceNetwork::new(gt, gi, NodeId(0)).unwrap();
        let run = run_explicit(
            &net,
            RoundRobin::new().slots(4, 0),
            CollisionRule::Cr3,
            StartRule::Synchronous,
            Cr4Policy { seed: 1 },
            100,
        );
        assert!(run.outcome.completed);
        assert_eq!(run.outcome.completion_round, Some(3));
        let r3 = &run.receptions[2]; // round 3
        assert_eq!(r3[0], Reception::Silence, "lone interference message");
        assert_eq!(
            r3[3].message().map(|m| m.sender),
            Some(dualgraph_sim::ProcessId(2))
        );
    }

    #[test]
    fn equivalence_round_robin_all_rules() {
        let net = random_interference(14, 0.12, 0.2, 3);
        for rule in CollisionRule::ALL {
            let report = check_equivalence(
                &net,
                || RoundRobin::new().slots(14, 0),
                rule,
                StartRule::Synchronous,
                7,
                5_000,
            );
            assert!(report.equivalent, "{rule}: {:?}", report.first_divergence);
            assert!(report.rounds > 0);
        }
    }

    #[test]
    fn equivalence_strong_select_cr4_async() {
        let net = random_interference(12, 0.15, 0.25, 9);
        let report = check_equivalence(
            &net,
            || StrongSelect::new().slots(12, 0),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            11,
            200_000,
        );
        assert!(report.equivalent, "{:?}", report.first_divergence);
    }

    #[test]
    fn equivalence_harmonic_cr4() {
        let net = random_interference(12, 0.15, 0.25, 4);
        let report = check_equivalence(
            &net,
            || Harmonic::new().slots(12, 5),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            13,
            200_000,
        );
        assert!(report.equivalent, "{:?}", report.first_divergence);
    }

    #[test]
    fn cr4_policy_is_deterministic() {
        let p = Cr4Policy { seed: 5 };
        for round in 1..50 {
            for node in 0..10 {
                assert_eq!(
                    p.choose(round, NodeId(node), 3),
                    p.choose(round, NodeId(node), 3)
                );
            }
        }
        assert_eq!(p.choose(1, NodeId(0), 0), None);
    }
}
