//! The naive reference executor: the differential-testing oracle.
//!
//! [`ReferenceExecutor`] is a deliberately simple, allocating round loop —
//! per-round `Vec`s, per-node `Vec<Vec<Message>>` reaching sets, linear-scan
//! `G′ ∖ G` membership checks — exactly the shape the optimized
//! [`Executor`][crate::Executor] replaced with a flat message arena.
//!
//! Its value is being *obviously correct* and structurally independent of
//! the optimized engine: the differential test (`tests/differential.rs`)
//! runs both on random topologies against the full adversary menu and
//! asserts identical behavior round for round. The `engine` series of
//! `experiments --bench` also times it to quantify the engine speedup.
//!
//! Both engines read the same frozen rows: `G` from
//! [`DualGraph::reliable_csr`] and `G′ ∖ G` from
//! [`DualGraph::unreliable_only_out`]. So the differential suites do not
//! check the freeze itself; `dualgraph-net`'s property test checks it
//! against the input [`Digraph`][dualgraph_net::Digraph]s
//! (`freeze_keeps_every_row` in `crates/net/tests/properties.rs`), and its
//! golden digests pin every generator's frozen rows
//! (`crates/net/tests/freeze_digest.rs`).
//!
//! Behavioral contract (both engines must agree exactly):
//!
//! * adversaries are consulted once per sender, in node order — seeded
//!   adversaries' RNG streams depend on that order;
//! * each node's reaching set is filled in sender node order, each sender
//!   contributing self, then `G` out-neighbors, then adversary extras —
//!   CR4 `Deliver(index)` resolutions depend on that order;
//! * collision resolution visits nodes in ascending order.

use dualgraph_net::{DualGraph, FixedBitSet, NodeId};

use crate::adversary::{Adversary, Assignment, RoundContext};
use crate::collision::{self, Reception};
use crate::dynamics::NodeRole;
use crate::engine::{
    BroadcastOutcome, BuildExecutorError, ExecutorConfig, RoundSummary, StartRule,
};
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::PayloadSet;
use crate::process::{ActivationCause, Process};
use crate::slot::ProcessSlot;
use crate::trace::{self, NullSink, TraceEvent, TraceSink};

/// The naive, allocating executor (see the module docs).
pub struct ReferenceExecutor<'a> {
    network: &'a DualGraph,
    config: ExecutorConfig,
    adversary: Box<dyn Adversary>,
    procs: Vec<Box<dyn Process>>,
    assignment: Assignment,
    active_from: Vec<Option<u64>>,
    informed: FixedBitSet,
    first_receive: Vec<Option<u64>>,
    known: Vec<PayloadSet>,
    /// Environment-introduced payload identities, mirroring the optimized
    /// engine's spam-proof informed contract (only receptions carrying a
    /// real payload inform).
    real: PayloadSet,
    /// Per-node liveness/role mask, mirroring
    /// [`Executor::set_role`][crate::Executor::set_role].
    roles: Vec<NodeRole>,
    round: u64,
    sends: u64,
    physical_collisions: u64,
}

impl<'a> ReferenceExecutor<'a> {
    /// Builds a reference executor; same contract as
    /// [`Executor::from_slots`][crate::Executor::from_slots]. Every slot is
    /// unwrapped into its boxed form: the oracle deliberately stays on
    /// fully virtual dispatch, structurally independent of the optimized
    /// engine's batched process table.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildExecutorError`] on process/network size mismatch,
    /// non-canonical ids, or a malformed adversary assignment.
    pub fn from_slots(
        network: &'a DualGraph,
        slots: Vec<ProcessSlot>,
        mut adversary: Box<dyn Adversary>,
        config: ExecutorConfig,
    ) -> Result<Self, BuildExecutorError> {
        let processes: Vec<Box<dyn Process>> =
            slots.into_iter().map(ProcessSlot::into_boxed).collect();
        let n = network.len();
        if processes.len() != n {
            return Err(BuildExecutorError::ProcessCountMismatch {
                processes: processes.len(),
                nodes: n,
            });
        }
        for (i, p) in processes.iter().enumerate() {
            if p.id() != ProcessId::from_index(i) {
                return Err(BuildExecutorError::NonCanonicalIds { position: i });
            }
        }
        let assignment = adversary.assign(network, n);
        if assignment.len() != n {
            return Err(BuildExecutorError::BadAssignment);
        }

        let mut staging: Vec<Option<Box<dyn Process>>> = processes.into_iter().map(Some).collect();
        let procs: Vec<Box<dyn Process>> = (0..n)
            .map(|node| {
                let pid = assignment.process_at(NodeId::from_index(node));
                staging[pid.index()]
                    .take()
                    .expect("assignment is a bijection") // analyzer: allow(panic, reason = "invariant: assignment is a bijection")
            })
            .collect();

        let mut exec = ReferenceExecutor {
            network,
            config,
            adversary,
            procs,
            assignment,
            active_from: vec![None; n],
            informed: FixedBitSet::new(n),
            first_receive: vec![None; n],
            known: vec![PayloadSet::EMPTY; n],
            real: PayloadSet::only(config.payload),
            roles: vec![NodeRole::Correct; n],
            round: 0,
            sends: 0,
            physical_collisions: 0,
        };

        let src = network.source();
        let src_pid = exec.assignment.process_at(src);
        let input = Message::with_payload(src_pid, config.payload);
        exec.procs[src.index()].on_activate(ActivationCause::Input(input));
        exec.active_from[src.index()] = Some(1);
        exec.informed.insert(src.index());
        exec.first_receive[src.index()] = Some(0);
        exec.known[src.index()].insert(config.payload);

        if config.start == StartRule::Synchronous {
            for node in 0..n {
                if node != src.index() {
                    exec.procs[node].on_activate(ActivationCause::SynchronousStart);
                    exec.active_from[node] = Some(1);
                }
            }
        }
        Ok(exec)
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// `true` when every node holds the payload.
    pub fn is_complete(&self) -> bool {
        self.informed.count() == self.network.len()
    }

    /// Per-node union of every payload delivered so far (same record as
    /// [`Executor::known_payloads`][crate::Executor::known_payloads]).
    pub fn known_payloads(&self) -> &[PayloadSet] {
        &self.known
    }

    /// Swaps the active topology snapshot, mirroring
    /// [`Executor::set_network`][crate::Executor::set_network].
    ///
    /// # Panics
    ///
    /// Panics if `network` has a different node count.
    pub fn set_network(&mut self, network: &'a DualGraph) {
        assert_eq!(
            network.len(),
            self.network.len(),
            "epoch node-count mismatch: the node set is fixed for the run"
        );
        self.network = network;
    }

    /// Sets the liveness/role of `node`, mirroring
    /// [`Executor::set_role`][crate::Executor::set_role].
    pub fn set_role(&mut self, node: NodeId, role: NodeRole) {
        self.roles[node.index()] = role;
    }

    /// Per-node roles, indexed by node.
    pub fn roles(&self) -> &[NodeRole] {
        &self.roles
    }

    /// Mid-run environment input, mirroring
    /// [`Executor::inject`][crate::Executor::inject] exactly (the stream
    /// differential suite drives both engines through the same injection
    /// schedule): dropped (returning `false`) when the node is not
    /// currently correct.
    pub fn inject(&mut self, node: NodeId, payload: PayloadId) -> bool {
        self.inject_traced(node, payload, &mut NullSink)
    }

    /// [`ReferenceExecutor::inject`] with the same observability hook as
    /// [`Executor::inject_traced`][crate::Executor::inject_traced]: one
    /// [`TraceEvent::Inject`] per call, recording the admission decision.
    pub fn inject_traced<S: TraceSink>(
        &mut self,
        node: NodeId,
        payload: PayloadId,
        sink: &mut S,
    ) -> bool {
        let i = node.index();
        if !self.roles[i].is_correct() {
            if S::ENABLED {
                sink.emit(TraceEvent::Inject {
                    round: self.round,
                    node,
                    payload,
                    accepted: false,
                });
            }
            return false;
        }
        if S::ENABLED {
            sink.emit(TraceEvent::Inject {
                round: self.round,
                node,
                payload,
                accepted: true,
            });
        }
        self.real.insert(payload);
        self.known[i].insert(payload);
        if self.informed.insert(i) {
            self.first_receive[i] = Some(self.round);
        }
        match self.active_from[i] {
            Some(_) => self.procs[i].on_input(payload),
            None => {
                let pid = self.assignment.process_at(node);
                self.procs[i]
                    .on_activate(ActivationCause::Input(Message::with_payload(pid, payload)));
                self.active_from[i] = Some(self.round + 1);
            }
        }
        true
    }

    /// Executes one round — allocating per-round and per-sender, on
    /// purpose.
    pub fn step(&mut self) -> RoundSummary {
        self.step_traced(&mut NullSink)
    }

    /// [`ReferenceExecutor::step`] with the same observability hooks, at
    /// the same emission points, as
    /// [`Executor::step_traced`][crate::Executor::step_traced]:
    /// `RoundStart`, then `Transmit` per sender in ascending node order,
    /// then `Reception`/`Collision` per non-silent node in ascending node
    /// order. Two engines replaying one workload therefore emit identical
    /// streams — the trace-equivalence differential suite and the
    /// `trace-diff` tool both rest on this.
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        let t = self.round + 1;
        let n = self.network.len();
        if S::ENABLED {
            sink.emit(TraceEvent::RoundStart { round: t });
        }

        // Phase 1: send decisions. Faulty nodes follow the role mask:
        // crashed nodes are skipped (frozen automata are not polled),
        // jammers/spammers transmit their standing message in node order.
        let mut senders: Vec<(NodeId, Message)> = Vec::new();
        for node in 0..n {
            match self.roles[node] {
                NodeRole::Correct => {}
                NodeRole::Crashed => continue,
                faulty => {
                    let pid = self.assignment.process_at(NodeId::from_index(node));
                    if let Some(mut msg) = faulty.standing_tx(pid) {
                        // A forger's minted ids ride along with its frozen
                        // known record (mirroring the batched sweep).
                        if matches!(faulty, NodeRole::Forger(_)) {
                            msg.payloads.union_with(self.known[node]);
                        }
                        senders.push((NodeId::from_index(node), msg));
                    }
                    continue;
                }
            }
            if let Some(from) = self.active_from[node] {
                if from <= t {
                    let local = t - from + 1;
                    if let Some(msg) = self.procs[node].transmit(local) {
                        senders.push((NodeId::from_index(node), msg));
                    }
                }
            }
        }
        self.sends += senders.len() as u64;
        if S::ENABLED {
            trace::emit_transmits(sink, t, &senders);
        }

        // Phase 2: adversary deliveries -> fresh per-node reaching sets.
        let mut reach: Vec<Vec<Message>> = (0..n).map(|_| Vec::new()).collect();
        let mut own: Vec<Option<Message>> = vec![None; n];
        {
            let ReferenceExecutor {
                network,
                adversary,
                assignment,
                informed,
                roles,
                ..
            } = self;
            let ctx = RoundContext {
                round: t,
                network,
                assignment,
                senders: &senders,
                informed,
            };
            for &(u, msg) in &senders {
                // Per-receiver transmission content: `senders` holds one
                // representative message per sender (what its `Transmit`
                // event carries); a Byzantine sender's actual content for
                // each receiver is derived from its role here. For every
                // other role `content_for` is the identity.
                let role = roles[u.index()];
                own[u.index()] = Some(msg);
                reach[u.index()].push(role.content_for(msg, u));
                for &v in network.reliable_csr().row(u) {
                    reach[v.index()].push(role.content_for(msg, v));
                }
                let mut extra = Vec::new();
                adversary.unreliable_deliveries(&ctx, u, &mut extra);
                for &v in &extra {
                    assert!(
                        network.unreliable_only_out(u).contains(&v),
                        "adversary delivered ({u}, {v}) outside G' \\ G"
                    );
                    reach[v.index()].push(role.content_for(msg, v));
                }
            }
        }

        // Phase 3: collision resolution per node.
        let mut receptions: Vec<Reception> = Vec::with_capacity(n);
        {
            let ReferenceExecutor {
                network,
                adversary,
                assignment,
                informed,
                config,
                physical_collisions,
                roles,
                ..
            } = self;
            let ctx = RoundContext {
                round: t,
                network,
                assignment,
                senders: &senders,
                informed,
            };
            for node in 0..n {
                // Faulty radios resolve to silence (no collision counted,
                // no CR4 draw) — mirroring the optimized engine.
                if !roles[node].is_correct() {
                    receptions.push(Reception::Silence);
                    continue;
                }
                let reaching = &reach[node];
                if reaching.len() >= 2 {
                    *physical_collisions += 1;
                }
                let reception = collision::resolve(
                    config.rule,
                    own[node].is_some(),
                    reaching,
                    own[node],
                    |msgs| adversary.resolve_cr4(&ctx, NodeId::from_index(node), msgs),
                );
                receptions.push(reception);
            }
        }

        if S::ENABLED {
            trace::emit_receptions(sink, t, &receptions);
        }

        // Phase 4: deliveries, activations, bookkeeping. Faulty nodes got
        // `Silence` above; skipping them here additionally keeps their
        // frozen automata from observing it.
        let mut newly_informed = Vec::new();
        for node in 0..n {
            if !self.roles[node].is_correct() {
                continue;
            }
            let reception = receptions[node];
            if let Some(m) = reception.message() {
                self.known[node].union_with(m.payloads);
            }
            // Spam-proof informed contract (mirrors the optimized engine):
            // only environment-introduced payloads inform.
            let got_payload = reception
                .message()
                .is_some_and(|m| m.payloads.intersects(self.real));
            match self.active_from[node] {
                // Silence is no reception: the automaton is not called.
                Some(_) if reception == Reception::Silence => {}
                Some(from) if from <= t => {
                    let local = t - from + 1;
                    self.procs[node].receive(local, reception);
                }
                _ => {
                    if let Reception::Message(m) = reception {
                        self.procs[node].on_activate(ActivationCause::Reception(m));
                        self.active_from[node] = Some(t + 1);
                    }
                }
            }
            if got_payload && self.informed.insert(node) {
                self.first_receive[node] = Some(t);
                newly_informed.push(NodeId::from_index(node));
            }
        }

        self.round = t;

        RoundSummary {
            round: t,
            senders: senders.len(),
            newly_informed,
            complete: self.is_complete(),
        }
    }

    /// Runs until broadcast completes or `max_rounds` have executed.
    pub fn run_until_complete(&mut self, max_rounds: u64) -> BroadcastOutcome {
        while !self.is_complete() && self.round < max_rounds {
            self.step();
        }
        self.outcome()
    }

    /// The outcome so far (same semantics as
    /// [`Executor::outcome`][crate::Executor::outcome]).
    pub fn outcome(&self) -> BroadcastOutcome {
        let completed = self.is_complete();
        BroadcastOutcome {
            completed,
            completion_round: if completed {
                Some(if self.network.len() == 1 {
                    0
                } else {
                    self.first_receive
                        .iter()
                        .map(|r| r.expect("complete => all received")) // analyzer: allow(panic, reason = "invariant: complete => all received")
                        .max()
                        .unwrap_or(0)
                })
            } else {
                None
            },
            rounds_executed: self.round,
            first_receive: self.first_receive.clone(),
            sends: self.sends,
            physical_collisions: self.physical_collisions,
        }
    }
}

impl std::fmt::Debug for ReferenceExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReferenceExecutor(round={}, informed={}/{})",
            self.round,
            self.informed.count(),
            self.network.len()
        )
    }
}
