//! The synchronous-round executor.

use dualgraph_net::{DualGraph, FixedBitSet, NodeId, ShardPlan};

use crate::adversary::{Adversary, Assignment};
use crate::collision::{CollisionRule, Reception};
use crate::dynamics::NodeRole;
use crate::kernel::{Arena, ShardScratch, NONE};
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::PayloadSet;
use crate::process::{ActivationCause, Process};
use crate::slot::{ProcessSlot, ProcessTable};
use crate::trace::{NullSink, TraceEvent, TraceSink};

/// How executions begin (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartRule {
    /// Every process begins in round 1.
    Synchronous,
    /// A process activates the first time it receives a message (from the
    /// environment or another process). Collision notifications do not
    /// activate: the paper pairs asynchronous start with CR4, where
    /// non-senders never hear `⊤`.
    #[default]
    Asynchronous,
}

impl std::fmt::Display for StartRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartRule::Synchronous => write!(f, "synchronous start"),
            StartRule::Asynchronous => write!(f, "asynchronous start"),
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Collision rule in force.
    pub rule: CollisionRule,
    /// Start rule in force.
    pub start: StartRule,
    /// Identity of the broadcast payload delivered to the source.
    pub payload: PayloadId,
}

impl Default for ExecutorConfig {
    /// The paper's *upper-bound* setting: CR4, asynchronous start.
    fn default() -> Self {
        ExecutorConfig {
            rule: CollisionRule::Cr4,
            start: StartRule::Asynchronous,
            payload: PayloadId(0),
        }
    }
}

impl ExecutorConfig {
    /// The paper's *lower-bound* setting: CR1, synchronous start.
    pub fn lower_bound_setting() -> Self {
        ExecutorConfig {
            rule: CollisionRule::Cr1,
            start: StartRule::Synchronous,
            ..ExecutorConfig::default()
        }
    }
}

/// Error constructing an [`Executor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildExecutorError {
    /// Process count differs from the network's node count.
    ProcessCountMismatch {
        /// Number of processes supplied.
        processes: usize,
        /// Number of nodes in the network.
        nodes: usize,
    },
    /// Process ids are not exactly `0..n` in order.
    NonCanonicalIds {
        /// Index at which the id mismatch occurred.
        position: usize,
    },
    /// The adversary produced an assignment of the wrong size.
    BadAssignment,
}

impl std::fmt::Display for BuildExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildExecutorError::ProcessCountMismatch { processes, nodes } => write!(
                f,
                "got {processes} processes for a network of {nodes} nodes"
            ),
            BuildExecutorError::NonCanonicalIds { position } => write!(
                f,
                "process at position {position} does not carry id {position} (ids must be 0..n in order)"
            ),
            BuildExecutorError::BadAssignment => {
                write!(f, "adversary produced an assignment of the wrong size")
            }
        }
    }
}

impl std::error::Error for BuildExecutorError {}

/// Summary of one executed round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSummary {
    /// The global round that was executed (1-based).
    pub round: u64,
    /// Number of transmitting nodes.
    pub senders: usize,
    /// Nodes that received the payload for the first time this round.
    pub newly_informed: Vec<NodeId>,
    /// `true` once every node holds the payload.
    pub complete: bool,
}

/// Result of running a broadcast execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// `true` when every node received the payload.
    pub completed: bool,
    /// Round by whose end the last node was informed (`0` if `n = 1`).
    pub completion_round: Option<u64>,
    /// Total rounds executed (may exceed `completion_round` if the caller
    /// kept stepping).
    pub rounds_executed: u64,
    /// Per node: the global round at which it first received the payload
    /// (`Some(0)` for the source, which holds it before round 1).
    pub first_receive: Vec<Option<u64>>,
    /// Total transmissions.
    pub sends: u64,
    /// Rounds × nodes at which ≥ 2 messages physically arrived.
    pub physical_collisions: u64,
}

impl BroadcastOutcome {
    /// The broadcast latency: alias for `completion_round`.
    pub fn rounds(&self) -> Option<u64> {
        self.completion_round
    }
}

/// Drives an algorithm (one [`Process`] per node) against an
/// [`Adversary`] on a [`DualGraph`], one synchronous round at a time.
///
/// # Examples
///
/// ```
/// use dualgraph_net::generators;
/// use dualgraph_sim::{Executor, ExecutorConfig, ReliableOnly, SilentProcess};
///
/// let net = generators::complete(3);
/// let mut exec = Executor::from_slots(
///     &net,
///     SilentProcess::slots(3),
///     Box::new(ReliableOnly::new()),
///     ExecutorConfig::default(),
/// )?;
/// // Nobody transmits, so only the source is ever informed.
/// let outcome = exec.run_until_complete(10);
/// assert!(!outcome.completed);
/// assert_eq!(outcome.first_receive[0], Some(0));
/// # Ok::<(), dualgraph_sim::BuildExecutorError>(())
/// ```
pub struct Executor<'a> {
    pub(crate) network: &'a DualGraph,
    pub(crate) config: ExecutorConfig,
    pub(crate) adversary: Box<dyn Adversary>,
    /// Processes indexed by **node** (placed via the assignment). A
    /// homogeneous table dispatches on the automaton variant once per
    /// round; see [`ProcessTable`].
    pub(crate) procs: ProcessTable,
    pub(crate) assignment: Assignment,
    /// Global round from which the node's process may transmit.
    pub(crate) active_from: Vec<Option<u64>>,
    pub(crate) informed: FixedBitSet,
    pub(crate) first_receive: Vec<Option<u64>>,
    /// Per-node union of every payload delivered so far (environment
    /// inputs and receptions) — the multi-message subsystem's coverage
    /// record. Maintained unconditionally: the union is two ORs per
    /// receiving node per round, invisible next to collision resolution.
    pub(crate) known: Vec<PayloadSet>,
    /// The payload identities the **environment** introduced: the source's
    /// pre-round-1 seed plus every accepted [`Executor::inject`]. Only a
    /// reception carrying at least one of these flips the receiver's
    /// `informed` bit — spammer-fabricated junk pollutes known sets (it is
    /// physically received) but never counts as being informed, so
    /// broadcast completion cannot be spoofed by a faulty node. Junk whose
    /// id *collides* with a real payload is indistinguishable from it
    /// (payload identity is the content in this model) and does inform.
    pub(crate) real: PayloadSet,
    /// Per-node liveness/role mask (the dynamics subsystem): consulted by
    /// the batched dispatch loops and the collision-resolution sweep.
    /// All-[`NodeRole::Correct`] populations skip every mask check via
    /// `faulty_count == 0`.
    pub(crate) roles: Vec<NodeRole>,
    /// Per-node standing fault transmission (jammer noise / spammer junk),
    /// derived from `roles` by [`Executor::set_role`].
    pub(crate) standing_tx: Vec<Option<Message>>,
    /// Number of nodes whose role is not [`NodeRole::Correct`].
    pub(crate) faulty_count: usize,
    /// Number of nodes whose role is Byzantine ([`NodeRole::Equivocator`]
    /// / [`NodeRole::Forger`]) — senders whose transmission *content* may
    /// differ per receiver. While zero (the common case), resolution reads
    /// every delivery straight out of `senders_buf` (one shared channel
    /// per sender); the per-receiver slow path is consulted only when
    /// this is positive, mirroring the `faulty_count == 0` fast path.
    pub(crate) byzantine_count: usize,
    pub(crate) round: u64,
    pub(crate) sends: u64,
    pub(crate) physical_collisions: u64,
    // ---- Reusable round scratch (allocation-free in steady state) ----
    /// This round's `(sender, message)` pairs, in node order.
    pub(crate) senders_buf: Vec<(NodeId, Message)>,
    /// Per node: this round's index into `senders_buf`, or `NONE`. A
    /// sender's own message is `senders_buf[own_idx[v]].1`.
    pub(crate) own_idx: Vec<u32>,
    /// This round's resolved receptions, indexed by node.
    pub(crate) receptions_buf: Vec<Reception>,
    /// `true` when the last round ran on one shard, so every non-silent
    /// entry of `receptions_buf` lies at a node of `arena.touched`: a
    /// sparse round resets only those.
    pub(crate) receptions_in_touched: bool,
    /// All adversary deliveries of the round, concatenated sender by
    /// sender: adversaries append their targets directly (see
    /// [`Adversary::unreliable_deliveries`]).
    pub(crate) extra_flat: Vec<NodeId>,
    /// Per-sender `(start, end)` ranges into `extra_flat` (parallel to
    /// `senders_buf`).
    pub(crate) extra_ranges: Vec<(u32, u32)>,
    /// Flat arena of reaching transmissions, stored as **indices into
    /// `senders_buf`** (4 bytes per delivery instead of a full `Message`)
    /// and bucketed by node: in a one-shard round each node's reaching
    /// set, in ascending sender order, plus the `touched` set of reached
    /// nodes; in a sharded round with an adversary called on the
    /// coordinator, its extras by receiver. Collision resolution reads at
    /// most one message per node; the only full materialization left is
    /// `cr4_scratch`, for the adversary's CR4 choice.
    pub(crate) arena: Arena,
    /// Reusable buffer materializing one node's reaching messages for
    /// [`Adversary::resolve_cr4`] (which, as a public API, still sees
    /// `&[Message]`, in ascending sender order).
    pub(crate) cr4_scratch: Vec<Message>,
    /// Per-shard round scratch: one entry, or one per shard of the plan a
    /// [`ShardedExecutor`][crate::ShardedExecutor] wrapped it with.
    pub(crate) shards: Vec<ShardScratch>,
}

impl<'a> Executor<'a> {
    /// Builds an executor: asks the adversary for the `proc` mapping,
    /// places processes on nodes, and performs pre-round-1 activations
    /// (environment input at the source; all processes under synchronous
    /// start).
    ///
    /// `slots` must be supplied in process-id order with ids `0..n`. A
    /// homogeneous vector of one built-in automaton gets the batched
    /// enum-dispatch fast path; any other `Process` runs as a
    /// [`ProcessSlot::Custom`] entry of a mixed table, behind its vtable.
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
        let table = ProcessTable::from_slots(slots);
        let n = network.len();
        if table.len() != n {
            return Err(BuildExecutorError::ProcessCountMismatch {
                processes: table.len(),
                nodes: n,
            });
        }
        for i in 0..n {
            if table.get(i).id() != ProcessId::from_index(i) {
                return Err(BuildExecutorError::NonCanonicalIds { position: i });
            }
        }
        let assignment = adversary.assign(network, n);
        if assignment.len() != n {
            return Err(BuildExecutorError::BadAssignment);
        }

        // Place processes on nodes: position `node` receives the process
        // `assignment.process_at(node)` (table input is in ProcessId order).
        let procs = table.place(&assignment);

        let mut exec = Executor {
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
            standing_tx: vec![None; n],
            faulty_count: 0,
            byzantine_count: 0,
            round: 0,
            sends: 0,
            physical_collisions: 0,
            senders_buf: Vec::new(),
            own_idx: vec![NONE; n],
            receptions_buf: Vec::with_capacity(n),
            receptions_in_touched: false,
            extra_flat: Vec::new(),
            extra_ranges: Vec::new(),
            arena: Arena::new(n),
            cr4_scratch: Vec::new(),
            shards: vec![ShardScratch::default()],
        };

        // Pre-round-1 activations.
        let src = network.source();
        let src_pid = exec.assignment.process_at(src);
        let input = Message::with_payload(src_pid, config.payload);
        exec.procs
            .activate(src.index(), ActivationCause::Input(input));
        exec.active_from[src.index()] = Some(1);
        exec.informed.insert(src.index());
        exec.first_receive[src.index()] = Some(0);
        exec.known[src.index()].insert(config.payload);

        if config.start == StartRule::Synchronous {
            for node in 0..n {
                if node != src.index() {
                    exec.procs.activate(node, ActivationCause::SynchronousStart);
                    exec.active_from[node] = Some(1);
                }
            }
        }
        Ok(exec)
    }

    /// The network under execution.
    pub fn network(&self) -> &DualGraph {
        self.network
    }

    /// Swaps the active topology snapshot mid-run — the epoch-switch
    /// primitive of the dynamics subsystem. O(1): only the CSR reference
    /// changes; processes, informed/known records, and every scratch
    /// buffer are reused, so the round path stays zero-alloc across
    /// epochs.
    ///
    /// The node set is fixed for the whole execution (processes were
    /// placed once); the designated source is only read at construction,
    /// so a [`TopologySchedule`][dualgraph_net::TopologySchedule] — which
    /// validates both — is the intended supplier of snapshots.
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

    /// Sets the liveness/role of `node` (the dynamics subsystem's fault
    /// primitive): crashed nodes neither send nor receive, jammers and
    /// spammers transmit their standing message every round and never
    /// receive. See [`NodeRole`] and `docs/DYNAMICS.md` for the exact
    /// semantics, [`FaultPlan`][crate::FaultPlan] +
    /// [`DynamicExecutor`][crate::DynamicExecutor] for timed plans.
    pub fn set_role(&mut self, node: NodeId, role: NodeRole) {
        let i = node.index();
        let prev = std::mem::replace(&mut self.roles[i], role);
        self.standing_tx[i] = role.standing_tx(self.assignment.process_at(node));
        match (prev.is_correct(), role.is_correct()) {
            (true, false) => self.faulty_count += 1,
            (false, true) => self.faulty_count -= 1,
            _ => {}
        }
        match (prev.is_byzantine(), role.is_byzantine()) {
            (false, true) => self.byzantine_count += 1,
            (true, false) => self.byzantine_count -= 1,
            _ => {}
        }
    }

    /// The current role of `node`.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.index()]
    }

    /// Per-node roles, indexed by node.
    pub fn roles(&self) -> &[NodeRole] {
        &self.roles
    }

    /// The configuration in force.
    pub fn config(&self) -> ExecutorConfig {
        self.config
    }

    /// The `proc` mapping in force.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Nodes currently holding the payload.
    pub fn informed_count(&self) -> usize {
        self.informed.count()
    }

    /// `true` when `node` holds the payload.
    pub fn is_informed(&self, node: NodeId) -> bool {
        self.informed.contains(node.index())
    }

    /// `true` when every node holds the payload.
    pub fn is_complete(&self) -> bool {
        self.informed.count() == self.network.len()
    }

    /// Per-node union of every payload delivered so far, indexed by node —
    /// the multi-message subsystem's coverage record ([`PayloadSet`]s over
    /// the dense payload universe).
    pub fn known_payloads(&self) -> &[PayloadSet] {
        &self.known
    }

    /// The payload identities the environment has introduced so far (the
    /// source seed plus accepted injections) — the set against which
    /// `informed` is judged (see [`Executor::inject`] and the spam-proof
    /// coverage contract in `docs/DYNAMICS.md`).
    pub fn real_payloads(&self) -> PayloadSet {
        self.real
    }

    /// Delivers environment input mid-execution: hands `payload` to the
    /// process at `node` — the multi-message subsystem's arrival hook
    /// (stream sources and the MAC layer's `bcast` both land here).
    ///
    /// A sleeping process (asynchronous start) is activated by the input,
    /// exactly like the pre-round-1 source: its first active round is the
    /// next one. An already-active process receives the payload through
    /// [`Process::on_input`]. Either way the payload joins the node's
    /// known set immediately.
    ///
    /// Call between rounds (or before round 1); the injected payload is
    /// transmittable from the next executed round.
    ///
    /// Injection into a node that is not currently [`NodeRole::Correct`]
    /// is **dropped** — a crashed (or jamming/spamming) radio cannot
    /// accept environment input: the known set, informed record, and
    /// process all stay untouched, and the method returns `false`. The
    /// environment does not retry; re-inject after recovery if the
    /// workload calls for it.
    pub fn inject(&mut self, node: NodeId, payload: PayloadId) -> bool {
        self.inject_traced(node, payload, &mut NullSink)
    }

    /// [`Executor::inject`] with an observability hook: emits one
    /// [`TraceEvent::Inject`] recording the admission decision (the event
    /// fires for dropped injections too, with `accepted: false` — exactly
    /// the silently-rejected case the `inject-discard` analyzer lint
    /// exists for). Guarded by [`TraceSink::ENABLED`]; the [`NullSink`]
    /// instantiation is what [`Executor::inject`] delegates to.
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
            Some(_) => self.procs.input(i, payload),
            None => {
                let pid = self.assignment.process_at(node);
                self.procs.activate(
                    i,
                    ActivationCause::Input(Message::with_payload(pid, payload)),
                );
                self.active_from[i] = Some(self.round + 1);
            }
        }
        true
    }

    /// Read access to the process currently at `node`.
    pub fn process_at(&self, node: NodeId) -> &dyn Process {
        self.procs.get(node.index())
    }

    /// `true` when the process table is homogeneous and the round loop
    /// uses the batched enum-dispatch fast path (diagnostic).
    pub fn uses_batched_dispatch(&self) -> bool {
        self.procs.is_batched()
    }

    /// Executes one round and reports what happened.
    ///
    /// Allocation-free in steady state: all round-local state lives in
    /// reusable buffers on the executor. Only `RoundSummary::newly_informed`
    /// (part of the return value) allocates.
    pub fn step(&mut self) -> RoundSummary {
        self.step_traced(&mut NullSink)
    }

    /// [`Executor::step`] with observability hooks: emits
    /// [`TraceEvent::RoundStart`], then one [`TraceEvent::Transmit`] per
    /// sender, then one [`TraceEvent::Reception`] /
    /// [`TraceEvent::Collision`] per non-silent node, each in ascending node
    /// order, from the round's merged buffers after the round. The round
    /// itself is the same code for every sink and every hook is guarded by
    /// [`TraceSink::ENABLED`], so the [`NullSink`] instantiation — which
    /// [`Executor::step`] delegates to — is the untraced round loop (the
    /// zero-overhead-when-off contract; see `docs/OBSERVABILITY.md`).
    ///
    /// The round runs on the one round kernel with a one-shard plan: every
    /// sweep inline, reaching sets built sender-side, and resolve and
    /// absorb visiting only the nodes some sender reached.
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        self.step_on(ShardPlan::new(self.network.len(), 1), sink)
    }

    /// Runs until broadcast completes or `max_rounds` have executed
    /// (counting rounds already executed), whichever first.
    pub fn run_until_complete(&mut self, max_rounds: u64) -> BroadcastOutcome {
        while !self.is_complete() && self.round < max_rounds {
            self.step();
        }
        self.outcome()
    }

    /// Runs exactly `rounds` additional rounds (does not stop early).
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// The outcome so far.
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

impl Clone for Executor<'_> {
    /// Deep-copies the full mid-execution state, scratch buffers included,
    /// so a clone continues identically *and* at identical cost (the
    /// original implementation re-created empty buffers, silently handing
    /// the clone a cold start of re-growth allocations).
    fn clone(&self) -> Self {
        Executor {
            network: self.network,
            config: self.config,
            adversary: self.adversary.clone(),
            procs: self.procs.clone(),
            assignment: self.assignment.clone(),
            active_from: self.active_from.clone(),
            informed: self.informed.clone(),
            first_receive: self.first_receive.clone(),
            known: self.known.clone(),
            real: self.real,
            roles: self.roles.clone(),
            standing_tx: self.standing_tx.clone(),
            faulty_count: self.faulty_count,
            byzantine_count: self.byzantine_count,
            round: self.round,
            sends: self.sends,
            physical_collisions: self.physical_collisions,
            senders_buf: self.senders_buf.clone(),
            own_idx: self.own_idx.clone(),
            receptions_buf: self.receptions_buf.clone(),
            receptions_in_touched: self.receptions_in_touched,
            extra_flat: self.extra_flat.clone(),
            extra_ranges: self.extra_ranges.clone(),
            arena: self.arena.clone(),
            cr4_scratch: self.cr4_scratch.clone(),
            shards: self.shards.clone(),
        }
    }
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Executor(round={}, informed={}/{}, rule={}, {})",
            self.round,
            self.informed_count(),
            self.network.len(),
            self.config.rule,
            self.config.start
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FullDelivery, ReliableOnly, WithAssignment};
    use crate::collision::CollisionRule;
    use crate::process::{Flooder, SilentProcess};
    use dualgraph_net::generators;

    #[test]
    fn source_informed_before_round_one() {
        let net = generators::line(3, 1);
        let exec = Executor::from_slots(
            &net,
            SilentProcess::slots(3),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.informed_count(), 1);
        assert!(exec.is_informed(NodeId(0)));
        assert_eq!(exec.round(), 0);
    }

    #[test]
    fn flooder_completes_line_in_diameter_rounds() {
        // A lone flooder chain: node i informs node i+1 in round i+1
        // (no collisions on a directed-line sweep? Actually node 1's send in
        // round 2 collides with node 0's at node 1's neighbors... check:
        // line 0-1-2-3; round 1: {0} sends, reaches {0,1}. round 2: {0,1}
        // send; at node 2 only 1's message arrives (0 not adjacent) => 2
        // informed. At node 1: messages from 0 => but node 1 is a sender;
        // CR4 sender hears itself. Node 0 hears 1's message. round 3: {0,1,2}
        // send; node 3 hears only 2 => informed.
        let net = generators::line(4, 1);
        let mut exec = Executor::from_slots(
            &net,
            Flooder::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let outcome = exec.run_until_complete(100);
        assert!(outcome.completed);
        assert_eq!(outcome.completion_round, Some(3));
        assert_eq!(
            outcome.first_receive,
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn collisions_stall_flooders_on_clique_under_cr1() {
        // On a complete graph >2 nodes: round 1 source informs everyone;
        // round 2 everyone sends => permanent collisions, but all informed.
        let net = generators::complete(4);
        let mut exec = Executor::from_slots(
            &net,
            Flooder::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig {
                rule: CollisionRule::Cr1,
                start: StartRule::Synchronous,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let outcome = exec.run_until_complete(10);
        assert!(outcome.completed);
        assert_eq!(outcome.completion_round, Some(1));
    }

    #[test]
    fn star_with_two_informed_leaves_collides_forever() {
        // Star with hub = source? Instead: hub source informs all leaves in
        // round 1; use a two-leaf star where leaves then collide at hub
        // forever: physical_collisions grows.
        let net = generators::star(3);
        let mut exec = Executor::from_slots(
            &net,
            Flooder::slots(3),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let outcome = exec.run_until_complete(5);
        assert!(outcome.completed);
        exec.run_rounds(3);
        let after = exec.outcome();
        assert!(after.physical_collisions > 0);
        assert_eq!(after.rounds_executed, outcome.rounds_executed + 3);
    }

    #[test]
    fn async_start_keeps_distant_processes_asleep() {
        let net = generators::line(4, 1);
        let mut exec = Executor::from_slots(
            &net,
            SilentProcess::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        exec.run_rounds(5);
        // Nobody transmits (silent processes), so nobody activates.
        assert_eq!(exec.informed_count(), 1);
    }

    #[test]
    fn unreliable_delivery_informs_beyond_g() {
        // Line 0-1-2 with chord (0,2) in G'. FullDelivery => round 1 informs
        // everyone directly from the source.
        let net = generators::line(3, 2);
        let mut exec = Executor::from_slots(
            &net,
            Flooder::slots(3),
            Box::new(FullDelivery::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let outcome = exec.run_until_complete(10);
        assert_eq!(outcome.completion_round, Some(1));
    }

    #[test]
    fn assignment_places_processes() {
        let net = generators::line(3, 1);
        // Put process 2 at the source node 0.
        let adv = WithAssignment::new(
            ReliableOnly::new(),
            vec![ProcessId(2), ProcessId(1), ProcessId(0)],
        )
        .unwrap();
        let exec = Executor::from_slots(
            &net,
            Flooder::slots(3),
            Box::new(adv),
            ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.process_at(NodeId(0)).id(), ProcessId(2));
        assert_eq!(exec.process_at(NodeId(2)).id(), ProcessId(0));
        assert!(exec.process_at(NodeId(0)).has_payload());
    }

    #[test]
    fn build_errors() {
        let net = generators::line(3, 1);
        let err = Executor::from_slots(
            &net,
            Flooder::slots(2),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            BuildExecutorError::ProcessCountMismatch { .. }
        ));

        let bad: Vec<ProcessSlot> = [1, 1, 2]
            .map(|i| ProcessSlot::Flooder(Flooder::new(ProcessId(i))))
            .into();
        let err = Executor::from_slots(
            &net,
            bad,
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            BuildExecutorError::NonCanonicalIds { position: 0 }
        ));
        assert!(err.to_string().contains("position 0"));

        // A valid permutation of the wrong length is an error, not a panic.
        let short = WithAssignment::new(ReliableOnly::new(), vec![ProcessId(1), ProcessId(0)])
            .expect("a permutation of 0..2");
        let err = Executor::from_slots(
            &net,
            Flooder::slots(3),
            Box::new(short),
            ExecutorConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, BuildExecutorError::BadAssignment);
    }

    #[test]
    fn clone_mid_execution_continues_identically() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 20,
                reliable_p: 0.1,
                unreliable_p: 0.2,
            },
            5,
        );
        let mut a = Executor::from_slots(
            &net,
            Flooder::slots(20),
            Box::new(crate::adversary::RandomDelivery::new(0.5, 11)),
            ExecutorConfig::default(),
        )
        .unwrap();
        a.run_rounds(3);
        let mut b = a.clone();
        let oa = a.run_until_complete(500);
        let ob = b.run_until_complete(500);
        assert_eq!(oa, ob);
    }

    #[test]
    fn trace_records_rounds() {
        let net = generators::line(3, 1);
        let mut exec = Executor::from_slots(
            &net,
            Flooder::slots(3),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let mut events: Vec<TraceEvent> = Vec::new();
        while !exec.is_complete() && exec.round() < 10 {
            exec.step_traced(&mut events);
        }
        let starts: Vec<u64> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundStart { .. }))
            .map(TraceEvent::round)
            .collect();
        assert_eq!(starts, vec![1, 2]);
        // Round 1: the source alone transmits; it hears itself (CR4) and
        // its one neighbor hears it; node 2 hears nothing.
        let m = Message::with_payload(ProcessId(0), PayloadId(0));
        let round1: Vec<TraceEvent> = events.iter().copied().filter(|e| e.round() == 1).collect();
        assert_eq!(
            round1,
            vec![
                TraceEvent::RoundStart { round: 1 },
                TraceEvent::Transmit {
                    round: 1,
                    node: NodeId(0),
                    message: m,
                },
                TraceEvent::Reception {
                    round: 1,
                    node: NodeId(0),
                    message: m,
                },
                TraceEvent::Reception {
                    round: 1,
                    node: NodeId(1),
                    message: m,
                },
            ]
        );
    }

    #[test]
    fn outcome_before_completion() {
        let net = generators::line(5, 1);
        let mut exec = Executor::from_slots(
            &net,
            SilentProcess::slots(5),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let outcome = exec.run_until_complete(7);
        assert!(!outcome.completed);
        assert_eq!(outcome.completion_round, None);
        assert_eq!(outcome.rounds(), None);
        assert_eq!(outcome.rounds_executed, 7);
    }

    #[test]
    fn single_node_network_completes_instantly() {
        let net = generators::complete(1);
        let mut exec = Executor::from_slots(
            &net,
            SilentProcess::slots(1),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let outcome = exec.run_until_complete(10);
        assert!(outcome.completed);
        assert_eq!(outcome.completion_round, Some(0));
        assert_eq!(outcome.rounds_executed, 0);
    }

    #[test]
    fn known_payloads_track_deliveries() {
        let net = generators::line(3, 1);
        let mut exec = Executor::from_slots(
            &net,
            Flooder::slots(3),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let p0 = crate::PayloadSet::only(PayloadId(0));
        assert_eq!(exec.known_payloads()[0], p0, "source seeded");
        assert!(exec.known_payloads()[1].is_empty());
        exec.run_until_complete(10);
        assert!(exec.known_payloads().iter().all(|s| *s == p0));
    }

    #[test]
    fn inject_activates_sleepers_and_feeds_active_processes() {
        use crate::automata::PipelinedFlooder;
        let net = generators::line(4, 1);
        let mut exec = Executor::from_slots(
            &net,
            PipelinedFlooder::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        // Node 3 sleeps (async start): injection activates it like the
        // pre-round-1 source input.
        exec.inject(NodeId(3), PayloadId(2));
        assert!(exec.known_payloads()[3].contains(PayloadId(2)));
        assert!(exec.is_informed(NodeId(3)));
        let summary = exec.step();
        assert_eq!(summary.senders, 2, "source and the injected node 3");
        // Node 3 is now active: a second injection goes through on_input
        // and joins its transmission set.
        exec.inject(NodeId(3), PayloadId(5));
        assert!(exec.known_payloads()[3].contains(PayloadId(5)));
        exec.step();
        assert!(exec.known_payloads()[2].contains(PayloadId(2)), "3 -> 2");
        // Node 2 transmits from round 2 on and a sender only hears
        // itself (CR4): the later payload 5 cannot reach it — the
        // documented always-transmit pipelining limit.
        assert!(!exec.known_payloads()[2].contains(PayloadId(5)));
        // first_receive for the injected node reflects the injection round.
        assert_eq!(exec.outcome().first_receive[3], Some(0));
    }

    #[test]
    fn debug_formats() {
        let net = generators::line(3, 1);
        let exec = Executor::from_slots(
            &net,
            SilentProcess::slots(3),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let s = format!("{exec:?}");
        assert!(s.contains("informed=1/3"));
        assert!(s.contains("CR4"));
    }
}
