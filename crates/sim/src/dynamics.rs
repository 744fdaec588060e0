//! The dynamics subsystem: node fault injection and the epoch-schedule
//! runner.
//!
//! The base engine executes one frozen `(G, G′)` with a fixed, always
//! correct node population. This module opens both axes the related work
//! motivates (dynamic networks with locally-bounded faulty nodes;
//! noisy/faulty receptions):
//!
//! * **Node faults** — every node carries a [`NodeRole`], consulted by the
//!   batched dispatch loops as a per-node liveness/role mask:
//!   - [`NodeRole::Crashed`] nodes neither send nor receive: their
//!     automaton is frozen (no `transmit` poll, no `receive`, no
//!     activation), their known-payload record stops growing, and
//!     [`Executor::inject`] into them is **dropped** (it returns `false`).
//!     On recovery the automaton resumes with its state intact; local
//!     round numbers keep counting wall-clock rounds through the outage.
//!   - [`NodeRole::Jammer`] nodes transmit a payload-free noise message
//!     **every round**, regardless of activation or automaton state, and
//!     never receive. The noise feeds the ordinary CR1–CR4 collision
//!     rules: a lone jammer message is received as a signal (and activates
//!     sleeping processes under asynchronous start — noise is a message),
//!     two reaching messages collide exactly as §2.1 prescribes.
//!   - [`NodeRole::Spammer`] nodes transmit a fixed junk payload set every
//!     round and never receive. Junk payloads are ids of the dense
//!     universe: receivers absorb them into their known sets (they are
//!     physically received), but junk **never marks a receiver
//!     *informed*** — the engine judges the informed bit against the
//!     environment-introduced payload set ([`Executor::real_payloads`]:
//!     the source seed plus accepted injections), so spammers cannot spoof
//!     broadcast completion. (A junk id that collides with a real payload
//!     id is indistinguishable from the payload itself — identity is the
//!     content in this model — and does inform.) Per-payload coverage via
//!     `known_payloads` remains the finest-grained record.
//!
//!   A [`FaultPlan`] is a timed list of role transitions (crash at round
//!   `r`, recover at `r′`, turn jammer/spammer), applied by the
//!   [`DynamicExecutor`] runner at the start of each round.
//!
//! * **Epoch-evolving topology** — a
//!   [`TopologySchedule`] is a sequence
//!   of frozen CSR snapshots with round spans. [`Executor::set_network`]
//!   swaps the active snapshot in O(1) (the CSR reference changes; every
//!   buffer is reused, so the round path stays zero-alloc), and
//!   [`DynamicExecutor`] performs the swap at epoch boundaries.
//!
//! A single-epoch schedule with an empty fault plan is **bit-identical**,
//! round for round, to the static engine — the dynamics differential
//! suite pins this, along with enum/boxed/reference agreement across
//! epoch switches × fault plans × CR1–CR4 × the adversary menu.
//!
//! Adversary interaction contract (see `docs/DYNAMICS.md`): adversaries
//! observe faulty nodes only through the round context (jammers appear as
//! senders; crashed nodes as permanently silent, uninformed targets).
//! Stateful per-edge adversaries keyed by CSR edge *position* (the bursty
//! chains) stay well-formed across epochs exactly when the schedule
//! preserves the `G′ ∖ G` edge count — which the churn generator does by
//! construction; fading/mobility schedules need the per-round backend or
//! a stateless adversary.

use dualgraph_net::{DualGraph, NodeId, TopologySchedule};

use crate::adversary::Adversary;
use crate::engine::{BroadcastOutcome, BuildExecutorError, Executor, ExecutorConfig, RoundSummary};
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::PayloadSet;
use crate::process::Process;
use crate::slot::ProcessSlot;
use crate::trace::{NullSink, TraceEvent, TraceSink};

/// A node's current liveness/role (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeRole {
    /// A correct node: runs its automaton normally.
    #[default]
    Correct,
    /// Fail-stopped: neither sends nor receives; automaton frozen.
    Crashed,
    /// Transmits payload-free noise every round; never receives.
    Jammer,
    /// Transmits the given junk payload set every round; never receives.
    Spammer(PayloadSet),
    /// **Byzantine**: transmits *different* payload sets to different
    /// receivers **in the same round** — even-indexed nodes hear `even`,
    /// odd-indexed nodes hear `odd` — breaking the single-shared-channel
    /// radio assumption. Never receives. See `docs/BYZANTINE.md` for the
    /// per-neighbor transmission contract.
    Equivocator {
        /// The payload set delivered to even-indexed receivers.
        even: PayloadSet,
        /// The payload set delivered to odd-indexed receivers.
        odd: PayloadSet,
    },
    /// **Byzantine**: mints the given payload ids — ids the environment
    /// never introduced — and relays them *as if genuine*, unioned with
    /// everything the node had heard before turning faulty (its frozen
    /// known record), so forged ids travel blended into real traffic.
    /// Never receives.
    Forger(PayloadSet),
}

impl NodeRole {
    /// `true` for [`NodeRole::Correct`].
    #[inline]
    pub fn is_correct(&self) -> bool {
        matches!(self, NodeRole::Correct)
    }

    /// `true` for the lying roles ([`NodeRole::Equivocator`],
    /// [`NodeRole::Forger`]) whose transmissions are not a single shared
    /// channel: their presence switches the engine onto the per-neighbor
    /// transmission-content path.
    #[inline]
    pub fn is_byzantine(&self) -> bool {
        matches!(self, NodeRole::Equivocator { .. } | NodeRole::Forger(_))
    }

    /// The message a faulty node transmits every round (`None` for
    /// correct and crashed nodes). For an equivocator this is the
    /// *representative* (the `even` face); the per-neighbor dispatch
    /// substitutes the `odd` face for odd-indexed receivers. A forger's
    /// standing message carries only the minted set; the dispatch loop
    /// unions the node's frozen known record in at transmit time.
    pub(crate) fn standing_tx(&self, sender: ProcessId) -> Option<Message> {
        match self {
            NodeRole::Correct | NodeRole::Crashed => None,
            NodeRole::Jammer => Some(Message::signal(sender)),
            NodeRole::Spammer(junk) => Some(Message::with_payloads(sender, *junk)),
            NodeRole::Equivocator { even, .. } => Some(Message::with_payloads(sender, *even)),
            NodeRole::Forger(mint) => Some(Message::with_payloads(sender, *mint)),
        }
    }

    /// The message this role's transmission delivers to `receiver`
    /// (`standing` is the role's representative standing message). Equal
    /// to `standing` for every role except [`NodeRole::Equivocator`],
    /// whose odd-indexed receivers hear the `odd` face — the one place
    /// the per-receiver content rule lives, shared by the optimized
    /// engine and the [`ReferenceExecutor`][crate::ReferenceExecutor].
    #[inline]
    pub fn content_for(&self, standing: Message, receiver: NodeId) -> Message {
        match self {
            NodeRole::Equivocator { even, odd } => {
                let face = if receiver.index().is_multiple_of(2) {
                    even
                } else {
                    odd
                };
                Message::with_payloads(standing.sender, *face)
            }
            _ => standing,
        }
    }
}

impl std::fmt::Display for NodeRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeRole::Correct => write!(f, "correct"),
            NodeRole::Crashed => write!(f, "crashed"),
            NodeRole::Jammer => write!(f, "jammer"),
            NodeRole::Spammer(junk) => write!(f, "spammer{junk}"),
            NodeRole::Equivocator { even, odd } => write!(f, "equivocator{even}/{odd}"),
            NodeRole::Forger(mint) => write!(f, "forger{mint}"),
        }
    }
}

/// Borrowed view of the engine's fault state, handed to the batched
/// dispatch loops (see [`ProcessTable::transmit_sweep`]).
///
/// [`ProcessTable::transmit_sweep`]: crate::ProcessTable::transmit_sweep
#[derive(Debug, Clone, Copy)]
pub struct FaultView<'f> {
    /// Per-node roles, indexed by node.
    pub roles: &'f [NodeRole],
    /// Per-node standing fault transmission (jammer noise / spammer
    /// junk / equivocator representative / forger mint), indexed by node;
    /// `None` for correct and crashed nodes.
    pub standing_tx: &'f [Option<Message>],
    /// Per-node known-payload records, indexed by node. [`NodeRole::Forger`]
    /// transmissions union the node's (frozen) known record into the
    /// minted set, so forged ids ride along with genuine traffic.
    pub known: &'f [PayloadSet],
}

/// One timed role transition of a [`FaultPlan`].
///
/// The event is in force from the start of round `round`: a node crashed
/// at round `r` does not participate in round `r`; a node recovered at
/// round `r′` participates in round `r′`. Round-0 events apply before
/// round 1 (and, under [`DynamicExecutor`], before any pre-round
/// injections after construction — note the executor's own pre-round-1
/// source seeding happens at construction and precedes every plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// First round the role is in force.
    pub round: u64,
    /// The affected node.
    pub node: NodeId,
    /// The role the node assumes.
    pub role: NodeRole,
}

/// A per-node timed fault plan: role transitions sorted by round
/// (stable, so same-round events apply in the order given).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: every node correct forever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events (sorted by round, stably).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.round);
        FaultPlan { events }
    }

    /// Appends a crash of `node` at `round` (builder style).
    pub fn crash(self, node: NodeId, round: u64) -> Self {
        self.with(node, round, NodeRole::Crashed)
    }

    /// Appends a recovery of `node` at `round` (builder style).
    pub fn recover(self, node: NodeId, round: u64) -> Self {
        self.with(node, round, NodeRole::Correct)
    }

    /// Turns `node` into a permanent jammer from `round` (builder style).
    pub fn jam(self, node: NodeId, round: u64) -> Self {
        self.with(node, round, NodeRole::Jammer)
    }

    /// Turns `node` into a spammer of `junk` from `round` (builder style).
    pub fn spam(self, node: NodeId, round: u64, junk: PayloadSet) -> Self {
        self.with(node, round, NodeRole::Spammer(junk))
    }

    /// Turns `node` into an equivocator from `round` (builder style):
    /// even-indexed receivers hear `even`, odd-indexed receivers hear
    /// `odd`, in the same round.
    pub fn equivocate(self, node: NodeId, round: u64, even: PayloadSet, odd: PayloadSet) -> Self {
        self.with(node, round, NodeRole::Equivocator { even, odd })
    }

    /// Turns `node` into a forger of `mint` from `round` (builder style):
    /// the minted ids are relayed as if genuine, unioned with the node's
    /// frozen known record.
    pub fn forge(self, node: NodeId, round: u64, mint: PayloadSet) -> Self {
        self.with(node, round, NodeRole::Forger(mint))
    }

    /// Appends an arbitrary role transition (builder style).
    pub fn with(mut self, node: NodeId, round: u64, role: NodeRole) -> Self {
        self.events.push(FaultEvent { round, node, role });
        self.events.sort_by_key(|e| e.round);
        self
    }

    /// The events, sorted by round.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` for the empty plan.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The one place the "what changes at round `t`?" decision lives: a
/// cursor over an (optional) [`TopologySchedule`] and a [`FaultPlan`]
/// that, advanced to each round in turn, yields the epoch snapshot to
/// swap in (if the boundary was crossed) and the fault events coming into
/// force. [`DynamicExecutor`] applies the answers to a raw [`Executor`];
/// the stream runner applies the identical answers through the MAC layer
/// — both drivers share this cursor, so they cannot drift.
#[derive(Debug, Clone)]
pub struct DynamicsCursor<'a> {
    schedule: Option<&'a TopologySchedule>,
    plan: FaultPlan,
    epoch: usize,
    next_fault: usize,
    cycle: bool,
    switches: u64,
}

impl<'a> DynamicsCursor<'a> {
    /// Builds a cursor; `schedule = None` means a static topology (only
    /// faults fire). `cycle` makes the schedule repeat from epoch 0 after
    /// its total span instead of tail-extending.
    pub fn new(schedule: Option<&'a TopologySchedule>, plan: FaultPlan, cycle: bool) -> Self {
        DynamicsCursor {
            schedule,
            plan,
            epoch: 0,
            next_fault: 0,
            cycle,
            switches: 0,
        }
    }

    /// Advances the cursor to (1-based) `round`: returns the network to
    /// swap in if an epoch boundary was crossed, plus the index range
    /// (into [`DynamicsCursor::events`]) of the fault events whose
    /// `round` has come into force since the previous call. Call with
    /// strictly increasing rounds (round 0 applies round-0 events).
    pub fn advance(&mut self, round: u64) -> (Option<&'a DualGraph>, std::ops::Range<usize>) {
        let mut swap = None;
        if let Some(s) = self.schedule {
            let idx = if self.cycle {
                s.epoch_index_cycling(round)
            } else {
                s.epoch_index_at(round)
            };
            if idx != self.epoch {
                self.epoch = idx;
                self.switches += 1;
                swap = Some(s.epoch(idx).network());
            }
        }
        let start = self.next_fault;
        let events = self.plan.events();
        while self.next_fault < events.len() && events[self.next_fault].round <= round {
            self.next_fault += 1;
        }
        (swap, start..self.next_fault)
    }

    /// Applies the round-0 state: advances the cursor to round 0 and
    /// feeds every round-0 fault event to `apply` (no epoch swap can
    /// occur — round 0 is always epoch 0). Every driver calls this once,
    /// right after construction and before any pre-round-1 injections, so
    /// an arrival at a node faulted "from the start" is dropped.
    pub fn apply_initial(&mut self, mut apply: impl FnMut(NodeId, NodeRole)) {
        let (swap, fired) = self.advance(0);
        debug_assert!(swap.is_none(), "round 0 is always epoch 0");
        let _ = swap;
        for i in fired {
            let e = self.events()[i];
            apply(e.node, e.role);
        }
    }

    /// The full (round-sorted) fault event list the ranges of
    /// [`DynamicsCursor::advance`] index into.
    pub fn events(&self) -> &[FaultEvent] {
        self.plan.events()
    }

    /// Index of the epoch currently in force.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Number of epoch swaps yielded so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

/// Drives an [`Executor`] through a [`TopologySchedule`] and a
/// [`FaultPlan`]: before each round it swaps the active epoch snapshot
/// (reusing every engine buffer) and applies the fault events that come
/// into force, then steps the engine. This is the *engine-level* dynamics
/// runner; the stream subsystem threads the same schedule through the MAC
/// layer (see `dualgraph_broadcast::stream`) — both share a
/// [`DynamicsCursor`].
///
/// # Examples
///
/// ```
/// use dualgraph_net::{generators, NodeId, TopologySchedule};
/// use dualgraph_sim::{DynamicExecutor, ExecutorConfig, FaultPlan, Flooder, ReliableOnly};
///
/// // A static single-epoch schedule behaves exactly like the plain engine;
/// // the fault plan crashes node 2 for rounds 2-4.
/// let schedule = TopologySchedule::single(generators::line(4, 1));
/// let plan = FaultPlan::none().crash(NodeId(2), 2).recover(NodeId(2), 5);
/// let mut exec = DynamicExecutor::from_slots(
///     &schedule,
///     Flooder::slots(4),
///     Box::new(ReliableOnly::new()),
///     ExecutorConfig::default(),
///     plan,
/// )?;
/// let outcome = exec.run_until_complete(20);
/// // The crash stalls the flood at node 2 until recovery.
/// assert_eq!(outcome.first_receive[2], Some(5));
/// # Ok::<(), dualgraph_sim::BuildExecutorError>(())
/// ```
pub struct DynamicExecutor<'a> {
    schedule: &'a TopologySchedule,
    exec: Executor<'a>,
    cursor: DynamicsCursor<'a>,
}

impl<'a> DynamicExecutor<'a> {
    /// Builds the runner from enum-dispatched slots on the schedule's
    /// epoch-0 network (same contract as [`Executor::from_slots`]).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildExecutorError`] from executor construction.
    pub fn from_slots(
        schedule: &'a TopologySchedule,
        slots: Vec<ProcessSlot>,
        adversary: Box<dyn Adversary>,
        config: ExecutorConfig,
        plan: FaultPlan,
    ) -> Result<Self, BuildExecutorError> {
        let exec = Executor::from_slots(schedule.epoch(0).network(), slots, adversary, config)?;
        Ok(Self::wrap(schedule, exec, plan))
    }

    /// Builds the runner from boxed processes (same contract as
    /// [`Executor::new`]).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildExecutorError`] from executor construction.
    pub fn new(
        schedule: &'a TopologySchedule,
        processes: Vec<Box<dyn Process>>,
        adversary: Box<dyn Adversary>,
        config: ExecutorConfig,
        plan: FaultPlan,
    ) -> Result<Self, BuildExecutorError> {
        let exec = Executor::new(schedule.epoch(0).network(), processes, adversary, config)?;
        Ok(Self::wrap(schedule, exec, plan))
    }

    fn wrap(schedule: &'a TopologySchedule, mut exec: Executor<'a>, plan: FaultPlan) -> Self {
        let mut cursor = DynamicsCursor::new(Some(schedule), plan, false);
        cursor.apply_initial(|node, role| exec.set_role(node, role));
        DynamicExecutor {
            schedule,
            exec,
            cursor,
        }
    }

    /// Makes the schedule repeat from epoch 0 after its total span
    /// (instead of tail-extending the last epoch) — steady-state churn
    /// for long runs and the dynamics bench.
    pub fn cycling(mut self, on: bool) -> Self {
        self.cursor.cycle = on;
        self
    }

    /// The schedule driving this runner.
    pub fn schedule(&self) -> &'a TopologySchedule {
        self.schedule
    }

    /// Index of the epoch currently in force.
    pub fn epoch(&self) -> usize {
        self.cursor.epoch()
    }

    /// Number of epoch swaps performed so far.
    pub fn epoch_switches(&self) -> u64 {
        self.cursor.switches()
    }

    /// Read access to the wrapped executor.
    pub fn executor(&self) -> &Executor<'a> {
        &self.exec
    }

    /// Unwraps the runner, returning the executor mid-execution.
    pub fn into_executor(self) -> Executor<'a> {
        self.exec
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.exec.round()
    }

    /// `true` when every node holds the payload.
    pub fn is_complete(&self) -> bool {
        self.exec.is_complete()
    }

    /// Delivers environment input (see [`Executor::inject`]); dropped
    /// (returns `false`) when the node is not currently correct.
    pub fn inject(&mut self, node: NodeId, payload: PayloadId) -> bool {
        self.exec.inject(node, payload)
    }

    /// [`DynamicExecutor::inject`] with trace hooks (see
    /// [`Executor::inject_traced`]).
    pub fn inject_traced<S: TraceSink>(
        &mut self,
        node: NodeId,
        payload: PayloadId,
        sink: &mut S,
    ) -> bool {
        self.exec.inject_traced(node, payload, sink)
    }

    /// Swaps epochs and applies due fault events, then executes one round.
    pub fn step(&mut self) -> RoundSummary {
        self.step_traced(&mut NullSink)
    }

    /// [`DynamicExecutor::step`] with trace hooks: an epoch swap emits
    /// [`TraceEvent::EpochSwitch`], each fired fault-plan event emits
    /// [`TraceEvent::Fault`], and the wrapped round runs traced (see
    /// [`Executor::step_traced`]).
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        let t = self.exec.round() + 1;
        let (swap, fired) = self.cursor.advance(t);
        if let Some(net) = swap {
            self.exec.set_network(net);
            if S::ENABLED {
                sink.emit(TraceEvent::EpochSwitch {
                    round: t,
                    epoch: self.cursor.epoch() as u32,
                });
            }
        }
        for i in fired {
            let e = self.cursor.events()[i];
            self.exec.set_role(e.node, e.role);
            if S::ENABLED {
                sink.emit(TraceEvent::Fault {
                    round: t,
                    node: e.node,
                    role: e.role.into(),
                });
            }
        }
        self.exec.step_traced(sink)
    }

    /// Runs until broadcast completes or `max_rounds` have executed.
    pub fn run_until_complete(&mut self, max_rounds: u64) -> BroadcastOutcome {
        while !self.exec.is_complete() && self.exec.round() < max_rounds {
            self.step();
        }
        self.exec.outcome()
    }

    /// Runs exactly `rounds` additional rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// The outcome so far (see [`Executor::outcome`]).
    pub fn outcome(&self) -> BroadcastOutcome {
        self.exec.outcome()
    }
}

impl Clone for DynamicExecutor<'_> {
    /// Deep-copies the full mid-execution state — the wrapped executor
    /// (roles, standing transmissions, fault count, scratch buffers; see
    /// [`Executor::clone`]) *and* the dynamics cursor (epoch index, fault
    /// cursor, switch count) — so a clone continues identically through
    /// later epoch swaps and fault events without sharing anything with
    /// the original.
    fn clone(&self) -> Self {
        DynamicExecutor {
            schedule: self.schedule,
            exec: self.exec.clone(),
            cursor: self.cursor.clone(),
        }
    }
}

impl std::fmt::Debug for DynamicExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DynamicExecutor(epoch={}/{}, switches={}, {:?})",
            self.cursor.epoch(),
            self.schedule.len(),
            self.cursor.switches(),
            self.exec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ReliableOnly;
    use crate::engine::{Executor, ExecutorConfig};
    use crate::process::Flooder;
    use dualgraph_net::{generators, Epoch};

    fn flood_exec(schedule: &TopologySchedule, plan: FaultPlan) -> DynamicExecutor<'_> {
        DynamicExecutor::from_slots(
            schedule,
            Flooder::slots(schedule.node_count()),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
            plan,
        )
        .unwrap()
    }

    #[test]
    fn fault_plan_sorts_stably() {
        let plan = FaultPlan::none()
            .crash(NodeId(1), 7)
            .jam(NodeId(2), 3)
            .recover(NodeId(1), 9)
            .with(
                NodeId(3),
                3,
                NodeRole::Spammer(PayloadSet::only(PayloadId(5))),
            );
        let rounds: Vec<u64> = plan.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![3, 3, 7, 9]);
        // Same-round events keep insertion order.
        assert_eq!(plan.events()[0].node, NodeId(2));
        assert_eq!(plan.events()[1].node, NodeId(3));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn crash_stalls_and_recovery_resumes_the_flood() {
        let schedule = TopologySchedule::single(generators::line(5, 1));
        // Node 2 crashes before it can be informed and recovers at round 6.
        let plan = FaultPlan::none().crash(NodeId(2), 1).recover(NodeId(2), 6);
        let mut exec = flood_exec(&schedule, plan);
        exec.run_rounds(5);
        assert_eq!(exec.executor().informed_count(), 2, "flood stuck at node 1");
        let outcome = exec.run_until_complete(30);
        assert!(outcome.completed);
        // Node 2 hears node 1 (still flooding) in its first live round.
        assert_eq!(outcome.first_receive[2], Some(6));
        assert_eq!(outcome.first_receive[4], Some(8));
    }

    #[test]
    fn jammer_noise_collides_under_cr1() {
        // Complete graph, CR1, synchronous start: with a jammer present,
        // the source's round-1 transmission collides at every other node
        // and the broadcast never completes.
        let schedule = TopologySchedule::single(generators::complete(4));
        let plan = FaultPlan::none().jam(NodeId(3), 1);
        let mut exec = DynamicExecutor::from_slots(
            &schedule,
            Flooder::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig {
                rule: crate::CollisionRule::Cr1,
                start: crate::StartRule::Synchronous,
                ..ExecutorConfig::default()
            },
            plan,
        )
        .unwrap();
        let outcome = exec.run_until_complete(30);
        assert!(!outcome.completed, "permanent jamming blocks the clique");
        assert_eq!(exec.executor().informed_count(), 1);
        assert!(outcome.physical_collisions > 0);
        // The jammer transmits every round.
        assert!(outcome.sends >= 30);
    }

    #[test]
    fn spam_pollutes_known_sets_but_never_informs() {
        // Regression for the former documented hazard: node 3 spams junk
        // {7} into a line of silent processes. Its neighbor 2 absorbs the
        // junk into its known set (junk is physically received) but must
        // NOT count as informed — junk id 7 was never introduced by the
        // environment, so a spammer cannot spoof broadcast completion.
        let schedule = TopologySchedule::single(generators::line(4, 1));
        let junk = PayloadSet::only(PayloadId(7));
        let plan = FaultPlan::none().spam(NodeId(3), 1, junk);
        let mut exec = DynamicExecutor::from_slots(
            &schedule,
            crate::SilentProcess::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
            plan,
        )
        .unwrap();
        exec.run_rounds(3);
        let known = exec.executor().known_payloads();
        assert_eq!(known[2], junk, "junk absorbed at node 2");
        assert!(known[1].is_empty(), "silent node 2 does not relay");
        assert!(known[3].is_empty(), "spammer's own record stays frozen");
        assert!(
            !exec.executor().is_informed(NodeId(2)),
            "junk receptions never inform (spam-proof coverage)"
        );
        assert_eq!(
            exec.executor().informed_count(),
            1,
            "only the seeded source is informed"
        );
        assert!(!exec.is_complete(), "spam cannot complete a broadcast");
    }

    #[test]
    fn spam_colliding_with_a_real_payload_id_informs() {
        // Identity is the content: junk carrying the *broadcast* payload's
        // id (0) is indistinguishable from the payload and does inform.
        let schedule = TopologySchedule::single(generators::line(4, 1));
        let plan = FaultPlan::none().spam(NodeId(3), 1, PayloadSet::only(PayloadId(0)));
        let mut exec = DynamicExecutor::from_slots(
            &schedule,
            crate::SilentProcess::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
            plan,
        )
        .unwrap();
        exec.run_rounds(2);
        assert!(exec.executor().is_informed(NodeId(2)));
    }

    #[test]
    fn injection_promotes_an_id_to_real() {
        // Junk {5} circulates without informing; once the environment
        // injects payload 5 somewhere, the id is real and subsequent junk
        // receptions of it *do* inform (same identity, same content).
        let schedule = TopologySchedule::single(generators::line(4, 1));
        let plan = FaultPlan::none().spam(NodeId(3), 1, PayloadSet::only(PayloadId(5)));
        let mut exec = DynamicExecutor::from_slots(
            &schedule,
            crate::SilentProcess::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
            plan,
        )
        .unwrap();
        exec.step();
        assert!(!exec.executor().is_informed(NodeId(2)), "junk so far");
        assert!(exec.inject(NodeId(1), PayloadId(5)));
        assert!(exec.executor().real_payloads().contains(PayloadId(5)));
        exec.step();
        assert!(
            exec.executor().is_informed(NodeId(2)),
            "id 5 is now environment-introduced: receiving it informs"
        );
    }

    #[test]
    fn inject_into_crashed_node_is_dropped() {
        let schedule = TopologySchedule::single(generators::line(4, 1));
        let plan = FaultPlan::none().crash(NodeId(3), 1).recover(NodeId(3), 4);
        let mut exec = flood_exec(&schedule, plan);
        exec.step();
        // Dropped: no known/informed/process effect, and the runner says so.
        assert!(!exec.inject(NodeId(3), PayloadId(2)));
        assert!(exec.executor().known_payloads()[3].is_empty());
        assert!(!exec.executor().is_informed(NodeId(3)));
        exec.run_rounds(3); // recovery at round 4
        assert!(exec.inject(NodeId(3), PayloadId(2)));
        assert!(exec.executor().known_payloads()[3].contains(PayloadId(2)));
    }

    #[test]
    fn crashed_known_record_is_frozen_until_recovery() {
        let schedule = TopologySchedule::single(generators::line(3, 1));
        let plan = FaultPlan::none().crash(NodeId(1), 2).recover(NodeId(1), 5);
        let mut exec = flood_exec(&schedule, plan);
        exec.step(); // round 1: node 1 informed before the crash
        assert!(exec.executor().known_payloads()[1].contains(PayloadId(0)));
        exec.run_rounds(2); // crashed: no sends from node 1
        assert!(
            exec.executor().known_payloads()[2].is_empty(),
            "crashed node 1 stopped relaying"
        );
        let outcome = exec.run_until_complete(20);
        assert!(outcome.completed);
        assert_eq!(
            outcome.first_receive[2],
            Some(5),
            "relay resumes at recovery"
        );
    }

    #[test]
    fn epoch_swap_changes_connectivity_mid_run() {
        // Epoch 1 (rounds 1-3): a 0-1-2-3 line *without* the 2-3 reliable
        // link being useful... instead: epoch 1 line(4,1); epoch 2 replaces
        // it with a star centered at 0 — node 3 hears the source directly
        // once the epoch flips.
        let line = generators::line(4, 1);
        let star = generators::star(4);
        let schedule =
            TopologySchedule::new(vec![Epoch::new(line, 1), Epoch::new(star, 10)]).unwrap();
        let mut exec = flood_exec(&schedule, FaultPlan::none());
        let s1 = exec.step();
        assert_eq!(s1.newly_informed, vec![NodeId(1)], "line epoch: 1 hop");
        assert_eq!(exec.epoch(), 0);
        let s2 = exec.step();
        assert_eq!(exec.epoch(), 1);
        assert_eq!(exec.epoch_switches(), 1);
        // Star epoch, round 2: source 0 and node 1 transmit. Hub 0 is a
        // sender (hears itself under CR4); leaves 2 and 3 are reached only
        // by the hub's message (node 1's reaches the hub alone): informed.
        assert_eq!(s2.newly_informed, vec![NodeId(2), NodeId(3)]);
        assert!(s2.complete);
    }

    #[test]
    fn single_epoch_no_fault_matches_static_engine() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 24,
                reliable_p: 0.1,
                unreliable_p: 0.2,
            },
            5,
        );
        let schedule = TopologySchedule::single(net.clone());
        let mut statik = Executor::from_slots(
            &net,
            Flooder::slots(24),
            Box::new(crate::RandomDelivery::new(0.5, 3)),
            ExecutorConfig::default(),
        )
        .unwrap();
        let mut dynamic = DynamicExecutor::from_slots(
            &schedule,
            Flooder::slots(24),
            Box::new(crate::RandomDelivery::new(0.5, 3)),
            ExecutorConfig::default(),
            FaultPlan::none(),
        )
        .unwrap();
        for round in 0..40 {
            assert_eq!(dynamic.step(), statik.step(), "round {round}");
        }
        assert_eq!(dynamic.outcome(), statik.outcome());
        assert_eq!(dynamic.epoch_switches(), 0);
    }

    #[test]
    fn cycling_wraps_the_schedule() {
        let schedule = TopologySchedule::new(vec![
            Epoch::new(generators::line(3, 1), 2),
            Epoch::new(generators::line(3, 2), 2),
        ])
        .unwrap();
        let mut exec = flood_exec(&schedule, FaultPlan::none()).cycling(true);
        let mut epochs = Vec::new();
        for _ in 0..8 {
            exec.step();
            epochs.push(exec.epoch());
        }
        assert_eq!(epochs, vec![0, 0, 1, 1, 0, 0, 1, 1]);
        assert_eq!(exec.epoch_switches(), 3);
        assert!(format!("{exec:?}").contains("DynamicExecutor"));
    }

    #[test]
    fn clone_then_diverge_leaves_the_clone_untouched() {
        // Pin the Clone field-coverage contract the analyzer's
        // `clone-fields` lint enforces statically: snapshot a
        // DynamicExecutor *before* an epoch switch and before any fault
        // event fires, mutate the original past both, then resume the
        // clone. If Clone missed a field (or shallow-copied the cursor),
        // the original's extra rounds would bleed into the clone and its
        // trajectory would differ from an uninterrupted reference run.
        let schedule = TopologySchedule::new(vec![
            Epoch::new(generators::line(6, 1), 5),
            Epoch::new(generators::ring(6, 1), u64::MAX),
        ])
        .unwrap();
        // Crash at round 6 and recovery at round 10 both land after the
        // clone point, so the fault cursor must be copied mid-plan.
        let plan = FaultPlan::none().crash(NodeId(3), 6).recover(NodeId(3), 10);

        let mut original = flood_exec(&schedule, plan.clone());
        original.run_rounds(3);
        let mut snapshot = original.clone();
        assert_eq!(snapshot.round(), 3);

        // Diverge the original: run it through the epoch switch, the
        // crash, and the recovery, mutating roles, scratch, and cursor.
        original.run_rounds(20);
        assert!(original.epoch_switches() >= 1);

        // An uninterrupted reference run over the same schedule and plan.
        let mut reference = flood_exec(&schedule, plan);
        reference.run_rounds(3);

        // The clone must now track the reference round-for-round.
        for round in 3..30 {
            assert_eq!(snapshot.step(), reference.step(), "round {round}");
        }
        assert_eq!(snapshot.outcome(), reference.outcome());
        assert_eq!(snapshot.round(), reference.round());
        assert_eq!(snapshot.epoch(), reference.epoch());
        assert_eq!(snapshot.epoch_switches(), reference.epoch_switches());
        assert_eq!(
            snapshot.executor().informed_count(),
            reference.executor().informed_count()
        );
    }
}
