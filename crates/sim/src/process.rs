//! The `Process` trait: the per-node automata of the model.

use crate::collision::Reception;
use crate::message::{Message, PayloadId, ProcessId};

/// Why a process became active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationCause {
    /// Environment input delivered before round 1 — in the broadcast
    /// problem, the source receiving the payload (§3: "the message arrives
    /// at the source process prior to the first round").
    Input(Message),
    /// The synchronous start rule: every process begins in round 1.
    SynchronousStart,
    /// The asynchronous start rule: first reception of an actual message.
    /// The message is delivered through this cause (not via
    /// [`Process::receive`]).
    Reception(Message),
}

impl ActivationCause {
    /// The message that accompanied activation, if any.
    pub fn message(&self) -> Option<&Message> {
        match self {
            ActivationCause::Input(m) | ActivationCause::Reception(m) => Some(m),
            ActivationCause::SynchronousStart => None,
        }
    }
}

/// A process automaton (deterministic, or probabilistic via a seeded RNG
/// owned by the implementation).
///
/// The executor drives each **active** process once per round:
///
/// 1. [`Process::transmit`] — decide whether to send, given the local round
///    number (1 = the process's first active round);
/// 2. after deliveries are resolved, [`Process::receive`] with the round's
///    [`Reception`].
///
/// A process never observes the global round; under asynchronous start it
/// can only learn it from `round_tag`s on messages it receives (§5
/// footnote 1). Under synchronous start local and global rounds coincide.
///
/// Implementations must be deterministic functions of their construction
/// parameters (including any RNG seed) and observation history — that is
/// what lets the lower-bound machinery replay execution prefixes via
/// [`Process::clone_box`].
///
/// `Send` is a supertrait: the sharded round engine moves disjoint chunks
/// of the process table onto scoped worker threads, so every automaton —
/// including boxed custom ones — must be transferable across threads.
/// In-repo automata are plain data and satisfy this automatically.
pub trait Process: Send {
    /// The process's unique identifier.
    fn id(&self) -> ProcessId;

    /// Called exactly once, when the process becomes active.
    fn on_activate(&mut self, cause: ActivationCause);

    /// Environment input delivered *after* activation: the multi-message
    /// subsystem hands an already-running process another payload to
    /// broadcast (via [`Executor::inject`][crate::Executor::inject]).
    ///
    /// Single-message automata never see mid-run input; the default
    /// ignores it, so existing `Process` implementations are unaffected.
    /// Stream automata override this to enqueue the payload.
    fn on_input(&mut self, payload: PayloadId) {
        let _ = payload;
    }

    /// Send decision for the process's `local_round`-th active round.
    /// Returning `Some` transmits the message to the medium.
    fn transmit(&mut self, local_round: u64) -> Option<Message>;

    /// Delivers the end-of-round reception for `local_round`.
    fn receive(&mut self, local_round: u64, reception: Reception);

    /// `true` when the process holds the broadcast payload.
    fn has_payload(&self) -> bool;

    /// `true` when the process has permanently stopped transmitting
    /// (e.g. Strong Select after finishing all its selector iterations).
    /// Purely diagnostic; the executor keeps polling regardless.
    fn is_terminated(&self) -> bool {
        false
    }

    /// The payloads this automaton has **quorum-accepted** (Byzantine
    /// reliable broadcast), or `None` for automata without an acceptance
    /// notion — which is every automaton except
    /// [`QuorumProcess`][crate::quorum::QuorumProcess]. The acceptance
    /// latch is the "no duplication" safety clause: a payload, once in
    /// the returned set, never leaves it. Purely observational; drivers
    /// (the stream runner's quorum backend) poll it to settle
    /// per-payload delivery verdicts.
    fn accepted_payloads(&self) -> Option<crate::payload::PayloadSet> {
        None
    }

    /// The automaton's quorum-certification latches `(echo_certified,
    /// ready_certified)` — payloads whose echo/ready lanes have filled
    /// their quorums — or `None` for automata without a certification
    /// notion (every automaton except
    /// [`QuorumProcess`][crate::quorum::QuorumProcess]). Purely
    /// observational; the trace layer diffs the sets against snapshots to
    /// surface [`QuorumStage`][crate::QuorumStage] crossings.
    fn certified_payloads(
        &self,
    ) -> Option<(crate::payload::PayloadSet, crate::payload::PayloadSet)> {
        None
    }

    /// Clones the automaton in its current state (used for execution-prefix
    /// replay by the Theorem 12 construction and by tests).
    fn clone_box(&self) -> Box<dyn Process>;
}

impl Clone for Box<dyn Process> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for dyn Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Process({}, payload={}, terminated={})",
            self.id(),
            self.has_payload(),
            self.is_terminated()
        )
    }
}

/// A process that never transmits and only records whether it got the
/// payload. Useful as a receiver-only baseline and in tests.
#[derive(Debug, Clone)]
pub struct SilentProcess {
    id: ProcessId,
    informed: bool,
    activated: bool,
}

impl SilentProcess {
    /// Creates a silent process with the given id.
    pub fn new(id: ProcessId) -> Self {
        SilentProcess {
            id,
            informed: false,
            activated: false,
        }
    }

    /// Whether the process has been activated yet.
    pub fn is_activated(&self) -> bool {
        self.activated
    }

    /// The `n` silent processes for one execution, ids `0..n`, as
    /// enum-dispatched slots.
    pub fn slots(n: usize) -> Vec<crate::slot::ProcessSlot> {
        (0..n)
            .map(|i| crate::slot::ProcessSlot::Silent(SilentProcess::new(ProcessId::from_index(i))))
            .collect()
    }
}

impl Process for SilentProcess {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        self.activated = true;
        if cause.message().is_some_and(|m| m.carries_payload()) {
            self.informed = true;
        }
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        None
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        if reception.message().is_some_and(|m| m.carries_payload()) {
            self.informed = true;
        }
    }

    fn has_payload(&self) -> bool {
        self.informed
    }

    fn is_terminated(&self) -> bool {
        true
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// `true` when `m` carries payload 0, the one payload [`Flooder`] and
/// [`ChatterProcess`] transmit. A junk id that a spammer, forger or
/// equivocator sends never informs them, so they never relay a payload
/// they did not receive.
fn informs(m: &Message) -> bool {
    m.payloads.contains(PayloadId(0))
}

/// A process that transmits the payload every round once informed: the
/// canonical flooding automaton.
///
/// Previously duplicated privately by the engine tests and the
/// model-semantics integration suite; promoted here (next to
/// [`SilentProcess`]) so every consumer — tests, the dense-flooding bench
/// workload, examples — shares one definition.
#[derive(Debug, Clone)]
pub struct Flooder {
    id: ProcessId,
    informed: bool,
}

impl Flooder {
    /// Creates an uninformed flooder with the given id.
    pub fn new(id: ProcessId) -> Self {
        Flooder {
            id,
            informed: false,
        }
    }

    /// The `n` flooders for one execution, ids `0..n`, as enum-dispatched
    /// slots.
    pub fn slots(n: usize) -> Vec<crate::slot::ProcessSlot> {
        (0..n)
            .map(|i| crate::slot::ProcessSlot::Flooder(Flooder::new(ProcessId::from_index(i))))
            .collect()
    }
}

impl Process for Flooder {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        self.informed |= cause.message().is_some_and(informs);
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        self.informed
            .then(|| Message::with_payload(self.id, PayloadId(0)))
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        self.informed |= reception.message().is_some_and(informs);
    }

    fn has_payload(&self) -> bool {
        self.informed
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// A seeded pseudo-random flooding protocol: once informed, transmits the
/// payload with probability `rate/8` each round (SplitMix64-driven, so
/// fully deterministic in the seed).
///
/// Not one of the paper's algorithms — this is the shared stress/test
/// protocol used by the differential tests (optimized engine vs the
/// [`ReferenceExecutor`][crate::ReferenceExecutor] oracle) and the engine
/// throughput benches: dense enough to exercise collisions and CR4
/// resolution on every topology.
#[derive(Debug, Clone)]
pub struct ChatterProcess {
    id: ProcessId,
    informed: bool,
    state: u64,
    rate: u64,
}

impl ChatterProcess {
    /// Creates the automaton; `rate` out of 8 rounds transmit once
    /// informed.
    ///
    /// # Panics
    ///
    /// Panics if `rate > 8`.
    pub fn new(id: ProcessId, seed: u64, rate: u64) -> Self {
        assert!(rate <= 8, "rate is out of 8");
        ChatterProcess {
            id,
            informed: false,
            state: seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            rate,
        }
    }

    /// The `n` chatter processes for one execution, ids `0..n`, as
    /// enum-dispatched slots.
    pub fn slots(n: usize, seed: u64, rate: u64) -> Vec<crate::slot::ProcessSlot> {
        (0..n)
            .map(|i| {
                crate::slot::ProcessSlot::Chatter(ChatterProcess::new(
                    ProcessId::from_index(i),
                    seed,
                    rate,
                ))
            })
            .collect()
    }
}

impl Process for ChatterProcess {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        self.informed |= cause.message().is_some_and(informs);
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        if !self.informed {
            return None;
        }
        self.state = crate::rng::splitmix64(self.state);
        (self.state % 8 < self.rate).then(|| Message::with_payload(self.id, PayloadId(0)))
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        self.informed |= reception.message().is_some_and(informs);
    }

    fn has_payload(&self) -> bool {
        self.informed
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::PayloadId;

    #[test]
    fn activation_cause_message() {
        let m = Message::with_payload(ProcessId(0), PayloadId(0));
        assert_eq!(ActivationCause::Input(m).message(), Some(&m));
        assert_eq!(ActivationCause::Reception(m).message(), Some(&m));
        assert_eq!(ActivationCause::SynchronousStart.message(), None);
    }

    #[test]
    fn silent_process_lifecycle() {
        let mut p = SilentProcess::new(ProcessId(4));
        assert!(!p.is_activated());
        assert!(!p.has_payload());
        p.on_activate(ActivationCause::SynchronousStart);
        assert!(p.is_activated());
        assert!(!p.has_payload());
        assert_eq!(p.transmit(1), None);
        p.receive(
            1,
            Reception::Message(Message::with_payload(ProcessId(0), PayloadId(0))),
        );
        assert!(p.has_payload());
        assert!(p.is_terminated());
    }

    #[test]
    fn silent_process_activation_by_payload() {
        let mut p = SilentProcess::new(ProcessId(1));
        p.on_activate(ActivationCause::Reception(Message::with_payload(
            ProcessId(0),
            PayloadId(0),
        )));
        assert!(p.has_payload());
    }

    #[test]
    fn signal_reception_does_not_inform() {
        let mut p = SilentProcess::new(ProcessId(1));
        p.on_activate(ActivationCause::SynchronousStart);
        p.receive(1, Reception::Message(Message::signal(ProcessId(2))));
        assert!(!p.has_payload());
        p.receive(2, Reception::Collision);
        assert!(!p.has_payload());
    }

    #[test]
    fn chatter_floods_once_informed() {
        let mut p = ChatterProcess::new(ProcessId(3), 42, 8);
        assert_eq!(p.transmit(1), None, "uninformed chatter stays quiet");
        p.on_activate(ActivationCause::Reception(Message::with_payload(
            ProcessId(0),
            PayloadId(0),
        )));
        assert!(p.has_payload());
        // rate = 8/8: transmits every round.
        assert!(p.transmit(1).is_some());
        let mut a = ChatterProcess::new(ProcessId(3), 42, 3);
        let mut b = ChatterProcess::new(ProcessId(3), 42, 3);
        a.on_activate(ActivationCause::SynchronousStart);
        b.on_activate(ActivationCause::SynchronousStart);
        a.receive(
            1,
            Reception::Message(Message::with_payload(ProcessId(0), PayloadId(0))),
        );
        b.receive(
            1,
            Reception::Message(Message::with_payload(ProcessId(0), PayloadId(0))),
        );
        for round in 2..50 {
            assert_eq!(
                a.transmit(round),
                b.transmit(round),
                "deterministic in seed"
            );
        }
    }

    /// Junk never informs a flooder. On `line(5, 1)` node 1 crashes for
    /// good and node 4 spams {7} from round 1, so node 3 hears only {7}:
    /// it must stay silent, and nothing behind the crashed cut may count
    /// as informed. The pipelined flooder relays the {7} it knows.
    #[test]
    fn junk_never_informs_a_flooder() {
        use crate::automata::PipelinedFlooder;
        use crate::{
            CollisionRule, DynamicExecutor, ExecutorConfig, FaultPlan, ProcessSlot, ReliableOnly,
            StartRule, TraceEvent,
        };
        use dualgraph_net::{generators, NodeId, TopologySchedule};

        let schedule = TopologySchedule::single(generators::line(5, 1));
        let junk = crate::PayloadSet::only(PayloadId(7));
        let plan = FaultPlan::none()
            .crash(NodeId(1), 1)
            .spam(NodeId(4), 1, junk);
        for start in [StartRule::Synchronous, StartRule::Asynchronous] {
            let config = ExecutorConfig {
                rule: CollisionRule::Cr1,
                start,
                ..ExecutorConfig::default()
            };
            let populations: [(&str, Vec<ProcessSlot>); 3] = [
                ("flooder", Flooder::slots(5)),
                ("chatter", ChatterProcess::slots(5, 3, 8)),
                ("pipelined", PipelinedFlooder::slots(5)),
            ];
            for (name, slots) in populations {
                let mut exec = DynamicExecutor::from_slots(
                    &schedule,
                    slots,
                    Box::new(ReliableOnly::new()),
                    config,
                    plan.clone(),
                )
                .unwrap();
                let mut events = Vec::new();
                for _ in 0..10 {
                    exec.step_traced(&mut events);
                }
                let sent: Vec<_> = events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::Transmit { node, message, .. } if *node == NodeId(3) => {
                            Some(message.payloads)
                        }
                        _ => None,
                    })
                    .collect();
                let relayed = if name == "pipelined" {
                    vec![junk; 9]
                } else {
                    vec![]
                };
                assert_eq!(sent, relayed, "{name} {start:?}: node 3's transmissions");
                assert_eq!(
                    exec.executor().known_payloads()[3],
                    junk,
                    "{name} {start:?}"
                );
                assert_eq!(exec.executor().informed_count(), 1, "{name} {start:?}");
            }
        }
    }

    #[test]
    fn boxed_clone_preserves_state() {
        let mut p = SilentProcess::new(ProcessId(2));
        p.on_activate(ActivationCause::Input(Message::with_payload(
            ProcessId(2),
            PayloadId(0),
        )));
        let boxed: Box<dyn Process> = Box::new(p);
        let cloned = boxed.clone();
        assert!(cloned.has_payload());
        assert_eq!(cloned.id(), ProcessId(2));
        assert!(format!("{boxed:?}").contains("p2"));
    }
}
