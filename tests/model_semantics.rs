//! Model-semantics integration tests: the simulator must enforce exactly
//! the §2.1 rules, whatever the adversary does.

use dualgraph::{
    generators, CollisionRule, Executor, ExecutorConfig, Message, NodeId, Process, ProcessId,
    RandomDelivery, ReliableOnly, StartRule,
};
// The canonical flooding automaton (this file used to carry a private
// duplicate; it was promoted to `dualgraph_sim::Flooder`).
use dualgraph_sim::{ActivationCause, Flooder, Reception, TraceEvent};

// The delivery-validation is a debug_assert! over the CSR row (hot path),
// so the rejection only exists — and is only testable — in debug builds.
// The cheating adversary lives under the same `cfg`: release builds of
// this file would otherwise carry it unused.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "outside G' \\ G")]
fn executor_rejects_illegal_deliveries() {
    use dualgraph_sim::{Adversary, RoundContext};

    /// An adversary that tries to cheat: delivering outside `G′ ∖ G` must
    /// be rejected by the executor.
    #[derive(Debug, Clone)]
    struct CheatingAdversary;

    impl Adversary for CheatingAdversary {
        fn unreliable_deliveries(
            &mut self,
            ctx: &RoundContext<'_>,
            _sender: NodeId,
            out: &mut Vec<NodeId>,
        ) {
            // Claim delivery to node 0 regardless of whether the edge exists.
            out.push(ctx.network.nodes().next().unwrap());
        }
        fn clone_box(&self) -> Box<dyn Adversary> {
            Box::new(self.clone())
        }
    }

    let net = generators::line(3, 1); // no unreliable edges at all
    let mut exec = Executor::new(
        &net,
        Flooder::boxed(3),
        Box::new(CheatingAdversary),
        ExecutorConfig::default(),
    )
    .unwrap();
    exec.step();
}

/// Reliable edges deliver no matter what the adversary wants: a lone
/// sender always reaches its G-out-neighbors.
#[test]
fn reliable_edges_always_deliver() {
    let net = generators::line(5, 4);
    // RandomDelivery with p=0: unreliable edges never fire; the flood
    // still crosses the line via G.
    let mut exec = Executor::new(
        &net,
        Flooder::boxed(5),
        Box::new(RandomDelivery::new(0.0, 1)),
        ExecutorConfig::default(),
    )
    .unwrap();
    let outcome = exec.run_until_complete(100);
    assert!(outcome.completed);
    assert_eq!(
        outcome.first_receive,
        vec![Some(0), Some(1), Some(2), Some(3), Some(4)]
    );
}

/// CR1 vs CR3: the same execution shows ⊤ where CR3 shows ⊥.
#[test]
fn collision_rules_differ_only_in_notification() {
    let star = generators::star(4); // hub 0 + three leaves
    let run = |rule| {
        let mut exec = Executor::new(
            &star,
            Flooder::boxed(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig {
                rule,
                start: StartRule::Synchronous,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let mut events: Vec<TraceEvent> = Vec::new();
        for _ in 0..3 {
            exec.step_traced(&mut events);
        }
        events
    };
    let cr1 = run(CollisionRule::Cr1);
    let cr3 = run(CollisionRule::Cr3);
    let senders = |events: &[TraceEvent], round| {
        events
            .iter()
            .filter(|e| e.round() == round && matches!(e, TraceEvent::Transmit { .. }))
            .count()
    };
    // What `node` heard in `round` (silence emits no event).
    let heard = |events: &[TraceEvent], round, node| {
        events
            .iter()
            .filter(|e| e.round() == round)
            .filter_map(TraceEvent::heard)
            .find(|&(v, _)| v == node)
            .map_or(Reception::Silence, |(_, reception)| reception)
    };
    // Round 1: hub alone -> everyone informed in both.
    assert_eq!(senders(&cr1, 1), 1);
    // Round 2: all four send; the hub is reached by three leaves + itself.
    // CR1: collision notification; CR3: own message (senders hear selves).
    assert_eq!(senders(&cr1, 2), 4);
    assert!(heard(&cr1, 2, NodeId(0)).is_collision());
    assert!(matches!(heard(&cr3, 2, NodeId(0)), Reception::Message(_)));
    // A leaf (sender) under CR1 hears ⊤ (hub + itself), CR3 hears itself.
    assert!(heard(&cr1, 2, NodeId(1)).is_collision());
    assert!(matches!(heard(&cr3, 2, NodeId(1)), Reception::Message(m) if m.sender == ProcessId(1)));
}

/// Asynchronous start: nodes beyond the frontier stay asleep and send
/// nothing, even over many rounds.
#[test]
fn async_start_sleep_semantics() {
    let net = generators::line(6, 1);
    // Silent processes: nothing propagates, nodes 1.. never activate.
    let silents: Vec<Box<dyn Process>> = (0..6)
        .map(|i| {
            Box::new(dualgraph_sim::SilentProcess::new(ProcessId::from_index(i)))
                as Box<dyn Process>
        })
        .collect();
    let mut exec = Executor::new(
        &net,
        silents,
        Box::new(ReliableOnly::new()),
        ExecutorConfig::default(),
    )
    .unwrap();
    exec.run_rounds(20);
    assert_eq!(exec.informed_count(), 1);
}

/// Synchronous start: uninformed processes are active and may transmit —
/// exactly what the Theorem 12 candidate probes rely on.
#[test]
fn sync_start_uninformed_processes_can_transmit() {
    /// A process that transmits a signal in round 2 even without payload.
    #[derive(Debug, Clone)]
    struct EarlyTalker(ProcessId);
    impl Process for EarlyTalker {
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_activate(&mut self, _c: ActivationCause) {}
        fn transmit(&mut self, local: u64) -> Option<Message> {
            (local == 2 && self.0 != ProcessId(0)).then(|| Message::signal(self.0))
        }
        fn receive(&mut self, _l: u64, _r: Reception) {}
        fn has_payload(&self) -> bool {
            self.0 == ProcessId(0)
        }
        fn clone_box(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }
    }
    let net = generators::complete(3);
    let procs: Vec<Box<dyn Process>> = (0..3)
        .map(|i| Box::new(EarlyTalker(ProcessId::from_index(i))) as Box<dyn Process>)
        .collect();
    let mut exec = Executor::new(
        &net,
        procs,
        Box::new(ReliableOnly::new()),
        ExecutorConfig {
            start: StartRule::Synchronous,
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    let mut events: Vec<TraceEvent> = Vec::new();
    for _ in 0..2 {
        exec.step_traced(&mut events);
    }
    let round2: Vec<TraceEvent> = events
        .into_iter()
        .filter(|e| e.round() == 2 && matches!(e, TraceEvent::Transmit { .. }))
        .collect();
    assert_eq!(
        round2,
        vec![
            TraceEvent::Transmit {
                round: 2,
                node: NodeId(1),
                message: Message::signal(ProcessId(1)),
            },
            TraceEvent::Transmit {
                round: 2,
                node: NodeId(2),
                message: Message::signal(ProcessId(2)),
            },
        ]
    );
}

/// Round tags let an asynchronously started process recover the global
/// clock exactly (Strong Select footnote 1 machinery).
#[test]
fn round_tags_recover_global_clock() {
    use dualgraph::StrongSelect;
    let net = generators::line(8, 1);
    let outcome = dualgraph::run_broadcast(
        &net,
        &StrongSelect::new(),
        Box::new(ReliableOnly::new()),
        dualgraph::RunConfig::default().with_max_rounds(1_000_000),
    )
    .unwrap();
    let sync_outcome = dualgraph::run_broadcast(
        &net,
        &StrongSelect::new(),
        Box::new(ReliableOnly::new()),
        dualgraph::RunConfig {
            start: StartRule::Synchronous,
            ..dualgraph::RunConfig::default().with_max_rounds(1_000_000)
        },
    )
    .unwrap();
    // With every process informed only via tagged messages, the async
    // execution coincides with the synchronous one on this topology.
    assert_eq!(outcome.completion_round, sync_outcome.completion_round);
}
