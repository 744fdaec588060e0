//! Multi-payload collision-semantics differential suite.
//!
//! Three families of properties, over random topologies × the adversary
//! menu × CR1–CR4 × both start rules:
//!
//! 1. **k = 1 reduction** — with a one-payload universe and no junk ids,
//!    `PipelinedFlooder` must be *bit-identical round for round* to the
//!    single-payload `Flooder`, checked on the batched enum path, the boxed
//!    path, and the reference oracle simultaneously. Payload-set
//!    union/loss semantics can therefore not have changed anything
//!    observable about the single-message engine.
//! 2. **pinned randomized streams** — the event streams of the Decay,
//!    Uniform and Harmonic populations (one `BackoffProcess` each, the
//!    automaton the stream layer's pipelined Harmonic also runs) agree
//!    with the oracle and are pinned by digest.
//! 3. **multi-payload agreement** — with `k > 1` payloads injected on a
//!    shared schedule, the optimized executor (enum and boxed dispatch)
//!    and the reference oracle must agree on every round summary *and* on
//!    the per-node known-payload record.
//! 4. **pinned Backoff paths** — a Harmonic population on a sparse network
//!    under mid-gap injections, mid-gap crashes and recoveries, a mid-gap
//!    `Executor::clone` and a 2-worker `ShardedExecutor`: each event
//!    stream agrees with the oracle and all are pinned by digest. Beside
//!    them, a Uniform population handed input before its nodes' first
//!    transmit poll agrees with the oracle.

mod common;

use common::{
    adversary_menu, configs, custom, digest_events, random_net, DENSE, FNV_BASIS, SPARSE,
};
use dualgraph_net::{DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::automata::{Backoff, BackoffProcess, PipelinedFlooder};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    Adversary, CollisionRule, DynamicExecutor, Executor, ExecutorConfig, FaultPlan, Flooder,
    PayloadId, ProcessId, ProcessSlot, ReferenceExecutor, ReliableOnly, ShardedExecutor, StartRule,
    TraceEvent,
};

/// Steps `a` and `b` (any two engines exposed as closures returning the
/// round summary) side by side and asserts identical summaries.
macro_rules! lockstep {
    ($label:expr, $rounds:expr, $( $engine:expr ),+ ) => {{
        for round in 0..$rounds {
            let summaries = vec![$( $engine() ),+];
            for pair in summaries.windows(2) {
                assert_eq!(pair[0], pair[1], "{}: diverged at round {round}", $label);
            }
        }
    }};
}

/// k = 1: pipelined flooding vs the canonical flooder, four engines in
/// lockstep (pipelined enum / flooder enum / pipelined boxed / pipelined
/// reference).
#[test]
fn k1_pipelined_flooding_is_bit_identical_to_flooder() {
    for (g, net_seed) in [(0usize, 5u64), (1, 23), (2, 71)] {
        let net = random_net(net_seed, 24 + g * 7, DENSE);
        let n = net.len();
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(9, net_seed)) {
                let label = format!("flood n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut pipe_enum =
                    Executor::from_slots(&net, PipelinedFlooder::slots(n), make_adv(), config)
                        .unwrap();
                assert!(pipe_enum.uses_batched_dispatch());
                let mut flood_enum =
                    Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
                let mut pipe_boxed = Executor::from_slots(
                    &net,
                    custom(PipelinedFlooder::slots(n)),
                    make_adv(),
                    config,
                )
                .unwrap();
                assert!(!pipe_boxed.uses_batched_dispatch());
                let mut pipe_ref = ReferenceExecutor::from_slots(
                    &net,
                    PipelinedFlooder::slots(n),
                    make_adv(),
                    config,
                )
                .unwrap();
                let (mut pipe_events, mut flood_events) =
                    (Vec::<TraceEvent>::new(), Vec::<TraceEvent>::new());
                lockstep!(
                    label,
                    60,
                    || pipe_enum.step_traced(&mut pipe_events),
                    || flood_enum.step_traced(&mut flood_events),
                    || pipe_boxed.step(),
                    || pipe_ref.step()
                );
                assert_eq!(pipe_enum.outcome(), flood_enum.outcome(), "{label}");
                assert_eq!(pipe_enum.outcome(), pipe_ref.outcome(), "{label}");
                assert_eq!(pipe_events, flood_events, "{label}: event streams diverged");
                assert_eq!(
                    pipe_enum.known_payloads(),
                    pipe_ref.known_payloads(),
                    "{label}: known records diverged"
                );
            }
        }
    }
}

/// A randomized single-payload population, per-node seeds
/// `derive_seed(seed, i)`: Decay with phase length 3, Uniform with
/// `p = 0.3`, or Harmonic with period 4.
fn randomized(kind: &str, n: usize, seed: u64) -> Vec<ProcessSlot> {
    let schedule = match kind {
        "decay" => Backoff::Decay { phase_len: 3 },
        "uniform" => Backoff::Uniform { p: 0.3 },
        _ => Backoff::Harmonic { period: 4 },
    };
    BackoffProcess::slots(n, schedule, seed)
}

/// Pins what the Decay, Uniform and Harmonic populations do, over the
/// menu × CR1–CR4 × both start rules: each run's event stream, recorded on
/// the batched path, must equal the reference oracle's, and all of them
/// together are pinned by event count and FNV-1a 64 digest of their
/// `Debug` lines.
#[test]
fn randomized_event_streams_are_pinned() {
    let (mut count, mut digest) = (0usize, FNV_BASIS);
    for net_seed in [3u64, 17] {
        let net = random_net(net_seed, 22, DENSE);
        let n = net.len();
        for kind in ["decay", "uniform", "harmonic"] {
            for config in configs() {
                for (name, make_adv) in adversary_menu(derive_seed(31, net_seed)) {
                    let label = format!("{kind} {name} {:?} {:?}", config.rule, config.start);
                    let mut exec =
                        Executor::from_slots(&net, randomized(kind, n, 7), make_adv(), config)
                            .unwrap();
                    assert!(exec.uses_batched_dispatch());
                    let mut oracle = ReferenceExecutor::from_slots(
                        &net,
                        randomized(kind, n, 7),
                        make_adv(),
                        config,
                    )
                    .unwrap();
                    let (mut events, mut oracle_events) = (Vec::new(), Vec::new());
                    for _ in 0..80 {
                        exec.step_traced(&mut events);
                        oracle.step_traced(&mut oracle_events);
                    }
                    assert_eq!(events, oracle_events, "{label}: event streams diverged");
                    count += events.len();
                    digest = digest_events(digest, &events);
                }
            }
        }
    }
    assert_eq!((count, digest), (611_888, 0xb2f4_fd99_61e7_1bc1));
}

/// A Harmonic population with period 6 and per-node seeds
/// `derive_seed(seed, i)`, for the pinned Backoff paths below. On the
/// [`pinned_nets`] its rounds reach few nodes, and each informed node
/// waits out gaps of several rounds between transmissions.
fn sparse_harmonic(n: usize, seed: u64) -> Vec<ProcessSlot> {
    BackoffProcess::slots(n, Backoff::Harmonic { period: 6 }, seed)
}

/// The networks of the pinned Backoff paths: a [`SPARSE`] `er_dual` of
/// 192 nodes, whose rounds turn dense as the payload spreads and sparse
/// again as the nodes back off, and a 160-node line with chords of up to
/// 3 hops in `G′`, where the payload crawls and every round stays sparse.
fn pinned_nets() -> [DualGraph; 2] {
    [
        random_net(29, 192, SPARSE),
        dualgraph_net::generators::line(160, 3),
    ]
}

/// Pipelined Harmonic with fresh payloads landing mid-gap: every ninth
/// round a new payload is injected at an informed node (between two of
/// its transmissions), and every thirteenth at a node picked by index,
/// informed or not. The batched engine's event stream, injections
/// included, must equal the oracle's; all are pinned by count and digest.
#[test]
fn backoff_injections_mid_gap_are_pinned() {
    let (mut count, mut digest) = (0usize, FNV_BASIS);
    for net in &pinned_nets() {
        let n = net.len();
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(67, n as u64)) {
                let label = format!("inject n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut exec =
                    Executor::from_slots(net, sparse_harmonic(n, 11), make_adv(), config).unwrap();
                assert!(exec.uses_batched_dispatch());
                let mut oracle =
                    ReferenceExecutor::from_slots(net, sparse_harmonic(n, 11), make_adv(), config)
                        .unwrap();
                let (mut events, mut oracle_events) = (Vec::new(), Vec::new());
                let mut next = 1u64;
                for round in 0..150usize {
                    let mut targets = Vec::new();
                    if round % 9 == 4 {
                        let informed: Vec<usize> = (0..n)
                            .filter(|&v| !oracle.known_payloads()[v].is_empty())
                            .collect();
                        targets.push(informed[(round * 7) % informed.len()]);
                    }
                    if round % 13 == 6 {
                        targets.push((round * 31) % n);
                    }
                    for v in targets {
                        let node = NodeId::from_index(v);
                        exec.inject_traced(node, PayloadId(next), &mut events);
                        oracle.inject_traced(node, PayloadId(next), &mut oracle_events);
                        next += 1;
                    }
                    exec.step_traced(&mut events);
                    oracle.step_traced(&mut oracle_events);
                }
                assert_eq!(events, oracle_events, "{label}: event streams diverged");
                count += events.len();
                digest = digest_events(digest, &events);
            }
        }
    }
    assert_eq!((count, digest), (3_038_868, 0x9ce8_35b3_06d8_ab67));
}

/// Input before a node's first transmit poll: after every round, each
/// node that round informed (under asynchronous start, one it activated)
/// is handed a fresh payload. Uniform with `p = 0.02` on the line, where
/// the payload crawls and the wake calendar stays live, draws even at
/// `j = 1`, so the restart that the input leaves to the node's next poll
/// consumes randomness, and its long gaps reach the calendar's heap. The
/// event streams must agree with the oracle's.
#[test]
fn backoff_input_before_the_first_poll_agrees() {
    let net = dualgraph_net::generators::line(160, 3);
    let n = net.len();
    let uniform = || BackoffProcess::slots(n, Backoff::Uniform { p: 0.02 }, 23);
    for config in configs() {
        for (name, make_adv) in adversary_menu(derive_seed(83, n as u64)) {
            let label = format!("first poll {name} {:?} {:?}", config.rule, config.start);
            let mut exec = Executor::from_slots(&net, uniform(), make_adv(), config).unwrap();
            let mut oracle =
                ReferenceExecutor::from_slots(&net, uniform(), make_adv(), config).unwrap();
            let (mut events, mut oracle_events) = (Vec::new(), Vec::new());
            let mut injected = 0u64;
            for _ in 0..150 {
                let informed: Vec<bool> = oracle
                    .known_payloads()
                    .iter()
                    .map(|k| !k.is_empty())
                    .collect();
                exec.step_traced(&mut events);
                oracle.step_traced(&mut oracle_events);
                let fresh: Vec<usize> = (0..n)
                    .filter(|&v| !informed[v] && !oracle.known_payloads()[v].is_empty())
                    .collect();
                for v in fresh {
                    let (node, payload) = (NodeId::from_index(v), PayloadId(1 + injected % 100));
                    exec.inject_traced(node, payload, &mut events);
                    oracle.inject_traced(node, payload, &mut oracle_events);
                    injected += 1;
                }
            }
            assert!(injected > 0, "{label}: nothing was injected");
            assert_eq!(events, oracle_events, "{label}: event streams diverged");
        }
    }
}

/// A fault plan that crashes informed nodes between two of their
/// transmissions and recovers them: the source from round 8 to 15, six
/// nodes near it for 2–7 rounds each from round 20 on, and one node for
/// good from round 90.
fn mid_gap_crashes(net: &DualGraph) -> FaultPlan {
    let n = net.len() as u32;
    let mut plan = FaultPlan::none()
        .crash(net.source(), 8)
        .recover(net.source(), 15);
    for k in 0..6u32 {
        let node = NodeId(1 + k * (n / 24));
        let at = u64::from(20 + 11 * k);
        plan = plan.crash(node, at).recover(node, at + 2 + u64::from(k));
    }
    plan.crash(NodeId(n / 8), 90)
}

/// Crashes and recoveries of informed nodes mid-gap: the batched engine
/// (through `DynamicExecutor`) must give the oracle's event stream, fault
/// events included; all are pinned by count and digest.
#[test]
fn backoff_crash_and_recovery_mid_gap_are_pinned() {
    let (mut count, mut digest) = (0usize, FNV_BASIS);
    for net in pinned_nets() {
        let n = net.len();
        let plan = mid_gap_crashes(&net);
        let schedule = TopologySchedule::single(net);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(71, n as u64)) {
                let label = format!("crash n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut exec = DynamicExecutor::from_slots(
                    &schedule,
                    sparse_harmonic(n, 13),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                let mut oracle = common::reference(
                    &schedule,
                    sparse_harmonic(n, 13),
                    make_adv(),
                    config,
                    plan.clone(),
                );
                let (mut events, mut oracle_events) = (Vec::new(), Vec::new());
                for _ in 0..150 {
                    exec.step_traced(&mut events);
                    oracle.step_traced(&mut oracle_events);
                }
                assert_eq!(events, oracle_events, "{label}: event streams diverged");
                count += events.len();
                digest = digest_events(digest, &events);
            }
        }
    }
    assert_eq!((count, digest), (1_725_274, 0x9882_89d3_83e8_b087));
}

/// `Executor::clone` taken mid-gap, after 45 rounds, continues beside the
/// original: the two continuations are equal, the whole stream equals the
/// oracle's, and all are pinned by count and digest.
#[test]
fn backoff_clone_mid_gap_continues_beside_the_original() {
    let (mut count, mut digest) = (0usize, FNV_BASIS);
    for net in &pinned_nets() {
        let n = net.len();
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(73, n as u64)) {
                let label = format!("clone n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut exec =
                    Executor::from_slots(net, sparse_harmonic(n, 17), make_adv(), config).unwrap();
                let mut oracle =
                    ReferenceExecutor::from_slots(net, sparse_harmonic(n, 17), make_adv(), config)
                        .unwrap();
                let (mut events, mut oracle_events) = (Vec::new(), Vec::new());
                for _ in 0..45 {
                    exec.step_traced(&mut events);
                    oracle.step_traced(&mut oracle_events);
                }
                let mut fork = exec.clone();
                let (mut fork_events, from) = (Vec::new(), events.len());
                for _ in 0..105 {
                    exec.step_traced(&mut events);
                    fork.step_traced(&mut fork_events);
                    oracle.step_traced(&mut oracle_events);
                }
                assert_eq!(
                    events[from..],
                    fork_events[..],
                    "{label}: the clone diverged"
                );
                assert_eq!(events, oracle_events, "{label}: event streams diverged");
                count += events.len() + fork_events.len();
                digest = digest_events(digest_events(digest, &events), &fork_events);
            }
        }
    }
    assert_eq!((count, digest), (2_884_398, 0x6eb1_6947_c13f_de2f));
}

/// A 2-worker `ShardedExecutor`, every round on two shards: its event
/// stream equals the oracle's, and all are pinned by count and digest.
#[test]
fn backoff_two_worker_sharded_streams_are_pinned() {
    let (mut count, mut digest) = (0usize, FNV_BASIS);
    for net in &pinned_nets() {
        let n = net.len();
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(79, n as u64)) {
                let label = format!("sharded n={n} {name} {:?} {:?}", config.rule, config.start);
                let exec =
                    Executor::from_slots(net, sparse_harmonic(n, 19), make_adv(), config).unwrap();
                let mut sharded = ShardedExecutor::new(exec, 2);
                assert_eq!(sharded.plan().shards(), 2, "{label}");
                let mut oracle =
                    ReferenceExecutor::from_slots(net, sparse_harmonic(n, 19), make_adv(), config)
                        .unwrap();
                let (mut events, mut oracle_events) = (Vec::new(), Vec::new());
                for _ in 0..150 {
                    sharded.step_traced(&mut events);
                    oracle.step_traced(&mut oracle_events);
                }
                assert_eq!(events, oracle_events, "{label}: event streams diverged");
                count += events.len();
                digest = digest_events(digest, &events);
            }
        }
    }
    assert_eq!((count, digest), (1_751_680, 0x021f_6b30_2fce_8e0b));
}

/// The pipelined Harmonic population of the injection test: period 3,
/// per-node seeds `derive_seed(13, i)`.
fn pipelined_harmonic(n: usize) -> Vec<ProcessSlot> {
    BackoffProcess::slots(n, Backoff::Harmonic { period: 3 }, 13)
}

/// k > 1: enum vs boxed vs reference under a shared injection schedule.
/// Covers payload-set union (multiple payloads per message) and loss
/// (collision) semantics under every rule.
#[test]
fn multi_payload_engines_agree_under_injection() {
    let k = 5usize;
    for net_seed in [2u64, 41] {
        let net = random_net(net_seed, 20, DENSE);
        let n = net.len();
        // Deterministic schedule: payload p arrives at node (p * 7) % n
        // after round 3 * p.
        let schedule: Vec<(u64, NodeId, PayloadId)> = (1..k)
            .map(|p| {
                (
                    3 * p as u64,
                    NodeId::from_index((p * 7) % n),
                    PayloadId(p as u64),
                )
            })
            .collect();
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(55, net_seed)) {
                let label = format!("inject {name} {:?} {:?}", config.rule, config.start);
                let mut a =
                    Executor::from_slots(&net, pipelined_harmonic(n), make_adv(), config).unwrap();
                let mut b =
                    Executor::from_slots(&net, custom(pipelined_harmonic(n)), make_adv(), config)
                        .unwrap();
                assert!(!b.uses_batched_dispatch());
                let mut c =
                    ReferenceExecutor::from_slots(&net, pipelined_harmonic(n), make_adv(), config)
                        .unwrap();
                for round in 0..70u64 {
                    for &(at, node, payload) in &schedule {
                        if at == round {
                            a.inject(node, payload);
                            b.inject(node, payload);
                            c.inject(node, payload);
                        }
                    }
                    let sa = a.step();
                    let sb = b.step();
                    let sc = c.step();
                    assert_eq!(sa, sb, "{label}: enum vs boxed at round {round}");
                    assert_eq!(sb, sc, "{label}: boxed vs reference at round {round}");
                    assert_eq!(
                        a.known_payloads(),
                        c.known_payloads(),
                        "{label}: known records diverged at round {round}"
                    );
                }
                assert_eq!(a.outcome(), c.outcome(), "{label}");
            }
        }
    }
}

/// Union/loss ground truth on a hand-built gadget: two senders with
/// disjoint payload sets reaching one silent listener. Under CR4-deliver
/// the listener learns exactly one sender's set (loss of the other);
/// under CR1/CR2 it learns nothing (collision); a lone sender's set is
/// absorbed whole (union).
#[test]
fn payload_set_union_and_loss_semantics() {
    use dualgraph_sim::{Process, SilentProcess};

    // Star: center 2 hears leaves 0 and 1 (reliable edges leaf -> center).
    let mut g = dualgraph_net::Digraph::new(3);
    g.add_undirected_edge(NodeId(0), NodeId(2));
    g.add_undirected_edge(NodeId(1), NodeId(2));
    let net = DualGraph::new(g.clone(), g, NodeId(0)).unwrap();

    // A process that transmits a fixed payload set in round 1 only.
    #[derive(Debug, Clone)]
    struct OneShot {
        id: ProcessId,
        set: dualgraph_sim::PayloadSet,
    }
    impl Process for OneShot {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_activate(&mut self, _cause: dualgraph_sim::ActivationCause) {}
        fn transmit(&mut self, local_round: u64) -> Option<dualgraph_sim::Message> {
            (local_round == 1 && !self.set.is_empty())
                .then(|| dualgraph_sim::Message::with_payloads(self.id, self.set))
        }
        fn receive(&mut self, _local_round: u64, _reception: dualgraph_sim::Reception) {}
        fn has_payload(&self) -> bool {
            !self.set.is_empty()
        }
        fn clone_box(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }
    }

    let set_a: dualgraph_sim::PayloadSet = [PayloadId(0), PayloadId(2)].into_iter().collect();
    let set_b: dualgraph_sim::PayloadSet = [PayloadId(1), PayloadId(3)].into_iter().collect();
    let build = |with_b: bool| -> Vec<ProcessSlot> {
        vec![
            ProcessSlot::Custom(Box::new(OneShot {
                id: ProcessId(0),
                set: set_a,
            })),
            ProcessSlot::Custom(Box::new(OneShot {
                id: ProcessId(1),
                set: if with_b {
                    set_b
                } else {
                    dualgraph_sim::PayloadSet::EMPTY
                },
            })),
            ProcessSlot::Silent(SilentProcess::new(ProcessId(2))),
        ]
    };

    for rule in CollisionRule::ALL {
        let config = ExecutorConfig {
            rule,
            start: StartRule::Synchronous,
            ..ExecutorConfig::default()
        };
        // Colliding senders with disjoint sets.
        let mut exec =
            Executor::from_slots(&net, build(true), Box::new(ReliableOnly::new()), config).unwrap();
        exec.step();
        // CR1/CR2: collision notification; CR3/CR4 (default silence):
        // nothing delivered — either way the whole round's sets are lost.
        let learned = exec.known_payloads()[2];
        assert!(
            learned.is_empty(),
            "{rule}: listener learned {learned} from a collision"
        );
        // Lone sender: the full set is absorbed (union).
        let mut exec =
            Executor::from_slots(&net, build(false), Box::new(ReliableOnly::new()), config)
                .unwrap();
        exec.step();
        assert_eq!(
            exec.known_payloads()[2],
            set_a,
            "{rule}: lone sender's set absorbed whole"
        );
    }

    // CR4 with a delivering adversary: exactly one set survives.
    struct DeliverFirst;
    impl Adversary for DeliverFirst {
        fn unreliable_deliveries(
            &mut self,
            _ctx: &dualgraph_sim::RoundContext<'_>,
            _sender: NodeId,
            _out: &mut Vec<NodeId>,
        ) {
        }
        fn resolve_cr4(
            &mut self,
            _ctx: &dualgraph_sim::RoundContext<'_>,
            _node: NodeId,
            _reaching: &[dualgraph_sim::Message],
        ) -> dualgraph_sim::Cr4Resolution {
            dualgraph_sim::Cr4Resolution::Deliver(0)
        }
        fn clone_box(&self) -> Box<dyn Adversary> {
            Box::new(DeliverFirst)
        }
    }
    let mut exec = Executor::from_slots(
        &net,
        build(true),
        Box::new(DeliverFirst),
        ExecutorConfig {
            rule: CollisionRule::Cr4,
            start: StartRule::Synchronous,
            ..ExecutorConfig::default()
        },
    )
    .unwrap();
    exec.step();
    let learned = exec.known_payloads()[2];
    assert_eq!(
        learned, set_a,
        "CR4 Deliver(0): the first reaching set survives, the other is lost"
    );
}
