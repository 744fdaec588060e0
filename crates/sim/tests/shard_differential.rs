//! Shard differential suite: the sharded round engine checked engine
//! against engine.
//!
//! The sharded engine ([`ShardedExecutor`]) runs the sequential engine's
//! round kernel on a multi-shard plan, which re-derives every per-node
//! result from shard-local state — the transmit sweep from per-chunk
//! buffers, collision resolution from the transpose CSR instead of the
//! sender-side arena, the informed/known bookkeeping from word-aligned
//! bitset windows — so its correctness contract is *bit-identity*, not
//! statistical agreement. This suite pins that contract across every axis
//! that could plausibly break it:
//!
//! 1. **three-engine agreement** — sharded (worker counts 1, 2, and 7),
//!    sequential, and the naive [`ReferenceExecutor`] oracle agree on
//!    every round summary, known-payload record, and outcome, across
//!    random topologies × the adversary menu × CR1–CR4 × both start
//!    rules. Worker count 1 plans one shard, the sequential engine's own
//!    plan.
//! 2. **fault and Byzantine plans** — crash/recovery, jammers,
//!    equivocators, and forgers ride churn schedules while the engines
//!    run side by side: the sharded resolve must preserve the
//!    faulty-radio gate (no collision counted, no CR4 draw) and the
//!    per-receiver Byzantine content path.
//! 3. **trace streams** — `step_traced` emits the identical event
//!    sequence (`RoundStart`, `Transmit` ascending, then
//!    `Reception`/`Collision` ascending) from the coordinator, even
//!    though the sharded sweeps themselves never see a sink — with the
//!    adversary sampled in-shard or called on the coordinator, and with
//!    equivocators whose per-receiver content goes through the resolve
//!    body.
//! 4. **in-shard ≡ coordinator sampling** — an adversary with an
//!    [`Adversary::oblivious`] form is sampled receiver-side inside the
//!    shards; the same adversary behind a wrapper that hides the form is
//!    consulted on the coordinator. Both paths must agree on every round
//!    summary, known set, outcome, and trace event — on churn schedules
//!    with fault plans (each epoch freezing its own `G′ ∖ G` transpose),
//!    on a directed network, under a non-identity assignment, and with
//!    a wrapper that swaps in its own CR4 coin.
//!
//! Populations are chosen above one shard chunk (64 nodes) so the worker
//! counts genuinely shard; `plan().shards()` is asserted to keep the
//! suite honest if the alignment policy ever changes.

mod common;

use common::{adversary_menu, churn3, configs, random_net, SPARSE};
use dualgraph_net::{generators, Digraph, DualGraph, NodeId};
use dualgraph_sim::automata::{Backoff, BackoffProcess};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    ActivationCause, Adversary, Assignment, BurstyDelivery, CollisionRule, CollisionSeeker,
    Cr4Resolution, DynamicExecutor, Executor, ExecutorConfig, FaultPlan, Flooder, Message,
    NodeRole, PayloadId, PayloadSet, Process, ProcessId, ProcessSlot, RandomDelivery, Reception,
    ReferenceExecutor, RoundContext, RoundSummary, ShardedExecutor, StartRule, TraceEvent,
    WithAssignment, WithRandomCr4,
};

/// Worker counts under test: the one-shard plan, an even split, and an
/// uneven count that leaves the last shard short.
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// Crash/recovery, a jammer, an equivocator (who recovers — the
/// Byzantine gate must drop back), and a forger, spread over the node
/// space so different shards own different roles.
fn fault_plan(n: usize, seed: u64) -> FaultPlan {
    let pick = |k: u64| NodeId(1 + ((seed / (k * 3 + 1) + k * 17) % (n as u64 - 1)) as u32);
    FaultPlan::none()
        .crash(pick(0), 2)
        .recover(pick(0), 9)
        .jam(pick(1), 3)
        .equivocate(
            pick(2),
            2,
            PayloadSet::only(PayloadId(4)),
            PayloadSet::only(PayloadId(5)),
        )
        .recover(pick(2), 11)
        .forge(pick(3), 4, PayloadSet::only(PayloadId(9)))
}

/// Property 1: sharded (workers 1, 2, 7), sequential, and reference
/// engines agree round for round across topologies × the menu × CR1–CR4
/// × both start rules — fault-free, so this isolates the core sweep
/// refactor.
#[test]
fn sharded_sequential_and_reference_agree() {
    for (net_seed, n) in [(19u64, 150), (43, 200)] {
        let net = random_net(net_seed, n, SPARSE);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(137, net_seed)) {
                let label = format!("n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut sequential =
                    Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
                let mut reference =
                    ReferenceExecutor::from_slots(&net, Flooder::slots(n), make_adv(), config)
                        .unwrap();
                let mut sharded: Vec<ShardedExecutor<'_>> = WORKER_COUNTS
                    .iter()
                    .map(|&w| {
                        let exec =
                            Executor::from_slots(&net, Flooder::slots(n), make_adv(), config)
                                .unwrap();
                        ShardedExecutor::new(exec, w)
                    })
                    .collect();
                assert_eq!(sharded[0].plan().shards(), 1, "workers=1: one shard");
                assert!(sharded[1].plan().shards() > 1, "workers=2 must shard");
                assert!(
                    sharded[2].plan().shards() > sharded[1].plan().shards(),
                    "workers=7 must shard finer than workers=2"
                );
                for round in 0..25 {
                    let ss = sequential.step();
                    let sr = reference.step();
                    assert_eq!(ss, sr, "{label}: sequential vs reference, round {round}");
                    for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter_mut()) {
                        let sh = shard.step();
                        assert_eq!(ss, sh, "{label}: sequential vs workers={w}, round {round}");
                    }
                }
                for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter()) {
                    assert_eq!(
                        sequential.known_payloads(),
                        shard.known_payloads(),
                        "{label}: known records, workers={w}"
                    );
                    assert_eq!(
                        sequential.outcome(),
                        shard.outcome(),
                        "{label}: outcome, workers={w}"
                    );
                }
                assert_eq!(
                    sequential.known_payloads(),
                    reference.known_payloads(),
                    "{label}: known records vs reference"
                );
            }
        }
    }
}

/// Property 2: fault and Byzantine plans riding churn schedules — the
/// sharded resolve preserves the faulty-radio gate and the per-receiver
/// Byzantine content path, across worker counts and epoch swaps.
#[test]
fn sharded_engines_agree_under_faults_and_churn() {
    for net_seed in [29u64, 89] {
        let n = 150;
        let net = random_net(net_seed, n, SPARSE);
        let schedule = churn3(&net, derive_seed(9, net_seed));
        let plan = fault_plan(n, net_seed);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(141, net_seed)) {
                let label = format!("faulty {name} {:?} {:?}", config.rule, config.start);
                let mut sequential = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                let mut sharded: Vec<common::Dynamic<'_, ShardedExecutor<'_>>> = WORKER_COUNTS
                    .iter()
                    .map(|&w| {
                        common::sharded(
                            &schedule,
                            Flooder::slots(n),
                            make_adv(),
                            config,
                            w,
                            plan.clone(),
                        )
                    })
                    .collect();
                for round in 0..30 {
                    let ss = sequential.step();
                    for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter_mut()) {
                        let sh = shard.step();
                        assert_eq!(ss, sh, "{label}: workers={w}, round {round}");
                    }
                }
                for (w, shard) in WORKER_COUNTS.iter().zip(sharded.iter()) {
                    assert_eq!(
                        sequential.executor().known_payloads(),
                        shard.exec.known_payloads(),
                        "{label}: known records, workers={w}"
                    );
                    assert_eq!(
                        sequential.executor().roles(),
                        shard.exec.roles(),
                        "{label}: final role masks, workers={w}"
                    );
                }
            }
        }
    }
}

/// Property 3: the coordinator-side trace emission reproduces the
/// sequential event stream exactly — same events, same order, whole
/// messages — for every worker count. `RandomDelivery` is sampled
/// in-shard; `CollisionSeeker`, `BurstyDelivery` and a `Coordinated`
/// `RandomDelivery` are called on the coordinator, their extras bucketed
/// by receiver. Each runs with and without two equivocators (one per
/// 2-shard half), whose per-receiver faces go through the resolve body.
#[test]
fn sharded_trace_streams_are_identical() {
    let n = 150;
    let net = random_net(61, n, SPARSE);
    let adversaries: [(&str, fn() -> Box<dyn Adversary>); 4] = [
        ("random(0.4)", || Box::new(RandomDelivery::new(0.4, 17))),
        ("collision-seeker", || Box::new(CollisionSeeker::new())),
        ("bursty", || Box::new(BurstyDelivery::new(0.3, 0.3, 17))),
        ("coordinated random(0.4)", || {
            Box::new(Coordinated(RandomDelivery::new(0.4, 17)))
        }),
    ];
    let faces = [PayloadId(4), PayloadId(5)];
    for rule in CollisionRule::ALL {
        let config = ExecutorConfig {
            rule,
            start: StartRule::Synchronous,
            payload: PayloadId(0),
        };
        for (name, make_adv) in adversaries {
            for byzantine in [false, true] {
                let label = format!("{rule:?} {name} byzantine={byzantine}");
                let build = || {
                    let mut exec =
                        Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
                    if byzantine {
                        for node in [NodeId(7), NodeId(100)] {
                            let role = NodeRole::Equivocator {
                                even: PayloadSet::only(faces[0]),
                                odd: PayloadSet::only(faces[1]),
                            };
                            exec.set_role(node, role);
                        }
                    }
                    exec
                };
                let mut sequential = build();
                let mut seq_events: Vec<TraceEvent> = Vec::new();
                for _ in 0..20 {
                    sequential.step_traced(&mut seq_events);
                }
                if byzantine {
                    for face in faces {
                        assert!(
                            seq_events.iter().any(|e| matches!(
                                e,
                                TraceEvent::Reception { message, .. }
                                    if message.payloads.contains(face)
                            )),
                            "{label}: face {face:?} is heard"
                        );
                    }
                }
                for workers in WORKER_COUNTS {
                    let mut sharded = ShardedExecutor::new(build(), workers);
                    let mut events: Vec<TraceEvent> = Vec::new();
                    for _ in 0..20 {
                        sharded.step_traced(&mut events);
                    }
                    assert_eq!(
                        seq_events.len(),
                        events.len(),
                        "{label} workers={workers}: event counts"
                    );
                    for (i, (a, b)) in seq_events.iter().zip(&events).enumerate() {
                        assert_eq!(a, b, "{label} workers={workers}: event {i}");
                    }
                }
            }
        }
    }
}

/// Runs `rounds` rounds of a pure sequential engine beside one engine
/// that alternates 2-shard rounds (even) with one-shard rounds of the same
/// kernel on the same state (odd, stepped through the inner executor via
/// `DerefMut`), asserting equal round summaries and event streams every
/// round, then equal known records and outcomes.
fn interleave(
    label: &str,
    net: &DualGraph,
    config: ExecutorConfig,
    slots: impl Fn(usize) -> Vec<ProcessSlot>,
    make_adv: impl Fn() -> Box<dyn Adversary>,
    rounds: usize,
) {
    let n = net.len();
    let mut sequential = Executor::from_slots(net, slots(n), make_adv(), config).unwrap();
    let exec = Executor::from_slots(net, slots(n), make_adv(), config).unwrap();
    let mut mixed = ShardedExecutor::new(exec, 2);
    assert!(mixed.plan().shards() > 1, "{label}: must shard");
    for round in 0..rounds {
        let (mut se, mut me) = (Vec::<TraceEvent>::new(), Vec::<TraceEvent>::new());
        let ss = sequential.step_traced(&mut se);
        let sm = if round % 2 == 0 {
            mixed.step_traced(&mut me)
        } else {
            use std::ops::DerefMut;
            mixed.deref_mut().step_traced(&mut me)
        };
        assert_eq!(ss, sm, "{label}: round {round}");
        assert_eq!(se, me, "{label}: round {round}'s events");
    }
    assert_eq!(
        sequential.known_payloads(),
        mixed.known_payloads(),
        "{label}"
    );
    assert_eq!(sequential.outcome(), mixed.outcome(), "{label}");
}

/// Interleaving 2-shard and one-shard rounds on the *same* engine (via
/// `DerefMut`) stays bit-identical to a pure sequential run: the
/// sender-index map, the per-shard scratch and the reaching-set buffers
/// must survive rounds run on the other plan. The Harmonic population's
/// sender count crosses the sparse/dense switch both ways, so its
/// one-shard rounds meet the touched-only receptions reset, the arena's
/// sparse and dense sorts and the wake calendar right after a 2-shard
/// round, and its 2-shard rounds meet them right after a one-shard round.
#[test]
fn interleaved_sequential_and_sharded_steps_agree() {
    let config = ExecutorConfig {
        rule: CollisionRule::Cr4,
        start: StartRule::Synchronous,
        payload: PayloadId(0),
    };
    let net = random_net(83, 150, SPARSE);
    interleave(
        "random(0.4)",
        &net,
        config,
        Flooder::slots,
        || Box::new(RandomDelivery::new(0.4, 23)),
        24,
    );
    let harmonic = |n| BackoffProcess::slots(n, Backoff::Harmonic { period: 3 }, 5);
    for start in [StartRule::Synchronous, StartRule::Asynchronous] {
        let config = ExecutorConfig { start, ..config };
        for (name, make_adv) in adversary_menu(derive_seed(29, 83)) {
            let label = format!("harmonic {name} {start:?}");
            interleave(&label, &net, config, harmonic, make_adv, 120);
        }
    }
}

/// Transmits a payload-free signal on a four-round cycle: every node in
/// rounds `≡ 0 (mod 4)`, every node but node 0 in rounds `≡ 3`, nobody
/// otherwise. Under [`interleave`] (synchronous start) that lines up a
/// silent sequential round, a sharded round, and a dense sequential
/// round, again and again.
#[derive(Debug, Clone)]
struct Pulse(ProcessId);

impl Pulse {
    fn slots(n: usize) -> Vec<ProcessSlot> {
        (0..n)
            .map(|i| ProcessSlot::Custom(Box::new(Pulse(ProcessId::from_index(i)))))
            .collect()
    }
}

impl Process for Pulse {
    fn id(&self) -> ProcessId {
        self.0
    }

    fn on_activate(&mut self, _cause: ActivationCause) {}

    fn transmit(&mut self, local_round: u64) -> Option<Message> {
        let on = match local_round % 4 {
            0 => true,
            3 => self.0 != ProcessId(0),
            _ => false,
        };
        on.then(|| Message::signal(self.0))
    }

    fn receive(&mut self, _local_round: u64, _reception: Reception) {}

    fn has_payload(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// The same interleaving with an adversary consulted on the coordinator,
/// whose receiver buckets share `cursor`, `arena`, and `arena_off` with
/// the one-shard arena: a one-shard round after it must not read them
/// stale.
/// On `directed_net` node 0 has no reliable in-edge, so whatever reaches
/// it comes from the adversary's extras alone.
///
/// Flooding runs the sparse and dense paths under both start rules. The
/// [`Pulse`] schedule aims at the dense path, which reads only the
/// reaching-set lengths: in each dense round node 0 collides only if an
/// extra reaches it, while the preceding 2-shard round (node 0 silent,
/// everyone else sending) left extras' counts at node 0 that the silent
/// one-shard round before it never touched.
#[test]
fn interleaved_steps_agree_after_coordinator_rounds() {
    let net = directed_net(5, 150);
    let adv = || Box::new(Coordinated(RandomDelivery::new(0.4, 23))) as Box<dyn Adversary>;
    for start in [StartRule::Synchronous, StartRule::Asynchronous] {
        let config = ExecutorConfig {
            rule: CollisionRule::Cr4,
            start,
            payload: PayloadId(0),
        };
        let label = format!("directed flooding {start:?}");
        interleave(&label, &net, config, Flooder::slots, adv, 200);
    }
    let config = ExecutorConfig {
        rule: CollisionRule::Cr4,
        start: StartRule::Synchronous,
        payload: PayloadId(0),
    };
    interleave("directed pulse", &net, config, Pulse::slots, adv, 200);
}

/// Forwards every decision of the wrapped adversary except its oblivious
/// form, so the sharded engine consults it on the coordinator.
#[derive(Debug, Clone)]
struct Coordinated<A>(A);

impl<A: Adversary + Clone + 'static> Adversary for Coordinated<A> {
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        self.0.assign(network, n_processes)
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        self.0.unreliable_deliveries(ctx, sender, out);
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        self.0.resolve_cr4(ctx, node, reaching)
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// `adv` as itself (sampled in-shard) or behind [`Coordinated`].
fn on_path<A: Adversary + Clone + 'static>(adv: A, coordinator: bool) -> Box<dyn Adversary> {
    if coordinator {
        Box::new(Coordinated(adv))
    } else {
        Box::new(adv)
    }
}

/// Steps the sequential engine and both sharded paths in lockstep,
/// asserting equal round summaries and event-by-event equal traces of
/// the two sharded paths.
fn lockstep(
    label: &str,
    rounds: usize,
    mut sequential: impl FnMut() -> RoundSummary,
    mut in_shard: impl FnMut(&mut Vec<TraceEvent>) -> RoundSummary,
    mut coordinator: impl FnMut(&mut Vec<TraceEvent>) -> RoundSummary,
) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let ss = sequential();
        let si = in_shard(&mut a);
        let sc = coordinator(&mut b);
        assert_eq!(si, sc, "{label}: in-shard vs coordinator, round {round}");
        assert_eq!(ss, si, "{label}: sequential vs in-shard, round {round}");
    }
    assert_eq!(a.len(), b.len(), "{label}: event counts");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "{label}: event {i}");
    }
}

/// Property 4a: in-shard and coordinator sampling agree across CR1–CR4 ×
/// both starts × worker counts on a 16-epoch churn schedule with the
/// crash/jam/equivocate/forge plan — every epoch switch hands the engine
/// a network whose `G′ ∖ G` transpose is frozen on its first sharded
/// round.
#[test]
fn in_shard_sampling_matches_the_coordinator_under_churn_and_faults() {
    let n = 150;
    assert!(RandomDelivery::new(0.5, 1).oblivious().is_some());
    assert!(Coordinated(RandomDelivery::new(0.5, 1))
        .oblivious()
        .is_none());
    for net_seed in [29u64, 89] {
        let net = random_net(net_seed, n, SPARSE);
        let schedule = generators::churn_schedule(
            &net,
            generators::ChurnParams {
                epochs: 16,
                span: 2,
                rewire_fraction: 0.5,
            },
            derive_seed(11, net_seed),
        );
        let plan = fault_plan(n, net_seed);
        let seed = derive_seed(151, net_seed);
        for config in configs() {
            for workers in WORKER_COUNTS {
                let label = format!(
                    "churn net {net_seed} {:?} {:?} workers={workers}",
                    config.rule, config.start
                );
                let mut sequential = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    Box::new(RandomDelivery::new(0.5, seed)),
                    config,
                    plan.clone(),
                )
                .unwrap();
                let mut paths = [false, true].map(|coordinator| {
                    common::sharded(
                        &schedule,
                        Flooder::slots(n),
                        on_path(RandomDelivery::new(0.5, seed), coordinator),
                        config,
                        workers,
                        plan.clone(),
                    )
                });
                let [in_shard, coordinator] = &mut paths;
                lockstep(
                    &label,
                    36,
                    || sequential.step(),
                    |sink| in_shard.step_traced(sink),
                    |sink| coordinator.step_traced(sink),
                );
                for path in &paths {
                    assert_eq!(
                        sequential.executor().known_payloads(),
                        path.exec.known_payloads(),
                        "{label}: known records"
                    );
                    assert_eq!(
                        sequential.outcome(),
                        path.exec.outcome(),
                        "{label}: outcome"
                    );
                }
            }
        }
    }
}

/// A random *directed* dual graph: a one-way path keeps every node
/// reachable from node 0, and one-way chords and gray extras make both
/// transposes differ from their out-CSRs. No reliable edge enters node 0,
/// so in dense rounds its collision hinges on the adversary's extras
/// alone.
fn directed_net(seed: u64, n: usize) -> DualGraph {
    let mut state = seed;
    let mut pick = || {
        state = derive_seed(state, 1);
        NodeId::from_index((state % n as u64) as usize)
    };
    let mut reliable = Digraph::new(n);
    for i in 0..n {
        if i + 1 < n {
            reliable.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
        }
        let j = pick();
        if j.index() != i && j.index() != 0 {
            reliable.add_edge(NodeId::from_index(i), j);
        }
    }
    let mut total = reliable.clone();
    for i in 0..n {
        for _ in 0..3 {
            let j = pick();
            if j.index() != i {
                total.add_edge(NodeId::from_index(i), j);
            }
        }
    }
    DualGraph::new(reliable, total, NodeId(0)).unwrap()
}

/// Property 4b: the two sampling paths agree on a directed network (where
/// the in-shard path reads a transpose that differs from the rows the
/// coordinator samples), for a `WithAssignment<RandomDelivery>`, which
/// forwards the oblivious form, and for a `WithRandomCr4<RandomDelivery>`,
/// whose form carries the wrapper's own CR4 coin.
#[test]
fn in_shard_sampling_matches_on_directed_and_reassigned_networks() {
    let n = 150;
    let directed = directed_net(5, n);
    assert!(!directed.is_undirected());
    assert!(directed.reliable_in_csr().row(NodeId(0)).is_empty());
    assert!(!directed.unreliable_only_in_csr().row(NodeId(0)).is_empty());
    assert_ne!(
        directed.unreliable_only_in_csr(),
        directed.unreliable_only_csr()
    );
    let undirected = random_net(71, n, SPARSE);
    let reversed: Vec<ProcessId> = (0..n as u32).rev().map(ProcessId).collect();
    assert!(
        WithAssignment::new(RandomDelivery::new(0.3, 4), reversed.clone())
            .unwrap()
            .oblivious()
            .is_some()
    );
    let coined = || WithRandomCr4::new(RandomDelivery::new(0.5, 6), 13);
    assert_ne!(
        coined().oblivious(),
        RandomDelivery::new(0.5, 6).oblivious(),
        "the wrapper's form swaps in its own CR4 coin"
    );
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, &DualGraph, Box<dyn Fn(bool) -> Box<dyn Adversary>>)> = vec![
        (
            "directed random(0.5)",
            &directed,
            Box::new(|coordinator| on_path(RandomDelivery::new(0.5, 3), coordinator)),
        ),
        (
            "with-assignment random(0.3)",
            &undirected,
            Box::new(move |coordinator| {
                let adv =
                    WithAssignment::new(RandomDelivery::new(0.3, 4), reversed.clone()).unwrap();
                on_path(adv, coordinator)
            }),
        ),
        (
            "with-random-cr4 random(0.5)",
            &undirected,
            Box::new(move |coordinator| on_path(coined(), coordinator)),
        ),
    ];
    for (name, net, make) in &cases {
        for config in configs() {
            for workers in WORKER_COUNTS {
                let label = format!(
                    "{name} {:?} {:?} workers={workers}",
                    config.rule, config.start
                );
                let exec = |coordinator| {
                    Executor::from_slots(net, Flooder::slots(n), make(coordinator), config).unwrap()
                };
                let mut sequential = exec(false);
                let mut in_shard = ShardedExecutor::new(exec(false), workers);
                let mut coordinator = ShardedExecutor::new(exec(true), workers);
                lockstep(
                    &label,
                    25,
                    || sequential.step(),
                    |sink| in_shard.step_traced(sink),
                    |sink| coordinator.step_traced(sink),
                );
                for path in [&in_shard, &coordinator] {
                    assert_eq!(
                        sequential.known_payloads(),
                        path.known_payloads(),
                        "{label}: known records"
                    );
                    assert_eq!(sequential.outcome(), path.outcome(), "{label}: outcome");
                }
            }
        }
    }
}
