//! Differential test: the three engine paths against each other, round for
//! round, on random topologies across the full adversary menu:
//!
//! 1. **enum** — the optimized CSR/arena executor on a homogeneous batched
//!    process table ([`Executor::from_slots`], one variant dispatch per
//!    sweep);
//! 2. **boxed** — the same executor on [`ProcessSlot::Custom`] slots (a
//!    mixed table, two virtual calls per node per round);
//! 3. **reference** — the naive allocating [`ReferenceExecutor`] oracle.
//!
//! The engines share no round-loop code paths for process dispatch: any
//! divergence in message ordering, adversary call order, collision
//! resolution, or enum-vs-virtual dispatch shows up as a mismatch here.
//! Every engine steps through a recording `Vec<TraceEvent>` sink, so each
//! round's transmissions and receptions are compared as whole messages,
//! round tags included.

mod common;

use common::{
    adversary_menu, configs, custom, random_net, LoggingChatter, ReceiveLog, DENSE, SPARSE,
};
use dualgraph_net::{generators, DualGraph, NodeId};
use dualgraph_sim::automata::RoundRobinProcess;
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    first_divergence, Adversary, ChatterProcess, CollisionRule, Executor, ExecutorConfig,
    FullDelivery, ProcessId, ProcessSlot, RandomDelivery, Reception, ReferenceExecutor,
    ShardedExecutor, StartRule, TraceEvent, WithAssignment,
};

/// Panics at the first diverging event if two recorded streams differ
/// past `from` (the streams agree before it).
fn assert_same_stream(left: &[TraceEvent], right: &[TraceEvent], from: usize, what: &str) {
    if let Some(div) = first_divergence(&left[from..], &right[from..]) {
        panic!(
            "{what}: event streams diverged at event #{}: left {:?}, right {:?}",
            from + div.index,
            div.left,
            div.right
        );
    }
}

/// Steps all three engines side by side — the population's slots on the
/// batched path, the same automata boxed, and the reference oracle —
/// asserting identical event streams, `RoundSummary`s and
/// `BroadcastOutcome`s every round. Returns the enum engine's stream.
fn assert_engines_agree(
    net: &DualGraph,
    slots: &dyn Fn() -> Vec<ProcessSlot>,
    adversary: &dyn Fn() -> Box<dyn Adversary>,
    config: ExecutorConfig,
    max_rounds: u64,
    label: &str,
) -> Vec<TraceEvent> {
    let mut enumd = Executor::from_slots(net, slots(), adversary(), config).unwrap();
    assert!(
        enumd.uses_batched_dispatch(),
        "{label}: homogeneous slots must take the batched path"
    );
    let mut boxed_exec = Executor::from_slots(net, custom(slots()), adversary(), config).unwrap();
    assert!(!boxed_exec.uses_batched_dispatch());
    let mut reference = ReferenceExecutor::from_slots(net, slots(), adversary(), config).unwrap();
    let (mut enum_events, mut boxed_events, mut reference_events) =
        (Vec::new(), Vec::new(), Vec::new());
    for round in 0..max_rounds {
        let from = enum_events.len();
        let a = enumd.step_traced(&mut enum_events);
        let b = boxed_exec.step_traced(&mut boxed_events);
        let c = reference.step_traced(&mut reference_events);
        let what = |pair| format!("{label}: {pair} in round {}", a.round);
        assert_same_stream(&enum_events, &boxed_events, from, &what("enum vs boxed"));
        assert_same_stream(
            &boxed_events,
            &reference_events,
            from,
            &what("boxed vs reference"),
        );
        assert_eq!(
            a, b,
            "{label}: enum vs boxed summaries diverged at round {round}"
        );
        assert_eq!(
            b, c,
            "{label}: boxed vs reference summaries diverged at round {round}"
        );
        assert_eq!(
            enumd.outcome(),
            boxed_exec.outcome(),
            "{label}: enum vs boxed outcomes diverged at round {round}"
        );
        assert_eq!(
            boxed_exec.outcome(),
            reference.outcome(),
            "{label}: boxed vs reference outcomes diverged at round {round}"
        );
        if a.complete {
            break;
        }
    }
    enum_events
}

/// The chatter population every menu-wide comparison runs.
fn chatter(n: usize, seed: u64) -> impl Fn() -> Vec<ProcessSlot> {
    move || ChatterProcess::slots(n, seed, 3)
}

/// The `receive` contract: an engine calls `receive` only with a message
/// or a collision, never with silence, and every engine makes the same
/// calls. A logging `Custom` population runs on the one-shard executor,
/// on the sharded engine at workers 1, 2 and 7, and on the oracle, over
/// the menu × CR1–CR4 × both start rules; the sorted call logs must be
/// equal and hold no `Reception::Silence`.
#[test]
fn receive_is_called_only_for_messages_and_collisions() {
    let net = random_net(47, 150, SPARSE);
    let n = net.len();
    for config in configs() {
        for (name, make_adv) in adversary_menu(derive_seed(91, 47)) {
            let label = format!("{name} {:?} {:?}", config.rule, config.start);
            let logs: Vec<ReceiveLog> = (0..5).map(|_| ReceiveLog::default()).collect();
            let slots = |k: usize| LoggingChatter::slots(n, 13, &logs[k]);
            let mut exec = Executor::from_slots(&net, slots(0), make_adv(), config).unwrap();
            let mut sharded: Vec<ShardedExecutor<'_>> = [1, 2, 7]
                .into_iter()
                .enumerate()
                .map(|(k, workers)| {
                    let exec =
                        Executor::from_slots(&net, slots(k + 1), make_adv(), config).unwrap();
                    ShardedExecutor::new(exec, workers)
                })
                .collect();
            assert!(sharded[2].plan().shards() > 1, "{label}: must shard");
            let mut oracle =
                ReferenceExecutor::from_slots(&net, slots(4), make_adv(), config).unwrap();
            for _ in 0..40 {
                exec.step();
                sharded.iter_mut().for_each(|s| {
                    s.step();
                });
                oracle.step();
            }
            let calls: Vec<Vec<(u32, u64, Reception)>> = logs
                .iter()
                .map(|log| {
                    let mut calls = log.lock().unwrap().clone();
                    calls.sort_by_key(|&(process, local, _)| (process, local));
                    calls
                })
                .collect();
            assert!(!calls[4].is_empty(), "{label}: nothing was heard");
            assert!(
                calls[4].iter().all(|c| c.2 != Reception::Silence),
                "{label}: the oracle handed out silence"
            );
            for (k, engine) in ["executor", "sharded(1)", "sharded(2)", "sharded(7)"]
                .iter()
                .enumerate()
            {
                assert_eq!(calls[k], calls[4], "{label}: {engine} vs the oracle");
            }
        }
    }
}

#[test]
fn optimized_engine_matches_reference_on_random_topologies() {
    // ~50 random er_dual topologies x the full adversary menu.
    for topo_seed in 0..50u64 {
        let n = 5 + (topo_seed as usize * 7) % 32;
        let net = random_net(topo_seed, n, DENSE);
        for (name, make) in adversary_menu(topo_seed ^ 0xA5) {
            assert_engines_agree(
                &net,
                &chatter(n, topo_seed.wrapping_mul(31) ^ 7),
                &*make,
                ExecutorConfig::default(),
                60,
                &format!("er_dual(seed={topo_seed}, n={n}) x {name}"),
            );
        }
    }
}

#[test]
fn optimized_engine_matches_reference_across_rules_and_starts() {
    let net = random_net(99, 21, (0.15, 0.3));
    for rule in CollisionRule::ALL {
        for start in [StartRule::Synchronous, StartRule::Asynchronous] {
            assert_engines_agree(
                &net,
                &chatter(net.len(), 1234),
                &|| Box::new(RandomDelivery::new(0.6, 42)),
                ExecutorConfig {
                    rule,
                    start,
                    ..ExecutorConfig::default()
                },
                50,
                &format!("{rule} / {start}"),
            );
        }
    }
}

/// Hammers the dense-round fast path (every node transmitting under
/// CR2-CR4, where the engine skips the reaching-list write pass): flooders
/// on a clique reach the all-senders steady state after round 1 and stay
/// there; line topologies cross in and out of it as the frontier moves.
/// Under `RandomDelivery` the steady state also carries random extras.
#[test]
fn engines_agree_in_all_senders_steady_state() {
    use dualgraph_sim::Flooder;
    let topologies: Vec<(&str, DualGraph)> = vec![
        ("complete", generators::complete(12)),
        ("line", generators::line(9, 2)),
        ("star", generators::star(7)),
    ];
    let adversaries: [(&str, fn() -> Box<dyn Adversary>); 2] = [
        ("full-delivery", || Box::new(FullDelivery::new())),
        ("random(0.5)", || Box::new(RandomDelivery::new(0.5, 7))),
    ];
    for (name, net) in topologies {
        for (adv_name, adversary) in adversaries {
            for rule in CollisionRule::ALL {
                let n = net.len();
                let config = ExecutorConfig {
                    rule,
                    start: StartRule::Synchronous,
                    ..ExecutorConfig::default()
                };
                let label = format!("{name}/{adv_name}/{rule}");
                let mut enumd =
                    Executor::from_slots(&net, Flooder::slots(n), adversary(), config).unwrap();
                let mut boxed_exec =
                    Executor::from_slots(&net, custom(Flooder::slots(n)), adversary(), config)
                        .unwrap();
                assert!(!boxed_exec.uses_batched_dispatch(), "{label}");
                let mut reference =
                    ReferenceExecutor::from_slots(&net, Flooder::slots(n), adversary(), config)
                        .unwrap();
                let (mut enum_events, mut reference_events) = (Vec::new(), Vec::new());
                for round in 0..30 {
                    let a = enumd.step_traced(&mut enum_events);
                    let b = boxed_exec.step();
                    let c = reference.step_traced(&mut reference_events);
                    assert_eq!(a, b, "{label}: enum vs boxed at round {round}");
                    assert_eq!(b, c, "{label}: boxed vs reference at round {round}");
                }
                assert_same_stream(&enum_events, &reference_events, 0, &label);
                assert_eq!(enumd.outcome(), reference.outcome(), "{label}");
            }
        }
    }
}

/// Satellite audit regression: every `procs[..]` access must use the right
/// id space (tables are built in `ProcessId` order, then permuted into
/// node order by the assignment). Under the identity assignment a
/// node-index/process-id mix-up is invisible; this test forces a
/// non-identity permutation so any such bug diverges — chatter automata
/// mix their `ProcessId` into their RNG stream, so a swapped process
/// changes its transmissions immediately.
#[test]
fn engines_agree_under_non_identity_assignments() {
    let net = random_net(7, 17, (0.18, 0.3));
    let n = net.len();
    let permutations: Vec<(&str, Vec<ProcessId>)> = vec![
        (
            "reversed",
            (0..n).rev().map(ProcessId::from_index).collect(),
        ),
        (
            "rotated",
            (0..n).map(|i| ProcessId::from_index((i + 5) % n)).collect(),
        ),
    ];
    for (name, perm) in permutations {
        let perm = &perm;
        let make = move || {
            Box::new(WithAssignment::new(RandomDelivery::new(0.5, 23), perm.clone()).unwrap())
                as Box<dyn Adversary>
        };
        assert_engines_agree(
            &net,
            &chatter(n, 99),
            &make,
            ExecutorConfig::default(),
            60,
            &format!("non-identity assignment ({name})"),
        );
        // The placement itself must put process `perm[node]` at `node`.
        let exec = Executor::from_slots(
            &net,
            ChatterProcess::slots(n, 99, 3),
            make(),
            ExecutorConfig::default(),
        )
        .unwrap();
        for node in 0..n {
            assert_eq!(
                exec.process_at(NodeId::from_index(node)).id(),
                perm[node],
                "{name}: wrong process at node {node}"
            );
        }
    }
}

#[test]
fn optimized_engine_matches_reference_on_gadgets() {
    let topologies: Vec<(&str, DualGraph)> = vec![
        ("clique-bridge", generators::clique_bridge(12).network),
        ("layered-pairs", generators::layered_pairs(13)),
        ("line+chords", generators::line(16, 4)),
        ("grid", generators::grid(4, 4)),
        ("star", generators::star(9)),
    ];
    for (name, net) in topologies {
        assert_engines_agree(
            &net,
            &chatter(net.len(), 5),
            &|| Box::new(FullDelivery::new()),
            ExecutorConfig::default(),
            40,
            name,
        );
    }
}

/// Round Robin recovers the global clock from the `round_tag` of the
/// first message it hears (§5 footnote 1), so under asynchronous start a
/// dropped or rewritten tag changes every later transmission. Chatter
/// sets no tag; this is the three-way check on a protocol that does.
#[test]
fn engines_agree_on_round_tagged_protocol_under_async_start() {
    for topo_seed in 0..8u64 {
        let n = 5 + (topo_seed as usize * 5) % 20;
        let net = random_net(topo_seed, n, (0.15, 0.25));
        let slots = move || {
            (0..n)
                .map(|i| {
                    ProcessSlot::RoundRobin(RoundRobinProcess::new(ProcessId::from_index(i), n))
                })
                .collect()
        };
        for rule in CollisionRule::ALL {
            for (name, make) in adversary_menu(topo_seed ^ 0x7A) {
                let label =
                    format!("round-robin er_dual(seed={topo_seed}, n={n}) x {name} x {rule}");
                let events = assert_engines_agree(
                    &net,
                    &slots,
                    &*make,
                    ExecutorConfig {
                        rule,
                        start: StartRule::Asynchronous,
                        ..ExecutorConfig::default()
                    },
                    4 * n as u64,
                    &label,
                );
                // The comparison must cover tags crossing the medium: some
                // node heard another process's tagged message.
                assert!(
                    events.iter().any(|e| matches!(
                        e,
                        TraceEvent::Reception { node, message, .. }
                            if message.round_tag.is_some() && message.sender.index() != node.index()
                    )),
                    "{label}: no tagged message was relayed"
                );
            }
        }
    }
}
