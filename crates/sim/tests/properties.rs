//! Property-based tests for the executor: model invariants that must hold
//! on random networks, random adversaries, and random protocols.

use dualgraph_net::{generators, NodeId};
use dualgraph_sim::{
    ChatterProcess as Chatter, CollisionRule, Executor, ExecutorConfig, Message, RandomDelivery,
    Reception, ReliableOnly, StartRule, TraceEvent,
};
use proptest::prelude::*;

/// One round's transmissions, in node order.
fn transmits(events: &[TraceEvent]) -> Vec<(NodeId, Message)> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Transmit { node, message, .. } => Some((node, message)),
            _ => None,
        })
        .collect()
}

/// One round's reception at every node, indexed by node (silence where
/// the stream has no event).
fn receptions(n: usize, events: &[TraceEvent]) -> Vec<Reception> {
    let mut out = vec![Reception::Silence; n];
    for (node, reception) in events.iter().filter_map(TraceEvent::heard) {
        out[node.index()] = reception;
    }
    out
}

fn random_net(n: usize, seed: u64) -> dualgraph_net::DualGraph {
    generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p: 0.15,
            unreliable_p: 0.2,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The informed set only grows, one round at a time, and informed
    /// nodes can only appear when an informed node transmitted.
    #[test]
    fn informed_set_monotone(n in 3usize..24, seed: u64, rate in 1u64..8) {
        let net = random_net(n, seed);
        let mut exec = Executor::from_slots(
            &net,
            Chatter::slots(n, seed, rate),
            Box::new(RandomDelivery::new(0.5, seed ^ 1)),
            ExecutorConfig::default(),
        ).unwrap();
        let mut last = exec.informed_count();
        for _ in 0..60 {
            let summary = exec.step();
            let now = exec.informed_count();
            prop_assert!(now >= last);
            prop_assert_eq!(now - last, summary.newly_informed.len());
            // Progress requires a sender.
            if !summary.newly_informed.is_empty() {
                prop_assert!(summary.senders > 0);
            }
            last = now;
            if summary.complete {
                break;
            }
        }
    }

    /// A *globally lone* informed sender always informs all its reliable
    /// out-neighbors, under every collision rule — the reliable edges are
    /// beyond the adversary's reach.
    #[test]
    fn lone_sender_reliable_delivery(n in 3usize..20, seed: u64, rule_idx in 0usize..4) {
        let net = random_net(n, seed);
        let rule = CollisionRule::ALL[rule_idx];
        let mut exec = Executor::from_slots(
            &net,
            Chatter::slots(n, seed, 2),
            Box::new(RandomDelivery::new(0.3, seed ^ 2)),
            ExecutorConfig {
                rule,
                ..ExecutorConfig::default()
            },
        ).unwrap();
        for _ in 0..50 {
            let before: Vec<bool> = (0..n)
                .map(|v| exec.is_informed(NodeId::from_index(v)))
                .collect();
            let mut events: Vec<TraceEvent> = Vec::new();
            exec.step_traced(&mut events);
            if let [(u, m)] = transmits(&events).as_slice() {
                if m.carries_payload() {
                    for &v in net.reliable_csr().row(*u) {
                        prop_assert!(
                            exec.is_informed(v),
                            "lone sender {u} failed to inform reliable neighbor {v}"
                        );
                    }
                }
            }
            // Un-inform never happens.
            for (v, was) in before.iter().enumerate() {
                if *was {
                    prop_assert!(exec.is_informed(NodeId::from_index(v)));
                }
            }
            if exec.is_complete() {
                break;
            }
        }
    }

    /// Receptions respect the collision-rule table: under CR3/CR4 a
    /// non-sender never hears ⊤; under CR1/CR2 silence is only reported
    /// when at most one message could have reached the node.
    #[test]
    fn reception_rule_conformance(n in 3usize..16, seed: u64) {
        let net = random_net(n, seed);
        for rule in CollisionRule::ALL {
            let mut exec = Executor::from_slots(
                &net,
                Chatter::slots(n, seed, 5),
                Box::new(RandomDelivery::new(0.6, seed ^ 3)),
                ExecutorConfig {
                    rule,
                    start: StartRule::Synchronous,
                    ..ExecutorConfig::default()
                },
            ).unwrap();
            for _ in 0..25 {
                let mut events: Vec<TraceEvent> = Vec::new();
                exec.step_traced(&mut events);
                let senders = transmits(&events);
                let receptions = receptions(n, &events);
                let sender_nodes: Vec<NodeId> = senders.iter().map(|s| s.0).collect();
                for v in 0..n {
                    let v = NodeId::from_index(v);
                    let reception = &receptions[v.index()];
                    let sent = sender_nodes.contains(&v);
                    match rule {
                        CollisionRule::Cr3 | CollisionRule::Cr4 => {
                            prop_assert!(!reception.is_collision(), "{rule} reported ⊤");
                        }
                        _ => {}
                    }
                    if sent && rule != CollisionRule::Cr1 {
                        // CR2-CR4 senders always hear themselves.
                        let own = senders.iter().find(|s| s.0 == v).unwrap().1;
                        prop_assert_eq!(reception.message(), Some(&own));
                    }
                    // A received message must come from a G'-in-neighbor
                    // (or be the node's own transmission).
                    if let Some(m) = reception.message() {
                        let from = senders
                            .iter()
                            .find(|s| s.1.sender == m.sender)
                            .map(|s| s.0)
                            .expect("message has a sender");
                        prop_assert!(
                            from == v
                                || net.reliable_csr().contains(from, v)
                                || net.unreliable_only_csr().contains(from, v),
                            "message crossed a non-edge"
                        );
                    }
                }
            }
        }
    }

    /// Stepping two identical executors yields identical event streams.
    #[test]
    fn step_determinism(n in 3usize..16, seed: u64, rounds in 1u64..40) {
        let net = random_net(n, seed);
        let run = || {
            let mut exec = Executor::from_slots(
                &net,
                Chatter::slots(n, seed, 3),
                Box::new(RandomDelivery::new(0.4, seed ^ 4)),
                ExecutorConfig::default(),
            ).unwrap();
            let mut events: Vec<TraceEvent> = Vec::new();
            for _ in 0..rounds {
                exec.step_traced(&mut events);
            }
            (exec.outcome(), events)
        };
        let (outcome_a, events_a) = run();
        let (outcome_b, events_b) = run();
        prop_assert_eq!(outcome_a, outcome_b);
        prop_assert_eq!(events_a, events_b);
    }

    /// Under the benign adversary on a classical network, CR4's adversary
    /// hook is never consulted and executions match CR3 exactly.
    #[test]
    fn cr3_cr4_agree_under_silence_resolution(n in 3usize..16, seed: u64) {
        let g = random_net(n, seed);
        let run = |rule| {
            let mut exec = Executor::from_slots(
                &g,
                Chatter::slots(n, seed, 4),
                Box::new(ReliableOnly::new()),
                ExecutorConfig {
                    rule,
                    ..ExecutorConfig::default()
                },
            ).unwrap();
            let mut events: Vec<TraceEvent> = Vec::new();
            for _ in 0..30 {
                exec.step_traced(&mut events);
            }
            events
        };
        // ReliableOnly resolves CR4 to silence, which is CR3's semantics.
        prop_assert_eq!(run(CollisionRule::Cr3), run(CollisionRule::Cr4));
    }
}
