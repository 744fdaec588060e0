//! Property test: enum-dispatched algorithms (via
//! [`BroadcastAlgorithm::slots`] and the executor's batched process table)
//! are round-for-round **bit-identical** to the same slots behind virtual
//! dispatch (each boxed into a [`ProcessSlot::Custom`], so the executor
//! runs a mixed table) — across random topologies, the full adversary
//! menu, all four collision rules, and both start rules.
//!
//! This is the contract that makes the de-virtualized dispatch path a pure
//! optimization: same automata, same RNG streams, same event streams.

use dualgraph_broadcast::algorithms::{
    BroadcastAlgorithm, Decay, Harmonic, RoundRobin, SsfConstruction, StrongSelect, Uniform,
};
use dualgraph_net::generators;
use dualgraph_sim::{
    first_divergence, Adversary, BurstyDelivery, CollisionRule, CollisionSeeker, Executor,
    ExecutorConfig, FullDelivery, ProcessSlot, RandomDelivery, ReliableOnly, StartRule, TraceEvent,
};
use proptest::prelude::*;

fn algorithm(idx: usize) -> Box<dyn BroadcastAlgorithm> {
    match idx % 5 {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(Harmonic::with_period(3)),
        2 => Box::new(Decay::new()),
        3 => Box::new(Uniform::new(0.3)),
        _ => Box::new(StrongSelect::with_construction(SsfConstruction::Random {
            seed: 5,
        })),
    }
}

fn adversary(idx: usize, seed: u64) -> Box<dyn Adversary> {
    match idx % 5 {
        0 => Box::new(ReliableOnly::new()),
        1 => Box::new(FullDelivery::new()),
        2 => Box::new(RandomDelivery::new(0.5, seed)),
        3 => Box::new(BurstyDelivery::new(0.3, 0.3, seed)),
        _ => Box::new(CollisionSeeker::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn enum_dispatch_is_bit_identical_to_boxed(
        topo_seed: u64,
        seed: u64,
        algo_idx in 0usize..5,
        adv_idx in 0usize..5,
        rule_idx in 0usize..4,
        sync in 0usize..2,
    ) {
        let n = 9 + (topo_seed % 19) as usize;
        let net = generators::er_dual(
            generators::ErDualParams {
                n,
                reliable_p: 0.15,
                unreliable_p: 0.3,
            },
            topo_seed,
        );
        let algo = algorithm(algo_idx);
        let config = ExecutorConfig {
            rule: CollisionRule::ALL[rule_idx],
            start: if sync == 0 {
                StartRule::Synchronous
            } else {
                StartRule::Asynchronous
            },
            ..ExecutorConfig::default()
        };
        let label = format!(
            "{} x adversary {adv_idx} x {} x {} on er_dual(n={n}, seed={topo_seed})",
            algo.name(), config.rule, config.start,
        );

        let mut enumd = Executor::from_slots(
            &net,
            algo.slots(n, seed),
            adversary(adv_idx, seed ^ 0xBEEF),
            config,
        ).unwrap();
        prop_assert!(
            enumd.uses_batched_dispatch(),
            "{}: built-in slots must take the batched path", label
        );
        let custom = algo
            .slots(n, seed)
            .into_iter()
            .map(|s| ProcessSlot::Custom(s.into_boxed()))
            .collect();
        let mut boxed = Executor::from_slots(
            &net,
            custom,
            adversary(adv_idx, seed ^ 0xBEEF),
            config,
        ).unwrap();
        prop_assert!(!boxed.uses_batched_dispatch());

        let (mut enum_events, mut boxed_events) = (Vec::<TraceEvent>::new(), Vec::<TraceEvent>::new());
        for round in 0..50u64 {
            let a = enumd.step_traced(&mut enum_events);
            let b = boxed.step_traced(&mut boxed_events);
            prop_assert_eq!(
                &a, &b,
                "{}: summaries diverged at round {}", &label, round
            );
            prop_assert_eq!(
                enumd.outcome(), boxed.outcome(),
                "{}: outcomes diverged at round {}", &label, round
            );
            if a.complete {
                break;
            }
        }
        prop_assert_eq!(
            first_divergence(&enum_events, &boxed_events),
            None,
            "{}: event streams diverged", &label
        );
        // Per-node automaton state visible through the public API must
        // agree too (payload + termination at every node).
        for v in net.nodes() {
            prop_assert_eq!(
                enumd.process_at(v).has_payload(),
                boxed.process_at(v).has_payload(),
                "{}: payload state diverged at {}", &label, v
            );
            prop_assert_eq!(
                enumd.process_at(v).is_terminated(),
                boxed.process_at(v).is_terminated(),
                "{}: termination state diverged at {}", &label, v
            );
        }
    }
}
