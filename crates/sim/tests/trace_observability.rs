//! Observability suite: the trace layer's two load-bearing contracts,
//! checked engine against engine.
//!
//! 1. **`NullSink` transparency** — `step_traced(&mut NullSink)` must be
//!    *the* untraced round: every hook is guarded by
//!    `TraceSink::ENABLED`, so the `NullSink` instantiation is the exact
//!    code path `step` delegates to. Recording must not change the round
//!    either: the differential suites step through a `Vec<TraceEvent>`
//!    sink, not through `step()`. Verified behaviorally here across all
//!    three engines (enum/boxed/reference) × the adversary menu × CR1–CR4
//!    × both start rules: plain, `NullSink` and recorded runs agree on
//!    summaries, known-payload records and outcomes round for round,
//!    injections included.
//! 2. **trace equivalence** — the optimized engine and the naive
//!    reference oracle must emit *identical event streams*, not just
//!    identical end states: same events, same order, same round stamps —
//!    on static runs and through epoch switches, crash/recovery faults,
//!    and Byzantine roles (the reference side driven through its own
//!    [`DynamicsCursor`] with the same wrapper-level emissions). A seeded
//!    mutation (perturbed adversary) must be localized to a concrete
//!    first diverging event by [`first_divergence`].

mod common;

use common::{adversary_menu, churn3, configs, custom, random_net, DENSE};
use dualgraph_net::{DualGraph, NodeId};
use dualgraph_sim::{
    first_divergence, Adversary, BroadcastOutcome, ChatterProcess, CollisionRule, DynamicExecutor,
    Executor, ExecutorConfig, FaultPlan, NullSink, PayloadId, PayloadSet, RandomDelivery,
    ReferenceExecutor, RoundSummary, TraceEvent, TraceSink,
};

/// The round and injection entry points the transparency check drives,
/// over both executor types.
trait Engine {
    fn step(&mut self) -> RoundSummary;
    fn inject(&mut self, node: NodeId, payload: PayloadId) -> bool;
    fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary;
    fn inject_traced<S: TraceSink>(
        &mut self,
        node: NodeId,
        payload: PayloadId,
        sink: &mut S,
    ) -> bool;
    fn state(&self) -> (Vec<PayloadSet>, BroadcastOutcome);
}

/// Both executor types expose the same inherent entry points.
macro_rules! impl_engine {
    ($($ty:ident),+) => {$(
        impl Engine for $ty<'_> {
            fn step(&mut self) -> RoundSummary {
                $ty::step(self)
            }
            fn inject(&mut self, node: NodeId, payload: PayloadId) -> bool {
                $ty::inject(self, node, payload)
            }
            fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
                $ty::step_traced(self, sink)
            }
            fn inject_traced<S: TraceSink>(
                &mut self,
                node: NodeId,
                payload: PayloadId,
                sink: &mut S,
            ) -> bool {
                $ty::inject_traced(self, node, payload, sink)
            }
            fn state(&self) -> (Vec<PayloadSet>, BroadcastOutcome) {
                (self.known_payloads().to_vec(), self.outcome())
            }
        }
    )+};
}

impl_engine!(Executor, ReferenceExecutor);

/// Steps three instances of one engine — `plain` through the untraced
/// entry points, `null` through the `NullSink`-instantiated ones, and
/// `recorded` through a recording `Vec<TraceEvent>` sink — asserting
/// identical behavior every round, including a mid-run injection through
/// each inject path. The recorded stream must also account for every
/// round: one `RoundStart` and one `Transmit` per counted sender.
fn assert_null_transparent<E: Engine>(build: impl Fn() -> E, rounds: u64, label: &str) {
    let (mut plain, mut null, mut recorded) = (build(), build(), build());
    let mut events: Vec<TraceEvent> = Vec::new();
    for round in 0..rounds {
        if round == 5 {
            let a = plain.inject(NodeId(2), PayloadId(3));
            let b = null.inject_traced(NodeId(2), PayloadId(3), &mut NullSink);
            let c = recorded.inject_traced(NodeId(2), PayloadId(3), &mut events);
            assert_eq!(a, b, "{label}: injection fate diverged (NullSink)");
            assert_eq!(a, c, "{label}: injection fate diverged (recording sink)");
        }
        let a = plain.step();
        let b = null.step_traced(&mut NullSink);
        let from = events.len();
        let c = recorded.step_traced(&mut events);
        assert_eq!(
            a, b,
            "{label}: summary diverged at round {round} — NullSink is not transparent"
        );
        assert_eq!(
            a, c,
            "{label}: summary diverged at round {round} — recording changed the round"
        );
        let this_round = &events[from..];
        assert_eq!(
            this_round.first(),
            Some(&TraceEvent::RoundStart { round: a.round }),
            "{label}: round {round} opens with its RoundStart"
        );
        let transmits = this_round
            .iter()
            .filter(|e| matches!(e, TraceEvent::Transmit { .. }))
            .count();
        assert_eq!(
            transmits, a.senders,
            "{label}: round {round} records every sender"
        );
    }
    let plain = plain.state();
    assert_eq!(plain, null.state(), "{label}: NullSink run diverged");
    assert_eq!(plain, recorded.state(), "{label}: recorded run diverged");
}

/// Contract 1: `NullSink`-traced and recorded stepping are
/// indistinguishable from untraced stepping on all three engines, across
/// the menu × CR1–CR4 × both start rules.
#[test]
fn null_sink_is_transparent_on_every_engine() {
    for (topo_seed, n) in [(3u64, 19usize), (11, 27)] {
        let net = random_net(topo_seed, n, DENSE);
        for config in configs() {
            for (name, make) in adversary_menu(topo_seed ^ 0x5A) {
                let seed = topo_seed.wrapping_mul(97) ^ 13;
                let label = format!("n={n} {name} {:?}/{:?}", config.rule, config.start);
                assert_null_transparent(
                    || {
                        Executor::from_slots(
                            &net,
                            ChatterProcess::slots(n, seed, 3),
                            make(),
                            config,
                        )
                        .unwrap()
                    },
                    40,
                    &format!("enum {label}"),
                );
                assert_null_transparent(
                    || {
                        // Every chatter behind virtual dispatch: a mixed
                        // table of `Custom` slots.
                        let slots = custom(ChatterProcess::slots(n, seed, 3));
                        let exec = Executor::from_slots(&net, slots, make(), config).unwrap();
                        assert!(!exec.uses_batched_dispatch());
                        exec
                    },
                    40,
                    &format!("boxed {label}"),
                );
                assert_null_transparent(
                    || {
                        ReferenceExecutor::from_slots(
                            &net,
                            ChatterProcess::slots(n, seed, 3),
                            make(),
                            config,
                        )
                        .unwrap()
                    },
                    40,
                    &format!("reference {label}"),
                );
            }
        }
    }
}

/// Collects `rounds` of events from an optimized enum-dispatch run.
fn collect_optimized(
    net: &DualGraph,
    seed: u64,
    adversary: Box<dyn Adversary>,
    config: ExecutorConfig,
    rounds: u64,
) -> Vec<TraceEvent> {
    let n = net.len();
    let mut exec =
        Executor::from_slots(net, ChatterProcess::slots(n, seed, 3), adversary, config).unwrap();
    let mut events = Vec::new();
    for _ in 0..rounds {
        exec.step_traced(&mut events);
    }
    events
}

/// Collects `rounds` of events from the reference oracle on the same
/// workload.
fn collect_reference(
    net: &DualGraph,
    seed: u64,
    adversary: Box<dyn Adversary>,
    config: ExecutorConfig,
    rounds: u64,
) -> Vec<TraceEvent> {
    let n = net.len();
    let mut exec =
        ReferenceExecutor::from_slots(net, ChatterProcess::slots(n, seed, 3), adversary, config)
            .unwrap();
    let mut events = Vec::new();
    for _ in 0..rounds {
        exec.step_traced(&mut events);
    }
    events
}

/// Contract 2, static half: identical event streams across the adversary
/// menu × CR1–CR4.
#[test]
fn engines_emit_identical_event_streams_on_static_runs() {
    for (topo_seed, n) in [(5u64, 21usize), (17, 29)] {
        let net = random_net(topo_seed, n, DENSE);
        for rule in CollisionRule::ALL {
            let config = ExecutorConfig {
                rule,
                ..ExecutorConfig::default()
            };
            for (name, make) in adversary_menu(topo_seed ^ 0xC3) {
                let seed = topo_seed.wrapping_mul(31) ^ 7;
                let optimized = collect_optimized(&net, seed, make(), config, 40);
                let reference = collect_reference(&net, seed, make(), config, 40);
                assert_eq!(
                    first_divergence(&optimized, &reference),
                    None,
                    "n={n} {name} {rule:?}: event streams diverged"
                );
                assert!(
                    !optimized.is_empty(),
                    "n={n} {name} {rule:?}: stream must be non-trivial"
                );
            }
        }
    }
}

/// A fault plan exercising crash/recovery plus the Byzantine roles
/// (jammer, spammer, equivocator, forger) on deterministically chosen
/// non-source nodes.
fn byzantine_mixed_plan(n: usize, seed: u64) -> FaultPlan {
    let pick = |k: u64| NodeId(1 + ((seed / (k + 1) + 3 * k) % (n as u64 - 1)) as u32);
    let junk = PayloadSet::only(PayloadId(9));
    FaultPlan::none()
        .crash(pick(0), 2)
        .recover(pick(0), 9)
        .jam(pick(1), 5)
        .spam(pick(2), 7, junk)
        .equivocate(pick(3), 4, junk, PayloadSet::only(PayloadId(11)))
        .forge(pick(4), 6, PayloadSet::only(PayloadId(13)))
}

/// Contract 2, dynamic half: identical event streams through epoch
/// switches, crash/recovery, and Byzantine roles, across the menu.
#[test]
fn engines_emit_identical_event_streams_under_dynamics_and_byzantine_faults() {
    for (topo_seed, n) in [(7u64, 21usize), (23, 29)] {
        let net = random_net(topo_seed, n, DENSE);
        let schedule = churn3(&net, topo_seed ^ 0x77);
        let plan = byzantine_mixed_plan(n, topo_seed);
        for rule in CollisionRule::ALL {
            let config = ExecutorConfig {
                rule,
                ..ExecutorConfig::default()
            };
            for (name, make) in adversary_menu(topo_seed ^ 0x3C) {
                let seed = topo_seed.wrapping_mul(41) ^ 5;

                let mut optimized_exec = DynamicExecutor::from_slots(
                    &schedule,
                    ChatterProcess::slots(n, seed, 3),
                    make(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                let mut optimized: Vec<TraceEvent> = Vec::new();
                for _ in 0..40 {
                    optimized_exec.step_traced(&mut optimized);
                }

                let mut reference_exec = common::reference(
                    &schedule,
                    ChatterProcess::slots(n, seed, 3),
                    make(),
                    config,
                    plan.clone(),
                );
                let mut reference: Vec<TraceEvent> = Vec::new();
                for _ in 0..40 {
                    reference_exec.step_traced(&mut reference);
                }

                assert_eq!(
                    first_divergence(&optimized, &reference),
                    None,
                    "n={n} {name} {rule:?}: dynamic event streams diverged"
                );
                assert!(
                    optimized
                        .iter()
                        .any(|e| matches!(e, TraceEvent::EpochSwitch { .. })),
                    "n={n} {name} {rule:?}: run must cross an epoch boundary"
                );
                assert!(
                    optimized
                        .iter()
                        .any(|e| matches!(e, TraceEvent::Fault { .. })),
                    "n={n} {name} {rule:?}: run must fire fault events"
                );
            }
        }
    }
}

/// A seeded mutation (perturbed adversary seed on the reference side)
/// must be localized by [`first_divergence`] to a concrete first event —
/// the trace-diff workflow's demonstration that real divergence is caught
/// and pinpointed, not summarized away.
#[test]
fn first_divergence_localizes_a_seeded_mutation() {
    let net = random_net(13, 25, DENSE);
    let config = ExecutorConfig::default();
    let optimized = collect_optimized(&net, 7, Box::new(RandomDelivery::new(0.5, 7)), config, 60);
    let reference = collect_reference(
        &net,
        7,
        Box::new(RandomDelivery::new(0.5, 7 ^ 0x5EED)),
        config,
        60,
    );
    let div = first_divergence(&optimized, &reference)
        .expect("perturbed adversary seed must diverge the streams");
    assert!(
        div.index < optimized.len().max(reference.len()),
        "divergence must name a position inside the run: {div}"
    );
    // The prefix up to the divergence must genuinely agree.
    let k = div.index.min(optimized.len()).min(reference.len());
    assert_eq!(optimized[..k], reference[..k], "prefix before divergence");
}
