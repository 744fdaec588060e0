//! Dynamics differential suite: the epoch-schedule runner and the node
//! fault mask, checked engine against engine.
//!
//! Two families of properties, over random topologies × the adversary
//! menu × CR1–CR4 × both start rules:
//!
//! 1. **static reduction** — a schedule with one epoch and no faults is
//!    *round-for-round identical* to today's static engine: the
//!    [`DynamicExecutor`] wrapping must be unobservable when nothing is
//!    dynamic (the dynamics subsystem costs static runs nothing
//!    semantically).
//! 2. **three-engine agreement** — across epoch switches × fault plans
//!    (crash/recovery, jammers, spammers), the optimized executor (enum
//!    and boxed dispatch) and the naive [`ReferenceExecutor`] oracle must
//!    agree on every round summary, on the per-node known-payload record,
//!    and on the fate of every mid-run injection (accepted vs dropped).
//!
//! The reference engine has no dynamics runner of its own: the suite
//! drives it through the same [`DynamicsCursor`] the runners use, so the
//! "what changes at round `t`?" decision is shared and only the round
//! semantics differ.

mod common;

use common::{adversary_menu, churn3, configs, custom, random_net, DENSE};
use dualgraph_net::{NodeId, TopologySchedule};
use dualgraph_sim::automata::PipelinedFlooder;
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{DynamicExecutor, Executor, FaultPlan, Flooder, PayloadId, PayloadSet};

/// A fault plan touching all three fault kinds plus a recovery, on nodes
/// picked deterministically from `n` and `seed`.
fn mixed_plan(n: usize, seed: u64) -> FaultPlan {
    // Never fault the source (node 0): crashing it before round 1 would
    // make every engine trivially silent under reliable-only delivery.
    let a = NodeId(1 + (seed % (n as u64 - 1)) as u32);
    let b = NodeId(1 + ((seed / 7 + 3) % (n as u64 - 1)) as u32);
    let c = NodeId(1 + ((seed / 13 + 5) % (n as u64 - 1)) as u32);
    FaultPlan::none()
        .crash(a, 2)
        .recover(a, 9)
        .jam(b, 5)
        .spam(c, 7, PayloadSet::only(PayloadId(6)))
}

/// Property 1: a single-epoch, no-fault schedule is round-for-round
/// identical to the static engine — over the full menu.
#[test]
fn single_epoch_no_fault_schedule_is_the_static_engine() {
    for (g, net_seed) in [(0usize, 11u64), (1, 29), (2, 83)] {
        let net = random_net(net_seed, 22 + g * 9, DENSE);
        let n = net.len();
        let schedule = TopologySchedule::single(net.clone());
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(31, net_seed)) {
                let label = format!("static n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut statik =
                    Executor::from_slots(&net, Flooder::slots(n), make_adv(), config).unwrap();
                let mut dynamic = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    FaultPlan::none(),
                )
                .unwrap();
                for round in 0..30 {
                    assert_eq!(
                        dynamic.step(),
                        statik.step(),
                        "{label}: diverged at round {round}"
                    );
                }
                assert_eq!(dynamic.outcome(), statik.outcome(), "{label}: outcome");
                assert_eq!(dynamic.epoch_switches(), 0, "{label}: spurious swap");
                assert_eq!(
                    dynamic.executor().known_payloads(),
                    statik.known_payloads(),
                    "{label}: known records"
                );
            }
        }
    }
}

/// Property 2: enum, boxed, and reference engines agree round for round
/// across epoch switches × a mixed fault plan × CR1–CR4 × the menu.
#[test]
fn dynamic_engines_agree_across_epochs_and_faults() {
    for (g, net_seed) in [(0usize, 17u64), (1, 47), (2, 97)] {
        let net = random_net(net_seed, 20 + g * 8, DENSE);
        let n = net.len();
        let schedule = churn3(&net, derive_seed(5, net_seed));
        let plan = mixed_plan(n, net_seed);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(77, net_seed)) {
                let label = format!("dyn n={n} {name} {:?} {:?}", config.rule, config.start);
                let mut enumd = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                assert!(enumd.executor().uses_batched_dispatch());
                let mut boxed = DynamicExecutor::from_slots(
                    &schedule,
                    custom(Flooder::slots(n)),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                assert!(!boxed.executor().uses_batched_dispatch());
                let mut reference = common::reference(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                );
                for round in 0..30 {
                    let se = enumd.step();
                    let sb = boxed.step();
                    let sr = reference.step();
                    assert_eq!(se, sb, "{label}: enum vs boxed at round {round}");
                    assert_eq!(se, sr, "{label}: enum vs reference at round {round}");
                }
                assert_eq!(
                    enumd.executor().known_payloads(),
                    boxed.executor().known_payloads(),
                    "{label}: known records (enum vs boxed)"
                );
                assert_eq!(
                    enumd.executor().known_payloads(),
                    reference.exec.known_payloads(),
                    "{label}: known records (enum vs reference)"
                );
                assert_eq!(
                    enumd.executor().roles(),
                    reference.exec.roles(),
                    "{label}: final role masks"
                );
            }
        }
    }
}

/// Clone-then-diverge audit of the dynamics state deep copy: a
/// [`DynamicExecutor`] cloned mid-run (mid-epoch, faults in force, bursty
/// adversary chains warm) must continue bit-identically against an
/// independently driven reference — and mutating the *original* after the
/// clone (an extra injection) must not leak into the clone. Any shared or
/// missing piece of the PR 4 state (roles, standing transmissions,
/// faulty count, fault cursor, epoch index, adversary RNG) fails one of
/// the two tracks.
#[test]
fn clone_then_diverge_matches_independent_references() {
    for net_seed in [23u64, 71] {
        let net = random_net(net_seed, 19, DENSE);
        let n = net.len();
        let schedule = churn3(&net, derive_seed(8, net_seed));
        let plan = mixed_plan(n, net_seed);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(55, net_seed)) {
                let label = format!("clone {name} {:?} {:?}", config.rule, config.start);
                let mut original = DynamicExecutor::from_slots(
                    &schedule,
                    PipelinedFlooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                // Two independent oracles: one will mirror the original
                // (with the post-clone injection), one the clone (without).
                let mut ref_orig = common::reference(
                    &schedule,
                    PipelinedFlooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                );
                let mut ref_clone = common::reference(
                    &schedule,
                    PipelinedFlooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                );
                // Warm up past an epoch boundary and several fault events.
                for _ in 0..10 {
                    original.step();
                    ref_orig.step();
                    ref_clone.step();
                }
                assert!(
                    original.epoch_switches() >= 1,
                    "{label}: warm-up crossed epochs"
                );
                let mut clone = original.clone();
                // Diverge the original only.
                let victim = NodeId(1 + (net_seed % (n as u64 - 1)) as u32);
                let a = original.inject(victim, PayloadId(11));
                let b = ref_orig.exec.inject(victim, PayloadId(11));
                assert_eq!(a, b, "{label}: diverging injection fate");
                for round in 10..24 {
                    assert_eq!(
                        original.step(),
                        ref_orig.step(),
                        "{label}: original at round {round}"
                    );
                    assert_eq!(
                        clone.step(),
                        ref_clone.step(),
                        "{label}: clone at round {round}"
                    );
                }
                assert_eq!(
                    original.executor().known_payloads(),
                    ref_orig.exec.known_payloads(),
                    "{label}: original known records"
                );
                assert_eq!(
                    clone.executor().known_payloads(),
                    ref_clone.exec.known_payloads(),
                    "{label}: clone known records"
                );
                assert_eq!(
                    clone.executor().roles(),
                    ref_clone.exec.roles(),
                    "{label}: clone role masks"
                );
                assert_eq!(clone.epoch(), original.epoch(), "{label}: epoch index");
            }
        }
    }
}

/// Mid-run injections into crashed/recovered nodes: all three engines
/// agree on acceptance (the `bool`) and on the resulting records, with a
/// multi-payload automaton relaying what survives.
#[test]
fn injection_fate_agrees_on_dynamic_populations() {
    for net_seed in [13u64, 59] {
        let net = random_net(net_seed, 18, DENSE);
        let n = net.len();
        let schedule = churn3(&net, derive_seed(6, net_seed));
        // One node crashes early and recovers late; injections straddle
        // both transitions.
        let victim = NodeId(1 + (net_seed % (n as u64 - 1)) as u32);
        let plan = FaultPlan::none().crash(victim, 3).recover(victim, 8);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(101, net_seed)) {
                let label = format!("inject {name} {:?} {:?}", config.rule, config.start);
                let mut enumd = DynamicExecutor::from_slots(
                    &schedule,
                    PipelinedFlooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                let mut boxed = DynamicExecutor::from_slots(
                    &schedule,
                    custom(PipelinedFlooder::slots(n)),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                assert!(!boxed.executor().uses_batched_dispatch());
                let mut reference = common::reference(
                    &schedule,
                    PipelinedFlooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                );
                for round in 0..14 {
                    // Inject between rounds: rounds 2 and 5 land while the
                    // victim is crashed (dropped), 1 and 9 while correct.
                    if [1, 2, 5, 9].contains(&round) {
                        let p = PayloadId(round + 1);
                        let ae = enumd.inject(victim, p);
                        let ab = boxed.inject(victim, p);
                        let ar = reference.exec.inject(victim, p);
                        assert_eq!(ae, ab, "{label}: inject fate enum vs boxed r{round}");
                        assert_eq!(ae, ar, "{label}: inject fate enum vs reference r{round}");
                        // The crash window is rounds 3..8: by round 2 the
                        // round counter is 2, so the round-3 crash is not
                        // yet in force — only the round-5 injection (and
                        // later, while crashed) is dropped.
                        let expect = !(3..8).contains(&enumd.round());
                        assert_eq!(ae, expect, "{label}: inject fate vs plan r{round}");
                    }
                    let se = enumd.step();
                    let sb = boxed.step();
                    let sr = reference.step();
                    assert_eq!(se, sb, "{label}: enum vs boxed at round {round}");
                    assert_eq!(se, sr, "{label}: enum vs reference at round {round}");
                }
                assert_eq!(
                    enumd.executor().known_payloads(),
                    reference.exec.known_payloads(),
                    "{label}: known records"
                );
            }
        }
    }
}
