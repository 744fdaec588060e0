//! Byzantine differential suite: the per-neighbor transmission-content
//! path, checked engine against engine.
//!
//! The PR 5 engines assumed every transmission is a single shared
//! channel: one message per sender per round, heard identically by every
//! receiver it reaches. The Byzantine roles break that assumption —
//! [`NodeRole::Equivocator`] sends different payload sets to
//! even-indexed and odd-indexed receivers in the *same* round, and
//! [`NodeRole::Forger`] mints payload identities outside the
//! environment's real set — so the optimized engine grows a per-receiver
//! slow path, gated on `byzantine_count > 0` exactly like the
//! `faulty_count == 0` fast path it mirrors.
//!
//! Three families of properties, over random topologies × the adversary
//! menu × CR1–CR4 × both start rules:
//!
//! 1. **three-engine agreement** — with equivocators and forgers in the
//!    fault plan (riding churn schedules with crash/recovery alongside),
//!    the optimized executor (enum and boxed dispatch) and the naive
//!    [`ReferenceExecutor`] oracle agree on every round summary, every
//!    known-payload record, and the final role masks.
//! 2. **fast-path equivalence** — an equivocator whose two faces are
//!    equal is observationally a spammer: the run that takes the
//!    per-receiver slow path must be bit-identical to the shared-channel
//!    fast-path run. Any divergence means the slow path is not a
//!    conservative extension.
//! 3. **deterministic content routing** — on a fixed star topology the
//!    even/odd face rule and the forger's known-blend are checked
//!    against hand-computed per-node records, so the differential tests
//!    cannot all be wrong together.
//!
//! Byzantine-free plans never enter the slow path (the gate counts
//! roles, not plan entries), so every pre-existing suite doubles as the
//! "Byzantine-free runs are unchanged" regression.

mod common;

use common::{adversary_menu, churn3, configs, custom, random_net, DENSE};
use dualgraph_net::{generators, NodeId};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    CollisionRule, DynamicExecutor, Executor, ExecutorConfig, FaultPlan, Flooder, NodeRole,
    PayloadId, PayloadSet, ReliableOnly, SilentProcess, StartRule,
};

/// A fault plan exercising both Byzantine roles plus churn of the role
/// mask itself: the equivocator recovers mid-run (`byzantine_count`
/// must drop back) and an honest node crashes and recovers alongside.
fn byzantine_plan(n: usize, seed: u64) -> FaultPlan {
    let a = NodeId(1 + (seed % (n as u64 - 1)) as u32);
    let b = NodeId(1 + ((seed / 7 + 3) % (n as u64 - 1)) as u32);
    let c = NodeId(1 + ((seed / 13 + 5) % (n as u64 - 1)) as u32);
    FaultPlan::none()
        .equivocate(
            a,
            2,
            PayloadSet::only(PayloadId(4)),
            PayloadSet::only(PayloadId(5)),
        )
        .recover(a, 11)
        .forge(b, 4, PayloadSet::only(PayloadId(9)))
        .crash(c, 3)
        .recover(c, 8)
}

/// Property 1: enum, boxed, and reference engines agree round for round
/// with equivocators and forgers active, across epoch switches × CR1–CR4
/// × the menu.
#[test]
fn byzantine_engines_agree_across_epochs_and_faults() {
    for (g, net_seed) in [(0usize, 19u64), (1, 43), (2, 89)] {
        let net = random_net(net_seed, 20 + g * 8, DENSE);
        let n = net.len();
        let schedule = churn3(&net, derive_seed(9, net_seed));
        let plan = byzantine_plan(n, net_seed);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(137, net_seed)) {
                let label = format!("byz n={n} {name} {:?} {:?}", config.rule, config.start);
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

/// Property 1b: cloning an executor mid-run with Byzantine roles in
/// force preserves `byzantine_count` — the clone must keep taking the
/// per-receiver path and stay bit-identical to the original.
#[test]
fn clone_preserves_the_byzantine_gate() {
    for net_seed in [31u64, 67] {
        let net = random_net(net_seed, 18, DENSE);
        let n = net.len();
        let schedule = churn3(&net, derive_seed(12, net_seed));
        let plan = byzantine_plan(n, net_seed);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(141, net_seed)) {
                let label = format!("byz-clone {name} {:?} {:?}", config.rule, config.start);
                let mut original = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    plan.clone(),
                )
                .unwrap();
                for _ in 0..6 {
                    original.step();
                }
                let mut clone = original.clone();
                for round in 6..20 {
                    assert_eq!(
                        original.step(),
                        clone.step(),
                        "{label}: diverged at round {round}"
                    );
                }
                assert_eq!(
                    original.executor().known_payloads(),
                    clone.executor().known_payloads(),
                    "{label}: known records"
                );
            }
        }
    }
}

/// Property 2: an equivocator whose faces are equal is a spammer. The
/// spammer run keeps the shared-channel fast path (`byzantine_count ==
/// 0`); the equivocator run takes the per-receiver slow path. They must
/// be bit-identical.
#[test]
fn equal_faced_equivocator_matches_the_spammer_fast_path() {
    let junk = PayloadSet::only(PayloadId(6)) | PayloadSet::only(PayloadId(7));
    for net_seed in [29u64, 73] {
        let net = random_net(net_seed, 19, DENSE);
        let n = net.len();
        let schedule = churn3(&net, derive_seed(14, net_seed));
        let node = NodeId(1 + (net_seed % (n as u64 - 1)) as u32);
        let spam_plan = FaultPlan::none().spam(node, 3, junk);
        let equiv_plan = FaultPlan::none().equivocate(node, 3, junk, junk);
        for config in configs() {
            for (name, make_adv) in adversary_menu(derive_seed(149, net_seed)) {
                let label = format!("equal-face {name} {:?} {:?}", config.rule, config.start);
                let mut spam = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    spam_plan.clone(),
                )
                .unwrap();
                let mut equiv = DynamicExecutor::from_slots(
                    &schedule,
                    Flooder::slots(n),
                    make_adv(),
                    config,
                    equiv_plan.clone(),
                )
                .unwrap();
                for round in 0..25 {
                    assert_eq!(
                        spam.step(),
                        equiv.step(),
                        "{label}: diverged at round {round}"
                    );
                }
                assert_eq!(
                    spam.executor().known_payloads(),
                    equiv.executor().known_payloads(),
                    "{label}: known records"
                );
            }
        }
    }
}

/// Property 3a: the even/odd face rule, hand-checked. A star's hub
/// equivocates while every leaf stays silent: even-indexed leaves must
/// record exactly the even face, odd-indexed leaves the odd face, and
/// none of it informs anyone (no real payload is ever carried).
#[test]
fn equivocator_faces_route_by_receiver_parity() {
    let n = 9;
    let net = generators::star(n);
    let even = PayloadSet::only(PayloadId(3));
    let odd = PayloadSet::only(PayloadId(4));
    let config = ExecutorConfig {
        rule: CollisionRule::Cr4,
        start: StartRule::Synchronous,
        payload: PayloadId(0),
    };
    let mut exec = Executor::from_slots(
        &net,
        SilentProcess::slots(n),
        Box::new(ReliableOnly::new()),
        config,
    )
    .unwrap();
    exec.set_role(net.source(), NodeRole::Equivocator { even, odd });
    for _ in 0..3 {
        exec.step();
    }
    let hub = net.source().index();
    for (v, known) in exec.known_payloads().iter().enumerate() {
        if v == hub {
            continue;
        }
        let expect = if v % 2 == 0 { even } else { odd };
        // The source seed payload lives only at the (now-Byzantine) hub,
        // so a leaf's record is exactly the face routed to it.
        assert_eq!(*known, expect, "leaf {v}: wrong face");
    }
    assert_eq!(
        exec.informed_count(),
        1,
        "equivocator faces carry no real payload: only the source's own seed informs"
    );
}

/// Property 3b: a forger's transmissions blend the minted ids with its
/// frozen known record, pollute every reachable known set, and never
/// inform — payload identity outside the environment's real set cannot
/// complete a broadcast.
#[test]
fn forged_ids_pollute_known_records_but_never_inform() {
    let n = 7;
    let net = generators::complete(n);
    let mint = PayloadSet::only(PayloadId(9));
    let config = ExecutorConfig {
        rule: CollisionRule::Cr4,
        start: StartRule::Synchronous,
        payload: PayloadId(0),
    };
    let mut exec = Executor::from_slots(
        &net,
        SilentProcess::slots(n),
        Box::new(ReliableOnly::new()),
        config,
    )
    .unwrap();
    // Node 2 turns forger knowing nothing: its standing message is the
    // mint alone, unioned with its (empty) frozen record.
    exec.set_role(NodeId(2), NodeRole::Forger(mint));
    for _ in 0..3 {
        exec.step();
    }
    for (v, known) in exec.known_payloads().iter().enumerate() {
        if v == 2 || v == net.source().index() {
            continue;
        }
        assert!(
            known.contains(PayloadId(9)),
            "node {v} should have heard the forged id"
        );
        assert!(
            !known.contains(PayloadId(0)),
            "node {v} cannot know the real payload: nobody correct transmits"
        );
    }
    assert!(
        !exec.real_payloads().contains(PayloadId(9)),
        "minted ids never enter the environment's real set"
    );
    assert_eq!(
        exec.informed_count(),
        1,
        "forged traffic must not count as being informed"
    );
    assert!(!exec.outcome().completed, "completion cannot be spoofed");
}
