//! Quorum-certified broadcast property suite: the Byzantine-tolerant
//! reliability backend checked at the stream level (run in CI's
//! `release-da` job alongside the engine differentials).
//!
//! Property families, all under `f`-locally-bounded Byzantine placements
//! with thresholds from [`QuorumPolicy::for_bound`] of the *measured*
//! bound ([`local_byzantine_bound`], maximized over every epoch of the
//! schedule):
//!
//! 1. **no creation** — across CR1–CR4 × the adversary menu × churn,
//!    fading, and mobility schedules, with equivocators and a forger
//!    active, no correct node ever accepts a payload id outside the
//!    environment's real set (`safety_violations == 0`);
//! 2. **no duplication** — the verdict ledger stays one-entry-per-payload
//!    and the aggregate counts partition `k` (acceptance itself is a
//!    latch, unit-tested in `dualgraph-sim`);
//! 3. **agreement in completing regimes** — on a sender-diverse topology
//!    under the fair CR4 coin, every entered payload settles `Delivered`:
//!    all correct nodes accept it, equivocation notwithstanding;
//! 4. **threshold sanity** — with thresholds *below* the measured bound
//!    (`f = 0` against a real forger) the forged id does get certified:
//!    the safety accounting actually detects violations, so family 1 is
//!    not vacuous.

mod common;

use dualgraph_broadcast::stream::{
    plan_arrivals, run_stream_scheduled, run_stream_session, DynamicsConfig, SourcePlacement,
    StreamAlgorithm, StreamConfig, StreamSession,
};
use dualgraph_net::{generators, DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    local_byzantine_bound, Adversary, BurstyDelivery, CollisionRule, DeliveryVerdict, FaultPlan,
    FullDelivery, HealthConfig, NodeRole, PayloadId, PayloadSet, QuorumPolicy, RandomDelivery,
    ReliableOnly, TraceEvent, WithRandomCr4,
};

fn random_net(seed: u64, n: usize) -> DualGraph {
    generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p: 0.12,
            unreliable_p: 0.25,
        },
        seed,
    )
}

/// The delivery-adversary menu for the safety sweep.
#[allow(clippy::type_complexity)]
fn adversary_menu(seed: u64) -> Vec<(&'static str, Box<dyn Fn() -> Box<dyn Adversary>>)> {
    vec![
        ("reliable-only", Box::new(|| Box::new(ReliableOnly::new()))),
        ("full-delivery", Box::new(|| Box::new(FullDelivery::new()))),
        (
            "random(0.5)",
            Box::new(move || Box::new(RandomDelivery::new(0.5, seed))),
        ),
        (
            "bursty+cr4",
            Box::new(move || {
                Box::new(WithRandomCr4::new(
                    BurstyDelivery::new(0.2, 0.4, seed),
                    seed ^ 0x51,
                ))
            }),
        ),
    ]
}

/// The three dynamic-topology regimes of the sweep, over ~24 nodes each.
fn schedule_menu(seed: u64) -> Vec<(&'static str, TopologySchedule)> {
    let base = random_net(seed, 24);
    let churn = generators::churn_schedule(
        &base,
        generators::ChurnParams {
            epochs: 4,
            span: 6,
            rewire_fraction: 0.3,
        },
        derive_seed(21, seed),
    );
    let geometry = generators::GeometricDualParams {
        n: 24,
        reliable_radius: 0.35,
        gray_radius: 0.6,
    };
    let fading = generators::fading_schedule(
        generators::FadingParams {
            geometry,
            gray_p: 0.5,
            epochs: 4,
            span: 6,
        },
        derive_seed(22, seed),
    );
    let mobility = generators::mobility_schedule(
        generators::MobilityParams {
            geometry,
            step: 0.08,
            epochs: 4,
            span: 6,
        },
        derive_seed(23, seed),
    );
    vec![("churn", churn), ("fading", fading), ("mobility", mobility)]
}

/// The sweep's Byzantine cast on an `n`-node population: two
/// equivocators showing a real data id to one parity and a ready marker
/// to the other, plus a forger minting a data id + marker pair. Nodes 5,
/// 11, and 17 — never node 0, the single-source origin (origin trust
/// would certify anything a Byzantine *origin* says; the model assumes
/// origins are correct, as does every authenticated-broadcast paper).
fn byzantine_cast(k: usize) -> (FaultPlan, Vec<(NodeId, NodeRole)>) {
    let marker = |p: u64| PayloadId(k as u64 + p);
    let equiv_a = (
        NodeId(5),
        NodeRole::Equivocator {
            even: PayloadSet::only(PayloadId(0)),
            odd: PayloadSet::only(marker(0)),
        },
    );
    let equiv_b = (
        NodeId(11),
        NodeRole::Equivocator {
            even: PayloadSet::only(marker(1)),
            odd: PayloadSet::only(PayloadId(1)),
        },
    );
    let mut mint = PayloadSet::only(PayloadId(k as u64 - 1));
    mint.insert(marker(k as u64 - 1));
    let forger = (NodeId(17), NodeRole::Forger(mint));
    let plan = FaultPlan::none()
        .equivocate(
            equiv_a.0,
            1,
            match equiv_a.1 {
                NodeRole::Equivocator { even, .. } => even,
                _ => unreachable!(),
            },
            match equiv_a.1 {
                NodeRole::Equivocator { odd, .. } => odd,
                _ => unreachable!(),
            },
        )
        .equivocate(
            equiv_b.0,
            1,
            match equiv_b.1 {
                NodeRole::Equivocator { even, .. } => even,
                _ => unreachable!(),
            },
            match equiv_b.1 {
                NodeRole::Equivocator { odd, .. } => odd,
                _ => unreachable!(),
            },
        )
        .forge(forger.0, 1, mint);
    (plan, vec![equiv_a, equiv_b, forger])
}

/// The measured local Byzantine bound of a cast against every epoch of a
/// schedule: the placement is `f`-locally-bounded for the whole run.
fn bound_over_schedule(schedule: &TopologySchedule, cast: &[(NodeId, NodeRole)]) -> u32 {
    let n = schedule.node_count();
    let mut roles = vec![NodeRole::Correct; n];
    for (node, role) in cast {
        roles[node.index()] = *role;
    }
    schedule
        .epochs()
        .iter()
        .map(|e| local_byzantine_bound(e.network(), &roles))
        .max()
        .unwrap_or(0)
}

/// Family 1 + 2: the safety sweep. Equivocators and a forger ride every
/// combination of collision rule × delivery adversary × topology regime;
/// whatever happens to liveness, no correct node may certify a forged id
/// and the verdict ledger must stay a partition of the stream.
#[test]
fn no_creation_across_rules_adversaries_and_topology_regimes() {
    let k = 6;
    for (sched_name, schedule) in schedule_menu(63) {
        let (faults, cast) = byzantine_cast(k);
        let f = bound_over_schedule(&schedule, &cast);
        for rule in CollisionRule::ALL {
            for (adv_name, make_adv) in adversary_menu(derive_seed(7, 63)) {
                let label = format!("{sched_name} {adv_name} {rule:?} f={f}");
                let config = StreamConfig {
                    k,
                    rule,
                    max_rounds: 400,
                    dynamics: Some(DynamicsConfig {
                        faults: faults.clone(),
                        cycle: true,
                    }),
                    reliability: Some(QuorumPolicy::for_bound(f).into()),
                    ..StreamConfig::default()
                };
                let outcome = run_stream_scheduled(
                    &schedule,
                    StreamAlgorithm::PipelinedFlooding,
                    make_adv(),
                    &config,
                )
                .unwrap();
                let report = outcome.reliability.as_ref().unwrap();
                assert_eq!(report.safety_violations, 0, "{label}: creation");
                assert_eq!(report.entries.len(), k, "{label}: ledger size");
                assert_eq!(
                    report.stats.delivered + report.stats.abandoned + report.stats.pending,
                    k,
                    "{label}: verdicts partition the stream"
                );
                assert!(
                    report.backend.quorum_policy().is_some(),
                    "{label}: quorum backend surfaced"
                );
            }
        }
    }
}

/// Family 3: agreement in a completing regime. A chorded line (chords
/// live in `G′`, so `FullDelivery` must carry them) gives every node
/// enough sender diversity to fill `f + 1` quorums past a mid-line
/// equivocator; under the fair CR4 coin every payload must settle
/// `Delivered` — certified by all correct nodes — with zero safety
/// violations.
#[test]
fn agreement_on_a_sender_diverse_line_despite_an_equivocator() {
    let k = 4;
    let net = generators::line(33, 3);
    let equiv = NodeId(10);
    let even = PayloadSet::only(PayloadId(0));
    let odd = PayloadSet::only(PayloadId(k as u64));
    let faults = FaultPlan::none().equivocate(equiv, 1, even, odd);
    let mut roles = vec![NodeRole::Correct; 33];
    roles[equiv.index()] = NodeRole::Equivocator { even, odd };
    let f = local_byzantine_bound(&net, &roles);
    assert_eq!(f, 1, "one equivocator on a chord-3 line");
    let config = StreamConfig {
        k,
        max_rounds: 60_000,
        dynamics: Some(DynamicsConfig {
            faults,
            cycle: false,
        }),
        reliability: Some(QuorumPolicy::for_bound(f).into()),
        ..StreamConfig::default()
    };
    let (outcome, _) = run_stream_session(
        &net,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(WithRandomCr4::new(FullDelivery::new(), 29)),
        &config,
    )
    .unwrap();
    let report = outcome.reliability.as_ref().unwrap();
    assert_eq!(report.safety_violations, 0);
    assert_eq!(report.stats.pending, 0, "run settled: {:?}", report.stats);
    assert_eq!(report.stats.delivered, k, "{:?}", report.stats);
    for e in &report.entries {
        assert!(e.entered);
        assert!(e.verdict.is_delivered(), "{e:?}");
    }
}

/// A payload whose producer is crashed forever is dropped, stays outside
/// the environment's real set, and is **final** under the quorum backend
/// (no retry lane) — and a forger minting exactly that id still cannot
/// get it certified when the thresholds respect the measured bound.
#[test]
fn dropped_arrival_is_final_and_unforgeable() {
    let k = 2;
    let net = generators::ring(10, 2);
    let mut mint = PayloadSet::only(PayloadId(1));
    mint.insert(PayloadId(k as u64 + 1));
    let faults = FaultPlan::none()
        .crash(NodeId(5), 0)
        .forge(NodeId(7), 1, mint);
    let mut roles = vec![NodeRole::Correct; 10];
    roles[5] = NodeRole::Crashed;
    roles[7] = NodeRole::Forger(mint);
    let f = local_byzantine_bound(&net, &roles);
    assert!(f >= 1);
    let config = StreamConfig {
        k,
        sources: SourcePlacement::Spread,
        max_rounds: 4_000,
        dynamics: Some(DynamicsConfig {
            faults,
            cycle: false,
        }),
        reliability: Some(QuorumPolicy::for_bound(f).into()),
        ..StreamConfig::default()
    };
    // Spread placement puts payload 1 on the node we crash forever.
    assert_eq!(plan_arrivals(&net, &config)[1].node, NodeId(5));
    let (outcome, _) = run_stream_session(
        &net,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(WithRandomCr4::new(FullDelivery::new(), 3)),
        &config,
    )
    .unwrap();
    let report = outcome.reliability.as_ref().unwrap();
    assert_eq!(
        report.entries[1].verdict,
        DeliveryVerdict::Abandoned { retries: 0 },
        "dropped arrivals are final under the quorum backend"
    );
    assert!(!report.entries[1].entered);
    assert!(outcome.payloads[1].dropped);
    assert!(report.entries[0].verdict.is_delivered(), "{report:?}");
    assert_eq!(
        report.safety_violations, 0,
        "the forged copy of the dead payload is never certified"
    );
}

/// Family 4: the accounting is not vacuous. Same dead-producer scenario,
/// but the thresholds ignore the measured bound (`f = 0`: any single
/// attester certifies) — now the forger's minted id IS accepted by
/// correct nodes and the report must say so.
#[test]
fn underestimating_the_bound_is_detected_as_violations() {
    let k = 2;
    let net = generators::ring(10, 2);
    let mut mint = PayloadSet::only(PayloadId(1));
    mint.insert(PayloadId(k as u64 + 1));
    let faults = FaultPlan::none()
        .crash(NodeId(5), 0)
        .forge(NodeId(7), 1, mint);
    let config = StreamConfig {
        k,
        sources: SourcePlacement::Spread,
        max_rounds: 4_000,
        dynamics: Some(DynamicsConfig {
            faults,
            cycle: false,
        }),
        reliability: Some(QuorumPolicy::for_bound(0).into()),
        ..StreamConfig::default()
    };
    let (outcome, _) = run_stream_session(
        &net,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(WithRandomCr4::new(FullDelivery::new(), 3)),
        &config,
    )
    .unwrap();
    let report = outcome.reliability.as_ref().unwrap();
    assert!(
        report.safety_violations > 0,
        "f = 0 thresholds must let the forgery through: {report:?}"
    );
}

/// Golden pin of the quorum backend's ledger: a spread-source stream on
/// a chorded line under a churn schedule, with an equivocator and an
/// origin crashed when its payload arrives (dropped for good: the backend
/// has no retry lane) that recovers later. Every verdict, stat, segment,
/// health figure, the safety count, and the traced `Verdict` and
/// `QuorumPhase` sequence are pinned as the run produced them.
#[test]
fn golden_quorum_ledger_with_an_equivocator_and_a_dropped_arrival() {
    let k = 4;
    let schedule = generators::churn_schedule(
        &generators::line(33, 3),
        generators::ChurnParams {
            epochs: 3,
            span: 20,
            rewire_fraction: 0.3,
        },
        derive_seed(51, 3),
    );
    let equiv = NodeId(10);
    let (even, odd) = (
        PayloadSet::only(PayloadId(0)),
        PayloadSet::only(PayloadId(k as u64)),
    );
    let config = StreamConfig {
        k,
        sources: SourcePlacement::Spread,
        max_rounds: 4_000,
        dynamics: Some(DynamicsConfig {
            faults: FaultPlan::none()
                .equivocate(equiv, 1, even, odd)
                .crash(NodeId(16), 0)
                .recover(NodeId(16), 30),
            cycle: true,
        }),
        reliability: Some(QuorumPolicy::for_bound(1).into()),
        health: Some(HealthConfig { window: 8 }),
        ..StreamConfig::default()
    };
    assert_eq!(
        plan_arrivals(schedule.epoch(0).network(), &config)[2].node,
        NodeId(16)
    );
    let session = || {
        StreamSession::scheduled(
            &schedule,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(WithRandomCr4::new(FullDelivery::new(), 29)),
            &config,
        )
        .unwrap()
    };
    let (outcome, _) = session().run();
    let mut events: Vec<TraceEvent> = Vec::new();
    let (traced, _) = session().run_traced(&mut events);
    let view = common::ledger_view(&outcome, &events);
    assert_eq!(
        common::ledger_view(&traced, &events),
        view,
        "tracing is passive"
    );
    assert_eq!(view, QUORUM_GOLDEN);
}

/// What [`golden_quorum_ledger_with_an_equivocator_and_a_dropped_arrival`]
/// pins (see `common::ledger_view` for the line shapes).
const QUORUM_GOLDEN: &[&str] = &[
    "p0 src=0 arr=0 retries=0 entered=true delivered@112 (0 retries) | p0 src=0 arr=0 done=None dropped=false",
    "p1 src=8 arr=0 retries=0 entered=true delivered@69 (0 retries) | p1 src=8 arr=0 done=None dropped=false",
    "p2 src=16 arr=0 retries=0 entered=false abandoned (0 retries) | p2 src=16 arr=0 done=None dropped=true",
    "p3 src=24 arr=0 retries=0 entered=true delivered@72 (0 retries) | p3 src=24 arr=0 done=None dropped=false",
    "EpochStreamStats { epoch: 0, first_round: 1, last_round: 20, rcv_events: 79, acked: 3, retries: 0, delivered: 0 }",
    "EpochStreamStats { epoch: 1, first_round: 21, last_round: 40, rcv_events: 52, acked: 0, retries: 0, delivered: 0 }",
    "EpochStreamStats { epoch: 2, first_round: 41, last_round: 60, rcv_events: 32, acked: 0, retries: 0, delivered: 0 }",
    "EpochStreamStats { epoch: 0, first_round: 61, last_round: 80, rcv_events: 11, acked: 0, retries: 0, delivered: 2 }",
    "EpochStreamStats { epoch: 1, first_round: 81, last_round: 100, rcv_events: 15, acked: 0, retries: 0, delivered: 0 }",
    "EpochStreamStats { epoch: 2, first_round: 101, last_round: 112, rcv_events: 0, acked: 0, retries: 0, delivered: 1 }",
    "health window=8 final=0.125 peak=0.25 drop_rate=0.25 pending_retries=3 pending_acks=1",
    "HistogramSummary { count: 3, min: 1, max: 9, mean: 3.6666666666666665, p50: 1, p90: 9, p99: 9, p999: 9 }",
    "EpochHealth { epoch: 0, ack_latency: HistogramSummary { count: 3, min: 1, max: 9, mean: 3.6666666666666665, p50: 1, p90: 9, p99: 9, p999: 9 }, deliveries: 0, drops: 1, retries: 0 }",
    "EpochHealth { epoch: 1, ack_latency: HistogramSummary { count: 0, min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, p999: 0 }, deliveries: 0, drops: 0, retries: 0 }",
    "EpochHealth { epoch: 2, ack_latency: HistogramSummary { count: 0, min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, p999: 0 }, deliveries: 0, drops: 0, retries: 0 }",
    "EpochHealth { epoch: 0, ack_latency: HistogramSummary { count: 0, min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, p999: 0 }, deliveries: 2, drops: 0, retries: 0 }",
    "EpochHealth { epoch: 1, ack_latency: HistogramSummary { count: 0, min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, p999: 0 }, deliveries: 0, drops: 0, retries: 0 }",
    "EpochHealth { epoch: 2, ack_latency: HistogramSummary { count: 0, min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, p999: 0 }, deliveries: 1, drops: 0, retries: 0 }",
    "safety_violations=0",
    "Verdict { round: 69, payload: PayloadId(1), delivered: true }",
    "Verdict { round: 72, payload: PayloadId(3), delivered: true }",
    "Verdict { round: 112, payload: PayloadId(0), delivered: true }",
    "quorum_phases=288 fnv=0xb508dc2a82116b0a",
];
