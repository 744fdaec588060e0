//! Reliability differential suite: the retry/ack policy layer checked at
//! the stream level, across adversaries, policies, and fault plans (run
//! in CI's `release-da` job alongside the engine differentials).
//!
//! Property families:
//!
//! 1. **lossless ⇒ delivered** — under a lossless benign setting (no
//!    faults, every policy) every payload settles `Delivered`;
//! 2. **transparency** — a policy whose trigger can never fire reproduces
//!    the no-policy run bit for bit, over the delivery-adversary menu;
//! 3. **budget exhaustion ⇒ abandoned** — a payload that can never enter
//!    (permanently crashed producer) burns exactly its retry budget and
//!    settles `Abandoned`;
//! 4. **the acceptance scenario in miniature** — cycled churn schedule ×
//!    crash/recovery faults × a spammer × the bursty adversary (with the
//!    fair CR4 coin): the ack-gap policy delivers 100% of non-abandoned
//!    payloads to all correct live nodes, verified per payload against
//!    the engine's known/role records (spam-proof: the junk id collides
//!    with a stream payload on purpose).

mod common;

use dualgraph_broadcast::stream::{
    plan_arrivals, run_stream_scheduled, run_stream_session, Arrivals, DynamicsConfig,
    SourcePlacement, StreamAlgorithm, StreamConfig, StreamSession,
};
use dualgraph_net::{generators, DualGraph, NodeId};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    Adversary, BurstyDelivery, FaultPlan, FullDelivery, HealthConfig, PayloadId, PayloadSet,
    RandomDelivery, ReliableOnly, RetryPolicy, TraceEvent, WithRandomCr4,
};

fn policies() -> Vec<RetryPolicy> {
    vec![
        RetryPolicy::FixedInterval {
            interval: 4,
            max_retries: 8,
        },
        RetryPolicy::AckGap {
            gap: 6,
            max_retries: 8,
        },
        RetryPolicy::ExponentialBackoff {
            base: 3,
            max_retries: 8,
        },
    ]
}

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

#[test]
fn lossless_setting_delivers_every_payload_under_every_policy() {
    for net_seed in [31u64, 67] {
        let net = random_net(net_seed, 24);
        for policy in policies() {
            let config = StreamConfig {
                k: 6,
                max_rounds: 50_000,
                reliability: Some(policy.into()),
                ..StreamConfig::default()
            };
            let (outcome, _) = run_stream_session(
                &net,
                StreamAlgorithm::PipelinedFlooding,
                Box::new(RandomDelivery::new(0.5, derive_seed(3, net_seed))),
                &config,
            )
            .unwrap();
            let report = outcome.reliability.as_ref().unwrap();
            assert_eq!(
                report.stats.delivered, 6,
                "{policy:?} seed {net_seed}: {report:?}"
            );
            assert_eq!(report.stats.abandoned, 0);
            assert!(report.all_non_abandoned_delivered());
            assert!(outcome.completed);
            for e in &report.entries {
                assert!(e.entered);
                assert!(e.verdict.is_delivered(), "{e:?}");
            }
        }
    }
}

#[test]
fn never_triggering_policy_is_bit_transparent_across_the_adversary_menu() {
    let adversaries: Vec<(&str, Box<dyn Fn() -> Box<dyn Adversary>>)> = vec![
        ("reliable-only", Box::new(|| Box::new(ReliableOnly::new()))),
        ("full-delivery", Box::new(|| Box::new(FullDelivery::new()))),
        (
            "random(0.5)",
            Box::new(|| Box::new(RandomDelivery::new(0.5, 41))),
        ),
        (
            "bursty+cr4",
            Box::new(|| Box::new(WithRandomCr4::new(BurstyDelivery::new(0.2, 0.4, 41), 5))),
        ),
    ];
    let net = random_net(91, 26);
    for (name, make_adv) in adversaries {
        let base = StreamConfig {
            k: 4,
            max_rounds: 100_000,
            ..StreamConfig::default()
        };
        let (plain, _) =
            run_stream_session(&net, StreamAlgorithm::PipelinedFlooding, make_adv(), &base)
                .unwrap();
        let (reliable, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            make_adv(),
            &StreamConfig {
                reliability: Some(
                    RetryPolicy::AckGap {
                        gap: 1_000_000,
                        max_retries: 2,
                    }
                    .into(),
                ),
                ..base
            },
        )
        .unwrap();
        assert_eq!(reliable.payloads, plain.payloads, "{name}");
        assert_eq!(reliable.rounds_executed, plain.rounds_executed, "{name}");
        assert_eq!(reliable.mac, plain.mac, "{name}");
        assert_eq!(
            reliable.reliability.unwrap().stats.total_retries,
            0,
            "{name}: the gap can never elapse"
        );
    }
}

#[test]
fn permanently_dead_producer_burns_the_budget_and_abandons() {
    // Ring, so the dead producer partitions nothing; spread sources put
    // payload 1 on the node we crash forever.
    let net = generators::ring(10, 2);
    let config = StreamConfig {
        k: 2,
        sources: SourcePlacement::Spread,
        max_rounds: 5_000,
        dynamics: Some(DynamicsConfig {
            faults: FaultPlan::none().crash(NodeId(5), 0),
            cycle: false,
        }),
        reliability: Some(
            RetryPolicy::ExponentialBackoff {
                base: 2,
                max_retries: 5,
            }
            .into(),
        ),
        ..StreamConfig::default()
    };
    assert_eq!(plan_arrivals(&net, &config)[1].node, NodeId(5));
    let (outcome, _) = run_stream_session(
        &net,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(ReliableOnly::new()),
        &config,
    )
    .unwrap();
    let report = outcome.reliability.as_ref().unwrap();
    assert_eq!(
        report.entries[1].verdict,
        dualgraph_sim::DeliveryVerdict::Abandoned { retries: 5 }
    );
    assert!(!report.entries[1].entered);
    assert!(outcome.payloads[1].dropped, "surfaced as a dropped arrival");
    assert!(report.entries[0].verdict.is_delivered());
    assert!(report.all_non_abandoned_delivered());
}

/// The ISSUE acceptance scenario in CI-sized miniature: a cycled churn
/// schedule, ~10% crash/recovery faults plus a spammer whose junk id
/// collides with a live stream payload, the bursty adversary (fair CR4
/// coin), and the ack-gap policy. Every non-abandoned payload must be
/// delivered to all correct live nodes, verified per payload from the
/// engine's own records.
#[test]
fn churn_crash_spam_scenario_delivers_all_non_abandoned_payloads() {
    let n = 65;
    let base = random_net(7, n);
    let schedule = generators::churn_schedule(
        &base,
        generators::ChurnParams {
            epochs: 8,
            span: 16,
            rewire_fraction: 0.25,
        },
        derive_seed(9, 7),
    );
    // ~10% of nodes crash once and recover; junk {3, 99} collides with
    // stream payload 3.
    let mut faults = FaultPlan::none();
    for i in (3..n as u32).step_by(10) {
        faults = faults
            .crash(NodeId(i), 4 + u64::from(i % 13))
            .recover(NodeId(i), 40 + u64::from(i % 7));
    }
    let mut junk = PayloadSet::only(PayloadId(99));
    junk.insert(PayloadId(3));
    faults = faults.spam(NodeId(11), 9, junk).recover(NodeId(11), 60);
    let config = StreamConfig {
        k: 16,
        max_rounds: 20_000,
        dynamics: Some(DynamicsConfig {
            faults,
            cycle: true,
        }),
        reliability: Some(
            RetryPolicy::AckGap {
                gap: 8,
                max_retries: 24,
            }
            .into(),
        ),
        ..StreamConfig::default()
    };
    let outcome = run_stream_scheduled(
        &schedule,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(WithRandomCr4::new(
            BurstyDelivery::new(0.15, 0.4, 13),
            derive_seed(2, 13),
        )),
        &config,
    )
    .unwrap();
    let report = outcome.reliability.as_ref().unwrap();
    assert_eq!(report.stats.pending, 0, "run settled: {report:?}");
    assert!(report.all_non_abandoned_delivered());
    assert!(
        report.stats.delivered >= 15,
        "almost everything deliverable: {:?}",
        report.stats
    );
    // Segments tie out.
    let seg_retries: u64 = outcome.epochs.iter().map(|e| e.retries as u64).sum();
    let seg_delivered: usize = outcome.epochs.iter().map(|e| e.delivered).sum();
    assert_eq!(seg_retries, report.stats.total_retries);
    assert_eq!(seg_delivered, report.stats.delivered);
    // Spam-proof: junk id 99 circulated but is not a stream payload, and
    // no verdict exists for it.
    assert_eq!(report.entries.len(), 16);
    assert!(report.entries.iter().all(|e| e.payload.0 < 16));
}

/// Satellite regression: the lossless ⇒ delivered guarantee holds when
/// the *topology* is what moves — gray-zone fading and node mobility
/// schedules (every link that exists is delivered; nothing is faulty).
#[test]
fn lossless_fading_and_mobility_schedules_deliver_every_payload() {
    let geometry = generators::GeometricDualParams {
        n: 24,
        reliable_radius: 0.35,
        gray_radius: 0.6,
    };
    let fading = generators::fading_schedule(
        generators::FadingParams {
            geometry,
            gray_p: 0.5,
            epochs: 5,
            span: 8,
        },
        derive_seed(31, 2),
    );
    let mobility = generators::mobility_schedule(
        generators::MobilityParams {
            geometry,
            step: 0.08,
            epochs: 5,
            span: 8,
        },
        derive_seed(32, 2),
    );
    for (name, schedule) in [("fading", fading), ("mobility", mobility)] {
        for policy in policies() {
            let config = StreamConfig {
                k: 5,
                max_rounds: 60_000,
                dynamics: Some(DynamicsConfig {
                    faults: FaultPlan::none(),
                    cycle: true,
                }),
                reliability: Some(policy.into()),
                ..StreamConfig::default()
            };
            let outcome = run_stream_scheduled(
                &schedule,
                StreamAlgorithm::PipelinedFlooding,
                Box::new(WithRandomCr4::new(FullDelivery::new(), 17)),
                &config,
            )
            .unwrap();
            let report = outcome.reliability.as_ref().unwrap();
            assert_eq!(
                report.stats.delivered, 5,
                "{name} {policy:?}: {:?}",
                report.stats
            );
            assert_eq!(report.stats.abandoned, 0, "{name} {policy:?}");
            assert!(report.all_non_abandoned_delivered(), "{name} {policy:?}");
        }
    }
}

/// Satellite regression: a policy whose trigger can never fire is bit
/// transparent on fading and mobility schedules too — epoch swaps
/// (which re-anchor pending acks) must not manufacture retries.
#[test]
fn never_triggering_policy_is_transparent_on_fading_and_mobility() {
    let geometry = generators::GeometricDualParams {
        n: 20,
        reliable_radius: 0.35,
        gray_radius: 0.6,
    };
    let fading = generators::fading_schedule(
        generators::FadingParams {
            geometry,
            gray_p: 0.4,
            epochs: 4,
            span: 10,
        },
        derive_seed(33, 5),
    );
    let mobility = generators::mobility_schedule(
        generators::MobilityParams {
            geometry,
            step: 0.1,
            epochs: 4,
            span: 10,
        },
        derive_seed(34, 5),
    );
    for (name, schedule) in [("fading", fading), ("mobility", mobility)] {
        let base = StreamConfig {
            k: 4,
            max_rounds: 60_000,
            dynamics: Some(DynamicsConfig {
                faults: FaultPlan::none(),
                cycle: true,
            }),
            ..StreamConfig::default()
        };
        let plain = run_stream_scheduled(
            &schedule,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(WithRandomCr4::new(BurstyDelivery::new(0.2, 0.4, 23), 7)),
            &base,
        )
        .unwrap();
        let reliable = run_stream_scheduled(
            &schedule,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(WithRandomCr4::new(BurstyDelivery::new(0.2, 0.4, 23), 7)),
            &StreamConfig {
                reliability: Some(
                    RetryPolicy::AckGap {
                        gap: 1_000_000,
                        max_retries: 2,
                    }
                    .into(),
                ),
                ..base
            },
        )
        .unwrap();
        assert_eq!(reliable.payloads, plain.payloads, "{name}");
        assert_eq!(reliable.rounds_executed, plain.rounds_executed, "{name}");
        assert_eq!(reliable.mac, plain.mac, "{name}");
        assert_eq!(
            reliable.reliability.unwrap().stats.total_retries,
            0,
            "{name}: the gap can never elapse"
        );
    }
}

/// Satellite regression, end to end: a bounded-budget flood quiesces
/// against a crashed cut vertex, and the retry lane's re-`bcast`
/// (which re-arms [`PipelinedFlooder::on_input`]'s per-payload budget)
/// is the *only* thing that revives it after the recovery.
///
/// [`PipelinedFlooder::on_input`]: dualgraph_sim::automata::PipelinedFlooder
#[test]
fn retry_rearms_a_quiesced_bounded_flood_through_a_recovered_cut_vertex() {
    // A plain path: node 1 is the source's only neighbor, crashed until
    // long after the source's budget of 6 transmissions is spent.
    let net = generators::line(8, 1);
    let faults = FaultPlan::none().crash(NodeId(1), 0).recover(NodeId(1), 60);
    let base = StreamConfig {
        k: 1,
        max_rounds: 4_000,
        dynamics: Some(DynamicsConfig {
            faults,
            cycle: false,
        }),
        ..StreamConfig::default()
    };
    let algorithm = StreamAlgorithm::BoundedFlooding { budget: 6 };
    // Without the reliability layer the flood dies: the budget is spent
    // into a crashed receiver and nothing ever re-arms it.
    let (dead, _) = run_stream_session(
        &net,
        algorithm,
        Box::new(WithRandomCr4::new(ReliableOnly::new(), 11)),
        &base,
    )
    .unwrap();
    assert!(
        !dead.completed,
        "control arm: the quiesced flood must stay dead ({} rounds)",
        dead.rounds_executed
    );
    // With ack-gap retries the re-bcast lands after the recovery,
    // on_input resets the payload's sent counter, and the flood reaches
    // the far end of the path.
    let (revived, _) = run_stream_session(
        &net,
        algorithm,
        Box::new(WithRandomCr4::new(ReliableOnly::new(), 11)),
        &StreamConfig {
            reliability: Some(
                RetryPolicy::AckGap {
                    gap: 16,
                    max_retries: 30,
                }
                .into(),
            ),
            ..base
        },
    )
    .unwrap();
    let report = revived.reliability.as_ref().unwrap();
    assert!(revived.completed, "{report:?}");
    assert!(report.entries[0].verdict.is_delivered(), "{report:?}");
    assert!(
        report.stats.total_retries > 0,
        "the revival must come from the retry lane: {report:?}"
    );
}

/// Golden pin of the retry backend's ledger: an ack-gap stream with
/// Poisson arrivals over a cycled churn schedule. The source is crashed
/// when payload 2 arrives (dropped, then re-entered by a retry after the
/// recovery), and a spammer's junk carries payload 2's id before it
/// enters. Every verdict, stat, segment, health figure and the traced
/// `Retry`/`Verdict` sequence are pinned as the run produced them.
#[test]
fn golden_retry_ledger_under_churn_poisson_arrivals_and_spam() {
    let n = 33;
    let schedule = generators::churn_schedule(
        &random_net(5, n),
        generators::ChurnParams {
            epochs: 4,
            span: 40,
            rewire_fraction: 0.25,
        },
        derive_seed(41, 5),
    );
    let network = schedule.epoch(0).network();
    let source = network.source();
    let mut junk = PayloadSet::only(PayloadId(2));
    junk.insert(PayloadId(99));
    let mut config = StreamConfig {
        k: 6,
        arrivals: Arrivals::Poisson { mean_gap: 8.0 },
        max_rounds: 4_000,
        seed: 17,
        reliability: Some(
            RetryPolicy::AckGap {
                gap: 12,
                max_retries: 8,
            }
            .into(),
        ),
        health: Some(HealthConfig { window: 8 }),
        ..StreamConfig::default()
    };
    let plan = plan_arrivals(network, &config);
    let rounds: Vec<u64> = plan.iter().map(|a| a.round).collect();
    assert_eq!(rounds, [0, 1, 14, 16, 22, 24]);
    let drop_round = plan[2].round;
    config.dynamics = Some(DynamicsConfig {
        faults: FaultPlan::none()
            .crash(source, drop_round)
            .recover(source, drop_round + 20)
            .spam(NodeId(7), 1, junk)
            .recover(NodeId(7), drop_round + 10),
        cycle: true,
    });
    let adversary = || -> Box<dyn Adversary> {
        Box::new(WithRandomCr4::new(
            BurstyDelivery::new(0.15, 0.4, 19),
            derive_seed(3, 19),
        ))
    };
    let algorithm = StreamAlgorithm::PipelinedHarmonic { epsilon: 0.5 };
    let session = || StreamSession::scheduled(&schedule, algorithm, adversary(), &config).unwrap();
    let (outcome, _) = session().run();
    let mut events: Vec<TraceEvent> = Vec::new();
    let (traced, _) = session().run_traced(&mut events);
    let view = common::ledger_view(&outcome, &events);
    assert_eq!(
        common::ledger_view(&traced, &events),
        view,
        "tracing is passive"
    );
    common::assert_events_agree(&traced, &events);
    assert_eq!(view, RETRY_GOLDEN);
}

/// What [`golden_retry_ledger_under_churn_poisson_arrivals_and_spam`]
/// pins (see `common::ledger_view` for the line shapes).
const RETRY_GOLDEN: &[&str] = &[
    "p0 src=0 arr=0 retries=5 entered=true delivered@68 (5 retries) | p0 src=0 arr=0 done=Some(68) dropped=false",
    "p1 src=0 arr=1 retries=8 entered=true abandoned (8 retries) | p1 src=0 arr=1 done=Some(132) dropped=false",
    "p2 src=0 arr=14 retries=3 entered=true delivered@78 (3 retries) | p2 src=0 arr=14 done=Some(78) dropped=false",
    "p3 src=0 arr=16 retries=8 entered=true delivered@132 (8 retries) | p3 src=0 arr=16 done=Some(132) dropped=false",
    "p4 src=0 arr=22 retries=8 entered=true delivered@132 (8 retries) | p4 src=0 arr=22 done=Some(132) dropped=false",
    "p5 src=0 arr=24 retries=7 entered=true delivered@132 (7 retries) | p5 src=0 arr=24 done=Some(132) dropped=false",
    "EpochStreamStats { epoch: 0, first_round: 1, last_round: 40, rcv_events: 51, ack_latency: HistogramSummary { count: 0, min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, p999: 0 }, retries: 11, delivered: 0, drops: 0 }",
    "EpochStreamStats { epoch: 1, first_round: 41, last_round: 80, rcv_events: 56, ack_latency: HistogramSummary { count: 7, min: 5, max: 65, mean: 28.714285714285715, p50: 22, p90: 65, p99: 65, p999: 65 }, retries: 16, delivered: 2, drops: 0 }",
    "EpochStreamStats { epoch: 2, first_round: 81, last_round: 120, rcv_events: 97, ack_latency: HistogramSummary { count: 29, min: 1, max: 118, mean: 48.41379310344828, p50: 47, p90: 83, p99: 118, p999: 118 }, retries: 12, delivered: 0, drops: 0 }",
    "EpochStreamStats { epoch: 3, first_round: 121, last_round: 132, rcv_events: 21, ack_latency: HistogramSummary { count: 0, min: 0, max: 0, mean: 0.0, p50: 0, p90: 0, p99: 0, p999: 0 }, retries: 0, delivered: 3, drops: 0 }",
    "health window=8 final=0.375 peak=0.375 drop_rate=0 pending_retries=6 pending_acks=28",
    "HistogramSummary { count: 36, min: 1, max: 118, mean: 44.583333333333336, p50: 43, p90: 83, p99: 118, p999: 118 }",
    "safety_violations=0",
    "Retry { round: 12, source: NodeId(0), payload: PayloadId(0) }",
    "Retry { round: 13, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 24, source: NodeId(0), payload: PayloadId(0) }",
    "Retry { round: 25, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 26, source: NodeId(0), payload: PayloadId(2) }",
    "Retry { round: 28, source: NodeId(0), payload: PayloadId(3) }",
    "Retry { round: 34, source: NodeId(0), payload: PayloadId(4) }",
    "Retry { round: 36, source: NodeId(0), payload: PayloadId(0) }",
    "Retry { round: 36, source: NodeId(0), payload: PayloadId(5) }",
    "Retry { round: 37, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 38, source: NodeId(0), payload: PayloadId(2) }",
    "Retry { round: 40, source: NodeId(0), payload: PayloadId(3) }",
    "Retry { round: 46, source: NodeId(0), payload: PayloadId(4) }",
    "Retry { round: 48, source: NodeId(0), payload: PayloadId(0) }",
    "Retry { round: 48, source: NodeId(0), payload: PayloadId(5) }",
    "Retry { round: 49, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 50, source: NodeId(0), payload: PayloadId(2) }",
    "Retry { round: 52, source: NodeId(0), payload: PayloadId(3) }",
    "Retry { round: 58, source: NodeId(0), payload: PayloadId(4) }",
    "Retry { round: 60, source: NodeId(0), payload: PayloadId(0) }",
    "Retry { round: 60, source: NodeId(0), payload: PayloadId(5) }",
    "Retry { round: 61, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 64, source: NodeId(0), payload: PayloadId(3) }",
    "Verdict { round: 68, payload: PayloadId(0), delivered: true }",
    "Retry { round: 70, source: NodeId(0), payload: PayloadId(4) }",
    "Retry { round: 72, source: NodeId(0), payload: PayloadId(5) }",
    "Retry { round: 73, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 76, source: NodeId(0), payload: PayloadId(3) }",
    "Verdict { round: 78, payload: PayloadId(2), delivered: true }",
    "Retry { round: 82, source: NodeId(0), payload: PayloadId(4) }",
    "Retry { round: 84, source: NodeId(0), payload: PayloadId(5) }",
    "Retry { round: 85, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 88, source: NodeId(0), payload: PayloadId(3) }",
    "Retry { round: 94, source: NodeId(0), payload: PayloadId(4) }",
    "Retry { round: 96, source: NodeId(0), payload: PayloadId(5) }",
    "Retry { round: 97, source: NodeId(0), payload: PayloadId(1) }",
    "Retry { round: 100, source: NodeId(0), payload: PayloadId(3) }",
    "Retry { round: 106, source: NodeId(0), payload: PayloadId(4) }",
    "Retry { round: 108, source: NodeId(0), payload: PayloadId(5) }",
    "Verdict { round: 109, payload: PayloadId(1), delivered: false }",
    "Retry { round: 112, source: NodeId(0), payload: PayloadId(3) }",
    "Retry { round: 118, source: NodeId(0), payload: PayloadId(4) }",
    "Verdict { round: 132, payload: PayloadId(3), delivered: true }",
    "Verdict { round: 132, payload: PayloadId(4), delivered: true }",
    "Verdict { round: 132, payload: PayloadId(5), delivered: true }",
    "quorum_phases=0 fnv=0xcbf29ce484222325",
];
