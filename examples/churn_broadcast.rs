//! Broadcast on a changing network with misbehaving nodes: the dynamics
//! subsystem end to end.
//!
//! ```text
//! cargo run --release --example churn_broadcast
//! ```
//!
//! Three exhibits:
//!
//! 1. **Epoch churn** — dense flooding driven through a 16-epoch
//!    `churn_schedule` (a quarter of the gray edges rewired per epoch,
//!    reliable spine fixed): the broadcast completes across epoch
//!    boundaries, and the round cost matches the frozen-topology run.
//! 2. **Node faults** — a crash/recovery stalling and resuming a flood, a
//!    jammer deafening a clique under CR1, and a spammer polluting
//!    known-payload records with junk.
//! 3. **A scheduled stream** — `run_stream_scheduled` pushing a payload
//!    batch through the epochs, with progress and acks segmented per
//!    epoch.
//! 4. **Reliable broadcast** — the ack-gap retry policy re-entering a
//!    batch dropped at a crashed source and certifying per-payload
//!    delivery verdicts.

use dualgraph::{
    generators, CollisionRule, DynamicExecutor, DynamicsConfig, Epoch, ExecutorConfig, FaultPlan,
    Flooder, NodeId, NodeRole, PayloadId, PayloadSet, RandomDelivery, ReliableOnly, StartRule,
    StreamAlgorithm, StreamConfig, TopologySchedule,
};
use dualgraph_broadcast::stream::run_stream_scheduled;
use dualgraph_sim::SilentProcess;

fn workload(n: usize) -> dualgraph::DualGraph {
    generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p: 2.0 / n as f64,
            unreliable_p: 8.0 / n as f64,
        },
        0xD00D,
    )
}

fn main() {
    // ---------------------------------------------------------------
    // Exhibit 1: flooding across a 16-epoch churn schedule.
    // ---------------------------------------------------------------
    let n = 129;
    let base = workload(n);
    let schedule = generators::churn_schedule(
        &base,
        generators::ChurnParams {
            epochs: 16,
            span: 8,
            rewire_fraction: 0.25,
        },
        42,
    );
    println!("broadcast under churn (er_dual n={n}, 16 epochs x 8 rounds)\n");
    let mut exec = DynamicExecutor::from_slots(
        &schedule,
        Flooder::slots(n),
        Box::new(RandomDelivery::new(0.5, 7)),
        ExecutorConfig::default(),
        FaultPlan::none(),
    )
    .expect("schedule and slots are consistent")
    .cycling(true);
    let outcome = exec.run_until_complete(10_000);
    println!(
        "   completed: {} in {} rounds, {} epoch switch(es), epoch {} in force at the end",
        outcome.completed,
        outcome.completion_round.unwrap_or(0),
        exec.epoch_switches(),
        exec.epoch(),
    );

    // The same flood on the frozen epoch-0 network, for comparison.
    let frozen_schedule = TopologySchedule::single(base.clone());
    let mut frozen = DynamicExecutor::from_slots(
        &frozen_schedule,
        Flooder::slots(n),
        Box::new(RandomDelivery::new(0.5, 7)),
        ExecutorConfig::default(),
        FaultPlan::none(),
    )
    .expect("single epoch is always valid");
    let static_outcome = frozen.run_until_complete(10_000);
    println!(
        "   frozen epoch-0 baseline: {} rounds (churn rewires only gray edges,\n   so the reliable spine keeps both runs within a few rounds)\n",
        static_outcome.completion_round.unwrap_or(0)
    );

    // ---------------------------------------------------------------
    // Exhibit 2: node faults.
    // ---------------------------------------------------------------
    println!("-- node faults --");

    // Crash/recovery: node 2 of a 5-line fail-stops before the flood
    // reaches it and recovers at round 6; the flood stalls, then resumes.
    let line = TopologySchedule::single(generators::line(5, 1));
    let plan = FaultPlan::none().crash(NodeId(2), 1).recover(NodeId(2), 6);
    let mut exec = DynamicExecutor::from_slots(
        &line,
        Flooder::slots(5),
        Box::new(ReliableOnly::new()),
        ExecutorConfig::default(),
        plan,
    )
    .expect("line schedule");
    let outcome = exec.run_until_complete(50);
    println!(
        "   crash/recovery on a 5-line: node 2 crashed rounds 1-5 -> flood \
         reaches node 4 at round {} (3 hops + 5 stalled rounds)",
        outcome.first_receive[4].unwrap()
    );

    // Jammer: under CR1 a permanent jammer collides with every source
    // transmission of a 4-clique — the broadcast never completes.
    let clique = TopologySchedule::single(generators::complete(4));
    let mut exec = DynamicExecutor::from_slots(
        &clique,
        Flooder::slots(4),
        Box::new(ReliableOnly::new()),
        ExecutorConfig {
            rule: CollisionRule::Cr1,
            start: StartRule::Synchronous,
            ..ExecutorConfig::default()
        },
        FaultPlan::none().jam(NodeId(3), 1),
    )
    .expect("clique schedule");
    let outcome = exec.run_until_complete(40);
    println!(
        "   jammer in a 4-clique under CR1: completed={}, {} physical collisions in 40 rounds",
        outcome.completed, outcome.physical_collisions
    );

    // Spammer: junk is absorbed into known sets (it is physically
    // received) but can no longer flip the informed bit — coverage is
    // judged against environment-introduced payloads, so spam cannot
    // spoof broadcast completion.
    let line4 = TopologySchedule::single(generators::line(4, 1));
    let mut exec = DynamicExecutor::from_slots(
        &line4,
        SilentProcess::slots(4),
        Box::new(ReliableOnly::new()),
        ExecutorConfig::default(),
        FaultPlan::none().spam(NodeId(3), 1, PayloadSet::only(PayloadId(7))),
    )
    .expect("line schedule");
    exec.run_rounds(3);
    println!(
        "   spammer at the end of a silent 4-line: node 2's known set is now {} \
         yet informed_count stays {} (junk never informs — spam-proof coverage)\n",
        exec.executor().known_payloads()[2],
        exec.executor().informed_count(),
    );
    assert_eq!(
        exec.executor().role(NodeId(3)),
        NodeRole::Spammer(PayloadSet::only(PayloadId(7)))
    );
    assert_eq!(exec.executor().informed_count(), 1, "source only");

    // ---------------------------------------------------------------
    // Exhibit 3: a payload stream across epochs, measured per epoch.
    // ---------------------------------------------------------------
    println!("-- scheduled stream: line epoch, then star epoch --");
    let stream_schedule = TopologySchedule::new(vec![
        Epoch::new(generators::line(10, 1), 4),
        Epoch::new(generators::star(10), 100),
    ])
    .expect("epochs share n and source");
    let outcome = run_stream_scheduled(
        &stream_schedule,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(ReliableOnly::new()),
        &StreamConfig {
            k: 6,
            dynamics: Some(DynamicsConfig::default()),
            ..StreamConfig::default()
        },
    )
    .expect("stream construction");
    println!(
        "   k=6 batch completed={} in {} rounds (the star epoch finishes what the line started)",
        outcome.completed, outcome.rounds_executed
    );
    println!(
        "   {:>6} {:>8} {:>8} {:>6} {:>6}",
        "epoch", "rounds", "", "rcvs", "acks"
    );
    for seg in &outcome.epochs {
        println!(
            "   {:>6} {:>8} {:>8} {:>6} {:>6}",
            seg.epoch,
            format!("{}-{}", seg.first_round, seg.last_round),
            "",
            seg.rcv_events,
            seg.ack_latency.count
        );
    }

    // ---------------------------------------------------------------
    // Exhibit 4: reliable broadcast — retries turn dropped arrivals
    // into delivery guarantees.
    // ---------------------------------------------------------------
    println!("\n-- reliable broadcast: ack-gap retries over a crashed source --");
    let net6 = generators::line(6, 1);
    let outcome = dualgraph_broadcast::stream::run_stream(
        &net6,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(ReliableOnly::new()),
        &StreamConfig {
            k: 3,
            max_rounds: 400,
            dynamics: Some(DynamicsConfig {
                faults: FaultPlan::none().crash(NodeId(0), 0).recover(NodeId(0), 5),
                cycle: false,
            }),
            reliability: Some(
                dualgraph::RetryPolicy::AckGap {
                    gap: 4,
                    max_retries: 10,
                }
                .into(),
            ),
            ..StreamConfig::default()
        },
    )
    .expect("reliability stream construction");
    let report = outcome.reliability.expect("policy configured");
    println!(
        "   source crashed at the batch arrival, recovered at round 5: \
         {} delivered / {} abandoned with {} retries",
        report.stats.delivered, report.stats.abandoned, report.stats.total_retries
    );
    for e in &report.entries {
        println!("   payload {:>2}: {}", e.payload.0, e.verdict);
    }
    assert!(report.all_non_abandoned_delivered());
    assert_eq!(report.stats.delivered, 3);
}
