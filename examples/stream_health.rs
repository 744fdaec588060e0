//! The observability surface end to end: windowed stream health, the
//! trace-analyzer timeline reconstruction, and the metrics registry.
//!
//! ```text
//! cargo run --release --example stream_health
//! ```
//!
//! Three exhibits, all on the same workload — an ack-gap reliability
//! stream pushed through 16-epoch churn with crash/recovery faults and a
//! bursty adversary:
//!
//! 1. **Stream health** — `StreamConfig::with_health` opts the session
//!    into windowed sampling; `StreamOutcome::health` reports throughput,
//!    drop rate, queue high-water marks and the ack-latency digest, and
//!    `StreamOutcome::epochs` one segment per topology epoch.
//! 2. **Timeline reconstruction** — the same run traced into a
//!    `TraceAnalyzer` yields one `PayloadTimeline` per payload, with the
//!    rounds between injection and settlement attributed to progress /
//!    collisions / adversary drops / idle.
//! 3. **The metrics registry** — counters, gauges, and quantile
//!    histograms with a proven `1/32` relative-error bracket, rendered in
//!    registration order.

use dualgraph::{
    generators, DynamicsConfig, FaultPlan, HealthConfig, MetricsRegistry, NodeId, RetryPolicy,
    StreamAlgorithm, StreamConfig, TraceAnalyzer,
};
use dualgraph_broadcast::stream::StreamSession;
use dualgraph_sim::{BurstyDelivery, Histogram, WithRandomCr4};

const N: usize = 129;
const K: usize = 32;
const SEED: u64 = 0xAC4B;

fn schedule() -> dualgraph::TopologySchedule {
    let base = generators::er_dual(
        generators::ErDualParams {
            n: N,
            reliable_p: 2.0 / N as f64,
            unreliable_p: 8.0 / N as f64,
        },
        0xD00D,
    );
    generators::churn_schedule(
        &base,
        generators::ChurnParams {
            epochs: 16,
            span: 8,
            rewire_fraction: 0.25,
        },
        42,
    )
}

fn config() -> StreamConfig {
    StreamConfig {
        k: K,
        max_rounds: 5_000,
        dynamics: Some(DynamicsConfig {
            faults: fault_plan(),
            cycle: true,
        }),
        reliability: Some(
            RetryPolicy::AckGap {
                gap: 8,
                max_retries: 32,
            }
            .into(),
        ),
        ..StreamConfig::default()
    }
    .with_health(HealthConfig::default())
}

/// The reliability bench's fault shape: the source crashes right after
/// the batch arrives (recovering at round 17), and every tenth node
/// cycles through a crash/recovery window — retries must re-enter what
/// the crashes dropped.
fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::none().crash(NodeId(0), 1).recover(NodeId(0), 17);
    for i in (3..N as u32).step_by(10) {
        plan = plan
            .crash(NodeId(i), u64::from(i) % 23 + 2)
            .recover(NodeId(i), u64::from(i) % 23 + 25);
    }
    plan
}

fn adversary() -> Box<WithRandomCr4<BurstyDelivery>> {
    Box::new(WithRandomCr4::new(
        BurstyDelivery::new(0.15, 0.4, SEED),
        SEED ^ 0x9E37,
    ))
}

fn main() {
    // ---------------------------------------------------------------
    // Exhibit 1 + 2 in one pass: run the session once, traced into the
    // analyzer; the health report rides along on the outcome.
    // ---------------------------------------------------------------
    let schedule = schedule();
    let session = StreamSession::scheduled(
        &schedule,
        StreamAlgorithm::PipelinedFlooding,
        adversary(),
        &config(),
    )
    .expect("stream construction");
    let mut analyzer = TraceAnalyzer::new();
    let (outcome, _mac) = session.run_traced(&mut analyzer);
    let trace = analyzer.finish();

    println!(
        "reliability stream under churn (er_dual n={N}, k={K}, 16 epochs, bursty adversary)\n"
    );
    let report = outcome.reliability.as_ref().expect("policy configured");
    println!(
        "   {} rounds, {} delivered / {} abandoned, {} retries\n",
        outcome.rounds_executed,
        report.stats.delivered,
        report.stats.abandoned,
        report.stats.total_retries
    );

    println!("-- stream health (window = {} rounds) --", {
        let h = outcome.health.as_ref().expect("health enabled");
        h.window
    });
    let health = outcome.health.as_ref().expect("health enabled");
    println!(
        "   throughput: {:.3} payloads/round at end of run, {:.3} at peak",
        health.final_throughput, health.peak_throughput
    );
    println!(
        "   drop rate: {:.3}; queue high-water: {} pending retries, {} pending acks",
        health.drop_rate, health.peak_pending_retries, health.peak_pending_acks
    );
    println!(
        "   ack latency: {} acks, p50={} p90={} p99={} rounds",
        health.ack_latency.count,
        health.ack_latency.p50,
        health.ack_latency.p90,
        health.ack_latency.p99
    );
    println!(
        "   {:>6} {:>11} {:>6} {:>8}",
        "epoch", "deliveries", "drops", "retries"
    );
    for seg in outcome.epochs.iter().take(6) {
        println!(
            "   {:>6} {:>11} {:>6} {:>8}",
            seg.epoch, seg.delivered, seg.drops, seg.retries
        );
    }
    if outcome.epochs.len() > 6 {
        println!("   ... {} more segment(s)", outcome.epochs.len() - 6);
    }

    // ---------------------------------------------------------------
    // Exhibit 2: where did each payload's latency go?
    // ---------------------------------------------------------------
    println!("\n-- payload timelines (TraceAnalyzer) --");
    println!(
        "   delivery latency: p50={} p90={} p99={} rounds over {} settled payloads",
        trace.delivery_latency.p50().unwrap_or(0),
        trace.delivery_latency.p90().unwrap_or(0),
        trace.delivery_latency.p99().unwrap_or(0),
        trace.delivery_latency.count()
    );
    println!(
        "   {:>7} {:>7} {:>7} {:>8} {:>9} {:>9} {:>5}",
        "payload", "inject", "settle", "progress", "collision", "adv-drop", "idle"
    );
    for t in trace.timelines.iter().take(8) {
        let a = &t.attribution;
        println!(
            "   {:>7} {:>7} {:>7} {:>8} {:>9} {:>9} {:>5}",
            t.payload.0,
            t.inject_round.map_or("-".into(), |r| r.to_string()),
            t.settle_round().map_or("-".into(), |r| r.to_string()),
            a.progress_rounds,
            a.collision_rounds,
            a.adversary_drop_rounds,
            a.idle_rounds
        );
    }
    if trace.timelines.len() > 8 {
        println!("   ... {} more payload(s)", trace.timelines.len() - 8);
    }

    // ---------------------------------------------------------------
    // Exhibit 3: the registry, fed from the reconstructed timelines.
    // ---------------------------------------------------------------
    println!("\n-- metrics registry --");
    let mut registry = MetricsRegistry::new();
    let settled = registry.counter("payloads_settled");
    let frontier = registry.gauge("max_frontier_nodes");
    let latency = registry.histogram("delivery_latency_rounds");
    for t in &trace.timelines {
        if t.verdict.is_some() {
            registry.inc(settled);
        }
        registry.set_gauge(frontier, t.nodes_reached as i64);
        if let Some(l) = t.delivery_latency() {
            registry.record(latency, l);
        }
    }
    for (name, value) in registry.counters() {
        println!("   counter   {name} = {value}");
    }
    let frontier_high_water = registry.gauge_high_water(frontier).unwrap_or(0);
    for (name, value) in registry.gauges() {
        println!("   gauge     {name} = {value} (high-water {frontier_high_water})");
    }
    for (name, summary) in registry.histograms() {
        println!(
            "   histogram {name}: count={} mean={:.1} p50={} p99={} (each quantile within {:.1}% of exact)",
            summary.count,
            summary.mean,
            summary.p50,
            summary.p99,
            Histogram::RELATIVE_ERROR * 100.0
        );
    }

    // The invariants the docs promise.
    assert!(report.stats.delivered > 0, "the stream delivers payloads");
    let segment_deliveries: usize = outcome.epochs.iter().map(|e| e.delivered).sum();
    assert_eq!(
        segment_deliveries, report.stats.delivered,
        "segment deliveries are settled verdicts"
    );
    for t in &trace.timelines {
        if let (Some(start), Some(settle)) = (t.start_round(), t.settle_round()) {
            // One bucket per executed round of the active window, which
            // is inclusive of the entry round for payloads already on
            // the air when first observed.
            let latency = settle - start;
            let total = t.attribution.total();
            assert!(
                total == latency || total == latency + 1,
                "attribution buckets cover the active window \
                 (payload {}: {total} classified, window {latency})",
                t.payload.0
            );
        }
    }
    println!("\nall observability invariants hold");
}
