//! Multi-message broadcast: k-source pipelined streams vs sequential
//! re-runs, and the abstract MAC layer's event interface.
//!
//! ```text
//! cargo run --release --example multi_message
//! ```
//!
//! Three exhibits:
//!
//! 1. **Pipelining vs serialization** — a batch of `k` payloads from one
//!    source, pushed by pipelined flooding in ONE execution, against `k`
//!    separate single-payload floods run back to back. The pipelined
//!    makespan is one wavefront; the sequential total is `k` of them.
//! 2. **Multi-source mixing** — `k` producers spread over the network.
//!    Always-transmit flooding cannot mix opposing waves under CR4 (a
//!    sender only hears itself), while pipelined Harmonic's silent rounds
//!    double as listening time and deliver everything.
//! 3. **The MAC layer, event by event** — a relay written purely against
//!    `bcast`/`rcv`/`ack` events, never touching raw rounds.

use dualgraph::broadcast::stream::{
    run_stream, Arrivals, SourcePlacement, StreamAlgorithm, StreamConfig,
};
use dualgraph::{
    generators, Executor, ExecutorConfig, Flooder, MacEvent, MacLayer, PayloadId, RandomDelivery,
};
use dualgraph_sim::automata::{Backoff, BackoffProcess};
use dualgraph_sim::rng::derive_seed;

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
    let n = 129;
    let net = workload(n);
    println!("multi-message broadcast on er_dual (n={n})\n");

    // Exhibit 1: single-source batch, pipelined vs sequential.
    println!("-- pipelined stream vs sequential re-runs (single source, batch) --");
    println!(
        "{:>4} {:>18} {:>18} {:>9}",
        "k", "pipelined rounds", "sequential rounds", "speedup"
    );
    for k in [1usize, 8, 64] {
        let stream = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(RandomDelivery::new(0.5, 7)),
            &StreamConfig {
                k,
                arrivals: Arrivals::Batch,
                sources: SourcePlacement::Single,
                ..StreamConfig::default()
            },
        )
        .expect("stream run");
        let pipelined = stream.makespan().expect("completes");
        let mut sequential = 0u64;
        for m in 0..k as u64 {
            let mut exec = Executor::from_slots(
                &net,
                Flooder::slots(n),
                Box::new(RandomDelivery::new(0.5, derive_seed(7, m))),
                ExecutorConfig::default(),
            )
            .expect("flood run");
            sequential += exec.run_until_complete(1_000_000).completion_round.unwrap();
        }
        println!(
            "{k:>4} {pipelined:>18} {sequential:>18} {:>8.1}x",
            sequential as f64 / pipelined as f64
        );
    }

    // Exhibit 2: multi-source mixing.
    println!("\n-- k=4 spread producers under CR4 (can the flows cross?) --");
    for (algo, name) in [
        (StreamAlgorithm::PipelinedFlooding, "pipelined-flooding"),
        (
            StreamAlgorithm::PipelinedHarmonic { epsilon: 0.1 },
            "pipelined-harmonic",
        ),
    ] {
        let outcome = run_stream(
            &net,
            algo,
            Box::new(RandomDelivery::new(0.5, 11)),
            &StreamConfig {
                k: 4,
                arrivals: Arrivals::Batch,
                sources: SourcePlacement::Spread,
                max_rounds: 300_000,
                ..StreamConfig::default()
            },
        )
        .expect("stream run");
        match outcome.makespan() {
            Some(makespan) => println!(
                "{name:<20} completed in {makespan} rounds \
                 (mean payload latency {:.0}, mac mean ack {:.0})",
                outcome.mean_latency().unwrap(),
                outcome.mac.mean_ack_latency
            ),
            None => println!(
                "{name:<20} STALLED: senders never listen under CR2-CR4, \
                 opposing waves cannot mix ({}/{} payloads delivered)",
                outcome
                    .payloads
                    .iter()
                    .filter(|p| p.completion_round.is_some())
                    .count(),
                outcome.payloads.len()
            ),
        }
    }

    // Exhibit 3: an event-driven relay over the MAC layer.
    println!("\n-- MAC-layer relay on a 7-node line (events only) --");
    let line = generators::line(7, 1);
    let slots = BackoffProcess::slots(7, Backoff::Harmonic { period: 4 }, 3);
    let exec = Executor::from_slots(
        &line,
        slots,
        Box::new(RandomDelivery::new(0.5, 5)),
        ExecutorConfig::default(),
    )
    .expect("mac executor");
    let mut mac = MacLayer::new(exec);
    // The relay rule: whenever a node rcv's a payload, it bcast's it
    // onward — multi-hop broadcast expressed in MAC events alone.
    let mut log = 0;
    while mac.known_count(PayloadId(0)) < 7 && mac.round() < 100_000 {
        let events: Vec<MacEvent> = mac.step().to_vec();
        for event in events {
            match event {
                MacEvent::Rcv {
                    node,
                    payload,
                    round,
                } => {
                    if log < 8 {
                        println!("  round {round:>3}: rcv({payload:?}) at {node:?} -> bcast");
                        log += 1;
                    }
                    mac.bcast(node, payload);
                }
                MacEvent::Ack {
                    node,
                    payload,
                    round,
                } => {
                    if log < 8 {
                        println!("  round {round:>3}: ack({payload:?}) at {node:?}");
                        log += 1;
                    }
                }
            }
        }
    }
    let stats = mac.stats();
    println!(
        "  relay complete at round {}: {} acks, mean ack latency {:.1}, \
         mean progress latency {:.1}",
        mac.round(),
        stats.acked,
        stats.mean_ack_latency,
        stats.mean_progress_latency
    );
}
