//! Quickstart: build a dual graph, run the paper's two algorithms against
//! three adversaries, print a comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dualgraph::broadcast::stats::Summary;
use dualgraph::{
    generators, run_broadcast, Adversary, BroadcastAlgorithm, FullDelivery, Harmonic,
    RandomDelivery, ReliableOnly, RoundRobin, RunConfig, StrongSelect,
};

fn main() {
    let n = 101;
    // The Theorem 12 topology: a chain of 2-node layers, with every
    // non-adjacent pair connected by an unreliable link.
    let net = generators::layered_pairs(n);
    println!(
        "network: n={} |E|={} |E'|={} source-ecc={}",
        net.len(),
        net.reliable_csr().edge_count(),
        net.reliable_csr().edge_count() + net.unreliable_edge_count(),
        net.source_eccentricity()
    );
    println!();
    println!(
        "{:<22} {:<18} {:>12} {:>12} {:>12}",
        "algorithm", "adversary", "rounds", "sends", "collisions"
    );

    let algorithms: Vec<Box<dyn BroadcastAlgorithm>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(StrongSelect::new()),
        Box::new(Harmonic::new()),
    ];
    let adversaries: Vec<(&str, fn(u64) -> Box<dyn Adversary>)> = vec![
        ("reliable-only", |_| Box::new(ReliableOnly::new())),
        ("full-delivery", |_| Box::new(FullDelivery::new())),
        ("random(p=0.5)", |seed| {
            Box::new(RandomDelivery::new(0.5, seed))
        }),
    ];

    for algorithm in &algorithms {
        for (name, make) in &adversaries {
            let mut rounds = Vec::new();
            let mut sends = 0;
            let mut collisions = 0;
            for seed in 0..5u64 {
                let outcome = run_broadcast(
                    &net,
                    algorithm.as_ref(),
                    make(seed),
                    RunConfig::default()
                        .with_seed(seed)
                        .with_max_rounds(5_000_000),
                )
                .expect("run");
                assert!(outcome.completed, "{} did not finish", algorithm.name());
                rounds.push(outcome.completion_round.unwrap());
                sends += outcome.sends;
                collisions += outcome.physical_collisions;
            }
            let summary = Summary::of_u64(&rounds);
            println!(
                "{:<22} {:<18} {:>12.0} {:>12} {:>12}",
                algorithm.name(),
                name,
                summary.median,
                sends / 5,
                collisions / 5
            );
        }
    }
    println!();
    println!(
        "note: deterministic algorithms repeat the same execution under\n\
         deterministic adversaries; the random adversary varies by seed."
    );
}
