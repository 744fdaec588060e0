//! Lemma 1, live: dual graphs simulate explicit-interference networks.
//!
//! An explicit-interference network `(G_T, G_I)` has edges that can only
//! jam, never deliver. The lemma's adversary runs on the dual graph
//! `(G = G_T, G′ = G_I)` and schedules unreliable edges so that every
//! process sees *exactly* the feedback it would see in the explicit model
//! — this example replays executions under both semantics and diffs every
//! reception of every round.
//!
//! ```text
//! cargo run --release --example interference_models
//! ```

use dualgraph::broadcast::interference::{check_equivalence, random_interference};
use dualgraph::{BroadcastAlgorithm, CollisionRule, Harmonic, RoundRobin, StartRule, StrongSelect};

fn main() {
    println!(
        "{:<22} {:<6} {:<14} {:>8} {:>12}",
        "algorithm", "rule", "start", "rounds", "equivalent?"
    );
    for seed in 0..3u64 {
        let net = random_interference(20, 0.12, 0.25, seed);
        let cases: Vec<(Box<dyn BroadcastAlgorithm>, CollisionRule, StartRule)> = vec![
            (
                Box::new(RoundRobin::new()),
                CollisionRule::Cr1,
                StartRule::Synchronous,
            ),
            (
                Box::new(RoundRobin::new()),
                CollisionRule::Cr4,
                StartRule::Asynchronous,
            ),
            (
                Box::new(StrongSelect::new()),
                CollisionRule::Cr4,
                StartRule::Asynchronous,
            ),
            (
                Box::new(Harmonic::new()),
                CollisionRule::Cr4,
                StartRule::Asynchronous,
            ),
        ];
        for (algo, rule, start) in cases {
            let report = check_equivalence(
                &net,
                || algo.slots(net.len(), 99),
                rule,
                start,
                seed,
                500_000,
            );
            println!(
                "{:<22} {:<6} {:<14} {:>8} {:>12}",
                algo.name(),
                rule.to_string(),
                match start {
                    StartRule::Synchronous => "synchronous",
                    StartRule::Asynchronous => "asynchronous",
                },
                report.rounds,
                if report.equivalent { "yes" } else { "NO" }
            );
            assert!(report.equivalent, "Lemma 1 simulation diverged!");
        }
    }
    println!("\nevery reception of every process matched under both semantics.");
}
