//! Lemma 1 — dual graphs simulate explicit-interference networks.
//!
//! Replays executions under both semantics on random `(G_T, G_I)` pairs
//! and diffs every reception of every round; "equivalent = true" across
//! the board *is* the lemma, exhibited.

use dualgraph_broadcast::algorithms::{BroadcastAlgorithm, Harmonic, RoundRobin, StrongSelect};
use dualgraph_broadcast::interference::{check_equivalence, random_interference};
use dualgraph_sim::{CollisionRule, StartRule};

use crate::report::Table;
use crate::workloads::Scale;

/// Runs the Lemma 1 experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "Lemma 1: explicit-interference executions replayed on dual graphs",
        "per-round, per-node reception diff between the two semantics; \
         the lemma says every cell must read 'yes'",
        &["n", "algorithm", "rule", "start", "rounds", "equivalent"],
    );
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![12, 20],
        Scale::Full => vec![12, 20, 40, 80],
    };
    for &n in &sizes {
        let net = random_interference(n, 0.1, 0.2, n as u64);
        let cases: Vec<(Box<dyn BroadcastAlgorithm>, CollisionRule, StartRule)> = vec![
            (
                Box::new(RoundRobin::new()),
                CollisionRule::Cr1,
                StartRule::Synchronous,
            ),
            (
                Box::new(RoundRobin::new()),
                CollisionRule::Cr3,
                StartRule::Synchronous,
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
            let report =
                check_equivalence(&net, || algo.slots(n, 31), rule, start, n as u64, 2_000_000);
            assert!(report.equivalent, "Lemma 1 diverged for {}", algo.name());
            table.row(vec![
                n.to_string(),
                algo.name(),
                rule.to_string(),
                match start {
                    StartRule::Synchronous => "sync".into(),
                    StartRule::Asynchronous => "async".into(),
                },
                report.rounds.to_string(),
                if report.equivalent { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    table
}
