//! Ablation — §5's participate-once design choice.
//!
//! The paper departs from the classical cycle-forever selective-family
//! algorithms by letting each node run **exactly one iteration** per
//! family: an exhausted node (all reliable neighbors informed) can still
//! jam its unreliable neighborhood, so bounding its active window bounds
//! its interference — and nodes eventually go silent.
//!
//! This table runs both arms under jamming and random adversaries. The
//! expected shape: completion rounds are comparable (progress is driven by
//! isolation, which both arms provide), but the forever arm keeps
//! transmitting — its send and collision counters grow without bound,
//! which is exactly the interference budget §5's design caps.

use dualgraph_broadcast::algorithms::{BroadcastAlgorithm, StrongSelect};
use dualgraph_net::generators;
use dualgraph_sim::{Adversary, CollisionSeeker, Executor, ExecutorConfig, RandomDelivery};

use crate::report::Table;
use crate::workloads::Scale;

/// Runs the participation ablation.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: participate once (paper) vs forever (classical)",
        "after completion both executions run 2x longer; sends/collisions past \
         completion measure residual interference — the cost §5's design removes",
        &[
            "adversary",
            "n",
            "variant",
            "rounds",
            "sends@done",
            "sends@2x",
            "collisions@2x",
            "terminated",
        ],
    );
    let adversaries: Vec<(&str, fn(u64) -> Box<dyn Adversary>)> = vec![
        ("collision-seeker", |_| Box::new(CollisionSeeker::new())),
        ("random(0.5)", |s| Box::new(RandomDelivery::new(0.5, s))),
    ];
    for (adv_name, make_adv) in adversaries {
        for n in scale.sizes() {
            let n = if n % 2 == 0 { n + 1 } else { n };
            let net = generators::layered_pairs(n);
            for algo in [StrongSelect::new(), StrongSelect::forever()] {
                let mut exec = Executor::from_slots(
                    &net,
                    algo.slots(n, 0),
                    make_adv(3),
                    ExecutorConfig::default(),
                )
                .expect("executor");
                let outcome = exec.run_until_complete(100_000_000);
                let rounds = outcome.completion_round.expect("strong select completes");
                let sends_done = outcome.sends;
                exec.run_rounds(rounds.max(64));
                let after = exec.outcome();
                let terminated = net.nodes().all(|v| exec.process_at(v).is_terminated());
                table.row(vec![
                    adv_name.to_string(),
                    n.to_string(),
                    algo.name(),
                    rounds.to_string(),
                    sends_done.to_string(),
                    after.sends.to_string(),
                    after.physical_collisions.to_string(),
                    terminated.to_string(),
                ]);
            }
        }
    }
    table
}
