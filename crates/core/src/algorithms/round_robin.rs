//! Round-robin broadcast: the classical deterministic baseline.
//!
//! Process `i` transmits (once it holds the message) exactly in global
//! rounds `t` with `(t − 1) ≡ i (mod n)`. One process sends per round, so
//! there are never collisions, and each graph layer is crossed within `n`
//! rounds: `O(n · ecc(s))` overall, hence `O(n)` on the constant-diameter
//! networks of §4 (the note after Theorem 4 observes this matches the
//! `Ω(n)` bound for 2-broadcastable networks).
//!
//! Because only one process transmits per round, the adversary's unreliable
//! deliveries can only help — round robin's guarantee is identical in the
//! classical and dual graph models. Its weakness is the `n`-round wait per
//! layer; Strong Select (§5) exists to beat exactly that.
//!
//! Under asynchronous start the process learns the global round from the
//! `round_tag` on the first message it receives (§5 footnote 1).

use dualgraph_sim::{ProcessId, ProcessSlot};

use super::BroadcastAlgorithm;

/// The round-robin automaton (state machine in `dualgraph-sim`,
/// inline-dispatch capable via [`ProcessSlot::RoundRobin`]).
pub use dualgraph_sim::automata::RoundRobinProcess;

/// Factory for [`RoundRobinProcess`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Creates the round-robin algorithm.
    pub fn new() -> Self {
        RoundRobin
    }
}

impl BroadcastAlgorithm for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn slots(&self, n: usize, _seed: u64) -> Vec<ProcessSlot> {
        (0..n)
            .map(|i| ProcessSlot::RoundRobin(RoundRobinProcess::new(ProcessId::from_index(i), n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::run;
    use super::*;
    use dualgraph_net::generators;
    use dualgraph_sim::{
        ActivationCause, CollisionRule, Process, ReliableOnly, StartRule, TraceEvent,
    };

    #[test]
    fn completes_line_without_collisions() {
        let net = generators::line(8, 1);
        let outcome = run(
            &net,
            RoundRobin::new().slots(8, 0),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr1,
            StartRule::Synchronous,
            10_000,
        );
        assert!(outcome.completed);
        assert_eq!(outcome.physical_collisions, 0);
        // Layer i is informed once process i-1 fires: completion <= n * ecc.
        assert!(outcome.completion_round.unwrap() <= 8 * 7);
    }

    #[test]
    fn completes_clique_bridge_in_about_n_rounds() {
        let n = 12;
        let gadget = generators::clique_bridge(n);
        let outcome = run(
            &gadget.network,
            RoundRobin::new().slots(n, 0),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr1,
            StartRule::Synchronous,
            10_000,
        );
        assert!(outcome.completed);
        // Identity assignment: bridge is process n-2, fires in round n-1.
        assert_eq!(outcome.completion_round, Some(n as u64 - 1));
    }

    #[test]
    fn works_with_asynchronous_start_via_round_tags() {
        let net = generators::line(6, 1);
        let outcome = run(
            &net,
            RoundRobin::new().slots(6, 0),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            10_000,
        );
        assert!(outcome.completed);
        assert_eq!(outcome.physical_collisions, 0);
    }

    #[test]
    fn exactly_one_sender_per_round() {
        // Sync start on a clique: every process informed after round 1;
        // still at most one sender per round forever.
        let net = generators::complete(5);
        let mut exec = dualgraph_sim::Executor::from_slots(
            &net,
            RoundRobin::new().slots(5, 0),
            Box::new(ReliableOnly::new()),
            dualgraph_sim::ExecutorConfig {
                rule: CollisionRule::Cr1,
                start: StartRule::Synchronous,
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..12 {
            let mut events: Vec<TraceEvent> = Vec::new();
            let summary = exec.step_traced(&mut events);
            let transmits = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Transmit { .. }))
                .count();
            assert_eq!(transmits, summary.senders, "round {}", summary.round);
            assert!(transmits <= 1, "round {}", summary.round);
        }
    }

    #[test]
    fn uninformed_processes_stay_silent() {
        let mut p = RoundRobinProcess::new(ProcessId(0), 4);
        p.on_activate(ActivationCause::SynchronousStart);
        assert_eq!(p.transmit(1), None);
        assert!(!p.has_payload());
    }

    #[test]
    fn metadata() {
        let a = RoundRobin::new();
        assert_eq!(a.name(), "round-robin");
        assert!(a.is_deterministic());
        assert_eq!(a.slots(3, 0).len(), 3);
    }
}
