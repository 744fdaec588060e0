//! The *Decay* baseline (Bar-Yehuda, Goldreich, Itai 1987).
//!
//! The classical randomized broadcast primitive for static radio networks:
//! informed nodes repeat phases of `⌈log₂ n⌉` rounds, transmitting with
//! probability `2^{−j}` in the `j`-th round of each phase (`j = 0, 1, …`).
//! Each phase "decays" through all contention scales, so whatever the local
//! neighborhood size, some round of the phase isolates a sender with
//! constant probability — in the **reliable** model.
//!
//! In the dual graph model the guarantee evaporates: the adversary can
//! re-inflate contention with unreliable deliveries faster than a phase
//! decays. Decay is included as the Table 2 classical-column baseline that
//! Harmonic Broadcast is measured against.

use dualgraph_sim::automata::{Backoff, BackoffProcess};
use dualgraph_sim::ProcessSlot;

use super::BroadcastAlgorithm;

/// Factory for the Decay schedule of [`BackoffProcess`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Decay;

impl Decay {
    /// Creates the Decay algorithm.
    pub fn new() -> Self {
        Decay
    }

    /// The schedule for `n` nodes: phases of `⌈log₂ n⌉` rounds.
    fn schedule(&self, n: usize) -> Backoff {
        let phase_len = (n.max(2) as f64).log2().ceil() as u64;
        Backoff::Decay { phase_len }
    }
}

impl BroadcastAlgorithm for Decay {
    fn name(&self) -> String {
        "decay".into()
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn slots(&self, n: usize, seed: u64) -> Vec<ProcessSlot> {
        BackoffProcess::slots(n, self.schedule(n), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::run;
    use super::*;
    use dualgraph_net::generators;
    use dualgraph_sim::{
        ActivationCause, CollisionRule, Message, PayloadId, Process, ProcessId, ReliableOnly,
        StartRule,
    };

    #[test]
    fn probability_decays_within_phase_and_resets() {
        let p = Decay::new().schedule(16);
        assert_eq!(p, Backoff::Decay { phase_len: 4 });
        assert_eq!(p.probability(1), 1.0);
        assert_eq!(p.probability(2), 0.5);
        assert_eq!(p.probability(3), 0.25);
        assert_eq!(p.probability(4), 0.125);
        assert_eq!(p.probability(5), 1.0); // new phase
    }

    #[test]
    fn first_round_of_phase_always_transmits() {
        let mut p = BackoffProcess::new(ProcessId(0), Decay::new().schedule(8), 2);
        p.on_activate(ActivationCause::Input(Message::with_payload(
            ProcessId(0),
            PayloadId(0),
        )));
        assert!(p.transmit(1).is_some());
    }

    #[test]
    fn uninformed_is_silent() {
        let mut p = BackoffProcess::new(ProcessId(0), Decay::new().schedule(8), 2);
        p.on_activate(ActivationCause::SynchronousStart);
        for j in 1..20 {
            assert_eq!(p.transmit(j), None);
        }
    }

    #[test]
    fn completes_classical_line() {
        let n = 24;
        let net = generators::line(n, 1);
        let outcome = run(
            &net,
            Decay::new().slots(n, 5),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr3,
            StartRule::Asynchronous,
            200_000,
        );
        assert!(outcome.completed, "rounds={}", outcome.rounds_executed);
    }

    #[test]
    fn completes_classical_layered_graph() {
        let net = generators::layered_widths(&[4, 4, 4, 4]);
        // Classicalize: benign adversary means G' edges are never used.
        let outcome = run(
            &net,
            Decay::new().slots(net.len(), 9),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr3,
            StartRule::Asynchronous,
            200_000,
        );
        assert!(outcome.completed);
    }

    #[test]
    fn metadata() {
        assert_eq!(Decay::new().name(), "decay");
        assert!(!Decay::new().is_deterministic());
        assert_eq!(Decay::new().slots(5, 0).len(), 5);
    }
}
