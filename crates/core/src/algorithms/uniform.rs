//! Uniform-probability broadcast: the simplest randomized strategy.
//!
//! Every informed node transmits each round with a fixed probability `p`.
//! With `p = Θ(1/n)` this is near-optimal on a single clique but hopeless
//! across many sparse layers; it serves as a sanity baseline and as the
//! "generic randomized algorithm" victim for the Theorem 4 probability
//! bound experiment.

use dualgraph_sim::automata::{Backoff, BackoffProcess};
use dualgraph_sim::ProcessSlot;

use super::BroadcastAlgorithm;

/// Factory for the Uniform schedule of [`BackoffProcess`].
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    p: f64,
}

impl Uniform {
    /// Creates the uniform algorithm with per-round transmit probability
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability must lie in (0, 1]");
        Uniform { p }
    }
}

impl BroadcastAlgorithm for Uniform {
    fn name(&self) -> String {
        format!("uniform(p={})", self.p)
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn slots(&self, n: usize, seed: u64) -> Vec<ProcessSlot> {
        BackoffProcess::slots(n, Backoff::Uniform { p: self.p }, seed)
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
    fn completes_small_line() {
        let n = 12;
        let net = generators::line(n, 1);
        let outcome = run(
            &net,
            Uniform::new(0.2).slots(n, 3),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr3,
            StartRule::Asynchronous,
            200_000,
        );
        assert!(outcome.completed);
    }

    #[test]
    fn p_one_is_flooding() {
        let mut p = BackoffProcess::new(ProcessId(0), Backoff::Uniform { p: 1.0 }, 1);
        p.on_activate(ActivationCause::Input(Message::with_payload(
            ProcessId(0),
            PayloadId(0),
        )));
        for j in 1..10 {
            assert!(p.transmit(j).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_zero_probability() {
        Uniform::new(0.0);
    }

    #[test]
    fn metadata() {
        let u = Uniform::new(0.25);
        assert_eq!(u.name(), "uniform(p=0.25)");
        assert!(!u.is_deterministic());
    }
}
