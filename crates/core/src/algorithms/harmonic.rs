//! **Harmonic Broadcast** — the paper's randomized `O(n log² n)` algorithm
//! (§7).
//!
//! A node that first receives the message in round `t_v` transmits in every
//! later round `t` with probability
//!
//! `p_v(t) = 1 / (1 + ⌊(t − t_v − 1) / T⌋)`,
//!
//! i.e. probability 1 for its first `T` active rounds, then 1/2 for `T`
//! rounds, then 1/3, … . With `T = ⌈12 ln(n/ε)⌉`, Theorem 18 shows all
//! nodes receive the message within `2 n T H(n)` rounds with probability at
//! least `1 − ε`; `ε = n^{−Θ(1)}` gives the headline `O(n log² n)` bound
//! (Theorem 19).
//!
//! The probabilities depend only on the node's *local* round count, so the
//! algorithm runs unchanged under asynchronous start and CR4 — the paper's
//! weakest assumptions.

use dualgraph_sim::automata::{Backoff, BackoffProcess};
use dualgraph_sim::ProcessSlot;

use super::BroadcastAlgorithm;

/// Computes the paper's period parameter `T = ⌈12 ln(n/ε)⌉`.
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)` or `n == 0`.
pub fn period_for(n: usize, epsilon: f64) -> u64 {
    assert!(n > 0, "period_for requires n > 0");
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0, 1)");
    (12.0 * (n as f64 / epsilon).ln()).ceil().max(1.0) as u64
}

/// Factory for the Harmonic schedule of [`BackoffProcess`].
#[derive(Debug, Clone, Copy)]
pub struct Harmonic {
    /// The period `T` (how many rounds each probability level lasts).
    period: Option<u64>,
    /// Failure budget used when `period` is derived from `n`.
    epsilon: f64,
}

impl Harmonic {
    /// Harmonic Broadcast with `T = ⌈12 ln(n/ε)⌉`, `ε = 1/n` — the
    /// Theorem 19 high-probability setting.
    pub fn new() -> Self {
        Harmonic {
            period: None,
            epsilon: f64::NAN, // sentinel: epsilon = 1/n at build time
        }
    }

    /// Harmonic Broadcast with an explicit failure budget `ε`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0, 1)");
        Harmonic {
            period: None,
            epsilon,
        }
    }

    /// Harmonic Broadcast with an explicit period `T ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn with_period(period: u64) -> Self {
        assert!(period >= 1, "period must be at least 1");
        Harmonic {
            period: Some(period),
            epsilon: f64::NAN,
        }
    }

    /// The schedule for `n` nodes: the given period, or `T` derived from
    /// `ε`.
    fn schedule(&self, n: usize) -> Backoff {
        let period = self.period.unwrap_or_else(|| {
            let eps = if self.epsilon.is_nan() {
                1.0 / n.max(2) as f64
            } else {
                self.epsilon
            };
            period_for(n, eps)
        });
        Backoff::Harmonic { period }
    }
}

impl Default for Harmonic {
    fn default() -> Self {
        Self::new()
    }
}

impl BroadcastAlgorithm for Harmonic {
    fn name(&self) -> String {
        "harmonic".into()
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
        ActivationCause, CollisionRule, Message, PayloadId, Process, ProcessId, RandomDelivery,
        ReliableOnly, StartRule,
    };

    #[test]
    fn period_formula() {
        // T = ceil(12 ln(n/eps)).
        assert_eq!(
            period_for(16, 1.0 / 16.0),
            (12.0f64 * (256.0f64).ln()).ceil() as u64
        );
        assert!(period_for(2, 0.5) >= 1);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        period_for(4, 1.5);
    }

    #[test]
    fn probability_schedule_matches_paper() {
        let p = Harmonic::with_period(3).schedule(100);
        // T = 3: rounds 1-3 at 1, 4-6 at 1/2, 7-9 at 1/3, ...
        for j in 1..=3 {
            assert_eq!(p.probability(j), 1.0);
        }
        for j in 4..=6 {
            assert_eq!(p.probability(j), 0.5);
        }
        for j in 7..=9 {
            assert!((p.probability(j) - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!((p.probability(31) - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn probability_is_nonincreasing() {
        let p = Harmonic::with_period(5).schedule(100);
        let mut prev = f64::INFINITY;
        for j in 1..200 {
            let cur = p.probability(j);
            assert!(cur <= prev);
            prev = cur;
        }
    }

    #[test]
    fn first_period_transmits_always() {
        let mut p = BackoffProcess::new(ProcessId(1), Backoff::Harmonic { period: 4 }, 9);
        p.on_activate(ActivationCause::Reception(Message::with_payload(
            ProcessId(0),
            PayloadId(0),
        )));
        for local in 1..=4 {
            assert!(p.transmit(local).is_some(), "round {local}");
        }
    }

    #[test]
    fn uninformed_process_is_silent() {
        let mut p = BackoffProcess::new(ProcessId(1), Backoff::Harmonic { period: 4 }, 9);
        p.on_activate(ActivationCause::SynchronousStart);
        for local in 1..50 {
            assert_eq!(p.transmit(local), None);
        }
    }

    #[test]
    fn completes_line_with_high_probability_budget() {
        let n = 24;
        let net = generators::line(n, 1);
        let outcome = run(
            &net,
            Harmonic::new().slots(n, 7),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            500_000,
        );
        assert!(outcome.completed, "rounds={}", outcome.rounds_executed);
    }

    #[test]
    fn completes_dual_graph_with_random_adversary() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 32,
                reliable_p: 0.1,
                unreliable_p: 0.2,
            },
            11,
        );
        let outcome = run(
            &net,
            Harmonic::new().slots(32, 3),
            Box::new(RandomDelivery::new(0.4, 5)),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            500_000,
        );
        assert!(outcome.completed);
    }

    #[test]
    fn different_seeds_give_different_executions() {
        // Short period so the probabilities decay (and the RNG matters)
        // well before the broadcast completes.
        let net = generators::line(16, 1);
        let algo = Harmonic::with_period(2);
        let a = run(
            &net,
            algo.slots(16, 1),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            100_000,
        );
        let b = run(
            &net,
            algo.slots(16, 2),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            100_000,
        );
        assert!(a.completed && b.completed);
        assert_ne!((a.sends, a.completion_round), (b.sends, b.completion_round));
    }

    #[test]
    fn same_seed_reproduces() {
        let net = generators::line(12, 2);
        let a = run(
            &net,
            Harmonic::new().slots(12, 5),
            Box::new(RandomDelivery::new(0.5, 9)),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            200_000,
        );
        let b = run(
            &net,
            Harmonic::new().slots(12, 5),
            Box::new(RandomDelivery::new(0.5, 9)),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            200_000,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn metadata() {
        assert_eq!(Harmonic::new().name(), "harmonic");
        assert!(!Harmonic::new().is_deterministic());
        assert_eq!(
            Harmonic::with_period(5).schedule(100),
            Backoff::Harmonic { period: 5 }
        );
        assert_eq!(
            Harmonic::with_epsilon(0.1).schedule(100),
            Backoff::Harmonic {
                period: period_for(100, 0.1)
            }
        );
    }
}
