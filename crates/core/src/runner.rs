//! One-call experiment runner: algorithm × network × adversary → outcome.

use dualgraph_net::DualGraph;
use dualgraph_sim::{
    Adversary, BroadcastOutcome, BuildExecutorError, CollisionRule, Executor, ExecutorConfig,
    StartRule,
};

use crate::algorithms::BroadcastAlgorithm;

/// Configuration of one broadcast run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Collision rule in force.
    pub rule: CollisionRule,
    /// Start rule in force.
    pub start: StartRule,
    /// Hard stop: give up after this many rounds.
    pub max_rounds: u64,
    /// Master seed for randomized algorithms.
    pub seed: u64,
}

impl Default for RunConfig {
    /// The paper's upper-bound setting: CR4 + asynchronous start.
    fn default() -> Self {
        RunConfig {
            rule: CollisionRule::Cr4,
            start: StartRule::Asynchronous,
            max_rounds: 10_000_000,
            seed: 0,
        }
    }
}

impl RunConfig {
    /// The paper's lower-bound setting: CR1 + synchronous start.
    pub fn lower_bound_setting() -> Self {
        RunConfig {
            rule: CollisionRule::Cr1,
            start: StartRule::Synchronous,
            ..RunConfig::default()
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }
}

/// Runs one broadcast execution to completion (or the round budget).
///
/// Uses [`BroadcastAlgorithm::slots`], so built-in algorithms run through
/// the executor's batched enum-dispatch process table; an algorithm whose
/// slots are [`ProcessSlot::Custom`][dualgraph_sim::ProcessSlot::Custom]
/// runs on the mixed table, behind virtual dispatch.
///
/// # Errors
///
/// Propagates [`BuildExecutorError`] from executor construction.
pub fn run_broadcast(
    network: &DualGraph,
    algorithm: &dyn BroadcastAlgorithm,
    adversary: Box<dyn Adversary>,
    config: RunConfig,
) -> Result<BroadcastOutcome, BuildExecutorError> {
    let slots = algorithm.slots(network.len(), config.seed);
    let mut exec = Executor::from_slots(
        network,
        slots,
        adversary,
        ExecutorConfig {
            rule: config.rule,
            start: config.start,
            ..ExecutorConfig::default()
        },
    )?;
    Ok(exec.run_until_complete(config.max_rounds))
}

/// Runs `trials` independent executions (seeds derived from
/// `config.seed`), building a fresh adversary per trial.
///
/// # Errors
///
/// Propagates the first [`BuildExecutorError`] encountered.
pub fn run_trials(
    network: &DualGraph,
    algorithm: &dyn BroadcastAlgorithm,
    make_adversary: impl Fn(u64) -> Box<dyn Adversary>,
    config: RunConfig,
    trials: u64,
) -> Result<Vec<BroadcastOutcome>, BuildExecutorError> {
    (0..trials)
        .map(|t| {
            let seed = dualgraph_sim::rng::derive_seed(config.seed, t);
            run_broadcast(
                network,
                algorithm,
                make_adversary(seed),
                RunConfig { seed, ..config },
            )
        })
        .collect()
}

/// Parallel [`run_trials`]: distributes the trials over OS threads
/// (work-stealing via an atomic trial counter) and returns outcomes in
/// trial order, **byte-identical** to the sequential version for the same
/// master seed — every trial derives its own seed via
/// [`dualgraph_sim::rng::derive_seed`], so scheduling cannot perturb the
/// randomness.
///
/// Worker count is `min(available_parallelism, trials)`; with one worker
/// this degenerates to the sequential loop (no threads spawned). The
/// environment has no rayon, so this uses `std::thread::scope` directly.
///
/// # Errors
///
/// Propagates the [`BuildExecutorError`] of the earliest failing trial (the
/// same error [`run_trials`] would report).
pub fn run_trials_par(
    network: &DualGraph,
    algorithm: &(dyn BroadcastAlgorithm + Sync),
    make_adversary: impl Fn(u64) -> Box<dyn Adversary> + Sync,
    config: RunConfig,
    trials: u64,
) -> Result<Vec<BroadcastOutcome>, BuildExecutorError> {
    // `available_parallelism` can fail (sandboxes, exotic platforms); fall
    // back to one worker, i.e. the sequential loop.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_trials_par_with(network, algorithm, make_adversary, config, trials, workers)
}

/// [`run_trials_par`] with an explicit worker count (exposed so tests and
/// benches can exercise the parallel path on any machine).
///
/// Edge cases return cleanly rather than panicking, always byte-identical
/// to sequential [`run_trials`]: `trials == 0` yields an empty vector,
/// `workers == 0` is treated as one worker (the sequential fallback for a
/// failed parallelism probe), and `workers > trials` clamps to `trials`
/// so no idle threads are spawned.
///
/// # Errors
///
/// Propagates the [`BuildExecutorError`] of the earliest failing trial.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_trials_par_with(
    network: &DualGraph,
    algorithm: &(dyn BroadcastAlgorithm + Sync),
    make_adversary: impl Fn(u64) -> Box<dyn Adversary> + Sync,
    config: RunConfig,
    trials: u64,
    workers: usize,
) -> Result<Vec<BroadcastOutcome>, BuildExecutorError> {
    let workers = workers.clamp(1, trials.max(1) as usize);
    if workers == 1 {
        return run_trials(network, algorithm, &make_adversary, config, trials);
    }
    let mut slots: Vec<Option<Result<BroadcastOutcome, BuildExecutorError>>> =
        (0..trials).map(|_| None).collect();
    let next = std::sync::atomic::AtomicU64::new(0);
    let make_adversary = &make_adversary;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if t >= trials {
                            break;
                        }
                        let seed = dualgraph_sim::rng::derive_seed(config.seed, t);
                        let outcome = run_broadcast(
                            network,
                            algorithm,
                            make_adversary(seed),
                            RunConfig { seed, ..config },
                        );
                        local.push((t, outcome));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // analyzer: allow(panic, reason = "invariant: trial worker panicked")
            for (t, outcome) in handle.join().expect("trial worker panicked") {
                slots[t as usize] = Some(outcome);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("work queue covered every trial")) // analyzer: allow(panic, reason = "invariant: work queue covered every trial")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Harmonic, RoundRobin};
    use dualgraph_net::generators;
    use dualgraph_sim::{Adversary, RandomDelivery, ReliableOnly};

    #[test]
    fn run_broadcast_round_robin() {
        let net = generators::line(6, 1);
        let outcome = run_broadcast(
            &net,
            &RoundRobin::new(),
            Box::new(ReliableOnly::new()),
            RunConfig::lower_bound_setting(),
        )
        .unwrap();
        assert!(outcome.completed);
    }

    #[test]
    fn run_trials_derives_distinct_seeds() {
        let net = generators::line(12, 2);
        let outcomes = run_trials(
            &net,
            &Harmonic::new(),
            |seed| Box::new(RandomDelivery::new(0.5, seed)),
            RunConfig::default().with_max_rounds(100_000),
            5,
        )
        .unwrap();
        assert_eq!(outcomes.len(), 5);
        assert!(outcomes.iter().all(|o| o.completed));
        // Trials shouldn't all be byte-identical.
        assert!(outcomes.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn run_trials_par_matches_sequential_byte_for_byte() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 24,
                reliable_p: 0.1,
                unreliable_p: 0.25,
            },
            3,
        );
        let make = |seed| Box::new(RandomDelivery::new(0.5, seed)) as Box<dyn Adversary>;
        let config = RunConfig::default().with_seed(77).with_max_rounds(100_000);
        let sequential = run_trials(&net, &Harmonic::new(), make, config, 12).unwrap();
        // Force multiple workers so the parallel path runs even on 1-CPU CI.
        for workers in [2, 3, 5] {
            let parallel =
                run_trials_par_with(&net, &Harmonic::new(), make, config, 12, workers).unwrap();
            assert_eq!(sequential, parallel, "workers={workers}");
        }
        let auto = run_trials_par(&net, &Harmonic::new(), make, config, 12).unwrap();
        assert_eq!(sequential, auto);
    }

    #[test]
    fn run_trials_par_zero_trials() {
        let net = generators::line(4, 1);
        let make = |_| Box::new(ReliableOnly::new()) as Box<dyn Adversary>;
        let outcomes =
            run_trials_par(&net, &RoundRobin::new(), make, RunConfig::default(), 0).unwrap();
        assert!(outcomes.is_empty());
        // Explicit worker counts with zero trials must also return cleanly.
        for workers in [0, 1, 5] {
            let outcomes = run_trials_par_with(
                &net,
                &RoundRobin::new(),
                make,
                RunConfig::default(),
                0,
                workers,
            )
            .unwrap();
            assert!(outcomes.is_empty(), "workers={workers}");
        }
    }

    #[test]
    fn run_trials_par_zero_workers_degenerates_to_sequential() {
        // workers == 0 models a failed available_parallelism() probe being
        // forwarded verbatim; it must behave exactly like one worker.
        let net = generators::line(10, 2);
        let make = |seed| Box::new(RandomDelivery::new(0.5, seed)) as Box<dyn Adversary>;
        let config = RunConfig::default().with_seed(3).with_max_rounds(100_000);
        let sequential = run_trials(&net, &Harmonic::new(), make, config, 4).unwrap();
        let zero = run_trials_par_with(&net, &Harmonic::new(), make, config, 4, 0).unwrap();
        assert_eq!(sequential, zero);
    }

    #[test]
    fn run_trials_par_more_workers_than_trials() {
        // workers > trials clamps to `trials` workers and stays
        // byte-identical to the sequential runner.
        let net = generators::line(10, 2);
        let make = |seed| Box::new(RandomDelivery::new(0.5, seed)) as Box<dyn Adversary>;
        let config = RunConfig::default().with_seed(11).with_max_rounds(100_000);
        let sequential = run_trials(&net, &Harmonic::new(), make, config, 3).unwrap();
        for workers in [4, 64] {
            let parallel =
                run_trials_par_with(&net, &Harmonic::new(), make, config, 3, workers).unwrap();
            assert_eq!(sequential, parallel, "workers={workers}");
        }
    }

    #[test]
    fn run_trials_par_propagates_errors() {
        // An algorithm whose process count disagrees with the network.
        struct Broken;
        impl crate::algorithms::BroadcastAlgorithm for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn is_deterministic(&self) -> bool {
                true
            }
            fn slots(&self, _n: usize, _seed: u64) -> Vec<dualgraph_sim::ProcessSlot> {
                Vec::new()
            }
        }
        let net = generators::line(4, 1);
        let make = |_| Box::new(ReliableOnly::new()) as Box<dyn Adversary>;
        let err = run_trials_par_with(&net, &Broken, make, RunConfig::default(), 4, 2).unwrap_err();
        assert!(matches!(
            err,
            dualgraph_sim::BuildExecutorError::ProcessCountMismatch { .. }
        ));
    }

    #[test]
    fn config_builders() {
        let c = RunConfig::default().with_seed(9).with_max_rounds(10);
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_rounds, 10);
        let lb = RunConfig::lower_bound_setting();
        assert_eq!(lb.rule, CollisionRule::Cr1);
        assert_eq!(lb.start, StartRule::Synchronous);
    }
}
