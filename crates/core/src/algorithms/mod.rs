//! Broadcast algorithms for the dual graph model.
//!
//! Each algorithm is a factory ([`BroadcastAlgorithm`]) producing one
//! [`Process`][dualgraph_sim::Process] per identifier, as a
//! [`ProcessSlot`]. The paper's two contributions are
//! [`StrongSelect`] (§5, deterministic, `O(n^{3/2}√log n)`) and
//! [`Harmonic`] (§7, randomized, `O(n log² n)` w.h.p.); [`RoundRobin`],
//! [`Decay`] and [`Uniform`] are the classical baselines the paper compares
//! against.

mod decay;
mod harmonic;
mod round_robin;
mod strong_select;
mod uniform;

pub use decay::Decay;
pub use harmonic::{period_for, Harmonic};
pub use round_robin::{RoundRobin, RoundRobinProcess};
pub use strong_select::{
    Participation, SsfConstruction, StrongSelect, StrongSelectPlan, StrongSelectProcess,
};
pub use uniform::Uniform;

use dualgraph_sim::ProcessSlot;

/// A broadcast algorithm: a recipe for the `n` process automata.
///
/// `seed` feeds randomized algorithms (derive per-process seeds with
/// [`dualgraph_sim::rng::derive_seed`]); deterministic algorithms ignore it
/// and must report [`BroadcastAlgorithm::is_deterministic`] = `true` — the
/// Theorem 12 lower-bound constructor relies on that flag.
pub trait BroadcastAlgorithm {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// `true` when every process is a deterministic automaton.
    fn is_deterministic(&self) -> bool;

    /// Builds the process vector as slots, ids `0..n` in order.
    ///
    /// Built-in algorithms return their inline variant, which the
    /// executor's batched process table dispatches once per round. An
    /// algorithm whose automaton is defined outside `dualgraph-sim`
    /// returns each process boxed in [`ProcessSlot::Custom`].
    fn slots(&self, n: usize, seed: u64) -> Vec<ProcessSlot>;
}

impl std::fmt::Debug for dyn BroadcastAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BroadcastAlgorithm({})", self.name())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use dualgraph_net::DualGraph;
    use dualgraph_sim::{
        Adversary, BroadcastOutcome, CollisionRule, Executor, ExecutorConfig, ProcessSlot,
        StartRule,
    };

    /// Runs `slots` on `net` against `adversary` and returns the outcome.
    pub(crate) fn run(
        net: &DualGraph,
        slots: Vec<ProcessSlot>,
        adversary: Box<dyn Adversary>,
        rule: CollisionRule,
        start: StartRule,
        max_rounds: u64,
    ) -> BroadcastOutcome {
        let mut exec = Executor::from_slots(
            net,
            slots,
            adversary,
            ExecutorConfig {
                rule,
                start,
                ..ExecutorConfig::default()
            },
        )
        .expect("test executor construction");
        exec.run_until_complete(max_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualgraph_net::{generators, NodeId, TopologySchedule};
    use dualgraph_sim::{
        CollisionRule, DynamicExecutor, ExecutorConfig, FaultPlan, PayloadId, PayloadSet,
        ReliableOnly, StartRule,
    };

    /// Two rounds of spam must not stop a randomized broadcast for good.
    /// On `line(4, 1)` node 3 spams {7} in rounds 1–2 and then recovers,
    /// so node 2 hears the junk id before payload 0 reaches it. A node
    /// that locked onto the first id it heard would relay only {7} from
    /// then on, and node 3 would never learn payload 0.
    #[test]
    fn randomized_broadcasts_outlive_two_rounds_of_spam() {
        let schedule = TopologySchedule::single(generators::line(4, 1));
        let plan = FaultPlan::none()
            .spam(NodeId(3), 1, PayloadSet::only(PayloadId(7)))
            .recover(NodeId(3), 3);
        let config = ExecutorConfig {
            rule: CollisionRule::Cr4,
            start: StartRule::Asynchronous,
            ..ExecutorConfig::default()
        };
        let algorithms: [&dyn BroadcastAlgorithm; 3] =
            [&Harmonic::with_period(2), &Decay::new(), &Uniform::new(0.5)];
        let stalled: Vec<String> = algorithms
            .into_iter()
            .filter_map(|algorithm| {
                let mut exec = DynamicExecutor::from_slots(
                    &schedule,
                    algorithm.slots(4, 11),
                    Box::new(ReliableOnly::new()),
                    config,
                    plan.clone(),
                )
                .expect("line schedule");
                let outcome = exec.run_until_complete(20_000);
                (!outcome.completed).then(|| {
                    format!(
                        "{}: known records {:?}",
                        algorithm.name(),
                        exec.executor().known_payloads()
                    )
                })
            })
            .collect();
        assert!(
            stalled.is_empty(),
            "stalled after 20,000 rounds: {stalled:#?}"
        );
    }
}
