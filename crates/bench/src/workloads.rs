//! Shared workloads: topology and adversary menus used by the experiment
//! tables.

use dualgraph_broadcast::algorithms::{
    BroadcastAlgorithm, Decay, Harmonic, RoundRobin, StrongSelect, Uniform,
};
use dualgraph_net::{generators, DualGraph};
use dualgraph_sim::{
    Adversary, BurstyDelivery, CollisionSeeker, FullDelivery, RandomDelivery, ReliableOnly,
};

/// Experiment scale: `Quick` for CI/benches, `Full` for the paper tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes, few trials (seconds).
    Quick,
    /// The sizes used in EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    /// The network-size sweep for round-complexity experiments.
    ///
    /// `Full` now reaches `n = 1025`: the CSR + zero-alloc engine plus the
    /// parallel trial runner keep the sweep tractable at that size.
    pub fn sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![17, 33, 65],
            Scale::Full => vec![17, 33, 65, 129, 257, 1025],
        }
    }

    /// Sizes for the (expensive) Theorem 12 construction.
    pub fn thm12_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![17, 33],
            Scale::Full => vec![17, 33, 65, 129],
        }
    }

    /// Monte-Carlo trials per configuration.
    pub fn trials(self) -> u64 {
        match self {
            Scale::Quick => 5,
            Scale::Full => 20,
        }
    }
}

/// A named topology constructor (odd sizes expected by some gadgets).
pub type TopologyFn = fn(usize) -> DualGraph;

/// The topology menu for upper-bound experiments.
pub fn topologies() -> Vec<(&'static str, TopologyFn)> {
    vec![
        ("clique-bridge", |n| generators::clique_bridge(n).network),
        ("layered-pairs", |n| {
            generators::layered_pairs(if n % 2 == 0 { n + 1 } else { n })
        }),
        ("line+chords", |n| generators::line(n, 4)),
        ("er-dual", |n| {
            generators::er_dual(
                generators::ErDualParams {
                    n,
                    reliable_p: 2.0 / n as f64,
                    unreliable_p: 8.0 / n as f64,
                },
                0xD00D,
            )
        }),
    ]
}

/// A named adversary factory (seeded per trial).
pub type AdversaryFn = fn(u64) -> Box<dyn Adversary>;

/// The adversary menu.
pub fn adversaries() -> Vec<(&'static str, AdversaryFn)> {
    vec![
        ("reliable-only", |_| Box::new(ReliableOnly::new())),
        ("full-delivery", |_| Box::new(FullDelivery::new())),
        ("random(0.5)", |s| Box::new(RandomDelivery::new(0.5, s))),
        ("bursty", |s| Box::new(BurstyDelivery::new(0.2, 0.2, s))),
        ("collision-seeker", |_| Box::new(CollisionSeeker::new())),
    ]
}

/// The algorithm menu (all five).
pub fn algorithms() -> Vec<Box<dyn BroadcastAlgorithm>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(StrongSelect::new()),
        Box::new(Harmonic::new()),
        Box::new(Decay::new()),
        Box::new(Uniform::new(0.1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn menus_are_nonempty_and_valid() {
        assert!(Scale::Quick.sizes().len() >= 2);
        assert!(Scale::Full.sizes().len() > Scale::Quick.sizes().len());
        for (name, make) in topologies() {
            let net = make(17);
            assert!(net.len() >= 17, "{name}");
        }
        assert_eq!(algorithms().len(), 5);
        assert_eq!(adversaries().len(), 5);
    }
}
