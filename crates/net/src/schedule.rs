//! Topology schedules: epoch-evolving dual graphs.
//!
//! The base model freezes one `(G, G′)` for a whole execution, but the
//! paper's own motivation — doors opening, interference bursts, mobile
//! nodes — is a network whose link structure *drifts over time*. A
//! [`TopologySchedule`] captures that as a sequence of **epochs**: each
//! epoch is a frozen, validated [`DualGraph`] snapshot covering a span of
//! rounds. The simulator swaps the active CSR at epoch boundaries and
//! keeps every other piece of round state (processes, informed sets,
//! scratch buffers) untouched, so the round path stays zero-alloc.
//!
//! Invariants enforced at construction:
//!
//! * at least one epoch, every span at least one round;
//! * every epoch has the same node count (processes are placed once);
//! * every epoch has the same designated source (the pre-round-1 seeding
//!   happened on epoch 0 and cannot be re-done).
//!
//! Each epoch's `DualGraph` is individually validated as usual, so the
//! reliable graph of *every* epoch is source-connected — a schedule can
//! degrade connectivity only down to its weakest reliable spine, never
//! below it.
//!
//! After the last epoch's span is exhausted the last epoch persists
//! (schedules tail-extend); runners that want periodic churn can instead
//! cycle the schedule (see the simulator's dynamics runner).
//!
//! Schedule *generators* (edge churn, gray-zone fading, disk-model
//! mobility) live in [`generators`][crate::generators].

use std::fmt;

use crate::dual::DualGraph;
use crate::node::NodeId;

/// One frozen topology snapshot plus the number of rounds it covers.
#[derive(Debug, Clone)]
pub struct Epoch {
    network: DualGraph,
    rounds: u64,
}

impl Epoch {
    /// Creates an epoch covering `rounds ≥ 1` rounds.
    pub fn new(network: DualGraph, rounds: u64) -> Self {
        Epoch { network, rounds }
    }

    /// The epoch's frozen network.
    pub fn network(&self) -> &DualGraph {
        &self.network
    }

    /// The epoch's span in rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// Error constructing a [`TopologySchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildScheduleError {
    /// The schedule has no epochs.
    Empty,
    /// An epoch's span is zero rounds.
    EmptyEpoch {
        /// Index of the offending epoch.
        epoch: usize,
    },
    /// An epoch's node count differs from epoch 0's.
    NodeCountMismatch {
        /// Index of the offending epoch.
        epoch: usize,
        /// Node count of epoch 0.
        expected: usize,
        /// Node count of the offending epoch.
        got: usize,
    },
    /// An epoch's source differs from epoch 0's.
    SourceMismatch {
        /// Index of the offending epoch.
        epoch: usize,
    },
}

impl fmt::Display for BuildScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildScheduleError::Empty => write!(f, "a topology schedule needs at least one epoch"),
            BuildScheduleError::EmptyEpoch { epoch } => {
                write!(f, "epoch {epoch} covers zero rounds")
            }
            BuildScheduleError::NodeCountMismatch {
                epoch,
                expected,
                got,
            } => write!(
                f,
                "epoch {epoch} has {got} nodes but epoch 0 has {expected} (the node set is fixed)"
            ),
            BuildScheduleError::SourceMismatch { epoch } => write!(
                f,
                "epoch {epoch} designates a different source than epoch 0"
            ),
        }
    }
}

impl std::error::Error for BuildScheduleError {}

/// A sequence of epochs: the dual graph as a function of the round
/// number (see the module docs).
#[derive(Debug, Clone)]
pub struct TopologySchedule {
    epochs: Vec<Epoch>,
    /// `starts[i]` = number of rounds covered by epochs `0..i`; epoch `i`
    /// covers 1-based rounds `starts[i] + 1 ..= starts[i] + rounds_i`.
    starts: Vec<u64>,
    total_rounds: u64,
}

impl TopologySchedule {
    /// Validates and builds a schedule from epochs.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildScheduleError`] on an empty schedule, a zero-round
    /// epoch, or an epoch whose node count or source differs from epoch 0.
    ///
    /// Construction also assigns **stable unreliable-edge identities**
    /// across the epochs: every distinct directed `G′ ∖ G` pair `(u, v)`
    /// appearing anywhere in the schedule gets one identity (first
    /// appearance order: epoch by epoch, flat CSR order within an epoch),
    /// and every epoch's network carries the flat-index → identity map
    /// (see [`DualGraph::unreliable_edge_ids`]). Stateful per-edge
    /// adversaries key their chains by these identities, so chain state
    /// follows the *edge*, not the CSR slot, across churn/fading/mobility
    /// rewires. A single-epoch schedule's map is the identity permutation,
    /// so static runs are unaffected.
    pub fn new(mut epochs: Vec<Epoch>) -> Result<Self, BuildScheduleError> {
        let first = epochs.first().ok_or(BuildScheduleError::Empty)?;
        let (n, source) = (first.network.len(), first.network.source());
        let mut starts = Vec::with_capacity(epochs.len());
        let mut acc = 0u64;
        for (i, e) in epochs.iter().enumerate() {
            if e.rounds == 0 {
                return Err(BuildScheduleError::EmptyEpoch { epoch: i });
            }
            if e.network.len() != n {
                return Err(BuildScheduleError::NodeCountMismatch {
                    epoch: i,
                    expected: n,
                    got: e.network.len(),
                });
            }
            if e.network.source() != source {
                return Err(BuildScheduleError::SourceMismatch { epoch: i });
            }
            starts.push(acc);
            acc = acc.saturating_add(e.rounds);
        }
        // Stable edge identities: one id per distinct directed G' \ G pair
        // across the schedule, in first-appearance order. The registry
        // keeps one row per source node, sorted by target, so a lookup or
        // an insert touches only that node's row, and nothing here depends
        // on hasher state.
        let mut registry: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n];
        let mut universe = 0u32;
        let per_epoch_ids: Vec<Vec<u32>> = epochs
            .iter()
            .map(|e| {
                let csr = e.network.unreliable_only_csr();
                let mut ids = Vec::with_capacity(csr.edge_count());
                ids.extend(csr.edges().map(|(u, v)| {
                    let row = &mut registry[u.index()];
                    match row.binary_search_by_key(&v, |known| known.0) {
                        Ok(i) => row[i].1,
                        Err(i) => {
                            let id = universe;
                            universe += 1;
                            row.insert(i, (v, id));
                            id
                        }
                    }
                }));
                ids
            })
            .collect();
        for (e, ids) in epochs.iter_mut().zip(per_epoch_ids) {
            e.network.set_unreliable_edge_ids(ids, universe as usize);
        }
        Ok(TopologySchedule {
            epochs,
            starts,
            total_rounds: acc,
        })
    }

    /// The static (single-epoch) schedule: `network` forever. A run on it
    /// is round-for-round identical to a run on the plain network.
    pub fn single(network: DualGraph) -> Self {
        TopologySchedule::new(vec![Epoch::new(network, u64::MAX)])
            .expect("a single nonempty epoch is always valid") // analyzer: allow(panic, reason = "invariant: a single nonempty epoch is always valid")
    }

    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// `true` for a schedule with no epochs (never true for a validated
    /// schedule).
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Number of nodes (shared by every epoch).
    pub fn node_count(&self) -> usize {
        self.epochs[0].network.len()
    }

    /// The epochs, in order.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// The epoch at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn epoch(&self, index: usize) -> &Epoch {
        &self.epochs[index]
    }

    /// Sum of all epoch spans.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Size of the stable unreliable-edge identity universe shared by
    /// every epoch (the number of distinct directed `G′ ∖ G` pairs across
    /// the whole schedule; see [`TopologySchedule::new`]).
    pub fn unreliable_edge_universe(&self) -> usize {
        self.epochs[0].network.unreliable_edge_universe()
    }

    /// Index of the epoch in force at 1-based round `round` (round 0, the
    /// pre-round-1 state, maps to epoch 0). After the last epoch's span is
    /// exhausted the last epoch persists.
    pub fn epoch_index_at(&self, round: u64) -> usize {
        if round == 0 {
            return 0;
        }
        // starts[i] < round <=> epoch i started before `round`.
        match self.starts.binary_search(&(round - 1)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Like [`TopologySchedule::epoch_index_at`], but the schedule repeats
    /// from epoch 0 after its total span instead of tail-extending —
    /// steady-state churn for long runs.
    pub fn epoch_index_cycling(&self, round: u64) -> usize {
        if round == 0 || self.total_rounds == u64::MAX {
            return self.epoch_index_at(round);
        }
        self.epoch_index_at((round - 1) % self.total_rounds + 1)
    }

    /// The network in force at 1-based round `round` (tail-extending).
    pub fn network_at(&self, round: u64) -> &DualGraph {
        self.epochs[self.epoch_index_at(round)].network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Digraph;

    #[test]
    fn single_schedule_is_one_long_epoch() {
        let s = TopologySchedule::single(generators::line(4, 1));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.epoch_index_at(0), 0);
        assert_eq!(s.epoch_index_at(1_000_000), 0);
        assert_eq!(s.epoch_index_cycling(1_000_000), 0);
    }

    #[test]
    fn epoch_boundaries_are_half_open() {
        let s = TopologySchedule::new(vec![
            Epoch::new(generators::line(4, 1), 3),
            Epoch::new(generators::line(4, 2), 2),
            Epoch::new(generators::line(4, 3), 5),
        ])
        .unwrap();
        assert_eq!(s.total_rounds(), 10);
        // Epoch 0: rounds 1-3; epoch 1: rounds 4-5; epoch 2: rounds 6-10.
        let expect = [0usize, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2];
        for (round, &e) in expect.iter().enumerate() {
            assert_eq!(s.epoch_index_at(round as u64), e, "round {round}");
        }
        // Tail extension vs cycling after round 10.
        assert_eq!(s.epoch_index_at(11), 2);
        assert_eq!(s.epoch_index_cycling(11), 0, "round 11 wraps to round 1");
        assert_eq!(s.epoch_index_cycling(14), 1);
        assert_eq!(s.epoch_index_cycling(20), 2);
        assert_eq!(s.network_at(4), s.epoch(1).network());
    }

    #[test]
    fn stable_edge_ids_follow_identity_across_epochs() {
        // Epoch A: path 0-1-2-3 with gray chords (0,2) and (1,3).
        // Epoch B: same path with gray chords (0,2) and (0,3): the (0,2)
        // pair survives and must keep its identities; (0,3) is fresh.
        let path = |extra: &[(u32, u32)]| {
            let mut g = Digraph::new(4);
            for i in 0..3u32 {
                g.add_undirected_edge(NodeId(i), NodeId(i + 1));
            }
            let mut total = g.clone();
            for &(u, v) in extra {
                total.add_undirected_edge(NodeId(u), NodeId(v));
            }
            crate::DualGraph::new(g, total, NodeId(0)).unwrap()
        };
        let a = path(&[(0, 2), (1, 3)]);
        let b = path(&[(0, 2), (0, 3)]);
        let s = TopologySchedule::new(vec![Epoch::new(a, 2), Epoch::new(b, 2)]).unwrap();
        // Epoch A flat order: (0,2) (1,3) (2,0) (3,1) -> fresh ids 0..4.
        assert_eq!(
            s.epoch(0).network().unreliable_edge_ids(),
            Some(&[0u32, 1, 2, 3][..])
        );
        // Epoch B flat order: (0,2) (0,3) (2,0) (3,0): survivors keep their
        // ids, the two fresh directed edges take 4 and 5.
        assert_eq!(
            s.epoch(1).network().unreliable_edge_ids(),
            Some(&[0u32, 4, 2, 5][..])
        );
        assert_eq!(s.unreliable_edge_universe(), 6);
        for e in s.epochs() {
            assert_eq!(e.network().unreliable_edge_universe(), 6);
        }
        // The single-epoch map is the identity permutation over the flat
        // indices, so static runs key exactly as before.
        let single = TopologySchedule::single(path(&[(0, 2), (1, 3)]));
        assert_eq!(
            single.epoch(0).network().unreliable_edge_ids(),
            Some(&[0u32, 1, 2, 3][..])
        );
        assert_eq!(single.unreliable_edge_universe(), 4);
        // Identity maps are metadata: the epoch still compares equal to
        // the raw graph it was built from.
        assert_eq!(s.epoch(0).network(), &path(&[(0, 2), (1, 3)]));
    }

    #[test]
    fn rejects_empty_and_zero_span() {
        assert_eq!(
            TopologySchedule::new(Vec::new()).unwrap_err(),
            BuildScheduleError::Empty
        );
        let err = TopologySchedule::new(vec![
            Epoch::new(generators::line(3, 1), 1),
            Epoch::new(generators::line(3, 1), 0),
        ])
        .unwrap_err();
        assert_eq!(err, BuildScheduleError::EmptyEpoch { epoch: 1 });
        assert!(err.to_string().contains("zero rounds"));
    }

    #[test]
    fn rejects_node_count_and_source_mismatch() {
        let err = TopologySchedule::new(vec![
            Epoch::new(generators::line(3, 1), 1),
            Epoch::new(generators::line(4, 1), 1),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            BuildScheduleError::NodeCountMismatch {
                epoch: 1,
                expected: 3,
                got: 4
            }
        ));

        let mut g = Digraph::new(3);
        g.add_undirected_edge(NodeId(0), NodeId(1));
        g.add_undirected_edge(NodeId(1), NodeId(2));
        let other_source = DualGraph::classical(g, NodeId(1)).unwrap();
        let err = TopologySchedule::new(vec![
            Epoch::new(generators::line(3, 1), 1),
            Epoch::new(other_source, 1),
        ])
        .unwrap_err();
        assert_eq!(err, BuildScheduleError::SourceMismatch { epoch: 1 });
        assert!(err.to_string().contains("source"));
    }
}
