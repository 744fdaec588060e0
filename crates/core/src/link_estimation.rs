//! Link-quality estimation — the practice that motivates the model, and
//! the paper's future work (§8: "improve long-term efficiency by learning
//! the topology of the graph").
//!
//! §1 observes that "virtually every ad hoc radio network deployment of
//! the last five years uses link quality assessment algorithms, such as
//! ETX, to cull unreliable connections". This module closes that loop on
//! top of the simulator: nodes probe the medium at a low rate, per-link
//! delivery ratios are tallied from the execution trace, and links are
//! classified reliable/unreliable by a ratio threshold. Against the ground
//! truth (`G` vs `G′ ∖ G`) this yields precision/recall, and an
//! ETX-style metric (expected transmissions ≈ `1/ratio`).

use std::collections::BTreeMap;

use dualgraph_net::{Csr, Digraph, DualGraph, NodeId};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    ActivationCause, Adversary, Executor, ExecutorConfig, Message, Process, ProcessId, Reception,
    TraceEvent,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A process that transmits probes with probability `p` every round,
/// informed or not (probing is protocol traffic, not payload).
#[derive(Debug, Clone)]
pub struct ProbeProcess {
    id: ProcessId,
    p: f64,
    rng: SmallRng,
    informed: bool,
}

impl ProbeProcess {
    /// Creates a prober with per-round probe probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1]`.
    pub fn new(id: ProcessId, p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probe probability must lie in (0, 1]");
        ProbeProcess {
            id,
            p,
            rng: SmallRng::seed_from_u64(seed),
            informed: false,
        }
    }
}

impl Process for ProbeProcess {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        if cause.message().is_some_and(|m| m.carries_payload()) {
            self.informed = true;
        }
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        self.rng.gen_bool(self.p).then(|| Message::signal(self.id))
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        if reception.message().is_some_and(|m| m.carries_payload()) {
            self.informed = true;
        }
    }

    fn has_payload(&self) -> bool {
        self.informed
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// Per-directed-link probe statistics.
#[derive(Debug, Clone, Default)]
pub struct LinkObservations {
    /// `(u, v) → (times u transmitted, times v received u's message)`.
    counts: BTreeMap<(NodeId, NodeId), (u64, u64)>,
}

impl LinkObservations {
    /// Tallies a recorded event stream (identity `proc` assignment
    /// assumed: the probe driver below uses it).
    ///
    /// Every `Transmit` of `u` counts one attempt on each `G′` out-link
    /// `(u, v)`; a delivery is counted when `v`'s `Reception` that round is
    /// `u`'s message. Collisions mask deliveries, exactly as they do for
    /// real ETX probes.
    pub fn from_events(network: &DualGraph, events: &[TraceEvent]) -> Self {
        let mut counts: BTreeMap<(NodeId, NodeId), (u64, u64)> = BTreeMap::new();
        for round in events.chunk_by(|a, b| a.round() == b.round()) {
            // Who heard which sender this round, in ascending node order.
            let heard: Vec<(NodeId, ProcessId)> = round
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Reception { node, message, .. } => Some((node, message.sender)),
                    _ => None,
                })
                .collect();
            for event in round {
                if let TraceEvent::Transmit {
                    node: u, message, ..
                } = *event
                {
                    let reliable = network.reliable_csr().row(u);
                    for &v in reliable.iter().chain(network.unreliable_only_out(u)) {
                        let entry = counts.entry((u, v)).or_insert((0, 0));
                        entry.0 += 1;
                        if heard.binary_search(&(v, message.sender)).is_ok() {
                            entry.1 += 1;
                        }
                    }
                }
            }
        }
        LinkObservations { counts }
    }

    /// The observed delivery ratio of `(u, v)`, if any probe crossed it.
    pub fn delivery_ratio(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.counts
            .get(&(u, v))
            .filter(|(a, _)| *a > 0)
            .map(|&(a, d)| d as f64 / a as f64)
    }

    /// ETX of `(u, v)`: expected transmissions per delivery, `1/ratio`
    /// (∞ encoded as `None` when nothing ever got through).
    pub fn etx(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let r = self.delivery_ratio(u, v)?;
        (r > 0.0).then(|| 1.0 / r)
    }

    /// Number of links with at least one probe.
    pub fn observed_links(&self) -> usize {
        self.counts.values().filter(|(a, _)| *a > 0).count()
    }

    /// Classifies links: keep those with `≥ min_samples` probes and a
    /// delivery ratio `≥ threshold` — the ETX-style culling step.
    pub fn classify(&self, n: usize, threshold: f64, min_samples: u64) -> Digraph {
        let mut g = Digraph::new(n);
        for (&(u, v), &(attempts, delivered)) in &self.counts {
            if attempts >= min_samples && delivered as f64 / attempts as f64 >= threshold {
                g.add_edge(u, v);
            }
        }
        g
    }
}

/// Precision/recall of a classified reliable-link set against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Classified edges that really are reliable.
    pub true_positives: usize,
    /// Classified edges that are actually unreliable (gray-zone links that
    /// happened to behave).
    pub false_positives: usize,
    /// Reliable edges the classifier missed.
    pub false_negatives: usize,
}

impl PrecisionRecall {
    /// Compares `classified` against the true reliable graph.
    pub fn score(truth: &Csr, classified: &Digraph) -> Self {
        let tp = classified
            .edges()
            .filter(|&(u, v)| truth.contains(u, v))
            .count();
        PrecisionRecall {
            true_positives: tp,
            false_positives: classified.edge_count() - tp,
            false_negatives: truth.edge_count() - tp,
        }
    }

    /// `tp / (tp + fp)`; 1 when nothing was classified.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `tp / (tp + fn)`; 1 when there was nothing to find.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// Configuration for [`estimate_links`].
#[derive(Debug, Clone, Copy)]
pub struct EstimationConfig {
    /// Per-round probe probability (keep low: collisions mask probes).
    pub probe_probability: f64,
    /// Probing rounds to run.
    pub rounds: u64,
    /// Delivery-ratio threshold for "reliable".
    pub threshold: f64,
    /// Minimum probes per link before classifying it.
    pub min_samples: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for EstimationConfig {
    fn default() -> Self {
        EstimationConfig {
            probe_probability: 0.05,
            rounds: 4_000,
            threshold: 0.75,
            min_samples: 5,
            seed: 0,
        }
    }
}

/// Runs a probing phase on `network` under `adversary` and scores the
/// inferred reliable-link set against the true `G`.
///
/// # Panics
///
/// Panics if the executor cannot be built (internal invariant).
pub fn estimate_links(
    network: &DualGraph,
    adversary: Box<dyn Adversary>,
    config: EstimationConfig,
) -> (LinkObservations, PrecisionRecall) {
    let n = network.len();
    let processes: Vec<Box<dyn Process>> = (0..n)
        .map(|i| {
            Box::new(ProbeProcess::new(
                ProcessId::from_index(i),
                config.probe_probability,
                derive_seed(config.seed, i as u64),
            )) as Box<dyn Process>
        })
        .collect();
    let mut exec = Executor::new(
        network,
        processes,
        adversary,
        ExecutorConfig {
            start: dualgraph_sim::StartRule::Synchronous,
            ..ExecutorConfig::default()
        },
    )
    .expect("probe executor construction"); // analyzer: allow(panic, reason = "invariant: probe executor construction")
    let mut events: Vec<TraceEvent> = Vec::new();
    for _ in 0..config.rounds {
        exec.step_traced(&mut events);
    }
    let obs = LinkObservations::from_events(network, &events);
    let classified = obs.classify(n, config.threshold, config.min_samples);
    let pr = PrecisionRecall::score(network.reliable_csr(), &classified);
    (obs, pr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualgraph_net::generators;
    use dualgraph_sim::{RandomDelivery, ReliableOnly};

    #[test]
    fn reliable_links_score_perfectly_without_noise() {
        let net = generators::line(8, 3);
        let (obs, pr) = estimate_links(
            &net,
            Box::new(ReliableOnly::new()),
            EstimationConfig {
                rounds: 3_000,
                ..Default::default()
            },
        );
        // ReliableOnly: gray links never deliver -> ratio 0; reliable links
        // deliver unless collided.
        assert!(pr.precision() > 0.99, "precision={}", pr.precision());
        assert!(pr.recall() > 0.9, "recall={}", pr.recall());
        assert!(obs.observed_links() > 0);
    }

    #[test]
    fn flaky_links_are_culled_at_threshold() {
        let net = generators::line(10, 4);
        let (obs, pr) = estimate_links(
            &net,
            // Gray links deliver 30% of the time: below the 0.75 threshold.
            Box::new(RandomDelivery::new(0.3, 7)),
            EstimationConfig {
                rounds: 5_000,
                ..Default::default()
            },
        );
        assert!(pr.precision() > 0.9, "precision={}", pr.precision());
        assert!(pr.recall() > 0.9, "recall={}", pr.recall());
        // Some gray link must have been observed delivering at least once.
        let gray_seen = net.nodes().any(|u| {
            net.unreliable_only_out(u)
                .iter()
                .any(|&v| obs.delivery_ratio(u, v).is_some_and(|r| r > 0.0))
        });
        assert!(gray_seen, "adversary at p=0.3 should deliver sometimes");
    }

    #[test]
    fn etx_is_inverse_ratio() {
        let mut obs = LinkObservations::default();
        obs.counts.insert((NodeId(0), NodeId(1)), (10, 5));
        obs.counts.insert((NodeId(0), NodeId(2)), (10, 0));
        assert_eq!(obs.delivery_ratio(NodeId(0), NodeId(1)), Some(0.5));
        assert_eq!(obs.etx(NodeId(0), NodeId(1)), Some(2.0));
        assert_eq!(obs.etx(NodeId(0), NodeId(2)), None);
        assert_eq!(obs.delivery_ratio(NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn precision_recall_edge_cases() {
        let empty = Digraph::new(3);
        let pr = PrecisionRecall::score(&Csr::from_digraph(&empty), &empty);
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);

        let mut truth = Digraph::new(3);
        truth.add_edge(NodeId(0), NodeId(1));
        let truth = Csr::from_digraph(&truth);
        let pr = PrecisionRecall::score(&truth, &empty);
        assert_eq!(pr.recall(), 0.0);
        assert_eq!(pr.precision(), 1.0);

        let mut wrong = Digraph::new(3);
        wrong.add_edge(NodeId(1), NodeId(2));
        let pr = PrecisionRecall::score(&truth, &wrong);
        assert_eq!(pr.precision(), 0.0);
        assert_eq!(pr.false_positives, 1);
        assert_eq!(pr.false_negatives, 1);
    }

    #[test]
    fn classify_respects_min_samples() {
        let mut obs = LinkObservations::default();
        obs.counts.insert((NodeId(0), NodeId(1)), (2, 2)); // too few probes
        obs.counts.insert((NodeId(1), NodeId(2)), (20, 20));
        let g = obs.classify(3, 0.75, 5);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "probe probability")]
    fn probe_rejects_bad_probability() {
        ProbeProcess::new(ProcessId(0), 0.0, 1);
    }
}
