//! Pipelined multi-message stream workloads — the §8 "repeated broadcast"
//! future work, run as one execution instead of `R` restarts.
//!
//! A *stream* is a plan of payload **arrivals** (`k` payloads, handed by
//! the environment to source nodes at planned rounds) pushed through a
//! pipelined automaton population ([`PipelinedFlooder`], or the
//! [`BackoffProcess`] on a Harmonic schedule), driven through the abstract MAC layer
//! ([`MacLayer`]) so every delivery and acknowledgment is observable as an
//! event. The runner collects per-payload latency, stream throughput in
//! payloads/round, and the MAC layer's measured progress/ack bounds.
//!
//! Model caveat that shapes the defaults: under CR2–CR4 a transmitting
//! node hears only itself, so the always-transmit [`PipelinedFlooder`]
//! can pipeline a stream from **one** source (the wavefront carries the
//! union outward) but cannot mix flows from multiple sources — opposing
//! waves meet and stall. Multi-source plans therefore default to
//! pipelined Harmonic, whose probabilistic silence gives every node
//! listening rounds. `examples/multi_message.rs` demonstrates both
//! regimes.
//!
//! [`MacLayer`]: dualgraph_sim::MacLayer

use dualgraph_net::{DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::automata::{Backoff, BackoffProcess, PipelinedFlooder};
use dualgraph_sim::rng::derive_seed2;
use dualgraph_sim::{
    AckRecord, Adversary, BuildExecutorError, CollisionRule, DynamicsCursor, Executor,
    ExecutorConfig, FaultPlan, HealthConfig, Histogram, HistogramSummary, MacEvent, MacLayer,
    MacStats, NullSink, PayloadId, PayloadSet, ProcessId, ProcessSlot, QuorumProcess, QuorumStage,
    ReliabilityBackend, ReliabilityEntry, ReliabilityStats, ReliableBroadcast, StartRule,
    StreamHealthReport, TraceEvent, TraceSink, WindowedStats, MAX_PAYLOADS,
};

use crate::algorithms::period_for;

/// How stream payloads arrive over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// All `k` payloads are available before round 1 (a full send queue).
    Batch,
    /// Independent geometric interarrival gaps with the given mean (the
    /// discrete-time Poisson process), seeded from the stream seed.
    Poisson {
        /// Mean rounds between consecutive arrivals (≥ 1).
        mean_gap: f64,
    },
}

/// Where stream payloads originate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePlacement {
    /// Every payload arrives at the network source: the single-producer
    /// stream (the regime where pipelined *flooding* shines).
    Single,
    /// Payload `i` arrives at node `⌊i·n/k⌋`: `k` producers spread over
    /// the node space (payload 0 stays at the network source, which the
    /// executor seeds before round 1).
    Spread,
}

/// One planned environment input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The payload (dense ids `0..k`).
    pub payload: PayloadId,
    /// The node receiving the environment input.
    pub node: NodeId,
    /// Round after which the payload is available (`0` = before round 1);
    /// its first transmit opportunity is round `round + 1`.
    pub round: u64,
}

/// The pipelined automaton population pushing the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamAlgorithm {
    /// [`PipelinedFlooder`] everywhere: maximum throughput for
    /// single-source streams; cannot mix multi-source flows under CR2–CR4
    /// (see the module docs).
    PipelinedFlooding,
    /// [`PipelinedFlooder::with_budget`] everywhere: flooding with a
    /// per-payload transmission budget — payloads age out of each node's
    /// transmission set after `budget` sends, so the network quiesces
    /// instead of saturating the medium forever (the ROADMAP's
    /// contention-managed-stream lever). `budget = u64::MAX` is
    /// bit-identical to [`StreamAlgorithm::PipelinedFlooding`].
    BoundedFlooding {
        /// Per-payload transmission budget per node.
        budget: u64,
    },
    /// [`BackoffProcess`] everywhere on the Harmonic schedule, period
    /// `T = ⌈12 ln(n/ε)⌉` (the §7 parameterization): a fresh payload
    /// restarts a node's eager rounds, and silence doubles as listening
    /// time, so multi-source streams mix.
    PipelinedHarmonic {
        /// Failure budget `ε ∈ (0, 1)` for the period derivation.
        epsilon: f64,
    },
}

impl StreamAlgorithm {
    /// Table/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            StreamAlgorithm::PipelinedFlooding => "pipelined-flooding",
            StreamAlgorithm::BoundedFlooding { .. } => "bounded-flooding",
            StreamAlgorithm::PipelinedHarmonic { .. } => "pipelined-harmonic",
        }
    }

    /// Builds the `n` process slots, ids `0..n`. Harmonic per-process
    /// seeds are `derive_seed(seed, i)`, as in the single-message
    /// `Harmonic` factory, which builds the same automaton: a `k = 1`
    /// stream is draw for draw the single-payload algorithm.
    pub fn slots(&self, n: usize, seed: u64) -> Vec<ProcessSlot> {
        match self {
            StreamAlgorithm::PipelinedFlooding => PipelinedFlooder::slots(n),
            StreamAlgorithm::BoundedFlooding { budget } => {
                PipelinedFlooder::slots_with_budget(n, *budget)
            }
            StreamAlgorithm::PipelinedHarmonic { epsilon } => {
                let period = period_for(n, *epsilon);
                BackoffProcess::slots(n, Backoff::Harmonic { period }, seed)
            }
        }
    }
}

/// The dynamics knobs of a stream run: a timed node-fault plan, plus how
/// the topology schedule (supplied separately, by reference, to
/// [`run_stream_scheduled`]) is traversed. Static runs with faults are
/// expressed by a [`DynamicsConfig`] without a schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsConfig {
    /// Timed per-node fault events (crash/recovery, jammers, spammers).
    pub faults: FaultPlan,
    /// Repeat the schedule from epoch 0 after its total span instead of
    /// tail-extending the last epoch.
    pub cycle: bool,
}

/// Configuration of one stream run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of payloads in the stream (`1..=MAX_PAYLOADS`).
    pub k: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Producer placement.
    pub sources: SourcePlacement,
    /// Collision rule in force.
    pub rule: CollisionRule,
    /// Start rule in force.
    pub start: StartRule,
    /// Hard stop: give up after this many rounds.
    pub max_rounds: u64,
    /// Master seed (arrival gaps, automaton RNGs).
    pub seed: u64,
    /// Dynamics: fault plan + schedule traversal (`None` = static,
    /// all-correct — the historical behavior, bit for bit).
    pub dynamics: Option<DynamicsConfig>,
    /// Reliability backend (`None` = the historical fire-and-forget
    /// behavior, bit for bit). Either backend keeps one verdict ledger
    /// ([`ReliableBroadcast`]): every payload settles a
    /// [`DeliveryVerdict`][dualgraph_sim::DeliveryVerdict] surfaced
    /// through [`StreamOutcome::reliability`], `Delivered` at the first
    /// round every currently-correct node holds it.
    ///
    /// [`ReliabilityBackend::Retry`] turns the MAC layer's
    /// acknowledgments into per-payload delivery guarantees: an arrival
    /// dropped at a faulty source is **retried** instead of lost, unacked
    /// `bcast`s are re-issued on the policy's schedule, and a node holds a
    /// payload once it knows it (see `docs/RELIABILITY.md`).
    ///
    /// [`ReliabilityBackend::Quorum`] instead **replaces** the stream
    /// algorithm's automata with [`QuorumProcess`] (Bracha-style
    /// echo/ready certification, Byzantine-tolerant under an
    /// `f`-locally-bounded placement; see `docs/BYZANTINE.md`): a node
    /// holds a payload once it has *accepted* it, dropped arrivals are
    /// final (the ledger has no retry policy), the stream width is
    /// limited to `k ≤ MAX_PAYLOADS / 2` (ready markers use ids `k..2k`),
    /// and the adversary must keep the identity assignment (origin trust
    /// is per process id).
    ///
    /// A bare [`RetryPolicy`][dualgraph_sim::RetryPolicy] converts via
    /// `Into`, as in `Some(policy.into())` or `with_reliability(policy)`.
    pub reliability: Option<ReliabilityBackend>,
    /// Stream-health instrumentation (`None` = off: no report, and the
    /// same run bit for bit). With a [`HealthConfig`] the session samples
    /// the sliding-window delivery throughput and the pending-retry and
    /// pending-ack queue depths every round and keeps a run-wide
    /// ack-latency histogram, surfaced through [`StreamOutcome::health`].
    /// Every run, instrumented or not, reports its epoch segments in
    /// [`StreamOutcome::epochs`].
    pub health: Option<HealthConfig>,
}

impl Default for StreamConfig {
    /// The upper-bound setting (CR4, asynchronous start), one batch
    /// payload from the network source.
    fn default() -> Self {
        StreamConfig {
            k: 1,
            arrivals: Arrivals::Batch,
            sources: SourcePlacement::Single,
            rule: CollisionRule::Cr4,
            start: StartRule::Asynchronous,
            max_rounds: 1_000_000,
            seed: 0,
            dynamics: None,
            reliability: None,
            health: None,
        }
    }
}

impl StreamConfig {
    /// Replaces the payload count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the dynamics configuration.
    pub fn with_dynamics(mut self, dynamics: DynamicsConfig) -> Self {
        self.dynamics = Some(dynamics);
        self
    }

    /// Replaces the reliability backend (a bare
    /// [`RetryPolicy`][dualgraph_sim::RetryPolicy] or
    /// [`QuorumPolicy`][dualgraph_sim::QuorumPolicy] converts).
    pub fn with_reliability(mut self, backend: impl Into<ReliabilityBackend>) -> Self {
        self.reliability = Some(backend.into());
        self
    }

    /// Enables stream-health instrumentation.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }
}

/// Expands a [`StreamConfig`] into the concrete arrival plan, sorted by
/// round (payload 0 first at round 0 — the executor's pre-round-1 source
/// input).
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds [`MAX_PAYLOADS`], or if a Poisson mean
/// gap is below 1.
pub fn plan_arrivals(network: &DualGraph, config: &StreamConfig) -> Vec<Arrival> {
    assert!(config.k >= 1, "a stream needs at least one payload");
    assert!(
        config.k <= MAX_PAYLOADS,
        "k exceeds the dense payload universe ({MAX_PAYLOADS})"
    );
    let n = network.len();
    let node_of = |i: usize| -> NodeId {
        match config.sources {
            SourcePlacement::Single => network.source(),
            SourcePlacement::Spread => {
                if i == 0 {
                    network.source()
                } else {
                    NodeId::from_index((i * n / config.k) % n)
                }
            }
        }
    };
    let mut round = 0u64;
    let mut gap_rng_state = derive_seed2(config.seed, 0xA1, 0);
    (0..config.k)
        .map(|i| {
            if i > 0 {
                round += match config.arrivals {
                    Arrivals::Batch => 0,
                    Arrivals::Poisson { mean_gap } => {
                        assert!(mean_gap >= 1.0, "mean interarrival gap must be >= 1");
                        // Geometric(1/mean) on a SplitMix64 stream via the
                        // shared inversion helper: mean ~ mean_gap,
                        // support {1, 2, ...}.
                        gap_rng_state = dualgraph_sim::rng::splitmix64(gap_rng_state);
                        1u64.saturating_add(dualgraph_sim::rng::geometric_gap_from_bits(
                            gap_rng_state,
                            1.0 / mean_gap,
                        ))
                    }
                };
            }
            Arrival {
                payload: PayloadId(i as u64),
                node: node_of(i),
                round,
            }
        })
        .collect()
}

/// Per-payload stream bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadStat {
    /// The payload.
    pub payload: PayloadId,
    /// Where it entered the network.
    pub source: NodeId,
    /// When it entered (`0` = before round 1).
    pub arrival_round: u64,
    /// Round by whose end every node knew it (`None` = never, within the
    /// round budget).
    pub completion_round: Option<u64>,
    /// `true` when the arrival was dropped because its source node was
    /// faulty (crashed/jamming/spamming) at injection time: the payload
    /// never entered the network and is excluded from completion
    /// accounting.
    pub dropped: bool,
}

impl PayloadStat {
    /// Arrival-to-full-coverage latency.
    pub fn latency(&self) -> Option<u64> {
        self.completion_round.map(|c| c - self.arrival_round)
    }
}

/// The stream measurements of one epoch segment: a maximal run of
/// executed rounds in one epoch. Under cycling the same epoch index can
/// appear in several segments. A static run has one epoch-0 segment, and
/// a run that executes no round has none.
///
/// A fact counts in the segment that is open when it happens. Arrivals,
/// retries, budget abandons and the acks a topology swap fires happen
/// between rounds `t − 1` and `t`, after the switch to round `t`'s epoch,
/// so they count in round `t`'s segment although their trace events are
/// stamped `t − 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochStreamStats {
    /// The epoch index in force.
    pub epoch: usize,
    /// First executed round of the segment (1-based).
    pub first_round: u64,
    /// Last executed round of the segment.
    pub last_round: u64,
    /// `rcv` events (first deliveries) observed during the segment.
    pub rcv_events: usize,
    /// bcast → ack latency digest over the acknowledgments that fired
    /// during the segment; its `count` is the segment's ack count.
    pub ack_latency: HistogramSummary,
    /// Reliability re-`bcast`s issued during the segment (always 0
    /// without a [`StreamConfig::reliability`] policy).
    pub retries: usize,
    /// Payloads delivered during the segment: settled `Delivered`
    /// verdicts with a reliability backend, payloads that reached full
    /// coverage without one.
    pub delivered: usize,
    /// Arrivals dropped during the segment.
    pub drops: usize,
}

/// Result of one stream run.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Per-payload stats, in payload-id order.
    pub payloads: Vec<PayloadStat>,
    /// Rounds executed.
    pub rounds_executed: u64,
    /// `true` when every payload reached every node (dropped arrivals are
    /// excluded — they never entered the network).
    pub completed: bool,
    /// The MAC layer's measured progress/acknowledgment latencies.
    pub mac: MacStats,
    /// The epoch segments, in execution order (see [`EpochStreamStats`]).
    pub epochs: Vec<EpochStreamStats>,
    /// Per-payload delivery-guarantee verdicts (reliability runs only).
    pub reliability: Option<ReliabilityReport>,
    /// Stream-health measurements (only with [`StreamConfig::health`]).
    pub health: Option<StreamHealthReport>,
}

/// The reliability layer's end-of-run report: one
/// [`ReliabilityEntry`] per payload (verdict, retries, source), in
/// payload order, plus the aggregate counts.
#[derive(Debug, Clone)]
pub struct ReliabilityReport {
    /// The backend that drove the run.
    pub backend: ReliabilityBackend,
    /// Per-payload entries, in payload-id order.
    pub entries: Vec<ReliabilityEntry>,
    /// Aggregate verdict counts and total retries.
    pub stats: ReliabilityStats,
    /// Safety-violation count at end of run: over currently-correct
    /// nodes, accepted payload ids outside the environment's real set
    /// (forged ids certified past the quorum — the "no creation" clause).
    /// Always 0 for retry runs (they have no acceptance notion) and, with
    /// correctly parameterized thresholds, 0 for quorum runs.
    pub safety_violations: u64,
}

impl ReliabilityReport {
    /// `true` when every payload has a final verdict and every
    /// non-abandoned payload is `Delivered` — the guarantee the layer
    /// exists to provide.
    pub fn all_non_abandoned_delivered(&self) -> bool {
        self.stats.pending == 0
    }
}

impl StreamOutcome {
    /// Round by whose end the *last* payload completed.
    pub fn makespan(&self) -> Option<u64> {
        self.completed
            .then(|| {
                self.payloads
                    .iter()
                    .filter_map(|p| p.completion_round)
                    .max()
            })
            .flatten()
    }

    /// Delivered payloads per executed round.
    pub fn throughput(&self) -> f64 {
        let done = self
            .payloads
            .iter()
            .filter(|p| p.completion_round.is_some())
            .count();
        done as f64 / self.rounds_executed.max(1) as f64
    }

    /// Mean per-payload latency over completed payloads.
    pub fn mean_latency(&self) -> Option<f64> {
        let lats: Vec<u64> = self.payloads.iter().filter_map(|p| p.latency()).collect();
        (!lats.is_empty()).then(|| lats.iter().sum::<u64>() as f64 / lats.len() as f64)
    }

    /// Maximum per-payload latency over completed payloads.
    pub fn max_latency(&self) -> Option<u64> {
        self.payloads.iter().filter_map(|p| p.latency()).max()
    }
}

/// The one stream drive loop: arrivals, epoch swaps, fault events, MAC
/// stepping, and coverage accounting, in a fixed order per round —
/// dynamics first (epoch snapshot and roles in force *from* round `t`
/// apply before anything else of round `t`), then due arrivals and due
/// retries, then the engine round, then the verdict settle.
/// [`run_stream_session`], [`run_stream_scheduled`], and the benches all
/// build on this type, so there is exactly one place epoch swapping (and
/// the rest of the loop) lives.
///
/// With a reliability backend the session holds one verdict ledger and
/// drives it through one code path per step, whichever the backend: the
/// backends differ only in whether the ledger has a retry policy and in
/// which per-node set "holds" a payload (the engine's known set, or the
/// quorum acceptance latch).
pub struct StreamSession<'a> {
    mac: MacLayer<'a>,
    cursor: DynamicsCursor<'a>,
    plan: Vec<Arrival>,
    next_arrival: usize,
    max_rounds: u64,
    /// The verdict layer (`None` without a reliability backend).
    lane: Option<Lane>,
    /// The one account of the stream.
    tally: Tally,
}

/// The session's one account of its stream: per-payload coverage,
/// completion and drops, the epoch segments, and the opt-in health
/// instruments. [`StreamSession::step_traced`] records each fact once,
/// where it happens, and [`StreamSession::run_traced`] builds the payload
/// stats, the segments and the health report from it.
struct Tally {
    n: usize,
    stats: Vec<PayloadStat>,
    /// Nodes currently knowing each payload (the injection node counts
    /// from the arrival on; `rcv` events count everyone else).
    coverage: Vec<usize>,
    incomplete: usize,
    /// `true` with a reliability backend: a delivery is then a settled
    /// `Delivered` verdict, not full coverage.
    verdicts: bool,
    /// Closed segments, in execution order.
    segments: Vec<EpochStreamStats>,
    /// The open segment; its `ack_latency` is filled in when it closes.
    open: EpochStreamStats,
    /// Ack latencies of the open segment.
    open_acks: Histogram,
    /// MAC ack records read so far.
    acks_read: usize,
    /// Deliveries since the last end-of-round sample.
    round_delivered: u32,
    /// The opt-in health instruments (`None` = off).
    health: Option<Health>,
}

/// The stream-health instruments: the sliding delivery window, the
/// run-wide ack-latency histogram and the high-water marks. Alloc-free
/// after construction.
struct Health {
    window: WindowedStats,
    acks: Histogram,
    peak_throughput: f64,
    peak_pending_retries: usize,
    peak_pending_acks: usize,
}

impl Tally {
    /// An account of `plan` on `n` nodes whose first `done` payloads
    /// completed on arrival, before any round.
    fn new(
        plan: &[Arrival],
        n: usize,
        done: usize,
        verdicts: bool,
        health: Option<HealthConfig>,
    ) -> Self {
        Tally {
            n,
            stats: plan
                .iter()
                .enumerate()
                .map(|(i, a)| PayloadStat {
                    payload: a.payload,
                    source: a.node,
                    arrival_round: a.round,
                    completion_round: (i < done).then_some(a.round),
                    dropped: false,
                })
                .collect(),
            coverage: vec![1; plan.len()],
            incomplete: plan.len() - done,
            verdicts,
            segments: Vec::new(),
            open: EpochStreamStats {
                first_round: 1,
                ..EpochStreamStats::default()
            },
            open_acks: Histogram::new(),
            acks_read: 0,
            round_delivered: 0,
            health: health.map(|h| Health {
                window: WindowedStats::new(h.window),
                acks: Histogram::new(),
                peak_throughput: 0.0,
                peak_pending_retries: 0,
                peak_pending_acks: 0,
            }),
        }
    }

    /// Step 1: `epoch` is in force from `round` on.
    fn switch(&mut self, epoch: usize, round: u64) {
        self.close(round - 1);
        self.open = EpochStreamStats {
            epoch,
            first_round: round,
            ..EpochStreamStats::default()
        };
    }

    /// Closes the open segment at `last_round`; a segment that executed
    /// no round is not kept.
    fn close(&mut self, last_round: u64) {
        if last_round >= self.open.first_round {
            self.segments.push(EpochStreamStats {
                last_round,
                ack_latency: self.open_acks.summary(),
                ..self.open
            });
        }
        self.open_acks.clear();
    }

    /// Steps 2 and 2b: payload `i` entered the network at `round`, and
    /// `holders` nodes know it.
    fn enter(&mut self, i: usize, holders: usize, round: u64) {
        self.coverage[i] = holders;
        self.cover(i, round);
    }

    /// Step 2: payload `i`'s arrival is lost for good.
    fn drop_arrival(&mut self, i: usize) {
        self.stats[i].dropped = true;
        self.incomplete -= 1;
        self.open.drops += 1;
    }

    /// Step 2b: one due retry.
    fn retry(&mut self) {
        self.open.retries += 1;
    }

    /// Step 3: one `rcv` of payload `i` in `round`. It counts toward
    /// coverage when `entered` (the payload is in the network) and the
    /// arrival was not dropped.
    fn rcv(&mut self, i: usize, entered: bool, round: u64) {
        self.open.rcv_events += 1;
        if entered && !self.stats[i].dropped {
            self.coverage[i] += 1;
            self.cover(i, round);
        }
    }

    /// Records payload `i`'s completion at `round` once it covers every
    /// node. Without a reliability backend that is a delivery.
    fn cover(&mut self, i: usize, round: u64) {
        if self.coverage[i] == self.n && self.stats[i].completion_round.is_none() {
            self.stats[i].completion_round = Some(round);
            self.incomplete -= 1;
            if !self.verdicts {
                self.deliver(1);
            }
        }
    }

    /// Step 3: the ack records the MAC layer added since the last read.
    fn acks(&mut self, records: &[AckRecord]) {
        for r in &records[self.acks_read..] {
            self.open_acks.record(r.ack_latency());
            if let Some(h) = &mut self.health {
                h.acks.record(r.ack_latency());
            }
        }
        self.acks_read = records.len();
    }

    /// Step 4 (or [`Tally::cover`] without a backend): `count` payloads
    /// delivered.
    fn deliver(&mut self, count: usize) {
        self.open.delivered += count;
        self.round_delivered += count as u32;
    }

    /// Step 5: the end-of-round sample of the health instruments. The
    /// pending-retry depth is an O(k) count, read only with health on.
    fn sample(&mut self, pending_retries: impl FnOnce() -> usize, pending_acks: usize) {
        let delivered = std::mem::take(&mut self.round_delivered);
        let Some(h) = &mut self.health else {
            return;
        };
        h.window.push(delivered);
        h.peak_throughput = h.peak_throughput.max(h.window.throughput());
        h.peak_pending_retries = h.peak_pending_retries.max(pending_retries());
        h.peak_pending_acks = h.peak_pending_acks.max(pending_acks);
    }
}

/// The verdict layer of a session with a reliability backend: one
/// [`ReliableBroadcast`] ledger for both backends, settled by one sweep
/// ([`Lane::settle`]). The quorum backend's ledger has no retry policy,
/// so its dropped arrivals are final at once.
struct Lane {
    /// The backend, as surfaced in the report.
    backend: ReliabilityBackend,
    /// Per-payload verdicts, tracked in payload-id order.
    ledger: ReliableBroadcast,
    /// Scratch for the per-round due-retry poll.
    retry_buf: Vec<(NodeId, PayloadId)>,
    /// Per-node `(echo_certified, ready_certified, accepted)` snapshots
    /// from the end of the previous traced round: the diff surfaces
    /// [`QuorumStage`] crossings. Sized lazily on the first traced round,
    /// so untraced sessions never allocate it.
    phase_seen: Vec<(PayloadSet, PayloadSet, PayloadSet)>,
}

impl Lane {
    /// The one settle rule: a pending payload that has entered the network
    /// becomes `Delivered` at `round` when every currently-correct node
    /// holds it. A node holds what its automaton has accepted
    /// ([`Process::accepted_payloads`], the quorum backend's latch), or,
    /// for automata without an acceptance notion, what the engine records
    /// it knows (the retry backend). Each settle emits
    /// [`TraceEvent::Verdict`] into `sink`; returns how many settled. O(n)
    /// [`PayloadSet`] operations while anything is pending.
    ///
    /// [`Process::accepted_payloads`]: dualgraph_sim::Process::accepted_payloads
    fn settle<S: TraceSink>(&mut self, exec: &Executor, round: u64, sink: &mut S) -> usize {
        if self.ledger.is_settled() {
            return 0;
        }
        let known = exec.known_payloads();
        let mut held: Option<PayloadSet> = None;
        for (i, role) in exec.roles().iter().enumerate() {
            if !role.is_correct() {
                continue;
            }
            let holds = exec
                .process_at(NodeId::from_index(i))
                .accepted_payloads()
                .unwrap_or(known[i]);
            // a ∩ b = a ∖ (a ∖ b).
            held = Some(held.map_or(holds, |a| a.minus(a.minus(holds))));
        }
        // No correct node: nothing can settle.
        held.map_or(0, |held| self.ledger.settle_held_traced(held, round, sink))
    }

    /// Emits one [`TraceEvent::QuorumPhase`] per node per newly crossed
    /// certification stage since the previous traced round, by diffing
    /// each node's latched echo/ready/accept sets against the snapshot
    /// (automata without those latches cross nothing). Traced sessions
    /// only — callers guard on `S::ENABLED`.
    fn emit_phases<S: TraceSink>(&mut self, exec: &Executor, round: u64, sink: &mut S) {
        let n = exec.network().len();
        if self.phase_seen.len() != n {
            self.phase_seen = vec![(PayloadSet::EMPTY, PayloadSet::EMPTY, PayloadSet::EMPTY); n];
        }
        for i in 0..n {
            let node = NodeId::from_index(i);
            let proc = exec.process_at(node);
            let (echo, ready) = proc
                .certified_payloads()
                .unwrap_or((PayloadSet::EMPTY, PayloadSet::EMPTY));
            let accepted = proc.accepted_payloads().unwrap_or(PayloadSet::EMPTY);
            let (prev_echo, prev_ready, prev_accepted) = self.phase_seen[i];
            for (now, prev, stage) in [
                (echo, prev_echo, QuorumStage::Echo),
                (ready, prev_ready, QuorumStage::Ready),
                (accepted, prev_accepted, QuorumStage::Accept),
            ] {
                for payload in now.minus(prev).iter() {
                    sink.emit(TraceEvent::QuorumPhase {
                        round,
                        node,
                        payload,
                        stage,
                    });
                }
            }
            self.phase_seen[i] = (echo, ready, accepted);
        }
    }
}

/// End-of-run safety accounting: accepted ids outside the environment's
/// real set, summed over currently-correct nodes. Always 0 without an
/// acceptance latch, i.e. under the retry backend.
fn safety_violations(exec: &Executor) -> u64 {
    let real = exec.real_payloads();
    let mut violations = 0u64;
    for (i, role) in exec.roles().iter().enumerate() {
        if !role.is_correct() {
            continue;
        }
        if let Some(acc) = exec.process_at(NodeId::from_index(i)).accepted_payloads() {
            violations += acc.minus(real).len() as u64;
        }
    }
    violations
}

impl<'a> StreamSession<'a> {
    /// Builds a session on a static topology (faults from
    /// `config.dynamics` still apply, against the one frozen network).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildExecutorError`] from executor construction.
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan (`k` out of range; see [`plan_arrivals`]).
    pub fn new(
        network: &'a DualGraph,
        algorithm: StreamAlgorithm,
        adversary: Box<dyn Adversary>,
        config: &StreamConfig,
    ) -> Result<Self, BuildExecutorError> {
        Self::build(network, None, algorithm, adversary, config)
    }

    /// Builds a session on an epoch-evolving topology: the executor runs
    /// on epoch 0's network and the session swaps snapshots (through
    /// [`MacLayer::set_network`], which re-anchors pending acks) at each
    /// boundary.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildExecutorError`] from executor construction.
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan (`k` out of range; see [`plan_arrivals`]).
    pub fn scheduled(
        schedule: &'a TopologySchedule,
        algorithm: StreamAlgorithm,
        adversary: Box<dyn Adversary>,
        config: &StreamConfig,
    ) -> Result<Self, BuildExecutorError> {
        Self::build(
            schedule.epoch(0).network(),
            Some(schedule),
            algorithm,
            adversary,
            config,
        )
    }

    fn build(
        network: &'a DualGraph,
        schedule: Option<&'a TopologySchedule>,
        algorithm: StreamAlgorithm,
        adversary: Box<dyn Adversary>,
        config: &StreamConfig,
    ) -> Result<Self, BuildExecutorError> {
        let plan = plan_arrivals(network, config);
        let n = network.len();
        let quorum_policy = config.reliability.and_then(|b| b.quorum_policy());
        let slots = match quorum_policy {
            Some(policy) => {
                // The quorum backend replaces the algorithm's automata
                // wholesale: certification decides what is relayed.
                assert!(
                    2 * config.k <= MAX_PAYLOADS,
                    "quorum stream width {} exceeds {}: ready markers use ids k..2k",
                    config.k,
                    MAX_PAYLOADS / 2
                );
                // Origin identities are common knowledge (the standard
                // authenticated-broadcast assumption); under the identity
                // assignment asserted below, process id = plan node index.
                let origins: Vec<ProcessId> = plan
                    .iter()
                    .map(|a| ProcessId::from_index(a.node.index()))
                    .collect();
                QuorumProcess::slots(n, policy, &origins)
            }
            None => algorithm.slots(n, config.seed),
        };
        let exec = Executor::from_slots(
            network,
            slots,
            adversary,
            ExecutorConfig {
                rule: config.rule,
                start: config.start,
                payload: plan[0].payload,
            },
        )?;
        if quorum_policy.is_some() {
            let assignment = exec.assignment();
            assert!(
                (0..n).all(|i| assignment.process_at(NodeId::from_index(i)).index() == i),
                "the quorum backend requires the identity assignment: origin \
                 trust is per process id, and a permuted placement would \
                 misattribute it"
            );
        }
        let mut mac = MacLayer::new(exec);
        let dynamics = config.dynamics.clone().unwrap_or_default();
        let no_faults = dynamics.faults.is_empty();
        let mut cursor = DynamicsCursor::new(schedule, dynamics.faults, dynamics.cycle);
        cursor.apply_initial(|node, role| mac.set_role(node, role));

        // The ledger tracks payload 0 (the executor's own pre-round-1
        // seed — always entered) from construction.
        let lane = config.reliability.map(|backend| {
            let mut ledger = ReliableBroadcast::for_backend(backend);
            ledger.track(plan[0].payload, plan[0].node, 0, true);
            Lane {
                backend,
                ledger,
                retry_buf: Vec::new(),
                phase_seen: Vec::new(),
            }
        });
        // Payload 0 at round 0 is the executor's own pre-round-1 source
        // input, which happens at construction and therefore precedes
        // every fault plan: it is never dropped, even when a round-0
        // event crashes the source (the payload is then stranded there
        // until recovery). A lone node is the whole network, so payload 0
        // completes at once. Without a fault plan (and without a
        // reliability layer needing verdict settlement) every later
        // arrival lands and completes on the spot too, without executing
        // any rounds. (With faults the drive loop decides drop vs
        // completion per arrival — a crashed lone node still drops its
        // arrivals; with a reliability policy the loop settles verdicts.)
        let done = match n {
            1 if no_faults && lane.is_none() => plan.len(),
            1 => 1,
            _ => 0,
        };
        let tally = Tally::new(&plan, n, done, lane.is_some(), config.health);
        Ok(StreamSession {
            mac,
            cursor,
            plan,
            next_arrival: done.max(1),
            max_rounds: config.max_rounds,
            lane,
            tally,
        })
    }

    /// The MAC layer (and executor) mid-stream.
    pub fn mac(&self) -> &MacLayer<'a> {
        &self.mac
    }

    /// `true` once every non-dropped payload covers every node.
    pub fn is_complete(&self) -> bool {
        self.tally.incomplete == 0
    }

    /// `true` once the run is settled: every planned arrival attempted
    /// and every reliability verdict final (with a policy), or full
    /// coverage (without one). This is the condition
    /// [`StreamSession::run`] drives toward. The arrival check matters
    /// for Poisson plans: verdicts of the already-arrived prefix can all
    /// be final while later payloads are still waiting to enter — a run
    /// must not claim settlement before attempting them.
    pub fn is_settled(&self) -> bool {
        match &self.lane {
            Some(lane) => self.next_arrival >= self.plan.len() && lane.ledger.is_settled(),
            None => self.tally.incomplete == 0,
        }
    }

    /// Executes one round of the drive loop (see the type docs).
    pub fn step(&mut self) {
        self.step_traced(&mut NullSink);
    }

    /// [`StreamSession::step`] with trace hooks: the full event schema of
    /// `docs/OBSERVABILITY.md` — epoch switches, fault events, injections,
    /// retries, the engine round's transmissions/receptions, MAC
    /// acknowledgments, quorum-stage crossings, and delivery verdicts —
    /// flows into `sink`.
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) {
        let t = self.mac.round() + 1;
        // 1. Dynamics in force from round t.
        let (swap, fired) = self.cursor.advance(t);
        if let Some(net) = swap {
            self.mac.set_network(net);
            self.tally.switch(self.cursor.epoch(), t);
            if S::ENABLED {
                sink.emit(TraceEvent::EpochSwitch {
                    round: t,
                    epoch: self.cursor.epoch() as u32,
                });
            }
        }
        for i in fired {
            let e = self.cursor.events()[i];
            if S::ENABLED {
                sink.emit(TraceEvent::Fault {
                    round: t,
                    node: e.node,
                    role: e.role.into(),
                });
            }
            self.mac.set_role(e.node, e.role);
        }
        // 2. Arrivals due by the end of the previous round.
        while self.next_arrival < self.plan.len()
            && self.plan[self.next_arrival].round <= self.mac.round()
        {
            let a = self.plan[self.next_arrival];
            let i = a.payload.0 as usize;
            let entered = self.mac.bcast_traced(a.node, a.payload, sink);
            if let Some(lane) = &mut self.lane {
                // Tracking order is payload-id order (the invariant every
                // positional `entries()[i]` read below relies on),
                // enforced here, not just debug-asserted.
                assert_eq!(i, lane.ledger.entries().len(), "track order = id order");
                lane.ledger
                    .track_traced(a.payload, a.node, self.mac.round(), entered, sink);
            }
            if entered {
                // Spammer junk ids may collide with stream payloads, and
                // junk circulating *before* the arrival has already spent
                // those nodes' first-delivery `rcv` events — so coverage
                // starts from the engine's actual record, not from 1.
                self.tally
                    .enter(i, self.mac.known_count(a.payload), self.mac.round());
            } else if self
                .lane
                .as_ref()
                .is_none_or(|lane| lane.ledger.entries()[i].verdict.is_final())
            {
                // Without a lane, or with a ledger that has no retries
                // (its verdict is already final), the arrival is lost for
                // good. A retry policy owns the drop instead: the payload
                // is pending re-entry on the retry schedule (`dropped`
                // stays false unless it is abandoned without ever
                // entering — see the run aggregation).
                self.tally.drop_arrival(i);
            }
            self.next_arrival += 1;
        }
        // 2b. Reliability retries due now: re-`bcast` from the original
        // producer (a ledger without retries yields none). A retry into a
        // still-faulty source fails and simply spends budget; the first
        // successful retry of a never-entered payload is its real
        // arrival, so its coverage is synced from the engine record
        // exactly like step 2's.
        if let Some(lane) = &mut self.lane {
            let now = self.mac.round();
            let mut buf = std::mem::take(&mut lane.retry_buf);
            buf.clear();
            lane.ledger.due_retries_traced(now, &mut buf, sink);
            for &(node, payload) in &buf {
                let i = payload.0 as usize;
                self.tally.retry();
                let accepted = self.mac.bcast_traced(node, payload, sink);
                debug_assert_eq!(lane.ledger.entries()[i].payload, payload);
                if accepted && !lane.ledger.entries()[i].entered {
                    lane.ledger.note_entered(payload);
                    self.tally.enter(i, self.mac.known_count(payload), now);
                }
            }
            lane.retry_buf = buf;
        }
        // 3. One engine round (`t` is its number); the tally reads its rcv
        // events and the ack records it added.
        for event in self.mac.step_traced(sink) {
            match event {
                MacEvent::Rcv { payload, .. } => {
                    let i = payload.0 as usize;
                    // Only deliveries of stream payloads that have formally
                    // arrived count toward completion: spammer junk may
                    // carry ids outside the stream, ids of dropped arrivals
                    // (never resurrected), or ids of payloads still waiting
                    // to arrive (whose coverage is synced at arrival
                    // instead). A retry-managed payload that has not yet
                    // (re-)entered the network is still junk traffic: its
                    // coverage is synced when a retry lands it.
                    let entered = i < self.next_arrival
                        && self
                            .lane
                            .as_ref()
                            .is_none_or(|lane| lane.ledger.entries()[i].entered);
                    self.tally.rcv(i, entered, t);
                }
                MacEvent::Ack { node, payload, .. } => {
                    if let Some(lane) = &mut self.lane {
                        // Only acks of the tracked producer's own bcast
                        // say its neighborhood is covered.
                        let entries = lane.ledger.entries();
                        let i = payload.0 as usize;
                        if i < entries.len()
                            && entries[i].payload == *payload
                            && entries[i].source == *node
                        {
                            lane.ledger.on_ack(*payload);
                        }
                    }
                }
            }
        }
        self.tally.acks(self.mac.ack_records());
        // 4. Settle `Delivered` verdicts: every currently-correct node
        // holds the payload (see `Lane::settle`).
        if let Some(lane) = &mut self.lane {
            if S::ENABLED {
                lane.emit_phases(self.mac.executor(), t, sink);
            }
            let delivered = lane.settle(self.mac.executor(), t, sink);
            self.tally.deliver(delivered);
        }
        // 5. The end-of-round sample of the queue gauges (a no-op without
        // a HealthConfig).
        let lane = &self.lane;
        self.tally.sample(
            || lane.as_ref().map_or(0, |lane| lane.ledger.stats().pending),
            self.mac.pending_acks(),
        );
    }

    /// Drives the loop until settled (or `max_rounds`) and aggregates the
    /// outcome, returning the MAC layer in its end-of-stream state (the
    /// stream bench keeps stepping it to time the steady state). Without
    /// a reliability policy "settled" is full coverage (the historical
    /// behavior); with one it is every verdict final — the loop may stop
    /// with full coverage still outstanding at a permanently-crashed
    /// node, which is exactly what the correct-live-nodes guarantee
    /// permits.
    pub fn run(self) -> (StreamOutcome, MacLayer<'a>) {
        self.run_traced(&mut NullSink)
    }

    /// [`StreamSession::run`] with trace hooks: every round runs through
    /// [`StreamSession::step_traced`], so the full event stream of the run
    /// lands in `sink`.
    pub fn run_traced<S: TraceSink>(mut self, sink: &mut S) -> (StreamOutcome, MacLayer<'a>) {
        while !self.is_settled() && self.mac.round() < self.max_rounds {
            self.step_traced(sink);
        }
        let mut tally = self.tally;
        let reliability = self.lane.map(|lane| {
            // A payload abandoned without ever landing in the network is,
            // in the end, a dropped arrival — surface it as such so
            // `completed` and the health drop rate count it.
            for e in lane.ledger.entries() {
                if !e.entered {
                    tally.stats[e.payload.0 as usize].dropped = true;
                }
            }
            ReliabilityReport {
                backend: lane.backend,
                stats: lane.ledger.stats(),
                entries: lane.ledger.entries().to_vec(),
                safety_violations: safety_violations(self.mac.executor()),
            }
        });
        tally.close(self.mac.round());
        let drops = tally.stats.iter().filter(|s| s.dropped).count();
        let outcome = StreamOutcome {
            completed: tally
                .stats
                .iter()
                .all(|s| s.dropped || s.completion_round.is_some()),
            health: tally.health.map(|h| StreamHealthReport {
                window: h.window.window(),
                final_throughput: h.window.throughput(),
                peak_throughput: h.peak_throughput,
                drop_rate: drops as f64 / self.next_arrival as f64,
                peak_pending_retries: h.peak_pending_retries,
                peak_pending_acks: h.peak_pending_acks,
                ack_latency: h.acks.summary(),
            }),
            payloads: tally.stats,
            rounds_executed: self.mac.round(),
            mac: self.mac.stats(),
            epochs: tally.segments,
            reliability,
        };
        (outcome, self.mac)
    }
}

impl std::fmt::Debug for StreamSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StreamSession(round={}, incomplete={}/{}, epoch={})",
            self.mac.round(),
            self.tally.incomplete,
            self.tally.stats.len(),
            self.cursor.epoch()
        )
    }
}

/// Runs one pipelined stream: plans arrivals, wires the automata into the
/// executor, drives everything through the MAC layer, and aggregates the
/// stream metrics. Stops when every payload covers every node or at
/// `config.max_rounds`.
///
/// # Errors
///
/// Propagates [`BuildExecutorError`] from executor construction.
///
/// # Panics
///
/// Panics on an invalid plan (`k` out of range; see [`plan_arrivals`]).
pub fn run_stream(
    network: &DualGraph,
    algorithm: StreamAlgorithm,
    adversary: Box<dyn Adversary>,
    config: &StreamConfig,
) -> Result<StreamOutcome, BuildExecutorError> {
    run_stream_session(network, algorithm, adversary, config).map(|(outcome, _)| outcome)
}

/// [`run_stream`], additionally returning the [`MacLayer`] (and thus the
/// executor) in its end-of-stream state — the stream bench continues
/// stepping it to time the all-senders steady state, and there must be
/// exactly one copy of the drive loop ([`StreamSession`]) for the two to
/// agree on.
///
/// # Errors
///
/// Propagates [`BuildExecutorError`] from executor construction.
///
/// # Panics
///
/// Panics on an invalid plan (`k` out of range; see [`plan_arrivals`]).
pub fn run_stream_session<'a>(
    network: &'a DualGraph,
    algorithm: StreamAlgorithm,
    adversary: Box<dyn Adversary>,
    config: &StreamConfig,
) -> Result<(StreamOutcome, MacLayer<'a>), BuildExecutorError> {
    Ok(StreamSession::new(network, algorithm, adversary, config)?.run())
}

/// Runs one pipelined stream over an epoch-evolving
/// [`TopologySchedule`]: [`run_stream`] with the dynamics subsystem
/// threaded through — the session swaps the active snapshot at every
/// epoch boundary (re-anchoring pending MAC acknowledgments against the
/// new reliable graph) and applies `config.dynamics`' fault plan; the
/// segments of [`StreamOutcome::epochs`] follow the epochs.
///
/// # Errors
///
/// Propagates [`BuildExecutorError`] from executor construction.
///
/// # Panics
///
/// Panics on an invalid plan (`k` out of range; see [`plan_arrivals`]).
pub fn run_stream_scheduled(
    schedule: &TopologySchedule,
    algorithm: StreamAlgorithm,
    adversary: Box<dyn Adversary>,
    config: &StreamConfig,
) -> Result<StreamOutcome, BuildExecutorError> {
    Ok(
        StreamSession::scheduled(schedule, algorithm, adversary, config)?
            .run()
            .0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualgraph_net::{generators, Epoch};
    use dualgraph_sim::{RandomDelivery, ReliableOnly, RetryPolicy};

    #[test]
    fn plan_batch_single_source() {
        let net = generators::line(9, 1);
        let config = StreamConfig::default().with_k(4);
        let plan = plan_arrivals(&net, &config);
        assert_eq!(plan.len(), 4);
        assert!(plan.iter().all(|a| a.node == net.source()));
        assert!(plan.iter().all(|a| a.round == 0));
        assert_eq!(plan[3].payload, PayloadId(3));
    }

    #[test]
    fn plan_spread_sources_and_poisson_gaps() {
        let net = generators::line(16, 1);
        let config = StreamConfig {
            k: 8,
            arrivals: Arrivals::Poisson { mean_gap: 5.0 },
            sources: SourcePlacement::Spread,
            ..StreamConfig::default()
        };
        let plan = plan_arrivals(&net, &config);
        assert_eq!(plan[0].node, net.source());
        assert_eq!(plan[0].round, 0);
        // Spread: distinct producers, rounds nondecreasing with gaps >= 1.
        assert!(plan.windows(2).all(|w| w[0].round < w[1].round));
        let distinct: std::collections::HashSet<_> = plan.iter().map(|a| a.node).collect();
        assert!(distinct.len() > 4, "spread placement: {plan:?}");
        // Deterministic in the seed.
        assert_eq!(plan, plan_arrivals(&net, &config));
        let other = plan_arrivals(&net, &StreamConfig { seed: 1, ..config });
        assert_ne!(
            plan.iter().map(|a| a.round).collect::<Vec<_>>(),
            other.iter().map(|a| a.round).collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_poisson_gaps_hold_at_tiny_rates() {
        // Mean gap 1e17: each arrival probability 1e-17, where `1 − p`
        // rounds to 1. The gaps stay of the order of the mean instead of
        // collapsing to the minimum of 1.
        let net = generators::line(4, 1);
        let config = StreamConfig {
            k: 6,
            arrivals: Arrivals::Poisson { mean_gap: 1e17 },
            ..StreamConfig::default()
        };
        let plan = plan_arrivals(&net, &config);
        assert!(
            plan.windows(2)
                .all(|w| w[1].round - w[0].round > 1_000_000_000_000),
            "{:?}",
            plan.iter().map(|a| a.round).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "at least one payload")]
    fn plan_rejects_zero_k() {
        plan_arrivals(&generators::line(4, 1), &StreamConfig::default().with_k(0));
    }

    #[test]
    fn k1_flooding_stream_matches_single_broadcast() {
        // A k = 1 stream is the classical broadcast problem: its lone
        // payload's completion round must equal the plain executor's.
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 40,
                reliable_p: 0.08,
                unreliable_p: 0.2,
            },
            13,
        );
        let outcome = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(RandomDelivery::new(0.5, 77)),
            &StreamConfig::default().with_seed(3),
        )
        .unwrap();
        assert!(outcome.completed);

        let mut exec = Executor::from_slots(
            &net,
            dualgraph_sim::Flooder::slots(net.len()),
            Box::new(RandomDelivery::new(0.5, 77)),
            ExecutorConfig::default(),
        )
        .unwrap();
        let single = exec.run_until_complete(1_000_000);
        assert_eq!(
            outcome.payloads[0].completion_round,
            single.completion_round
        );
        assert_eq!(outcome.makespan(), single.completion_round);
    }

    #[test]
    fn single_source_flooding_pipelines_the_whole_batch() {
        // One producer, batch arrivals: the source knows all k payloads up
        // front, so the flood wavefront carries the union — every payload
        // completes when the wave completes (perfect pipelining).
        let net = generators::line(20, 1);
        let k = 8;
        let outcome = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &StreamConfig::default().with_k(k),
        )
        .unwrap();
        assert!(outcome.completed);
        let makespan = outcome.makespan().unwrap();
        for p in &outcome.payloads {
            assert_eq!(p.completion_round, Some(makespan), "{p:?}");
        }
        // k payloads in one diameter-length sweep.
        assert_eq!(makespan, 19);
        assert!((outcome.throughput() - k as f64 / 19.0).abs() < 1e-9);
        assert_eq!(outcome.mean_latency(), Some(19.0));
        assert_eq!(outcome.max_latency(), Some(19));
        assert_eq!(outcome.mac.pending, 0, "all bcasts acked");
    }

    #[test]
    fn multi_source_harmonic_mixes_flows() {
        // Spread producers under CR4: flooding stalls (senders never
        // listen), harmonic's silent rounds let the flows cross.
        let net = generators::line(12, 2);
        let config = StreamConfig {
            k: 3,
            sources: SourcePlacement::Spread,
            max_rounds: 200_000,
            ..StreamConfig::default()
        };
        let outcome = run_stream(
            &net,
            StreamAlgorithm::PipelinedHarmonic { epsilon: 0.1 },
            Box::new(RandomDelivery::new(0.5, 5)),
            &config,
        )
        .unwrap();
        assert!(outcome.completed, "{outcome:?}");
        assert!(outcome.mac.acked >= 3);
        assert!(outcome.mean_latency().unwrap() >= 1.0);
    }

    #[test]
    fn multi_source_flooding_stalls_under_cr4() {
        // The documented model truth: always-transmit flooders cannot mix
        // opposing waves — the run must hit the round budget, not panic.
        let net = generators::line(10, 1);
        let config = StreamConfig {
            k: 2,
            sources: SourcePlacement::Spread,
            max_rounds: 2_000,
            ..StreamConfig::default()
        };
        let outcome = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds_executed, 2_000);
        assert!(outcome
            .payloads
            .iter()
            .any(|p| p.completion_round.is_none()));
    }

    #[test]
    fn poisson_arrivals_inject_mid_run() {
        // Mid-run arrivals need listening rounds to spread (an
        // already-flooding network is deaf under CR2-CR4), so the Poisson
        // regime runs on pipelined Harmonic.
        let net = generators::line(8, 1);
        let config = StreamConfig {
            k: 4,
            arrivals: Arrivals::Poisson { mean_gap: 6.0 },
            sources: SourcePlacement::Single,
            max_rounds: 200_000,
            ..StreamConfig::default()
        };
        let plan = plan_arrivals(&net, &config);
        assert!(plan.windows(2).all(|w| w[0].round < w[1].round));
        let outcome = run_stream(
            &net,
            StreamAlgorithm::PipelinedHarmonic { epsilon: 0.1 },
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        assert!(outcome.completed, "{outcome:?}");
        for (a, s) in plan.iter().zip(&outcome.payloads) {
            assert_eq!(s.arrival_round, a.round);
            assert!(s.completion_round.unwrap() > a.round);
        }
    }

    #[test]
    fn poisson_arrivals_cannot_enter_a_flooding_network() {
        // The complementary model truth: once the k = 1-style flood wave
        // has passed, every node transmits forever and a later arrival at
        // the source never escapes it.
        let net = generators::line(8, 1);
        let config = StreamConfig {
            k: 2,
            arrivals: Arrivals::Poisson { mean_gap: 20.0 },
            sources: SourcePlacement::Single,
            max_rounds: 3_000,
            ..StreamConfig::default()
        };
        let plan = plan_arrivals(&net, &config);
        assert!(plan[1].round > 0, "second arrival is mid-run");
        let outcome = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        assert!(outcome.payloads[0].completion_round.is_some());
        assert!(outcome.payloads[1].completion_round.is_none());
        assert!(!outcome.completed);
    }

    #[test]
    fn single_node_stream_completes_at_arrival() {
        let net = generators::complete(1);
        let outcome = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &StreamConfig::default().with_k(2),
        )
        .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.rounds_executed, 0);
        assert_eq!(outcome.payloads[1].latency(), Some(0));
    }

    #[test]
    fn scheduled_single_epoch_stream_matches_static_run() {
        // The dynamics threading must be unobservable when nothing is
        // dynamic: a single-epoch schedule with no faults reproduces the
        // static session bit for bit (payload stats, rounds, MAC stats).
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 30,
                reliable_p: 0.1,
                unreliable_p: 0.22,
            },
            21,
        );
        let config = StreamConfig::default().with_k(6).with_seed(4);
        let (statik, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(RandomDelivery::new(0.5, 9)),
            &config,
        )
        .unwrap();
        let schedule = TopologySchedule::single(net.clone());
        let scheduled = run_stream_scheduled(
            &schedule,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(RandomDelivery::new(0.5, 9)),
            &config,
        )
        .unwrap();
        assert_eq!(scheduled.payloads, statik.payloads);
        assert_eq!(scheduled.rounds_executed, statik.rounds_executed);
        assert_eq!(scheduled.completed, statik.completed);
        assert_eq!(scheduled.mac, statik.mac);
        // Both runs report the same one epoch-0 segment.
        assert_eq!(scheduled.epochs, statik.epochs);
        assert_eq!(scheduled.epochs.len(), 1);
        assert_eq!(scheduled.epochs[0].epoch, 0);
        assert_eq!(scheduled.epochs[0].first_round, 1);
        assert_eq!(scheduled.epochs[0].last_round, scheduled.rounds_executed);
    }

    #[test]
    fn crashed_source_drops_arrivals_until_recovery() {
        // Batch arrivals on a source crashed "from the start": payload 0
        // (the executor's own pre-round-1 seeding, which precedes every
        // fault plan) survives, stranded until recovery; the rest of the
        // batch hits a dead radio and is dropped — the environment does
        // not retry. Completion excludes the dropped arrivals.
        let net = generators::line(6, 1);
        let config = StreamConfig {
            k: 3,
            max_rounds: 200,
            dynamics: Some(DynamicsConfig {
                faults: FaultPlan::none()
                    .crash(net.source(), 0)
                    .recover(net.source(), 5),
                cycle: false,
            }),
            ..StreamConfig::default()
        };
        let (outcome, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        assert!(!outcome.payloads[0].dropped);
        assert!(outcome.payloads[1].dropped);
        assert!(outcome.payloads[2].dropped);
        assert!(outcome.payloads[1].completion_round.is_none());
        // Payload 0 floods only after the recovery round.
        let completion = outcome.payloads[0].completion_round.unwrap();
        assert_eq!(completion, 5 + 4, "diameter-length sweep from round 5");
        assert!(outcome.completed, "dropped arrivals excluded");
    }

    #[test]
    fn epoch_segments_partition_a_scheduled_run() {
        // Line epoch then star epoch: the segments must tile the executed
        // rounds exactly, attribute every rcv event, and end when the
        // stream ends.
        let line = generators::line(8, 1);
        let star = generators::star(8);
        let schedule =
            TopologySchedule::new(vec![Epoch::new(line, 3), Epoch::new(star, 50)]).unwrap();
        let config = StreamConfig::default().with_k(4);
        let outcome = run_stream_scheduled(
            &schedule,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.epochs.len(), 2);
        assert_eq!(outcome.epochs[0].epoch, 0);
        assert_eq!(outcome.epochs[1].epoch, 1);
        assert_eq!(outcome.epochs[0].first_round, 1);
        assert_eq!(outcome.epochs[0].last_round, 3);
        assert_eq!(outcome.epochs[1].first_round, 4);
        assert_eq!(outcome.epochs[1].last_round, outcome.rounds_executed);
        // Every non-source node's first reception of every payload is a
        // rcv event, attributed to exactly one segment.
        let total_rcvs: usize = outcome.epochs.iter().map(|e| e.rcv_events).sum();
        assert_eq!(total_rcvs, 7 * 4, "(n-1) nodes x k payloads");
        // The star epoch finishes the broadcast fast: the hub (node 0, the
        // source) reaches every leaf directly once the epoch flips.
        assert!(outcome.rounds_executed < 3 + 8);
        // Every ack lands in exactly one segment (here epoch 0: the
        // source's reliable neighborhood is covered in round 1).
        let total_acked: u64 = outcome.epochs.iter().map(|e| e.ack_latency.count).sum();
        assert_eq!(total_acked, outcome.mac.acked as u64);
    }

    #[test]
    fn single_node_stream_with_faults_drops_while_crashed() {
        // The n == 1 at-arrival shortcut must not bypass the fault plan:
        // a crashed lone node still drops its arrivals (payload 0, seeded
        // at construction before any plan, completes regardless).
        let net = generators::complete(1);
        let config = StreamConfig {
            k: 3,
            max_rounds: 50,
            dynamics: Some(DynamicsConfig {
                faults: FaultPlan::none().crash(net.source(), 0),
                cycle: false,
            }),
            ..StreamConfig::default()
        };
        let (outcome, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        assert_eq!(outcome.payloads[0].completion_round, Some(0));
        assert!(!outcome.payloads[0].dropped);
        assert!(outcome.payloads[1].dropped);
        assert!(outcome.payloads[2].dropped);
        assert!(outcome.completed, "dropped arrivals excluded");
        // One round executed: the drive loop ran exactly long enough to
        // adjudicate the round-0 arrivals.
        assert_eq!(outcome.rounds_executed, 1);
    }

    #[test]
    fn spammer_junk_ids_do_not_corrupt_stream_accounting() {
        // Junk ids outside the k=2 stream universe must not panic the
        // session, and junk colliding with a *dropped* payload's id must
        // not resurrect it into completion accounting.
        let net = generators::line(5, 1);
        let mut junk = dualgraph_sim::PayloadSet::only(PayloadId(7));
        junk.insert(PayloadId(1));
        let config = StreamConfig {
            k: 2,
            max_rounds: 60,
            dynamics: Some(DynamicsConfig {
                // The source is crashed when payload 1 arrives (dropped);
                // node 4 spams {7, 1} into the network.
                faults: FaultPlan::none()
                    .crash(net.source(), 0)
                    .recover(net.source(), 4)
                    .spam(NodeId(4), 1, junk),
                cycle: false,
            }),
            ..StreamConfig::default()
        };
        let (outcome, mac) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        // The junk circulated: correct nodes absorbed ids 7 and 1 and
        // (being flooders) retransmit them — every rcv of either id went
        // through the accounting path without panicking.
        let known = mac.executor().known_payloads();
        assert!(known.iter().any(|k| k.contains(PayloadId(7))));
        assert!(known.iter().any(|k| k.contains(PayloadId(1))));
        // Payload 1 stays dropped despite its id spreading as junk: no
        // resurrection, no completion round, and latency() stays sane.
        assert!(outcome.payloads[1].dropped);
        assert!(outcome.payloads[1].completion_round.is_none());
        assert_eq!(outcome.payloads[1].latency(), None);
        // Payload 0 entered normally; the junk-deafened flooding network
        // can't finish it (the documented CR4 model truth) — the session
        // runs to its round budget instead of mis-reporting completion.
        assert!(!outcome.payloads[0].dropped);
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds_executed, 60);
    }

    #[test]
    fn reliability_retry_reenters_dropped_arrivals() {
        // The source is crashed when the batch arrives: without a policy
        // the arrivals are dropped forever; with ack-gap retries the layer
        // re-bcasts them in after the recovery and guarantees delivery.
        let net = generators::line(6, 1);
        let dynamics = DynamicsConfig {
            faults: FaultPlan::none()
                .crash(net.source(), 0)
                .recover(net.source(), 5),
            cycle: false,
        };
        let config = StreamConfig {
            k: 3,
            max_rounds: 400,
            dynamics: Some(dynamics),
            reliability: Some(
                RetryPolicy::AckGap {
                    gap: 4,
                    max_retries: 10,
                }
                .into(),
            ),
            ..StreamConfig::default()
        };
        let (outcome, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        let report = outcome.reliability.as_ref().expect("reliability run");
        assert!(report.all_non_abandoned_delivered());
        assert_eq!(report.stats.delivered, 3, "{report:?}");
        assert_eq!(report.stats.abandoned, 0);
        // The dropped arrivals were re-entered by retries, so nothing is
        // recorded as dropped and the stream completes in full.
        assert!(outcome.payloads.iter().all(|p| !p.dropped));
        assert!(outcome.completed, "{outcome:?}");
        assert!(
            report.entries[1].retries >= 1,
            "payload 1 needed a retry to enter: {report:?}"
        );
        assert!(report.entries[1].entered);
        // Verdicts carry the settlement round.
        for e in &report.entries {
            assert!(e.verdict.is_delivered(), "{e:?}");
        }
    }

    #[test]
    fn reliability_budget_exhaustion_abandons() {
        // Spread producers: payload 1's producer is crashed forever, so
        // its retries all fail and the budget runs out -> Abandoned with
        // exactly max_retries spent; payload 0 floods and is Delivered.
        // (A ring, so the dead producer does not partition the wave.)
        let net = generators::ring(8, 1);
        let producer = NodeId(4); // k=2 spread: payload 1 at node 8/2
        let config = StreamConfig {
            k: 2,
            sources: SourcePlacement::Spread,
            max_rounds: 500,
            dynamics: Some(DynamicsConfig {
                faults: FaultPlan::none().crash(producer, 0),
                cycle: false,
            }),
            reliability: Some(
                RetryPolicy::FixedInterval {
                    interval: 3,
                    max_retries: 4,
                }
                .into(),
            ),
            ..StreamConfig::default()
        };
        let plan = plan_arrivals(&net, &config);
        assert_eq!(plan[1].node, producer);
        let (outcome, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        let report = outcome.reliability.as_ref().unwrap();
        assert_eq!(
            report.entries[1].verdict,
            dualgraph_sim::DeliveryVerdict::Abandoned { retries: 4 }
        );
        assert!(!report.entries[1].entered);
        assert!(report.entries[0].verdict.is_delivered());
        // Abandoned-without-entering surfaces as a dropped arrival, so
        // completion accounting keeps excluding it.
        assert!(outcome.payloads[1].dropped);
        // Full (all-node) coverage is impossible — the dead producer
        // itself never hears payload 0 — but the guarantee holds: every
        // non-abandoned payload is Delivered to all correct live nodes.
        assert!(!outcome.completed);
        assert!(outcome.payloads[0].completion_round.is_none());
        assert!(report.all_non_abandoned_delivered());
    }

    #[test]
    fn reliability_delivers_to_correct_live_nodes_despite_a_dead_node() {
        // Node 3 crashes before the wave reaches it and never recovers:
        // full coverage is impossible, but the guarantee is over correct
        // live nodes — the verdicts settle Delivered and the run stops
        // without burning max_rounds. (A ring, so the dead node does not
        // partition the correct population.)
        let net = generators::ring(6, 1);
        let config = StreamConfig {
            k: 2,
            max_rounds: 10_000,
            dynamics: Some(DynamicsConfig {
                faults: FaultPlan::none().crash(NodeId(3), 1),
                cycle: false,
            }),
            reliability: Some(
                RetryPolicy::AckGap {
                    gap: 6,
                    max_retries: 3,
                }
                .into(),
            ),
            ..StreamConfig::default()
        };
        let (outcome, mac) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        let report = outcome.reliability.as_ref().unwrap();
        assert!(report.stats.pending == 0 && report.stats.delivered == 2);
        assert!(
            !outcome.completed,
            "the dead node never got the payloads: {outcome:?}"
        );
        assert!(
            outcome.rounds_executed < 10_000,
            "settled verdicts stop the run"
        );
        // Independent check of the guarantee: every currently-correct
        // node knows both payloads.
        let known = mac.executor().known_payloads();
        let roles = mac.executor().roles();
        for (k, r) in known.iter().zip(roles) {
            if r.is_correct() {
                assert!(k.contains(PayloadId(0)) && k.contains(PayloadId(1)));
            }
        }
        assert!(!known[3].contains(PayloadId(0)), "node 3 is dark");
    }

    #[test]
    fn reliability_none_or_lossless_policy_is_transparent() {
        // On a fault-free run whose acks arrive well inside the gap, the
        // reliability layer issues no retries and must reproduce the
        // no-policy run bit for bit (payload stats, rounds, MAC stats).
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 28,
                reliable_p: 0.12,
                unreliable_p: 0.2,
            },
            19,
        );
        let base = StreamConfig::default().with_k(5).with_seed(6);
        let (plain, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(RandomDelivery::new(0.5, 23)),
            &base,
        )
        .unwrap();
        let (reliable, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(RandomDelivery::new(0.5, 23)),
            &base.clone().with_reliability(RetryPolicy::AckGap {
                gap: 10_000,
                max_retries: 3,
            }),
        )
        .unwrap();
        assert_eq!(reliable.payloads, plain.payloads);
        assert_eq!(reliable.rounds_executed, plain.rounds_executed);
        assert_eq!(reliable.mac, plain.mac);
        let report = reliable.reliability.unwrap();
        assert_eq!(report.stats.total_retries, 0);
        assert_eq!(report.stats.delivered, 5);
        assert!(plain.reliability.is_none());
    }

    #[test]
    fn reliability_waits_for_late_poisson_arrivals() {
        // Regression: verdicts of the already-arrived prefix can all be
        // final long before a late Poisson arrival's round — the session
        // must not declare itself settled (and stop) until every planned
        // arrival has been attempted and judged. Harmonic automata, so
        // the mid-run arrival can actually spread.
        let net = generators::line(6, 1);
        let config = StreamConfig {
            k: 3,
            arrivals: Arrivals::Poisson { mean_gap: 25.0 },
            max_rounds: 300_000,
            reliability: Some(
                RetryPolicy::AckGap {
                    gap: 200_000,
                    max_retries: 2,
                }
                .into(),
            ),
            ..StreamConfig::default()
        };
        let plan = plan_arrivals(&net, &config);
        assert!(plan[2].round > 0, "tail arrivals are mid-run");
        let (outcome, _) = run_stream_session(
            &net,
            StreamAlgorithm::PipelinedHarmonic { epsilon: 0.1 },
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        assert!(
            outcome.rounds_executed >= plan[2].round,
            "stopped before the last arrival: {outcome:?}"
        );
        let report = outcome.reliability.as_ref().unwrap();
        assert_eq!(report.entries.len(), 3, "every arrival tracked");
        assert_eq!(report.stats.delivered, 3, "{report:?}");
        assert!(outcome.completed);
    }

    #[test]
    fn epoch_segments_carry_retry_and_verdict_counts() {
        // A scheduled reliability run: retries and delivered verdicts are
        // attributed to epoch segments; totals tie out with the report.
        let line = generators::line(8, 1);
        let star = generators::star(8);
        let schedule =
            TopologySchedule::new(vec![Epoch::new(line, 3), Epoch::new(star, 50)]).unwrap();
        let config = StreamConfig {
            k: 4,
            max_rounds: 200,
            dynamics: Some(DynamicsConfig::default()),
            reliability: Some(
                RetryPolicy::FixedInterval {
                    interval: 2,
                    max_retries: 6,
                }
                .into(),
            ),
            ..StreamConfig::default()
        };
        let run = |config: &StreamConfig| {
            run_stream_scheduled(
                &schedule,
                StreamAlgorithm::PipelinedFlooding,
                Box::new(ReliableOnly::new()),
                config,
            )
            .unwrap()
        };
        let outcome = run(&config);
        let report = outcome.reliability.as_ref().unwrap();
        assert_eq!(report.stats.delivered, 4);
        let seg_retries: u64 = outcome.epochs.iter().map(|e| e.retries as u64).sum();
        let seg_delivered: usize = outcome.epochs.iter().map(|e| e.delivered).sum();
        assert_eq!(seg_retries, report.stats.total_retries);
        assert_eq!(seg_delivered, report.stats.delivered);
        // Health instrumentation leaves the segments alone, and its
        // run-wide ack histogram holds every segment's acks.
        let instrumented = run(&config.clone().with_health(HealthConfig { window: 16 }));
        assert_eq!(instrumented.epochs, outcome.epochs);
        let seg_acks: u64 = outcome.epochs.iter().map(|e| e.ack_latency.count).sum();
        assert_eq!(instrumented.health.unwrap().ack_latency.count, seg_acks);
    }

    #[test]
    fn bounded_flooding_with_max_budget_matches_pipelined() {
        // budget = u64::MAX can never age anything out: the bounded
        // algorithm must reproduce the plain pipelined stream exactly.
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 26,
                reliable_p: 0.11,
                unreliable_p: 0.2,
            },
            33,
        );
        let config = StreamConfig::default().with_k(5).with_seed(2);
        let run = |algorithm| {
            run_stream(
                &net,
                algorithm,
                Box::new(RandomDelivery::new(0.5, 11)),
                &config,
            )
            .unwrap()
        };
        let plain = run(StreamAlgorithm::PipelinedFlooding);
        let bounded = run(StreamAlgorithm::BoundedFlooding { budget: u64::MAX });
        assert_eq!(bounded.payloads, plain.payloads);
        assert_eq!(bounded.rounds_executed, plain.rounds_executed);
        assert_eq!(bounded.mac, plain.mac);
    }

    #[test]
    fn bounded_flooding_quiesces_after_completion() {
        // A finite budget ages every payload out: once the stream
        // completes, the network goes silent instead of saturating the
        // medium forever (the contention-managed-stream lever).
        let net = generators::line(10, 1);
        let (outcome, mac) = run_stream_session(
            &net,
            StreamAlgorithm::BoundedFlooding { budget: 40 },
            Box::new(ReliableOnly::new()),
            &StreamConfig::default().with_k(3),
        )
        .unwrap();
        assert!(outcome.completed);
        let mut exec = mac.into_executor();
        for _ in 0..200 {
            exec.step();
        }
        let settled = exec.outcome().sends;
        for _ in 0..50 {
            exec.step();
        }
        assert_eq!(exec.outcome().sends, settled, "all budgets exhausted");
    }

    #[test]
    fn health_instrumentation_reports_and_stays_unobtrusive() {
        let net = generators::line(20, 1);
        let base = StreamConfig::default().with_k(8);
        let plain = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &base,
        )
        .unwrap();
        assert!(plain.health.is_none());
        let instrumented = run_stream(
            &net,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &base.clone().with_health(HealthConfig { window: 8 }),
        )
        .unwrap();
        // Instrumentation must not perturb the run in any way.
        assert_eq!(instrumented.payloads, plain.payloads);
        assert_eq!(instrumented.rounds_executed, plain.rounds_executed);
        assert_eq!(instrumented.mac, plain.mac);
        let h = instrumented.health.expect("health enabled");
        assert_eq!(h.window, 8);
        assert_eq!(h.drop_rate, 0.0);
        assert_eq!(h.peak_pending_retries, 0, "no reliability layer");
        // Reliable line + batched flooding: every tracked bcast's
        // neighborhood is covered within the same round, so the
        // end-of-round pending-ack queue is always drained.
        assert_eq!(h.peak_pending_acks, 0);
        // All 8 payloads complete together at round 19, inside the final
        // 8-round window: throughput peaks at 1 payload/round.
        assert_eq!(h.peak_throughput, 1.0);
        assert_eq!(h.final_throughput, 1.0);
        // Static topology: exactly one epoch-0 segment carrying the run,
        // the same with health on or off.
        assert_eq!(instrumented.epochs, plain.epochs);
        let seg = &instrumented.epochs[..];
        assert_eq!(seg.len(), 1);
        assert_eq!(seg[0].epoch, 0);
        assert_eq!(seg[0].delivered, 8, "full coverage without a backend");
        assert_eq!(seg[0].drops, 0);
        assert_eq!(seg[0].retries, 0);
        // Every completed MAC acknowledgment landed in the histograms.
        assert_eq!(h.ack_latency.count, instrumented.mac.acked as u64);
        assert_eq!(seg[0].ack_latency, h.ack_latency);
        assert!(h.ack_latency.max >= h.ack_latency.p50);
    }

    #[test]
    fn swap_fired_ack_counts_in_the_new_segment() {
        // Leaf 3 of a star is crashed from round 0, so the hub's ack of
        // payload 0 waits for it until the swap to the second (identical)
        // epoch re-anchors the ack without the crashed leaf. The ack
        // fires between rounds 4 and 5, after the switch: it counts in
        // the segment that starts at round 5, although it is stamped 4.
        let star = generators::star(8);
        let schedule =
            TopologySchedule::new(vec![Epoch::new(star.clone(), 4), Epoch::new(star, 30)]).unwrap();
        let config = StreamConfig {
            max_rounds: 30,
            dynamics: Some(DynamicsConfig {
                faults: FaultPlan::none().crash(NodeId(3), 0),
                cycle: false,
            }),
            health: Some(HealthConfig { window: 8 }),
            ..StreamConfig::default()
        };
        let session = StreamSession::scheduled(
            &schedule,
            StreamAlgorithm::PipelinedFlooding,
            Box::new(ReliableOnly::new()),
            &config,
        )
        .unwrap();
        let (outcome, mac) = session.run();
        let record = mac.ack_records()[0];
        assert_eq!((record.ack_round, record.ack_latency()), (4, 4));
        let acks: Vec<u64> = outcome.epochs.iter().map(|e| e.ack_latency.count).collect();
        assert_eq!(acks, [0, 1]);
        let h = outcome.health.expect("health enabled");
        assert_eq!(h.ack_latency.count, outcome.mac.acked as u64);
    }
}
