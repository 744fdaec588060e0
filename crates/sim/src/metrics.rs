//! The derived-signal analysis layer over the trace events: a
//! dependency-free [`MetricsRegistry`] (counters, gauges, log-bucketed
//! quantile [`Histogram`]s), the sliding-window [`WindowedStats`]
//! instrumentation the stream runner threads through its drive loop, and
//! the [`TraceAnalyzer`] that reconstructs per-payload delivery timelines
//! from a [`TraceEvent`] stream.
//!
//! Everything here is a pure function of the events it consumes: no
//! clocks, no hash-order collections, no ambient entropy (the analyzer's
//! determinism lint covers this module). The hot-path entry points —
//! [`Histogram::record`] and [`WindowedStats::push`] — are alloc-free
//! after construction and listed in the analyzer's `[hot]` set.
//!
//! See `docs/OBSERVABILITY.md` for the quantile error-bound derivation
//! and the timeline-attribution semantics.

use dualgraph_net::NodeId;

use crate::message::PayloadId;
use crate::payload::MAX_PAYLOADS;
use crate::trace::{TraceEvent, TraceSink};

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution bits: each power-of-two value octave is split
/// into `2^HIST_SUB_BITS` linear sub-buckets (HDR-histogram style).
pub const HIST_SUB_BITS: u32 = 5;

/// Linear sub-buckets per octave (`2^HIST_SUB_BITS`).
const SUB_BUCKETS: u64 = 1 << HIST_SUB_BITS;

/// Total bucket count: values below [`SUB_BUCKETS`] get exact unit
/// buckets; each of the `64 - HIST_SUB_BITS` octaves above gets
/// [`SUB_BUCKETS`] sub-buckets.
const BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - HIST_SUB_BITS as usize + 1);

/// Log-bucketed quantile histogram over `u64` samples.
///
/// Layout: values `< 2^HIST_SUB_BITS` are recorded exactly (unit-width
/// buckets, zero error); larger values land in power-of-two octaves split
/// into `2^HIST_SUB_BITS` linear sub-buckets, so a bucket's width is at
/// most its lower bound divided by `2^HIST_SUB_BITS`.
///
/// **Error bound**: [`Histogram::quantile`] reports the inclusive upper
/// edge of the bucket holding the rank-`⌈q·count⌉` sample (clamped to the
/// recorded maximum), therefore for the exact rank-based quantile `x`:
///
/// ```text
/// x ≤ quantile(q) ≤ x · (1 + ε),   ε = 2^-HIST_SUB_BITS = 1/32 ≈ 3.2%
/// ```
///
/// — estimates never undershoot and overshoot by at most one bucket
/// width. Values below `2^HIST_SUB_BITS` are exact. The property suite
/// (`crates/sim/tests/metrics_histogram.rs`) pins this bracket across
/// adversarial distributions.
///
/// [`Histogram::record`] is alloc-free (the bucket array is allocated
/// once at construction) and branch-light; it is part of the analyzer's
/// declared hot set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Relative quantile-estimate error bound (`2^-HIST_SUB_BITS`).
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

    /// An empty histogram (one 15 KiB bucket-array allocation; recording
    /// never allocates again).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `value`.
    #[inline(always)]
    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            value as usize
        } else {
            // Octave = position of the leading bit; the top HIST_SUB_BITS
            // bits below it select the linear sub-bucket.
            let msb = 63 - value.leading_zeros();
            let shift = msb - HIST_SUB_BITS;
            let group = (msb - HIST_SUB_BITS) as usize;
            let sub = (value >> shift) as usize & (SUB_BUCKETS as usize - 1);
            SUB_BUCKETS as usize + (group << HIST_SUB_BITS) + sub
        }
    }

    /// `[lo, hi]` inclusive value bounds of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB_BUCKETS as usize {
            (i as u64, i as u64)
        } else {
            let group = (i >> HIST_SUB_BITS) as u32; // ≥ 1
            let sub = (i as u64) & (SUB_BUCKETS - 1);
            let shift = group - 1;
            let lo = (SUB_BUCKETS + sub) << shift;
            (lo, lo + ((1u64 << shift) - 1))
        }
    }

    /// Records one sample. Alloc-free; O(1).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile estimate (`0.0 < q ≤ 1.0`): the inclusive upper
    /// edge of the bucket holding the rank-`⌈q·count⌉` sample, clamped to
    /// the recorded maximum. `None` when empty. See the type docs for the
    /// bracket guarantee.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bounds(i).1.min(self.max));
            }
        }
        // Unreachable: `seen` reaches `self.count ≥ rank` at the last
        // nonempty bucket.
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Resets every counter without deallocating the bucket array.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// A compact copyable digest of the current state.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.p50().unwrap_or(0),
            p90: self.p90().unwrap_or(0),
            p99: self.p99().unwrap_or(0),
            p999: self.p999().unwrap_or(0),
        }
    }
}

/// Copyable digest of a [`Histogram`] (all figures `0` when empty).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// 99.9th-percentile estimate.
    pub p999: u64,
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Dependency-free named-metrics registry: counters (monotone `u64`),
/// gauges (signed point-in-time `i64`, with a tracked high-water mark),
/// and [`Histogram`]s, addressed by copyable ids so the hot update paths
/// are plain index arithmetic.
///
/// Registration order is the iteration order — reports rendered from a
/// registry are deterministic. Registering a name twice returns the
/// existing id (names are compared by value, linearly: registration is
/// setup-time, not hot).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64, i64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _, _)| *n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name, 0, i64::MIN));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) the histogram `name`.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| *n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name, Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `delta` to a counter. Alloc-free; O(1).
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Increments a counter by one. Alloc-free; O(1).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a gauge (also advancing its high-water mark). Alloc-free.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        let slot = &mut self.gauges[id.0];
        slot.1 = value;
        if value > slot.2 {
            slot.2 = value;
        }
    }

    /// Records a histogram sample. Alloc-free; O(1) — part of the
    /// analyzer's hot set via [`Histogram::record`].
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id.0].1
    }

    /// Highest value the gauge ever held (`None` before the first set).
    pub fn gauge_high_water(&self, id: GaugeId) -> Option<i64> {
        let mark = self.gauges[id.0].2;
        (mark != i64::MIN).then_some(mark)
    }

    /// The registered histogram (read access).
    pub fn histogram_ref(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].1
    }

    /// `(name, value)` over all counters, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// `(name, value)` over all gauges, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|&(n, v, _)| (n, v))
    }

    /// `(name, summary)` over all histograms, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, HistogramSummary)> + '_ {
        self.histograms.iter().map(|(n, h)| (*n, h.summary()))
    }
}

// ---------------------------------------------------------------------------
// WindowedStats
// ---------------------------------------------------------------------------

/// Fixed-size sliding window over per-round delivery counts with an O(1)
/// running sum: the stream runner's throughput instrument.
///
/// [`WindowedStats::push`] is alloc-free (the ring is allocated once at
/// construction) and part of the analyzer's declared hot set.
#[derive(Debug, Clone)]
pub struct WindowedStats {
    ring: Vec<u32>,
    pos: usize,
    filled: usize,
    deliveries: u64,
}

impl WindowedStats {
    /// A window over the last `window` rounds (`window ≥ 1`).
    pub fn new(window: usize) -> Self {
        WindowedStats {
            ring: vec![0; window.max(1)],
            pos: 0,
            filled: 0,
            deliveries: 0,
        }
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.ring.len()
    }

    /// Rounds currently covered (saturates at the window length).
    pub fn len(&self) -> usize {
        self.filled
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Pushes one round's delivery count, evicting the oldest once the
    /// window is full. Alloc-free; O(1).
    #[inline]
    pub fn push(&mut self, deliveries: u32) {
        if self.filled == self.ring.len() {
            self.deliveries -= u64::from(self.ring[self.pos]);
        } else {
            self.filled += 1;
        }
        self.ring[self.pos] = deliveries;
        self.pos = (self.pos + 1) % self.ring.len();
        self.deliveries += u64::from(deliveries);
    }

    /// Deliveries per round over the covered window (`0.0` when empty).
    pub fn throughput(&self) -> f64 {
        if self.filled == 0 {
            return 0.0;
        }
        self.deliveries as f64 / self.filled as f64
    }
}

// ---------------------------------------------------------------------------
// Stream-health surface
// ---------------------------------------------------------------------------

/// Opt-in stream-health instrumentation config: `StreamConfig::health` in
/// `dualgraph_broadcast::stream`. `None` there means no report and the
/// same run, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Sliding-window length in rounds for the throughput figures.
    pub window: usize,
}

impl Default for HealthConfig {
    /// A 32-round window.
    fn default() -> Self {
        HealthConfig { window: 32 }
    }
}

/// End-of-run stream-health report, surfaced through
/// `StreamOutcome::health` when [`HealthConfig`] is set. Its figures are
/// whole-run figures; the per-segment ones are in `StreamOutcome::epochs`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHealthReport {
    /// The sliding-window length the figures below used.
    pub window: usize,
    /// Windowed delivery throughput at end of run (payloads/round).
    pub final_throughput: f64,
    /// Highest windowed delivery throughput observed.
    pub peak_throughput: f64,
    /// Dropped arrivals ÷ arrivals attempted, at the end of the run.
    pub drop_rate: f64,
    /// High-water mark of the reliability layer's pending-retry queue
    /// (tracked payloads without a final verdict; `0` without a policy).
    pub peak_pending_retries: usize,
    /// High-water mark of the MAC layer's pending-ack queue.
    pub peak_pending_acks: usize,
    /// bcast → ack latency digest over the whole run.
    pub ack_latency: HistogramSummary,
}

// ---------------------------------------------------------------------------
// TraceAnalyzer
// ---------------------------------------------------------------------------

/// Where a payload's in-flight rounds went, classified per round of its
/// active window (first entry → settlement):
///
/// * **progress** — the payload's propagation frontier grew;
/// * **collision** — no growth and at least one node heard `⊤`: the
///   round was (at least partly) wasted on collisions;
/// * **adversary drop** — no growth, transmissions on the air, yet not a
///   single reception or collision anywhere: the adversary withheld
///   every unreliable delivery it could have made. A sender hearing its
///   own transmission is not a reception here. Under CR3 a collision is
///   silence by rule (no `⊤` event), so a round whose only traffic
///   collided lands here too;
/// * **idle** — everything else (no transmissions, or traffic that
///   progressed only other payloads).
///
/// The classes are disjoint and cover the window, so they sum to the
/// payload's total in-flight rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyAttribution {
    /// Rounds where the frontier grew.
    pub progress_rounds: u64,
    /// Stalled rounds with collisions on the air.
    pub collision_rounds: u64,
    /// Stalled rounds where the adversary withheld all deliveries.
    pub adversary_drop_rounds: u64,
    /// Remaining stalled rounds.
    pub idle_rounds: u64,
}

impl LatencyAttribution {
    /// Total classified rounds.
    pub fn total(&self) -> u64 {
        self.progress_rounds + self.collision_rounds + self.adversary_drop_rounds + self.idle_rounds
    }
}

/// One payload's reconstructed delivery timeline.
///
/// A payload *spreads* when some node hears it, so
/// [`PayloadTimeline::first_spread_round`] is the round of its first
/// reception, not of its first transmission. `Transmit` events carry the
/// whole message, but a transmission nobody hears — every listener
/// collided, or the adversary withheld the only unreliable edge — moves
/// no node's knowledge; the round-level attribution already charges such
/// rounds to collision or adversary drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadTimeline {
    /// The payload.
    pub payload: PayloadId,
    /// Round of the first accepted injection (`None` for payloads seeded
    /// before tracing began, e.g. the executor's construction-time source
    /// input, and for junk ids that never formally entered).
    pub inject_round: Option<u64>,
    /// Node of the first accepted injection.
    pub inject_node: Option<NodeId>,
    /// Round of the first reception carrying the payload.
    pub first_spread_round: Option<u64>,
    /// Cumulative propagation frontier: `(round, distinct nodes reached
    /// by end of round)`, one entry per round the frontier grew. The
    /// injection node itself is not a reception and is not counted, nor
    /// is a sender hearing its own transmission.
    pub frontier: Vec<(u64, u32)>,
    /// Distinct nodes that received the payload.
    pub nodes_reached: u32,
    /// Reliability retries attributed to the payload.
    pub retries: u32,
    /// Round of the first MAC `AckComplete` for the payload.
    pub first_ack_round: Option<u64>,
    /// The settled delivery verdict, as `(round, delivered)`.
    pub verdict: Option<(u64, bool)>,
    /// Per-round classification of the active window.
    pub attribution: LatencyAttribution,
}

impl PayloadTimeline {
    /// First round of the payload's active window: injection round, or
    /// first observed spread for pre-seeded payloads.
    pub fn start_round(&self) -> Option<u64> {
        self.inject_round.or(self.first_spread_round)
    }

    /// Last round of the active window: verdict round, first ack, or the
    /// last frontier growth, in that preference order.
    pub fn settle_round(&self) -> Option<u64> {
        self.verdict
            .map(|(r, _)| r)
            .or(self.first_ack_round)
            .or_else(|| self.frontier.last().map(|&(r, _)| r))
    }

    /// Injection → delivered-verdict latency in rounds (`None` unless a
    /// delivered verdict settled).
    pub fn delivery_latency(&self) -> Option<u64> {
        match (self.start_round(), self.verdict) {
            (Some(start), Some((round, true))) => Some(round.saturating_sub(start)),
            _ => None,
        }
    }
}

/// Per-round digest the analyzer keeps for attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RoundDigest {
    round: u64,
    transmits: u32,
    receptions: u32,
    collisions: u32,
}

/// Per-payload accumulation state.
#[derive(Debug, Clone)]
struct PayloadTrack {
    inject_round: Option<u64>,
    inject_node: Option<NodeId>,
    first_spread_round: Option<u64>,
    /// Distinct receiver bitmask, one bit per node index.
    reached: Vec<u64>,
    reached_count: u32,
    frontier: Vec<(u64, u32)>,
    retries: u32,
    first_ack_round: Option<u64>,
    verdict: Option<(u64, bool)>,
}

impl PayloadTrack {
    fn new() -> Self {
        PayloadTrack {
            inject_round: None,
            inject_node: None,
            first_spread_round: None,
            reached: Vec::new(),
            reached_count: 0,
            frontier: Vec::new(),
            retries: 0,
            first_ack_round: None,
            verdict: None,
        }
    }

    /// Marks `node` reached; returns `true` on first contact.
    fn mark(&mut self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        if word >= self.reached.len() {
            self.reached.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.reached[word] & mask != 0 {
            return false;
        }
        self.reached[word] |= mask;
        self.reached_count += 1;
        true
    }
}

/// Reconstructs per-payload delivery timelines from a [`TraceEvent`]
/// stream: injection → first observable spread → propagation frontier →
/// acknowledgment/verdict, with per-round latency attribution
/// ([`LatencyAttribution`]).
///
/// The analyzer is itself a [`TraceSink`], so it can consume a live run
/// (`session.run_traced(&mut analyzer)`) or a recorded stream
/// ([`TraceAnalyzer::analyze`]). It relies on the engine events of one
/// round (`RoundStart`, `Transmit`, `Reception`, `Collision`) arriving
/// together, rounds in increasing order, a round's transmissions before
/// its receptions. The events of what happens between rounds (`Inject`,
/// `Retry`, a budget-abandon `Verdict`, the `AckComplete` of an ack fired
/// between rounds) carry the previous round's number, and such an
/// `AckComplete` follows the next round's engine events; the analyzer
/// records their rounds but never orders by them.
/// It is entirely offline-grade code: it allocates freely and never
/// belongs on the hot path.
#[derive(Debug, Clone)]
pub struct TraceAnalyzer {
    tracks: Vec<Option<PayloadTrack>>,
    digests: Vec<RoundDigest>,
    cur: RoundDigest,
    rounds_executed: u64,
    /// Nodes that transmitted in round `sent_round`, one bit per node
    /// index. Under every collision rule the only message a transmitter
    /// can receive is its own, and that is neither spread nor a
    /// reception.
    sent: Vec<u64>,
    sent_round: u64,
}

impl Default for TraceAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceAnalyzer {
    /// An empty analyzer.
    pub fn new() -> Self {
        TraceAnalyzer {
            tracks: Vec::new(),
            digests: Vec::new(),
            cur: RoundDigest::default(),
            rounds_executed: 0,
            sent: Vec::new(),
            sent_round: 0,
        }
    }

    /// Consumes a recorded stream and reports on it.
    pub fn analyze(events: &[TraceEvent]) -> TraceReport {
        let mut a = TraceAnalyzer::new();
        for &e in events {
            a.emit(e);
        }
        a.finish()
    }

    fn track_mut(&mut self, payload: PayloadId) -> Option<&mut PayloadTrack> {
        let i = payload.0 as usize;
        if i >= MAX_PAYLOADS {
            return None;
        }
        if i >= self.tracks.len() {
            self.tracks.resize_with(i + 1, || None);
        }
        Some(self.tracks[i].get_or_insert_with(PayloadTrack::new))
    }

    /// Closes the digest of the round currently being accumulated.
    fn flush_round(&mut self) {
        if self.cur.round != 0
            || self.cur.transmits | self.cur.receptions | self.cur.collisions != 0
        {
            self.digests.push(self.cur);
        }
        self.cur = RoundDigest::default();
    }

    fn digest_for(&mut self, round: u64) -> &mut RoundDigest {
        if self.cur.round != round {
            self.flush_round();
            self.cur.round = round;
        }
        &mut self.cur
    }

    /// Finalizes the analysis. (Consumes the analyzer: the digest log and
    /// per-payload state are turned into the report in place.)
    pub fn finish(mut self) -> TraceReport {
        self.flush_round();
        let digests = self.digests;
        let mut delivery_latency = Histogram::new();
        let mut ack_latency = Histogram::new();
        let mut timelines: Vec<PayloadTimeline> = Vec::new();
        for (i, track) in self.tracks.into_iter().enumerate() {
            let Some(t) = track else { continue };
            let mut timeline = PayloadTimeline {
                payload: PayloadId(i as u64),
                inject_round: t.inject_round,
                inject_node: t.inject_node,
                first_spread_round: t.first_spread_round,
                frontier: t.frontier,
                nodes_reached: t.reached_count,
                retries: t.retries,
                first_ack_round: t.first_ack_round,
                verdict: t.verdict,
                attribution: LatencyAttribution::default(),
            };
            if let (Some(start), Some(settle)) = (timeline.start_round(), timeline.settle_round()) {
                let mut growth = timeline.frontier.iter().map(|&(r, _)| r).peekable();
                let from = digests.partition_point(|d| d.round < start);
                for d in &digests[from..] {
                    if d.round > settle {
                        break;
                    }
                    while growth.peek().is_some_and(|&r| r < d.round) {
                        growth.next();
                    }
                    let a = &mut timeline.attribution;
                    if growth.peek() == Some(&d.round) {
                        a.progress_rounds += 1;
                    } else if d.collisions > 0 {
                        a.collision_rounds += 1;
                    } else if d.transmits > 0 && d.receptions == 0 {
                        a.adversary_drop_rounds += 1;
                    } else {
                        a.idle_rounds += 1;
                    }
                }
            }
            if let Some(l) = timeline.delivery_latency() {
                delivery_latency.record(l);
            }
            if let (Some(start), Some(ack)) = (timeline.start_round(), timeline.first_ack_round) {
                ack_latency.record(ack.saturating_sub(start));
            }
            timelines.push(timeline);
        }
        TraceReport {
            rounds_executed: self.rounds_executed,
            timelines,
            delivery_latency,
            ack_latency,
        }
    }
}

impl TraceSink for TraceAnalyzer {
    fn emit(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::RoundStart { round } => {
                self.rounds_executed = self.rounds_executed.max(round);
                let _ = self.digest_for(round);
            }
            TraceEvent::Transmit { round, node, .. } => {
                self.digest_for(round).transmits += 1;
                // A round's transmits precede its receptions.
                if self.sent_round != round {
                    self.sent.fill(0);
                    self.sent_round = round;
                }
                let word = node.index() / 64;
                if word >= self.sent.len() {
                    self.sent.resize(word + 1, 0);
                }
                self.sent[word] |= 1 << (node.index() % 64);
            }
            TraceEvent::Reception {
                round,
                node,
                message,
            } => {
                let word = self.sent.get(node.index() / 64).copied().unwrap_or(0);
                if self.sent_round == round && (word >> (node.index() % 64)) & 1 == 1 {
                    return;
                }
                self.digest_for(round).receptions += 1;
                for p in message.payloads.iter() {
                    if let Some(t) = self.track_mut(p) {
                        if t.mark(node) {
                            t.first_spread_round.get_or_insert(round);
                            match t.frontier.last_mut() {
                                Some(last) if last.0 == round => last.1 += 1,
                                _ => {
                                    let count = t.reached_count;
                                    t.frontier.push((round, count));
                                }
                            }
                        }
                    }
                }
            }
            TraceEvent::Collision { round, .. } => self.digest_for(round).collisions += 1,
            TraceEvent::Inject {
                round,
                node,
                payload,
                accepted,
            } => {
                if accepted {
                    if let Some(t) = self.track_mut(payload) {
                        if t.inject_round.is_none() {
                            t.inject_round = Some(round);
                            t.inject_node = Some(node);
                        }
                    }
                }
            }
            TraceEvent::Retry { payload, .. } => {
                if let Some(t) = self.track_mut(payload) {
                    t.retries += 1;
                }
            }
            TraceEvent::AckComplete { round, payload, .. } => {
                if let Some(t) = self.track_mut(payload) {
                    t.first_ack_round.get_or_insert(round);
                }
            }
            TraceEvent::Verdict {
                round,
                payload,
                delivered,
            } => {
                if let Some(t) = self.track_mut(payload) {
                    t.verdict.get_or_insert((round, delivered));
                }
            }
            TraceEvent::EpochSwitch { .. }
            | TraceEvent::Fault { .. }
            | TraceEvent::QuorumPhase { .. } => {}
        }
    }
}

/// The [`TraceAnalyzer`]'s end product.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Highest executed round observed.
    pub rounds_executed: u64,
    /// Per-payload timelines, in payload-id order (only ids that appeared
    /// in the stream).
    pub timelines: Vec<PayloadTimeline>,
    /// Injection → delivered-verdict latency distribution.
    pub delivery_latency: Histogram,
    /// Injection → first-`AckComplete` latency distribution.
    pub ack_latency: Histogram,
}

impl TraceReport {
    /// The timeline of `payload`, if it appeared in the stream.
    pub fn timeline(&self, payload: PayloadId) -> Option<&PayloadTimeline> {
        self.timelines.iter().find(|t| t.payload == payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, ProcessId};

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.quantile(1.0), Some(31));
        assert_eq!(h.quantile(1.0 / 32.0), Some(0));
        assert_eq!(h.mean(), Some(15.5));
    }

    #[test]
    fn histogram_quantiles_bracket_within_bound() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (0..1000).map(|i| (i * i) as u64 + 1).collect();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let est = h.quantile(q).expect("nonempty");
            assert!(est >= exact, "q={q}: {est} < {exact}");
            assert!(
                est as f64 <= exact as f64 * (1.0 + Histogram::RELATIVE_ERROR),
                "q={q}: {est} overshoots {exact}"
            );
        }
    }

    #[test]
    fn histogram_bucket_layout_is_continuous() {
        // Every bucket's hi + 1 is the next bucket's lo, and index() maps
        // each bound into its own bucket.
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = Histogram::bounds(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(Histogram::index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::index(hi), i, "hi of bucket {i}");
            if hi < u64::MAX {
                assert_eq!(Histogram::bounds(i + 1).0, hi + 1, "gap after bucket {i}");
            }
        }
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_clear_resets() {
        let mut h = Histogram::new();
        h.record(7);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn registry_roundtrips_and_dedupes() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("rounds");
        let g = r.gauge("pending");
        let h = r.histogram("ack_latency");
        assert_eq!(r.counter("rounds"), c);
        r.inc(c);
        r.add(c, 2);
        r.set_gauge(g, 5);
        r.set_gauge(g, 3);
        r.record(h, 10);
        assert_eq!(r.counter_value(c), 3);
        assert_eq!(r.gauge_value(g), 3);
        assert_eq!(r.gauge_high_water(g), Some(5));
        assert_eq!(r.histogram_ref(h).count(), 1);
        assert_eq!(r.counters().collect::<Vec<_>>(), vec![("rounds", 3)]);
        assert_eq!(r.gauges().collect::<Vec<_>>(), vec![("pending", 3)]);
        assert_eq!(r.histograms().count(), 1);
    }

    #[test]
    fn windowed_stats_evict_oldest() {
        let mut w = WindowedStats::new(2);
        assert_eq!(w.throughput(), 0.0);
        w.push(4);
        assert_eq!(w.len(), 1);
        assert_eq!(w.throughput(), 4.0);
        w.push(2);
        assert_eq!(w.throughput(), 3.0);
        w.push(0); // evicts 4
        assert_eq!(w.len(), 2);
        assert_eq!(w.throughput(), 1.0);
        assert_eq!(w.window(), 2);
    }

    fn ev_inject(round: u64, node: u32, payload: u64) -> TraceEvent {
        TraceEvent::Inject {
            round,
            node: NodeId(node),
            payload: PayloadId(payload),
            accepted: true,
        }
    }

    fn ev_rcv(round: u64, node: u32, payload: u64) -> TraceEvent {
        TraceEvent::Reception {
            round,
            node: NodeId(node),
            message: Message::with_payload(ProcessId(0), PayloadId(payload)),
        }
    }

    #[test]
    fn analyzer_reconstructs_timeline_and_attribution() {
        let events = vec![
            ev_inject(0, 0, 0),
            TraceEvent::RoundStart { round: 1 },
            TraceEvent::Transmit {
                round: 1,
                node: NodeId(0),
                message: Message::with_payload(ProcessId(0), PayloadId(0)),
            },
            ev_rcv(1, 1, 0),
            // Round 2: transmissions, a collision, no growth.
            TraceEvent::RoundStart { round: 2 },
            TraceEvent::Transmit {
                round: 2,
                node: NodeId(0),
                message: Message::with_payload(ProcessId(0), PayloadId(0)),
            },
            TraceEvent::Collision {
                round: 2,
                node: NodeId(2),
            },
            // Round 3: transmissions, nothing delivered anywhere.
            TraceEvent::RoundStart { round: 3 },
            TraceEvent::Transmit {
                round: 3,
                node: NodeId(0),
                message: Message::with_payload(ProcessId(0), PayloadId(0)),
            },
            // Round 4: growth again, then ack + verdict.
            TraceEvent::RoundStart { round: 4 },
            TraceEvent::Transmit {
                round: 4,
                node: NodeId(0),
                message: Message::with_payload(ProcessId(0), PayloadId(0)),
            },
            ev_rcv(4, 2, 0),
            TraceEvent::AckComplete {
                round: 4,
                source: NodeId(0),
                payload: PayloadId(0),
            },
            TraceEvent::Verdict {
                round: 4,
                payload: PayloadId(0),
                delivered: true,
            },
        ];
        let report = TraceAnalyzer::analyze(&events);
        assert_eq!(report.rounds_executed, 4);
        let t = report.timeline(PayloadId(0)).expect("tracked");
        assert_eq!(t.inject_round, Some(0));
        assert_eq!(t.inject_node, Some(NodeId(0)));
        assert_eq!(t.first_spread_round, Some(1));
        assert_eq!(t.frontier, vec![(1, 1), (4, 2)]);
        assert_eq!(t.nodes_reached, 2);
        assert_eq!(t.first_ack_round, Some(4));
        assert_eq!(t.verdict, Some((4, true)));
        assert_eq!(t.start_round(), Some(0));
        assert_eq!(t.settle_round(), Some(4));
        assert_eq!(t.delivery_latency(), Some(4));
        let a = t.attribution;
        assert_eq!(a.progress_rounds, 2, "{a:?}");
        assert_eq!(a.collision_rounds, 1, "{a:?}");
        assert_eq!(a.adversary_drop_rounds, 1, "{a:?}");
        assert_eq!(a.idle_rounds, 0, "{a:?}");
        assert_eq!(a.total(), 4);
        assert_eq!(report.delivery_latency.count(), 1);
        assert_eq!(report.delivery_latency.quantile(0.5), Some(4));
        assert_eq!(report.ack_latency.count(), 1);
    }

    #[test]
    fn analyzer_handles_preseeded_and_duplicate_receptions() {
        // No Inject event (construction-time seed): the window starts at
        // first spread; duplicate receptions don't regrow the frontier.
        let events = vec![
            TraceEvent::RoundStart { round: 1 },
            ev_rcv(1, 1, 0),
            TraceEvent::RoundStart { round: 2 },
            ev_rcv(2, 1, 0),
        ];
        let report = TraceAnalyzer::analyze(&events);
        let t = report.timeline(PayloadId(0)).expect("tracked");
        assert_eq!(t.inject_round, None);
        assert_eq!(t.start_round(), Some(1));
        assert_eq!(t.nodes_reached, 1);
        assert_eq!(t.frontier, vec![(1, 1)]);
        assert_eq!(t.settle_round(), Some(1));
    }

    fn run_into_analyzer(
        net: &dualgraph_net::DualGraph,
        adversary: Box<dyn crate::Adversary>,
        slots: Vec<crate::ProcessSlot>,
        rule: crate::CollisionRule,
        rounds: u64,
    ) -> TraceReport {
        let mut exec = crate::Executor::from_slots(
            net,
            slots,
            adversary,
            crate::ExecutorConfig {
                rule,
                ..crate::ExecutorConfig::default()
            },
        )
        .unwrap();
        let mut analyzer = TraceAnalyzer::new();
        for _ in 0..rounds {
            exec.step_traced(&mut analyzer);
        }
        analyzer.finish()
    }

    #[test]
    fn analyzer_skips_a_senders_own_reception() {
        // Flooding a 3-node line: node 0 reaches node 1 in round 1 and
        // node 1 reaches node 2 in round 2. The engine also delivers each
        // sender its own message, which is neither spread nor reception.
        let net = dualgraph_net::generators::line(3, 1);
        for rule in crate::CollisionRule::ALL {
            let report = run_into_analyzer(
                &net,
                Box::new(crate::ReliableOnly::new()),
                crate::Flooder::slots(3),
                rule,
                2,
            );
            let t = report.timeline(PayloadId(0)).expect("tracked");
            assert_eq!(t.frontier, vec![(1, 1), (2, 2)], "{rule:?}");
            assert_eq!(t.nodes_reached, 2, "{rule:?}");
            assert_eq!(t.attribution.progress_rounds, 2, "{rule:?}");
        }
    }

    #[test]
    fn analyzer_attributes_silenced_engine_rounds_to_adversary_drops() {
        // Harmonic on a 4-cycle: node 2 hears the payload only from nodes
        // 1 and 3. In a round where both transmit, every listener hears
        // two senders: CollisionSeeker resolves that to silence under CR4,
        // and CR3 resolves it to silence by rule. Such rounds carry
        // transmissions and no reception but the senders' own, so they
        // are adversary drops inside node 2's wait.
        let net = dualgraph_net::generators::ring(4, 1);
        for rule in [crate::CollisionRule::Cr3, crate::CollisionRule::Cr4] {
            let harmonic = crate::automata::Backoff::Harmonic { period: 2 };
            let slots = crate::automata::BackoffProcess::slots(4, harmonic, 7);
            let report = run_into_analyzer(
                &net,
                Box::new(crate::CollisionSeeker::new()),
                slots,
                rule,
                400,
            );
            let t = report.timeline(PayloadId(0)).expect("tracked");
            assert!(t.attribution.adversary_drop_rounds > 0, "{rule:?}: {t:?}");
            assert_eq!(t.attribution.collision_rounds, 0, "{rule:?}: {t:?}");
        }
    }
}
