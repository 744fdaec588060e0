//! Observability benchmarks: the trace layer's overhead envelope, the
//! per-phase wall-clock profile of an engine round, and the trace-diff
//! harness that localizes engine divergence to the first differing event.
//!
//! Three families, all feeding `BENCH_engine.json` / `--trace-diff`:
//!
//! * **overhead** — the dense flooding workload timed three ways: plain
//!   `step` (untraced), `step_traced(&mut NullSink)` (must be the *same
//!   machine code* — the `TraceSink::ENABLED` guards compile out), and
//!   `step_traced(&mut TraceAnalyzer)` (the metrics stack consuming the
//!   live stream, budgeted at ≤ 1.3× the untraced round);
//! * **phase profile** — drives the `ProcessTable` sweeps and the
//!   adversary's delivery sampling *in isolation* against the same
//!   all-senders steady state the flooding workload settles into, so the
//!   full-step cost decomposes into transmit-sweep vs receive-sweep vs
//!   adversary-sample shares;
//! * **trace-diff** — replays one chatter workload on the optimized
//!   enum-dispatch engine and the naive reference oracle, recording both
//!   event streams into `Vec<TraceEvent>`, and reports the first
//!   diverging event (`None` when the engines agree — the shipping
//!   state). A seeded mutation (perturbed adversary seed on one side)
//!   demonstrates the localization.

use std::time::Instant;

use dualgraph_broadcast::stream::{
    Arrivals, DynamicsConfig, SourcePlacement, StreamAlgorithm, StreamConfig, StreamSession,
};
use dualgraph_net::{DualGraph, FixedBitSet, NodeId};
use dualgraph_sim::{
    first_divergence, Adversary, Assignment, BurstyDelivery, ChatterProcess, Divergence, Executor,
    ExecutorConfig, Flooder, JsonlSink, Message, NullSink, PayloadId, ProcessId, ProcessTable,
    RandomDelivery, Reception, ReferenceExecutor, RoundContext, TraceAnalyzer, TraceEvent,
    TraceReport, WithRandomCr4,
};

use crate::dynamics_bench;
use crate::engine_bench::{time_steps, Dispatch, EngineMeasurement, CHATTER_RATE};
use crate::reliability_bench;

/// Builds the dense flooding executor on the enum-dispatch path — the
/// exact workload `engine_bench::measure_flooding` times untraced, so the
/// traced measurements below are apples-to-apples against it.
fn flooding_executor<'a>(net: &'a DualGraph) -> Executor<'a> {
    Executor::from_slots(
        net,
        Flooder::slots(net.len()),
        Box::new(RandomDelivery::new(0.5, 7)),
        ExecutorConfig::default(),
    )
    .expect("flooding workload construction")
}

/// Times `rounds` of the dense flooding workload stepped through
/// `step_traced(&mut NullSink)`.
///
/// The overhead gate compares this against the untraced
/// [`crate::engine_bench::measure_flooding`] run: the `NullSink`
/// instantiation is what every plain `step` delegates to, so any measured
/// gap beyond scheduler noise is a regression in the zero-overhead
/// guarantee.
pub fn measure_flooding_traced_null(net: &DualGraph, rounds: u64) -> EngineMeasurement {
    let mut exec = flooding_executor(net);
    time_steps(rounds, || {
        exec.step_traced(&mut NullSink);
    })
}

/// Times `rounds` of the dense flooding workload stepped through
/// `step_traced(&mut TraceAnalyzer)` and returns the analyzer's report
/// alongside the timing (so callers can sanity-check what the run paid
/// for). Only the steps are timed: [`TraceAnalyzer::finish`] runs after
/// the timer stops.
pub fn measure_flooding_traced_analyzer(
    net: &DualGraph,
    rounds: u64,
) -> (EngineMeasurement, TraceReport) {
    let mut exec = flooding_executor(net);
    let mut analyzer = TraceAnalyzer::new();
    let m = time_steps(rounds, || {
        exec.step_traced(&mut analyzer);
    });
    (m, analyzer.finish())
}

/// The traced/untraced cost triple for one network size, as landed in the
/// `trace_overhead` section of `BENCH_engine.json`.
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Network size.
    pub n: usize,
    /// Untraced `step` (the plain flooding measurement).
    pub untraced: EngineMeasurement,
    /// `step_traced(&mut NullSink)` — must match `untraced` within noise.
    pub null_sink: EngineMeasurement,
    /// `step_traced(&mut TraceAnalyzer)` — the metrics stack on the live
    /// stream.
    pub analyzer: EngineMeasurement,
}

impl TraceOverhead {
    /// `null_sink` cost relative to `untraced` (1.0 = identical).
    pub fn null_ratio(&self) -> f64 {
        self.null_sink.ns_per_round() / self.untraced.ns_per_round()
    }

    /// `analyzer` cost relative to `untraced`.
    pub fn analyzer_ratio(&self) -> f64 {
        self.analyzer.ns_per_round() / self.untraced.ns_per_round()
    }
}

/// Measures the overhead triple for size `n`: untraced, `NullSink`, and
/// `TraceAnalyzer` runs over the same flooding workload and round budget.
///
/// The three arms are *interleaved* — one warm-up pass, then `reps`
/// rounds of (untraced, null, analyzer) back to back, taking the min per
/// arm. Measuring each arm in its own block instead would let frequency
/// scaling and cache warm-up drift bias whichever arm runs first: the
/// `NullSink` arm is the same machine code as the untraced one, so any
/// block-ordered measurement showing a gap is measuring the machine, not
/// the code.
pub fn measure_trace_overhead(net: &DualGraph, rounds: u64, reps: usize) -> TraceOverhead {
    let run_untraced = || crate::engine_bench::measure_flooding(net, rounds, Dispatch::Enum);
    let run_null = || measure_flooding_traced_null(net, rounds);
    let run_analyzer = || measure_flooding_traced_analyzer(net, rounds).0;
    // Warm-up: touch all three code paths before any timed comparison.
    let mut untraced = run_untraced();
    let mut null_sink = run_null();
    let mut analyzer = run_analyzer();
    let keep_min = |best: &mut EngineMeasurement, m: EngineMeasurement| {
        if m.elapsed_ns < best.elapsed_ns {
            *best = m;
        }
    };
    for _ in 0..reps.max(1) {
        keep_min(&mut untraced, run_untraced());
        keep_min(&mut null_sink, run_null());
        keep_min(&mut analyzer, run_analyzer());
    }
    TraceOverhead {
        n: net.len(),
        untraced,
        null_sink,
        analyzer,
    }
}

/// Wall-clock decomposition of the engine round into its three dominant
/// phases, measured in isolation against the all-senders steady state.
///
/// The phases don't sum to `full_step_ns` — the full step also pays
/// collision resolution, the reaching-arena build, and bookkeeping the
/// isolated sweeps skip — but their *ratios* locate where a regression
/// lives before anyone reaches for a profiler.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// Network size.
    pub n: usize,
    /// Rounds per timed phase loop.
    pub rounds: u64,
    /// Total ns across `rounds` transmit sweeps (`ProcessTable::transmit_all`).
    pub transmit_ns: u128,
    /// Total ns across `rounds` receive sweeps (`ProcessTable::receive_all`).
    pub receive_ns: u128,
    /// Total ns across `rounds` adversary delivery-sampling sweeps
    /// (`Adversary::unreliable_deliveries` per sender).
    pub adversary_ns: u128,
    /// Total ns across `rounds` full `Executor::step` rounds on the same
    /// workload, for scale.
    pub full_step_ns: u128,
}

impl PhaseProfile {
    /// Per-round nanoseconds for one phase total.
    fn per_round(&self, total: u128) -> f64 {
        total as f64 / self.rounds.max(1) as f64
    }

    /// Transmit-sweep ns/round.
    pub fn transmit_ns_per_round(&self) -> f64 {
        self.per_round(self.transmit_ns)
    }

    /// Receive-sweep ns/round.
    pub fn receive_ns_per_round(&self) -> f64 {
        self.per_round(self.receive_ns)
    }

    /// Adversary-sample ns/round.
    pub fn adversary_ns_per_round(&self) -> f64 {
        self.per_round(self.adversary_ns)
    }

    /// Full-step ns/round.
    pub fn full_step_ns_per_round(&self) -> f64 {
        self.per_round(self.full_step_ns)
    }
}

/// Profiles the engine round's phases on the flooding steady state of
/// `net`: every node informed and transmitting, `RandomDelivery(0.5)`
/// sampling targets for every sender.
pub fn phase_profile(net: &DualGraph, rounds: u64) -> PhaseProfile {
    let n = net.len();

    // All-senders steady state: activate and inform every node with one
    // synthetic reception sweep, after which every Flooder transmits every
    // round — the same regime the flooding workload settles into.
    let mut table = ProcessTable::from_slots(Flooder::slots(n));
    let mut active_from: Vec<Option<u64>> = vec![Some(1); n];
    let wake: Vec<Reception> =
        vec![Reception::Message(Message::with_payload(ProcessId(0), PayloadId(0),)); n];
    table.receive_all(1, &mut active_from, None, &wake);

    // Transmit sweeps. The buffer is cleared per round exactly like the
    // executor's send pass; the last round's senders feed the adversary
    // phase below.
    let mut senders: Vec<(NodeId, Message)> = Vec::new();
    let start = Instant::now();
    for r in 0..rounds {
        senders.clear();
        table.transmit_all(2 + r, &active_from, None, &mut senders);
    }
    let transmit_ns = start.elapsed().as_nanos();

    // Receive sweeps: re-deliver the synthetic message set every round
    // (content is irrelevant to sweep cost — the payload union is a
    // no-op after the first absorb).
    let start = Instant::now();
    for r in 0..rounds {
        table.receive_all(2 + r, &mut active_from, None, &wake);
    }
    let receive_ns = start.elapsed().as_nanos();

    // Adversary sampling: one `unreliable_deliveries` call per sender per
    // round, against the captured steady-state sender set.
    let mut adversary = RandomDelivery::new(0.5, 7);
    let assignment = Assignment::identity(n);
    let informed = FixedBitSet::from_indices(n, 0..n);
    let ctx = RoundContext {
        round: 2,
        network: net,
        assignment: &assignment,
        senders: &senders,
        informed: &informed,
    };
    let mut targets: Vec<NodeId> = Vec::new();
    let start = Instant::now();
    for _ in 0..rounds {
        targets.clear();
        for &(node, _) in &senders {
            adversary.unreliable_deliveries(&ctx, node, &mut targets);
        }
    }
    let adversary_ns = start.elapsed().as_nanos();

    let full = crate::engine_bench::measure_flooding(net, rounds, Dispatch::Enum);

    PhaseProfile {
        n,
        rounds,
        transmit_ns,
        receive_ns,
        adversary_ns,
        full_step_ns: full.elapsed_ns,
    }
}

/// Which engine a trace-diff side replays on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEngine {
    /// The optimized executor on the batched enum-dispatch path.
    Enum,
    /// The naive reference oracle.
    Reference,
}

/// Replays the chatter workload (`ChatterProcess` rate 3/8 against
/// `RandomDelivery(0.5, adversary_seed)`) for `rounds` rounds on the
/// chosen engine and returns its full event stream.
///
/// Process seeding is fixed by `seed`; the adversary seed is separate so
/// the mutated diff can perturb delivery alone.
pub fn collect_chatter_trace(
    net: &DualGraph,
    seed: u64,
    adversary_seed: u64,
    rounds: u64,
    engine: TraceEngine,
) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = Vec::new();
    let adversary = Box::new(RandomDelivery::new(0.5, adversary_seed));
    match engine {
        TraceEngine::Enum => {
            let mut exec = Executor::from_slots(
                net,
                ChatterProcess::slots(net.len(), seed, CHATTER_RATE),
                adversary,
                ExecutorConfig::default(),
            )
            .expect("trace-diff workload construction");
            for _ in 0..rounds {
                exec.step_traced(&mut events);
            }
        }
        TraceEngine::Reference => {
            let mut exec = ReferenceExecutor::new(
                net,
                ChatterProcess::boxed(net.len(), seed, CHATTER_RATE),
                adversary,
                ExecutorConfig::default(),
            )
            .expect("trace-diff workload construction");
            for _ in 0..rounds {
                exec.step_traced(&mut events);
            }
        }
    }
    events
}

/// The trace-diff verdict: both event streams plus the first divergence,
/// if any.
#[derive(Debug)]
pub struct TraceDiff {
    /// Events recorded on the optimized enum-dispatch engine.
    pub optimized: Vec<TraceEvent>,
    /// Events recorded on the reference oracle.
    pub reference: Vec<TraceEvent>,
    /// First differing event, or `None` when the streams are identical.
    pub divergence: Option<Divergence>,
}

/// Replays the chatter workload on both engines with identical seeds and
/// diffs the event streams. `None` divergence is the healthy outcome: the
/// optimized engine is event-for-event faithful to the oracle.
pub fn trace_diff(net: &DualGraph, seed: u64, rounds: u64) -> TraceDiff {
    let optimized = collect_chatter_trace(net, seed, seed, rounds, TraceEngine::Enum);
    let reference = collect_chatter_trace(net, seed, seed, rounds, TraceEngine::Reference);
    let divergence = first_divergence(&optimized, &reference);
    TraceDiff {
        optimized,
        reference,
        divergence,
    }
}

/// [`trace_diff`] with a seeded mutation: the reference side runs a
/// perturbed adversary seed, standing in for a buggy engine. The harness
/// must localize this to a concrete first event — the demonstration that
/// a real divergence wouldn't scroll past unnoticed.
pub fn trace_diff_mutated(net: &DualGraph, seed: u64, rounds: u64) -> TraceDiff {
    let optimized = collect_chatter_trace(net, seed, seed, rounds, TraceEngine::Enum);
    let reference = collect_chatter_trace(net, seed, seed ^ 0x5EED, rounds, TraceEngine::Reference);
    let divergence = first_divergence(&optimized, &reference);
    TraceDiff {
        optimized,
        reference,
        divergence,
    }
}

/// Runs the reliability stream workload (cycled 16-epoch churn, ~10%
/// crash/recovery faults, bursty adversary, ack-gap retries) traced into
/// a [`JsonlSink`] and returns the rendered JSONL — the payload behind
/// the experiments binary's `--trace-jsonl PATH` flag.
///
/// `k` payloads, single batch source. Panics if the stream fails to
/// complete — a capture of a broken run would be misleading as a CI
/// artifact.
pub fn capture_stream_jsonl(n: usize, k: usize) -> String {
    let schedule = dynamics_bench::churn_workload(n);
    let seed = 0xAC4B;
    let config = StreamConfig {
        k,
        arrivals: Arrivals::Batch,
        sources: SourcePlacement::Single,
        max_rounds: 200_000,
        dynamics: Some(DynamicsConfig {
            faults: reliability_bench::fault_plan(n),
            cycle: true,
        }),
        reliability: Some(reliability_bench::POLICY.into()),
        ..StreamConfig::default()
    };
    let session = StreamSession::scheduled(
        &schedule,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(WithRandomCr4::new(
            BurstyDelivery::new(0.15, 0.4, seed),
            seed ^ 0x9E37,
        )),
        &config,
    )
    .expect("trace capture workload construction");
    let mut sink = JsonlSink::new();
    let (outcome, _) = session.run_traced(&mut sink);
    let report = outcome
        .reliability
        .expect("trace capture run carries a reliability report");
    assert_eq!(
        report.stats.pending, 0,
        "trace capture run must settle every verdict (n={n}, k={k})"
    );
    assert_eq!(
        report.stats.delivered, k,
        "trace capture run must deliver every payload (n={n}, k={k}): {:?}",
        report.stats
    );
    sink.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_bench::workload_network;

    #[test]
    fn traced_measurements_run() {
        let net = workload_network(33);
        let null = measure_flooding_traced_null(&net, 50);
        assert_eq!(null.rounds, 50);
        let (analyzed, report) = measure_flooding_traced_analyzer(&net, 50);
        assert_eq!(analyzed.rounds, 50);
        assert_eq!(report.rounds_executed, 50);
        let flood = report.timeline(PayloadId(0)).expect("the flooded payload");
        assert_eq!(flood.first_spread_round, Some(1));
        assert!(flood.nodes_reached > 1);
    }

    #[test]
    fn overhead_triple_reports_ratios() {
        let net = workload_network(33);
        let o = measure_trace_overhead(&net, 50, 2);
        assert_eq!(o.n, 33);
        assert!(o.null_ratio() > 0.0);
        assert!(o.analyzer_ratio() > 0.0);
    }

    #[test]
    fn phase_profile_reports_all_phases() {
        let net = workload_network(33);
        let p = phase_profile(&net, 50);
        assert_eq!(p.n, 33);
        assert!(p.transmit_ns_per_round() > 0.0);
        assert!(p.receive_ns_per_round() > 0.0);
        assert!(p.adversary_ns_per_round() > 0.0);
        assert!(p.full_step_ns_per_round() > 0.0);
        // Isolated sweeps must each undercut the full step they compose.
        assert!(p.transmit_ns < p.full_step_ns);
        assert!(p.receive_ns < p.full_step_ns);
    }

    #[test]
    fn trace_diff_agrees_on_identical_seeds() {
        let net = workload_network(33);
        let d = trace_diff(&net, 7, 50);
        assert!(
            d.divergence.is_none(),
            "engines diverged: {:?}",
            d.divergence
        );
        assert!(!d.optimized.is_empty());
        assert_eq!(d.optimized.len(), d.reference.len());
    }

    #[test]
    fn trace_diff_localizes_seeded_mutation() {
        let net = workload_network(33);
        let d = trace_diff_mutated(&net, 7, 50);
        let div = d.divergence.expect("perturbed adversary must diverge");
        // The divergence must name a concrete position inside the run.
        assert!(div.index < d.optimized.len().max(d.reference.len()));
    }

    #[test]
    fn jsonl_capture_is_nonempty_and_line_structured() {
        let s = capture_stream_jsonl(33, 8);
        assert!(!s.is_empty());
        for line in s.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
        assert!(s.contains("\"e\":\"round_start\""));
        assert!(s.contains("\"e\":\"transmit\""));
        assert!(s.contains("\"e\":\"reception\""));
        assert!(s.contains("\"e\":\"fault\""));
        assert!(s.contains("\"e\":\"retry\""));
        assert!(s.contains("\"e\":\"verdict\""));
    }
}
