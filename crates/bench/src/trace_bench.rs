//! Observability benchmarks: the trace layer's overhead envelope, the
//! per-phase wall-clock profile of an engine round, and the trace-diff
//! harness that localizes engine divergence to the first differing event.
//!
//! Two records per size make up the `trace` series of `BENCH_engine.json`,
//! and one harness feeds `--trace-diff` ([`capture_stream_jsonl`] feeds
//! `--trace-jsonl`):
//!
//! * **overhead** (`dense-flooding`) — the dense flooding workload timed
//!   three ways: plain `step` (`untraced`, the base),
//!   `step_traced(&mut NullSink)` (`null_sink`: must be the *same machine
//!   code* — the `TraceSink::ENABLED` guards compile out — limited to
//!   1.10× at `n = 1025`), and `step_traced(&mut TraceAnalyzer)`
//!   (`analyzer`: the metrics stack consuming the live stream, limited to
//!   1.3×). All three run one workload, so their executor outcomes must
//!   agree;
//! * **phase profile** (`dense-flooding-steady`) — drives the
//!   `ProcessTable` sweeps and the adversary's delivery sampling *in
//!   isolation* against the same all-senders steady state the flooding
//!   workload settles into, beside the `full_step` base, so the step
//!   decomposes into transmit-sweep vs receive-sweep vs adversary-sample
//!   shares (`arm / base`). The isolated sweeps skip collision resolution,
//!   the reaching-arena build and bookkeeping, so the shares do not sum to
//!   1, but they locate where a regression lives before anyone reaches for
//!   a profiler;
//! * **trace-diff** — replays one chatter workload on the optimized
//!   enum-dispatch engine and the naive reference oracle, recording both
//!   event streams into `Vec<TraceEvent>`, and reports the first
//!   diverging event (`None` when the engines agree — the shipping
//!   state). A seeded mutation (perturbed adversary seed on one side)
//!   demonstrates the localization.

use std::iter;
use std::ops::Range;
use std::rc::Rc;

use dualgraph_net::{DualGraph, FixedBitSet, NodeId};
use dualgraph_sim::{
    first_divergence, Adversary, Assignment, ChatterProcess, Divergence, Executor, ExecutorConfig,
    Flooder, JsonlSink, Message, NullSink, PayloadId, ProcessId, ProcessTable, RandomDelivery,
    Reception, ReferenceExecutor, RoundContext, TraceAnalyzer, TraceEvent,
};

use crate::dynamics_bench;
use crate::engine_bench::{
    dense_flooding, limit_at, measure_flooding, workload_network, Dispatch, CHATTER_RATE,
};
use crate::record::{executor_outcome, Cell, Sample};
use crate::reliability_bench;

/// The overhead record at size `n`: untraced, `NullSink` and
/// `TraceAnalyzer` arms.
pub(crate) fn overhead_cell(n: usize, rounds: u64) -> Cell<'static> {
    let net = Rc::new(workload_network(n));
    let (untraced, null) = (Rc::clone(&net), Rc::clone(&net));
    Cell::new("trace", "dense-flooding", n, None, rounds)
        .arm("untraced", move || {
            measure_flooding(&untraced, rounds, Dispatch::Enum)
        })
        .arm("null_sink", move || {
            let mut exec = dense_flooding(&null, Dispatch::Enum);
            Sample::time(rounds, || {
                exec.step_traced(&mut NullSink);
            })
            .with(executor_outcome(&exec.outcome()))
        })
        .limit(limit_at(n, 1.10))
        .arm("analyzer", move || {
            let mut exec = dense_flooding(&net, Dispatch::Enum);
            let mut analyzer = TraceAnalyzer::new();
            let sample = Sample::time(rounds, || {
                exec.step_traced(&mut analyzer);
            });
            let report = analyzer.finish();
            assert_eq!(
                report.rounds_executed, rounds,
                "the analyzer saw every round"
            );
            sample.with(executor_outcome(&exec.outcome()))
        })
        .limit(limit_at(n, 1.3))
}

/// The phase-profile record at size `n`: the full step and its isolated
/// phases.
pub(crate) fn phase_cell(n: usize, rounds: u64) -> Cell<'static> {
    let net = Rc::new(workload_network(n));
    Cell::new("trace", "dense-flooding-steady", n, None, rounds)
        .arm("full_step", {
            let net = Rc::clone(&net);
            move || measure_flooding(&net, rounds, Dispatch::Enum)
        })
        .arm("transmit_sweep", move || {
            // One chunk, swept inline: the executor's one-shard send pass,
            // which clears the buffer each round.
            let (mut table, active_from, _) = steady_table(n);
            let mut senders: Vec<(NodeId, Message)> = Vec::new();
            let mut round = 1;
            Sample::time(rounds, || {
                round += 1;
                table.transmit_sweep(round, &active_from, None, n, iter::once(&mut senders));
            })
        })
        .arm("receive_sweep", move || {
            // Re-delivers the synthetic message set every round (content is
            // irrelevant to sweep cost — the payload union is a no-op after
            // the first absorb).
            let (mut table, mut active_from, wake) = steady_table(n);
            let mut round = 1;
            Sample::time(rounds, || {
                round += 1;
                table.receive_sweep(round, &mut active_from, None, &wake, None, n, no_books());
            })
        })
        .arm("adversary_sample", move || {
            // One `unreliable_deliveries` call per sender per round, against
            // the steady-state sender set.
            let (mut table, active_from, _) = steady_table(n);
            let mut senders: Vec<(NodeId, Message)> = Vec::new();
            table.transmit_sweep(2, &active_from, None, n, iter::once(&mut senders));
            let mut adversary = RandomDelivery::new(0.5, 7);
            let assignment = Assignment::identity(n);
            let informed = FixedBitSet::from_indices(n, 0..n);
            let ctx = RoundContext {
                round: 2,
                network: &net,
                assignment: &assignment,
                senders: &senders,
                informed: &informed,
            };
            let mut targets: Vec<NodeId> = Vec::new();
            Sample::time(rounds, || {
                targets.clear();
                for &(node, _) in &senders {
                    adversary.unreliable_deliveries(&ctx, node, &mut targets);
                }
            })
        })
}

/// The all-senders steady state of dense flooding on `n` nodes, built
/// outside the engine: every `Flooder` activated and informed by one
/// synthetic reception sweep, after which each transmits every round.
/// Returns the table, its activation rounds and the wake-up receptions.
fn steady_table(n: usize) -> (ProcessTable, Vec<Option<u64>>, Vec<Reception>) {
    let mut table = ProcessTable::from_slots(Flooder::slots(n));
    let mut active_from: Vec<Option<u64>> = vec![Some(1); n];
    let wake: Vec<Reception> =
        vec![Reception::Message(Message::with_payload(ProcessId(0), PayloadId(0),)); n];
    table.receive_sweep(1, &mut active_from, None, &wake, None, n, no_books());
    (table, active_from, wake)
}

/// The receive sweep's per-chunk follow-up for one chunk, left empty: the
/// sweep is timed without the executor's informed/known bookkeeping.
fn no_books() -> iter::Once<impl FnOnce(Range<usize>) + Send> {
    iter::once(|_| {})
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
            let mut exec = ReferenceExecutor::from_slots(
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
    let session = reliability_bench::session(
        &schedule,
        k,
        Some(reliability_bench::POLICY.into()),
        None,
        200_000,
    );
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
    use crate::record::measure;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn trace_record_arms_agree() {
        let records = measure(vec![overhead_cell(33, 50)]);
        let r = &records[0];
        assert_sampled(r);
        let arms: Vec<&str> = r.arms.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(arms, ["untraced", "null_sink", "analyzer"]);
        assert!(
            r.arms.iter().all(|a| a.limit.is_none()),
            "limits apply at n = 1025"
        );
        assert!(num(r, "sends") > 0.0);
    }

    #[test]
    fn phase_record_reports_all_phases() {
        let records = measure(vec![phase_cell(33, 50)]);
        let r = &records[0];
        assert_sampled(r);
        assert_eq!(r.base, "full_step");
        assert_eq!(r.arms.len(), 4);
        // Isolated sweeps must each undercut the full step they compose.
        for sweep in ["transmit_sweep", "receive_sweep"] {
            let arm = r.arm(sweep).expect("every phase arm");
            assert!(r.ratio(arm) < 1.0, "{sweep}: {r:?}");
        }
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
        // The whole capture, pinned: its line count and FNV-1a 64 digest.
        let digest = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((s.lines().count(), digest), (394, 0xdd15_9595_c80d_7cf5));
    }
}
