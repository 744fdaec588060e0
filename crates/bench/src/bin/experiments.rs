//! Experiment driver: prints every paper table and writes CSVs.
//!
//! ```text
//! cargo run --release -p dualgraph-bench --bin experiments -- \
//!     [--quick] [--table NAME] [--csv DIR] [--bench-engine [PATH]]
//! ```
//!
//! `NAME` is a csv-name prefix (e.g. `thm12`); omit for all experiments.
//! `--bench-engine`, `--bench-stream`, `--bench-dynamics`,
//! `--bench-reliability`, `--bench-byzantine`, `--bench-trace`,
//! `--bench-metrics`, and/or `--bench-scale` skip the tables and
//! write one machine-readable `BENCH_engine.json` (schema v11): the engine
//! section has rounds/sec, ns/round, and speedups vs the boxed and
//! reference engines on chatter, dense flooding, and flooding against
//! `CollisionSeeker`; the stream section has the pipelined multi-message
//! family (n × k payload grid: makespan, throughput, MAC ack latency, and
//! steady-state ns/round); the dynamics section has dense flooding under
//! a cycled 16-epoch churn schedule vs the static baseline (the
//! epoch-swap amortization claim); the reliability section has the
//! ack-gap retry policy's delivery guarantees and per-round overhead
//! under churn, crash/recovery faults, and the bursty adversary; the
//! byzantine section has quorum-certified broadcast under churn + ~10%
//! equivocators (safety-violation count, accept latency, and round-cost
//! overhead vs the ack-gap baseline); the trace section has the
//! observability layer's overhead envelope (untraced vs `NullSink` vs
//! `TraceAnalyzer` flooding rounds) and the per-phase wall-clock profile
//! (transmit-sweep vs receive-sweep vs adversary-sample); the
//! metrics_overhead section has the reliability stream workload with
//! windowed health stats + a per-round registry update vs the identical
//! uninstrumented session; the scale section has dense flooding on the
//! O(n + m) `scale_dual` graph at `n ∈ {2^14, 2^17, 2^20}`, sequential
//! vs sharded engine arms with ns/round, peak RSS, and core counts.
//! Future PRs compare against all eight trajectories.
//!
//! Report mode (rides along with the table runner):
//!
//! * `--report md|json PATH` — renders the selected experiments into one
//!   deterministic report document (no timestamps, no timings): two runs
//!   at the same revision produce byte-identical files.
//!
//! Observability modes (no tables, no JSON document):
//!
//! * `--trace-jsonl PATH` — runs the reliability stream workload traced
//!   into a [`dualgraph_sim::JsonlSink`] and writes the JSONL capture to
//!   `PATH` (refusing to write a capture without the `trace-v1` header);
//! * `--trace-check PATH` — validates that `PATH` starts with the
//!   `trace-v1` schema header, exiting 1 on a missing or foreign header;
//! * `--bench-compare BASELINE.json [--compare-threshold RATIO]` —
//!   re-times the enum engine series and diffs it against the checked-in
//!   baseline, exiting 1 if any `(workload, n)` series is more than
//!   `RATIO` (default 1.25) slower, and 2 if the baseline is unreadable
//!   or from a different schema revision;
//! * `--gate-metrics-overhead [RATIO]` — measures the health + registry
//!   instrumentation overhead on the reliability stream workload at
//!   `n = 1025` and exits 1 if it exceeds `RATIO` (default 1.10);
//! * `--trace-diff` — replays the chatter workload on the optimized and
//!   reference engines and diffs their event streams, exiting 1 at the
//!   first diverging event (the healthy outcome is silence);
//! * `--trace-diff-mutated` — same, with a perturbed adversary seed on
//!   the reference side standing in for a buggy engine: the harness must
//!   localize the divergence (exits 1 if it fails to);
//! * `--gate-null-overhead [RATIO]` — measures the `NullSink` and
//!   `TraceAnalyzer` overhead ratios on the flooding workload and exits 1
//!   if `NullSink` exceeds `RATIO` (default 1.05, CI-noise slack over
//!   the 2% local target) or `TraceAnalyzer` exceeds 1.3.

use std::path::PathBuf;

use dualgraph_bench::engine_bench;
use dualgraph_bench::experiments;
use dualgraph_bench::workloads::Scale;

/// Measures engine throughput and renders `BENCH_engine.json` by hand (the
/// environment has no serde; the format is flat enough not to need it).
///
/// Engine section: per size, one row per
/// [`engine_bench::ENGINE_WORKLOADS`] entry (chatter, dense flooding,
/// and flooding against `CollisionSeeker`; see `engine_bench` for the
/// definitions), each measured on the live executor twice:
///
/// * `enum_*` — on a homogeneous batched process table;
/// * `boxed_*` — on `Box<dyn Process>` (isolates the pure dispatch gain).
///
/// Chatter rows also carry the `reference_*` oracle columns, so the
/// optimized-vs-reference trajectory continues.
///
/// Each figure is the best of three timed runs after a warm-up
/// ([`engine_bench::best_of`]).
///
/// The live-engine sweeps run first and `peak_rss_kb` is sampled before
/// the reference oracle ever executes, so the recorded footprint is
/// attributable to the live engine (plus network construction).
fn bench_engine_entries() -> (String, String) {
    use dualgraph_bench::engine_bench::{
        bench_rounds_for as rounds_for, best_of, Dispatch, EngineMeasurement, BENCH_SIZES as SIZES,
        ENGINE_WORKLOADS,
    };
    struct Row {
        workload: &'static str,
        n: usize,
        rounds: u64,
        enumd: EngineMeasurement,
        boxed: EngineMeasurement,
        reference: Option<EngineMeasurement>,
    }
    let nets: Vec<_> = SIZES
        .iter()
        .map(|&n| engine_bench::workload_network(n))
        .collect();
    let mut rows: Vec<Row> = nets
        .iter()
        .flat_map(|net| {
            let n = net.len();
            let rounds = rounds_for(n);
            ENGINE_WORKLOADS.map(|(workload, measure)| Row {
                workload,
                n,
                rounds,
                enumd: best_of(|| measure(net, rounds, Dispatch::Enum)),
                boxed: best_of(|| measure(net, rounds, Dispatch::Boxed)),
                reference: None,
            })
        })
        .collect();
    let rss = engine_bench::peak_rss_kb().map_or("null".to_string(), |kb| kb.to_string());
    // The reference oracle last: it allocates per round by design and
    // stays out of the RSS figure. Chatter is each size's first row.
    for (net, size_rows) in nets.iter().zip(rows.chunks_mut(ENGINE_WORKLOADS.len())) {
        let rounds = rounds_for(net.len());
        size_rows[0].reference = Some(best_of(|| engine_bench::measure_reference(net, 7, rounds)));
    }
    let entries: Vec<String> = rows
        .iter()
        .map(|row| {
            let reference_fields = match &row.reference {
                Some(reference) => format!(
                    concat!(
                        "      \"reference_ns_per_round\": {:.1},\n",
                        "      \"reference_rounds_per_sec\": {:.1},\n",
                        "      \"speedup_enum_vs_reference\": {:.2},\n",
                    ),
                    reference.ns_per_round(),
                    reference.rounds_per_sec(),
                    reference.ns_per_round() / row.enumd.ns_per_round(),
                ),
                None => String::new(),
            };
            format!(
                concat!(
                    "    {{\n",
                    "      \"workload\": \"{}\",\n",
                    "      \"n\": {},\n",
                    "      \"rounds\": {},\n",
                    "      \"enum_ns_per_round\": {:.1},\n",
                    "      \"enum_rounds_per_sec\": {:.1},\n",
                    "      \"boxed_ns_per_round\": {:.1},\n",
                    "      \"boxed_rounds_per_sec\": {:.1},\n",
                    "{}",
                    "      \"speedup_enum_vs_boxed\": {:.2}\n",
                    "    }}"
                ),
                row.workload,
                row.n,
                row.rounds,
                row.enumd.ns_per_round(),
                row.enumd.rounds_per_sec(),
                row.boxed.ns_per_round(),
                row.boxed.rounds_per_sec(),
                reference_fields,
                row.boxed.ns_per_round() / row.enumd.ns_per_round(),
            )
        })
        .collect();
    (entries.join(",\n"), rss)
}

/// Measures the pipelined multi-message stream family (see
/// `stream_bench`): the `n × k` grid as JSON entries for the
/// `stream_measurements` section.
fn bench_stream_entries() -> String {
    use dualgraph_bench::engine_bench::{bench_rounds_for as steady_for, BENCH_SIZES as SIZES};
    use dualgraph_bench::stream_bench;
    const KS: [usize; 3] = [1, 8, 64];
    let mut entries: Vec<String> = Vec::new();
    for &n in &SIZES {
        let net = engine_bench::workload_network(n);
        let mut k1_ns = f64::NAN;
        for &k in &KS {
            let m = stream_bench::measure_stream(&net, k, 7, steady_for(n));
            if k == 1 {
                k1_ns = m.ns_per_round();
            }
            let mac = m.mac();
            entries.push(format!(
                concat!(
                    "    {{\n",
                    "      \"workload\": \"stream-pipelined-flooding\",\n",
                    "      \"n\": {},\n",
                    "      \"k\": {},\n",
                    "      \"makespan_rounds\": {},\n",
                    "      \"mean_latency_rounds\": {:.1},\n",
                    "      \"throughput_payloads_per_round\": {:.4},\n",
                    "      \"mac_acked\": {},\n",
                    "      \"mac_max_ack_latency\": {},\n",
                    "      \"mac_mean_ack_latency\": {:.1},\n",
                    "      \"steady_rounds\": {},\n",
                    "      \"steady_ns_per_round\": {:.1},\n",
                    "      \"steady_rounds_per_sec\": {:.1},\n",
                    "      \"ns_per_round_vs_k1\": {:.2}\n",
                    "    }}"
                ),
                m.n,
                m.k,
                m.outcome.makespan().unwrap_or(0),
                m.outcome.mean_latency().unwrap_or(0.0),
                m.outcome.throughput(),
                mac.acked,
                mac.max_ack_latency,
                mac.mean_ack_latency,
                m.steady.rounds,
                m.ns_per_round(),
                m.steady.rounds_per_sec(),
                m.ns_per_round() / k1_ns,
            ));
        }
    }
    entries.join(",\n")
}

/// Measures the dynamics family (see `dynamics_bench`): dense flooding
/// under a cycled 16-epoch churn schedule vs the static baseline, as JSON
/// entries for the `dynamics_measurements` section. The acceptance target
/// is `churn_slowdown_vs_static ≲ 1.5` at `n = 1025`.
fn bench_dynamics_entries() -> String {
    use dualgraph_bench::dynamics_bench;
    use dualgraph_bench::engine_bench::{bench_rounds_for as rounds_for, BENCH_SIZES as SIZES};
    SIZES
        .iter()
        .map(|&n| {
            let m = dynamics_bench::measure_dynamics(n, rounds_for(n));
            format!(
                concat!(
                    "    {{\n",
                    "      \"workload\": \"dense-flooding-churn16\",\n",
                    "      \"n\": {},\n",
                    "      \"rounds\": {},\n",
                    "      \"epochs\": {},\n",
                    "      \"epoch_span_rounds\": {},\n",
                    "      \"epoch_switches\": {},\n",
                    "      \"static_ns_per_round\": {:.1},\n",
                    "      \"static_rounds_per_sec\": {:.1},\n",
                    "      \"churn_ns_per_round\": {:.1},\n",
                    "      \"churn_rounds_per_sec\": {:.1},\n",
                    "      \"churn_slowdown_vs_static\": {:.2}\n",
                    "    }}"
                ),
                m.n,
                m.churn_run.rounds,
                m.epochs,
                m.span,
                m.epoch_switches,
                m.static_run.ns_per_round(),
                m.static_run.rounds_per_sec(),
                m.churn_run.ns_per_round(),
                m.churn_run.rounds_per_sec(),
                m.slowdown(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Measures the reliability family (see `reliability_bench`): the
/// ack-gap retry policy's delivery guarantees and fixed-window per-round
/// overhead under the cycled 16-epoch churn schedule with ~10%
/// crash/recovery faults, a spammer, and the bursty adversary, as JSON
/// entries for the `reliability_measurements` section. The acceptance
/// targets are `non_abandoned_delivered_pct == 100` and
/// `retry_overhead_vs_no_retry ≲ 1.3` at `n = 1025`.
fn bench_reliability_entries() -> String {
    use dualgraph_bench::engine_bench::{bench_rounds_for as rounds_for, BENCH_SIZES as SIZES};
    use dualgraph_bench::reliability_bench;
    SIZES
        .iter()
        .map(|&n| {
            let m = reliability_bench::measure_reliability(n, rounds_for(n));
            format!(
                concat!(
                    "    {{\n",
                    "      \"workload\": \"reliability-churn16-crash10pct-bursty\",\n",
                    "      \"n\": {},\n",
                    "      \"k\": {},\n",
                    "      \"policy\": \"{}\",\n",
                    "      \"delivered\": {},\n",
                    "      \"abandoned\": {},\n",
                    "      \"pending\": {},\n",
                    "      \"retries\": {},\n",
                    "      \"non_abandoned_delivered_pct\": {:.1},\n",
                    "      \"rounds_to_settle\": {},\n",
                    "      \"timed_rounds\": {},\n",
                    "      \"no_retry_ns_per_round\": {:.1},\n",
                    "      \"retry_ns_per_round\": {:.1},\n",
                    "      \"retry_overhead_vs_no_retry\": {:.2}\n",
                    "    }}"
                ),
                m.n,
                m.k,
                m.report.backend.name(),
                m.report.stats.delivered,
                m.report.stats.abandoned,
                m.report.stats.pending,
                m.report.stats.total_retries,
                m.non_abandoned_delivered_pct(),
                m.rounds_to_settle,
                m.baseline.rounds,
                m.baseline.ns_per_round(),
                m.retry.ns_per_round(),
                m.overhead(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Measures the Byzantine family (see `byzantine_bench`): quorum-certified
/// broadcast under the cycled 8-epoch churn schedule with ~10%
/// equivocators and the bursty adversary, as JSON entries for the
/// `byzantine_measurements` section. The acceptance targets are
/// `safety_violations == 0` (asserted inside the measurement) and
/// `quorum_overhead_vs_ackgap ≤ 2.0` at `n = 1025`.
fn bench_byzantine_entries() -> String {
    use dualgraph_bench::byzantine_bench;
    use dualgraph_bench::engine_bench::{bench_rounds_for as rounds_for, BENCH_SIZES as SIZES};
    SIZES
        .iter()
        .map(|&n| {
            let m = byzantine_bench::measure_byzantine(n, rounds_for(n));
            format!(
                concat!(
                    "    {{\n",
                    "      \"workload\": \"byzantine-churn8-equiv10pct-bursty\",\n",
                    "      \"n\": {},\n",
                    "      \"k\": {},\n",
                    "      \"equivocators\": {},\n",
                    "      \"byzantine_bound_f\": {},\n",
                    "      \"policy\": \"{}\",\n",
                    "      \"delivered\": {},\n",
                    "      \"abandoned\": {},\n",
                    "      \"pending\": {},\n",
                    "      \"safety_violations\": {},\n",
                    "      \"mean_accept_round\": {:.1},\n",
                    "      \"rounds_executed\": {},\n",
                    "      \"timed_rounds\": {},\n",
                    "      \"ackgap_ns_per_round\": {:.1},\n",
                    "      \"quorum_ns_per_round\": {:.1},\n",
                    "      \"quorum_overhead_vs_ackgap\": {:.2}\n",
                    "    }}"
                ),
                m.n,
                m.k,
                m.equivocators,
                m.f,
                m.report.backend.name(),
                m.report.stats.delivered,
                m.report.stats.abandoned,
                m.report.stats.pending,
                m.report.safety_violations,
                m.mean_accept_round,
                m.rounds_executed,
                m.ackgap.rounds,
                m.ackgap.ns_per_round(),
                m.quorum.ns_per_round(),
                m.overhead(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Measures the observability family (see `trace_bench`): the trace
/// layer's overhead envelope (untraced vs `NullSink` vs `TraceAnalyzer`
/// dense flooding) and the per-phase wall-clock decomposition of the
/// engine round, as JSON entries for the `trace_measurements` and
/// `phase_profile` sections. The acceptance targets are
/// `null_sink_overhead ≲ 1.02` (the `NullSink` instantiation is the
/// untraced code path — any real gap is a broken guard) and
/// `analyzer_overhead ≤ 1.3` at `n = 1025`.
fn bench_trace_entries() -> (String, String) {
    use dualgraph_bench::engine_bench::{bench_rounds_for as rounds_for, BENCH_SIZES as SIZES};
    use dualgraph_bench::trace_bench;
    let mut overhead: Vec<String> = Vec::new();
    let mut phases: Vec<String> = Vec::new();
    for &n in &SIZES {
        let net = engine_bench::workload_network(n);
        let rounds = rounds_for(n);
        let o = trace_bench::measure_trace_overhead(&net, rounds, 3);
        overhead.push(format!(
            concat!(
                "    {{\n",
                "      \"workload\": \"dense-flooding\",\n",
                "      \"n\": {},\n",
                "      \"rounds\": {},\n",
                "      \"untraced_ns_per_round\": {:.1},\n",
                "      \"null_sink_ns_per_round\": {:.1},\n",
                "      \"analyzer_ns_per_round\": {:.1},\n",
                "      \"null_sink_overhead\": {:.3},\n",
                "      \"analyzer_overhead\": {:.3}\n",
                "    }}"
            ),
            o.n,
            rounds,
            o.untraced.ns_per_round(),
            o.null_sink.ns_per_round(),
            o.analyzer.ns_per_round(),
            o.null_ratio(),
            o.analyzer_ratio(),
        ));
        let p = trace_bench::phase_profile(&net, rounds);
        phases.push(format!(
            concat!(
                "    {{\n",
                "      \"workload\": \"dense-flooding-steady\",\n",
                "      \"n\": {},\n",
                "      \"rounds\": {},\n",
                "      \"transmit_sweep_ns_per_round\": {:.1},\n",
                "      \"receive_sweep_ns_per_round\": {:.1},\n",
                "      \"adversary_sample_ns_per_round\": {:.1},\n",
                "      \"full_step_ns_per_round\": {:.1}\n",
                "    }}"
            ),
            p.n,
            p.rounds,
            p.transmit_ns_per_round(),
            p.receive_ns_per_round(),
            p.adversary_ns_per_round(),
            p.full_step_ns_per_round(),
        ));
    }
    (overhead.join(",\n"), phases.join(",\n"))
}

/// Measures the metrics/health observability family (see
/// `metrics_bench`): the reliability stream workload with windowed health
/// stats and a per-round registry update vs the identical uninstrumented
/// session, as JSON entries for the `metrics_overhead` section. The
/// acceptance target is `metrics_overhead ≤ 1.10` at `n = 1025`.
fn bench_metrics_entries() -> String {
    use dualgraph_bench::engine_bench::{bench_rounds_for as rounds_for, BENCH_SIZES as SIZES};
    use dualgraph_bench::metrics_bench;
    SIZES
        .iter()
        .map(|&n| {
            let m = metrics_bench::measure_metrics_overhead(n, rounds_for(n), 3);
            format!(
                concat!(
                    "    {{\n",
                    "      \"workload\": \"reliability-churn16-crash10pct-bursty\",\n",
                    "      \"n\": {},\n",
                    "      \"k\": {},\n",
                    "      \"rounds\": {},\n",
                    "      \"plain_ns_per_round\": {:.1},\n",
                    "      \"instrumented_ns_per_round\": {:.1},\n",
                    "      \"metrics_overhead\": {:.3}\n",
                    "    }}"
                ),
                m.n,
                m.k,
                m.plain.rounds,
                m.plain.ns_per_round(),
                m.instrumented.ns_per_round(),
                m.ratio(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Measures the scale family (see `scale_bench`): dense flooding on the
/// O(n + m) `scale_dual` graph at `n ∈ {2^14, 2^17, 2^20}`, sequential
/// vs sharded arms, as JSON entries for the `scale_measurements`
/// section. The acceptance targets are epoch completion at `n = 2^20`
/// within sane RSS (the per-entry `peak_rss_kb` high-water mark) and
/// `speedup_sharded_vs_sequential ≥ 2.0` on dense flooding at
/// `n = 2^17` **when `cores ≥ 4`** — the `cores` field is recorded so a
/// starved container is distinguishable from a regression.
fn bench_scale_entries() -> String {
    use dualgraph_bench::scale_bench::{self, SCALE_SIZES};
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // At least two workers so the sharded machinery is genuinely
    // exercised (bit-identity makes the extra workers harmless on a
    // starved box; only the wall-clock differs).
    let workers = cores.max(2);
    SCALE_SIZES
        .iter()
        .map(|&n| {
            let net = scale_bench::scale_network(n);
            let m = scale_bench::measure_scale(&net, scale_bench::scale_rounds_for(n), workers);
            format!(
                concat!(
                    "    {{\n",
                    "      \"workload\": \"scale-dense-flooding\",\n",
                    "      \"n\": {},\n",
                    "      \"completion_round\": {},\n",
                    "      \"steady_rounds\": {},\n",
                    "      \"sequential_ns_per_round\": {:.1},\n",
                    "      \"sequential_rounds_per_sec\": {:.1},\n",
                    "      \"sharded_ns_per_round\": {:.1},\n",
                    "      \"sharded_rounds_per_sec\": {:.1},\n",
                    "      \"workers\": {},\n",
                    "      \"shards\": {},\n",
                    "      \"cores\": {},\n",
                    "      \"speedup_sharded_vs_sequential\": {:.2},\n",
                    "      \"peak_rss_kb\": {}\n",
                    "    }}"
                ),
                m.n,
                m.completion_round
                    .map_or("null".to_string(), |r| r.to_string()),
                m.sequential.rounds,
                m.sequential.ns_per_round(),
                m.sequential.rounds_per_sec(),
                m.sharded.ns_per_round(),
                m.sharded.rounds_per_sec(),
                m.workers,
                m.shards,
                m.cores,
                m.speedup(),
                m.peak_rss_kb
                    .map_or("null".to_string(), |kb| kb.to_string()),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Assembles the [`dualgraph_bench::BENCH_SCHEMA`] `BENCH_engine.json`
/// document from whichever sections were requested.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    engine: bool,
    stream: bool,
    dynamics: bool,
    reliability: bool,
    byzantine: bool,
    trace: bool,
    metrics: bool,
    bench_scale: bool,
) -> String {
    let mut sections: Vec<String> = Vec::new();
    let mut rss = "null".to_string();
    if engine {
        let (entries, engine_rss) = bench_engine_entries();
        rss = engine_rss;
        sections.push(format!("  \"measurements\": [\n{entries}\n  ]"));
    }
    if stream {
        sections.push(format!(
            "  \"stream_measurements\": [\n{}\n  ]",
            bench_stream_entries()
        ));
    }
    if dynamics {
        sections.push(format!(
            "  \"dynamics_measurements\": [\n{}\n  ]",
            bench_dynamics_entries()
        ));
    }
    if reliability {
        sections.push(format!(
            "  \"reliability_measurements\": [\n{}\n  ]",
            bench_reliability_entries()
        ));
    }
    if byzantine {
        sections.push(format!(
            "  \"byzantine_measurements\": [\n{}\n  ]",
            bench_byzantine_entries()
        ));
    }
    if trace {
        let (overhead, phases) = bench_trace_entries();
        sections.push(format!("  \"trace_measurements\": [\n{overhead}\n  ]"));
        sections.push(format!("  \"phase_profile\": [\n{phases}\n  ]"));
    }
    if metrics {
        sections.push(format!(
            "  \"metrics_overhead\": [\n{}\n  ]",
            bench_metrics_entries()
        ));
    }
    if bench_scale {
        sections.push(format!(
            "  \"scale_measurements\": [\n{}\n  ]",
            bench_scale_entries()
        ));
    }
    if !engine {
        rss = engine_bench::peak_rss_kb().map_or("null".to_string(), |kb| kb.to_string());
    }
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"peak_rss_kb\": {rss},\n{}\n}}\n",
        dualgraph_bench::BENCH_SCHEMA,
        sections.join(",\n")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut filter: Option<String> = None;
    let mut csv_dir: Option<PathBuf> = Some(PathBuf::from("results"));
    let mut bench_path: Option<PathBuf> = None;
    let mut bench_engine = false;
    let mut bench_stream = false;
    let mut bench_dynamics = false;
    let mut bench_reliability = false;
    let mut bench_byzantine = false;
    let mut bench_trace = false;
    let mut bench_metrics = false;
    let mut bench_scale = false;
    let mut trace_jsonl: Option<PathBuf> = None;
    let mut trace_check: Option<PathBuf> = None;
    let mut trace_diff_mode: Option<bool> = None; // Some(mutated?)
    let mut gate_null: Option<f64> = None;
    let mut gate_metrics: Option<f64> = None;
    let mut report_mode: Option<(String, PathBuf)> = None;
    let mut bench_compare: Option<PathBuf> = None;
    let mut compare_threshold = dualgraph_bench::compare::DEFAULT_THRESHOLD;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--table" => {
                i += 1;
                filter = Some(args.get(i).expect("--table needs a name").clone());
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(PathBuf::from(args.get(i).expect("--csv needs a dir")));
            }
            "--no-csv" => csv_dir = None,
            "--trace-jsonl" => {
                i += 1;
                trace_jsonl = Some(PathBuf::from(
                    args.get(i).expect("--trace-jsonl needs a path"),
                ));
            }
            "--trace-check" => {
                i += 1;
                trace_check = Some(PathBuf::from(
                    args.get(i).expect("--trace-check needs a path"),
                ));
            }
            "--report" => {
                i += 1;
                let format = args
                    .get(i)
                    .expect("--report needs a format (md|json)")
                    .clone();
                assert!(
                    format == "md" || format == "json",
                    "--report format must be md or json, got {format:?}"
                );
                i += 1;
                let path = PathBuf::from(args.get(i).expect("--report needs a path"));
                report_mode = Some((format, path));
            }
            "--bench-compare" => {
                i += 1;
                bench_compare = Some(PathBuf::from(
                    args.get(i).expect("--bench-compare needs a baseline path"),
                ));
            }
            "--compare-threshold" => {
                i += 1;
                compare_threshold = args
                    .get(i)
                    .expect("--compare-threshold needs a ratio")
                    .parse()
                    .expect("--compare-threshold RATIO must be a number");
            }
            "--gate-metrics-overhead" => {
                let threshold = args
                    .get(i + 1)
                    .filter(|a| !a.starts_with("--"))
                    .map(|a| {
                        i += 1;
                        a.parse()
                            .expect("--gate-metrics-overhead RATIO must be a number")
                    })
                    .unwrap_or(1.10);
                gate_metrics = Some(threshold);
            }
            "--trace-diff" => trace_diff_mode = Some(false),
            "--trace-diff-mutated" => trace_diff_mode = Some(true),
            "--gate-null-overhead" => {
                let threshold = args
                    .get(i + 1)
                    .filter(|a| !a.starts_with("--"))
                    .map(|a| {
                        i += 1;
                        a.parse()
                            .expect("--gate-null-overhead RATIO must be a number")
                    })
                    .unwrap_or(1.05);
                gate_null = Some(threshold);
            }
            flag @ ("--bench-engine"
            | "--bench-stream"
            | "--bench-dynamics"
            | "--bench-reliability"
            | "--bench-byzantine"
            | "--bench-trace"
            | "--bench-metrics"
            | "--bench-scale") => {
                match flag {
                    "--bench-engine" => bench_engine = true,
                    "--bench-stream" => bench_stream = true,
                    "--bench-dynamics" => bench_dynamics = true,
                    "--bench-byzantine" => bench_byzantine = true,
                    "--bench-trace" => bench_trace = true,
                    "--bench-metrics" => bench_metrics = true,
                    "--bench-scale" => bench_scale = true,
                    _ => bench_reliability = true,
                }
                if let Some(explicit) = args.get(i + 1).filter(|a| !a.starts_with("--")) {
                    i += 1;
                    bench_path = Some(PathBuf::from(explicit));
                } else if bench_path.is_none() {
                    bench_path = Some(PathBuf::from("BENCH_engine.json"));
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: experiments [--quick] [--table NAME] [--csv DIR | --no-csv] \
                     [--report md|json PATH] \
                     [--bench-engine [PATH]] [--bench-stream [PATH]] [--bench-dynamics [PATH]] \
                     [--bench-reliability [PATH]] [--bench-byzantine [PATH]] \
                     [--bench-trace [PATH]] [--bench-metrics [PATH]] [--bench-scale [PATH]] \
                     [--bench-compare BASELINE.json] [--compare-threshold RATIO] \
                     [--trace-jsonl PATH] [--trace-check PATH] [--trace-diff] \
                     [--trace-diff-mutated] [--gate-null-overhead [RATIO]] \
                     [--gate-metrics-overhead [RATIO]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = trace_jsonl {
        let capture = dualgraph_bench::trace_bench::capture_stream_jsonl(65, 16);
        dualgraph_sim::check_trace_schema(&capture)
            .expect("fresh capture must carry the trace-v1 schema header");
        if let Err(e) = std::fs::write(&path, &capture) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} ({} events)",
            path.display(),
            capture.lines().count().saturating_sub(1)
        );
        return;
    }

    if let Some(path) = trace_check {
        let doc = match std::fs::read_to_string(&path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: failed to read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        match dualgraph_sim::check_trace_schema(&doc) {
            Ok(()) => {
                println!(
                    "trace-check: {} ok ({}, {} event lines)",
                    path.display(),
                    dualgraph_sim::TRACE_SCHEMA,
                    doc.lines().count().saturating_sub(1)
                );
            }
            Err(e) => {
                eprintln!("trace-check: {} REJECTED — {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(baseline_path) = bench_compare {
        use dualgraph_bench::compare;
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: failed to read {}: {e}", baseline_path.display());
                std::process::exit(2);
            }
        };
        let baseline = match compare::extract_engine_series(&text) {
            Ok(series) => series,
            Err(e) => {
                eprintln!("bench-compare: {e}");
                std::process::exit(2);
            }
        };
        let fresh = compare::fresh_engine_series();
        let rows = compare::compare_series(&baseline, &fresh);
        if rows.is_empty() {
            eprintln!("bench-compare: no overlapping (workload, n) series to compare");
            std::process::exit(2);
        }
        let mut regressed = 0usize;
        for row in &rows {
            let status = if row.regressed(compare_threshold) {
                regressed += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "bench-compare: {:<33} n={:<5} baseline={:>10.1}ns/round \
                 fresh={:>10.1}ns/round ratio={:.3} (limit {:.3}) {status}",
                row.workload,
                row.n,
                row.baseline_ns,
                row.fresh_ns,
                row.ratio(),
                compare_threshold,
            );
        }
        if regressed > 0 {
            println!(
                "bench-compare: FAIL — {regressed}/{} series regressed past {compare_threshold:.2}x",
                rows.len()
            );
            std::process::exit(1);
        }
        println!(
            "bench-compare: ok — {} series within {compare_threshold:.2}x",
            rows.len()
        );
        return;
    }

    if let Some(mutated) = trace_diff_mode {
        let net = engine_bench::workload_network(65);
        let d = if mutated {
            dualgraph_bench::trace_bench::trace_diff_mutated(&net, 7, 200)
        } else {
            dualgraph_bench::trace_bench::trace_diff(&net, 7, 200)
        };
        println!(
            "trace-diff: n=65 rounds=200 optimized_events={} reference_events={}",
            d.optimized.len(),
            d.reference.len()
        );
        match (d.divergence, mutated) {
            (None, false) => println!("trace-diff: engines agree event-for-event"),
            (Some(div), false) => {
                println!("trace-diff: DIVERGED — {div}");
                std::process::exit(1);
            }
            (Some(div), true) => println!("trace-diff: mutation localized — {div}"),
            (None, true) => {
                println!("trace-diff: mutation NOT localized (streams identical)");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(threshold) = gate_null {
        const ANALYZER_THRESHOLD: f64 = 1.3;
        let net = engine_bench::workload_network(1025);
        let rounds = engine_bench::bench_rounds_for(1025);
        let o = dualgraph_bench::trace_bench::measure_trace_overhead(&net, rounds, 3);
        println!(
            "null-overhead gate: n={} rounds={} untraced={:.1}ns/round \
             null={:.1}ns/round ({:.3}x, limit {threshold:.3}) \
             analyzer={:.1}ns/round ({:.3}x, limit {ANALYZER_THRESHOLD:.1})",
            o.n,
            rounds,
            o.untraced.ns_per_round(),
            o.null_sink.ns_per_round(),
            o.null_ratio(),
            o.analyzer.ns_per_round(),
            o.analyzer_ratio(),
        );
        if o.null_ratio() > threshold || o.analyzer_ratio() > ANALYZER_THRESHOLD {
            println!("null-overhead gate: FAIL");
            std::process::exit(1);
        }
        println!("null-overhead gate: ok");
        return;
    }

    if let Some(threshold) = gate_metrics {
        let n = 1025;
        let rounds = engine_bench::bench_rounds_for(n);
        let m = dualgraph_bench::metrics_bench::measure_metrics_overhead(n, rounds, 3);
        println!(
            "metrics-overhead gate: n={} k={} rounds={rounds} plain={:.1}ns/round \
             instrumented={:.1}ns/round ({:.3}x, limit {threshold:.3})",
            m.n,
            m.k,
            m.plain.ns_per_round(),
            m.instrumented.ns_per_round(),
            m.ratio(),
        );
        if m.ratio() > threshold {
            println!("metrics-overhead gate: FAIL");
            std::process::exit(1);
        }
        println!("metrics-overhead gate: ok");
        return;
    }

    if let Some(path) = bench_path {
        let json = bench_json(
            bench_engine,
            bench_stream,
            bench_dynamics,
            bench_reliability,
            bench_byzantine,
            bench_trace,
            bench_metrics,
            bench_scale,
        );
        print!("{json}");
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
        return;
    }

    let selected: Vec<_> = experiments::all()
        .into_iter()
        .filter(|(name, _)| {
            filter
                .as_deref()
                .is_none_or(|f| name.starts_with(f) || name.contains(f))
        })
        .collect();
    if selected.is_empty() {
        eprintln!("no experiment matches the filter");
        std::process::exit(2);
    }
    println!(
        "dualgraph experiments — scale: {:?}, {} experiment(s)\n",
        scale,
        selected.len()
    );
    let mut collected: Vec<(&str, dualgraph_bench::report::Table)> = Vec::new();
    for (name, runner) in selected {
        let start = std::time::Instant::now();
        let table = runner(scale);
        table.print();
        println!("   [{name} took {:.1?}]\n", start.elapsed());
        if let Some(dir) = &csv_dir {
            if let Err(e) = table.write_csv(dir, name) {
                eprintln!("warning: failed to write {name}.csv: {e}");
            }
        }
        if report_mode.is_some() {
            collected.push((name, table));
        }
    }
    if let Some((format, path)) = report_mode {
        // Timings are printed above but never enter tables, so the report
        // is a deterministic function of the experiment results.
        let rendered = match format.as_str() {
            "md" => dualgraph_bench::report::render_markdown_report(&collected),
            _ => dualgraph_bench::report::render_json_report(&collected),
        };
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} ({format}, {} experiments)",
            path.display(),
            collected.len()
        );
    }
}
