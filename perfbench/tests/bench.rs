//! The benchmark's own checks, at toy sizes: exact counts repeat per
//! seed, other seeds pass every output check, a failed op is counted as a
//! failure rather than a crash, and the traced op path is the op path.

use dualgraph_sim::Histogram;
use perfbench::workloads::{Bench, HarmonicTrials, QuorumStream, ScaleFlood, Spans};
use perfbench::{run, Config, Parts, Report, Size, Workload};

/// Per-layer metrics that are simulated counts: identical for one seed.
const EXACT: [&str; 18] = [
    "net.edges",
    "engine.rounds",
    "engine.sends",
    "engine.collisions",
    "engine.senders_per_round",
    "engine.informs_per_send",
    "shard.shards",
    "adversary.calls",
    "adversary.delivered",
    "adversary.cr4_calls",
    "stream.rounds_to_settle",
    "mac.acked",
    "mac.ack_latency_mean",
    "mac.pending_acks_peak",
    "quorum.delivered",
    "quorum.safety_violations",
    "quorum.accept_round_mean",
    "dynamics.epoch_switches",
];

fn toy(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        size: Size::Toy,
        sabotage_op: None,
    }
}

fn exact(report: &Report) -> Vec<(&'static str, u64)> {
    EXACT
        .iter()
        .map(|&name| {
            let value = report.get(name).unwrap_or_else(|| panic!("{name} missing"));
            (name, value.to_bits())
        })
        .collect()
}

#[test]
fn exact_counts_repeat_for_one_seed() {
    for workload in Workload::ALL {
        let first = run(&toy(workload, 7, true));
        let second = run(&toy(workload, 7, true));
        assert!(first.correct && second.correct, "{workload:?}: {first:?}");
        assert_eq!(exact(&first), exact(&second), "{workload:?}");
        let rounds =
            first.get("engine.rounds").unwrap() + first.get("stream.rounds_to_settle").unwrap();
        assert!(rounds > 0.0, "{workload:?} executed no rounds");
    }
}

#[test]
fn another_seed_passes_every_output_check() {
    for workload in Workload::ALL {
        let report = run(&toy(workload, 8, false));
        assert!(report.correct, "{workload:?}: {report:?}");
        assert_eq!(report.failed, 0, "{workload:?}");
        assert_eq!(report.get("success_frac"), Some(1.0), "{workload:?}");
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{workload:?}: {name} = {value}");
        }
    }
}

#[test]
fn a_failed_op_lowers_success_frac() {
    for workload in Workload::ALL {
        let config = Config {
            sabotage_op: Some(0),
            ..toy(workload, 9, false)
        };
        let report = run(&config);
        assert!(!report.correct, "{workload:?}");
        assert_eq!(report.failed, 1, "{workload:?}");
        assert!(report.get("success_frac").unwrap() < 1.0, "{workload:?}");
        assert!(!report.json().contains("inf"), "{}", report.json());
    }
}

#[test]
fn the_result_line_lists_every_metric_with_its_unit() {
    let report = run(&toy(Workload::HarmonicTrials, 1, false));
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for name in [
        "setup_s",
        "op_ms_p50",
        "op_ms_p90",
        "ops_per_s",
        "rounds_per_s",
        "peak_rss_mb",
        "success_frac",
    ] {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}: {json}"
        );
    }
}

fn traced_equals_plain<W: Bench>() {
    let (bench, _) = W::setup(3, Size::Toy, &mut Parts::untimed());
    for i in 0..4 {
        let mut hist = Histogram::new();
        let mut spans = Spans::default();
        let traced = bench.traced_op(i, 100 + i, &mut hist, &mut spans);
        assert_eq!(bench.op(i, 100 + i, None), traced, "op {i}");
        assert_eq!(hist.count(), spans.steps);
        assert!(bench.oracle(i, 100 + i), "op {i}");
    }
}

#[test]
fn the_traced_op_is_the_op() {
    traced_equals_plain::<HarmonicTrials>();
    traced_equals_plain::<ScaleFlood>();
    traced_equals_plain::<QuorumStream>();
}
