//! Pins the checked-in `BENCH_engine.json` snapshot to the schema the
//! code emits: bumping [`dualgraph_bench::BENCH_SCHEMA`] without
//! regenerating the snapshot (or vice versa) fails here instead of
//! silently shipping a trajectory file no tool can compare against.

const REGEN_HINT: &str = "regenerate with `cargo run --release -p dualgraph-bench \
     --bin experiments -- --bench-engine --bench-stream --bench-dynamics \
     --bench-reliability --bench-byzantine --bench-trace --bench-metrics \
     --bench-scale`";

fn snapshot() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::read_to_string(path).expect("BENCH_engine.json is checked in at the repo root")
}

#[test]
fn checked_in_snapshot_matches_emitted_schema() {
    let contents = snapshot();
    let tag = format!("\"schema\": \"{}\"", dualgraph_bench::BENCH_SCHEMA);
    assert!(
        contents.contains(&tag),
        "BENCH_engine.json is stale (expected {tag}): {REGEN_HINT}"
    );
}

/// Schema v11 renamed the trace overhead's third arm from
/// `metrics_sink_*` to `analyzer_*` (the arm now times `TraceAnalyzer`);
/// v10 dropped the frozen-baseline `pr1_*` columns and added the
/// `er_dual-flooding-collision-seeker` engine rows. A snapshot claiming
/// v11 without its sections would break `--bench-compare` consumers.
#[test]
fn checked_in_snapshot_has_the_v11_sections() {
    let contents = snapshot();
    for section in [
        "\"measurements\"",
        "\"stream_measurements\"",
        "\"dynamics_measurements\"",
        "\"reliability_measurements\"",
        "\"byzantine_measurements\"",
        "\"trace_measurements\"",
        "\"phase_profile\"",
        "\"metrics_overhead\"",
        "\"scale_measurements\"",
    ] {
        assert!(
            contents.contains(section),
            "BENCH_engine.json is missing the {section} section: {REGEN_HINT}"
        );
    }
    assert!(
        !contents.contains("pr1"),
        "BENCH_engine.json still carries frozen-baseline columns: {REGEN_HINT}"
    );
    assert!(
        contents.contains("\"analyzer_overhead\"") && !contents.contains("metrics_sink"),
        "BENCH_engine.json still carries the pre-v11 trace arm: {REGEN_HINT}"
    );
}

/// The seeker rows are the only measurement of `CollisionSeeker`'s
/// row-scan branch, so `--bench-compare` must find one at every size.
#[test]
fn checked_in_snapshot_gates_the_seeker_rows() {
    let series = dualgraph_bench::compare::extract_engine_series(&snapshot())
        .expect("snapshot parses and matches this build's schema");
    for n in dualgraph_bench::engine_bench::BENCH_SIZES {
        assert!(
            series
                .iter()
                .any(|p| p.workload == "er_dual-flooding-collision-seeker" && p.n == n as u64),
            "no er_dual-flooding-collision-seeker row at n = {n}: {REGEN_HINT}"
        );
    }
}

/// The snapshot must parse with the same hand-rolled reader
/// `--bench-compare` uses, and expose the engine series it diffs.
#[test]
fn checked_in_snapshot_is_readable_by_the_compare_tool() {
    let series = dualgraph_bench::compare::extract_engine_series(&snapshot())
        .expect("snapshot parses and matches this build's schema");
    assert!(!series.is_empty(), "engine series present");
    for point in &series {
        assert!(point.ns_per_round > 0.0, "series carries real timings");
    }
}
