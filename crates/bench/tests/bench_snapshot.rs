//! Pins the checked-in `BENCH_engine.json` snapshot to the schema and the
//! records the code emits: bumping [`dualgraph_bench::BENCH_SCHEMA`]
//! without regenerating the snapshot (or vice versa), or dropping a record,
//! fails here instead of silently shipping a baseline `--bench-compare`
//! cannot gate against.

use dualgraph_bench::record::{self, BenchDocument, SAMPLES};

const REGEN_HINT: &str = "regenerate with `cargo run --release -p dualgraph-bench \
     --bin experiments -- --bench all BENCH_engine.json`";

fn snapshot_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::read_to_string(path).expect("BENCH_engine.json is checked in at the repo root")
}

fn snapshot() -> BenchDocument {
    record::read(&snapshot_text())
        .unwrap_or_else(|e| panic!("BENCH_engine.json is unreadable ({e}): {REGEN_HINT}"))
}

#[test]
fn checked_in_snapshot_matches_emitted_schema() {
    let tag = format!("\"schema\": \"{}\"", dualgraph_bench::BENCH_SCHEMA);
    assert!(
        snapshot_text().contains(&tag),
        "BENCH_engine.json is stale (expected {tag}): {REGEN_HINT}"
    );
}

/// Every record must parse with the reader `--bench-compare` uses, and
/// the document must name its host's core count.
#[test]
fn checked_in_snapshot_is_readable_by_the_compare_tool() {
    let doc = snapshot();
    assert!(doc.cores >= 1, "cores recorded");
    assert!(!doc.records.is_empty());
    for r in &doc.records {
        assert!(r.arm(&r.base).is_some(), "{}: base arm present", r.label());
    }
}

#[test]
fn checked_in_snapshot_has_every_series() {
    let doc = snapshot();
    for series in dualgraph_bench::SERIES {
        assert!(
            doc.records.iter().any(|r| r.series == series),
            "BENCH_engine.json has no {series} record: {REGEN_HINT}"
        );
    }
}

/// The seeker rows are the only measurement of `CollisionSeeker`'s
/// row-scan branch, so compare must find every engine row at every size.
#[test]
fn checked_in_snapshot_has_every_engine_row() {
    let doc = snapshot();
    for n in dualgraph_bench::engine_bench::BENCH_SIZES {
        for (workload, _) in dualgraph_bench::engine_bench::ENGINE_WORKLOADS {
            assert!(
                doc.records
                    .iter()
                    .any(|r| r.series == "engine" && r.workload == workload && r.n == n as u64),
                "no engine {workload} record at n = {n}: {REGEN_HINT}"
            );
        }
    }
}

#[test]
fn checked_in_snapshot_has_every_sample() {
    for r in &snapshot().records {
        for arm in &r.arms {
            let sampled = arm.ns_per_round.len() == SAMPLES && arm.figure() > 0.0;
            assert!(sampled, "{} arm {}: {REGEN_HINT}", r.label(), arm.name);
        }
    }
}

/// `--bench-compare` gates a record's outcome fields for equality; a
/// record without any is gated on its timings alone, so a change to what
/// its workload computes would pass unseen.
#[test]
fn checked_in_snapshot_records_carry_outcomes() {
    for r in &snapshot().records {
        assert!(
            !r.outcome.is_empty(),
            "{}: no outcome fields: {REGEN_HINT}",
            r.label()
        );
    }
}
