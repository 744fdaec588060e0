//! Fixture-driven end-to-end tests: each lint class has a positive
//! fixture proving it fires and a negative fixture proving conformant
//! code is clean, plus waiver-parsing fixtures for both placements and
//! the mandatory-reason rule. Fixtures live under `tests/fixtures/` as
//! plain text — cargo never compiles them.

use dualgraph_analyzer::{analyze_source, config::Config, stale_hot_entries, Finding};

/// The config every fixture is analyzed under. Fixtures are presented to
/// the analyzer at a path inside both the determinism and panic scopes so
/// all path-routed lints apply.
fn cfg() -> Config {
    Config {
        determinism_paths: vec!["crates/sim/src".into()],
        panic_paths: vec!["crates/sim/src".into()],
        hot_functions: vec![
            "Executor::step".into(),
            "Executor::step_traced".into(),
            "ShardedExecutor::step_traced".into(),
            "resolve_shards".into(),
            "Gather::arrivals".into(),
            "Histogram::record".into(),
            "WindowedStats::push".into(),
        ],
        index_bound_comments: true,
        ..Config::default()
    }
}

fn analyze(fixture: &str, src: &str) -> Vec<Finding> {
    analyze_source(&format!("crates/sim/src/{fixture}"), src, &cfg())
}

fn unwaived<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.lint == lint && !f.waived)
        .collect()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_positive_fixture_fires() {
    let fs = analyze(
        "determinism_bad.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    let hits = unwaived(&fs, "determinism");
    // HashMap, HashSet, Instant, SystemTime, thread_rng, from_entropy,
    // and `.as_ptr()` each sit on their own line.
    assert_eq!(hits.len(), 7, "{fs:?}");
    assert!(hits.iter().any(|f| f.message.contains("HashMap")));
    assert!(hits.iter().any(|f| f.message.contains("as_ptr")));
}

#[test]
fn determinism_negative_fixture_is_clean() {
    let fs = analyze(
        "determinism_ok.rs",
        include_str!("fixtures/determinism_ok.rs"),
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn determinism_is_scoped_to_configured_paths() {
    // The same hot file outside the determinism scope raises nothing.
    let fs = analyze_source(
        "crates/bench/src/determinism_bad.rs",
        include_str!("fixtures/determinism_bad.rs"),
        &cfg(),
    );
    assert!(unwaived(&fs, "determinism").is_empty(), "{fs:?}");
}

// ------------------------------------------------------------------ hot-alloc

#[test]
fn hot_alloc_positive_fixture_fires() {
    let fs = analyze(
        "hot_alloc_bad.rs",
        include_str!("fixtures/hot_alloc_bad.rs"),
    );
    let hits = unwaived(&fs, "hot-alloc");
    // Ten allocating constructs, one per line, inside `Executor::step`.
    assert_eq!(hits.len(), 10, "{fs:?}");
    assert!(hits.iter().all(|f| f.message.contains("Executor::step")));
}

#[test]
fn hot_alloc_negative_fixture_is_clean() {
    let fs = analyze("hot_alloc_ok.rs", include_str!("fixtures/hot_alloc_ok.rs"));
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn metrics_hot_positive_fixture_fires() {
    let fs = analyze(
        "metrics_hot_bad.rs",
        include_str!("fixtures/metrics_hot_bad.rs"),
    );
    let hits = unwaived(&fs, "hot-alloc");
    // format! + .to_vec in Histogram::record, Vec::with_capacity in
    // WindowedStats::push — one per line.
    assert_eq!(hits.len(), 3, "{fs:?}");
    assert!(hits.iter().any(|f| f.message.contains("Histogram::record")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("WindowedStats::push")));
}

#[test]
fn metrics_hot_negative_fixture_is_clean() {
    let fs = analyze(
        "metrics_hot_ok.rs",
        include_str!("fixtures/metrics_hot_ok.rs"),
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn shard_hot_positive_fixture_fires() {
    let fs = analyze(
        "shard_hot_bad.rs",
        include_str!("fixtures/shard_hot_bad.rs"),
    );
    let hits = unwaived(&fs, "hot-alloc");
    // collect + format! in ShardedExecutor::step_traced,
    // Vec::with_capacity + vec! in the resolve_shards free function,
    // Vec::new + Box::new in Gather::arrivals — one per line.
    assert_eq!(hits.len(), 6, "{fs:?}");
    assert!(hits
        .iter()
        .any(|f| f.message.contains("ShardedExecutor::step_traced")));
    assert!(hits.iter().any(|f| f.message.contains("resolve_shards")));
    assert!(hits.iter().any(|f| f.message.contains("Gather::arrivals")));
}

#[test]
fn shard_hot_negative_fixture_is_clean() {
    let fs = analyze("shard_hot_ok.rs", include_str!("fixtures/shard_hot_ok.rs"));
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn trace_hook_positive_fixture_fires() {
    let fs = analyze(
        "trace_hook_bad.rs",
        include_str!("fixtures/trace_hook_bad.rs"),
    );
    let hits = unwaived(&fs, "hot-alloc");
    // format!, collect, to_string, Vec::new — one per line, all inside
    // the ENABLED-guarded hook body of the hot `Executor::step_traced`.
    assert_eq!(hits.len(), 4, "{fs:?}");
    assert!(hits
        .iter()
        .all(|f| f.message.contains("Executor::step_traced")));
}

#[test]
fn trace_hook_negative_fixture_is_clean() {
    let fs = analyze(
        "trace_hook_ok.rs",
        include_str!("fixtures/trace_hook_ok.rs"),
    );
    assert!(fs.is_empty(), "{fs:?}");
}

// ------------------------------------------------------------------ contracts

#[test]
fn contract_positive_fixture_fires_all_three_lints() {
    let fs = analyze("contract_bad.rs", include_str!("fixtures/contract_bad.rs"));
    // Scratch buffer: one `.clear()` plus one `*out = ...` rebind.
    assert_eq!(unwaived(&fs, "adversary-append").len(), 2, "{fs:?}");
    // Both statement-position `inject` calls drop the admission bool.
    assert_eq!(unwaived(&fs, "inject-discard").len(), 2, "{fs:?}");
    // Snapshot's manual Clone never mentions `real`.
    let clone = unwaived(&fs, "clone-fields");
    assert_eq!(clone.len(), 1, "{fs:?}");
    assert!(clone[0].message.contains("`real`"));
}

#[test]
fn contract_negative_fixture_is_clean() {
    let fs = analyze("contract_ok.rs", include_str!("fixtures/contract_ok.rs"));
    assert!(fs.is_empty(), "{fs:?}");
}

// -------------------------------------------------------------- panic hygiene

#[test]
fn panic_positive_fixture_fires() {
    let fs = analyze("panic_bad.rs", include_str!("fixtures/panic_bad.rs"));
    let hits = unwaived(&fs, "panic");
    // unwrap, expect, unwrap_err — one per line.
    assert_eq!(hits.len(), 3, "{fs:?}");
}

#[test]
fn panic_negative_fixture_is_clean() {
    let fs = analyze("panic_ok.rs", include_str!("fixtures/panic_ok.rs"));
    assert!(fs.is_empty(), "{fs:?}");
}

// ---------------------------------------------------------------- index-bound

#[test]
fn index_bound_positive_fixture_fires() {
    let fs = analyze(
        "index_bound_bad.rs",
        include_str!("fixtures/index_bound_bad.rs"),
    );
    let hits = unwaived(&fs, "index-bound");
    // `adj[node][k]` dedupes to one finding on its line; the slice
    // expression adds a second.
    assert_eq!(hits.len(), 2, "{fs:?}");
}

#[test]
fn index_bound_negative_fixture_is_clean() {
    let fs = analyze(
        "index_bound_ok.rs",
        include_str!("fixtures/index_bound_ok.rs"),
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn index_bound_is_off_unless_configured() {
    let mut c = cfg();
    c.index_bound_comments = false;
    let fs = analyze_source(
        "crates/sim/src/index_bound_bad.rs",
        include_str!("fixtures/index_bound_bad.rs"),
        &c,
    );
    assert!(fs.is_empty(), "{fs:?}");
}

// -------------------------------------------------------------------- waivers

#[test]
fn reasoned_waivers_cover_trailing_standalone_and_stacked_placements() {
    let fs = analyze("waiver_ok.rs", include_str!("fixtures/waiver_ok.rs"));
    // Violations are still reported (the JSON ledger keeps them) but
    // every one is waived, so the file gates clean.
    assert!(!fs.is_empty());
    assert!(fs.iter().all(|f| f.waived), "{fs:?}");
    assert!(fs.iter().all(|f| f.reason.is_some()));
    assert!(fs
        .iter()
        .any(|f| f.reason.as_deref() == Some("fixture: stacked waiver one")));
}

#[test]
fn waiver_without_reason_suppresses_nothing_and_is_flagged() {
    let fs = analyze(
        "waiver_missing_reason.rs",
        include_str!("fixtures/waiver_missing_reason.rs"),
    );
    // The underlying violations stay unwaived...
    assert_eq!(unwaived(&fs, "determinism").len(), 1, "{fs:?}");
    assert_eq!(unwaived(&fs, "panic").len(), 1, "{fs:?}");
    // ...and each bad waiver (absent reason, empty reason) is itself a
    // violation.
    assert_eq!(unwaived(&fs, "waiver-missing-reason").len(), 2, "{fs:?}");
}

#[test]
fn waiver_for_the_wrong_lint_does_not_transfer() {
    let src = "use std::collections::HashMap; // analyzer: allow(panic, reason = \"wrong lint\")\n";
    let fs = analyze("wrong_lint.rs", src);
    assert_eq!(unwaived(&fs, "determinism").len(), 1, "{fs:?}");
}

// ------------------------------------------------------------------ hot-stale

#[test]
fn stale_hot_entries_fail() {
    let text = "[hot]\nfunctions = [\n    \"Executor::step_on\",\n    \"resolve_shards\",\n    \"AbsorbPart::absorb\",\n    \"absorb\",\n]\n";
    let cfg = Config::from_toml(text).unwrap();
    let fs = stale_hot_entries(&[include_str!("fixtures/hot_stale.rs")], &cfg, text);
    // A method and a free function match; an entry renamed away and one
    // naming only test code are stale, each on its own config line.
    assert_eq!(fs.len(), 2, "{fs:?}");
    assert!(fs
        .iter()
        .all(|f| f.lint == "hot-stale" && !f.waived && f.file == "analyzer.toml"));
    assert_eq!((fs[0].line, fs[1].line), (5, 6), "{fs:?}");
    assert!(fs[0].message.contains("`AbsorbPart::absorb`"));
    assert!(fs[1].message.contains("`absorb`"));
}
