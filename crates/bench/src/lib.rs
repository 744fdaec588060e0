//! # dualgraph-bench
//!
//! The experiment harness that regenerates every table and theorem-shape
//! of the PODC 2010 dual-graph broadcast paper. Each paper artifact has a
//! module under [`experiments`]; the `experiments` binary prints the full
//! suite and writes CSVs, and its `--bench` mode times the engine and the
//! layers above it into `BENCH_engine.json` ([`bench`](fn@bench)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use engine_bench::per_size;
use record::BenchDocument;

/// Schema tag stamped into `BENCH_engine.json`. Bump on any change to
/// the record shape or to a series' records; the checked-in snapshot must
/// be regenerated in the same PR (a bench test pins the file to this
/// constant).
pub const BENCH_SCHEMA: &str = "dualgraph-bench-engine/12";

/// The series `--bench` measures, in document order.
pub const SERIES: [&str; 8] = [
    "engine",
    "stream",
    "dynamics",
    "reliability",
    "byzantine",
    "trace",
    "metrics",
    "scale",
];

pub mod byzantine_bench;
pub mod compare;
pub mod dynamics_bench;
pub mod engine_bench;
pub mod experiments;
pub mod metrics_bench;
pub mod record;
pub mod reliability_bench;
pub mod report;
pub mod scale_bench;
pub mod stream_bench;
pub mod trace_bench;
pub mod workloads;

/// Measures the named [`SERIES`] into one document. Every record but
/// scale's goes through one pass-major `record::measure`; the document's
/// `peak_rss_kb` is read after it. The scale series then measures its
/// 2^20-node networks one at a time, so they are never alive beside the
/// others. Names outside [`SERIES`] measure nothing.
pub fn bench(series: &[&str]) -> BenchDocument {
    let wanted = |name: &str| series.contains(&name);
    let cells = SERIES
        .into_iter()
        .filter(|name| wanted(name))
        .flat_map(|name| match name {
            "engine" => engine_bench::cells(),
            "stream" => stream_bench::cells(),
            "dynamics" => per_size(dynamics_bench::cell),
            "reliability" => per_size(reliability_bench::cell),
            "byzantine" => per_size(byzantine_bench::cell),
            "trace" => [trace_bench::overhead_cell, trace_bench::phase_cell]
                .into_iter()
                .flat_map(per_size)
                .collect(),
            "metrics" => per_size(metrics_bench::cell),
            _ => Vec::new(), // scale: measured below
        })
        .collect();
    let mut records = record::measure(cells);
    let peak_rss_kb = record::peak_rss_kb();
    if wanted("scale") {
        records.extend(scale_bench::records());
    }
    BenchDocument {
        cores: std::thread::available_parallelism().map_or(1, |c| c.get() as u64),
        peak_rss_kb,
        records,
    }
}
