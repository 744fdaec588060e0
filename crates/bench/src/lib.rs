//! # dualgraph-bench
//!
//! The experiment harness that regenerates every table and theorem-shape
//! of the PODC 2010 dual-graph broadcast paper. Each paper artifact has a
//! module under [`experiments`]; the `experiments` binary prints the full
//! suite and writes CSVs, and its `--bench-*` modes time the engine and
//! the layers above it into `BENCH_engine.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Schema tag stamped into `BENCH_engine.json`. Bump on any change to
/// the emitted sections or series names; the checked-in snapshot must be
/// regenerated in the same PR (a bench test pins the file to this
/// constant).
pub const BENCH_SCHEMA: &str = "dualgraph-bench-engine/11";

pub mod byzantine_bench;
pub mod compare;
pub mod dynamics_bench;
pub mod engine_bench;
pub mod experiments;
pub mod metrics_bench;
pub mod reliability_bench;
pub mod report;
pub mod scale_bench;
pub mod stream_bench;
pub mod trace_bench;
pub mod workloads;
