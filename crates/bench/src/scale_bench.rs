//! The `scale` series: dense flooding to `n = 2^20` on the sharded round
//! engine, sharded vs sequential arms.
//!
//! The other series stop at `n = 1025` because their `er_dual` generator
//! samples every node pair (O(n²)). The scale series instead uses
//! [`generators::scale_dual`] — a ring spine plus per-node random chords
//! and unreliable extras, built in O(n + m) — so one epoch of dense
//! flooding fits in sane RSS even at a million nodes.
//!
//! Each size's record has two arms on identical workloads:
//!
//! * **sharded** (base) — [`ShardedExecutor`] with `max(cores, 2)`
//!   workers, so the sharded machinery is genuinely exercised even on
//!   starved CI containers;
//! * **sequential** — the plain [`Executor`] round loop, so
//!   `sequential / sharded` is the sharding speedup.
//!
//! A 2^20-node network cannot stay alive beside the other series, so each
//! arm keeps one executor: the warm-up call runs the broadcast to
//! completion plus one steady-state window, and each sample times the next
//! window of the all-senders steady state — the regime the word-level
//! bitset kernels and the dense-round fast path target. The arms run one
//! after the other, then join into one record and must agree on the
//! completion round and each window's sends and collisions (bit identity).
//! The speedup claim (sharded ≥ 2× sequential at `n = 2^17`) needs ≥ 4
//! cores, so it is no limit; the document records `cores`.

use dualgraph_net::{generators, DualGraph};
use dualgraph_sim::{BroadcastOutcome, Executor, ShardedExecutor};

use crate::engine_bench::{dense_flooding, Dispatch};
use crate::record::{field, join, measure, peak_rss_kb, BenchRecord, Cell, Outcome, Sample};

/// The scale-series sizes: `2^14`, `2^17`, `2^20` nodes.
pub const SCALE_SIZES: [usize; 3] = [1 << 14, 1 << 17, 1 << 20];

/// Round cap for the broadcast that precedes the steady state.
const EPOCH_CAP: u64 = 100_000;

/// Steady-state rounds timed at size `n` — scaled down with `n` so the
/// full series stays inside a CI budget while every arm still times
/// multiple rounds.
pub fn scale_rounds_for(n: usize) -> u64 {
    if n <= 1 << 14 {
        96
    } else if n <= 1 << 17 {
        24
    } else {
        6
    }
}

/// The scale workload graph: [`generators::scale_dual`] with two chords
/// and two unreliable extras per node — sparse (≈ 5n undirected edges),
/// low-diameter, and O(n + m) to build.
pub fn scale_network(n: usize) -> DualGraph {
    generators::scale_dual(
        generators::ScaleDualParams {
            n,
            chords_per_node: 2,
            extras_per_node: 2,
        },
        0x5CA1E,
    )
}

/// The scale series, measured: one record per [`SCALE_SIZES`] size, in
/// ascending order, each carrying the peak RSS up to and including it.
pub(crate) fn records() -> Vec<BenchRecord> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .max(2);
    SCALE_SIZES
        .iter()
        .map(|&n| {
            let mut record = measure_scale(&scale_network(n), scale_rounds_for(n), workers);
            record.peak_rss_kb = peak_rss_kb();
            record
        })
        .collect()
}

/// Measures both arms on `net`, one arm at a time, and joins them.
///
/// # Panics
///
/// Panics if an arm fails to complete the broadcast within the round cap,
/// or if the arms' outcomes differ (a bit-identity violation).
fn measure_scale(net: &DualGraph, rounds: u64, workers: usize) -> BenchRecord {
    let cell = || Cell::new("scale", "scale-dense-flooding", net.len(), None, rounds);
    let mut sharded: Option<ShardedExecutor<'_>> = None;
    let sharded = cell().arm("sharded", move || {
        let exec = sharded.get_or_insert_with(|| {
            let mut exec = ShardedExecutor::new(dense_flooding(net, Dispatch::Enum), workers);
            assert!(exec.run_until_complete(EPOCH_CAP).completed);
            exec
        });
        let start = exec.outcome();
        Sample::time(rounds, || {
            exec.step();
        })
        .with(window(&start, &exec.outcome()))
    });
    let mut sequential: Option<Executor<'_>> = None;
    let sequential = cell().arm("sequential", move || {
        let exec = sequential.get_or_insert_with(|| {
            let mut exec = dense_flooding(net, Dispatch::Enum);
            assert!(exec.run_until_complete(EPOCH_CAP).completed);
            exec
        });
        let start = exec.outcome();
        Sample::time(rounds, || {
            exec.step();
        })
        .with(window(&start, &exec.outcome()))
    });
    let sharded = measure(vec![sharded]);
    let sequential = measure(vec![sequential]);
    join(sharded.into_iter().chain(sequential).collect())
}

/// A steady-state window's outcome: the completion round, and the
/// transmissions and physical collisions between `start` and `end`.
fn window(start: &BroadcastOutcome, end: &BroadcastOutcome) -> Outcome {
    vec![
        field("completion_round", end.completion_round),
        field("window_sends", end.sends - start.sends),
        field(
            "window_physical_collisions",
            end.physical_collisions - start.physical_collisions,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn scale_record_runs_and_cross_checks() {
        // Small instance of the exact measurement path (the real sizes are
        // exercised by `--bench scale`).
        let r = measure_scale(&scale_network(200), 10, 2);
        assert_sampled(&r);
        assert_eq!(r.n, 200);
        assert_eq!(r.base, "sharded");
        assert_eq!(r.arms[1].name, "sequential");
        assert!(num(&r, "completion_round") > 0.0);
        // Every node floods every steady-state round.
        assert_eq!(num(&r, "window_sends"), 200.0 * 10.0);
    }

    #[test]
    fn scale_sizes_are_the_advertised_powers() {
        assert_eq!(SCALE_SIZES, [16_384, 131_072, 1_048_576]);
        assert!(scale_rounds_for(1 << 14) > scale_rounds_for(1 << 17));
        assert!(scale_rounds_for(1 << 17) > scale_rounds_for(1 << 20));
    }

    #[test]
    fn scale_network_is_sparse() {
        let net = scale_network(4096);
        // Ring + ≤ 2 chords per node: far below the quadratic regime.
        assert!(net.reliable_csr().edge_count() <= 4096 * 6);
    }
}
