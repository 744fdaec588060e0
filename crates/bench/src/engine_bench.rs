//! Engine-throughput workloads: enum-dispatched process tables vs the
//! boxed-dispatch path vs the naive reference oracle.
//!
//! Used by `experiments --bench-engine`, which emits the `measurements`
//! section of `BENCH_engine.json`, and by `--bench-compare`, which
//! re-times every row of [`ENGINE_WORKLOADS`].
//!
//! Three workloads, all on the sparse `er_dual` graph of
//! [`workload_network`]:
//!
//! * **chatter** — seeded pseudo-random flooding (`ChatterProcess`, rate
//!   3/8) against `RandomDelivery(0.5)`: the trial-shaped workload
//!   (adversary RNG + CR4 resolution on the hot path);
//! * **dense flooding** — every informed node transmits every round
//!   (`Flooder`) against the same `RandomDelivery(0.5)` adversary: the
//!   broadcast completes, after which the network sits in the all-senders
//!   steady state — the dispatch-dominated regime where the batched
//!   process table and the dense-round write-pass skip pay the most;
//! * **seeker flooding** — `Flooder` against the jamming
//!   `CollisionSeeker`: the flood stalls with every informed node
//!   sending, so every adversary call takes `CollisionSeeker`'s row-scan
//!   branch (many senders, short `G′ ∖ G` rows). No other in-tree
//!   measurement reaches that branch; the sparse `harmonic-trials`
//!   perfbench workload only ever walks the jam set.

use std::time::Instant;

use dualgraph_net::{generators, DualGraph};
use dualgraph_sim::{
    Adversary, ChatterProcess, CollisionSeeker, Executor, ExecutorConfig, Flooder, RandomDelivery,
    ReferenceExecutor,
};

/// Chatter transmit rate (out of 8) used by the engine workload: dense
/// enough to exercise collisions and CR4 resolution.
pub(crate) const CHATTER_RATE: u64 = 3;

/// The workload sizes every `--bench-*` section measures.
pub const BENCH_SIZES: [usize; 3] = [65, 257, 1025];

/// Rounds per timed run at size `n` — shared by the engine, stream, and
/// dynamics sections of `BENCH_engine.json`, so cross-section ratios
/// (e.g. `churn_slowdown_vs_static`) always compare series computed over
/// the same round budget.
pub fn bench_rounds_for(n: usize) -> u64 {
    match n {
        65 => 4000,
        257 => 2000,
        _ => 600,
    }
}

/// Which process-dispatch path the optimized executor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Homogeneous enum slots: the batched process table
    /// (`Executor::from_slots`).
    Enum,
    /// `Box<dyn Process>`: virtual dispatch per node (`Executor::new`).
    Boxed,
}

/// The standard engine workload graph: `er_dual` network of `n` nodes
/// (spanning tree + sparse extra reliable edges + gray edges).
pub fn workload_network(n: usize) -> DualGraph {
    generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p: 2.0 / n as f64,
            unreliable_p: 8.0 / n as f64,
        },
        0xD00D,
    )
}

/// One measured engine run.
#[derive(Debug, Clone)]
pub struct EngineMeasurement {
    /// Rounds actually executed.
    pub rounds: u64,
    /// Wall-clock nanoseconds for the whole run.
    pub elapsed_ns: u128,
}

impl EngineMeasurement {
    /// Nanoseconds per round.
    pub fn ns_per_round(&self) -> f64 {
        self.elapsed_ns as f64 / self.rounds.max(1) as f64
    }

    /// Rounds per second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 * 1e9 / (self.elapsed_ns.max(1) as f64)
    }
}

/// Times `rounds` invocations of `step` — the one timing loop every
/// engine measurement goes through, so all series are measured alike.
pub(crate) fn time_steps(rounds: u64, mut step: impl FnMut()) -> EngineMeasurement {
    let start = Instant::now();
    for _ in 0..rounds {
        step();
    }
    EngineMeasurement {
        rounds,
        elapsed_ns: start.elapsed().as_nanos(),
    }
}

/// The best of three timed runs after a warm-up run — the discipline
/// every engine row is measured with, since the CI container's timer
/// noise otherwise dominates the deltas.
pub fn best_of(mut run: impl FnMut() -> EngineMeasurement) -> EngineMeasurement {
    run(); // warm caches, allocator, first-touch paging
    (0..3)
        .map(|_| run())
        .min_by(|a, b| a.elapsed_ns.cmp(&b.elapsed_ns))
        .expect("three runs")
}

/// The engine section's rows, `(workload name, timed run)`: each is
/// measured at every [`BENCH_SIZES`] n on both dispatch paths by
/// `--bench-engine` and re-timed on the enum path by `--bench-compare`.
/// Chatter comes first: it is the row that also carries the reference
/// oracle's columns.
pub const ENGINE_WORKLOADS: [(&str, fn(&DualGraph, u64, Dispatch) -> EngineMeasurement); 3] = [
    ("er_dual-chatter-random0.5", |net, rounds, dispatch| {
        measure_chatter(net, 7, rounds, dispatch)
    }),
    ("dense-flooding", measure_flooding),
    ("er_dual-flooding-collision-seeker", measure_seeker_flooding),
];

/// Runs the optimized executor on the chatter workload for exactly
/// `rounds` rounds under the chosen dispatch path and times it.
pub fn measure_chatter(
    net: &DualGraph,
    seed: u64,
    rounds: u64,
    dispatch: Dispatch,
) -> EngineMeasurement {
    let adversary = Box::new(RandomDelivery::new(0.5, seed));
    let mut exec = match dispatch {
        Dispatch::Enum => Executor::from_slots(
            net,
            ChatterProcess::slots(net.len(), seed, CHATTER_RATE),
            adversary,
            ExecutorConfig::default(),
        ),
        Dispatch::Boxed => Executor::new(
            net,
            ChatterProcess::boxed(net.len(), seed, CHATTER_RATE),
            adversary,
            ExecutorConfig::default(),
        ),
    }
    .expect("engine workload construction");
    assert_eq!(exec.uses_batched_dispatch(), dispatch == Dispatch::Enum);
    time_steps(rounds, || {
        exec.step();
    })
}

/// Runs the dense flooding workload (`Flooder` + `RandomDelivery(0.5)`)
/// for exactly `rounds` rounds under the chosen dispatch path and times
/// it. Seed fixed at 7: the broadcast completes within the measured
/// window and the remainder runs in the all-senders steady state.
pub fn measure_flooding(net: &DualGraph, rounds: u64, dispatch: Dispatch) -> EngineMeasurement {
    measure_flooding_against(net, rounds, dispatch, Box::new(RandomDelivery::new(0.5, 7)))
}

/// Runs `Flooder` against `CollisionSeeker` for exactly `rounds` rounds
/// under the chosen dispatch path and times it: the stalled flood in
/// which every adversary call scans the sender's `G′ ∖ G` row.
fn measure_seeker_flooding(net: &DualGraph, rounds: u64, dispatch: Dispatch) -> EngineMeasurement {
    measure_flooding_against(net, rounds, dispatch, Box::new(CollisionSeeker::new()))
}

fn measure_flooding_against(
    net: &DualGraph,
    rounds: u64,
    dispatch: Dispatch,
    adversary: Box<dyn Adversary>,
) -> EngineMeasurement {
    let mut exec = match dispatch {
        Dispatch::Enum => Executor::from_slots(
            net,
            Flooder::slots(net.len()),
            adversary,
            ExecutorConfig::default(),
        ),
        Dispatch::Boxed => Executor::new(
            net,
            Flooder::boxed(net.len()),
            adversary,
            ExecutorConfig::default(),
        ),
    }
    .expect("flooding workload construction");
    assert_eq!(exec.uses_batched_dispatch(), dispatch == Dispatch::Enum);
    time_steps(rounds, || {
        exec.step();
    })
}

/// Runs the naive reference executor on the chatter workload for exactly
/// `rounds` rounds and times it (the oracle the live engine is diffed
/// against — the `speedup_enum_vs_reference` baseline).
pub fn measure_reference(net: &DualGraph, seed: u64, rounds: u64) -> EngineMeasurement {
    let mut exec = ReferenceExecutor::new(
        net,
        ChatterProcess::boxed(net.len(), seed, CHATTER_RATE),
        Box::new(RandomDelivery::new(0.5, seed)),
        ExecutorConfig::default(),
    )
    .expect("engine workload construction");
    time_steps(rounds, || {
        exec.step();
    })
}

/// Peak resident-set size in kilobytes (`VmHWM` from `/proc/self/status`);
/// `None` off Linux or if the field is missing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_run_and_report() {
        let net = workload_network(33);
        let enumd = measure_chatter(&net, 7, 50, Dispatch::Enum);
        let boxed = measure_chatter(&net, 7, 50, Dispatch::Boxed);
        let reference = measure_reference(&net, 7, 50);
        assert_eq!(enumd.rounds, 50);
        assert!(enumd.ns_per_round() > 0.0);
        assert!(boxed.ns_per_round() > 0.0);
        assert!(reference.rounds_per_sec() > 0.0);
    }

    #[test]
    fn flooding_measurements_run_on_both_paths() {
        let net = workload_network(33);
        for measure in [measure_flooding, measure_seeker_flooding] {
            let enumd = measure(&net, 50, Dispatch::Enum);
            let boxed = measure(&net, 50, Dispatch::Boxed);
            assert_eq!(enumd.rounds, 50);
            assert!(boxed.ns_per_round() > 0.0);
        }
    }

    #[test]
    fn both_engines_complete_the_same_workload() {
        // Sanity: the workload actually floods (payload spreads).
        let net = workload_network(33);
        let mut exec = Executor::from_slots(
            &net,
            ChatterProcess::slots(net.len(), 7, CHATTER_RATE),
            Box::new(RandomDelivery::new(0.5, 7)),
            ExecutorConfig::default(),
        )
        .unwrap();
        let outcome = exec.run_until_complete(100_000);
        assert!(outcome.completed);
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap_or(0) > 0);
        }
    }
}
