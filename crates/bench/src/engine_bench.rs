//! The `engine` series: enum-dispatched process tables vs the
//! boxed-dispatch path vs the naive reference oracle.
//!
//! Three workloads ([`ENGINE_WORKLOADS`]), all on the sparse `er_dual`
//! graph of [`workload_network`]:
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
//!
//! Each record has an `enum` (base) and a `boxed` arm; chatter adds the
//! `reference` oracle. All arms run one workload, so they must report the
//! same executor outcome.

use std::rc::Rc;

use dualgraph_net::{generators, DualGraph};
use dualgraph_sim::{
    Adversary, ChatterProcess, CollisionSeeker, Executor, ExecutorConfig, Flooder, ProcessSlot,
    RandomDelivery, ReferenceExecutor,
};

use crate::record::{executor_outcome, Cell, Sample};

/// Chatter transmit rate (out of 8) used by the engine workload: dense
/// enough to exercise collisions and CR4 resolution.
pub(crate) const CHATTER_RATE: u64 = 3;

/// The workload sizes every series but scale measures.
pub const BENCH_SIZES: [usize; 3] = [65, 257, 1025];

/// Rounds per timed sample at size `n` — shared by every series but
/// scale, so cross-series figures (e.g. the engine row vs the dynamics
/// `static` arm) always cover the same round budget.
pub fn bench_rounds_for(n: usize) -> u64 {
    match n {
        65 => 4000,
        257 => 2000,
        _ => 600,
    }
}

/// One `cell(n, rounds)` per [`BENCH_SIZES`] n, each timing
/// [`bench_rounds_for`] rounds: the series with one record per size.
pub(crate) fn per_size(cell: fn(usize, u64) -> Cell<'static>) -> Vec<Cell<'static>> {
    BENCH_SIZES
        .iter()
        .map(|&n| cell(n, bench_rounds_for(n)))
        .collect()
}

/// `limit` at the largest [`BENCH_SIZES`] n, else none: every series'
/// per-arm limits apply at that one size, where the ratios hold steadiest.
pub(crate) fn limit_at(n: usize, limit: f64) -> Option<f64> {
    (n == BENCH_SIZES[BENCH_SIZES.len() - 1]).then_some(limit)
}

/// Which process-dispatch path the optimized executor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Homogeneous enum slots: the batched process table
    /// (`Executor::from_slots`).
    Enum,
    /// Every slot boxed into a `ProcessSlot::Custom`: the mixed table,
    /// virtual dispatch per node.
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

/// The chatter workload's name: the row that carries the reference arm.
const CHATTER: &str = "er_dual-chatter-random0.5";

/// Process and adversary seed of the chatter workload.
const CHATTER_SEED: u64 = 7;

/// The engine series' workloads, `(name, one timed sample)`: each is
/// measured at every [`BENCH_SIZES`] n on both dispatch paths.
pub const ENGINE_WORKLOADS: [(&str, fn(&DualGraph, u64, Dispatch) -> Sample); 3] = [
    (CHATTER, |net, rounds, dispatch| {
        measure_chatter(net, CHATTER_SEED, rounds, dispatch)
    }),
    ("dense-flooding", measure_flooding),
    (
        "er_dual-flooding-collision-seeker",
        |net, rounds, dispatch| {
            let mut exec = flooding_executor(net, dispatch, Box::new(CollisionSeeker::new()));
            time_executor(&mut exec, rounds)
        },
    ),
];

/// The engine series: one record per [`ENGINE_WORKLOADS`] row per
/// [`BENCH_SIZES`] size.
pub(crate) fn cells() -> Vec<Cell<'static>> {
    BENCH_SIZES
        .iter()
        .flat_map(|&n| {
            let net = Rc::new(workload_network(n));
            ENGINE_WORKLOADS
                .map(|(workload, measure)| cell(workload, measure, &net, bench_rounds_for(n)))
        })
        .collect()
}

fn cell(
    workload: &str,
    measure: fn(&DualGraph, u64, Dispatch) -> Sample,
    net: &Rc<DualGraph>,
    rounds: u64,
) -> Cell<'static> {
    let on = |dispatch| {
        let net = Rc::clone(net);
        move || measure(&net, rounds, dispatch)
    };
    let cell = Cell::new("engine", workload, net.len(), None, rounds)
        .arm("enum", on(Dispatch::Enum))
        .arm("boxed", on(Dispatch::Boxed));
    if workload != CHATTER {
        return cell;
    }
    let net = Rc::clone(net);
    cell.arm("reference", move || {
        measure_reference(&net, CHATTER_SEED, rounds)
    })
}

/// Times `rounds` steps of `exec` and reads its outcome after the window.
pub(crate) fn time_executor(exec: &mut Executor<'_>, rounds: u64) -> Sample {
    Sample::time(rounds, || {
        exec.step();
    })
    .with(executor_outcome(&exec.outcome()))
}

/// The chatter workload's adversary.
fn chatter_adversary(seed: u64) -> Box<dyn Adversary> {
    Box::new(RandomDelivery::new(0.5, seed))
}

/// Runs the optimized executor on the chatter workload for exactly
/// `rounds` rounds under the chosen dispatch path and times it.
pub fn measure_chatter(net: &DualGraph, seed: u64, rounds: u64, dispatch: Dispatch) -> Sample {
    let n = net.len();
    let mut exec = executor(
        net,
        dispatch,
        chatter_adversary(seed),
        ChatterProcess::slots(n, seed, CHATTER_RATE),
    );
    time_executor(&mut exec, rounds)
}

/// Runs the naive reference executor on the chatter workload for exactly
/// `rounds` rounds and times it (the oracle the live engine is diffed
/// against).
pub fn measure_reference(net: &DualGraph, seed: u64, rounds: u64) -> Sample {
    let mut exec = ReferenceExecutor::from_slots(
        net,
        ChatterProcess::slots(net.len(), seed, CHATTER_RATE),
        chatter_adversary(seed),
        ExecutorConfig::default(),
    )
    .expect("engine workload construction");
    Sample::time(rounds, || {
        exec.step();
    })
    .with(executor_outcome(&exec.outcome()))
}

/// Runs the dense flooding workload ([`dense_flooding`]) for exactly
/// `rounds` rounds under the chosen dispatch path and times it: the
/// broadcast completes within the window and the remainder runs in the
/// all-senders steady state.
pub fn measure_flooding(net: &DualGraph, rounds: u64, dispatch: Dispatch) -> Sample {
    time_executor(&mut dense_flooding(net, dispatch), rounds)
}

/// The dense flooding executor: `Flooder` against `RandomDelivery(0.5)`
/// with seed 7 — the cell the engine row, the dynamics `static` arm, the
/// trace arms, the phase profile and the scale series all time.
pub fn dense_flooding(net: &DualGraph, dispatch: Dispatch) -> Executor<'_> {
    flooding_executor(net, dispatch, Box::new(RandomDelivery::new(0.5, 7)))
}

fn flooding_executor<'a>(
    net: &'a DualGraph,
    dispatch: Dispatch,
    adversary: Box<dyn Adversary>,
) -> Executor<'a> {
    executor(net, dispatch, adversary, Flooder::slots(net.len()))
}

/// The optimized executor on `net` with one automaton's slots, inline or
/// each boxed into a [`ProcessSlot::Custom`], as `dispatch` selects.
fn executor<'a>(
    net: &'a DualGraph,
    dispatch: Dispatch,
    adversary: Box<dyn Adversary>,
    slots: Vec<ProcessSlot>,
) -> Executor<'a> {
    let slots = match dispatch {
        Dispatch::Enum => slots,
        Dispatch::Boxed => slots
            .into_iter()
            .map(|s| ProcessSlot::Custom(s.into_boxed()))
            .collect(),
    };
    let exec = Executor::from_slots(net, slots, adversary, ExecutorConfig::default())
        .expect("engine workload construction");
    assert_eq!(exec.uses_batched_dispatch(), dispatch == Dispatch::Enum);
    exec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::measure;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn every_workload_records_agreeing_arms() {
        let net = Rc::new(workload_network(33));
        let cells = ENGINE_WORKLOADS.map(|(workload, run)| cell(workload, run, &net, 50));
        let records = measure(cells.into());
        assert_eq!(records.len(), ENGINE_WORKLOADS.len());
        for r in &records {
            assert_sampled(r);
            assert_eq!(r.base, "enum");
            assert_eq!(r.arms[1].name, "boxed");
            assert!(num(r, "sends") > 0.0, "{r:?}");
        }
        assert_eq!(
            records[0].arms.len(),
            3,
            "chatter carries the reference arm"
        );
        assert_eq!(records[0].arms[2].name, "reference");
        // The chatter broadcast completes within the window.
        assert!(num(&records[0], "completion_round") > 0.0);
    }
}
