//! The `dynamics` series: round cost under topology churn vs the static
//! baseline.
//!
//! The dynamics subsystem's perf claim is that epoch swapping is O(1) and
//! reuses every engine buffer, so a schedule of many epochs costs the
//! round path (almost) nothing over a frozen topology. This bench pins
//! that claim: for each engine-workload size its record has two arms,
//!
//! * **static** (base) — dense flooding on the standard `er_dual` workload
//!   graph (the engine series' `dense-flooding` cell), and
//! * **churn** — the identical workload driven by a [`DynamicExecutor`]
//!   through a 16-epoch [`churn_schedule`][generators::churn_schedule] of
//!   32-round epochs, cycled for the whole window, so every span boundary
//!   swaps the active CSR. Its outcome fields carry a `churn_` prefix,
//!   beside `epoch_switches`.
//!
//! The target, `churn / static ≤ 1.5` at `n = 1025`, is the churn arm's
//! limit: epoch swapping must amortize, not dominate.

use std::rc::Rc;

use dualgraph_net::{generators, TopologySchedule};
use dualgraph_sim::{DynamicExecutor, ExecutorConfig, FaultPlan, Flooder, RandomDelivery};

use crate::engine_bench::{self, limit_at, Dispatch};
use crate::record::{executor_outcome, field, Cell, Sample};

/// Epochs in the standard churn schedule.
pub const CHURN_EPOCHS: usize = 16;
/// Rounds per epoch: short enough that a measured window crosses many
/// boundaries, long enough to resemble a real coherence interval.
pub const CHURN_SPAN: u64 = 32;
/// Fraction of the unreliable-only edge set rewired per epoch step.
pub const CHURN_REWIRE: f64 = 0.25;

/// The standard churn schedule over the engine workload graph of size
/// `n`: epoch 0 is the engine series' network itself, each later epoch
/// rewires a quarter of the gray edges (the reliable spine is fixed).
pub fn churn_workload(n: usize) -> TopologySchedule {
    generators::churn_schedule(
        &engine_bench::workload_network(n),
        generators::ChurnParams {
            epochs: CHURN_EPOCHS,
            span: CHURN_SPAN,
            rewire_fraction: CHURN_REWIRE,
        },
        0xC0FFEE,
    )
}

/// The dynamics record at size `n`.
pub(crate) fn cell(n: usize, rounds: u64) -> Cell<'static> {
    let schedule = Rc::new(churn_workload(n));
    let churn = Rc::clone(&schedule);
    Cell::new("dynamics", "dense-flooding-churn16", n, None, rounds)
        .arm("static", move || {
            engine_bench::measure_flooding(schedule.epoch(0).network(), rounds, Dispatch::Enum)
        })
        .arm("churn", move || measure_churn_flooding(&churn, rounds))
        .limit(limit_at(n, 1.5))
}

/// Times `rounds` rounds of dense flooding driven through the cycled
/// churn `schedule` (seed 7, `RandomDelivery(0.5)` — the dense-flooding
/// workload of the engine series, so the two arms are comparable).
///
/// # Panics
///
/// Panics on executor construction failure.
pub fn measure_churn_flooding(schedule: &TopologySchedule, rounds: u64) -> Sample {
    let n = schedule.node_count();
    let mut exec = DynamicExecutor::from_slots(
        schedule,
        Flooder::slots(n),
        Box::new(RandomDelivery::new(0.5, 7)),
        ExecutorConfig::default(),
        FaultPlan::none(),
    )
    .expect("churn workload construction")
    .cycling(true);
    let sample = Sample::time(rounds, || {
        exec.step();
    });
    let churn = executor_outcome(&exec.outcome()).into_iter();
    let churn = churn.map(|(key, value)| (format!("churn_{key}"), value));
    sample.with(
        [field("epoch_switches", exec.epoch_switches())]
            .into_iter()
            .chain(churn)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::measure;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn churn_record_swaps_and_reports() {
        let records = measure(vec![cell(33, 200)]);
        let r = &records[0];
        assert_sampled(r);
        assert_eq!(r.base, "static");
        assert_eq!(r.arms[1].name, "churn");
        // 200 rounds over span-32 epochs cross at least 5 boundaries.
        assert!(num(r, "epoch_switches") >= 5.0, "{r:?}");
        assert!(num(r, "sends") > 0.0 && num(r, "churn_sends") > 0.0);
        assert_eq!(r.arms[1].limit, None, "limits apply at n = 1025");
    }

    #[test]
    fn churn_workload_preserves_the_reliable_spine() {
        let schedule = churn_workload(33);
        assert_eq!(schedule.len(), CHURN_EPOCHS);
        let base = schedule.epoch(0).network();
        for e in schedule.epochs() {
            assert_eq!(
                e.network().reliable_csr().edge_count(),
                base.reliable_csr().edge_count(),
                "the reliable spine is held fixed"
            );
            assert_eq!(
                e.network().unreliable_edge_count(),
                base.unreliable_edge_count(),
                "churn preserves the unreliable edge count"
            );
        }
    }
}
