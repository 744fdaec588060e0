//! The `reliability` series: delivery guarantees and their round-cost
//! overhead under churn + node faults.
//!
//! The reliability layer's claim is twofold:
//!
//! * **guarantee** — under a cycled 16-epoch churn schedule with ~10%
//!   crash/recovery faults and the bursty adversary (fair CR4 coin), the
//!   ack-gap retry policy delivers **every payload to all correct live
//!   nodes**, verified per payload by the spam-proof coverage accounting.
//!   An untimed delivery run to verdict settlement asserts it, and its
//!   verdict counts, retries and settle round are the record's outcome;
//! * **cost** — the per-round price of the policy layer (retry polling,
//!   verdict settlement) stays within **1.3×** of the identical no-retry
//!   stream round: the `retry` arm's limit over the `no_retry` base at
//!   `n = 1025`.
//!
//! Both arms time a fixed window of `StreamSession::step` rounds on
//! sessions that differ *only* in `StreamConfig::reliability`, so the
//! ratio isolates the layer itself (both pay the same engine round, MAC
//! diffing, and fault plumbing).
//!
//! `session` is the one builder of this stream workload; the metrics
//! series and the `--trace-jsonl` capture run it too.

use std::rc::Rc;

use dualgraph_broadcast::stream::{Arrivals, DynamicsConfig, SourcePlacement};
use dualgraph_broadcast::stream::{StreamAlgorithm, StreamConfig, StreamOutcome, StreamSession};
use dualgraph_net::{NodeId, TopologySchedule};
use dualgraph_sim::{
    Adversary, BurstyDelivery, FaultPlan, HealthConfig, ReliabilityBackend, RetryPolicy,
    WithRandomCr4,
};

use crate::dynamics_bench;
use crate::engine_bench::limit_at;
use crate::record::{field, Cell, Sample};

/// Payloads in the reliability stream cell.
pub const RELIABILITY_K: usize = 64;
/// The benched policy: ack-gap-triggered retries.
pub const POLICY: RetryPolicy = RetryPolicy::AckGap {
    gap: 8,
    max_retries: 32,
};
/// Adversary seed of the reliability stream workload.
const SEED: u64 = 0xAC4B;

/// The standard fault plan for size `n`:
///
/// * the source is crashed when the batch arrives, so every arrival is
///   **dropped** and must be retried in by the policy — the lever the
///   no-retry runner lacks. The recovery round (17) is chosen so the
///   ack-gap-8 retry lands in the *same* round the source comes back:
///   the network's first transmission ever carries the whole re-entered
///   batch. (With always-transmit flooding, even a one-round head start
///   of a partial payload set deafens the wavefront to the rest — the
///   CR4 model truth `docs/MULTI_MESSAGE.md` documents — so the delivery
///   guarantee genuinely hinges on the retry timing here; the delivery
///   run's asserts fail loudly if a future change breaks the
///   composition.)
/// * ~10% of nodes crash on staggered rounds (some before the wave, some
///   mid-wave) and recover while verdicts are still pending, so
///   re-informing recovered nodes is part of the guarantee the verdicts
///   certify.
///
/// Spammers are deliberately absent from the *benched* plan: junk that
/// reaches a still-sleeping flooder activates it into the deaf
/// always-transmit state with nothing but junk, which measures the
/// documented flooding limitation rather than the reliability layer. The
/// spam-proof coverage accounting is exercised (and pinned) by the
/// reliability test suite instead.
pub fn fault_plan(n: usize) -> FaultPlan {
    let mut plan = FaultPlan::none().crash(NodeId(0), 1).recover(NodeId(0), 17);
    for i in (3..n as u32).step_by(10) {
        plan = plan
            .crash(NodeId(i), 6 + u64::from(i % 16))
            .recover(NodeId(i), 24 + u64::from(i % 8));
    }
    plan
}

/// The bursty adversary with a fair CR4 coin that the reliability and
/// byzantine streams run against.
pub(crate) fn adversary(seed: u64) -> Box<dyn Adversary> {
    Box::new(WithRandomCr4::new(
        BurstyDelivery::new(0.15, 0.4, seed),
        seed ^ 0x9E37,
    ))
}

/// The reliability stream workload on `schedule` (the dynamics series'
/// cycled 16-epoch churn): a single-source batch stream of `k` payloads
/// under the size's standard fault plan, with the given backend and
/// health instrumentation.
pub(crate) fn session(
    schedule: &TopologySchedule,
    k: usize,
    reliability: Option<ReliabilityBackend>,
    health: Option<HealthConfig>,
    max_rounds: u64,
) -> StreamSession<'_> {
    let config = StreamConfig {
        k,
        arrivals: Arrivals::Batch,
        sources: SourcePlacement::Single,
        max_rounds,
        dynamics: Some(DynamicsConfig {
            faults: fault_plan(schedule.node_count()),
            cycle: true,
        }),
        reliability,
        health,
        ..StreamConfig::default()
    };
    StreamSession::scheduled(
        schedule,
        StreamAlgorithm::PipelinedFlooding,
        adversary(SEED),
        &config,
    )
    .expect("reliability workload construction")
}

/// Times `rounds` steps of a fresh [`session`] of [`RELIABILITY_K`]
/// payloads with the given backend and no health instrumentation.
pub(crate) fn session_sample(
    schedule: &TopologySchedule,
    reliability: Option<ReliabilityBackend>,
    rounds: u64,
) -> Sample {
    let mut s = session(schedule, RELIABILITY_K, reliability, None, u64::MAX);
    Sample::time(rounds, || {
        s.step();
    })
}

/// The untimed delivery run of [`RELIABILITY_K`] payloads under the retry
/// policy, to verdict settlement, with the given health instrumentation.
pub(crate) fn settled_run(
    schedule: &TopologySchedule,
    health: Option<HealthConfig>,
) -> StreamOutcome {
    let (outcome, _) = session(
        schedule,
        RELIABILITY_K,
        Some(POLICY.into()),
        health,
        200_000,
    )
    .run();
    outcome
}

/// One record: the delivery run to verdict settlement, untimed, then the
/// `no_retry` and `retry` arms over `rounds` fixed rounds.
///
/// # Panics
///
/// Panics if the delivery run fails to settle every payload as delivered
/// within its round budget, or never retries.
pub(crate) fn cell(n: usize, rounds: u64) -> Cell<'static> {
    let schedule = Rc::new(dynamics_bench::churn_workload(n));
    let outcome = settled_run(&schedule, None);
    let report = outcome
        .reliability
        .expect("reliability run carries a report");
    let stats = report.stats;
    assert_eq!(
        stats.pending, 0,
        "delivery run must settle every verdict (n={n}): {stats:?}"
    );
    assert_eq!(
        stats.delivered, RELIABILITY_K,
        "every payload must be delivered to all correct live nodes (n={n}): {stats:?}"
    );
    assert!(
        stats.total_retries > 0,
        "the scenario must exercise the retry machinery (n={n})"
    );
    let retry = Rc::clone(&schedule);
    Cell::new(
        "reliability",
        "reliability-churn16-crash10pct-bursty",
        n,
        Some(RELIABILITY_K),
        rounds,
    )
    .outcome(vec![
        field("policy", report.backend.name().as_str()),
        field("delivered", stats.delivered),
        field("abandoned", stats.abandoned),
        field("pending", stats.pending),
        field("retries", stats.total_retries),
        field("rounds_to_settle", outcome.rounds_executed),
    ])
    .arm("no_retry", move || session_sample(&schedule, None, rounds))
    .arm("retry", move || {
        session_sample(&retry, Some(POLICY.into()), rounds)
    })
    .limit(limit_at(n, 1.3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::measure;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn reliability_record_settles_and_reports() {
        let records = measure(vec![cell(65, 120)]);
        let r = &records[0];
        assert_sampled(r);
        assert_eq!(r.k, Some(RELIABILITY_K as u64));
        assert_eq!(r.field("policy"), Some(&"ack-gap".into()));
        assert_eq!(num(r, "pending"), 0.0);
        assert_eq!(num(r, "delivered"), RELIABILITY_K as f64);
        assert_eq!(num(r, "abandoned"), 0.0);
        assert!(num(r, "retries") > 0.0, "retries were exercised");
        assert!(num(r, "rounds_to_settle") > 0.0);
    }

    #[test]
    fn fault_plan_touches_about_ten_percent() {
        let plan = fault_plan(101);
        let crashes = plan
            .events()
            .iter()
            .filter(|e| matches!(e.role, dualgraph_sim::NodeRole::Crashed))
            .count();
        // Source outage + one per step_by(10) node.
        assert!((10..=12).contains(&crashes), "{crashes}");
    }
}
