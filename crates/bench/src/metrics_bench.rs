//! The `metrics` series: what the stream-health instrumentation and the
//! metrics registry cost per round.
//!
//! The claim under test: the full reliability stream workload (cycled
//! 16-epoch churn, ~10% crash/recovery faults, bursty adversary, ack-gap
//! retries) with [`HealthConfig`] windowed stats enabled **and** a
//! [`MetricsRegistry`] updated every round (the `instrumented` arm) stays
//! within **1.10×** of the identical uninstrumented session (the `plain`
//! base) at `n = 1025` — the arm's limit. Both arms pay the same engine
//! round, MAC diffing, and retry plumbing; the ratio isolates the
//! observability layer itself.
//!
//! The record's outcome fields come from one untimed instrumented run to
//! settlement: its epoch segments and the health figures, so a change to
//! what the instrumentation reports fails the `--bench-compare` gate.

use std::rc::Rc;

use dualgraph_net::TopologySchedule;
use dualgraph_sim::{HealthConfig, MetricsRegistry};

use crate::dynamics_bench;
use crate::engine_bench::limit_at;
use crate::record::{field, Cell, Sample};
use crate::reliability_bench::{session, session_sample, settled_run, POLICY, RELIABILITY_K};

/// The metrics record at size `n`.
pub(crate) fn cell(n: usize, rounds: u64) -> Cell<'static> {
    let schedule = Rc::new(dynamics_bench::churn_workload(n));
    let outcome = settled_run(&schedule, Some(HealthConfig::default()));
    let health = outcome.health.expect("health enabled");
    let delivered: usize = outcome.epochs.iter().map(|e| e.delivered).sum();
    let instrumented = Rc::clone(&schedule);
    Cell::new(
        "metrics",
        "reliability-churn16-crash10pct-bursty",
        n,
        Some(RELIABILITY_K),
        rounds,
    )
    .outcome(vec![
        field("segments", outcome.epochs.len()),
        field("delivered", delivered),
        field("ack_latency_count", health.ack_latency.count),
        field("peak_pending_retries", health.peak_pending_retries),
        field("peak_pending_acks", health.peak_pending_acks),
        field("rounds_to_settle", outcome.rounds_executed),
    ])
    .arm("plain", move || {
        session_sample(&schedule, Some(POLICY.into()), rounds)
    })
    .arm("instrumented", move || {
        instrumented_sample(&instrumented, rounds)
    })
    .limit(limit_at(n, 1.10))
}

/// Times `rounds` fixed `step`s with the full observability surface on:
/// windowed health stats inside the session, plus one registry counter
/// bump, gauge sample, and histogram record per round — the usage shape
/// a saturation-finder driver would have.
fn instrumented_sample(schedule: &TopologySchedule, rounds: u64) -> Sample {
    let mut s = session(
        schedule,
        RELIABILITY_K,
        Some(POLICY.into()),
        Some(HealthConfig::default()),
        u64::MAX,
    );
    let mut registry = MetricsRegistry::new();
    let rounds_counter = registry.counter("rounds");
    let pending_gauge = registry.gauge("pending_acks");
    let depth_histogram = registry.histogram("pending_ack_depth");
    let sample = Sample::time(rounds, || {
        s.step();
        let pending = s.mac().pending_acks();
        registry.inc(rounds_counter);
        registry.set_gauge(pending_gauge, pending as i64);
        registry.record(depth_histogram, pending as u64);
    });
    assert_eq!(registry.counter_value(rounds_counter), rounds);
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::measure;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn metrics_record_reports_both_arms() {
        let records = measure(vec![cell(65, 120)]);
        let r = &records[0];
        assert_sampled(r);
        assert_eq!(r.k, Some(RELIABILITY_K as u64));
        assert_eq!(r.base, "plain");
        assert_eq!(r.arms[1].name, "instrumented");
        // The segments account for every settled payload.
        assert_eq!(num(r, "delivered"), RELIABILITY_K as f64);
        assert!(num(r, "segments") >= 1.0);
        assert!(num(r, "rounds_to_settle") > 0.0);
    }

    #[test]
    fn instrumented_session_surfaces_health() {
        let schedule = dynamics_bench::churn_workload(33);
        let (outcome, mac) = session(
            &schedule,
            RELIABILITY_K,
            Some(POLICY.into()),
            Some(HealthConfig::default()),
            u64::MAX,
        )
        .run_traced(&mut dualgraph_sim::NullSink);
        let health = outcome.health.expect("health enabled");
        assert!(!outcome.epochs.is_empty());
        // The bursty adversary keeps full-neighborhood acks from ever
        // completing on this workload; deliveries settle through the
        // retry layer instead, and the segments must account for every
        // one.
        assert_eq!(health.ack_latency.count, mac.ack_records().len() as u64);
        let delivered: usize = outcome.epochs.iter().map(|e| e.delivered).sum();
        let verdicts = outcome
            .reliability
            .as_ref()
            .map_or(0, |r| r.stats.delivered);
        assert_eq!(delivered, verdicts, "segments count settled verdicts");
        assert!(delivered > 0, "instrumented run still delivers payloads");
        assert!(health.final_throughput >= 0.0);
    }
}
