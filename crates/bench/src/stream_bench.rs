//! The `stream` series: pipelined multi-message streams at
//! `n ∈ {65, 257, 1025}` with `k ∈ {1, 8, 64}` concurrent payloads.
//!
//! One record per `(n, k)` cell, on the batched enum-dispatch engine. Its
//! one arm, `steady`, first runs a single-source batch stream of `k`
//! payloads pushed by pipelined flooding through the standard `er_dual`
//! engine workload graph under `RandomDelivery(0.5)` — the record's
//! outcome is that run's makespan, mean payload latency and MAC ack
//! figures — and then times the all-senders steady state, every
//! transmission carrying the full `k`-payload set. The `k = 1` record is
//! the dense-flooding hot path, so the `k = 64` figure over the `k = 1`
//! figure is exactly the cost of multi-message cargo (the acceptance
//! target is ≤ 2×). Throughput is `k / makespan_rounds`.

use std::rc::Rc;

use dualgraph_broadcast::stream::{
    run_stream_session, Arrivals, SourcePlacement, StreamAlgorithm, StreamConfig,
};
use dualgraph_net::DualGraph;
use dualgraph_sim::RandomDelivery;

use crate::engine_bench::{bench_rounds_for, workload_network, BENCH_SIZES};
use crate::record::{field, Cell, Sample};

/// Concurrent payloads per stream record.
pub const STREAM_KS: [usize; 3] = [1, 8, 64];

/// The stream series: one record per [`BENCH_SIZES`] n × [`STREAM_KS`] k.
pub(crate) fn cells() -> Vec<Cell<'static>> {
    BENCH_SIZES
        .iter()
        .flat_map(|&n| {
            let net = Rc::new(workload_network(n));
            STREAM_KS.map(|k| cell(&net, k, bench_rounds_for(n)))
        })
        .collect()
}

fn cell(net: &Rc<DualGraph>, k: usize, steady_rounds: u64) -> Cell<'static> {
    let net = Rc::clone(net);
    Cell::new(
        "stream",
        "stream-pipelined-flooding",
        net.len(),
        Some(k),
        steady_rounds,
    )
    .arm("steady", move || measure_stream(&net, k, 7, steady_rounds))
}

/// Completes a k-payload pipelined-flooding stream on `net` via the
/// library's own drive loop ([`run_stream_session`] — the bench must not
/// fork it), then times `steady_rounds` further rounds of the all-senders
/// steady state.
///
/// # Panics
///
/// Panics if the stream fails to complete within its round budget (the
/// single-source batch regime always completes) or on executor
/// construction failure.
pub fn measure_stream(net: &DualGraph, k: usize, seed: u64, steady_rounds: u64) -> Sample {
    let (outcome, mac) = run_stream_session(
        net,
        StreamAlgorithm::PipelinedFlooding,
        Box::new(RandomDelivery::new(0.5, seed)),
        // Single-source batch arrivals: the regime pipelined flooding
        // fully pipelines (see the `stream` module docs for why
        // multi-source flooding cannot mix under CR2–CR4).
        &StreamConfig {
            k,
            arrivals: Arrivals::Batch,
            sources: SourcePlacement::Single,
            max_rounds: 5_000_000,
            ..StreamConfig::default()
        },
    )
    .expect("stream workload construction");
    assert!(
        outcome.completed,
        "stream did not complete (n={}, k={k})",
        net.len()
    );
    let stats = outcome.mac;
    let mut exec = mac.into_executor();
    Sample::time(steady_rounds, || {
        exec.step();
    })
    .with(vec![
        field("makespan_rounds", outcome.makespan()),
        field("mean_latency_rounds", outcome.mean_latency()),
        field("mac_acked", stats.acked),
        field("mac_max_ack_latency", stats.max_ack_latency),
        field("mac_mean_ack_latency", stats.mean_ack_latency),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::measure;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn stream_records_complete_and_report() {
        let net = Rc::new(workload_network(33));
        let records = measure(vec![cell(&net, 1, 10), cell(&net, 8, 40)]);
        for r in &records {
            assert_sampled(r);
            let k = r.k.expect("stream records carry k") as f64;
            assert_eq!(num(r, "mac_acked"), k);
            // Single-source batch: every payload rides the same wavefront.
            assert!(num(r, "makespan_rounds") > 0.0);
            assert_eq!(num(r, "mean_latency_rounds"), num(r, "makespan_rounds"));
        }
        assert_eq!(records[1].k, Some(8));
    }
}
