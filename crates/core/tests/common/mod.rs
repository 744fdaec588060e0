//! The pinned view of one reliability stream run, shared by the golden
//! tests of the `reliability` and `quorum` suites.

use dualgraph_broadcast::stream::StreamOutcome;
use dualgraph_sim::TraceEvent;

/// Renders everything a golden test pins of one run, one line per item:
///
/// * per payload, the public [`ReliabilityEntry`] fields beside its
///   `PayloadStat`;
/// * the epoch segments, the health report and the safety count;
/// * the traced run's ordered `Retry` and `Verdict` events, one line
///   each, and its ordered `QuorumPhase` events folded into a count and
///   an FNV-1a digest (a quorum run crosses hundreds of stages).
///
/// [`ReliabilityEntry`]: dualgraph_sim::ReliabilityEntry
pub(crate) fn ledger_view(outcome: &StreamOutcome, events: &[TraceEvent]) -> Vec<String> {
    let report = outcome.reliability.as_ref().expect("a reliability run");
    let mut lines: Vec<String> = report
        .entries
        .iter()
        .zip(&outcome.payloads)
        .map(|(e, s)| {
            format!(
                "p{} src={} arr={} retries={} entered={} {} | p{} src={} arr={} done={:?} dropped={}",
                e.payload.0,
                e.source.0,
                e.arrival_round,
                e.retries,
                e.entered,
                e.verdict,
                s.payload.0,
                s.source.0,
                s.arrival_round,
                s.completion_round,
                s.dropped
            )
        })
        .collect();
    lines.extend(outcome.epochs.iter().map(|e| format!("{e:?}")));
    let health = outcome.health.as_ref().expect("a health-instrumented run");
    lines.push(format!(
        "health window={} final={} peak={} drop_rate={} pending_retries={} pending_acks={}",
        health.window,
        health.final_throughput,
        health.peak_throughput,
        health.drop_rate,
        health.peak_pending_retries,
        health.peak_pending_acks
    ));
    lines.push(format!("{:?}", health.ack_latency));
    lines.extend(health.epochs.iter().map(|e| format!("{e:?}")));
    lines.push(format!("safety_violations={}", report.safety_violations));
    let mut phases = 0u32;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for event in events {
        match event {
            TraceEvent::Retry { .. } | TraceEvent::Verdict { .. } => {
                lines.push(format!("{event:?}"));
            }
            TraceEvent::QuorumPhase { .. } => {
                phases += 1;
                for byte in format!("{event:?}").bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            _ => {}
        }
    }
    lines.push(format!("quorum_phases={phases} fnv={digest:#018x}"));
    lines
}
