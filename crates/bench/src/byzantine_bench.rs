//! The `byzantine` series: quorum-certified broadcast under churn with
//! ~10% equivocators.
//!
//! The quorum backend's claim is twofold:
//!
//! * **safety** — under a cycled 8-epoch churn schedule with ~10% of the
//!   population equivocating (different payload faces to different
//!   neighbor parities, every round) and the bursty adversary (fair CR4
//!   coin), no correct node ever certifies a payload id outside the
//!   environment's real set: `safety_violations == 0`, asserted by an
//!   untimed delivery run to settlement (or a 30 000-round horizon) whose
//!   verdicts, bound `f` and mean accept round are the record's outcome;
//! * **cost** — the per-round price of quorum certification (echo/ready
//!   attester sets, acceptance polling, per-receiver Byzantine dispatch)
//!   stays within **2.0×** of the ack-gap retry stream round *under the
//!   same Byzantine plan* (the `quorum` arm's limit over the `ackgap` base
//!   at `n = 1025`), so the ratio isolates the backend swap — both arms
//!   pay the identical engine round, per-receiver slow path, MAC diffing,
//!   and churn plumbing.
//!
//! The workload network is denser than the engine bench's near-tree
//! (`reliable_p = 12/n` against `2/n`): certified propagation needs
//! `f + 1` *distinct* attesters per hop, so a bench on a degree-2
//! backbone would measure starvation, not the protocol (see
//! `docs/BYZANTINE.md` on the sender-diversity liveness condition).

use std::rc::Rc;

use dualgraph_broadcast::stream::{
    Arrivals, DynamicsConfig, SourcePlacement, StreamAlgorithm, StreamConfig, StreamSession,
};
use dualgraph_net::{generators, DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::{
    local_byzantine_bound, DeliveryVerdict, FaultPlan, NodeRole, PayloadId, PayloadSet,
    QuorumPolicy, ReliabilityBackend,
};

use crate::engine_bench::limit_at;
use crate::record::{field, Cell, Sample};
use crate::reliability_bench::{adversary, POLICY};

/// Payloads in the Byzantine stream cell (`2k ≤ MAX_PAYLOADS`: the
/// upper half of the id space carries the ready markers).
pub const BYZANTINE_K: usize = 32;
/// Adversary seed of the Byzantine stream workload.
const SEED: u64 = 0xB42E;

/// The Byzantine workload network: same Erdős–Rényi dual family as the
/// engine bench, but dense enough (`reliable_p = 12/n`) that every node
/// has the sender diversity certified propagation requires.
pub fn workload_network(n: usize) -> DualGraph {
    generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p: 12.0 / n as f64,
            unreliable_p: 24.0 / n as f64,
        },
        0xB12A,
    )
}

/// The cycled 8-epoch churn schedule over the Byzantine workload.
pub fn churn_workload(n: usize) -> TopologySchedule {
    generators::churn_schedule(
        &workload_network(n),
        generators::ChurnParams {
            epochs: 8,
            span: 64,
            rewire_fraction: 0.1,
        },
        0xB12A ^ 0x5EED,
    )
}

/// ~10% equivocators: every 10th node starting at 5 (never node 0, the
/// single-source origin — origins are trusted by assumption). Each
/// equivocator shows one parity a live data id and the other parity
/// that payload's ready marker, cycling the attacked payload across the
/// cast.
pub fn byzantine_plan(n: usize, k: usize) -> (FaultPlan, Vec<NodeId>) {
    let mut plan = FaultPlan::none();
    let mut cast = Vec::new();
    for (c, i) in (5..n as u32).step_by(10).enumerate() {
        let p = (c % k) as u64;
        plan = plan.equivocate(
            NodeId(i),
            1,
            PayloadSet::only(PayloadId(p)),
            PayloadSet::only(PayloadId(k as u64 + p)),
        );
        cast.push(NodeId(i));
    }
    (plan, cast)
}

/// The measured local Byzantine bound of the cast, maximized over every
/// epoch of the schedule.
pub fn measured_bound(schedule: &TopologySchedule, cast: &[NodeId]) -> u32 {
    let n = schedule.node_count();
    let mut roles = vec![NodeRole::Correct; n];
    for node in cast {
        roles[node.index()] = NodeRole::Equivocator {
            even: PayloadSet::EMPTY,
            odd: PayloadSet::EMPTY,
        };
    }
    schedule
        .epochs()
        .iter()
        .map(|e| local_byzantine_bound(e.network(), &roles))
        .max()
        .unwrap_or(0)
}

/// Builds the cell's session on `schedule` with the given backend and
/// the standard equivocator plan.
fn session(
    schedule: &TopologySchedule,
    reliability: ReliabilityBackend,
    max_rounds: u64,
) -> StreamSession<'_> {
    let n = schedule.node_count();
    let (faults, _) = byzantine_plan(n, BYZANTINE_K);
    let config = StreamConfig {
        k: BYZANTINE_K,
        arrivals: Arrivals::Batch,
        sources: SourcePlacement::Single,
        max_rounds,
        dynamics: Some(DynamicsConfig {
            faults,
            cycle: true,
        }),
        reliability: Some(reliability),
        ..StreamConfig::default()
    };
    StreamSession::scheduled(
        schedule,
        StreamAlgorithm::PipelinedFlooding,
        adversary(SEED),
        &config,
    )
    .expect("byzantine workload construction")
}

/// One record: the quorum delivery run to settlement (or a 30 000-round
/// horizon), untimed, then the `ackgap` and `quorum` arms over `rounds`
/// fixed rounds, both under the equivocator plan.
///
/// # Panics
///
/// Panics on session construction failure or — the point — if any
/// correct node certified a forged payload id (`safety_violations`).
pub(crate) fn cell(n: usize, rounds: u64) -> Cell<'static> {
    let schedule = Rc::new(churn_workload(n));
    let (_, cast) = byzantine_plan(n, BYZANTINE_K);
    let f = measured_bound(&schedule, &cast);
    let quorum = ReliabilityBackend::Quorum(QuorumPolicy::for_bound(f));

    let (outcome, _) = session(&schedule, quorum, 30_000).run();
    let report = outcome.reliability.expect("quorum run carries a report");
    assert_eq!(
        report.safety_violations, 0,
        "a correct node certified a forged id (n={n}): {report:?}"
    );
    let accepted: Vec<u64> = report
        .entries
        .iter()
        .filter_map(|e| match e.verdict {
            DeliveryVerdict::Delivered { round, .. } => Some(round),
            _ => None,
        })
        .collect();
    let mean_accept_round = accepted.iter().sum::<u64>() as f64 / accepted.len().max(1) as f64;

    let session_sample = move |schedule: &TopologySchedule, backend| {
        let mut s = session(schedule, backend, u64::MAX);
        Sample::time(rounds, || {
            s.step();
        })
    };
    let on_quorum = Rc::clone(&schedule);
    Cell::new(
        "byzantine",
        "byzantine-churn8-equiv10pct-bursty",
        n,
        Some(BYZANTINE_K),
        rounds,
    )
    .outcome(vec![
        field("equivocators", cast.len()),
        field("byzantine_bound_f", f),
        field("policy", report.backend.name().as_str()),
        field("delivered", report.stats.delivered),
        field("abandoned", report.stats.abandoned),
        field("pending", report.stats.pending),
        field("safety_violations", report.safety_violations),
        field("mean_accept_round", mean_accept_round),
        field("rounds_executed", outcome.rounds_executed),
    ])
    .arm("ackgap", move || session_sample(&schedule, POLICY.into()))
    .arm("quorum", move || session_sample(&on_quorum, quorum))
    .limit(limit_at(n, 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::measure;
    use crate::record::tests::{assert_sampled, num};

    #[test]
    fn byzantine_record_is_safe_and_reports() {
        let records = measure(vec![cell(65, 120)]);
        let r = &records[0];
        assert_sampled(r);
        assert_eq!(r.k, Some(BYZANTINE_K as u64));
        assert!(num(r, "equivocators") >= 5.0, "~10% of 65");
        assert!(
            num(r, "byzantine_bound_f") >= 1.0,
            "the placement is genuinely Byzantine"
        );
        assert_eq!(num(r, "safety_violations"), 0.0);
        assert!(num(r, "delivered") > 0.0, "certification makes progress");
        assert!(r
            .field("policy")
            .and_then(|p| p.as_str())
            .is_some_and(|p| p.starts_with("quorum(")));
    }
}
