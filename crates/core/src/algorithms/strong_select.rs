//! **Strong Select** — the paper's deterministic `O(n^{3/2}√log n)`
//! broadcast algorithm (§5).
//!
//! # The schedule
//!
//! Let `s_max = log₂ √(n / log n)` and `k_s = 2^s`. For each `s ∈ [s_max]`
//! fix an `(n, k_s)`-strongly-selective family `F_s` of `ℓ_s = O(k_s² ·
//! polylog n)` sets, with `F_{s_max}` the round-robin `(n, n)`-SSF.
//!
//! Rounds are grouped into **epochs** of `2^{s_max} − 1` rounds. Within an
//! epoch, round `r` (1-based) is dedicated to family `s = ⌊log₂ r⌋ + 1`:
//! one set of `F_1`, then two sets of `F_2`, four of `F_3`, …, `2^{s_max−1}`
//! sets of `F_{s_max}`. Set indices advance cyclically across epochs, so an
//! *iteration* (one full pass) of `F_s` spans `ℓ_s / 2^{s−1}` epochs.
//!
//! # The protocol
//!
//! When a node first receives the message it waits, for each `s`, until
//! `F_s` cycles back to its first set, then participates in **exactly one
//! iteration** of `F_s` — transmitting in a round iff its id is in the
//! scheduled set — and then stops participating in that family forever.
//! Limiting participation bounds the interval during which an "exhausted"
//! node (all reliable neighbors informed, unreliable neighbors blockable)
//! can interfere, which is the crux of the dual-graph analysis; it also
//! means nodes eventually stop transmitting altogether.
//!
//! Under asynchronous start, the global round counter comes from round tags
//! on messages (§5 footnote 1): the source stamps its local round; every
//! node adopts the stamp on first reception and stamps its own
//! transmissions.
//!
//! # Implementation notes
//!
//! Families are padded with empty sets to a multiple of `2^{s−1}` so that
//! iterations align with epoch blocks (empty sets are no-ops and never hurt
//! selectivity). All processes share one immutable [`StrongSelectPlan`].

use std::sync::Arc;

use dualgraph_sim::{ProcessId, ProcessSlot};

use super::BroadcastAlgorithm;

/// The Strong Select machinery (state machine + shared plan live in
/// `dualgraph-sim`; the process is inline-dispatch capable via
/// [`ProcessSlot::StrongSelect`]).
pub use dualgraph_sim::automata::{
    Participation, SsfConstruction, StrongSelectPlan, StrongSelectProcess,
};

/// Factory for [`StrongSelectProcess`].
#[derive(Debug, Clone, Copy)]
pub struct StrongSelect {
    construction: SsfConstruction,
    participation: Participation,
}

impl StrongSelect {
    /// Strong Select over explicit Kautz–Singleton families.
    pub fn new() -> Self {
        StrongSelect {
            construction: SsfConstruction::KautzSingleton,
            participation: Participation::Once,
        }
    }

    /// Strong Select over the chosen family construction.
    pub fn with_construction(construction: SsfConstruction) -> Self {
        StrongSelect {
            construction,
            participation: Participation::Once,
        }
    }

    /// The ablation arm: nodes never stop participating (the classical
    /// cycle-forever behavior of [6, 7]).
    pub fn forever() -> Self {
        StrongSelect {
            construction: SsfConstruction::KautzSingleton,
            participation: Participation::Forever,
        }
    }
}

impl Default for StrongSelect {
    fn default() -> Self {
        Self::new()
    }
}

impl BroadcastAlgorithm for StrongSelect {
    fn name(&self) -> String {
        let base = match self.construction {
            SsfConstruction::KautzSingleton => "strong-select(KS",
            SsfConstruction::Random { .. } => "strong-select(random",
        };
        match self.participation {
            Participation::Once => format!("{base})"),
            Participation::Forever => format!("{base},forever)"),
        }
    }

    fn is_deterministic(&self) -> bool {
        // The Random variant uses a fixed, shared seed: the resulting
        // automata are still deterministic functions of their observations.
        true
    }

    fn slots(&self, n: usize, _seed: u64) -> Vec<ProcessSlot> {
        let plan = Arc::new(StrongSelectPlan::new(n, self.construction));
        (0..n)
            .map(|i| {
                ProcessSlot::StrongSelect(StrongSelectProcess::with_participation(
                    ProcessId::from_index(i),
                    Arc::clone(&plan),
                    self.participation,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::run;
    use super::*;
    use dualgraph_net::generators;
    use dualgraph_sim::{
        ActivationCause, CollisionRule, FullDelivery, Message, PayloadId, Process, RandomDelivery,
        ReliableOnly, StartRule,
    };

    // `s_max_grows_with_n` moved to `dualgraph-sim::automata::strong_select`
    // with the plan (it exercises the private `s_max_for`).

    #[test]
    fn theorem10_budget_dominates_measured_runs() {
        // The budget X = 12 f(n) 2^{s_max} n must upper-bound completion
        // on any network/adversary; check a hostile one.
        let n = 33;
        let plan = StrongSelectPlan::new(n, SsfConstruction::KautzSingleton);
        let budget = plan.theorem10_budget();
        let net = generators::layered_pairs(n);
        let outcome = run(
            &net,
            StrongSelect::new().slots(n, 0),
            Box::new(dualgraph_sim::CollisionSeeker::new()),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            budget,
        );
        assert!(outcome.completed, "must finish within the theorem budget");
        assert!(outcome.completion_round.unwrap() <= budget);
        assert!(plan.f_bound() >= 1);
    }

    #[test]
    fn top_family_is_round_robin() {
        let plan = StrongSelectPlan::new(64, SsfConstruction::KautzSingleton);
        let top = plan.family(plan.s_max());
        assert_eq!(top.k(), 64);
        // Padded round robin: first 64 sets are singletons.
        for j in 0..64 {
            assert_eq!(top.set(j), &[j as u32]);
        }
    }

    #[test]
    fn families_padded_to_block_multiples() {
        let plan = StrongSelectPlan::new(256, SsfConstruction::KautzSingleton);
        for s in 1..=plan.s_max() {
            let block = 1usize << (s - 1);
            assert_eq!(
                plan.family(s).len() % block,
                0,
                "family {s} not padded to block {block}"
            );
        }
    }

    #[test]
    fn slot_layout_within_epoch() {
        let plan = StrongSelectPlan::new(256, SsfConstruction::KautzSingleton);
        let epoch_len = plan.epoch_len();
        // Round 1 of every epoch is F_1; rounds 2-3 are F_2; etc.
        for e in 0..3u64 {
            assert_eq!(plan.slot(e * epoch_len + 1).s, 1);
            if plan.s_max() >= 2 {
                assert_eq!(plan.slot(e * epoch_len + 2).s, 2);
                assert_eq!(plan.slot(e * epoch_len + 3).s, 2);
            }
            if plan.s_max() >= 3 {
                for r in 4..8.min(epoch_len + 1) {
                    assert_eq!(plan.slot(e * epoch_len + r).s, 3);
                }
            }
        }
    }

    #[test]
    fn set_indices_advance_cyclically() {
        let plan = StrongSelectPlan::new(256, SsfConstruction::KautzSingleton);
        let s = 2u32;
        let ell = plan.family(s).len() as u64;
        // Collect the family-2 set indices over enough epochs for a full
        // cycle plus change; they must be 0,1,2,...,ell-1,0,1,...
        let mut indices = Vec::new();
        let mut round = 1;
        while indices.len() < (ell + 4) as usize {
            let slot = plan.slot(round);
            if slot.s == s {
                indices.push(slot.set_index);
            }
            round += 1;
        }
        for (i, &idx) in indices.iter().enumerate() {
            assert_eq!(idx, i % ell as usize);
        }
    }

    #[test]
    fn iteration_start_is_aligned_and_at_or_after_from() {
        let plan = StrongSelectPlan::new(256, SsfConstruction::KautzSingleton);
        for s in 1..=plan.s_max() {
            for from in [1u64, 2, 17, 100, 1000] {
                let g = plan.iteration_start(s, from);
                assert!(g >= from);
                let slot = plan.slot(g);
                assert_eq!(slot.s, s, "start round must belong to family {s}");
                assert_eq!(slot.set_index, 0, "iteration must begin at set 0");
            }
        }
    }

    #[test]
    fn each_participant_covers_exactly_one_iteration() {
        // Simulate the windows of a node activated at various times: the
        // family-s rounds within its window must hit each set exactly once.
        let plan = Arc::new(StrongSelectPlan::new(64, SsfConstruction::KautzSingleton));
        for start in [1u64, 5, 33, 212] {
            for s in 1..=plan.s_max() {
                let w = plan.iteration_start(s, start);
                let end = w + plan.iteration_span(s);
                let mut seen = vec![0usize; plan.family(s).len()];
                for g in w..end {
                    let slot = plan.slot(g);
                    if slot.s == s {
                        seen[slot.set_index] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "start={start} s={s} seen={seen:?}"
                );
            }
        }
    }

    #[test]
    fn completes_on_classical_line_cr1_sync() {
        let n = 16;
        let net = generators::line(n, 1);
        let outcome = run(
            &net,
            StrongSelect::new().slots(n, 0),
            Box::new(ReliableOnly::new()),
            CollisionRule::Cr1,
            StartRule::Synchronous,
            2_000_000,
        );
        assert!(outcome.completed, "rounds={}", outcome.rounds_executed);
    }

    #[test]
    fn completes_under_cr4_async_with_random_adversary() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 48,
                reliable_p: 0.08,
                unreliable_p: 0.15,
            },
            3,
        );
        let outcome = run(
            &net,
            StrongSelect::new().slots(48, 0),
            Box::new(RandomDelivery::new(0.3, 17)),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            2_000_000,
        );
        assert!(outcome.completed, "rounds={}", outcome.rounds_executed);
    }

    #[test]
    fn completes_on_clique_bridge_under_full_delivery() {
        let gadget = generators::clique_bridge(24);
        let outcome = run(
            &gadget.network,
            StrongSelect::new().slots(24, 0),
            Box::new(FullDelivery::new()),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            2_000_000,
        );
        assert!(outcome.completed);
    }

    #[test]
    fn random_construction_also_completes() {
        let net = generators::line(24, 2);
        let algo = StrongSelect::with_construction(SsfConstruction::Random { seed: 5 });
        let outcome = run(
            &net,
            algo.slots(24, 0),
            Box::new(RandomDelivery::new(0.5, 2)),
            CollisionRule::Cr4,
            StartRule::Asynchronous,
            2_000_000,
        );
        assert!(outcome.completed);
    }

    #[test]
    fn nodes_eventually_terminate() {
        // §5: "nodes eventually stop broadcasting" — after all windows
        // close, is_terminated reports true and no more sends happen.
        let n = 12;
        let net = generators::complete(n);
        let mut exec = dualgraph_sim::Executor::from_slots(
            &net,
            StrongSelect::new().slots(n, 0),
            Box::new(ReliableOnly::new()),
            dualgraph_sim::ExecutorConfig::default(),
        )
        .unwrap();
        exec.run_until_complete(1_000_000);
        assert!(exec.is_complete());
        // Run long past every window.
        let plan = StrongSelectPlan::new(n, SsfConstruction::KautzSingleton);
        let horizon: u64 = (1..=plan.s_max())
            .map(|s| plan.iteration_span(s))
            .sum::<u64>()
            * 4
            + 1000;
        let before = exec.outcome().sends;
        exec.run_rounds(horizon);
        let after = exec.outcome().sends;
        for v in net.nodes() {
            assert!(exec.process_at(v).is_terminated(), "node {v}");
        }
        // Sends must have stopped at some point well before the end.
        exec.run_rounds(100);
        assert_eq!(exec.outcome().sends, after);
        let _ = before;
    }

    #[test]
    fn uninformed_nodes_never_transmit() {
        let plan = Arc::new(StrongSelectPlan::new(8, SsfConstruction::KautzSingleton));
        let mut p = StrongSelectProcess::new(ProcessId(3), plan);
        p.on_activate(ActivationCause::SynchronousStart);
        for local in 1..100 {
            assert_eq!(p.transmit(local), None);
        }
        assert!(!p.is_terminated());
    }

    #[test]
    fn metadata() {
        assert_eq!(StrongSelect::new().name(), "strong-select(KS)");
        assert!(StrongSelect::new().is_deterministic());
        assert_eq!(
            StrongSelect::with_construction(SsfConstruction::Random { seed: 1 }).name(),
            "strong-select(random)"
        );
        assert_eq!(StrongSelect::forever().name(), "strong-select(KS,forever)");
    }

    #[test]
    fn forever_variant_completes_and_keeps_transmitting() {
        let n = 13;
        let net = generators::layered_pairs(n);
        let mut exec = dualgraph_sim::Executor::from_slots(
            &net,
            StrongSelect::forever().slots(n, 0),
            Box::new(ReliableOnly::new()),
            dualgraph_sim::ExecutorConfig::default(),
        )
        .unwrap();
        let outcome = exec.run_until_complete(1_000_000);
        assert!(outcome.completed);
        // Unlike Once, Forever never terminates: sends keep accruing.
        let before = exec.outcome().sends;
        exec.run_rounds(500);
        assert!(exec.outcome().sends > before);
        assert!(!exec.process_at(dualgraph_net::NodeId(0)).is_terminated());
    }

    #[test]
    fn forever_windows_are_open_ended() {
        let plan = Arc::new(StrongSelectPlan::new(16, SsfConstruction::KautzSingleton));
        let mut p =
            StrongSelectProcess::with_participation(ProcessId(1), plan, Participation::Forever);
        p.on_activate(ActivationCause::Input(Message::tagged(
            ProcessId(1),
            PayloadId(0),
            0,
        )));
        let w = p.windows().expect("windows planned");
        assert!(w.iter().all(|&(_, end)| end == u64::MAX));
    }
}
