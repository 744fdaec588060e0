//! Theorem 12 (§6): the `Ω(n log n)` undirected lower bound, as an
//! executable construction.
//!
//! Given **any** deterministic algorithm, this module builds — stage by
//! stage, exactly as the proof does — an execution on the complete layered
//! network ([`dualgraph_net::generators::layered_pairs`]) in which the
//! message creeps forward two processes per stage while each stage lasts at
//! least `log₂(n−1) − 2` rounds, totaling `Ω(n log n)` rounds with the
//! broadcast still incomplete.
//!
//! # How the proof becomes code
//!
//! The adversary rules of §6 specify deliveries purely in terms of
//! *process sets* (`A_k`, the candidate pair `{i, i′}`, or everyone), and
//! `G′` is complete, so executions can be simulated at the process level;
//! the layered `G` only constrains which deliveries are mandatory, and the
//! rules always honor it (messages from `A_k` reach `A_k ∪ {i, i′}`, a
//! superset of the sender's assigned-so-far `G`-neighborhood).
//!
//! Each stage `k+1` refines candidate sets `C_0 ⊇ C_1 ⊇ …` using two
//! behavioral probes at each round `ℓ+1`:
//!
//! * `S_{ℓ+1}` — candidates that would send at round `ℓ+1` **if assigned**
//!   to the next layer (probed by replaying `β_{i, i′}` for each `i`, any
//!   partner: property `P(ℓ)` makes the partner irrelevant);
//! * `N_{ℓ+1}` — candidates that would send **if not assigned** (probed by
//!   replaying `β_{j, j′}` for a pair avoiding the candidate).
//!
//! Case I (`|N| ≥ 2`): expel two non-assigned senders — they will collide
//! at `ℓ+1` in every remaining execution. Case II (`|S| ≥ |C|/2`): keep
//! exactly the senders — any surviving pair collides by itself. Case III:
//! keep the non-senders — round `ℓ+1` sounds identical to everyone either
//! way. In all cases, processes cannot distinguish the surviving
//! executions, and no surviving candidate ever sends alone; the stage
//! extends the execution by at least `log₂(n−1) − 2` rounds.
//!
//! Replaying `β` prefixes requires deterministic, cloneable automata. The
//! replay state holds [`ProcessSlot`]s, so cloning an execution prefix is
//! a plain `Vec` clone for built-in automata (enum dispatch, inline state)
//! and falls back to [`Process::clone_box`] only for
//! [`ProcessSlot::Custom`] entries.
//!
//! [`Process::clone_box`]: dualgraph_sim::Process::clone_box
//! [`ProcessSlot`]: dualgraph_sim::ProcessSlot
//! [`ProcessSlot::Custom`]: dualgraph_sim::ProcessSlot::Custom

use std::collections::BTreeSet;

use dualgraph_sim::{
    ActivationCause, CollisionRule, Message, PayloadId, Process, ProcessId, ProcessSlot, Reception,
};

use crate::algorithms::BroadcastAlgorithm;

/// Error from the Theorem 12 constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayeredBoundError {
    /// The construction needs `n ≥ 9` and odd (layers of two).
    BadSize {
        /// The requested size.
        n: usize,
    },
    /// The algorithm declares itself randomized; the theorem (and the
    /// replay machinery) applies to deterministic algorithms only.
    NotDeterministic,
    /// Candidate sets shrank below two — cannot happen for a correct
    /// implementation (Claim 13 guarantees `|C_ℓ| ≥ (n−1)/2^{ℓ+1}`).
    CandidatesExhausted {
        /// The stage at which it happened.
        stage: usize,
        /// The refinement round within the stage.
        ell: usize,
    },
}

impl std::fmt::Display for LayeredBoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayeredBoundError::BadSize { n } => {
                write!(f, "layered bound needs odd n >= 9, got {n}")
            }
            LayeredBoundError::NotDeterministic => {
                write!(f, "layered bound applies to deterministic algorithms only")
            }
            LayeredBoundError::CandidatesExhausted { stage, ell } => {
                write!(f, "candidate set exhausted at stage {stage}, round {ell}")
            }
        }
    }
}

impl std::error::Error for LayeredBoundError {}

/// Per-stage record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// The pair of process ids assigned to this stage's layer.
    pub pair: (ProcessId, ProcessId),
    /// Rounds this stage appended to the execution.
    pub rounds_added: u64,
}

/// The constructed adversarial execution.
#[derive(Debug, Clone)]
pub struct LayeredBoundResult {
    /// Network size.
    pub n: usize,
    /// Total rounds of the constructed execution `α`.
    pub rounds: u64,
    /// Stage-by-stage breakdown.
    pub stages: Vec<StageRecord>,
    /// Process ids holding the message at the end (`= A_K`): strictly
    /// fewer than `n`, i.e. the broadcast is still incomplete.
    pub informed: usize,
    /// The per-stage floor `log₂(n−1) − 2` the proof guarantees.
    pub per_stage_floor: u64,
    /// `true` if a stage hit the round cap before its pair was about to be
    /// isolated (the bound then holds *a fortiori*).
    pub capped: bool,
}

impl LayeredBoundResult {
    /// The `Ω(n log n)` prediction: `(n−1)/4 · (log₂(n−1) − 2)`.
    pub fn predicted_floor(&self) -> u64 {
        (self.n as u64 - 1) / 4 * self.per_stage_floor
    }
}

/// Process-level execution state: every process activated at round 1
/// (synchronous start), process 0 holding the payload as the source.
///
/// `procs` is indexed by **process id** — the construction simulates at
/// the process level (`G′` is complete and the §6 delivery rules are
/// phrased in process sets), so no node placement ever happens here.
#[derive(Clone)]
struct PState {
    procs: Vec<ProcessSlot>,
    round: u64,
}

/// Who a lone sender's message reaches.
enum Delivery {
    Everyone,
    Only(BTreeSet<ProcessId>),
}

impl PState {
    fn new(algorithm: &dyn BroadcastAlgorithm, n: usize) -> Self {
        let mut procs = algorithm.slots(n, 0);
        procs[0].on_activate(ActivationCause::Input(Message::with_payload(
            ProcessId(0),
            PayloadId(0),
        )));
        for p in procs.iter_mut().skip(1) {
            p.on_activate(ActivationCause::SynchronousStart);
        }
        PState { procs, round: 0 }
    }

    /// The send decisions for the next round, without advancing state.
    fn peek_senders(&self) -> Vec<ProcessId> {
        let mut clone = self.clone();
        clone.query_senders().into_iter().map(|(p, _)| p).collect()
    }

    fn query_senders(&mut self) -> Vec<(ProcessId, Message)> {
        let t = self.round + 1;
        self.procs
            .iter_mut()
            .enumerate()
            .filter_map(|(i, p)| p.transmit(t).map(|m| (ProcessId::from_index(i), m)))
            .collect()
    }

    /// Executes one round under CR1 with the given delivery rule for lone
    /// senders (collisions always reach everyone, per the §6 rules).
    fn step(&mut self, lone_delivery: impl FnOnce(ProcessId) -> Delivery) {
        let t = self.round + 1;
        let senders = self.query_senders();
        let receptions: Vec<Reception> = match senders.as_slice() {
            [] => vec![Reception::Silence; self.procs.len()],
            [(j, m)] => {
                let delivery = lone_delivery(*j);
                (0..self.procs.len())
                    .map(|p| {
                        let reached = match &delivery {
                            Delivery::Everyone => true,
                            Delivery::Only(set) => set.contains(&ProcessId::from_index(p)),
                        };
                        // CR1 with a single reaching message: receive it.
                        if reached || p == j.index() {
                            Reception::Message(*m)
                        } else {
                            Reception::Silence
                        }
                    })
                    .collect()
            }
            _ => {
                // Rule 1: all messages reach everyone; >= 2 messages at
                // every process means everyone hears ⊤ under CR1.
                let _ = CollisionRule::Cr1;
                vec![Reception::Collision; self.procs.len()]
            }
        };
        // Silence is no reception: the automaton is not called.
        for (p, r) in self.procs.iter_mut().zip(receptions) {
            if r != Reception::Silence {
                p.receive(t, r);
            }
        }
        self.round = t;
    }

    fn informed_count(&self) -> usize {
        self.procs.iter().filter(|p| p.has_payload()).count()
    }
}

/// Options for [`construct`].
#[derive(Debug, Clone, Copy)]
pub struct LayeredBoundOptions {
    /// Hard cap on total rounds (stages stop extending past it).
    pub max_rounds: u64,
}

impl Default for LayeredBoundOptions {
    fn default() -> Self {
        LayeredBoundOptions {
            max_rounds: 50_000_000,
        }
    }
}

/// Runs the Theorem 12 construction against `algorithm` on `n` processes
/// (odd, `≥ 9`).
///
/// Returns the constructed execution's statistics; `rounds` is the
/// lower-bound witness. The proof guarantees
/// `rounds ≥ (n−1)/4 · (log₂(n−1) − 2) = Ω(n log n)`.
///
/// # Errors
///
/// [`LayeredBoundError::BadSize`] for invalid `n`,
/// [`LayeredBoundError::NotDeterministic`] for randomized algorithms, and
/// [`LayeredBoundError::CandidatesExhausted`] if the candidate invariant
/// breaks (indicates a non-deterministic "deterministic" algorithm).
pub fn construct(
    algorithm: &dyn BroadcastAlgorithm,
    n: usize,
    options: LayeredBoundOptions,
) -> Result<LayeredBoundResult, LayeredBoundError> {
    if n < 9 || n.is_multiple_of(2) {
        return Err(LayeredBoundError::BadSize { n });
    }
    if !algorithm.is_deterministic() {
        return Err(LayeredBoundError::NotDeterministic);
    }
    let ell_max = ((n - 1) as f64).log2().floor() as usize - 2;
    let stages_target = (n - 1) / 4;

    let mut state = PState::new(algorithm, n);
    let mut informed_set: BTreeSet<ProcessId> = BTreeSet::from([ProcessId(0)]);
    let mut stages = Vec::new();
    let mut capped = false;

    // Stage 0: all G′ edges used every round, until the source process is
    // about to be isolated (it must eventually send alone, else broadcast
    // would never begin).
    while state.peek_senders() != [ProcessId(0)] {
        if state.round >= options.max_rounds {
            capped = true;
            break;
        }
        state.step(|_| Delivery::Everyone);
    }

    for stage in 1..=stages_target {
        if capped || state.round >= options.max_rounds {
            capped = true;
            break;
        }
        let candidates: BTreeSet<ProcessId> = (0..n)
            .map(ProcessId::from_index)
            .filter(|p| !informed_set.contains(p))
            .collect();
        let pair = refine_candidates(&state, &informed_set, &candidates, ell_max).ok_or(
            LayeredBoundError::CandidatesExhausted {
                stage,
                ell: ell_max,
            },
        )?;

        // Extend the real execution with β_{i,i'}: round 0 delivers the
        // lone A_k sender's message to A_k ∪ {i, i'}; later rounds follow
        // the rules until i or i' is about to send alone.
        let stage_start = state.round;
        let delivery_set: BTreeSet<ProcessId> = informed_set
            .iter()
            .copied()
            .chain([pair.0, pair.1])
            .collect();
        {
            let senders = state.peek_senders();
            debug_assert_eq!(senders.len(), 1, "round 0 of β must have a lone sender");
            debug_assert!(
                informed_set.contains(&senders[0]),
                "round 0 sender must come from A_k"
            );
        }
        step_beta(&mut state, &informed_set, &delivery_set);
        loop {
            let senders = state.peek_senders();
            if let [lone] = senders.as_slice() {
                if *lone == pair.0 || *lone == pair.1 {
                    break;
                }
            }
            if state.round >= options.max_rounds {
                capped = true;
                break;
            }
            step_beta(&mut state, &informed_set, &delivery_set);
        }
        let rounds_added = state.round - stage_start;
        debug_assert!(
            capped || rounds_added > ell_max as u64,
            "stage {stage} added only {rounds_added} rounds (floor {})",
            1 + ell_max
        );
        stages.push(StageRecord { pair, rounds_added });
        informed_set.insert(pair.0);
        informed_set.insert(pair.1);
    }

    // Sanity: only the assigned processes hold the message.
    let informed = state.informed_count();
    debug_assert!(informed <= informed_set.len());
    debug_assert!(
        informed < n,
        "broadcast completed during the lower-bound construction"
    );

    Ok(LayeredBoundResult {
        n,
        rounds: state.round,
        stages,
        informed,
        per_stage_floor: ell_max as u64,
        capped,
    })
}

/// One β round after round 0: §6 adversary rules with respect to
/// `a_k` (informed ids) and the current delivery target set.
fn step_beta(state: &mut PState, a_k: &BTreeSet<ProcessId>, delivery: &BTreeSet<ProcessId>) {
    state.step(|j| {
        if a_k.contains(&j) {
            // Rule 2: reaches exactly A_k ∪ {i, i'}.
            Delivery::Only(delivery.clone())
        } else {
            // Rules 3/4: anyone else sending alone reaches everyone.
            Delivery::Everyone
        }
    });
}

/// Runs the candidate-set refinement for one stage and returns the chosen
/// pair, or `None` if the candidate invariant broke.
fn refine_candidates(
    alpha_end: &PState,
    a_k: &BTreeSet<ProcessId>,
    initial: &BTreeSet<ProcessId>,
    ell_max: usize,
) -> Option<(ProcessId, ProcessId)> {
    let mut c: BTreeSet<ProcessId> = initial.clone();
    for ell in 0..ell_max {
        if c.len() < 2 {
            return None;
        }
        // S_{ell+1}: candidates that send at round ell+1 when assigned.
        let mut s_set: BTreeSet<ProcessId> = BTreeSet::new();
        for &i in &c {
            let partner = *c.iter().find(|&&x| x != i).expect("|C| >= 2"); // analyzer: allow(panic, reason = "invariant: |C| >= 2")
            let senders = probe_beta(alpha_end, a_k, (i, partner), ell + 1);
            if senders.contains(&i) {
                s_set.insert(i);
            }
        }
        // N_{ell+1}: candidates that send at round ell+1 when NOT assigned.
        let mut n_set: BTreeSet<ProcessId> = BTreeSet::new();
        let mut memo: Vec<((ProcessId, ProcessId), Vec<ProcessId>)> = Vec::new();
        for &i in &c {
            let mut others = c.iter().copied().filter(|&x| x != i);
            let (Some(a), Some(b)) = (others.next(), others.next()) else {
                continue; // no witnessing pair exists: i ∉ N by definition
            };
            let senders = match memo.iter().find(|(p, _)| *p == (a, b)) {
                Some((_, s)) => s.clone(),
                None => {
                    let s = probe_beta(alpha_end, a_k, (a, b), ell + 1);
                    memo.push(((a, b), s.clone()));
                    s
                }
            };
            if senders.contains(&i) {
                n_set.insert(i);
            }
        }

        c = if n_set.len() >= 2 {
            // Case I: expel the two smallest non-assigned senders.
            let expel: Vec<ProcessId> = n_set.iter().copied().take(2).collect();
            c.iter().copied().filter(|p| !expel.contains(p)).collect()
        } else if s_set.len() * 2 >= c.len() {
            // Case II: keep exactly the assigned-senders.
            s_set
        } else {
            // Case III: keep the certain non-senders.
            c.iter()
                .copied()
                .filter(|p| !s_set.contains(p) && !n_set.contains(p))
                .collect()
        };
    }
    let mut it = c.iter().copied();
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    }
}

/// Replays `β_{pair}` from the end of `α_k` for `rounds_before_query`
/// rounds (round 0 included) and returns who would send in the next round.
fn probe_beta(
    alpha_end: &PState,
    a_k: &BTreeSet<ProcessId>,
    pair: (ProcessId, ProcessId),
    rounds_before_query: usize,
) -> Vec<ProcessId> {
    let mut sim = alpha_end.clone();
    let delivery: BTreeSet<ProcessId> = a_k.iter().copied().chain([pair.0, pair.1]).collect();
    for _ in 0..rounds_before_query {
        step_beta(&mut sim, a_k, &delivery);
    }
    sim.peek_senders()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Harmonic, RoundRobin, StrongSelect};

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            construct(&RoundRobin::new(), 8, LayeredBoundOptions::default()).unwrap_err(),
            LayeredBoundError::BadSize { n: 8 }
        );
        assert_eq!(
            construct(&RoundRobin::new(), 7, LayeredBoundOptions::default()).unwrap_err(),
            LayeredBoundError::BadSize { n: 7 }
        );
        assert_eq!(
            construct(&Harmonic::new(), 9, LayeredBoundOptions::default()).unwrap_err(),
            LayeredBoundError::NotDeterministic
        );
        assert!(LayeredBoundError::BadSize { n: 7 }
            .to_string()
            .contains("odd n >= 9"));
    }

    #[test]
    fn round_robin_suffers_n_log_n_at_least() {
        let n = 17;
        let result = construct(&RoundRobin::new(), n, LayeredBoundOptions::default()).unwrap();
        assert!(!result.capped);
        assert!(
            result.rounds >= result.predicted_floor(),
            "rounds={} floor={}",
            result.rounds,
            result.predicted_floor()
        );
        // Round robin is oblivious: each stage waits for the pair's slots,
        // so the real damage approaches Ω(n²) — far above the floor.
        assert_eq!(result.stages.len(), (n - 1) / 4);
        assert!(result.informed < n);
    }

    #[test]
    fn stages_each_meet_the_per_stage_floor() {
        let n = 17;
        let result = construct(&RoundRobin::new(), n, LayeredBoundOptions::default()).unwrap();
        for (idx, s) in result.stages.iter().enumerate() {
            assert!(
                s.rounds_added > result.per_stage_floor,
                "stage {idx} added {} rounds",
                s.rounds_added
            );
        }
    }

    #[test]
    fn strong_select_also_meets_the_bound() {
        let n = 17;
        let result = construct(&StrongSelect::new(), n, LayeredBoundOptions::default()).unwrap();
        assert!(!result.capped);
        assert!(
            result.rounds >= result.predicted_floor(),
            "rounds={} floor={}",
            result.rounds,
            result.predicted_floor()
        );
        assert!(result.informed < n);
    }

    #[test]
    fn pairs_are_disjoint_across_stages() {
        let n = 21;
        let result = construct(&RoundRobin::new(), n, LayeredBoundOptions::default()).unwrap();
        let mut seen = BTreeSet::new();
        for s in &result.stages {
            assert!(seen.insert(s.pair.0), "pair element reused");
            assert!(seen.insert(s.pair.1), "pair element reused");
            assert_ne!(s.pair.0, s.pair.1);
        }
        assert!(!seen.contains(&ProcessId(0)), "source never a candidate");
    }

    #[test]
    fn grows_superlinearly_for_round_robin() {
        // Round robin's measured curve should grow at least ~quadratically
        // on this construction (it is oblivious).
        let r9 = construct(&RoundRobin::new(), 9, LayeredBoundOptions::default()).unwrap();
        let r33 = construct(&RoundRobin::new(), 33, LayeredBoundOptions::default()).unwrap();
        let ratio = r33.rounds as f64 / r9.rounds.max(1) as f64;
        assert!(
            ratio > (33.0f64 / 9.0).powf(1.5),
            "ratio={ratio}, r9={}, r33={}",
            r9.rounds,
            r33.rounds
        );
    }
}
