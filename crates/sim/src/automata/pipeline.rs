//! Pipelined multi-message automata: flooding and Harmonic over per-node
//! payload sets.
//!
//! Both automata broadcast a *stream* of payloads concurrently instead of
//! one message per execution. Their transmissions carry the sender's
//! **entire known set** ([`PayloadSet`]): a single reception can close many
//! per-payload gaps at once, which is what makes pipelining essentially
//! free on top of the single-message engine — the per-round work is
//! identical, only the cargo widens from one bit to two machine words.
//!
//! **k = 1 equivalence** (pinned by differential tests): with one payload
//! in the universe, [`PipelinedFlooder`] is transition-for-transition the
//! canonical [`Flooder`][crate::Flooder] and [`PipelinedHarmonic`] draws
//! the exact RNG stream of [`HarmonicProcess`][super::HarmonicProcess], so
//! executions are bit-identical round for round.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::collision::Reception;
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::{PayloadSet, MAX_PAYLOADS};
use crate::process::{ActivationCause, Process};

/// Pipelined flooding: once a node knows any payloads, it transmits its
/// whole known set every round.
///
/// The multi-message analogue of [`Flooder`][crate::Flooder] — and exactly
/// it when the payload universe has one element.
///
/// ## Bounded retransmission
///
/// Plain flooding never stops sending, which saturates the medium and (under
/// CR2–CR4) deafens the network to later arrivals — the ROADMAP's
/// contention-managed-stream lever. [`PipelinedFlooder::with_budget`] caps
/// the number of times this node transmits each payload: a payload past its
/// budget **ages out** of the node's transmission set (the known record
/// keeps it — coverage accounting is unaffected), and a node whose whole
/// known set has aged out falls silent, reopening its radio for listening.
/// The unbounded constructor allocates no counters and its transmission
/// set is always the whole known set, so `budget = ∞` is bit-identical to
/// the historical behavior (pinned by a test below).
#[derive(Debug, Clone)]
pub struct PipelinedFlooder {
    id: ProcessId,
    known: PayloadSet,
    /// Per-payload transmission budget; `None` = unbounded (no counters,
    /// historical fast path).
    budget: Option<u64>,
    /// Transmissions used per payload, allocated only when bounded.
    sent: Option<Box<[u64; MAX_PAYLOADS]>>,
}

impl PipelinedFlooder {
    /// Creates the automaton with an empty known set and an unbounded
    /// transmission budget.
    pub fn new(id: ProcessId) -> Self {
        PipelinedFlooder {
            id,
            known: PayloadSet::EMPTY,
            budget: None,
            sent: None,
        }
    }

    /// Creates the automaton with a per-payload transmission budget: this
    /// node transmits each payload at most `budget` times, then ages it
    /// out (see the type docs). `budget = 0` never transmits.
    pub fn with_budget(id: ProcessId, budget: u64) -> Self {
        PipelinedFlooder {
            id,
            known: PayloadSet::EMPTY,
            budget: Some(budget),
            sent: Some(Box::new([0; MAX_PAYLOADS])),
        }
    }

    /// The node's current known-payload set.
    pub fn known(&self) -> PayloadSet {
        self.known
    }

    /// The per-payload transmission budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The payloads this node would still transmit: the known set minus
    /// everything aged out (equal to the known set when unbounded).
    pub fn live_set(&self) -> PayloadSet {
        match (&self.sent, self.budget) {
            (Some(sent), Some(budget)) => {
                let mut live = PayloadSet::EMPTY;
                for p in self.known.iter() {
                    if sent[p.0 as usize] < budget {
                        live.insert(p);
                    }
                }
                live
            }
            _ => self.known,
        }
    }

    /// The `n` automata for one execution, ids `0..n`, as enum-dispatched
    /// slots.
    pub fn slots(n: usize) -> Vec<crate::slot::ProcessSlot> {
        (0..n)
            .map(|i| {
                crate::slot::ProcessSlot::PipelinedFlooder(PipelinedFlooder::new(
                    ProcessId::from_index(i),
                ))
            })
            .collect()
    }

    /// The `n` budget-bounded automata for one execution, ids `0..n`, as
    /// enum-dispatched slots.
    pub fn slots_with_budget(n: usize, budget: u64) -> Vec<crate::slot::ProcessSlot> {
        (0..n)
            .map(|i| {
                crate::slot::ProcessSlot::PipelinedFlooder(PipelinedFlooder::with_budget(
                    ProcessId::from_index(i),
                    budget,
                ))
            })
            .collect()
    }
}

impl Process for PipelinedFlooder {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        if let Some(m) = cause.message() {
            self.known.union_with(m.payloads);
        }
    }

    fn on_input(&mut self, payload: PayloadId) {
        self.known.insert(payload);
        // A fresh environment input re-arms the payload's transmission
        // budget at this node: an explicit re-`bcast` (the reliability
        // layer's retry) revives a flood the aging rule had quiesced.
        // Unbounded automata have no counters, and at `budget = u64::MAX`
        // the reset is unobservable, so the bit-identity with plain
        // pipelined flooding is preserved.
        if let Some(sent) = &mut self.sent {
            sent[payload.0 as usize] = 0;
        }
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        // Transmit the live (not aged-out) subset; when bounded, charge
        // each carried payload one transmission. `live_set` is the one
        // copy of the aging rule; unbounded it is just the known set.
        let live = self.live_set();
        if live.is_empty() {
            return None;
        }
        if let Some(sent) = &mut self.sent {
            for p in live.iter() {
                sent[p.0 as usize] += 1;
            }
        }
        Some(Message::with_payloads(self.id, live))
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        if let Some(m) = reception.message() {
            self.known.union_with(m.payloads);
        }
    }

    fn has_payload(&self) -> bool {
        !self.known.is_empty()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// Pipelined Harmonic Broadcast: per-payload harmonic backoff over the
/// known set, one transmission carrying everything.
///
/// Each known payload `p` ages independently: `j_p` counts the node's
/// active rounds since `p` arrived, giving it the §7 per-payload transmit
/// probability `q_p = 1 / (1 + ⌊(j_p − 1)/T⌋)`. The node transmits with
/// probability `max_p q_p` — a fresh arrival resets the node to eager
/// transmission (exactly Harmonic's recency bias), old payloads decay —
/// and every transmission carries the full known set, so the stream
/// pipelines instead of serializing.
///
/// With a single payload the max ranges over one element and the per-round
/// `gen_bool` consumes the identical draw sequence of
/// [`HarmonicProcess`][super::HarmonicProcess]: k = 1 executions are
/// bit-identical to the single-message algorithm.
#[derive(Debug, Clone)]
pub struct PipelinedHarmonic {
    id: ProcessId,
    period: u64,
    rng: SmallRng,
    known: PayloadSet,
    /// Active rounds since each payload arrived, indexed by dense payload
    /// id (`0` until the payload is known; the first transmit opportunity
    /// after arrival sees `age = 1`). Boxed so a `ProcessSlot` stays small
    /// (clippy's `large_enum_variant`): the table is a flat `Vec` of
    /// automata either way, and the age table is touched once per known
    /// payload per round, not per delivery.
    ages: Box<[u32; MAX_PAYLOADS]>,
}

impl PipelinedHarmonic {
    /// Creates the automaton with period `T` and its private RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(id: ProcessId, period: u64, seed: u64) -> Self {
        assert!(period >= 1, "period must be at least 1");
        PipelinedHarmonic {
            id,
            period,
            rng: SmallRng::seed_from_u64(seed),
            known: PayloadSet::EMPTY,
            ages: Box::new([0; MAX_PAYLOADS]),
        }
    }

    /// The node's current known-payload set.
    pub fn known(&self) -> PayloadSet {
        self.known
    }

    /// The per-payload transmit probability at age `j ≥ 1`:
    /// `1 / (1 + ⌊(j−1)/T⌋)`.
    pub fn probability(&self, j: u64) -> f64 {
        assert!(j >= 1);
        1.0 / (1.0 + ((j - 1) / self.period) as f64)
    }

    fn absorb(&mut self, payloads: PayloadSet) {
        for p in payloads.minus(self.known).iter() {
            self.known.insert(p);
            self.ages[p.0 as usize] = 0;
        }
    }
}

impl Process for PipelinedHarmonic {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        if let Some(m) = cause.message() {
            self.absorb(m.payloads);
        }
    }

    fn on_input(&mut self, payload: PayloadId) {
        self.absorb(PayloadSet::only(payload));
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        if self.known.is_empty() {
            return None;
        }
        let mut q: f64 = 0.0;
        for p in self.known.iter() {
            let i = p.0 as usize;
            self.ages[i] = self.ages[i].saturating_add(1);
            q = q.max(self.probability(u64::from(self.ages[i])));
        }
        self.rng
            .gen_bool(q)
            .then(|| Message::with_payloads(self.id, self.known))
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        if let Some(m) = reception.message() {
            self.absorb(m.payloads);
        }
    }

    fn has_payload(&self) -> bool {
        !self.known.is_empty()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::HarmonicProcess;

    #[test]
    fn flooder_unions_and_floods() {
        let mut p = PipelinedFlooder::new(ProcessId(1));
        assert_eq!(p.transmit(1), None);
        assert!(!p.has_payload());

        p.on_input(PayloadId(3));
        p.receive(
            1,
            Reception::Message(Message::with_payloads(
                ProcessId(0),
                [PayloadId(0), PayloadId(5)].into_iter().collect(),
            )),
        );
        let m = p.transmit(2).expect("informed node floods");
        assert_eq!(m.payloads.len(), 3);
        assert!(m.payloads.contains(PayloadId(3)));
        assert_eq!(p.known(), m.payloads);
    }

    #[test]
    fn flooder_activation_absorbs() {
        let mut p = PipelinedFlooder::new(ProcessId(2));
        p.on_activate(ActivationCause::Reception(Message::with_payload(
            ProcessId(0),
            PayloadId(7),
        )));
        assert!(p.has_payload());
        assert!(p.known().contains(PayloadId(7)));

        let mut q = PipelinedFlooder::new(ProcessId(3));
        q.on_activate(ActivationCause::SynchronousStart);
        assert!(!q.has_payload());
    }

    #[test]
    fn harmonic_k1_matches_single_payload_harmonic() {
        // Same seed, same period, one payload: the per-round transmit
        // decisions must be identical draw for draw.
        let mut single = HarmonicProcess::new(ProcessId(4), 3, 99);
        let mut multi = PipelinedHarmonic::new(ProcessId(4), 3, 99);
        let input = Message::with_payload(ProcessId(0), PayloadId(0));
        single.on_activate(ActivationCause::Reception(input));
        multi.on_activate(ActivationCause::Reception(input));
        for round in 1..400u64 {
            let a = single.transmit(round);
            let b = multi.transmit(round);
            assert_eq!(a.is_some(), b.is_some(), "round {round}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a, b, "round {round}");
            }
        }
    }

    #[test]
    fn bounded_reinjection_rearms_the_budget() {
        // Aging out quiesces the payload; a fresh environment input (the
        // reliability layer's retry) re-arms exactly that payload's budget
        // so the flood can be revived. Receptions do NOT re-arm: only
        // explicit `bcast`/`inject` does.
        let mut p = PipelinedFlooder::with_budget(ProcessId(0), 2);
        p.on_input(PayloadId(3));
        assert!(p.transmit(1).is_some());
        assert!(p.transmit(2).is_some());
        assert!(p.transmit(3).is_none(), "budget spent: quiesced");
        p.receive(
            3,
            Reception::Message(Message::with_payload(ProcessId(1), PayloadId(3))),
        );
        assert!(p.transmit(4).is_none(), "re-reception does not re-arm");
        p.on_input(PayloadId(3));
        let m = p.transmit(5).expect("re-injection re-arms the budget");
        assert!(m.payloads.contains(PayloadId(3)));
        assert!(p.transmit(6).is_some());
        assert!(p.transmit(7).is_none(), "fresh budget spent again");
        assert_eq!(p.known().len(), 1, "known record unaffected");
    }

    #[test]
    fn harmonic_new_arrival_resets_eagerness() {
        let mut p = PipelinedHarmonic::new(ProcessId(0), 2, 5);
        p.on_input(PayloadId(0));
        // Age payload 0 far past its eager phase.
        for r in 1..200 {
            p.transmit(r);
        }
        // A fresh payload arrives: the max over ages puts the node back at
        // probability 1, so the next transmit is certain.
        p.on_input(PayloadId(1));
        let m = p.transmit(200).expect("fresh arrival forces q = 1");
        assert!(m.payloads.contains(PayloadId(0)));
        assert!(m.payloads.contains(PayloadId(1)));
    }

    #[test]
    fn harmonic_reabsorbing_known_payload_keeps_age() {
        let mut p = PipelinedHarmonic::new(ProcessId(0), 1, 5);
        p.on_input(PayloadId(0));
        for r in 1..50 {
            p.transmit(r);
        }
        let before = p.ages[0];
        // Hearing payload 0 again must NOT reset its age (matches the
        // single-payload Harmonic, which ignores re-receptions).
        p.receive(
            50,
            Reception::Message(Message::with_payload(ProcessId(1), PayloadId(0))),
        );
        assert_eq!(p.ages[0], before);
        assert_eq!(p.known().len(), 1);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn harmonic_zero_period_panics() {
        PipelinedHarmonic::new(ProcessId(0), 0, 1);
    }

    #[test]
    fn infinite_budget_is_bit_identical_to_unbounded() {
        // budget = u64::MAX can never be exhausted: the bounded automaton
        // must emit the exact transmission sequence of the unbounded one
        // under an identical observation history.
        let mut unbounded = PipelinedFlooder::new(ProcessId(1));
        let mut capped = PipelinedFlooder::with_budget(ProcessId(1), u64::MAX);
        let feed: [(u64, Option<PayloadId>); 6] = [
            (1, Some(PayloadId(0))),
            (2, None),
            (3, Some(PayloadId(5))),
            (4, None),
            (5, Some(PayloadId(64))),
            (6, None),
        ];
        for (round, input) in feed {
            if let Some(p) = input {
                unbounded.on_input(p);
                capped.on_input(p);
            }
            assert_eq!(
                unbounded.transmit(round),
                capped.transmit(round),
                "round {round}"
            );
            assert_eq!(unbounded.known(), capped.known());
            assert_eq!(capped.live_set(), capped.known());
        }
        assert_eq!(capped.budget(), Some(u64::MAX));
        assert_eq!(unbounded.budget(), None);
    }

    #[test]
    fn budget_ages_payloads_out_and_quiesces() {
        let mut p = PipelinedFlooder::with_budget(ProcessId(0), 2);
        assert_eq!(p.transmit(1), None, "budget 2, nothing known yet");
        p.on_input(PayloadId(3));
        // Two budgeted transmissions, then silence.
        assert!(p.transmit(2).is_some());
        assert!(p.transmit(3).is_some());
        assert_eq!(p.transmit(4), None, "payload 3 aged out");
        assert!(p.live_set().is_empty());
        assert!(p.has_payload(), "known record keeps aged-out payloads");
        // A fresh payload reopens transmission, carrying only the live set.
        p.on_input(PayloadId(9));
        let m = p.transmit(5).expect("fresh payload within budget");
        assert!(m.payloads.contains(PayloadId(9)));
        assert!(
            !m.payloads.contains(PayloadId(3)),
            "aged-out payload no longer carried"
        );
        // budget = 0 never transmits at all.
        let mut zero = PipelinedFlooder::with_budget(ProcessId(1), 0);
        zero.on_input(PayloadId(0));
        assert_eq!(zero.transmit(1), None);
    }
}
