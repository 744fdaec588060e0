//! Pipelined flooding over per-node payload sets.
//!
//! [`PipelinedFlooder`] broadcasts a *stream* of payloads concurrently
//! instead of one message per execution. Its transmissions carry the
//! sender's **entire known set** ([`PayloadSet`]): a single reception can
//! close many per-payload gaps at once, which is what makes pipelining
//! essentially free on top of the single-message engine — the per-round
//! work is identical, only the cargo widens from one bit to two machine
//! words. The stream layer's pipelined Harmonic is the
//! [`BackoffProcess`][super::BackoffProcess] on a Harmonic schedule, whose
//! known set works the same way.
//!
//! **k = 1 equivalence** (pinned by a differential test): with one payload
//! in the universe and no junk ids, [`PipelinedFlooder`] is
//! transition-for-transition the canonical [`Flooder`][crate::Flooder], so
//! executions are bit-identical round for round. A junk id (one a
//! spammer, forger or equivocator transmits and the environment never
//! introduced) tells them apart: the pipelined flooder relays it, while
//! the flooder is informed only by payload 0.

use crate::collision::Reception;
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::{PayloadSet, MAX_PAYLOADS};
use crate::process::{ActivationCause, Process};

/// Pipelined flooding: once a node knows any payloads, it transmits its
/// whole known set every round.
///
/// The multi-message analogue of [`Flooder`][crate::Flooder] — and exactly
/// it when the payload universe has one element and no junk id is heard.
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

#[cfg(test)]
mod tests {
    use super::*;

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
