//! The randomized backoff automaton: Harmonic Broadcast (§7 of the paper)
//! and the classical Decay and Uniform baselines of Table 2, over one
//! payload or a pipelined stream.
//!
//! The three algorithms differ only in the probability `p(j)` with which a
//! node that holds a payload transmits in its `j`-th active round; a
//! [`Backoff`] is that schedule. See `dualgraph-broadcast::algorithms` for
//! the algorithm-level story (the `T = ⌈12 ln(n/ε)⌉` period derivation
//! lives there); this module holds only the per-node state machine.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::collision::Reception;
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::PayloadSet;
use crate::process::{ActivationCause, Process};
use crate::rng::{derive_seed, geometric_gap_from_bits};
use crate::slot::ProcessSlot;

/// A transmit-probability schedule `p(j)`, where `j ≥ 1` counts the
/// node's active rounds since its newest fresh payload arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// Harmonic Broadcast: `p(j) = 1 / (1 + ⌊(j−1)/T⌋)`, constant over
    /// each level of `period = T` rounds.
    Harmonic {
        /// The period `T ≥ 1`.
        period: u64,
    },
    /// Decay (Bar-Yehuda, Goldreich, Itai 1987): phases of `phase_len`
    /// rounds, `p(j) = 2^{−((j−1) mod phase_len)}`.
    Decay {
        /// The phase length, `≥ 1`.
        phase_len: u64,
    },
    /// Uniform: `p(j) = p` in every round.
    Uniform {
        /// The probability, in `(0, 1]`.
        p: f64,
    },
}

impl Backoff {
    /// `(p(j), last)`: the transmit probability of the `j`-th active round
    /// (`j ≥ 1`) and the last round of the span over which it stays
    /// constant. A Harmonic span is its level, a Decay span one round, and
    /// a Uniform span never ends.
    pub fn span(&self, j: u64) -> (f64, u64) {
        assert!(j >= 1);
        match *self {
            Backoff::Harmonic { period } => {
                let level = (j - 1) / period;
                (1.0 / (1.0 + level as f64), level * period + period)
            }
            Backoff::Decay { phase_len } => (0.5f64.powi(((j - 1) % phase_len) as i32), j),
            Backoff::Uniform { p } => (p, u64::MAX),
        }
    }

    /// The transmit probability `p(j)` of the `j`-th active round.
    pub fn probability(&self, j: u64) -> f64 {
        self.span(j).0
    }
}

/// The randomized backoff automaton: a node that knows payloads transmits
/// its whole known set in its `j`-th active round since the newest fresh
/// payload with the schedule's probability `p(j)`.
///
/// A fresh payload restarts `j`, so the node is eager again after every
/// arrival; a payload it already knows changes nothing. With one payload,
/// `j` counts the rounds since that payload arrived. Over a stream, one
/// counter serves every payload: Harmonic's `p(j)` is non-increasing, so
/// its value at the newest payload's `j` is the largest of the
/// per-payload probabilities that a node tracking each payload's age
/// would take (the GKLN pipelined Harmonic rule).
///
/// A payload id that nobody introduced (a spammer's, forger's or
/// equivocator's junk) joins the known set like any other, so it never
/// shuts out a real payload heard later.
///
/// `j` is read off the local round, `j = local − start`, so it keeps
/// counting through a crash, as local rounds do. The node draws the `j`
/// of its next transmission once per transmission: one geometric gap per
/// constant-`p` span it crosses ([`Backoff::span`]), none across a
/// `p = 1` span. It draws at four points only:
///
/// 1. a fresh payload in [`Process::receive`], with `start = local`;
/// 2. a fresh payload by activation, with `start = 0`, since local round 1
///    is the node's first;
/// 3. each transmission;
/// 4. the first [`Process::transmit`] poll after a fresh input, which
///    carries no local round (`start = local − 1`), or after a due round
///    that passed unpolled while the node was faulty: that round is
///    dropped and the next success is drawn from the current one.
///
/// A per-round poll and a [`ProcessTable`][crate::ProcessTable]'s wake
/// calendar read the same `next_round` query and call the same
/// `transmit`, so they see the same transmissions.
#[derive(Debug, Clone)]
pub struct BackoffProcess {
    id: ProcessId,
    schedule: Backoff,
    rng: SmallRng,
    known: PayloadSet,
    /// The local round before active round `j = 1`.
    start: u64,
    /// The `j` of the next transmission; 0 while a fresh input waits for
    /// the next poll to restart `j`.
    next: u64,
}

impl BackoffProcess {
    /// Creates the automaton with its schedule and private RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if a Harmonic `period` or a Decay `phase_len` is 0, or a
    /// Uniform `p ∉ (0, 1]`.
    pub fn new(id: ProcessId, schedule: Backoff, seed: u64) -> Self {
        match schedule {
            Backoff::Harmonic { period } => assert!(period >= 1, "period must be at least 1"),
            Backoff::Decay { phase_len } => {
                assert!(phase_len >= 1, "phase length must be at least 1")
            }
            Backoff::Uniform { p } => {
                assert!(p > 0.0 && p <= 1.0, "probability must lie in (0, 1]")
            }
        }
        BackoffProcess {
            id,
            schedule,
            rng: SmallRng::seed_from_u64(seed),
            known: PayloadSet::EMPTY,
            start: 0,
            next: 0,
        }
    }

    /// The `n` automata for one execution on one schedule, ids `0..n`, as
    /// enum-dispatched slots; process `i` seeds its RNG with
    /// `derive_seed(seed, i)`.
    pub fn slots(n: usize, schedule: Backoff, seed: u64) -> Vec<ProcessSlot> {
        (0..n)
            .map(|i| {
                let id = ProcessId::from_index(i);
                ProcessSlot::Backoff(BackoffProcess::new(
                    id,
                    schedule,
                    derive_seed(seed, i as u64),
                ))
            })
            .collect()
    }

    /// The node's current known-payload set.
    pub fn known(&self) -> PayloadSet {
        self.known
    }

    /// Adds `payloads` to the known set; returns `true` when one is fresh.
    fn absorb(&mut self, payloads: PayloadSet) -> bool {
        let fresh = !payloads.minus(self.known).is_empty();
        if fresh {
            self.known.union_with(payloads);
        }
        fresh
    }

    /// Restarts `j` after local round `start` and draws the first
    /// transmission.
    fn restart(&mut self, start: u64) {
        self.start = start;
        self.next = self.draw_after(0);
    }

    /// The local round, at or after `local`, of the node's next poll
    /// that counts: its drawn transmission, or `local` itself while a draw
    /// waits for the poll (a fresh input, or a due round missed while
    /// faulty). `None` while the node knows no payload.
    #[inline]
    pub(crate) fn next_round(&self, local: u64) -> Option<u64> {
        if self.known.is_empty() {
            return None;
        }
        Some(self.start.saturating_add(self.next).max(local))
    }

    /// The `j` of the first success after active round `j`: one
    /// geometric gap per constant-`p` span; a gap that overruns its span
    /// continues at the next one.
    fn draw_after(&mut self, mut j: u64) -> u64 {
        loop {
            let first = j.saturating_add(1);
            let (p, last) = self.schedule.span(first);
            if p >= 1.0 {
                return first;
            }
            let hit = first.saturating_add(geometric_gap_from_bits(self.rng.next_u64(), p));
            if hit <= last {
                return hit;
            }
            j = last;
        }
    }
}

impl Process for BackoffProcess {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        if let Some(m) = cause.message() {
            if self.absorb(m.payloads) {
                self.restart(0);
            }
        }
    }

    fn on_input(&mut self, payload: PayloadId) {
        if self.absorb(PayloadSet::only(payload)) {
            self.next = 0;
        }
    }

    fn transmit(&mut self, local_round: u64) -> Option<Message> {
        if self.next_round(local_round)? != local_round {
            return None;
        }
        if self.next == 0 {
            // The first poll since a fresh input restarts `j`.
            self.start = local_round - 1;
        }
        if self.start.saturating_add(self.next) < local_round {
            // A fresh input, or a due round that passed unpolled while the
            // node was faulty: draw from this round on.
            self.next = self.draw_after(local_round - 1 - self.start);
        }
        if self.start.saturating_add(self.next) != local_round {
            return None;
        }
        self.next = self.draw_after(self.next);
        Some(Message::with_payloads(self.id, self.known))
    }

    fn receive(&mut self, local_round: u64, reception: Reception) {
        if let Some(m) = reception.message() {
            if self.absorb(m.payloads) {
                self.restart(local_round);
            }
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

    fn message() -> Message {
        Message::with_payload(ProcessId(0), PayloadId(0))
    }

    /// `count` successes against the expected probability `p` over
    /// `trials`: within 5 standard deviations, or exact where `p` leaves
    /// no spread.
    fn assert_binomial(count: u64, trials: u64, p: f64, what: &str) {
        let sd = (p * (1.0 - p) / trials as f64).sqrt();
        let freq = count as f64 / trials as f64;
        if sd == 0.0 {
            assert_eq!(freq, p, "{what}");
        } else {
            let z = (freq - p) / sd;
            assert!(
                z.abs() < 5.0,
                "{what}: frequency {freq} against {p} (z = {z:.2})"
            );
        }
    }

    #[test]
    fn transmissions_follow_the_schedule_law() {
        const NODES: u64 = 40_000;
        let schedules = [1, 3, 117]
            .map(|period| Backoff::Harmonic { period })
            .into_iter()
            .chain([3, 7].map(|phase_len| Backoff::Decay { phase_len }))
            .chain([0.3, 1.0, 1e-17].map(|p| Backoff::Uniform { p }));
        for schedule in schedules {
            // Past the second Harmonic level boundary at the longest period.
            let rounds = match schedule {
                Backoff::Harmonic { period } => (2 * period + 6).max(24),
                _ => 24,
            } as usize;
            let mut sent = vec![0u64; rounds + 1];
            // Rounds `j` and `j + 1`, and rounds `j` and `j + 5`.
            let (mut next_too, mut fifth_too) = (vec![0u64; rounds + 1], vec![0u64; rounds + 1]);
            for node in 0..NODES {
                let mut p = BackoffProcess::new(ProcessId(0), schedule, derive_seed(0x1A3, node));
                p.on_activate(ActivationCause::Input(message()));
                let hits: Vec<bool> = (0..=rounds as u64)
                    .map(|j| j > 0 && p.transmit(j).is_some())
                    .collect();
                for j in 1..=rounds {
                    sent[j] += u64::from(hits[j]);
                    next_too[j] += u64::from(hits[j] && hits.get(j + 1) == Some(&true));
                    fifth_too[j] += u64::from(hits[j] && hits.get(j + 5) == Some(&true));
                }
            }
            let prob = |j: usize| schedule.probability(j as u64);
            for j in 1..=rounds {
                assert_binomial(sent[j], NODES, prob(j), &format!("{schedule:?}, round {j}"));
                if j + 5 <= rounds {
                    let both = prob(j) * prob(j + 1);
                    let what = format!("{schedule:?}, rounds {j} and {}", j + 1);
                    assert_binomial(next_too[j], NODES, both, &what);
                    let both = prob(j) * prob(j + 5);
                    let what = format!("{schedule:?}, rounds {j} and {}", j + 5);
                    assert_binomial(fifth_too[j], NODES, both, &what);
                }
            }
        }
    }

    /// What happens to a node between two of its rounds.
    #[derive(Clone, Copy)]
    enum Event {
        /// Environment input of a payload before the round.
        Input(u64),
        /// Reception of a payload at the end of the round.
        Hear(u64),
    }

    /// The events of local round `local`.
    fn events(local: u64, script: &[(u64, Event)]) -> impl Iterator<Item = Event> + '_ {
        script
            .iter()
            .filter(move |(r, _)| *r == local)
            .map(|&(_, e)| e)
    }

    fn hear(p: &mut BackoffProcess, local: u64, payload: u64) {
        let m = Message::with_payload(ProcessId(1), PayloadId(payload));
        p.receive(local, Reception::Message(m));
    }

    /// The local rounds in which a node activated by `activation` and
    /// polled every round through `last` transmits.
    fn polled(
        mut p: BackoffProcess,
        activation: ActivationCause,
        script: &[(u64, Event)],
        last: u64,
    ) -> Vec<u64> {
        p.on_activate(activation);
        let mut sent = Vec::new();
        for local in 1..=last {
            for e in events(local, script) {
                if let Event::Input(x) = e {
                    p.on_input(PayloadId(x));
                }
            }
            if p.transmit(local).is_some() {
                sent.push(local);
            }
            for e in events(local, script) {
                if let Event::Hear(x) = e {
                    hear(&mut p, local, x);
                }
            }
        }
        sent
    }

    /// The same node driven as the wake calendar drives it: queried once
    /// after activation, after each reception and poll, and before a round
    /// that brings input, and otherwise polled only in the round the last
    /// query named.
    fn jumped(
        mut p: BackoffProcess,
        activation: ActivationCause,
        script: &[(u64, Event)],
        last: u64,
    ) -> Vec<u64> {
        p.on_activate(activation);
        let mut due = p.next_round(1);
        let mut sent = Vec::new();
        let mut local = 1;
        while local <= last {
            if events(local, script).any(|e| matches!(e, Event::Input(_))) {
                for e in events(local, script) {
                    if let Event::Input(x) = e {
                        p.on_input(PayloadId(x));
                    }
                }
                due = p.next_round(local);
            }
            if due == Some(local) {
                if p.transmit(local).is_some() {
                    sent.push(local);
                }
                due = p.next_round(local + 1);
            }
            for e in events(local, script) {
                if let Event::Hear(x) = e {
                    hear(&mut p, local, x);
                    due = p.next_round(local + 1);
                }
            }
            let event = script.iter().map(|&(r, _)| r).filter(|&r| r > local).min();
            local = event
                .into_iter()
                .chain(due)
                .filter(|&r| r > local)
                .min()
                .unwrap_or(last + 1);
        }
        sent
    }

    #[test]
    fn a_polled_node_and_a_jumped_node_transmit_alike() {
        // Fresh payloads by input and by reception land mid-gap; payload 1
        // is heard again once known, which changes nothing.
        let script = [
            (3, Event::Hear(1)),
            (9, Event::Input(2)),
            (14, Event::Hear(1)),
            (20, Event::Hear(3)),
            (20, Event::Input(4)),
            (41, Event::Input(5)),
            (41, Event::Hear(6)),
            (77, Event::Hear(7)),
            (150, Event::Input(8)),
            (151, Event::Input(9)),
        ];
        let uninformed = ActivationCause::SynchronousStart;
        let informed = ActivationCause::Reception(message());
        let schedules = [1, 4, 117]
            .map(|period| Backoff::Harmonic { period })
            .into_iter()
            .chain([1, 5].map(|phase_len| Backoff::Decay { phase_len }))
            .chain([0.05, 1.0].map(|p| Backoff::Uniform { p }));
        for (k, schedule) in schedules.enumerate() {
            for seed in 0..40 {
                for activation in [uninformed, informed] {
                    // An input right after activation, before round 1.
                    let mut script = script.to_vec();
                    if seed % 2 == 1 {
                        script.push((1, Event::Input(10)));
                    }
                    let p =
                        BackoffProcess::new(ProcessId(7), schedule, derive_seed(k as u64, seed));
                    let want = polled(p.clone(), activation, &script, 400);
                    assert!(!want.is_empty(), "{schedule:?}: the node transmits");
                    let got = jumped(p, activation, &script, 400);
                    assert_eq!(got, want, "{schedule:?}, seed {seed}, {activation:?}");
                }
            }
        }
    }

    #[test]
    fn a_due_round_missed_while_faulty_is_dropped() {
        // Decay with phases of 4 transmits surely at j = 1 and j = 9. Polled
        // in local round 1 and next in round 9, the node sends in round 9:
        // the eight rounds between count toward `j`.
        for seed in 0..100 {
            let mut p = BackoffProcess::new(ProcessId(0), Backoff::Decay { phase_len: 4 }, seed);
            p.on_activate(ActivationCause::Input(message()));
            assert!(p.transmit(1).is_some());
            assert!(p.transmit(9).is_some(), "seed {seed}");
        }
        // Harmonic with period 1 has `p(j) = 1/j`. Polled in round 1 and
        // next in round 10, across the due round it had drawn, the node
        // sends in round 10 with probability 1/10: the missed round is
        // dropped, not carried over (probability 1), and `j` is 10, not
        // 2 (probability 1/2).
        const NODES: u64 = 40_000;
        let mut sent = 0;
        for node in 0..NODES {
            let schedule = Backoff::Harmonic { period: 1 };
            let mut p = BackoffProcess::new(ProcessId(0), schedule, derive_seed(0xD0E, node));
            p.on_activate(ActivationCause::Input(message()));
            assert!(p.transmit(1).is_some());
            let due = p.next_round(2).expect("informed");
            if due < 10 {
                assert!(
                    p.next_round(10).expect("informed") >= 10,
                    "no earlier than the poll"
                );
                sent += u64::from(p.transmit(10).is_some());
            } else {
                sent += u64::from(due == 10);
            }
        }
        assert_binomial(sent, NODES, 0.1, "round 10 after a missed due round");
    }

    #[test]
    fn spans_hold_the_probability_constant() {
        for schedule in [
            Backoff::Harmonic { period: 3 },
            Backoff::Decay { phase_len: 4 },
            Backoff::Uniform { p: 0.25 },
        ] {
            let mut j = 1;
            while j < 40 {
                let (p, last) = schedule.span(j);
                assert!(last >= j, "{schedule:?}: span of round {j}");
                for i in j..=last.min(40) {
                    assert_eq!(schedule.probability(i), p, "{schedule:?}, round {i}");
                }
                if last < 40 {
                    assert_ne!(schedule.probability(last + 1), p, "{schedule:?}");
                }
                j = last.saturating_add(1);
            }
        }
    }

    /// The first 128 transmit decisions of `p` after an environment
    /// input, one bit per round.
    fn pattern(mut p: impl Process) -> [u64; 2] {
        p.on_activate(ActivationCause::Input(Message::with_payload(
            ProcessId(3),
            PayloadId(0),
        )));
        let mut words = [0u64; 2];
        for j in 0..128u64 {
            if p.transmit(j + 1).is_some() {
                words[(j / 64) as usize] |= 1 << (j % 64);
            }
        }
        words
    }

    #[test]
    fn golden_transmit_pattern() {
        // Computed with one geometric gap per constant-`p` span.
        let p = BackoffProcess::new(ProcessId(3), Backoff::Harmonic { period: 5 }, 0x5EED_1234);
        assert_eq!(pattern(p), [0x4100_2000_24b1_237f, 0x0000_0004_0400_0100]);
    }

    #[test]
    fn golden_decay_transmit_pattern() {
        let p = BackoffProcess::new(ProcessId(3), Backoff::Decay { phase_len: 4 }, 0x5EED_1234);
        assert_eq!(pattern(p), [0x7791_1335_7b93_3333, 0x3397_3371_3317_3131]);
    }

    #[test]
    fn golden_uniform_transmit_pattern() {
        let p = BackoffProcess::new(ProcessId(3), Backoff::Uniform { p: 0.3 }, 0x5EED_1234);
        assert_eq!(pattern(p), [0x70b6_b112_d728_08c5, 0x1a00_f111_4048_99a1]);
    }

    #[test]
    fn new_arrival_resets_eagerness() {
        let mut p = BackoffProcess::new(ProcessId(0), Backoff::Harmonic { period: 2 }, 5);
        p.on_input(PayloadId(0));
        // Age payload 0 far past its eager phase.
        for r in 1..200 {
            p.transmit(r);
        }
        // A fresh payload arrives: j restarts at probability 1, so the
        // next transmit is certain and carries the whole known set.
        p.on_input(PayloadId(1));
        let m = p.transmit(200).expect("fresh arrival forces p = 1");
        assert!(m.payloads.contains(PayloadId(0)));
        assert!(m.payloads.contains(PayloadId(1)));
    }

    #[test]
    fn reabsorbing_known_payload_keeps_the_counter() {
        let mut p = BackoffProcess::new(ProcessId(0), Backoff::Harmonic { period: 1 }, 5);
        p.on_input(PayloadId(0));
        for r in 1..50 {
            p.transmit(r);
        }
        assert_eq!(p.start, 0, "the first poll restarted j after local round 0");
        let (next, rng) = (p.next, p.rng.clone());
        assert!(next >= 50);
        // Hearing payload 0 again must not restart j, nor draw.
        hear(&mut p, 50, 0);
        assert_eq!((p.start, p.next), (0, next));
        assert_eq!(p.rng, rng);
        assert_eq!(p.known().len(), 1);
    }

    #[test]
    fn the_automaton_keeps_one_rng_and_two_counters() {
        // id, schedule, RNG, known set, `start` and `next`.
        assert!(std::mem::size_of::<BackoffProcess>() <= 96);
    }

    #[test]
    fn uninformed_node_is_silent_and_draws_nothing() {
        let mut p = BackoffProcess::new(ProcessId(1), Backoff::Uniform { p: 1.0 }, 9);
        let rng = p.rng.clone();
        p.on_activate(ActivationCause::SynchronousStart);
        for local in 1..50 {
            assert_eq!(p.transmit(local), None);
        }
        p.receive(50, Reception::Message(Message::signal(ProcessId(2))));
        assert!(!p.has_payload(), "a signal carries no payload");
        assert_eq!(p.rng, rng);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        BackoffProcess::new(ProcessId(0), Backoff::Harmonic { period: 0 }, 1);
    }

    #[test]
    #[should_panic(expected = "phase length")]
    fn zero_phase_panics() {
        BackoffProcess::new(ProcessId(0), Backoff::Decay { phase_len: 0 }, 1);
    }
}
