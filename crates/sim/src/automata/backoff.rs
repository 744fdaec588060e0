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
use crate::rng::derive_seed;
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
/// The `k`-th draw of the node's RNG decides its `k`-th active round,
/// whoever asks. Polled once per round through [`Process::transmit`], the
/// node draws once per informed round. A
/// [`ProcessTable`][crate::ProcessTable]'s wake calendar instead has each
/// informed node draw ahead to its next success and polls it only then;
/// such a node is *lazy*: every local round since `at` was an active one,
/// so `j` is caught up from the local round alone. A fresh payload that
/// lands between the draws rewinds the RNG to the draw it interrupted.
#[derive(Debug, Clone)]
pub struct BackoffProcess {
    id: ProcessId,
    schedule: Backoff,
    rng: SmallRng,
    known: PayloadSet,
    /// `j`: active rounds since the newest fresh payload arrived (the
    /// first transmit opportunity after it has `j = 1`), as of local round
    /// `at`.
    active_rounds: u64,
    /// The local round `active_rounds` was counted to; read only while
    /// [`LAZY`] (a per-round poll counts calls instead).
    at: u64,
    /// [`LAZY`], [`FRESH`] and [`AHEAD`]: while none is set, a poll is one
    /// draw, as it was before the calendar.
    flags: u8,
    /// While [`AHEAD`], the RNG holds the decisions of active rounds up to
    /// `drawn`: those after `j` are failures except round `drawn` itself,
    /// whose outcome is `hit`.
    drawn: u64,
    /// Whether round `drawn`'s draw succeeded.
    hit: bool,
    /// The RNG as it stood before the last draw-ahead, which started after
    /// the draw of round `base`: a fresh payload rewinds to it.
    rewind: SmallRng,
    base: u64,
    /// Last round `j` of the cached constant-probability span (0 = none
    /// cached).
    span_end: u64,
    /// The cached span's `⌈p · 2^53⌉`: the transmit draw succeeds when the
    /// top 53 bits of one `u64` fall below it.
    threshold: u64,
}

/// A wake calendar drives the node: every local round after `at` is an
/// active round, polled or not.
const LAZY: u8 = 1;
/// A fresh payload arrived after local round `at` and has not yet
/// restarted `j` (input and activation carry no local round).
const FRESH: u8 = 2;
/// The node has drawn ahead to round `drawn`.
const AHEAD: u8 = 4;

/// The most draws one draw-ahead takes. A node whose next success lies
/// further out wakes at the last of them with nothing to send and draws on
/// from there, so a tiny `p` cannot stall the calendar.
const DRAW_AHEAD_CAP: u64 = 1 << 12;

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
        let rng = SmallRng::seed_from_u64(seed);
        BackoffProcess {
            id,
            schedule,
            rewind: rng.clone(),
            rng,
            known: PayloadSet::EMPTY,
            active_rounds: 0,
            at: 0,
            flags: 0,
            drawn: 0,
            hit: false,
            base: 0,
            span_end: 0,
            threshold: 0,
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

    /// Adds `payloads` to the known set; returns `true` when one is fresh,
    /// which restarts `j` at the next [`BackoffProcess::sync`].
    fn absorb(&mut self, payloads: PayloadSet) -> bool {
        let fresh = !payloads.minus(self.known).is_empty();
        if fresh {
            self.known.union_with(payloads);
            self.flags |= FRESH;
        }
        fresh
    }

    /// Brings the node to the end of local round `local`: a lazy node
    /// counts every round since `at` as active; then a fresh payload that
    /// arrived meanwhile restarts `j`, rewinding the RNG to the draw it
    /// interrupted when the node had drawn past it.
    pub(crate) fn sync(&mut self, local: u64) {
        if self.flags & LAZY != 0 && !self.known.is_empty() {
            self.active_rounds += local.saturating_sub(self.at);
        }
        self.at = local;
        if self.flags & FRESH != 0 {
            if self.flags & AHEAD != 0 {
                self.rng = self.rewind.clone();
                for _ in self.base..self.active_rounds {
                    self.rng.next_u64();
                }
            }
            self.flags &= !(FRESH | AHEAD);
            self.active_rounds = 0;
            self.span_end = 0;
        }
    }

    /// Marks the node as driven by a wake calendar (`true`) or polled
    /// every round (`false`). Call it right after a
    /// [`BackoffProcess::sync`].
    pub(crate) fn set_lazy(&mut self, lazy: bool) {
        if lazy {
            self.flags |= LAZY;
        } else {
            self.flags &= !LAZY;
        }
    }

    /// Draws ahead from the current `j` to the next successful draw, or
    /// [`DRAW_AHEAD_CAP`] draws, unless the node has drawn ahead already.
    pub(crate) fn draw_ahead(&mut self) {
        if self.flags & AHEAD != 0 {
            return;
        }
        self.flags |= AHEAD;
        self.rewind = self.rng.clone();
        self.base = self.active_rounds;
        for j in self.base + 1..=self.base + DRAW_AHEAD_CAP {
            if self.draw(j) {
                (self.drawn, self.hit) = (j, true);
                return;
            }
        }
        (self.drawn, self.hit) = (self.base + DRAW_AHEAD_CAP, false);
    }

    /// `true` while the node is lazy, drawn ahead and holds no fresh
    /// payload: its calendar booking still stands.
    pub(crate) fn is_booked(&self) -> bool {
        self.flags & (LAZY | FRESH | AHEAD) == LAZY | AHEAD
    }

    /// The local round of the node's next wake, once it has drawn ahead.
    pub(crate) fn due(&self) -> u64 {
        self.at + (self.drawn - self.active_rounds)
    }

    /// The wake calendar's poll of a due node in local round `local`.
    pub(crate) fn wake(&mut self, local: u64) -> Option<Message> {
        self.sync(local - 1);
        self.at = local;
        self.step()
    }

    /// One draw for active round `j`, exactly `gen_bool(p(j))`: that draw
    /// tests `(x >> 11) · 2^-53 < p`, and both sides are exact in `f64`, so
    /// it is the integer test `x >> 11 < ⌈p · 2^53⌉`. The threshold is
    /// recomputed once per constant-probability span, not every round.
    #[inline]
    fn draw(&mut self, j: u64) -> bool {
        if j > self.span_end {
            let (p, last) = self.schedule.span(j);
            self.span_end = last;
            self.threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        }
        (self.rng.next_u64() >> 11) < self.threshold
    }

    /// The next active round, `j` synced to the round before it: its
    /// decision was drawn ahead, or is drawn now.
    #[inline]
    fn step(&mut self) -> Option<Message> {
        if self.known.is_empty() {
            return None;
        }
        self.active_rounds += 1;
        let j = self.active_rounds;
        let sent = if self.flags & AHEAD == 0 {
            self.draw(j)
        } else if j == self.drawn {
            self.flags &= !AHEAD;
            self.hit
        } else {
            false
        };
        sent.then(|| Message::with_payloads(self.id, self.known))
    }

    /// A poll of local round `local` while any flag is set: leaves the
    /// calendar's lazy count, takes in a fresh payload, or reads a decision
    /// drawn ahead.
    #[inline(never)]
    fn poll_flagged(&mut self, local: u64) -> Option<Message> {
        self.sync(local.saturating_sub(1));
        self.flags &= !LAZY;
        self.step()
    }
}

impl Process for BackoffProcess {
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

    /// Polled every round: one draw per informed round, or none for a round
    /// drawn ahead.
    fn transmit(&mut self, local_round: u64) -> Option<Message> {
        if self.flags != 0 {
            return self.poll_flagged(local_round);
        }
        if self.known.is_empty() {
            return None;
        }
        self.active_rounds += 1;
        self.draw(self.active_rounds)
            .then(|| Message::with_payloads(self.id, self.known))
    }

    fn receive(&mut self, local_round: u64, reception: Reception) {
        if let Some(m) = reception.message() {
            if self.absorb(m.payloads) {
                self.sync(local_round);
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

    /// Activates `p` with the payload one of three ways: environment input,
    /// an asynchronous-start reception, or a synchronous start followed by
    /// the first reception of the payload.
    fn activate(p: &mut BackoffProcess, how: usize) {
        match how {
            0 => p.on_activate(ActivationCause::Input(message())),
            1 => p.on_activate(ActivationCause::Reception(message())),
            _ => {
                p.on_activate(ActivationCause::SynchronousStart);
                assert_eq!(p.transmit(1), None, "no payload yet");
                p.receive(1, Reception::Message(message()));
            }
        }
    }

    #[test]
    fn transmit_is_gen_bool_of_the_schedule_draw_for_draw() {
        let schedules = [1, 2, 3, 117]
            .map(|period| Backoff::Harmonic { period })
            .into_iter()
            .chain([1, 3, 7].map(|phase_len| Backoff::Decay { phase_len }))
            .chain([0.3, 1.0].map(|p| Backoff::Uniform { p }));
        for (k, schedule) in schedules.enumerate() {
            for how in 0..3 {
                let mut p = BackoffProcess::new(ProcessId(5), schedule, 0xC0FFEE ^ k as u64);
                activate(&mut p, how);
                let mut model = p.rng.clone();
                // Six Harmonic levels at the longest period.
                let last = 6 * 117;
                for j in 1..=last {
                    let sent = p.transmit(j).is_some();
                    let prob = schedule.probability(j);
                    assert_eq!(
                        sent,
                        model.gen_bool(prob),
                        "{schedule:?}, activation {how}, round {j}"
                    );
                    if prob == 1.0 {
                        assert!(sent, "p = 1 always transmits (round {j})");
                    }
                    // A repeated reception neither resets the schedule nor
                    // draws.
                    p.receive(j, Reception::Message(message()));
                }
                // Taken over by a calendar and drawn ahead, the RNG stands
                // at the draw of the next success (or of the cap).
                p.sync(last);
                p.set_lazy(true);
                p.draw_ahead();
                let mut j = last;
                loop {
                    j += 1;
                    if model.gen_bool(schedule.probability(j)) || j == last + DRAW_AHEAD_CAP {
                        break;
                    }
                }
                assert_eq!(p.rng, model, "{schedule:?}: the draw-ahead position");
                assert_eq!(p.due(), j, "{schedule:?}: due at the drawn success");
            }
        }
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
        // Computed with the per-round `gen_bool(probability(j))` draw.
        let p = BackoffProcess::new(ProcessId(3), Backoff::Harmonic { period: 5 }, 0x5EED_1234);
        assert_eq!(pattern(p), [0x0040_1010_0000_80bf, 0x0000_0000_0080_0001]);
    }

    #[test]
    fn golden_decay_transmit_pattern() {
        let p = BackoffProcess::new(ProcessId(3), Backoff::Decay { phase_len: 4 }, 0x5EED_1234);
        assert_eq!(pattern(p), [0x1155_1113_1111_1131, 0x1d31_3b11_1191_1311]);
    }

    #[test]
    fn golden_uniform_transmit_pattern() {
        let p = BackoffProcess::new(ProcessId(3), Backoff::Uniform { p: 0.3 }, 0x5EED_1234);
        assert_eq!(pattern(p), [0x0054_91d4_1100_8030, 0x8d21_8a90_1980_0291]);
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
        assert_eq!(p.active_rounds, 49);
        // Hearing payload 0 again must not restart j.
        p.receive(
            50,
            Reception::Message(Message::with_payload(ProcessId(1), PayloadId(0))),
        );
        assert_eq!(p.active_rounds, 49);
        assert_eq!(p.known().len(), 1);
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
