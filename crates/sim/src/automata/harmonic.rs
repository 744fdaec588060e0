//! The **Harmonic Broadcast** automaton (§7 of the paper).
//!
//! See `dualgraph-broadcast::algorithms::Harmonic` for the algorithm-level
//! story (the `T = ⌈12 ln(n/ε)⌉` period derivation lives there); this
//! module holds only the per-node state machine.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::collision::Reception;
use crate::message::{Message, PayloadId, ProcessId};
use crate::process::{ActivationCause, Process};

/// The Harmonic Broadcast automaton: a node that first receives the
/// message transmits in its `j`-th subsequent round with probability
/// `1 / (1 + ⌊(j−1)/T⌋)`.
#[derive(Debug, Clone)]
pub struct HarmonicProcess {
    id: ProcessId,
    period: u64,
    rng: SmallRng,
    payload: Option<PayloadId>,
    /// Local rounds elapsed since the payload arrived (the first transmit
    /// opportunity has `since = 1`).
    active_rounds: u64,
    /// Last round `j` of the cached probability level (0 = none cached).
    level_end: u64,
    /// The cached level's `⌈p · 2^53⌉`: the transmit draw succeeds when
    /// the top 53 bits of one `u64` fall below it.
    threshold: u64,
}

impl HarmonicProcess {
    /// Creates the automaton with period `T` and its private RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(id: ProcessId, period: u64, seed: u64) -> Self {
        assert!(period >= 1, "period must be at least 1");
        HarmonicProcess {
            id,
            period,
            rng: SmallRng::seed_from_u64(seed),
            payload: None,
            active_rounds: 0,
            level_end: 0,
            threshold: 0,
        }
    }

    /// The transmit probability for the `j`-th round after receipt
    /// (`j ≥ 1`): `1 / (1 + ⌊(j−1)/T⌋)`.
    pub fn probability(&self, j: u64) -> f64 {
        assert!(j >= 1);
        1.0 / (1.0 + ((j - 1) / self.period) as f64)
    }
}

impl Process for HarmonicProcess {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        if let Some(m) = cause.message() {
            if m.carries_payload() {
                self.payload = m.payload();
            }
        }
    }

    /// One draw per round, exactly `gen_bool(probability(j))`: that draw
    /// tests `(x >> 11) · 2^-53 < p`, and both sides are exact in `f64`,
    /// so it is the integer test `x >> 11 < ⌈p · 2^53⌉`. The threshold is
    /// recomputed once per level (every `T` rounds), not every round.
    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        let payload = self.payload?;
        self.active_rounds += 1;
        let j = self.active_rounds;
        if j > self.level_end {
            self.level_end = (j - 1) / self.period * self.period + self.period;
            self.threshold = (self.probability(j) * (1u64 << 53) as f64).ceil() as u64;
        }
        ((self.rng.next_u64() >> 11) < self.threshold)
            .then(|| Message::with_payload(self.id, payload))
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        if self.payload.is_none() {
            if let Some(p) = reception.message().and_then(|m| m.payload()) {
                self.payload = Some(p);
                self.active_rounds = 0;
                self.level_end = 0;
            }
        }
    }

    fn has_payload(&self) -> bool {
        self.payload.is_some()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::PayloadId;

    fn message() -> Message {
        Message::with_payload(ProcessId(0), PayloadId(0))
    }

    /// Activates `p` with the payload one of three ways: environment input,
    /// an asynchronous-start reception, or a synchronous start followed by
    /// the first reception of the payload.
    fn activate(p: &mut HarmonicProcess, how: usize) {
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
        for period in [1, 2, 3, 117] {
            for how in 0..3 {
                let mut p = HarmonicProcess::new(ProcessId(5), period, 0xC0FFEE ^ period);
                activate(&mut p, how);
                let mut model = p.rng.clone();
                // Six levels: p = 1, 1/2, …, 1/6.
                for j in 1..=6 * period {
                    let sent = p.transmit(j).is_some();
                    assert_eq!(
                        sent,
                        model.gen_bool(p.probability(j)),
                        "period {period}, activation {how}, round {j}"
                    );
                    if j <= period {
                        assert!(sent, "p = 1 always transmits (round {j})");
                    }
                    // A repeated reception neither resets the schedule nor
                    // draws.
                    p.receive(j, Reception::Message(message()));
                }
                assert_eq!(p.rng, model, "one draw per round");
            }
        }
    }

    #[test]
    fn golden_transmit_pattern() {
        // Computed with the per-round `gen_bool(probability(j))` draw.
        let mut p = HarmonicProcess::new(ProcessId(3), 5, 0x5EED_1234);
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
        assert_eq!(words, [0x0040_1010_0000_80bf, 0x0000_0000_0080_0001]);
    }
}
