//! The reliability layer: retry/ack policies that turn the MAC layer's
//! measured progress and acknowledgment bounds into end-to-end delivery
//! *guarantees* under unreliable links and faulty nodes.
//!
//! "Multi-Message Broadcast with Abstract MAC Layers and Unreliable
//! Links" (Ghaffari, Kantor, Lynch, Newport) composes multi-message
//! broadcast out of an abstract MAC layer exactly so that a higher layer
//! can reason in `bcast`/`ack` events instead of rounds; Bonomi, Farina
//! and Tixeuil's reliable broadcast under faulty populations adds the
//! complementary axis. This module is that higher layer for the simulator:
//! a [`ReliableBroadcast`] driver tracks every environment payload, reacts
//! to (missing) acknowledgments and to injections that were **dropped** at
//! faulty sources, schedules re-`bcast`s under a configurable
//! [`RetryPolicy`], and settles a final [`DeliveryVerdict`] per payload —
//! [`DeliveryVerdict::Delivered`] once every *currently correct* node
//! holds the payload, or [`DeliveryVerdict::Abandoned`] once the retry
//! budget is exhausted.
//!
//! The driver is deliberately engine-agnostic: it consumes rounds and
//! events and emits `(source, payload)` retry requests; the stream runner
//! (`dualgraph_broadcast::stream::StreamSession`) wires it to the real
//! [`MacLayer`][crate::MacLayer] — ack events feed [`ReliableBroadcast::on_ack`],
//! dropped arrivals enter as `entered = false`, due retries go back out
//! through `MacLayer::bcast`, and the runner's settle sweep hands
//! [`ReliableBroadcast::settle_held_traced`] the payloads every
//! currently-correct node holds. Keeping the policy state machine free of
//! engine references makes the policies unit- and property-testable in
//! isolation (see the tests below and `crates/core/tests/reliability.rs`).
//!
//! The same driver is the verdict ledger of both stream backends
//! ([`ReliableBroadcast::for_backend`]): the quorum backend's ledger has
//! no retry policy, so it never re-broadcasts and an arrival dropped at a
//! faulty source settles [`DeliveryVerdict::Abandoned`] on the spot.
//!
//! Guarantee semantics (see `docs/RELIABILITY.md` for the full contract):
//!
//! * **Delivered{round, retries}** — at `round`, every node that was
//!   correct *at that round* knew the payload. Final: later recoveries of
//!   ignorant nodes do not retract it (they are the next broadcast's
//!   problem, exactly as a crashed-then-replaced replica would be).
//! * **Abandoned{retries}** — the policy gave up after `retries`
//!   re-`bcast`s. Final: the payload may still spread physically, but the
//!   layer no longer guarantees anything about it.
//! * **Pending** — neither yet.

use dualgraph_net::NodeId;

use crate::message::PayloadId;
use crate::payload::PayloadSet;
use crate::quorum::QuorumPolicy;
use crate::trace::{NullSink, TraceEvent, TraceSink};

/// Upper bound on the [`RetryPolicy::ExponentialBackoff`] trigger gap.
/// Doubling saturates here instead of marching toward `u64::MAX`, where a
/// single further `last_attempt + gap` addition in a long-running session
/// would saturate to "never" and silently strand the payload between its
/// last retry and the abandon verdict.
pub const MAX_BACKOFF_GAP: u64 = 1 << 20;

/// When (and how often) an unacknowledged or undelivered payload is
/// re-broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Re-`bcast` every `interval` rounds since the last attempt until the
    /// payload is delivered, regardless of acknowledgments — the blunt
    /// baseline policy.
    FixedInterval {
        /// Rounds between attempts (≥ 1).
        interval: u64,
        /// Re-broadcasts allowed after the initial attempt.
        max_retries: u32,
    },
    /// Re-`bcast` only when the latest attempt has not been **acked**
    /// within `gap` rounds — the ack-gap-triggered policy: the MAC layer's
    /// acknowledgment is the signal that the local neighborhood is
    /// covered, so an acked payload spends no further budget and the
    /// medium no extra contention.
    AckGap {
        /// Rounds an attempt may stay unacked before the next retry (≥ 1).
        gap: u64,
        /// Re-broadcasts allowed after the initial attempt.
        max_retries: u32,
    },
    /// Like [`RetryPolicy::AckGap`], but the allowed gap doubles after
    /// every retry (`base`, `2·base`, `4·base`, …) — exponential backoff
    /// for regimes where retries themselves cause the collisions that
    /// suppress acks.
    ExponentialBackoff {
        /// Initial unacked gap before the first retry (≥ 1).
        base: u64,
        /// Re-broadcasts allowed after the initial attempt.
        max_retries: u32,
    },
}

impl RetryPolicy {
    /// The policy's retry budget.
    pub fn max_retries(&self) -> u32 {
        match *self {
            RetryPolicy::FixedInterval { max_retries, .. }
            | RetryPolicy::AckGap { max_retries, .. }
            | RetryPolicy::ExponentialBackoff { max_retries, .. } => max_retries,
        }
    }

    /// Table/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            RetryPolicy::FixedInterval { .. } => "fixed-interval",
            RetryPolicy::AckGap { .. } => "ack-gap",
            RetryPolicy::ExponentialBackoff { .. } => "exponential-backoff",
        }
    }

    fn first_gap(&self) -> u64 {
        match *self {
            RetryPolicy::FixedInterval { interval, .. } => interval,
            RetryPolicy::AckGap { gap, .. } => gap,
            RetryPolicy::ExponentialBackoff { base, .. } => base,
        }
    }
}

/// The reliability mechanism a stream composes over the MAC layer: either
/// a [`RetryPolicy`] driven by [`ReliableBroadcast`] (tolerates crashes
/// and lossy links, trusts message *content*), or the quorum-certified
/// broadcast of [`QuorumProcess`][crate::QuorumProcess] (additionally
/// tolerates Byzantine senders under an `f`-locally-bounded placement).
///
/// `StreamConfig.reliability` takes an `Option<ReliabilityBackend>`;
/// `From<RetryPolicy>` keeps the PR 5 call shape working as
/// `Some(policy.into())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliabilityBackend {
    /// Retry/ack guarantees under the given policy (the PR 5 layer).
    Retry(RetryPolicy),
    /// Bracha-style echo/ready certification with the given thresholds.
    /// The stream runner swaps the algorithm's automata for
    /// [`QuorumProcess`][crate::QuorumProcess] slots; `DeliveryVerdict`s
    /// settle from quorum *acceptance* instead of coverage + acks.
    Quorum(QuorumPolicy),
}

impl ReliabilityBackend {
    /// Table/CSV name.
    pub fn name(&self) -> String {
        match self {
            ReliabilityBackend::Retry(p) => p.name().to_string(),
            ReliabilityBackend::Quorum(q) => q.name(),
        }
    }

    /// The quorum thresholds, when this backend is quorum-certified.
    pub fn quorum_policy(&self) -> Option<QuorumPolicy> {
        match *self {
            ReliabilityBackend::Retry(_) => None,
            ReliabilityBackend::Quorum(q) => Some(q),
        }
    }
}

impl From<RetryPolicy> for ReliabilityBackend {
    fn from(policy: RetryPolicy) -> Self {
        ReliabilityBackend::Retry(policy)
    }
}

impl From<QuorumPolicy> for ReliabilityBackend {
    fn from(policy: QuorumPolicy) -> Self {
        ReliabilityBackend::Quorum(policy)
    }
}

/// The delivery-guarantee verdict of one tracked payload (see the module
/// docs for the exact semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryVerdict {
    /// Not yet delivered, retry budget not yet exhausted.
    Pending,
    /// Every node correct at `round` knew the payload by `round`, after
    /// `retries` re-broadcasts. Final.
    Delivered {
        /// Round the guarantee was established.
        round: u64,
        /// Re-broadcasts spent by then.
        retries: u32,
    },
    /// The retry budget (`retries` re-broadcasts) is exhausted and the
    /// payload is still undelivered. Final.
    Abandoned {
        /// Re-broadcasts spent.
        retries: u32,
    },
}

impl DeliveryVerdict {
    /// `true` for [`DeliveryVerdict::Delivered`] / [`DeliveryVerdict::Abandoned`].
    pub fn is_final(&self) -> bool {
        !matches!(self, DeliveryVerdict::Pending)
    }

    /// `true` for [`DeliveryVerdict::Delivered`].
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryVerdict::Delivered { .. })
    }

    /// `true` for [`DeliveryVerdict::Abandoned`].
    pub fn is_abandoned(&self) -> bool {
        matches!(self, DeliveryVerdict::Abandoned { .. })
    }
}

impl std::fmt::Display for DeliveryVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeliveryVerdict::Pending => write!(f, "pending"),
            DeliveryVerdict::Delivered { round, retries } => {
                write!(f, "delivered@{round} ({retries} retries)")
            }
            DeliveryVerdict::Abandoned { retries } => write!(f, "abandoned ({retries} retries)"),
        }
    }
}

/// One tracked payload's reliability state. The public fields are the
/// surfaced report; the scheduling fields are private to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityEntry {
    /// The payload under guarantee.
    pub payload: PayloadId,
    /// The node re-broadcasts are issued from (the original producer).
    pub source: NodeId,
    /// Round the payload was first handed to the layer.
    pub arrival_round: u64,
    /// Re-broadcast attempts issued so far (failed attempts into a faulty
    /// source count — they spend budget).
    pub retries: u32,
    /// `true` once the payload has actually entered the network (the
    /// initial `bcast` or a later retry was accepted). A dropped arrival —
    /// what the no-retry stream runner records as `PayloadStat.dropped` —
    /// starts `false` and is re-attempted like any unacked bcast.
    pub entered: bool,
    /// The verdict (final once non-pending).
    pub verdict: DeliveryVerdict,
    /// `true` when the latest attempt has been acknowledged by the MAC
    /// layer.
    acked: bool,
    /// Round of the most recent attempt (the arrival, or the last retry).
    last_attempt: u64,
    /// Current trigger gap (doubles under exponential backoff).
    next_gap: u64,
}

/// Aggregate verdict counts of a [`ReliableBroadcast`] driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Payloads with a [`DeliveryVerdict::Delivered`] verdict.
    pub delivered: usize,
    /// Payloads with a [`DeliveryVerdict::Abandoned`] verdict.
    pub abandoned: usize,
    /// Payloads still pending.
    pub pending: usize,
    /// Total re-broadcast attempts across all payloads.
    pub total_retries: u64,
}

/// The retry-policy driver (see the module docs).
///
/// # Examples
///
/// ```
/// use dualgraph_net::NodeId;
/// use dualgraph_sim::{DeliveryVerdict, PayloadId, PayloadSet, ReliableBroadcast, RetryPolicy};
///
/// let mut rb = ReliableBroadcast::new(RetryPolicy::AckGap { gap: 4, max_retries: 2 });
/// rb.track(PayloadId(0), NodeId(3), 0, true);
/// // No ack by round 4: the policy asks for a re-bcast from the source.
/// let mut due = Vec::new();
/// rb.due_retries(4, &mut due);
/// assert_eq!(due, vec![(NodeId(3), PayloadId(0))]);
/// // Every correct node holds it by round 7: the verdict settles as Delivered.
/// assert_eq!(rb.settle_held(PayloadSet::only(PayloadId(0)), 7), 1);
/// assert!(rb.entry(PayloadId(0)).unwrap().verdict.is_delivered());
/// assert!(rb.is_settled());
/// # let _ = DeliveryVerdict::Pending;
/// ```
#[derive(Debug, Clone)]
pub struct ReliableBroadcast {
    /// `None` for a ledger without retries (the quorum backend's).
    policy: Option<RetryPolicy>,
    entries: Vec<ReliabilityEntry>,
}

impl ReliableBroadcast {
    /// Creates a driver for `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy's interval/gap/base is zero (a zero gap would
    /// fire a retry on every poll).
    pub fn new(policy: RetryPolicy) -> Self {
        assert!(
            policy.first_gap() >= 1,
            "retry interval/gap must be at least one round"
        );
        ReliableBroadcast {
            policy: Some(policy),
            entries: Vec::new(),
        }
    }

    /// The verdict ledger of a stream backend: the retry backend's policy
    /// driver, or for the quorum backend a ledger with no retry policy —
    /// it never re-broadcasts, and a dropped arrival is final at once.
    ///
    /// # Panics
    ///
    /// As [`ReliableBroadcast::new`], on a zero retry interval/gap/base.
    pub fn for_backend(backend: ReliabilityBackend) -> Self {
        match backend {
            ReliabilityBackend::Retry(policy) => Self::new(policy),
            ReliabilityBackend::Quorum(_) => ReliableBroadcast {
                policy: None,
                entries: Vec::new(),
            },
        }
    }

    /// Registers a payload handed to the layer at `round` from `source`.
    /// `entered = false` records that the initial `bcast` was dropped (the
    /// source was faulty): the driver treats the drop like an unacked
    /// attempt and re-tries it on the policy's schedule instead of losing
    /// the payload outright. A ledger without retries settles such a
    /// payload [`DeliveryVerdict::Abandoned`] with zero retries on the spot
    /// (no trace event: nothing was given up that had been attempted).
    ///
    /// # Panics
    ///
    /// Panics if the payload is already tracked.
    pub fn track(&mut self, payload: PayloadId, source: NodeId, round: u64, entered: bool) {
        assert!(
            self.entry(payload).is_none(),
            "payload {payload:?} is already tracked"
        );
        let verdict = if entered || self.policy.is_some() {
            DeliveryVerdict::Pending
        } else {
            DeliveryVerdict::Abandoned { retries: 0 }
        };
        self.entries.push(ReliabilityEntry {
            payload,
            source,
            arrival_round: round,
            retries: 0,
            entered,
            verdict,
            acked: false,
            last_attempt: round,
            next_gap: self.policy.map_or(0, |p| p.first_gap()),
        });
    }

    /// Records that a retry's `bcast` was accepted — the payload is now in
    /// the network.
    pub fn note_entered(&mut self, payload: PayloadId) {
        if let Some(e) = self.entry_mut(payload) {
            e.entered = true;
        }
    }

    /// Feeds a MAC acknowledgment for the payload's source `bcast`:
    /// ack-gap policies stop retrying an acked attempt. (The caller
    /// filters ack events to the tracked source; acks from other nodes'
    /// relays of the same payload say nothing about the producer's
    /// neighborhood.)
    pub fn on_ack(&mut self, payload: PayloadId) {
        if let Some(e) = self.entry_mut(payload) {
            e.acked = true;
        }
    }

    /// The ledger half of the stream session's settle sweep: settles
    /// `Delivered` at `round` for every pending payload that has entered
    /// the network and is in `held`, the set every currently-correct node
    /// holds. Final verdicts stay: a payload abandoned by the policy stays
    /// abandoned even if the network later completes it on its own.
    /// Returns how many settled.
    pub fn settle_held(&mut self, held: PayloadSet, round: u64) -> usize {
        self.settle_held_traced(held, round, &mut NullSink)
    }

    /// [`ReliableBroadcast::settle_held`] with trace hooks: each settle
    /// emits [`TraceEvent::Verdict`] with `delivered = true`.
    pub fn settle_held_traced<S: TraceSink>(
        &mut self,
        held: PayloadSet,
        round: u64,
        sink: &mut S,
    ) -> usize {
        let mut newly = 0;
        for e in &mut self.entries {
            if e.verdict.is_final() || !e.entered || !held.contains(e.payload) {
                continue;
            }
            e.verdict = DeliveryVerdict::Delivered {
                round,
                retries: e.retries,
            };
            if S::ENABLED {
                sink.emit(TraceEvent::Verdict {
                    round,
                    payload: e.payload,
                    delivered: true,
                });
            }
            newly += 1;
        }
        newly
    }

    /// Appends every `(source, payload)` whose retry trigger fires at
    /// `round` to `out`, spending one retry from each budget; payloads
    /// whose budget is already exhausted when the trigger fires settle as
    /// [`DeliveryVerdict::Abandoned`] instead. Call once per round with
    /// nondecreasing rounds; the caller must attempt the re-`bcast`s and
    /// report successes via [`ReliableBroadcast::note_entered`].
    pub fn due_retries(&mut self, round: u64, out: &mut Vec<(NodeId, PayloadId)>) {
        self.due_retries_traced(round, out, &mut NullSink);
    }

    /// [`ReliableBroadcast::due_retries`] with trace hooks: each fired
    /// retry emits [`TraceEvent::Retry`], and each budget-exhausted payload
    /// settling as abandoned emits [`TraceEvent::Verdict`] with
    /// `delivered = false`. A ledger without retries yields nothing.
    pub fn due_retries_traced<S: TraceSink>(
        &mut self,
        round: u64,
        out: &mut Vec<(NodeId, PayloadId)>,
        sink: &mut S,
    ) {
        let Some(policy) = self.policy else {
            return;
        };
        let max = policy.max_retries();
        for e in &mut self.entries {
            if e.verdict.is_final() {
                continue;
            }
            let due = match policy {
                RetryPolicy::FixedInterval { interval, .. } => {
                    round >= e.last_attempt.saturating_add(interval)
                }
                RetryPolicy::AckGap { gap, .. } => {
                    !e.acked && round >= e.last_attempt.saturating_add(gap)
                }
                RetryPolicy::ExponentialBackoff { .. } => {
                    !e.acked && round >= e.last_attempt.saturating_add(e.next_gap)
                }
            };
            if !due {
                continue;
            }
            if e.retries >= max {
                e.verdict = DeliveryVerdict::Abandoned { retries: e.retries };
                if S::ENABLED {
                    sink.emit(TraceEvent::Verdict {
                        round,
                        payload: e.payload,
                        delivered: false,
                    });
                }
                continue;
            }
            e.retries += 1;
            e.last_attempt = round;
            e.acked = false;
            if matches!(policy, RetryPolicy::ExponentialBackoff { .. }) {
                e.next_gap = e.next_gap.saturating_mul(2).min(MAX_BACKOFF_GAP);
            }
            if S::ENABLED {
                sink.emit(TraceEvent::Retry {
                    round,
                    source: e.source,
                    payload: e.payload,
                });
            }
            out.push((e.source, e.payload));
        }
    }

    /// The tracked payloads, in tracking order.
    pub fn entries(&self) -> &[ReliabilityEntry] {
        &self.entries
    }

    /// The entry for `payload`, if tracked.
    pub fn entry(&self, payload: PayloadId) -> Option<&ReliabilityEntry> {
        self.entries.iter().find(|e| e.payload == payload)
    }

    fn entry_mut(&mut self, payload: PayloadId) -> Option<&mut ReliabilityEntry> {
        self.entries.iter_mut().find(|e| e.payload == payload)
    }

    /// `true` once every tracked payload has a final verdict.
    pub fn is_settled(&self) -> bool {
        self.entries.iter().all(|e| e.verdict.is_final())
    }

    /// Aggregate verdict counts.
    pub fn stats(&self) -> ReliabilityStats {
        let mut s = ReliabilityStats::default();
        for e in &self.entries {
            match e.verdict {
                DeliveryVerdict::Pending => s.pending += 1,
                DeliveryVerdict::Delivered { .. } => s.delivered += 1,
                DeliveryVerdict::Abandoned { .. } => s.abandoned += 1,
            }
            s.total_retries += u64::from(e.retries);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due(rb: &mut ReliableBroadcast, round: u64) -> Vec<(NodeId, PayloadId)> {
        let mut out = Vec::new();
        rb.due_retries(round, &mut out);
        out
    }

    #[test]
    fn fixed_interval_retries_on_cadence_regardless_of_acks() {
        let mut rb = ReliableBroadcast::new(RetryPolicy::FixedInterval {
            interval: 3,
            max_retries: 2,
        });
        rb.track(PayloadId(1), NodeId(4), 0, true);
        rb.on_ack(PayloadId(1));
        assert!(due(&mut rb, 2).is_empty(), "before the interval");
        assert_eq!(due(&mut rb, 3), vec![(NodeId(4), PayloadId(1))]);
        assert!(due(&mut rb, 4).is_empty(), "cadence restarts at the retry");
        assert_eq!(due(&mut rb, 6), vec![(NodeId(4), PayloadId(1))]);
        // Budget exhausted: the next trigger abandons instead of retrying.
        assert!(due(&mut rb, 9).is_empty());
        assert_eq!(
            rb.entry(PayloadId(1)).unwrap().verdict,
            DeliveryVerdict::Abandoned { retries: 2 }
        );
        assert!(rb.is_settled());
        let stats = rb.stats();
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.total_retries, 2);
    }

    #[test]
    fn ack_gap_spends_no_budget_while_acked() {
        let mut rb = ReliableBroadcast::new(RetryPolicy::AckGap {
            gap: 2,
            max_retries: 5,
        });
        rb.track(PayloadId(0), NodeId(1), 0, true);
        assert_eq!(due(&mut rb, 2), vec![(NodeId(1), PayloadId(0))]);
        // The retry is acked promptly: no further retries, ever.
        rb.on_ack(PayloadId(0));
        for round in 3..40 {
            assert!(due(&mut rb, round).is_empty(), "round {round}");
        }
        assert_eq!(rb.entry(PayloadId(0)).unwrap().retries, 1);
        // Still pending (acked is a local guarantee, not delivery).
        assert!(!rb.is_settled());
        rb.settle_held(PayloadSet::only(PayloadId(0)), 11);
        assert_eq!(
            rb.entry(PayloadId(0)).unwrap().verdict,
            DeliveryVerdict::Delivered {
                round: 11,
                retries: 1
            }
        );
    }

    #[test]
    fn exponential_backoff_doubles_the_gap() {
        let mut rb = ReliableBroadcast::new(RetryPolicy::ExponentialBackoff {
            base: 2,
            max_retries: 3,
        });
        rb.track(PayloadId(2), NodeId(0), 0, false);
        let mut fired = Vec::new();
        for round in 0..40 {
            for (_, p) in due(&mut rb, round) {
                assert_eq!(p, PayloadId(2));
                fired.push(round);
            }
        }
        // Attempts at 2, then +4, then +8; then the budget-exhausted
        // trigger at +16 abandons.
        assert_eq!(fired, vec![2, 6, 14]);
        assert_eq!(
            rb.entry(PayloadId(2)).unwrap().verdict,
            DeliveryVerdict::Abandoned { retries: 3 }
        );
    }

    #[test]
    fn dropped_arrival_is_retried_until_it_enters() {
        let mut rb = ReliableBroadcast::new(RetryPolicy::AckGap {
            gap: 4,
            max_retries: 10,
        });
        rb.track(PayloadId(3), NodeId(2), 5, false);
        assert!(!rb.entry(PayloadId(3)).unwrap().entered);
        assert_eq!(due(&mut rb, 9), vec![(NodeId(2), PayloadId(3))]);
        // The caller's bcast succeeded this time.
        rb.note_entered(PayloadId(3));
        assert!(rb.entry(PayloadId(3)).unwrap().entered);
        assert_eq!(rb.entry(PayloadId(3)).unwrap().retries, 1);
    }

    #[test]
    fn verdicts_are_final() {
        let mut rb = ReliableBroadcast::new(RetryPolicy::AckGap {
            gap: 1,
            max_retries: 0,
        });
        rb.track(PayloadId(0), NodeId(0), 0, true);
        assert!(due(&mut rb, 1).is_empty(), "zero budget abandons at once");
        assert!(rb.entry(PayloadId(0)).unwrap().verdict.is_abandoned());
        // A late natural completion does not resurrect an abandoned
        // payload, and an abandoned one never retries again.
        rb.settle_held(PayloadSet::only(PayloadId(0)), 9);
        assert!(rb.entry(PayloadId(0)).unwrap().verdict.is_abandoned());
        assert!(due(&mut rb, 50).is_empty());

        let mut rb = ReliableBroadcast::new(RetryPolicy::AckGap {
            gap: 1,
            max_retries: 3,
        });
        rb.track(PayloadId(1), NodeId(0), 0, true);
        rb.settle_held(PayloadSet::only(PayloadId(1)), 2);
        rb.settle_held(PayloadSet::only(PayloadId(1)), 7);
        assert_eq!(
            rb.entry(PayloadId(1)).unwrap().verdict,
            DeliveryVerdict::Delivered {
                round: 2,
                retries: 0
            },
            "first delivery round wins"
        );
        assert!(due(&mut rb, 20).is_empty(), "delivered payloads rest");
    }

    #[test]
    fn exponential_backoff_gap_saturates_at_the_cap() {
        // With an uncapped doubling, 64 retries would push next_gap to
        // u64::MAX and `last_attempt + gap` to "never". The cap keeps the
        // schedule well-defined at extreme round counts.
        let mut rb = ReliableBroadcast::new(RetryPolicy::ExponentialBackoff {
            base: 1,
            max_retries: 200,
        });
        rb.track(PayloadId(0), NodeId(0), 0, true);
        let mut round = 0u64;
        let mut fired = 0u32;
        // Drive far past the doubling horizon by jumping straight to each
        // next trigger round.
        for _ in 0..120 {
            round = round.saturating_add(MAX_BACKOFF_GAP);
            fired += u32::try_from(due(&mut rb, round).len()).unwrap();
        }
        // Every probe fires: once saturated, the gap stays MAX_BACKOFF_GAP
        // (≤ the probe stride) instead of overflowing out of reach.
        assert_eq!(fired, 120);
        let entry = rb.entry(PayloadId(0)).unwrap();
        assert_eq!(entry.retries, 120);
        assert!(entry.verdict == DeliveryVerdict::Pending);
    }

    #[test]
    fn backend_wraps_both_mechanisms() {
        use crate::quorum::QuorumPolicy;

        let retry = RetryPolicy::AckGap {
            gap: 2,
            max_retries: 1,
        };
        let b: ReliabilityBackend = retry.into();
        assert_eq!(b, ReliabilityBackend::Retry(retry));
        assert_eq!(b.name(), "ack-gap");
        assert_eq!(b.quorum_policy(), None);

        let q: ReliabilityBackend = QuorumPolicy::for_bound(1).into();
        assert_eq!(q.quorum_policy(), Some(QuorumPolicy::for_bound(1)));
        assert!(q.name().contains("quorum"));
    }

    #[test]
    fn ledger_without_retries_abandons_drops_at_once_and_never_retries() {
        use crate::quorum::QuorumPolicy;

        let mut rb = ReliableBroadcast::for_backend(QuorumPolicy::for_bound(1).into());
        rb.track(PayloadId(0), NodeId(0), 0, true);
        rb.track(PayloadId(1), NodeId(5), 0, false);
        assert_eq!(
            rb.entry(PayloadId(0)).unwrap().verdict,
            DeliveryVerdict::Pending
        );
        assert_eq!(
            rb.entry(PayloadId(1)).unwrap().verdict,
            DeliveryVerdict::Abandoned { retries: 0 },
            "a dropped arrival is final without a retry lane"
        );
        for round in [1, 50, 5_000] {
            assert!(due(&mut rb, round).is_empty(), "round {round}");
        }
        let mut events: Vec<TraceEvent> = Vec::new();
        let held = PayloadSet::first_k(2);
        assert_eq!(rb.settle_held_traced(held, 9, &mut events), 1);
        assert_eq!(
            events,
            vec![TraceEvent::Verdict {
                round: 9,
                payload: PayloadId(0),
                delivered: true
            }]
        );
        assert!(rb.entry(PayloadId(1)).unwrap().verdict.is_abandoned());
        assert!(rb.is_settled());
        // The retry backend's ledger keeps the same drop pending instead,
        // and retries it.
        let retry = RetryPolicy::AckGap {
            gap: 3,
            max_retries: 1,
        };
        let mut rb = ReliableBroadcast::for_backend(retry.into());
        rb.track(PayloadId(1), NodeId(5), 0, false);
        assert!(!rb.is_settled());
        assert_eq!(due(&mut rb, 3), vec![(NodeId(5), PayloadId(1))]);
    }

    #[test]
    fn settle_held_settles_only_entered_pending_payloads() {
        let mut rb = ReliableBroadcast::new(RetryPolicy::AckGap {
            gap: 2,
            max_retries: 4,
        });
        rb.track(PayloadId(0), NodeId(0), 0, true);
        rb.track(PayloadId(1), NodeId(0), 0, false);
        rb.track(PayloadId(2), NodeId(0), 0, true);
        // Payload 1 is held everywhere (junk that circulated before it
        // entered) but has not entered: it stays pending. Payload 2 is not
        // held by everyone.
        let mut held = PayloadSet::only(PayloadId(0));
        held.insert(PayloadId(1));
        assert_eq!(rb.settle_held(held, 4), 1);
        assert_eq!(
            rb.entry(PayloadId(0)).unwrap().verdict,
            DeliveryVerdict::Delivered {
                round: 4,
                retries: 0
            }
        );
        assert_eq!(
            rb.entry(PayloadId(1)).unwrap().verdict,
            DeliveryVerdict::Pending
        );
        assert_eq!(
            rb.entry(PayloadId(2)).unwrap().verdict,
            DeliveryVerdict::Pending
        );
        // Final verdicts are not re-settled.
        assert_eq!(rb.settle_held(held, 6), 0);
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn duplicate_track_panics() {
        let mut rb = ReliableBroadcast::new(RetryPolicy::FixedInterval {
            interval: 1,
            max_retries: 1,
        });
        rb.track(PayloadId(0), NodeId(0), 0, true);
        rb.track(PayloadId(0), NodeId(1), 1, true);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_gap_rejected() {
        ReliableBroadcast::new(RetryPolicy::AckGap {
            gap: 0,
            max_retries: 1,
        });
    }

    #[test]
    fn policy_and_verdict_accessors() {
        let p = RetryPolicy::ExponentialBackoff {
            base: 2,
            max_retries: 7,
        };
        assert_eq!(p.max_retries(), 7);
        assert_eq!(p.name(), "exponential-backoff");
        assert_eq!(
            RetryPolicy::FixedInterval {
                interval: 1,
                max_retries: 0
            }
            .name(),
            "fixed-interval"
        );
        assert_eq!(
            RetryPolicy::AckGap {
                gap: 1,
                max_retries: 0
            }
            .name(),
            "ack-gap"
        );
        assert!(DeliveryVerdict::Pending.to_string().contains("pending"));
        assert!(DeliveryVerdict::Delivered {
            round: 3,
            retries: 1
        }
        .to_string()
        .contains("delivered@3"));
        assert!(DeliveryVerdict::Abandoned { retries: 2 }
            .to_string()
            .contains("abandoned"));
    }
}
