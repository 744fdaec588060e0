//! An abstract MAC layer over the dual graph executor.
//!
//! "Multi-Message Broadcast with Abstract MAC Layers and Unreliable Links"
//! (Ghaffari, Kantor, Lynch, Newport) structures multi-message broadcast
//! as an algorithm over an **abstract MAC layer**: the environment hands a
//! node a payload with `bcast(p)`, the layer delivers `rcv(p)` events at
//! other nodes as the payload physically spreads, and eventually fires an
//! `ack(p)` back at the broadcaster once its whole (reliable)
//! neighborhood provably has the payload. The layer's quality is measured
//! by two latencies: the *progress* bound (how long until a listener with
//! a broadcasting neighbor receives something) and the *acknowledgment*
//! bound (bcast → ack).
//!
//! [`MacLayer`] implements that interface on top of [`Executor`]: the
//! underlying contention management is whatever [`Process`] automaton the
//! executor runs (pipelined flooding for throughput, pipelined Harmonic
//! for collision-prone regimes), `bcast` lands payloads through
//! [`Executor::inject`], `rcv` events are detected from the engine's
//! per-node known-payload record, and `ack(u, p)` fires when every
//! reliable out-neighbor of `u` knows `p` — the strongest guarantee an
//! unreliable radio layer can give, since `G′ ∖ G` deliveries are at the
//! adversary's pleasure. Measured progress/ack latencies are aggregated in
//! [`MacStats`], so algorithms written against the layer can be judged on
//! the paper-level `f_prog`/`f_ack` axes.
//!
//! Algorithms can now be written against events instead of raw rounds:
//! call [`MacLayer::bcast`], drive [`MacLayer::step`], and react to the
//! returned [`MacEvent`]s (see `crates/core`'s `stream` runner and
//! `examples/multi_message.rs`).
//!
//! [`Process`]: crate::Process

use dualgraph_net::{Csr, NodeId};

use crate::engine::Executor;
use crate::message::PayloadId;
use crate::payload::PayloadSet;
use crate::trace::{NullSink, TraceEvent, TraceSink};

/// An event surfaced by the MAC layer at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacEvent {
    /// `node` learned `payload` (first delivery to that node).
    Rcv {
        /// The receiving node.
        node: NodeId,
        /// The newly learned payload.
        payload: PayloadId,
        /// Global round of the delivery.
        round: u64,
    },
    /// Every reliable out-neighbor of `node` now knows `payload`: the
    /// layer acknowledges the corresponding [`MacLayer::bcast`].
    Ack {
        /// The broadcasting node being acknowledged.
        node: NodeId,
        /// The acknowledged payload.
        payload: PayloadId,
        /// Global round at which the neighborhood was covered.
        round: u64,
    },
}

/// The completed lifecycle of one `bcast`: the measured latencies behind
/// the abstract MAC layer's `f_prog`/`f_ack` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRecord {
    /// The broadcasting node.
    pub node: NodeId,
    /// The payload.
    pub payload: PayloadId,
    /// Round at which `bcast` was issued (payload injected; `0` = before
    /// round 1).
    pub bcast_round: u64,
    /// Round of the first `rcv` at one of the broadcaster's reliable
    /// out-neighbors (`None` when the neighborhood was covered without a
    /// medium reception — already known at `bcast` time, or covered by
    /// later environment injections).
    pub first_progress_round: Option<u64>,
    /// Round at which the acknowledgment fired.
    pub ack_round: u64,
}

impl AckRecord {
    /// Rounds from `bcast` to `ack` (the measured acknowledgment bound).
    pub fn ack_latency(&self) -> u64 {
        self.ack_round - self.bcast_round
    }

    /// Rounds from `bcast` to the first neighbor `rcv` (the measured
    /// progress bound), when progress was needed at all.
    pub fn progress_latency(&self) -> Option<u64> {
        self.first_progress_round.map(|r| r - self.bcast_round)
    }
}

/// Aggregate MAC-layer latencies over the acknowledged `bcast`s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MacStats {
    /// Acknowledged broadcasts.
    pub acked: usize,
    /// Broadcasts still awaiting acknowledgment.
    pub pending: usize,
    /// Maximum observed bcast → ack latency.
    pub max_ack_latency: u64,
    /// Mean bcast → ack latency.
    pub mean_ack_latency: f64,
    /// Maximum observed bcast → first-neighbor-rcv latency.
    pub max_progress_latency: u64,
    /// Mean bcast → first-neighbor-rcv latency (over broadcasts that
    /// needed progress).
    pub mean_progress_latency: f64,
}

/// A `bcast` whose neighborhood is not yet covered.
#[derive(Debug, Clone)]
struct Pending {
    node: NodeId,
    payload: PayloadId,
    bcast_round: u64,
    first_rcv: Option<u64>,
    /// Reliable out-neighbors still missing the payload.
    remaining: u32,
}

/// Settles pending acks after `receiver` newly gained `payload` at
/// `round`: decrements every pending `(u, payload)` with `receiver` in
/// `u`'s reliable out-row, emitting acks into `out_events` (and records)
/// as neighborhoods complete. `via_reception` distinguishes a medium
/// delivery (counts toward the progress bound) from an environment
/// injection (covers the neighbor but is no reception). Shared by
/// [`MacLayer::step`] and [`MacLayer::bcast`] so a neighbor covered by a
/// later injection cannot leave an ack pending forever.
#[allow(clippy::too_many_arguments)]
fn settle(
    pending: &mut Vec<Pending>,
    records: &mut Vec<AckRecord>,
    out_events: &mut Vec<MacEvent>,
    reliable: &Csr,
    receiver: NodeId,
    payload: PayloadId,
    round: u64,
    via_reception: bool,
) {
    let mut i = 0;
    while i < pending.len() {
        let p = &mut pending[i];
        if p.payload == payload && reliable.contains(p.node, receiver) {
            p.remaining -= 1;
            if via_reception && p.first_rcv.is_none() {
                p.first_rcv = Some(round);
            }
            if p.remaining == 0 {
                let done = pending.swap_remove(i);
                out_events.push(MacEvent::Ack {
                    node: done.node,
                    payload: done.payload,
                    round,
                });
                records.push(AckRecord {
                    node: done.node,
                    payload: done.payload,
                    bcast_round: done.bcast_round,
                    first_progress_round: done.first_rcv,
                    ack_round: round,
                });
                continue;
            }
        }
        i += 1;
    }
}

/// The abstract MAC layer (see the module docs).
///
/// # Examples
///
/// ```
/// use dualgraph_net::generators;
/// use dualgraph_sim::automata::PipelinedFlooder;
/// use dualgraph_sim::{Executor, ExecutorConfig, MacEvent, MacLayer, PayloadId, ReliableOnly};
///
/// let net = generators::line(4, 1);
/// let exec = Executor::from_slots(
///     &net,
///     PipelinedFlooder::slots(4),
///     Box::new(ReliableOnly::new()),
///     ExecutorConfig::default(),
/// )?;
/// let mut mac = MacLayer::new(exec);
/// // Round 1: the source floods payload 0 to node 1.
/// let events = mac.step();
/// assert!(events
///     .iter()
///     .any(|e| matches!(e, MacEvent::Rcv { payload: PayloadId(0), .. })));
/// # Ok::<(), dualgraph_sim::BuildExecutorError>(())
/// ```
pub struct MacLayer<'a> {
    exec: Executor<'a>,
    /// Known-set snapshot from the end of the previous step (plus own
    /// injections, which must not surface as `rcv`s).
    prev_known: Vec<PayloadSet>,
    pending: Vec<Pending>,
    /// Events of the most recent [`MacLayer::step`].
    events: Vec<MacEvent>,
    /// Immediate acks issued by [`MacLayer::bcast`] since the last step,
    /// delivered with the next step's batch.
    carried: Vec<MacEvent>,
    records: Vec<AckRecord>,
}

impl<'a> MacLayer<'a> {
    /// Wraps an executor. The executor's pre-round-1 source input (its
    /// `config.payload` at the network source) is registered as the
    /// layer's first `bcast`, so its acknowledgment is tracked like any
    /// other.
    pub fn new(exec: Executor<'a>) -> Self {
        let n = exec.network().len();
        let seed_payload = exec.config().payload;
        let source = exec.network().source();
        let mut mac = MacLayer {
            prev_known: exec.known_payloads().to_vec(),
            exec,
            pending: Vec::new(),
            events: Vec::new(),
            carried: Vec::new(),
            records: Vec::new(),
        };
        debug_assert_eq!(mac.prev_known.len(), n);
        mac.track_ack(source, seed_payload);
        mac
    }

    /// The wrapped executor (read access).
    pub fn executor(&self) -> &Executor<'a> {
        &self.exec
    }

    /// Sets the liveness/role of `node` on the wrapped executor (see
    /// [`Executor::set_role`]). Acks already pending *for* a node that
    /// crashes (it is the broadcaster) stay pending until its reliable
    /// out-neighborhood is covered by the rest of the network. Coverage
    /// owed *by* a neighbor that crashes mid-epoch is re-judged at the
    /// next [`MacLayer::set_network`] re-anchor, which excludes
    /// non-correct neighbors from the remaining count; higher layers that
    /// cannot wait for an epoch swap should drive retries off the ack gap
    /// instead (see the `reliability` module).
    pub fn set_role(&mut self, node: NodeId, role: crate::dynamics::NodeRole) {
        self.exec.set_role(node, role);
    }

    /// Unwraps the layer, returning the executor mid-execution.
    pub fn into_executor(self) -> Executor<'a> {
        self.exec
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.exec.round()
    }

    /// Number of nodes currently knowing `payload`.
    pub fn known_count(&self, payload: PayloadId) -> usize {
        self.exec
            .known_payloads()
            .iter()
            .filter(|s| s.contains(payload))
            .count()
    }

    /// The environment hands `node` a payload to broadcast. The payload is
    /// injected into the underlying executor (transmittable from the next
    /// round) and an acknowledgment is armed: `ack(node, payload)` fires
    /// once every reliable out-neighbor of `node` knows `payload`. If the
    /// neighborhood is already covered, the ack fires immediately (it
    /// appears in the next [`MacLayer::step`]'s event batch).
    ///
    /// Returns `false` — and arms nothing — when the underlying injection
    /// was dropped because `node` is not currently correct (crashed or
    /// faulty under the dynamics subsystem): a dead radio cannot `bcast`,
    /// so no ack will ever fire for the attempt.
    pub fn bcast(&mut self, node: NodeId, payload: PayloadId) -> bool {
        self.bcast_traced(node, payload, &mut NullSink)
    }

    /// [`MacLayer::bcast`] with trace hooks: the underlying injection
    /// emits [`TraceEvent::Inject`] into `sink` (see `docs/OBSERVABILITY.md`).
    pub fn bcast_traced<S: TraceSink>(
        &mut self,
        node: NodeId,
        payload: PayloadId,
        sink: &mut S,
    ) -> bool {
        let fresh = !self.exec.known_payloads()[node.index()].contains(payload);
        if !self.exec.inject_traced(node, payload, sink) {
            return false;
        }
        // Own injections are not receptions: keep the snapshot in sync so
        // the next diff doesn't surface a spurious `rcv`.
        self.prev_known[node.index()].insert(payload);
        // The injection itself covers `node` for any *earlier* pending
        // bcast of the same payload — without this, an ack whose last
        // missing neighbor learns the payload from the environment (not
        // the medium) would stay pending forever.
        if fresh {
            let round = self.exec.round();
            let MacLayer {
                exec,
                pending,
                carried,
                records,
                ..
            } = self;
            settle(
                pending,
                records,
                carried,
                exec.network().reliable_csr(),
                node,
                payload,
                round,
                false,
            );
        }
        self.track_ack(node, payload);
        true
    }

    /// Swaps the active topology snapshot (the dynamics subsystem's epoch
    /// switch) and **re-anchors every pending acknowledgment** against the
    /// new reliable graph: ack coverage is always judged by the
    /// neighborhood of the epoch in force, so a pending `bcast` whose new
    /// reliable out-neighborhood is already covered acks immediately (the
    /// ack rides the next [`MacLayer::step`] batch, with no progress
    /// reception attributed), and one that gained uncovered neighbors
    /// simply waits for them. Without the re-anchor the stale `remaining`
    /// counts could deadlock an ack or fire it early.
    ///
    /// The recount only owes coverage to neighbors that are **currently
    /// correct**: a neighbor that is crashed (or jamming/spamming) at swap
    /// time has no functioning receiver, so re-anchoring it as a live ack
    /// target would stall the acknowledgment — and every f_ack measurement
    /// behind it — until the node happens to recover *and* be covered.
    /// A faulty neighbor that later recovers uncovered does not retract an
    /// ack that already fired (acks are final); it re-enters coverage
    /// accounting at the next re-anchor.
    ///
    /// # Panics
    ///
    /// Panics if `network` has a different node count (see
    /// [`Executor::set_network`]).
    pub fn set_network(&mut self, network: &'a dualgraph_net::DualGraph) {
        self.exec.set_network(network);
        let round = self.exec.round();
        let MacLayer {
            exec,
            pending,
            carried,
            records,
            ..
        } = self;
        let reliable = exec.network().reliable_csr();
        let known = exec.known_payloads();
        let roles = exec.roles();
        let mut i = 0;
        while i < pending.len() {
            let p = &mut pending[i];
            let remaining = reliable
                .row(p.node)
                .iter()
                .filter(|v| roles[v.index()].is_correct() && !known[v.index()].contains(p.payload))
                .count() as u32;
            if remaining == 0 {
                let done = pending.swap_remove(i);
                carried.push(MacEvent::Ack {
                    node: done.node,
                    payload: done.payload,
                    round,
                });
                records.push(AckRecord {
                    node: done.node,
                    payload: done.payload,
                    bcast_round: done.bcast_round,
                    first_progress_round: done.first_rcv,
                    ack_round: round,
                });
                continue;
            }
            p.remaining = remaining;
            i += 1;
        }
    }

    fn track_ack(&mut self, node: NodeId, payload: PayloadId) {
        let bcast_round = self.exec.round();
        let known = self.exec.known_payloads();
        let remaining = self
            .exec
            .network()
            .reliable_csr()
            .row(node)
            .iter()
            .filter(|v| !known[v.index()].contains(payload))
            .count() as u32;
        if remaining == 0 {
            self.carried.push(MacEvent::Ack {
                node,
                payload,
                round: bcast_round,
            });
            self.records.push(AckRecord {
                node,
                payload,
                bcast_round,
                first_progress_round: None,
                ack_round: bcast_round,
            });
        } else {
            self.pending.push(Pending {
                node,
                payload,
                bcast_round,
                first_rcv: None,
                remaining,
            });
        }
    }

    /// Executes one round of the underlying executor and returns the MAC
    /// events it produced: one `rcv` per (node, newly learned payload) and
    /// one `ack` per neighborhood-covering `bcast` (plus any immediate
    /// acks issued by [`MacLayer::bcast`] since the previous step).
    pub fn step(&mut self) -> &[MacEvent] {
        self.step_traced(&mut NullSink)
    }

    /// [`MacLayer::step`] with trace hooks: the underlying round emits its
    /// transmission/reception events into `sink`, and every `ack` in the
    /// returned batch additionally surfaces as
    /// [`TraceEvent::AckComplete`] (stamped with the ack's own round, so
    /// carried acks keep their original coordinate).
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> &[MacEvent] {
        self.events.clear();
        self.exec.step_traced(sink);
        let round = self.exec.round();
        let MacLayer {
            exec,
            prev_known,
            pending,
            events,
            carried,
            records,
        } = self;
        events.append(carried);
        let known = exec.known_payloads();
        let reliable = exec.network().reliable_csr();
        for node in 0..known.len() {
            let fresh = known[node].minus(prev_known[node]);
            if fresh.is_empty() {
                continue;
            }
            prev_known[node] = known[node];
            let receiver = NodeId::from_index(node);
            for payload in fresh.iter() {
                events.push(MacEvent::Rcv {
                    node: receiver,
                    payload,
                    round,
                });
                // Progress every pending ack wanting this (payload,
                // neighbor) delivery.
                settle(
                    pending, records, events, reliable, receiver, payload, round, true,
                );
            }
        }
        if S::ENABLED {
            for e in events.iter() {
                if let MacEvent::Ack {
                    node,
                    payload,
                    round,
                } = *e
                {
                    sink.emit(TraceEvent::AckComplete {
                        round,
                        source: node,
                        payload,
                    });
                }
            }
        }
        &self.events
    }

    /// The completed `bcast` lifecycles so far.
    pub fn ack_records(&self) -> &[AckRecord] {
        &self.records
    }

    /// Broadcasts still awaiting acknowledgment — the pending-ack queue
    /// depth the stream-health instrumentation samples each round.
    pub fn pending_acks(&self) -> usize {
        self.pending.len()
    }

    /// Aggregated progress/acknowledgment latencies.
    pub fn stats(&self) -> MacStats {
        let mut stats = MacStats {
            acked: self.records.len(),
            pending: self.pending.len(),
            ..MacStats::default()
        };
        if self.records.is_empty() {
            return stats;
        }
        let mut ack_sum = 0u64;
        let mut prog_sum = 0u64;
        let mut prog_count = 0u64;
        for r in &self.records {
            let a = r.ack_latency();
            ack_sum += a;
            stats.max_ack_latency = stats.max_ack_latency.max(a);
            if let Some(p) = r.progress_latency() {
                prog_sum += p;
                prog_count += 1;
                stats.max_progress_latency = stats.max_progress_latency.max(p);
            }
        }
        stats.mean_ack_latency = ack_sum as f64 / self.records.len() as f64;
        if prog_count > 0 {
            stats.mean_progress_latency = prog_sum as f64 / prog_count as f64;
        }
        stats
    }
}

impl std::fmt::Debug for MacLayer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MacLayer(round={}, acked={}, pending={})",
            self.exec.round(),
            self.records.len(),
            self.pending.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::PipelinedFlooder;
    use crate::engine::{Executor, ExecutorConfig};
    use crate::{FullDelivery, ReliableOnly};
    use dualgraph_net::generators;

    fn mac_on_line(n: usize) -> MacLayer<'static> {
        // Leak the network: test-only shorthand for a 'static topology.
        let net = Box::leak(Box::new(generators::line(n, 1)));
        let exec = Executor::from_slots(
            net,
            PipelinedFlooder::slots(n),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        MacLayer::new(exec)
    }

    #[test]
    fn rcv_events_follow_the_flood() {
        let mut mac = mac_on_line(4);
        let events = mac.step().to_vec();
        assert!(events.contains(&MacEvent::Rcv {
            node: NodeId(1),
            payload: PayloadId(0),
            round: 1
        }));
        mac.step();
        assert_eq!(mac.known_count(PayloadId(0)), 3);
    }

    #[test]
    fn source_ack_fires_when_neighborhood_covered() {
        let mut mac = mac_on_line(3);
        // Line 0-1-2: source 0's only reliable out-neighbor is 1, informed
        // in round 1 -> ack(0, p0) in round 1.
        let events = mac.step().to_vec();
        assert!(events.contains(&MacEvent::Ack {
            node: NodeId(0),
            payload: PayloadId(0),
            round: 1
        }));
        let records = mac.ack_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].ack_latency(), 1);
        assert_eq!(records[0].progress_latency(), Some(1));
    }

    #[test]
    fn bcast_injects_and_acks() {
        let mut mac = mac_on_line(4);
        // Before round 1: the environment hands node 3 a second payload,
        // so two flood waves start from opposite ends of the line.
        mac.bcast(NodeId(3), PayloadId(1));
        assert_eq!(mac.stats().pending, 2, "source's p0 + node 3's p1");
        let events = mac.step().to_vec();
        // Round 1: p0 reaches node 1, p1 reaches node 2 — both lone
        // reliable neighborhoods covered, both acks fire.
        assert!(events.contains(&MacEvent::Ack {
            node: NodeId(0),
            payload: PayloadId(0),
            round: 1
        }));
        assert!(events.contains(&MacEvent::Ack {
            node: NodeId(3),
            payload: PayloadId(1),
            round: 1
        }));
        assert_eq!(mac.known_count(PayloadId(1)), 2);
        let stats = mac.stats();
        assert_eq!(stats.acked, 2);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.max_ack_latency, 1);
        assert!((stats.mean_ack_latency - 1.0).abs() < 1e-12);
        // CR2-CR4 physics from here on: every node now transmits every
        // round, and a sender only ever hears itself — the two waves can
        // meet but never mix. Pipelined *flooding* therefore pipelines a
        // single stream direction; cross-traffic needs an automaton with
        // silent (listening) rounds, e.g. the pipelined Harmonic `BackoffProcess`.
        for _ in 0..10 {
            mac.step();
        }
        assert_eq!(
            mac.known_count(PayloadId(1)),
            2,
            "always-transmit flooders cannot learn while sending"
        );
    }

    #[test]
    fn bcast_with_covered_neighborhood_acks_immediately() {
        let net = generators::complete(3);
        let exec = Executor::from_slots(
            &net,
            PipelinedFlooder::slots(3),
            Box::new(FullDelivery::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let mut mac = MacLayer::new(exec);
        mac.step(); // everyone knows p0
        assert_eq!(mac.known_count(PayloadId(0)), 3);
        // Node 1 re-broadcasts p0: neighborhood already covered.
        mac.bcast(NodeId(1), PayloadId(0));
        let events = mac.step().to_vec();
        assert!(events.contains(&MacEvent::Ack {
            node: NodeId(1),
            payload: PayloadId(0),
            round: 1
        }));
    }

    #[test]
    fn no_spurious_rcv_for_own_bcast() {
        let mut mac = mac_on_line(4);
        mac.bcast(NodeId(2), PayloadId(3));
        let events = mac.step().to_vec();
        assert!(
            !events.iter().any(|e| matches!(
                e,
                MacEvent::Rcv {
                    node: NodeId(2),
                    payload: PayloadId(3),
                    ..
                }
            )),
            "a bcast is environment input, not a reception: {events:?}"
        );
    }

    #[test]
    fn injection_covered_neighbor_still_settles_earlier_ack() {
        // Regression: the source's bcast of p0 awaits neighbor 1; the
        // environment then hands node 1 the same payload via bcast. The
        // injection covers the neighborhood, so the source's ack must
        // fire (as an injection-covered ack: no progress reception) —
        // it previously stayed pending forever because only Rcv events
        // decremented pending counts.
        let mut mac = mac_on_line(4);
        mac.bcast(NodeId(1), PayloadId(0));
        let events = mac.step().to_vec();
        assert!(events.contains(&MacEvent::Ack {
            node: NodeId(0),
            payload: PayloadId(0),
            round: 0
        }));
        let src_ack = mac
            .ack_records()
            .iter()
            .find(|r| r.node == NodeId(0))
            .expect("source acked");
        assert_eq!(src_ack.ack_latency(), 0);
        assert_eq!(
            src_ack.progress_latency(),
            None,
            "covered by injection, not a reception"
        );
        // Node 1's own bcast completes over the medium as usual.
        for _ in 0..4 {
            mac.step();
        }
        assert_eq!(mac.known_count(PayloadId(0)), 4);
        assert_eq!(mac.stats().pending, 0, "no ack may be stuck");
        assert_eq!(mac.stats().acked, 2);
    }

    #[test]
    fn crashed_neighbor_no_longer_stalls_ack_after_reanchor() {
        // Regression: line 0-1-2-3. Node 1 — the source's only reliable
        // out-neighbor — crashes before round 1, so the source's seed
        // bcast can never be acked by coverage (a crashed radio never
        // receives). The epoch-swap re-anchor must judge coverage over
        // *currently correct* neighbors: before the fix the crashed node
        // was re-anchored as a live ack target and the ack (and every
        // f_ack measurement behind it) stalled forever.
        let net = Box::leak(Box::new(generators::line(4, 1)));
        let exec = Executor::from_slots(
            net,
            PipelinedFlooder::slots(4),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let mut mac = MacLayer::new(exec);
        mac.set_role(NodeId(1), crate::NodeRole::Crashed);
        for _ in 0..5 {
            mac.step();
        }
        assert_eq!(mac.stats().pending, 1, "crashed neighbor stalls the ack");
        // Epoch swap (same topology is a valid snapshot): the re-anchor
        // excludes the crashed neighbor, so the ack fires with the next
        // batch, with no progress reception attributed.
        mac.set_network(net);
        let events = mac.step().to_vec();
        assert!(
            events.iter().any(|e| matches!(
                e,
                MacEvent::Ack {
                    node: NodeId(0),
                    payload: PayloadId(0),
                    ..
                }
            )),
            "re-anchor settles the ack: {events:?}"
        );
        assert_eq!(mac.stats().pending, 0);
        let record = mac.ack_records()[0];
        assert_eq!(record.ack_round, 5, "stamped with the swap-time round");
        assert_eq!(record.first_progress_round, None);
    }

    #[test]
    fn reanchor_keeps_correct_uncovered_neighbors_pending() {
        // The complement: with the neighbor correct (just slow — silent
        // processes never relay), the re-anchor must NOT fire the ack.
        let net = Box::leak(Box::new(generators::line(3, 1)));
        let exec = Executor::from_slots(
            net,
            crate::SilentProcess::slots(3),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let mut mac = MacLayer::new(exec);
        mac.step();
        assert_eq!(mac.stats().pending, 1);
        mac.set_network(net);
        mac.step();
        assert_eq!(
            mac.stats().pending,
            1,
            "correct uncovered neighbor keeps the ack pending"
        );
    }

    #[test]
    fn debug_and_into_executor() {
        let mut mac = mac_on_line(3);
        mac.step();
        assert!(format!("{mac:?}").contains("MacLayer(round=1"));
        let exec = mac.into_executor();
        assert_eq!(exec.round(), 1);
    }
}
