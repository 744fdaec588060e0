//! Execution traces: the round-indexed event layer ([`TraceEvent`] /
//! [`TraceSink`]) threaded through every subsystem — the one record of
//! what a round did.
//!
//! The event layer is the observability surface described in
//! `docs/OBSERVABILITY.md`: each engine layer calls a `*_traced` method
//! variant carrying a monomorphized [`TraceSink`], and every hook is
//! guarded by the sink's [`TraceSink::ENABLED`] associated constant — with
//! the default [`NullSink`] the guards are compile-time `false`, the
//! emission loops are dead code, and untraced runs stay bit-identical and
//! allocation-free. Events carry **round numbers, never clocks**, so a
//! trace is a pure function of (topology, seed) and two engines can be
//! diffed event-for-event ([`first_divergence`]). `Transmit` and
//! `Reception` carry the whole [`Message`] (payloads, round tag, sender),
//! so a recorded `Vec<TraceEvent>` holds everything a round transmitted
//! and delivered.

use dualgraph_net::NodeId;

use crate::collision::Reception;
use crate::message::{Message, PayloadId};
use crate::payload::PayloadSet;

/// Compact tag for a node's [`NodeRole`][crate::NodeRole], without the
/// role's payload cargo — keeps [`TraceEvent`] small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleTag {
    /// [`NodeRole::Correct`][crate::NodeRole::Correct].
    Correct,
    /// [`NodeRole::Crashed`][crate::NodeRole::Crashed].
    Crashed,
    /// [`NodeRole::Jammer`][crate::NodeRole::Jammer].
    Jammer,
    /// [`NodeRole::Spammer`][crate::NodeRole::Spammer].
    Spammer,
    /// [`NodeRole::Equivocator`][crate::NodeRole::Equivocator].
    Equivocator,
    /// [`NodeRole::Forger`][crate::NodeRole::Forger].
    Forger,
}

impl RoleTag {
    /// Snake-case name used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            RoleTag::Correct => "correct",
            RoleTag::Crashed => "crashed",
            RoleTag::Jammer => "jammer",
            RoleTag::Spammer => "spammer",
            RoleTag::Equivocator => "equivocator",
            RoleTag::Forger => "forger",
        }
    }
}

impl From<crate::dynamics::NodeRole> for RoleTag {
    fn from(role: crate::dynamics::NodeRole) -> Self {
        use crate::dynamics::NodeRole;
        match role {
            NodeRole::Correct => RoleTag::Correct,
            NodeRole::Crashed => RoleTag::Crashed,
            NodeRole::Jammer => RoleTag::Jammer,
            NodeRole::Spammer(_) => RoleTag::Spammer,
            NodeRole::Equivocator { .. } => RoleTag::Equivocator,
            NodeRole::Forger(_) => RoleTag::Forger,
        }
    }
}

/// The three certification stages of the quorum (Bracha-style) pipeline,
/// as observed per node per payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumStage {
    /// The node holds an echo certificate (first quorum crossed).
    Echo,
    /// The node holds a ready certificate (second quorum crossed).
    Ready,
    /// The node accepted the payload (delivery latch).
    Accept,
}

impl QuorumStage {
    /// Snake-case name used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            QuorumStage::Echo => "echo",
            QuorumStage::Ready => "ready",
            QuorumStage::Accept => "accept",
        }
    }
}

/// One round-indexed observability event.
///
/// Events are `Copy` and clock-free: the only temporal coordinate is the
/// 1-based global round (`0` for pre-round-1 environment activity such as
/// construction-time injections). The per-round emission order is fixed —
/// `RoundStart`, then `Transmit` in ascending node order, then
/// `Reception`/`Collision` in ascending node order — so two deterministic
/// engines produce comparable streams. Events a stream emits between
/// rounds `t − 1` and `t` (`Inject`, `Retry`, the abandon `Verdict` of a
/// dropped arrival or of a spent retry budget, the `AckComplete` of an
/// ack fired between rounds) carry `t − 1`, the last executed round (see
/// `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A new global round began executing.
    RoundStart {
        /// The round being executed (1-based).
        round: u64,
    },
    /// A node transmitted this round.
    Transmit {
        /// Round of the transmission.
        round: u64,
        /// Transmitting node.
        node: NodeId,
        /// The transmitted message (for a Byzantine sender, its
        /// representative content; receivers may hear per-receiver
        /// variants).
        message: Message,
    },
    /// A node received exactly one message.
    Reception {
        /// Round of the reception.
        round: u64,
        /// Receiving node.
        node: NodeId,
        /// The message delivered.
        message: Message,
    },
    /// A node heard a collision notification (`⊤`).
    Collision {
        /// Round of the collision.
        round: u64,
        /// Node that heard `⊤`.
        node: NodeId,
    },
    /// The environment handed a payload to a node
    /// ([`Executor::inject`][crate::Executor::inject]).
    Inject {
        /// The last executed round (`0` before round 1): injections
        /// happen between rounds, and the payload can be transmitted from
        /// round `round + 1`.
        round: u64,
        /// Target node.
        node: NodeId,
        /// Injected payload identity.
        payload: PayloadId,
        /// Whether the injection was admitted (`false`: the node's radio
        /// was not correct and the payload was dropped).
        accepted: bool,
    },
    /// The topology schedule swapped in a new epoch snapshot.
    EpochSwitch {
        /// First round executed under the new epoch.
        round: u64,
        /// Index of the epoch now in force.
        epoch: u32,
    },
    /// A timed fault-plan event changed a node's role.
    Fault {
        /// Round at which the role change takes effect.
        round: u64,
        /// Affected node.
        node: NodeId,
        /// The role now in force (compact tag).
        role: RoleTag,
    },
    /// The reliability layer re-broadcast a payload at its source.
    Retry {
        /// Round at which the retry fired.
        round: u64,
        /// Source node of the tracked broadcast.
        source: NodeId,
        /// Payload being retried.
        payload: PayloadId,
    },
    /// The MAC layer acknowledged a tracked broadcast (every reliable
    /// neighbor of the source holds the payload).
    AckComplete {
        /// Round at which the acknowledgment fired.
        round: u64,
        /// Source node of the acknowledged broadcast.
        source: NodeId,
        /// Acknowledged payload.
        payload: PayloadId,
    },
    /// A node crossed a quorum-certification stage for a payload.
    QuorumPhase {
        /// Round by whose end the stage was crossed.
        round: u64,
        /// Node whose local state crossed the stage.
        node: NodeId,
        /// Certified payload.
        payload: PayloadId,
        /// Which stage was crossed.
        stage: QuorumStage,
    },
    /// The reliability layer settled a delivery-guarantee verdict.
    Verdict {
        /// Round at which the verdict settled.
        round: u64,
        /// Judged payload.
        payload: PayloadId,
        /// `true` for delivered, `false` for abandoned.
        delivered: bool,
    },
}

impl TraceEvent {
    /// The event's round coordinate.
    pub fn round(&self) -> u64 {
        match *self {
            TraceEvent::RoundStart { round }
            | TraceEvent::Transmit { round, .. }
            | TraceEvent::Reception { round, .. }
            | TraceEvent::Collision { round, .. }
            | TraceEvent::Inject { round, .. }
            | TraceEvent::EpochSwitch { round, .. }
            | TraceEvent::Fault { round, .. }
            | TraceEvent::Retry { round, .. }
            | TraceEvent::AckComplete { round, .. }
            | TraceEvent::QuorumPhase { round, .. }
            | TraceEvent::Verdict { round, .. } => round,
        }
    }

    /// The node and reception a `Reception` or `Collision` event records
    /// (`None` for every other event). Silence emits no event, so a node
    /// absent from a round's stream heard [`Reception::Silence`].
    pub fn heard(&self) -> Option<(NodeId, Reception)> {
        match *self {
            TraceEvent::Reception { node, message, .. } => {
                Some((node, Reception::Message(message)))
            }
            TraceEvent::Collision { node, .. } => Some((node, Reception::Collision)),
            _ => None,
        }
    }
}

/// A monomorphized event consumer.
///
/// Every engine hook is guarded by `if S::ENABLED { sink.emit(..) }`; with
/// [`NullSink`] the constant is `false` and the compiler removes the hook
/// (and any event-construction loop behind it) entirely — the
/// zero-overhead-when-off contract of `docs/OBSERVABILITY.md`. Sinks must
/// never observe wall-clock time: determinism of a traced run is part of
/// the contract (the analyzer's determinism lint covers this module).
pub trait TraceSink {
    /// Whether hooks should construct and emit events. Leave at the
    /// default `true` for any recording sink.
    const ENABLED: bool = true;

    /// Consumes one event.
    fn emit(&mut self, event: TraceEvent);
}

/// The default sink: discards everything at compile time
/// ([`TraceSink::ENABLED`] is `false`), so `step()` and
/// `step_traced(&mut NullSink)` are the same machine code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}
}

/// Full-stream recording backend: the trace-diff and differential-test
/// workhorse. Unbounded — prefer [`RingSink`] for long runs.
impl TraceSink for Vec<TraceEvent> {
    fn emit(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

/// Emits one [`TraceEvent::Transmit`] per `(node, message)` pair, in slice
/// order (every engine passes its senders in ascending node order). Call
/// sites keep the `S::ENABLED` guard, so untraced rounds never reach it.
pub(crate) fn emit_transmits<S: TraceSink>(
    sink: &mut S,
    round: u64,
    senders: &[(NodeId, Message)],
) {
    for &(node, message) in senders {
        sink.emit(TraceEvent::Transmit {
            round,
            node,
            message,
        });
    }
}

/// Emits one [`TraceEvent::Reception`] or [`TraceEvent::Collision`] per
/// non-silent entry of `receptions` (indexed by node, so in ascending node
/// order); silence emits nothing. Guarded at the call sites exactly like
/// [`emit_transmits`].
pub(crate) fn emit_receptions<S: TraceSink>(sink: &mut S, round: u64, receptions: &[Reception]) {
    for (i, reception) in receptions.iter().enumerate() {
        let node = NodeId::from_index(i);
        match *reception {
            Reception::Message(message) => sink.emit(TraceEvent::Reception {
                round,
                node,
                message,
            }),
            Reception::Collision => sink.emit(TraceEvent::Collision { round, node }),
            Reception::Silence => {}
        }
    }
}

/// Fixed-capacity post-mortem buffer: keeps the last `capacity` events,
/// overwriting the oldest. Query [`RingSink::events`] after a failure to
/// see what led up to it without paying for a full-stream recording.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    /// Total events ever emitted (including overwritten ones).
    seen: u64,
}

impl RingSink {
    /// A ring holding the last `capacity` events (`0` discards all).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            seen: 0,
        }
    }

    /// The retained events, oldest first (allocates the ordered copy).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever emitted at this sink (retained or overwritten).
    pub fn total_seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: TraceEvent) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

/// Schema identifier stamped as the first line of every JSONL trace
/// document (see [`JsonlSink`]): bump it whenever an event's rendered
/// shape changes so replay/diff tooling fails fast instead of silently
/// mis-parsing an old capture.
pub const TRACE_SCHEMA: &str = "trace-v1";

/// A JSONL trace document whose schema header did not check out (see
/// [`check_trace_schema`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSchemaError {
    /// The document is empty or its first line is not a
    /// `{"schema": ...}` header object.
    MissingHeader,
    /// The header names a schema other than [`TRACE_SCHEMA`].
    Mismatch {
        /// The schema string the header carried.
        found: String,
    },
}

impl std::fmt::Display for TraceSchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSchemaError::MissingHeader => write!(
                f,
                "trace document has no {{\"schema\": ...}} header line (expected {TRACE_SCHEMA:?})"
            ),
            TraceSchemaError::Mismatch { found } => write!(
                f,
                "trace document schema {found:?} does not match expected {TRACE_SCHEMA:?}"
            ),
        }
    }
}

impl std::error::Error for TraceSchemaError {}

/// Verifies that a JSONL trace document's first line is a schema header
/// naming [`TRACE_SCHEMA`]. Trace-consuming tooling (replay, diff) must
/// call this before parsing event lines.
pub fn check_trace_schema(doc: &str) -> Result<(), TraceSchemaError> {
    let first = doc.lines().next().unwrap_or("");
    let Some(found) = first
        .trim()
        .strip_prefix("{\"schema\":")
        .and_then(|rest| rest.trim_start().strip_prefix('"'))
        .and_then(|rest| rest.split('"').next())
    else {
        return Err(TraceSchemaError::MissingHeader);
    };
    if found == TRACE_SCHEMA {
        Ok(())
    } else {
        Err(TraceSchemaError::Mismatch {
            found: found.to_owned(),
        })
    }
}

/// Buffered JSONL export: renders each event as one JSON object per line
/// into an in-memory buffer, prefixed by a [`TRACE_SCHEMA`] header line.
/// The experiments binary's `--trace-jsonl` flag writes the buffer to
/// disk after the run (this crate does no I/O).
#[derive(Debug, Clone)]
pub struct JsonlSink {
    buf: String,
    lines: u64,
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonlSink {
    /// A buffer holding only the schema header line.
    pub fn new() -> Self {
        let mut buf = String::with_capacity(4096);
        buf.push_str("{\"schema\":\"");
        buf.push_str(TRACE_SCHEMA);
        buf.push_str("\"}\n");
        JsonlSink { buf, lines: 0 }
    }

    /// The buffered JSONL document.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consumes the sink, returning the buffered JSONL document.
    pub fn into_string(self) -> String {
        self.buf
    }

    /// Event lines buffered so far (the schema header is not counted).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    fn payload_list(buf: &mut String, payloads: PayloadSet) {
        use std::fmt::Write as _;
        buf.push('[');
        for (k, p) in payloads.iter().enumerate() {
            if k > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "{}", p.0);
        }
        buf.push(']');
    }
}

impl TraceSink for JsonlSink {
    fn emit(&mut self, event: TraceEvent) {
        use std::fmt::Write as _;
        let buf = &mut self.buf;
        match event {
            TraceEvent::RoundStart { round } => {
                let _ = write!(buf, "{{\"e\":\"round_start\",\"r\":{round}}}");
            }
            TraceEvent::Transmit {
                round,
                node,
                message,
            } => {
                // trace-v1's `face`: the parity of the transmitted
                // payload count (odd = 1).
                let _ = write!(
                    buf,
                    "{{\"e\":\"transmit\",\"r\":{round},\"node\":{},\"face\":{}}}",
                    node.index(),
                    message.payloads.len() % 2
                );
            }
            TraceEvent::Reception {
                round,
                node,
                message,
            } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"reception\",\"r\":{round},\"node\":{},\"sender\":{},\"payloads\":",
                    node.index(),
                    message.sender.0
                );
                Self::payload_list(buf, message.payloads);
                buf.push('}');
            }
            TraceEvent::Collision { round, node } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"collision\",\"r\":{round},\"node\":{}}}",
                    node.index()
                );
            }
            TraceEvent::Inject {
                round,
                node,
                payload,
                accepted,
            } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"inject\",\"r\":{round},\"node\":{},\"payload\":{},\"accepted\":{accepted}}}",
                    node.index(),
                    payload.0
                );
            }
            TraceEvent::EpochSwitch { round, epoch } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"epoch_switch\",\"r\":{round},\"epoch\":{epoch}}}"
                );
            }
            TraceEvent::Fault { round, node, role } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"fault\",\"r\":{round},\"node\":{},\"role\":\"{}\"}}",
                    node.index(),
                    role.name()
                );
            }
            TraceEvent::Retry {
                round,
                source,
                payload,
            } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"retry\",\"r\":{round},\"source\":{},\"payload\":{}}}",
                    source.index(),
                    payload.0
                );
            }
            TraceEvent::AckComplete {
                round,
                source,
                payload,
            } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"ack_complete\",\"r\":{round},\"source\":{},\"payload\":{}}}",
                    source.index(),
                    payload.0
                );
            }
            TraceEvent::QuorumPhase {
                round,
                node,
                payload,
                stage,
            } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"quorum_phase\",\"r\":{round},\"node\":{},\"payload\":{},\"stage\":\"{}\"}}",
                    node.index(),
                    payload.0,
                    stage.name()
                );
            }
            TraceEvent::Verdict {
                round,
                payload,
                delivered,
            } => {
                let _ = write!(
                    buf,
                    "{{\"e\":\"verdict\",\"r\":{round},\"payload\":{},\"delivered\":{delivered}}}",
                    payload.0
                );
            }
        }
        buf.push('\n');
        self.lines += 1;
    }
}

/// The first position at which two event streams disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index into both streams of the first disagreement.
    pub index: usize,
    /// The left stream's event at `index` (`None`: left ended early).
    pub left: Option<TraceEvent>,
    /// The right stream's event at `index` (`None`: right ended early).
    pub right: Option<TraceEvent>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.left, &self.right) {
            (Some(l), Some(r)) => {
                write!(f, "event #{}: left {l:?} != right {r:?}", self.index)
            }
            (Some(l), None) => write!(
                f,
                "event #{}: right stream ended; left continues with {l:?}",
                self.index
            ),
            (None, Some(r)) => write!(
                f,
                "event #{}: left stream ended; right continues with {r:?}",
                self.index
            ),
            (None, None) => write!(f, "event #{}: streams agree", self.index),
        }
    }
}

/// Compares two event streams and reports the first diverging event —
/// the trace-diff primitive: replay a workload on the optimized and
/// reference engines with `Vec<TraceEvent>` sinks and this localizes any
/// disagreement to one event instead of one bit-identity boolean.
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<Divergence> {
    let shared = left.len().min(right.len());
    for i in 0..shared {
        if left[i] != right[i] {
            return Some(Divergence {
                index: i,
                left: Some(left[i]),
                right: Some(right[i]),
            });
        }
    }
    if left.len() != right.len() {
        return Some(Divergence {
            index: shared,
            left: left.get(shared).copied(),
            right: right.get(shared).copied(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ProcessId;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Inject {
                round: 0,
                node: NodeId(0),
                payload: PayloadId(0),
                accepted: true,
            },
            TraceEvent::RoundStart { round: 1 },
            TraceEvent::Transmit {
                round: 1,
                node: NodeId(0),
                message: Message::tagged(ProcessId(0), PayloadId(0), 1),
            },
            TraceEvent::Reception {
                round: 1,
                node: NodeId(1),
                message: Message::tagged(ProcessId(0), PayloadId(0), 1),
            },
            TraceEvent::Collision {
                round: 1,
                node: NodeId(2),
            },
            TraceEvent::EpochSwitch { round: 2, epoch: 1 },
            TraceEvent::Fault {
                round: 2,
                node: NodeId(1),
                role: RoleTag::Crashed,
            },
            TraceEvent::Retry {
                round: 3,
                source: NodeId(0),
                payload: PayloadId(0),
            },
            TraceEvent::AckComplete {
                round: 4,
                source: NodeId(0),
                payload: PayloadId(0),
            },
            TraceEvent::QuorumPhase {
                round: 4,
                node: NodeId(1),
                payload: PayloadId(0),
                stage: QuorumStage::Echo,
            },
            TraceEvent::Verdict {
                round: 5,
                payload: PayloadId(0),
                delivered: true,
            },
        ]
    }

    #[test]
    fn null_sink_is_disabled_at_compile_time() {
        const _: () = assert!(!NullSink::ENABLED);
        const _: () = assert!(<Vec<TraceEvent> as TraceSink>::ENABLED);
        let mut s = NullSink;
        s.emit(TraceEvent::RoundStart { round: 1 });
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut v: Vec<TraceEvent> = Vec::new();
        for e in sample_events() {
            v.emit(e);
        }
        assert_eq!(v, sample_events());
        assert_eq!(v[1].round(), 1);
    }

    #[test]
    fn emission_helpers_carry_whole_messages_and_skip_silence() {
        let tagged = Message::tagged(ProcessId(0), PayloadId(0), 7);
        let signal = Message::signal(ProcessId(3));
        let mut events: Vec<TraceEvent> = Vec::new();
        emit_transmits(&mut events, 7, &[(NodeId(0), tagged), (NodeId(3), signal)]);
        emit_receptions(
            &mut events,
            7,
            &[
                Reception::Message(tagged),
                Reception::Silence,
                Reception::Collision,
                Reception::Message(signal),
            ],
        );
        assert_eq!(
            events,
            vec![
                TraceEvent::Transmit {
                    round: 7,
                    node: NodeId(0),
                    message: tagged,
                },
                TraceEvent::Transmit {
                    round: 7,
                    node: NodeId(3),
                    message: signal,
                },
                TraceEvent::Reception {
                    round: 7,
                    node: NodeId(0),
                    message: tagged,
                },
                TraceEvent::Collision {
                    round: 7,
                    node: NodeId(2),
                },
                TraceEvent::Reception {
                    round: 7,
                    node: NodeId(3),
                    message: signal,
                },
            ]
        );
        let heard: Vec<(NodeId, Reception)> = events.iter().filter_map(TraceEvent::heard).collect();
        assert_eq!(
            heard,
            vec![
                (NodeId(0), Reception::Message(tagged)),
                (NodeId(2), Reception::Collision),
                (NodeId(3), Reception::Message(signal)),
            ]
        );
    }

    #[test]
    fn ring_sink_keeps_the_last_n() {
        let mut r = RingSink::new(3);
        for round in 1..=5 {
            r.emit(TraceEvent::RoundStart { round });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_seen(), 5);
        let kept: Vec<u64> = r.events().iter().map(|e| e.round()).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        let mut zero = RingSink::new(0);
        zero.emit(TraceEvent::RoundStart { round: 1 });
        assert!(zero.is_empty());
        assert_eq!(zero.total_seen(), 1);
    }

    #[test]
    fn jsonl_sink_renders_every_variant() {
        let mut j = JsonlSink::new();
        for e in sample_events() {
            j.emit(e);
        }
        assert_eq!(j.lines(), sample_events().len() as u64);
        let doc = j.as_str();
        // One schema header line, then one line per event.
        assert_eq!(doc.lines().count(), sample_events().len() + 1);
        assert_eq!(doc.lines().next(), Some("{\"schema\":\"trace-v1\"}"));
        assert_eq!(check_trace_schema(doc), Ok(()));
        for line in doc.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        // trace-v1 renders the message-carrying events exactly as before
        // they carried the message: `face` is the payload-count parity,
        // and a reception names only its sender and payloads.
        assert!(doc.contains("{\"e\":\"transmit\",\"r\":1,\"node\":0,\"face\":1}\n"));
        assert!(doc
            .contains("{\"e\":\"reception\",\"r\":1,\"node\":1,\"sender\":0,\"payloads\":[0]}\n"));
        assert!(doc.contains("\"role\":\"crashed\""));
        assert!(doc.contains("\"stage\":\"echo\""));
        assert!(doc.contains("\"accepted\":true"));
        let owned = j.into_string();
        assert!(owned.ends_with('\n'));
    }

    #[test]
    fn trace_schema_check_rejects_bad_headers() {
        assert_eq!(check_trace_schema(""), Err(TraceSchemaError::MissingHeader));
        assert_eq!(
            check_trace_schema("{\"e\":\"round_start\",\"r\":1}\n"),
            Err(TraceSchemaError::MissingHeader)
        );
        let err = check_trace_schema("{\"schema\":\"trace-v0\"}\n")
            .expect_err("mismatched schema must be rejected");
        assert_eq!(
            err,
            TraceSchemaError::Mismatch {
                found: "trace-v0".to_owned()
            }
        );
        assert!(err.to_string().contains("trace-v0"));
        assert!(err.to_string().contains(TRACE_SCHEMA));
        assert_eq!(check_trace_schema(JsonlSink::default().as_str()), Ok(()));
    }

    #[test]
    fn first_divergence_localizes() {
        let a = sample_events();
        assert_eq!(first_divergence(&a, &a), None);

        let mut b = a.clone();
        b[4] = TraceEvent::Collision {
            round: 1,
            node: NodeId(3),
        };
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 4);
        assert!(d.to_string().contains("event #4"));

        let d = first_divergence(&a, &a[..5]).expect("length divergence");
        assert_eq!(d.index, 5);
        assert!(d.left.is_some() && d.right.is_none());
        assert!(d.to_string().contains("ended"));
    }
}
