//! # dualgraph-sim
//!
//! Synchronous-round executor for the **dual graph** radio network model of
//! *Broadcasting in Unreliable Radio Networks* (Kuhn, Lynch, Newport,
//! Oshman, Richa; PODC 2010).
//!
//! The model, in brief (§2.1 of the paper): `n` processes are placed on the
//! nodes of a dual graph `(G, G′)` by an adversary-chosen bijection. Rounds
//! are synchronous. A transmission reaches the sender itself, all of its
//! reliable (`G`) out-neighbors, and an adversary-chosen subset of its
//! unreliable-only (`G′ ∖ G`) out-neighbors. Nodes reached by two or more
//! messages experience a collision, resolved by one of the rules
//! [`CollisionRule::Cr1`]–[`CollisionRule::Cr4`]. Processes start either
//! synchronously (round 1) or asynchronously (upon first reception).
//!
//! The crate provides:
//!
//! * [`Process`] — the per-node automaton interface;
//! * [`ProcessSlot`] / [`ProcessTable`] — enum-dispatched process storage:
//!   built-in automata (including the [`automata`] module's algorithm
//!   state machines) run inline through a batched, monomorphized round
//!   loop instead of two virtual calls per node per round;
//! * [`Adversary`] — `proc` assignment + unreliable deliveries + CR4
//!   resolution, with built-ins ([`ReliableOnly`], [`FullDelivery`],
//!   [`RandomDelivery`], [`BurstyDelivery`], [`WithAssignment`]);
//! * [`Executor`] — the round loop (CSR-backed, allocation-free in steady
//!   state), with event tracing ([`Executor::step_traced`]), outcome
//!   statistics, a per-node known-payload record, and mid-run environment
//!   injection ([`Executor::inject`]); [`ShardedExecutor`] runs the same
//!   round kernel shard-parallel, bit-identical at every shard count;
//! * [`TraceEvent`] / [`TraceSink`] — the one round record: every engine
//!   emits each round's transmissions and receptions, whole messages
//!   included, into a monomorphized sink. [`NullSink`] compiles the hooks
//!   out; a `Vec<TraceEvent>` records the stream for engine-against-engine
//!   comparison ([`first_divergence`]); [`RingSink`] keeps a post-mortem
//!   window and [`JsonlSink`] a `trace-v1` capture;
//! * [`PayloadSet`] — fixed-width payload bitsets: the multi-message
//!   cargo representation (see `docs/MULTI_MESSAGE.md`);
//! * [`MacLayer`] — the abstract MAC layer (`bcast`/`rcv`/`ack` events
//!   with measured progress and acknowledgment bounds) over the executor;
//! * [`dynamics`] — the dynamics subsystem: per-node fault roles
//!   ([`NodeRole`]: crash/recovery, jammers, spammers) applied as a
//!   liveness mask inside the batched dispatch loops, timed
//!   [`FaultPlan`]s, and the [`DynamicExecutor`] runner that drives an
//!   execution through an epoch-evolving
//!   [`TopologySchedule`][dualgraph_net::TopologySchedule];
//! * [`reliability`] — the reliability layer: [`ReliableBroadcast`]
//!   retry/ack policy driver ([`RetryPolicy`]: fixed-interval, ack-gap,
//!   exponential backoff) with per-payload delivery-guarantee
//!   [`DeliveryVerdict`]s, composed over the MAC layer by the stream
//!   runner (see `docs/RELIABILITY.md`);
//! * [`metrics`] — the one metrics stack over the trace events:
//!   [`MetricsRegistry`] (counters, gauges, log-bucketed quantile
//!   [`Histogram`]s), sliding-window stream-health instrumentation, and
//!   the [`TraceAnalyzer`] per-payload timeline reconstructor (see
//!   `docs/OBSERVABILITY.md`);
//! * [`ReferenceExecutor`] — the naive allocating oracle the differential
//!   tests check the optimized engine against;
//! * [`rng`] — deterministic seed derivation for reproducible experiments.
//!
//! # Examples
//!
//! ```
//! use dualgraph_net::generators;
//! use dualgraph_sim::{Executor, ExecutorConfig, ReliableOnly, SilentProcess};
//!
//! let net = generators::clique_bridge(8).network;
//! let mut exec = Executor::from_slots(
//!     &net,
//!     SilentProcess::slots(8),
//!     Box::new(ReliableOnly::new()),
//!     ExecutorConfig::default(),
//! )?;
//! exec.step();
//! assert_eq!(exec.round(), 1);
//! # Ok::<(), dualgraph_sim::BuildExecutorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod automata;
mod collision;
pub mod dynamics;
mod engine;
mod kernel;
pub mod mac;
mod message;
pub mod metrics;
mod payload;
mod process;
pub mod quorum;
pub mod reference;
pub mod reliability;
pub mod rng;
mod shard;
mod slot;
mod trace;

pub use adversary::{
    Adversary, Assignment, BuildAssignmentError, BurstyDelivery, CollisionSeeker, FullDelivery,
    ObliviousSampler, RandomDelivery, ReliableOnly, RoundContext, WithAssignment, WithRandomCr4,
};
pub use collision::{resolve, CollisionRule, Cr4Resolution, Reception};
pub use dynamics::{DynamicExecutor, DynamicsCursor, FaultEvent, FaultPlan, FaultView, NodeRole};
pub use engine::{
    BroadcastOutcome, BuildExecutorError, Executor, ExecutorConfig, RoundSummary, StartRule,
};
pub use mac::{AckRecord, MacEvent, MacLayer, MacStats};
pub use message::{Message, PayloadId, ProcessId};
pub use metrics::{
    CounterId, GaugeId, HealthConfig, Histogram, HistogramId, HistogramSummary, LatencyAttribution,
    MetricsRegistry, PayloadTimeline, StreamHealthReport, TraceAnalyzer, TraceReport,
    WindowedStats,
};
pub use payload::{PayloadSet, MAX_PAYLOADS};
pub use process::{ActivationCause, ChatterProcess, Flooder, Process, SilentProcess};
pub use quorum::{local_byzantine_bound, QuorumPolicy, QuorumProcess};
pub use reference::ReferenceExecutor;
pub use reliability::{
    DeliveryVerdict, ReliabilityBackend, ReliabilityEntry, ReliabilityStats, ReliableBroadcast,
    RetryPolicy,
};
pub use shard::ShardedExecutor;
pub use slot::{ProcessSlot, ProcessTable};
pub use trace::{
    check_trace_schema, first_divergence, Divergence, JsonlSink, NullSink, QuorumStage, RingSink,
    RoleTag, TraceEvent, TraceSchemaError, TraceSink, TRACE_SCHEMA,
};
