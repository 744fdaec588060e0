//! Enum-dispatched process slots and the batched process table.
//!
//! PR 1's zero-alloc engine left one dominant cost in the round loop: two
//! virtual calls (`transmit` + `receive`) per node per round through
//! `Box<dyn Process>`, with every automaton behind its own heap pointer.
//! This module replaces that representation:
//!
//! * [`ProcessSlot`] — an enum with an **inline** variant for every
//!   built-in automaton plus a [`ProcessSlot::Custom`] boxed escape hatch.
//!   Dispatching on a slot is a jump-table match instead of a vtable load,
//!   and built-in automata live by value (no per-process allocation).
//! * [`ProcessTable`] — the executor's node-indexed process store. A
//!   *homogeneous* table (all slots the same built-in variant — the common
//!   case: every algorithm factory builds `n` copies of one automaton) is
//!   stored as a single typed `Vec`, so [`ProcessTable::transmit_all`] and
//!   [`ProcessTable::receive_all`] match on the variant **once per round**
//!   and run a monomorphized, fully inlinable loop over contiguous state.
//!   Mixed or custom populations fall back to a `Vec<ProcessSlot>` loop
//!   (per-element match; `Custom` still pays virtual dispatch).
//!
//! Both paths call every process in ascending node order with identical
//! arguments, so outcomes are bit-identical to the boxed representation —
//! the enum-vs-boxed differential suites enforce this.

use dualgraph_net::NodeId;

use crate::adversary::Assignment;
use crate::automata::{
    DecayProcess, HarmonicProcess, PipelinedFlooder, PipelinedHarmonic, RoundRobinProcess,
    StrongSelectProcess, UniformProcess,
};
use crate::collision::Reception;
use crate::dynamics::{FaultView, NodeRole};
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::PayloadSet;
use crate::process::{ActivationCause, ChatterProcess, Flooder, Process, SilentProcess};
use crate::quorum::QuorumProcess;
use crate::trace::{self, NullSink, TraceSink};

/// One process, stored either inline (built-in automata) or boxed
/// (anything else).
///
/// Build slots with the `slots()` constructors on the automata /
/// algorithm factories, with the `From` conversions, or by wrapping an
/// arbitrary implementation in [`ProcessSlot::Custom`]. `Custom` preserves
/// exact boxed-dispatch behavior, so downstream `Process` implementations
/// keep working unchanged — they just don't get the batched fast path.
#[derive(Debug, Clone)]
pub enum ProcessSlot {
    /// [`SilentProcess`], inline.
    Silent(SilentProcess),
    /// [`Flooder`], inline.
    Flooder(Flooder),
    /// [`ChatterProcess`], inline.
    Chatter(ChatterProcess),
    /// [`DecayProcess`], inline.
    Decay(DecayProcess),
    /// [`HarmonicProcess`], inline.
    Harmonic(HarmonicProcess),
    /// [`PipelinedFlooder`], inline.
    PipelinedFlooder(PipelinedFlooder),
    /// [`PipelinedHarmonic`], inline.
    PipelinedHarmonic(PipelinedHarmonic),
    /// [`RoundRobinProcess`], inline.
    RoundRobin(RoundRobinProcess),
    /// [`StrongSelectProcess`], inline.
    StrongSelect(StrongSelectProcess),
    /// [`UniformProcess`], inline.
    Uniform(UniformProcess),
    /// [`QuorumProcess`], inline.
    Quorum(QuorumProcess),
    /// Escape hatch: any other `Process`, behind its original vtable.
    Custom(Box<dyn Process>),
}

/// Delegates an expression to whichever automaton the slot holds.
macro_rules! match_slot {
    ($slot:expr, $p:ident => $e:expr) => {
        match $slot {
            ProcessSlot::Silent($p) => $e,
            ProcessSlot::Flooder($p) => $e,
            ProcessSlot::Chatter($p) => $e,
            ProcessSlot::Decay($p) => $e,
            ProcessSlot::Harmonic($p) => $e,
            ProcessSlot::PipelinedFlooder($p) => $e,
            ProcessSlot::PipelinedHarmonic($p) => $e,
            ProcessSlot::RoundRobin($p) => $e,
            ProcessSlot::StrongSelect($p) => $e,
            ProcessSlot::Uniform($p) => $e,
            ProcessSlot::Quorum($p) => $e,
            ProcessSlot::Custom($p) => $e,
        }
    };
}

impl ProcessSlot {
    /// Unwraps into a boxed trait object (the pre-table representation).
    /// `Custom` returns its existing box; inline variants are boxed as-is,
    /// preserving behavior exactly.
    pub fn into_boxed(self) -> Box<dyn Process> {
        match self {
            ProcessSlot::Silent(p) => Box::new(p),
            ProcessSlot::Flooder(p) => Box::new(p),
            ProcessSlot::Chatter(p) => Box::new(p),
            ProcessSlot::Decay(p) => Box::new(p),
            ProcessSlot::Harmonic(p) => Box::new(p),
            ProcessSlot::PipelinedFlooder(p) => Box::new(p),
            ProcessSlot::PipelinedHarmonic(p) => Box::new(p),
            ProcessSlot::RoundRobin(p) => Box::new(p),
            ProcessSlot::StrongSelect(p) => Box::new(p),
            ProcessSlot::Uniform(p) => Box::new(p),
            ProcessSlot::Quorum(p) => Box::new(p),
            ProcessSlot::Custom(b) => b,
        }
    }
}

impl Process for ProcessSlot {
    fn id(&self) -> ProcessId {
        match_slot!(self, p => p.id())
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        match_slot!(self, p => p.on_activate(cause));
    }

    fn on_input(&mut self, payload: PayloadId) {
        match_slot!(self, p => p.on_input(payload));
    }

    fn transmit(&mut self, local_round: u64) -> Option<Message> {
        match_slot!(self, p => p.transmit(local_round))
    }

    fn receive(&mut self, local_round: u64, reception: Reception) {
        match_slot!(self, p => p.receive(local_round, reception));
    }

    fn has_payload(&self) -> bool {
        match_slot!(self, p => p.has_payload())
    }

    fn is_terminated(&self) -> bool {
        match_slot!(self, p => p.is_terminated())
    }

    fn accepted_payloads(&self) -> Option<PayloadSet> {
        match_slot!(self, p => p.accepted_payloads())
    }

    fn certified_payloads(&self) -> Option<(PayloadSet, PayloadSet)> {
        match_slot!(self, p => p.certified_payloads())
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

macro_rules! impl_from_slot {
    ($($variant:ident($ty:ty)),* $(,)?) => {
        $(
            impl From<$ty> for ProcessSlot {
                fn from(p: $ty) -> Self {
                    ProcessSlot::$variant(p)
                }
            }
        )*
    };
}

impl_from_slot!(
    Silent(SilentProcess),
    Flooder(Flooder),
    Chatter(ChatterProcess),
    Decay(DecayProcess),
    Harmonic(HarmonicProcess),
    PipelinedFlooder(PipelinedFlooder),
    PipelinedHarmonic(PipelinedHarmonic),
    RoundRobin(RoundRobinProcess),
    StrongSelect(StrongSelectProcess),
    Uniform(UniformProcess),
    Quorum(QuorumProcess),
    Custom(Box<dyn Process>),
);

/// The executor's node-indexed process store (see the module docs).
///
/// Built from process-id-ordered slots via [`ProcessTable::from_slots`]
/// (or [`ProcessTable::from_boxed`] for legacy boxed vectors), then
/// permuted onto nodes with [`ProcessTable::place`].
#[derive(Debug, Clone)]
pub struct ProcessTable {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Silent(Vec<SilentProcess>),
    Flooder(Vec<Flooder>),
    Chatter(Vec<ChatterProcess>),
    Decay(Vec<DecayProcess>),
    Harmonic(Vec<HarmonicProcess>),
    PipelinedFlooder(Vec<PipelinedFlooder>),
    PipelinedHarmonic(Vec<PipelinedHarmonic>),
    RoundRobin(Vec<RoundRobinProcess>),
    StrongSelect(Vec<StrongSelectProcess>),
    Uniform(Vec<UniformProcess>),
    Quorum(Vec<QuorumProcess>),
    Mixed(Vec<ProcessSlot>),
}

/// The once-per-call dispatch: selects the monomorphized body for the
/// table's variant. `Mixed` runs the same body over `ProcessSlot`s (whose
/// `Process` impl matches per element).
macro_rules! each_repr {
    ($repr:expr, $v:ident => $e:expr) => {
        match $repr {
            Repr::Silent($v) => $e,
            Repr::Flooder($v) => $e,
            Repr::Chatter($v) => $e,
            Repr::Decay($v) => $e,
            Repr::Harmonic($v) => $e,
            Repr::PipelinedFlooder($v) => $e,
            Repr::PipelinedHarmonic($v) => $e,
            Repr::RoundRobin($v) => $e,
            Repr::StrongSelect($v) => $e,
            Repr::Uniform($v) => $e,
            Repr::Quorum($v) => $e,
            Repr::Mixed($v) => $e,
        }
    };
}

/// Collects a homogeneous slot vector into its typed representation.
macro_rules! collect_variant {
    ($slots:expr, $variant:ident) => {
        Repr::$variant(
            $slots
                .into_iter()
                .map(|s| match s {
                    ProcessSlot::$variant(p) => p,
                    _ => unreachable!("homogeneity was checked"),
                })
                .collect(),
        )
    };
}

/// Reorders `items` (process-id order) into node order under `assignment`:
/// position `node` receives the process `assignment.process_at(node)`.
///
/// Indexing note (the classic id-space trap this module is audited for):
/// the *input* is indexed by [`ProcessId`], the *output* by node index.
fn permute<P>(items: Vec<P>, assignment: &Assignment) -> Vec<P> {
    let n = items.len();
    let mut staging: Vec<Option<P>> = items.into_iter().map(Some).collect();
    (0..n)
        .map(|node| {
            let pid = assignment.process_at(NodeId::from_index(node));
            staging[pid.index()]
                .take()
                .expect("assignment is a bijection") // analyzer: allow(panic, reason = "invariant: assignment is a bijection")
        })
        .collect()
}

impl ProcessTable {
    /// Builds a table from slots. A non-empty, all-one-built-in-variant
    /// vector becomes a typed (batched) table; anything else stays
    /// [`Mixed`](ProcessSlot) with per-element dispatch.
    pub fn from_slots(slots: Vec<ProcessSlot>) -> Self {
        let homogeneous = match slots.first() {
            None | Some(ProcessSlot::Custom(_)) => false,
            Some(first) => {
                let d = std::mem::discriminant(first);
                slots.iter().all(|s| std::mem::discriminant(s) == d)
            }
        };
        if !homogeneous {
            return ProcessTable {
                repr: Repr::Mixed(slots),
            };
        }
        // analyzer: allow(panic, reason = "invariant: non-empty checked")
        let repr = match slots.first().expect("non-empty checked") {
            ProcessSlot::Silent(_) => collect_variant!(slots, Silent),
            ProcessSlot::Flooder(_) => collect_variant!(slots, Flooder),
            ProcessSlot::Chatter(_) => collect_variant!(slots, Chatter),
            ProcessSlot::Decay(_) => collect_variant!(slots, Decay),
            ProcessSlot::Harmonic(_) => collect_variant!(slots, Harmonic),
            ProcessSlot::PipelinedFlooder(_) => collect_variant!(slots, PipelinedFlooder),
            ProcessSlot::PipelinedHarmonic(_) => collect_variant!(slots, PipelinedHarmonic),
            ProcessSlot::RoundRobin(_) => collect_variant!(slots, RoundRobin),
            ProcessSlot::StrongSelect(_) => collect_variant!(slots, StrongSelect),
            ProcessSlot::Uniform(_) => collect_variant!(slots, Uniform),
            ProcessSlot::Quorum(_) => collect_variant!(slots, Quorum),
            ProcessSlot::Custom(_) => unreachable!("Custom was excluded above"),
        };
        ProcessTable { repr }
    }

    /// Builds a `Mixed` table of [`ProcessSlot::Custom`] entries: the
    /// legacy boxed representation, dispatch behavior unchanged.
    pub fn from_boxed(processes: Vec<Box<dyn Process>>) -> Self {
        ProcessTable {
            repr: Repr::Mixed(processes.into_iter().map(ProcessSlot::Custom).collect()),
        }
    }

    /// Decomposes the table back into slots (node/current order).
    pub fn into_slots(self) -> Vec<ProcessSlot> {
        match self.repr {
            Repr::Silent(v) => v.into_iter().map(ProcessSlot::Silent).collect(),
            Repr::Flooder(v) => v.into_iter().map(ProcessSlot::Flooder).collect(),
            Repr::Chatter(v) => v.into_iter().map(ProcessSlot::Chatter).collect(),
            Repr::Decay(v) => v.into_iter().map(ProcessSlot::Decay).collect(),
            Repr::Harmonic(v) => v.into_iter().map(ProcessSlot::Harmonic).collect(),
            Repr::PipelinedFlooder(v) => v.into_iter().map(ProcessSlot::PipelinedFlooder).collect(),
            Repr::PipelinedHarmonic(v) => {
                v.into_iter().map(ProcessSlot::PipelinedHarmonic).collect()
            }
            Repr::RoundRobin(v) => v.into_iter().map(ProcessSlot::RoundRobin).collect(),
            Repr::StrongSelect(v) => v.into_iter().map(ProcessSlot::StrongSelect).collect(),
            Repr::Uniform(v) => v.into_iter().map(ProcessSlot::Uniform).collect(),
            Repr::Quorum(v) => v.into_iter().map(ProcessSlot::Quorum).collect(),
            Repr::Mixed(v) => v,
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        each_repr!(&self.repr, v => v.len())
    }

    /// `true` for an empty table.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the table is homogeneous (typed storage, batched
    /// monomorphized round loops); `false` for the `Mixed` fallback.
    pub fn is_batched(&self) -> bool {
        !matches!(self.repr, Repr::Mixed(_))
    }

    /// Diagnostic name of the table's storage variant.
    pub fn kind(&self) -> &'static str {
        match &self.repr {
            Repr::Silent(_) => "silent",
            Repr::Flooder(_) => "flooder",
            Repr::Chatter(_) => "chatter",
            Repr::Decay(_) => "decay",
            Repr::Harmonic(_) => "harmonic",
            Repr::PipelinedFlooder(_) => "pipelined-flooder",
            Repr::PipelinedHarmonic(_) => "pipelined-harmonic",
            Repr::RoundRobin(_) => "round-robin",
            Repr::StrongSelect(_) => "strong-select",
            Repr::Uniform(_) => "uniform",
            Repr::Quorum(_) => "quorum",
            Repr::Mixed(_) => "mixed",
        }
    }

    /// Read access to the process at `index` (node index once placed).
    pub fn get(&self, index: usize) -> &dyn Process {
        each_repr!(&self.repr, v => &v[index] as &dyn Process)
    }

    /// Delivers an activation to the process at `index`.
    pub fn activate(&mut self, index: usize, cause: ActivationCause) {
        each_repr!(&mut self.repr, v => v[index].on_activate(cause));
    }

    /// Delivers mid-run environment input to the process at `index`
    /// (see [`Process::on_input`]).
    pub fn input(&mut self, index: usize, payload: PayloadId) {
        each_repr!(&mut self.repr, v => v[index].on_input(payload));
    }

    /// Reorders the table from process-id order into node order under
    /// `assignment` (homogeneous tables stay homogeneous).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.len()`.
    pub fn place(self, assignment: &Assignment) -> Self {
        assert_eq!(assignment.len(), self.len(), "assignment size mismatch");
        let repr = match self.repr {
            Repr::Silent(v) => Repr::Silent(permute(v, assignment)),
            Repr::Flooder(v) => Repr::Flooder(permute(v, assignment)),
            Repr::Chatter(v) => Repr::Chatter(permute(v, assignment)),
            Repr::Decay(v) => Repr::Decay(permute(v, assignment)),
            Repr::Harmonic(v) => Repr::Harmonic(permute(v, assignment)),
            Repr::PipelinedFlooder(v) => Repr::PipelinedFlooder(permute(v, assignment)),
            Repr::PipelinedHarmonic(v) => Repr::PipelinedHarmonic(permute(v, assignment)),
            Repr::RoundRobin(v) => Repr::RoundRobin(permute(v, assignment)),
            Repr::StrongSelect(v) => Repr::StrongSelect(permute(v, assignment)),
            Repr::Uniform(v) => Repr::Uniform(permute(v, assignment)),
            Repr::Quorum(v) => Repr::Quorum(permute(v, assignment)),
            Repr::Mixed(v) => Repr::Mixed(permute(v, assignment)),
        };
        ProcessTable { repr }
    }

    /// Phase-1 batched send decisions for global round `round`: polls every
    /// node whose process is active (`active_from[node] <= round`) in
    /// ascending node order and appends `(node, message)` for each
    /// transmission.
    ///
    /// `faults` is the dynamics subsystem's per-node liveness/role mask
    /// (`None` for all-correct populations — the common case pays one
    /// branch on the `Option` per sweep, nothing per node): crashed nodes
    /// are skipped without polling their frozen automata, jammers and
    /// spammers contribute their standing message instead — in the same
    /// node-order position a process transmission would occupy, which the
    /// adversary call order and the reaching arena depend on.
    pub fn transmit_all(
        &mut self,
        round: u64,
        active_from: &[Option<u64>],
        faults: Option<FaultView<'_>>,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        self.transmit_all_traced(round, active_from, faults, out, &mut NullSink);
    }

    /// [`ProcessTable::transmit_all`] with an observability hook: emits one
    /// [`TraceEvent::Transmit`][crate::TraceEvent::Transmit] per appended
    /// transmission, carrying the whole message, in the same
    /// ascending node order the sweep produced them. The emission loop is
    /// guarded by [`TraceSink::ENABLED`], so the [`NullSink`]
    /// instantiation — which [`ProcessTable::transmit_all`] delegates to —
    /// is the untraced sweep, machine code unchanged.
    pub fn transmit_all_traced<S: TraceSink>(
        &mut self,
        round: u64,
        active_from: &[Option<u64>],
        faults: Option<FaultView<'_>>,
        out: &mut Vec<(NodeId, Message)>,
        sink: &mut S,
    ) {
        let emitted_from = out.len();
        each_repr!(&mut self.repr, v => transmit_chunk(v, 0, round, active_from, faults, out));
        if S::ENABLED {
            trace::emit_transmits(sink, round, &out[emitted_from..]);
        }
    }

    /// Shard-parallel phase-1 send decisions: node chunk `s` (of `chunk`
    /// nodes, the last possibly shorter) sweeps into `outs[s]` (cleared
    /// here). Each chunk runs [`transmit_chunk`]'s loop — the *same* body
    /// the sequential sweep runs over the whole table — on a scoped worker
    /// thread (chunk 0 inline on the caller), so concatenating `outs` in
    /// shard order reproduces the sequential sweep's ascending-node output
    /// bit for bit, whatever the chunk size.
    ///
    /// Trace emission is the caller's job (from the merged buffer), which
    /// keeps worker threads sink-free — the zero-overhead-when-off
    /// contract needs no per-shard sinks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` or `outs` has fewer slots than chunks.
    pub fn transmit_all_sharded(
        &mut self,
        round: u64,
        active_from: &[Option<u64>],
        faults: Option<FaultView<'_>>,
        chunk: usize,
        outs: &mut [Vec<(NodeId, Message)>],
    ) {
        assert!(chunk > 0, "transmit_all_sharded needs a positive chunk");
        assert!(
            outs.len() >= self.len().div_ceil(chunk),
            "transmit_all_sharded: {} output slots for {} chunks",
            outs.len(),
            self.len().div_ceil(chunk)
        );
        each_repr!(&mut self.repr, v => {
            std::thread::scope(|scope| {
                let mut parts = v.chunks_mut(chunk).zip(outs.iter_mut()).enumerate();
                let first = parts.next();
                for (s, (procs, out)) in parts {
                    out.clear();
                    scope.spawn(move || {
                        transmit_chunk(procs, s * chunk, round, active_from, faults, out);
                    });
                }
                // Chunk 0 runs inline on the coordinator; the scope joins
                // the rest on exit (no handle collection, no allocation).
                if let Some((_, (procs, out))) = first {
                    out.clear();
                    transmit_chunk(procs, 0, round, active_from, faults, out);
                }
            });
        });
    }

    /// Phase-4 batched end-of-round deliveries for global round `round`,
    /// in ascending node order: active processes get `receive`; sleeping
    /// processes (asynchronous start) are activated by an actual message,
    /// which updates `active_from[node]` to `round + 1`.
    ///
    /// `roles` is the dynamics liveness mask (`None` when every node is
    /// correct): non-correct nodes are skipped entirely — their frozen
    /// automata observe nothing, not even silence, and cannot be
    /// activated while faulty.
    pub fn receive_all(
        &mut self,
        round: u64,
        active_from: &mut [Option<u64>],
        roles: Option<&[NodeRole]>,
        receptions: &[Reception],
    ) {
        self.receive_all_traced(round, active_from, roles, receptions, &mut NullSink);
    }

    /// [`ProcessTable::receive_all`] with an observability hook: emits one
    /// [`TraceEvent::Reception`][crate::TraceEvent::Reception] or
    /// [`TraceEvent::Collision`][crate::TraceEvent::Collision] per node (in
    /// ascending node order; silence emits nothing — faulty radios were
    /// resolved to silence in phase 3, so they emit nothing here either).
    /// Guarded by [`TraceSink::ENABLED`] exactly like
    /// [`ProcessTable::transmit_all_traced`].
    pub fn receive_all_traced<S: TraceSink>(
        &mut self,
        round: u64,
        active_from: &mut [Option<u64>],
        roles: Option<&[NodeRole]>,
        receptions: &[Reception],
        sink: &mut S,
    ) {
        each_repr!(&mut self.repr, v => receive_chunk(v, active_from, 0, round, roles, receptions));
        if S::ENABLED {
            trace::emit_receptions(sink, round, receptions);
        }
    }

    /// Shard-parallel phase-4 deliveries **fused with per-shard
    /// bookkeeping**: node chunk `s` runs [`receive_chunk`]'s loop — the
    /// same body the sequential sweep runs — then immediately hands its
    /// node range to `absorbs[s]` (the informed/known bookkeeping of the
    /// sharded executor), all on the same scoped worker thread (chunk 0
    /// inline on the caller). `active_from` splits into the same disjoint
    /// chunks as the table, so activation writes never race.
    ///
    /// Trace emission is the caller's job (from the shared reception
    /// buffer), exactly as in [`ProcessTable::transmit_all_sharded`].
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` or `absorbs` has fewer slots than chunks.
    pub fn receive_all_sharded<A: ShardAbsorb>(
        &mut self,
        round: u64,
        active_from: &mut [Option<u64>],
        roles: Option<&[NodeRole]>,
        receptions: &[Reception],
        chunk: usize,
        absorbs: &mut [A],
    ) {
        assert!(chunk > 0, "receive_all_sharded needs a positive chunk");
        assert!(
            absorbs.len() >= self.len().div_ceil(chunk),
            "receive_all_sharded: {} absorb slots for {} chunks",
            absorbs.len(),
            self.len().div_ceil(chunk)
        );
        each_repr!(&mut self.repr, v => {
            std::thread::scope(|scope| {
                let mut parts = v
                    .chunks_mut(chunk)
                    .zip(active_from.chunks_mut(chunk))
                    .zip(absorbs.iter_mut())
                    .enumerate();
                let first = parts.next();
                for (s, ((procs, af), a)) in parts {
                    scope.spawn(move || {
                        let len = procs.len();
                        receive_chunk(procs, af, s * chunk, round, roles, receptions);
                        a.absorb(s * chunk, len, receptions);
                    });
                }
                if let Some((_, ((procs, af), a))) = first {
                    let len = procs.len();
                    receive_chunk(procs, af, 0, round, roles, receptions);
                    a.absorb(0, len, receptions);
                }
            });
        });
    }
}

/// Per-shard post-receive bookkeeping hook of
/// [`ProcessTable::receive_all_sharded`]: invoked once per chunk, on the
/// chunk's worker thread, after every process in `base..base + len` has
/// received. Implementations hold the shard's *disjoint* mutable state
/// (known-set slices, informed bitset words, first-receive records), so no
/// synchronization is needed.
pub trait ShardAbsorb: Send {
    /// Absorbs the resolved receptions of nodes `base..base + len`.
    fn absorb(&mut self, base: usize, len: usize, receptions: &[Reception]);
}

/// The phase-1 send-decision loop over one contiguous node chunk:
/// `procs[i]` is node `base + i`. The sequential sweep is the `base = 0`
/// whole-table instantiation; the sharded sweep runs one call per chunk.
/// Keeping a single body is what makes "sharded ≡ sequential" an identity
/// rather than a proof obligation about two loops.
fn transmit_chunk<P: Process>(
    procs: &mut [P],
    base: usize,
    t: u64,
    active_from: &[Option<u64>],
    faults: Option<FaultView<'_>>,
    out: &mut Vec<(NodeId, Message)>,
) {
    for (i, p) in procs.iter_mut().enumerate() {
        let node = base + i;
        if let Some(f) = faults {
            match f.roles[node] {
                NodeRole::Correct => {}
                NodeRole::Crashed => continue,
                NodeRole::Jammer | NodeRole::Spammer(_) | NodeRole::Equivocator { .. } => {
                    if let Some(msg) = f.standing_tx[node] {
                        out.push((NodeId::from_index(node), msg));
                    }
                    continue;
                }
                NodeRole::Forger(_) => {
                    // Forged mint blended with the node's frozen
                    // known record: forged ids travel alongside
                    // genuine traffic instead of standing alone.
                    if let Some(mut msg) = f.standing_tx[node] {
                        msg.payloads.union_with(f.known[node]);
                        out.push((NodeId::from_index(node), msg));
                    }
                    continue;
                }
            }
        }
        if let Some(from) = active_from[node] {
            if from <= t {
                if let Some(msg) = p.transmit(t - from + 1) {
                    out.push((NodeId::from_index(node), msg));
                }
            }
        }
    }
}

/// The phase-4 delivery loop over one contiguous node chunk: `procs[i]`
/// and `active_from[i]` are node `base + i`; `roles` and `receptions` stay
/// whole-table (read-only). See [`transmit_chunk`] for the one-body
/// rationale.
fn receive_chunk<P: Process>(
    procs: &mut [P],
    active_from: &mut [Option<u64>],
    base: usize,
    t: u64,
    roles: Option<&[NodeRole]>,
    receptions: &[Reception],
) {
    for (i, p) in procs.iter_mut().enumerate() {
        let node = base + i;
        if roles.is_some_and(|r| !r[node].is_correct()) {
            continue;
        }
        match active_from[i] {
            Some(from) if from <= t => p.receive(t - from + 1, receptions[node]),
            _ => {
                // Sleeping: only an actual message activates; the
                // message is delivered via the activation cause.
                if let Reception::Message(m) = receptions[node] {
                    p.on_activate(ActivationCause::Reception(m));
                    active_from[i] = Some(t + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::PayloadId;
    use crate::quorum::QuorumPolicy;

    fn flooder_slots(n: usize) -> Vec<ProcessSlot> {
        Flooder::slots(n)
    }

    #[test]
    fn homogeneous_slots_become_typed_tables() {
        let table = ProcessTable::from_slots(flooder_slots(4));
        assert!(table.is_batched());
        assert_eq!(table.kind(), "flooder");
        assert_eq!(table.len(), 4);
        assert_eq!(table.get(2).id(), ProcessId(2));
    }

    #[test]
    fn mixed_and_custom_slots_fall_back() {
        let mut slots = flooder_slots(2);
        slots.push(ProcessSlot::Silent(SilentProcess::new(ProcessId(2))));
        let table = ProcessTable::from_slots(slots);
        assert!(!table.is_batched());
        assert_eq!(table.kind(), "mixed");

        let boxed = ProcessTable::from_boxed(Flooder::boxed(3));
        assert!(!boxed.is_batched());
        assert_eq!(boxed.get(1).id(), ProcessId(1));

        let empty = ProcessTable::from_slots(Vec::new());
        assert!(empty.is_empty());
        assert!(!empty.is_batched());
    }

    #[test]
    fn slots_forward_the_quorum_latches() {
        // A mixed table reads its processes through `ProcessSlot`'s
        // `Process` impl, as `Executor::process_at` does: a quorum slot
        // must answer there exactly as the automaton does directly.
        let mut slots = flooder_slots(1);
        let origins = [ProcessId(0)];
        slots.push(QuorumProcess::slots(2, QuorumPolicy::for_bound(0), &origins).swap_remove(1));
        let ProcessSlot::Quorum(direct) = &slots[1] else {
            unreachable!("the pushed slot is a quorum slot")
        };
        let certified = direct.certified_payloads();
        assert_eq!(certified, Some((PayloadSet::EMPTY, PayloadSet::EMPTY)));
        assert_eq!(slots[1].certified_payloads(), certified);
        let table = ProcessTable::from_slots(slots);
        assert_eq!(table.kind(), "mixed");
        assert_eq!(table.get(1).certified_payloads(), certified);
        assert_eq!(table.get(1).accepted_payloads(), Some(PayloadSet::EMPTY));
        assert_eq!(table.get(0).certified_payloads(), None);
    }

    #[test]
    fn place_permutes_by_process_id() {
        // node 0 <- p2, node 1 <- p0, node 2 <- p1.
        let assignment =
            Assignment::from_node_to_proc(vec![ProcessId(2), ProcessId(0), ProcessId(1)]).unwrap();
        let table = ProcessTable::from_slots(flooder_slots(3)).place(&assignment);
        assert!(table.is_batched());
        assert_eq!(table.get(0).id(), ProcessId(2));
        assert_eq!(table.get(1).id(), ProcessId(0));
        assert_eq!(table.get(2).id(), ProcessId(1));
    }

    #[test]
    fn transmit_and_receive_match_direct_calls() {
        let msg = Message::with_payload(ProcessId(9), PayloadId(0));
        let mut table = ProcessTable::from_slots(flooder_slots(3));
        let mut active = vec![Some(1), Some(1), None];
        table.activate(0, ActivationCause::Input(msg));
        table.activate(1, ActivationCause::SynchronousStart);

        let mut sends = Vec::new();
        table.transmit_all(1, &active, None, &mut sends);
        // Only node 0 is informed; node 2 is asleep.
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(0));

        // Deliver node 0's message to nodes 1 (active) and 2 (sleeping).
        let receptions = vec![
            Reception::Message(sends[0].1),
            Reception::Message(sends[0].1),
            Reception::Message(sends[0].1),
        ];
        table.receive_all(1, &mut active, None, &receptions);
        assert_eq!(active[2], Some(2), "message reception activates sleepers");
        assert!(table.get(1).has_payload());
        assert!(table.get(2).has_payload());
    }

    #[test]
    fn fault_mask_gates_the_batched_sweeps() {
        let msg = Message::with_payload(ProcessId(9), PayloadId(0));
        let mut table = ProcessTable::from_slots(flooder_slots(3));
        let active = vec![Some(1), Some(1), Some(1)];
        for node in 0..3 {
            table.activate(node, ActivationCause::Input(msg));
        }
        // Node 0 correct, node 1 crashed, node 2 a jammer.
        let roles = [NodeRole::Correct, NodeRole::Crashed, NodeRole::Jammer];
        let noise = Message::signal(ProcessId(2));
        let standing = [None, None, Some(noise)];
        let known = [PayloadSet::EMPTY; 3];
        let mut sends = Vec::new();
        table.transmit_all(
            1,
            &active,
            Some(FaultView {
                roles: &roles,
                standing_tx: &standing,
                known: &known,
            }),
            &mut sends,
        );
        // Node order preserved: correct flooder first, then the jammer's
        // standing noise; the crashed node contributes nothing.
        assert_eq!(sends.len(), 2);
        assert_eq!(sends[0].0, NodeId(0));
        assert_eq!((sends[1].0, sends[1].1), (NodeId(2), noise));

        // Masked receive: faulty nodes observe nothing.
        let fresh = Message::with_payload(ProcessId(9), PayloadId(3));
        let receptions = vec![Reception::Message(fresh); 3];
        let mut table = ProcessTable::from_slots(PipelinedFlooder::slots(3));
        let mut active2 = vec![Some(1), Some(1), Some(1)];
        table.receive_all(1, &mut active2, Some(&roles), &receptions);
        assert!(table.get(0).has_payload());
        assert!(!table.get(1).has_payload(), "crashed node observed nothing");
        assert!(!table.get(2).has_payload(), "jammer observed nothing");
    }

    #[test]
    fn slot_process_impl_delegates() {
        let mut slot = ProcessSlot::from(SilentProcess::new(ProcessId(5)));
        assert_eq!(slot.id(), ProcessId(5));
        assert!(slot.is_terminated());
        slot.on_activate(ActivationCause::Input(Message::with_payload(
            ProcessId(5),
            PayloadId(0),
        )));
        assert!(slot.has_payload());
        assert_eq!(slot.transmit(1), None);
        let cloned = slot.clone_box();
        assert!(cloned.has_payload());
        let boxed = slot.into_boxed();
        assert_eq!(boxed.id(), ProcessId(5));

        let custom = ProcessSlot::Custom(Box::new(Flooder::new(ProcessId(1))));
        assert_eq!(custom.id(), ProcessId(1));
        assert_eq!(custom.into_boxed().id(), ProcessId(1));
    }

    #[test]
    fn round_trip_through_slots() {
        let table = ProcessTable::from_slots(flooder_slots(3));
        let slots = table.into_slots();
        assert_eq!(slots.len(), 3);
        assert!(matches!(slots[0], ProcessSlot::Flooder(_)));
        let retable = ProcessTable::from_slots(slots);
        assert!(retable.is_batched());
    }
}
