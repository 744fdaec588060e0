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
//!   stored as a single typed `Vec`, so [`ProcessTable::transmit_sweep`]
//!   and [`ProcessTable::receive_sweep`] match on the variant **once per
//!   round** and run a monomorphized, fully inlinable loop over contiguous
//!   state, chunk by chunk. Mixed or custom populations fall back to a
//!   `Vec<ProcessSlot>` loop (per-element match; `Custom` still pays
//!   virtual dispatch).
//!
//! A homogeneous [`BackoffProcess`] table also keeps a **wake calendar**:
//! each informed node draws ahead to its next successful draw and is
//! polled only in that round, so a sparse round's transmit sweep visits
//! the nodes due in it, in node order, instead of every node. The table
//! runs the calendar while one chunk sweeps, no node is faulty and the
//! last round's transmissions were few; otherwise it sweeps every node.
//! Either way the `k`-th draw of a node's RNG decides its `k`-th active
//! round, so both give the same transmissions bit for bit.
//!
//! Slots are the one way to build a population: every engine takes them
//! through its `from_slots` constructor, and an automaton from outside
//! this crate rides in a [`ProcessSlot::Custom`] slot. Both paths call
//! every process in ascending node order with identical arguments, so
//! outcomes are bit-identical to boxed dispatch — the enum-vs-boxed
//! differential suites, whose boxed arms are `Custom` populations,
//! enforce this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use dualgraph_net::{FixedBitSet, NodeId};

use crate::adversary::Assignment;
use crate::automata::{BackoffProcess, PipelinedFlooder, RoundRobinProcess, StrongSelectProcess};
use crate::collision::Reception;
use crate::dynamics::{FaultView, NodeRole};
use crate::kernel::{for_each_node, per_shard, pieces};
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::PayloadSet;
use crate::process::{ActivationCause, ChatterProcess, Flooder, Process, SilentProcess};
use crate::quorum::QuorumProcess;

/// One process, stored either inline (built-in automata) or boxed
/// (anything else).
///
/// Build slots with the `slots()` constructors on the automata /
/// algorithm factories, with the `From` conversions, or by wrapping an
/// arbitrary implementation in [`ProcessSlot::Custom`]. `Custom` is how a
/// `Process` defined outside this crate joins a population: it keeps its
/// virtual dispatch and runs on the mixed table, without the batched fast
/// path.
#[derive(Debug, Clone)]
pub enum ProcessSlot {
    /// [`SilentProcess`], inline.
    Silent(SilentProcess),
    /// [`Flooder`], inline.
    Flooder(Flooder),
    /// [`ChatterProcess`], inline.
    Chatter(ChatterProcess),
    /// [`BackoffProcess`] (Harmonic, Decay, Uniform), inline.
    Backoff(BackoffProcess),
    /// [`PipelinedFlooder`], inline.
    PipelinedFlooder(PipelinedFlooder),
    /// [`RoundRobinProcess`], inline.
    RoundRobin(RoundRobinProcess),
    /// [`StrongSelectProcess`], inline.
    StrongSelect(StrongSelectProcess),
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
            ProcessSlot::Backoff($p) => $e,
            ProcessSlot::PipelinedFlooder($p) => $e,
            ProcessSlot::RoundRobin($p) => $e,
            ProcessSlot::StrongSelect($p) => $e,
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
            ProcessSlot::Backoff(p) => Box::new(p),
            ProcessSlot::PipelinedFlooder(p) => Box::new(p),
            ProcessSlot::RoundRobin(p) => Box::new(p),
            ProcessSlot::StrongSelect(p) => Box::new(p),
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
    Backoff(BackoffProcess),
    PipelinedFlooder(PipelinedFlooder),
    RoundRobin(RoundRobinProcess),
    StrongSelect(StrongSelectProcess),
    Quorum(QuorumProcess),
    Custom(Box<dyn Process>),
);

/// The executor's node-indexed process store (see the module docs).
///
/// Built from process-id-ordered slots via [`ProcessTable::from_slots`],
/// then permuted onto nodes with [`ProcessTable::place`].
#[derive(Debug, Clone)]
pub struct ProcessTable {
    repr: Repr,
    /// The wake calendar of a [`BackoffProcess`] table; idle otherwise.
    calendar: Calendar,
}

#[derive(Debug, Clone)]
enum Repr {
    Silent(Vec<SilentProcess>),
    Flooder(Vec<Flooder>),
    Chatter(Vec<ChatterProcess>),
    Backoff(Vec<BackoffProcess>),
    PipelinedFlooder(Vec<PipelinedFlooder>),
    RoundRobin(Vec<RoundRobinProcess>),
    StrongSelect(Vec<StrongSelectProcess>),
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
            Repr::Backoff($v) => $e,
            Repr::PipelinedFlooder($v) => $e,
            Repr::RoundRobin($v) => $e,
            Repr::StrongSelect($v) => $e,
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
            return ProcessTable::of(Repr::Mixed(slots));
        }
        // analyzer: allow(panic, reason = "invariant: non-empty checked")
        let repr = match slots.first().expect("non-empty checked") {
            ProcessSlot::Silent(_) => collect_variant!(slots, Silent),
            ProcessSlot::Flooder(_) => collect_variant!(slots, Flooder),
            ProcessSlot::Chatter(_) => collect_variant!(slots, Chatter),
            ProcessSlot::Backoff(_) => collect_variant!(slots, Backoff),
            ProcessSlot::PipelinedFlooder(_) => collect_variant!(slots, PipelinedFlooder),
            ProcessSlot::RoundRobin(_) => collect_variant!(slots, RoundRobin),
            ProcessSlot::StrongSelect(_) => collect_variant!(slots, StrongSelect),
            ProcessSlot::Quorum(_) => collect_variant!(slots, Quorum),
            ProcessSlot::Custom(_) => unreachable!("Custom was excluded above"),
        };
        ProcessTable::of(repr)
    }

    fn of(repr: Repr) -> Self {
        let calendar = match &repr {
            Repr::Backoff(v) => Calendar::new(v.len()),
            _ => Calendar::default(),
        };
        ProcessTable { repr, calendar }
    }

    /// Decomposes the table back into slots (node/current order).
    pub fn into_slots(self) -> Vec<ProcessSlot> {
        match self.repr {
            Repr::Silent(v) => v.into_iter().map(ProcessSlot::Silent).collect(),
            Repr::Flooder(v) => v.into_iter().map(ProcessSlot::Flooder).collect(),
            Repr::Chatter(v) => v.into_iter().map(ProcessSlot::Chatter).collect(),
            Repr::Backoff(v) => v.into_iter().map(ProcessSlot::Backoff).collect(),
            Repr::PipelinedFlooder(v) => v.into_iter().map(ProcessSlot::PipelinedFlooder).collect(),
            Repr::RoundRobin(v) => v.into_iter().map(ProcessSlot::RoundRobin).collect(),
            Repr::StrongSelect(v) => v.into_iter().map(ProcessSlot::StrongSelect).collect(),
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
            Repr::Backoff(_) => "backoff",
            Repr::PipelinedFlooder(_) => "pipelined-flooder",
            Repr::RoundRobin(_) => "round-robin",
            Repr::StrongSelect(_) => "strong-select",
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
        self.calendar.rebook_later(index);
    }

    /// Delivers mid-run environment input to the process at `index`
    /// (see [`Process::on_input`]).
    pub fn input(&mut self, index: usize, payload: PayloadId) {
        each_repr!(&mut self.repr, v => v[index].on_input(payload));
        self.calendar.rebook_later(index);
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
            Repr::Backoff(v) => Repr::Backoff(permute(v, assignment)),
            Repr::PipelinedFlooder(v) => Repr::PipelinedFlooder(permute(v, assignment)),
            Repr::RoundRobin(v) => Repr::RoundRobin(permute(v, assignment)),
            Repr::StrongSelect(v) => Repr::StrongSelect(permute(v, assignment)),
            Repr::Quorum(v) => Repr::Quorum(permute(v, assignment)),
            Repr::Mixed(v) => Repr::Mixed(permute(v, assignment)),
        };
        ProcessTable::of(repr)
    }

    /// Phase-1 send decisions for global round `round`, chunk by chunk:
    /// node chunk `s` (of `chunk` nodes, the last possibly shorter) polls
    /// every node whose process is active (`active_from[node] <= round`)
    /// in ascending node order and appends `(node, message)` for each
    /// transmission to the `s`-th of `outs`, cleared first. Each chunk
    /// runs `transmit_chunk`'s loop on its own scoped worker (chunk 0 on
    /// the caller; one chunk runs inline with no thread scope), so
    /// concatenating `outs` in chunk order is the ascending-node sweep bit
    /// for bit, whatever the chunk size.
    ///
    /// `faults` is the dynamics subsystem's per-node liveness/role mask
    /// (`None` for all-correct populations — the common case pays one
    /// branch on the `Option` per sweep, nothing per node): crashed nodes
    /// are skipped without polling their frozen automata, jammers and
    /// spammers contribute their standing message instead — in the same
    /// node-order position a process transmission would occupy, which the
    /// adversary call order and the reaching sets depend on.
    ///
    /// A [`BackoffProcess`] table swept in one chunk with `faults == None`
    /// polls only the nodes its wake calendar holds due in `round`, while
    /// the last round's transmissions stay few (see the module docs);
    /// every other sweep polls every node.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`, or after the sweep if `outs` yields fewer
    /// buffers than chunks (the chunks past the last buffer are not
    /// swept).
    pub fn transmit_sweep<'o>(
        &mut self,
        round: u64,
        active_from: &[Option<u64>],
        faults: Option<FaultView<'_>>,
        chunk: usize,
        mut outs: impl Iterator<Item = &'o mut Vec<(NodeId, Message)>>,
    ) {
        assert!(chunk > 0, "transmit_sweep needs a positive chunk");
        let ProcessTable { repr, calendar } = self;
        if let Repr::Backoff(procs) = repr {
            if chunk >= procs.len() && !procs.is_empty() {
                let Some(out) = outs.next() else {
                    panic!("transmit_sweep: fewer output buffers than chunks");
                };
                out.clear();
                if faults.is_none() && calendar.wanted(procs.len()) {
                    calendar.sweep(procs, round, active_from, out);
                } else {
                    calendar.retire(procs, round, active_from);
                    transmit_chunk(procs, 0, round, active_from, faults, out);
                }
                calendar.sent = out.len();
                return;
            }
            calendar.retire(procs, round, active_from);
        }
        let swept = each_repr!(repr, v => {
            per_shard(pieces(v, chunk).zip(outs), |s, (procs, out)| {
                out.clear();
                transmit_chunk(procs, s * chunk, round, active_from, faults, out);
            })
        });
        assert!(
            swept * chunk >= each_repr!(repr, v => v.len()),
            "transmit_sweep: fewer output buffers than chunks"
        );
    }

    /// Phase-4 end-of-round deliveries for global round `round`, chunk by
    /// chunk, in ascending node order: an active process gets `receive`
    /// for a message or a collision, never for silence; a sleeping process
    /// (asynchronous start) is activated by an actual message, which
    /// updates `active_from[node]` to `round + 1`. Only the nodes of
    /// `domain` are visited, every node when it is `None`: a caller that
    /// knows which nodes heard anything passes them, and every other node
    /// must hold [`Reception::Silence`]. Node chunk `s` runs
    /// `receive_chunk`'s loop, then calls the `s`-th of `then` with its
    /// node range on the same thread — the executor books the chunk's
    /// informed/known records there. Chunks run as in
    /// [`ProcessTable::transmit_sweep`]; `active_from` splits into the same
    /// disjoint chunks as the table, so activation writes never race.
    ///
    /// `roles` is the dynamics liveness mask (`None` when every node is
    /// correct): non-correct nodes are skipped entirely — their frozen
    /// automata observe nothing and cannot be activated while faulty.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`, or after the sweep if `then` yields fewer
    /// closures than chunks (the chunks past the last closure are not
    /// swept).
    #[allow(clippy::too_many_arguments)]
    pub fn receive_sweep<F: FnOnce(Range<usize>) + Send>(
        &mut self,
        round: u64,
        active_from: &mut [Option<u64>],
        roles: Option<&[NodeRole]>,
        receptions: &[Reception],
        domain: Option<&FixedBitSet>,
        chunk: usize,
        mut then: impl Iterator<Item = F>,
    ) {
        assert!(chunk > 0, "receive_sweep needs a positive chunk");
        let ProcessTable { repr, calendar } = self;
        if let (Repr::Backoff(procs), true) = (&mut *repr, calendar.live) {
            // A live calendar means this round swept one chunk with no
            // faulty node; a node whose message restarted or activated it
            // is rebooked.
            let Some(then) = then.next() else {
                panic!("receive_sweep: fewer closures than chunks");
            };
            let book = |node, from, p: &mut BackoffProcess| {
                if !p.is_booked() {
                    calendar.book(node, p, round, from);
                }
            };
            receive_chunk(
                procs,
                active_from,
                0,
                round,
                roles,
                receptions,
                domain,
                book,
            );
            then(0..procs.len());
            return;
        }
        let swept = each_repr!(repr, v => {
            let parts = pieces(v, chunk).zip(pieces(active_from, chunk)).zip(then);
            per_shard(parts, |s, ((procs, active_from), then)| {
                let base = s * chunk;
                let range = base..base + procs.len();
                let book = |_, _, _: &mut _| {};
                receive_chunk(procs, active_from, base, round, roles, receptions, domain, book);
                then(range);
            })
        });
        assert!(
            swept * chunk >= each_repr!(repr, v => v.len()),
            "receive_sweep: fewer closures than chunks"
        );
    }
}

/// The wake calendar of a homogeneous [`BackoffProcess`] table: each
/// informed node, drawn ahead to its next success, is booked for that
/// global round, and a round polls only the nodes booked for it.
///
/// Wakes within [`WHEEL`] rounds sit in the wheel slot of their round;
/// later ones wait in a heap and move to the wheel as their round comes
/// near. So a slot holds only its own round's wakes, which a round sorts
/// into node order.
///
/// While the calendar is live its nodes are lazy (see [`BackoffProcess`]):
/// the calendar runs only while no node is faulty, so every local round
/// of an active node is an active one. Going live rebases every node at
/// its count so far, and retiring catches every node up, so a switch in
/// either direction keeps the draws in step with a per-round poll.
#[derive(Debug, Clone, Default)]
struct Calendar {
    /// `true` while the calendar drives the table.
    live: bool,
    /// Slot `r % WHEEL` lists the nodes booked for round `r`, for the next
    /// [`WHEEL`] rounds. A rebooked node leaves its old entry behind; an
    /// entry counts only while `booked[node]` holds its round.
    wheel: Vec<Vec<u32>>,
    /// Wakes `(global round, node)` beyond the wheel, earliest first.
    later: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per node, the global round of its current wake (0: none).
    booked: Vec<u64>,
    /// Nodes handed input or an activation between rounds, rebooked at the
    /// start of the next round (only then are their local rounds known).
    pending: Vec<u32>,
    /// The slot being woken this round, sorted into node order.
    due: Vec<u32>,
    /// The table's transmissions in its last round.
    sent: usize,
}

/// Rounds the calendar's wheel spans.
const WHEEL: u64 = 256;

impl Calendar {
    /// An idle calendar for `n` nodes, its wheel allocated.
    fn new(n: usize) -> Self {
        Calendar {
            wheel: vec![Vec::new(); WHEEL as usize],
            booked: vec![0; n],
            ..Calendar::default()
        }
    }

    /// Whether the next round of an `n`-node table should run on the
    /// calendar: while its last round sent to few nodes, with hysteresis
    /// so that a round near the threshold does not flip the mode.
    fn wanted(&self, n: usize) -> bool {
        let scale = if self.live { 8 } else { 16 };
        self.sent * scale < n
    }

    /// Notes that the process at `node` changed between rounds.
    fn rebook_later(&mut self, node: usize) {
        if self.live {
            self.pending.push(node as u32);
        }
    }

    /// Takes `p`, the process at `node` (active from global round `from`),
    /// over at the end of global round `done`: lazy, drawn ahead, and
    /// booked for its next wake unless it already is.
    fn book(&mut self, node: usize, p: &mut BackoffProcess, done: u64, from: u64) {
        p.sync(done + 1 - from);
        p.set_lazy(true);
        if p.has_payload() {
            p.draw_ahead();
            let due = from - 1 + p.due();
            if self.booked[node] != due {
                self.booked[node] = due;
                self.push(due, node as u32, done);
            }
        }
    }

    /// Files a wake for round `due`, made at the end of round `done`.
    fn push(&mut self, due: u64, node: u32, done: u64) {
        if due <= done + WHEEL {
            self.wheel[(due % WHEEL) as usize].push(node);
        } else {
            self.later.push(Reverse((due, node)));
        }
    }

    /// Round `round` on the calendar: goes live (booking every active
    /// node) or rebooks the nodes changed since the last round, then wakes
    /// the nodes due, in node order, into `out`.
    fn sweep(
        &mut self,
        procs: &mut [BackoffProcess],
        round: u64,
        active_from: &[Option<u64>],
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let done = round - 1;
        if !self.live {
            self.start(procs, done, active_from);
        } else {
            let mut pending = std::mem::take(&mut self.pending);
            for &node in &pending {
                if let Some(from) = active_from[node as usize] {
                    self.book(node as usize, &mut procs[node as usize], done, from);
                }
            }
            pending.clear();
            self.pending = pending;
        }
        while let Some(&Reverse((due, node))) = self.later.peek() {
            if due > done + WHEEL {
                break;
            }
            self.later.pop();
            self.wheel[(due % WHEEL) as usize].push(node);
        }
        let mut due = std::mem::take(&mut self.due);
        std::mem::swap(&mut due, &mut self.wheel[(round % WHEEL) as usize]);
        due.sort_unstable();
        for &node in &due {
            let node = node as usize;
            let (Some(from), true) = (active_from[node], self.booked[node] == round) else {
                continue;
            };
            let p = &mut procs[node];
            if let Some(msg) = p.wake(round - from + 1) {
                out.push((NodeId::from_index(node), msg));
            }
            self.book(node, p, round, from);
        }
        due.clear();
        self.due = due;
    }

    /// Goes live at the end of round `done`, booking every active node.
    fn start(&mut self, procs: &mut [BackoffProcess], done: u64, active_from: &[Option<u64>]) {
        self.live = true;
        self.booked.fill(0);
        for (node, (p, from)) in procs.iter_mut().zip(active_from).enumerate() {
            if let Some(from) = *from {
                self.book(node, p, done, from);
            }
        }
    }

    /// Hands the table back to the every-node sweep before round `round`:
    /// each active node is caught up to the end of the last round and
    /// polled every round from now on.
    fn retire(&mut self, procs: &mut [BackoffProcess], round: u64, active_from: &[Option<u64>]) {
        if !self.live {
            return;
        }
        self.live = false;
        self.wheel.iter_mut().for_each(Vec::clear);
        self.later.clear();
        self.pending.clear();
        for (p, from) in procs.iter_mut().zip(active_from) {
            if let Some(from) = *from {
                p.sync(round - from);
                p.set_lazy(false);
            }
        }
    }
}

/// The phase-1 send-decision loop over one contiguous node chunk:
/// `procs[i]` is node `base + i`. Every chunk of every plan runs this one
/// body, which is what makes "sharded ≡ one shard" an identity rather than
/// a proof obligation about two loops.
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
/// whole-table (read-only). It visits the chunk's nodes of `domain` (all
/// of them for `None`) and skips silence, then hands each node that heard
/// a message to `woke` with its activation round. See [`transmit_chunk`]
/// for the one-body rationale.
#[allow(clippy::too_many_arguments)]
fn receive_chunk<P: Process>(
    procs: &mut [P],
    active_from: &mut [Option<u64>],
    base: usize,
    t: u64,
    roles: Option<&[NodeRole]>,
    receptions: &[Reception],
    domain: Option<&FixedBitSet>,
    mut woke: impl FnMut(usize, u64, &mut P),
) {
    let range = base..base + procs.len();
    let visit = |node: usize| {
        let reception = receptions[node];
        if matches!(reception, Reception::Silence) || roles.is_some_and(|r| !r[node].is_correct()) {
            return;
        }
        let (p, active) = (&mut procs[node - base], &mut active_from[node - base]);
        let from = match *active {
            Some(from) if from <= t => {
                p.receive(t - from + 1, reception);
                from
            }
            _ => {
                // Sleeping: only an actual message activates; the
                // message is delivered via the activation cause.
                let Reception::Message(m) = reception else {
                    return;
                };
                p.on_activate(ActivationCause::Reception(m));
                *active = Some(t + 1);
                t + 1
            }
        };
        if let Reception::Message(_) = reception {
            woke(node, from, p);
        }
    };
    // Every node: a plain loop, which a dense sweep runs faster than a
    // walk of all-ones words.
    match domain {
        Some(_) => for_each_node(domain, range, visit),
        None => range.for_each(visit),
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

        let custom: Vec<ProcessSlot> = flooder_slots(3)
            .into_iter()
            .map(|s| ProcessSlot::Custom(s.into_boxed()))
            .collect();
        let boxed = ProcessTable::from_slots(custom);
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
        table.transmit_sweep(1, &active, None, 3, std::iter::once(&mut sends));
        // Only node 0 is informed; node 2 is asleep.
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(0));

        // Deliver node 0's message to nodes 1 (active) and 2 (sleeping).
        let receptions = vec![
            Reception::Message(sends[0].1),
            Reception::Message(sends[0].1),
            Reception::Message(sends[0].1),
        ];
        let mut booked = None;
        let then = std::iter::once(|range| booked = Some(range));
        table.receive_sweep(1, &mut active, None, &receptions, None, 3, then);
        assert_eq!(booked, Some(0..3), "the closure gets its chunk's range");
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
        let faults = Some(FaultView {
            roles: &roles,
            standing_tx: &standing,
            known: &known,
        });
        table.transmit_sweep(1, &active, faults, 3, std::iter::once(&mut sends));
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
        let then = std::iter::once(|_| {});
        table.receive_sweep(1, &mut active2, Some(&roles), &receptions, None, 3, then);
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
