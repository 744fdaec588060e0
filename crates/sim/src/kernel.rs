//! The round kernel: one synchronous round of the dual-graph model, at any
//! shard count.
//!
//! [`Executor::step_traced`] runs it on a one-shard plan and
//! [`ShardedExecutor`][crate::ShardedExecutor] on its own plan. A round is
//! transmit → adversary → reach → resolve → CR4 → receive/absorb, and every
//! sweep over nodes runs per shard through [`per_shard`]: shard 0 on the
//! calling thread, the others on scoped workers, and a lone shard inline
//! with no thread scope.
//!
//! Reaching sets are built where each build wins:
//!
//! * **One shard: the sender-side arena.** A counting sort of sender
//!   indices by target (the sender itself, its `G` out-row, its adversary
//!   extras), whose prefix pass writes the round's `touched` words. Resolve
//!   and absorb visit only the touched nodes, so a sparse round costs what
//!   it reaches. A dense round under CR2–CR4 reads only the counts and
//!   skips the write pass.
//! * **Several shards: receiver-side gathers** from the transposed CSRs, so
//!   no two shards write one node. An adversary with an
//!   [`Adversary::oblivious`] form is sampled in-shard; any other is called
//!   on the coordinator and its extras are bucketed by receiver with the
//!   same counting sort.
//!
//! One resolve body reads either build through [`Reach`]. A CR4 choice the
//! adversary itself makes is recorded during resolve and made afterwards on
//! the coordinator, in ascending node order: the call sequence of the
//! oracle. The determinism argument is in `shard.rs`.
//!
//! [`Adversary::oblivious`]: crate::Adversary::oblivious

use std::ops::Range;

use dualgraph_net::{Csr, FixedBitSet, NodeId, ShardPlan};

use crate::adversary::{Adversary, ObliviousSampler, RoundContext};
use crate::collision::{CollisionRule, Cr4Resolution, Reception};
use crate::dynamics::{FaultView, NodeRole};
use crate::engine::{Executor, RoundSummary};
use crate::message::Message;
use crate::trace::{self, TraceEvent, TraceSink};

/// "Did not transmit" in the per-node sender-index map `own_idx`.
pub(crate) const NONE: u32 = u32::MAX;

/// One shard's round scratch, reused round to round.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardScratch {
    /// The shard's transmissions, ascending (shard 0 writes the round's
    /// sender list instead).
    sends: Vec<(NodeId, Message)>,
    /// The shard's newly informed nodes, ascending.
    newly: Vec<NodeId>,
    /// The shard's listeners whose CR4 choice the coordinator makes,
    /// ascending.
    cr4_nodes: Vec<u32>,
    /// One listener's reaching set, for a CR4 choice drawn in-shard.
    list: Vec<u32>,
    /// One receiver's sampled extras ([`Sampled`]).
    extras: Vec<u32>,
    /// Physical collisions; summed at the barrier.
    collisions: u64,
}

/// `slice` cut into `chunk`-long pieces, front to back (the last possibly
/// shorter). Unlike `chunks_mut`, it never divides to learn its length: a
/// zip of `chunks_mut` iterators spends one integer division per slice per
/// sweep, which a sparse one-shard round pays measurably.
pub(crate) fn pieces<T>(mut slice: &mut [T], chunk: usize) -> impl Iterator<Item = &mut [T]> {
    std::iter::from_fn(move || {
        if slice.is_empty() {
            return None;
        }
        let at = chunk.min(slice.len());
        let (head, tail) = std::mem::take(&mut slice).split_at_mut(at);
        slice = tail;
        Some(head)
    })
}

/// Runs `body` on every part with its index: the first part on the calling
/// thread, each other on a scoped worker. A lone part runs inline, with no
/// thread scope. Returns the number of parts.
pub(crate) fn per_shard<T: Send>(
    parts: impl Iterator<Item = T>,
    body: impl Fn(usize, T) + Sync,
) -> usize {
    let mut parts = parts.enumerate().peekable();
    let Some((_, first)) = parts.next() else {
        return 0;
    };
    if parts.peek().is_none() {
        body(0, first);
        return 1;
    }
    std::thread::scope(|scope| {
        let body = &body;
        let mut count = 1;
        for (s, part) in parts {
            scope.spawn(move || body(s, part));
            count += 1;
        }
        body(0, first);
        count
    })
}

impl Executor<'_> {
    /// Executes one round on `plan`'s shards (see the module docs), then
    /// emits its events to `sink` from the merged buffers: `RoundStart`,
    /// one `Transmit` per sender and one `Reception`/`Collision` per node,
    /// each ascending. Workers never see the sink, and every emission is
    /// guarded by [`TraceSink::ENABLED`].
    pub(crate) fn step_on<S: TraceSink>(&mut self, plan: ShardPlan, sink: &mut S) -> RoundSummary {
        let summary = self.round_on(plan);
        if S::ENABLED {
            let t = summary.round;
            sink.emit(TraceEvent::RoundStart { round: t });
            trace::emit_transmits(sink, t, &self.senders_buf);
            trace::emit_receptions(sink, t, &self.receptions_buf);
        }
        summary
    }

    /// The round itself, the same code for every sink.
    fn round_on(&mut self, plan: ShardPlan) -> RoundSummary {
        let t = self.round + 1;
        let n = self.network.len();
        let (chunk, shards) = (plan.chunk(), plan.shards());

        // Transmit, per shard: shard 0 into the round's sender list, the
        // others into their own buffers, appended after it in shard order,
        // which is node order.
        for &(u, _) in &self.senders_buf {
            self.own_idx[u.index()] = NONE;
        }
        {
            let Executor {
                procs,
                active_from,
                roles,
                standing_tx,
                faulty_count,
                known,
                senders_buf,
                shards: scratch,
                ..
            } = self;
            let faults = (*faulty_count > 0).then_some(FaultView {
                roles,
                standing_tx,
                known,
            });
            let rest = scratch[1..shards].iter_mut().map(|s| &mut s.sends);
            let outs = std::iter::once(&mut *senders_buf).chain(rest);
            procs.transmit_sweep(t, active_from, faults, chunk, outs);
            for s in &scratch[1..shards] {
                senders_buf.extend_from_slice(&s.sends);
            }
        }
        for (i, &(u, _)) in self.senders_buf.iter().enumerate() {
            self.own_idx[u.index()] = i as u32;
        }
        self.sends += self.senders_buf.len() as u64;

        // Adversary: sampled in-shard during resolve when the round is
        // sharded and it has an oblivious form, called here otherwise.
        let sampler = if shards > 1 {
            self.adversary.oblivious()
        } else {
            None
        };
        if sampler.is_none() {
            self.call_adversary(t);
        }

        // Reach and resolve, CR4 choices included.
        self.receptions_buf.clear();
        self.receptions_buf.resize(n, Reception::Silence);
        {
            let Executor {
                network,
                config,
                adversary,
                assignment,
                informed,
                senders_buf,
                receptions_buf,
                extra_flat,
                extra_ranges,
                arena,
                own_idx,
                roles,
                faulty_count,
                byzantine_count,
                cr4_scratch,
                shards: scratch,
                physical_collisions,
                ..
            } = self;
            let scratch = &mut scratch[..shards];
            let view = View {
                ctx: RoundContext {
                    round: t,
                    network,
                    assignment,
                    senders: senders_buf,
                    informed,
                },
                own_idx,
                roles,
                faulty: *faulty_count > 0,
                byzantine: *byzantine_count > 0,
                rule: config.rule,
                chunk,
            };
            let senders = view.ctx.senders;
            let (adversary, rec, msgs) = (adversary.as_mut(), receptions_buf, cr4_scratch);
            if shards == 1 {
                // A dense round under CR2–CR4 reads no list: every node
                // hears itself, and collisions need only the counts.
                let dense = senders.len() == n && config.rule != CollisionRule::Cr1;
                let reliable = Some(network.reliable_csr());
                arena.sort(senders, reliable, extra_flat, extra_ranges, !dense);
                resolve_shards(&view, &*arena, rec, scratch, adversary, msgs);
            } else {
                let in_csr = network.reliable_in_csr();
                match sampler {
                    Some(sampler) => {
                        let sampled = Sampled {
                            in_csr: network.unreliable_only_in_csr(),
                            sampler,
                            round: t,
                        };
                        let reach = Gather {
                            in_csr,
                            own_idx,
                            extras: &sampled,
                        };
                        resolve_shards(&view, &reach, rec, scratch, adversary, msgs);
                    }
                    None => {
                        arena.sort(senders, None, extra_flat, extra_ranges, true);
                        let reach = Gather {
                            in_csr,
                            own_idx,
                            extras: &*arena,
                        };
                        resolve_shards(&view, &reach, rec, scratch, adversary, msgs);
                    }
                }
            }
            *physical_collisions += scratch.iter().map(|s| s.collisions).sum::<u64>();
        }

        // Receive and absorb, per shard: behind its receive sweep each
        // shard books its nodes' known sets, first receptions and informed
        // words (shard boundaries are 64-aligned, so no word is shared).
        {
            let Executor {
                procs,
                active_from,
                receptions_buf,
                roles,
                faulty_count,
                known,
                first_receive,
                informed,
                real,
                arena,
                shards: scratch,
                ..
            } = self;
            let mask = (*faulty_count > 0).then_some(roles.as_slice());
            // A one-shard round books only its touched nodes.
            let domain = (shards == 1).then_some(&arena.touched);
            let (receptions, real) = (receptions_buf.as_slice(), *real);
            let books = pieces(known, chunk)
                .zip(pieces(first_receive, chunk))
                .zip(pieces(informed.words_mut(), chunk / 64))
                .zip(scratch.iter_mut())
                .map(|(((known, first_receive), informed), s)| {
                    move |range: Range<usize>| {
                        s.newly.clear();
                        let base = range.start;
                        for_each_node(domain, range, |v| {
                            let Some(m) = receptions[v].message() else {
                                return;
                            };
                            let i = v - base;
                            known[i].union_with(m.payloads);
                            // Only environment-introduced payloads inform:
                            // spammer junk joins the known record above but
                            // cannot flip the informed bit (see `real`).
                            let (word, bit) = (&mut informed[i / 64], 1u64 << (i % 64));
                            if m.payloads.intersects(real) && *word & bit == 0 {
                                *word |= bit;
                                first_receive[i] = Some(t);
                                s.newly.push(NodeId::from_index(v));
                            }
                        });
                    }
                });
            procs.receive_sweep(t, active_from, mask, receptions, chunk, books);
        }
        // analyzer: allow(hot-alloc, reason = "newly_informed is returned by value in RoundSummary; it stays len 0 (no heap) except on the bounded rounds where nodes first become informed, at most n entries over a whole run")
        let mut newly_informed = Vec::new();
        for s in &self.shards[..shards] {
            newly_informed.extend_from_slice(&s.newly);
        }

        self.round = t;
        RoundSummary {
            round: t,
            senders: self.senders_buf.len(),
            newly_informed,
            complete: self.is_complete(),
        }
    }

    /// The adversary's `G′ ∖ G` deliveries: one call per sender in node
    /// order, the call order every seeded adversary's stream depends on,
    /// flattened into `extra_flat` with sender `i`'s at `extra_ranges[i]`.
    fn call_adversary(&mut self, t: u64) {
        let Executor {
            network,
            adversary,
            assignment,
            informed,
            senders_buf,
            extra_flat,
            extra_ranges,
            ..
        } = self;
        extra_flat.clear();
        extra_ranges.clear();
        let ctx = RoundContext {
            round: t,
            network,
            assignment,
            senders: senders_buf,
            informed,
        };
        for &(u, _) in senders_buf.iter() {
            let start = extra_flat.len() as u32;
            adversary.unreliable_deliveries(&ctx, u, extra_flat);
            let end = extra_flat.len() as u32;
            debug_assert!(end >= start, "adversary shrank the delivery buffer");
            for &v in &extra_flat[start as usize..end as usize] {
                debug_assert!(
                    network.unreliable_only_csr().contains(u, v),
                    "adversary delivered ({u}, {v}) outside G' \\ G"
                );
            }
            extra_ranges.push((start, end));
        }
    }
}

/// Sender indices bucketed by target node, rebuilt each round by one
/// counting sort: a one-shard round's reaching sets, or a sharded round's
/// adversary extras by receiver.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    /// Node `v`'s bucket is `idx[off[v]..off[v + 1]]`, in ascending sender
    /// order. Grow-only: every live slot is rewritten each round and reads
    /// stay inside `off`'s bounds, so stale entries are never observed.
    idx: Vec<u32>,
    /// `n + 1` prefix-sum offsets into `idx`.
    off: Vec<u32>,
    /// Per-node fill cursors of the sort's write pass.
    cursor: Vec<u32>,
    /// The nodes whose bucket is not empty: the nodes a one-shard round
    /// resolves and books.
    touched: FixedBitSet,
}

impl Arena {
    /// Empty buckets for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        Arena {
            idx: Vec::new(),
            off: vec![0; n + 1],
            cursor: vec![0; n],
            touched: FixedBitSet::new(n),
        }
    }

    /// Stable counting sort of the sender indices: sender `i` joins the
    /// bucket of itself and of its `G` out-row when `reliable` is given,
    /// then of its adversary extras `extra_flat[extra_ranges[i]]`. The
    /// prefix pass writes the offsets and, branch-free, the `touched`
    /// words; with `write == false` only the bucket sizes are kept.
    fn sort(
        &mut self,
        senders: &[(NodeId, Message)],
        reliable: Option<&Csr>,
        extra_flat: &[NodeId],
        extra_ranges: &[(u32, u32)],
        write: bool,
    ) {
        let Arena {
            idx,
            off,
            cursor,
            touched,
        } = self;
        // Sender `i`'s targets, in bucket order; inlined into both passes
        // (as a closure it stayed a call per sender).
        #[inline(always)]
        fn targets<'a>(
            i: usize,
            senders: &'a [(NodeId, Message)],
            reliable: Option<&'a Csr>,
            extra_flat: &'a [NodeId],
            extra_ranges: &[(u32, u32)],
        ) -> [&'a [NodeId]; 3] {
            let (s, e) = extra_ranges[i];
            let extras = &extra_flat[s as usize..e as usize];
            let u = &senders[i].0;
            match reliable {
                Some(g) => [std::slice::from_ref(u), g.row(*u), extras],
                None => [&[], &[], extras],
            }
        }
        cursor.fill(0);
        for i in 0..senders.len() {
            for part in targets(i, senders, reliable, extra_flat, extra_ranges) {
                for &v in part {
                    cursor[v.index()] += 1;
                }
            }
        }
        let mut acc = 0u32;
        for ((word, counts), offs) in touched
            .words_mut()
            .iter_mut()
            .zip(cursor.chunks(64))
            .zip(off[1..].chunks_mut(64))
        {
            let mut bits = 0u64;
            for (b, (&c, o)) in counts.iter().zip(offs.iter_mut()).enumerate() {
                bits |= u64::from(c != 0) << b;
                acc += c;
                *o = acc;
            }
            *word = bits;
        }
        if !write {
            return;
        }
        let n = cursor.len();
        cursor.copy_from_slice(&off[..n]);
        if idx.len() < acc as usize {
            idx.resize(acc as usize, 0);
        }
        for i in 0..senders.len() {
            for part in targets(i, senders, reliable, extra_flat, extra_ranges) {
                for &v in part {
                    idx[cursor[v.index()] as usize] = i as u32;
                    cursor[v.index()] += 1;
                }
            }
        }
    }

    /// Node `v`'s bucket (valid after a sort that wrote it).
    fn bucket(&self, v: usize) -> &[u32] {
        &self.idx[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// Runs `f` on the nodes of `range` a round visits, ascending: the members
/// of `touched` when the arena marked the reached nodes, else every node.
/// `range` starts on a word boundary. Both domains walk words of set bits,
/// so `f` has one call site and is inlined with it: the resolve and absorb
/// bodies then run in this loop, not behind a call per reached node, which
/// measured ~7% of `harmonic-trials`' `op_ms_p50`.
#[inline(always)]
fn for_each_node(touched: Option<&FixedBitSet>, range: Range<usize>, mut f: impl FnMut(usize)) {
    for w in range.start / 64..range.end.div_ceil(64) {
        let mut bits = match touched {
            Some(touched) => touched.words()[w],
            None if (w + 1) * 64 <= range.end => u64::MAX,
            None => (1u64 << (range.end % 64)) - 1,
        };
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The round state every shard's resolve reads.
struct View<'r> {
    /// The round as the adversary sees it; `ctx.senders` holds each
    /// sender's representative message.
    ctx: RoundContext<'r>,
    own_idx: &'r [u32],
    roles: &'r [NodeRole],
    faulty: bool,
    byzantine: bool,
    rule: CollisionRule,
    /// Nodes per shard.
    chunk: usize,
}

impl View<'_> {
    /// Sender `idx`'s transmission as `receiver` hears it. A Byzantine
    /// sender's content may differ per receiver
    /// ([`NodeRole::content_for`]); while no node is Byzantine, every
    /// sender is one shared channel and the derivation is skipped.
    #[inline]
    fn msg(&self, idx: u32, receiver: usize) -> Message {
        let (u, m) = self.ctx.senders[idx as usize];
        if self.byzantine {
            self.roles[u.index()].content_for(m, NodeId::from_index(receiver))
        } else {
            m
        }
    }
}

/// Resolves every shard's nodes of [`Reach::domain`] from `reach` into
/// `receptions`, then makes the CR4 choices left to the adversary on the
/// coordinator. Shard order is node order, so the adversary sees them in
/// ascending node order at any shard count.
fn resolve_shards<R: Reach>(
    view: &View<'_>,
    reach: &R,
    receptions: &mut [Reception],
    scratch: &mut [ShardScratch],
    adversary: &mut dyn Adversary,
    messages: &mut Vec<Message>,
) {
    let (domain, chunk) = (reach.domain(), view.chunk);
    let parts = pieces(receptions, chunk).zip(scratch.iter_mut());
    per_shard(parts, |s, (rec, scr)| {
        scr.cr4_nodes.clear();
        scr.collisions = 0;
        let base = s * chunk;
        for_each_node(domain, base..base + rec.len(), |v| {
            rec[v - base] = resolve_node(view, reach, v, scr);
        });
    });
    for scr in scratch {
        for &v in &scr.cr4_nodes {
            let v = v as usize;
            messages.clear();
            reach.list(v, &mut scr.extras, |i| messages.push(view.msg(i, v)));
            let choice = adversary.resolve_cr4(&view.ctx, NodeId::from_index(v), messages);
            receptions[v] = match choice {
                Cr4Resolution::Silence => Reception::Silence,
                Cr4Resolution::Deliver(i) => {
                    assert!(i < messages.len(), "CR4 delivery index out of bounds");
                    Reception::Message(messages[i])
                }
            };
        }
    }
}

/// The one collision-resolution body: what `v` hears under the rule in
/// force (§2.1). It mirrors `collision::resolve`, which the oracle runs,
/// but reads at most one message of a reaching set; only a CR4 choice
/// lists the set. Inlined into the node walk for the reason given at
/// [`for_each_node`].
#[inline(always)]
fn resolve_node<R: Reach>(
    view: &View<'_>,
    reach: &R,
    v: usize,
    scr: &mut ShardScratch,
) -> Reception {
    // Faulty radios resolve to silence: no collision is counted and no CR4
    // choice is drawn at such a node.
    if view.faulty && !view.roles[v].is_correct() {
        return Reception::Silence;
    }
    let own = view.own_idx[v];
    match reach.arrivals(v, own, &mut scr.extras) {
        Arrivals::None => Reception::Silence,
        Arrivals::One(idx) => Reception::Message(view.msg(idx, v)),
        Arrivals::Many => {
            scr.collisions += 1;
            match view.rule {
                // CR1 senders detect collisions; CR2–CR4 senders hear
                // themselves.
                CollisionRule::Cr1 => Reception::Collision,
                _ if own != NONE => Reception::Message(view.msg(own, v)),
                CollisionRule::Cr2 => Reception::Collision,
                CollisionRule::Cr3 => Reception::Silence,
                CollisionRule::Cr4 => match reach.coin() {
                    Some((sampler, round)) => {
                        scr.list.clear();
                        reach.list(v, &mut scr.extras, |i| scr.list.push(i));
                        let node = NodeId::from_index(v);
                        match sampler.resolve_cr4(round, node, scr.list.len()) {
                            Cr4Resolution::Silence => Reception::Silence,
                            Cr4Resolution::Deliver(k) => {
                                Reception::Message(view.msg(scr.list[k], v))
                            }
                        }
                    }
                    None => {
                        scr.cr4_nodes.push(v as u32);
                        // Placeholder; the coordinator's CR4 pass
                        // overwrites it.
                        Reception::Silence
                    }
                },
            }
        }
    }
}

/// What reaches a receiver, as far as resolution reads it: the count
/// capped at two, with the lone arrival's sender index.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    None,
    One(u32),
    Many,
}

impl Arrivals {
    /// `self` plus the arrival of sender index `idx`.
    fn add(self, idx: u32) -> Self {
        match self {
            Arrivals::None => Arrivals::One(idx),
            _ => Arrivals::Many,
        }
    }
}

/// How the resolve body reads a receiver's reaching set: the sender-side
/// [`Arena`] or a receiver-side [`Gather`].
trait Reach: Sync {
    /// The nodes to resolve: a set of them, or (`None`) every node.
    fn domain(&self) -> Option<&FixedBitSet>;

    /// What reaches `v`, whose own sender index is `own` ([`NONE`] for a
    /// listener); a sender always reaches itself.
    fn arrivals(&self, v: usize, own: u32, scratch: &mut Vec<u32>) -> Arrivals;

    /// Passes listener `v`'s reaching sender indices to `push`, ascending:
    /// the order [`Adversary::resolve_cr4`] sees them in.
    fn list(&self, v: usize, scratch: &mut Vec<u32>, push: impl FnMut(u32));

    /// The oblivious adversary's CR4 coin and round when CR4 choices are
    /// drawn in-shard; `None` leaves them to the coordinator.
    fn coin(&self) -> Option<(ObliviousSampler, u64)> {
        None
    }
}

/// The one-shard reaching sets: node `v`'s bucket. A dense round writes
/// only the offsets.
impl Reach for Arena {
    fn domain(&self) -> Option<&FixedBitSet> {
        Some(&self.touched)
    }

    fn arrivals(&self, v: usize, own: u32, _scratch: &mut Vec<u32>) -> Arrivals {
        let start = self.off[v] as usize;
        match self.off[v + 1] as usize - start {
            0 => Arrivals::None,
            // A sender's lone arrival is its own message: the only case a
            // dense round, which writes no list, meets.
            1 if own != NONE => Arrivals::One(own),
            1 => Arrivals::One(self.idx[start]),
            _ => Arrivals::Many,
        }
    }

    fn list(&self, v: usize, _scratch: &mut Vec<u32>, push: impl FnMut(u32)) {
        self.bucket(v).iter().copied().for_each(push);
    }
}

/// The sharded reaching sets, gathered receiver-side: `v`'s transmitting
/// reliable in-neighbours (the transposed `G`) and its adversary extras.
/// The two are disjoint, since extras lie in `G′ ∖ G`.
struct Gather<'r, X> {
    in_csr: &'r Csr,
    own_idx: &'r [u32],
    extras: &'r X,
}

impl<X: Extras> Gather<'_, X> {
    /// `v`'s transmitting reliable in-neighbours, as sender indices: in-rows
    /// are ascending, and so are sender indices in node order.
    fn senders_in(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        self.in_csr
            .row(NodeId::from_index(v))
            .iter()
            .map(|u| self.own_idx[u.index()])
            .filter(|&idx| idx != NONE)
    }
}

impl<X: Extras> Reach for Gather<'_, X> {
    fn domain(&self) -> Option<&FixedBitSet> {
        None
    }

    fn arrivals(&self, v: usize, own: u32, scratch: &mut Vec<u32>) -> Arrivals {
        let mut seen = if own == NONE {
            Arrivals::None
        } else {
            Arrivals::One(own)
        };
        // Two arrivals settle it: a sender with one transmitting
        // in-neighbour, or a listener with two, reads (or samples) no
        // extras.
        for idx in self.senders_in(v) {
            seen = seen.add(idx);
            if let Arrivals::Many = seen {
                return seen;
            }
        }
        for &idx in self.extras.at(v, self.own_idx, scratch) {
            seen = seen.add(idx);
            if let Arrivals::Many = seen {
                return seen;
            }
        }
        seen
    }

    fn list(&self, v: usize, scratch: &mut Vec<u32>, mut push: impl FnMut(u32)) {
        let extras = self.extras.at(v, self.own_idx, scratch);
        let mut extras = extras.iter().copied().peekable();
        for idx in self.senders_in(v) {
            while let Some(e) = extras.next_if(|&e| e < idx) {
                push(e);
            }
            push(idx);
        }
        extras.for_each(push);
    }

    fn coin(&self) -> Option<(ObliviousSampler, u64)> {
        self.extras.coin()
    }
}

/// Where a [`Gather`] reads each receiver's adversary extras from.
trait Extras: Sync {
    /// Receiver `v`'s extras (the `G′ ∖ G` senders the adversary delivers
    /// to `v` this round) as ascending sender indices.
    fn at<'s>(&'s self, v: usize, own_idx: &[u32], scratch: &'s mut Vec<u32>) -> &'s [u32];

    /// See [`Reach::coin`].
    fn coin(&self) -> Option<(ObliviousSampler, u64)> {
        None
    }
}

/// Extras the coordinator called sender by sender and bucketed by
/// receiver; their CR4 choices are left to the coordinator.
impl Extras for Arena {
    fn at<'s>(&'s self, v: usize, _own_idx: &[u32], _scratch: &'s mut Vec<u32>) -> &'s [u32] {
        self.bucket(v)
    }
}

/// An oblivious adversary, sampled receiver-side from the `G′ ∖ G`
/// in-rows: by the [`Adversary::oblivious`] contract, the same decisions
/// its [`unreliable_deliveries`][crate::Adversary::unreliable_deliveries]
/// and [`resolve_cr4`][crate::Adversary::resolve_cr4] return.
struct Sampled<'r> {
    /// `G′ ∖ G`'s transpose.
    in_csr: &'r Csr,
    sampler: ObliviousSampler,
    round: u64,
}

impl Extras for Sampled<'_> {
    fn at<'s>(&'s self, v: usize, own_idx: &[u32], scratch: &'s mut Vec<u32>) -> &'s [u32] {
        scratch.clear();
        let node = NodeId::from_index(v);
        for &u in self.in_csr.row(node) {
            let idx = own_idx[u.index()];
            if idx != NONE && self.sampler.delivers(self.round, u, node) {
                scratch.push(idx);
            }
        }
        scratch
    }

    fn coin(&self) -> Option<(ObliviousSampler, u64)> {
        Some((self.sampler, self.round))
    }
}
