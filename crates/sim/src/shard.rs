//! The sharded round engine: intra-round parallelism over node chunks.
//!
//! [`ShardedExecutor`] wraps an [`Executor`] and runs each round's
//! transmit, collision-resolution, and receive sweeps **shard-parallel**
//! over a word-aligned partition of the node space
//! ([`ShardPlan`][dualgraph_net::ShardPlan]), merging at the round
//! barrier. The contract — enforced by `tests/shard_differential.rs` — is
//! that outcomes are **bit-identical to the sequential engine regardless
//! of worker count**, including event streams. The determinism argument:
//!
//! * **No shard-level randomness.** Every random draw is either owned by a
//!   process (node-local, untouched by partitioning) or by the adversary.
//!   An adversary with an [`Adversary::oblivious`] form is a pure function
//!   of `(round, edge)` and `(round, node)`: shards evaluate it
//!   receiver-side, and the promise that it equals the adversary's
//!   answers makes the result the sequential engine's. Every other
//!   adversary is consulted on the coordinator
//!   ([`Adversary::unreliable_deliveries`] per sender,
//!   [`Adversary::resolve_cr4`] per collided node), in ascending node
//!   order, exactly as in the sequential engine. Shard count never enters
//!   any RNG stream.
//! * **Merges in shard order are merges in node order.** Shards are
//!   contiguous ascending ranges, so concatenating per-shard sender
//!   buffers / newly-informed lists in shard order reproduces the
//!   sequential ascending-node order for *any* chunk size.
//! * **One loop body.** Each shard runs the same `transmit_chunk` /
//!   `receive_chunk` body the sequential sweeps run (see `slot.rs`), and
//!   the receiver-side resolve below recomputes the sequential engine's
//!   per-node reaching set — ascending sender order, self/`G`-row/extras —
//!   from the transpose CSRs, so per-node results agree element-wise.
//! * **Disjoint writes.** Shard boundaries are multiples of 64, so the
//!   `informed` bitset splits into whole disjoint `u64` words; all other
//!   per-node state splits by `chunks_mut`. The only cross-shard
//!   aggregates are additive (`physical_collisions`), which is
//!   order-independent.
//!
//! With one shard (or `workers <= 1`) the wrapper delegates to
//! [`Executor::step_traced`] — the pre-refactor sequential path —
//! unchanged.
//!
//! [`Adversary::oblivious`]: crate::Adversary::oblivious
//! [`Adversary::unreliable_deliveries`]: crate::Adversary::unreliable_deliveries
//! [`Adversary::resolve_cr4`]: crate::Adversary::resolve_cr4

use dualgraph_net::{Csr, NodeId, ShardPlan};

use crate::adversary::{ObliviousSampler, RoundContext};
use crate::collision::{CollisionRule, Cr4Resolution, Reception};
use crate::dynamics::{FaultView, NodeRole};
use crate::engine::{BroadcastOutcome, Executor, RoundSummary};
use crate::message::Message;
use crate::payload::PayloadSet;
use crate::slot::ShardAbsorb;
use crate::trace::{self, NullSink, TraceEvent, TraceSink};

/// Sentinel for "this node did not transmit" in the per-node sender-index
/// map.
const NONE: u32 = u32::MAX;

/// An [`Executor`] whose round sweeps run shard-parallel (see the module
/// docs for the architecture and the determinism argument).
///
/// # Examples
///
/// ```
/// use dualgraph_net::generators;
/// use dualgraph_sim::{
///     Executor, ExecutorConfig, Flooder, ReliableOnly, ShardedExecutor,
/// };
///
/// let net = generators::line(200, 1);
/// let exec = Executor::from_slots(
///     &net,
///     Flooder::slots(200),
///     Box::new(ReliableOnly::new()),
///     ExecutorConfig::default(),
/// )?;
/// let mut sharded = ShardedExecutor::new(exec, 2);
/// let outcome = sharded.run_until_complete(400);
/// assert!(outcome.completed);
/// # Ok::<(), dualgraph_sim::BuildExecutorError>(())
/// ```
pub struct ShardedExecutor<'a> {
    exec: Executor<'a>,
    plan: ShardPlan,
    /// Per node: this round's index into `senders_buf`, or [`NONE`]. The
    /// receiver-side resolve's O(1) "did `u` transmit?" lookup.
    own_idx: Vec<u32>,
    /// Nodes whose `own_idx` entry is live — the O(senders) reset list.
    own_set: Vec<u32>,
    /// Per-shard transmit output; concatenated in shard order into the
    /// executor's `senders_buf`.
    send_bufs: Vec<Vec<(NodeId, Message)>>,
    /// Per-shard newly-informed lists; concatenated in shard order.
    newly_bufs: Vec<Vec<NodeId>>,
    /// Per-shard collision-resolution scratch.
    resolve_bufs: Vec<ResolveScratch>,
}

impl<'a> ShardedExecutor<'a> {
    /// Wraps `exec`, planning at most `workers` shards over its node
    /// space. `workers <= 1` (or a population too small to split) yields a
    /// single shard, and every step delegates to the sequential
    /// [`Executor::step_traced`].
    pub fn new(exec: Executor<'a>, workers: usize) -> Self {
        let n = exec.network().len();
        let plan = ShardPlan::new(n, workers);
        let shards = plan.shards();
        ShardedExecutor {
            exec,
            plan,
            own_idx: vec![NONE; n],
            own_set: Vec::new(),
            send_bufs: vec![Vec::new(); shards],
            newly_bufs: vec![Vec::new(); shards],
            resolve_bufs: (0..shards).map(|_| ResolveScratch::default()).collect(),
        }
    }

    /// The shard partition in force.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Unwraps back into the sequential executor, mid-run state intact.
    pub fn into_inner(self) -> Executor<'a> {
        self.exec
    }

    /// Executes one round shard-parallel. Bit-identical to
    /// [`Executor::step`] on the same state.
    pub fn step(&mut self) -> RoundSummary {
        self.step_traced(&mut NullSink)
    }

    /// Runs until broadcast completes or `max_rounds` have executed
    /// (counting rounds already executed), whichever first.
    pub fn run_until_complete(&mut self, max_rounds: u64) -> BroadcastOutcome {
        while !self.exec.is_complete() && self.exec.round() < max_rounds {
            self.step();
        }
        self.exec.outcome()
    }

    /// Runs exactly `rounds` additional rounds (does not stop early).
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// [`ShardedExecutor::step`] with observability hooks: the same event
    /// stream as [`Executor::step_traced`] (`RoundStart`, then `Transmit`
    /// per sender ascending, then `Reception`/`Collision` per node
    /// ascending), emitted on the coordinator from the merged buffers —
    /// worker threads never see a sink, so the sharded sweeps are
    /// identical machine code whether tracing is on or off.
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        if self.plan.shards() == 1 {
            // The pre-refactor sequential path, verbatim.
            return self.exec.step_traced(sink);
        }
        let t = self.exec.round + 1;
        let n = self.exec.network.len();
        let chunk = self.plan.chunk();
        let shards = self.plan.shards();
        if S::ENABLED {
            sink.emit(TraceEvent::RoundStart { round: t });
        }

        // Reset the previous round's own-message and sender-index slots
        // (O(previous senders), not O(n)).
        for i in 0..self.exec.senders_buf.len() {
            let u = self.exec.senders_buf[i].0;
            self.exec.own_buf[u.index()] = None;
        }
        for &u in &self.own_set {
            self.own_idx[u as usize] = NONE;
        }
        self.own_set.clear();

        // Phase 1 (sharded): send decisions per node chunk; concatenating
        // per-shard buffers in shard order is the sequential sweep's
        // ascending node order.
        {
            let Executor {
                procs,
                active_from,
                roles,
                standing_tx,
                faulty_count,
                known,
                ..
            } = &mut self.exec;
            let faults = (*faulty_count > 0).then_some(FaultView {
                roles,
                standing_tx,
                known,
            });
            procs.transmit_all_sharded(t, active_from, faults, chunk, &mut self.send_bufs);
        }
        self.exec.senders_buf.clear();
        for buf in &self.send_bufs[..shards] {
            self.exec.senders_buf.extend_from_slice(buf);
        }
        self.exec.sends += self.exec.senders_buf.len() as u64;
        for (i, &(u, msg)) in self.exec.senders_buf.iter().enumerate() {
            self.exec.own_buf[u.index()] = Some(msg);
            self.own_idx[u.index()] = i as u32;
            self.own_set.push(u.index() as u32);
        }

        // An oblivious adversary is sampled inside the shards during
        // phase 3; any other is consulted on the coordinator, in phases
        // 2a, 2b, and 3b.
        let oblivious = self.exec.adversary.oblivious();
        if oblivious.is_none() {
            self.sample_on_coordinator(t);
        }

        // Phase 3 (sharded): receiver-side collision resolution. Each
        // shard walks its receivers' in-neighborhoods (the transpose CSR)
        // instead of scattering from sender rows — same per-node reaching
        // set, no cross-shard writes.
        self.exec.receptions_buf.clear();
        self.exec.receptions_buf.resize(n, Reception::Silence);
        {
            let Executor {
                network,
                senders_buf,
                arena,
                arena_off,
                own_buf,
                receptions_buf,
                config,
                roles,
                faulty_count,
                byzantine_count,
                ..
            } = &mut self.exec;
            let rule = config.rule;
            // Dense-round fast path, mirroring the sequential engine's
            // skipped write pass: when every node transmitted under
            // CR2-CR4, only whether a reaching set has ≥ 2 messages
            // matters.
            let dense = senders_buf.len() == n && rule != CollisionRule::Cr1;
            let round = ResolveRound {
                senders: senders_buf,
                own_buf,
                own_idx: &self.own_idx,
                in_csr: network.reliable_in_csr(),
                roles,
                faulty: *faulty_count > 0,
                byzantine: *byzantine_count > 0,
                dense,
                rule,
            };
            let bufs = &mut self.resolve_bufs;
            match oblivious {
                Some(sampler) => {
                    let in_csr = network.unreliable_only_in_csr();
                    let extras = Sampled {
                        in_csr,
                        sampler,
                        round: t,
                    };
                    resolve_shards(&round, &extras, receptions_buf, chunk, bufs);
                }
                None => {
                    let extras = Bucketed {
                        extras: arena,
                        off: arena_off,
                    };
                    resolve_shards(&round, &extras, receptions_buf, chunk, bufs);
                }
            }
        }
        for buf in &self.resolve_bufs[..shards] {
            self.exec.physical_collisions += buf.collisions;
        }
        if oblivious.is_none() {
            self.resolve_cr4_on_coordinator(t);
        }

        // Phase 4 (sharded): deliveries/activations fused with the
        // informed/known bookkeeping, per shard. Word-aligned boundaries
        // split the informed bitset into disjoint whole words.
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
                ..
            } = &mut self.exec;
            let mask = (*faulty_count > 0).then_some(roles.as_slice());
            let real = *real;
            // One shards-length Vec of borrowed absorb windows per round,
            // bounded by the worker count (not n); the windows themselves
            // are reused buffers.
            let mut absorbs: Vec<AbsorbPart<'_>> = known
                .chunks_mut(chunk)
                .zip(first_receive.chunks_mut(chunk))
                .zip(informed.words_mut().chunks_mut(chunk / 64))
                .zip(self.newly_bufs.iter_mut())
                .map(|(((known, first_receive), informed_words), newly)| {
                    newly.clear();
                    AbsorbPart {
                        known,
                        first_receive,
                        informed_words,
                        newly,
                        real,
                        round: t,
                    }
                })
                .collect(); // analyzer: allow(hot-alloc, reason = "shards-length Vec of borrowed windows, bounded by worker count not n")
            procs.receive_all_sharded(t, active_from, mask, receptions_buf, chunk, &mut absorbs);
        }
        // analyzer: allow(hot-alloc, reason = "newly_informed is returned by value in RoundSummary, mirroring the sequential engine's waiver: len 0 except on the bounded rounds where nodes first become informed")
        let mut newly_informed = Vec::new();
        for buf in &self.newly_bufs[..shards] {
            newly_informed.extend_from_slice(buf);
        }

        self.exec.round = t;
        if S::ENABLED {
            trace::emit_transmits(sink, t, &self.exec.senders_buf);
            trace::emit_receptions(sink, t, &self.exec.receptions_buf);
        }

        RoundSummary {
            round: t,
            senders: self.exec.senders_buf.len(),
            newly_informed,
            complete: self.exec.is_complete(),
        }
    }

    /// Phases 2a and 2b (coordinator), for adversaries without an
    /// oblivious form: one delivery call per sender in node order — the
    /// call order every seeded adversary's RNG stream depends on, exactly
    /// as in the sequential engine — then the extras bucketed by
    /// *receiver* for the shards' [`Bucketed`] reads.
    fn sample_on_coordinator(&mut self, t: u64) {
        let n = self.exec.network.len();
        let Executor {
            network,
            adversary,
            assignment,
            informed,
            senders_buf,
            extra_flat,
            extra_ranges,
            arena,
            arena_off,
            cursor,
            ..
        } = &mut self.exec;
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

        // A stable counting sort whose write pass visits senders in
        // ascending index order, so each receiver's bucket is in ascending
        // sender-index order, matching the sequential arena's per-node
        // fill order. Reuses the sequential engine's cursor / arena_off /
        // arena buffers (idle in sharded rounds).
        cursor.fill(0);
        for &v in extra_flat.iter() {
            cursor[v.index()] += 1;
        }
        let mut acc = 0u32;
        arena_off[0] = 0;
        for v in 0..n {
            acc += cursor[v];
            arena_off[v + 1] = acc;
        }
        cursor.copy_from_slice(&arena_off[..n]);
        if arena.len() < acc as usize {
            arena.resize(acc as usize, 0);
        }
        for (i, &(s, e)) in extra_ranges.iter().enumerate() {
            for &v in &extra_flat[s as usize..e as usize] {
                arena[cursor[v.index()] as usize] = i as u32;
                cursor[v.index()] += 1;
            }
        }
    }

    /// Phase 3b (coordinator), for adversaries without an oblivious
    /// form: the CR4 choices phase 3 deferred, shard by shard — ascending
    /// node order, the exact adversary call sequence of the sequential
    /// engine.
    fn resolve_cr4_on_coordinator(&mut self, t: u64) {
        let Executor {
            network,
            adversary,
            assignment,
            informed,
            senders_buf,
            receptions_buf,
            cr4_scratch,
            roles,
            byzantine_count,
            ..
        } = &mut self.exec;
        let byzantine = *byzantine_count > 0;
        let ctx = RoundContext {
            round: t,
            network,
            assignment,
            senders: senders_buf,
            informed,
        };
        for buf in &self.resolve_bufs[..self.plan.shards()] {
            for &(v, start, end) in &buf.cr4_jobs {
                let node = NodeId::from_index(v as usize);
                cr4_scratch.clear();
                for &idx in &buf.cr4_idx[start as usize..end as usize] {
                    let (u, m) = senders_buf[idx as usize];
                    cr4_scratch.push(if byzantine {
                        roles[u.index()].content_for(m, node)
                    } else {
                        m
                    });
                }
                receptions_buf[v as usize] = match adversary.resolve_cr4(&ctx, node, cr4_scratch) {
                    Cr4Resolution::Silence => Reception::Silence,
                    Cr4Resolution::Deliver(i) => {
                        assert!(i < cr4_scratch.len(), "CR4 delivery index out of bounds");
                        Reception::Message(cr4_scratch[i])
                    }
                };
            }
        }
    }
}

impl<'a> std::ops::Deref for ShardedExecutor<'a> {
    type Target = Executor<'a>;

    fn deref(&self) -> &Executor<'a> {
        &self.exec
    }
}

impl<'a> std::ops::DerefMut for ShardedExecutor<'a> {
    fn deref_mut(&mut self) -> &mut Executor<'a> {
        &mut self.exec
    }
}

impl std::fmt::Debug for ShardedExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sharded({:?}, shards={}, chunk={})",
            self.exec,
            self.plan.shards(),
            self.plan.chunk()
        )
    }
}

/// One shard's collision-resolution scratch, reused round to round.
#[derive(Debug, Default)]
struct ResolveScratch {
    /// Deferred CR4 choices: `(node, start, end)` into `cr4_idx`. Resolved
    /// on the coordinator, shard by shard — which is ascending node
    /// order, so the adversary's RNG stream matches the sequential
    /// engine's.
    cr4_jobs: Vec<(u32, u32, u32)>,
    /// Merged reaching sets (ascending sender-index order, the historical
    /// order [`Adversary::resolve_cr4`][crate::Adversary::resolve_cr4]
    /// sees) for CR4 choices.
    cr4_idx: Vec<u32>,
    /// One receiver's sampled extras ([`Sampled`]).
    extras: Vec<u32>,
    /// Physical collisions; summed at the barrier.
    collisions: u64,
}

/// The round state every shard's resolve reads.
struct ResolveRound<'r> {
    senders: &'r [(NodeId, Message)],
    own_buf: &'r [Option<Message>],
    own_idx: &'r [u32],
    /// `G`'s transpose: each receiver's reliable in-row.
    in_csr: &'r Csr,
    roles: &'r [NodeRole],
    faulty: bool,
    byzantine: bool,
    dense: bool,
    rule: CollisionRule,
}

/// Where a shard's resolve reads each receiver's adversary extras from.
trait Extras: Sync {
    /// Receiver `v`'s extras — the unreliable-only senders the adversary
    /// delivers to `v` this round — as ascending sender indices.
    fn at<'s>(&'s self, v: usize, own_idx: &[u32], scratch: &'s mut Vec<u32>) -> &'s [u32];

    /// The CR4 choice at non-sending `v` among its `len` reaching
    /// messages, or `None` to defer it to the coordinator.
    fn cr4(&self, v: usize, len: usize) -> Option<Cr4Resolution>;
}

/// Extras the coordinator sampled sender by sender and bucketed by
/// receiver (phases 2a–2b); CR4 choices are deferred to phase 3b.
struct Bucketed<'r> {
    extras: &'r [u32],
    off: &'r [u32],
}

impl Extras for Bucketed<'_> {
    fn at<'s>(&'s self, v: usize, _own_idx: &[u32], _scratch: &'s mut Vec<u32>) -> &'s [u32] {
        &self.extras[self.off[v] as usize..self.off[v + 1] as usize]
    }

    fn cr4(&self, _v: usize, _len: usize) -> Option<Cr4Resolution> {
        None
    }
}

/// An oblivious adversary, sampled receiver-side from the `G′ ∖ G`
/// in-rows: the same decisions its
/// [`unreliable_deliveries`][crate::Adversary::unreliable_deliveries] and
/// [`resolve_cr4`][crate::Adversary::resolve_cr4] return, by the
/// [`Adversary::oblivious`][crate::Adversary::oblivious] contract.
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
        // In-rows are ascending, and so are sender indices in node order.
        for &u in self.in_csr.row(node) {
            let idx = own_idx[u.index()];
            if idx != NONE && self.sampler.delivers(self.round, u, node) {
                scratch.push(idx);
            }
        }
        scratch
    }

    fn cr4(&self, v: usize, len: usize) -> Option<Cr4Resolution> {
        Some(
            self.sampler
                .resolve_cr4(self.round, NodeId::from_index(v), len),
        )
    }
}

/// Runs [`resolve_chunk`] over every `chunk`-node shard of
/// `receptions`: shard 0 on the calling thread, the rest on scoped
/// workers.
fn resolve_shards<X: Extras>(
    round: &ResolveRound<'_>,
    extras: &X,
    receptions: &mut [Reception],
    chunk: usize,
    scratch: &mut [ResolveScratch],
) {
    std::thread::scope(|scope| {
        let mut parts = receptions.chunks_mut(chunk).zip(scratch).enumerate();
        let first = parts.next();
        for (s, (rec, buf)) in parts {
            scope.spawn(move || resolve_chunk(rec, s * chunk, buf, round, extras));
        }
        if let Some((_, (rec, buf))) = first {
            resolve_chunk(rec, 0, buf, round, extras);
        }
    });
}

/// One shard's collision-resolution pass over receivers
/// `base..base + receptions.len()`: recomputes each receiver's reaching
/// set from the transpose CSR (in-row senders), the sender-index map
/// (self), and the adversary extras — the same set, in the same ascending
/// sender-index order, the sequential engine's arena holds. Mirrors
/// `Executor::step_traced` phase 3 case for case; the differential suite
/// pins the two together.
fn resolve_chunk<X: Extras>(
    receptions: &mut [Reception],
    base: usize,
    scratch: &mut ResolveScratch,
    r: &ResolveRound<'_>,
    extras: &X,
) {
    let ResolveScratch {
        cr4_jobs: jobs,
        cr4_idx: idxs,
        extras: ex_buf,
        collisions,
    } = scratch;
    jobs.clear();
    idxs.clear();
    *collisions = 0;
    // Per-receiver transmission content (see the sequential engine's
    // `msg_for`): while no Byzantine senders exist, every sender is a
    // shared channel and the role derivation is skipped.
    let msg_for = |idx: u32, receiver: usize| {
        let (u, m) = r.senders[idx as usize];
        if r.byzantine {
            r.roles[u.index()].content_for(m, NodeId::from_index(receiver))
        } else {
            m
        }
    };
    for (i, slot) in receptions.iter_mut().enumerate() {
        let v = base + i;
        // Faulty radios resolve to silence: no collision is counted and
        // no CR4 choice is drawn at such a node.
        if r.faulty && !r.roles[v].is_correct() {
            *slot = Reception::Silence;
            continue;
        }
        let row = r.in_csr.row(NodeId::from_index(v));
        if r.dense {
            // Every node hears its own message; it collided iff anyone
            // else reached it, so the extras are read only when no
            // reliable in-neighbor did.
            if !row.is_empty() || !extras.at(v, r.own_idx, ex_buf).is_empty() {
                *collisions += 1;
            }
            // analyzer: allow(panic, reason = "invariant: dense ⇒ every node transmitted, so own_buf is set")
            *slot = Reception::Message(r.own_buf[v].expect("dense round: every node transmitted"));
            continue;
        }
        let own = r.own_idx[v];
        // Count the in-row senders; remember the first for the len == 1
        // case (the only case that reads a lone non-self message).
        let mut in_count = 0usize;
        let mut first_in = NONE;
        for &u in row {
            let idx = r.own_idx[u.index()];
            if idx != NONE {
                if in_count == 0 {
                    first_in = idx;
                }
                in_count += 1;
            }
        }
        // The extras cannot change the outcome once ≥ 2 messages reach
        // without them and no CR4 choice needs the full set: a sender
        // then collides (CR1) or hears itself (CR2–CR4), a CR1–CR3
        // listener resolves its collision. Skip reading (or sampling)
        // them.
        let settled = if own != NONE {
            in_count >= 1
        } else {
            r.rule != CollisionRule::Cr4 && in_count >= 2
        };
        let ex: &[u32] = if settled {
            &[]
        } else {
            extras.at(v, r.own_idx, ex_buf)
        };
        let len = usize::from(own != NONE) + in_count + ex.len();
        if own != NONE {
            // Senders: own message always reaches them; CR1 senders
            // detect collisions, CR2-CR4 senders hear themselves.
            if len >= 2 {
                *collisions += 1;
            }
            *slot = match r.rule {
                CollisionRule::Cr1 => {
                    if len == 1 {
                        Reception::Message(msg_for(own, v))
                    } else {
                        Reception::Collision
                    }
                }
                // analyzer: allow(panic, reason = "invariant: own_idx set ⇒ own_buf set for the same node")
                _ => Reception::Message(r.own_buf[v].expect("sender's own message is recorded")),
            };
            continue;
        }
        *slot = match len {
            0 => Reception::Silence,
            1 => {
                let idx = if in_count == 1 { first_in } else { ex[0] };
                Reception::Message(msg_for(idx, v))
            }
            _ => {
                *collisions += 1;
                match r.rule {
                    CollisionRule::Cr1 | CollisionRule::Cr2 => Reception::Collision,
                    CollisionRule::Cr3 => Reception::Silence,
                    CollisionRule::Cr4 => {
                        // Merge the two ascending sequences (in-row
                        // senders, extras) into ascending sender-index
                        // order — the order `resolve_cr4` has always
                        // seen. They are disjoint (extras ⊆ G′ ∖ G).
                        let start = idxs.len();
                        let mut ei = 0usize;
                        for &u in row {
                            let idx = r.own_idx[u.index()];
                            if idx == NONE {
                                continue;
                            }
                            while ei < ex.len() && ex[ei] < idx {
                                idxs.push(ex[ei]);
                                ei += 1;
                            }
                            idxs.push(idx);
                        }
                        idxs.extend_from_slice(&ex[ei..]);
                        match extras.cr4(v, len) {
                            Some(choice) => {
                                let reception = match choice {
                                    Cr4Resolution::Silence => Reception::Silence,
                                    Cr4Resolution::Deliver(k) => {
                                        Reception::Message(msg_for(idxs[start + k], v))
                                    }
                                };
                                idxs.truncate(start);
                                reception
                            }
                            None => {
                                jobs.push((v as u32, start as u32, idxs.len() as u32));
                                // Placeholder; phase 3b overwrites it.
                                Reception::Silence
                            }
                        }
                    }
                }
            }
        };
    }
}

/// One shard's phase-4 bookkeeping window: disjoint mutable slices of the
/// executor's known/first-receive records and the shard's whole words of
/// the informed bitset (boundaries are 64-aligned). Runs on the shard's
/// worker thread, fused behind its receive sweep.
struct AbsorbPart<'s> {
    known: &'s mut [PayloadSet],
    first_receive: &'s mut [Option<u64>],
    informed_words: &'s mut [u64],
    newly: &'s mut Vec<NodeId>,
    real: PayloadSet,
    round: u64,
}

impl ShardAbsorb for AbsorbPart<'_> {
    fn absorb(&mut self, base: usize, len: usize, receptions: &[Reception]) {
        for i in 0..len {
            let Some(m) = receptions[base + i].message() else {
                continue;
            };
            // Word-level union: the dense-flooding known-set pass is pure
            // OR traffic over the payload words.
            self.known[i].or_words(m.payloads.words());
            // Only environment-introduced payloads inform (spam-proof
            // coverage, see `Executor::real`).
            if m.payloads.intersects(self.real) {
                let word = &mut self.informed_words[i / 64];
                let bit = 1u64 << (i % 64);
                if *word & bit == 0 {
                    *word |= bit;
                    self.first_receive[i] = Some(self.round);
                    self.newly.push(NodeId::from_index(base + i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomDelivery, ReliableOnly};
    use crate::engine::{ExecutorConfig, StartRule};
    use crate::process::{ChatterProcess, Flooder};
    use dualgraph_net::generators;

    fn chatter_exec(net: &dualgraph_net::DualGraph, rule: CollisionRule) -> Executor<'_> {
        Executor::from_slots(
            net,
            ChatterProcess::slots(net.len(), 7, 5),
            Box::new(RandomDelivery::new(0.5, 99)),
            ExecutorConfig {
                rule,
                start: StartRule::Synchronous,
                ..ExecutorConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn sharded_matches_sequential_round_by_round() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 150,
                reliable_p: 0.05,
                unreliable_p: 0.15,
            },
            13,
        );
        for rule in CollisionRule::ALL {
            let mut seq = chatter_exec(&net, rule);
            let mut shd = ShardedExecutor::new(chatter_exec(&net, rule), 2);
            assert!(shd.plan().shards() > 1, "test must actually shard");
            for _ in 0..40 {
                let a = seq.step();
                let b = shd.step();
                assert_eq!(a, b, "rule {rule}");
            }
            assert_eq!(seq.outcome(), shd.outcome(), "rule {rule}");
        }
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let net = generators::er_dual(
            generators::ErDualParams {
                n: 200,
                reliable_p: 0.04,
                unreliable_p: 0.2,
            },
            21,
        );
        let run = |workers: usize| {
            let mut ex = ShardedExecutor::new(chatter_exec(&net, CollisionRule::Cr4), workers);
            ex.run_rounds(60);
            ex.into_inner().outcome()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(3));
        assert_eq!(one, run(7));
    }

    #[test]
    fn single_shard_delegates_to_the_sequential_path() {
        let net = generators::line(40, 1);
        let exec = Executor::from_slots(
            &net,
            Flooder::slots(40),
            Box::new(ReliableOnly::new()),
            ExecutorConfig::default(),
        )
        .unwrap();
        let mut sharded = ShardedExecutor::new(exec, 1);
        assert_eq!(sharded.plan().shards(), 1);
        let outcome = sharded.run_until_complete(100);
        assert!(outcome.completed);
        assert_eq!(outcome.completion_round, Some(39));
    }
}
