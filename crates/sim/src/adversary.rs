//! The adversary interface and built-in adversaries.
//!
//! The model (§2.1) gives the adversary three choices:
//!
//! 1. the `proc` mapping of processes to graph nodes, fixed up front;
//! 2. each round, for every sender, which of its unreliable-only
//!    (`G′ ∖ G`) out-neighbors its message reaches;
//! 3. under CR4, how each collision resolves (silence or one message).
//!
//! An *adversary class* then fixes what information those choices may
//! depend on. Implementations here receive a [`RoundContext`] — the full
//! observable history summary (who sends what, who is informed) — which is
//! as much as any of the paper's constructions needs.

use dualgraph_net::{DualGraph, FixedBitSet, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::collision::Cr4Resolution;
use crate::message::{Message, ProcessId};
use crate::rng::{derive_seed, splitmix64, SPLITMIX64_GAMMA};

/// A bijection between graph nodes and processes (the `proc` mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    node_to_proc: Vec<ProcessId>,
    proc_to_node: Vec<NodeId>,
}

/// Error building an [`Assignment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildAssignmentError {
    /// The mapping is not a permutation of `0..n`.
    NotAPermutation,
}

impl std::fmt::Display for BuildAssignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "assignment is not a permutation of process ids 0..n")
    }
}

impl std::error::Error for BuildAssignmentError {}

impl Assignment {
    /// The identity mapping: process `i` at node `i`.
    pub fn identity(n: usize) -> Self {
        Assignment {
            node_to_proc: (0..n).map(ProcessId::from_index).collect(),
            proc_to_node: (0..n).map(NodeId::from_index).collect(),
        }
    }

    /// Builds an assignment from `node_to_proc[node] = process`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildAssignmentError::NotAPermutation`] unless the vector
    /// is a permutation of process ids `0..n`.
    pub fn from_node_to_proc(node_to_proc: Vec<ProcessId>) -> Result<Self, BuildAssignmentError> {
        let n = node_to_proc.len();
        let mut proc_to_node = vec![None; n];
        for (node, p) in node_to_proc.iter().enumerate() {
            if p.index() >= n || proc_to_node[p.index()].is_some() {
                return Err(BuildAssignmentError::NotAPermutation);
            }
            proc_to_node[p.index()] = Some(NodeId::from_index(node));
        }
        Ok(Assignment {
            node_to_proc,
            proc_to_node: proc_to_node.into_iter().map(Option::unwrap).collect(),
        })
    }

    /// Number of nodes/processes.
    pub fn len(&self) -> usize {
        self.node_to_proc.len()
    }

    /// `true` for the empty assignment.
    pub fn is_empty(&self) -> bool {
        self.node_to_proc.is_empty()
    }

    /// The process placed at `node`.
    pub fn process_at(&self, node: NodeId) -> ProcessId {
        self.node_to_proc[node.index()]
    }

    /// The node hosting `process`.
    pub fn node_of(&self, process: ProcessId) -> NodeId {
        self.proc_to_node[process.index()]
    }
}

/// Per-round information exposed to the adversary: everything observable in
/// the execution so far that the paper's constructions use.
#[derive(Debug)]
pub struct RoundContext<'a> {
    /// The global round being executed (1-based).
    pub round: u64,
    /// The network.
    pub network: &'a DualGraph,
    /// The `proc` mapping in force.
    pub assignment: &'a Assignment,
    /// This round's transmissions, as `(node, message)` pairs in node order.
    pub senders: &'a [(NodeId, Message)],
    /// Which nodes held the broadcast payload *before* this round.
    pub informed: &'a FixedBitSet,
}

impl RoundContext<'_> {
    /// `true` when exactly one node transmits this round.
    pub fn lone_sender(&self) -> Option<(NodeId, Message)> {
        match self.senders {
            [one] => Some(*one),
            _ => None,
        }
    }
}

/// The adversary: resolves all three sources of nondeterminism.
///
/// Implementations must be deterministic given their construction
/// parameters (seed included) so executions replay exactly.
pub trait Adversary {
    /// Chooses the `proc` mapping. Default: identity.
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        let _ = network;
        Assignment::identity(n_processes)
    }

    /// For the transmission by `sender`, chooses which of its
    /// unreliable-only out-neighbors the message reaches, **appending**
    /// the chosen targets to `out`.
    ///
    /// Implementations must only push — never read, truncate, or clear
    /// `out`: the executor hands the same flat buffer to every sender of a
    /// round (earlier senders' targets are already in it) and splits it by
    /// recorded ranges afterwards. The appended targets must form a subset
    /// of `ctx.network.unreliable_only_out(sender)`; the executor validates
    /// this in debug builds (a `debug_assert!` over the frozen `G′ ∖ G`
    /// CSR row).
    ///
    /// The scratch-buffer signature keeps the executor's round loop
    /// allocation-free. (This is a breaking change from the original
    /// `-> Vec<NodeId>` signature; see `docs/PERFORMANCE.md`.)
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    );

    /// Resolves a CR4 collision at non-sending `node`; `reaching` holds the
    /// ≥ 2 messages that physically reached it. Default: silence.
    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        let _ = (ctx, node, reaching);
        Cr4Resolution::Silence
    }

    /// The adversary's counter-based form, if it is oblivious and has one.
    ///
    /// `Some(sampler)` is a promise: for every round, sender, receiver,
    /// and reaching-set length, in any execution and any call order,
    /// [`Adversary::unreliable_deliveries`] appends exactly the targets
    /// `v` with [`ObliviousSampler::delivers`], and
    /// [`Adversary::resolve_cr4`] returns exactly
    /// [`ObliviousSampler::resolve_cr4`]. The sharded engine then skips
    /// the coordinator's per-sender calls and evaluates both decisions
    /// receiver-side inside its shards, never calling the two methods;
    /// the sequential and reference engines keep calling them, and the
    /// promise makes all three agree bit for bit.
    ///
    /// Default: `None` — the engines consult the adversary one sender at
    /// a time, in node order. A wrapper that replaces either decision
    /// must return `None` or a form with its own decision swapped in, as
    /// [`WithRandomCr4`] does with its CR4 key.
    fn oblivious(&self) -> Option<ObliviousSampler> {
        None
    }

    /// Clones the adversary in its current state (for execution replay).
    fn clone_box(&self) -> Box<dyn Adversary>;
}

impl Clone for Box<dyn Adversary> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for dyn Adversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Adversary")
    }
}

/// Delivers on reliable edges only: the *benign* adversary. On classical
/// networks (`G = G′`) this is exactly the static radio model.
#[derive(Debug, Clone, Default)]
pub struct ReliableOnly;

impl ReliableOnly {
    /// Creates the benign adversary.
    pub fn new() -> Self {
        ReliableOnly
    }
}

impl Adversary for ReliableOnly {
    fn unreliable_deliveries(
        &mut self,
        _ctx: &RoundContext<'_>,
        _sender: NodeId,
        _out: &mut Vec<NodeId>,
    ) {
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Delivers on **every** `G′` edge, every round: the classical static model
/// on `G′`. Maximizes connectivity but also maximizes collisions.
#[derive(Debug, Clone, Default)]
pub struct FullDelivery;

impl FullDelivery {
    /// Creates the full-delivery adversary.
    pub fn new() -> Self {
        FullDelivery
    }
}

impl Adversary for FullDelivery {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        out.extend_from_slice(ctx.network.unreliable_only_out(sender));
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// The 53-bit threshold of a probability-`p` coin: a coin whose top 53
/// bits fall below it lands with probability `p`, exactly for `p = 0`
/// (never) and `p = 1` (always).
#[inline]
fn threshold_53(p: f64) -> u64 {
    (p * (1u64 << 53) as f64) as u64
}

/// The counter hash: `hash(key, round, word)`. The first SplitMix64
/// finalizer keys the round, the second mixes in the word (a directed
/// edge or a node), so every decision is a pure function of its
/// coordinates.
#[inline]
fn keyed_hash(key: u64, round: u64, word: u64) -> u64 {
    splitmix64(splitmix64(key ^ round) ^ word)
}

/// The CR4 coin at non-sending `node` in `round`, reached by `len`
/// messages: `hash(key, round, node)`, whose top bit means silence
/// (probability ½) and whose other 63 bits pick a uniform index in
/// `0..len` by multiply-shift. The one coin behind
/// [`ObliviousSampler::resolve_cr4`] and [`WithRandomCr4`].
#[inline]
fn cr4_coin(key: u64, round: u64, node: NodeId, len: usize) -> Cr4Resolution {
    let h = keyed_hash(key, round, u64::from(node.0));
    if h >> 63 == 1 {
        Cr4Resolution::Silence
    } else {
        Cr4Resolution::Deliver(((u128::from(h << 1) * len as u128) >> 64) as usize)
    }
}

/// The counter-based form of an oblivious i.i.d. adversary: every
/// decision is a pure keyed hash of its coordinates, after the
/// counter-based generators of Salmon et al., *Parallel Random Numbers:
/// As Easy as 1, 2, 3* (SC'11).
///
/// * The unreliable edge `u → v` delivers in round `t` when the top 53
///   bits of `hash(seed, t, (u, v))` fall below `p · 2^53`, so `p = 0`
///   never and `p = 1` always delivers. The directed pair is the edge's
///   stable identity: a decision follows the edge across epoch rewires,
///   and no edge-id map is needed.
/// * The CR4 coin at receiver `v` is `hash(seed′, t, v)`: silence with
///   probability ½, else a uniform index into the reaching set.
///
/// Nothing depends on the execution or on the order of evaluation, so
/// any thread may evaluate any decision: the sharded engine samples
/// deliveries and CR4 coins receiver-side inside its shards (see
/// [`Adversary::oblivious`]). [`RandomDelivery::new`] is built on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObliviousSampler {
    /// Key of the delivery hash.
    delivery_key: u64,
    /// Key of the CR4 coin (`seed′`), derived independently of
    /// `delivery_key`.
    cr4_key: u64,
    /// An edge delivers when the top 53 bits of its hash fall below this;
    /// `2^53` delivers every edge.
    threshold: u64,
}

impl ObliviousSampler {
    /// The sampler for per-edge delivery probability `p` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0,1]");
        ObliviousSampler {
            delivery_key: derive_seed(seed, 0),
            cr4_key: derive_seed(seed, 1),
            threshold: threshold_53(p),
        }
    }

    /// The same sampler with its CR4 coin keyed by `cr4_key` instead.
    fn with_cr4_key(self, cr4_key: u64) -> Self {
        ObliviousSampler { cr4_key, ..self }
    }

    /// `true` when the unreliable edge `u → v` delivers in `round`.
    #[inline]
    pub fn delivers(&self, round: u64, u: NodeId, v: NodeId) -> bool {
        let edge = (u64::from(u.0) << 32) | u64::from(v.0);
        (keyed_hash(self.delivery_key, round, edge) >> 11) < self.threshold
    }

    /// The CR4 choice at non-sending `node` in `round`, reached by `len`
    /// messages: silence with probability ½, else a uniform index in
    /// `0..len`.
    #[inline]
    pub fn resolve_cr4(&self, round: u64, node: NodeId, len: usize) -> Cr4Resolution {
        cr4_coin(self.cr4_key, round, node, len)
    }
}

/// How [`RandomDelivery`] samples its per-edge Bernoulli decisions.
#[derive(Debug, Clone)]
enum DeliverySampler {
    /// The counter-based sampler: decisions are pure functions of
    /// `(seed, round, edge)` and `(seed′, round, node)`.
    Counter(ObliviousSampler),
    /// One raw `u64` draw per edge against an integer threshold, off one
    /// seeded stream in call order, so its answers depend on the order
    /// the engine calls the adversary (see [`RandomDelivery`]).
    PerEdge {
        p: f64,
        /// An edge delivers when a raw `u64` draw falls below it.
        threshold: u64,
        rng: SmallRng,
    },
}

/// Each unreliable edge delivers independently with probability `p` each
/// round; CR4 collisions resolve to silence with probability 1/2, else to a
/// uniformly random reaching message.
///
/// This is the i.i.d. link-flap model of gray zones; deterministic in the
/// seed.
///
/// Sampling backends (identical delivery *distribution*, different seeded
/// streams):
///
/// * [`RandomDelivery::new`] — **counter-based**: every decision is a
///   pure hash of `(seed, round, edge)` or `(seed′, round, node)` (see
///   [`ObliviousSampler`]), so the adversary is its own
///   [`Adversary::oblivious`] form and the sharded engine samples it
///   inside its shards;
/// * [`RandomDelivery::per_edge`] — **sequential**: one draw per edge
///   against a precomputed integer threshold, off one seeded stream in
///   call order (`p = 1` delivers everything without consuming draws).
///   With [`BurstyDelivery::per_round`], it is one of the two built-in
///   adversaries whose seeded answers depend on the order the engine
///   calls them; every other seeded built-in is counter-based or
///   deterministic. That dependence is what lets a differential suite
///   catch an engine that calls the adversary out of order.
#[derive(Debug, Clone)]
pub struct RandomDelivery {
    sampler: DeliverySampler,
}

impl RandomDelivery {
    /// Creates the adversary with per-edge delivery probability `p`, using
    /// the counter-based sampler.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        RandomDelivery {
            sampler: DeliverySampler::Counter(ObliviousSampler::new(p, seed)),
        }
    }

    /// Creates the adversary with the sequential per-edge sampler, whose
    /// answers depend on call order (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn per_edge(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0,1]");
        RandomDelivery {
            sampler: DeliverySampler::PerEdge {
                p,
                threshold: (p * (u64::MAX as f64 + 1.0)) as u64,
                rng: SmallRng::seed_from_u64(seed),
            },
        }
    }
}

impl Adversary for RandomDelivery {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let row = ctx.network.unreliable_only_out(sender);
        match &mut self.sampler {
            DeliverySampler::Counter(s) => {
                out.extend(
                    row.iter()
                        .copied()
                        .filter(|&v| s.delivers(ctx.round, sender, v)),
                );
            }
            DeliverySampler::PerEdge { p, threshold, rng } => {
                if *p >= 1.0 {
                    // `x < threshold` would lose the x == u64::MAX draw.
                    out.extend_from_slice(row);
                    return;
                }
                for &v in row {
                    if rng.next_u64() < *threshold {
                        out.push(v);
                    }
                }
            }
        }
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        match &mut self.sampler {
            DeliverySampler::Counter(s) => s.resolve_cr4(ctx.round, node, reaching.len()),
            DeliverySampler::PerEdge { rng, .. } => {
                if rng.gen_bool(0.5) {
                    Cr4Resolution::Silence
                } else {
                    Cr4Resolution::Deliver(rng.gen_range(0..reaching.len()))
                }
            }
        }
    }

    fn oblivious(&self) -> Option<ObliviousSampler> {
        match self.sampler {
            DeliverySampler::Counter(s) => Some(s),
            DeliverySampler::PerEdge { .. } => None,
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// The counter-based Gilbert–Elliott chains of [`BurstyDelivery::new`]:
/// the state of edge `u → v` at round `t` is a pure function of
/// `(seed, u → v, t)`.
///
/// Edge `u → v` owns a SplitMix64 stream seeded by
/// `splitmix64(key ^ (u << 32 | v))`, whose `t`-th output is round `t`'s
/// coin. Every link starts good at round 0. In each round `t ≥ 1` it
/// flips when the top 53 bits of the coin fall below `p_state · 2^53`,
/// where `p_state` is `p_fail` while the link is good and `p_recover`
/// while it is bad; `p = 0` and `p = 1` are exact.
#[derive(Debug, Clone, Copy)]
struct ChainCoins {
    key: u64,
    /// Flip threshold while good (`p_fail`).
    fail: u64,
    /// Flip threshold while bad (`p_recover`).
    recover: u64,
}

/// A memo of one chain: its state after the coins of rounds `1..=as_of`.
#[derive(Debug, Clone, Copy)]
struct ChainMemo {
    good: bool,
    as_of: u64,
}

impl ChainMemo {
    /// Every link starts good at round 0.
    const START: ChainMemo = ChainMemo {
        good: true,
        as_of: 0,
    };
}

impl ChainCoins {
    /// `true` when edge `u → v` is good in `round`. Replays the coins of
    /// rounds `memo.as_of + 1 ..= round` from the memo (from round 0 for
    /// a query into the memo's past) and leaves the memo at `round`.
    #[inline]
    fn good_at(&self, u: NodeId, v: NodeId, memo: &mut ChainMemo, round: u64) -> bool {
        if round < memo.as_of {
            *memo = ChainMemo::START;
        }
        if memo.as_of < round {
            let stream = splitmix64(self.key ^ ((u64::from(u.0) << 32) | u64::from(v.0)));
            // Output `t` of the stream is `splitmix64(stream + (t − 1)·γ)`.
            let mut state = stream.wrapping_add(memo.as_of.wrapping_mul(SPLITMIX64_GAMMA));
            let mut good = memo.good;
            for _ in memo.as_of..round {
                let threshold = if good { self.fail } else { self.recover };
                good ^= (splitmix64(state) >> 11) < threshold;
                state = state.wrapping_add(SPLITMIX64_GAMMA);
            }
            *memo = ChainMemo { good, as_of: round };
        }
        memo.good
    }
}

/// How [`BurstyDelivery`] decides its per-edge Markov chains.
#[derive(Debug, Clone)]
enum BurstyBackend {
    /// Counter-based chains ([`ChainCoins`]). `memo` holds one
    /// [`ChainMemo`] per **stable edge identity**
    /// ([`DualGraph::unreliable_edge_id`]): for a standalone network the
    /// `G′ ∖ G` CSR's flat edge numbering, for a
    /// [`TopologySchedule`][dualgraph_net::TopologySchedule] epoch the
    /// schedule-wide identity of the directed pair `(u, v)`. The coins are
    /// keyed by the pair itself; the identity only indexes the memo, so a
    /// query costs O(rounds since that edge's last query), and one
    /// adversary instance is bound to one edge-identity universe (one
    /// network, or one schedule).
    Counter {
        coins: ChainCoins,
        /// Lazily sized to the network's edge-identity universe on first
        /// use.
        memo: Vec<ChainMemo>,
    },
    /// The sequential backend: an edge-map keyed by `(u, v)` whose
    /// catch-up loop consumes one `gen_bool` per (edge, elapsed round) off
    /// one seeded stream, so its answers depend on call order (see
    /// [`BurstyDelivery`]). The map is a `Vec` sorted by edge key, so its
    /// behavior is independent of hasher state.
    PerRound {
        /// P(good → bad) per round.
        p_fail: f64,
        /// P(bad → good) per round.
        p_recover: f64,
        rng: SmallRng,
        /// Lazily-tracked per-edge state: `(state_good, last_round)`,
        /// sorted by the `(u, v)` key.
        edges: Vec<((NodeId, NodeId), (bool, u64))>,
    },
}

/// Gilbert–Elliott bursty links: each unreliable directed edge is a two-state
/// Markov chain (good/bad); it delivers while good. Models doors opening and
/// interference bursts ("something as simple as opening a door can change
/// the connection topology", §1).
///
/// Backends (identical chain *distribution*, different seeded streams):
/// [`BurstyDelivery::new`] uses counter-based chains, whose state at a
/// round is a pure function of the seed, the edge, and the round, in any
/// call order; [`BurstyDelivery::per_round`] draws from one seeded stream
/// (one draw per edge per elapsed round, in call order). With
/// [`RandomDelivery::per_edge`], the latter is one of the two built-in
/// adversaries whose seeded answers depend on the order the engine calls
/// them, which is what lets a differential suite catch an engine that
/// calls the adversary out of order.
#[derive(Debug, Clone)]
pub struct BurstyDelivery {
    backend: BurstyBackend,
}

/// Panics unless both chain probabilities lie in `[0, 1]`.
fn check_chain_probabilities(p_fail: f64, p_recover: f64) {
    assert!(
        (0.0..=1.0).contains(&p_fail) && (0.0..=1.0).contains(&p_recover),
        "probabilities must lie in [0,1]"
    );
}

impl BurstyDelivery {
    /// Creates the bursty adversary with counter-based chains (see the
    /// type docs). All edges start good.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new(p_fail: f64, p_recover: f64, seed: u64) -> Self {
        check_chain_probabilities(p_fail, p_recover);
        BurstyDelivery {
            backend: BurstyBackend::Counter {
                coins: ChainCoins {
                    key: derive_seed(seed, 0),
                    fail: threshold_53(p_fail),
                    recover: threshold_53(p_recover),
                },
                memo: Vec::new(),
            },
        }
    }

    /// Creates the bursty adversary with the sequential per-round backend,
    /// whose answers depend on call order (see the type docs). All edges
    /// start good.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn per_round(p_fail: f64, p_recover: f64, seed: u64) -> Self {
        check_chain_probabilities(p_fail, p_recover);
        BurstyDelivery {
            backend: BurstyBackend::PerRound {
                p_fail,
                p_recover,
                rng: SmallRng::seed_from_u64(seed),
                edges: Vec::new(),
            },
        }
    }
}

impl Adversary for BurstyDelivery {
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let round = ctx.round;
        match &mut self.backend {
            BurstyBackend::PerRound {
                p_fail,
                p_recover,
                rng,
                edges,
            } => {
                for &v in ctx.network.unreliable_only_out(sender) {
                    let edge = (sender, v);
                    let slot = edges.binary_search_by_key(&edge, |e| e.0);
                    let (mut good, mut last) = match slot {
                        Ok(i) => edges[i].1, // bound: binary_search hit
                        Err(_) => (true, 0),
                    };
                    while last < round {
                        let flip = if good { *p_fail } else { *p_recover };
                        if rng.gen_bool(flip) {
                            good = !good;
                        }
                        last += 1;
                    }
                    match slot {
                        Ok(i) => edges[i].1 = (good, last), // bound: binary_search hit
                        Err(i) => edges.insert(i, (edge, (good, last))),
                    }
                    if good {
                        out.push(v);
                    }
                }
            }
            BurstyBackend::Counter { coins, memo } => {
                let csr = ctx.network.unreliable_only_csr();
                let universe = ctx.network.unreliable_edge_universe();
                if memo.len() != universe {
                    assert!(
                        memo.is_empty(),
                        "a BurstyDelivery instance is bound to one network \
                         (or one schedule's edge-identity universe)"
                    );
                    memo.resize(universe, ChainMemo::START);
                }
                let ids = ctx.network.unreliable_edge_ids();
                for (flat, &v) in csr.row_range(sender).zip(csr.row(sender)) {
                    let e = match ids {
                        Some(map) => map[flat] as usize,
                        None => flat,
                    };
                    if coins.good_at(sender, v, &mut memo[e], round) {
                        out.push(v);
                    }
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// A progress-blocking heuristic adversary: delivers an unreliable edge
/// `(u, v)` only when it *jams* — i.e. when `v` is still uninformed and
/// some other sender already reaches `v` through a reliable edge, so the
/// extra delivery turns a successful reception into a collision.
///
/// A lone sender's reliable edges always deliver (the adversary cannot
/// touch them), so algorithms that guarantee isolated senders (Strong
/// Select, Harmonic Broadcast) still make progress; algorithms that rely
/// on lucky simultaneous transmissions stall. This is the generic
/// worst-case-flavored adversary used by the upper-bound experiments.
#[derive(Debug, Clone, Default)]
pub struct CollisionSeeker {
    /// Round the jam set was computed for (`None` = never).
    cached_round: Option<u64>,
    /// This round's jam set — the uninformed nodes some sender reaches
    /// through `G` — reused round to round.
    jam: FixedBitSet,
    /// The jam set's size.
    jam_len: usize,
}

impl CollisionSeeker {
    /// Creates the jamming adversary.
    pub fn new() -> Self {
        CollisionSeeker::default()
    }

    /// Computes the round's jam set `(∪ senders' G rows) ∖ informed` on
    /// the round's first call, in `O(n/64 + Σ d_G)`.
    fn jam(&mut self, ctx: &RoundContext<'_>) {
        if self.cached_round == Some(ctx.round) {
            return;
        }
        if self.jam.capacity() == ctx.network.len() {
            self.jam.clear();
        } else {
            self.jam = FixedBitSet::new(ctx.network.len());
        }
        for &(u, _) in ctx.senders {
            for v in ctx.network.reliable_csr().row(u) {
                self.jam.insert(v.index());
            }
        }
        self.jam.difference_with(ctx.informed);
        self.jam_len = self.jam.count();
        self.cached_round = Some(ctx.round);
    }
}

/// Whether to find `row ∩ jam` by walking the jam (one binary search of
/// the row per member) rather than scanning the row (one bit test per
/// entry): whichever side costs less. Neither side alone will do: scans
/// pay for the long rows of sparse rounds on `layered_pairs`, and walks
/// grow with senders × jam when many senders share short rows (flooding
/// on `er_dual`).
fn walk_jam(jam_len: usize, row_len: usize) -> bool {
    let log_row = (usize::BITS - row_len.leading_zeros()) as usize;
    jam_len * log_row < row_len
}

impl Adversary for CollisionSeeker {
    /// Appends `G′ ∖ G row ∩ jam` in ascending order — the same targets
    /// either way `walk_jam` chooses.
    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        self.jam(ctx);
        let row = ctx.network.unreliable_only_out(sender);
        if walk_jam(self.jam_len, row.len()) {
            let mut rest = row;
            for v in self.jam.iter().map(NodeId::from_index) {
                match rest.binary_search(&v) {
                    Ok(i) => {
                        out.push(v);
                        rest = &rest[i + 1..];
                    }
                    Err(i) => rest = &rest[i..],
                }
            }
        } else {
            out.extend(row.iter().copied().filter(|v| self.jam.contains(v.index())));
        }
    }

    // CR4 collisions resolve to silence (the default): maximally unhelpful.

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Wraps an adversary, overriding only its `proc` assignment.
///
/// Lower-bound experiments search over assignments (e.g. which process id
/// sits on the Theorem 2 bridge) while keeping delivery behavior fixed.
#[derive(Debug, Clone)]
pub struct WithAssignment<A> {
    inner: A,
    assignment: Assignment,
}

impl<A: Adversary> WithAssignment<A> {
    /// Overrides `inner`'s assignment with `node_to_proc[node] = process`.
    /// An executor built with a process count other than
    /// `node_to_proc.len()` fails with
    /// [`BuildExecutorError::BadAssignment`][crate::BuildExecutorError::BadAssignment].
    ///
    /// # Errors
    ///
    /// Returns [`BuildAssignmentError::NotAPermutation`] unless the vector
    /// is a permutation of process ids `0..n`.
    pub fn new(inner: A, node_to_proc: Vec<ProcessId>) -> Result<Self, BuildAssignmentError> {
        Ok(WithAssignment {
            inner,
            assignment: Assignment::from_node_to_proc(node_to_proc)?,
        })
    }
}

impl<A: Adversary + Clone + 'static> Adversary for WithAssignment<A> {
    fn assign(&mut self, _network: &DualGraph, _n_processes: usize) -> Assignment {
        self.assignment.clone()
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        self.inner.unreliable_deliveries(ctx, sender, out);
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        self.inner.resolve_cr4(ctx, node, reaching)
    }

    fn oblivious(&self) -> Option<ObliviousSampler> {
        self.inner.oblivious()
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Wraps a delivery adversary, overriding only its CR4 collision
/// resolution with the fair coin [`RandomDelivery`] uses: silence with
/// probability 1/2, else a uniformly random reaching message. The coin is
/// counter-based — `hash(key, round, node)`, the function behind
/// [`ObliviousSampler::resolve_cr4`] — so it repeats for the same round
/// and node, ignores call order, and the wrapper has an
/// [`Adversary::oblivious`] form whenever the inner adversary has one.
///
/// Built-ins whose `resolve_cr4` is the maximally-unhelpful default
/// ([`BurstyDelivery`], [`CollisionSeeker`]) deadlock flooding-style
/// workloads under CR4 — a node whose informed neighbors all transmit
/// never receives. Wrapping them keeps the link model (bursty chains,
/// jamming heuristics) while letting collision-heavy regimes make
/// progress, which the reliability bench's churn + fault workloads need.
#[derive(Debug, Clone)]
pub struct WithRandomCr4<A> {
    inner: A,
    cr4_key: u64,
}

impl<A: Adversary> WithRandomCr4<A> {
    /// Wraps `inner`, resolving CR4 collisions with a coin keyed by
    /// `seed` (independent of the inner adversary's decisions). The key
    /// is derived as [`RandomDelivery::new`] derives its own, so
    /// `WithRandomCr4::new(RandomDelivery::new(p, s), s)` decides exactly
    /// like `RandomDelivery::new(p, s)`.
    pub fn new(inner: A, seed: u64) -> Self {
        WithRandomCr4 {
            inner,
            cr4_key: derive_seed(seed, 1),
        }
    }
}

impl<A: Adversary + Clone + 'static> Adversary for WithRandomCr4<A> {
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        self.inner.assign(network, n_processes)
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        self.inner.unreliable_deliveries(ctx, sender, out);
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        cr4_coin(self.cr4_key, ctx.round, node, reaching.len())
    }

    fn oblivious(&self) -> Option<ObliviousSampler> {
        self.inner.oblivious().map(|s| s.with_cr4_key(self.cr4_key))
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualgraph_net::generators;

    fn ctx_fixture<'a>(
        net: &'a DualGraph,
        assignment: &'a Assignment,
        senders: &'a [(NodeId, Message)],
        informed: &'a FixedBitSet,
    ) -> RoundContext<'a> {
        RoundContext {
            round: 1,
            network: net,
            assignment,
            senders,
            informed,
        }
    }

    /// Collects an adversary's deliveries into a fresh vec (test shorthand
    /// for the scratch-buffer API).
    fn deliveries<A: Adversary>(
        adv: &mut A,
        ctx: &RoundContext<'_>,
        sender: NodeId,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        adv.unreliable_deliveries(ctx, sender, &mut out);
        out
    }

    #[test]
    fn assignment_identity_roundtrip() {
        let a = Assignment::identity(4);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert_eq!(a.process_at(NodeId(2)), ProcessId(2));
        assert_eq!(a.node_of(ProcessId(3)), NodeId(3));
    }

    #[test]
    fn assignment_permutation() {
        let a =
            Assignment::from_node_to_proc(vec![ProcessId(2), ProcessId(0), ProcessId(1)]).unwrap();
        assert_eq!(a.process_at(NodeId(0)), ProcessId(2));
        assert_eq!(a.node_of(ProcessId(2)), NodeId(0));
        assert_eq!(a.node_of(ProcessId(1)), NodeId(2));
    }

    #[test]
    fn assignment_rejects_non_permutation() {
        assert!(Assignment::from_node_to_proc(vec![ProcessId(0), ProcessId(0)]).is_err());
        assert!(Assignment::from_node_to_proc(vec![ProcessId(5), ProcessId(0)]).is_err());
        let err = Assignment::from_node_to_proc(vec![ProcessId(1), ProcessId(1)]).unwrap_err();
        assert!(err.to_string().contains("permutation"));
    }

    #[test]
    fn reliable_only_never_delivers_unreliable() {
        let net = generators::line(4, 3).clone();
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::new(4);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        assert!(deliveries(&mut ReliableOnly::new(), &ctx, NodeId(0)).is_empty());
    }

    #[test]
    fn full_delivery_delivers_all() {
        let net = generators::line(4, 3);
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::new(4);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let d = deliveries(&mut FullDelivery::new(), &ctx, NodeId(0));
        assert_eq!(d, net.unreliable_only_out(NodeId(0)).to_vec());
        assert!(!d.is_empty());
    }

    /// `sender`'s deliveries on `net` in `round`, with `sender` as the
    /// round's only transmitter.
    fn deliveries_at<A: Adversary>(
        adv: &mut A,
        net: &DualGraph,
        round: u64,
        sender: NodeId,
    ) -> Vec<NodeId> {
        let assignment = Assignment::identity(net.len());
        let informed = FixedBitSet::new(net.len());
        let senders = [(sender, Message::signal(assignment.process_at(sender)))];
        let ctx = RoundContext {
            round,
            network: net,
            assignment: &assignment,
            senders: &senders,
            informed: &informed,
        };
        deliveries(adv, &ctx, sender)
    }

    #[test]
    fn random_delivery_deterministic_in_seed() {
        // Same seed, same decisions — also when a round is queried twice
        // (decisions are functions of the round, not of the call count);
        // another seed decides differently.
        let net = generators::line(10, 9);
        let mut a = RandomDelivery::new(0.5, 99);
        let mut b = RandomDelivery::new(0.5, 99);
        let mut other = RandomDelivery::new(0.5, 100);
        let mut differs = false;
        for round in 1..=20 {
            let first = deliveries_at(&mut a, &net, round, NodeId(0));
            assert_eq!(first, deliveries_at(&mut a, &net, round, NodeId(0)));
            assert_eq!(first, deliveries_at(&mut b, &net, round, NodeId(0)));
            differs |= first != deliveries_at(&mut other, &net, round, NodeId(0));
        }
        assert!(differs, "seeds 99 and 100 agreed for 20 rounds");
    }

    #[test]
    fn counter_sampler_is_exact_at_zero_and_one() {
        let net = generators::line(12, 11);
        let mut never = RandomDelivery::new(0.0, 1);
        let mut always = RandomDelivery::new(1.0, 1);
        for round in 1..=200 {
            for u in net.nodes() {
                assert!(deliveries_at(&mut never, &net, round, u).is_empty());
                assert_eq!(
                    deliveries_at(&mut always, &net, round, u),
                    net.unreliable_only_out(u),
                    "round {round}, sender {u}"
                );
            }
        }
    }

    #[test]
    fn counter_sampler_rate_within_three_sigma() {
        // Distributional regression for the counter-based sampler across
        // the p range (the flooding workloads' p = 0.5 and small p): the
        // pooled rate within 3σ, and no edge stuck (each within 5σ).
        let net = generators::line(40, 39);
        let row = net.unreliable_only_out(NodeId(0));
        let rounds = 4_000u64;
        for p in [0.03, 0.2, 0.5, 0.9] {
            let mut adv = RandomDelivery::new(p, 11);
            let mut hits = vec![0u64; net.len()];
            for round in 1..=rounds {
                for v in deliveries_at(&mut adv, &net, round, NodeId(0)) {
                    hits[v.index()] += 1;
                }
            }
            let trials = (rounds * row.len() as u64) as f64;
            let rate = hits.iter().sum::<u64>() as f64 / trials;
            let sigma = (p * (1.0 - p) / trials).sqrt();
            assert!((rate - p).abs() < 3.0 * sigma, "p={p}: rate {rate}");
            let edge_sigma = (p * (1.0 - p) / rounds as f64).sqrt();
            for &v in row {
                let edge_rate = hits[v.index()] as f64 / rounds as f64;
                assert!(
                    (edge_rate - p).abs() < 5.0 * edge_sigma,
                    "p={p}: edge (0, {v}) rate {edge_rate}"
                );
            }
        }
    }

    /// Pearson correlation of paired Bernoulli outcomes.
    fn correlation(pairs: &[(bool, bool)]) -> f64 {
        let n = pairs.len() as f64;
        let (mut sx, mut sy, mut sxy) = (0.0, 0.0, 0.0);
        for &(x, y) in pairs {
            let (x, y) = (f64::from(u8::from(x)), f64::from(u8::from(y)));
            sx += x;
            sy += y;
            sxy += x * y;
        }
        let (mx, my) = (sx / n, sy / n);
        (sxy / n - mx * my) / (mx * (1.0 - mx) * my * (1.0 - my)).sqrt()
    }

    #[test]
    fn counter_sampler_has_no_lag_or_neighbor_correlation() {
        // Each decision is a fresh hash: one edge across consecutive
        // rounds, and adjacent edges (next receiver, next sender) within
        // one round, must look independent (|r| < 3/√N).
        let s = ObliviousSampler::new(0.5, 31);
        let bound = |pairs: &[(bool, bool)]| 3.0 / (pairs.len() as f64).sqrt();
        let series: Vec<bool> = (1..=20_001)
            .map(|t| s.delivers(t, NodeId(3), NodeId(4)))
            .collect();
        let lag: Vec<(bool, bool)> = series.windows(2).map(|w| (w[0], w[1])).collect();
        let r = correlation(&lag);
        assert!(r.abs() < bound(&lag), "lag-1 r = {r}");
        let mut next_receiver = Vec::new();
        let mut next_sender = Vec::new();
        for t in 1..=2_000 {
            for i in 0..10u32 {
                let here = s.delivers(t, NodeId(i), NodeId(i + 20));
                next_receiver.push((here, s.delivers(t, NodeId(i), NodeId(i + 21))));
                next_sender.push((here, s.delivers(t, NodeId(i + 1), NodeId(i + 20))));
            }
        }
        for (what, pairs) in [("receiver", &next_receiver), ("sender", &next_sender)] {
            let r = correlation(pairs);
            assert!(r.abs() < bound(pairs), "adjacent-{what} r = {r}");
        }
    }

    #[test]
    fn counter_cr4_coin_is_fair_and_uniform() {
        let s = ObliviousSampler::new(0.5, 77);
        let samples = 30_000u64;
        // Pearson χ² critical values at the 0.1% level, len − 1 degrees of
        // freedom.
        for (len, critical) in [(2usize, 10.83), (3, 13.82), (7, 22.46)] {
            let mut silence = 0u64;
            let mut bins = vec![0u64; len];
            for i in 0..samples {
                match s.resolve_cr4(1 + i / 100, NodeId((i % 100) as u32), len) {
                    Cr4Resolution::Silence => silence += 1,
                    Cr4Resolution::Deliver(k) => bins[k] += 1,
                }
            }
            let frac = silence as f64 / samples as f64;
            let sigma = (0.25 / samples as f64).sqrt();
            assert!(
                (frac - 0.5).abs() < 3.0 * sigma,
                "len {len}: silence {frac}"
            );
            let expect = (samples - silence) as f64 / len as f64;
            let chi2: f64 = bins
                .iter()
                .map(|&b| (b as f64 - expect).powi(2) / expect)
                .sum();
            assert!(chi2 < critical, "len {len}: χ² = {chi2}, bins {bins:?}");
        }
    }

    /// Asserts the `Adversary::oblivious` contract on `adv`: every
    /// delivery and CR4 answer over 50 rounds equals its form's.
    fn assert_oblivious_contract<A: Adversary>(adv: &mut A, net: &DualGraph) {
        let sampler = adv
            .oblivious()
            .expect("the adversary has an oblivious form");
        let reaching = [Message::signal(ProcessId(0)); 7];
        let assignment = Assignment::identity(net.len());
        let informed = FixedBitSet::new(net.len());
        for round in 1..=50 {
            for u in net.nodes() {
                let expect: Vec<NodeId> = net
                    .unreliable_only_out(u)
                    .iter()
                    .copied()
                    .filter(|&v| sampler.delivers(round, u, v))
                    .collect();
                assert_eq!(deliveries_at(adv, net, round, u), expect);
                let ctx = RoundContext {
                    round,
                    network: net,
                    assignment: &assignment,
                    senders: &[],
                    informed: &informed,
                };
                for len in [2, 7] {
                    assert_eq!(
                        adv.resolve_cr4(&ctx, u, &reaching[..len]),
                        sampler.resolve_cr4(round, u, len)
                    );
                }
            }
        }
    }

    #[test]
    fn oblivious_form_answers_like_the_adversary() {
        // The `Adversary::oblivious` contract, checked on every built-in
        // that has a form: `RandomDelivery::new` itself, `WithAssignment`
        // (which forwards it), and `WithRandomCr4` (which swaps in its
        // own CR4 key).
        let net = generators::line(12, 11);
        let adv = RandomDelivery::new(0.3, 5);
        let sampler = adv.oblivious().expect("RandomDelivery::new is oblivious");
        assert_oblivious_contract(&mut adv.clone(), &net);
        let mut placed =
            WithAssignment::new(adv.clone(), (0..12).map(ProcessId).collect()).unwrap();
        assert_eq!(placed.oblivious(), Some(sampler));
        assert_oblivious_contract(&mut placed, &net);
        let mut coined = WithRandomCr4::new(adv.clone(), 1);
        let form = coined
            .oblivious()
            .expect("the inner adversary is oblivious");
        assert_ne!(form, sampler, "the wrapper's CR4 key is swapped in");
        assert_oblivious_contract(&mut coined, &net);
        // The wrapper derives its key as `RandomDelivery::new` does.
        assert_eq!(WithRandomCr4::new(adv, 5).oblivious(), Some(sampler));
        // Everything stream-ordered or adaptive has no form, wrapped or not.
        assert_eq!(RandomDelivery::per_edge(0.3, 5).oblivious(), None);
        assert_eq!(BurstyDelivery::new(0.3, 0.3, 5).oblivious(), None);
        assert_eq!(
            WithRandomCr4::new(BurstyDelivery::new(0.3, 0.3, 5), 1).oblivious(),
            None
        );
        assert_eq!(CollisionSeeker::new().oblivious(), None);
        assert_eq!(ReliableOnly::new().oblivious(), None);
    }

    #[test]
    fn counter_sampler_stream_is_pinned() {
        // Golden test: `RandomDelivery::new`'s seeded delivery pattern and
        // CR4 coins. Every seeded experiment output depends on this
        // stream; change it only deliberately, together with this pin.
        let net = generators::line(10, 9);
        let mut adv = RandomDelivery::new(0.5, 99);
        let pattern: Vec<Vec<u32>> = (1..=4)
            .map(|round| {
                deliveries_at(&mut adv, &net, round, NodeId(0))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect();
        let sampler = adv.oblivious().expect("RandomDelivery::new is oblivious");
        let coins: Vec<Cr4Resolution> = (1..=6)
            .map(|round| sampler.resolve_cr4(round, NodeId(5), 3))
            .collect();
        assert_eq!(
            pattern,
            vec![
                vec![3, 5, 6],
                vec![3, 5, 6, 9],
                vec![4, 5, 7, 8, 9],
                vec![4]
            ]
        );
        use Cr4Resolution::{Deliver, Silence};
        assert_eq!(
            coins,
            vec![Silence, Deliver(0), Silence, Silence, Deliver(2), Silence]
        );
    }

    #[test]
    fn per_edge_sampler_stream_is_frozen() {
        // Golden test: the per-edge sampler's seeded delivery pattern is
        // pinned, so the order-dependent inputs of the differential suites
        // stay the ones they were written against.
        let net = generators::line(10, 9);
        let assignment = Assignment::identity(10);
        let informed = FixedBitSet::new(10);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let mut adv = RandomDelivery::per_edge(0.5, 99);
        let pattern: Vec<Vec<u32>> = (0..3)
            .map(|_| {
                deliveries(&mut adv, &ctx, NodeId(0))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect();
        assert_eq!(
            pattern,
            vec![vec![2, 4, 5], vec![4, 5, 6, 7, 8], vec![4, 5]]
        );
    }

    #[test]
    fn bursty_per_round_stream_is_frozen() {
        // Golden test: `BurstyDelivery::per_round`'s seeded chain pattern
        // (including a round gap) is pinned, so the order-dependent inputs
        // of the differential suites stay the ones they were written
        // against.
        let net = generators::line(10, 9);
        let mut adv = BurstyDelivery::per_round(0.3, 0.4, 99);
        let pattern: Vec<Vec<u32>> = [1u64, 2, 3, 7, 8]
            .iter()
            .map(|&round| {
                deliveries_at(&mut adv, &net, round, NodeId(0))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect();
        assert_eq!(
            pattern,
            vec![
                vec![3, 4, 6, 7, 8, 9],
                vec![3, 4, 7, 9],
                vec![3, 5, 7, 9],
                vec![4, 7],
                vec![3, 4, 7, 9]
            ]
        );
    }

    /// Rounds dropped from the front of every chain series, so the
    /// all-good start has mixed away before anything is measured.
    const BURN_IN: usize = 200;

    /// A [`BurstyDelivery`] constructor: `new` or `per_round`.
    type Backend = fn(f64, f64, u64) -> BurstyDelivery;

    /// The state series of each edge of node 0's unreliable row on a
    /// 40-node line (38 independent chains) over rounds `1..=rounds`,
    /// burn-in dropped, read through the adversary's delivery API.
    fn bursty_series(
        backend: Backend,
        (p_fail, p_recover): (f64, f64),
        seed: u64,
        rounds: u64,
    ) -> Vec<Vec<bool>> {
        let net = generators::line(40, 39);
        let row = net.unreliable_only_out(NodeId(0)).to_vec();
        let mut adv = backend(p_fail, p_recover, seed);
        let mut series = vec![Vec::with_capacity(rounds as usize); row.len()];
        for round in 1..=rounds {
            let got = deliveries_at(&mut adv, &net, round, NodeId(0));
            for (states, v) in series.iter_mut().zip(&row) {
                states.push(got.contains(v));
            }
        }
        for states in &mut series {
            states.drain(..BURN_IN);
        }
        series
    }

    /// Chain parameters `(p_fail, p_recover)` for the distribution tests:
    /// the quorum-stream regime, slow bursts, and fast anti-correlated
    /// flapping (`1 − p_f − p_r < 0`).
    const CHAIN_PARAMS: [(f64, f64); 3] = [(0.15, 0.4), (0.03, 0.06), (0.7, 0.5)];

    #[test]
    fn bursty_backends_share_the_stationary_distribution() {
        // Gilbert-Elliott stationary P(good) = p_recover / (p_fail +
        // p_recover); both backends must hold it within 3σ. The
        // time-averaged good fraction of a two-state chain has variance
        // π(1 − π)/N · (1 + ρ)/(1 − ρ), with ρ = 1 − p_f − p_r its lag-1
        // correlation; the 38 chains are independent.
        let backends: [(&str, Backend); 2] = [
            ("counter", BurstyDelivery::new),
            ("per-round", BurstyDelivery::per_round),
        ];
        for (name, backend) in backends {
            for (seed, params) in (40..).zip(CHAIN_PARAMS) {
                let (p_fail, p_recover) = params;
                let series = bursty_series(backend, params, seed, 6_000);
                let samples: usize = series.iter().map(Vec::len).sum();
                let good = series.iter().flatten().filter(|&&g| g).count();
                let frac = good as f64 / samples as f64;
                let pi = p_recover / (p_fail + p_recover);
                let rho = 1.0 - p_fail - p_recover;
                let sigma = (pi * (1.0 - pi) / samples as f64 * (1.0 + rho) / (1.0 - rho)).sqrt();
                assert!(
                    (frac - pi).abs() < 3.0 * sigma,
                    "{name} {params:?}: good fraction {frac}, expected {pi} ± {sigma}"
                );
            }
        }
    }

    #[test]
    fn bursty_chain_run_lengths_are_geometric_means() {
        // A good run lasts Geometric(p_fail) rounds (mean 1/p_f, variance
        // (1 − p_f)/p_f²), a bad run Geometric(p_recover). Runs cut by
        // the ends of a series are dropped; means within 4σ.
        for (seed, params) in (50..).zip(CHAIN_PARAMS) {
            let (p_fail, p_recover) = params;
            let series = bursty_series(BurstyDelivery::new, params, seed, 6_000);
            let mut runs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            for states in &series {
                let mut start = 0;
                for t in 1..=states.len() {
                    if t == states.len() || states[t] != states[start] {
                        if start > 0 && t < states.len() {
                            runs[usize::from(states[start])].push((t - start) as f64);
                        }
                        start = t;
                    }
                }
            }
            for (lane, p) in [(1, p_fail), (0, p_recover)] {
                let lens = &runs[lane];
                let mean = lens.iter().sum::<f64>() / lens.len() as f64;
                let sigma = ((1.0 - p) / (p * p) / lens.len() as f64).sqrt();
                assert!(
                    (mean - 1.0 / p).abs() < 4.0 * sigma,
                    "({p_fail}, {p_recover}) lane {lane}: mean run {mean} over {} runs",
                    lens.len()
                );
            }
        }
    }

    #[test]
    fn bursty_chain_lag_one_autocorrelation() {
        // Consecutive states of one chain correlate at ρ = 1 − p_f − p_r.
        // Standard error ≈ √((1 − ρ²)/N) for N pairs; within 5σ.
        for (seed, params) in (60..).zip(CHAIN_PARAMS) {
            let (p_fail, p_recover) = params;
            let series = bursty_series(BurstyDelivery::new, params, seed, 6_000);
            let pairs: Vec<(bool, bool)> = series
                .iter()
                .flat_map(|states| states.windows(2).map(|w| (w[0], w[1])))
                .collect();
            let r = correlation(&pairs);
            let rho = 1.0 - p_fail - p_recover;
            let sigma = ((1.0 - rho * rho) / pairs.len() as f64).sqrt();
            assert!(
                (r - rho).abs() < 5.0 * sigma,
                "({p_fail}, {p_recover}): lag-1 r = {r}, expected {rho}"
            );
        }
    }

    #[test]
    fn bursty_chains_are_pure_functions_of_edge_and_round() {
        // A chain's state is a function of (seed, edge, round) alone:
        // one instance queried only at rounds 3 and 9 answers like one
        // queried every round, a query back into the past replays, and
        // reversing the sender order changes no delivery.
        let net = generators::line(12, 11);
        let senders: Vec<NodeId> = net.nodes().collect();
        let mut every = BurstyDelivery::new(0.3, 0.2, 17);
        let mut reversed = every.clone();
        let mut sparse = every.clone();
        let mut at_3 = Vec::new();
        for round in 1..=12 {
            let forward: Vec<Vec<NodeId>> = senders
                .iter()
                .map(|&u| deliveries_at(&mut every, &net, round, u))
                .collect();
            let mut backward: Vec<Vec<NodeId>> = senders
                .iter()
                .rev()
                .map(|&u| deliveries_at(&mut reversed, &net, round, u))
                .collect();
            backward.reverse();
            assert_eq!(forward, backward, "round {round}: sender order");
            if round == 3 || round == 9 {
                let queried: Vec<Vec<NodeId>> = senders
                    .iter()
                    .map(|&u| deliveries_at(&mut sparse, &net, round, u))
                    .collect();
                assert_eq!(queried, forward, "round {round}: round gaps");
                if round == 3 {
                    at_3 = forward;
                }
            }
        }
        let replayed: Vec<Vec<NodeId>> = senders
            .iter()
            .map(|&u| deliveries_at(&mut sparse, &net, 3, u))
            .collect();
        assert_eq!(replayed, at_3, "a query into the past replays");
    }

    #[test]
    fn bursty_clone_mid_run_continues_identically() {
        let net = generators::line(10, 9);
        let mut adv = BurstyDelivery::new(0.25, 0.35, 8);
        for round in 1..=15 {
            for u in net.nodes() {
                deliveries_at(&mut adv, &net, round, u);
            }
        }
        let mut twin = adv.clone();
        for round in (16..=60).step_by(3) {
            for u in net.nodes() {
                assert_eq!(
                    deliveries_at(&mut adv, &net, round, u),
                    deliveries_at(&mut twin, &net, round, u),
                    "round {round}, sender {u}"
                );
            }
        }
    }

    #[test]
    fn bursty_flat_backend_skips_round_gaps() {
        // Chains advance over arbitrary round gaps: query at round 1, then
        // jump to round 10_000 — the chain must catch up without hanging
        // and still flap.
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let full = net.unreliable_only_out(NodeId(0)).len();
        let mut adv = BurstyDelivery::new(0.3, 0.3, 9);
        let mut seen_partial = false;
        for round in [1u64, 10_000, 10_001, 50_000, 50_001] {
            let ctx = RoundContext {
                round,
                network: &net,
                assignment: &assignment,
                senders: &senders,
                informed: &informed,
            };
            if deliveries(&mut adv, &ctx, NodeId(0)).len() < full {
                seen_partial = true;
            }
        }
        assert!(seen_partial, "chains never left the good state");
    }

    #[test]
    fn bursty_extreme_probabilities() {
        let net = generators::line(8, 7);
        // p_fail = 0: links never leave the good state.
        let mut stable = BurstyDelivery::new(0.0, 0.5, 3);
        // p_fail = 1, p_recover = 1: links alternate every round.
        let mut flappy = BurstyDelivery::new(1.0, 1.0, 3);
        // p_fail = 1, p_recover = 0: links fail in round 1, for good.
        let mut dead = BurstyDelivery::new(1.0, 0.0, 3);
        for round in 1..=40u64 {
            for u in net.nodes() {
                let full = net.unreliable_only_out(u);
                assert_eq!(deliveries_at(&mut stable, &net, round, u), full);
                // Good before round 1, flips every round: bad on odd rounds.
                let flaps = deliveries_at(&mut flappy, &net, round, u);
                let expect = if round % 2 == 1 { &[][..] } else { full };
                assert_eq!(flaps, expect, "round {round}, sender {u}");
                assert!(deliveries_at(&mut dead, &net, round, u).is_empty());
            }
        }
    }

    /// A 4-node path dual graph with the given extra (gray) undirected
    /// pairs.
    fn path4(extra: &[(u32, u32)]) -> DualGraph {
        let mut g = dualgraph_net::Digraph::new(4);
        for i in 0..3u32 {
            g.add_undirected_edge(NodeId(i), NodeId(i + 1));
        }
        let mut total = g.clone();
        for &(u, v) in extra {
            total.add_undirected_edge(NodeId(u), NodeId(v));
        }
        DualGraph::new(g, total, NodeId(0)).unwrap()
    }

    /// Queries node 0's deliveries over `rounds`, switching the context
    /// network at `switch_round` (exclusive before, inclusive from).
    fn bursty_rounds(
        adv: &mut BurstyDelivery,
        before: &DualGraph,
        after: &DualGraph,
        switch_round: u64,
        rounds: u64,
    ) -> Vec<Vec<u32>> {
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::new(4);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        (1..=rounds)
            .map(|round| {
                let net = if round < switch_round { before } else { after };
                let ctx = RoundContext {
                    round,
                    network: net,
                    assignment: &assignment,
                    senders: &senders,
                    informed: &informed,
                };
                deliveries(adv, &ctx, NodeId(0))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bursty_chains_follow_edge_identity_across_epochs() {
        // Epoch A's gray pairs are {(0,2), (0,3)}; epoch B rewires (0,2)
        // away and adds (1,3). The directed edge (0,3) survives the churn
        // but moves from CSR position 1 of node 0's row to position 0.
        // Its coins are keyed by the pair and the schedule's identity map
        // keeps its memo, so across the rewire it runs exactly as on a
        // static network that contains it throughout.
        let a = path4(&[(0, 2), (0, 3)]);
        let b = path4(&[(0, 3), (1, 3)]);
        let schedule = dualgraph_net::TopologySchedule::new(vec![
            dualgraph_net::Epoch::new(a.clone(), 6),
            dualgraph_net::Epoch::new(b.clone(), 6),
        ])
        .unwrap();
        // A seed under which (0,2) and (0,3) disagree at the rewire, so
        // the keying is observable.
        let seed = 7;
        let by_identity = bursty_rounds(
            &mut BurstyDelivery::new(0.5, 0.5, seed),
            schedule.epoch(0).network(),
            schedule.epoch(1).network(),
            7,
            12,
        );
        let on_static = bursty_rounds(&mut BurstyDelivery::new(0.5, 0.5, seed), &a, &a, 7, 12);
        let chain_03 =
            |rows: &[Vec<u32>]| -> Vec<bool> { rows.iter().map(|row| row.contains(&3)).collect() };
        assert_eq!(chain_03(&by_identity), chain_03(&on_static));
        // The raw epoch-B graph has no id map, so (0,3) would index the
        // memo at its new CSR position — (0,2)'s — and resume from
        // (0,2)'s state: observably different after the rewire.
        let by_position = bursty_rounds(&mut BurstyDelivery::new(0.5, 0.5, seed), &a, &b, 7, 12);
        assert_eq!(by_identity[..6], by_position[..6]);
        assert_ne!(chain_03(&by_identity), chain_03(&by_position));
        // Golden: the counter-based chains' seeded stream. Change it only
        // deliberately, together with this pin.
        assert_eq!(
            by_identity,
            vec![
                vec![],
                vec![],
                vec![],
                vec![2, 3],
                vec![3],
                vec![3],
                vec![],
                vec![3],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
        );
    }

    #[test]
    fn with_random_cr4_delegates_deliveries_and_flips_coins() {
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        // Deliveries delegate to the inner adversary untouched.
        let mut wrapped = WithRandomCr4::new(FullDelivery::new(), 3);
        assert_eq!(
            deliveries(&mut wrapped, &ctx, NodeId(0)),
            net.unreliable_only_out(NodeId(0)).to_vec()
        );
        // CR4 resolutions follow the seeded coin: over many collisions —
        // at varying rounds and nodes, since the coin is a function of
        // both — both outcomes occur, deterministically in the seed.
        let reaching = [Message::signal(ProcessId(0)), Message::signal(ProcessId(1))];
        let run = |seed: u64| -> Vec<Cr4Resolution> {
            let mut adv = WithRandomCr4::new(BurstyDelivery::new(0.3, 0.3, 1), seed);
            (1..=20u64)
                .map(|round| {
                    let ctx = RoundContext {
                        round,
                        ..ctx_fixture(&net, &assignment, &senders, &informed)
                    };
                    adv.resolve_cr4(&ctx, NodeId((round % 6) as u32), &reaching)
                })
                .collect()
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert_ne!(a, run(10));
        assert!(a.contains(&Cr4Resolution::Silence));
        assert!(a.iter().any(|r| matches!(r, Cr4Resolution::Deliver(_))));
    }

    #[test]
    fn with_random_cr4_coin_repeats_and_ignores_call_order() {
        // The coin is a function of (key, round, node): asking twice
        // answers the same, and the same questions asked in reverse order
        // get the same answers.
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let reaching = [Message::signal(ProcessId(0)); 3];
        let questions: Vec<(u64, NodeId)> = (1..=10u64)
            .flat_map(|round| net.nodes().map(move |v| (round, v)))
            .collect();
        let ask = |adv: &mut WithRandomCr4<BurstyDelivery>, &(round, v): &(u64, NodeId)| {
            let ctx = RoundContext {
                round,
                network: &net,
                assignment: &assignment,
                senders: &[],
                informed: &informed,
            };
            adv.resolve_cr4(&ctx, v, &reaching)
        };
        let mut adv = WithRandomCr4::new(BurstyDelivery::new(0.3, 0.3, 1), 4);
        let mut other = adv.clone();
        let forward: Vec<Cr4Resolution> = questions.iter().map(|q| ask(&mut adv, q)).collect();
        let mut backward: Vec<Cr4Resolution> =
            questions.iter().rev().map(|q| ask(&mut other, q)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        let again: Vec<Cr4Resolution> = questions.iter().map(|q| ask(&mut adv, q)).collect();
        assert_eq!(forward, again);
    }

    #[test]
    fn cr4_default_is_silence() {
        let net = generators::line(3, 2);
        let assignment = Assignment::identity(3);
        let informed = FixedBitSet::new(3);
        let senders = [];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let reaching = [Message::signal(ProcessId(0)), Message::signal(ProcessId(1))];
        assert_eq!(
            ReliableOnly::new().resolve_cr4(&ctx, NodeId(2), &reaching),
            Cr4Resolution::Silence
        );
    }

    #[test]
    fn bursty_links_flap_and_replay() {
        let net = generators::line(6, 5);
        let assignment = Assignment::identity(6);
        let informed = FixedBitSet::new(6);
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let mut seen_partial = false;
        // High fail rate: over many rounds some deliveries must drop.
        let mut adv = BurstyDelivery::new(0.4, 0.4, 3);
        let full = net.unreliable_only_out(NodeId(0)).len();
        for round in 1..50 {
            let ctx = RoundContext {
                round,
                network: &net,
                assignment: &assignment,
                senders: &senders,
                informed: &informed,
            };
            if deliveries(&mut adv, &ctx, NodeId(0)).len() < full {
                seen_partial = true;
            }
        }
        assert!(seen_partial, "bursty adversary never dropped a delivery");
    }

    #[test]
    fn collision_seeker_jams_only_contested_uninformed_nodes() {
        // Line 0-1-2-3-4 with chords up to distance 4 in G'.
        let net = generators::line(5, 4);
        let assignment = Assignment::identity(5);
        let mut informed = FixedBitSet::new(5);
        informed.insert(0);
        informed.insert(1);
        let mut adv = CollisionSeeker::new();

        // Senders 0 and 1: node 2 is reached reliably by 1; node 2 is also
        // an unreliable target of 0 -> jam it. Node 3 is an unreliable
        // target of both but reached reliably by nobody -> leave silent.
        let senders = [
            (NodeId(0), Message::signal(ProcessId(0))),
            (NodeId(1), Message::signal(ProcessId(1))),
        ];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let d0 = deliveries(&mut adv, &ctx, NodeId(0));
        assert!(d0.contains(&NodeId(2)), "jam the contested node 2: {d0:?}");
        assert!(!d0.contains(&NodeId(3)), "never help node 3: {d0:?}");
        assert!(!d0.contains(&NodeId(4)));

        // Lone sender: nothing to jam.
        let senders = [(NodeId(0), Message::signal(ProcessId(0)))];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let mut adv = CollisionSeeker::new();
        assert!(deliveries(&mut adv, &ctx, NodeId(0)).is_empty());
    }

    #[test]
    fn collision_seeker_ignores_informed_targets() {
        let net = generators::line(4, 3);
        let assignment = Assignment::identity(4);
        let informed = FixedBitSet::full(4);
        let senders = [
            (NodeId(0), Message::signal(ProcessId(0))),
            (NodeId(1), Message::signal(ProcessId(1))),
        ];
        let ctx = ctx_fixture(&net, &assignment, &senders, &informed);
        let mut adv = CollisionSeeker::new();
        assert!(deliveries(&mut adv, &ctx, NodeId(0)).is_empty());
        assert!(deliveries(&mut adv, &ctx, NodeId(1)).is_empty());
    }

    /// The counts-based filter `CollisionSeeker` ran before its jam set:
    /// per-node reliable-reach counts, cached per round, then a scan of
    /// the sender's whole `G′ ∖ G` row.
    #[derive(Default)]
    struct CountsModel {
        cached_round: Option<u64>,
        counts: Vec<u32>,
    }

    impl CountsModel {
        fn deliveries(&mut self, ctx: &RoundContext<'_>, sender: NodeId, out: &mut Vec<NodeId>) {
            if self.cached_round != Some(ctx.round) {
                self.counts.clear();
                self.counts.resize(ctx.network.len(), 0);
                for &(u, _) in ctx.senders {
                    for v in ctx.network.reliable_csr().row(u) {
                        self.counts[v.index()] += 1;
                    }
                }
                self.cached_round = Some(ctx.round);
            }
            out.extend(
                ctx.network
                    .unreliable_only_out(sender)
                    .iter()
                    .copied()
                    .filter(|v| !ctx.informed.contains(v.index()) && self.counts[v.index()] >= 1),
            );
        }
    }

    #[test]
    fn collision_seeker_matches_the_counts_model() {
        let mut rng = SmallRng::seed_from_u64(0x5EE_CE12);
        // Calls that took the jam walk / the row scan.
        let mut branches = [0usize; 2];
        for case in 0..24u64 {
            let net = if case % 2 == 0 {
                generators::er_dual(
                    generators::ErDualParams {
                        n: 40 + 7 * case as usize,
                        reliable_p: 0.05,
                        unreliable_p: 0.4,
                    },
                    case,
                )
            } else {
                generators::layered_pairs(21 + 6 * case as usize)
            };
            let n = net.len();
            let assignment = Assignment::identity(n);
            let mut adv = CollisionSeeker::new();
            let mut model = CountsModel::default();
            for round in 1..=8 {
                let informed_p = rng.gen_range(0.0..1.0);
                let sender_p = rng.gen_range(0.0..0.6);
                let informed =
                    FixedBitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(informed_p)));
                let senders: Vec<(NodeId, Message)> = (0..n)
                    .filter(|_| rng.gen_bool(sender_p))
                    .map(|u| {
                        (
                            NodeId::from_index(u),
                            Message::signal(ProcessId::from_index(u)),
                        )
                    })
                    .collect();
                let ctx = RoundContext {
                    round,
                    network: &net,
                    assignment: &assignment,
                    senders: &senders,
                    informed: &informed,
                };
                // Every sender twice: the second pass reuses the round's
                // cached jam set. One shared buffer, as the executor
                // passes it.
                let (mut got, mut want) = (vec![NodeId(u32::MAX)], vec![NodeId(u32::MAX)]);
                for _ in 0..2 {
                    for &(u, _) in &senders {
                        adv.unreliable_deliveries(&ctx, u, &mut got);
                        model.deliveries(&ctx, u, &mut want);
                        let row = net.unreliable_only_out(u).len();
                        branches[usize::from(!walk_jam(adv.jam_len, row))] += 1;
                    }
                }
                assert_eq!(got, want, "case {case}, round {round}");
            }
        }
        assert!(
            branches.iter().all(|&b| b > 100),
            "branch coverage {branches:?}"
        );
    }

    #[test]
    fn with_assignment_overrides() {
        let net = generators::line(3, 2);
        let mut adv = WithAssignment::new(
            ReliableOnly::new(),
            vec![ProcessId(2), ProcessId(1), ProcessId(0)],
        )
        .unwrap();
        let a = adv.assign(&net, 3);
        assert_eq!(a.process_at(NodeId(0)), ProcessId(2));
        // A non-permutation is refused when the wrapper is built.
        for bad in [
            vec![ProcessId(0), ProcessId(0)],
            vec![ProcessId(2), ProcessId(0)],
        ] {
            assert_eq!(
                WithAssignment::new(ReliableOnly::new(), bad).unwrap_err(),
                BuildAssignmentError::NotAPermutation
            );
        }
    }

    #[test]
    fn lone_sender_helper() {
        let net = generators::line(3, 2);
        let assignment = Assignment::identity(3);
        let informed = FixedBitSet::new(3);
        let one = [(NodeId(1), Message::signal(ProcessId(1)))];
        let ctx = ctx_fixture(&net, &assignment, &one, &informed);
        assert_eq!(ctx.lone_sender().map(|s| s.0), Some(NodeId(1)));
        let two = [
            (NodeId(0), Message::signal(ProcessId(0))),
            (NodeId(1), Message::signal(ProcessId(1))),
        ];
        let ctx = ctx_fixture(&net, &assignment, &two, &informed);
        assert!(ctx.lone_sender().is_none());
    }
}
