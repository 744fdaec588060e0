//! Quorum-certified reliable broadcast over the radio medium: the
//! Byzantine-tolerant counterpart of pipelined flooding.
//!
//! The dynamics subsystem's Byzantine roles ([`NodeRole::Equivocator`],
//! [`NodeRole::Forger`]) can *lie*: mint payload ids the environment never
//! introduced, or show different payload sets to different neighbors in
//! the same round. Plain flooding relays anything it hears, so a single
//! forger corrupts every known set downstream. [`QuorumProcess`] instead
//! certifies each payload before relaying it, in the style of Bracha's
//! authenticated-echo broadcast adapted to a multi-hop radio network with
//! **locally bounded** Byzantine placements (at most `f` Byzantine
//! reliable in-neighbors per correct node — Bonomi/Farina/Tixeuil, and
//! the Koo/CPA certified-propagation line; see PAPERS.md):
//!
//! * **INIT** — the payload's *origin* (the process the environment hands
//!   the payload to; origin identities are common knowledge, the standard
//!   authenticated-broadcast assumption) starts transmitting the payload
//!   id and its ready marker.
//! * **ECHO** — transmitting data id `p` *is* an echo of `p`: correct
//!   nodes transmit `p` only once they have accepted it, so every
//!   distinct correct sender heard carrying `p` attests a certified copy.
//!   Each node counts the distinct senders heard carrying `p` (the
//!   per-payload per-neighbor echo counters).
//! * **READY** — an accepted payload `p` is also attested through a
//!   dedicated marker id `k + p` in the upper half of the stream's id
//!   range; ready attestations count their own distinct senders and
//!   give the usual Bracha amplification lane.
//!
//! A node **accepts** payload `p` (latched — at most once, the "no
//! duplication" clause by construction) when any of:
//!
//! 1. the environment input `p` at this node (it is the origin);
//! 2. it heard data `p` directly from `p`'s origin (INIT);
//! 3. it heard data `p` from ≥ `echo_quorum` distinct senders;
//! 4. it heard `p`'s ready marker from ≥ `ready_quorum` distinct senders.
//!
//! With both quorums at the default `f + 1` and at most `f` Byzantine
//! reliable in-neighbors per correct node, every quorum contains at least
//! one *correct* attester, and correct nodes attest only certified
//! payloads — so certification chains back to the origin hop by hop and a
//! forged id (no origin, at most `f` Byzantine attesters per
//! neighborhood) can never be accepted by a correct node: the "no
//! creation" clause. Agreement among correct nodes additionally needs the
//! reliable subgraph between them to stay connected with enough
//! sender-diversity to fill quorums (the Maurer/Tixeuil loosely-connected
//! criteria); the property suite constructs such placements.
//!
//! The marker encoding halves the usable stream width: a `k`-payload
//! quorum stream needs ids `0..2k`, so `k ≤ `[`MAX_PAYLOADS`]` / 2`.
//!
//! **Medium sharing.** Under CR2–CR4 a sender cannot sense the medium
//! while transmitting (it hears only its own message), so a node that
//! transmitted its accepted set *every* round would go deaf the moment
//! it accepts its first payload — and an equivocator can induce partial
//! acceptance downstream precisely to exploit that. An accepted node
//! therefore transmits with probability ½ per round from a private,
//! id-seeded coin (the Decay-style randomized medium access of radio
//! broadcast algorithms): every in-neighbor/listener pair gets
//! infinitely many rounds with the neighbor on air and the listener
//! silent, so attestation counts keep growing wherever delivery allows.

use std::sync::Arc;

use dualgraph_net::DualGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::collision::Reception;
use crate::dynamics::NodeRole;
use crate::message::{Message, PayloadId, ProcessId};
use crate::payload::{PayloadSet, MAX_PAYLOADS};
use crate::process::{ActivationCause, Process};

/// Accept-threshold parameters of [`QuorumProcess`], derived from the
/// local Byzantine bound `f` (the maximum number of Byzantine reliable
/// in-neighbors any correct node has).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumPolicy {
    /// The local Byzantine bound the thresholds defend against.
    pub f: u32,
    /// Distinct data-carrying senders required to accept (echo lane).
    pub echo_quorum: u32,
    /// Distinct ready-marker senders required to accept (ready lane).
    pub ready_quorum: u32,
}

impl QuorumPolicy {
    /// The canonical thresholds for local bound `f`: both quorums at
    /// `f + 1`, so every filled quorum contains a correct attester.
    pub fn for_bound(f: u32) -> Self {
        QuorumPolicy {
            f,
            echo_quorum: f + 1,
            ready_quorum: f + 1,
        }
    }

    /// Short diagnostic name (used by bench reports).
    pub fn name(&self) -> String {
        format!(
            "quorum(f={},echo≥{},ready≥{})",
            self.f, self.echo_quorum, self.ready_quorum
        )
    }
}

/// Which protocol ids `0..2k` each sender has been heard carrying: one
/// bit-packed set per sender, plus the distinct-attester count per id
/// (data ids count echoes, markers `k + p` count readies). `2k·n` bits,
/// the same footprint as a per-id sender set.
#[derive(Debug, Clone)]
struct HeardSets {
    /// Words per sender: `⌈2k/64⌉`, at most the two of a [`PayloadSet`].
    words_per: usize,
    /// The protocol range `0..2k` as payload words.
    mask: [u64; 2],
    heard: Vec<u64>,
    counts: Vec<u32>,
}

impl HeardSets {
    fn new(k: usize, n: usize) -> Self {
        let ids = 2 * k;
        let words_per = ids.div_ceil(64);
        let first = PayloadSet::first_k(ids);
        HeardSets {
            words_per,
            mask: *first.words(),
            heard: vec![0; n * words_per],
            counts: vec![0; ids],
        }
    }

    /// Marks every protocol id of `payloads` as heard from `sender` and
    /// returns the ids not heard from `sender` before: its fresh
    /// attestations, each worth one more distinct attester. The caller
    /// bumps their counts.
    #[inline]
    fn mark_heard(&mut self, sender: ProcessId, payloads: &PayloadSet) -> PayloadSet {
        let base = sender.index() * self.words_per;
        let heard = &mut self.heard[base..base + self.words_per];
        let mut fresh = [0u64; 2];
        for ((f, seen), (&word, &mask)) in fresh
            .iter_mut()
            .zip(heard.iter_mut())
            .zip(payloads.words().iter().zip(&self.mask))
        {
            *f = word & mask & !*seen;
            *seen |= *f;
        }
        let mut out = PayloadSet::EMPTY;
        out.or_words(&fresh);
        out
    }
}

/// The quorum-certified broadcast automaton (see the module docs).
///
/// Construction needs the stream's payload count `k`, the accept
/// thresholds, and the per-payload **origin** process identities (common
/// knowledge, shared across all `n` automata). Once a payload is
/// accepted the node transmits its full accepted set — data ids plus
/// ready markers — every round, pipelined like
/// [`PipelinedFlooder`][crate::automata::PipelinedFlooder].
#[derive(Debug, Clone)]
pub struct QuorumProcess {
    id: ProcessId,
    k: usize,
    policy: QuorumPolicy,
    origins: Arc<[ProcessId]>,
    attesters: HeardSets,
    accepted: PayloadSet,
    accept_count: u32,
    /// Payloads whose echo lane reached `echo_quorum` (latched): the
    /// observability layer diffs this against a snapshot to surface
    /// [`QuorumStage::Echo`][crate::QuorumStage::Echo] crossings without
    /// touching the accept rules.
    echo_certified: PayloadSet,
    /// Payloads whose ready lane reached `ready_quorum` (latched).
    ready_certified: PayloadSet,
    /// The medium-sharing coin: a CR2–CR4 sender cannot hear the medium
    /// while transmitting, so an always-on transmitter would go deaf the
    /// moment it accepts its first payload — and an equivocator can
    /// *induce* partial acceptance to exploit exactly that. Flipping a
    /// fair coin each round keeps every (in-neighbor, listener) pair
    /// ergodic: both the transmit and the listen side come up
    /// infinitely often. Seeded from the process id, so executions are
    /// deterministic and engine-independent.
    coin: SmallRng,
}

impl QuorumProcess {
    /// Creates the automaton for one node of an `n`-process execution.
    ///
    /// # Panics
    ///
    /// Panics if `origins.len() * 2 > MAX_PAYLOADS` (data ids and ready
    /// markers must both fit the dense universe) or `origins` is empty.
    pub fn new(id: ProcessId, n: usize, policy: QuorumPolicy, origins: Arc<[ProcessId]>) -> Self {
        let k = origins.len();
        assert!(k >= 1, "quorum stream needs at least one payload");
        assert!(
            2 * k <= MAX_PAYLOADS,
            "quorum stream width {k} exceeds {}: ready markers use ids k..2k",
            MAX_PAYLOADS / 2
        );
        QuorumProcess {
            id,
            k,
            policy,
            origins,
            attesters: HeardSets::new(k, n),
            accepted: PayloadSet::EMPTY,
            accept_count: 0,
            echo_certified: PayloadSet::EMPTY,
            ready_certified: PayloadSet::EMPTY,
            coin: SmallRng::seed_from_u64(crate::rng::derive_seed(0x51C8, u64::from(id.0))),
        }
    }

    /// The `n` automata for one execution, ids `0..n`, as enum-dispatched
    /// slots. `origins[p]` is the process the environment hands payload
    /// `p` to.
    pub fn slots(n: usize, policy: QuorumPolicy, origins: &[ProcessId]) -> Vec<crate::ProcessSlot> {
        let origins: Arc<[ProcessId]> = origins.into();
        (0..n)
            .map(|i| {
                crate::ProcessSlot::Quorum(QuorumProcess::new(
                    ProcessId::from_index(i),
                    n,
                    policy,
                    Arc::clone(&origins),
                ))
            })
            .collect()
    }

    /// The node's accepted payload set (latched; data ids only).
    pub fn accepted(&self) -> PayloadSet {
        self.accepted
    }

    /// The accept thresholds in force.
    pub fn policy(&self) -> QuorumPolicy {
        self.policy
    }

    /// Payloads whose echo lane has reached `echo_quorum` distinct
    /// attesters (latched).
    pub fn echo_certified(&self) -> PayloadSet {
        self.echo_certified
    }

    /// Payloads whose ready lane has reached `ready_quorum` distinct
    /// attesters (latched).
    pub fn ready_certified(&self) -> PayloadSet {
        self.ready_certified
    }

    /// Distinct senders heard carrying data id `p` so far.
    pub fn echo_count(&self, p: PayloadId) -> u32 {
        self.attesters.counts[p.0 as usize]
    }

    /// Distinct senders heard carrying `p`'s ready marker so far.
    pub fn ready_count(&self, p: PayloadId) -> u32 {
        self.attesters.counts[self.k + p.0 as usize]
    }

    fn accept(&mut self, p: usize) {
        if self.accepted.insert(PayloadId(p as u64)) {
            self.accept_count += 1;
        }
    }

    /// Absorbs one physically received message: counts its fresh
    /// attestations and applies the accept rules to those ids only. An
    /// id already heard from this sender moves no count, and the rules
    /// for that count already ran when it last moved. Ids ≥ 2k are junk
    /// outside the protocol and never counted, though the engine's known
    /// record absorbs them (they were physically received) — the
    /// spam-proof informed contract applies.
    fn absorb(&mut self, m: &Message) {
        let fresh = self.attesters.mark_heard(m.sender, &m.payloads);
        if fresh.is_empty() {
            return;
        }
        for id in fresh.iter() {
            let i = id.0 as usize;
            self.attesters.counts[i] += 1;
            let count = self.attesters.counts[i];
            if i < self.k {
                // Data id = echo attestation; direct-from-origin is INIT.
                if count >= self.policy.echo_quorum {
                    self.echo_certified.insert(id);
                }
                if m.sender == self.origins[i] || count >= self.policy.echo_quorum {
                    self.accept(i);
                }
            } else if count >= self.policy.ready_quorum {
                let p = i - self.k;
                self.ready_certified.insert(PayloadId(p as u64));
                self.accept(p);
            }
        }
    }
}

impl Process for QuorumProcess {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        match cause {
            ActivationCause::Input(m) => {
                for id in m.payloads.iter() {
                    if (id.0 as usize) < self.k {
                        self.accept(id.0 as usize);
                    }
                }
            }
            ActivationCause::Reception(m) => self.absorb(&m),
            ActivationCause::SynchronousStart => {}
        }
    }

    fn on_input(&mut self, payload: PayloadId) {
        // Environment input: this node is the payload's origin — genuine
        // by definition, accepted immediately (the INIT phase).
        if (payload.0 as usize) < self.k {
            self.accept(payload.0 as usize);
        }
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        if self.accepted.is_empty() || !self.coin.gen_bool(0.5) {
            return None;
        }
        // Ready markers `k + p`: the accepted ids (all below k ≤ 64)
        // shifted up by k.
        let [lo, hi] = *self.accepted.words();
        let markers = ((u128::from(hi) << 64) | u128::from(lo)) << self.k;
        let mut tx = self.accepted;
        tx.or_words(&[markers as u64, (markers >> 64) as u64]);
        Some(Message::with_payloads(self.id, tx))
    }

    fn receive(&mut self, _local_round: u64, reception: Reception) {
        if let Reception::Message(m) = reception {
            self.absorb(&m);
        }
    }

    fn has_payload(&self) -> bool {
        !self.accepted.is_empty()
    }

    fn accepted_payloads(&self) -> Option<PayloadSet> {
        Some(self.accepted)
    }

    fn certified_payloads(&self) -> Option<(PayloadSet, PayloadSet)> {
        Some((self.echo_certified, self.ready_certified))
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// The observed local Byzantine bound of a placement: the maximum, over
/// correct nodes `v`, of the number of Byzantine
/// ([`NodeRole::is_byzantine`]) reliable in-neighbors of `v`. The
/// property suite and the bench derive `f` from the placement with this,
/// then hand [`QuorumPolicy::for_bound`] the result — the placement is
/// `f`-locally-bounded by construction.
pub fn local_byzantine_bound(net: &DualGraph, roles: &[NodeRole]) -> u32 {
    let mut best = 0u32;
    for v in net.nodes() {
        if !roles[v.index()].is_correct() {
            continue;
        }
        let byz = net
            .reliable_in_csr()
            .row(v)
            .iter()
            .filter(|u| roles[u.index()].is_byzantine())
            .count() as u32;
        best = best.max(byz);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn origins(k: usize, origin: ProcessId) -> Arc<[ProcessId]> {
        vec![origin; k].into()
    }

    fn proc(id: u32, n: usize, f: u32, k: usize) -> QuorumProcess {
        QuorumProcess::new(
            ProcessId(id),
            n,
            QuorumPolicy::for_bound(f),
            origins(k, ProcessId(0)),
        )
    }

    fn data(sender: u32, ids: &[u64]) -> Message {
        Message::with_payloads(
            ProcessId(sender),
            ids.iter().map(|&i| PayloadId(i)).collect(),
        )
    }

    /// First `Some` from the transmit coin within a generous window.
    fn eventual_tx(p: &mut QuorumProcess) -> Message {
        (1..200)
            .find_map(|r| p.transmit(r))
            .expect("the fair coin transmits within 200 rounds")
    }

    #[test]
    fn origin_accepts_its_own_input_and_transmits_markers() {
        let mut p = proc(0, 4, 1, 3);
        assert_eq!(p.transmit(1), None);
        p.on_input(PayloadId(1));
        assert!(p.accepted().contains(PayloadId(1)));
        let m = eventual_tx(&mut p);
        assert!(m.payloads.contains(PayloadId(1)), "data id");
        assert!(m.payloads.contains(PayloadId(4)), "ready marker k+p");
        assert_eq!(m.payloads.len(), 2);
        assert_eq!(p.accepted_payloads(), Some(p.accepted()));
        assert!(p.has_payload());
    }

    #[test]
    fn direct_from_origin_is_init_and_accepts() {
        let mut p = proc(3, 4, 2, 2);
        p.receive(1, Reception::Message(data(0, &[1])));
        assert!(
            p.accepted().contains(PayloadId(1)),
            "origin INIT accepts regardless of f"
        );
    }

    #[test]
    fn echo_quorum_accepts_at_f_plus_one_distinct_senders() {
        let mut p = proc(3, 8, 1, 2);
        p.receive(1, Reception::Message(data(5, &[0])));
        assert!(!p.accepted().contains(PayloadId(0)), "one attester ≤ f");
        // The same sender again: still one distinct attester.
        p.receive(2, Reception::Message(data(5, &[0])));
        assert_eq!(p.echo_count(PayloadId(0)), 1);
        assert!(!p.accepted().contains(PayloadId(0)));
        p.receive(3, Reception::Message(data(6, &[0])));
        assert_eq!(p.echo_count(PayloadId(0)), 2);
        assert!(p.accepted().contains(PayloadId(0)), "f+1 distinct senders");
    }

    #[test]
    fn ready_quorum_accepts_via_markers() {
        let mut p = proc(3, 8, 1, 2);
        // Ready markers for payload 1 are id k+1 = 3.
        p.receive(1, Reception::Message(data(5, &[3])));
        p.receive(2, Reception::Message(data(6, &[3])));
        assert_eq!(p.ready_count(PayloadId(1)), 2);
        assert!(p.accepted().contains(PayloadId(1)));
        assert_eq!(p.echo_count(PayloadId(1)), 0);
    }

    #[test]
    fn junk_ids_outside_the_protocol_are_ignored() {
        let mut p = proc(3, 8, 0, 2);
        p.receive(1, Reception::Message(data(5, &[4, 7, 120])));
        assert!(p.accepted().is_empty());
        assert_eq!(p.transmit(2), None);
    }

    #[test]
    fn acceptance_latches_no_duplication() {
        let mut p = proc(3, 8, 0, 1);
        p.receive(1, Reception::Message(data(4, &[0])));
        assert!(p.accepted().contains(PayloadId(0)));
        let before = p.accepted();
        p.receive(2, Reception::Message(data(6, &[0, 1])));
        p.on_input(PayloadId(0));
        assert_eq!(p.accepted(), before, "accept is a latch");
        assert_eq!(p.accept_count, 1);
    }

    #[test]
    fn activation_by_reception_counts_attesters() {
        let mut p = proc(2, 4, 0, 2);
        p.on_activate(ActivationCause::Reception(data(3, &[1])));
        assert!(
            p.accepted().contains(PayloadId(1)),
            "f = 0: single attester suffices"
        );
        let mut q = proc(2, 4, 1, 2);
        q.on_activate(ActivationCause::SynchronousStart);
        assert!(q.accepted().is_empty());
    }

    #[test]
    fn forged_ids_with_f_bounded_attesters_never_accept() {
        // f = 1: a lone Byzantine attester (even repeating every round)
        // can never fill a quorum for a payload whose origin is elsewhere.
        let mut p = proc(3, 8, 1, 2);
        for round in 1..50 {
            p.receive(round, Reception::Message(data(7, &[1, 3])));
        }
        assert!(p.accepted().is_empty(), "no creation under the local bound");
    }

    #[test]
    #[should_panic(expected = "ready markers")]
    fn oversized_stream_panics() {
        let o: Arc<[ProcessId]> = vec![ProcessId(0); 65].into();
        QuorumProcess::new(ProcessId(0), 4, QuorumPolicy::for_bound(0), o);
    }

    #[test]
    fn local_bound_counts_byzantine_reliable_in_neighbors() {
        use dualgraph_net::generators;
        let net = generators::line(5, 1); // 0-1-2-3-4, reliable line
        let mut roles = vec![NodeRole::Correct; 5];
        roles[1] = NodeRole::Equivocator {
            even: PayloadSet::EMPTY,
            odd: PayloadSet::EMPTY,
        };
        roles[3] = NodeRole::Forger(PayloadSet::only(PayloadId(9)));
        // Node 2 sees both Byzantine neighbors; nodes 0 and 4 see one.
        assert_eq!(local_byzantine_bound(&net, &roles), 2);
        roles[2] = NodeRole::Crashed;
        // Node 2 no longer counts (not correct); max over correct is 1.
        assert_eq!(local_byzantine_bound(&net, &roles), 1);
    }

    /// The accept rules spelled out naively: one `BTreeSet` of senders
    /// per protocol id, and every rule re-run for every id of every
    /// reception.
    struct NaiveQuorum {
        k: usize,
        policy: QuorumPolicy,
        origins: Vec<ProcessId>,
        senders: Vec<BTreeSet<ProcessId>>,
        accepted: BTreeSet<u64>,
        echo_certified: BTreeSet<u64>,
        ready_certified: BTreeSet<u64>,
    }

    impl NaiveQuorum {
        fn input(&mut self, p: u64) {
            if (p as usize) < self.k {
                self.accepted.insert(p);
            }
        }

        fn receive(&mut self, m: &Message) {
            for id in m.payloads.iter() {
                let i = id.0 as usize;
                if i >= 2 * self.k {
                    continue;
                }
                self.senders[i].insert(m.sender);
                let count = self.senders[i].len() as u32;
                if i < self.k {
                    if count >= self.policy.echo_quorum {
                        self.echo_certified.insert(id.0);
                    }
                    if m.sender == self.origins[i] || count >= self.policy.echo_quorum {
                        self.accepted.insert(id.0);
                    }
                } else if count >= self.policy.ready_quorum {
                    let p = (i - self.k) as u64;
                    self.ready_certified.insert(p);
                    self.accepted.insert(p);
                }
            }
        }
    }

    fn ids(set: PayloadSet) -> BTreeSet<u64> {
        set.iter().map(|p| p.0).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `QuorumProcess` (fresh-only attestations over per-sender heard
        /// sets) matches the naive model after every step: receptions
        /// with repeated senders, junk ids ≥ 2k, equivocators alternating
        /// two faces, activations, and interleaved environment inputs.
        #[test]
        fn quorum_process_matches_the_naive_model(
            n in 2usize..140,
            k in 1usize..65,
            quorums in (0u32..4, 0u32..4),
            origin_picks in prop::collection::vec(0usize..140, 64..65),
            faces in prop::collection::vec((any::<u64>(), any::<u64>()), 6..7),
            steps in prop::collection::vec((0u32..24, any::<u64>(), any::<u64>()), 0..90),
        ) {
            let policy = QuorumPolicy { f: 0, echo_quorum: quorums.0, ready_quorum: quorums.1 };
            let origins: Vec<ProcessId> =
                origin_picks[..k].iter().map(|&o| ProcessId((o % n) as u32)).collect();
            let mut real = QuorumProcess::new(ProcessId(0), n, policy, origins.clone().into());
            let mut model = NaiveQuorum {
                k,
                policy,
                origins,
                senders: vec![BTreeSet::new(); 2 * k],
                accepted: BTreeSet::new(),
                echo_certified: BTreeSet::new(),
                ready_certified: BTreeSet::new(),
            };
            // Three equivocators (senders 0..3 mod n), each alternating
            // between two fixed faces.
            let mut sends = [0usize; 3];
            for (round, &(pick, a, b)) in steps.iter().enumerate() {
                let round = round as u64 + 1;
                // Sparse random sets that reach past 2k into junk ids.
                let random = || {
                    let mut set = PayloadSet::EMPTY;
                    set.or_words(&[a & b, (a ^ b) & (b >> 7)]);
                    set
                };
                match pick {
                    0 => {
                        let p = a % (k as u64 + 4);
                        real.on_input(PayloadId(p));
                        model.input(p);
                    }
                    1 => {
                        let m = Message::with_payloads(ProcessId(0), random());
                        real.on_activate(ActivationCause::Input(m));
                        for p in m.payloads.iter() {
                            model.input(p.0);
                        }
                    }
                    _ => {
                        let m = if pick < 8 {
                            let e = (pick - 2) as usize % 3;
                            let face = faces[2 * e + sends[e] % 2];
                            sends[e] += 1;
                            let mut set = PayloadSet::EMPTY;
                            set.or_words(&[face.0 & face.1, face.1 & (face.0 >> 3)]);
                            Message::with_payloads(ProcessId((e % n) as u32), set)
                        } else {
                            // A small pool of honest senders, so they repeat.
                            let sender = (pick as usize + a as usize % 5) % n;
                            Message::with_payloads(ProcessId(sender as u32), random())
                        };
                        if pick == 2 {
                            real.on_activate(ActivationCause::Reception(m));
                        } else {
                            real.receive(round, Reception::Message(m));
                        }
                        model.receive(&m);
                    }
                }
                for p in 0..k as u64 {
                    prop_assert_eq!(
                        real.echo_count(PayloadId(p)),
                        model.senders[p as usize].len() as u32,
                        "echo count of {} after step {}", p, round
                    );
                    prop_assert_eq!(
                        real.ready_count(PayloadId(p)),
                        model.senders[k + p as usize].len() as u32,
                        "ready count of {} after step {}", p, round
                    );
                }
                prop_assert_eq!(ids(real.accepted()), model.accepted.clone());
                prop_assert_eq!(real.accept_count as usize, model.accepted.len());
                prop_assert_eq!(ids(real.echo_certified()), model.echo_certified.clone());
                prop_assert_eq!(ids(real.ready_certified()), model.ready_certified.clone());
                // A transmission carries the accepted ids plus their markers.
                if let Some(tx) = real.transmit(round) {
                    let expect: BTreeSet<u64> = model
                        .accepted
                        .iter()
                        .flat_map(|&p| [p, p + k as u64])
                        .collect();
                    prop_assert_eq!(ids(tx.payloads), expect);
                }
            }
        }
    }

    #[test]
    fn policy_name_and_defaults() {
        let p = QuorumPolicy::for_bound(2);
        assert_eq!(p.echo_quorum, 3);
        assert_eq!(p.ready_quorum, 3);
        assert!(p.name().contains("f=2"));
    }
}
