//! The three workloads: how each builds its inputs, runs one op, runs one
//! op with spans, and checks an op against its oracle.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dualgraph_broadcast::algorithms::{period_for, BroadcastAlgorithm, Harmonic};
use dualgraph_broadcast::analysis::harmonic_number;
use dualgraph_broadcast::runner::{run_broadcast, RunConfig};
use dualgraph_broadcast::stream::{
    Arrivals, DynamicsConfig, SourcePlacement, StreamAlgorithm, StreamConfig, StreamOutcome,
    StreamSession,
};
use dualgraph_net::{generators, DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::{
    local_byzantine_bound, Adversary, BroadcastOutcome, BurstyDelivery, CollisionSeeker,
    DeliveryVerdict, Executor, ExecutorConfig, FaultPlan, Flooder, HealthConfig, Histogram,
    NodeRole, PayloadId, PayloadSet, QuorumPolicy, RandomDelivery, ReferenceExecutor,
    ReliabilityBackend, RoundSummary, ShardedExecutor, WithRandomCr4,
};

use crate::probe::{AdversaryStats, Probe, Shared};
use crate::{mix, Parts, Reference, Size};

/// The outcome of one op as the loop sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The op passed its output check.
    pub ok: bool,
    /// Simulated rounds it executed.
    pub rounds: u64,
}

/// Simulated counts of one op, summed over ops by the traced loop. They
/// depend only on the seed, so they repeat bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub rounds: f64,
    pub sends: f64,
    pub collisions: f64,
    pub senders: f64,
    pub informs: f64,
    pub adv_calls: f64,
    pub adv_delivered: f64,
    pub cr4_calls: f64,
    pub settle_rounds: f64,
    pub mac_acked: f64,
    pub ack_latency_mean: f64,
    pub pending_acks_peak: f64,
    pub quorum_delivered: f64,
    pub safety_violations: f64,
    pub accept_round_mean: f64,
    pub epoch_switches: f64,
}

impl Counts {
    /// Adds `other` field by field.
    pub fn add(&mut self, o: &Counts) {
        let pairs: [(&mut f64, f64); 16] = [
            (&mut self.rounds, o.rounds),
            (&mut self.sends, o.sends),
            (&mut self.collisions, o.collisions),
            (&mut self.senders, o.senders),
            (&mut self.informs, o.informs),
            (&mut self.adv_calls, o.adv_calls),
            (&mut self.adv_delivered, o.adv_delivered),
            (&mut self.cr4_calls, o.cr4_calls),
            (&mut self.settle_rounds, o.settle_rounds),
            (&mut self.mac_acked, o.mac_acked),
            (&mut self.ack_latency_mean, o.ack_latency_mean),
            (&mut self.pending_acks_peak, o.pending_acks_peak),
            (&mut self.quorum_delivered, o.quorum_delivered),
            (&mut self.safety_violations, o.safety_violations),
            (&mut self.accept_round_mean, o.accept_round_mean),
            (&mut self.epoch_switches, o.epoch_switches),
        ];
        for (a, b) in pairs {
            *a += b;
        }
    }
}

/// What one traced op recorded: its build and step spans, the adversary
/// brackets inside the steps, and its simulated counts.
#[derive(Debug, Default)]
pub struct Spans {
    pub build_ns: u64,
    pub step_ns: u64,
    pub steps: u64,
    pub adversary: AdversaryStats,
    pub counts: Counts,
}

/// One workload.
pub trait Bench: Sized {
    /// Worker threads one op uses.
    const THREADS: usize;
    /// The host-speed reference op times are scaled by.
    const OP_REFERENCE: Reference;
    /// The host-speed reference set-up parts are scaled by.
    const SETUP_REFERENCE: Reference;
    /// Untimed ops before the oracle check and the timed loop.
    const WARMUP: u64;
    /// Timed input builds per run (`setup_s` sums each part's median).
    const SETUP_REPS: usize;
    /// `true` when an op's build and steps are the stream layer's
    /// (`StreamSession`), `false` when they are the engine's.
    const STREAM: bool;

    /// Builds the inputs from `seed`: the generator, the CSR freeze, and
    /// whatever else the workload derives before its first op, each part
    /// built inside `parts.time`. Also returns the seconds spent in
    /// network-generator calls.
    fn setup(seed: u64, size: Size, parts: &mut Parts) -> (Self, f64);
    /// Runs one op; `budget` overrides the round budget.
    fn op(&self, index: u64, seed: u64, budget: Option<u64>) -> Op;
    /// Runs the same op as [`Bench::op`] with spans, recording every step
    /// time (ns) into `steps`.
    fn traced_op(&self, index: u64, seed: u64, steps: &mut Histogram, spans: &mut Spans) -> Op;
    /// Runs one untimed op and checks it, and against the workload's
    /// oracle where it has one.
    fn oracle(&self, index: u64, seed: u64) -> bool;
    /// Directed edges of the (first) op network, reliable plus
    /// unreliable-only.
    fn edges(&self) -> u64;
    /// Shards one op's rounds are split into.
    fn shards(&self) -> usize;
}

fn edge_count(net: &DualGraph) -> u64 {
    (net.reliable_csr().edge_count() + net.unreliable_only_csr().edge_count()) as u64
}

fn fresh_probe() -> Shared {
    Rc::new(RefCell::new(AdversaryStats::default()))
}

/// Times one engine step into the op's spans and the step histogram.
fn timed_step(step: impl FnOnce() -> RoundSummary, hist: &mut Histogram, spans: &mut Spans) {
    let t = Instant::now();
    let summary = step();
    let ns = t.elapsed().as_nanos() as u64;
    hist.record(ns);
    spans.step_ns += ns;
    spans.steps += 1;
    spans.counts.senders += summary.senders as f64;
    spans.counts.informs += summary.newly_informed.len() as f64;
}

fn engine_counts(out: &BroadcastOutcome, spans: &mut Spans, probe: &Shared) {
    let mut adv = probe.take();
    adv.finish();
    let c = &mut spans.counts;
    c.rounds = out.rounds_executed as f64;
    c.sends = out.sends as f64;
    c.collisions = out.physical_collisions as f64;
    c.adv_calls = adv.calls as f64;
    c.adv_delivered = adv.delivered as f64;
    c.cr4_calls = adv.cr4_calls as f64;
    spans.adversary = adv;
}

// ---------------------------------------------------------------------------
// harmonic-trials
// ---------------------------------------------------------------------------

/// Harmonic Broadcast (ε = 1/n) on `layered_pairs(n)` against
/// `CollisionSeeker`, CR4, asynchronous start: one `run_broadcast` trial
/// per op, on one thread.
pub struct HarmonicTrials {
    net: DualGraph,
    /// Theorem 18's round budget `2nT·H(n)`.
    budget: u64,
}

impl HarmonicTrials {
    fn config(&self, seed: u64, budget: Option<u64>) -> RunConfig {
        RunConfig::default()
            .with_seed(seed)
            .with_max_rounds(budget.unwrap_or(self.budget))
    }

    fn check(&self, out: &BroadcastOutcome) -> bool {
        out.completed && out.completion_round.is_some_and(|r| r <= self.budget)
    }
}

impl Bench for HarmonicTrials {
    const THREADS: usize = 1;
    const OP_REFERENCE: Reference = Reference::Core;
    const SETUP_REFERENCE: Reference = Reference::Core;
    const WARMUP: u64 = 8;
    // A build takes about a millisecond.
    const SETUP_REPS: usize = 101;
    const STREAM: bool = false;

    fn setup(_seed: u64, size: Size, parts: &mut Parts) -> (Self, f64) {
        // `layered_pairs` takes no seed: only the op seeds vary with the
        // workload seed.
        let n = match size {
            Size::Full => 129,
            Size::Toy => 17,
        };
        parts.time(|| {
            let t = Instant::now();
            let net = generators::layered_pairs(n);
            let net_s = t.elapsed().as_secs_f64();
            let budget =
                (2.0 * n as f64 * period_for(n, 1.0 / n as f64) as f64 * harmonic_number(n)).ceil()
                    as u64;
            (HarmonicTrials { net, budget }, net_s)
        })
    }

    fn op(&self, _index: u64, seed: u64, budget: Option<u64>) -> Op {
        let out = run_broadcast(
            &self.net,
            &Harmonic::new(),
            Box::new(CollisionSeeker::new()),
            self.config(seed, budget),
        )
        .expect("harmonic trial construction");
        Op {
            ok: self.check(&out),
            rounds: out.rounds_executed,
        }
    }

    fn traced_op(&self, _index: u64, seed: u64, hist: &mut Histogram, spans: &mut Spans) -> Op {
        // `run_broadcast`, unrolled so that the build and every step can
        // be timed from outside.
        let config = self.config(seed, None);
        let probe = fresh_probe();
        let t = Instant::now();
        let mut exec = Executor::from_slots(
            &self.net,
            Harmonic::new().slots(self.net.len(), seed),
            Box::new(Probe::new(CollisionSeeker::new(), probe.clone())),
            ExecutorConfig {
                rule: config.rule,
                start: config.start,
                ..ExecutorConfig::default()
            },
        )
        .expect("harmonic trial construction");
        spans.build_ns = t.elapsed().as_nanos() as u64;
        while !exec.is_complete() && exec.round() < config.max_rounds {
            timed_step(|| exec.step(), hist, spans);
        }
        let out = exec.outcome();
        engine_counts(&out, spans, &probe);
        Op {
            ok: self.check(&out),
            rounds: out.rounds_executed,
        }
    }

    fn oracle(&self, _index: u64, seed: u64) -> bool {
        let config = self.config(seed, None);
        let fast = run_broadcast(
            &self.net,
            &Harmonic::new(),
            Box::new(CollisionSeeker::new()),
            config,
        )
        .expect("harmonic trial construction");
        let mut reference = ReferenceExecutor::from_slots(
            &self.net,
            Harmonic::new().slots(self.net.len(), seed),
            Box::new(CollisionSeeker::new()),
            ExecutorConfig {
                rule: config.rule,
                start: config.start,
                ..ExecutorConfig::default()
            },
        )
        .expect("reference construction");
        self.check(&fast) && reference.run_until_complete(config.max_rounds) == fast
    }

    fn edges(&self) -> u64 {
        edge_count(&self.net)
    }

    fn shards(&self) -> usize {
        1
    }
}

// ---------------------------------------------------------------------------
// scale-flood
// ---------------------------------------------------------------------------

/// Shard workers of a scale-flood op.
const SCALE_WORKERS: usize = 2;
/// Round cap of a scale-flood op (completion takes ~21 rounds).
const SCALE_CAP: u64 = 10_000;

/// `Flooder` to completion on `scale_dual(n)` against `RandomDelivery(½)`,
/// CR4, asynchronous start, on `ShardedExecutor` with two workers.
pub struct ScaleFlood {
    net: DualGraph,
}

impl ScaleFlood {
    fn executor<'a>(net: &'a DualGraph, adversary: Box<dyn Adversary>) -> Executor<'a> {
        Executor::from_slots(
            net,
            Flooder::slots(net.len()),
            adversary,
            ExecutorConfig::default(),
        )
        .expect("flooding construction")
    }
}

impl Bench for ScaleFlood {
    const THREADS: usize = SCALE_WORKERS;
    // A sharded op's time follows its synchronisation and memory traffic;
    // neither reference tracked it.
    const OP_REFERENCE: Reference = Reference::Unscaled;
    const SETUP_REFERENCE: Reference = Reference::Memory;
    const WARMUP: u64 = 3;
    // A build takes about 0.25 s.
    const SETUP_REPS: usize = 15;
    const STREAM: bool = false;

    fn setup(seed: u64, size: Size, parts: &mut Parts) -> (Self, f64) {
        // Flooding completes in ~21 rounds on every seed's network, so one
        // network serves all ops.
        let n = match size {
            Size::Full => 1 << 16,
            Size::Toy => 1 << 9,
        };
        parts.time(|| {
            let t = Instant::now();
            let net = generators::scale_dual(
                generators::ScaleDualParams {
                    n,
                    chords_per_node: 2,
                    extras_per_node: 2,
                },
                mix(seed, 0x5CA1E),
            );
            (ScaleFlood { net }, t.elapsed().as_secs_f64())
        })
    }

    fn op(&self, _index: u64, seed: u64, budget: Option<u64>) -> Op {
        let net = &self.net;
        let exec = Self::executor(net, Box::new(RandomDelivery::new(0.5, seed)));
        let mut shd = ShardedExecutor::new(exec, SCALE_WORKERS);
        let out = shd.run_until_complete(budget.unwrap_or(SCALE_CAP));
        Op {
            ok: out.completed,
            rounds: out.rounds_executed,
        }
    }

    fn traced_op(&self, _index: u64, seed: u64, hist: &mut Histogram, spans: &mut Spans) -> Op {
        let net = &self.net;
        let probe = fresh_probe();
        let t = Instant::now();
        let exec = Self::executor(
            net,
            Box::new(Probe::new(RandomDelivery::new(0.5, seed), probe.clone())),
        );
        let mut shd = ShardedExecutor::new(exec, SCALE_WORKERS);
        spans.build_ns = t.elapsed().as_nanos() as u64;
        while !shd.is_complete() && shd.round() < SCALE_CAP {
            timed_step(|| shd.step(), hist, spans);
        }
        let out = shd.outcome();
        engine_counts(&out, spans, &probe);
        Op {
            ok: out.completed,
            rounds: out.rounds_executed,
        }
    }

    fn oracle(&self, _index: u64, seed: u64) -> bool {
        let net = &self.net;
        // One executor at a time, the sequential one first: memory the
        // sharded run's worker thread frees stays with that thread's
        // allocator arena, where a sequential executor built after it
        // could not reuse it, and the peak resident set would then be the
        // oracle's rather than an op's.
        let sequential = Self::executor(net, Box::new(RandomDelivery::new(0.5, seed)))
            .run_until_complete(SCALE_CAP);
        let sharded = ShardedExecutor::new(
            Self::executor(net, Box::new(RandomDelivery::new(0.5, seed))),
            SCALE_WORKERS,
        )
        .run_until_complete(SCALE_CAP);
        sharded.completed && sharded == sequential
    }

    fn edges(&self) -> u64 {
        edge_count(&self.net)
    }

    fn shards(&self) -> usize {
        dualgraph_net::ShardPlan::new(self.net.len(), SCALE_WORKERS).shards()
    }
}

// ---------------------------------------------------------------------------
// quorum-stream
// ---------------------------------------------------------------------------

/// Payloads of a quorum-stream op.
const QUORUM_K: usize = 32;
/// Round horizon of a quorum-stream op (settlement takes ~180 rounds).
const QUORUM_HORIZON: u64 = 30_000;

/// One schedule of the quorum-stream workload and its measured bound.
struct Cell {
    schedule: TopologySchedule,
    faults: FaultPlan,
    f: u32,
}

/// The Byzantine stream cell: a k = 32 batch over a cycled 8-epoch churn
/// schedule of `er_dual(n, 12/n, 24/n)`, an equivocator on every 10th
/// node from node 5, `QuorumPolicy::for_bound(f)` with the measured local
/// bound, `BurstyDelivery(0.15, 0.4)` under a random CR4 coin, and stream
/// health on.
pub struct QuorumStream {
    cells: Vec<Cell>,
}

/// Schedules of a quorum-stream run. Rounds to settle differ from one
/// schedule to the next by a quarter, so ops cycle through many and every
/// run sees about the same mix.
const QUORUM_CELLS: u64 = 24;

fn build_cell(n: usize, seed: u64) -> (Cell, f64) {
    let t = Instant::now();
    let base = generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p: 12.0 / n as f64,
            unreliable_p: 24.0 / n as f64,
        },
        mix(seed, 1),
    );
    let schedule = generators::churn_schedule(
        &base,
        generators::ChurnParams {
            epochs: 8,
            span: 64,
            rewire_fraction: 0.1,
        },
        mix(seed, 2),
    );
    let net_s = t.elapsed().as_secs_f64();
    let mut faults = FaultPlan::none();
    let mut roles = vec![NodeRole::Correct; n];
    for (c, i) in (5..n as u32).step_by(10).enumerate() {
        let p = (c % QUORUM_K) as u64;
        faults = faults.equivocate(
            NodeId(i),
            1,
            PayloadSet::only(PayloadId(p)),
            PayloadSet::only(PayloadId(QUORUM_K as u64 + p)),
        );
        roles[i as usize] = NodeRole::Equivocator {
            even: PayloadSet::EMPTY,
            odd: PayloadSet::EMPTY,
        };
    }
    let f = schedule
        .epochs()
        .iter()
        .map(|e| local_byzantine_bound(e.network(), &roles))
        .max()
        .unwrap_or(0);
    (
        Cell {
            schedule,
            faults,
            f,
        },
        net_s,
    )
}

impl QuorumStream {
    fn cell(&self, index: u64) -> &Cell {
        &self.cells[index as usize % self.cells.len()]
    }

    fn session<'a>(
        cell: &'a Cell,
        seed: u64,
        budget: Option<u64>,
        adversary: Box<dyn Adversary>,
    ) -> StreamSession<'a> {
        let config = StreamConfig {
            k: QUORUM_K,
            arrivals: Arrivals::Batch,
            sources: SourcePlacement::Single,
            max_rounds: budget.unwrap_or(QUORUM_HORIZON),
            seed,
            dynamics: Some(DynamicsConfig {
                faults: cell.faults.clone(),
                cycle: true,
            }),
            reliability: Some(ReliabilityBackend::Quorum(QuorumPolicy::for_bound(cell.f))),
            health: Some(HealthConfig::default()),
            ..StreamConfig::default()
        };
        StreamSession::scheduled(
            &cell.schedule,
            StreamAlgorithm::PipelinedFlooding,
            adversary,
            &config,
        )
        .expect("quorum stream construction")
    }

    fn adversary(seed: u64) -> WithRandomCr4<BurstyDelivery> {
        WithRandomCr4::new(BurstyDelivery::new(0.15, 0.4, seed), mix(seed, 0x9E37))
    }

    /// Every payload certified everywhere, nothing forged accepted.
    fn check(out: &StreamOutcome) -> bool {
        out.reliability
            .as_ref()
            .is_some_and(|r| r.stats.delivered == QUORUM_K && r.safety_violations == 0)
    }

    fn counts(out: &StreamOutcome, c: &mut Counts) {
        c.settle_rounds = out.rounds_executed as f64;
        c.mac_acked = out.mac.acked as f64;
        c.ack_latency_mean = out.mac.mean_ack_latency;
        c.pending_acks_peak = out.health.as_ref().map_or(0, |h| h.peak_pending_acks) as f64;
        c.epoch_switches = out.epochs.len().saturating_sub(1) as f64;
        if let Some(r) = &out.reliability {
            c.quorum_delivered = r.stats.delivered as f64;
            c.safety_violations = r.safety_violations as f64;
            let accepted: Vec<u64> = r
                .entries
                .iter()
                .filter_map(|e| match e.verdict {
                    DeliveryVerdict::Delivered { round, .. } => Some(round),
                    _ => None,
                })
                .collect();
            if !accepted.is_empty() {
                c.accept_round_mean = accepted.iter().sum::<u64>() as f64 / accepted.len() as f64;
            }
        }
    }
}

impl Bench for QuorumStream {
    const THREADS: usize = 1;
    const OP_REFERENCE: Reference = Reference::Core;
    const SETUP_REFERENCE: Reference = Reference::Memory;
    const WARMUP: u64 = 8;
    // A build of all cells takes about 0.45 s; each cell is one part.
    const SETUP_REPS: usize = 5;
    const STREAM: bool = true;

    fn setup(seed: u64, size: Size, parts: &mut Parts) -> (Self, f64) {
        let n = match size {
            Size::Full => 257,
            Size::Toy => 65,
        };
        let mut net_s = 0.0;
        let cells = (0..QUORUM_CELLS)
            .map(|i| {
                let (cell, s) = parts.time(|| build_cell(n, mix(seed, 0xB12A + i)));
                net_s += s;
                cell
            })
            .collect();
        (QuorumStream { cells }, net_s)
    }

    fn op(&self, index: u64, seed: u64, budget: Option<u64>) -> Op {
        let session = Self::session(
            self.cell(index),
            seed,
            budget,
            Box::new(Self::adversary(seed)),
        );
        let (out, _) = session.run();
        Op {
            ok: Self::check(&out),
            rounds: out.rounds_executed,
        }
    }

    fn traced_op(&self, index: u64, seed: u64, hist: &mut Histogram, spans: &mut Spans) -> Op {
        let probe = fresh_probe();
        let t = Instant::now();
        let mut session = Self::session(
            self.cell(index),
            seed,
            None,
            Box::new(Probe::new(Self::adversary(seed), probe.clone())),
        );
        spans.build_ns = t.elapsed().as_nanos() as u64;
        while !session.is_settled() && session.mac().round() < QUORUM_HORIZON {
            let t = Instant::now();
            session.step();
            let ns = t.elapsed().as_nanos() as u64;
            hist.record(ns);
            spans.step_ns += ns;
            spans.steps += 1;
        }
        // Settled: `run` only assembles the outcome.
        let (out, _) = session.run();
        let mut adv = probe.take();
        adv.finish();
        Self::counts(&out, &mut spans.counts);
        spans.counts.adv_calls = adv.calls as f64;
        spans.counts.adv_delivered = adv.delivered as f64;
        spans.counts.cr4_calls = adv.cr4_calls as f64;
        spans.adversary = adv;
        Op {
            ok: Self::check(&out),
            rounds: out.rounds_executed,
        }
    }

    fn oracle(&self, index: u64, seed: u64) -> bool {
        // No second implementation of the stream exists, so the untimed op
        // gets the output check alone.
        self.op(index, seed, None).ok
    }

    fn edges(&self) -> u64 {
        edge_count(self.cells[0].schedule.epoch(0).network())
    }

    fn shards(&self) -> usize {
        1
    }
}
