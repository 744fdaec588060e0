//! Fixtures shared by the sim differential suites: the adversary menu,
//! the random networks, the rule × start configurations, the churn
//! schedule, the boxing helper of the `Custom` arms, and one driver that
//! steps an engine through a schedule and a fault plan.
//!
//! Each suite uses a subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use std::sync::{Arc, Mutex};

use dualgraph_net::{generators, DualGraph, NodeId, TopologySchedule};
use dualgraph_sim::{
    ActivationCause, Adversary, BurstyDelivery, CollisionRule, CollisionSeeker, DynamicsCursor,
    Executor, ExecutorConfig, FaultPlan, FullDelivery, Message, NodeRole, NullSink, PayloadId,
    Process, ProcessId, ProcessSlot, RandomDelivery, Reception, ReferenceExecutor, ReliableOnly,
    RoundSummary, ShardedExecutor, StartRule, TraceEvent, TraceSink,
};

/// A named adversary factory: every engine under comparison builds its own
/// identically seeded instance.
pub(crate) type AdversaryFactory = Box<dyn Fn() -> Box<dyn Adversary>>;

/// The full adversary menu as `(name, factory)` pairs.
///
/// The two sequential streams, `random-per-edge(0.5)` and
/// `bursty-per-round`, are the entries whose answers depend on call
/// order: their draws come off one stream, so an engine that calls the
/// adversary out of sender order diverges there.
pub(crate) fn adversary_menu(seed: u64) -> Vec<(&'static str, AdversaryFactory)> {
    vec![
        ("reliable-only", Box::new(|| Box::new(ReliableOnly::new()))),
        ("full-delivery", Box::new(|| Box::new(FullDelivery::new()))),
        (
            "random(0.5)",
            Box::new(move || Box::new(RandomDelivery::new(0.5, seed))),
        ),
        (
            "random-per-edge(0.5)",
            Box::new(move || Box::new(RandomDelivery::per_edge(0.5, seed))),
        ),
        (
            "bursty",
            Box::new(move || Box::new(BurstyDelivery::new(0.3, 0.3, seed))),
        ),
        (
            "bursty-per-round",
            Box::new(move || Box::new(BurstyDelivery::per_round(0.3, 0.3, seed))),
        ),
        (
            "collision-seeker",
            Box::new(|| Box::new(CollisionSeeker::new())),
        ),
    ]
}

/// The suites' usual `er_dual` densities: `G` edges with probability
/// 0.12, `G′` edges with 0.25.
pub(crate) const DENSE: (f64, f64) = (0.12, 0.25);

/// Sparse `er_dual` densities (`G` 0.03, `G′` 0.08): at n ≥ 150 they give
/// populations above one shard chunk whose rounds reach few nodes, so
/// both the sparse and the dense round paths run.
pub(crate) const SPARSE: (f64, f64) = (0.03, 0.08);

/// A random `er_dual` network with the given `(reliable_p, unreliable_p)`
/// densities.
pub(crate) fn random_net(seed: u64, n: usize, (reliable_p, unreliable_p): (f64, f64)) -> DualGraph {
    generators::er_dual(
        generators::ErDualParams {
            n,
            reliable_p,
            unreliable_p,
        },
        seed,
    )
}

/// CR1–CR4 × both start rules, payload 0.
pub(crate) fn configs() -> Vec<ExecutorConfig> {
    let mut out = Vec::new();
    for rule in CollisionRule::ALL {
        for start in [StartRule::Synchronous, StartRule::Asynchronous] {
            out.push(ExecutorConfig {
                rule,
                start,
                ..ExecutorConfig::default()
            });
        }
    }
    out
}

/// A 3-epoch churn schedule over `net` with short spans, so a 30-round
/// comparison crosses several boundaries (and, cycling disabled, also
/// exercises the tail extension).
pub(crate) fn churn3(net: &DualGraph, seed: u64) -> TopologySchedule {
    generators::churn_schedule(
        net,
        generators::ChurnParams {
            epochs: 3,
            span: 4,
            rewire_fraction: 0.5,
        },
        seed,
    )
}

/// Folds `events` into an FNV-1a 64 digest of their `Debug` lines, the
/// form every pinned event stream is checked in.
pub(crate) fn digest_events(digest: u64, events: &[TraceEvent]) -> u64 {
    events.iter().fold(digest, |digest, event| {
        format!("{event:?}\n").bytes().fold(digest, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// The FNV-1a 64 offset basis: the digest of no events.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Moves a slot population behind virtual dispatch, for the boxed arms:
/// every slot becomes a [`ProcessSlot::Custom`] box, so the executor runs
/// a mixed table.
pub(crate) fn custom(slots: Vec<ProcessSlot>) -> Vec<ProcessSlot> {
    slots
        .into_iter()
        .map(|s| ProcessSlot::Custom(s.into_boxed()))
        .collect()
}

/// The entry points [`Dynamic`] drives, which the reference oracle and the
/// sharded engine expose alike.
pub(crate) trait Stepper<'a> {
    /// Rounds executed so far.
    fn round(&self) -> u64;
    /// Swaps in an epoch's network.
    fn set_network(&mut self, network: &'a DualGraph);
    /// Applies a fault event.
    fn set_role(&mut self, node: NodeId, role: NodeRole);
    /// Runs one round.
    fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary;
}

impl<'a> Stepper<'a> for ReferenceExecutor<'a> {
    fn round(&self) -> u64 {
        ReferenceExecutor::round(self)
    }
    fn set_network(&mut self, network: &'a DualGraph) {
        ReferenceExecutor::set_network(self, network);
    }
    fn set_role(&mut self, node: NodeId, role: NodeRole) {
        ReferenceExecutor::set_role(self, node, role);
    }
    fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        ReferenceExecutor::step_traced(self, sink)
    }
}

impl<'a> Stepper<'a> for ShardedExecutor<'a> {
    fn round(&self) -> u64 {
        Executor::round(self)
    }
    fn set_network(&mut self, network: &'a DualGraph) {
        Executor::set_network(self, network);
    }
    fn set_role(&mut self, node: NodeId, role: NodeRole) {
        Executor::set_role(self, node, role);
    }
    fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        ShardedExecutor::step_traced(self, sink)
    }
}

/// Drives an engine through a schedule and a fault plan with the same
/// [`DynamicsCursor`] the `DynamicExecutor` uses, emitting the same
/// wrapper-level `EpochSwitch`/`Fault` events at the same stream
/// positions (before the round's own events). The reference oracle and
/// the sharded engine have no dynamics runner of their own, so the "what
/// changes at round `t`?" decision is shared and only the round
/// semantics differ.
pub(crate) struct Dynamic<'a, E> {
    pub(crate) exec: E,
    cursor: DynamicsCursor<'a>,
}

impl<'a, E: Stepper<'a>> Dynamic<'a, E> {
    /// Wraps `exec`, applying the plan's round-0 roles.
    pub(crate) fn new(mut exec: E, schedule: &'a TopologySchedule, plan: FaultPlan) -> Self {
        let mut cursor = DynamicsCursor::new(Some(schedule), plan, false);
        cursor.apply_initial(|node, role| exec.set_role(node, role));
        Dynamic { exec, cursor }
    }

    /// Runs one round untraced.
    pub(crate) fn step(&mut self) -> RoundSummary {
        self.step_traced(&mut NullSink)
    }

    /// Applies round `t`'s epoch swap and fault events, then runs the
    /// round.
    pub(crate) fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> RoundSummary {
        let t = self.exec.round() + 1;
        let (swap, fired) = self.cursor.advance(t);
        if let Some(net) = swap {
            self.exec.set_network(net);
            if S::ENABLED {
                sink.emit(TraceEvent::EpochSwitch {
                    round: t,
                    epoch: self.cursor.epoch() as u32,
                });
            }
        }
        for i in fired {
            let e = self.cursor.events()[i];
            self.exec.set_role(e.node, e.role);
            if S::ENABLED {
                sink.emit(TraceEvent::Fault {
                    round: t,
                    node: e.node,
                    role: e.role.into(),
                });
            }
        }
        self.exec.step_traced(sink)
    }
}

/// The reference oracle on `schedule`'s first epoch, driven through it.
pub(crate) fn reference<'a>(
    schedule: &'a TopologySchedule,
    slots: Vec<ProcessSlot>,
    adversary: Box<dyn Adversary>,
    config: ExecutorConfig,
    plan: FaultPlan,
) -> Dynamic<'a, ReferenceExecutor<'a>> {
    let exec = ReferenceExecutor::from_slots(schedule.epoch(0).network(), slots, adversary, config)
        .unwrap();
    Dynamic::new(exec, schedule, plan)
}

/// The sharded engine with `workers` workers on `schedule`'s first epoch,
/// driven through it.
pub(crate) fn sharded<'a>(
    schedule: &'a TopologySchedule,
    slots: Vec<ProcessSlot>,
    adversary: Box<dyn Adversary>,
    config: ExecutorConfig,
    workers: usize,
    plan: FaultPlan,
) -> Dynamic<'a, ShardedExecutor<'a>> {
    let exec = Executor::from_slots(schedule.epoch(0).network(), slots, adversary, config).unwrap();
    Dynamic::new(ShardedExecutor::new(exec, workers), schedule, plan)
}

/// One engine's `receive` calls, as `(process, local round, reception)`.
pub(crate) type ReceiveLog = Arc<Mutex<Vec<(u32, u64, Reception)>>>;

/// A chatter automaton that logs every `receive` call it gets: once it
/// holds payload 0 it transmits it in 3 rounds out of 8 (a SplitMix64
/// stream seeded per process), and it logs each call into the log its
/// population shares. The log is shared across threads, so a sharded
/// engine's calls arrive in any order; sort before comparing.
#[derive(Debug, Clone)]
pub(crate) struct LoggingChatter {
    id: ProcessId,
    informed: bool,
    state: u64,
    log: ReceiveLog,
}

impl LoggingChatter {
    /// The `n` processes for one execution, ids `0..n`, as `Custom` slots
    /// logging into `log`.
    pub(crate) fn slots(n: usize, seed: u64, log: &ReceiveLog) -> Vec<ProcessSlot> {
        (0..n)
            .map(|i| {
                ProcessSlot::Custom(Box::new(LoggingChatter {
                    id: ProcessId::from_index(i),
                    informed: false,
                    state: seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    log: Arc::clone(log),
                }))
            })
            .collect()
    }
}

impl Process for LoggingChatter {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_activate(&mut self, cause: ActivationCause) {
        self.informed |= cause.message().is_some_and(|m| m.carries_payload());
    }

    fn transmit(&mut self, _local_round: u64) -> Option<Message> {
        if !self.informed {
            return None;
        }
        self.state = dualgraph_sim::rng::splitmix64(self.state);
        (self.state % 8 < 3).then(|| Message::with_payload(self.id, PayloadId(0)))
    }

    fn receive(&mut self, local_round: u64, reception: Reception) {
        self.log
            .lock()
            .unwrap()
            .push((self.id.0, local_round, reception));
        self.informed |= reception.message().is_some_and(|m| m.carries_payload());
    }

    fn has_payload(&self) -> bool {
        self.informed
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}
