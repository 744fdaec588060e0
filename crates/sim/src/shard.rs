//! The sharded round engine: intra-round parallelism over node chunks.
//!
//! [`ShardedExecutor`] wraps an [`Executor`] and runs each round on the
//! round kernel (`kernel.rs`) with a word-aligned partition of the node
//! space ([`ShardPlan`][dualgraph_net::ShardPlan]): the transmit,
//! collision-resolution, and receive/absorb sweeps run shard-parallel and
//! merge at the round barrier. [`Executor::step`] runs the same kernel on a
//! one-shard plan, inline. The contract — enforced by
//! `tests/shard_differential.rs` — is that outcomes are **bit-identical at
//! every shard count**, including event streams. The determinism argument:
//!
//! * **No shard-level randomness.** Every random draw is either owned by a
//!   process (node-local, untouched by partitioning) or by the adversary.
//!   An adversary with an [`Adversary::oblivious`] form is a pure function
//!   of `(round, edge)` and `(round, node)`: shards evaluate it
//!   receiver-side, and the promise that it equals the adversary's
//!   answers makes the result the one-shard round's. Every other
//!   adversary is consulted on the coordinator
//!   ([`Adversary::unreliable_deliveries`] per sender in node order,
//!   [`Adversary::resolve_cr4`] per collided listener in ascending node
//!   order) at every shard count. Shard count never enters any RNG stream.
//! * **Merges in shard order are merges in node order.** Shards are
//!   contiguous ascending ranges, so concatenating per-shard sender
//!   buffers / newly-informed lists / CR4 choices in shard order reproduces
//!   the ascending-node order of one shard for *any* chunk size.
//! * **One loop body.** Each shard runs the same `transmit_chunk` /
//!   `receive_chunk` body (see `slot.rs`) and the same collision-resolution
//!   body; the receiver-side gather recomputes the arena's per-node
//!   reaching set — ascending sender order — from the transpose CSRs, so
//!   per-node results agree element-wise.
//! * **Disjoint writes.** Shard boundaries are multiples of 64, so the
//!   `informed` bitset splits into whole disjoint `u64` words; all other
//!   per-node state splits by `chunks_mut`. The only cross-shard
//!   aggregates are additive (`physical_collisions`), which is
//!   order-independent.
//!
//! [`Adversary::oblivious`]: crate::Adversary::oblivious
//! [`Adversary::unreliable_deliveries`]: crate::Adversary::unreliable_deliveries
//! [`Adversary::resolve_cr4`]: crate::Adversary::resolve_cr4

use dualgraph_net::ShardPlan;

use crate::engine::{BroadcastOutcome, Executor, RoundSummary};
use crate::kernel::ShardScratch;
use crate::trace::{NullSink, TraceSink};

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
}

impl<'a> ShardedExecutor<'a> {
    /// Wraps `exec`, planning at most `workers` shards over its node
    /// space. `workers <= 1` (or a population too small to split) yields a
    /// single shard, whose rounds run inline like [`Executor::step`]'s.
    pub fn new(mut exec: Executor<'a>, workers: usize) -> Self {
        let plan = ShardPlan::new(exec.network().len(), workers);
        let shards = plan.shards();
        if exec.shards.len() < shards {
            exec.shards.resize_with(shards, ShardScratch::default);
        }
        ShardedExecutor { exec, plan }
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
        self.exec.step_on(self.plan, sink)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomDelivery, ReliableOnly};
    use crate::collision::CollisionRule;
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
    fn single_shard_plan_runs_inline() {
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
