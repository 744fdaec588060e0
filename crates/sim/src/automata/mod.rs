//! The built-in broadcast automata (per-node process state machines).
//!
//! These are the `Process` implementations behind the algorithm factories
//! in `dualgraph-broadcast::algorithms` and its stream layer:
//! [`BackoffProcess`] (Harmonic, Decay and Uniform, one [`Backoff`]
//! schedule each, over one payload or a pipelined stream),
//! [`PipelinedFlooder`], [`RoundRobinProcess`] and
//! [`StrongSelectProcess`]. They live in this crate (rather than next to
//! their factories) so that the executor's [`ProcessSlot`] enum can hold
//! them *inline*: the batched process table matches on the variant once
//! per round and runs a monomorphized loop, instead of paying two virtual
//! calls per node per round.
//!
//! The enum-vs-boxed differential suites hold every automaton to
//! bit-identical behavior under both dispatch paths.
//!
//! [`ProcessSlot`]: crate::ProcessSlot

mod backoff;
mod pipeline;
mod round_robin;
mod strong_select;

pub use backoff::{Backoff, BackoffProcess};
pub use pipeline::PipelinedFlooder;
pub use round_robin::RoundRobinProcess;
pub use strong_select::{
    Participation, Slot, SsfConstruction, StrongSelectPlan, StrongSelectProcess,
};
