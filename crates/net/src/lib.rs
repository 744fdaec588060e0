//! # dualgraph-net
//!
//! Graph substrate for the **dual graph** radio network model of
//! *Broadcasting in Unreliable Radio Networks* (Kuhn, Lynch, Newport,
//! Oshman, Richa; PODC 2010).
//!
//! A dual graph network is a pair `(G, G′)` of directed graphs on the same
//! node set with `E ⊆ E′`: `G`'s edges always deliver, the extra edges of
//! `G′` deliver only when a worst-case adversary allows it. This crate
//! provides:
//!
//! * [`Digraph`] — sorted-adjacency directed graphs (the construction path);
//! * [`Csr`] — frozen flat adjacency (the execution path: the simulator
//!   reads `G`, `G′`, and `G′ ∖ G` as contiguous rows);
//! * [`DualGraph`] — the validated `(G, G′, source)` triple, frozen into
//!   CSR at construction;
//! * [`generators`] — the paper's lower-bound gadgets
//!   ([`generators::clique_bridge`], [`generators::layered_pairs`]) plus
//!   standard and random topologies, and the schedule generators
//!   ([`generators::churn_schedule`], [`generators::fading_schedule`],
//!   [`generators::mobility_schedule`]);
//! * [`TopologySchedule`] — epoch-evolving dual graphs (a sequence of
//!   frozen snapshots with round spans) for the dynamics subsystem;
//! * [`traversal`] — BFS distances, layers, eccentricity, diameter;
//! * [`broadcastability`] — `k`-broadcastability bounds (§3 of the paper);
//! * [`FixedBitSet`] — the dense bitset the simulator uses for reach sets;
//! * [`dot`] — Graphviz export.
//!
//! # Examples
//!
//! ```
//! use dualgraph_net::generators;
//!
//! // The Theorem 2 gadget: 2-broadcastable, yet broadcast takes Ω(n)
//! // rounds against the right adversary.
//! let gadget = generators::clique_bridge(16);
//! assert_eq!(gadget.network.source_eccentricity(), 2);
//! assert!(dualgraph_net::broadcastability::is_k_broadcastable(
//!     &gadget.network,
//!     2
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
pub mod broadcastability;
mod csr;
pub mod dot;
mod dual;
pub mod generators;
mod graph;
mod node;
mod schedule;
mod shard;
pub mod traversal;

pub use bitset::{or_words, FixedBitSet};
pub use csr::{Csr, CsrShardView};
pub use dual::{BuildDualGraphError, DualGraph};
pub use graph::Digraph;
pub use node::NodeId;
pub use schedule::{BuildScheduleError, Epoch, TopologySchedule};
pub use shard::{ShardPlan, SHARD_ALIGN};
