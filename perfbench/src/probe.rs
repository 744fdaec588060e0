//! The adversary span: a wrapper around a workload's adversary that
//! counts its calls and times them from outside the engine.
//!
//! Timing every call costs two clock reads per sender, which at ~45k
//! senders per round more than doubled a dense flooding round. The probe
//! instead brackets each round's calls: delivery calls run once per sender
//! in node order, so the bracket opens at the round's first call and
//! closes after the call that brings the count to `ctx.senders.len()`.
//! CR4 calls have no known count, so their bracket closes at the last call
//! seen before the round changes (one clock read per call).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dualgraph_net::{DualGraph, NodeId};
use dualgraph_sim::{Adversary, Assignment, Cr4Resolution, Message, RoundContext};

/// Counts and bracketed times of one op's adversary calls.
#[derive(Debug, Default)]
pub struct AdversaryStats {
    /// `unreliable_deliveries` calls.
    pub calls: u64,
    /// Targets those calls appended.
    pub delivered: u64,
    /// `resolve_cr4` calls.
    pub cr4_calls: u64,
    /// Delivery brackets, summed.
    pub ns: u64,
    /// CR4 brackets, summed.
    pub cr4_ns: u64,
    round: u64,
    seen: usize,
    start: Option<Instant>,
    cr4_round: u64,
    cr4_span: Option<(Instant, Instant)>,
}

impl AdversaryStats {
    /// Closes an open CR4 bracket (call at the end of the op).
    pub fn finish(&mut self) {
        if let Some((start, end)) = self.cr4_span.take() {
            self.cr4_ns += (end - start).as_nanos() as u64;
        }
    }
}

/// Shared handle to the stats the probe fills.
pub type Shared = Rc<RefCell<AdversaryStats>>;

/// The wrapper; forwards every decision to `inner` unchanged.
#[derive(Debug, Clone)]
pub struct Probe<A> {
    inner: A,
    stats: Shared,
}

impl<A> Probe<A> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: A, stats: Shared) -> Self {
        Probe { inner, stats }
    }
}

impl<A: Adversary + Clone + 'static> Adversary for Probe<A> {
    fn assign(&mut self, network: &DualGraph, n_processes: usize) -> Assignment {
        self.inner.assign(network, n_processes)
    }

    fn unreliable_deliveries(
        &mut self,
        ctx: &RoundContext<'_>,
        sender: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        let mut s = self.stats.borrow_mut();
        if s.round != ctx.round || s.start.is_none() {
            s.round = ctx.round;
            s.seen = 0;
            s.start = Some(Instant::now());
        }
        let before = out.len();
        self.inner.unreliable_deliveries(ctx, sender, out);
        s.calls += 1;
        s.delivered += (out.len() - before) as u64;
        s.seen += 1;
        if s.seen == ctx.senders.len() {
            if let Some(start) = s.start.take() {
                s.ns += start.elapsed().as_nanos() as u64;
            }
        }
    }

    fn resolve_cr4(
        &mut self,
        ctx: &RoundContext<'_>,
        node: NodeId,
        reaching: &[Message],
    ) -> Cr4Resolution {
        let mut s = self.stats.borrow_mut();
        if s.cr4_round != ctx.round || s.cr4_span.is_none() {
            s.finish();
            s.cr4_round = ctx.round;
            let now = Instant::now();
            s.cr4_span = Some((now, now));
        }
        let choice = self.inner.resolve_cr4(ctx, node, reaching);
        s.cr4_calls += 1;
        if let Some(span) = s.cr4_span.as_mut() {
            span.1 = Instant::now();
        }
        choice
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}
