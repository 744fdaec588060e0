//! Shard partitioning of the CSR row space.
//!
//! The round kernel splits the node range `0..n` into contiguous chunks,
//! one per worker, and runs the transmit, resolve and receive sweeps of a
//! round chunk-parallel (see `dualgraph_sim`'s sharded executor). Two
//! properties of the partition are load-bearing:
//!
//! * **Word alignment** — every shard boundary is a multiple of 64, so the
//!   per-node bitsets (`informed`) split into *disjoint word ranges*: each
//!   shard owns whole `u64` words of [`crate::FixedBitSet`] and no word is
//!   written by two threads.
//! * **Count independence of the merge order** — shards are contiguous and
//!   ascending, so concatenating per-shard results in shard order is the
//!   ascending-node order a sequential sweep produces, *whatever* the
//!   shard count. Bit-identical outcomes across worker counts follow.

use std::ops::Range;

/// Alignment of shard boundaries: one [`crate::FixedBitSet`] word.
pub const SHARD_ALIGN: usize = 64;

/// A word-aligned partition of the node range `0..n` into at most
/// `workers` contiguous chunks.
///
/// # Examples
///
/// ```
/// use dualgraph_net::ShardPlan;
///
/// let plan = ShardPlan::new(200, 3);
/// // ceil(200 / 3) = 67 rounds up to the 64-aligned chunk 128.
/// assert_eq!(plan.shards(), 2);
/// assert_eq!(plan.range(0), 0..128);
/// assert_eq!(plan.range(1), 128..200); // last shard takes the remainder
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    /// Nodes per shard; a positive multiple of [`SHARD_ALIGN`].
    chunk: usize,
}

impl ShardPlan {
    /// Plans at most `workers` shards over `n` nodes. `workers == 0` is
    /// treated as 1 (the sequential fallback for a failed parallelism
    /// probe). Tiny populations produce fewer shards than workers — a
    /// shard is never smaller than one bitset word except the last.
    #[inline]
    pub fn new(n: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let chunk = n
            .div_ceil(workers)
            .next_multiple_of(SHARD_ALIGN)
            .max(SHARD_ALIGN);
        ShardPlan { n, chunk }
    }

    /// Number of nodes partitioned.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan covers no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nodes per shard (the last shard may be shorter).
    #[inline]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Number of shards actually produced (`<= workers`). A one-shard
    /// plan answers without dividing: the round kernel asks every round.
    #[inline]
    pub fn shards(&self) -> usize {
        if self.n <= self.chunk {
            1
        } else {
            self.n.div_ceil(self.chunk)
        }
    }

    /// The node range of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shards()`.
    #[inline]
    pub fn range(&self, s: usize) -> Range<usize> {
        assert!(s < self.shards(), "shard {s} out of range");
        let lo = s * self.chunk;
        lo..(lo + self.chunk).min(self.n)
    }

    /// Iterates every shard's node range in ascending order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shards()).map(|s| self.range(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_node_space() {
        for n in [1usize, 63, 64, 65, 200, 1025, 4096] {
            for workers in [1usize, 2, 3, 7, 16] {
                let plan = ShardPlan::new(n, workers);
                assert!(plan.shards() <= workers.max(1), "n={n} workers={workers}");
                let mut covered = 0;
                for (s, r) in plan.ranges().enumerate() {
                    assert_eq!(r.start, covered, "contiguous");
                    assert!(
                        r.start % SHARD_ALIGN == 0,
                        "boundary {covered} word-aligned (n={n} workers={workers} s={s})"
                    );
                    assert!(!r.is_empty(), "no empty shards");
                    covered = r.end;
                }
                assert_eq!(covered, n, "full coverage (n={n} workers={workers})");
            }
        }
    }

    #[test]
    fn zero_workers_degenerate_to_one_shard() {
        let plan = ShardPlan::new(100, 0);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.range(0), 0..100);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 100);
    }

    #[test]
    fn small_populations_underfill_workers() {
        // 100 nodes at 7 workers: chunk rounds up to 64, so only 2 shards.
        let plan = ShardPlan::new(100, 7);
        assert_eq!(plan.chunk(), 64);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.range(1), 64..100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_panics() {
        ShardPlan::new(64, 2).range(1);
    }
}
