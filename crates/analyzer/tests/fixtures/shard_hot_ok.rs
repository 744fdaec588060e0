//! Negative fixture: the sharded sweep functions reuse per-shard scratch
//! buffers handed in by the coordinator — `clear()` + `push` into
//! caller-owned arenas, never a fresh allocation. Zero findings.

struct ShardedExecutor {
    own_idx: Vec<u32>,
    send_bufs: Vec<Vec<u32>>,
}

impl ShardedExecutor {
    fn step_traced(&mut self) {
        // Per-shard buffers persist across rounds; each round clears and
        // refills them in place.
        for buf in &mut self.send_bufs {
            buf.clear();
            buf.push(1);
        }
        self.own_idx.fill(0);
    }

    fn new_scratch(workers: usize) -> Vec<Vec<u32>> {
        // Construction is cold: allocating the per-shard arenas once is
        // exactly the design.
        (0..workers).map(|_| Vec::new()).collect()
    }
}

fn resolve_shards(receptions: &mut Vec<u32>, jobs: &mut Vec<u32>, idxs: &mut Vec<u32>) {
    // The shard-local CR4 job lists are reused arenas owned by the
    // executor, cleared at entry.
    jobs.clear();
    idxs.clear();
    for slot in receptions.iter_mut() {
        *slot = 0;
        jobs.push(*slot);
    }
}
