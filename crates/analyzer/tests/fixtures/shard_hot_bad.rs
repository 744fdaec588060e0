//! Positive fixture: allocation inside the sharded round hot set —
//! the coordinator entry (`ShardedExecutor::step_traced`), the per-shard
//! resolve (`resolve_shards`, a free function), and a receiver-side
//! reaching-set read (`Gather::arrivals`) — fires once per construct line.

struct ShardedExecutor;

impl ShardedExecutor {
    fn step_traced(&mut self) {
        let merged: Vec<u32> = (0..4).collect();
        let label = format!("round {}", 1);
    }
}

fn resolve_shards(receptions: &mut [u32]) {
    let jobs = Vec::with_capacity(receptions.len());
    let idxs = vec![0u32; 8];
}

struct Gather;

impl Gather {
    fn arrivals(&mut self, base: usize) {
        let newly = Vec::new();
        let boxed = Box::new(base);
    }
}
