//! Fixture for the stale `[hot]` entry check: a method, a free function,
//! and a function that exists only under `#[cfg(test)]`. Entries naming
//! the first two match; an entry naming the third, or a function that was
//! renamed away, is stale.

struct Executor;

impl Executor {
    fn step_on(&mut self) {}
}

fn resolve_shards() {}

#[cfg(test)]
mod tests {
    fn absorb() {}
}
