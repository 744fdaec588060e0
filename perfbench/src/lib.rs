//! End-to-end and per-layer benchmark of the dualgraph library crates.
//!
//! Each workload runs as a closed loop with one client: one op in flight,
//! the next op starting when the previous one returns. Ops are seeded from
//! the workload seed, preceded by untimed warm-up ops and one untimed op
//! checked against an oracle, and every op's output is checked; a failed
//! check counts the op as failed and infinitely slow. The benchmark drives
//! only the public API of `dualgraph-net`, `dualgraph-sim` and
//! `dualgraph-broadcast`; spans are taken around calls into them, never
//! inside.
//!
//! * `harmonic-trials` — sparse rounds (~5 senders), adaptive adversary:
//!   per-round fixed costs dominate.
//! * `scale-flood` — dense rounds (~45k senders) at 2^16 nodes on the
//!   sharded engine: the working set exceeds the L2 cache.
//! * `quorum-stream` — the multi-message stack: MAC, quorum certification,
//!   dynamics and stream health.
//!
//! The first two drive the same round kernel in opposite regimes, so a
//! kernel change that trades sparse rounds for dense ones moves them in
//! opposite directions.

use std::time::{Duration, Instant};

use dualgraph_sim::Histogram;

pub mod probe;
pub mod workloads;

use workloads::{Bench, Counts, HarmonicTrials, QuorumStream, ScaleFlood, Spans};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HarmonicTrials,
    ScaleFlood,
    QuorumStream,
}

impl Workload {
    /// Every workload, in command-line order.
    pub const ALL: [Workload; 3] = [
        Workload::HarmonicTrials,
        Workload::ScaleFlood,
        Workload::QuorumStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HarmonicTrials => "harmonic-trials",
            Workload::ScaleFlood => "scale-flood",
            Workload::QuorumStream => "quorum-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the command line measures, `Toy` keeps
/// tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Print the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    pub size: Size,
    /// Runs this timed op with a one-round budget, so that its output
    /// check fails (for testing the failure accounting).
    pub sabotage_op: Option<u64>,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The oracle agreed and no op failed its output check.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run facts that are not metrics (op count, threads), one line.
    pub info: String,
}

impl Report {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no infinity; a failed op makes a percentile
                // infinitely slow, printed as the largest finite number.
                let value = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of stream `stream` from `seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ splitmix64(stream))
}

/// Op seed streams: warm-up, oracle and timed ops never share a seed.
const WARMUP_STREAM: u64 = 1 << 32;
const ORACLE_STREAM: u64 = 2 << 32;
const OP_STREAM: u64 = 3 << 32;

/// Traced ops whose simulated counts are reported: the traced loop runs
/// at least this many so that the counts cover a fixed set of ops.
const EXACT_OPS: u64 = 8;

/// Runs one configured benchmark run.
pub fn run(config: &Config) -> Report {
    match config.workload {
        Workload::HarmonicTrials => run_bench::<HarmonicTrials>(config),
        Workload::ScaleFlood => run_bench::<ScaleFlood>(config),
        Workload::QuorumStream => run_bench::<QuorumStream>(config),
    }
}

/// The `q`-quantile of `values` by nearest rank (`q = 0.9` leaves
/// `⌊N/10⌋` samples above it). Sorts in place; `NaN` never occurs here.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set (`VmHWM`) in MB (MiB).
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds the hypervisor has stolen from this guest so far, summed over
/// its CPUs: the `steal` column of the `cpu` line of `/proc/stat`, in
/// clock ticks of 10 ms (`0` where the kernel does not report it).
fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Seconds the calling thread has run on a CPU so far, to the nanosecond
/// (first field of `/proc/thread-self/schedstat`). A guest kernel with
/// paravirtual steal accounting leaves stolen time out of it: on a 2-vCPU
/// KVM guest, a busy thread's wall time less this time matched the steal
/// `/proc/stat` reported for its CPU.
fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// The host-speed reference a [`Clock`] scales times by.
///
/// A shared host runs other tenants' load beside this process and can run
/// the benchmark's ops and builds twice as slowly for seconds to minutes at
/// a time. A reference shares no code with the library, so only the host
/// changes its time: scaling each section by `nominal / the references
/// around it` removes most of that drift, while a change to the library
/// still moves the scaled times in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// No scaling: times are corrected for stolen time only.
    Unscaled,
    /// One core's speed: [`core_reference_us`], nominally 100 µs. It
    /// tracks the single-thread ops of `harmonic-trials` and
    /// `quorum-stream` and the millisecond build of `harmonic-trials`.
    Core,
    /// Memory latency: [`Chase`], nominally 4 ms. It tracks the
    /// allocation-heavy builds of `scale-flood` and `quorum-stream`, whose
    /// working sets live in the last-level cache the tenants share.
    Memory,
}

/// Nominal reference times, in µs: end-to-end times are reported as if
/// the reference had taken this long.
const NOMINAL_CORE_US: f64 = 100.0;
const NOMINAL_MEMORY_US: f64 = 4_000.0;

/// Times the core-speed reference, in µs: a fixed throughput-bound
/// integer computation (eight independent multiply-rotate streams).
fn core_reference_us() -> f64 {
    let t = Instant::now();
    let mut x: [u64; 8] = std::hint::black_box([1, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..20_000 {
        for v in x.iter_mut() {
            *v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ (*v >> 3);
        }
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

/// The memory-latency reference: 20,000 dependent loads along one cycle
/// through a 32 MiB table, past the private L2 cache and a third of the
/// shared last-level cache. The cycle is a full-period linear congruential
/// sequence modulo the table length (Hull–Dobell), so the table is built
/// in one sequential pass, and each reference continues where the last one
/// stopped, so that no load finds a line the previous reference cached.
struct Chase {
    next: Vec<u32>,
    at: u32,
}

impl Chase {
    const LEN: usize = 1 << 23;

    /// The table's resident size in MB (MiB).
    const MB: f64 = (Chase::LEN * std::mem::size_of::<u32>()) as f64 / (1 << 20) as f64;

    fn new() -> Chase {
        let mask = Chase::LEN as u64 - 1;
        let next = (0..Chase::LEN as u64)
            .map(|x| {
                (x.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407)
                    & mask) as u32
            })
            .collect();
        Chase { next, at: 0 }
    }

    fn time_us(&mut self) -> f64 {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..20_000 {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        t.elapsed().as_secs_f64() * 1e6
    }
}

/// One section of work as [`Clock`] timed it, in seconds.
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall: f64,
    /// Wall time less the time stolen from the guest meanwhile.
    unstolen: f64,
    /// `unstolen`, scaled by the clock's reference.
    scaled: f64,
}

/// Times sections of work (ops, set-up parts) the way the end-to-end
/// metrics report them.
///
/// A section's time is its wall time less the time the hypervisor stole
/// meanwhile, but never less than the time the calling thread spent on a
/// CPU. The calling thread runs the whole of a single-thread section and
/// the coordinator of a sharded one, which was on a CPU for ~97% of a
/// `scale-flood` op on a quiet 2-vCPU guest and spent the rest waiting for
/// the other worker. Time it spends off a CPU is stolen from its own CPU or spent
/// waiting for a worker whose CPU was stolen, so the steal of all CPUs,
/// capped at that off-CPU time, is what delayed the section: steal on an
/// idle CPU, or on both CPUs at once, is not subtracted twice, and the
/// 10 ms resolution of the steal counter cannot push a time below the
/// thread's own CPU time.
///
/// A scaling clock also scales each section by its [`Reference`], timed
/// just before and just after the section, outside its time, using the
/// lesser of the two (the other may have lost a time slice), so that a host
/// that slows for a few seconds slows the section and its scale together.
struct Clock {
    reference: Reference,
    chase: Option<Chase>,
    /// The reference taken after the last section.
    last_reference: f64,
    /// Every reference taken, in µs.
    references: Vec<f64>,
}

impl Clock {
    fn new(reference: Reference) -> Clock {
        let mut clock = Clock {
            reference,
            chase: None,
            last_reference: 1.0,
            references: Vec::new(),
        };
        clock.last_reference = clock.reference();
        clock
    }

    /// The reference's nominal time (`1` when unscaled).
    fn nominal(&self) -> f64 {
        match self.reference {
            Reference::Unscaled => 1.0,
            Reference::Core => NOMINAL_CORE_US,
            Reference::Memory => NOMINAL_MEMORY_US,
        }
    }

    /// Times the reference (`1` when unscaled).
    fn reference(&mut self) -> f64 {
        let r = match self.reference {
            Reference::Unscaled => return 1.0,
            Reference::Core => core_reference_us(),
            Reference::Memory => self.chase.get_or_insert_with(Chase::new).time_us(),
        };
        self.references.push(r);
        r
    }

    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let (stolen, cpu) = (stolen_s(), thread_cpu_s());
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let off_cpu = cpu
            .zip(thread_cpu_s())
            .map_or(0.0, |(before, after)| wall - (after - before));
        let unstolen = wall - (stolen_s() - stolen).clamp(0.0, off_cpu.max(0.0));
        let before = self.last_reference;
        self.last_reference = self.reference();
        let scaled = unstolen * self.nominal() / before.min(self.last_reference);
        (
            out,
            Timed {
                wall,
                unstolen,
                scaled,
            },
        )
    }
}

/// Times the parts of one input build: every [`Parts::time`] call is one
/// part. Repeated builds make the same parts in the same order, and
/// `setup_s` sums each part's median time over the builds.
pub struct Parts<'a> {
    clock: Option<&'a mut Clock>,
    timed: Vec<Timed>,
}

impl Parts<'static> {
    /// Parts that are built but not timed (warm-up, tests).
    pub fn untimed() -> Self {
        Parts {
            clock: None,
            timed: Vec::new(),
        }
    }
}

impl Parts<'_> {
    /// Runs one part of the build.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        match self.clock.as_mut() {
            None => f(),
            Some(clock) => {
                let (out, timed) = clock.time(f);
                self.timed.push(timed);
                out
            }
        }
    }
}

/// Timed ops of one loop.
#[derive(Default)]
struct Tally {
    op_ms: Vec<f64>,
    ok: u64,
    rounds: u64,
    seconds: f64,
}

impl Tally {
    fn add(&mut self, op: workloads::Op, seconds: f64) {
        self.op_ms
            .push(if op.ok { seconds * 1e3 } else { f64::INFINITY });
        self.ok += u64::from(op.ok);
        self.rounds += op.rounds;
        self.seconds += seconds;
    }

    fn attempted(&self) -> u64 {
        self.op_ms.len() as u64
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&mut self.op_ms.clone(), q)
    }

    /// `count` per second of op time.
    fn rate(&self, count: u64) -> f64 {
        count as f64 / self.seconds.max(f64::MIN_POSITIVE)
    }
}

/// What one loop measured: its metrics, the ops it attempted and failed,
/// and facts for the info line.
struct Measured {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    info: String,
}

/// Set-up timings of one run: per part, its times over the builds.
#[derive(Default)]
struct Setup {
    parts: Vec<Vec<Timed>>,
    generator_s: Vec<f64>,
    /// Median reference time over the builds, in µs (`0` when unscaled).
    reference_us: f64,
}

impl Setup {
    /// The sum over parts of each part's median time.
    fn seconds(&self, time: fn(&Timed) -> f64) -> f64 {
        self.parts
            .iter()
            .map(|builds| median(&builds.iter().map(time).collect::<Vec<_>>()))
            .sum()
    }
}

fn run_bench<W: Bench>(config: &Config) -> Report {
    let seed = config.seed;
    // The set-up clock, and with it the memory reference's table, lives
    // for the whole run, so that the peak resident set holds the table at
    // any peak and `peak_rss_mb` can leave it out exactly.
    let mut clock = Clock::new(W::SETUP_REFERENCE);
    let (warm, _) = W::setup(seed, config.size, &mut Parts::untimed());
    for i in 0..W::WARMUP {
        warm.op(i, mix(seed, WARMUP_STREAM + i), None);
    }
    drop(warm);
    // Set-up is timed after the warm-up, part by part over repeated builds,
    // so that a run's first page faults, a cold core or one slow part do
    // not decide it. Each build is dropped before the next and the last one
    // serves the ops, so the peak resident set holds one set of inputs.
    clock.last_reference = clock.reference();
    let mut setup = Setup::default();
    let mut inputs = None;
    for _ in 0..W::SETUP_REPS {
        drop(inputs.take());
        let mut parts = Parts {
            clock: Some(&mut clock),
            timed: Vec::new(),
        };
        let (built, generator_s) = W::setup(seed, config.size, &mut parts);
        setup.parts.resize(parts.timed.len(), Vec::new());
        for (builds, timed) in setup.parts.iter_mut().zip(parts.timed) {
            builds.push(timed);
        }
        setup.generator_s.push(generator_s);
        inputs = Some(built);
    }
    setup.reference_us = median(&clock.references);
    let peak_rss_mb = || vm_hwm_mb() - clock.chase.as_ref().map_or(0.0, |_| Chase::MB);
    let bench = inputs.expect("at least one set-up");
    let oracle_ok = bench.oracle(0, mix(seed, ORACLE_STREAM));

    let start = Instant::now();
    let m = if config.trace {
        traced_loop(&bench, config, &setup)
    } else {
        untraced_loop(&bench, config, &setup, peak_rss_mb)
    };
    let info = format!(
        "workload={} seed={} trace={} ops={} threads={} available_parallelism={} wall_s={:.3}{}",
        config.workload.name(),
        seed,
        u8::from(config.trace),
        m.attempted,
        W::THREADS,
        std::thread::available_parallelism().map_or(0, |c| c.get()),
        start.elapsed().as_secs_f64(),
        m.info,
    );
    Report {
        correct: oracle_ok && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: m.metrics,
        info,
    }
}

/// A one-round budget for the op the config sabotages.
fn budget(config: &Config, i: u64) -> Option<u64> {
    (config.sabotage_op == Some(i)).then_some(1)
}

/// The end-to-end run: ops back to back for `config.seconds`, each timed
/// by a [`Clock`] with the workload's op reference.
fn untraced_loop<W: Bench>(
    bench: &W,
    config: &Config,
    setup: &Setup,
    peak_rss_mb: impl Fn() -> f64,
) -> Measured {
    let deadline = Duration::from_secs_f64(config.seconds);
    let mut clock = Clock::new(W::OP_REFERENCE);
    let (mut wall, mut unstolen, mut scaled) =
        (Tally::default(), Tally::default(), Tally::default());
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < deadline {
        let seed = mix(config.seed, OP_STREAM + i);
        let (op, t) = clock.time(|| bench.op(i, seed, budget(config, i)));
        wall.add(op, t.wall);
        unstolen.add(op, t.unstolen);
        scaled.add(op, t.scaled);
        i += 1;
    }
    let attempted = scaled.attempted().max(1);
    Measured {
        metrics: vec![
            ("setup_s", setup.seconds(|t| t.scaled), "s"),
            ("op_ms_p50", scaled.p(0.5), "ms"),
            ("op_ms_p90", scaled.p(0.9), "ms"),
            ("ops_per_s", scaled.rate(scaled.ok), "1/s"),
            ("rounds_per_s", scaled.rate(scaled.rounds), "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("success_frac", scaled.ok as f64 / attempted as f64, "frac"),
        ],
        attempted,
        failed: attempted - scaled.ok,
        info: format!(
            " setup_builds={} setup_parts={} unscaled_setup_s={:.6} wall_setup_s={:.6} \
             setup_reference_us={:.2} op_reference_us={:.2} stolen_frac={:.4} \
             wall_op_ms_p50={:.3} unscaled_op_ms_p50={:.3} unscaled_op_ms_p90={:.3} \
             unscaled_ops_per_s={:.3}",
            W::SETUP_REPS,
            setup.parts.len(),
            setup.seconds(|t| t.unstolen),
            setup.seconds(|t| t.wall),
            setup.reference_us,
            median(&clock.references),
            1.0 - unstolen.seconds / wall.seconds.max(f64::MIN_POSITIVE),
            wall.p(0.5),
            unstolen.p(0.5),
            unstolen.p(0.9),
            unstolen.rate(unstolen.ok),
        ),
    }
}

/// The spans of one traced op, aggregated per parent: the op's build and
/// steps, and the adversary brackets inside those steps.
struct OpSpans {
    op: u64,
    total_ns: u64,
    build_ns: u64,
    step_ns: u64,
    steps: u64,
    adversary_ns: u64,
    cr4_ns: u64,
}

/// A histogram quantile of step nanoseconds, in µs.
fn step_us(hist: &Histogram, q: f64) -> f64 {
    hist.quantile(q).unwrap_or(0) as f64 / 1e3
}

/// The per-layer run: untraced and traced ops alternate for
/// `config.seconds`, so that `trace.overhead` compares the two modes over
/// the same stretch of time; the loop runs at least [`EXACT_OPS`] traced
/// ops, whose simulated counts are reported.
fn traced_loop<W: Bench>(bench: &W, config: &Config, setup: &Setup) -> Measured {
    let deadline = Duration::from_secs_f64(config.seconds);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut hist = Histogram::new();
    let mut rows: Vec<OpSpans> = Vec::new();
    let (mut counts, mut exact) = (Counts::default(), Counts::default());
    let mut i = 0;
    while start.elapsed() < deadline || traced.attempted() < EXACT_OPS || i % 2 == 1 {
        let seed = mix(config.seed, OP_STREAM + i);
        let t = Instant::now();
        if i % 2 == 0 {
            let op = bench.op(i, seed, budget(config, i));
            plain.add(op, t.elapsed().as_secs_f64());
        } else {
            let mut spans = Spans::default();
            let op = bench.traced_op(i, seed, &mut hist, &mut spans);
            let took = t.elapsed();
            traced.add(op, took.as_secs_f64());
            rows.push(OpSpans {
                op: i,
                total_ns: took.as_nanos() as u64,
                build_ns: spans.build_ns,
                step_ns: spans.step_ns,
                steps: spans.steps,
                adversary_ns: spans.adversary.ns,
                cr4_ns: spans.adversary.cr4_ns,
            });
            counts.add(&spans.counts);
            if traced.attempted() == EXACT_OPS {
                exact = counts;
            }
        }
        i += 1;
    }
    let cpu_per_wall = (cpu_seconds() - cpu0) / start.elapsed().as_secs_f64();

    // Spans are written out at exit, one line per traced op.
    let sum = |f: fn(&OpSpans) -> u64| rows.iter().map(f).sum::<u64>() as f64;
    for r in &rows {
        eprintln!(
            "span op={} total_us={} build_us={} step_us={} steps={} adversary_us={} cr4_us={} step_self_us={} op_self_us={}",
            r.op,
            r.total_ns / 1000,
            r.build_ns / 1000,
            r.step_ns / 1000,
            r.steps,
            r.adversary_ns / 1000,
            r.cr4_ns / 1000,
            r.step_ns.saturating_sub(r.adversary_ns + r.cr4_ns) / 1000,
            r.total_ns.saturating_sub(r.build_ns + r.step_ns) / 1000,
        );
    }
    let (total_ns, step_ns) = (sum(|r| r.total_ns).max(1.0), sum(|r| r.step_ns).max(1.0));
    let (adversary_ns, cr4_ns) = (sum(|r| r.adversary_ns), sum(|r| r.cr4_ns));
    let rounds = counts.rounds.max(counts.settle_rounds).max(1.0);
    let build_ms: Vec<f64> = rows.iter().map(|r| r.build_ns as f64 / 1e6).collect();
    let per_op = |v: f64| v / EXACT_OPS as f64;
    // The build and step spans are the engine's on the engine workloads
    // and the stream session's on `quorum-stream`; the other layer reads 0.
    let (engine, stream) = if W::STREAM { (0.0, 1.0) } else { (1.0, 0.0) };
    let metrics = vec![
        ("net.build_ms", median(&setup.generator_s) * 1e3, "ms"),
        ("net.edges", bench.edges() as f64, "count"),
        ("engine.build_ms", engine * median(&build_ms), "ms"),
        ("engine.step_us_p50", engine * step_us(&hist, 0.5), "us"),
        ("engine.step_us_p90", engine * step_us(&hist, 0.9), "us"),
        ("engine.busy_frac", engine * step_ns / total_ns, "frac"),
        ("engine.rounds", per_op(exact.rounds), "count/op"),
        ("engine.sends", per_op(exact.sends), "count/op"),
        ("engine.collisions", per_op(exact.collisions), "count/op"),
        (
            "engine.senders_per_round",
            exact.senders / exact.rounds.max(1.0),
            "count",
        ),
        (
            "engine.informs_per_send",
            exact.informs / exact.sends.max(1.0),
            "count",
        ),
        ("shard.shards", bench.shards() as f64, "count"),
        ("shard.cpu_per_wall", cpu_per_wall, "ratio"),
        ("adversary.calls", per_op(exact.adv_calls), "count/op"),
        (
            "adversary.delivered",
            per_op(exact.adv_delivered),
            "count/op",
        ),
        ("adversary.cr4_calls", per_op(exact.cr4_calls), "count/op"),
        ("adversary.us_per_round", adversary_ns / rounds / 1e3, "us"),
        ("adversary.cr4_us_per_round", cr4_ns / rounds / 1e3, "us"),
        ("adversary.share", (adversary_ns + cr4_ns) / step_ns, "frac"),
        ("stream.build_ms", stream * median(&build_ms), "ms"),
        ("stream.step_us_p50", stream * step_us(&hist, 0.5), "us"),
        ("stream.step_us_p90", stream * step_us(&hist, 0.9), "us"),
        (
            "stream.rounds_to_settle",
            per_op(exact.settle_rounds),
            "count/op",
        ),
        ("mac.acked", per_op(exact.mac_acked), "count/op"),
        (
            "mac.ack_latency_mean",
            per_op(exact.ack_latency_mean),
            "rounds",
        ),
        (
            "mac.pending_acks_peak",
            per_op(exact.pending_acks_peak),
            "count/op",
        ),
        (
            "quorum.delivered",
            per_op(exact.quorum_delivered),
            "count/op",
        ),
        ("quorum.safety_violations", exact.safety_violations, "count"),
        (
            "quorum.accept_round_mean",
            per_op(exact.accept_round_mean),
            "rounds",
        ),
        (
            "dynamics.epoch_switches",
            per_op(exact.epoch_switches),
            "count/op",
        ),
        ("trace.overhead", traced.p(0.5) / plain.p(0.5), "ratio"),
    ];
    let attempted = plain.attempted() + traced.attempted();
    Measured {
        metrics,
        attempted,
        failed: attempted - plain.ok - traced.ok,
        info: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut [f64::INFINITY, 1.0, 2.0], 0.9), f64::INFINITY);
    }
}
