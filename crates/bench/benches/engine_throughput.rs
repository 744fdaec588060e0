//! Engine-throughput bench: the enum-dispatched batched process table vs
//! boxed dispatch vs the frozen PR 1 engine vs the naive reference
//! oracle, plus the parallel trial runner and many-sender flooding
//! against the jamming adversary — the perf contract of the hot-path
//! work.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use dualgraph_bench::engine_bench::{
    measure_chatter, measure_chatter_pr1, measure_flooding, measure_flooding_pr1,
    measure_reference, workload_network, Dispatch,
};
use dualgraph_broadcast::algorithms::Harmonic;
use dualgraph_broadcast::runner::{run_trials_par_with, RunConfig};
use dualgraph_sim::{CollisionSeeker, Executor, ExecutorConfig, Flooder, RandomDelivery};

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    for n in [65usize, 257] {
        let net = workload_network(n);
        group.bench_with_input(BenchmarkId::new("chatter-enum", n), &net, |b, net| {
            b.iter(|| measure_chatter(net, 7, 200, Dispatch::Enum))
        });
        group.bench_with_input(BenchmarkId::new("chatter-boxed", n), &net, |b, net| {
            b.iter(|| measure_chatter(net, 7, 200, Dispatch::Boxed))
        });
        group.bench_with_input(BenchmarkId::new("flooding-enum", n), &net, |b, net| {
            b.iter(|| measure_flooding(net, 200, Dispatch::Enum))
        });
        group.bench_with_input(BenchmarkId::new("flooding-pr1", n), &net, |b, net| {
            b.iter(|| measure_flooding_pr1(net, 200))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &net, |b, net| {
            b.iter(|| measure_reference(net, 7, 200))
        });
        // Flooding stalls against the jamming adversary with every informed
        // node sending: the many-sender, short-row regime where
        // `CollisionSeeker` scans each sender's `G′ ∖ G` row rather than
        // walking its jam set.
        group.bench_with_input(
            BenchmarkId::new("flooding-collision-seeker", n),
            &net,
            |b, net| {
                b.iter(|| {
                    let mut exec = Executor::from_slots(
                        net,
                        Flooder::slots(net.len()),
                        Box::new(CollisionSeeker::new()),
                        ExecutorConfig::default(),
                    )
                    .unwrap();
                    exec.run_rounds(200);
                    exec.outcome()
                })
            },
        );
    }
    let net = workload_network(65);
    group.bench_with_input(BenchmarkId::new("trials-par", 65), &net, |b, net| {
        b.iter(|| {
            run_trials_par_with(
                net,
                &Harmonic::new(),
                |s| Box::new(RandomDelivery::new(0.5, s)),
                RunConfig::default().with_max_rounds(200_000),
                4,
                2,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn main() {
    // Headline ratios first: enum dispatch vs the PR 1 engine at n = 257.
    let net = workload_network(257);
    let pr1 = measure_flooding_pr1(&net, 300);
    let flooding = measure_flooding(&net, 300, Dispatch::Enum);
    let chatter_pr1 = measure_chatter_pr1(&net, 7, 300);
    let chatter = measure_chatter(&net, 7, 300, Dispatch::Enum);
    println!(
        "dense flooding at n=257: {:.1}x vs PR 1 (pr1 {:.0} ns/round -> enum {:.0} ns/round)\n\
         chatter        at n=257: {:.1}x vs PR 1 (pr1 {:.0} ns/round -> enum {:.0} ns/round)\n",
        pr1.ns_per_round() / flooding.ns_per_round(),
        pr1.ns_per_round(),
        flooding.ns_per_round(),
        chatter_pr1.ns_per_round() / chatter.ns_per_round(),
        chatter_pr1.ns_per_round(),
        chatter.ns_per_round(),
    );
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .configure_from_args();
    benches(&mut c);
    c.final_summary();
}
