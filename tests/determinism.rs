//! Reproducibility: everything is a deterministic function of seeds.

use dualgraph::{
    generators, run_broadcast, Decay, Harmonic, RandomDelivery, RoundRobin, RunConfig,
    StrongSelect, Uniform,
};
use dualgraph_broadcast::algorithms::BroadcastAlgorithm;
use dualgraph_broadcast::lower_bounds::layered::{construct, LayeredBoundOptions};

#[test]
fn identical_seeds_identical_outcomes() {
    let net = generators::er_dual(
        generators::ErDualParams {
            n: 30,
            reliable_p: 0.08,
            unreliable_p: 0.2,
        },
        9,
    );
    let algos: Vec<Box<dyn BroadcastAlgorithm>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(StrongSelect::new()),
        Box::new(Harmonic::new()),
        Box::new(Decay::new()),
        Box::new(Uniform::new(0.2)),
    ];
    for algo in &algos {
        let run = |seed| {
            run_broadcast(
                &net,
                algo.as_ref(),
                Box::new(RandomDelivery::new(0.5, seed)),
                RunConfig::default()
                    .with_seed(seed)
                    .with_max_rounds(1_000_000),
            )
            .unwrap()
        };
        assert_eq!(run(5), run(5), "{} not reproducible", algo.name());
    }
}

#[test]
fn layered_construction_is_reproducible() {
    let a = construct(&StrongSelect::new(), 17, LayeredBoundOptions::default()).unwrap();
    let b = construct(&StrongSelect::new(), 17, LayeredBoundOptions::default()).unwrap();
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.stages, b.stages);
}

#[test]
fn executor_clone_is_a_fork() {
    use dualgraph::{Executor, ExecutorConfig};
    let net = generators::layered_pairs(15);
    let mut exec = Executor::from_slots(
        &net,
        Harmonic::new().slots(15, 3),
        Box::new(RandomDelivery::new(0.5, 4)),
        ExecutorConfig::default(),
    )
    .unwrap();
    exec.run_rounds(10);
    let mut fork = exec.clone();
    // Both continuations must agree forever after.
    let a = exec.run_until_complete(1_000_000);
    let b = fork.run_until_complete(1_000_000);
    assert_eq!(a, b);
}

#[test]
fn different_master_seeds_change_randomized_runs() {
    let net = generators::line(24, 2);
    let run = |seed| {
        run_broadcast(
            &net,
            &Decay::new(),
            Box::new(RandomDelivery::new(0.5, seed)),
            RunConfig::default()
                .with_seed(seed)
                .with_max_rounds(1_000_000),
        )
        .unwrap()
    };
    let outcomes: Vec<_> = (0..4).map(run).collect();
    assert!(
        outcomes.windows(2).any(|w| w[0] != w[1]),
        "four different seeds gave identical executions"
    );
}
