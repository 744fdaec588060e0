//! Gray zones: the motivating scenario from the paper's introduction.
//!
//! Nodes are scattered in the unit square. Pairs within the inner radius
//! have reliable links; pairs in the annulus up to the outer radius sit in
//! the communication *gray zone* — their links flap on and off (here: a
//! Gilbert–Elliott bursty process, the "door opening" effect of [26]).
//!
//! The example broadcasts with Harmonic Broadcast through the flaky field,
//! then runs an ETX-style probing phase that learns which links are
//! reliable — the link-quality culling the paper cites as standard
//! practice, and the "learning the topology" direction of its conclusion.
//!
//! ```text
//! cargo run --release --example gray_zone
//! ```

use dualgraph::broadcast::link_estimation::{estimate_links, EstimationConfig};
use dualgraph::{generators, run_broadcast, BurstyDelivery, Harmonic, RunConfig};

fn main() {
    let params = generators::GeometricDualParams {
        n: 120,
        reliable_radius: 0.14,
        gray_radius: 0.30,
    };
    let net = generators::geometric_dual(params, 2024);
    println!(
        "geometric field: n={} reliable edges={} gray-zone edges={}",
        net.len(),
        net.reliable_csr().edge_count() / 2,
        net.unreliable_edge_count() / 2
    );

    // Part 1: broadcast through the flaky field.
    println!("\n== broadcast under bursty gray-zone links ==");
    for (label, p_fail, p_recover) in [
        ("calm    (fail 5%, recover 50%)", 0.05, 0.5),
        ("stormy  (fail 40%, recover 20%)", 0.40, 0.2),
        ("hostile (fail 80%, recover 10%)", 0.80, 0.1),
    ] {
        let mut rounds = Vec::new();
        for seed in 0..5u64 {
            let outcome = run_broadcast(
                &net,
                &Harmonic::new(),
                Box::new(BurstyDelivery::new(p_fail, p_recover, seed)),
                RunConfig::default()
                    .with_seed(seed)
                    .with_max_rounds(2_000_000),
            )
            .expect("run");
            assert!(outcome.completed);
            rounds.push(outcome.completion_round.unwrap());
        }
        let median = {
            rounds.sort_unstable();
            rounds[rounds.len() / 2]
        };
        println!("  {label}: median completion {median} rounds");
    }

    // Part 2: learn the reliable subgraph by probing.
    println!("\n== ETX-style link classification ==");
    for (label, p_fail, p_recover) in [("calm", 0.05, 0.5), ("stormy", 0.4, 0.2)] {
        let (obs, pr) = estimate_links(
            &net,
            Box::new(BurstyDelivery::new(p_fail, p_recover, 7)),
            EstimationConfig {
                probe_probability: 0.02,
                rounds: 8_000,
                threshold: 0.75,
                min_samples: 8,
                seed: 7,
            },
        );
        println!(
            "  {label}: observed {} directed links, precision {:.3}, recall {:.3}",
            obs.observed_links(),
            pr.precision(),
            pr.recall()
        );
    }
    println!(
        "\nhigh precision = gray-zone links culled; recall < 1 reflects probes\n\
         lost to collisions, exactly as physical ETX probes are."
    );
}
