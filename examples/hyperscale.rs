//! Hyperscale fleets: the clustered approximation on a 20,000-node population.
//!
//! An exact fleet simulation steps every node every interval, so datacenter-scale
//! scenarios are out of interactive reach. This example builds a 20k-node scenario,
//! shows how the node population collapses into a few groups of interchangeable
//! nodes, runs it through the clustered approximation (a handful of representatives
//! per group, contributions replicated per logical node), and compares the same small
//! scenario exactly vs clustered to show what the approximation preserves.
//!
//! Run with: `cargo run --release --example hyperscale`

use pliant::prelude::*;

/// A day/night fleet scenario at the given size: three batch kernels cycled over the
/// nodes (so the population clusters into three groups) under a diurnal load.
fn scenario(nodes: usize, approximation: FleetApproximation) -> ClusterScenario {
    let mix = [AppId::Bayesian, AppId::Semphy, AppId::ClustalW];
    ClusterScenario {
        nodes,
        jobs: (0..nodes).map(|i| mix[i % mix.len()]).collect(),
        load_profile: Some(LoadProfile::Diurnal {
            base: 0.55,
            amplitude: 0.2,
            period_s: 120.0,
            phase_s: 0.0,
        }),
        approximation,
        horizon: Horizon::Seconds(120.0),
        warmup_intervals: 8,
        seed: 7,
        ..ClusterScenario::paper_default(ServiceId::Memcached)
    }
}

fn main() {
    // 1. The population view: 20k nodes, but only three distinct node groups, because
    //    clustering keys on what makes nodes behave differently — their batch mix.
    let big = scenario(
        20_000,
        FleetApproximation::Clustered {
            representatives_per_group: 4,
        },
    );
    let population = NodePopulation::from_scenario(&big);
    println!(
        "{} logical nodes cluster into {} groups:",
        population.total_nodes(),
        population.groups().len()
    );
    for (i, group) in population.groups().iter().enumerate() {
        println!("  group {i}: {} nodes running {:?}", group.len, group.jobs);
    }

    // 2. Run the 20k-node fleet through the approximation: 12 simulated instances
    //    stand for the whole population.
    let engine = Engine::new();
    // pliant-lint: allow(nondeterminism): the example's whole point is showing the
    // wall-clock the approximation buys; nothing simulated depends on this reading.
    let started = std::time::Instant::now();
    let outcome = engine.run_cluster(&big);
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "\n20k-node day/night cycle: {} instances simulated, {:.2}s wall clock",
        outcome.simulated_instances, elapsed
    );
    println!(
        "  fleet p99/QoS {:.2}, violations {:.1}%, energy {:.1} MJ",
        outcome.fleet_tail_latency_ratio,
        outcome.fleet_qos_violation_fraction * 100.0,
        outcome.fleet_energy_j / 1e6
    );

    // 3. Fidelity check on a small fleet, where exact simulation is cheap: the same
    //    12-node scenario exactly and through the approximation.
    let exact = engine.run_cluster(&scenario(12, FleetApproximation::Exact));
    let approx = engine.run_cluster(&scenario(
        12,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    ));
    println!(
        "\n12-node fidelity check (exact vs 2 representatives per group):\n  \
         p99/QoS   {:.3} vs {:.3}\n  \
         violations {:.2}% vs {:.2}%\n  \
         energy    {:.1} kJ vs {:.1} kJ ({} vs {} instances simulated)",
        exact.fleet_tail_latency_ratio,
        approx.fleet_tail_latency_ratio,
        exact.fleet_qos_violation_fraction * 100.0,
        approx.fleet_qos_violation_fraction * 100.0,
        exact.fleet_energy_j / 1e3,
        approx.fleet_energy_j / 1e3,
        exact.simulated_instances,
        approx.simulated_instances
    );
}
