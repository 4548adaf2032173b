//! Integration tests: energy-accounting invariants and the fig_energy headline.
//!
//! 1. Energy accounting is deterministic: serial and parallel suites produce
//!    byte-identical single-node power traces and energy totals, and an autoscaled
//!    fleet replays bit-for-bit from its seed.
//! 2. Fleet energy is the exact sum of per-node accounting, which itself integrates
//!    the per-interval observations.
//! 3. Idle and parked machines bill exactly what the power model says they must.
//! 4. The headline: under one day/night cycle with the energy-aware autoscaler, the
//!    Pliant fleet serves the same load and completes the same batch within QoS at
//!    ≤ 0.9× the Precise fleet's joules.

use pliant::prelude::*;
use pliant_sim::colocation::{ColocationConfig, ColocationSim};

fn single_node_scenario(seed: u64) -> Scenario {
    Scenario::builder(ServiceId::Memcached)
        .app(AppId::Canneal)
        .load_profile(LoadProfile::Diurnal {
            base: 0.6,
            amplitude: 0.3,
            period_s: 30.0,
            phase_s: 0.0,
        })
        .horizon_intervals(40)
        .stop_when_apps_finish(false)
        .seed(seed)
        .build()
}

#[test]
fn energy_series_is_byte_identical_across_execution_modes() {
    let suite = Suite::new(single_node_scenario(29))
        .named("energy-modes")
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);
    let serial = Engine::new().run_collect(&suite);
    let parallel = Engine::new().parallel_threads(4).run_collect(&suite);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.outcome.total_energy_j, b.outcome.total_energy_j);
        assert_eq!(
            serde_json::to_string(a.outcome.trace.get("power_w").unwrap()).unwrap(),
            serde_json::to_string(b.outcome.trace.get("power_w").unwrap()).unwrap(),
            "the power trace must be byte-identical across execution modes"
        );
    }
}

#[test]
fn single_node_energy_integrates_the_power_trace() {
    let outcome = Engine::new().run_scenario(&single_node_scenario(3));
    let power = outcome.trace.get("power_w").expect("power_w series");
    assert_eq!(power.len(), outcome.intervals);
    let integral: f64 = power.values().iter().sum();
    assert!((outcome.total_energy_j - integral).abs() < 1e-9 * integral);
    assert!(outcome.mean_power_w > 0.0);
}

fn autoscaled_fleet(seed: u64) -> ClusterScenario {
    let mut scenario = pliant_bench::cluster_energy_scenario_at_scale(6, PolicyKind::Pliant, seed);
    // A shorter cycle keeps the invariant tests fast; the headline test below runs the
    // full fig_energy horizon.
    scenario.horizon = Horizon::Seconds(80.0);
    scenario
}

#[test]
fn fleet_energy_is_the_exact_sum_of_per_node_recomputes() {
    let scenario = autoscaled_fleet(11);
    let outcome = Engine::new().parallel().run_cluster(&scenario);

    // Re-drive the same fleet one interval at a time and integrate every node's
    // per-interval energy by hand from the observation it keeps; the engine's fleet
    // total must equal the sum of the per-node integrals exactly (energy summation is
    // per-node, then summed once — no reassociation).
    let engine = Engine::new();
    let mut run = ClusterRun::new(&scenario, &engine);
    let mut per_node = vec![0.0f64; run.instance_count()];
    while !run.is_done() {
        run.step();
        for (node, energy_j) in per_node.iter_mut().enumerate() {
            *energy_j += run
                .node(node)
                .observation()
                .expect("every node stepped")
                .energy_j;
        }
    }
    for (node_outcome, recomputed) in outcome.node_outcomes.iter().zip(&per_node) {
        assert_eq!(
            node_outcome.energy_j, *recomputed,
            "node {} energy must integrate its own observations exactly",
            node_outcome.node
        );
    }
    assert_eq!(
        outcome.fleet_energy_j,
        outcome
            .node_outcomes
            .iter()
            .map(|node| node.energy_j)
            .sum::<f64>(),
        "fleet energy must be the exact sum over nodes"
    );
    // And the trace's power series integrates to the same total.
    let power = outcome.trace.get("fleet_power_w").expect("fleet_power_w");
    let integral: f64 = power.values().iter().sum();
    assert!((outcome.fleet_energy_j - integral).abs() < 1e-9 * integral);
}

#[test]
fn idle_and_parked_machines_bill_exactly_what_the_model_says() {
    // Zero-load idle intervals with finished batch work bill exactly the
    // allocated-core idle power; parked machines bill exactly the suspend draw.
    let cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 5);
    let power = cfg.server.power.clone();
    let freq = cfg.server.base_freq_ghz;
    let mut sim = ColocationSim::new(cfg, Engine::new().catalog());
    for _ in 0..120 {
        if sim.advance(1.0).all_apps_finished {
            break;
        }
    }
    assert!(sim.app(0).is_finished(), "raytrace finishes within 120 s");
    sim.set_load_fraction(0.0);
    let idle = sim.advance(1.0);
    let allocated = sim.service_cores() + sim.app(0).cores();
    assert_eq!(idle.arrivals, 0);
    assert_eq!(idle.power_w, power.power_w(allocated, 0.0, freq));
    sim.set_parked(true);
    let parked = sim.advance(1.0);
    assert_eq!(parked.power_w, power.parked_w);
    assert!(parked.power_w < idle.power_w);
}

#[test]
fn autoscaled_fleets_are_deterministic_and_mode_invariant_under_crn() {
    let scenario = autoscaled_fleet(2024);
    let serial = Engine::new().run_cluster(&scenario);
    let replay = Engine::new().run_cluster(&scenario);
    let serial_json = serde_json::to_string(&serial).expect("serializable");
    assert_eq!(
        serial_json,
        serde_json::to_string(&replay).expect("serializable"),
        "the same seed must reproduce the same autoscaled run bit-for-bit"
    );
    // The autoscaler actually acted: the active set shrank below the fleet size.
    assert!(serial.min_active_nodes < scenario.nodes);
    assert!(serial.mean_active_nodes < scenario.nodes as f64);
    // CRN pairing: a different policy at the same seed sees the same offered load.
    let mut precise = scenario.clone();
    precise.policy = PolicyKind::Precise;
    let baseline = Engine::new().run_cluster(&precise);
    assert_eq!(
        baseline.mean_total_offered_load,
        serial.mean_total_offered_load
    );
}

#[test]
fn pliant_fleet_serves_the_same_load_within_qos_at_lower_joules() {
    // The fig_energy headline, at the exact operating point the binary runs (the
    // scenario constructor is shared with it): one day/night cycle over a 6-machine
    // fleet, day plateau at the fig_cluster load, fixed 12-job batch. Under common
    // random numbers both fleets meet QoS and complete the whole batch, and the
    // energy-aware autoscaler converts Pliant's tail headroom into parked machines:
    // ≤ 0.9× the Precise fleet's joules.
    let engine = Engine::new().parallel();
    let precise = engine.run_cluster(&pliant_bench::cluster_energy_scenario_at_scale(
        6,
        PolicyKind::Precise,
        7,
    ));
    let pliant = engine.run_cluster(&pliant_bench::cluster_energy_scenario_at_scale(
        6,
        PolicyKind::Pliant,
        7,
    ));

    // Equal QoS, equal work.
    assert!(precise.qos_met(), "the Precise fleet must meet QoS");
    assert!(pliant.qos_met(), "the Pliant fleet must meet QoS");
    assert_eq!(precise.jobs_completed(), 12);
    assert_eq!(pliant.jobs_completed(), 12);
    assert_eq!(
        precise.mean_total_offered_load,
        pliant.mean_total_offered_load
    );

    // The headline: measurably fewer joules, from fewer active machines.
    let ratio = pliant.fleet_energy_j / precise.fleet_energy_j;
    assert!(
        ratio <= 0.9,
        "Pliant fleet joules must be at most 0.9x Precise ({:.0} vs {:.0} J, ratio {ratio:.3})",
        pliant.fleet_energy_j,
        precise.fleet_energy_j
    );
    assert!(
        pliant.mean_active_nodes < precise.mean_active_nodes,
        "the saving must come from a smaller active set ({:.2} vs {:.2})",
        pliant.mean_active_nodes,
        precise.mean_active_nodes
    );
    assert!(
        pliant.min_active_nodes < precise.min_active_nodes,
        "at the night valley Pliant must serve on fewer machines ({} vs {})",
        pliant.min_active_nodes,
        precise.min_active_nodes
    );
    assert!(
        pliant.energy_per_completed_job_j < precise.energy_per_completed_job_j,
        "equal work at lower total energy means cheaper jobs"
    );
    // The saving comes from approximation: Pliant's jobs trade a bounded quality loss.
    assert!(pliant.mean_completed_inaccuracy_pct() > 0.0);
    assert!(pliant.mean_completed_inaccuracy_pct() <= 5.0);
    assert_eq!(precise.mean_completed_inaccuracy_pct(), 0.0);
}
