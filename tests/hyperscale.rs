//! Integration tests for the hyperscale fleet approximation.
//!
//! The clustered approximation simulates one representative node per group of
//! interchangeable logical nodes and replicates its contributions. These tests pin
//! the promises the approximation makes:
//!
//! 1. **Error bound** (test-enforced, see README "Hyperscale"): on small fleets where
//!    exact simulation is cheap, the clustered run must reproduce the exact run's
//!    machines-needed decision exactly, and its fleet p99 and energy within stated
//!    relative bounds.
//! 2. **Scale**: a 10k-node fleet collapses to a handful of simulated instances while
//!    still reporting logical-fleet statistics.

use pliant::prelude::*;

/// Relative-error bound on fleet p99 (and p99/QoS) between exact and clustered runs
/// of the same small-fleet scenario. Measured headroom: the 12-node day/night check
/// lands near 4% — the bound is 10%.
const P99_REL_BOUND: f64 = 0.10;
/// Relative-error bound on fleet energy. Measured headroom: ~0.1% — the bound is 5%.
const ENERGY_REL_BOUND: f64 = 0.05;
/// Absolute bound on the QoS-violation fraction difference.
const VIOLATION_ABS_BOUND: f64 = 0.05;

fn rel_err(approx: f64, exact: f64) -> f64 {
    (approx - exact).abs() / exact.abs().max(f64::MIN_POSITIVE)
}

/// The day/night scenario of the energy study at a given size, in either mode.
fn diurnal(nodes: usize, approximation: FleetApproximation) -> ClusterScenario {
    let mut scenario = pliant_bench::cluster_energy_scenario_at_scale(nodes, PolicyKind::Pliant, 7);
    scenario.approximation = approximation;
    scenario
}

#[test]
fn clustered_machines_needed_matches_exact_on_small_fleets() {
    // The fig_hyperscale sweep at a 12-node anchor, run both exactly and through the
    // approximation: the QoS verdict at every operating point — and therefore the
    // machines-needed headline per policy — must agree.
    let engine = Engine::new().parallel();
    let fleet_nodes = 12usize;
    let total_load = 2.6 / 6.0 * fleet_nodes as f64;
    for policy in [PolicyKind::Precise, PolicyKind::Pliant] {
        let mut sweeps: Vec<Vec<(usize, ClusterOutcome)>> = vec![Vec::new(), Vec::new()];
        for sixths in [3usize, 4, 5, 6, 7] {
            let nodes = sixths * fleet_nodes / 6;
            for (mi, approximation) in [
                FleetApproximation::Exact,
                FleetApproximation::Clustered {
                    representatives_per_group: 2,
                },
            ]
            .into_iter()
            .enumerate()
            {
                let mut scenario =
                    pliant_bench::cluster_machines_needed_scenario(nodes, total_load, policy, 7)
                        .expect("swept sizes stay below saturation");
                scenario.approximation = approximation;
                let outcome = engine.run_cluster(&scenario);
                assert_eq!(outcome.nodes, nodes, "outcome reports the logical fleet");
                sweeps[mi].push((nodes, outcome));
            }
        }
        for ((nodes, exact), (_, clustered)) in sweeps[0].iter().zip(&sweeps[1]) {
            assert_eq!(
                exact.qos_met(),
                clustered.qos_met(),
                "{policy}: QoS verdict must agree at {nodes} machines \
                 (exact p99/QoS {:.3}, clustered {:.3})",
                exact.fleet_tail_latency_ratio,
                clustered.fleet_tail_latency_ratio
            );
        }
        assert_eq!(
            machines_needed(&sweeps[0]),
            machines_needed(&sweeps[1]),
            "{policy}: the machines-needed headline must survive the approximation"
        );
    }
}

#[test]
fn clustered_p99_and_energy_stay_within_the_stated_bounds() {
    // The error bound the README states, enforced: on the 12-node day/night scenario
    // (autoscaler active, so parking/draining and energy accounting are all in play),
    // the clustered run lands within P99_REL_BOUND / ENERGY_REL_BOUND of exact.
    let engine = Engine::new().parallel();
    let exact = engine.run_cluster(&diurnal(12, FleetApproximation::Exact));
    let clustered = engine.run_cluster(&diurnal(
        12,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    ));

    assert_eq!(exact.simulated_instances, 12);
    assert!(
        clustered.simulated_instances < 12,
        "the approximation must actually reduce the simulated instance count, got {}",
        clustered.simulated_instances
    );
    assert_eq!(clustered.nodes, 12, "logical fleet size is preserved");

    let p99_err = rel_err(clustered.fleet_p99_s, exact.fleet_p99_s);
    assert!(
        p99_err < P99_REL_BOUND,
        "fleet p99 error {p99_err:.4} exceeds the {P99_REL_BOUND} bound \
         ({:.6}s clustered vs {:.6}s exact)",
        clustered.fleet_p99_s,
        exact.fleet_p99_s
    );
    let ratio_err = rel_err(
        clustered.fleet_tail_latency_ratio,
        exact.fleet_tail_latency_ratio,
    );
    assert!(
        ratio_err < P99_REL_BOUND,
        "p99/QoS error {ratio_err:.4} exceeds the {P99_REL_BOUND} bound"
    );
    let energy_err = rel_err(clustered.fleet_energy_j, exact.fleet_energy_j);
    assert!(
        energy_err < ENERGY_REL_BOUND,
        "fleet energy error {energy_err:.4} exceeds the {ENERGY_REL_BOUND} bound \
         ({:.1}J clustered vs {:.1}J exact)",
        clustered.fleet_energy_j,
        exact.fleet_energy_j
    );
    let violation_diff =
        (clustered.fleet_qos_violation_fraction - exact.fleet_qos_violation_fraction).abs();
    assert!(
        violation_diff < VIOLATION_ABS_BOUND,
        "QoS-violation fraction differs by {violation_diff:.4} (> {VIOLATION_ABS_BOUND})"
    );
}

#[test]
fn ten_thousand_node_fleet_collapses_to_a_handful_of_instances() {
    // The hyperscale headline: 10k logical nodes, a handful of simulated instances,
    // full logical-fleet statistics. The >= 10x claim is checked deterministically, not
    // timed: fewer than 100 instances stand for 10k logical nodes, i.e. at least 100x
    // fewer instance-steps than exact simulation. The repo benchmark's fleet_clustered
    // workload measures the host time.
    let scenario = diurnal(
        10_000,
        FleetApproximation::Clustered {
            representatives_per_group: 4,
        },
    );
    let outcome = Engine::new().parallel().run_cluster(&scenario);
    assert_eq!(outcome.nodes, 10_000);
    assert_eq!(
        outcome.approximation,
        FleetApproximation::Clustered {
            representatives_per_group: 4
        }
    );
    assert!(
        outcome.simulated_instances < 100,
        "expected a handful of instances, got {}",
        outcome.simulated_instances
    );
    // Replica weights must conserve the population: per-node outcomes carry their
    // replication factor and the factors sum to the logical fleet.
    let replicated: usize = outcome.node_outcomes.iter().map(|n| n.replicas).sum();
    assert_eq!(replicated, 10_000);
    assert!(outcome.fleet_samples > 0);
    assert!(outcome.fleet_p99_s.is_finite() && outcome.fleet_p99_s > 0.0);
    assert!(outcome.fleet_energy_j.is_finite() && outcome.fleet_energy_j > 0.0);
    assert!(
        outcome.mean_active_nodes <= 10_000.0 && outcome.mean_active_nodes > 0.0,
        "active-node statistics are in logical-node units"
    );
}

/// Regression (observability PR audit): every fleet trace series recorded from
/// clustered representatives must be replica-weighted exactly like the outcome
/// aggregates it sits next to. A mixed convention — say, per-instance power under a
/// logical-fleet energy total — would make the exported traces contradict the
/// headline numbers they are supposed to explain.
#[test]
fn clustered_trace_series_stay_consistent_with_outcome_aggregates() {
    let scenario = diurnal(
        24,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    );
    let outcome = Engine::new().parallel().run_cluster(&scenario);
    assert!(
        outcome.simulated_instances < outcome.nodes,
        "the approximation must actually collapse the fleet"
    );

    // fleet_power_w integrates to the fleet energy total (same replica weighting,
    // different summation order — hence the tolerance).
    let power = outcome.trace.get("fleet_power_w").expect("power series");
    let integrated: f64 = power.values().iter().sum::<f64>() * scenario.decision_interval_s();
    let rel = (integrated - outcome.fleet_energy_j).abs() / outcome.fleet_energy_j;
    assert!(
        rel < 1e-9,
        "sum(fleet_power_w)*dt = {integrated} vs fleet_energy_j = {} (rel {rel:.2e})",
        outcome.fleet_energy_j
    );

    // total_extra_cores peaks at the outcome's replica-weighted maximum.
    let cores = outcome
        .trace
        .get("total_extra_cores")
        .expect("cores series");
    let max = |values: &[f64]| values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(max(&cores.values()), outcome.max_total_extra_cores as f64);

    // active_nodes averages to the outcome's logical mean and never exceeds the
    // logical fleet.
    let active = outcome
        .trace
        .get("active_nodes")
        .expect("active series")
        .values();
    assert!(!active.is_empty());
    assert_eq!(
        active.iter().sum::<f64>() / active.len() as f64,
        outcome.mean_active_nodes
    );
    assert!(max(&active) <= outcome.nodes as f64);
    assert_eq!(
        active.iter().copied().fold(f64::INFINITY, f64::min),
        outcome.min_active_nodes as f64
    );

    // violating_nodes is in logical-node units too: no interval can report more
    // violating nodes than the fleet holds.
    let violating = outcome
        .trace
        .get("violating_nodes")
        .expect("violating series");
    assert!(max(&violating.values()) <= outcome.nodes as f64);
}
