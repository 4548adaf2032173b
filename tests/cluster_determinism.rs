//! Integration test: the cluster engine's core guarantees.
//!
//! 1. A list of fleets fans out over the engine's workers (`Engine::map_ordered`, one
//!    whole fleet per worker), and every worker count must produce byte-identical
//!    outcomes in the same order; a replayed scenario archive reproduces its fleet run
//!    bit-for-bit.
//! 2. The fleet p99 reported from the merged per-node histograms must match a recompute
//!    over every latency sample the fleet produced.
//! 3. Under common random numbers, the Pliant fleet absorbs load the Precise fleet
//!    cannot, and batch jobs flow through the queue deterministically.
//! 4. Every interval, the even load split hands each serving node the same share,
//!    conserves the offered load, and routes nothing to down, draining or parked nodes.

use pliant::cluster::NodeHealth;
use pliant::prelude::*;

fn jobs() -> Vec<AppId> {
    vec![
        AppId::Canneal,
        AppId::Snp,
        AppId::Bayesian,
        AppId::KMeans,
        AppId::Canneal,
        AppId::Snp,
    ]
}

fn scenario() -> ClusterScenario {
    ClusterScenario {
        nodes: 4,
        jobs: jobs(),
        avg_node_load: 0.7,
        horizon: Horizon::Intervals(30),
        seed: 2024,
        ..ClusterScenario::paper_default(ServiceId::Memcached)
    }
}

#[test]
fn fleet_p99_matches_a_recompute_over_all_samples() {
    use pliant::telemetry::histogram::LatencyHistogram;

    let scenario = scenario();
    let outcome = Engine::new().run_cluster(&scenario);

    // Re-drive the same fleet one interval at a time and pool every latency sample
    // every node produced; the merged-histogram fleet p99 must equal the p99 of one
    // histogram over the pooled samples (histogram merging is exact).
    let engine = Engine::new();
    let mut run = ClusterRun::new(&scenario, &engine);
    let mut pooled = LatencyHistogram::new();
    let mut samples = 0u64;
    while !run.is_done() {
        let measured = run.intervals() >= scenario.warmup_intervals;
        run.step();
        if !measured {
            continue; // warm-up intervals are excluded from the QoS statistics
        }
        for node in 0..run.instance_count() {
            let observation = run.node(node).observation().expect("every node stepped");
            for latency_s in observation.latency_samples_s.iter() {
                pooled.record(latency_s * 1e6);
                samples += 1;
            }
        }
    }
    assert_eq!(outcome.fleet_samples, samples);
    assert_eq!(
        outcome.fleet_p99_s,
        pooled.p99() / 1e6,
        "merged per-node histograms must reproduce the pooled-sample quantile exactly"
    );
    // The mean depends on summation order (per-node partial sums vs one chronological
    // sum), so it agrees to floating-point reassociation error, not bit-for-bit.
    let mean_rel_err =
        (outcome.fleet_mean_latency_s - pooled.mean() / 1e6).abs() / (pooled.mean() / 1e6);
    assert!(
        mean_rel_err < 1e-12,
        "fleet mean must match the pooled mean up to reassociation error ({mean_rel_err:.2e})"
    );
}

#[test]
fn cluster_suites_pair_policies_under_common_random_numbers() {
    // A Precise and a Pliant fleet at one explicit seed: common random numbers.
    let cells: Vec<ClusterScenario> = [PolicyKind::Precise, PolicyKind::Pliant]
        .into_iter()
        .map(|policy| ClusterScenario {
            policy,
            seed: 2024,
            ..scenario()
        })
        .collect();
    let engine = Engine::new().parallel();
    let outcomes = engine.map_ordered(cells.len(), |i| engine.run_cluster(&cells[i]));
    assert_eq!(outcomes.len(), 2);
    let (precise, pliant) = (&outcomes[0], &outcomes[1]);
    assert_eq!(
        (precise.policy, pliant.policy),
        (PolicyKind::Precise, PolicyKind::Pliant)
    );
    // Both fleets saw the same offered-load sequence.
    assert_eq!(
        precise.mean_total_offered_load,
        pliant.mean_total_offered_load
    );
    // At 70% average load, memcached nodes co-located with precise batch work violate
    // QoS; Pliant absorbs the interference.
    assert!(
        pliant.fleet_tail_latency_ratio < precise.fleet_tail_latency_ratio,
        "Pliant fleet p99/QoS ({:.2}) must beat Precise ({:.2})",
        pliant.fleet_tail_latency_ratio,
        precise.fleet_tail_latency_ratio
    );
    assert!(
        pliant.fleet_qos_violation_fraction < precise.fleet_qos_violation_fraction,
        "Pliant must violate QoS on fewer node-intervals"
    );
}

#[test]
fn replayed_cluster_archives_reproduce_the_run_bit_for_bit() {
    let scenario = scenario();
    let engine = Engine::new();
    let original = engine.run_cluster(&scenario);
    let archived = serde_json::to_string(&scenario).expect("serializable");
    let restored: ClusterScenario = serde_json::from_str(&archived).expect("deserializable");
    assert_eq!(restored, scenario);
    let replayed = engine.run_cluster(&restored);
    assert_eq!(
        serde_json::to_string(&original).unwrap(),
        serde_json::to_string(&replayed).unwrap(),
        "a replayed archive must reproduce the original fleet run bit-for-bit"
    );
}

#[test]
fn pliant_fleet_needs_fewer_machines_than_precise_at_the_qos_target() {
    // The paper's headline fleet result, at the exact operating point `fig_cluster`
    // runs (the scenario constructor is shared with the binary): 2.6 node-saturation
    // units of memcached traffic must be served while every node co-locates one
    // long-running batch job. Under common random numbers the Precise baseline needs a
    // 5th machine to meet QoS; Pliant absorbs the interference by approximating the
    // co-runners and serves the same load with 4.
    let total_load = 2.6;
    let engine = Engine::new().parallel();
    let mut sweeps: Vec<Vec<(usize, ClusterOutcome)>> = vec![Vec::new(), Vec::new()];
    for nodes in 3usize..=6 {
        for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
            .into_iter()
            .enumerate()
        {
            let scenario =
                pliant_bench::cluster_machines_needed_scenario(nodes, total_load, policy, 7)
                    .expect("2.6 node-units fit every swept fleet size");
            let outcome = engine.run_cluster(&scenario);
            sweeps[pi].push((nodes, outcome));
        }
    }
    let precise = machines_needed(&sweeps[0]).expect("precise meets QoS at some size");
    let pliant = machines_needed(&sweeps[1]).expect("pliant meets QoS at some size");
    assert!(
        pliant < precise,
        "pliant must serve the same load with fewer machines ({pliant} vs {precise})"
    );
    assert_eq!(precise, 5);
    assert_eq!(pliant, 4);
    // The saving comes from approximation: at the 4-node operating point the Pliant
    // fleet runs its jobs approximately (non-zero quality loss), the Precise fleet
    // never does.
    let pliant_4 = &sweeps[1].iter().find(|(n, _)| *n == 4).unwrap().1;
    let precise_4 = &sweeps[0].iter().find(|(n, _)| *n == 4).unwrap().1;
    assert!(pliant_4.qos_met() && !precise_4.qos_met());
    assert!(pliant_4.mean_completed_inaccuracy_pct() > 0.0);
    assert_eq!(precise_4.mean_completed_inaccuracy_pct(), 0.0);
}

#[test]
fn even_split_conserves_load_and_starves_non_serving_nodes() {
    // The topology figure's racked, autoscaled, consolidating fleet with its whole-rack
    // outage, plus a straggler: nodes leave the serving set by crashing, draining and
    // parking, and a degraded node keeps serving.
    let mut scenario = pliant_bench::cluster_topology_scenario(PolicyKind::Pliant, true, 7);
    if let Some(profile) = &mut scenario.fault_profile {
        profile.scheduled.push(ScheduledFault {
            node: 5,
            at_interval: 20,
            duration_intervals: 30,
            kind: FaultKind::Degrade { factor: 0.6 },
        });
    }
    let engine = Engine::new();
    let mut run = ClusterRun::new(&scenario, &engine);
    let n = run.instance_count();
    let mut assigned_before = vec![0.0; n];
    let [mut down, mut draining, mut parked, mut degraded] = [0usize; 4];
    while !run.is_done() {
        run.step();
        // The interval's serving set, read back from the state it was planned from:
        // the autoscaler's power states and the fault health, neither of which changes
        // again before the next interval.
        let checkpoint = run.checkpoint();
        let states = &checkpoint.autoscaler.as_ref().expect("autoscaled").states;
        let health = &checkpoint.faults.as_ref().expect("faulted").health;
        let offered = checkpoint
            .books
            .load_series
            .points()
            .last()
            .expect("one point per interval")
            .value;
        let mut shares = Vec::new();
        let mut routed = 0.0;
        for i in 0..n {
            let books = run.node(i).books();
            let assigned = books.assigned_sum - assigned_before[i];
            assigned_before[i] = books.assigned_sum;
            if states[i] == NodePowerState::Active && health[i].is_serving() {
                degraded += usize::from(matches!(health[i], NodeHealth::Degraded { .. }));
                shares.push(assigned);
                routed += assigned * run.node(i).replicas() as f64;
                continue;
            }
            assert_eq!(
                assigned,
                0.0,
                "interval {}: non-serving node {i} ({:?}, {:?}) was routed load",
                run.intervals(),
                states[i],
                health[i]
            );
            match (states[i], health[i]) {
                (_, NodeHealth::Down { .. }) => down += 1,
                (NodePowerState::Draining, _) => draining += 1,
                _ => parked += 1,
            }
        }
        let share = shares[0];
        assert!(
            share > 0.0,
            "interval {}: serving nodes carry load",
            run.intervals()
        );
        for s in &shares {
            assert!(
                (s - share).abs() <= 1e-12 * share,
                "interval {}: uneven shares {shares:?}",
                run.intervals()
            );
        }
        assert!(
            (routed - offered).abs() <= 1e-9 * offered,
            "interval {}: routed {routed} of {offered} offered",
            run.intervals()
        );
    }
    // Every way out of (and the degraded way within) the serving set occurred.
    assert!(
        down > 0 && draining > 0 && parked > 0 && degraded > 0,
        "down {down}, draining {draining}, parked {parked}, degraded {degraded}"
    );
}

/// A 2×2-rack fleet under every fault kind: stochastic crashes and stragglers, a
/// scheduled crash and straggler, and a whole-rack power outage, so fault recovery,
/// job requeueing, rack admission and rack-sampled placement all run inside the cells.
fn faulted_racked_base() -> ClusterScenario {
    ClusterScenario {
        nodes: 4,
        jobs: vec![
            AppId::Raytrace,
            AppId::Raytrace,
            AppId::Raytrace,
            AppId::Raytrace,
            AppId::Canneal,
            AppId::Snp,
        ],
        avg_node_load: 0.6,
        horizon: Horizon::Intervals(40),
        seed: 11,
        topology: TopologyConfig::Racks {
            racks: 2,
            nodes_per_rack: 2,
            rack_power_w: Some(300.0),
        },
        fault_profile: Some(FaultProfile {
            crash_probability: 0.02,
            outage_intervals: 3,
            degrade_probability: 0.02,
            degrade_factor: 0.6,
            degrade_intervals: 3,
            scheduled: vec![
                ScheduledFault {
                    node: 0,
                    at_interval: 2,
                    duration_intervals: 4,
                    kind: FaultKind::Crash,
                },
                ScheduledFault {
                    node: 3,
                    at_interval: 5,
                    duration_intervals: 3,
                    kind: FaultKind::Degrade { factor: 0.5 },
                },
            ],
            rack_outages: vec![RackOutage {
                rack: 1,
                at_interval: 9,
                duration_intervals: 3,
            }],
        }),
        ..ClusterScenario::paper_default(ServiceId::Memcached)
    }
}

#[test]
fn fleet_suites_are_byte_identical_for_any_worker_count() {
    // Whole fleets fan out over the workers: 1, 2 and 3 workers split the cells
    // differently, and every split must return the same outcomes in the same order. The
    // second family's faulted, racked fleets exercise every coordinator phase.
    let flat: Vec<ClusterScenario> = (2..=6)
        .map(|nodes| ClusterScenario {
            nodes,
            horizon: Horizon::Intervals(12),
            seed: 5 + nodes as u64,
            ..scenario()
        })
        .collect();
    let mut faulted_racked = Vec::new();
    for policy in [PolicyKind::Precise, PolicyKind::Pliant] {
        for scheduler in [SchedulerKind::FirstFit, SchedulerKind::QosSlackAware] {
            faulted_racked.push(ClusterScenario {
                policy,
                scheduler,
                seed: 11 + faulted_racked.len() as u64,
                ..faulted_racked_base()
            });
        }
    }
    for (family, cells) in [("flat", flat), ("faulted-racked", faulted_racked)] {
        let archive = |threads: usize| -> Vec<String> {
            let engine = Engine::new().parallel_threads(threads);
            engine
                .map_ordered(cells.len(), |i| engine.run_cluster(&cells[i]))
                .iter()
                .zip(&cells)
                .map(|(outcome, cell)| {
                    assert_eq!(
                        (outcome.nodes, outcome.policy, outcome.scheduler),
                        (cell.nodes, cell.policy, cell.scheduler),
                        "{family}: outcomes must come back in cell order"
                    );
                    serde_json::to_string(outcome).expect("serializable")
                })
                .collect()
        };
        let one = archive(1);
        assert_eq!(one.len(), cells.len());
        assert_eq!(one, archive(2), "{family}: 2 workers changed the archive");
        assert_eq!(one, archive(3), "{family}: 3 workers changed the archive");
    }
}
