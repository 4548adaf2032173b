//! Hyperscale figure: the paper's fleet headlines at datacenter scale.
//!
//! The machines-needed and energy results are measured on single-digit fleets because
//! exact simulation steps every node. This binary rescales both studies to 10k–100k
//! logical nodes using the clustered fleet approximation: the population is grouped
//! into interchangeable-node clusters, a handful of representatives per group is
//! simulated under common random numbers, and each representative's contribution is
//! replicated per logical node it stands for. The sweep that takes minutes per point
//! exactly finishes interactively, because the instance count depends on the job mix
//! (a few groups), not the fleet size. The `simulated` columns report that instance
//! count; the repo benchmark's `fleet_clustered` workload measures the host time.
//!
//! Two headlines are reported:
//!
//! * **Machines needed** — the fig_cluster sweep scaled to the requested fleet: the
//!   same per-node operating pressure, fleet sizes swept around the requested size,
//!   and the smallest QoS-passing fleet per policy.
//! * **Energy** — the fig_energy day/night cycle scaled to the requested fleet, with
//!   the autoscaler sizing the active set and the Pliant/Precise joule ratio.
//!
//! Usage: `fig_hyperscale [--json] [--seed N] [--nodes N] [--approx K]
//!                        [--trace PATH] [--trace-level off|decisions|full]`
//!
//! Defaults: 10k nodes, 4 representatives per group, seed 7. `--approx 0` forces
//! exact simulation (every logical node stepped) — only interactive on small fleets.
//! `--trace-level` records the two day/night energy runs' decision events into the
//! `obs` block and `--trace PATH` also writes them to `PATH` tagged `energy-{policy}`
//! (see [`pliant_bench::fleet`]); the machines sweep is left untraced.

use pliant_bench::{
    cluster_energy_scenario_at_scale, cluster_machines_needed_scenario, format_latency,
    print_table, Cli, FleetRunner, TraceRunSummary,
};
use pliant_cluster::prelude::*;
use pliant_core::policy::PolicyKind;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

/// The approximation without `--approx`: 4 representatives per node group.
const DEFAULT_APPROXIMATION: FleetApproximation = FleetApproximation::Clustered {
    representatives_per_group: 4,
};

/// The fig_cluster sweep expressed as sixths of the requested fleet (3/6 .. 7/6), so
/// the 6-node study's operating points reappear unchanged at any scale.
const SWEEP_SIXTHS: [usize; 5] = [3, 4, 5, 6, 7];

#[derive(Serialize)]
struct SweepPoint {
    nodes: usize,
    simulated_instances: usize,
    policy: String,
    fleet_p99_s: f64,
    fleet_tail_latency_ratio: f64,
    fleet_qos_violation_fraction: f64,
    qos_met: bool,
}

#[derive(Serialize)]
struct EnergyPoint {
    policy: String,
    simulated_instances: usize,
    fleet_energy_j: f64,
    mean_fleet_power_w: f64,
    mean_active_nodes: f64,
    min_active_nodes: usize,
    fleet_tail_latency_ratio: f64,
    fleet_qos_violation_fraction: f64,
    qos_met: bool,
}

#[derive(Serialize)]
struct HyperscaleFigure {
    service: String,
    seed: u64,
    fleet_nodes: usize,
    /// Representatives simulated per node group (`0` = exact simulation).
    approx_representatives: usize,
    machines_curve: Vec<SweepPoint>,
    machines_needed_precise: Option<usize>,
    machines_needed_pliant: Option<usize>,
    energy: Vec<EnergyPoint>,
    pliant_to_precise_energy_ratio: f64,
    /// Per-run observability rollups for the energy runs (empty when untraced).
    obs: Vec<TraceRunSummary>,
}

fn main() {
    let cli = Cli::figure(&[
        "--seed N",
        "--nodes N",
        "--approx K",
        "--trace PATH",
        "--trace-level off|decisions|full",
    ]);
    let seed: u64 = cli.value("--seed").unwrap_or(7);
    let fleet_nodes = cli
        .at_least("--nodes", 6, "the sweep scales the 6-node study")
        .unwrap_or(10_000);
    let mut runner = FleetRunner::new(&cli);

    let service = ServiceId::Memcached;

    // Machines needed at scale: the fig_cluster pressure (2.6 node-units per 6
    // provisioned nodes) over fleet sizes swept around the requested one. The sweep
    // is never traced.
    let total_load = 2.6 / 6.0 * fleet_nodes as f64;
    let mut machines_curve = Vec::new();
    let mut sweeps: [Vec<(usize, ClusterOutcome)>; 2] = [Vec::new(), Vec::new()];
    for &sixths in &SWEEP_SIXTHS {
        let nodes = sixths * fleet_nodes / 6;
        for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
            .into_iter()
            .enumerate()
        {
            let Some(mut s) = cluster_machines_needed_scenario(nodes, total_load, policy, seed)
            else {
                eprintln!("note: skipping {nodes}-machine fleet — load exceeds saturation");
                continue;
            };
            s.approximation = DEFAULT_APPROXIMATION;
            let outcome = runner.run_untraced(&mut s);
            machines_curve.push(SweepPoint {
                nodes,
                simulated_instances: outcome.simulated_instances,
                policy: policy.to_string(),
                fleet_p99_s: outcome.fleet_p99_s,
                fleet_tail_latency_ratio: outcome.fleet_tail_latency_ratio,
                fleet_qos_violation_fraction: outcome.fleet_qos_violation_fraction,
                qos_met: outcome.qos_met(),
            });
            sweeps[pi].push((nodes, outcome));
        }
    }
    let machines_precise = machines_needed(&sweeps[0]);
    let machines_pliant = machines_needed(&sweeps[1]);

    // Energy at scale: the day/night cycle on the requested fleet.
    let mut energy = Vec::new();
    let mut energies = [0.0f64; 2];
    let mut approximation = DEFAULT_APPROXIMATION;
    for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
        .into_iter()
        .enumerate()
    {
        let mut scenario = cluster_energy_scenario_at_scale(fleet_nodes, policy, seed);
        scenario.approximation = DEFAULT_APPROXIMATION;
        let (outcome, _) = runner.run(&mut scenario, &format!("energy-{policy}"));
        approximation = scenario.approximation;
        energies[pi] = outcome.fleet_energy_j;
        energy.push(EnergyPoint {
            policy: policy.to_string(),
            simulated_instances: outcome.simulated_instances,
            fleet_energy_j: outcome.fleet_energy_j,
            mean_fleet_power_w: outcome.mean_fleet_power_w,
            mean_active_nodes: outcome.mean_active_nodes,
            min_active_nodes: outcome.min_active_nodes,
            fleet_tail_latency_ratio: outcome.fleet_tail_latency_ratio,
            fleet_qos_violation_fraction: outcome.fleet_qos_violation_fraction,
            qos_met: outcome.qos_met(),
        });
    }
    let ratio = energies[1] / energies[0];
    let approx_representatives = match approximation {
        FleetApproximation::Exact => 0,
        FleetApproximation::Clustered {
            representatives_per_group,
        } => representatives_per_group,
    };

    let figure = HyperscaleFigure {
        service: service.name().to_string(),
        seed,
        fleet_nodes,
        approx_representatives,
        machines_curve,
        machines_needed_precise: machines_precise,
        machines_needed_pliant: machines_pliant,
        energy,
        pliant_to_precise_energy_ratio: ratio,
        obs: runner.obs(),
    };

    runner.emit(&cli, &figure, |figure| {
        let mode = if approx_representatives == 0 {
            "exact simulation".to_string()
        } else {
            format!("clustered approximation, {approx_representatives} representatives per group")
        };
        println!(
            "Hyperscale fleet headlines: {} around {} machines ({mode}; CRN seed {})\n",
            service.name(),
            fleet_nodes,
            seed
        );

        let rows: Vec<Vec<String>> = figure
            .machines_curve
            .iter()
            .map(|p| {
                vec![
                    p.nodes.to_string(),
                    p.simulated_instances.to_string(),
                    p.policy.clone(),
                    format_latency(service, p.fleet_p99_s),
                    format!("{:.2}", p.fleet_tail_latency_ratio),
                    format!("{:.1}%", p.fleet_qos_violation_fraction * 100.0),
                    if p.qos_met { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "machines",
                "simulated",
                "policy",
                "fleet p99",
                "p99/QoS",
                "violations",
                "QoS met",
            ],
            &rows,
        );
        let describe = |m: Option<usize>| match m {
            Some(n) => n.to_string(),
            None => format!(
                ">{}",
                SWEEP_SIXTHS[SWEEP_SIXTHS.len() - 1] * fleet_nodes / 6
            ),
        };
        println!(
            "\nmachines needed: precise = {}, pliant = {}",
            describe(machines_precise),
            describe(machines_pliant)
        );
        if let (Some(p), Some(q)) = (machines_precise, machines_pliant) {
            if q < p {
                println!(
                    "pliant serves the same load with {} fewer machines ({:.0}% of the precise fleet)",
                    p - q,
                    100.0 * q as f64 / p as f64
                );
            }
        }

        println!("\nDay/night energy on the {}-machine fleet:\n", fleet_nodes);
        let rows: Vec<Vec<String>> = figure
            .energy
            .iter()
            .map(|p| {
                vec![
                    p.policy.clone(),
                    p.simulated_instances.to_string(),
                    format!("{:.1} MJ", p.fleet_energy_j / 1e6),
                    format!("{:.1} kW", p.mean_fleet_power_w / 1e3),
                    format!("{:.1}", p.mean_active_nodes),
                    p.min_active_nodes.to_string(),
                    format!("{:.2}", p.fleet_tail_latency_ratio),
                    if p.qos_met { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "policy",
                "simulated",
                "fleet energy",
                "mean power",
                "mean active",
                "min active",
                "p99/QoS",
                "QoS met",
            ],
            &rows,
        );
        println!(
            "\npliant / precise fleet energy = {:.2} ({:.0}% of the precise fleet's joules)",
            ratio,
            ratio * 100.0
        );
    });
}
