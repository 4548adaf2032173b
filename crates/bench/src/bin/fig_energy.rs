//! Energy figure: the machines-needed headline converted into joules.
//!
//! The fleet-level claim of the paper is that approximation-aware co-location serves
//! the same load within QoS on fewer machines; the datacenter cost that efficiency
//! converts into is energy. This binary drives the `fig_cluster` operating point
//! through a diurnal day/night cycle with the energy-aware autoscaler sizing the
//! active node set, under the Precise baseline and under Pliant with **common random
//! numbers**, and reports fleet energy: Pliant's tail headroom lets the autoscaler
//! consolidate the same traffic onto fewer active machines at every phase of the
//! cycle (surplus machines park at the suspend draw), so the Pliant fleet serves the
//! same load within QoS at measurably lower joules.
//!
//! Usage: `fig_energy [--json] [--seed N] [--nodes N] [--approx K]
//!                    [--rack-size N [--rack-power-w W]]
//!                    [--trace PATH] [--trace-level off|decisions|full]`
//!
//! `--nodes N` scales the fleet (same day/night cycle per provisioned node, see
//! [`cluster_energy_scenario_at_scale`]); `--approx K` simulates it through the
//! clustered approximation with `K` representatives per node group (`0` or absent =
//! exact simulation of every node); `--rack-size N` cuts the fleet into racked power
//! domains of `N` nodes (flat when the fleet size is not a multiple of `N`),
//! `--rack-power-w` adds a per-rack admission budget (both default to the flat,
//! rack-free fleet); `--trace-level` records each policy run's decision events
//! into the `obs` block and `--trace PATH` also writes them to `PATH` tagged by policy
//! (see [`pliant_bench::fleet`]).

use pliant_bench::{
    cluster_energy_scenario_at_scale, format_latency, print_table, Cli, FleetRunner,
    TraceRunSummary,
};
use pliant_cluster::prelude::*;
use pliant_core::policy::PolicyKind;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

#[derive(Serialize)]
struct PolicyEnergy {
    policy: String,
    fleet_energy_j: f64,
    mean_fleet_power_w: f64,
    energy_per_completed_job_j: f64,
    mean_active_nodes: f64,
    min_active_nodes: usize,
    fleet_p99_s: f64,
    fleet_tail_latency_ratio: f64,
    fleet_qos_violation_fraction: f64,
    qos_met: bool,
    jobs_completed: usize,
    mean_completed_inaccuracy_pct: f64,
}

impl PolicyEnergy {
    fn from_outcome(policy: PolicyKind, outcome: &ClusterOutcome) -> Self {
        Self {
            policy: policy.to_string(),
            fleet_energy_j: outcome.fleet_energy_j,
            mean_fleet_power_w: outcome.mean_fleet_power_w,
            energy_per_completed_job_j: outcome.energy_per_completed_job_j,
            mean_active_nodes: outcome.mean_active_nodes,
            min_active_nodes: outcome.min_active_nodes,
            fleet_p99_s: outcome.fleet_p99_s,
            fleet_tail_latency_ratio: outcome.fleet_tail_latency_ratio,
            fleet_qos_violation_fraction: outcome.fleet_qos_violation_fraction,
            qos_met: outcome.qos_met(),
            jobs_completed: outcome.jobs_completed(),
            mean_completed_inaccuracy_pct: outcome.mean_completed_inaccuracy_pct(),
        }
    }
}

#[derive(Serialize)]
struct EnergyFigure {
    service: String,
    nodes: usize,
    seed: u64,
    policies: Vec<PolicyEnergy>,
    /// Pliant fleet joules divided by Precise fleet joules — the headline.
    pliant_to_precise_energy_ratio: f64,
    /// Per-run observability rollups (empty when the figure ran untraced).
    obs: Vec<TraceRunSummary>,
}

fn main() {
    let cli = Cli::figure(&[
        "--seed N",
        "--nodes N",
        "--approx K",
        "--rack-size N",
        "--rack-power-w W",
        "--trace PATH",
        "--trace-level off|decisions|full",
    ]);
    let seed: u64 = cli.value("--seed").unwrap_or(7);
    let fleet_nodes = cli
        .at_least("--nodes", 2, "the autoscaler keeps 2 machines active")
        .unwrap_or(6);
    let mut runner = FleetRunner::new(&cli);

    let service = ServiceId::Memcached;
    let mut policies = Vec::new();
    let mut energies = [0.0f64; 2];
    let mut nodes = 0usize;
    for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
        .into_iter()
        .enumerate()
    {
        let mut scenario = cluster_energy_scenario_at_scale(fleet_nodes, policy, seed);
        let (outcome, _) = runner.run(&mut scenario, &policy.to_string());
        nodes = scenario.nodes;
        energies[pi] = outcome.fleet_energy_j;
        policies.push(PolicyEnergy::from_outcome(policy, &outcome));
    }
    let ratio = energies[1] / energies[0];

    let figure = EnergyFigure {
        service: service.name().to_string(),
        nodes,
        seed,
        policies,
        pliant_to_precise_energy_ratio: ratio,
        obs: runner.obs(),
    };

    runner.emit(&cli, &figure, |figure| {
        println!(
            "Fleet energy over one diurnal cycle: {} on a {}-machine fleet\n\
             (each machine co-locates one batch job; energy-aware autoscaler; CRN seed {})\n",
            service.name(),
            nodes,
            seed
        );
        let rows: Vec<Vec<String>> = figure
            .policies
            .iter()
            .map(|p| {
                vec![
                    p.policy.clone(),
                    format!("{:.1} kJ", p.fleet_energy_j / 1e3),
                    format!("{:.0} W", p.mean_fleet_power_w),
                    format!("{:.1}", p.mean_active_nodes),
                    p.min_active_nodes.to_string(),
                    format_latency(service, p.fleet_p99_s),
                    format!("{:.2}", p.fleet_tail_latency_ratio),
                    format!("{:.1}%", p.fleet_qos_violation_fraction * 100.0),
                    if p.qos_met { "yes" } else { "no" }.to_string(),
                    format!("{:.1} kJ", p.energy_per_completed_job_j / 1e3),
                    format!("{:.1}", p.mean_completed_inaccuracy_pct),
                ]
            })
            .collect();
        print_table(
            &[
                "policy",
                "fleet energy",
                "mean power",
                "mean active",
                "min active",
                "fleet p99",
                "p99/QoS",
                "violations",
                "QoS met",
                "energy/job",
                "inacc(%)",
            ],
            &rows,
        );
        println!();
        println!(
            "pliant / precise fleet energy = {:.2} ({:.0}% of the precise fleet's joules at equal QoS)",
            ratio,
            ratio * 100.0
        );
    });
}
