//! Cluster figure: the paper's headline fleet result — machines needed at a QoS target.
//!
//! A fixed amount of cluster-wide offered load (in node-saturation units) must be served
//! while every node co-locates an approximate batch job. The binary sweeps the fleet
//! size under the Precise baseline and under Pliant with **common random numbers** (the
//! paired fleets see identical workload randomness at every size) and reports, for each
//! policy, the smallest fleet that meets the QoS target — Pliant's approximation-aware
//! co-location absorbs the batch interference at a higher per-node load, so it serves
//! the same traffic with fewer machines.
//!
//! Usage: `fig_cluster [--json] [--seed N] [--total-load X] [--nodes N] [--approx K]
//!                     [--rack-size N [--rack-power-w W]]
//!                     [--trace PATH] [--trace-level off|decisions|full]
//!                     [--checkpoint-at K --checkpoint-dir DIR] [--resume-dir DIR]`
//!
//! `--nodes N` replaces the default fleet-size sweep with the single given size (pair
//! it with a matching `--total-load`); `--approx K` simulates each fleet through the
//! clustered approximation with `K` representatives per node group (`0` or absent =
//! exact simulation of every node); `--rack-size N` cuts each fleet into racked power
//! domains of `N` nodes (a fleet size that is not a multiple of `N` stays flat — see
//! [`pliant_bench::fleet`]), `--rack-power-w` adds a per-rack admission budget;
//! `--trace-level` records each run's decision events into the `obs` block and
//! `--trace PATH` also writes them to `PATH` tagged `{nodes}n-{policy}` (see
//! [`pliant_bench::fleet`]).
//!
//! `--checkpoint-at K --checkpoint-dir DIR` snapshots every sweep cell at decision
//! interval `K` to `DIR/{nodes}n-{policy}.json` (the run then continues to completion
//! as usual); `--resume-dir DIR` restores each cell from such a snapshot before
//! running the remainder. Resuming is byte-identical to never having stopped — the
//! `--json` output of checkpoint-then-resume equals the uninterrupted run's byte for
//! byte, which CI enforces. The checkpoint flags exit with status 2 on a traced run:
//! a snapshot does not carry the event log.

use pliant_bench::cli::reject;
use pliant_bench::{
    cluster_machines_needed_scenario, format_latency, print_table, Cli, FleetRunner,
    TraceRunSummary,
};
use pliant_cluster::prelude::*;
use pliant_core::policy::PolicyKind;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

/// Fleet sizes swept (the machines-needed search space).
const NODE_COUNTS: [usize; 5] = [3, 4, 5, 6, 7];

#[derive(Serialize)]
struct CurvePoint {
    nodes: usize,
    avg_node_load: f64,
    policy: String,
    fleet_p99_s: f64,
    fleet_tail_latency_ratio: f64,
    fleet_qos_violation_fraction: f64,
    max_total_extra_cores: u32,
    jobs_completed: usize,
    mean_completed_inaccuracy_pct: f64,
    qos_met: bool,
}

#[derive(Serialize)]
struct ClusterFigure {
    service: String,
    total_load_node_units: f64,
    seed: u64,
    curve: Vec<CurvePoint>,
    machines_needed_precise: Option<usize>,
    machines_needed_pliant: Option<usize>,
    /// Per-run observability rollups (empty when the figure ran untraced).
    obs: Vec<TraceRunSummary>,
}

fn main() {
    let cli = Cli::figure(&[
        "--seed N",
        "--total-load X",
        "--nodes N",
        "--approx K",
        "--rack-size N",
        "--rack-power-w W",
        "--trace PATH",
        "--trace-level off|decisions|full",
        "--checkpoint-at K",
        "--checkpoint-dir DIR",
        "--resume-dir DIR",
    ]);
    let seed: u64 = cli.value("--seed").unwrap_or(7);
    let total_load: f64 = cli.value("--total-load").unwrap_or(2.6);
    if total_load.is_nan() || total_load <= 0.0 {
        reject("--total-load must be positive");
    }
    let node_counts: Vec<usize> = match cli.at_least("--nodes", 1, "a fleet needs a machine") {
        Some(n) => vec![n],
        None => NODE_COUNTS.to_vec(),
    };
    let mut runner = FleetRunner::new(&cli);

    let service = ServiceId::Memcached;
    let mut curve = Vec::new();
    let mut sweeps: [Vec<(usize, ClusterOutcome)>; 2] = [Vec::new(), Vec::new()];
    for &nodes in &node_counts {
        for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
            .into_iter()
            .enumerate()
        {
            let Some(mut s) = cluster_machines_needed_scenario(nodes, total_load, policy, seed)
            else {
                // A fleet this small cannot even be offered the requested load (above
                // 1.5x saturation per node); it trivially fails and is skipped rather
                // than silently served less traffic than the larger fleets.
                eprintln!(
                    "note: skipping {nodes}-machine fleet — {total_load} node-units \
                     exceeds 1.5x saturation per node"
                );
                continue;
            };
            let (outcome, _) = runner.run(&mut s, &format!("{nodes}n-{policy}"));
            curve.push(CurvePoint {
                nodes,
                avg_node_load: s.avg_node_load,
                policy: policy.to_string(),
                fleet_p99_s: outcome.fleet_p99_s,
                fleet_tail_latency_ratio: outcome.fleet_tail_latency_ratio,
                fleet_qos_violation_fraction: outcome.fleet_qos_violation_fraction,
                max_total_extra_cores: outcome.max_total_extra_cores,
                jobs_completed: outcome.jobs_completed(),
                mean_completed_inaccuracy_pct: outcome.mean_completed_inaccuracy_pct(),
                qos_met: outcome.qos_met(),
            });
            sweeps[pi].push((nodes, outcome));
        }
    }
    let machines_precise = machines_needed(&sweeps[0]);
    let machines_pliant = machines_needed(&sweeps[1]);

    let figure = ClusterFigure {
        service: service.name().to_string(),
        total_load_node_units: total_load,
        seed,
        curve,
        machines_needed_precise: machines_precise,
        machines_needed_pliant: machines_pliant,
        obs: runner.obs(),
    };

    runner.emit(&cli, &figure, |figure| {
        println!(
            "Machines needed at the QoS target: {} serving {:.1} node-units of load\n\
             (each node co-locates one batch job; CRN seed {})\n",
            service.name(),
            total_load,
            seed
        );
        let rows: Vec<Vec<String>> = figure
            .curve
            .iter()
            .map(|p| {
                vec![
                    p.nodes.to_string(),
                    format!("{:.0}%", p.avg_node_load * 100.0),
                    p.policy.clone(),
                    format_latency(service, p.fleet_p99_s),
                    format!("{:.2}", p.fleet_tail_latency_ratio),
                    format!("{:.1}%", p.fleet_qos_violation_fraction * 100.0),
                    p.max_total_extra_cores.to_string(),
                    format!("{:.1}", p.mean_completed_inaccuracy_pct),
                    if p.qos_met { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "machines",
                "load/node",
                "policy",
                "fleet p99",
                "p99/QoS",
                "violations",
                "max cores reclaimed",
                "inacc(%)",
                "QoS met",
            ],
            &rows,
        );

        println!();
        let describe = |m: Option<usize>| match m {
            Some(n) => n.to_string(),
            None => format!(">{}", node_counts[node_counts.len() - 1]),
        };
        println!(
            "machines needed: precise = {}, pliant = {}",
            describe(machines_precise),
            describe(machines_pliant)
        );
        if let (Some(p), Some(q)) = (machines_precise, machines_pliant) {
            if q < p {
                println!(
                    "pliant serves the same load with {} fewer machine(s) ({:.0}% of the precise fleet)",
                    p - q,
                    100.0 * q as f64 / p as f64
                );
            } else {
                println!("no machines saved at this operating point");
            }
        }
    });
}
