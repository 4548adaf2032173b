//! Failure figure: machines needed and QoS under a fault trace — availability as the
//! other face of the machines-needed headline.
//!
//! The machines-needed fleet of `fig_cluster` is re-run under a fixed failure trace
//! (one mid-run node crash whose batch job is re-queued onto the survivors, then a
//! degraded-frequency straggler; see `pliant_bench::cluster_failure_trace`). Both
//! policies see the identical fault schedule under common random numbers, so the
//! comparison isolates what the co-location policy contributes to fault tolerance:
//! Pliant's reclaimed headroom absorbs the shed traffic of a dead node at fleet sizes
//! where the Precise baseline violates QoS. A fleet too small for the offered load, or
//! for the trace (which strikes node 2), is skipped with a `note:` line.
//!
//! Usage: `fig_failure [--json] [--seed N] [--total-load X] [--nodes N] [--approx K]
//!                     [--rack-size N [--rack-power-w W]]
//!                     [--trace PATH] [--trace-level off|decisions|full]`
//!
//! `--rack-size N` cuts each fleet into racked power domains of `N` nodes (a fleet size
//! that is not a multiple of `N` stays flat — see [`pliant_bench::fleet`]) and
//! `--rack-power-w` adds a per-rack admission budget; both default to the flat,
//! rack-free fleet.
//! `--approx K` simulates each fleet through the clustered approximation with `K`
//! representatives per node group (`0` or absent = exact); faulted nodes are always
//! carved out of their groups and simulated exactly.
//!
//! Runs always record decision events (tracing never perturbs the simulation), so the
//! `--json` output's `obs` block carries the fault-event rollup — `NodeFailed`,
//! `NodeRecovered`, `NodeDegraded`, `JobRequeued` — even without `--trace`; `--trace
//! PATH` additionally exports each run's event stream tagged `{nodes}n-{policy}` (see
//! [`pliant_bench::fleet`]).

use pliant_bench::cli::reject;
use pliant_bench::{
    cluster_failure_scenario, cluster_failure_trace, format_latency, print_table, Cli, FleetRunner,
    TraceRunSummary,
};
use pliant_cluster::prelude::*;
use pliant_core::policy::PolicyKind;
use pliant_workloads::service::ServiceId;
use serde::Serialize;

/// Fleet sizes swept (the machines-needed-under-failure search space).
const NODE_COUNTS: [usize; 4] = [4, 5, 6, 7];

#[derive(Serialize)]
struct FailurePoint {
    nodes: usize,
    avg_node_load: f64,
    policy: String,
    fleet_p99_s: f64,
    fleet_tail_latency_ratio: f64,
    fleet_qos_violation_fraction: f64,
    /// Intervals during which at least one logical node violated QoS.
    violating_intervals: usize,
    availability: f64,
    crashes: u64,
    degradations: u64,
    jobs_requeued: u64,
    jobs_completed: usize,
    qos_met: bool,
}

#[derive(Serialize)]
struct FailureFigure {
    service: String,
    total_load_node_units: f64,
    seed: u64,
    fault_profile: FaultProfile,
    curve: Vec<FailurePoint>,
    machines_needed_precise: Option<usize>,
    machines_needed_pliant: Option<usize>,
    /// Per-run observability rollups (every run records decision events).
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
    // The figure's JSON contract includes the fault-event rollup, so runs record
    // decision events even without `--trace` (tracing observes, never perturbs).
    let mut runner = FleetRunner::new(&cli).reporting_decisions();

    // The fixed trace strikes nodes by index, so a fleet must reach past its highest
    // target to run it.
    let fault_profile = cluster_failure_trace();
    let last_struck = fault_profile.scheduled.iter().map(|f| f.node).max();

    let service = ServiceId::Memcached;
    let mut curve = Vec::new();
    let mut sweeps: [Vec<(usize, ClusterOutcome)>; 2] = [Vec::new(), Vec::new()];
    for &nodes in &node_counts {
        for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
            .into_iter()
            .enumerate()
        {
            let Some(mut scenario) = cluster_failure_scenario(nodes, total_load, policy, seed)
            else {
                eprintln!(
                    "note: skipping {nodes}-machine fleet — {total_load} node-units \
                     exceeds 1.5x saturation per node"
                );
                continue;
            };
            if let Some(node) = last_struck.filter(|&node| node >= nodes) {
                eprintln!(
                    "note: skipping {nodes}-machine fleet — the failure trace strikes \
                     node {node}, which it does not have"
                );
                continue;
            }
            let (outcome, _) = runner.run(&mut scenario, &format!("{nodes}n-{policy}"));
            let faults = outcome
                .faults
                .unwrap_or_else(|| panic!("failure scenarios always carry fault stats"));
            let violating_intervals = outcome.trace.get("violating_nodes").map_or(0, |series| {
                series.points().iter().filter(|p| p.value > 0.0).count()
            });
            curve.push(FailurePoint {
                nodes,
                avg_node_load: scenario.avg_node_load,
                policy: policy.to_string(),
                fleet_p99_s: outcome.fleet_p99_s,
                fleet_tail_latency_ratio: outcome.fleet_tail_latency_ratio,
                fleet_qos_violation_fraction: outcome.fleet_qos_violation_fraction,
                violating_intervals,
                availability: faults.availability,
                crashes: faults.crashes,
                degradations: faults.degradations,
                jobs_requeued: faults.jobs_requeued,
                jobs_completed: outcome.jobs_completed(),
                qos_met: outcome.qos_met(),
            });
            sweeps[pi].push((nodes, outcome));
        }
    }
    let machines_precise = machines_needed(&sweeps[0]);
    let machines_pliant = machines_needed(&sweeps[1]);

    let figure = FailureFigure {
        service: service.name().to_string(),
        total_load_node_units: total_load,
        seed,
        fault_profile,
        curve,
        machines_needed_precise: machines_precise,
        machines_needed_pliant: machines_pliant,
        obs: runner.obs(),
    };

    runner.emit(&cli, &figure, |figure| {
        println!(
            "Machines needed under failure: {} serving {:.1} node-units through one node \
             crash and one straggler\n(each node co-locates one batch job; CRN seed {})\n",
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
                    p.policy.clone(),
                    format_latency(service, p.fleet_p99_s),
                    format!("{:.2}", p.fleet_tail_latency_ratio),
                    format!("{:.1}%", p.fleet_qos_violation_fraction * 100.0),
                    p.violating_intervals.to_string(),
                    format!("{:.3}", p.availability),
                    p.jobs_requeued.to_string(),
                    p.jobs_completed.to_string(),
                    if p.qos_met { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "machines",
                "policy",
                "fleet p99",
                "p99/QoS",
                "violations",
                "viol. intervals",
                "availability",
                "requeued",
                "completed",
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
            "machines needed under failure: precise = {}, pliant = {}",
            describe(machines_precise),
            describe(machines_pliant)
        );
        if let (Some(p), Some(q)) = (machines_precise, machines_pliant) {
            if q < p {
                println!(
                    "pliant's reclaimed headroom absorbs the node loss with {} fewer machine(s)",
                    p - q
                );
            } else {
                println!("no machines saved under this failure trace");
            }
        }
    });
}
