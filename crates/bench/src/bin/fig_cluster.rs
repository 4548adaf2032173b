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
//!                     [--topology <racks>x<nodes-per-rack>] [--rack-power-w W]
//!                     [--trace PATH] [--trace-level off|decisions|full]
//!                     [--checkpoint-at K --checkpoint-dir DIR] [--resume-dir DIR]`
//!
//! `--nodes N` replaces the default fleet-size sweep with the single given size (pair
//! it with a matching `--total-load`); `--approx K` simulates each fleet through the
//! clustered approximation with `K` representatives per node group (`0` or absent =
//! exact simulation of every node); `--topology` lays each fleet out in racked power
//! domains (sizes the rack shape cannot tile stay flat — see
//! [`pliant_bench::TopologySpec`]), `--rack-power-w` adds a per-rack admission budget;
//! `--trace PATH` exports each run's decision-event
//! stream to `PATH` tagged `{nodes}n-{policy}` (`.json` = Chrome trace-event JSON
//! loadable in Perfetto, otherwise JSON Lines readable by `pliant-trace`).
//!
//! `--checkpoint-at K --checkpoint-dir DIR` snapshots every sweep cell at decision
//! interval `K` to `DIR/{nodes}n-{policy}.json` (the run then continues to completion
//! as usual); `--resume-dir DIR` restores each cell from such a snapshot before
//! running the remainder. Resuming an untraced run is byte-identical to never having
//! stopped — the `--json` output of checkpoint-then-resume equals the uninterrupted
//! run's byte for byte, which CI enforces.

use pliant_bench::{
    approximation_from_args, cluster_machines_needed_scenario, export_trace, flag_value,
    format_latency, nodes_flag, parse_flag, print_table, topology_spec_from_args, trace_opts,
    TraceRunSummary,
};
use pliant_cluster::prelude::*;
use pliant_core::engine::Engine;
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = pliant_bench::json_requested(&args);
    let seed: u64 = parse_flag(&args, "--seed").unwrap_or(7);
    let total_load: f64 = parse_flag(&args, "--total-load").unwrap_or(2.6);
    let approximation = approximation_from_args(&args);
    let topology_spec = topology_spec_from_args(&args);
    let node_counts: Vec<usize> = match nodes_flag(&args, 1, "a fleet needs a machine") {
        Some(n) => vec![n],
        None => NODE_COUNTS.to_vec(),
    };

    let trace = trace_opts(&args);

    let checkpoint_at: Option<usize> = parse_flag(&args, "--checkpoint-at");
    let checkpoint_dir = flag_value(&args, "--checkpoint-dir").cloned();
    if checkpoint_at.is_some() != checkpoint_dir.is_some() {
        eprintln!("error: --checkpoint-at and --checkpoint-dir must be given together");
        std::process::exit(2);
    }
    let resume_dir = flag_value(&args, "--resume-dir").cloned();

    let service = ServiceId::Memcached;
    let engine = Engine::new();
    let mut curve = Vec::new();
    let mut obs = Vec::new();
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
            s.approximation = approximation;
            if let Some(spec) = &topology_spec {
                s.topology = spec.config_for(s.nodes);
            }
            if let Err(e) = s.validate() {
                eprintln!("error: topology override does not fit the {nodes}-machine fleet: {e}");
                std::process::exit(2);
            }
            let cell = format!("{nodes}n-{policy}");
            let mut run = ClusterRun::with_obs(&s, &engine, trace.level);
            if let Some(dir) = &resume_dir {
                let path = format!("{dir}/{cell}.json");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("error: cannot read checkpoint {path}: {e}");
                    std::process::exit(1);
                });
                let checkpoint: ClusterRunCheckpoint =
                    serde_json::from_str(&text).unwrap_or_else(|e| {
                        eprintln!("error: cannot parse checkpoint {path}: {e}");
                        std::process::exit(1);
                    });
                run.restore(&checkpoint).unwrap_or_else(|e| {
                    eprintln!("error: cannot restore checkpoint {path}: {e}");
                    std::process::exit(1);
                });
            }
            if let (Some(at), Some(dir)) = (checkpoint_at, &checkpoint_dir) {
                while run.intervals() < at && run.step() {}
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    eprintln!("error: cannot create checkpoint dir {dir}: {e}");
                    std::process::exit(1);
                });
                let path = format!("{dir}/{cell}.json");
                let text =
                    serde_json::to_string(&run.checkpoint()).expect("checkpoints are serializable");
                std::fs::write(&path, text).unwrap_or_else(|e| {
                    eprintln!("error: cannot write checkpoint {path}: {e}");
                    std::process::exit(1);
                });
                eprintln!("checkpoint: {path} at interval {}", run.intervals());
            }
            let (outcome, log) = run.finish();
            if trace.enabled() {
                obs.push(export_trace(&trace, &format!("{nodes}n-{policy}"), &log));
            }
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
        obs,
    };

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&figure).expect("serializable")
        );
        return;
    }

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
    for t in &figure.obs {
        if let Some(file) = &t.trace_file {
            println!(
                "trace ({}): {} events -> {file}",
                t.run, t.summary.events_recorded
            );
        }
    }
}
