//! Topology figure: machines-needed and joules under rack structure, with and
//! without migration-driven consolidation.
//!
//! The machines-needed headline is a consolidation story, and consolidation in real
//! datacenters happens against rack/power-domain structure. This binary lays the
//! energy fleet out as four 2-node racks, strikes rack 0 with a whole-rack
//! power-domain outage mid-day, and runs the Precise baseline and Pliant under
//! **common random numbers**, each with the autoscaler's active-consolidation knob
//! off (a draining node waits for its batch jobs to complete — the historical
//! behaviour) and on (in-flight jobs are live-migrated onto active nodes and the
//! drained machine parks the same interval). The headline is how much earlier the
//! Pliant fleet's first park lands with consolidation, at equal QoS verdicts, and
//! what that is worth in joules.
//!
//! Usage: `fig_topology [--json] [--seed N] [--approx K]
//!                      [--rack-size N [--rack-power-w W]]
//!                      [--trace PATH] [--trace-level off|decisions|full]`
//!
//! `--rack-size N` / `--rack-power-w` override the default grid of four unbudgeted
//! 2-node racks (`--rack-size 2` alone is that grid; a size that does not divide the
//! 8-machine fleet runs it flat);
//! `--approx K` simulates the fleet through the clustered approximation with `K`
//! representatives per node group (`0` or absent = exact). Runs always record their
//! decision events, which the park, migration and outage columns are counted from;
//! `--trace-level` puts each run's summary in the `obs` block and `--trace PATH` also
//! writes its stream tagged by run name (see [`pliant_bench::fleet`]).

use pliant_bench::{cluster_topology_scenario, print_table, Cli, FleetRunner, TraceRunSummary};
use pliant_cluster::prelude::*;
use pliant_core::policy::PolicyKind;
use pliant_telemetry::obs::{Event, EventLog, PowerStateKind};
use pliant_workloads::service::ServiceId;
use serde::Serialize;

/// One (policy, consolidation) cell of the figure.
#[derive(Serialize)]
struct TopologyRun {
    run: String,
    policy: String,
    consolidate: bool,
    fleet_energy_j: f64,
    mean_active_nodes: f64,
    min_active_nodes: usize,
    fleet_tail_latency_ratio: f64,
    qos_met: bool,
    jobs_completed: usize,
    /// First interval at which the autoscaler parked a drained node (`null` when
    /// nothing parked over the horizon).
    first_park_interval: Option<u32>,
    /// Live migrations performed (clustered batches count once; see
    /// `migrated_jobs` for the replica-weighted total).
    migrations: usize,
    /// Logical jobs moved by those migrations.
    migrated_jobs: usize,
    rack_outage_events: usize,
    rack_power_capped_events: usize,
}

/// The consolidation headline: the Pliant fleet's first park with and without
/// migration, and what the earlier consolidation is worth.
#[derive(Serialize)]
struct ConsolidationHeadline {
    pliant_first_park_without: Option<u32>,
    pliant_first_park_with: Option<u32>,
    /// Intervals by which consolidation beats completion-waiting to the first park
    /// (positive = earlier).
    parks_earlier_by_intervals: i64,
    /// Pliant joules saved by consolidating (no-consolidation minus consolidation).
    pliant_energy_saved_j: f64,
    /// Whether the two Pliant runs reach the same QoS verdict (the comparison is
    /// only meaningful when they do).
    qos_verdicts_equal: bool,
}

/// Event-log rollup for one run: park timing, migration volume, rack events.
struct LogStats {
    first_park_interval: Option<u32>,
    migrations: usize,
    migrated_jobs: usize,
    rack_outage_events: usize,
    rack_power_capped_events: usize,
}

fn log_stats(log: &EventLog) -> LogStats {
    let mut stats = LogStats {
        first_park_interval: None,
        migrations: 0,
        migrated_jobs: 0,
        rack_outage_events: 0,
        rack_power_capped_events: 0,
    };
    for record in &log.records {
        match record.event {
            Event::AutoscalerTransition {
                to: PowerStateKind::Parked,
                ..
            } => {
                stats.first_park_interval = Some(
                    stats
                        .first_park_interval
                        .map_or(record.interval, |first| first.min(record.interval)),
                );
            }
            Event::JobMigrated { weight, .. } => {
                stats.migrations += 1;
                stats.migrated_jobs += weight as usize;
            }
            Event::RackOutage { .. } => stats.rack_outage_events += 1,
            Event::RackPowerCapped { .. } => stats.rack_power_capped_events += 1,
            _ => {}
        }
    }
    stats
}

#[derive(Serialize)]
struct TopologyFigure {
    service: String,
    nodes: usize,
    topology: TopologyConfig,
    seed: u64,
    runs: Vec<TopologyRun>,
    consolidation: ConsolidationHeadline,
    /// Per-run observability rollups (empty when the figure ran untraced).
    obs: Vec<TraceRunSummary>,
}

fn main() {
    let cli = Cli::figure(&[
        "--seed N",
        "--approx K",
        "--rack-size N",
        "--rack-power-w W",
        "--trace PATH",
        "--trace-level off|decisions|full",
    ]);
    let seed: u64 = cli.value("--seed").unwrap_or(7);
    // The park/migration/outage rollups come from the decision-event stream, so the
    // figure always records at least at `decisions` (tracing observes decisions
    // without altering them — the simulation is byte-identical at every level).
    let mut runner = FleetRunner::new(&cli).reading_decisions();

    let service = ServiceId::Memcached;
    let mut runs = Vec::new();
    let mut topology = TopologyConfig::Flat;
    let mut nodes = 0usize;
    let mut pliant_parks = [None, None];
    let mut pliant_energy = [0.0f64; 2];
    let mut pliant_qos = [false; 2];
    for policy in [PolicyKind::Precise, PolicyKind::Pliant] {
        for consolidate in [false, true] {
            let mut scenario = cluster_topology_scenario(policy, consolidate, seed);
            let run = if consolidate {
                format!("{policy}-consolidate")
            } else {
                policy.to_string()
            };
            let (outcome, log) = runner.run(&mut scenario, &run);
            nodes = scenario.nodes;
            topology = scenario.topology.clone();
            let stats = log_stats(&log);
            if policy == PolicyKind::Pliant {
                let slot = consolidate as usize;
                pliant_parks[slot] = stats.first_park_interval;
                pliant_energy[slot] = outcome.fleet_energy_j;
                pliant_qos[slot] = outcome.qos_met();
            }
            runs.push(TopologyRun {
                run,
                policy: policy.to_string(),
                consolidate,
                fleet_energy_j: outcome.fleet_energy_j,
                mean_active_nodes: outcome.mean_active_nodes,
                min_active_nodes: outcome.min_active_nodes,
                fleet_tail_latency_ratio: outcome.fleet_tail_latency_ratio,
                qos_met: outcome.qos_met(),
                jobs_completed: outcome.jobs_completed(),
                first_park_interval: stats.first_park_interval,
                migrations: stats.migrations,
                migrated_jobs: stats.migrated_jobs,
                rack_outage_events: stats.rack_outage_events,
                rack_power_capped_events: stats.rack_power_capped_events,
            });
        }
    }

    let parks_earlier_by_intervals = match (pliant_parks[0], pliant_parks[1]) {
        (Some(without), Some(with)) => i64::from(without) - i64::from(with),
        // Consolidation parking where completion-waiting never did is the strongest
        // possible win; report the remaining horizon as the margin.
        (None, Some(_)) => i64::MAX,
        _ => 0,
    };
    let figure = TopologyFigure {
        service: service.name().to_string(),
        nodes,
        topology,
        seed,
        runs,
        consolidation: ConsolidationHeadline {
            pliant_first_park_without: pliant_parks[0],
            pliant_first_park_with: pliant_parks[1],
            parks_earlier_by_intervals,
            pliant_energy_saved_j: pliant_energy[0] - pliant_energy[1],
            qos_verdicts_equal: pliant_qos[0] == pliant_qos[1],
        },
        obs: runner.obs(),
    };

    runner.emit(&cli, &figure, |figure| {
        println!(
            "Topology study: {} on a {}-machine fleet in racked power domains\n\
             (rack 0 suffers a whole-rack outage mid-day; energy-aware autoscaler;\n\
             consolidation = live-migrate batch jobs off draining nodes; CRN seed {})\n",
            service.name(),
            nodes,
            seed
        );
        let rows: Vec<Vec<String>> = figure
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.run.clone(),
                    format!("{:.1} kJ", r.fleet_energy_j / 1e3),
                    format!("{:.1}", r.mean_active_nodes),
                    r.min_active_nodes.to_string(),
                    format!("{:.2}", r.fleet_tail_latency_ratio),
                    if r.qos_met { "yes" } else { "no" }.to_string(),
                    r.first_park_interval
                        .map_or("never".to_string(), |i| i.to_string()),
                    r.migrations.to_string(),
                    r.rack_outage_events.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "run",
                "fleet energy",
                "mean active",
                "min active",
                "p99/QoS",
                "QoS met",
                "first park",
                "migrations",
                "rack outages",
            ],
            &rows,
        );
        println!();
        match (
            figure.consolidation.pliant_first_park_without,
            figure.consolidation.pliant_first_park_with,
        ) {
            (Some(without), Some(with)) => println!(
                "pliant first park: interval {with} with consolidation vs {without} without \
                 ({} intervals earlier, {:.1} kJ saved, equal QoS verdicts: {})",
                figure.consolidation.parks_earlier_by_intervals,
                figure.consolidation.pliant_energy_saved_j / 1e3,
                figure.consolidation.qos_verdicts_equal,
            ),
            (None, Some(with)) => println!(
                "pliant first park: interval {with} with consolidation; completion-waiting never parked"
            ),
            _ => println!("pliant fleet never parked a node on this operating point"),
        }
    });
}
