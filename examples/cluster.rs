//! Fleet simulation: a multi-node cluster with an even load split and batch-job
//! scheduling.
//!
//! Runs a 4-node memcached fleet through a diurnal load pattern with a queue of batch
//! jobs flowing through the nodes' slots, then prints the fleet-level QoS summary, the
//! per-node breakdown, and the effect of the placement policy. Every node is assigned
//! the same share of the load, so the per-node differences come from each node's batch
//! jobs alone.
//!
//! Run with: `cargo run --release --example cluster`

use pliant::prelude::*;

fn main() {
    // Two batch slots per node; the initial placement is node-major, so node 0 starts
    // with two heavy canneal jobs while the rest run lighter kernels — placement
    // policies then face a genuinely uneven fleet when the queued jobs are admitted.
    let jobs = vec![
        AppId::Canneal,
        AppId::Canneal,
        AppId::Snp,
        AppId::KMeans,
        AppId::Raytrace,
        AppId::Birch,
        AppId::Fasta,
        AppId::Glimmer,
        // Queued: admitted as the short jobs above finish.
        AppId::Bayesian,
        AppId::Streamcluster,
        AppId::Plsa,
        AppId::Semphy,
    ];
    let base = ClusterScenario {
        nodes: 4,
        slots_per_node: 2,
        jobs,
        load_profile: Some(LoadProfile::Diurnal {
            base: 0.5,
            amplitude: 0.15,
            period_s: 60.0,
            phase_s: 0.0,
        }),
        horizon: Horizon::Seconds(90.0),
        warmup_intervals: 8,
        ..ClusterScenario::paper_default(ServiceId::Memcached)
    };

    println!(
        "4-node {} fleet, two batch slots per node, diurnal load 35-65%, {} jobs\n",
        base.service.name(),
        base.jobs.len()
    );

    // The same fleet under both placement extremes, paired by common random numbers
    // (both cells run seed 7) so the comparison isolates the scheduler. The
    // engine runs one whole fleet per worker and returns the outcomes in cell order.
    let cells: Vec<ClusterScenario> = [SchedulerKind::FirstFit, SchedulerKind::QosSlackAware]
        .into_iter()
        .map(|scheduler| ClusterScenario {
            scheduler,
            seed: 7,
            ..base.clone()
        })
        .collect();
    let engine = Engine::new().parallel();
    for o in engine.map_ordered(cells.len(), |i| engine.run_cluster(&cells[i])) {
        println!("scheduler = {}", o.scheduler);
        println!(
            "  fleet p99 / QoS        : {:.2}x",
            o.fleet_tail_latency_ratio
        );
        println!(
            "  violating node-intervals: {:.1}%",
            o.fleet_qos_violation_fraction * 100.0
        );
        println!(
            "  jobs completed          : {} of {} submitted",
            o.jobs_completed(),
            o.scheduler_stats.submitted
        );
        println!(
            "  mean quality loss       : {:.1}%",
            o.mean_completed_inaccuracy_pct()
        );
        println!(
            "  peak cores reclaimed    : {} fleet-wide",
            o.max_total_extra_cores
        );
        for node in &o.node_outcomes {
            println!(
                "    node {}: mean load {:.0}%, p99 {:.0}us, violations {:.1}%, jobs {}",
                node.node,
                node.mean_assigned_load * 100.0,
                node.p99_s * 1e6,
                node.qos_violation_fraction * 100.0,
                node.jobs_completed
            );
        }
        println!();
    }
}
