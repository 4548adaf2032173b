//! Fleet-level experiment outcomes.
//!
//! A [`ClusterOutcome`] aggregates what the paper reports at cluster scale: the fleet's
//! tail latency (computed by merging every node's latency histogram — exact, not an
//! average of averages), the fleet-wide QoS-violation rate, the peak number of cores the
//! fleet reclaimed from batch work, and job-throughput counters, plus one
//! [`NodeOutcome`] per node for drill-down. Everything is serde round-trippable so
//! cluster runs can be archived and re-aggregated without re-simulating, exactly like
//! single-node outcomes.

use serde::{Deserialize, Serialize};

use pliant_core::policy::PolicyKind;
use pliant_telemetry::obs::ObsSummary;
use pliant_telemetry::series::TraceBundle;
use pliant_workloads::service::ServiceId;

use crate::faults::FaultStats;
use crate::scenario::FleetApproximation;
use crate::scheduler::{SchedulerKind, SchedulerStats};

fn one_replica() -> usize {
    1
}

/// Per-node outcome of one fleet run.
///
/// Under [`FleetApproximation::Clustered`] each entry describes one simulated
/// *instance* standing for [`Self::replicas`] logical nodes; the per-node statistics
/// (p99, violation fraction, assigned load) are per logical node in that block, while
/// extensive totals ([`Self::jobs_completed`], [`Self::energy_j`]) already include the
/// replication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// Index of the node within the fleet.
    pub node: usize,
    /// Logical nodes this entry stands for (`1` for an exactly-simulated node; absent
    /// in pre-hyperscale archives, which deserialize as 1).
    #[serde(default = "one_replica")]
    pub replicas: usize,
    /// Measured (post-warm-up) decision intervals in which the node served traffic.
    pub busy_intervals: usize,
    /// Measured intervals with zero arrivals (the node was assigned ~no load).
    pub idle_intervals: usize,
    /// The node's own 99th-percentile latency over its measured (post-warm-up)
    /// traffic-serving intervals, in seconds.
    pub p99_s: f64,
    /// Fraction of the node's traffic-serving intervals that violated QoS.
    pub qos_violation_fraction: f64,
    /// Mean offered load the even split *routed* to this node over the full run. Routed
    /// loads conserve the cluster total (they sum to
    /// [`ClusterOutcome::mean_total_offered_load`]); in overload a node serves less
    /// than it was routed, because the workload generator caps at 1.2x saturation.
    pub mean_assigned_load: f64,
    /// Maximum cores the node's service held beyond its fair share at any point.
    pub max_extra_service_cores: u32,
    /// Batch jobs completed on this node.
    pub jobs_completed: usize,
    /// Mean output-quality loss of the jobs completed on this node, in percent
    /// (`0.0` when the node completed no jobs).
    pub mean_completed_inaccuracy_pct: f64,
    /// Total electrical energy this node consumed over the whole run (warm-up
    /// included), in joules. Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub energy_j: f64,
}

/// Outcome of one fleet experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Interactive service every node fronts.
    pub service: ServiceId,
    /// Per-node runtime policy.
    pub policy: PolicyKind,
    /// Job-placement policy.
    pub scheduler: SchedulerKind,
    /// Logical fleet size (the number of nodes the scenario describes).
    pub nodes: usize,
    /// Fleet approximation the run used ([`FleetApproximation::Exact`] unless the
    /// scenario opted into clustering; absent in pre-hyperscale archives, which
    /// deserialize as exact).
    #[serde(default)]
    pub approximation: FleetApproximation,
    /// Node instances actually simulated (`nodes` in exact mode, the number of cluster
    /// representatives under [`FleetApproximation::Clustered`]; absent in
    /// pre-hyperscale archives, which deserialize as 0).
    #[serde(default)]
    pub simulated_instances: usize,
    /// Decision intervals simulated.
    pub intervals: usize,
    /// Initial intervals excluded from the latency/QoS statistics while the per-node
    /// runtimes converged (see
    /// [`ClusterScenario::warmup_intervals`](crate::scenario::ClusterScenario::warmup_intervals)).
    pub warmup_intervals: usize,
    /// QoS target in seconds (shared by every node).
    pub qos_target_s: f64,
    /// Mean total offered load over the run, in node-saturation units.
    pub mean_total_offered_load: f64,
    /// Fleet 99th-percentile latency in seconds, from the merged per-node latency
    /// histograms — the quantile over *every request in the fleet*, not an average of
    /// per-node quantiles.
    pub fleet_p99_s: f64,
    /// Fleet mean latency in seconds, from the merged histograms.
    pub fleet_mean_latency_s: f64,
    /// Latency samples aggregated across the fleet.
    pub fleet_samples: u64,
    /// `fleet_p99_s / qos_target_s` — the fleet tail-latency-to-QoS ratio.
    pub fleet_tail_latency_ratio: f64,
    /// Fraction of measured traffic-serving (node, interval) pairs that violated QoS.
    pub fleet_qos_violation_fraction: f64,
    /// Peak number of cores the fleet's services held beyond their fair share at any
    /// single interval (cores reclaimed from batch work, summed over nodes).
    pub max_total_extra_cores: u32,
    /// Total electrical energy the fleet consumed over the whole run, in joules — the
    /// exact sum of every node's own accounting (like the fleet p99 is the exact merge
    /// of per-node histograms). Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub fleet_energy_j: f64,
    /// Mean fleet power over the run, in watts (`fleet_energy_j` over the simulated
    /// wall clock). Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub mean_fleet_power_w: f64,
    /// Fleet energy per completed batch job, in joules (`0.0` when no job completed).
    /// Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub energy_per_completed_job_j: f64,
    /// Mean number of traffic-serving nodes over the run (equals `nodes` without an
    /// autoscaler). Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub mean_active_nodes: f64,
    /// Smallest active set at any interval (equals `nodes` without an autoscaler).
    /// Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub min_active_nodes: usize,
    /// Fault-injection counters and availability; `None` for runs whose scenario has
    /// no fault profile (and omitted from their JSON, so fault-free archives are
    /// byte-identical to pre-fault ones).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultStats>,
    /// Job-queue statistics (submitted / placed / completed).
    pub scheduler_stats: SchedulerStats,
    /// Per-node outcomes, in node order.
    pub node_outcomes: Vec<NodeOutcome>,
    /// Observability rollup: what the run emitted, per event kind (empty at the
    /// default [`pliant_telemetry::obs::ObsLevel::Off`]). Absent in pre-observability
    /// archives (deserializes as the empty summary).
    #[serde(default)]
    pub obs: ObsSummary,
    /// Fleet time series: total offered load, total extra cores, violating-node count.
    pub trace: TraceBundle,
}

impl ClusterOutcome {
    /// Whether the fleet met QoS for (almost) the whole run: at most 5% of measured
    /// traffic-serving node-intervals violated the target — the same allowance
    /// single-node outcomes use
    /// ([`pliant_core::experiment::ColocationOutcome::qos_met`]), applied fleet-wide.
    /// This is the predicate the machines-needed-at-QoS-target search minimizes over.
    ///
    /// [`Self::fleet_tail_latency_ratio`] is deliberately *not* part of the predicate:
    /// it is the strict quantile over every sample in the run, which a handful of
    /// bursty intervals (job arrivals re-escalating from precise) can push over 1.0
    /// even when the fleet meets its target more than 95% of the time. It is reported
    /// as the distribution-level diagnostic.
    pub fn qos_met(&self) -> bool {
        self.fleet_qos_violation_fraction <= 0.05
    }

    /// Jobs completed across the fleet.
    pub fn jobs_completed(&self) -> usize {
        self.scheduler_stats.completed
    }

    /// Mean output-quality loss across every job completed in the fleet, in percent
    /// (`0.0` when no job completed).
    pub fn mean_completed_inaccuracy_pct(&self) -> f64 {
        let mut jobs = 0usize;
        let mut weighted = 0.0f64;
        for node in &self.node_outcomes {
            jobs += node.jobs_completed;
            weighted += node.mean_completed_inaccuracy_pct * node.jobs_completed as f64;
        }
        if jobs == 0 {
            0.0
        } else {
            weighted / jobs as f64
        }
    }

    /// The outcome of one node.
    pub fn node(&self, index: usize) -> Option<&NodeOutcome> {
        self.node_outcomes.iter().find(|n| n.node == index)
    }
}

/// Finds the smallest fleet size whose outcome meets QoS, given `(nodes, outcome)`
/// pairs from a node-count sweep at a fixed total offered load — the paper's
/// machines-needed-at-QoS-target summary. Returns `None` when no swept size met QoS.
pub fn machines_needed(outcomes: &[(usize, ClusterOutcome)]) -> Option<usize> {
    outcomes
        .iter()
        .filter(|(_, o)| o.qos_met())
        .map(|(n, _)| *n)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(nodes: usize, ratio: f64, violations: f64) -> ClusterOutcome {
        ClusterOutcome {
            service: ServiceId::Nginx,
            policy: PolicyKind::Pliant,
            scheduler: SchedulerKind::FirstFit,
            nodes,
            approximation: FleetApproximation::Exact,
            simulated_instances: nodes,
            intervals: 10,
            warmup_intervals: 2,
            qos_target_s: 0.01,
            mean_total_offered_load: 2.0,
            fleet_p99_s: 0.01 * ratio,
            fleet_mean_latency_s: 0.002,
            fleet_samples: 1000,
            fleet_tail_latency_ratio: ratio,
            fleet_qos_violation_fraction: violations,
            max_total_extra_cores: 0,
            fleet_energy_j: 1500.0 * nodes as f64,
            mean_fleet_power_w: 150.0 * nodes as f64,
            energy_per_completed_job_j: 1500.0,
            mean_active_nodes: nodes as f64,
            min_active_nodes: nodes,
            faults: None,
            scheduler_stats: SchedulerStats {
                submitted: nodes,
                placed: nodes,
                completed: nodes,
            },
            node_outcomes: vec![NodeOutcome {
                node: 0,
                replicas: 1,
                busy_intervals: 10,
                idle_intervals: 0,
                p99_s: 0.01 * ratio,
                qos_violation_fraction: violations,
                mean_assigned_load: 0.5,
                max_extra_service_cores: 0,
                jobs_completed: nodes,
                mean_completed_inaccuracy_pct: 2.0,
                energy_j: 1500.0,
            }],
            obs: ObsSummary::default(),
            trace: TraceBundle::new(),
        }
    }

    #[test]
    fn qos_met_applies_the_five_percent_allowance() {
        assert!(outcome(2, 0.9, 0.04).qos_met());
        assert!(!outcome(2, 0.9, 0.06).qos_met());
        // The strict all-samples quantile is a diagnostic, not part of the predicate: a
        // couple of bursty intervals can push it over 1.0 while 95%+ of intervals meet
        // the target (see the qos_met docs).
        assert!(outcome(2, 1.1, 0.0).qos_met());
    }

    #[test]
    fn machines_needed_picks_the_smallest_passing_fleet() {
        let sweep = vec![
            (2, outcome(2, 1.4, 0.5)),
            (3, outcome(3, 0.98, 0.03)),
            (4, outcome(4, 0.7, 0.0)),
        ];
        assert_eq!(machines_needed(&sweep), Some(3));
        let hopeless = vec![(2, outcome(2, 1.4, 0.5))];
        assert_eq!(machines_needed(&hopeless), None);
    }

    #[test]
    fn fleet_inaccuracy_is_job_weighted() {
        let mut o = outcome(2, 0.9, 0.0);
        o.node_outcomes.push(NodeOutcome {
            node: 1,
            replicas: 1,
            busy_intervals: 10,
            idle_intervals: 0,
            p99_s: 0.005,
            qos_violation_fraction: 0.0,
            mean_assigned_load: 0.5,
            max_extra_service_cores: 0,
            jobs_completed: 6,
            mean_completed_inaccuracy_pct: 4.0,
            energy_j: 1200.0,
        });
        // Node 0 completed 2 jobs at 2%, node 1 completed 6 jobs at 4%.
        let expected = (2.0 * 2.0 + 4.0 * 6.0) / 8.0;
        assert!((o.mean_completed_inaccuracy_pct() - expected).abs() < 1e-12);
        assert_eq!(o.node(1).unwrap().jobs_completed, 6);
    }

    #[test]
    fn pre_hyperscale_archives_deserialize_with_exact_defaults() {
        let o = outcome(2, 0.9, 0.01);
        let json = serde_json::to_string(&o).expect("serializable");
        // An archive written before the population/instance split has none of the
        // approximation fields; it must read back as an exactly-simulated fleet.
        let legacy = json
            .replace("\"approximation\":\"Exact\",", "")
            .replace("\"simulated_instances\":2,", "")
            .replace("\"replicas\":1,", "");
        assert!(!legacy.contains("approximation"), "{legacy}");
        let back: ClusterOutcome =
            serde_json::from_str(&legacy).expect("legacy archives deserialize");
        assert_eq!(back.approximation, FleetApproximation::Exact);
        assert_eq!(back.simulated_instances, 0);
        assert_eq!(back.node_outcomes[0].replicas, 1);
    }

    #[test]
    fn fault_free_outcomes_omit_the_faults_block() {
        let o = outcome(2, 0.9, 0.01);
        let json = serde_json::to_string(&o).expect("serializable");
        assert!(
            !json.contains("\"faults\""),
            "fault-free archives must stay byte-identical to pre-fault ones: {json}"
        );
        let mut with = o.clone();
        with.faults = Some(FaultStats {
            crashes: 1,
            degradations: 2,
            jobs_requeued: 3,
            down_node_intervals: 20,
            degraded_node_intervals: 15,
            availability: 0.95,
        });
        let json = serde_json::to_string(&with).expect("serializable");
        assert!(json.contains("\"faults\""));
        let back: ClusterOutcome = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.faults, with.faults);
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let o = outcome(3, 0.8, 0.01);
        let json = serde_json::to_string(&o).expect("serializable");
        let back: ClusterOutcome = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.fleet_p99_s, o.fleet_p99_s);
        assert_eq!(back.nodes, o.nodes);
        assert_eq!(back.scheduler_stats, o.scheduler_stats);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
