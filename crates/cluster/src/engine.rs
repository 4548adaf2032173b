//! Executing cluster scenarios on the core [`Engine`].
//!
//! [`ClusterEngineExt`] extends [`pliant_core::engine::Engine`] with fleet execution:
//! the engine's catalog is shared with every node, and one fleet steps its nodes in
//! index order on the calling thread whatever the engine's
//! [`ExecMode`](pliant_core::engine::ExecMode).
//!
//! Fleet suites ([`crate::suite::ClusterSuite`]) run through
//! [`Engine::run_collect`] like single-node suites: there the engine's workers take
//! whole fleets, and the cell order of the results does not depend on the worker
//! count.

use pliant_core::engine::Engine;
use pliant_telemetry::histogram::LatencyHistogram;
use pliant_telemetry::obs::{EventLog, ObsLevel};
use pliant_telemetry::series::{TimeSeries, TraceBundle};
use serde::{Deserialize, Serialize};

use crate::outcome::{ClusterOutcome, NodeOutcome};
use crate::scenario::ClusterScenario;
use crate::sim::{ClusterCheckpoint, ClusterSim, CLUSTER_CHECKPOINT_VERSION};

/// Fleet execution on the core [`Engine`]; see the module docs.
pub trait ClusterEngineExt {
    /// Runs one cluster scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the engine's catalog.
    fn run_cluster(&self, scenario: &ClusterScenario) -> ClusterOutcome;

    /// Runs one cluster scenario with observability enabled at `level`, returning the
    /// outcome plus the merged fleet-wide decision-event stream (see
    /// [`pliant_telemetry::obs`]). With [`ObsLevel::Off`] this is exactly
    /// [`Self::run_cluster`] plus an empty log; the simulation is byte-identical at
    /// every level — tracing observes decisions, it never alters them.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the engine's catalog.
    fn run_cluster_traced(
        &self,
        scenario: &ClusterScenario,
        level: ObsLevel,
    ) -> (ClusterOutcome, EventLog);
}

impl ClusterEngineExt for Engine {
    fn run_cluster(&self, scenario: &ClusterScenario) -> ClusterOutcome {
        self.run_cluster_traced(scenario, ObsLevel::Off).0
    }

    fn run_cluster_traced(
        &self,
        scenario: &ClusterScenario,
        level: ObsLevel,
    ) -> (ClusterOutcome, EventLog) {
        ClusterRun::with_obs(scenario, self, level).finish()
    }
}

/// A cluster execution that can be paused, checkpointed, and resumed.
///
/// [`ClusterEngineExt::run_cluster`] is a thin wrapper over this type: it advances one
/// decision interval at a time ([`Self::step`]), aggregating the per-interval scalars
/// the [`ClusterOutcome`] traces are built from, and [`Self::finish`] runs whatever
/// remains of the horizon and assembles the outcome. Between steps the full state of
/// the execution — the simulator plus every aggregation accumulator — can be captured
/// with [`Self::checkpoint`] and restored with [`Self::restore`] into a run freshly
/// built from the same scenario. Resuming an untraced run is byte-identical to never
/// having stopped: the final outcome's JSON is equal byte for byte.
///
/// ```
/// use pliant_approx::catalog::AppId;
/// use pliant_cluster::prelude::*;
/// use pliant_core::engine::Engine;
/// use pliant_workloads::service::ServiceId;
///
/// let scenario = ClusterScenario::builder(ServiceId::Memcached)
///     .nodes(2)
///     .jobs(vec![AppId::Canneal, AppId::Snp, AppId::Bayesian])
///     .horizon_intervals(12)
///     .build();
/// let engine = Engine::new();
/// let mut first = ClusterRun::new(&scenario, &engine);
/// while first.intervals() < 5 {
///     first.step();
/// }
/// let checkpoint = first.checkpoint();
/// // ... possibly in another process, after a round trip through JSON ...
/// let mut resumed = ClusterRun::new(&scenario, &engine);
/// resumed.restore(&checkpoint).unwrap();
/// let (outcome, _) = resumed.finish();
/// assert_eq!(outcome.intervals, 12);
/// ```
pub struct ClusterRun {
    sim: ClusterSim,
    max_intervals: usize,
    // Per-instance accumulators: one slot per *simulated* node. In exact mode that is
    // the whole fleet; under the clustered approximation each instance already carries
    // its replica weight in everything it reports.
    assigned_sum: Vec<f64>,
    max_extra: Vec<u32>,
    jobs_completed: Vec<usize>,
    total_load_sum: f64,
    max_total_extra: u32,
    active_sum: usize,
    min_active: usize,
    load_series: TimeSeries,
    cores_series: TimeSeries,
    violating_series: TimeSeries,
    power_series: TimeSeries,
    active_series: TimeSeries,
}

impl ClusterRun {
    /// Builds the run (fleet plus aggregation state) for `scenario`, untraced.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the engine's catalog.
    pub fn new(scenario: &ClusterScenario, engine: &Engine) -> Self {
        Self::with_obs(scenario, engine, ObsLevel::Off)
    }

    /// Like [`Self::new`], with the tracing subsystem on at `level`. A resumed traced
    /// run replays only post-resume events (the observability ring is not part of the
    /// checkpoint); the simulation itself is still byte-identical.
    pub fn with_obs(scenario: &ClusterScenario, engine: &Engine, level: ObsLevel) -> Self {
        let sim = ClusterSim::with_obs(scenario, engine.catalog(), level);
        let n = sim.instance_count();
        let max_intervals = scenario.max_intervals();
        ClusterRun {
            sim,
            max_intervals,
            assigned_sum: vec![0.0f64; n],
            max_extra: vec![0u32; n],
            jobs_completed: vec![0usize; n],
            total_load_sum: 0.0,
            max_total_extra: 0,
            active_sum: 0,
            min_active: scenario.nodes,
            load_series: TimeSeries::with_capacity("total_offered_load", max_intervals),
            cores_series: TimeSeries::with_capacity("total_extra_cores", max_intervals),
            violating_series: TimeSeries::with_capacity("violating_nodes", max_intervals),
            power_series: TimeSeries::with_capacity("fleet_power_w", max_intervals),
            active_series: TimeSeries::with_capacity("active_nodes", max_intervals),
        }
    }

    /// Decision intervals advanced so far.
    pub fn intervals(&self) -> usize {
        self.sim.intervals()
    }

    /// Whether the horizon has been fully simulated.
    pub fn is_done(&self) -> bool {
        self.sim.intervals() >= self.max_intervals
    }

    /// The fleet being advanced.
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// Advances one decision interval and folds it into the aggregates; no-op once the
    /// horizon is complete. Returns `true` while intervals remain.
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        // QoS accounting (busy/idle/violation counters and the per-node latency
        // histograms, microsecond-scaled, warm-up excluded) lives inside each
        // [`crate::node::ClusterNode`] and runs as the node steps; this loop only
        // aggregates per-interval scalars for the traces.
        let interval = self.sim.advance();
        self.total_load_sum += interval.total_offered_load;
        let mut total_extra = 0u32;
        let mut violating_nodes = 0usize;
        let mut fleet_power_w = 0.0f64;
        for ni in &interval.nodes {
            let i = ni.node;
            let obs = &ni.observation;
            // Replica weighting: every logical node an instance stands for would have
            // shown the same per-node observation under CRN, so extensive fleet
            // quantities scale by `replicas` (which is 1 on every exactly-simulated
            // node, leaving the historical arithmetic bit-identical).
            if obs.arrivals > 0 && obs.qos_violated() {
                violating_nodes += ni.replicas;
            }
            self.assigned_sum[i] += ni.assigned_load;
            self.max_extra[i] = self.max_extra[i].max(ni.extra_service_cores);
            self.jobs_completed[i] += ni.jobs_completed;
            total_extra += ni.extra_service_cores * ni.replicas as u32;
            fleet_power_w += obs.power_w * ni.replicas as f64;
        }
        self.max_total_extra = self.max_total_extra.max(total_extra);
        self.active_sum += interval.active_nodes;
        self.min_active = self.min_active.min(interval.active_nodes);
        self.load_series
            .push(interval.time_s, interval.total_offered_load);
        self.cores_series.push(interval.time_s, total_extra as f64);
        self.violating_series
            .push(interval.time_s, violating_nodes as f64);
        self.power_series.push(interval.time_s, fleet_power_w);
        self.active_series
            .push(interval.time_s, interval.active_nodes as f64);
        // The interval is fully consumed: recycle its observation buffers into the
        // nodes and its results vector into the fleet, so the fleet, like the
        // single-node loop, allocates once per run.
        self.sim.recycle_interval(interval);
        !self.is_done()
    }

    /// Captures the run for later resumption: the simulator checkpoint plus every
    /// aggregation accumulator. Serializable; see [`ClusterRunCheckpoint`].
    pub fn checkpoint(&self) -> ClusterRunCheckpoint {
        let mut trace = TraceBundle::new();
        trace.insert(self.load_series.clone());
        trace.insert(self.cores_series.clone());
        trace.insert(self.violating_series.clone());
        trace.insert(self.power_series.clone());
        trace.insert(self.active_series.clone());
        ClusterRunCheckpoint {
            version: CLUSTER_CHECKPOINT_VERSION,
            sim: self.sim.checkpoint(),
            assigned_sum: self.assigned_sum.clone(),
            max_extra: self.max_extra.clone(),
            jobs_completed: self.jobs_completed.clone(),
            total_load_sum: self.total_load_sum,
            max_total_extra: self.max_total_extra,
            active_sum: self.active_sum,
            min_active: self.min_active,
            trace,
        }
    }

    /// Restores a checkpoint taken by [`Self::checkpoint`] into this run, which must
    /// have been built from the same scenario.
    ///
    /// # Errors
    ///
    /// Rejects checkpoints from a different format version or fleet shape; the run may
    /// be left partially restored on error and must not be advanced further.
    pub fn restore(&mut self, checkpoint: &ClusterRunCheckpoint) -> Result<(), String> {
        if checkpoint.version != CLUSTER_CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint format version {} (supported: {CLUSTER_CHECKPOINT_VERSION})",
                checkpoint.version
            ));
        }
        let n = self.sim.instance_count();
        if checkpoint.assigned_sum.len() != n
            || checkpoint.max_extra.len() != n
            || checkpoint.jobs_completed.len() != n
        {
            return Err(format!(
                "checkpoint aggregates cover {} instances, run has {n}",
                checkpoint.assigned_sum.len()
            ));
        }
        self.sim.restore(&checkpoint.sim)?;
        self.assigned_sum.clone_from(&checkpoint.assigned_sum);
        self.max_extra.clone_from(&checkpoint.max_extra);
        self.jobs_completed.clone_from(&checkpoint.jobs_completed);
        self.total_load_sum = checkpoint.total_load_sum;
        self.max_total_extra = checkpoint.max_total_extra;
        self.active_sum = checkpoint.active_sum;
        self.min_active = checkpoint.min_active;
        for (slot, name) in [
            (&mut self.load_series, "total_offered_load"),
            (&mut self.cores_series, "total_extra_cores"),
            (&mut self.violating_series, "violating_nodes"),
            (&mut self.power_series, "fleet_power_w"),
            (&mut self.active_series, "active_nodes"),
        ] {
            *slot = checkpoint
                .trace
                .get(name)
                .ok_or_else(|| format!("checkpoint trace is missing the `{name}` series"))?
                .clone();
        }
        Ok(())
    }

    /// Runs whatever remains of the horizon and assembles the final outcome plus the
    /// merged decision-event stream (empty on an untraced run).
    pub fn finish(mut self) -> (ClusterOutcome, EventLog) {
        while self.step() {}
        let ClusterRun {
            mut sim,
            max_intervals,
            assigned_sum,
            max_extra,
            jobs_completed,
            total_load_sum,
            max_total_extra,
            active_sum,
            min_active,
            load_series,
            cores_series,
            violating_series,
            power_series,
            active_series,
            ..
        } = self;
        let scenario = sim.scenario().clone();
        let n = sim.instance_count();

        // Fleet quantiles come from the exact merge of the per-node histograms.
        let mut fleet = LatencyHistogram::new();
        for i in 0..n {
            fleet
                .try_merge(sim.node(i).latency_histogram())
                // pliant-lint: allow(panic-hygiene): every node histogram was built by
                // this engine with the same bucket configuration, so the merge cannot
                // fail.
                .expect("in-process histograms share one bucket configuration");
        }
        let qos_target_s = scenario.qos_target_s.unwrap_or_else(|| {
            pliant_workloads::service::ServiceProfile::paper_default(scenario.service).qos_target_s
        });

        let node_outcomes: Vec<NodeOutcome> = (0..n)
            .map(|i| {
                let node = sim.node(i);
                let inaccuracies = node.completed_inaccuracy_pct();
                // Replica-weighted mean: a job completed at weight `w` stood for `w`
                // logical completions. With all-ones weights (exact mode) this reduces
                // bit-for-bit to the plain arithmetic mean the engine always computed.
                let weights = node.completed_weights();
                let weight_total: usize = weights.iter().sum();
                NodeOutcome {
                    node: i,
                    replicas: node.replicas(),
                    busy_intervals: node.busy_intervals(),
                    idle_intervals: node.idle_intervals(),
                    p99_s: node.latency_histogram().p99() / 1e6,
                    qos_violation_fraction: node.qos_violations() as f64
                        / node.busy_intervals().max(1) as f64,
                    mean_assigned_load: assigned_sum[i] / max_intervals.max(1) as f64,
                    max_extra_service_cores: max_extra[i],
                    jobs_completed: jobs_completed[i],
                    mean_completed_inaccuracy_pct: if inaccuracies.is_empty() {
                        0.0
                    } else {
                        inaccuracies
                            .iter()
                            .zip(weights)
                            .map(|(v, &w)| v * w as f64)
                            .sum::<f64>()
                            / weight_total as f64
                    },
                    energy_j: node.energy_j(),
                }
            })
            .collect();

        let total_busy: usize = (0..n).map(|i| sim.node(i).busy_intervals()).sum();
        let total_violations: usize = (0..n).map(|i| sim.node(i).qos_violations()).sum();
        let fleet_p99_s = fleet.p99() / 1e6;
        // Fleet energy is the exact sum of the per-node accounting, mirroring how the
        // fleet p99 is the exact merge of the per-node histograms.
        let fleet_energy_j: f64 = node_outcomes.iter().map(|node| node.energy_j).sum();
        let simulated_s = max_intervals as f64 * scenario.decision_interval_s;
        let completed = sim.scheduler_stats().completed;

        let mut trace = TraceBundle::new();
        trace.insert(load_series);
        trace.insert(cores_series);
        trace.insert(violating_series);
        trace.insert(power_series);
        trace.insert(active_series);

        let log = sim.take_event_log();
        let outcome = ClusterOutcome {
            service: scenario.service,
            policy: scenario.policy,
            balancer: scenario.balancer,
            scheduler: scenario.scheduler,
            nodes: sim.node_count(),
            approximation: scenario.approximation,
            simulated_instances: n,
            intervals: sim.intervals(),
            warmup_intervals: scenario.warmup_intervals,
            qos_target_s,
            mean_total_offered_load: total_load_sum / max_intervals.max(1) as f64,
            fleet_p99_s,
            fleet_mean_latency_s: fleet.mean() / 1e6,
            fleet_samples: fleet.count(),
            fleet_tail_latency_ratio: fleet_p99_s / qos_target_s,
            fleet_qos_violation_fraction: total_violations as f64 / total_busy.max(1) as f64,
            max_total_extra_cores: max_total_extra,
            fleet_energy_j,
            mean_fleet_power_w: if simulated_s > 0.0 {
                fleet_energy_j / simulated_s
            } else {
                0.0
            },
            energy_per_completed_job_j: if completed > 0 {
                fleet_energy_j / completed as f64
            } else {
                0.0
            },
            mean_active_nodes: active_sum as f64 / max_intervals.max(1) as f64,
            min_active_nodes: min_active,
            faults: sim.fault_stats(),
            scheduler_stats: sim.scheduler_stats(),
            node_outcomes,
            obs: log.summary(),
            trace,
        };
        (outcome, log)
    }
}

/// A serialized [`ClusterRun`] between intervals: the simulator checkpoint plus the
/// engine-level aggregation accumulators (the five outcome trace series travel in a
/// [`TraceBundle`] keyed by series name). Restoring into a run freshly built from the
/// same scenario and finishing it produces output byte-identical to an uninterrupted
/// run (untraced runs; see [`ClusterRun::with_obs`] for the tracing caveat).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterRunCheckpoint {
    /// Snapshot format version ([`CLUSTER_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The fleet simulator's state.
    pub sim: ClusterCheckpoint,
    /// Per-instance sum of assigned load over the intervals run so far.
    pub assigned_sum: Vec<f64>,
    /// Per-instance maximum of reclaimed service cores.
    pub max_extra: Vec<u32>,
    /// Per-instance completed-job counts.
    pub jobs_completed: Vec<usize>,
    /// Sum of total offered load over the intervals run so far.
    pub total_load_sum: f64,
    /// Maximum fleet-wide reclaimed cores in any one interval.
    pub max_total_extra: u32,
    /// Sum of per-interval active-node counts.
    pub active_sum: usize,
    /// Minimum per-interval active-node count.
    pub min_active: usize,
    /// The five partial outcome trace series, keyed by name.
    pub trace: TraceBundle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_approx::catalog::AppId;
    use pliant_core::policy::PolicyKind;
    use pliant_workloads::service::ServiceId;

    fn small_scenario() -> ClusterScenario {
        ClusterScenario::builder(ServiceId::Memcached)
            .nodes(3)
            .jobs([AppId::Canneal, AppId::Snp, AppId::Bayesian, AppId::KMeans])
            .avg_node_load(0.6)
            .horizon_intervals(20)
            .seed(11)
            .build()
    }

    #[test]
    fn run_cluster_produces_consistent_fleet_statistics() {
        let outcome = Engine::new().run_cluster(&small_scenario());
        assert_eq!(outcome.nodes, 3);
        assert_eq!(outcome.intervals, 20);
        assert_eq!(outcome.node_outcomes.len(), 3);
        assert!(outcome.fleet_samples > 0);
        assert!(outcome.fleet_p99_s > 0.0);
        assert!(outcome.fleet_mean_latency_s < outcome.fleet_p99_s);
        // Offered load: 3 nodes at 0.6 average = 1.8 node-units.
        assert!((outcome.mean_total_offered_load - 1.8).abs() < 1e-9);
        // The balancer conserves load: per-node means sum to the fleet average.
        let assigned: f64 = outcome
            .node_outcomes
            .iter()
            .map(|node| node.mean_assigned_load)
            .sum();
        assert!((assigned - 1.8).abs() < 1e-9);
        // Busy + idle account for every measured (post-warm-up) node-interval.
        for node in &outcome.node_outcomes {
            assert_eq!(
                node.busy_intervals + node.idle_intervals,
                20 - outcome.warmup_intervals
            );
        }
        // The trace covers every interval.
        assert_eq!(outcome.trace.get("total_offered_load").unwrap().len(), 20);
        assert_eq!(outcome.trace.get("total_extra_cores").unwrap().len(), 20);
        assert_eq!(outcome.trace.get("violating_nodes").unwrap().len(), 20);
    }

    #[test]
    fn queued_jobs_flow_through_the_fleet() {
        // 2 nodes, 6 jobs: 2 placed initially, 4 queued; a long horizon lets several
        // complete and be replaced.
        let scenario = ClusterScenario::builder(ServiceId::MongoDb)
            .nodes(2)
            .jobs([
                AppId::Raytrace,
                AppId::Snp,
                AppId::KMeans,
                AppId::Bayesian,
                AppId::Snp,
                AppId::KMeans,
            ])
            .avg_node_load(0.5)
            .horizon_intervals(200)
            .seed(3)
            .build();
        let outcome = Engine::new().run_cluster(&scenario);
        assert_eq!(outcome.scheduler_stats.submitted, 6);
        assert!(
            outcome.scheduler_stats.completed >= 4,
            "queued jobs must be placed and complete ({:?})",
            outcome.scheduler_stats
        );
        assert!(
            outcome.scheduler_stats.placed > 2 && outcome.scheduler_stats.placed <= 6,
            "the queue must drain into freed slots ({:?})",
            outcome.scheduler_stats
        );
        assert!(outcome.scheduler_stats.placed >= outcome.scheduler_stats.completed);
        assert_eq!(outcome.jobs_completed(), outcome.scheduler_stats.completed);
        let per_node: usize = outcome
            .node_outcomes
            .iter()
            .map(|node| node.jobs_completed)
            .sum();
        assert_eq!(per_node, outcome.scheduler_stats.completed);
    }

    #[test]
    fn precise_fleet_runs_uninstrumented_and_never_reclaims() {
        let scenario = ClusterScenario::builder(ServiceId::Nginx)
            .nodes(2)
            .jobs([AppId::Canneal, AppId::Snp])
            .policy(PolicyKind::Precise)
            .avg_node_load(0.5)
            .horizon_intervals(15)
            .build();
        let outcome = Engine::new().run_cluster(&scenario);
        assert_eq!(outcome.max_total_extra_cores, 0);
        assert_eq!(outcome.mean_completed_inaccuracy_pct(), 0.0);
    }
}
