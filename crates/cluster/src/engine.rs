//! Running one fleet: N nodes coupled by an even load split and a batch scheduler.
//!
//! A [`ClusterRun`] owns the whole fleet, the books its outcome is assembled from, and
//! its checkpoint. [`ClusterRun::step`] advances it one decision interval: it samples
//! the per-node-average load profile, scales it to the logical fleet's total offered
//! load, and runs one method per phase:
//!
//! 1. `apply_faults` — recoveries, then this interval's scheduled crashes and
//!    stragglers, then replica-weighted availability accounting;
//! 2. `plan_serving_set` — the autoscaler plans from the previous interval's
//!    snapshots, parked and crashed nodes are suspended, and the interval's serving
//!    mask (autoscaler `Active` and fault-healthy) is computed once;
//! 3. `admit_racks` — racks whose measured draw reached their power budget close to
//!    new work;
//! 4. `consolidate` — draining nodes live-migrate in-flight jobs onto serving nodes
//!    and park once empty;
//! 5. `place_jobs` — the batch scheduler places queued jobs into free slots on serving
//!    nodes, each placement confined to a sampled rack on racked fleets
//!    (`confine_to_sampled_rack`);
//! 6. `balance_load` — the total load is split evenly over the serving mask: every
//!    serving logical node gets the same share, every other node none;
//! 7. `step_nodes` — every node advances independently: its simulator runs the
//!    interval and its [`NodeRuntime`](pliant_core::runtime::NodeRuntime), the same
//!    runtime a single-node experiment runs, monitors, decides and actuates; the node
//!    keeps its own per-node books and its last observation;
//! 8. `close_interval` — one pass over the nodes records job completions, meters rack
//!    power, and folds the interval into the fleet books (the outcome's trace series)
//!    and the traced interval rollup.
//!
//! Nodes share no state within an interval: all cross-node decisions happen in the
//! other phases, and phase 7 steps the instances in index order on the calling thread.
//! A fleet is one simulation; parallelism comes from running whole fleets side by side
//! (`engine.map_ordered(cells.len(), |i| engine.run_cluster(&cells[i]))` over a list of
//! scenarios, see [`Engine::map_ordered`]), where the engine's workers take whole
//! fleets and the order of the results does not depend on the worker count. [`ClusterEngineExt`] runs one fleet on an [`Engine`],
//! sharing the engine's catalog with every node.
//!
//! # Population vs instances
//!
//! The scenario describes a *population* of logical nodes
//! (see [`NodePopulation`]); what the run steps are *instances*. Under
//! [`FleetApproximation::Exact`](crate::scenario::FleetApproximation::Exact) the two
//! coincide — one weight-1 instance per logical node. Under
//! [`FleetApproximation::Clustered`](crate::scenario::FleetApproximation::Clustered)
//! each instance is a representative standing for `replicas` interchangeable logical
//! nodes: the even split divides the *logical* total load by the serving logical nodes
//! (a per-replica share), the scheduler pops replica-sized job batches, the autoscaler
//! parks and drains whole replica blocks, and every per-node statistic a representative
//! produces is replicated by its weight node-side. Interval cost then scales with the
//! number of instances while the reported fleet stays at its logical size. Both modes
//! run the same phases; an exact fleet is the case where every replica weight is 1.

use pliant_approx::catalog::{AppId, Catalog};
use pliant_core::engine::Engine;
use pliant_telemetry::histogram::LatencyHistogram;
use pliant_telemetry::obs::{
    Event, EventLog, ObsBuffer, ObsLevel, PowerStateKind, ScaleTrigger, DEFAULT_FLEET_CAPACITY,
};
use pliant_telemetry::rng::{derive_seed, seeded_rng};
use pliant_telemetry::series::{TimeSeries, TraceBundle};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::autoscaler::{Autoscaler, AutoscalerState, NodePowerState};
use crate::faults::{self, FaultKind, FaultProgress, FaultState, FaultStats, NodeHealth};
use crate::node::{ClusterNode, NodeCheckpoint, NodeSnapshot};
use crate::outcome::{ClusterOutcome, NodeOutcome};
use crate::population::NodePopulation;
use crate::scenario::ClusterScenario;
use crate::scheduler::{BatchScheduler, SchedulerStats};

/// Seed-derivation stream for the rack-placement sampling RNG (racked topologies
/// only; flat fleets never create the stream, let alone draw from it).
const RACK_SAMPLE_STREAM: u64 = 0x7090_0001;

/// Fleet execution on the core [`Engine`]; see the module docs.
pub trait ClusterEngineExt {
    /// Runs one cluster scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the engine's catalog.
    fn run_cluster(&self, scenario: &ClusterScenario) -> ClusterOutcome;
}

impl ClusterEngineExt for Engine {
    fn run_cluster(&self, scenario: &ClusterScenario) -> ClusterOutcome {
        ClusterRun::new(scenario, self).finish().0
    }
}

/// One fleet execution that can be paused, checkpointed, and resumed; see the module
/// docs.
///
/// [`ClusterEngineExt::run_cluster`] is a thin wrapper over this type: it advances one
/// decision interval at a time ([`Self::step`]), and [`Self::finish`] runs whatever
/// remains of the horizon and assembles the [`ClusterOutcome`]. Between steps the full
/// state of the execution — every node, the coordinator, and every book the outcome is
/// built from — can be captured with [`Self::checkpoint`] and restored with
/// [`Self::restore`] into a run freshly built from the same scenario. Resuming an
/// untraced run is byte-identical to never having stopped: the final outcome's JSON is
/// equal byte for byte.
///
/// ```
/// use pliant_approx::catalog::AppId;
/// use pliant_cluster::prelude::*;
/// use pliant_core::engine::Engine;
/// use pliant_core::scenario::Horizon;
/// use pliant_workloads::service::ServiceId;
///
/// let scenario = ClusterScenario {
///     nodes: 2,
///     jobs: vec![AppId::Canneal, AppId::Snp, AppId::Bayesian],
///     horizon: Horizon::Intervals(12),
///     ..ClusterScenario::paper_default(ServiceId::Memcached)
/// };
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
    /// The scenario's settings with an empty job list: the nodes start their initial
    /// slices at build time and the scheduler holds the queued tail.
    scenario: ClusterScenario,
    catalog: Catalog,
    /// Simulated instances, in instance order. Each keeps its own per-node books (QoS
    /// counters, histogram, energy, assigned load, reclaimed cores, completions).
    nodes: Vec<ClusterNode>,
    /// Logical nodes each instance stands for (all ones in exact mode).
    replica_weights: Vec<usize>,
    scheduler: BatchScheduler,
    /// Energy-aware sizing of the active node set (`None` = every node always serves).
    autoscaler: Option<Autoscaler>,
    /// Fault injection: the compiled schedule and per-instance health (`None` when the
    /// scenario carries no fault profile, which leaves every instance healthy).
    faults: Option<FaultState>,
    time_s: f64,
    intervals: usize,
    /// The scenario's horizon, in decision intervals.
    max_intervals: usize,
    /// Scratch buffer of node snapshots, refreshed by [`Self::refresh_snapshots`] and
    /// reused across the planning, consolidation, and placement phases.
    snapshot_scratch: Vec<NodeSnapshot>,
    /// Per-replica load the even split assigned each instance this interval.
    assigned_scratch: Vec<f64>,
    /// This interval's serving mask: autoscaler `Active` and fault-healthy, computed
    /// once per interval by [`Self::plan_serving_set`].
    serving: Vec<bool>,
    /// Scratch buffer of `(app, weight)` jobs aborted off a crashed node, reused
    /// across crash events.
    requeue_scratch: Vec<(AppId, usize)>,
    /// Coordinator-side event ring (source 0): fleet shape, placements, dispatch,
    /// autoscaler transitions, and per-interval rollups. Disabled — the null sink —
    /// unless the run was built with [`Self::with_obs`].
    fleet_obs: ObsBuffer,
    /// Autoscaler power states at the start of the previous plan, used to diff out
    /// [`Event::AutoscalerTransition`]s (traced runs only).
    power_state_scratch: Vec<NodePowerState>,
    /// Rack of each instance, via its seed member (replica groups never span racks —
    /// see [`NodeGroup::rack`](crate::population::NodeGroup::rack) — so the seed
    /// member's rack is every member's rack).
    instance_racks: Vec<usize>,
    /// Sampling stream for rack-level online placement (`None` on a flat topology,
    /// which never samples).
    rack_rng: Option<SmallRng>,
    /// Per-rack measured power draw over the previous interval, in watts (empty on a
    /// flat topology).
    rack_power_w: Vec<f64>,
    /// Scratch: per-rack admission flags for the current interval (power caps).
    rack_admissible: Vec<bool>,
    /// Scratch: candidate racks for one placement sampling round.
    rack_candidates: Vec<usize>,
    /// Scratch: instances parked by the mid-interval consolidation pass.
    park_scratch: Vec<usize>,
    books: FleetBooks,
}

/// A fleet run's books: the aggregates and trace series its outcome is assembled from,
/// folded in once per interval by `close_interval`. A run keeps them as this one value,
/// so its checkpoint is a clone of it.
///
/// Extensive quantities are replica weighted: every logical node an instance stands
/// for would have shown the same per-node observation under CRN, so they scale by
/// `replicas` (1 on every exactly simulated node, which leaves the arithmetic
/// bit-identical).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBooks {
    /// Sum of total offered load over the intervals run so far.
    pub total_load_sum: f64,
    /// Maximum fleet-wide reclaimed cores in any one interval.
    pub max_total_extra: u32,
    /// Sum of per-interval active-node counts.
    pub active_sum: usize,
    /// Minimum per-interval active-node count.
    pub min_active: usize,
    /// Fleet offered load per interval (`total_offered_load`).
    pub load_series: TimeSeries,
    /// Fleet reclaimed cores per interval (`total_extra_cores`).
    pub cores_series: TimeSeries,
    /// QoS-violating logical nodes per interval (`violating_nodes`).
    pub violating_series: TimeSeries,
    /// Fleet power draw per interval (`fleet_power_w`).
    pub power_series: TimeSeries,
    /// Serving logical nodes per interval (`active_nodes`).
    pub active_series: TimeSeries,
}

impl FleetBooks {
    fn new(nodes: usize, max_intervals: usize) -> Self {
        Self {
            total_load_sum: 0.0,
            max_total_extra: 0,
            active_sum: 0,
            min_active: nodes,
            load_series: TimeSeries::with_capacity("total_offered_load", max_intervals),
            cores_series: TimeSeries::with_capacity("total_extra_cores", max_intervals),
            violating_series: TimeSeries::with_capacity("violating_nodes", max_intervals),
            power_series: TimeSeries::with_capacity("fleet_power_w", max_intervals),
            active_series: TimeSeries::with_capacity("active_nodes", max_intervals),
        }
    }

    /// The five trace series, in outcome order.
    fn series(&self) -> [&TimeSeries; 5] {
        [
            &self.load_series,
            &self.cores_series,
            &self.violating_series,
            &self.power_series,
            &self.active_series,
        ]
    }
}

/// The telemetry code of a batch job: its position in [`AppId::all`].
fn job_code(app: AppId) -> u32 {
    AppId::all()
        .iter()
        .position(|a| *a == app)
        .map_or(u32::MAX, |p| p as u32)
}

/// Converts an autoscaler power state into its telemetry mirror.
fn power_state_kind(state: NodePowerState) -> PowerStateKind {
    match state {
        NodePowerState::Active => PowerStateKind::Active,
        NodePowerState::Draining => PowerStateKind::Draining,
        NodePowerState::Parked => PowerStateKind::Parked,
    }
}

impl ClusterRun {
    /// Builds the run for `scenario`, untraced, filling every node's slots with the
    /// first `nodes × slots_per_node` jobs (node-major order) and queueing the rest.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the engine's catalog.
    pub fn new(scenario: &ClusterScenario, engine: &Engine) -> Self {
        Self::with_obs(scenario, engine, ObsLevel::Off)
    }

    /// Like [`Self::new`], but with the tracing subsystem switched on at `level`:
    /// every node records its decision events and the coordinator records fleet-level
    /// events (placements, dispatch, autoscaler transitions, interval rollups);
    /// [`Self::finish`] returns the merged stream. Tracing observes decisions without
    /// altering them — the simulation is byte-identical at every level. A resumed
    /// traced run replays only post-resume events (the observability rings are not
    /// part of the checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the engine's catalog.
    pub fn with_obs(scenario: &ClusterScenario, engine: &Engine, level: ObsLevel) -> Self {
        let catalog = engine.catalog();
        if let Err(e) = scenario.validate() {
            panic!("invalid cluster scenario `{}`: {e}", scenario.describe());
        }
        let initial = scenario.initial_job_count();
        let population = NodePopulation::from_scenario(scenario);
        let clustered = scenario.approximation.is_clustered();
        let topology = &scenario.topology;
        let fault_schedule = scenario
            .fault_profile
            .as_ref()
            .filter(|profile| !profile.is_empty())
            .map(|profile| {
                faults::compile_schedule(
                    profile,
                    scenario.seed,
                    scenario.nodes,
                    topology,
                    scenario.max_intervals(),
                )
            });
        // Faulted logical nodes must be simulated exactly: carve them out of their
        // replica groups so a crash takes down one node, not every node it stood for.
        let plans = match &fault_schedule {
            Some(schedule) if clustered => population.plan_instances_isolating(
                &scenario.approximation,
                &faults::faulted_logical_nodes(schedule),
            ),
            _ => population.plan_instances(&scenario.approximation),
        };
        // In exact mode the plans are one weight-1 instance per logical node, in node
        // order.
        let nodes: Vec<ClusterNode> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let slice = &scenario.jobs[plan.seed_member * scenario.slots_per_node
                    ..(plan.seed_member + 1) * scenario.slots_per_node];
                let mut node = ClusterNode::representative(
                    scenario,
                    i,
                    plan.seed_member,
                    plan.replicas,
                    slice,
                    catalog,
                );
                if level != ObsLevel::Off {
                    node.enable_obs(level);
                }
                node
            })
            .collect();
        let mut fleet_obs = ObsBuffer::new(level, 0, 1, DEFAULT_FLEET_CAPACITY);
        if fleet_obs.enabled() {
            let qos_target_s = nodes.first().map_or(0.0, |n| n.snapshot().qos_target_s);
            fleet_obs.emit(
                0,
                0.0,
                Event::FleetStart {
                    nodes: population.total_nodes() as u32,
                    instances: plans.len() as u32,
                    slots_per_node: scenario.slots_per_node as u32,
                    qos_target_s,
                },
            );
            if clustered {
                // Clustered plans are group-major, and every group has at least one.
                for group in plans.chunk_by(|a, b| a.group == b.group) {
                    let replicas: usize = group.iter().map(|p| p.replicas).sum();
                    fleet_obs.emit(
                        0,
                        0.0,
                        Event::ApproximationPlan {
                            group: group[0].group as u32,
                            representatives: group.len() as u32,
                            replicas: replicas as u32,
                        },
                    );
                }
            }
        }
        let replica_weights: Vec<usize> = plans.iter().map(|p| p.replicas).collect();
        let instance_racks: Vec<usize> = plans
            .iter()
            .map(|p| topology.rack_of(p.seed_member))
            .collect();
        let rack_rng = (!topology.is_flat())
            .then(|| seeded_rng(derive_seed(scenario.seed, RACK_SAMPLE_STREAM)));
        let rack_power_w = if topology.is_flat() {
            Vec::new()
        } else {
            vec![0.0; topology.rack_count()]
        };
        let scheduler = BatchScheduler::new(
            scenario.scheduler,
            scenario.jobs[initial..].iter().copied(),
            initial,
        );
        let autoscaler = scenario
            .autoscaler
            .map(|config| Autoscaler::for_instances(config, replica_weights.clone()));
        let faults = fault_schedule.map(|schedule| FaultState::new(schedule, &plans));
        let max_intervals = scenario.max_intervals();
        Self {
            scenario: ClusterScenario {
                jobs: Vec::new(),
                load_profile: scenario.load_profile.clone(),
                fault_profile: scenario.fault_profile.clone(),
                topology: scenario.topology.clone(),
                ..*scenario
            },
            catalog: catalog.clone(),
            nodes,
            replica_weights,
            scheduler,
            autoscaler,
            faults,
            time_s: 0.0,
            intervals: 0,
            max_intervals,
            snapshot_scratch: Vec::new(),
            assigned_scratch: Vec::new(),
            serving: Vec::new(),
            requeue_scratch: Vec::new(),
            fleet_obs,
            power_state_scratch: Vec::new(),
            instance_racks,
            rack_rng,
            rack_power_w,
            rack_admissible: Vec::new(),
            rack_candidates: Vec::new(),
            park_scratch: Vec::new(),
            books: FleetBooks::new(scenario.nodes, max_intervals),
        }
    }

    /// Takes the merged decision-event stream of the run so far: the coordinator's
    /// events followed by every node's, interleaved chronologically (stable per-interval
    /// order: fleet first, then nodes in instance order). Buffers are drained, so
    /// [`Self::finish`] calls this once, after the run. Returns an empty log on an
    /// untraced fleet.
    fn take_event_log(&mut self) -> EventLog {
        let level = self.fleet_obs.level();
        let fleet = std::mem::replace(&mut self.fleet_obs, ObsBuffer::disabled());
        let buffers =
            std::iter::once(fleet).chain(self.nodes.iter_mut().map(ClusterNode::take_obs_buffer));
        EventLog::merge(level, buffers)
    }

    /// Simulated instances (the logical fleet size in exact mode; the number of
    /// cluster representatives under
    /// [`FleetApproximation::Clustered`](crate::scenario::FleetApproximation::Clustered)).
    pub fn instance_count(&self) -> usize {
        self.nodes.len()
    }

    /// Decision intervals advanced so far.
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Fault-injection outcome counters so far, when the scenario carries a
    /// (non-empty) fault profile. Availability is computed over the logical fleet and
    /// the intervals advanced so far.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults
            .as_ref()
            .map(|f| f.stats(self.scenario.nodes, self.intervals))
    }

    /// Immutable access to instance `index`.
    pub fn node(&self, index: usize) -> &ClusterNode {
        &self.nodes[index]
    }

    /// Refreshes `snapshot_scratch` with every instance's current snapshot.
    fn refresh_snapshots(&mut self) {
        self.snapshot_scratch.clear();
        self.snapshot_scratch
            .extend(self.nodes.iter().map(ClusterNode::snapshot));
    }

    /// Scores a candidate rack for online placement from `snapshot_scratch`: fractional
    /// power headroom (1.0 when unbudgeted) plus the replica-weighted mean QoS slack of
    /// its member instances. Returns `(score, headroom_w, mean_slack)`; the headroom in
    /// watts is reported as 0.0 for unbudgeted racks, which have no meaningful wattage.
    fn rack_score(&self, rack: usize) -> (f64, f64, f64) {
        let (headroom_frac, headroom_w) = match self.scenario.topology.power_budget_w() {
            Some(budget) if budget > 0.0 => {
                let headroom = (budget - self.rack_power_w[rack]).max(0.0);
                ((headroom / budget).min(1.0), headroom)
            }
            _ => (1.0, 0.0),
        };
        let mut slack_sum = 0.0;
        let mut members = 0usize;
        for snap in &self.snapshot_scratch {
            if self.instance_racks[snap.index] != rack {
                continue;
            }
            let weight = self.replica_weights[snap.index];
            slack_sum += snap.slack_fraction() * weight as f64;
            members += weight;
        }
        let mean_slack = if members > 0 {
            slack_sum / members as f64
        } else {
            0.0
        };
        (headroom_frac + mean_slack, headroom_w, mean_slack)
    }

    /// Whether the horizon has been fully simulated.
    pub fn is_done(&self) -> bool {
        self.intervals >= self.max_intervals
    }

    /// Returns the run itself: the fleet's read accessors are on [`ClusterRun`]. Kept
    /// only because the `perfbench` harness calls `run.sim().instance_count()`; new
    /// code calls the accessors on the run directly.
    pub fn sim(&self) -> &Self {
        self
    }

    /// Advances the fleet one decision interval on the calling thread and folds it into
    /// the books; no-op once the horizon is complete. Returns `true` while intervals
    /// remain.
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        self.apply_faults();
        // The offered load scales with the *logical* fleet: approximating with fewer
        // instances must not shrink it.
        let avg_offered_load = self.scenario.load_at(self.time_s);
        let total_offered_load = avg_offered_load * self.scenario.nodes as f64;
        let active_nodes = self.plan_serving_set(total_offered_load);
        self.admit_racks();
        self.consolidate();
        let jobs_placed = self.place_jobs();
        self.balance_load(total_offered_load, active_nodes);
        let completions = self.step_nodes();
        self.close_interval(completions, total_offered_load, active_nodes, jobs_placed);
        !self.is_done()
    }

    /// Fault phase: recovers instances whose outage or degradation expired, then
    /// applies every fault scheduled for this interval (a zero-allocation cursor walk
    /// over the pre-compiled schedule; see [`crate::faults`]) and accounts the
    /// interval's replica-weighted availability. Runs first, so placement, balancing,
    /// and the autoscaler all see this interval's health.
    fn apply_faults(&mut self) {
        let Some(FaultState {
            schedule,
            progress: faults,
        }) = self.faults.as_mut()
        else {
            return;
        };
        let interval = self.intervals as u64;
        let obs_interval = self.intervals as u32;
        // A rack outage lands as per-member crashes (compiled into the schedule), but
        // the cause is a fleet-level event: record each power-domain failure the
        // interval it strikes, before its member crashes are applied.
        if let Some(profile) = &self.scenario.fault_profile {
            for outage in &profile.rack_outages {
                if outage.at_interval == interval {
                    let members = self
                        .scenario
                        .topology
                        .rack_members(outage.rack, self.scenario.nodes);
                    self.fleet_obs.emit(
                        obs_interval,
                        self.time_s,
                        Event::RackOutage {
                            rack: outage.rack as u32,
                            nodes: members.len() as u32,
                            duration_intervals: outage.duration_intervals as u32,
                        },
                    );
                }
            }
        }
        // Recoveries first, so a node can be struck again the interval it returns.
        for (i, health) in faults.health.iter_mut().enumerate() {
            let node = &mut self.nodes[i];
            match *health {
                // The autoscaler phase re-parks a recovered node if it planned so.
                NodeHealth::Down { until } if until <= interval => node.set_parked(false),
                NodeHealth::Degraded { until, .. } if until <= interval => node.set_degrade(1.0),
                _ => continue,
            }
            *health = NodeHealth::Up;
            self.fleet_obs.emit(
                obs_interval,
                self.time_s,
                Event::NodeRecovered { node: i as u32 },
            );
        }
        // Apply the events scheduled for this interval. Events addressing a logical
        // node with no exact instance (impossible by construction — the isolating
        // planner carves every faulted node out) or a node that is not healthy (a
        // crash cannot crash an already-down node) are dropped.
        while faults.cursor < schedule.len() && schedule[faults.cursor].0.interval == interval {
            let (event, instance) = schedule[faults.cursor];
            faults.cursor += 1;
            let Some(instance) = instance else {
                continue;
            };
            if faults.health[instance] != NodeHealth::Up {
                continue;
            }
            let until = interval + event.duration;
            match event.kind {
                FaultKind::Crash => {
                    faults.health[instance] = NodeHealth::Down { until };
                    faults.crashes += 1;
                    self.fleet_obs.emit(
                        obs_interval,
                        self.time_s,
                        Event::NodeFailed {
                            node: instance as u32,
                            outage_intervals: event.duration as u32,
                        },
                    );
                    // Unfinished batch jobs die with the node; hand them back to the
                    // scheduler queue. (The node's slots keep simulating the abandoned
                    // work and free up when it would have finished — the requeued copy
                    // may complete elsewhere first.)
                    self.requeue_scratch.clear();
                    self.nodes[instance].abort_unfinished_jobs(&mut self.requeue_scratch);
                    for &(app, weight) in &self.requeue_scratch {
                        self.scheduler.requeue(app, weight);
                        faults.jobs_requeued += weight as u64;
                        self.fleet_obs.emit(
                            obs_interval,
                            self.time_s,
                            Event::JobRequeued {
                                node: instance as u32,
                                job_code: job_code(app),
                                weight: weight as u32,
                            },
                        );
                    }
                }
                FaultKind::Degrade { factor } => {
                    faults.health[instance] = NodeHealth::Degraded { until, factor };
                    faults.degradations += 1;
                    self.nodes[instance].set_degrade(factor);
                    self.fleet_obs.emit(
                        obs_interval,
                        self.time_s,
                        Event::NodeDegraded {
                            node: instance as u32,
                            factor,
                            intervals: event.duration as u32,
                        },
                    );
                }
            }
        }
        // Replica-weighted availability accounting for the interval about to run.
        for (health, &weight) in faults.health.iter().zip(&self.replica_weights) {
            match health {
                NodeHealth::Down { .. } => faults.down_node_intervals += weight as u64,
                NodeHealth::Degraded { .. } => faults.degraded_node_intervals += weight as u64,
                NodeHealth::Up => {}
            }
        }
    }

    /// Autoscaler phase: plans the active set from the previous interval's snapshots
    /// (park fully-drained instances, then at most one membership change) and suspends
    /// parked instances before they are stepped. Crashed instances stay suspended
    /// whatever the plan: a down node bills the parked draw until it recovers (a
    /// modelling simplification — an outage is billed like a park, not as zero draw).
    ///
    /// Then computes the interval's serving mask into `serving`: autoscaler `Active`
    /// and fault-healthy. Consolidation, placement, and the load split all read it.
    /// Returns the logical nodes serving, the replica-weighted count over the mask.
    fn plan_serving_set(&mut self, total_offered_load: f64) -> usize {
        if self.autoscaler.is_some() {
            self.refresh_snapshots();
        }
        if let Some(scaler) = &mut self.autoscaler {
            if self.fleet_obs.enabled() {
                self.power_state_scratch.clear();
                self.power_state_scratch.extend_from_slice(scaler.states());
            }
            scaler.plan(
                total_offered_load,
                &self.snapshot_scratch,
                self.scenario.slots_per_node,
            );
            if self.fleet_obs.enabled() {
                // Diff the plan's state changes into transition events. The trigger is
                // recovered from the edge itself: reactivation = scale-out, a fresh
                // drain = scale-in, draining → parked = the drain completing.
                let interval = self.intervals as u32;
                for (i, (&before, &after)) in self
                    .power_state_scratch
                    .iter()
                    .zip(scaler.states())
                    .enumerate()
                {
                    if before == after {
                        continue;
                    }
                    let trigger = match after {
                        NodePowerState::Active => ScaleTrigger::ScaleOut,
                        NodePowerState::Draining => ScaleTrigger::ScaleIn,
                        NodePowerState::Parked => ScaleTrigger::DrainComplete,
                    };
                    self.fleet_obs.emit(
                        interval,
                        self.time_s,
                        Event::AutoscalerTransition {
                            node: i as u32,
                            from: power_state_kind(before),
                            to: power_state_kind(after),
                            trigger,
                        },
                    );
                }
            }
            for (node, state) in self.nodes.iter_mut().zip(scaler.states()) {
                node.set_parked(*state == NodePowerState::Parked);
            }
        }
        self.serving.clear();
        match &self.autoscaler {
            Some(scaler) => self
                .serving
                .extend(scaler.states().iter().map(|s| *s == NodePowerState::Active)),
            None => self.serving.resize(self.nodes.len(), true),
        }
        if let Some(faults) = &self.faults {
            for ((node, health), serving) in self
                .nodes
                .iter_mut()
                .zip(&faults.progress.health)
                .zip(self.serving.iter_mut())
            {
                if !health.is_serving() {
                    node.set_parked(true);
                    *serving = false;
                }
            }
        }
        self.serving
            .iter()
            .zip(&self.replica_weights)
            .filter(|(serving, _)| **serving)
            .map(|(_, &weight)| weight)
            .sum()
    }

    /// Rack admission phase: a rack whose measured draw reached its budget over the
    /// previous interval admits no new work this interval — neither queue placements
    /// nor migration arrivals. Flat fleets have a single unbudgeted rack and skip the
    /// scan entirely.
    fn admit_racks(&mut self) {
        let topology = &self.scenario.topology;
        if topology.is_flat() {
            return;
        }
        self.rack_admissible.clear();
        let budget_w = topology.power_budget_w();
        for (rack, &power_w) in self.rack_power_w.iter().enumerate() {
            let admissible = budget_w.is_none_or(|budget| power_w < budget);
            self.rack_admissible.push(admissible);
            if !admissible {
                self.fleet_obs.emit(
                    self.intervals as u32,
                    self.time_s,
                    Event::RackPowerCapped {
                        rack: rack as u32,
                        power_w,
                        budget_w: budget_w.unwrap_or(0.0),
                    },
                );
            }
        }
    }

    /// Consolidation phase (autoscalers configured to consolidate only): instead of
    /// waiting for a draining node's batch jobs to run to completion, migrate their
    /// in-flight state onto serving nodes with free slots, then park every drain the
    /// migrations completed — in the same interval, so the node bills the parked draw
    /// from here on and the active-node trace never double-counts it. Deterministic by
    /// construction: sources scan in instance order, each job lands on the
    /// lowest-indexed admissible destination, and no RNG is drawn.
    fn consolidate(&mut self) {
        if !self
            .autoscaler
            .as_ref()
            .is_some_and(|a| a.config().consolidate)
        {
            return;
        }
        let racked = !self.scenario.topology.is_flat();
        let n = self.nodes.len();
        let mut migrations = 0usize;
        for src in 0..n {
            let draining = self
                .autoscaler
                .as_ref()
                .is_some_and(|a| a.states()[src] == NodePowerState::Draining);
            // A crashed drain has nothing live to move: the fault phase already
            // aborted (and requeued) its unfinished jobs.
            let healthy = self
                .faults
                .as_ref()
                .is_none_or(|f| f.progress.health[src].is_serving());
            if !draining || !healthy {
                continue;
            }
            loop {
                // Pick the destination *before* extracting: extraction latches the
                // source slot irreversibly, so a job must never leave its node without
                // a confirmed landing spot. The draining source is never serving.
                let dst = (0..n).find(|&d| {
                    self.serving[d]
                        && (!racked || self.rack_admissible[self.instance_racks[d]])
                        && self.nodes[d].free_slots() > 0
                });
                let Some(dst) = dst else { break };
                let Some((state, weight)) = self.nodes[src].extract_job() else {
                    break;
                };
                let implanted = self.nodes[dst].implant_job(state, weight);
                assert!(
                    implanted.is_some(),
                    "destination advertised a free slot but refused the implant"
                );
                migrations += 1;
                self.fleet_obs.emit(
                    self.intervals as u32,
                    self.time_s,
                    Event::JobMigrated {
                        node: src as u32,
                        to_node: dst as u32,
                        weight: weight as u32,
                    },
                );
            }
        }
        if migrations == 0 {
            return;
        }
        self.refresh_snapshots();
        if let Some(scaler) = &mut self.autoscaler {
            self.park_scratch.clear();
            scaler.park_fully_drained(
                &self.snapshot_scratch,
                self.scenario.slots_per_node,
                &mut self.park_scratch,
            );
            for &i in &self.park_scratch {
                self.nodes[i].set_parked(true);
                self.fleet_obs.emit(
                    self.intervals as u32,
                    self.time_s,
                    Event::AutoscalerTransition {
                        node: i as u32,
                        from: PowerStateKind::Draining,
                        to: PowerStateKind::Parked,
                        trigger: ScaleTrigger::DrainComplete,
                    },
                );
            }
        }
    }

    /// Placement phase: places queued jobs into slots freed by the previous interval,
    /// returning the logical jobs placed. Snapshots are refreshed after every
    /// placement so one node does not soak up the whole queue just because it was
    /// chosen first. Instances outside the serving mask advertise zero free slots: a
    /// draining node handed fresh jobs would never park, and a crashed one cannot run
    /// them. On a racked fleet each placement is confined to a sampled rack first.
    fn place_jobs(&mut self) -> usize {
        let racked = !self.scenario.topology.is_flat();
        let mut jobs_placed = 0usize;
        loop {
            self.refresh_snapshots();
            for (snap, &serving) in self.snapshot_scratch.iter_mut().zip(&self.serving) {
                if !serving {
                    snap.free_slots = 0;
                }
            }
            if racked && !self.confine_to_sampled_rack() {
                break;
            }
            let Some((node, app, weight)) = self
                .scheduler
                .pop_placement(&self.snapshot_scratch, &self.replica_weights)
            else {
                break;
            };
            let profile = self
                .catalog
                .profile(app)
                .unwrap_or_else(|| panic!("{app} missing from catalog"));
            self.nodes[node]
                .place_job(profile, weight)
                // pliant-lint: allow(panic-hygiene): the scheduler chose this node
                // from snapshots with `free_slots > 0` taken this same interval.
                .expect("scheduler only places onto nodes with free slots");
            jobs_placed += weight;
            self.fleet_obs.emit(
                self.intervals as u32,
                self.time_s,
                Event::JobPlaced {
                    node: node as u32,
                    job_code: job_code(app),
                    weight: weight as u32,
                },
            );
        }
        jobs_placed
    }

    /// Online rack placement for the next queued job: samples up to two admissible
    /// candidate racks with free capacity, scores each by fractional power headroom
    /// plus mean QoS slack, and confines the placement to the winner by zeroing the
    /// other racks' free slots in `snapshot_scratch` (the power-aware sampling of
    /// Microsoft's online rack placement; the job queue itself is untouched). Returns
    /// `false` when the queue or the candidate set is empty — *before* any sampling
    /// draw, so RNG consumption is a pure function of simulation state, never of
    /// tracing level.
    fn confine_to_sampled_rack(&mut self) -> bool {
        if self.scheduler.pending() == 0 {
            return false;
        }
        self.rack_candidates.clear();
        for rack in 0..self.scenario.topology.rack_count() {
            let has_free = self
                .snapshot_scratch
                .iter()
                .any(|s| self.instance_racks[s.index] == rack && s.free_slots > 0);
            if self.rack_admissible[rack] && has_free {
                self.rack_candidates.push(rack);
            }
        }
        let k = self.rack_candidates.len();
        if k == 0 {
            return false;
        }
        let (first, second) = if k == 1 {
            (0, 0)
        } else {
            let rng = self
                .rack_rng
                .as_mut()
                // pliant-lint: allow(panic-hygiene): racked fleets always construct
                // the sampling stream; see `with_obs`.
                .expect("racked fleets carry a rack-sampling stream");
            let first = rng.gen_range(0..k);
            let mut second = rng.gen_range(0..k - 1);
            if second >= first {
                second += 1;
            }
            (first, second)
        };
        let mut winner = self.rack_candidates[first];
        let mut best = self.rack_score(winner);
        if second != first {
            let other = self.rack_candidates[second];
            let score = self.rack_score(other);
            match score.0.total_cmp(&best.0) {
                std::cmp::Ordering::Greater => {
                    winner = other;
                    best = score;
                }
                std::cmp::Ordering::Equal if other < winner => {
                    winner = other;
                    best = score;
                }
                _ => {}
            }
        }
        self.fleet_obs.emit(
            self.intervals as u32,
            self.time_s,
            Event::RackPlacement {
                rack: winner as u32,
                candidates: if k == 1 { 1 } else { 2 },
                power_headroom_w: best.1,
                qos_slack: best.2,
            },
        );
        for snap in self.snapshot_scratch.iter_mut() {
            if self.instance_racks[snap.index] != winner {
                snap.free_slots = 0;
            }
        }
        true
    }

    /// Balancing phase: the even split. Each serving instance gets the per-replica
    /// share `total_offered_load / serving_nodes` (so every serving logical node
    /// carries the same load and the replica-weighted shares sum to the offered load);
    /// every other instance gets 0. `serving_nodes` is the replica-weighted size of
    /// the serving mask, as [`Self::plan_serving_set`] returned it. Traced runs record
    /// each routed share at Full level.
    fn balance_load(&mut self, total_offered_load: f64, serving_nodes: usize) {
        let share = if total_offered_load > 0.0 && serving_nodes > 0 {
            total_offered_load / serving_nodes as f64
        } else {
            0.0
        };
        self.assigned_scratch.clear();
        self.assigned_scratch.extend(
            self.serving
                .iter()
                .map(|&serving| if serving { share } else { 0.0 }),
        );
        if self.fleet_obs.enabled() && share > 0.0 {
            let interval = self.intervals as u32;
            for (i, &serving) in self.serving.iter().enumerate() {
                if serving {
                    self.fleet_obs.emit(
                        interval,
                        self.time_s,
                        Event::BalancerDispatch {
                            node: i as u32,
                            assigned_load: share,
                        },
                    );
                }
            }
        }
    }

    /// Node step phase: advances every instance at its assigned load, in instance
    /// order, and returns the interval's replica-weighted job completions. Each node
    /// keeps its observation and recycles its buffers into its next step.
    fn step_nodes(&mut self) -> usize {
        self.nodes
            .iter_mut()
            .zip(&self.assigned_scratch)
            .map(|(node, &load)| node.step(load))
            .sum()
    }

    /// Closes the interval in one pass over the nodes: records the job completions,
    /// meters each rack's draw over the interval just stepped (the next admission
    /// phase compares it against the rack budget), and counts the busy and
    /// QoS-violating logical nodes, the reclaimed cores and the fleet power. Then
    /// advances the clock, emits the interval rollup on traced runs, and folds the
    /// interval into the fleet books and trace series (pushed at the interval's end
    /// time).
    fn close_interval(
        &mut self,
        completions: usize,
        total_offered_load: f64,
        active_nodes: usize,
        jobs_placed: usize,
    ) {
        let dt = self.scenario.decision_interval_s();
        self.scheduler.record_completions(completions);
        let racked = !self.scenario.topology.is_flat();
        if racked {
            self.rack_power_w.fill(0.0);
        }
        let mut busy = 0usize;
        let mut violating = 0usize;
        let mut total_extra = 0u32;
        let mut fleet_power_w = 0.0f64;
        for (node, &rack) in self.nodes.iter().zip(&self.instance_racks) {
            // Every node has just stepped, so each holds this interval's observation.
            let Some(obs) = node.observation() else {
                continue;
            };
            let replicas = node.replicas();
            if racked {
                self.rack_power_w[rack] += obs.energy_j * replicas as f64 / dt;
            }
            if obs.arrivals > 0 {
                busy += replicas;
                if obs.qos_violated() {
                    violating += replicas;
                }
            }
            total_extra += node.extra_service_cores() * replicas as u32;
            fleet_power_w += obs.power_w * replicas as f64;
        }
        self.time_s += dt;
        self.fleet_obs.emit(
            self.intervals as u32,
            self.time_s,
            Event::IntervalSummary {
                active_nodes: active_nodes as u32,
                total_load: total_offered_load,
                busy: busy as u32,
                violating: violating as u32,
                jobs_placed: jobs_placed as u32,
            },
        );
        self.intervals += 1;
        let books = &mut self.books;
        books.total_load_sum += total_offered_load;
        books.max_total_extra = books.max_total_extra.max(total_extra);
        books.active_sum += active_nodes;
        books.min_active = books.min_active.min(active_nodes);
        books.load_series.push(self.time_s, total_offered_load);
        books.cores_series.push(self.time_s, total_extra as f64);
        books.violating_series.push(self.time_s, violating as f64);
        books.power_series.push(self.time_s, fleet_power_w);
        books.active_series.push(self.time_s, active_nodes as f64);
    }

    /// Captures the full mutable state of the run between intervals: every node's
    /// simulator/monitor/policy/actuator and per-node books, the scheduler queue, the
    /// autoscaler, fault and rack-sampling state if configured, and the fleet books.
    /// Serializable; see [`ClusterRunCheckpoint`].
    pub fn checkpoint(&self) -> ClusterRunCheckpoint {
        ClusterRunCheckpoint {
            version: CLUSTER_CHECKPOINT_VERSION,
            scenario_seed: self.scenario.seed,
            nodes: self.scenario.nodes,
            instances: self.nodes.len(),
            time_s: self.time_s,
            intervals: self.intervals,
            scheduler_queue: self.scheduler.queue_snapshot(),
            scheduler_stats: self.scheduler.stats(),
            autoscaler: self.autoscaler.as_ref().map(|a| a.state().clone()),
            faults: self.faults.as_ref().map(|f| f.progress.clone()),
            rack_rng: self.rack_rng.clone(),
            rack_power_w: (!self.scenario.topology.is_flat()).then(|| self.rack_power_w.clone()),
            node_checkpoints: self.nodes.iter().map(ClusterNode::checkpoint).collect(),
            books: self.books.clone(),
        }
    }

    /// Restores a checkpoint taken by [`Self::checkpoint`] into this run, which must
    /// have been built from the same scenario (same seed, fleet shape, approximation,
    /// and fault profile — the schedule and instance plan are recompiled from the
    /// scenario, only mutable state travels in the checkpoint).
    ///
    /// # Errors
    ///
    /// Rejects checkpoints from a different format version, a different fleet shape,
    /// or with component states that fail their own validation; the run may be left
    /// partially restored on error and must not be advanced further.
    pub fn restore(&mut self, checkpoint: &ClusterRunCheckpoint) -> Result<(), String> {
        if checkpoint.version != CLUSTER_CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint format version {} (supported: {CLUSTER_CHECKPOINT_VERSION})",
                checkpoint.version
            ));
        }
        if checkpoint.scenario_seed != self.scenario.seed {
            return Err(format!(
                "checkpoint was taken at seed {}, scenario has seed {}",
                checkpoint.scenario_seed, self.scenario.seed
            ));
        }
        if checkpoint.nodes != self.scenario.nodes
            || checkpoint.instances != self.nodes.len()
            || checkpoint.node_checkpoints.len() != self.nodes.len()
        {
            return Err(format!(
                "checkpoint covers {} nodes / {} instances / {} node checkpoints, \
                 fleet has {} nodes / {} instances",
                checkpoint.nodes,
                checkpoint.instances,
                checkpoint.node_checkpoints.len(),
                self.scenario.nodes,
                self.nodes.len()
            ));
        }
        match (&mut self.faults, &checkpoint.faults) {
            (Some(state), Some(snapshot)) => state
                .restore(snapshot)
                .map_err(|e| format!("fault state: {e}"))?,
            (None, None) => {}
            _ => {
                return Err(
                    "checkpoint fault state does not match the scenario's fault profile".into(),
                )
            }
        }
        match (&mut self.autoscaler, &checkpoint.autoscaler) {
            (Some(scaler), Some(snapshot)) => scaler
                .restore(snapshot)
                .map_err(|e| format!("autoscaler: {e}"))?,
            (None, None) => {}
            _ => {
                return Err(
                    "checkpoint autoscaler state does not match the scenario's config".into(),
                )
            }
        }
        match (&mut self.rack_rng, &checkpoint.rack_rng) {
            (Some(rng), Some(saved)) => rng.clone_from(saved),
            (None, None) => {}
            _ => {
                return Err(
                    "checkpoint rack-sampling state does not match the scenario's topology".into(),
                )
            }
        }
        match (self.scenario.topology.is_flat(), &checkpoint.rack_power_w) {
            (false, Some(power)) => {
                if power.len() != self.rack_power_w.len() {
                    return Err(format!(
                        "checkpoint covers {} racks, topology has {}",
                        power.len(),
                        self.rack_power_w.len()
                    ));
                }
                self.rack_power_w.clone_from(power);
            }
            (true, None) => {}
            _ => {
                return Err(
                    "checkpoint rack-power state does not match the scenario's topology".into(),
                )
            }
        }
        self.scheduler = BatchScheduler::restore(
            self.scenario.scheduler,
            checkpoint.scheduler_queue.clone(),
            checkpoint.scheduler_stats,
        );
        for (node, node_checkpoint) in self.nodes.iter_mut().zip(&checkpoint.node_checkpoints) {
            node.restore(node_checkpoint)?;
        }
        for (series, fresh) in checkpoint
            .books
            .series()
            .into_iter()
            .zip(self.books.series())
        {
            if series.name() != fresh.name() || series.len() != checkpoint.intervals {
                return Err(format!(
                    "checkpoint series `{}` holds {} points after {} intervals; \
                     expected `{}` with one point per interval",
                    series.name(),
                    series.len(),
                    checkpoint.intervals,
                    fresh.name()
                ));
            }
        }
        self.time_s = checkpoint.time_s;
        self.intervals = checkpoint.intervals;
        self.books.clone_from(&checkpoint.books);
        Ok(())
    }

    /// Runs whatever remains of the horizon and assembles the final outcome plus the
    /// merged decision-event stream (empty on an untraced run).
    pub fn finish(mut self) -> (ClusterOutcome, EventLog) {
        while self.step() {}
        let log = self.take_event_log();
        let faults = self.fault_stats();
        let scheduler_stats = self.scheduler.stats();
        let scenario = &self.scenario;
        let max_intervals = self.max_intervals;

        // Fleet quantiles come from the exact merge of the per-node histograms.
        let mut fleet = LatencyHistogram::new();
        for node in &self.nodes {
            fleet.merge(&node.books().hist);
        }
        let qos_target_s =
            pliant_workloads::service::ServiceProfile::paper_default(scenario.service).qos_target_s;

        let node_outcomes: Vec<NodeOutcome> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let books = node.books();
                NodeOutcome {
                    node: i,
                    replicas: node.replicas(),
                    busy_intervals: books.busy_intervals,
                    idle_intervals: books.idle_intervals,
                    p99_s: books.hist.p99() / 1e6,
                    qos_violation_fraction: books.qos_violations as f64
                        / books.busy_intervals.max(1) as f64,
                    mean_assigned_load: books.assigned_sum / max_intervals.max(1) as f64,
                    max_extra_service_cores: books.max_extra,
                    jobs_completed: books.jobs_completed,
                    // Replica-weighted mean: a job completed at weight `w` stood for `w`
                    // logical completions, and the weights sum to `jobs_completed`.
                    mean_completed_inaccuracy_pct: if books.jobs_completed == 0 {
                        0.0
                    } else {
                        books.completed_inaccuracy_weighted_sum / books.jobs_completed as f64
                    },
                    energy_j: books.energy_j,
                }
            })
            .collect();

        let total_busy: usize = self
            .nodes
            .iter()
            .map(|node| node.books().busy_intervals)
            .sum();
        let total_violations: usize = self
            .nodes
            .iter()
            .map(|node| node.books().qos_violations)
            .sum();
        let fleet_p99_s = fleet.p99() / 1e6;
        // Fleet energy is the exact sum of the per-node accounting, mirroring how the
        // fleet p99 is the exact merge of the per-node histograms.
        let fleet_energy_j: f64 = node_outcomes.iter().map(|node| node.energy_j).sum();
        let simulated_s = max_intervals as f64 * scenario.decision_interval_s();
        let completed = scheduler_stats.completed;

        let mut trace = TraceBundle::new();
        for series in self.books.series() {
            trace.insert(series.clone());
        }

        let outcome = ClusterOutcome {
            service: scenario.service,
            policy: scenario.policy,
            scheduler: scenario.scheduler,
            nodes: self.scenario.nodes,
            approximation: scenario.approximation,
            simulated_instances: self.nodes.len(),
            intervals: self.intervals,
            warmup_intervals: scenario.warmup_intervals,
            qos_target_s,
            mean_total_offered_load: self.books.total_load_sum / max_intervals.max(1) as f64,
            fleet_p99_s,
            fleet_mean_latency_s: fleet.mean() / 1e6,
            fleet_samples: fleet.count(),
            fleet_tail_latency_ratio: fleet_p99_s / qos_target_s,
            fleet_qos_violation_fraction: total_violations as f64 / total_busy.max(1) as f64,
            max_total_extra_cores: self.books.max_total_extra,
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
            mean_active_nodes: self.books.active_sum as f64 / max_intervals.max(1) as f64,
            min_active_nodes: self.books.min_active,
            faults,
            scheduler_stats,
            node_outcomes,
            obs: log.summary(),
            trace,
        };
        (outcome, log)
    }
}

/// Format version written into [`ClusterRunCheckpoint::version`]; bump on any
/// breaking change to the snapshot layout. Version 7 writes each node's latency
/// histogram over its occupied buckets only (see [`LatencyHistogram`]), where
/// versions up to 6 wrote all 1,280; such a document fails to parse.
pub const CLUSTER_CHECKPOINT_VERSION: u32 = 7;

/// A serializable snapshot of the full mutable state of a [`ClusterRun`] between
/// intervals; see [`ClusterRun::checkpoint`]. Everything derivable from the scenario
/// (the fault schedule, the instance plan, node profiles) is recompiled on restore —
/// the checkpoint carries only mutable state plus shape identifiers used to reject
/// mismatched restores. Restoring into a run freshly built from the same scenario and
/// finishing it produces output byte-identical to an uninterrupted run (untraced runs;
/// see [`ClusterRun::with_obs`] for the tracing caveat).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterRunCheckpoint {
    /// Snapshot format version ([`CLUSTER_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Seed of the scenario the checkpoint was taken from.
    pub scenario_seed: u64,
    /// Logical fleet size at capture.
    pub nodes: usize,
    /// Simulated instance count at capture.
    pub instances: usize,
    /// Experiment time at capture, in seconds.
    pub time_s: f64,
    /// Decision intervals advanced at capture.
    pub intervals: usize,
    /// Queued batch jobs, in submission order.
    pub scheduler_queue: Vec<AppId>,
    /// Scheduler counters at capture.
    pub scheduler_stats: SchedulerStats,
    /// Autoscaler state, when the scenario configures one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub autoscaler: Option<AutoscalerState>,
    /// Fault-injection state, when the scenario carries a non-empty fault profile.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultProgress>,
    /// Rack-placement sampling stream, when the scenario has a racked topology; absent
    /// on flat fleets.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rack_rng: Option<SmallRng>,
    /// Per-rack measured power draw over the interval before capture, in watts
    /// (racked topologies only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rack_power_w: Option<Vec<f64>>,
    /// Per-instance node state and books, in instance order.
    pub node_checkpoints: Vec<NodeCheckpoint>,
    /// The fleet books: run aggregates and the five partial outcome trace series.
    pub books: FleetBooks,
}

impl std::fmt::Debug for ClusterRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRun")
            .field("nodes", &self.nodes.len())
            .field("time_s", &self.time_s)
            .field("pending_jobs", &self.scheduler.pending())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_approx::catalog::AppId;
    use pliant_core::policy::PolicyKind;
    use pliant_core::scenario::Horizon;
    use pliant_workloads::service::ServiceId;

    fn small_scenario() -> ClusterScenario {
        ClusterScenario {
            nodes: 3,
            jobs: vec![AppId::Canneal, AppId::Snp, AppId::Bayesian, AppId::KMeans],
            avg_node_load: 0.6,
            horizon: Horizon::Intervals(20),
            seed: 11,
            ..ClusterScenario::paper_default(ServiceId::Memcached)
        }
    }

    /// Runs the balancing phase of `run` over the serving `mask`, as `step` does after
    /// planning that serving set, and returns the per-replica shares it assigned.
    fn split(run: &mut ClusterRun, total: f64, mask: &[bool]) -> Vec<f64> {
        run.serving = mask.to_vec();
        let serving_nodes = mask
            .iter()
            .zip(&run.replica_weights)
            .filter(|(serving, _)| **serving)
            .map(|(_, &weight)| weight)
            .sum();
        run.balance_load(total, serving_nodes);
        run.assigned_scratch.clone()
    }

    #[test]
    fn even_split_conserves_replica_weighted_load() {
        // Three replica groups of 5, 3 and 2 logical nodes, one representative each.
        let jobs = [
            [AppId::Canneal; 5].as_slice(),
            &[AppId::Snp; 3],
            &[AppId::Bayesian; 2],
        ];
        let scenario = ClusterScenario {
            nodes: 10,
            jobs: jobs.concat(),
            approximation: crate::scenario::FleetApproximation::Clustered {
                representatives_per_group: 1,
            },
            ..ClusterScenario::paper_default(ServiceId::Memcached)
        };
        let mut run = ClusterRun::new(&scenario, &Engine::new());
        let weights = run.replica_weights.clone();
        assert_eq!(weights, [5, 3, 2]);
        let logical = |out: &[f64]| -> f64 {
            out.iter()
                .zip(&weights)
                .map(|(load, &w)| load * w as f64)
                .sum()
        };
        // Every serving logical node carries the same load, whatever its block size.
        let out = split(&mut run, 6.0, &[true; 3]);
        assert_eq!(out, [0.6; 3]);
        assert!((logical(&out) - 6.0).abs() < 1e-12);
        // Draining an instance starves its whole replica block; the other seven
        // logical nodes absorb its load.
        let out = split(&mut run, 6.0, &[true, false, true]);
        assert_eq!(out, [6.0 / 7.0, 0.0, 6.0 / 7.0]);
        assert!((logical(&out) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn even_split_starves_non_serving_instances() {
        let scenario = ClusterScenario {
            nodes: 4,
            jobs: vec![AppId::Canneal; 4],
            ..small_scenario()
        };
        let mut run = ClusterRun::new(&scenario, &Engine::new());
        let out = split(&mut run, 1.5, &[true, false, true, false]);
        assert_eq!(out, [0.75, 0.0, 0.75, 0.0]);
        // No serving instance, or no load: every instance gets exactly 0.
        assert_eq!(split(&mut run, 1.5, &[false; 4]), [0.0; 4]);
        assert_eq!(split(&mut run, 0.0, &[true; 4]), [0.0; 4]);
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
        // The even split conserves load: per-node means sum to the fleet average.
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
        let scenario = ClusterScenario {
            nodes: 2,
            jobs: vec![
                AppId::Raytrace,
                AppId::Snp,
                AppId::KMeans,
                AppId::Bayesian,
                AppId::Snp,
                AppId::KMeans,
            ],
            avg_node_load: 0.5,
            horizon: Horizon::Intervals(200),
            seed: 3,
            ..ClusterScenario::paper_default(ServiceId::MongoDb)
        };
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
        let scenario = ClusterScenario {
            nodes: 2,
            jobs: vec![AppId::Canneal, AppId::Snp],
            policy: PolicyKind::Precise,
            avg_node_load: 0.5,
            horizon: Horizon::Intervals(15),
            ..ClusterScenario::paper_default(ServiceId::Nginx)
        };
        let outcome = Engine::new().run_cluster(&scenario);
        assert_eq!(outcome.max_total_extra_cores, 0);
        assert_eq!(outcome.mean_completed_inaccuracy_pct(), 0.0);
    }
}
