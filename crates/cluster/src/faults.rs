//! Deterministic fault injection: node crashes, stragglers, and rack power outages.
//!
//! A [`FaultProfile`] is the failure-side sibling of a
//! [`LoadProfile`](pliant_workloads::profile::LoadProfile): it describes *what goes wrong*
//! over a run — stochastic per-node crash and degradation hazards, explicitly scheduled
//! faults, and correlated whole-rack outages — without saying anything about how the
//! fleet reacts. The profile is compiled once, before the run starts, into a flat
//! schedule of fault events over *logical* nodes, drawn from a dedicated RNG stream
//! derived from the scenario seed. Compilation is independent of everything the
//! simulation later does, which gives three properties the rest of the crate relies on:
//!
//! 1. **Determinism** — the same scenario (seed included) always experiences the same
//!    fault trace, on any thread count, traced or untraced.
//! 2. **Checkpointability** — mid-run fault state is just a cursor into the schedule
//!    plus per-node health, so snapshots stay small and resume is exact.
//! 3. **Fleet-approximation compatibility** — because the schedule names logical nodes
//!    before instances are planned, the clustered approximation can carve the faulted
//!    logical nodes out of their replica groups and simulate them exactly
//!    ([`NodePopulation::plan_instances_isolating`](crate::population::NodePopulation::plan_instances_isolating)).
//!
//! When the run is built, each compiled event is resolved once to the simulated
//! instance that carries its logical node, so the run keeps no table over logical
//! nodes. Consumption is a zero-allocation cursor walk inside
//! [`ClusterRun`](crate::engine::ClusterRun): each interval the run first recovers
//! nodes whose outage expired, then applies every event scheduled for the interval.
//! Events targeting a node that is not healthy are dropped (a crash cannot crash an
//! already-down node), so overlapping stochastic and scheduled faults compose safely.

use serde::{Deserialize, Serialize};

use pliant_telemetry::rng::{derive_seed, seeded_rng};
use rand::Rng;

use crate::population::InstancePlan;
use crate::topology::TopologyConfig;

/// RNG stream label for the stochastic fault schedule (derived from the scenario seed;
/// disjoint from every node/monitor/rack-sampling stream, so enabling faults never perturbs
/// the traffic or batch randomness of the run).
const FAULT_STREAM: u64 = 0xFA17_0001;

/// What a fault does to the node it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node crashes: it stops serving traffic, its unfinished batch jobs are lost
    /// (and re-queued by the scheduler), and it consumes only parked power until it
    /// recovers.
    Crash,
    /// The node keeps serving but every request is slowed by `1 / factor` — a degraded
    /// frequency straggler (e.g. thermal throttling or a failing DIMM).
    Degrade {
        /// Remaining effective speed as a fraction in `(0, 1)` (e.g. `0.6` = the node
        /// runs at 60% of nominal frequency).
        factor: f64,
    },
}

/// One explicitly scheduled fault on a specific logical node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Logical node the fault strikes.
    pub node: usize,
    /// Decision interval at which the fault begins (0-based).
    pub at_interval: u64,
    /// How many decision intervals the fault lasts (≥ 1).
    pub duration_intervals: u64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A correlated outage taking down every node of one topology rack at once — a power-
/// domain failure (the rack's power feed or busbar trips). Racks come from the
/// scenario's [`TopologyConfig`]; on a flat topology the single implicit rack covers
/// the whole fleet, so a rack outage there is a full-fleet blackout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackOutage {
    /// Index of the rack that loses power, in topology order (its members are
    /// [`TopologyConfig::rack_members`]).
    pub rack: usize,
    /// Decision interval at which the outage begins (0-based).
    pub at_interval: u64,
    /// How many decision intervals the outage lasts (≥ 1).
    pub duration_intervals: u64,
}

/// The failure-side input of a cluster scenario; see the module docs.
///
/// All axes compose: stochastic hazards, scheduled faults, and rack outages are merged
/// into one schedule. The default profile is empty (no faults), and an empty profile is
/// guaranteed not to perturb the run in any way — the simulator takes the exact same
/// code paths as a scenario with no profile at all.
///
/// Deserialization runs [`FaultProfile::validate_shape`], so no profile enters through
/// an archive without passing it; the fleet-dependent range checks run later, in
/// `ClusterScenario::validate`, where the fleet size and topology are known. Missing
/// fields take their defaults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(validate = "FaultProfile::validate_shape")]
pub struct FaultProfile {
    /// Per-node, per-interval crash probability (0 disables stochastic crashes).
    #[serde(default)]
    pub crash_probability: f64,
    /// How many decision intervals a stochastically crashed node stays down before
    /// recovering (must be ≥ 1 when `crash_probability > 0`).
    #[serde(default)]
    pub outage_intervals: u64,
    /// Per-node, per-interval degradation probability (0 disables stochastic
    /// stragglers).
    #[serde(default)]
    pub degrade_probability: f64,
    /// Remaining effective speed of a stochastically degraded node, in `(0, 1)`.
    #[serde(default)]
    pub degrade_factor: f64,
    /// How many decision intervals a stochastic degradation lasts (must be ≥ 1 when
    /// `degrade_probability > 0`).
    #[serde(default)]
    pub degrade_intervals: u64,
    /// Explicitly scheduled faults, on top of the stochastic hazards.
    #[serde(default)]
    pub scheduled: Vec<ScheduledFault>,
    /// Correlated rack power-domain outages, addressed by topology rack.
    #[serde(default)]
    pub rack_outages: Vec<RackOutage>,
}

impl FaultProfile {
    /// An empty profile (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the profile injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crash_probability <= 0.0
            && self.degrade_probability <= 0.0
            && self.scheduled.is_empty()
            && self.rack_outages.is_empty()
    }

    /// The fleet-independent half of validation: probabilities in range, every enabled
    /// hazard carries a duration, every factor in `(0, 1)`. Enforced at the
    /// deserialization boundary, where the fleet shape is not yet known; node and rack
    /// ranges are checked by [`Self::validate`].
    pub fn validate_shape(&self) -> Result<(), FaultProfileError> {
        if !(0.0..=1.0).contains(&self.crash_probability) {
            return Err(FaultProfileError::InvalidCrashProbability);
        }
        if !(0.0..=1.0).contains(&self.degrade_probability) {
            return Err(FaultProfileError::InvalidDegradeProbability);
        }
        if self.crash_probability > 0.0 && self.outage_intervals == 0 {
            return Err(FaultProfileError::MissingOutageDuration);
        }
        if self.degrade_probability > 0.0 {
            if self.degrade_intervals == 0 {
                return Err(FaultProfileError::MissingDegradeDuration);
            }
            if !(self.degrade_factor > 0.0 && self.degrade_factor < 1.0) {
                return Err(FaultProfileError::InvalidDegradeFactor);
            }
        }
        for (index, fault) in self.scheduled.iter().enumerate() {
            if fault.duration_intervals == 0 {
                return Err(FaultProfileError::ScheduledZeroDuration { index });
            }
            if let FaultKind::Degrade { factor } = fault.kind {
                if !(factor > 0.0 && factor < 1.0) {
                    return Err(FaultProfileError::ScheduledInvalidFactor { index });
                }
            }
        }
        for (index, outage) in self.rack_outages.iter().enumerate() {
            if outage.duration_intervals == 0 {
                return Err(FaultProfileError::RackZeroDuration { index });
            }
        }
        Ok(())
    }

    /// Validates the profile against a fleet of `nodes` logical nodes in `racks`
    /// topology racks.
    pub fn validate(&self, nodes: usize, racks: usize) -> Result<(), FaultProfileError> {
        self.validate_shape()?;
        for (index, fault) in self.scheduled.iter().enumerate() {
            if fault.node >= nodes {
                return Err(FaultProfileError::ScheduledNodeOutOfRange {
                    index,
                    node: fault.node,
                    nodes,
                });
            }
        }
        for (index, outage) in self.rack_outages.iter().enumerate() {
            if outage.rack >= racks {
                return Err(FaultProfileError::RackOutOfRange {
                    index,
                    rack: outage.rack,
                    racks,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`FaultProfile`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfileError {
    /// `crash_probability` is outside `[0, 1]`.
    InvalidCrashProbability,
    /// A stochastic crash hazard is enabled but `outage_intervals` is zero.
    MissingOutageDuration,
    /// `degrade_probability` is outside `[0, 1]`.
    InvalidDegradeProbability,
    /// A stochastic degradation hazard is enabled but `degrade_intervals` is zero.
    MissingDegradeDuration,
    /// A stochastic degradation hazard is enabled but `degrade_factor` is not in
    /// `(0, 1)`.
    InvalidDegradeFactor,
    /// A scheduled fault names a node outside the fleet.
    ScheduledNodeOutOfRange {
        /// Position in [`FaultProfile::scheduled`].
        index: usize,
        /// The out-of-range logical node.
        node: usize,
        /// The fleet size.
        nodes: usize,
    },
    /// A scheduled fault lasts zero intervals.
    ScheduledZeroDuration {
        /// Position in [`FaultProfile::scheduled`].
        index: usize,
    },
    /// A scheduled degradation's factor is not in `(0, 1)`.
    ScheduledInvalidFactor {
        /// Position in [`FaultProfile::scheduled`].
        index: usize,
    },
    /// A rack outage names a rack outside the topology.
    RackOutOfRange {
        /// Position in [`FaultProfile::rack_outages`].
        index: usize,
        /// The out-of-range rack.
        rack: usize,
        /// Number of topology racks.
        racks: usize,
    },
    /// A rack outage lasts zero intervals.
    RackZeroDuration {
        /// Position in [`FaultProfile::rack_outages`].
        index: usize,
    },
}

impl std::fmt::Display for FaultProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultProfileError::InvalidCrashProbability => {
                f.write_str("crash_probability must be in [0, 1]")
            }
            FaultProfileError::MissingOutageDuration => {
                f.write_str("outage_intervals must be >= 1 when crash_probability > 0")
            }
            FaultProfileError::InvalidDegradeProbability => {
                f.write_str("degrade_probability must be in [0, 1]")
            }
            FaultProfileError::MissingDegradeDuration => {
                f.write_str("degrade_intervals must be >= 1 when degrade_probability > 0")
            }
            FaultProfileError::InvalidDegradeFactor => {
                f.write_str("degrade_factor must be in (0, 1)")
            }
            FaultProfileError::ScheduledNodeOutOfRange { index, node, nodes } => write!(
                f,
                "scheduled fault {index} targets node {node} but the fleet has {nodes} nodes"
            ),
            FaultProfileError::ScheduledZeroDuration { index } => {
                write!(f, "scheduled fault {index} must last at least one interval")
            }
            FaultProfileError::ScheduledInvalidFactor { index } => write!(
                f,
                "scheduled fault {index} has a degrade factor outside (0, 1)"
            ),
            FaultProfileError::RackOutOfRange { index, rack, racks } => write!(
                f,
                "rack outage {index} targets rack {rack} but the topology has {racks} racks"
            ),
            FaultProfileError::RackZeroDuration { index } => {
                write!(f, "rack outage {index} must last at least one interval")
            }
        }
    }
}

impl std::error::Error for FaultProfileError {}

/// One compiled fault occurrence, over logical nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultEvent {
    /// Decision interval at which the fault begins.
    pub interval: u64,
    /// Logical node it strikes.
    pub node: usize,
    /// What it does.
    pub kind: FaultKind,
    /// How many intervals it lasts.
    pub duration: u64,
}

/// Compiles a profile into the run's fault schedule: stochastic draws (from a dedicated
/// seed-derived stream, interval-major then node-minor, one draw per enabled hazard per
/// node-interval regardless of hits — so the schedule is a pure function of profile,
/// seed, fleet size, and horizon), merged with the scheduled faults and the expanded
/// rack outages, sorted by `(interval, node)`. Rack outages expand over the topology's
/// rack blocks, so every downstream consumer — stats, availability, the isolating
/// instance planner — sees plain per-node crashes and composes for free.
pub(crate) fn compile_schedule(
    profile: &FaultProfile,
    seed: u64,
    nodes: usize,
    topology: &TopologyConfig,
    max_intervals: usize,
) -> Vec<FaultEvent> {
    let mut schedule = Vec::new();
    if profile.crash_probability > 0.0 || profile.degrade_probability > 0.0 {
        let mut rng = seeded_rng(derive_seed(seed, FAULT_STREAM));
        for interval in 0..max_intervals as u64 {
            for node in 0..nodes {
                if profile.crash_probability > 0.0 && rng.gen_bool(profile.crash_probability) {
                    schedule.push(FaultEvent {
                        interval,
                        node,
                        kind: FaultKind::Crash,
                        duration: profile.outage_intervals,
                    });
                }
                if profile.degrade_probability > 0.0 && rng.gen_bool(profile.degrade_probability) {
                    schedule.push(FaultEvent {
                        interval,
                        node,
                        kind: FaultKind::Degrade {
                            factor: profile.degrade_factor,
                        },
                        duration: profile.degrade_intervals,
                    });
                }
            }
        }
    }
    for fault in &profile.scheduled {
        schedule.push(FaultEvent {
            interval: fault.at_interval,
            node: fault.node,
            kind: fault.kind,
            duration: fault.duration_intervals,
        });
    }
    for outage in &profile.rack_outages {
        for member in topology.rack_members(outage.rack, nodes) {
            schedule.push(FaultEvent {
                interval: outage.at_interval,
                node: member,
                kind: FaultKind::Crash,
                duration: outage.duration_intervals,
            });
        }
    }
    schedule.sort_by_key(|e| (e.interval, e.node));
    schedule
}

/// The logical nodes the schedule ever touches, ascending and without repeats (the
/// nodes the clustered approximation must simulate exactly rather than fold into a
/// replica group).
pub(crate) fn faulted_logical_nodes(schedule: &[FaultEvent]) -> Vec<usize> {
    let mut faulted: Vec<usize> = schedule.iter().map(|event| event.node).collect();
    faulted.sort_unstable();
    faulted.dedup();
    faulted
}

/// Health of one simulated node instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// Serving normally.
    Up,
    /// Crashed; recovers at the start of interval `until`.
    Down {
        /// First interval at which the node is back up.
        until: u64,
    },
    /// Serving at reduced speed; back to nominal at the start of interval `until`.
    Degraded {
        /// First interval at which the node is back to nominal speed.
        until: u64,
        /// Remaining effective speed while degraded, in `(0, 1)`.
        factor: f64,
    },
}

impl NodeHealth {
    /// Whether the node is serving traffic (up or degraded, but not down).
    pub fn is_serving(&self) -> bool {
        !matches!(self, NodeHealth::Down { .. })
    }
}

/// Fault-injection outcome counters, reported in
/// [`ClusterOutcome::faults`](crate::outcome::ClusterOutcome::faults) when the scenario
/// carries a fault profile.
///
/// Node-interval counters are replica-weighted: a crash on an instance standing for `w`
/// logical nodes counts `w` node-intervals per interval of outage, so availability is
/// comparable between exact and clustered runs of the same scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Crash events applied (a rack outage counts one per member).
    pub crashes: u64,
    /// Degradation events applied.
    pub degradations: u64,
    /// Batch-job placements lost to crashes and handed back to the queue (counted in
    /// logical jobs, i.e. replica-weighted).
    pub jobs_requeued: u64,
    /// Logical node-intervals spent down.
    pub down_node_intervals: u64,
    /// Logical node-intervals spent degraded.
    pub degraded_node_intervals: u64,
    /// `1 - down_node_intervals / (nodes * intervals)` — the fraction of logical
    /// node-intervals that were in service.
    pub availability: f64,
}

/// Live fault-injection state inside a running [`ClusterRun`](crate::engine::ClusterRun).
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Compiled schedule, sorted by `(interval, node)`, each event paired with the
    /// simulated instance that carries its logical node exactly (weight 1), if any.
    pub schedule: Vec<(FaultEvent, Option<usize>)>,
    /// What changes as the run advances, and what a checkpoint carries.
    pub progress: FaultProgress,
}

/// The mutable part of a run's fault state, kept as one value so a checkpoint is a
/// clone of it (the schedule and the instances it resolves to are pure functions of
/// the scenario and are recompiled on restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProgress {
    /// Next unconsumed entry of the schedule.
    pub cursor: usize,
    /// Per-instance health.
    pub health: Vec<NodeHealth>,
    /// Crash events applied so far.
    pub crashes: u64,
    /// Degradation events applied so far.
    pub degradations: u64,
    /// Jobs re-queued off crashed nodes so far (replica-weighted).
    pub jobs_requeued: u64,
    /// Replica-weighted node-intervals spent down so far.
    pub down_node_intervals: u64,
    /// Replica-weighted node-intervals spent degraded so far.
    pub degraded_node_intervals: u64,
}

impl FaultState {
    /// Builds the initial state for a fleet materialized as `plans`, resolving each
    /// event to the weight-1 instance seeded by its logical node (in exact mode every
    /// node has one; under the clustered approximation the isolating planner
    /// guarantees every faulted node got one). The schedule keeps its length and order,
    /// so checkpoint cursors index it as before.
    pub fn new(schedule: Vec<FaultEvent>, plans: &[InstancePlan]) -> Self {
        let mut exact: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .filter(|(_, plan)| plan.replicas == 1)
            .map(|(index, plan)| (plan.seed_member, index))
            .collect();
        exact.sort_unstable();
        let schedule = schedule
            .into_iter()
            .map(|event| {
                let instance = exact
                    .binary_search_by_key(&event.node, |&(node, _)| node)
                    .ok()
                    .map(|at| exact[at].1);
                (event, instance)
            })
            .collect();
        FaultState {
            schedule,
            progress: FaultProgress {
                cursor: 0,
                health: vec![NodeHealth::Up; plans.len()],
                crashes: 0,
                degradations: 0,
                jobs_requeued: 0,
                down_node_intervals: 0,
                degraded_node_intervals: 0,
            },
        }
    }

    /// The outcome counters, with availability computed over `nodes * intervals`
    /// logical node-intervals.
    pub fn stats(&self, logical_nodes: usize, intervals: usize) -> FaultStats {
        let p = &self.progress;
        let denom = (logical_nodes * intervals) as f64;
        FaultStats {
            crashes: p.crashes,
            degradations: p.degradations,
            jobs_requeued: p.jobs_requeued,
            down_node_intervals: p.down_node_intervals,
            degraded_node_intervals: p.degraded_node_intervals,
            availability: if denom > 0.0 {
                1.0 - p.down_node_intervals as f64 / denom
            } else {
                1.0
            },
        }
    }

    /// Restores the mutable part of the state from a checkpoint.
    pub fn restore(&mut self, progress: &FaultProgress) -> Result<(), String> {
        if progress.health.len() != self.progress.health.len() {
            return Err(format!(
                "fault snapshot covers {} instances, fleet has {}",
                progress.health.len(),
                self.progress.health.len()
            ));
        }
        if progress.cursor > self.schedule.len() {
            return Err(format!(
                "fault snapshot cursor {} exceeds schedule length {}",
                progress.cursor,
                self.schedule.len()
            ));
        }
        self.progress.clone_from(progress);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::NodePopulation;
    use crate::scenario::ClusterScenario;
    use pliant_approx::catalog::AppId;
    use pliant_workloads::service::ServiceId;

    fn scenario(nodes: usize) -> ClusterScenario {
        let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace];
        ClusterScenario {
            nodes,
            jobs: (0..nodes).map(|i| mix[i % 3]).collect(),
            horizon: pliant_core::scenario::Horizon::Intervals(40),
            ..ClusterScenario::paper_default(ServiceId::Memcached)
        }
    }

    #[test]
    fn empty_profile_compiles_to_an_empty_schedule() {
        let profile = FaultProfile::new();
        assert!(profile.is_empty());
        let schedule = compile_schedule(&profile, 42, 6, &TopologyConfig::Flat, 40);
        assert!(schedule.is_empty());
    }

    #[test]
    fn stochastic_schedule_is_a_pure_function_of_seed_and_shape() {
        let profile = FaultProfile {
            crash_probability: 0.02,
            outage_intervals: 5,
            degrade_probability: 0.03,
            degrade_factor: 0.6,
            degrade_intervals: 4,
            ..FaultProfile::new()
        };
        let a = compile_schedule(&profile, 42, 6, &TopologyConfig::Flat, 200);
        let b = compile_schedule(&profile, 42, 6, &TopologyConfig::Flat, 200);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        assert!(
            !a.is_empty(),
            "200x6 node-intervals at 2%+3% must draw hits"
        );
        let c = compile_schedule(&profile, 43, 6, &TopologyConfig::Flat, 200);
        assert_ne!(a, c, "different seeds must draw different schedules");
        // Sorted by (interval, node): a cursor walk consumes it in one pass.
        assert!(a
            .windows(2)
            .all(|w| (w[0].interval, w[0].node) <= (w[1].interval, w[1].node)));
    }

    #[test]
    fn validate_rejects_malformed_profiles() {
        let nodes = 4;
        let racks = 2;
        let ok = |p: &FaultProfile| p.validate(nodes, racks);
        assert!(ok(&FaultProfile::new()).is_ok());
        let mut p = FaultProfile::new();
        p.crash_probability = 1.5;
        assert!(ok(&p).is_err(), "probability above 1");
        let mut p = FaultProfile::new();
        p.crash_probability = 0.1;
        assert!(ok(&p).is_err(), "crash hazard without an outage duration");
        p.outage_intervals = 10;
        assert!(ok(&p).is_ok());
        let mut p = FaultProfile::new();
        p.degrade_probability = 0.1;
        p.degrade_intervals = 5;
        p.degrade_factor = 1.0;
        assert!(ok(&p).is_err(), "degrade factor must be below 1");
        p.degrade_factor = 0.5;
        assert!(ok(&p).is_ok());
        let mut p = FaultProfile::new();
        p.scheduled.push(ScheduledFault {
            node: nodes,
            at_interval: 0,
            duration_intervals: 1,
            kind: FaultKind::Crash,
        });
        assert!(ok(&p).is_err(), "scheduled node out of range");
        let mut p = FaultProfile::new();
        p.rack_outages.push(RackOutage {
            rack: racks,
            at_interval: 0,
            duration_intervals: 1,
        });
        assert_eq!(
            ok(&p),
            Err(FaultProfileError::RackOutOfRange {
                index: 0,
                rack: racks,
                racks,
            }),
            "rack out of range"
        );
        let mut p = FaultProfile::new();
        p.rack_outages.push(RackOutage {
            rack: 0,
            at_interval: 0,
            duration_intervals: 0,
        });
        assert_eq!(
            p.validate_shape(),
            Err(FaultProfileError::RackZeroDuration { index: 0 }),
            "zero-duration rack outage is caught at the archive boundary"
        );
    }

    #[test]
    fn rack_outages_expand_over_power_domains() {
        let profile = FaultProfile {
            rack_outages: vec![RackOutage {
                rack: 1,
                at_interval: 5,
                duration_intervals: 4,
            }],
            ..FaultProfile::new()
        };
        let topo = TopologyConfig::Racks {
            racks: 2,
            nodes_per_rack: 3,
            rack_power_w: None,
        };
        let schedule = compile_schedule(&profile, 42, 6, &topo, 40);
        // Rack 1 holds the contiguous back half of the fleet; every member crashes.
        let nodes: Vec<usize> = schedule.iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![3, 4, 5]);
        assert!(schedule
            .iter()
            .all(|e| e.interval == 5 && e.duration == 4 && e.kind == FaultKind::Crash));
        assert_eq!(faulted_logical_nodes(&schedule), vec![3, 4, 5]);
        // On a flat topology the single implicit rack is the whole fleet.
        let mut blackout = profile.clone();
        blackout.rack_outages[0].rack = 0;
        let schedule = compile_schedule(&blackout, 42, 6, &TopologyConfig::Flat, 40);
        assert_eq!(schedule.len(), 6);
    }

    #[test]
    fn fault_state_tracks_instances_and_round_trips_snapshots() {
        let profile = FaultProfile {
            scheduled: vec![ScheduledFault {
                node: 2,
                at_interval: 3,
                duration_intervals: 4,
                kind: FaultKind::Crash,
            }],
            ..FaultProfile::new()
        };
        let s = scenario(4);
        let pop = NodePopulation::from_scenario(&s);
        let schedule = compile_schedule(&profile, 42, s.nodes, &TopologyConfig::Flat, 20);
        let plans = pop.plan_instances(&crate::scenario::FleetApproximation::Exact);
        let mut state = FaultState::new(schedule.clone(), &plans);
        // Exact mode: logical node 2 is instance 2.
        assert_eq!(state.schedule, vec![(schedule[0], Some(2))]);
        // One representative per group: node 3 shares group 0 with node 0, so it is
        // folded into that group's replica block, no instance carries it exactly, and
        // its event resolves to none...
        let mut on_three = profile.clone();
        on_three.scheduled[0].node = 3;
        let schedule3 = compile_schedule(&on_three, 42, s.nodes, &TopologyConfig::Flat, 20);
        let single = crate::scenario::FleetApproximation::Clustered {
            representatives_per_group: 1,
        };
        let folded = FaultState::new(schedule3.clone(), &pop.plan_instances(&single));
        assert_eq!(folded.schedule, vec![(schedule3[0], None)]);
        // ...until the isolating planner carves it out: group 0 plans [0] then [3].
        let carved = pop.plan_instances_isolating(&single, &faulted_logical_nodes(&schedule3));
        assert_eq!(carved[1].seed_member, 3);
        let isolated = FaultState::new(schedule3.clone(), &carved);
        assert_eq!(isolated.schedule, vec![(schedule3[0], Some(1))]);
        state.progress.cursor = 1;
        state.progress.health[2] = NodeHealth::Down { until: 7 };
        state.progress.crashes = 1;
        state.progress.down_node_intervals = 2;
        let json = serde_json::to_string(&state.progress).expect("serializable");
        let back: FaultProgress = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, state.progress);
        let mut fresh = FaultState::new(schedule, &plans);
        fresh.restore(&back).expect("restorable");
        assert_eq!(fresh.progress.cursor, 1);
        assert_eq!(fresh.progress.health[2], NodeHealth::Down { until: 7 });
        assert_eq!(fresh.stats(4, 20).crashes, 1);
        let stats = fresh.stats(4, 20);
        assert!((stats.availability - (1.0 - 2.0 / 80.0)).abs() < 1e-12);
        // A snapshot from a different fleet shape is rejected.
        let bad = FaultProgress {
            health: vec![NodeHealth::Up; 2],
            ..back.clone()
        };
        assert!(fresh.restore(&bad).is_err());
    }

    #[test]
    fn profile_round_trips_through_json() {
        let profile = FaultProfile {
            crash_probability: 0.01,
            outage_intervals: 12,
            degrade_probability: 0.02,
            degrade_factor: 0.7,
            degrade_intervals: 6,
            scheduled: vec![ScheduledFault {
                node: 1,
                at_interval: 30,
                duration_intervals: 20,
                kind: FaultKind::Degrade { factor: 0.5 },
            }],
            rack_outages: vec![RackOutage {
                rack: 1,
                at_interval: 15,
                duration_intervals: 5,
            }],
        };
        let json = serde_json::to_string(&profile).expect("serializable");
        let back: FaultProfile = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, profile);
        // A pre-topology archive carries no `rack_outages` key; the field defaults.
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let legacy = serde_json::to_string(&serde::Value::Object(
            value
                .as_object()
                .expect("profiles serialize as objects")
                .iter()
                .filter(|(k, _)| k != "rack_outages")
                .cloned()
                .collect(),
        ))
        .expect("serializable");
        let back: FaultProfile = serde_json::from_str(&legacy).expect("deserializable");
        assert!(back.rack_outages.is_empty());
    }

    #[test]
    fn parsing_rejects_a_crash_probability_above_one() {
        let err = serde_json::from_str::<FaultProfile>(
            r#"{"crash_probability": 1.5, "outage_intervals": 4}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid fault profile: crash_probability must be in [0, 1]"
        );
    }
}
