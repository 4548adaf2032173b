//! Declarative description of one multi-node fleet experiment.
//!
//! A [`ClusterScenario`] is the fleet-level analogue of a single-node
//! [`Scenario`](pliant_core::scenario::Scenario): a complete, serializable description of
//! one cluster run — how many nodes, which interactive service they all front, which
//! per-node runtime policy, how queued batch jobs are placed, and from which seed every
//! stochastic component derives. A scenario is plain
//! data: start from [`ClusterScenario::paper_default`] and set the rest by struct
//! update. It is executed by [`ClusterRun`](crate::engine::ClusterRun); a sweep is a
//! `Vec` of scenarios, each built by struct update over a base with an explicit seed,
//! fanned out by [`Engine::map_ordered`](pliant_core::engine::Engine::map_ordered).
//!
//! Every node runs the paper's per-node controller at [`ControllerConfig::default`]
//! (1 s decisions, 10% slack threshold) against its service's paper QoS target, so the
//! decision interval, the slack knobs and the QoS target are constants of the fleet
//! model, not scenario fields.
//!
//! # Load semantics
//!
//! Cluster load is expressed as the *average load per node*, as a fraction of one node's
//! saturation throughput: a 4-node cluster at `avg_node_load = 0.75` offers `3.0`
//! node-saturation units of traffic in total, which the run splits evenly over the
//! nodes serving that interval (every serving node gets the same share; drained,
//! parked and crashed nodes get none). A time-varying [`LoadProfile`] modulates the
//! same per-node average over simulated time.

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::AppId;
use pliant_core::controller::ControllerConfig;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::Horizon;
use pliant_workloads::profile::{LoadProfile, LoadProfileError, MAX_LOAD_FRACTION};
use pliant_workloads::service::ServiceId;

use crate::autoscaler::AutoscalerConfig;
use crate::faults::{FaultProfile, FaultProfileError};
use crate::scheduler::SchedulerKind;
use crate::topology::{TopologyConfig, TopologyConfigError};

/// How the engine turns the scenario's node *population* into simulated node
/// *instances*.
///
/// The fleet description is a population: `nodes` logical nodes partitioned into groups
/// that share every per-node input (service, policy, QoS target, load share, and the
/// initial batch-job slice — the only axis that varies per node today). `Exact`
/// materializes one [`ClusterNode`](crate::node::ClusterNode) per logical node, exactly
/// as before this knob existed. `Clustered` simulates at most
/// `representatives_per_group` representative instances per group under common random
/// numbers and replicates each representative's histogram/QoS/energy contributions
/// across its replica weight (Parsimon-style clustering, applied to nodes instead of
/// links). Each representative inherits the true seed of the first logical node it
/// stands for, so raising `representatives_per_group` converges monotonically onto the
/// exact fleet — at `representatives_per_group >= group size` the two modes coincide.
///
/// There is deliberately no `validate()` on this type: the only invariant
/// (`representatives_per_group > 0`) is checked by [`ClusterScenario::validate`], which
/// runs at the archive boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FleetApproximation {
    /// One simulated instance per logical node (today's behavior, byte-identical).
    #[default]
    Exact,
    /// Simulate representatives and weight their contributions by replica count.
    Clustered {
        /// Upper bound on simulated instances per population group (must be positive).
        /// Larger values trade speed for fidelity; group size caps the effective value.
        representatives_per_group: usize,
    },
}

impl FleetApproximation {
    /// Whether this mode can simulate fewer instances than logical nodes.
    pub fn is_clustered(&self) -> bool {
        matches!(self, FleetApproximation::Clustered { .. })
    }
}

/// A complete, serializable description of one fleet experiment.
///
/// Construct by struct update over [`ClusterScenario::paper_default`]:
///
/// ```
/// use pliant_approx::catalog::AppId;
/// use pliant_cluster::scenario::ClusterScenario;
/// use pliant_core::scenario::Horizon;
/// use pliant_workloads::service::ServiceId;
///
/// let scenario = ClusterScenario {
///     nodes: 2,
///     jobs: vec![AppId::Raytrace, AppId::Canneal, AppId::Snp],
///     avg_node_load: 0.6,
///     horizon: Horizon::Intervals(30),
///     seed: 7,
///     ..ClusterScenario::paper_default(ServiceId::MongoDb)
/// };
/// assert_eq!(scenario.validate(), Ok(()));
/// assert_eq!(scenario.initial_job_count(), 2);
/// ```
///
/// All fields are public so sinks and analysis code can read them back from archived
/// runs. Nothing is checked at construction: [`ClusterRun`](crate::engine::ClusterRun)
/// runs [`ClusterScenario::validate`] before it builds a fleet, and so does
/// deserialization, so a hand-edited or corrupted archive is rejected with a descriptive
/// error instead of becoming an impossible fleet that fails mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(validate = "ClusterScenario::validate")]
pub struct ClusterScenario {
    /// Number of nodes in the fleet.
    pub nodes: usize,
    /// Interactive service every node fronts (the fleet is homogeneous, like the
    /// paper's evaluation cluster).
    pub service: ServiceId,
    /// Per-node runtime policy.
    pub policy: PolicyKind,
    /// How queued batch jobs are placed onto free node slots.
    pub scheduler: SchedulerKind,
    /// Batch jobs in submission order. The first `nodes × slots_per_node` jobs fill the
    /// fleet's slots at start; the rest queue and are placed as slots free up.
    pub jobs: Vec<AppId>,
    /// Batch slots per node (the co-location width).
    pub slots_per_node: usize,
    /// Average offered load per node, as a fraction of one node's saturation
    /// throughput. When `load_profile` is set, this is only the fallback the profile
    /// overrides.
    pub avg_node_load: f64,
    /// Time-varying per-node-average load (`None` = constant at `avg_node_load`).
    pub load_profile: Option<LoadProfile>,
    /// How long to simulate.
    pub horizon: Horizon,
    /// Decision intervals excluded from the fleet's latency/QoS statistics at the start
    /// of the run, while the per-node runtimes converge from their precise initial
    /// state to the co-location's operating point. Traces, job accounting, and core
    /// accounting still cover the full run. The fleet p99 is a quantile over *every*
    /// sample, so without a warm-up the one-off convergence transient would sit in the
    /// histogram forever and dominate the tail of an otherwise healthy steady state.
    pub warmup_intervals: usize,
    /// Energy-aware autoscaling of the active node set (`None` = every node serves for
    /// the whole run). Absent in pre-energy archives (deserializes as `None`).
    #[serde(default)]
    pub autoscaler: Option<AutoscalerConfig>,
    /// How the node population is materialized into simulated instances (`Exact` = one
    /// instance per logical node). Absent in pre-hyperscale archives (deserializes as
    /// `Exact`).
    #[serde(default)]
    pub approximation: FleetApproximation,
    /// Deterministic fault injection — node crashes, stragglers, whole-rack power
    /// outages (`None` = nothing ever fails). Absent in pre-fault archives
    /// (deserializes as `None`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault_profile: Option<FaultProfile>,
    /// Rack/power-domain structure of the fleet (`Flat` = no structure, today's flat
    /// node list). Absent in pre-topology archives (deserializes as `Flat`) and
    /// omitted from flat archives, so pre-topology archives round-trip
    /// byte-identically.
    #[serde(default, skip_serializing_if = "TopologyConfig::is_flat")]
    pub topology: TopologyConfig,
    /// Master seed; every node, the monitor sampling streams, the rack-placement
    /// sampling and the fault schedule derive from it.
    pub seed: u64,
}

impl ClusterScenario {
    /// A fleet fronting `service` with paper-style defaults: 4 nodes with one batch
    /// slot each, Pliant per node, first-fit placement, 75%
    /// average load, a 120-interval horizon with a 5-interval warm-up, flat and
    /// fault-free, seed 42. It has no jobs, so it fails [`Self::validate`] until the
    /// caller supplies at least one job per slot.
    pub fn paper_default(service: ServiceId) -> Self {
        ClusterScenario {
            nodes: 4,
            service,
            policy: PolicyKind::Pliant,
            scheduler: SchedulerKind::FirstFit,
            jobs: Vec::new(),
            slots_per_node: 1,
            avg_node_load: 0.75,
            load_profile: None,
            horizon: Horizon::Intervals(120),
            warmup_intervals: 5,
            autoscaler: None,
            approximation: FleetApproximation::Exact,
            fault_profile: None,
            topology: TopologyConfig::Flat,
            seed: 42,
        }
    }

    /// Whether the nodes' applications run instrumented (the policy default: every
    /// policy except the precise baseline).
    pub fn effective_instrumented(&self) -> bool {
        self.policy != PolicyKind::Precise
    }

    /// The per-node-average offered load at simulated time `t_s`: the explicit
    /// `load_profile`'s if one is set, otherwise the constant `avg_node_load`. Reads
    /// the profile in place, so a trace profile's breakpoints are not copied.
    pub fn load_at(&self, t_s: f64) -> f64 {
        match &self.load_profile {
            Some(profile) => profile.load_at(t_s),
            None => LoadProfile::constant(self.avg_node_load).load_at(t_s),
        }
    }

    /// The length of one fleet interval in seconds: the decision interval of
    /// [`ControllerConfig::default`], which every node's controller runs.
    pub fn decision_interval_s(&self) -> f64 {
        ControllerConfig::default().decision_interval_s
    }

    /// The number of decision intervals this scenario simulates.
    pub fn max_intervals(&self) -> usize {
        self.horizon.max_intervals(self.decision_interval_s())
    }

    /// Jobs needed to fill every slot of every node at start.
    pub fn initial_job_count(&self) -> usize {
        self.nodes * self.slots_per_node
    }

    /// Checks that the scenario describes a fleet that can run.
    ///
    /// Cluster scenarios are plain serde-able data, so a hand-built scenario or a
    /// deserialized archive can describe an impossible experiment; the engine checks
    /// this before running, and deserialization before accepting an archive.
    pub fn validate(&self) -> Result<(), ClusterScenarioError> {
        if self.nodes == 0 {
            return Err(ClusterScenarioError::NoNodes);
        }
        if self.slots_per_node == 0 {
            return Err(ClusterScenarioError::NoSlots);
        }
        if self.jobs.len() < self.initial_job_count() {
            return Err(ClusterScenarioError::NotEnoughJobs {
                needed: self.initial_job_count(),
                got: self.jobs.len(),
            });
        }
        if !(self.avg_node_load > 0.0 && self.avg_node_load <= MAX_LOAD_FRACTION) {
            return Err(ClusterScenarioError::InvalidLoad);
        }
        let horizon_ok = match self.horizon {
            Horizon::Intervals(n) => n > 0,
            Horizon::Seconds(secs) => secs > 0.0 && secs.is_finite(),
        };
        if !horizon_ok {
            return Err(ClusterScenarioError::InvalidHorizon);
        }
        if self.warmup_intervals >= self.max_intervals() {
            return Err(ClusterScenarioError::WarmupConsumesHorizon {
                warmup: self.warmup_intervals,
                horizon: self.max_intervals(),
            });
        }
        if let Some(profile) = &self.load_profile {
            profile
                .validate()
                .map_err(ClusterScenarioError::InvalidLoadProfile)?;
        }
        if let Some(autoscaler) = &self.autoscaler {
            if !(1..=self.nodes).contains(&autoscaler.min_active) {
                return Err(ClusterScenarioError::AutoscalerMinimumOutOfRange {
                    min_active: autoscaler.min_active,
                    nodes: self.nodes,
                });
            }
        }
        if let FleetApproximation::Clustered {
            representatives_per_group,
        } = self.approximation
        {
            if representatives_per_group == 0 {
                return Err(ClusterScenarioError::InvalidApproximation);
            }
        }
        self.topology
            .validate(self.nodes)
            .map_err(ClusterScenarioError::InvalidTopology)?;
        if let Some(profile) = &self.fault_profile {
            profile
                .validate(self.nodes, self.topology.rack_count())
                .map_err(ClusterScenarioError::InvalidFaultProfile)?;
        }
        Ok(())
    }

    /// A generated `Nxservice/policy` description.
    pub fn describe(&self) -> String {
        format!("{}x{}/{}", self.nodes, self.service.name(), self.policy)
    }
}

/// Why [`ClusterScenario::validate`] refused a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterScenarioError {
    /// The fleet has no nodes.
    NoNodes,
    /// Nodes have no batch slots.
    NoSlots,
    /// Fewer jobs than fleet slots: every node needs at least one job per slot to form
    /// a co-location.
    NotEnoughJobs {
        /// Jobs needed to fill every slot (`nodes × slots_per_node`).
        needed: usize,
        /// Jobs actually supplied.
        got: usize,
    },
    /// The average per-node load is outside `(0, MAX_LOAD_FRACTION]`.
    InvalidLoad,
    /// The horizon is empty or not finite.
    InvalidHorizon,
    /// The warm-up exclusion covers the whole horizon, leaving no measured intervals.
    WarmupConsumesHorizon {
        /// Warm-up intervals requested.
        warmup: usize,
        /// Total intervals the horizon allows.
        horizon: usize,
    },
    /// The load profile failed its own validation.
    InvalidLoadProfile(LoadProfileError),
    /// The autoscaler's active-set floor is zero or exceeds the fleet size.
    AutoscalerMinimumOutOfRange {
        /// Requested minimum active nodes.
        min_active: usize,
        /// Provisioned fleet size.
        nodes: usize,
    },
    /// The clustered approximation allows zero representatives per group, which would
    /// leave population groups with no simulated instance at all.
    InvalidApproximation,
    /// The fault profile failed its own validation.
    InvalidFaultProfile(FaultProfileError),
    /// The rack topology failed its own validation or does not cover the fleet.
    InvalidTopology(TopologyConfigError),
}

impl std::fmt::Display for ClusterScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterScenarioError::NoNodes => f.write_str("cluster needs at least one node"),
            ClusterScenarioError::NoSlots => {
                f.write_str("nodes need at least one batch slot")
            }
            ClusterScenarioError::NotEnoughJobs { needed, got } => write!(
                f,
                "cluster needs at least {needed} jobs to fill every node slot, got {got}"
            ),
            ClusterScenarioError::InvalidLoad => write!(
                f,
                "average per-node load must be in (0, {MAX_LOAD_FRACTION}]"
            ),
            ClusterScenarioError::InvalidHorizon => {
                f.write_str("horizon must be positive and finite")
            }
            ClusterScenarioError::WarmupConsumesHorizon { warmup, horizon } => write!(
                f,
                "warm-up of {warmup} intervals leaves none of the {horizon}-interval horizon measured"
            ),
            ClusterScenarioError::InvalidLoadProfile(e) => {
                write!(f, "invalid load profile: {e}")
            }
            ClusterScenarioError::AutoscalerMinimumOutOfRange { min_active, nodes } => write!(
                f,
                "autoscaler min_active of {min_active} is outside 1..={nodes} for the {nodes}-node fleet"
            ),
            ClusterScenarioError::InvalidApproximation => f.write_str(
                "clustered approximation needs at least one representative per group",
            ),
            ClusterScenarioError::InvalidFaultProfile(e) => {
                write!(f, "invalid fault profile: {e}")
            }
            ClusterScenarioError::InvalidTopology(e) => {
                write!(f, "invalid topology: {e}")
            }
        }
    }
}

impl std::error::Error for ClusterScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: usize) -> Vec<AppId> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    AppId::Canneal
                } else {
                    AppId::Snp
                }
            })
            .collect()
    }

    /// A `nodes`-node paper-default fleet of `service` with one job per slot.
    fn fleet(service: ServiceId, nodes: usize) -> ClusterScenario {
        ClusterScenario {
            nodes,
            jobs: jobs(nodes),
            ..ClusterScenario::paper_default(service)
        }
    }

    #[test]
    fn paper_default_applies_defaults_and_validates() {
        let s = fleet(ServiceId::Memcached, 4);
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.slots_per_node, 1);
        assert_eq!(s.policy, PolicyKind::Pliant);
        assert_eq!(s.scheduler, SchedulerKind::FirstFit);
        assert_eq!(s.avg_node_load, 0.75);
        assert_eq!(s.seed, 42);
        assert_eq!(s.max_intervals(), 120);
        assert!(s.effective_instrumented());
        assert_eq!(s.load_at(0.0), 0.75);
        assert_eq!(s.load_at(1e6), 0.75);
        // With no jobs the defaults alone describe no fleet.
        assert_eq!(
            ClusterScenario::paper_default(ServiceId::Memcached).validate(),
            Err(ClusterScenarioError::NotEnoughJobs { needed: 4, got: 0 })
        );
    }

    #[test]
    fn validation_catches_degenerate_fleets() {
        assert_eq!(
            fleet(ServiceId::Nginx, 0).validate(),
            Err(ClusterScenarioError::NoNodes)
        );
        let short = ClusterScenario {
            jobs: jobs(2),
            ..fleet(ServiceId::Nginx, 3)
        };
        assert_eq!(
            short.validate(),
            Err(ClusterScenarioError::NotEnoughJobs { needed: 3, got: 2 })
        );
        let no_slots = ClusterScenario {
            slots_per_node: 0,
            ..fleet(ServiceId::Nginx, 4)
        };
        assert_eq!(no_slots.validate(), Err(ClusterScenarioError::NoSlots));
        let idle = ClusterScenario {
            avg_node_load: 0.0,
            ..fleet(ServiceId::Nginx, 4)
        };
        assert_eq!(idle.validate(), Err(ClusterScenarioError::InvalidLoad));
        let err = ClusterScenario {
            load_profile: Some(LoadProfile::Trace { points: vec![] }),
            ..fleet(ServiceId::Nginx, 4)
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, ClusterScenarioError::InvalidLoadProfile(_)));
        assert!(err.to_string().contains("load profile"));
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = ClusterScenario {
            nodes: 3,
            slots_per_node: 2,
            jobs: jobs(8),
            policy: PolicyKind::Precise,
            scheduler: SchedulerKind::QosSlackAware,
            load_profile: Some(LoadProfile::Diurnal {
                base: 0.6,
                amplitude: 0.2,
                period_s: 60.0,
                phase_s: 0.0,
            }),
            autoscaler: Some(AutoscalerConfig {
                min_active: 2,
                consolidate: true,
            }),
            horizon: Horizon::Seconds(30.0),
            seed: 1234,
            ..ClusterScenario::paper_default(ServiceId::MongoDb)
        };
        assert_eq!(s.validate(), Ok(()));
        let json = serde_json::to_string_pretty(&s).expect("serializable");
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, s);
        assert!(!back.effective_instrumented());
        let profile = back.load_profile.as_ref().expect("a diurnal profile");
        for t_s in [0.0, 15.0, 45.0] {
            assert_eq!(back.load_at(t_s), profile.load_at(t_s));
        }
        assert_eq!(back.autoscaler, s.autoscaler);
        // Pre-energy archives carry no autoscaler field and deserialize as None.
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let legacy = serde_json::to_string(&serde::Value::Object(
            value
                .as_object()
                .expect("scenarios serialize as objects")
                .iter()
                .filter(|(k, _)| k != "autoscaler")
                .cloned()
                .collect(),
        ))
        .expect("serializable");
        let old: ClusterScenario =
            serde_json::from_str(&legacy).expect("legacy archives deserialize");
        assert_eq!(old.autoscaler, None);
    }

    #[test]
    fn validation_catches_bad_autoscaler_configs() {
        let floor = |min_active| ClusterScenario {
            autoscaler: Some(AutoscalerConfig {
                min_active,
                consolidate: false,
            }),
            ..fleet(ServiceId::Nginx, 2)
        };
        assert_eq!(floor(1).validate(), Ok(()));
        assert_eq!(floor(2).validate(), Ok(()));
        for min_active in [0, 5] {
            let err = floor(min_active).validate().unwrap_err();
            assert_eq!(
                err,
                ClusterScenarioError::AutoscalerMinimumOutOfRange {
                    min_active,
                    nodes: 2
                }
            );
            assert!(err.to_string().contains("autoscaler"), "{err}");
            // The same invariant holds at the archive boundary.
            let corrupted = serde_json::to_string(&floor(2))
                .expect("serializable")
                .replace("\"min_active\":2", &format!("\"min_active\":{min_active}"));
            let parsed = serde_json::from_str::<ClusterScenario>(&corrupted)
                .expect_err("an out-of-range active-set floor must not deserialize");
            assert!(parsed.to_string().contains(&err.to_string()), "{parsed}");
        }
    }

    #[test]
    fn approximation_round_trips_and_legacy_archives_default_to_exact() {
        let clustered = ClusterScenario {
            approximation: FleetApproximation::Clustered {
                representatives_per_group: 2,
            },
            ..fleet(ServiceId::Memcached, 6)
        };
        let json = serde_json::to_string(&clustered).expect("serializable");
        assert!(json.contains("representatives_per_group"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, clustered);
        assert!(back.approximation.is_clustered());

        // Exact serializes, round-trips, and is the paper default.
        let exact = fleet(ServiceId::Memcached, 4);
        assert_eq!(exact.approximation, FleetApproximation::Exact);
        let json = serde_json::to_string(&exact).expect("serializable");
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.approximation, FleetApproximation::Exact);

        // Pre-hyperscale archives carry no approximation field: strip it and the
        // scenario still deserializes, as Exact.
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let legacy = serde_json::to_string(&serde::Value::Object(
            value
                .as_object()
                .expect("scenarios serialize as objects")
                .iter()
                .filter(|(k, _)| k != "approximation")
                .cloned()
                .collect(),
        ))
        .expect("serializable");
        assert!(!legacy.contains("approximation"));
        let old: ClusterScenario =
            serde_json::from_str(&legacy).expect("legacy archives deserialize");
        assert_eq!(old.approximation, FleetApproximation::Exact);
    }

    #[test]
    fn zero_representative_approximations_are_rejected() {
        let clustered = |representatives_per_group| ClusterScenario {
            approximation: FleetApproximation::Clustered {
                representatives_per_group,
            },
            ..fleet(ServiceId::Nginx, 2)
        };
        assert_eq!(
            clustered(0).validate(),
            Err(ClusterScenarioError::InvalidApproximation)
        );
        // The same invariant holds at the archive boundary.
        let json = serde_json::to_string(&clustered(2)).expect("serializable");
        let corrupted = json.replace(
            "\"representatives_per_group\":2",
            "\"representatives_per_group\":0",
        );
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("zero representatives must not deserialize");
        assert!(err.to_string().contains("at least one representative"));
    }

    #[test]
    fn fault_profiles_round_trip_and_are_validated_at_both_boundaries() {
        use crate::faults::{FaultKind, RackOutage, ScheduledFault};
        let profile = FaultProfile {
            crash_probability: 0.01,
            outage_intervals: 10,
            scheduled: vec![ScheduledFault {
                node: 1,
                at_interval: 20,
                duration_intervals: 5,
                kind: FaultKind::Crash,
            }],
            ..FaultProfile::new()
        };
        let s = ClusterScenario {
            fault_profile: Some(profile.clone()),
            ..fleet(ServiceId::Memcached, 3)
        };
        assert_eq!(s.validate(), Ok(()));
        let json = serde_json::to_string(&s).expect("serializable");
        assert!(json.contains("fault_profile"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.fault_profile, Some(profile));

        // Fault-free scenarios omit the field entirely, and archives without it
        // (everything written before fault injection existed) deserialize as None.
        let json = serde_json::to_string(&fleet(ServiceId::Memcached, 4)).expect("serializable");
        assert!(!json.contains("fault_profile"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.fault_profile, None);

        // A scheduled fault must target a real node.
        let err = ClusterScenario {
            fault_profile: Some(FaultProfile {
                scheduled: vec![ScheduledFault {
                    node: 9,
                    at_interval: 0,
                    duration_intervals: 1,
                    kind: FaultKind::Crash,
                }],
                ..FaultProfile::new()
            }),
            ..fleet(ServiceId::Memcached, 2)
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, ClusterScenarioError::InvalidFaultProfile(_)));
        assert!(err.to_string().contains("fault"));

        // Rack outages are checked against the scenario's topology (two 2-node
        // racks), at both boundaries.
        let outage = |rack| ClusterScenario {
            fault_profile: Some(FaultProfile {
                rack_outages: vec![RackOutage {
                    rack,
                    at_interval: 0,
                    duration_intervals: 1,
                }],
                ..FaultProfile::new()
            }),
            topology: TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 2,
                rack_power_w: None,
            },
            ..fleet(ServiceId::Memcached, 4)
        };
        assert_eq!(outage(1).validate(), Ok(()));
        let err = outage(2).validate().unwrap_err();
        assert_eq!(
            err,
            ClusterScenarioError::InvalidFaultProfile(FaultProfileError::RackOutOfRange {
                index: 0,
                rack: 2,
                racks: 2,
            })
        );
        let corrupted = serde_json::to_string(&outage(1))
            .expect("serializable")
            .replace("\"rack\":1", "\"rack\":2");
        let parsed = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("an out-of-range rack outage must not deserialize");
        assert!(parsed.to_string().contains(&err.to_string()), "{parsed}");

        // The same invariants hold at the archive boundary.
        let corrupted = serde_json::to_string(&s)
            .expect("serializable")
            .replace("\"node\":1", "\"node\":7");
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("out-of-range scheduled fault must not deserialize");
        assert!(err.to_string().contains("fault"));
    }

    #[test]
    fn topology_round_trips_and_legacy_archives_default_to_flat() {
        let racks = |rack_power_w| TopologyConfig::Racks {
            racks: 2,
            nodes_per_rack: 3,
            rack_power_w,
        };
        let racked = ClusterScenario {
            topology: racks(Some(450.0)),
            ..fleet(ServiceId::Memcached, 6)
        };
        assert_eq!(racked.validate(), Ok(()));
        let json = serde_json::to_string(&racked).expect("serializable");
        assert!(json.contains("nodes_per_rack"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, racked);

        // Flat scenarios omit the field entirely, and archives without it (everything
        // written before the topology layer existed) deserialize as Flat.
        let json = serde_json::to_string(&fleet(ServiceId::Memcached, 4)).expect("serializable");
        assert!(!json.contains("topology"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.topology, TopologyConfig::Flat);

        // A grid that does not cover the fleet is rejected at both boundaries.
        let uncovered = ClusterScenario {
            topology: racks(None),
            ..fleet(ServiceId::Memcached, 5)
        };
        assert_eq!(
            uncovered.validate(),
            Err(ClusterScenarioError::InvalidTopology(
                TopologyConfigError::NodeCountMismatch {
                    racks: 2,
                    nodes_per_rack: 3,
                    nodes: 5,
                }
            ))
        );
        // Surplus jobs keep the job-count invariant satisfied after the corruption,
        // so the failure isolated here is the topology coverage check.
        let surplus = ClusterScenario {
            jobs: jobs(8),
            topology: racks(None),
            ..fleet(ServiceId::Memcached, 6)
        };
        let corrupted = serde_json::to_string(&surplus)
            .expect("serializable")
            .replace("\"nodes\":6", "\"nodes\":7");
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("a grid that does not cover the fleet must not deserialize");
        assert!(err.to_string().contains("does not cover"), "got: {err}");
    }

    #[test]
    fn describe_summarizes_the_fleet() {
        assert_eq!(
            fleet(ServiceId::Memcached, 6).describe(),
            "6xmemcached/pliant"
        );
        let precise = ClusterScenario {
            policy: PolicyKind::Precise,
            ..fleet(ServiceId::Memcached, 4)
        };
        assert_eq!(precise.describe(), "4xmemcached/precise");
        // Scenarios carry no label: an older archive's `"label"` key is an unknown
        // field, ignored on load, and the description is still the generated one.
        let json = serde_json::to_string(&precise).expect("serializable");
        assert!(!json.contains("label"));
        for label in ["\"cell-1\"", "null"] {
            let legacy = json.replacen('{', &format!("{{\"label\":{label},"), 1);
            let back: ClusterScenario =
                serde_json::from_str(&legacy).expect("an unknown key is ignored");
            assert_eq!(back, precise);
            assert_eq!(back.describe(), "4xmemcached/precise");
        }
    }

    #[test]
    fn retired_balancer_keys_load_and_retired_schedulers_fail_to_parse() {
        // Fleets split load one way, so a `"balancer"` key from an older archive is an
        // unknown field: it is ignored and the fleet runs the even split.
        let s = fleet(ServiceId::Nginx, 2);
        let json = serde_json::to_string(&s).expect("serializable");
        assert!(!json.contains("balancer"));
        for balancer in ["round-robin", "least-loaded", "p2c"] {
            let legacy = json.replace(
                "\"scheduler\"",
                &format!("\"balancer\":\"{balancer}\",\"scheduler\""),
            );
            assert_ne!(legacy, json, "the legacy key must have been written");
            let back: ClusterScenario =
                serde_json::from_str(&legacy).expect("an unknown key is ignored");
            assert_eq!(back, s);
        }
        // The utilization-aware scheduler is gone: naming it fails to parse.
        let retired = json.replace("\"first-fit\"", "\"utilization-aware\"");
        assert_ne!(retired, json);
        let err = serde_json::from_str::<ClusterScenario>(&retired)
            .expect_err("a retired scheduler must not deserialize");
        assert!(err.to_string().contains("utilization-aware"), "{err}");
    }

    #[test]
    fn corrupted_archives_are_rejected_at_the_deserialization_boundary() {
        let json = serde_json::to_string(&fleet(ServiceId::Nginx, 2)).expect("serializable");
        let corrupted = json.replace("\"nodes\":2", "\"nodes\":9");
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("a fleet violating its invariants must not deserialize");
        assert!(
            err.to_string()
                .contains("needs at least 9 jobs to fill every node slot, got 2"),
            "error should carry the validation message, got: {err}"
        );
    }
}
