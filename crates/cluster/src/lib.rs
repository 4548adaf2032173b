//! Multi-node fleet simulation: Pliant at cluster scale.
//!
//! The paper's headline result is fleet-level: approximation-aware co-location raises
//! effective machine utilization, so the same tail-latency QoS is served with **fewer
//! machines**. This crate lifts the single-node reproduction to an N-node fleet in
//! which every node runs the exact single-node loop — a
//! [`ColocationSim`](pliant_sim::colocation::ColocationSim) driven by its own
//! monitor/policy/actuator — while fleet-level components couple the nodes between
//! decision intervals:
//!
//! * [`engine`] — one fleet run and its integration with the core
//!   [`Engine`](pliant_core::engine::Engine): a [`ClusterRun`] owns the fleet, its
//!   books and its checkpoint, and steps its nodes in index order on the calling
//!   thread. Each interval it splits the cluster-wide offered load evenly over the
//!   serving nodes: every serving logical node gets the same share and drained,
//!   parked or crashed nodes get none, so paired Precise/Pliant fleets see the same
//!   per-node load; [`ClusterEngineExt::run_cluster`] runs one to completion, and
//!   [`Engine::map_ordered`](pliant_core::engine::Engine::map_ordered) runs a list of
//!   whole fleets side by side on the engine's workers.
//! * [`scheduler`] — admits queued batch jobs into node slots freed by completed jobs
//!   ([`SchedulerKind::FirstFit`] or the approximation-aware
//!   [`SchedulerKind::QosSlackAware`]).
//! * [`population`] — the population/instance split behind hyperscale fleets: the
//!   logical fleet is grouped into clusters of interchangeable nodes, and
//!   [`FleetApproximation::Clustered`] simulates one representative per cluster under
//!   common random numbers, replicating its histogram/QoS/energy contributions per
//!   replica. [`FleetApproximation::Exact`] (the default) simulates every node and is
//!   byte-identical to the pre-population simulator.
//!
//! A [`ClusterScenario`] is plain data, built by struct update over
//! [`ClusterScenario::paper_default`]. Every node runs the paper's per-node controller
//! at [`ControllerConfig::default`](pliant_core::controller::ControllerConfig) against
//! its service's paper QoS target.
//!
//! Fleet metrics come from merging every node's latency histogram
//! ([`LatencyHistogram::merge`](pliant_telemetry::histogram::LatencyHistogram::merge)),
//! so the fleet p99 is the exact quantile over every request in the fleet — the number
//! the machines-needed-at-QoS-target search ([`outcome::machines_needed`]) minimizes.
//!
//! # Example
//!
//! ```
//! use pliant_approx::catalog::AppId;
//! use pliant_cluster::prelude::*;
//! use pliant_core::engine::Engine;
//! use pliant_core::scenario::Horizon;
//! use pliant_workloads::service::ServiceId;
//!
//! let scenario = ClusterScenario {
//!     nodes: 3,
//!     jobs: vec![AppId::Canneal, AppId::Snp, AppId::Bayesian, AppId::KMeans],
//!     avg_node_load: 0.6,
//!     horizon: Horizon::Intervals(20),
//!     ..ClusterScenario::paper_default(ServiceId::Memcached)
//! };
//! let outcome = Engine::new().run_cluster(&scenario);
//! assert_eq!(outcome.nodes, 3);
//! println!("fleet p99/QoS = {:.2}", outcome.fleet_tail_latency_ratio);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autoscaler;
pub mod engine;
pub mod faults;
pub mod node;
pub mod outcome;
pub mod population;
pub mod scenario;
pub mod scheduler;
pub mod topology;

pub use autoscaler::{
    Autoscaler, AutoscalerAction, AutoscalerConfig, AutoscalerState, NodePowerState,
};
pub use engine::{
    ClusterEngineExt, ClusterRun, ClusterRunCheckpoint, FleetBooks, CLUSTER_CHECKPOINT_VERSION,
};
pub use faults::{
    FaultKind, FaultProfile, FaultProfileError, FaultProgress, FaultStats, NodeHealth, RackOutage,
    ScheduledFault,
};
pub use node::{ClusterNode, NodeBooks, NodeCheckpoint, NodeSnapshot};
pub use outcome::{machines_needed, ClusterOutcome, NodeOutcome};
pub use population::{InstancePlan, NodeGroup, NodePopulation};
pub use scenario::{ClusterScenario, ClusterScenarioError, FleetApproximation};
pub use scheduler::{BatchScheduler, SchedulerKind, SchedulerStats};
pub use topology::{TopologyConfig, TopologyConfigError};

/// Commonly-used items, re-exported for convenience.
pub mod prelude {
    pub use crate::autoscaler::{AutoscalerConfig, NodePowerState};
    pub use crate::engine::{ClusterEngineExt, ClusterRun, ClusterRunCheckpoint};
    pub use crate::faults::{FaultKind, FaultProfile, FaultStats, RackOutage, ScheduledFault};
    pub use crate::outcome::{machines_needed, ClusterOutcome, NodeOutcome};
    pub use crate::population::NodePopulation;
    pub use crate::scenario::{ClusterScenario, ClusterScenarioError, FleetApproximation};
    pub use crate::scheduler::SchedulerKind;
    pub use crate::topology::TopologyConfig;
}
