//! Facade crate for the Pliant reproduction.
//!
//! Pliant (HPCA 2019) is a lightweight cloud runtime that co-schedules latency-critical
//! interactive services with approximate-computing applications: when the interactive
//! service's tail-latency QoS is violated, Pliant incrementally switches the co-runners to
//! more aggressive approximate variants and, if necessary, reclaims cores from them — then
//! relaxes both once latency slack returns.
//!
//! This crate re-exports the workspace's components under one roof:
//!
//! * [`approx`] — approximation techniques, the 24 approximate kernels, and the calibrated
//!   application catalog.
//! * [`workloads`] — the NGINX / memcached / MongoDB service models and open-loop
//!   generators.
//! * [`sim`] — the server, interference, queueing, and co-location simulation substrate.
//! * [`explore`] — offline design-space exploration and pareto-frontier variant selection.
//! * [`runtime`] — the Pliant runtime itself (monitor, actuator, controller, policies) and
//!   the scenario/suite/engine experiment API.
//! * [`cluster`] — the multi-node fleet layer: load balancing, batch-job scheduling, and
//!   fleet-level QoS aggregation on top of per-node co-location simulators.
//! * [`telemetry`] — histograms, summaries, and time-series recording.
//!
//! # Quickstart
//!
//! ```
//! use pliant::prelude::*;
//!
//! let scenario = Scenario::builder(ServiceId::MongoDb)
//!     .app(AppId::Raytrace)
//!     .policy(PolicyKind::Pliant)
//!     .horizon_intervals(30)
//!     .build();
//! let outcome = scenario.run();
//! println!("p99/QoS = {:.2}", outcome.tail_latency_ratio);
//! assert!(outcome.intervals > 0);
//! ```
//!
//! Grids of experiments are described with [`prelude::Suite`] and executed with
//! [`prelude::Engine`], which can fan cells out over all cores while still returning
//! the cells in deterministic order:
//!
//! ```
//! use pliant::prelude::*;
//!
//! let base = Scenario::builder(ServiceId::Nginx)
//!     .app(AppId::Canneal)
//!     .horizon_intervals(20)
//!     .build();
//! let suite = Suite::new(base)
//!     .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
//!     .sweep_loads([0.5, 0.9]);
//! let results = Engine::new().parallel().run_collect(&suite);
//! assert_eq!(results.len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pliant_approx as approx;
pub use pliant_cluster as cluster;
pub use pliant_core as runtime;
pub use pliant_explore as explore;
pub use pliant_sim as sim;
pub use pliant_telemetry as telemetry;
pub use pliant_workloads as workloads;

/// Commonly-used items, re-exported for convenience.
pub mod prelude {
    pub use pliant_approx::catalog::{AppId, AppProfile, Catalog};
    pub use pliant_approx::kernel::{ApproxConfig, ApproxKernel};
    pub use pliant_cluster::prelude::*;
    pub use pliant_core::engine::{CellOutcome, Engine};
    pub use pliant_core::experiment::{
        classify_effort, ColocationOutcome, EffortClass, PhaseQosStats,
    };
    pub use pliant_core::policy::PolicyKind;
    pub use pliant_core::scenario::{Horizon, Scenario, ScenarioBuilder, ScenarioError};
    pub use pliant_core::suite::{SeedMode, Suite, SuiteError, SweepAxis};
    pub use pliant_core::{ControllerConfig, MonitorConfig, PerformanceMonitor};
    pub use pliant_explore::{explore_kernel, ExplorationConfig};
    pub use pliant_sim::colocation::{ColocationConfig, ColocationSim};
    pub use pliant_sim::server::{PowerModel, ServerSpec};
    pub use pliant_workloads::profile::{LoadPhase, LoadProfile};
    pub use pliant_workloads::service::{ServiceId, ServiceProfile};
}
