//! The Pliant runtime — the primary contribution of the paper.
//!
//! Pliant preserves the tail-latency QoS of an interactive service co-located with
//! approximate batch applications by (1) monitoring end-to-end latency with lightweight
//! client-side sampling, (2) switching the co-runners to incrementally more aggressive
//! approximate variants when QoS is violated, and (3) reclaiming cores one per decision
//! interval when approximation alone is insufficient — returning cores and stepping back
//! toward precise execution whenever latency slack exceeds 10%.
//!
//! Module map:
//!
//! * [`monitor`] — the client-side performance monitor (adaptive latency sampling and
//!   windowed tail estimation).
//! * [`actuator`] — applies variant switches and core reallocations to the co-location
//!   substrate, accounting for the dynamic-recompilation mechanism's cost.
//! * [`controller`] — the runtime algorithm of Fig. 3 and its configuration.
//! * [`multi`] — the round-robin arbiter for multi-application co-locations (§4.4).
//! * [`policy`] — the [`policy::Policy`] enum: Pliant, the paper's Precise baseline
//!   and two ablations, each variant holding that policy's whole mutable state.
//! * [`runtime`] — one node's runtime: a co-location simulator plus the monitor →
//!   policy → actuator loop controlling it, shared by the single-node engine and every
//!   fleet node.
//! * [`scenario`] — the declarative, serializable description of one experiment, built
//!   with the fluent [`scenario::ScenarioBuilder`].
//! * [`suite`] — composable sweeps (loads, intervals, policies, seeds, services,
//!   application mixes) expanding into cartesian grids of scenarios with deterministic
//!   per-cell seeds.
//! * [`engine`] — executes scenarios and suites serially or on worker threads;
//!   [`engine::Engine::map_ordered`] is its one worker pool, and
//!   [`engine::Engine::run_collect`] returns a suite's cells in index order through
//!   it.
//! * [`experiment`] — the outcome types every scenario run produces, and the Fig. 10
//!   effort classification.
//!
//! # Example
//!
//! ```
//! use pliant_approx::catalog::AppId;
//! use pliant_core::engine::Engine;
//! use pliant_core::policy::PolicyKind;
//! use pliant_core::scenario::Scenario;
//! use pliant_core::suite::Suite;
//! use pliant_workloads::service::ServiceId;
//!
//! // One run: describe it, then run it.
//! let scenario = Scenario::builder(ServiceId::MongoDb)
//!     .app(AppId::Raytrace)
//!     .policy(PolicyKind::Pliant)
//!     .horizon_intervals(40)
//!     .build();
//! let outcome = scenario.run();
//! assert!(outcome.intervals > 0);
//!
//! // A grid: sweep policy × load, run every cell on one engine.
//! let suite = Suite::new(scenario)
//!     .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
//!     .sweep_loads([0.5, 0.9]);
//! let results = Engine::new().run_collect(&suite);
//! assert_eq!(results.len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actuator;
pub mod controller;
pub mod engine;
pub mod experiment;
pub mod monitor;
pub mod multi;
pub mod policy;
pub mod runtime;
pub mod scenario;
pub mod suite;

pub use actuator::{Action, Actuator};
pub use controller::ControllerConfig;
pub use engine::{CellOutcome, Engine};
pub use experiment::{ColocationOutcome, PhaseQosStats};
pub use monitor::{MonitorConfig, PerformanceMonitor};
pub use multi::MultiAppController;
pub use policy::{Policy, PolicyKind};
pub use runtime::NodeRuntime;
pub use scenario::{Horizon, Scenario, ScenarioBuilder, ScenarioError};
pub use suite::{SeedMode, Suite, SuiteError, SweepAxis};
