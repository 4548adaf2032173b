//! Server, interference, and queueing simulation substrate for the Pliant reproduction.
//!
//! The paper evaluates Pliant on a dual-socket Xeon E5-2699 v4 server where an interactive
//! service and one or more approximate batch applications share one socket's cores, LLC,
//! memory bandwidth, and NIC. This crate replaces that hardware with a calibrated model:
//!
//! * [`server`] — the platform specification (Table 1) and core-allocation accounting.
//! * [`interference`] — how co-runners' shared-resource pressure inflates the interactive
//!   service's request processing and derates its capacity.
//! * [`queueing`] — the analytic open-loop tail-latency model (utilization-based latency
//!   inflation with lognormal service-time noise) used by the fast co-location simulator.
//! * [`batch`] — execution-progress and output-quality accounting for approximate
//!   applications (variant switches, core changes, instrumentation overhead).
//! * [`colocation`] — the co-location engine tying everything together; the Pliant runtime
//!   (in `pliant-core`) drives it one decision interval at a time.
//!
//! # Example
//!
//! ```
//! use pliant_approx::catalog::{AppId, Catalog};
//! use pliant_sim::colocation::{ColocationConfig, ColocationSim};
//! use pliant_workloads::service::ServiceId;
//!
//! let config = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::Canneal], 42);
//! let mut sim = ColocationSim::new(config, &Catalog::default());
//! let obs = sim.advance(1.0);
//! assert!(obs.p99_latency_s > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod colocation;
pub mod interference;
pub mod queueing;
pub mod server;

pub use batch::BatchAppState;
pub use colocation::{ColocationConfig, ColocationSim, IntervalObservation};
pub use interference::InterferenceModel;
pub use queueing::LatencyModel;
pub use server::ServerSpec;
