//! Telemetry primitives for the Pliant reproduction.
//!
//! This crate provides the measurement substrate every other crate builds on:
//!
//! * [`histogram::LatencyHistogram`] — a log-bucketed histogram with percentile queries,
//!   used by the performance monitor to estimate tail latency (p99).
//! * [`stats`] — streaming summary statistics (mean/variance/min/max) and
//!   [`stats::Summary`] snapshots.
//! * [`window`] — the exponentially-weighted tail tracker the monitor smooths its
//!   interval p99 with.
//! * [`series`] — a time-series recorder used by the experiment harness to regenerate the
//!   paper's dynamic-behaviour figures (Fig. 4 and Fig. 6).
//! * [`violin`] — distribution summaries (min/max/quartiles/density) matching the violin
//!   plots of Fig. 7.
//! * [`simd`] — the latency-sample map, the skip-sampling gap logarithms and the
//!   histogram's bucketing of recorded samples, run at AVX2 width when the CPU has it
//!   and with the same bits either way.
//! * [`rng`] — deterministic random-number helpers and the samplers (exponential, Poisson,
//!   lognormal, Pareto) the workload generators and queueing models rely on.
//! * [`obs`] — the deterministic tracing subsystem: typed sim-time [`obs::Event`]s,
//!   per-source ring buffers, counter registries, and the JSONL / Chrome-trace sinks
//!   behind the `--trace` flags and the `pliant-trace` CLI.
//!
//! # Example
//!
//! ```
//! use pliant_telemetry::histogram::LatencyHistogram;
//!
//! let mut h = LatencyHistogram::new();
//! for i in 1..=1000u64 {
//!     h.record(i as f64);
//! }
//! let p99 = h.percentile(0.99);
//! assert!(p99 >= 980.0 && p99 <= 1000.0);
//! ```

#![warn(missing_docs)]
// `simd` calls its AVX2 builds after a runtime feature check; no other module may use
// `unsafe` (the pliant-lint `unsafe-scope` rule pins it to that one file).
#![deny(unsafe_code)]

pub mod fastmath;
pub mod histogram;
pub mod obs;
pub mod rng;
pub mod series;
#[allow(unsafe_code)]
pub mod simd;
pub mod stats;
pub mod violin;
pub mod window;

pub use histogram::LatencyHistogram;
pub use series::{TimePoint, TimeSeries};
pub use stats::{OnlineStats, Summary};
pub use violin::ViolinSummary;
pub use window::EwmaTracker;
