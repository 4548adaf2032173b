//! Approximation design-space exploration and pareto-frontier variant selection.
//!
//! Pliant's instrumentation system explores each application's approximation design space
//! offline (§3 of the paper): every candidate configuration is run, its execution-time and
//! output-quality trade-off is measured against precise execution, configurations whose
//! inaccuracy exceeds the 5% tolerance are discarded, and the survivors closest to the
//! pareto-optimal frontier become the ordered variant list the runtime switches between.
//!
//! This crate drives the Rust kernels in `pliant-approx` through exactly that process and
//! can bridge the measured results into the runtime's [`pliant_approx::catalog`] form.
//!
//! # Example
//!
//! ```
//! use pliant_approx::kernels::minebench::kmeans::KMeansKernel;
//! use pliant_explore::{ExplorationConfig, explore_kernel};
//!
//! let kernel = KMeansKernel::small(7);
//! let result = explore_kernel(&kernel, &ExplorationConfig::default());
//! assert!(!result.measurements.is_empty());
//! // Selected variants are ordered from closest-to-precise to most aggressive.
//! let sel = result.selected_variants();
//! for pair in sel.windows(2) {
//!     assert!(pair[0].inaccuracy_pct <= pair[1].inaccuracy_pct);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bridge;
pub mod dse;
pub mod pareto;

pub use bridge::catalog_with_variants;
pub use dse::{explore_kernel, ExplorationConfig, ExplorationResult, Measurement};
pub use pareto::{pareto_frontier, PointKind};
