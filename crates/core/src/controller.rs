//! The single-application runtime algorithm (Fig. 3 of the paper).
//!
//! Execution starts in precise mode with a fair core allocation. On a QoS violation the
//! controller first jumps the co-scheduled application to its **most** approximate variant
//! (to avoid prolonged degradation); if the violation persists it reclaims cores from the
//! application, one per decision interval. When QoS is met with more than 10% latency
//! slack, the controller first returns reclaimed cores, then steps the application back
//! toward precise execution one variant at a time. If the application is running at an
//! intermediate approximation degree when a violation occurs, it immediately reverts to
//! the most approximate variant.
//!
//! [`MultiAppController`](crate::multi::MultiAppController) runs this algorithm: with
//! one application its round-robin arbitration reduces to exactly the steps above. This
//! module holds its configuration.

use serde::{Deserialize, Serialize};

/// Configuration of the Pliant controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Decision interval in seconds (1 s by default, studied in Fig. 9).
    pub decision_interval_s: f64,
    /// Latency-slack threshold above which the controller relaxes approximation or returns
    /// cores (10% in the paper, §4.3).
    pub slack_threshold: f64,
    /// Number of consecutive high-slack intervals required before the controller relaxes
    /// (returns a core or steps toward precise). The paper notes that acting on every
    /// single high-slack interval causes ping-ponging between states; a short streak
    /// requirement is the hysteresis that prevents it.
    pub consecutive_slack_required: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            decision_interval_s: 1.0,
            slack_threshold: 0.10,
            consecutive_slack_required: 2,
        }
    }
}
