//! Exponentially-weighted latency tracking.
//!
//! Pliant's performance monitor estimates each decision interval's tail latency from
//! the samples it selects that interval, and it maintains an EWMA of that tail to smooth
//! out single-interval noise when deciding whether to step approximation up or down.

use serde::{Deserialize, Serialize};

/// Exponentially-weighted moving average with a configurable smoothing factor.
///
/// # Example
///
/// ```
/// use pliant_telemetry::window::EwmaTracker;
///
/// let mut e = EwmaTracker::new(0.5);
/// e.observe(10.0);
/// e.observe(20.0);
/// assert!((e.value().unwrap() - 15.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EwmaTracker {
    alpha: f64,
    value: Option<f64>,
}

impl EwmaTracker {
    /// Creates a tracker with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// Larger `alpha` weights recent samples more heavily.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Feeds a new observation.
    pub fn observe(&mut self, sample: f64) {
        self.value = Some(match self.value {
            None => sample,
            Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
        });
    }

    /// Current smoothed value, or `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Resets the tracker to its initial (empty) state.
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// Smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = EwmaTracker::new(0.3);
        assert_eq!(e.value(), None);
        for _ in 0..200 {
            e.observe(7.0);
        }
        assert!((e.value().unwrap() - 7.0).abs() < 1e-9);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    fn ewma_alpha_one_tracks_last_sample() {
        let mut e = EwmaTracker::new(1.0);
        e.observe(3.0);
        e.observe(9.0);
        assert_eq!(e.value(), Some(9.0));
    }

    #[test]
    #[should_panic]
    fn ewma_invalid_alpha_panics() {
        let _ = EwmaTracker::new(0.0);
    }

    proptest! {
        #[test]
        fn prop_ewma_bounded_by_input_range(
            alpha in 0.01f64..1.0,
            values in proptest::collection::vec(0.0f64..1e3, 1..100),
        ) {
            let mut e = EwmaTracker::new(alpha);
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for v in &values {
                e.observe(*v);
                let x = e.value().unwrap();
                prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9);
            }
        }
    }
}
