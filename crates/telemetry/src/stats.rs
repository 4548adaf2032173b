//! Streaming summary statistics.
//!
//! Welford-style online accumulation of mean/variance plus min/max, used wherever an
//! experiment needs a cheap scalar summary (per-interval execution progress, per-run
//! inaccuracy, DynamoRIO-overhead accounting, ...).

use serde::{Deserialize, Serialize};

/// Online accumulator for mean, variance, min, and max of a stream of `f64` samples.
///
/// # Example
///
/// ```
/// use pliant_telemetry::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample (unbiased) variance; 0.0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample (0.0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0.0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator (parallel-sweep reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Produces an immutable snapshot of the current statistics.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Immutable snapshot of an [`OnlineStats`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observed sample.
    pub min: f64,
    /// Maximum observed sample.
    pub max: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// Computes the exact quantile of a slice by sorting a copy (linear interpolation between
/// order statistics). Intended for offline analysis in the experiment harness, not for the
/// hot path.
///
/// Returns `None` for an empty slice. Values are ordered with [`f64::total_cmp`], so the
/// function is total on any input: NaNs sort after `+inf` (an input containing NaN
/// therefore reports NaN for quantiles that land on one) instead of the previous
/// `partial_cmp` formulation's unspecified ordering.
///
/// # Example
///
/// ```
/// use pliant_telemetry::stats::exact_quantile;
///
/// let v = vec![4.0, 1.0, 3.0, 2.0];
/// assert_eq!(exact_quantile(&v, 0.5), Some(2.5));
/// ```
pub fn exact_quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An accumulator that pushed every value of `values`, in order.
    fn from_slice(values: &[f64]) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn known_mean_and_variance() {
        let s = from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; unbiased sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 / 7.0).collect();
        let (left, right) = data.split_at(200);
        let mut a = from_slice(left);
        let b = from_slice(right);
        a.merge(&b);
        let all = from_slice(&data);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = from_slice(&[1.0, 2.0, 3.0]);
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary(), before);

        let mut empty = OnlineStats::new();
        empty.merge(&from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(empty.count(), 3);
    }

    #[test]
    fn exact_quantile_basics() {
        assert_eq!(exact_quantile(&[], 0.5), None);
        assert_eq!(exact_quantile(&[7.0], 0.99), Some(7.0));
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((exact_quantile(&v, 0.99).unwrap() - 99.01).abs() < 1e-9);
        assert!((exact_quantile(&v, 0.0).unwrap() - 1.0).abs() < 1e-9);
        assert!((exact_quantile(&v, 1.0).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn exact_quantile_is_total_on_nan_inputs() {
        // Regression for the NaN-panicking partial_cmp formulation: a NaN in the input
        // must not panic, must not disturb quantiles below its (last) sort position, and
        // must surface as NaN only at the top.
        let v = vec![3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(exact_quantile(&v, 0.0), Some(1.0));
        // NaN sorts last, so the finite order statistics are [1, 2, 3, NaN] and the
        // median interpolates between 2 and 3.
        assert!((exact_quantile(&v, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!(exact_quantile(&v, 1.0).unwrap().is_nan());
    }

    #[test]
    fn summary_display_is_nonempty() {
        let s = from_slice(&[1.0, 2.0]).summary();
        assert!(!format!("{s}").is_empty());
    }

    proptest! {
        #[test]
        fn prop_mean_within_min_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = from_slice(&values);
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn prop_merge_order_independent(
            a in proptest::collection::vec(-1e3f64..1e3, 1..100),
            b in proptest::collection::vec(-1e3f64..1e3, 1..100),
        ) {
            let mut ab = from_slice(&a);
            ab.merge(&from_slice(&b));
            let mut ba = from_slice(&b);
            ba.merge(&from_slice(&a));
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-6);
            prop_assert!((ab.variance() - ba.variance()).abs() < 1e-4);
            prop_assert_eq!(ab.count(), ba.count());
        }
    }
}
