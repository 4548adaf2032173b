//! Distribution summaries matching the paper's violin plots (Fig. 7).
//!
//! A [`ViolinSummary`] captures the min/max whiskers, quartiles, mean, and a smoothed
//! density profile for a set of samples, which is exactly what is needed to regenerate the
//! violin plots comparing 1-, 2-, and 3-way colocations.

use serde::{Deserialize, Serialize};

use crate::stats::exact_quantile;

/// Summary of a sample distribution: extremes, quartiles, mean, and a kernel-density
/// profile evaluated on a uniform grid.
///
/// # Example
///
/// ```
/// use pliant_telemetry::violin::ViolinSummary;
///
/// let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let v = ViolinSummary::from_samples("latency", &samples, 16);
/// assert_eq!(v.count, 100);
/// assert!(v.min <= v.q1 && v.q1 <= v.median && v.median <= v.q3 && v.q3 <= v.max);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ViolinSummary {
    /// Label of the metric (e.g. "tail latency / QoS").
    pub label: String,
    /// Number of samples summarized.
    pub count: usize,
    /// Minimum sample (lower whisker / violin limit).
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum sample (upper whisker / violin limit).
    pub max: f64,
    /// Sample mean.
    pub mean: f64,
    /// Grid positions (values) at which the density profile is evaluated.
    pub grid: Vec<f64>,
    /// Relative density at each grid position, normalized to a maximum of 1.0.
    pub density: Vec<f64>,
}

impl ViolinSummary {
    /// Builds a summary from raw samples.
    ///
    /// `grid_points` controls the resolution of the density profile; values below 2 are
    /// clamped to 2. Returns a degenerate all-zero summary when `samples` is empty.
    pub fn from_samples(label: impl Into<String>, samples: &[f64], grid_points: usize) -> Self {
        let label = label.into();
        if samples.is_empty() {
            return Self {
                label,
                count: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
                grid: Vec::new(),
                density: Vec::new(),
            };
        }
        let grid_points = grid_points.max(2);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let q1 = exact_quantile(samples, 0.25).unwrap_or(min);
        let median = exact_quantile(samples, 0.50).unwrap_or(mean);
        let q3 = exact_quantile(samples, 0.75).unwrap_or(max);

        // Gaussian kernel density on a uniform grid; Silverman's rule-of-thumb bandwidth.
        let n = samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n.max(1.0);
        let sd = var.sqrt();
        let span = (max - min).max(1e-12);
        let bandwidth = if sd > 0.0 {
            1.06 * sd * n.powf(-0.2)
        } else {
            span / grid_points as f64
        }
        .max(span / (4.0 * grid_points as f64));

        let mut grid = Vec::with_capacity(grid_points);
        let mut density = Vec::with_capacity(grid_points);
        for i in 0..grid_points {
            let x = min + span * i as f64 / (grid_points - 1) as f64;
            let mut d = 0.0;
            for &s in samples {
                let z = (x - s) / bandwidth;
                d += (-0.5 * z * z).exp();
            }
            grid.push(x);
            density.push(d);
        }
        let dmax = density.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        for d in &mut density {
            *d /= dmax;
        }

        Self {
            label,
            count: samples.len(),
            min,
            q1,
            median,
            q3,
            max,
            mean,
            grid,
            density,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_samples_give_degenerate_summary() {
        let v = ViolinSummary::from_samples("x", &[], 8);
        assert_eq!(v.count, 0);
        assert_eq!(v.max - v.min, 0.0);
        assert!(v.grid.is_empty());
    }

    #[test]
    fn quartiles_ordered_and_in_range() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 31) % 97) as f64).collect();
        let v = ViolinSummary::from_samples("lat", &samples, 32);
        assert!(v.min <= v.q1);
        assert!(v.q1 <= v.median);
        assert!(v.median <= v.q3);
        assert!(v.q3 <= v.max);
        assert!(v.mean >= v.min && v.mean <= v.max);
        assert_eq!(v.grid.len(), 32);
        assert_eq!(v.density.len(), 32);
    }

    #[test]
    fn density_normalized_to_one() {
        let samples: Vec<f64> = (0..200).map(|i| (i as f64 / 10.0).sin() + 2.0).collect();
        let v = ViolinSummary::from_samples("lat", &samples, 24);
        let dmax = v.density.iter().cloned().fold(0.0f64, f64::max);
        assert!((dmax - 1.0).abs() < 1e-9);
        assert!(v.density.iter().all(|d| *d >= 0.0 && *d <= 1.0 + 1e-9));
    }

    #[test]
    fn constant_samples_are_handled() {
        let v = ViolinSummary::from_samples("const", &[5.0; 50], 8);
        assert_eq!(v.min, 5.0);
        assert_eq!(v.max, 5.0);
        assert_eq!(v.q3 - v.q1, 0.0);
        assert!(v.density.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn narrower_distribution_has_smaller_iqr() {
        let wide: Vec<f64> = (0..300).map(|i| (i % 100) as f64).collect();
        let narrow: Vec<f64> = (0..300).map(|i| 50.0 + (i % 10) as f64).collect();
        let vw = ViolinSummary::from_samples("wide", &wide, 16);
        let vn = ViolinSummary::from_samples("narrow", &narrow, 16);
        assert!(vn.q3 - vn.q1 < vw.q3 - vw.q1);
        assert!(vn.max - vn.min < vw.max - vw.min);
    }

    proptest! {
        #[test]
        fn prop_summary_invariants(samples in proptest::collection::vec(0.0f64..1e4, 1..300)) {
            let v = ViolinSummary::from_samples("p", &samples, 16);
            prop_assert_eq!(v.count, samples.len());
            prop_assert!(v.min <= v.median && v.median <= v.max);
            prop_assert!(v.q1 <= v.q3);
            prop_assert!(v.max - v.min >= 0.0);
            prop_assert!(v.density.iter().all(|d| d.is_finite()));
        }
    }
}
