//! Time-series recording for dynamic-behaviour experiments.
//!
//! The paper's Fig. 4 and Fig. 6 plot tail latency, reclaimed cores, and the active
//! approximate variant over wall-clock time. The experiment harness records one
//! [`TimePoint`] per decision interval into a [`TimeSeries`] and the figure binaries dump
//! the series as CSV/JSON rows.

use serde::{Deserialize, Serialize};

/// A single labelled sample in a time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Time of the sample, in seconds since the start of the experiment.
    pub time_s: f64,
    /// Sample value (unit depends on the series).
    pub value: f64,
}

/// A named sequence of [`TimePoint`]s.
///
/// # Example
///
/// ```
/// use pliant_telemetry::series::TimeSeries;
///
/// let mut s = TimeSeries::new("p99_latency_ms");
/// s.push(0.0, 4.2);
/// s.push(1.0, 5.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.values(), vec![4.2, 5.0]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Creates an empty series pre-sized for `capacity` points, for recording loops
    /// whose length is known up front (e.g. one point per decision interval).
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            points: Vec::with_capacity(capacity),
        }
    }

    /// Name of the series.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, time_s: f64, value: f64) {
        self.points.push(TimePoint { time_s, value });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The recorded points, in insertion order.
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// Values only, in insertion order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.value).collect()
    }
}

/// A bundle of related time series captured by one experiment run (e.g. tail latency +
/// reclaimed cores + active variant index).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceBundle {
    series: Vec<TimeSeries>,
}

impl TraceBundle {
    /// Creates an empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a series to the bundle.
    pub fn insert(&mut self, series: TimeSeries) {
        self.series.push(series);
    }

    /// Looks up a series by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// All series in insertion order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Number of series held.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the bundle holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_basic_accessors() {
        let mut s = TimeSeries::new("lat");
        assert!(s.is_empty());
        s.push(0.0, 10.0);
        s.push(1.0, 30.0);
        s.push(2.0, 20.0);
        assert_eq!(s.name(), "lat");
        assert_eq!(s.len(), 3);
        assert_eq!(s.values(), vec![10.0, 30.0, 20.0]);
    }

    #[test]
    fn bundle_lookup_by_name() {
        let mut b = TraceBundle::new();
        assert!(b.is_empty());
        b.insert(TimeSeries::new("a"));
        b.insert(TimeSeries::new("b"));
        assert_eq!(b.len(), 2);
        assert!(b.get("a").is_some());
        assert!(b.get("missing").is_none());
        assert_eq!(b.series()[1].name(), "b");
    }
}
