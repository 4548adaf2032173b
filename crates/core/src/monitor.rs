//! The client-side performance monitor.
//!
//! The monitor resides on the client in the paper: it samples end-to-end request latency
//! (average and tail) adaptively so that it adds no measurable overhead to the interactive
//! service, and notifies the runtime when the tail exceeds the QoS target. Here it ingests
//! the per-interval latency samples produced by the co-location substrate, subsamples
//! them, and estimates the interval's p99 with a log-bucketed histogram.
//!
//! The estimator is streaming and allocation-free: the interval histogram is owned by the
//! monitor and reset between intervals (never reallocated), the subsample is chosen by
//! geometric skip-sampling (one logarithm per *selected* request instead of one uniform
//! draw per request), and recording a sample is O(1) bit manipulation. The skip gaps are
//! drawn in chunks of 32 so their logarithms run as one vectorized loop,
//! [`ln_unit_ratio`], over the branch-free
//! [`fast_ln_unit`](pliant_telemetry::fastmath::fast_ln_unit). That loop runs at AVX2
//! width when the CPU has it and with the same bits either way: it is IEEE-754
//! operations only, which Rust never contracts into fused multiply-adds. The selected
//! indices collect in a stack batch of up to 256; each batch is read with one
//! [`LatencySource::gather`], so a [`LatencySamples`] source maps only the samples the
//! monitor reads (or, once a fleet node has materialized it for its histogram, returns
//! the stored latencies), and recorded with one
//! [`LatencyHistogram::record_scaled_n`], whose AVX2 kernel buckets 64 values a step.
//! At the end of an interval the RNG is rewound to the last chunk's start and advanced
//! by exactly the gaps consumed, so the selection, the stream position and the
//! checkpointed [`MonitorState`] match drawing one gap per selection. Because the
//! histogram is the same [`LatencyHistogram`] (same bucket layout, same microsecond
//! scale) the cluster layer merges for fleet-level quantiles, per-interval monitor
//! histograms are exact-merge-compatible with fleet aggregation. The price of the
//! histogram estimator is quantization: the reported p99 can differ from the exact
//! sorted-order statistic of the ingested samples by at most one bucket width (~3%
//! relative; see [`LatencyHistogram::bucket_bounds`]), a bound the integration tests
//! pin across every service profile.

use serde::{Deserialize, Serialize};

use pliant_telemetry::histogram::LatencyHistogram;
use pliant_telemetry::rng::{seeded_rng, LatencySamples};
use pliant_telemetry::simd::ln_unit_ratio;
use pliant_telemetry::window::EwmaTracker;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Geometric gaps drawn per batch by the skip-sampler in
/// [`PerformanceMonitor::observe_interval`].
const GAP_CHUNK: usize = 32;

/// Samples read and recorded per batch: eight gap chunks, so a batch reaches the
/// histogram's 64-value vector step four times. The batch lives on the stack; the
/// monitor keeps no sample buffer of its own.
const RECORD_BATCH: usize = 8 * GAP_CHUNK;

/// An interval's latency samples, in seconds, as the monitor reads them.
///
/// The monitor reads a subsample by index, so a source that computes its values on read
/// ([`LatencySamples`]) computes only those. The skip-sampler collects up to 256
/// selected indices and reads them with one [`Self::gather`], which lets a computing
/// source map them in one vectorized loop.
pub trait LatencySource {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Whether there are no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample `i`.
    fn get(&self, i: usize) -> f64;

    /// Writes sample `indices[k]` to `out[k]` for every `k < indices.len()`.
    fn gather(&self, indices: &[usize], out: &mut [f64]);
}

impl LatencySource for [f64] {
    fn len(&self) -> usize {
        <[f64]>::len(self)
    }

    fn get(&self, i: usize) -> f64 {
        self[i]
    }

    fn gather(&self, indices: &[usize], out: &mut [f64]) {
        for (o, &i) in out[..indices.len()].iter_mut().zip(indices) {
            *o = self[i];
        }
    }
}

impl LatencySource for LatencySamples {
    fn len(&self) -> usize {
        LatencySamples::len(self)
    }

    fn get(&self, i: usize) -> f64 {
        LatencySamples::get(self, i)
    }

    fn gather(&self, indices: &[usize], out: &mut [f64]) {
        LatencySamples::gather(self, indices, out);
    }
}

/// Configuration of the performance monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Fraction of requests sampled when the service is comfortably within its QoS
    /// (lightweight steady-state sampling).
    pub base_sample_rate: f64,
    /// Fraction of requests sampled once latency approaches or exceeds the QoS target
    /// (adaptive escalation so violations are detected quickly and accurately).
    pub elevated_sample_rate: f64,
    /// Latency-to-QoS ratio above which the elevated sampling rate kicks in.
    pub escalation_ratio: f64,
    /// Smoothing factor of the EWMA over interval tail estimates.
    pub ewma_alpha: f64,
    /// QoS target in seconds.
    pub qos_target_s: f64,
}

impl MonitorConfig {
    /// Default monitor configuration for a service with the given QoS target.
    pub fn for_qos(qos_target_s: f64) -> Self {
        Self {
            base_sample_rate: 0.05,
            elevated_sample_rate: 0.25,
            escalation_ratio: 0.85,
            ewma_alpha: 0.6,
            qos_target_s,
        }
    }
}

/// Summary the monitor reports to the runtime at the end of each decision interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Estimated 99th-percentile latency of the interval, in seconds.
    pub p99_s: f64,
    /// Estimated mean latency of the interval, in seconds.
    pub mean_s: f64,
    /// Smoothed (EWMA) tail estimate across recent intervals, in seconds.
    pub smoothed_p99_s: f64,
    /// Number of requests actually sampled this interval.
    pub sampled: u64,
    /// Whether the interval violated the QoS target.
    pub qos_violated: bool,
    /// Latency slack relative to the QoS target (positive = headroom).
    pub slack_fraction: f64,
    /// True when the interval delivered no latency samples at all (e.g. zero arrivals at
    /// the trough of a diurnal profile). The report then carries the previous smoothed
    /// estimate with zero slack, and controllers hold their state: an idle gap is not
    /// evidence of headroom.
    pub no_signal: bool,
}

/// A monitor's mutable state: the value checkpoints carry.
///
/// The interval histogram is deliberately absent: it describes exactly one interval and
/// is reset at the start of every [`PerformanceMonitor::observe_interval`], so a restored
/// monitor reproduces the uninterrupted run bit-for-bit from its next interval onward.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorState {
    /// Sampling RNG.
    pub rng: SmallRng,
    /// The EWMA over interval tail estimates.
    pub ewma: EwmaTracker,
    /// Whether adaptive sampling is currently escalated.
    pub currently_elevated: bool,
}

/// The performance monitor.
#[derive(Debug, Clone)]
pub struct PerformanceMonitor {
    config: MonitorConfig,
    state: MonitorState,
    /// Interval histogram, reset (not reallocated) every interval.
    hist: LatencyHistogram,
    /// `ln(1 - base_sample_rate)`, precomputed for geometric skip-sampling.
    base_skip_ln: f64,
    /// `ln(1 - elevated_sample_rate)`, precomputed for geometric skip-sampling.
    elevated_skip_ln: f64,
}

impl PerformanceMonitor {
    /// Creates a monitor with the given configuration and sampling seed.
    pub fn new(config: MonitorConfig, seed: u64) -> Self {
        Self {
            config,
            state: MonitorState {
                rng: seeded_rng(seed),
                ewma: EwmaTracker::new(config.ewma_alpha),
                currently_elevated: false,
            },
            hist: LatencyHistogram::new(),
            base_skip_ln: (1.0 - config.base_sample_rate).ln(),
            elevated_skip_ln: (1.0 - config.elevated_sample_rate).ln(),
        }
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Current sampling rate (adaptive: escalates near or above the QoS target).
    pub fn sample_rate(&self) -> f64 {
        if self.state.currently_elevated {
            self.config.elevated_sample_rate
        } else {
            self.config.base_sample_rate
        }
    }

    /// The monitor's mutable state (the configuration is rebuilt from the scenario, the
    /// interval histogram from the next interval).
    pub fn state(&self) -> &MonitorState {
        &self.state
    }

    /// Restores state taken from [`Self::state`] onto a monitor built with the same
    /// configuration and seed, continuing every stream where it left off.
    ///
    /// # Errors
    ///
    /// Rejects an EWMA whose smoothing factor differs from the configured `ewma_alpha`.
    pub fn restore(&mut self, state: &MonitorState) -> Result<(), String> {
        if state.ewma.alpha() != self.config.ewma_alpha {
            return Err(format!(
                "EWMA alpha {} differs from the configured {}",
                state.ewma.alpha(),
                self.config.ewma_alpha
            ));
        }
        self.state.clone_from(state);
        self.hist.reset();
        Ok(())
    }

    /// Ingests one decision interval's end-to-end latency samples and produces the report
    /// the runtime acts on.
    pub fn observe_interval<S: LatencySource + ?Sized>(
        &mut self,
        latencies_s: &S,
    ) -> MonitorReport {
        // An interval without a single request (idle gap / load trough) used to fall
        // through the empty-histogram path as `p99 = 0, slack = 1.0` — maximal headroom
        // out of thin air, driving the controller to relax exactly when it should hold.
        // Report no-signal instead, holding the previous smoothed estimate and leaving
        // the EWMA and the adaptive sampling state untouched.
        if latencies_s.is_empty() {
            // The interval histogram describes *this* interval: an idle interval ingested
            // nothing, so it must read empty (a stale busy-interval histogram would be
            // double-counted by per-interval fleet merging).
            self.hist.reset();
            let held = self.state.ewma.value().unwrap_or(0.0);
            return MonitorReport {
                p99_s: held,
                mean_s: 0.0,
                smoothed_p99_s: held,
                sampled: 0,
                qos_violated: false,
                slack_fraction: 0.0,
                no_signal: true,
            };
        }
        let len = latencies_s.len();
        let rate = self.sample_rate();
        self.hist.reset();
        let mut sum = 0.0;
        let mut sampled = 0u64;
        if rate >= 1.0 {
            sum = self.record_all(latencies_s);
            sampled = len as u64;
        } else if rate > 0.0 {
            // Geometric skip-sampling: instead of one Bernoulli draw per request, jump
            // straight to the next selected request. The gap before each selection is
            // geometric with success probability `rate`, i.e.
            // `floor(ln(U) / ln(1 - rate))` — one uniform and one (polynomial) log per
            // *selected* request, ~1/rate times fewer draws than per-request thinning.
            // Statistically identical selection; non-finite samples are clamped to zero
            // exactly as `LatencyHistogram::record` does, so the ingest boundary is
            // NaN-free by construction.
            let ln_one_minus_rate = if self.state.currently_elevated {
                self.elevated_skip_ln
            } else {
                self.base_skip_ln
            };
            // Gaps are drawn GAP_CHUNK at a time: the uniforms first (the serial RNG
            // steps), then the logarithms and divisions in a separate loop whose
            // iterations are independent, then a walk that appends the selected
            // indices to a batch. A batch without room for another chunk, and the last
            // one, is read with one gather and recorded in order. The walk stops at the
            // first gap that jumps past the interval, usually mid-chunk; the RNG is
            // then rewound to the chunk's start and advanced by exactly the gaps
            // consumed, so the stream position matches drawing one gap per selection.
            let mut uniforms = [0.0f64; GAP_CHUNK];
            let mut gaps = [0.0f64; GAP_CHUNK];
            let mut picked = [0usize; RECORD_BATCH];
            let mut values = [0.0f64; RECORD_BATCH];
            let mut taken = 0usize;
            let mut next = 0usize;
            loop {
                if taken > RECORD_BATCH - GAP_CHUNK {
                    sum = self.record_batch(latencies_s, &picked[..taken], &mut values, sum);
                    sampled += taken as u64;
                    taken = 0;
                }
                let chunk_start = self.state.rng.clone();
                for u in uniforms.iter_mut() {
                    *u = 1.0 - self.state.rng.gen_range(0.0f64..1.0);
                }
                // 1 - unit uniform lies in [2^-53, 1], the domain of `fast_ln_unit`, so
                // the logarithm is finite and <= 0; the ratio of two non-positive finite
                // numbers is non-negative. Gaps stay `f64` here so the loop vectorizes
                // (AVX2 width when the CPU has it, same bits); the walk casts them,
                // saturating on the (bounded) maximum.
                ln_unit_ratio(&uniforms, ln_one_minus_rate, &mut gaps);
                let mut past_end = None;
                for (k, &gap) in gaps.iter().enumerate() {
                    let index = next + gap as usize;
                    if index >= len {
                        past_end = Some(k);
                        break;
                    }
                    picked[taken] = index;
                    taken += 1;
                    next = index + 1;
                }
                if let Some(last) = past_end {
                    self.state.rng = chunk_start;
                    for _ in 0..=last {
                        self.state.rng.next_u64();
                    }
                    break;
                }
            }
            sum = self.record_batch(latencies_s, &picked[..taken], &mut values, sum);
            sampled += taken as u64;
        }
        // Guard against an empty sample (tiny intervals at low load): fall back to the full
        // set, which the real monitor would also do by forcing a minimum sample count.
        let (p99_s, mean_s, sampled) = if sampled < 20 {
            self.hist.reset();
            let mean = self.record_all(latencies_s) / len as f64;
            (self.hist.p99() / 1e6, mean, len as u64)
        } else {
            (self.hist.p99() / 1e6, sum / sampled as f64, sampled)
        };

        self.state.ewma.observe(p99_s);
        let smoothed = self.state.ewma.value().unwrap_or(p99_s);
        self.state.currently_elevated =
            p99_s >= self.config.qos_target_s * self.config.escalation_ratio;

        MonitorReport {
            p99_s,
            mean_s,
            smoothed_p99_s: smoothed,
            sampled,
            qos_violated: p99_s > self.config.qos_target_s,
            slack_fraction: (self.config.qos_target_s - p99_s) / self.config.qos_target_s,
            no_signal: false,
        }
    }

    /// Records every sample into the interval histogram, with non-finite samples
    /// clamped to zero, and returns their sum in order. The samples are read and
    /// recorded `RECORD_BATCH` at a time.
    fn record_all<S: LatencySource + ?Sized>(&mut self, latencies_s: &S) -> f64 {
        let len = latencies_s.len();
        let mut indices = [0usize; RECORD_BATCH];
        let mut values = [0.0f64; RECORD_BATCH];
        let mut sum = 0.0;
        for start in (0..len).step_by(RECORD_BATCH) {
            let indices = &mut indices[..RECORD_BATCH.min(len - start)];
            for (k, index) in indices.iter_mut().enumerate() {
                *index = start + k;
            }
            sum = self.record_batch(latencies_s, indices, &mut values, sum);
        }
        sum
    }

    /// Reads the samples at `indices` with one [`LatencySource::gather`] into `values`,
    /// clamps the non-finite ones to zero, records them into the interval histogram in
    /// microseconds, and returns `sum` plus each sample, added in order.
    fn record_batch<S: LatencySource + ?Sized>(
        &mut self,
        latencies_s: &S,
        indices: &[usize],
        values: &mut [f64; RECORD_BATCH],
        mut sum: f64,
    ) -> f64 {
        let values = &mut values[..indices.len()];
        latencies_s.gather(indices, values);
        for l in values.iter_mut() {
            if !l.is_finite() {
                *l = 0.0;
            }
            sum += *l;
        }
        self.hist.record_scaled_n(values, 1e6, 1);
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_telemetry::fastmath::fast_ln;
    use pliant_telemetry::rng::sample_lognormal;

    fn synthetic_interval(median_s: f64, sigma: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| sample_lognormal(&mut rng, median_s, sigma))
            .collect()
    }

    #[test]
    fn detects_violation_and_slack() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 1);
        // Healthy interval: median 2 ms.
        let healthy = synthetic_interval(0.002, 0.3, 5_000, 2);
        let report = monitor.observe_interval(healthy.as_slice());
        assert!(
            !report.qos_violated,
            "p99 {} should be below 10 ms",
            report.p99_s
        );
        assert!(report.slack_fraction > 0.0);
        // Violating interval: median 8 ms → p99 well above 10 ms.
        let violating = synthetic_interval(0.008, 0.4, 5_000, 3);
        let report = monitor.observe_interval(violating.as_slice());
        assert!(report.qos_violated);
        assert!(report.slack_fraction < 0.0);
    }

    #[test]
    fn p99_estimate_tracks_true_percentile() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 4);
        let samples = synthetic_interval(0.003, 0.3, 20_000, 5);
        let mut sorted = samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let true_p99 = sorted[(0.99 * sorted.len() as f64) as usize];
        let report = monitor.observe_interval(samples.as_slice());
        assert!(
            (report.p99_s - true_p99).abs() / true_p99 < 0.20,
            "estimate {} vs true {true_p99}",
            report.p99_s
        );
    }

    #[test]
    fn sampling_escalates_near_qos() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 6);
        assert_eq!(monitor.sample_rate(), 0.05);
        let near_qos = synthetic_interval(0.0065, 0.3, 5_000, 7);
        let _ = monitor.observe_interval(near_qos.as_slice());
        assert_eq!(
            monitor.sample_rate(),
            0.25,
            "sampling should escalate near the QoS target"
        );
        let healthy = synthetic_interval(0.001, 0.3, 5_000, 8);
        let _ = monitor.observe_interval(healthy.as_slice());
        assert_eq!(
            monitor.sample_rate(),
            0.05,
            "sampling should relax when latency recovers"
        );
    }

    #[test]
    fn small_intervals_fall_back_to_full_sampling() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 9);
        let tiny = synthetic_interval(0.002, 0.3, 30, 10);
        let report = monitor.observe_interval(tiny.as_slice());
        assert_eq!(report.sampled, 30);
        assert!(report.p99_s > 0.0);
    }

    #[test]
    fn empty_interval_without_history_reports_no_signal() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 9);
        let report = monitor.observe_interval(&[] as &[f64]);
        assert!(report.no_signal);
        assert_eq!(report.p99_s, 0.0);
        assert_eq!(report.sampled, 0);
        assert!(!report.qos_violated);
        assert_eq!(
            report.slack_fraction, 0.0,
            "an idle gap must not read as maximal headroom"
        );
    }

    #[test]
    fn empty_interval_holds_the_previous_smoothed_estimate() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 9);
        let busy = synthetic_interval(0.004, 0.3, 5_000, 14);
        let before = monitor.observe_interval(busy.as_slice());
        let idle = monitor.observe_interval(&[] as &[f64]);
        assert!(idle.no_signal);
        assert_eq!(idle.p99_s, before.smoothed_p99_s);
        assert_eq!(idle.smoothed_p99_s, before.smoothed_p99_s);
        assert_eq!(idle.slack_fraction, 0.0, "no fresh slack evidence");
        // The EWMA and adaptive-sampling state are untouched by idle gaps.
        let after = monitor.observe_interval(busy.as_slice());
        assert!(after.smoothed_p99_s > 0.0);
    }

    #[test]
    fn non_finite_samples_cannot_panic_or_poison_the_estimate() {
        // The NaN-free contract at the sample-ingest boundary: the quantile path is
        // histogram-based (no partial_cmp), and non-finite samples clamp to zero like
        // `LatencyHistogram::record`, so a corrupted sample can neither panic the
        // monitor nor drag the mean or tail to NaN.
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 3);
        let mut samples = synthetic_interval(0.004, 0.3, 5_000, 8);
        samples[7] = f64::NAN;
        samples[19] = f64::INFINITY;
        samples[23] = f64::NEG_INFINITY;
        let report = monitor.observe_interval(samples.as_slice());
        assert!(report.p99_s.is_finite());
        assert!(report.mean_s.is_finite());
        assert!(report.smoothed_p99_s.is_finite());
        assert!(report.slack_fraction.is_finite());
        // The tiny-interval full-ingest fallback must hold the same contract.
        let report = monitor.observe_interval(&[f64::NAN, 0.002, f64::INFINITY, 0.003][..]);
        assert!(report.p99_s.is_finite());
        assert!(report.mean_s.is_finite());
    }

    /// The ingest the chunked, batched walk replaced, one `record` per sample: below
    /// rate 1, one uniform and one gap per selection, drawn only when needed; at rate 1,
    /// and when fewer than 20 were selected, every sample. Returns the interval's
    /// `(sampled, mean, p99)` and whether the skip-sampled selection was kept.
    fn one_gap_at_a_time(
        rng: &mut SmallRng,
        rate: f64,
        latencies_s: &[f64],
    ) -> (u64, f64, f64, bool) {
        let ln_one_minus_rate = (1.0 - rate).ln();
        let skip = |rng: &mut SmallRng| {
            let u = 1.0 - rng.gen_range(0.0f64..1.0);
            (fast_ln(u) / ln_one_minus_rate) as usize
        };
        let mut hist = LatencyHistogram::new();
        if rate < 1.0 {
            let (mut sum, mut sampled) = (0.0, 0u64);
            let mut index = skip(rng);
            while index < latencies_s.len() {
                let l = latencies_s[index];
                hist.record(l * 1e6);
                sum += l;
                sampled += 1;
                index += 1 + skip(rng);
            }
            if sampled >= 20 {
                return (sampled, sum / sampled as f64, hist.p99() / 1e6, true);
            }
            hist.reset();
        }
        let mut full_sum = 0.0;
        for &l in latencies_s {
            hist.record(l * 1e6);
            full_sum += l;
        }
        let n = latencies_s.len();
        (n as u64, full_sum / n as f64, hist.p99() / 1e6, false)
    }

    /// Every field of a report as bits, so `-0.0` and `0.0` differ.
    fn report_bits(r: &MonitorReport) -> [u64; 7] {
        [
            r.p99_s.to_bits(),
            r.mean_s.to_bits(),
            r.smoothed_p99_s.to_bits(),
            r.sampled,
            u64::from(r.qos_violated),
            r.slack_fraction.to_bits(),
            u64::from(r.no_signal),
        ]
    }

    #[test]
    fn chunked_gaps_are_bit_identical_to_one_gap_at_a_time() {
        // Lengths 1 and 31–33 take the `sampled < 20` full-ingest fallback at low rates.
        // Lengths 63–65 and 256–257 put those counts in one interval at rate 1, in the
        // fallback and, at rate 0.999, mostly in the skip-sampled walk: one short of,
        // at and one past the histogram's 64-value step and the 256-sample batch.
        let lengths = [1usize, 31, 32, 33, 63, 64, 65, 256, 257, 1_000, 5_000];
        // The sample counts each ingest path took: (rate 1, fallback, skip-sampled).
        let mut counts = [Vec::new(), Vec::new(), Vec::new()];
        for &rate in &[0.05, 0.25, 1.0, 1e-12, 0.999] {
            let config = MonitorConfig {
                base_sample_rate: rate,
                elevated_sample_rate: rate,
                ..MonitorConfig::for_qos(0.010)
            };
            for seed in 0..4u64 {
                let mut monitor = PerformanceMonitor::new(config, seed);
                // The same monitor reading the mapped samples from a plain slice, and
                // reading them after they were materialized in place.
                let mut over_slice = PerformanceMonitor::new(config, seed);
                let mut over_materialized = PerformanceMonitor::new(config, seed);
                let mut reference = seeded_rng(seed);
                let mut resumed: Option<PerformanceMonitor> = None;
                for round in 0..3u64 {
                    for (li, &len) in lengths.iter().enumerate() {
                        let mut samples = LatencySamples::new();
                        let mut sample_rng = seeded_rng(100 * round + li as u64);
                        samples.fill(&mut sample_rng, 0.003, 0.4, len);
                        let mapped: Vec<f64> = samples.iter().collect();
                        let report = monitor.observe_interval(&samples);
                        let at = format!("rate {rate} seed {seed} round {round} len {len}");
                        // Mapping on read selects and records exactly what the mapped
                        // vector would.
                        let slice_report = over_slice.observe_interval(mapped.as_slice());
                        assert_eq!(report_bits(&report), report_bits(&slice_report), "{at}");
                        assert_eq!(over_slice.state().rng, monitor.state().rng, "{at}");
                        let mut materialized = samples.clone();
                        materialized.materialize();
                        let materialized_report = over_materialized.observe_interval(&materialized);
                        assert_eq!(
                            report_bits(&report),
                            report_bits(&materialized_report),
                            "{at}"
                        );
                        let state = |m: &PerformanceMonitor| {
                            serde_json::to_string(m.state()).expect("serializable")
                        };
                        assert_eq!(state(&over_materialized), state(&monitor), "{at}");
                        let (sampled, mean, p99, skipped) =
                            one_gap_at_a_time(&mut reference, rate, &mapped);
                        assert_eq!(report.sampled, sampled, "{at}");
                        assert_eq!(report.mean_s.to_bits(), mean.to_bits(), "{at}");
                        assert_eq!(report.p99_s.to_bits(), p99.to_bits(), "{at}");
                        assert_eq!(monitor.state().rng, reference, "{at}");
                        let path = if rate >= 1.0 {
                            0
                        } else {
                            1 + usize::from(skipped)
                        };
                        counts[path].push(sampled);
                        // A monitor restored mid-run continues identically.
                        if let Some(twin) = resumed.as_mut() {
                            assert_eq!(twin.observe_interval(&samples), report, "{at}");
                            assert_eq!(twin.state().rng, monitor.state().rng, "{at}");
                        } else if round == 1 && li == 2 {
                            let mut twin = PerformanceMonitor::new(config, seed);
                            twin.restore(monitor.state()).expect("valid state");
                            resumed = Some(twin);
                        }
                    }
                }
            }
        }
        for (path, counts) in ["rate 1", "fallback", "skip-sampled"].iter().zip(&counts) {
            for edge in [63, 64, 65, 256, 257] {
                assert!(
                    counts.contains(&edge),
                    "{path} never ingested {edge} samples"
                );
            }
            assert!(
                counts.iter().any(|&n| n > 2 * 256),
                "{path} never filled two batches"
            );
        }
    }

    #[test]
    fn ewma_smooths_across_intervals() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 11);
        let low = synthetic_interval(0.002, 0.2, 5_000, 12);
        let high = synthetic_interval(0.006, 0.2, 5_000, 13);
        let r1 = monitor.observe_interval(low.as_slice());
        let r2 = monitor.observe_interval(high.as_slice());
        assert!(r2.smoothed_p99_s < r2.p99_s, "EWMA should lag the jump");
        assert!(r2.smoothed_p99_s > r1.p99_s);
    }
}
