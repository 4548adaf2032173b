//! Analytic open-loop tail-latency model.
//!
//! Interactive cloud services driven by open-loop load exhibit the classic hockey-stick
//! latency curve: tail latency is flat at low utilization and explodes as the offered load
//! approaches the service's (contention-derated) capacity. The model here combines a
//! lognormal service-time body with a utilization-dependent congestion factor
//! `1 / sqrt(1 - rho)` (capped near saturation), which reproduces that shape without
//! simulating every request.

use rand::rngs::SmallRng;

use pliant_telemetry::rng::{sample_lognormal, LatencySamples};
use pliant_workloads::service::ServiceProfile;

use serde::{Deserialize, Serialize};

/// z-score of the 99th percentile of the standard normal distribution.
const Z99: f64 = 2.326;

/// Analytic latency model with calibration constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Utilization cap: `rho` is clamped below this before the `1/sqrt(1-rho)` factor, so
    /// overload produces a large-but-finite violation (as observed over a finite interval).
    pub rho_cap: f64,
    /// Multiplicative lognormal noise (sigma) applied to each interval's p99 estimate,
    /// modelling run-to-run variability of tail measurements.
    pub interval_noise_sigma: f64,
    /// Probability per interval of a latency spike (GC pause, minor page fault storm,
    /// network hiccup) multiplying the tail by `spike_multiplier`.
    pub spike_probability: f64,
    /// Tail multiplier applied when a spike occurs.
    pub spike_multiplier: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            rho_cap: 0.98,
            interval_noise_sigma: 0.06,
            spike_probability: 0.015,
            spike_multiplier: 2.5,
        }
    }
}

/// Inputs for one interval's latency evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyInputs {
    /// Offered load in queries per second.
    pub qps: f64,
    /// Cores currently allocated to the interactive service.
    pub cores: u32,
    /// Capacity slowdown from interference (>= 1).
    pub capacity_slowdown: f64,
    /// Direct per-request latency inflation from interference (>= 1).
    pub direct_slowdown: f64,
}

impl LatencyModel {
    /// Service-time p99 (seconds) of the service in isolation at negligible load.
    pub fn base_p99(service: &ServiceProfile) -> f64 {
        service.base_service_time_s * (service.service_time_sigma * Z99).exp()
    }

    /// Utilization implied by the inputs.
    pub fn utilization(service: &ServiceProfile, inputs: &LatencyInputs) -> f64 {
        let capacity =
            service.per_core_rate() * inputs.cores as f64 / inputs.capacity_slowdown.max(1.0);
        if capacity <= 0.0 {
            return f64::INFINITY;
        }
        inputs.qps / capacity
    }

    /// Deterministic (noise-free) p99 tail latency in seconds for the given operating
    /// point.
    pub fn p99_deterministic(&self, service: &ServiceProfile, inputs: &LatencyInputs) -> f64 {
        let rho = Self::utilization(service, inputs);
        let congestion = 1.0 / (1.0 - rho.min(self.rho_cap)).max(1.0 - self.rho_cap).sqrt();
        Self::base_p99(service) * inputs.direct_slowdown.max(1.0) * congestion
    }

    /// p99 tail latency with per-interval measurement noise and occasional spikes.
    pub fn p99_with_noise(
        &self,
        service: &ServiceProfile,
        inputs: &LatencyInputs,
        rng: &mut SmallRng,
    ) -> f64 {
        let det = self.p99_deterministic(service, inputs);
        let noise = sample_lognormal(rng, 1.0, self.interval_noise_sigma);
        let spike = if rand::Rng::gen_range(rng, 0.0f64..1.0) < self.spike_probability {
            self.spike_multiplier
        } else {
            1.0
        };
        det * noise * spike
    }

    /// Replaces `out` with `n` per-request latency samples whose empirical p99 is
    /// approximately `p99_target` and whose body follows the service's lognormal shape.
    /// These are the samples Pliant's client-side performance monitor ingests.
    ///
    /// This is the hot-path entry point: [`LatencySamples`] draws the normals into the
    /// caller's reused buffer and maps only the samples something reads, which is what
    /// lets [`ColocationSim::advance_reusing`] run without per-interval allocations or
    /// `libm` calls in the sample loop.
    ///
    /// [`ColocationSim::advance_reusing`]: crate::colocation::ColocationSim::advance_reusing
    pub fn fill_samples(
        &self,
        service: &ServiceProfile,
        p99_target: f64,
        n: usize,
        rng: &mut SmallRng,
        out: &mut LatencySamples,
    ) {
        let sigma = service.service_time_sigma.max(0.05);
        let median = p99_target / (sigma * Z99).exp();
        out.fill(rng, median, sigma, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_telemetry::rng::seeded_rng;
    use pliant_telemetry::stats::exact_quantile;
    use pliant_workloads::service::ServiceId;

    fn inputs(
        service: &ServiceProfile,
        load: f64,
        cores: u32,
        cap: f64,
        direct: f64,
    ) -> LatencyInputs {
        LatencyInputs {
            qps: service.qps_at_load(load),
            cores,
            capacity_slowdown: cap,
            direct_slowdown: direct,
        }
    }

    /// `n` samples from [`LatencyModel::fill_samples`], mapped.
    fn sample(
        model: &LatencyModel,
        service: &ServiceProfile,
        p99_target: f64,
        n: usize,
        rng: &mut SmallRng,
    ) -> Vec<f64> {
        let mut out = LatencySamples::new();
        model.fill_samples(service, p99_target, n, rng, &mut out);
        out.iter().collect()
    }

    #[test]
    fn latency_is_monotone_in_load() {
        let model = LatencyModel::default();
        for id in ServiceId::all() {
            let svc = ServiceProfile::paper_default(id);
            let mut prev = 0.0;
            for load in [0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1] {
                let p = model.p99_deterministic(&svc, &inputs(&svc, load, 8, 1.0, 1.0));
                assert!(p >= prev, "{id}: p99 must not decrease with load");
                prev = p;
            }
        }
    }

    #[test]
    fn every_service_meets_qos_alone_at_high_load() {
        let model = LatencyModel::default();
        for id in ServiceId::all() {
            let svc = ServiceProfile::paper_default(id);
            let p = model.p99_deterministic(&svc, &inputs(&svc, 0.75, 8, 1.0, 1.0));
            assert!(
                p < svc.qos_target_s,
                "{id}: p99 {p} must be below QoS {} when running alone",
                svc.qos_target_s
            );
        }
    }

    #[test]
    fn every_service_violates_qos_beyond_saturation() {
        let model = LatencyModel::default();
        for id in ServiceId::all() {
            let svc = ServiceProfile::paper_default(id);
            let p = model.p99_deterministic(&svc, &inputs(&svc, 1.05, 8, 1.0, 1.0));
            assert!(p > svc.qos_target_s, "{id}: overload must violate QoS");
        }
    }

    #[test]
    fn contention_slowdown_raises_latency_and_cores_recover_it() {
        let model = LatencyModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Memcached);
        let clean = model.p99_deterministic(&svc, &inputs(&svc, 0.75, 8, 1.0, 1.0));
        let contended = model.p99_deterministic(&svc, &inputs(&svc, 0.75, 8, 1.45, 1.12));
        let with_cores = model.p99_deterministic(&svc, &inputs(&svc, 0.75, 12, 1.45, 1.12));
        assert!(contended > svc.qos_target_s, "contention must violate QoS");
        assert!(contended > clean * 1.5);
        assert!(with_cores < contended, "extra cores must reduce latency");
    }

    #[test]
    fn noise_stays_within_reason() {
        let model = LatencyModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Nginx);
        let det = model.p99_deterministic(&svc, &inputs(&svc, 0.75, 8, 1.0, 1.0));
        let mut rng = seeded_rng(7);
        for _ in 0..200 {
            let noisy = model.p99_with_noise(&svc, &inputs(&svc, 0.75, 8, 1.0, 1.0), &mut rng);
            assert!(
                noisy > det * 0.6 && noisy < det * 4.0,
                "noisy {noisy} vs det {det}"
            );
        }
    }

    #[test]
    fn sampled_latencies_match_target_p99() {
        let model = LatencyModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Memcached);
        let mut rng = seeded_rng(3);
        let target = 0.000_25;
        let samples = sample(&model, &svc, target, 20_000, &mut rng);
        let p99 = exact_quantile(&samples, 0.99).unwrap();
        assert!(
            (p99 - target).abs() / target < 0.10,
            "sampled p99 {p99} should approximate target {target}"
        );
    }

    #[test]
    fn sampled_latencies_are_always_finite_and_positive() {
        // The NaN-free contract at the monitor's sample-ingest boundary: whatever
        // operating point the simulator reaches (including overload tails and extreme
        // noise), the generated samples are finite positive latencies.
        let model = LatencyModel::default();
        let mut rng = seeded_rng(11);
        for id in ServiceId::all() {
            let svc = ServiceProfile::paper_default(id);
            for target in [1e-6, 1e-3, 0.5, 50.0] {
                let samples = sample(&model, &svc, target, 5_000, &mut rng);
                assert!(
                    samples.iter().all(|s| s.is_finite() && *s > 0.0),
                    "{id} at target {target}: every sample must be finite and positive"
                );
            }
        }
    }

    #[test]
    fn fill_samples_reuses_the_buffer() {
        let model = LatencyModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Memcached);
        let mut rng = seeded_rng(5);
        let mut buf = LatencySamples::new();
        model.fill_samples(&svc, 0.000_25, 1_000, &mut rng, &mut buf);
        assert_eq!(buf.len(), 1_000);
        let cap = buf.capacity();
        model.fill_samples(&svc, 0.000_25, 500, &mut rng, &mut buf);
        assert_eq!(buf.len(), 500, "refill must replace, not append");
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn interval_is_deterministic_in_seed() {
        let model = LatencyModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Nginx);
        let i = inputs(&svc, 0.8, 8, 1.2, 1.05);
        let interval = |seed: u64| {
            let mut rng = seeded_rng(seed);
            let p99 = model.p99_with_noise(&svc, &i, &mut rng);
            let samples = sample(&model, &svc, p99, 100, &mut rng);
            let bits: Vec<u64> = samples.iter().map(|s| s.to_bits()).collect();
            (p99.to_bits(), bits)
        };
        assert_eq!(interval(99), interval(99));
        assert_ne!(interval(99), interval(100));
    }

    #[test]
    fn zero_cores_is_infinite_utilization() {
        let svc = ServiceProfile::paper_default(ServiceId::Nginx);
        let i = LatencyInputs {
            qps: 1000.0,
            cores: 0,
            capacity_slowdown: 1.0,
            direct_slowdown: 1.0,
        };
        assert!(LatencyModel::utilization(&svc, &i).is_infinite());
    }
}
