//! Request-level discrete-event queue simulator.
//!
//! The analytic model in [`crate::queueing`] is fast enough to sweep hundreds of
//! co-location scenarios, but it is an approximation. This module provides a G/G/k queue
//! simulator that processes individual requests (Poisson arrivals, lognormal service
//! times, `k` parallel workers, FIFO queueing) and reports the empirical latency
//! distribution. Tests use it to validate the analytic model's shape; it is also exposed
//! for finer-grained experiments.

use std::collections::BinaryHeap;

use pliant_telemetry::histogram::LatencyHistogram;
use pliant_telemetry::rng::{sample_lognormal, seeded_rng};
use pliant_workloads::generator::OpenLoopGenerator;
use pliant_workloads::service::ServiceProfile;

/// Configuration of a discrete-event run.
#[derive(Debug, Clone, Copy)]
pub struct EventSimConfig {
    /// Offered load in queries per second.
    pub qps: f64,
    /// Number of parallel workers (cores).
    pub workers: u32,
    /// Capacity slowdown from interference (multiplies service times).
    pub capacity_slowdown: f64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Result of a discrete-event run.
#[derive(Debug, Clone)]
pub struct EventSimResult {
    /// Histogram of end-to-end request latencies in seconds.
    pub latencies: LatencyHistogram,
    /// Number of requests completed.
    pub completed: u64,
    /// Number of requests still queued or in service when the run ended.
    pub in_flight_at_end: u64,
}

impl EventSimResult {
    /// Empirical 99th-percentile latency in seconds.
    pub fn p99(&self) -> f64 {
        self.latencies.p99()
    }
}

/// Runs the G/G/k discrete-event simulation for one service model.
///
/// Requests arrive according to a Poisson process at `config.qps`; each requires a
/// lognormal service time derived from the service profile, inflated by the capacity
/// slowdown; `config.workers` workers serve the FIFO queue.
pub fn simulate(service: &ServiceProfile, config: &EventSimConfig) -> EventSimResult {
    let mut rng = seeded_rng(config.seed);
    let mut generator = OpenLoopGenerator::new(config.qps, config.seed.wrapping_add(1));
    let arrivals = generator.arrival_times_in(config.duration_s);

    // Min-heap of worker-free times (stored negated inside a max-heap).
    let mut workers: BinaryHeap<std::cmp::Reverse<u64>> = (0..config.workers)
        .map(|_| std::cmp::Reverse(0u64))
        .collect();
    // Times are quantized to nanoseconds for the heap ordering.
    let to_ns = |t: f64| (t * 1e9) as u64;
    let from_ns = |t: u64| t as f64 / 1e9;

    let mut latencies = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut in_flight_at_end = 0u64;

    // The per-request service time uses the profile's median service time scaled so that
    // `workers`× per-core rate matches the profile's saturation throughput; this keeps the
    // DES consistent with the analytic model's notion of capacity.
    let mean_service_s = config.capacity_slowdown / service.per_core_rate();
    let sigma = service.service_time_sigma.max(0.05);
    // Median of a lognormal with the desired mean: mean = median * exp(sigma^2 / 2).
    let median_service_s = mean_service_s / (sigma * sigma / 2.0).exp();

    for &arrival in &arrivals {
        // pliant-lint: allow(panic-hygiene): the heap is seeded with `cores >= 1`
        // entries and every pop is paired with a push below, so it is never empty.
        let std::cmp::Reverse(free_at) = workers.pop().expect("at least one worker");
        let start = from_ns(free_at).max(arrival);
        let service_time = sample_lognormal(&mut rng, median_service_s, sigma);
        let finish = start + service_time;
        if finish <= config.duration_s {
            latencies.record(finish - arrival);
            completed += 1;
        } else {
            in_flight_at_end += 1;
        }
        workers.push(std::cmp::Reverse(to_ns(finish)));
    }

    EventSimResult {
        latencies,
        completed,
        in_flight_at_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_workloads::service::ServiceId;

    fn config(qps: f64, workers: u32, slowdown: f64, seed: u64) -> EventSimConfig {
        EventSimConfig {
            qps,
            workers,
            capacity_slowdown: slowdown,
            duration_s: 2.0,
            seed,
        }
    }

    #[test]
    fn low_load_latency_is_near_service_time() {
        let svc = ServiceProfile::paper_default(ServiceId::MongoDb);
        let result = simulate(&svc, &config(svc.qps_at_load(0.2), 8, 1.0, 1));
        assert!(result.completed > 50);
        // At 20% load queueing should be negligible: p99 within a few times the mean
        // service time.
        let mean_service = 1.0 / svc.per_core_rate();
        assert!(result.p99() < mean_service * 4.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let svc = ServiceProfile::paper_default(ServiceId::MongoDb);
        let low = simulate(&svc, &config(svc.qps_at_load(0.3), 8, 1.0, 2)).p99();
        let high = simulate(&svc, &config(svc.qps_at_load(0.95), 8, 1.0, 2)).p99();
        assert!(
            high > low,
            "p99 at 95% load ({high}) must exceed p99 at 30% ({low})"
        );
    }

    #[test]
    fn overload_queues_requests() {
        let svc = ServiceProfile::paper_default(ServiceId::MongoDb);
        let result = simulate(&svc, &config(svc.qps_at_load(1.3), 8, 1.0, 3));
        assert!(result.in_flight_at_end > 0, "overload must leave a backlog");
    }

    #[test]
    fn slowdown_increases_latency_like_the_analytic_model() {
        let svc = ServiceProfile::paper_default(ServiceId::MongoDb);
        let clean = simulate(&svc, &config(svc.qps_at_load(0.75), 8, 1.0, 4)).p99();
        let contended = simulate(&svc, &config(svc.qps_at_load(0.75), 8, 1.4, 4)).p99();
        assert!(contended > clean);
    }

    #[test]
    fn more_workers_reduce_latency_under_contention() {
        let svc = ServiceProfile::paper_default(ServiceId::MongoDb);
        let eight = simulate(&svc, &config(svc.qps_at_load(0.85), 8, 1.3, 5)).p99();
        let eleven = simulate(&svc, &config(svc.qps_at_load(0.85), 11, 1.3, 5)).p99();
        assert!(eleven < eight);
    }

    #[test]
    fn deterministic_in_seed() {
        let svc = ServiceProfile::paper_default(ServiceId::MongoDb);
        let a = simulate(&svc, &config(svc.qps_at_load(0.5), 8, 1.0, 9));
        let b = simulate(&svc, &config(svc.qps_at_load(0.5), 8, 1.0, 9));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99(), b.p99());
    }
}
