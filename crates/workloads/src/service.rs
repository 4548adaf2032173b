//! Calibrated models of the three interactive services.

use serde::{Deserialize, Serialize};

/// Which interactive service is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServiceId {
    /// NGINX front-end web server.
    Nginx,
    /// memcached in-memory key-value store.
    Memcached,
    /// MongoDB persistent NoSQL database.
    MongoDb,
}

impl ServiceId {
    /// All three services, in the order the paper lists them.
    pub fn all() -> [ServiceId; 3] {
        [ServiceId::Nginx, ServiceId::Memcached, ServiceId::MongoDb]
    }

    /// Lower-case name used in figures and output rows.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceId::Nginx => "nginx",
            ServiceId::Memcached => "memcached",
            ServiceId::MongoDb => "mongodb",
        }
    }

    /// The latency unit the paper uses when reporting this service (for display only; all
    /// internal computation is in seconds).
    pub fn display_unit(&self) -> &'static str {
        match self {
            ServiceId::Nginx => "ms",
            ServiceId::Memcached => "us",
            ServiceId::MongoDb => "ms",
        }
    }

    /// Converts a latency in seconds into the service's display unit.
    pub fn to_display_unit(&self, latency_s: f64) -> f64 {
        match self {
            ServiceId::Nginx | ServiceId::MongoDb => latency_s * 1e3,
            ServiceId::Memcached => latency_s * 1e6,
        }
    }
}

impl std::fmt::Display for ServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Calibrated model of one interactive service.
///
/// The profile captures what the Pliant runtime and the co-location simulator need to
/// know: the QoS target, the latency/throughput behaviour in isolation, and how sensitive
/// the service is to contention in each shared resource. The calibration follows the
/// paper's experimental-methodology section (§5) and the load-sweep observations of Fig. 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// Which service this profile models.
    pub id: ServiceId,
    /// Tail-latency (99th percentile) QoS target, in seconds.
    pub qos_target_s: f64,
    /// Median request service time at low load without interference, in seconds.
    pub base_service_time_s: f64,
    /// Lognormal shape parameter of the service-time distribution.
    pub service_time_sigma: f64,
    /// Throughput (queries per second) at the knee of the latency/throughput curve when
    /// running alone on its fair-share core allocation.
    pub saturation_qps: f64,
    /// Fair-share core allocation the saturation figure was measured at.
    pub fair_share_cores: u32,
    /// Sensitivity in `[0, 1]` of the service's compute path to core/SMT contention.
    pub cpu_sensitivity: f64,
    /// Sensitivity in `[0, 1]` to last-level-cache contention.
    pub llc_sensitivity: f64,
    /// Sensitivity in `[0, 1]` to memory-bandwidth contention.
    pub membw_sensitivity: f64,
    /// Fraction of each request spent in I/O (insensitive to CPU/cache contention).
    pub io_fraction: f64,
    /// The service's own LLC working set, in MiB.
    pub llc_footprint_mb: f64,
    /// The service's own memory-bandwidth demand at saturation, in GiB/s.
    pub membw_gbps: f64,
}

impl ServiceProfile {
    /// The paper-calibrated profile of a service.
    pub fn paper_default(id: ServiceId) -> Self {
        match id {
            // NGINX: 10 ms QoS; QoS met in precise colocation only up to ~340 K QPS (48% of
            // load), so saturation is ~700 K QPS; sensitive to compute and LLC contention.
            ServiceId::Nginx => Self {
                id,
                qos_target_s: 0.010,
                base_service_time_s: 0.0020,
                service_time_sigma: 0.29,
                saturation_qps: 700_000.0,
                fair_share_cores: 8,
                cpu_sensitivity: 0.80,
                llc_sensitivity: 0.70,
                membw_sensitivity: 0.50,
                io_fraction: 0.05,
                llc_footprint_mb: 9.0,
                membw_gbps: 7.0,
            },
            // memcached: 200 µs QoS; the strictest QoS and the highest sensitivity to
            // interference of the three services.
            ServiceId::Memcached => Self {
                id,
                qos_target_s: 0.000_200,
                base_service_time_s: 0.000_055,
                service_time_sigma: 0.16,
                saturation_qps: 600_000.0,
                fair_share_cores: 8,
                cpu_sensitivity: 0.92,
                llc_sensitivity: 0.90,
                membw_sensitivity: 0.72,
                io_fraction: 0.0,
                llc_footprint_mb: 13.0,
                membw_gbps: 9.0,
            },
            // MongoDB: 100 ms QoS; I/O-bound (178 GB on-disk dataset), so it is the least
            // sensitive to CPU/LLC contention and tolerates precise co-runners until high
            // load (~77% per Fig. 8).
            ServiceId::MongoDb => Self {
                id,
                qos_target_s: 0.100,
                base_service_time_s: 0.028,
                service_time_sigma: 0.12,
                saturation_qps: 400.0,
                fair_share_cores: 8,
                cpu_sensitivity: 0.50,
                llc_sensitivity: 0.60,
                membw_sensitivity: 0.45,
                io_fraction: 0.55,
                llc_footprint_mb: 6.0,
                membw_gbps: 3.0,
            },
        }
    }

    /// Per-core service rate (requests per second per core) implied by the saturation
    /// throughput and the fair-share core count.
    pub fn per_core_rate(&self) -> f64 {
        self.saturation_qps / self.fair_share_cores as f64
    }

    /// The highest offered load the generator will actually run at, as a multiple of
    /// saturation throughput: [`Self::qps_at_load`] clamps here, and the co-location
    /// simulator records offered loads after the same clamp so archived statistics never
    /// claim an operating point the simulation did not run at.
    pub const MAX_OFFERED_LOAD: f64 = 1.2;

    /// Queries-per-second corresponding to a fraction of the saturation load.
    ///
    /// The paper runs interactive services at 75–80% of saturation unless a load sweep is
    /// being performed. Fractions are clamped to `[0, MAX_OFFERED_LOAD]`.
    pub fn qps_at_load(&self, load_fraction: f64) -> f64 {
        self.saturation_qps * load_fraction.clamp(0.0, Self::MAX_OFFERED_LOAD)
    }

    /// The QoS target expressed in the service's display unit (ms for NGINX and MongoDB,
    /// µs for memcached).
    pub fn qos_target_display(&self) -> f64 {
        self.id.to_display_unit(self.qos_target_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_qos_targets() {
        assert_eq!(
            ServiceProfile::paper_default(ServiceId::Nginx).qos_target_display(),
            10.0
        );
        assert_eq!(
            ServiceProfile::paper_default(ServiceId::Memcached).qos_target_display(),
            200.0
        );
        assert_eq!(
            ServiceProfile::paper_default(ServiceId::MongoDb).qos_target_display(),
            100.0
        );
    }

    #[test]
    fn memcached_is_most_sensitive() {
        let memcached = ServiceProfile::paper_default(ServiceId::Memcached);
        for other in [ServiceId::Nginx, ServiceId::MongoDb].map(ServiceProfile::paper_default) {
            assert!(memcached.llc_sensitivity >= other.llc_sensitivity);
            assert!(memcached.cpu_sensitivity >= other.cpu_sensitivity);
        }
    }

    #[test]
    fn mongodb_is_io_bound_and_least_sensitive() {
        let mongo = ServiceProfile::paper_default(ServiceId::MongoDb);
        let nginx = ServiceProfile::paper_default(ServiceId::Nginx);
        assert!(mongo.io_fraction > 0.5);
        assert!(mongo.llc_sensitivity < nginx.llc_sensitivity);
        assert!(mongo.cpu_sensitivity < nginx.cpu_sensitivity);
    }

    #[test]
    fn base_latency_well_below_qos() {
        for p in ServiceId::all().map(ServiceProfile::paper_default) {
            assert!(
                p.base_service_time_s < p.qos_target_s / 2.0,
                "{}: base latency must leave headroom below QoS",
                p.id
            );
        }
    }

    #[test]
    fn load_helpers() {
        let p = ServiceProfile::paper_default(ServiceId::Nginx);
        assert_eq!(p.qps_at_load(0.5), 350_000.0);
        assert!(p.per_core_rate() > 0.0);
        // Load is clamped to a sane range.
        assert_eq!(p.qps_at_load(5.0), p.qps_at_load(1.2));
        assert_eq!(p.qps_at_load(-1.0), 0.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(ServiceId::Nginx.display_unit(), "ms");
        assert_eq!(ServiceId::Memcached.display_unit(), "us");
        assert_eq!(ServiceId::Memcached.to_display_unit(0.000_2), 200.0);
        assert_eq!(ServiceId::MongoDb.to_display_unit(0.1), 100.0);
        assert_eq!(ServiceId::Nginx.to_string(), "nginx");
        assert_eq!(ServiceId::all().len(), 3);
    }
}
