//! Shared-resource interference model.
//!
//! Co-located applications contend in the last-level cache, memory bandwidth, and (to a
//! lesser degree, because containers are pinned to disjoint physical cores) the uncore and
//! SMT resources. The model converts the co-runners' [`ResourcePressure`] into two
//! multipliers for the interactive service — one that derates its request-processing
//! capacity and one that directly inflates per-request latency — plus a slowdown factor for
//! the batch applications themselves.
//!
//! The functional forms are deliberately simple (occupancy-ratio power laws and a
//! bandwidth-saturation hinge); the constants are calibrated so the co-location outcomes
//! reproduce the paper's qualitative results (see the crate-level tests and DESIGN.md).

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::ResourcePressure;
use pliant_workloads::service::ServiceProfile;

use crate::server::ServerSpec;

/// Tunable constants of the interference model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(validate = "InterferenceModel::validate")]
pub struct InterferenceModel {
    /// Coefficient of the LLC-occupancy penalty.
    pub llc_coeff: f64,
    /// Exponent of the LLC-occupancy penalty (values > 1 make small footprints cheap).
    pub llc_exponent: f64,
    /// Coefficient of the core/SMT/uncore contention penalty.
    pub cpu_coeff: f64,
    /// Memory-bandwidth utilization above which the bandwidth penalty starts.
    pub membw_threshold: f64,
    /// Coefficient of the memory-bandwidth penalty past the threshold.
    pub membw_coeff: f64,
    /// Exponent applied to the capacity slowdown to obtain the direct (per-request) latency
    /// inflation; interactive services queue more than they slow down, so this is < 1.
    pub direct_exponent: f64,
    /// Sensitivity of batch applications to the total footprint of their co-runners.
    pub batch_sensitivity: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        Self {
            llc_coeff: 1.3,
            llc_exponent: 1.5,
            cpu_coeff: 0.045,
            membw_threshold: 0.5,
            membw_coeff: 0.6,
            direct_exponent: 0.3,
            batch_sensitivity: 0.15,
        }
    }
}

/// Why an [`InterferenceModel`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterferenceModelError {
    /// A coefficient is negative or not finite (a negative coefficient produces
    /// slowdowns below 1.0, i.e. contention that speeds the service up).
    InvalidCoefficient(&'static str),
    /// The LLC exponent is non-positive or not finite.
    InvalidLlcExponent,
    /// The bandwidth-saturation threshold is outside `[0, 1)` — the hinge normalizes
    /// by `1 - membw_threshold`, so a threshold at or above 1.0 divides by zero (or
    /// flips the penalty's sign).
    InvalidMembwThreshold,
    /// The direct-latency exponent is outside `[0, 1]` (interactive services queue
    /// more than they slow down, so the direct inflation must not exceed the capacity
    /// slowdown).
    InvalidDirectExponent,
}

impl std::fmt::Display for InterferenceModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterferenceModelError::InvalidCoefficient(name) => {
                write!(f, "`{name}` must be finite and non-negative")
            }
            InterferenceModelError::InvalidLlcExponent => {
                f.write_str("`llc_exponent` must be positive and finite")
            }
            InterferenceModelError::InvalidMembwThreshold => {
                f.write_str("`membw_threshold` must lie in [0, 1)")
            }
            InterferenceModelError::InvalidDirectExponent => {
                f.write_str("`direct_exponent` must lie in [0, 1]")
            }
        }
    }
}

impl std::error::Error for InterferenceModelError {}

/// Contention outcome for one decision interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionOutcome {
    /// Multiplier (>= 1) on the interactive service's per-request work; derates capacity.
    pub service_capacity_slowdown: f64,
    /// Multiplier (>= 1) applied directly to the service's base latency.
    pub service_direct_slowdown: f64,
    /// Multiplier (>= 1) on each batch application's execution time.
    pub batch_slowdown: f64,
    /// Total LLC occupancy of the co-runners in MiB (diagnostic).
    pub corunner_llc_mb: f64,
    /// Total memory-bandwidth utilization of the node in `[0, ..]` (diagnostic).
    pub membw_utilization: f64,
}

impl InterferenceModel {
    /// Checks the model's invariants (see [`InterferenceModelError`]). Construction
    /// from serde runs this automatically; hand-built models are re-checked at the
    /// simulator boundary ([`ColocationSim::new`](crate::colocation::ColocationSim::new)).
    pub fn validate(&self) -> Result<(), InterferenceModelError> {
        for (name, value) in [
            ("llc_coeff", self.llc_coeff),
            ("cpu_coeff", self.cpu_coeff),
            ("membw_coeff", self.membw_coeff),
            ("batch_sensitivity", self.batch_sensitivity),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(InterferenceModelError::InvalidCoefficient(name));
            }
        }
        if !(self.llc_exponent > 0.0 && self.llc_exponent.is_finite()) {
            return Err(InterferenceModelError::InvalidLlcExponent);
        }
        if !(self.membw_threshold >= 0.0 && self.membw_threshold < 1.0) {
            return Err(InterferenceModelError::InvalidMembwThreshold);
        }
        if !(self.direct_exponent >= 0.0 && self.direct_exponent <= 1.0) {
            return Err(InterferenceModelError::InvalidDirectExponent);
        }
        Ok(())
    }

    /// Computes the contention outcome for an interactive service co-located with batch
    /// applications exerting the given pressures.
    pub fn contention(
        &self,
        server: &ServerSpec,
        service: &ServiceProfile,
        corunners: &[ResourcePressure],
    ) -> ContentionOutcome {
        let corunner_llc_mb: f64 = corunners.iter().map(|p| p.llc_mb).sum();
        let corunner_membw: f64 = corunners.iter().map(|p| p.membw_gbps).sum();
        let corunner_cpu: f64 = corunners
            .iter()
            .map(|p| p.cpu_intensity)
            .fold(0.0f64, f64::max);

        // LLC: the co-runners evict the service's lines in proportion to the share of the
        // cache they occupy; a super-linear exponent captures the fact that small
        // footprints mostly fit alongside the service while large ones thrash it.
        let llc_ratio = (corunner_llc_mb / server.llc_mb).clamp(0.0, 1.5);
        let llc_penalty =
            service.llc_sensitivity * self.llc_coeff * llc_ratio.powf(self.llc_exponent);

        // Memory bandwidth: penalty only once the node approaches saturation.
        let total_membw = corunner_membw + service.membw_gbps;
        let membw_utilization = total_membw / server.membw_gbps;
        let membw_over = ((membw_utilization - self.membw_threshold)
            / (1.0 - self.membw_threshold))
            .clamp(0.0, 2.0);
        let membw_penalty = service.membw_sensitivity * self.membw_coeff * membw_over;

        // Core-adjacent contention (SMT siblings, uncore, power budget): small, and driven
        // by the most CPU-intensive co-runner since containers are pinned to disjoint
        // physical cores.
        let cpu_penalty = service.cpu_sensitivity * self.cpu_coeff * corunner_cpu;

        // The I/O-bound fraction of each request is insensitive to these penalties.
        let compute_fraction = 1.0 - service.io_fraction;
        let total_penalty = compute_fraction * (llc_penalty + membw_penalty + cpu_penalty);
        let service_capacity_slowdown = 1.0 + total_penalty;
        let service_direct_slowdown = service_capacity_slowdown.powf(self.direct_exponent);

        // Batch applications also suffer from the service's footprint and from each other.
        let batch_corunner_llc = corunner_llc_mb + service.llc_footprint_mb;
        let batch_slowdown = 1.0
            + self.batch_sensitivity * (batch_corunner_llc / server.llc_mb).clamp(0.0, 1.5)
            + self.batch_sensitivity * 0.5 * membw_over;

        ContentionOutcome {
            service_capacity_slowdown,
            service_direct_slowdown,
            batch_slowdown,
            corunner_llc_mb,
            membw_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_workloads::service::ServiceId;

    fn server() -> ServerSpec {
        ServerSpec::paper_platform()
    }

    #[test]
    fn no_corunners_means_no_slowdown() {
        let m = InterferenceModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Memcached);
        let out = m.contention(&server(), &svc, &[]);
        assert!((out.service_capacity_slowdown - 1.0).abs() < 1e-9);
        assert!((out.service_direct_slowdown - 1.0).abs() < 1e-9);
        assert_eq!(out.corunner_llc_mb, 0.0);
    }

    #[test]
    fn larger_footprint_hurts_more() {
        let m = InterferenceModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Memcached);
        let small = m.contention(&server(), &svc, &[ResourcePressure::new(0.9, 8.0, 5.0)]);
        let large = m.contention(&server(), &svc, &[ResourcePressure::new(0.9, 30.0, 16.0)]);
        assert!(large.service_capacity_slowdown > small.service_capacity_slowdown);
        assert!(large.batch_slowdown >= small.batch_slowdown);
    }

    #[test]
    fn memcached_suffers_more_than_mongodb_from_same_corunner() {
        let m = InterferenceModel::default();
        let canneal_like = ResourcePressure::new(0.9, 30.0, 16.0);
        let mc = m.contention(
            &server(),
            &ServiceProfile::paper_default(ServiceId::Memcached),
            &[canneal_like],
        );
        let mongo = m.contention(
            &server(),
            &ServiceProfile::paper_default(ServiceId::MongoDb),
            &[canneal_like],
        );
        assert!(mc.service_capacity_slowdown > mongo.service_capacity_slowdown);
    }

    #[test]
    fn pressures_add_across_corunners() {
        let m = InterferenceModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Nginx);
        let one = m.contention(&server(), &svc, &[ResourcePressure::new(0.9, 18.0, 12.0)]);
        let two = m.contention(
            &server(),
            &svc,
            &[
                ResourcePressure::new(0.9, 18.0, 12.0),
                ResourcePressure::new(0.85, 18.0, 14.0),
            ],
        );
        assert!(two.service_capacity_slowdown > one.service_capacity_slowdown);
        assert!(two.membw_utilization > one.membw_utilization);
    }

    #[test]
    fn direct_slowdown_is_gentler_than_capacity_slowdown() {
        let m = InterferenceModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Memcached);
        let out = m.contention(&server(), &svc, &[ResourcePressure::new(0.9, 30.0, 20.0)]);
        assert!(out.service_capacity_slowdown > 1.0);
        assert!(out.service_direct_slowdown > 1.0);
        assert!(out.service_direct_slowdown < out.service_capacity_slowdown);
    }

    #[test]
    fn validation_rejects_divide_by_zero_thresholds_and_negative_coefficients() {
        assert!(InterferenceModel::default().validate().is_ok());
        let broken = |m: InterferenceModel| m.validate().unwrap_err();
        assert_eq!(
            broken(InterferenceModel {
                membw_threshold: 1.0,
                ..InterferenceModel::default()
            }),
            InterferenceModelError::InvalidMembwThreshold,
            "membw_threshold == 1.0 makes the bandwidth hinge divide by zero"
        );
        assert_eq!(
            broken(InterferenceModel {
                membw_threshold: 1.3,
                ..InterferenceModel::default()
            }),
            InterferenceModelError::InvalidMembwThreshold
        );
        assert_eq!(
            broken(InterferenceModel {
                llc_coeff: -0.5,
                ..InterferenceModel::default()
            }),
            InterferenceModelError::InvalidCoefficient("llc_coeff")
        );
        assert_eq!(
            broken(InterferenceModel {
                batch_sensitivity: f64::NAN,
                ..InterferenceModel::default()
            }),
            InterferenceModelError::InvalidCoefficient("batch_sensitivity")
        );
        assert_eq!(
            broken(InterferenceModel {
                llc_exponent: 0.0,
                ..InterferenceModel::default()
            }),
            InterferenceModelError::InvalidLlcExponent
        );
        assert_eq!(
            broken(InterferenceModel {
                direct_exponent: 1.5,
                ..InterferenceModel::default()
            }),
            InterferenceModelError::InvalidDirectExponent
        );
    }

    #[test]
    fn deserialization_rejects_invalid_constants() {
        let json = serde_json::to_string(&InterferenceModel::default()).expect("serializable");
        let back: InterferenceModel = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, InterferenceModel::default());
        // A corrupted archive with a saturated threshold must fail to deserialize
        // instead of dividing by zero on first use.
        let corrupted = json.replace("\"membw_threshold\":0.5", "\"membw_threshold\":1.0");
        assert_ne!(corrupted, json);
        let err = serde_json::from_str::<InterferenceModel>(&corrupted).unwrap_err();
        assert!(err.to_string().contains("interference model"), "{err}");
        let negative = json.replace("\"membw_coeff\":0.6", "\"membw_coeff\":-0.6");
        assert_ne!(negative, json);
        assert!(serde_json::from_str::<InterferenceModel>(&negative).is_err());
    }

    #[test]
    fn bandwidth_penalty_only_past_threshold() {
        let m = InterferenceModel::default();
        let svc = ServiceProfile::paper_default(ServiceId::Nginx);
        // Low-bandwidth co-runner: below the 50% threshold nothing should change when the
        // bandwidth demand increases slightly.
        let a = m.contention(&server(), &svc, &[ResourcePressure::new(0.5, 1.0, 2.0)]);
        let b = m.contention(&server(), &svc, &[ResourcePressure::new(0.5, 1.0, 10.0)]);
        assert!((a.service_capacity_slowdown - b.service_capacity_slowdown).abs() < 1e-9);
        // A bandwidth hog past the threshold does add a penalty.
        let c = m.contention(&server(), &svc, &[ResourcePressure::new(0.5, 1.0, 40.0)]);
        assert!(c.service_capacity_slowdown > b.service_capacity_slowdown);
    }
}
