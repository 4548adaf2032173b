//! Platform specification (the paper's Table 1), core-allocation accounting, and the
//! node power model.

use serde::{Deserialize, Serialize};

/// Node power model: idle platform draw plus per-core static and utilization-weighted
/// dynamic draw, with polynomial frequency scaling and a deep-sleep ("parked") state.
///
/// The average electrical power a node draws over a decision interval is
///
/// ```text
/// P = idle_w + (f / reference_freq_ghz)^freq_exponent
///             × (allocated × core_idle_w  +  busy × core_active_w)
/// ```
///
/// where `allocated` is the number of powered (allocated) cores, `busy` is the
/// utilization-weighted number of busy core-equivalents (a core at 60% utilization
/// contributes 0.6), and `f` is the operating frequency in GHz. A node that has been
/// drained and suspended by a fleet autoscaler draws [`PowerModel::parked_w`] instead —
/// the S3/suspend draw of the whole machine, not a per-core quantity.
///
/// The paper-platform default is calibrated for the dual-socket Xeon E5-2699 v4 of
/// Table 1 (145 W TDP per 22-core socket): the experiment socket plus its share of the
/// platform (DRAM, fans, PSU losses) idles near 100 W and peaks near 170 W with the
/// 16 usable cores busy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(validate = "PowerModel::validate")]
pub struct PowerModel {
    /// Platform idle draw in watts (uncore, DRAM, fans, PSU losses) — billed whenever
    /// the node is powered on, regardless of allocation.
    pub idle_w: f64,
    /// Static draw per allocated core in watts (leakage + clock tree at idle).
    pub core_idle_w: f64,
    /// Additional dynamic draw per fully-busy core in watts, at the reference
    /// frequency; scaled by per-core utilization.
    pub core_active_w: f64,
    /// Frequency the per-core draws are calibrated at, in GHz.
    pub reference_freq_ghz: f64,
    /// Exponent of the polynomial frequency scaling applied to the per-core draws
    /// (dynamic power grows superlinearly with frequency: `P ∝ f·V² ≈ f^2..3`).
    pub freq_exponent: f64,
    /// Whole-node draw while suspended (drained by an autoscaler and parked), in watts.
    pub parked_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::paper_platform()
    }
}

impl PowerModel {
    /// Power constants calibrated for the platform of Table 1; see the type docs.
    pub fn paper_platform() -> Self {
        Self {
            idle_w: 96.0,
            core_idle_w: 1.4,
            core_active_w: 4.6,
            reference_freq_ghz: 2.2,
            freq_exponent: 2.4,
            parked_w: 9.0,
        }
    }

    /// Checks the model's invariants: every draw is finite and non-negative, the
    /// reference frequency is positive, and the frequency exponent is finite and
    /// non-negative. Construction from serde runs this automatically; hand-built
    /// models are re-checked at the simulator boundary.
    pub fn validate(&self) -> Result<(), PowerModelError> {
        for (name, value) in [
            ("idle_w", self.idle_w),
            ("core_idle_w", self.core_idle_w),
            ("core_active_w", self.core_active_w),
            ("parked_w", self.parked_w),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(PowerModelError::InvalidDraw(name));
            }
        }
        if !(self.reference_freq_ghz > 0.0 && self.reference_freq_ghz.is_finite()) {
            return Err(PowerModelError::InvalidReferenceFrequency);
        }
        if !(self.freq_exponent >= 0.0 && self.freq_exponent.is_finite()) {
            return Err(PowerModelError::InvalidFrequencyExponent);
        }
        Ok(())
    }

    /// Average power in watts for a powered-on node with `allocated_cores` allocated
    /// cores of which `busy_core_equivalents` (utilization-weighted) are busy, running
    /// at `freq_ghz`. Pure arithmetic — safe for the per-interval hot path.
    pub fn power_w(&self, allocated_cores: u32, busy_core_equivalents: f64, freq_ghz: f64) -> f64 {
        let freq_scale = (freq_ghz / self.reference_freq_ghz).powf(self.freq_exponent);
        self.idle_w
            + freq_scale
                * (allocated_cores as f64 * self.core_idle_w
                    + busy_core_equivalents.max(0.0) * self.core_active_w)
    }
}

/// Why a [`PowerModel`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerModelError {
    /// A power draw is negative or not finite.
    InvalidDraw(&'static str),
    /// The reference frequency is zero, negative, or not finite.
    InvalidReferenceFrequency,
    /// The frequency exponent is negative or not finite.
    InvalidFrequencyExponent,
}

impl std::fmt::Display for PowerModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerModelError::InvalidDraw(field) => {
                write!(f, "`{field}` must be a finite, non-negative wattage")
            }
            PowerModelError::InvalidReferenceFrequency => {
                f.write_str("`reference_freq_ghz` must be positive and finite")
            }
            PowerModelError::InvalidFrequencyExponent => {
                f.write_str("`freq_exponent` must be non-negative and finite")
            }
        }
    }
}

impl std::error::Error for PowerModelError {}

/// Hardware platform model.
///
/// The defaults reproduce Table 1 of the paper: a dual-socket Intel Xeon E5-2699 v4 with
/// 22 physical cores per socket, 55 MB of last-level cache per socket, and DDR4-2400
/// memory. As in the paper's methodology (§5), only one socket is used for the co-located
/// applications, 6 of its physical cores are dedicated to network-interrupt handling, and
/// the remaining cores are shared by the interactive service and the approximate
/// applications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// CPU model string (informational, used by the Table 1 harness binary).
    pub cpu_model: String,
    /// Operating system string (informational).
    pub os: String,
    /// Number of CPU sockets.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// Base clock frequency in GHz.
    pub base_freq_ghz: f64,
    /// Maximum turbo frequency in GHz.
    pub max_turbo_ghz: f64,
    /// L1 instruction/data cache size in KB (per core).
    pub l1_kb: u32,
    /// L2 cache size in KB (per core).
    pub l2_kb: u32,
    /// Last-level cache per socket in MiB.
    pub llc_mb: f64,
    /// LLC associativity (ways).
    pub llc_ways: u32,
    /// Total memory in GiB.
    pub memory_gib: u32,
    /// Memory frequency in MHz.
    pub memory_mhz: u32,
    /// Usable memory bandwidth per socket in GiB/s.
    pub membw_gbps: f64,
    /// Disk description (informational).
    pub disk: String,
    /// Network bandwidth in Gbps.
    pub network_gbps: u32,
    /// Physical cores per socket reserved for network-interrupt handling (soft IRQ).
    pub irq_cores: u32,
    /// Electrical power model of the node. Absent in archives recorded before energy
    /// accounting existed; deserializes as the paper-platform default.
    #[serde(default)]
    pub power: PowerModel,
}

impl Default for ServerSpec {
    fn default() -> Self {
        Self::paper_platform()
    }
}

impl ServerSpec {
    /// The platform of Table 1.
    pub fn paper_platform() -> Self {
        Self {
            cpu_model: "Intel Xeon E5-2699 v4".to_string(),
            os: "Ubuntu 16.04 (kernel 4.14)".to_string(),
            sockets: 2,
            cores_per_socket: 22,
            threads_per_core: 2,
            base_freq_ghz: 2.2,
            max_turbo_ghz: 3.6,
            l1_kb: 32,
            l2_kb: 256,
            llc_mb: 55.0,
            llc_ways: 20,
            memory_gib: 128,
            memory_mhz: 2400,
            membw_gbps: 60.0,
            disk: "1TB, 7200RPM HDD".to_string(),
            network_gbps: 10,
            irq_cores: 6,
            power: PowerModel::paper_platform(),
        }
    }

    /// Physical cores on the experiment socket available to the co-located applications
    /// (cores per socket minus the IRQ reservation).
    pub fn usable_cores(&self) -> u32 {
        self.cores_per_socket.saturating_sub(self.irq_cores)
    }

    /// Fair initial split of the usable cores between the interactive service and `n_apps`
    /// approximate applications: the service keeps half the usable cores (its fair share
    /// for the single-app case the saturation throughput was calibrated at), and the batch
    /// applications divide the other half evenly.
    ///
    /// Returns `(service_cores, per_app_cores)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_apps` is zero.
    pub fn fair_allocation(&self, n_apps: u32) -> (u32, Vec<u32>) {
        assert!(
            n_apps > 0,
            "at least one approximate application is required"
        );
        let usable = self.usable_cores();
        let service = usable / 2;
        let batch_pool = usable - service;
        let base = batch_pool / n_apps;
        let extra = batch_pool % n_apps;
        let per_app = (0..n_apps).map(|i| base + u32::from(i < extra)).collect();
        (service, per_app)
    }

    /// Renders the specification as `(field, value)` rows matching Table 1.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            ("Model".to_string(), self.cpu_model.clone()),
            ("OS".to_string(), self.os.clone()),
            ("Sockets".to_string(), self.sockets.to_string()),
            (
                "Cores/Socket".to_string(),
                self.cores_per_socket.to_string(),
            ),
            (
                "Threads/Core".to_string(),
                self.threads_per_core.to_string(),
            ),
            (
                "Base/Max Turbo Frequency".to_string(),
                format!("{}GHz / {}GHz", self.base_freq_ghz, self.max_turbo_ghz),
            ),
            (
                "L1 Inst/Data Cache".to_string(),
                format!("{} / {} KB", self.l1_kb, self.l1_kb),
            ),
            ("L2 Cache".to_string(), format!("{}KB", self.l2_kb)),
            (
                "L3 (Last-Level) Cache".to_string(),
                format!("{} MB, {} ways", self.llc_mb, self.llc_ways),
            ),
            (
                "Memory".to_string(),
                format!("{}GB total, {}MHz DDR4", self.memory_gib, self.memory_mhz),
            ),
            ("Disk".to_string(), self.disk.clone()),
            (
                "Network Bandwidth".to_string(),
                format!("{}Gbps", self.network_gbps),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_matches_table1() {
        let s = ServerSpec::paper_platform();
        assert_eq!(s.sockets, 2);
        assert_eq!(s.cores_per_socket, 22);
        assert_eq!(s.threads_per_core, 2);
        assert_eq!(s.llc_mb, 55.0);
        assert_eq!(s.llc_ways, 20);
        assert_eq!(s.memory_gib, 128);
        assert_eq!(s.memory_mhz, 2400);
        assert_eq!(s.network_gbps, 10);
        assert_eq!(s.base_freq_ghz, 2.2);
    }

    #[test]
    fn usable_cores_excludes_irq_reservation() {
        let s = ServerSpec::paper_platform();
        assert_eq!(s.usable_cores(), 16);
    }

    #[test]
    fn fair_allocation_single_app() {
        let s = ServerSpec::paper_platform();
        let (service, apps) = s.fair_allocation(1);
        assert_eq!(service, 8);
        assert_eq!(apps, vec![8]);
    }

    #[test]
    fn fair_allocation_multi_app_splits_batch_pool() {
        let s = ServerSpec::paper_platform();
        let (service, apps) = s.fair_allocation(3);
        assert_eq!(service, 8);
        assert_eq!(apps.iter().sum::<u32>(), 8);
        assert_eq!(apps.len(), 3);
        assert!(apps.iter().all(|&c| c >= 2));
    }

    #[test]
    #[should_panic]
    fn fair_allocation_requires_at_least_one_app() {
        ServerSpec::paper_platform().fair_allocation(0);
    }

    #[test]
    fn power_grows_with_allocation_utilization_and_frequency() {
        let p = PowerModel::paper_platform();
        assert!(p.validate().is_ok());
        let idle = p.power_w(0, 0.0, 2.2);
        assert_eq!(idle, p.idle_w);
        let allocated = p.power_w(16, 0.0, 2.2);
        assert!(allocated > idle);
        let busy = p.power_w(16, 10.0, 2.2);
        assert!(busy > allocated);
        let turbo = p.power_w(16, 10.0, 3.6);
        assert!(turbo > busy, "dynamic draw must grow with frequency");
        // At the reference frequency the formula is exactly linear in its terms.
        assert!((busy - (p.idle_w + 16.0 * p.core_idle_w + 10.0 * p.core_active_w)).abs() < 1e-9);
        assert!(
            p.parked_w < idle,
            "suspend must draw less than powered idle"
        );
    }

    #[test]
    fn power_model_validation_rejects_degenerate_constants() {
        let good = PowerModel::paper_platform();
        let mut bad = good.clone();
        bad.idle_w = -1.0;
        assert_eq!(bad.validate(), Err(PowerModelError::InvalidDraw("idle_w")));
        let mut bad = good.clone();
        bad.core_active_w = f64::NAN;
        assert_eq!(
            bad.validate(),
            Err(PowerModelError::InvalidDraw("core_active_w"))
        );
        let mut bad = good.clone();
        bad.reference_freq_ghz = 0.0;
        assert_eq!(
            bad.validate(),
            Err(PowerModelError::InvalidReferenceFrequency)
        );
        let mut bad = good.clone();
        bad.freq_exponent = -2.0;
        assert_eq!(
            bad.validate(),
            Err(PowerModelError::InvalidFrequencyExponent)
        );
    }

    #[test]
    fn power_model_deserialization_validates() {
        let json = serde_json::to_string(&PowerModel::paper_platform()).expect("serializable");
        let back: PowerModel = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, PowerModel::paper_platform());
        let corrupted = json.replace("\"idle_w\":96", "\"idle_w\":-96");
        assert_ne!(corrupted, json);
        let err = serde_json::from_str::<PowerModel>(&corrupted).unwrap_err();
        assert!(err.to_string().contains("power model"), "{err}");
    }

    #[test]
    fn pre_energy_server_archives_deserialize_with_the_default_power_model() {
        let spec = ServerSpec::paper_platform();
        let json = serde_json::to_string(&spec).expect("serializable");
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let legacy = serde_json::to_string(&serde::Value::Object(
            value
                .as_object()
                .expect("specs serialize as objects")
                .iter()
                .filter(|(k, _)| k != "power")
                .cloned()
                .collect(),
        ))
        .expect("serializable");
        assert_ne!(legacy, json, "the power field must have been stripped");
        let back: ServerSpec = serde_json::from_str(&legacy).expect("legacy archives deserialize");
        assert_eq!(back.power, PowerModel::paper_platform());
        assert_eq!(back, spec);
    }

    #[test]
    fn table1_rows_cover_every_field() {
        let rows = ServerSpec::paper_platform().table1_rows();
        assert_eq!(rows.len(), 12);
        assert!(rows
            .iter()
            .any(|(k, v)| k == "Model" && v.contains("E5-2699")));
        assert!(rows
            .iter()
            .any(|(k, v)| k.contains("L3") && v.contains("55")));
    }
}
