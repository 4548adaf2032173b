//! Experiment outcome types.
//!
//! The outcome types ([`ColocationOutcome`], [`AppOutcome`], [`PhaseQosStats`]) are
//! produced by the [`crate::engine::Engine`] for every scenario it runs;
//! [`classify_effort`] bins an outcome for the Fig. 10 breakdown. Experiments themselves
//! are described as [`crate::scenario::Scenario`]s and swept as [`crate::suite::Suite`]s.

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::AppId;
use pliant_telemetry::obs::ObsSummary;
use pliant_telemetry::series::TraceBundle;
use pliant_workloads::profile::LoadPhase;
use pliant_workloads::service::ServiceId;

use crate::policy::PolicyKind;

/// Per-application outcome of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// The application.
    pub app: AppId,
    /// Whether it finished within the simulated horizon.
    pub finished: bool,
    /// Execution time relative to the nominal precise run (1.0 = nominal).
    pub relative_execution_time: f64,
    /// Final output-quality loss in percent.
    pub inaccuracy_pct: f64,
    /// Maximum number of cores simultaneously reclaimed from this application.
    pub max_cores_reclaimed: u32,
    /// Instrumentation (dynamic recompilation) overhead fraction of this application.
    pub instrumentation_overhead: f64,
}

/// QoS statistics aggregated over the intervals a run spent in one [`LoadPhase`].
///
/// Time-varying load profiles split a run into phases (steady, ramp-up, peak,
/// ramp-down); comparing the violation rate during ramps against the steady state shows
/// how quickly the runtime re-approximates into a transient and recovers out of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseQosStats {
    /// The load phase these statistics cover.
    pub phase: LoadPhase,
    /// Number of decision intervals spent in this phase.
    pub intervals: usize,
    /// Intervals in this phase that violated the QoS target.
    pub qos_violations: usize,
    /// `qos_violations / intervals`.
    pub qos_violation_fraction: f64,
    /// Mean of the per-interval p99 latencies in this phase, in seconds.
    pub mean_p99_s: f64,
    /// Mean offered load during this phase, as a fraction of saturation throughput.
    pub mean_offered_load: f64,
}

/// Outcome of one co-location experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColocationOutcome {
    /// Interactive service.
    pub service: ServiceId,
    /// Policy used.
    pub policy: PolicyKind,
    /// Co-located applications.
    pub apps: Vec<AppId>,
    /// Number of decision intervals simulated (including idle ones).
    pub intervals: usize,
    /// Intervals that served no requests at all (zero arrivals, e.g. the trough of a
    /// load profile). Idle intervals carry no latency evidence, so they are excluded
    /// from every latency/QoS statistic below. Absent in pre-profile archives
    /// (deserializes as 0).
    #[serde(default)]
    pub idle_intervals: usize,
    /// QoS target in seconds.
    pub qos_target_s: f64,
    /// Mean of the per-interval p99 latencies over intervals that served traffic, in
    /// seconds.
    pub mean_p99_s: f64,
    /// Maximum per-interval p99 latency, in seconds.
    pub max_p99_s: f64,
    /// Fraction of traffic-serving intervals that violated QoS.
    pub qos_violation_fraction: f64,
    /// `mean_p99_s / qos_target_s` — the headline tail-latency-to-QoS ratio.
    pub tail_latency_ratio: f64,
    /// Maximum number of cores the service held beyond its fair share at any point.
    pub max_extra_service_cores: u32,
    /// Total electrical energy the node consumed over the run, in joules (idle and
    /// parked intervals included — energy is billed whenever the machine is on).
    /// Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub total_energy_j: f64,
    /// Mean electrical power over the run, in watts (`total_energy_j` divided by the
    /// simulated wall clock). Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub mean_power_w: f64,
    /// Energy per completed batch job, in joules (`total_energy_j` divided by the
    /// number of applications that finished; `0.0` when none finished). Absent in
    /// pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub energy_per_completed_job_j: f64,
    /// QoS statistics per load phase over traffic-serving intervals, in
    /// [`LoadPhase::all`] order, omitting phases the run never entered (constant-load
    /// runs report a single `steady` entry). Absent in pre-profile archives
    /// (deserializes as empty).
    #[serde(default)]
    pub phase_qos: Vec<PhaseQosStats>,
    /// Per-application outcomes.
    pub app_outcomes: Vec<AppOutcome>,
    /// Time series recorded during the run (tail latency, reclaimed cores, variants).
    pub trace: TraceBundle,
    /// Observability rollup: what the run emitted, per event kind (empty at the
    /// default [`pliant_telemetry::obs::ObsLevel::Off`]). Absent in pre-observability
    /// archives (deserializes as the empty summary).
    #[serde(default)]
    pub obs: ObsSummary,
}

impl ColocationOutcome {
    /// Whether QoS was met for (almost) the entire run; the 5% allowance absorbs isolated
    /// measurement-noise spikes, matching how the paper reports "QoS is met".
    pub fn qos_met(&self) -> bool {
        self.qos_violation_fraction <= 0.05 && self.tail_latency_ratio <= 1.0
    }

    /// Mean inaccuracy across the co-located applications, in percent.
    pub fn mean_inaccuracy_pct(&self) -> f64 {
        if self.app_outcomes.is_empty() {
            return 0.0;
        }
        self.app_outcomes
            .iter()
            .map(|a| a.inaccuracy_pct)
            .sum::<f64>()
            / self.app_outcomes.len() as f64
    }
}

/// Classification used by the Fig. 10 breakdown: what it took to restore QoS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EffortClass {
    /// Approximation alone was sufficient.
    ApproximationOnly,
    /// Exactly this many cores had to be reclaimed (1–3).
    Cores(u32),
    /// Four or more cores had to be reclaimed.
    FourPlusCores,
}

/// Classifies an outcome for the Fig. 10 breakdown.
pub fn classify_effort(outcome: &ColocationOutcome) -> EffortClass {
    match outcome.max_extra_service_cores {
        0 => EffortClass::ApproximationOnly,
        n @ 1..=3 => EffortClass::Cores(n),
        _ => EffortClass::FourPlusCores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::scenario::Scenario;
    use crate::suite::Suite;

    /// A 60-interval paper-default run of `apps` next to `service`.
    fn run(service: ServiceId, apps: &[AppId], policy: PolicyKind, seed: u64) -> ColocationOutcome {
        Scenario::builder(service)
            .apps(apps.iter().copied())
            .policy(policy)
            .horizon_intervals(60)
            .seed(seed)
            .build()
            .run()
    }

    #[test]
    fn pliant_meets_qos_where_precise_does_not() {
        for service in [ServiceId::Nginx, ServiceId::Memcached] {
            let precise = run(service, &[AppId::Canneal], PolicyKind::Precise, 5);
            let pliant = run(service, &[AppId::Canneal], PolicyKind::Pliant, 5);
            assert!(
                precise.tail_latency_ratio > 1.4,
                "{service}: precise baseline should violate QoS (ratio {})",
                precise.tail_latency_ratio
            );
            assert!(
                pliant.qos_violation_fraction < precise.qos_violation_fraction,
                "{service}: Pliant must violate QoS less often than the precise baseline"
            );
            assert!(
                pliant.tail_latency_ratio < precise.tail_latency_ratio * 0.7,
                "{service}: Pliant must substantially reduce the tail-latency ratio"
            );
        }
    }

    #[test]
    fn pliant_respects_the_quality_threshold() {
        let outcome = run(
            ServiceId::Memcached,
            &[AppId::Canneal],
            PolicyKind::Pliant,
            7,
        );
        for app in &outcome.app_outcomes {
            assert!(
                app.inaccuracy_pct <= 5.5,
                "{}: inaccuracy {} exceeds the tolerance band",
                app.app,
                app.inaccuracy_pct
            );
        }
    }

    #[test]
    fn precise_baseline_has_zero_inaccuracy() {
        let outcome = run(ServiceId::Nginx, &[AppId::Bayesian], PolicyKind::Precise, 9);
        assert_eq!(outcome.mean_inaccuracy_pct(), 0.0);
        assert_eq!(outcome.max_extra_service_cores, 0);
        assert_eq!(outcome.policy, PolicyKind::Precise);
    }

    #[test]
    fn trace_contains_expected_series() {
        let outcome = run(ServiceId::Nginx, &[AppId::Snp], PolicyKind::Pliant, 11);
        assert!(outcome.trace.get("p99_latency_s").is_some());
        assert!(outcome.trace.get("service_extra_cores").is_some());
        assert!(outcome.trace.get("variant_snp").is_some());
        assert!(outcome.trace.get("reclaimed_snp").is_some());
        assert_eq!(
            outcome.trace.get("p99_latency_s").unwrap().len(),
            outcome.intervals
        );
    }

    #[test]
    fn snp_with_memcached_uses_approximation_alone() {
        let outcome = run(ServiceId::Memcached, &[AppId::Snp], PolicyKind::Pliant, 13);
        assert!(
            outcome.max_extra_service_cores <= 1,
            "SNP + memcached should need at most a brief single-core reclamation, got {}",
            outcome.max_extra_service_cores
        );
        assert_eq!(
            classify_effort(&outcome),
            match outcome.max_extra_service_cores {
                0 => EffortClass::ApproximationOnly,
                n => EffortClass::Cores(n),
            }
        );
    }

    #[test]
    fn multi_app_colocation_balances_the_burden() {
        let outcome = run(
            ServiceId::Nginx,
            &[AppId::Canneal, AppId::Bayesian],
            PolicyKind::Pliant,
            17,
        );
        assert_eq!(outcome.app_outcomes.len(), 2);
        let reclaimed: Vec<u32> = outcome
            .app_outcomes
            .iter()
            .map(|a| a.max_cores_reclaimed)
            .collect();
        let spread = reclaimed.iter().max().unwrap() - reclaimed.iter().min().unwrap();
        assert!(
            spread <= 2,
            "round-robin should not lopside core reclamation: {reclaimed:?}"
        );
    }

    #[test]
    fn load_sweep_is_monotone_in_violations_at_the_extremes() {
        let base = Scenario::builder(ServiceId::Nginx)
            .app(AppId::KMeans)
            .horizon_intervals(30)
            .seed(19)
            .build();
        let sweep = Engine::new().run_collect(&Suite::new(base).sweep_loads([0.4, 0.95]));
        let low = &sweep[0].outcome;
        let high = &sweep[1].outcome;
        assert!(low.qos_violation_fraction <= high.qos_violation_fraction);
        assert!(low.tail_latency_ratio < high.tail_latency_ratio);
    }

    #[test]
    fn interval_sweep_penalizes_coarse_intervals() {
        // Every cell simulates the same 60 s of service time.
        let base = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .horizon_seconds(60.0)
            .seed(23)
            .build();
        let sweep =
            Engine::new().run_collect(&Suite::new(base).sweep_decision_intervals_s([1.0, 8.0]));
        let fine = &sweep[0].outcome;
        let coarse = &sweep[1].outcome;
        assert!(
            fine.qos_violation_fraction <= coarse.qos_violation_fraction + 0.05,
            "1 s decisions ({}) should not be worse than 8 s decisions ({})",
            fine.qos_violation_fraction,
            coarse.qos_violation_fraction
        );
    }

    #[test]
    fn effort_classification_bins_correctly() {
        let outcome = run(
            ServiceId::MongoDb,
            &[AppId::Raytrace],
            PolicyKind::Pliant,
            29,
        );
        let class = classify_effort(&outcome);
        match outcome.max_extra_service_cores {
            0 => assert_eq!(class, EffortClass::ApproximationOnly),
            n if n <= 3 => assert_eq!(class, EffortClass::Cores(n)),
            _ => assert_eq!(class, EffortClass::FourPlusCores),
        }
    }
}
