//! One node's Pliant runtime: the co-location it controls plus the monitor → policy →
//! actuator loop that controls it.
//!
//! A [`NodeRuntime`] is what every simulated machine runs, whether it is the single
//! node of an [`crate::engine::Engine`] scenario or one instance of a fleet. It derives
//! everything from the [`ColocationConfig`] it is built with: the per-application
//! variant counts and initial cores the policy starts from, the multi-application
//! round-robin start pointer (seed stream 7) and the monitor's sampling seed (stream
//! 8). Callers advance the simulator themselves — the engine and the fleet account for
//! an interval differently — and then call [`NodeRuntime::control`] once per decision
//! interval.
//!
//! A checkpoint of the runtime is the simulator's and monitor's state values plus the
//! [`Policy`] value itself and the actuator's counters; [`NodeRuntime::restore`]
//! rejects a policy of another kind or one sized for a different co-location.

use pliant_approx::catalog::Catalog;
use pliant_sim::colocation::{ColocationConfig, ColocationSim, ColocationState};
use pliant_telemetry::obs::{Event, ObsAction, ObsBuffer};
use pliant_telemetry::rng::derive_seed;

use crate::actuator::{Action, Actuator, ActuatorStats};
use crate::controller::ControllerConfig;
use crate::monitor::{
    LatencySource, MonitorConfig, MonitorReport, MonitorState, PerformanceMonitor,
};
use crate::policy::{Policy, PolicyKind};

/// A co-location simulator and the runtime controlling it; see the module docs.
pub struct NodeRuntime {
    sim: ColocationSim,
    policy: Policy,
    monitor: PerformanceMonitor,
    actuator: Actuator,
    /// Cores the interactive service holds before any reclamation.
    fair_service_cores: u32,
}

impl NodeRuntime {
    /// Builds the simulator for `config` and a `policy_kind` runtime for it.
    ///
    /// # Panics
    ///
    /// Panics if `config` co-locates no application.
    pub fn new(
        config: ColocationConfig,
        catalog: &Catalog,
        policy_kind: PolicyKind,
        controller_config: ControllerConfig,
    ) -> Self {
        let seed = config.seed;
        let qos_target_s = config.service.qos_target_s;
        let sim = ColocationSim::new(config, catalog);
        let apps = &sim.config().apps;
        let variant_counts: Vec<usize> = apps
            .iter()
            .map(|id| catalog.profile(*id).map_or(0, |p| p.variant_count()))
            .collect();
        let initial_cores: Vec<u32> = (0..apps.len()).map(|i| sim.app(i).cores()).collect();
        let start_pointer = (derive_seed(seed, 7) % apps.len() as u64) as usize;
        let policy = policy_kind.build(
            controller_config,
            &variant_counts,
            &initial_cores,
            start_pointer,
        );
        let monitor =
            PerformanceMonitor::new(MonitorConfig::for_qos(qos_target_s), derive_seed(seed, 8));
        let fair_service_cores = sim.service_cores();
        Self {
            sim,
            policy,
            monitor,
            actuator: Actuator::new(),
            fair_service_cores,
        }
    }

    /// The co-location simulator.
    pub fn sim(&self) -> &ColocationSim {
        &self.sim
    }

    /// The co-location simulator, for advancing it and for fleet-level interventions
    /// (parking, degradation, job placement).
    pub fn sim_mut(&mut self) -> &mut ColocationSim {
        &mut self.sim
    }

    /// Cores the interactive service holds beyond its fair share.
    pub fn extra_service_cores(&self) -> u32 {
        self.sim
            .service_cores()
            .saturating_sub(self.fair_service_cores)
    }

    /// Tells the policy that slot `app` now runs a different job with `variant_count`
    /// admissible variants (see [`Policy::on_app_replaced`]).
    pub fn on_app_replaced(&mut self, app: usize, variant_count: usize) {
        self.policy.on_app_replaced(app, variant_count);
    }

    /// Runs the runtime once over one decision interval's latency samples: the monitor
    /// reports, the policy decides, and the actuator applies each action in order.
    /// Every decision and every accepted state change is emitted to `obs` as `node`'s
    /// event for `interval` (a no-op when `obs` is disabled). Returns the monitor's
    /// report.
    ///
    /// No-signal reports are passed to the policy rather than filtered out: policies
    /// with pending time-insensitive actions (the static ablation's initial pin) must
    /// get their turn even when a run starts in an idle trough.
    pub fn control<S: LatencySource + ?Sized>(
        &mut self,
        samples: &S,
        obs: &mut ObsBuffer,
        node: u32,
        interval: u32,
        time_s: f64,
    ) -> MonitorReport {
        let report = self.monitor.observe_interval(samples);
        for action in self.policy.decide(&report) {
            let (app, kind) = match action {
                Action::SetVariant { app, .. } => (app as u32, ObsAction::SetVariant),
                Action::ReclaimCore { app } => (app as u32, ObsAction::ReclaimCore),
                Action::ReturnCore { app } => (app as u32, ObsAction::ReturnCore),
            };
            let decision = Event::ControllerDecision {
                node,
                app,
                signal_p99_s: report.smoothed_p99_s,
                slack: report.slack_fraction,
                action: kind,
            };
            obs.emit(interval, time_s, decision);
            if !self.actuator.apply(&mut self.sim, action) {
                continue;
            }
            let applied = match action {
                Action::SetVariant { variant, .. } => Event::VariantSwitch {
                    node,
                    app,
                    variant: variant.map_or(-1, |v| v as i64),
                },
                Action::ReclaimCore { .. } => Event::CoreReclaimed { node, app },
                Action::ReturnCore { .. } => Event::CoreReturned { node, app },
            };
            obs.emit(interval, time_s, applied);
        }
        report
    }

    /// The policy, whose value is its whole checkpointable state.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The monitor's checkpointable state.
    pub fn monitor_state(&self) -> &MonitorState {
        self.monitor.state()
    }

    /// The actuator's counters.
    pub fn actuator_stats(&self) -> ActuatorStats {
        self.actuator.stats()
    }

    /// Restores the simulator, policy, monitor and actuator from captured state onto a
    /// runtime built from the same configuration.
    ///
    /// # Errors
    ///
    /// Names the component whose state was rejected. A policy is rejected when its kind
    /// differs from this runtime's or its per-application state does not fit the
    /// simulator's application count.
    pub fn restore(
        &mut self,
        sim: &ColocationState,
        policy: &Policy,
        monitor: &MonitorState,
        actuator_stats: ActuatorStats,
    ) -> Result<(), String> {
        self.sim
            .restore(sim)
            .map_err(|e| format!("simulator: {e}"))?;
        if policy.kind() != self.policy.kind() {
            return Err(format!(
                "policy state: a {} policy in a {} runtime",
                policy.kind(),
                self.policy.kind()
            ));
        }
        let apps = self.sim.app_count();
        if !policy.fits_app_count(apps) {
            return Err(format!(
                "policy state: does not fit a node with {apps} batch slot(s)"
            ));
        }
        self.monitor
            .restore(monitor)
            .map_err(|e| format!("monitor: {e}"))?;
        self.policy = policy.clone();
        self.actuator.restore_stats(actuator_stats);
        Ok(())
    }
}
