//! Round-robin arbitration for multi-application co-locations (§4.4 of the paper).
//!
//! When more than one approximate application shares the host with the interactive
//! service, Pliant manages them in a round-robin fashion so that no single application is
//! penalized disproportionately: on a QoS violation it first switches one application
//! (starting from a rotating pointer) to its most approximate variant; only when every
//! application is already at its most approximate variant does it start reclaiming cores,
//! one application and one core per decision interval. Recovery mirrors that order —
//! cores are returned first, then approximation is relaxed, again round-robin.

use serde::{Deserialize, Serialize};

use crate::actuator::Action;
use crate::controller::ControllerConfig;
use crate::monitor::MonitorReport;

/// Per-application state tracked by the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct AppState {
    variant_count: usize,
    variant: Option<usize>,
    cores_reclaimed: u32,
    /// Cores that can still be reclaimed (the application keeps at least one core).
    reclaimable: u32,
}

impl AppState {
    fn most_approximate(&self) -> Option<usize> {
        if self.variant_count == 0 {
            None
        } else {
            Some(self.variant_count - 1)
        }
    }

    fn at_most_approximate(&self) -> bool {
        self.variant == self.most_approximate() || self.variant_count == 0
    }
}

/// Round-robin multi-application controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiAppController {
    config: ControllerConfig,
    apps: Vec<AppState>,
    /// Rotating pointer: the next application to be asked for a concession.
    pointer: usize,
    /// Consecutive intervals with slack above the threshold.
    slack_streak: u32,
}

impl MultiAppController {
    /// Creates a controller for applications with the given variant counts and initial
    /// core allocations. `start_pointer` selects which application is asked first (the
    /// paper picks it randomly; experiments derive it from the seed).
    pub fn new(
        config: ControllerConfig,
        variant_counts: &[usize],
        initial_cores: &[u32],
        start_pointer: usize,
    ) -> Self {
        assert_eq!(
            variant_counts.len(),
            initial_cores.len(),
            "one core allocation per application is required"
        );
        assert!(
            !variant_counts.is_empty(),
            "at least one application is required"
        );
        let apps = variant_counts
            .iter()
            .zip(initial_cores.iter())
            .map(|(&vc, &cores)| AppState {
                variant_count: vc,
                variant: None,
                cores_reclaimed: 0,
                reclaimable: cores.saturating_sub(1),
            })
            .collect();
        Self {
            config,
            apps,
            pointer: start_pointer % variant_counts.len().max(1),
            slack_streak: 0,
        }
    }

    /// Number of managed applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Current variant of application `app`.
    pub fn variant(&self, app: usize) -> Option<usize> {
        self.apps[app].variant
    }

    /// Cores reclaimed from application `app` so far.
    pub fn cores_reclaimed(&self, app: usize) -> u32 {
        self.apps[app].cores_reclaimed
    }

    /// Re-binds slot `app` to a new application with `variant_count` admissible variants
    /// (batch-job scheduling: a finished job's slot is handed the next queued job).
    ///
    /// The new occupant starts precise, so the slot's variant resets; the core ledger
    /// (`cores_reclaimed` / the reclaimable budget) deliberately persists — the cores the
    /// service reclaimed from the slot are still held by the service, and recovery must
    /// return them to whichever job now occupies the slot.
    pub fn reset_app(&mut self, app: usize, variant_count: usize) {
        let state = &mut self.apps[app];
        state.variant_count = variant_count;
        state.variant = None;
    }

    /// Takes one decision from the monitor's report.
    pub fn decide(&mut self, report: &MonitorReport) -> Vec<Action> {
        let n = self.apps.len();
        if report.no_signal {
            // An idle interval (no arrivals) carries no latency evidence: hold every
            // application's state and leave the slack streak as it is.
            return Vec::new();
        }
        if report.qos_violated {
            self.slack_streak = 0;
            // 1. Find the next application (round-robin) not yet at its most approximate
            //    variant and escalate it.
            for offset in 0..n {
                let idx = (self.pointer + offset) % n;
                if !self.apps[idx].at_most_approximate() {
                    let most = self.apps[idx].most_approximate();
                    self.apps[idx].variant = most;
                    self.pointer = (idx + 1) % n;
                    return vec![Action::SetVariant {
                        app: idx,
                        variant: most,
                    }];
                }
            }
            // 2. Everyone is maximally approximate: reclaim one core, round-robin over the
            //    applications that still have cores to give.
            for offset in 0..n {
                let idx = (self.pointer + offset) % n;
                if self.apps[idx].cores_reclaimed < self.apps[idx].reclaimable {
                    self.apps[idx].cores_reclaimed += 1;
                    self.pointer = (idx + 1) % n;
                    return vec![Action::ReclaimCore { app: idx }];
                }
            }
            // Nothing left to take.
            Vec::new()
        } else if report.slack_fraction > self.config.slack_threshold {
            self.slack_streak += 1;
            if self.slack_streak < self.config.consecutive_slack_required {
                return Vec::new();
            }
            self.slack_streak = 0;
            // Recovery: return cores first (round-robin), then relax approximation one
            // application and one step at a time.
            for offset in 0..n {
                let idx = (self.pointer + offset) % n;
                if self.apps[idx].cores_reclaimed > 0 {
                    self.apps[idx].cores_reclaimed -= 1;
                    self.pointer = (idx + 1) % n;
                    return vec![Action::ReturnCore { app: idx }];
                }
            }
            for offset in 0..n {
                let idx = (self.pointer + offset) % n;
                match self.apps[idx].variant {
                    Some(0) => {
                        self.apps[idx].variant = None;
                        self.pointer = (idx + 1) % n;
                        return vec![Action::SetVariant {
                            app: idx,
                            variant: None,
                        }];
                    }
                    Some(v) => {
                        self.apps[idx].variant = Some(v - 1);
                        self.pointer = (idx + 1) % n;
                        return vec![Action::SetVariant {
                            app: idx,
                            variant: Some(v - 1),
                        }];
                    }
                    None => {}
                }
            }
            Vec::new()
        } else {
            self.slack_streak = 0;
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_cores_reclaimed(c: &MultiAppController) -> u32 {
        c.apps.iter().map(|a| a.cores_reclaimed).sum()
    }

    fn violated() -> MonitorReport {
        MonitorReport {
            p99_s: 1.0,
            mean_s: 0.5,
            smoothed_p99_s: 1.0,
            sampled: 10,
            qos_violated: true,
            slack_fraction: -1.0,
            no_signal: false,
        }
    }

    fn met(slack: f64) -> MonitorReport {
        MonitorReport {
            p99_s: 0.1,
            mean_s: 0.05,
            smoothed_p99_s: 0.1,
            sampled: 10,
            qos_violated: false,
            slack_fraction: slack,
            no_signal: false,
        }
    }

    /// Configuration without slack hysteresis, so each high-slack interval yields one
    /// visible recovery step.
    fn immediate() -> ControllerConfig {
        ControllerConfig {
            consecutive_slack_required: 1,
            ..ControllerConfig::default()
        }
    }

    fn controller() -> MultiAppController {
        MultiAppController::new(immediate(), &[4, 8], &[4, 4], 0)
    }

    /// A controller managing one application: the Fig. 3 algorithm.
    fn single(config: ControllerConfig, variant_count: usize, cores: u32) -> MultiAppController {
        MultiAppController::new(config, &[variant_count], &[cores], 0)
    }

    #[test]
    fn violations_escalate_apps_round_robin_before_cores() {
        let mut c = controller();
        let a1 = c.decide(&violated());
        assert_eq!(
            a1,
            vec![Action::SetVariant {
                app: 0,
                variant: Some(3)
            }]
        );
        let a2 = c.decide(&violated());
        assert_eq!(
            a2,
            vec![Action::SetVariant {
                app: 1,
                variant: Some(7)
            }]
        );
        // Both at most approximate: cores come next, one app at a time.
        let a3 = c.decide(&violated());
        assert_eq!(a3, vec![Action::ReclaimCore { app: 0 }]);
        let a4 = c.decide(&violated());
        assert_eq!(a4, vec![Action::ReclaimCore { app: 1 }]);
        assert_eq!(total_cores_reclaimed(&c), 2);
        assert_eq!(c.cores_reclaimed(0), 1);
        assert_eq!(c.cores_reclaimed(1), 1);
    }

    #[test]
    fn no_application_is_penalized_disproportionately() {
        let mut c = MultiAppController::new(ControllerConfig::default(), &[4, 4, 4], &[3, 3, 2], 1);
        for _ in 0..9 {
            let _ = c.decide(&violated());
        }
        // After 3 variant escalations and 6 core reclamations the spread between the most-
        // and least-penalized application is at most one core.
        let reclaimed: Vec<u32> = (0..3).map(|i| c.cores_reclaimed(i)).collect();
        let max = *reclaimed.iter().max().unwrap();
        let min = *reclaimed.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "round-robin must balance core reclamation: {reclaimed:?}"
        );
    }

    #[test]
    fn reclamation_stops_when_every_app_is_down_to_one_core() {
        let mut c = MultiAppController::new(ControllerConfig::default(), &[1, 1], &[2, 2], 0);
        // 2 variant escalations + 2 reclaimable cores, then nothing.
        for _ in 0..4 {
            assert!(!c.decide(&violated()).is_empty());
        }
        assert!(c.decide(&violated()).is_empty());
        assert_eq!(total_cores_reclaimed(&c), 2);
    }

    #[test]
    fn recovery_returns_cores_before_relaxing_variants() {
        let mut c = controller();
        for _ in 0..4 {
            let _ = c.decide(&violated());
        }
        let r1 = c.decide(&met(0.3));
        assert!(matches!(r1[0], Action::ReturnCore { .. }));
        let r2 = c.decide(&met(0.3));
        assert!(matches!(r2[0], Action::ReturnCore { .. }));
        assert_eq!(total_cores_reclaimed(&c), 0);
        let r3 = c.decide(&met(0.3));
        assert!(matches!(r3[0], Action::SetVariant { .. }));
    }

    #[test]
    fn low_slack_holds_state() {
        let mut c = controller();
        let _ = c.decide(&violated());
        assert!(c.decide(&met(0.02)).is_empty());
    }

    #[test]
    fn no_signal_holds_every_application() {
        let idle = MonitorReport {
            p99_s: 0.1,
            mean_s: 0.0,
            smoothed_p99_s: 0.1,
            sampled: 0,
            qos_violated: false,
            slack_fraction: 0.0,
            no_signal: true,
        };
        let mut c = controller();
        let _ = c.decide(&violated());
        let _ = c.decide(&violated());
        let before: Vec<Option<usize>> = (0..c.app_count()).map(|i| c.variant(i)).collect();
        assert!(c.decide(&idle).is_empty());
        let after: Vec<Option<usize>> = (0..c.app_count()).map(|i| c.variant(i)).collect();
        assert_eq!(before, after);
        assert_eq!(total_cores_reclaimed(&c), 0);
    }

    #[test]
    fn reset_app_clears_the_variant_but_keeps_the_core_ledger() {
        let mut c = controller();
        // Escalate both apps, then reclaim one core from app 0.
        for _ in 0..3 {
            let _ = c.decide(&violated());
        }
        assert_eq!(c.variant(0), Some(3));
        assert_eq!(c.cores_reclaimed(0), 1);
        // Slot 0's job finished; a new job with 6 variants takes the slot.
        c.reset_app(0, 6);
        assert_eq!(c.variant(0), None, "the new job starts precise");
        assert_eq!(
            c.cores_reclaimed(0),
            1,
            "the service still holds the slot's reclaimed core"
        );
        // The next violation escalates the new occupant to *its* most approximate
        // variant; recovery later returns the outstanding core to it.
        let a = c.decide(&violated());
        assert_eq!(
            a,
            vec![Action::SetVariant {
                app: 0,
                variant: Some(5)
            }]
        );
        let r = c.decide(&met(0.3));
        assert_eq!(
            r,
            vec![Action::ReturnCore { app: 0 }],
            "recovery returns the outstanding core to the slot's new occupant"
        );
    }

    #[test]
    fn start_pointer_rotates_first_victim() {
        let mut c = MultiAppController::new(ControllerConfig::default(), &[3, 3], &[4, 4], 1);
        let a = c.decide(&violated());
        assert_eq!(
            a,
            vec![Action::SetVariant {
                app: 1,
                variant: Some(2)
            }]
        );
    }

    #[test]
    fn single_app_keeps_its_most_approximate_variant_while_reclaiming() {
        let mut c = single(ControllerConfig::default(), 4, 8);
        let _ = c.decide(&violated());
        assert_eq!(c.decide(&violated()), vec![Action::ReclaimCore { app: 0 }]);
        assert_eq!(c.decide(&violated()), vec![Action::ReclaimCore { app: 0 }]);
        assert_eq!(c.cores_reclaimed(0), 2);
        assert_eq!(c.variant(0), Some(3));
    }

    #[test]
    fn single_app_violation_at_intermediate_variant_reverts_to_most_approximate() {
        let mut c = single(immediate(), 4, 8);
        let _ = c.decide(&violated()); // -> most approximate (3)
        let _ = c.decide(&met(0.3)); //   -> relax to 2
        assert_eq!(c.variant(0), Some(2));
        assert_eq!(
            c.decide(&violated()),
            vec![Action::SetVariant {
                app: 0,
                variant: Some(3)
            }]
        );
    }

    #[test]
    fn single_app_relaxation_steps_all_the_way_back_to_precise() {
        let mut c = single(immediate(), 2, 8);
        let _ = c.decide(&violated()); // -> variant 1 (most)
        let _ = c.decide(&met(0.5)); //   -> variant 0
        assert_eq!(
            c.decide(&met(0.5)),
            vec![Action::SetVariant {
                app: 0,
                variant: None
            }]
        );
        assert_eq!(c.variant(0), None);
        // Further slack with everything already precise does nothing.
        assert!(c.decide(&met(0.5)).is_empty());
    }

    #[test]
    fn default_hysteresis_requires_consecutive_slack_intervals() {
        let mut c = single(ControllerConfig::default(), 4, 8);
        let _ = c.decide(&violated()); // -> most approximate
        assert!(
            c.decide(&met(0.3)).is_empty(),
            "first high-slack interval only arms the streak"
        );
        assert_eq!(
            c.decide(&met(0.3)),
            vec![Action::SetVariant {
                app: 0,
                variant: Some(2)
            }]
        );
        // A violation or a low-slack interval resets the streak.
        let _ = c.decide(&violated());
        assert!(c.decide(&met(0.3)).is_empty());
        let _ = c.decide(&met(0.05));
        assert!(
            c.decide(&met(0.3)).is_empty(),
            "streak restarts after a low-slack interval"
        );
    }

    #[test]
    fn application_without_variants_goes_straight_to_cores() {
        let mut c = single(ControllerConfig::default(), 0, 8);
        assert_eq!(c.decide(&violated()), vec![Action::ReclaimCore { app: 0 }]);
    }

    #[test]
    fn reclamation_ledger_caps_at_the_one_core_floor_and_recovery_wastes_no_interval() {
        let mut c = single(immediate(), 1, 3); // 2 reclaimable cores
        let _ = c.decide(&violated()); // -> most approximate
        for _ in 0..2 {
            assert_eq!(c.decide(&violated()), vec![Action::ReclaimCore { app: 0 }]);
        }
        for _ in 0..5 {
            assert!(
                c.decide(&violated()).is_empty(),
                "nothing left to take at the floor"
            );
        }
        assert_eq!(
            c.cores_reclaimed(0),
            2,
            "ledger must not drift past the floor"
        );
        // Recovery: exactly two real ReturnCore actions, then straight to relaxing the
        // variant.
        assert_eq!(c.decide(&met(0.3)), vec![Action::ReturnCore { app: 0 }]);
        assert_eq!(c.decide(&met(0.3)), vec![Action::ReturnCore { app: 0 }]);
        assert_eq!(
            c.decide(&met(0.3)),
            vec![Action::SetVariant {
                app: 0,
                variant: None
            }]
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = MultiAppController::new(ControllerConfig::default(), &[3, 3], &[4], 0);
    }
}
