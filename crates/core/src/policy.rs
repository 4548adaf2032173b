//! Runtime policies: Pliant and the baselines it is compared against.
//!
//! The paper's baseline is **Precise**: both the interactive service and the approximate
//! application(s) keep their fair resource allocation and the approximate applications
//! always run precisely — no runtime adaptation at all. Two additional ablation policies
//! are provided for the benches: a static policy that pins every application to its most
//! approximate variant for the whole run (maximum contention relief, maximum quality
//! loss), and a reclaim-only policy that moves cores but never approximates (to isolate
//! the contribution of approximation itself).
//!
//! The four policies are one closed [`Policy`] enum whose variants hold each policy's
//! whole mutable state, so a checkpoint is the serialized enum itself.

use serde::{Deserialize, Serialize};

use crate::actuator::Action;
use crate::controller::ControllerConfig;
use crate::monitor::MonitorReport;
use crate::multi::MultiAppController;

/// A runtime policy deciding, once per decision interval, how to actuate.
///
/// Policies are intentionally anonymous: the single source of a policy's display name is
/// [`PolicyKind::name`], so result rows can never disagree with the selector that built
/// the policy. Build one with [`PolicyKind::build`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Policy {
    /// The Pliant runtime: the round-robin multi-application controller (which reduces
    /// to the Fig. 3 single-application algorithm when only one application is managed).
    Pliant(MultiAppController),
    /// The paper's baseline: never adapts anything.
    Precise,
    /// Ablation: pin every application to its most approximate variant at the start and
    /// never change anything afterwards.
    StaticMostApproximate {
        /// One-shot pins not yet delivered.
        pending: Vec<Action>,
    },
    /// Ablation: react to QoS violations by reclaiming cores only (no approximation), and
    /// return them as soon as slack is high. This is Pliant's controller over
    /// applications that expose no variants and with no slack hysteresis, so it moves
    /// cores in the same round-robin order.
    ReclaimOnly(MultiAppController),
}

impl Policy {
    /// Decides the actions for the next interval from this interval's monitor report.
    ///
    /// Every policy honours [`MonitorReport::no_signal`]: an idle interval (no arrivals)
    /// is evidence of neither violation nor slack, so reactive state (variant
    /// escalation/relaxation, core movement) holds. Only pending time-insensitive
    /// actions — the static policy's one-shot initial pin — may still be emitted.
    pub fn decide(&mut self, report: &MonitorReport) -> Vec<Action> {
        match self {
            Policy::Pliant(controller) | Policy::ReclaimOnly(controller) => {
                controller.decide(report)
            }
            Policy::Precise => Vec::new(),
            Policy::StaticMostApproximate { pending } => std::mem::take(pending),
        }
    }

    /// Notifies the policy that slot `app` now runs a different application with
    /// `variant_count` admissible variants (batch-job scheduling placed a fresh job into
    /// a finished slot).
    ///
    /// The new job starts precise, so any per-slot variant state resets, while the
    /// slot's core ledger persists — cores the service reclaimed from the slot are still
    /// reclaimed and must be returned to the new occupant during recovery.
    pub fn on_app_replaced(&mut self, app: usize, variant_count: usize) {
        match self {
            Policy::Pliant(controller) => controller.reset_app(app, variant_count),
            // Reclaim-only never approximates, whatever the new job supports.
            Policy::ReclaimOnly(controller) => controller.reset_app(app, 0),
            Policy::StaticMostApproximate { pending } => {
                // The replacement job starts precise; queue the same one-shot pin for it.
                pending.retain(
                    |a| !matches!(a, Action::SetVariant { app: pending_app, .. } if *pending_app == app),
                );
                if variant_count > 0 {
                    pending.push(Action::SetVariant {
                        app,
                        variant: Some(variant_count - 1),
                    });
                }
            }
            Policy::Precise => {}
        }
    }

    /// The selector that builds this policy.
    pub fn kind(&self) -> PolicyKind {
        match self {
            Policy::Pliant(_) => PolicyKind::Pliant,
            Policy::Precise => PolicyKind::Precise,
            Policy::StaticMostApproximate { .. } => PolicyKind::StaticMostApproximate,
            Policy::ReclaimOnly(_) => PolicyKind::ReclaimOnly,
        }
    }

    /// Whether the policy's per-application state fits a co-location of `apps`
    /// applications: per-application vectors have `apps` entries and every pending
    /// action names an application below `apps`.
    pub(crate) fn fits_app_count(&self, apps: usize) -> bool {
        match self {
            Policy::Pliant(controller) | Policy::ReclaimOnly(controller) => {
                controller.app_count() == apps
            }
            Policy::Precise => true,
            Policy::StaticMostApproximate { pending } => {
                pending.iter().all(|action| match *action {
                    Action::SetVariant { app, .. }
                    | Action::ReclaimCore { app }
                    | Action::ReturnCore { app } => app < apps,
                })
            }
        }
    }
}

/// Selector for the built-in policies, used by the scenario engine and harness binaries.
///
/// Serializes as its display name (the same string [`PolicyKind::name`] returns), so JSON
/// result rows are tagged `"pliant"`, `"precise"`, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The Pliant runtime (incremental approximation + core reclamation).
    #[serde(rename = "pliant")]
    Pliant,
    /// The paper's baseline: precise execution, static fair allocation.
    #[serde(rename = "precise")]
    Precise,
    /// Ablation: every application statically pinned to its most approximate variant.
    #[serde(rename = "static-most-approx")]
    StaticMostApproximate,
    /// Ablation: core reclamation only, no approximation.
    #[serde(rename = "reclaim-only")]
    ReclaimOnly,
}

impl PolicyKind {
    /// Every built-in policy, in comparison order (baseline last).
    pub fn all() -> [PolicyKind; 4] {
        [
            PolicyKind::Pliant,
            PolicyKind::Precise,
            PolicyKind::StaticMostApproximate,
            PolicyKind::ReclaimOnly,
        ]
    }

    /// Instantiates the policy for a co-location with the given per-application variant
    /// counts and initial core allocations.
    pub fn build(
        &self,
        config: ControllerConfig,
        variant_counts: &[usize],
        initial_cores: &[u32],
        start_pointer: usize,
    ) -> Policy {
        match self {
            PolicyKind::Pliant => Policy::Pliant(MultiAppController::new(
                config,
                variant_counts,
                initial_cores,
                start_pointer,
            )),
            PolicyKind::Precise => Policy::Precise,
            PolicyKind::StaticMostApproximate => Policy::StaticMostApproximate {
                pending: variant_counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &vc)| vc > 0)
                    .map(|(app, &vc)| Action::SetVariant {
                        app,
                        variant: Some(vc - 1),
                    })
                    .collect(),
            },
            PolicyKind::ReclaimOnly => Policy::ReclaimOnly(MultiAppController::new(
                ControllerConfig {
                    consecutive_slack_required: 1,
                    ..config
                },
                &vec![0; initial_cores.len()],
                initial_cores,
                start_pointer,
            )),
        }
    }

    /// Short name used in result rows (also the serialized representation).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Pliant => "pliant",
            PolicyKind::Precise => "precise",
            PolicyKind::StaticMostApproximate => "static-most-approx",
            PolicyKind::ReclaimOnly => "reclaim-only",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn build(kind: PolicyKind, variant_counts: &[usize]) -> Policy {
        let cores = vec![8; variant_counts.len()];
        kind.build(ControllerConfig::default(), variant_counts, &cores, 0)
    }

    fn total_cores_reclaimed(policy: &Policy) -> u32 {
        match policy {
            Policy::Pliant(c) => (0..c.app_count()).map(|app| c.cores_reclaimed(app)).sum(),
            _ => panic!("not a Pliant policy"),
        }
    }

    #[test]
    fn precise_policy_never_acts() {
        let mut p = Policy::Precise;
        assert!(p.decide(&violated()).is_empty());
        assert!(p.decide(&met(0.5)).is_empty());
    }

    #[test]
    fn static_policy_emits_switches_once() {
        let mut p = build(PolicyKind::StaticMostApproximate, &[4, 0, 2]);
        let first = p.decide(&met(0.0));
        assert_eq!(
            first,
            vec![
                Action::SetVariant {
                    app: 0,
                    variant: Some(3)
                },
                Action::SetVariant {
                    app: 2,
                    variant: Some(1)
                },
            ]
        );
        assert!(p.decide(&violated()).is_empty());
    }

    #[test]
    fn static_policy_pins_even_through_an_idle_start() {
        // The one-shot pin is time-insensitive: a run that begins in an idle trough
        // (no-signal reports) must still start its applications approximated.
        let idle = MonitorReport {
            p99_s: 0.0,
            mean_s: 0.0,
            smoothed_p99_s: 0.0,
            sampled: 0,
            qos_violated: false,
            slack_fraction: 0.0,
            no_signal: true,
        };
        let mut p = build(PolicyKind::StaticMostApproximate, &[4]);
        assert_eq!(
            p.decide(&idle),
            vec![Action::SetVariant {
                app: 0,
                variant: Some(3)
            }]
        );
    }

    #[test]
    fn reclaim_only_moves_cores_back_and_forth() {
        let mut p = PolicyKind::ReclaimOnly.build(ControllerConfig::default(), &[4], &[3], 0);
        assert_eq!(p.decide(&violated()), vec![Action::ReclaimCore { app: 0 }]);
        assert_eq!(p.decide(&violated()), vec![Action::ReclaimCore { app: 0 }]);
        assert!(
            p.decide(&violated()).is_empty(),
            "only two cores are reclaimable from three"
        );
        assert_eq!(p.decide(&met(0.3)), vec![Action::ReturnCore { app: 0 }]);
        // A replacement job with variants is not approximated either.
        p.on_app_replaced(0, 5);
        assert_eq!(p.decide(&violated()), vec![Action::ReclaimCore { app: 0 }]);
    }

    #[test]
    fn policy_kind_names_are_unique_and_stable() {
        for (kind, expected) in [
            (PolicyKind::Pliant, "pliant"),
            (PolicyKind::Precise, "precise"),
            (PolicyKind::StaticMostApproximate, "static-most-approx"),
            (PolicyKind::ReclaimOnly, "reclaim-only"),
        ] {
            assert_eq!(build(kind, &[4]).kind(), kind);
            assert_eq!(kind.name(), expected);
            assert_eq!(kind.to_string(), expected);
        }
        let names: std::collections::BTreeSet<&str> =
            PolicyKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), PolicyKind::all().len());
    }

    #[test]
    fn static_policy_repins_a_replaced_app() {
        let mut p = build(PolicyKind::StaticMostApproximate, &[3]);
        let _ = p.decide(&met(0.0)); // initial pin delivered
        p.on_app_replaced(0, 5);
        assert_eq!(
            p.decide(&met(0.0)),
            vec![Action::SetVariant {
                app: 0,
                variant: Some(4)
            }],
            "the replacement job must be pinned to its own most approximate variant"
        );
        // A replacement by a variant-less job cancels any stale pending pin.
        p.on_app_replaced(0, 4);
        p.on_app_replaced(0, 0);
        assert!(p.decide(&met(0.0)).is_empty());
    }

    #[test]
    fn pliant_policy_resets_a_replaced_apps_variant_but_not_its_ledger() {
        let mut p = build(PolicyKind::Pliant, &[2]);
        let _ = p.decide(&violated()); // escalate
        let _ = p.decide(&violated()); // reclaim a core
        assert_eq!(total_cores_reclaimed(&p), 1);
        p.on_app_replaced(0, 4);
        assert_eq!(
            total_cores_reclaimed(&p),
            1,
            "the core ledger survives job replacement"
        );
        assert_eq!(
            p.decide(&violated()),
            vec![Action::SetVariant {
                app: 0,
                variant: Some(3)
            }],
            "the new job escalates from precise to its own most approximate variant"
        );
    }

    #[test]
    fn pliant_policy_reports_reclaimed_cores() {
        let mut p = build(PolicyKind::Pliant, &[2]);
        let _ = p.decide(&violated());
        let _ = p.decide(&violated());
        assert_eq!(total_cores_reclaimed(&p), 1);
    }
}
