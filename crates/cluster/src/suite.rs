//! Fleet-level sweeps: the cluster axes of the generic [`pliant_core::suite::Suite`].
//!
//! A [`ClusterSuite`] is a [`Suite`] over a base [`ClusterScenario`], swept by
//! [`ClusterSweepAxis`] values — node counts, scheduler policies, per-node runtime
//! policies, loads, and seeds — and run with
//! [`Engine::run_collect`](pliant_core::engine::Engine::run_collect), which fans whole
//! fleets out over the engine's workers while each fleet steps its nodes serially.
//! Seed handling is the single-node suite's: [`SeedMode::CommonRandomNumbers`] gives
//! paired cells (e.g. a Precise and a Pliant fleet at the same node count) identical
//! workload randomness, which is what makes the machines-needed comparison a paired
//! experiment; [`SeedMode::Independent`] derives a unique deterministic seed per cell.
//!
//! [`SeedMode::CommonRandomNumbers`]: pliant_core::suite::SeedMode::CommonRandomNumbers
//! [`SeedMode::Independent`]: pliant_core::suite::SeedMode::Independent

use serde::{Deserialize, Serialize};

use pliant_core::engine::Engine;
use pliant_core::policy::PolicyKind;
use pliant_core::suite::{Axis, Suite, SweepScenario};

use crate::engine::ClusterRun;
use crate::outcome::ClusterOutcome;
use crate::scenario::{ClusterScenario, ClusterScenarioError};
use crate::scheduler::SchedulerKind;

/// A base cluster scenario plus sweep axes, expanding into a cartesian grid.
///
/// # Example
///
/// ```
/// use pliant_approx::catalog::AppId;
/// use pliant_cluster::scenario::ClusterScenario;
/// use pliant_cluster::suite::{ClusterSuite, ClusterSweepAxis};
/// use pliant_core::engine::Engine;
/// use pliant_core::policy::PolicyKind;
/// use pliant_core::scenario::Horizon;
/// use pliant_workloads::service::ServiceId;
///
/// let base = ClusterScenario {
///     nodes: 2,
///     jobs: vec![AppId::Canneal; 4],
///     horizon: Horizon::Intervals(20),
///     ..ClusterScenario::paper_default(ServiceId::Memcached)
/// };
/// let suite = ClusterSuite::new(base)
///     .sweep(ClusterSweepAxis::Policies(vec![PolicyKind::Precise, PolicyKind::Pliant]))
///     .sweep(ClusterSweepAxis::NodeCounts(vec![2, 3, 4]));
/// assert_eq!(suite.len(), 6);
/// let cells = Engine::new().parallel().run_collect(&suite);
/// assert_eq!(cells[5].outcome.nodes, 4);
/// ```
pub type ClusterSuite = Suite<ClusterScenario>;

/// One sweep dimension of a [`ClusterSuite`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterSweepAxis {
    /// Vary the fleet size (the axis the machines-needed search minimizes over). The
    /// base scenario's job list must cover the largest node count
    /// (`nodes × slots_per_node` jobs), or validation rejects the suite.
    NodeCounts(Vec<usize>),
    /// Vary the job-placement policy.
    Schedulers(Vec<SchedulerKind>),
    /// Vary the per-node runtime policy.
    Policies(Vec<PolicyKind>),
    /// Vary the average offered load per node.
    AvgLoads(Vec<f64>),
    /// Vary the base seed (replications).
    Seeds(Vec<u64>),
}

impl Axis<ClusterScenario> for ClusterSweepAxis {
    fn value_count(&self) -> usize {
        match self {
            ClusterSweepAxis::NodeCounts(v) => v.len(),
            ClusterSweepAxis::Schedulers(v) => v.len(),
            ClusterSweepAxis::Policies(v) => v.len(),
            ClusterSweepAxis::AvgLoads(v) => v.len(),
            ClusterSweepAxis::Seeds(v) => v.len(),
        }
    }

    fn knob(&self) -> &'static str {
        match self {
            ClusterSweepAxis::NodeCounts(_) => "nodes",
            ClusterSweepAxis::Schedulers(_) => "scheduler",
            ClusterSweepAxis::Policies(_) => "policy",
            ClusterSweepAxis::AvgLoads(_) => "load",
            ClusterSweepAxis::Seeds(_) => "seed",
        }
    }

    fn apply(&self, idx: usize, scenario: &mut ClusterScenario) -> String {
        match self {
            ClusterSweepAxis::NodeCounts(v) => {
                scenario.nodes = v[idx];
                format!("nodes={}", v[idx])
            }
            ClusterSweepAxis::Schedulers(v) => {
                scenario.scheduler = v[idx];
                v[idx].name().to_string()
            }
            ClusterSweepAxis::Policies(v) => {
                scenario.policy = v[idx];
                v[idx].name().to_string()
            }
            ClusterSweepAxis::AvgLoads(v) => {
                scenario.avg_node_load = v[idx];
                scenario.load_profile = None;
                format!("load={:.2}", v[idx])
            }
            ClusterSweepAxis::Seeds(v) => {
                scenario.seed = v[idx];
                format!("seed={}", v[idx])
            }
        }
    }
}

impl SweepScenario for ClusterScenario {
    type Axis = ClusterSweepAxis;
    type Outcome = ClusterOutcome;
    type Error = ClusterScenarioError;
    const SEED_SALT: u64 = 0xC1D0_5EED;
    const DEFAULT_NAME: &'static str = "cluster-suite";

    fn seed_mut(&mut self) -> &mut u64 {
        &mut self.seed
    }

    fn label_mut(&mut self) -> &mut Option<String> {
        &mut self.label
    }

    fn validate(&self) -> Result<(), ClusterScenarioError> {
        ClusterScenario::validate(self)
    }

    /// Runs the whole fleet on the calling thread: a suite's parallelism is across
    /// fleets, never within one.
    fn run_cell(&self, engine: &Engine) -> ClusterOutcome {
        ClusterRun::new(self, engine).finish().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_approx::catalog::AppId;
    use pliant_core::scenario::Horizon;
    use pliant_core::suite::{SeedMode, SuiteError};
    use pliant_workloads::service::ServiceId;

    fn base() -> ClusterScenario {
        ClusterScenario {
            nodes: 2,
            jobs: vec![AppId::Canneal; 6],
            horizon: Horizon::Intervals(15),
            seed: 7,
            ..ClusterScenario::paper_default(ServiceId::Nginx)
        }
    }

    #[test]
    fn cartesian_expansion_orders_cells_row_major() {
        let suite = ClusterSuite::new(base())
            .named("grid")
            .sweep(ClusterSweepAxis::Policies(vec![
                PolicyKind::Precise,
                PolicyKind::Pliant,
            ]))
            .sweep(ClusterSweepAxis::NodeCounts(vec![2, 3, 4]));
        assert_eq!(suite.len(), 6);
        let cells = suite.scenarios();
        assert_eq!(cells[0].policy, PolicyKind::Precise);
        assert_eq!(cells[0].nodes, 2);
        assert_eq!(cells[2].nodes, 4);
        assert_eq!(cells[3].policy, PolicyKind::Pliant);
        assert_eq!(cells[5].label.as_deref(), Some("grid/pliant/nodes=4"));
        assert_eq!(suite.validate(), Ok(()));
    }

    #[test]
    fn common_random_numbers_pair_fleet_cells() {
        let suite = ClusterSuite::new(base()).sweep(ClusterSweepAxis::Policies(vec![
            PolicyKind::Precise,
            PolicyKind::Pliant,
        ]));
        let cells = suite.scenarios();
        assert_eq!(cells[0].seed, 7);
        assert_eq!(cells[1].seed, 7);
    }

    #[test]
    fn independent_seeds_never_collide() {
        let suite = ClusterSuite::new(base())
            .seed_mode(SeedMode::Independent)
            .sweep(ClusterSweepAxis::NodeCounts(vec![2, 3]))
            .sweep(ClusterSweepAxis::Policies(vec![
                PolicyKind::Precise,
                PolicyKind::Pliant,
            ]))
            .sweep(ClusterSweepAxis::Schedulers(SchedulerKind::all().to_vec()));
        let seeds: std::collections::BTreeSet<u64> =
            suite.scenarios().iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), suite.len(), "per-cell seeds must be unique");
    }

    #[test]
    fn node_counts_beyond_the_job_list_fail_validation() {
        let suite = ClusterSuite::new(base()).sweep(ClusterSweepAxis::NodeCounts(vec![2, 40]));
        match suite.validate() {
            Err(SuiteError::InvalidCell { index: 1, error }) => {
                assert!(matches!(
                    error,
                    crate::scenario::ClusterScenarioError::NotEnoughJobs { .. }
                ));
            }
            other => panic!("expected an invalid-cell error, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot sweep the `scheduler` knob twice")]
    fn duplicate_axes_are_rejected() {
        let _ = ClusterSuite::new(base())
            .sweep(ClusterSweepAxis::Schedulers(vec![SchedulerKind::FirstFit]))
            .sweep(ClusterSweepAxis::Schedulers(SchedulerKind::all().to_vec()));
    }

    #[test]
    fn suite_round_trips_through_serde() {
        let suite = ClusterSuite::new(base())
            .named("rt")
            .seed_mode(SeedMode::Independent)
            .sweep(ClusterSweepAxis::AvgLoads(vec![0.5, 0.8]))
            .sweep(ClusterSweepAxis::Seeds(vec![1, 2]));
        let json = serde_json::to_string(&suite).expect("serializable");
        let back: ClusterSuite = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, suite);
        assert_eq!(back.scenarios(), suite.scenarios());
    }

    #[test]
    fn approximation_config_round_trips_through_the_suite_archive() {
        use crate::scenario::FleetApproximation;

        let clustered_base = ClusterScenario {
            approximation: FleetApproximation::Clustered {
                representatives_per_group: 3,
            },
            ..base()
        };
        let suite = ClusterSuite::new(clustered_base)
            .named("approx-rt")
            .sweep(ClusterSweepAxis::NodeCounts(vec![2, 3]));
        let json = serde_json::to_string(&suite).expect("serializable");
        let back: ClusterSuite = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, suite);
        // The approximation knob is part of the base scenario, so every expanded cell
        // inherits it.
        for cell in back.scenarios() {
            assert_eq!(
                cell.approximation,
                FleetApproximation::Clustered {
                    representatives_per_group: 3
                }
            );
        }
    }

    #[test]
    fn pre_hyperscale_suite_archives_deserialize_as_exact() {
        use crate::scenario::FleetApproximation;

        // A suite archived before the approximation knob existed has no
        // `approximation` field in its base scenario; it must deserialize as an exact
        // fleet, so replaying old archives reproduces old results.
        let json = serde_json::to_string(&ClusterSuite::new(base()).named("legacy"))
            .expect("serializable");
        let legacy = json.replace("\"approximation\":\"Exact\",", "");
        assert!(!legacy.contains("approximation"));
        let back: ClusterSuite = serde_json::from_str(&legacy).expect("deserializable");
        assert_eq!(back.scenario_at(0).approximation, FleetApproximation::Exact);
    }

    #[test]
    fn suites_with_invalid_approximation_are_rejected_at_the_archive_boundary() {
        // Forge a zero-representative clustered config in the archive: the suite must
        // be rejected on deserialize, not when the engine expands the grid.
        let suite = ClusterSuite::new(base()).named("forged");
        let json = serde_json::to_string(&suite).expect("serializable");
        let forged = json.replace(
            "\"approximation\":\"Exact\"",
            "\"approximation\":{\"Clustered\":{\"representatives_per_group\":0}}",
        );
        assert_ne!(forged, json, "the forgery must have taken effect");
        let err = serde_json::from_str::<ClusterSuite>(&forged)
            .expect_err("zero representatives must be rejected");
        let msg = format!("{err}");
        assert!(
            msg.contains("at least one representative"),
            "unexpected error message: {msg}"
        );
    }

    fn pinned_suite() -> ClusterSuite {
        ClusterSuite::new(base())
            .named("pin")
            .seed_mode(SeedMode::Independent)
            .sweep(ClusterSweepAxis::NodeCounts(vec![2, 3]))
            .sweep(ClusterSweepAxis::Schedulers(vec![
                SchedulerKind::FirstFit,
                SchedulerKind::QosSlackAware,
            ]))
    }

    #[test]
    fn suite_wire_format_is_pinned() {
        // Captured while fleet suites still had their own implementation, less the
        // four controller fields (decision interval, slack threshold, slack streak,
        // QoS override) and the balancer that fleet scenarios no longer carry: the
        // generic suite must write and read the same archive bytes.
        const PINNED: &str = r#"{"name":"pin","base":{"label":null,"nodes":2,"service":"Nginx","policy":"pliant","scheduler":"first-fit","jobs":["Canneal","Canneal","Canneal","Canneal","Canneal","Canneal"],"slots_per_node":1,"avg_node_load":0.75,"load_profile":null,"horizon":{"Intervals":15},"warmup_intervals":5,"autoscaler":null,"approximation":"Exact","seed":7},"seed_mode":"Independent","axes":[{"NodeCounts":[2,3]},{"Schedulers":["first-fit","qos-slack"]}]}"#;
        let suite = pinned_suite();
        assert_eq!(serde_json::to_string(&suite).expect("serializable"), PINNED);
        let back: ClusterSuite = serde_json::from_str(PINNED).expect("deserializable");
        assert_eq!(back, suite);
    }

    #[test]
    fn suites_sweeping_the_retired_balancer_axis_fail_to_parse() {
        let json = serde_json::to_string(&pinned_suite()).expect("serializable");
        let retired = json.replace(
            r#"{"Schedulers":["first-fit","qos-slack"]}"#,
            r#"{"Balancers":["round-robin","least-loaded"]}"#,
        );
        assert_ne!(retired, json, "the retired axis must have been written");
        let err = serde_json::from_str::<ClusterSuite>(&retired)
            .expect_err("fleets split load one way: there is no balancer axis");
        assert!(err.to_string().contains("Balancers"), "{err}");
    }

    #[test]
    fn independent_fleet_seeds_are_pinned() {
        // No figure golden covers fleet suites in Independent mode, so pin the derived
        // seeds (fleet salt, two coordinate axes) captured from the original derivation.
        // Seeds derive from axis positions, not knobs, so they are the ones the
        // original derivation gave a node-count × two-value second axis.
        let cells: Vec<(u64, String)> = pinned_suite()
            .scenarios()
            .into_iter()
            .map(|s| (s.seed, s.label.expect("suites label every cell")))
            .collect();
        let expected = [
            (6531731496540709764, "pin/nodes=2/first-fit"),
            (4356111305606929025, "pin/nodes=2/qos-slack"),
            (13690443037434887891, "pin/nodes=3/first-fit"),
            (8405753463952676410, "pin/nodes=3/qos-slack"),
        ];
        assert_eq!(cells.len(), expected.len());
        for ((seed, label), (want_seed, want_label)) in cells.iter().zip(expected) {
            assert_eq!((*seed, label.as_str()), (want_seed, want_label));
        }
    }
}
