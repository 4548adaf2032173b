//! Composable sweeps over single-node scenario axes.
//!
//! A [`Suite`] is a base scenario plus an ordered list of sweep axes. The suite expands
//! into the cartesian grid of all axis values; each grid cell is a fully-specified
//! scenario with a deterministic seed and a generated label, ready for
//! [`crate::engine::Engine::run_collect`] to execute serially or in parallel.
//!
//! # Seed derivation
//!
//! Two modes, chosen with [`Suite::seed_mode`]:
//!
//! * [`SeedMode::CommonRandomNumbers`] (default): every cell shares the scenario seed
//!   (or the seed-axis value, when a seed axis is present). Paired cells — e.g. Precise
//!   vs Pliant at the same load — then see *identical* arrival and service-time
//!   randomness, which is the classic variance-reduction technique for A/B comparisons
//!   and matches how the legacy free-function drivers behaved.
//! * [`SeedMode::Independent`]: every cell's seed is derived from the base seed, a
//!   fixed salt and the cell's sweep coordinates through the SplitMix64 finalizer
//!   chain, so no two cells share an RNG stream — the right mode when aggregating
//!   across cells as if they were independent experiments.
//!
//! Both modes are fully deterministic: the same suite always expands to the same
//! scenarios with the same seeds.

use std::fmt;

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::AppId;
use pliant_telemetry::rng::derive_seed;
use pliant_workloads::profile::LoadProfile;
use pliant_workloads::service::ServiceId;

use crate::policy::PolicyKind;
use crate::scenario::{Scenario, ScenarioError};

/// Salt of the [`SeedMode::Independent`] derivation.
const SEED_SALT: u64 = 0x1D0_5EED;

/// One sweep dimension of a [`Suite`]: a list of values for one scenario knob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Vary the interactive service.
    Services(Vec<ServiceId>),
    /// Vary the set of co-located applications.
    AppSets(Vec<Vec<AppId>>),
    /// Vary the runtime policy.
    Policies(Vec<PolicyKind>),
    /// Vary the offered load fraction (constant over each run; clears any time-varying
    /// profile the base scenario carries).
    Loads(Vec<f64>),
    /// Vary the time-varying load profile (diurnal, flash crowd, trace, …).
    LoadProfiles(Vec<LoadProfile>),
    /// Vary the decision interval in seconds. Combine with a wall-clock
    /// [`crate::scenario::Horizon::Seconds`] horizon so every cell simulates the same
    /// amount of service time.
    DecisionIntervalsS(Vec<f64>),
    /// Vary the base seed (replications).
    Seeds(Vec<u64>),
}

impl SweepAxis {
    /// Number of values.
    fn value_count(&self) -> usize {
        match self {
            SweepAxis::Services(v) => v.len(),
            SweepAxis::AppSets(v) => v.len(),
            SweepAxis::Policies(v) => v.len(),
            SweepAxis::Loads(v) => v.len(),
            SweepAxis::LoadProfiles(v) => v.len(),
            SweepAxis::DecisionIntervalsS(v) => v.len(),
            SweepAxis::Seeds(v) => v.len(),
        }
    }

    /// The scenario knob this axis writes. Axes writing the same knob cannot coexist in
    /// one suite (the later one would silently overwrite the earlier in every cell).
    /// The knob `"seed"` marks the replication axis, which
    /// [`SeedMode::Independent`] leaves out of the coordinate hash.
    fn knob(&self) -> &'static str {
        match self {
            SweepAxis::Services(_) => "service",
            SweepAxis::AppSets(_) => "apps",
            SweepAxis::Policies(_) => "policy",
            SweepAxis::Loads(_) | SweepAxis::LoadProfiles(_) => "load",
            SweepAxis::DecisionIntervalsS(_) => "decision-interval",
            SweepAxis::Seeds(_) => "seed",
        }
    }

    /// Applies value `idx` to `scenario`, returning the label fragment.
    fn apply(&self, idx: usize, scenario: &mut Scenario) -> String {
        match self {
            SweepAxis::Services(v) => {
                scenario.service = v[idx];
                v[idx].name().to_string()
            }
            SweepAxis::AppSets(v) => {
                scenario.apps = v[idx].clone();
                let names: Vec<&str> = v[idx].iter().map(|a| a.name()).collect();
                names.join("+")
            }
            SweepAxis::Policies(v) => {
                scenario.policy = v[idx];
                v[idx].name().to_string()
            }
            SweepAxis::Loads(v) => {
                scenario.load_fraction = v[idx];
                scenario.load_profile = None;
                format!("load={:.2}", v[idx])
            }
            SweepAxis::LoadProfiles(v) => {
                scenario.load_profile = Some(v[idx].clone());
                format!("profile={}", v[idx].describe())
            }
            SweepAxis::DecisionIntervalsS(v) => {
                scenario.decision_interval_s = v[idx];
                format!("dt={}s", v[idx])
            }
            SweepAxis::Seeds(v) => {
                scenario.seed = v[idx];
                format!("seed={}", v[idx])
            }
        }
    }
}

/// Why a [`Suite`] failed [`Suite::validate`].
///
/// The builder methods enforce the axis invariants at construction, but suites are
/// plain serde data: an archived or hand-edited suite can violate them, and any sweep
/// value can expand into a cell that cannot run. Deserialization and the engine both
/// check every cell before anything runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteError {
    /// An axis has no values (the grid would be empty).
    EmptyAxis,
    /// Two axes write the same scenario knob; the later one would silently overwrite
    /// the earlier in every cell while labels still claim the full grid.
    DuplicateKnob(&'static str),
    /// A grid cell expands into a scenario that fails its own validation.
    InvalidCell {
        /// Index of the first invalid cell.
        index: usize,
        /// Why that cell's scenario failed validation.
        error: ScenarioError,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::EmptyAxis => f.write_str("sweep axes must not be empty"),
            SuiteError::DuplicateKnob(knob) => {
                write!(f, "two axes sweep the `{knob}` knob")
            }
            SuiteError::InvalidCell { index, error } => {
                write!(f, "cell {index} expands into an invalid scenario: {error}")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// How a [`Suite`] assigns seeds to grid cells; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedMode {
    /// Paired cells share randomness (the default; classic variance reduction for
    /// Precise-vs-Pliant style comparisons).
    CommonRandomNumbers,
    /// Every cell gets a unique seed derived from its sweep coordinates.
    Independent,
}

/// A base scenario plus sweep axes, expanding into a cartesian grid of scenarios.
///
/// # Example
///
/// ```
/// use pliant_approx::catalog::AppId;
/// use pliant_core::policy::PolicyKind;
/// use pliant_core::scenario::Scenario;
/// use pliant_core::suite::Suite;
/// use pliant_workloads::service::ServiceId;
///
/// let suite = Suite::new(
///     Scenario::builder(ServiceId::Nginx)
///         .app(AppId::Canneal)
///         .horizon_intervals(40)
///         .build(),
/// )
/// .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
/// .sweep_loads([0.5, 0.75, 0.9]);
///
/// assert_eq!(suite.len(), 6);
/// let cells = suite.scenarios();
/// assert_eq!(cells[0].policy, PolicyKind::Precise);
/// assert_eq!(cells[0].load_fraction, 0.5);
/// ```
///
/// Deserialization runs [`Suite::validate`], so an archive with an empty axis, a
/// duplicated knob or a cell that cannot run is rejected when it is read, not when the
/// engine reaches it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(validate = "Suite::validate")]
pub struct Suite {
    name: String,
    base: Scenario,
    seed_mode: SeedMode,
    axes: Vec<SweepAxis>,
}

impl Suite {
    /// Creates a suite with no sweep axes (a single-cell grid of `base`).
    pub fn new(base: Scenario) -> Self {
        Suite {
            name: "suite".to_string(),
            base,
            seed_mode: SeedMode::CommonRandomNumbers,
            axes: Vec::new(),
        }
    }

    /// Names the suite (used as the label prefix of every cell).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Selects how per-cell seeds are derived; see [`SeedMode`].
    pub fn seed_mode(mut self, mode: SeedMode) -> Self {
        self.seed_mode = mode;
        self
    }

    /// Adds a sweep axis; earlier axes vary slowest.
    ///
    /// # Panics
    ///
    /// Panics if the axis is empty or sweeps a knob an earlier axis already sweeps.
    /// (Constant loads and load profiles share one knob — fold constant loads into the
    /// profile axis as `LoadProfile::constant(...)` cells instead.)
    fn sweep(mut self, axis: SweepAxis) -> Self {
        assert!(axis.value_count() > 0, "sweep axes must not be empty");
        assert!(
            !self.axes.iter().any(|a| a.knob() == axis.knob()),
            "a suite cannot sweep the `{}` knob twice; merge the values into one axis",
            axis.knob()
        );
        self.axes.push(axis);
        self
    }

    /// The suite's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Re-checks the invariants the builder enforces (non-empty axes, one axis per
    /// scenario knob) and that every cell's scenario passes its own validation.
    /// Deserialization and [`crate::engine::Engine::run_collect`] call this before
    /// anything runs.
    pub fn validate(&self) -> Result<(), SuiteError> {
        self.checked_scenarios().map(drop)
    }

    /// Every cell in index order, after [`Self::validate`]'s checks.
    pub(crate) fn checked_scenarios(&self) -> Result<Vec<Scenario>, SuiteError> {
        let mut knobs: Vec<&'static str> = Vec::with_capacity(self.axes.len());
        for axis in &self.axes {
            if axis.value_count() == 0 {
                return Err(SuiteError::EmptyAxis);
            }
            let knob = axis.knob();
            if knobs.contains(&knob) {
                return Err(SuiteError::DuplicateKnob(knob));
            }
            knobs.push(knob);
        }
        let scenarios = self.scenarios();
        for (index, scenario) in scenarios.iter().enumerate() {
            scenario
                .validate()
                .map_err(|error| SuiteError::InvalidCell { index, error })?;
        }
        Ok(scenarios)
    }

    /// Number of grid cells (product of axis lengths; 1 with no axes).
    pub fn len(&self) -> usize {
        self.axes.iter().map(SweepAxis::value_count).product()
    }

    /// Whether the grid is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the scenario of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn scenario_at(&self, index: usize) -> Scenario {
        assert!(index < self.len(), "cell index {index} out of range");
        // Mixed-radix coordinates of the cell (earlier axes vary slowest).
        let mut coords = vec![0; self.axes.len()];
        let mut rem = index;
        for (i, axis) in self.axes.iter().enumerate().rev() {
            coords[i] = rem % axis.value_count();
            rem /= axis.value_count();
        }
        let mut scenario = self.base.clone();
        let mut parts: Vec<String> = Vec::with_capacity(coords.len());
        for (axis, &c) in self.axes.iter().zip(&coords) {
            parts.push(axis.apply(c, &mut scenario));
        }
        // The seed axis, if any, has already written the base seed of this cell.
        if self.seed_mode == SeedMode::Independent {
            let mut seed = derive_seed(scenario.seed, SEED_SALT);
            for (i, (axis, &c)) in self.axes.iter().zip(&coords).enumerate() {
                if axis.knob() != "seed" {
                    seed = derive_seed(seed, ((i as u64 + 1) << 32) | c as u64);
                }
            }
            scenario.seed = seed;
        }
        scenario.label = Some(if parts.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.name, parts.join("/"))
        });
        scenario
    }

    /// Materializes every cell in index order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        (0..self.len()).map(|i| self.scenario_at(i)).collect()
    }

    /// Adds a sweep over interactive services.
    pub fn for_each_service(self, services: impl IntoIterator<Item = ServiceId>) -> Self {
        self.sweep(SweepAxis::Services(services.into_iter().collect()))
    }

    /// Adds a sweep running each application on its own (singleton application sets).
    pub fn for_each_app(self, apps: impl IntoIterator<Item = AppId>) -> Self {
        self.sweep(SweepAxis::AppSets(
            apps.into_iter().map(|a| vec![a]).collect(),
        ))
    }

    /// Adds a sweep over explicit application sets (multi-application mixes).
    pub fn for_each_app_set(self, sets: impl IntoIterator<Item = Vec<AppId>>) -> Self {
        self.sweep(SweepAxis::AppSets(sets.into_iter().collect()))
    }

    /// Adds a sweep over policies.
    pub fn sweep_policies(self, policies: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.sweep(SweepAxis::Policies(policies.into_iter().collect()))
    }

    /// Adds a sweep over load fractions.
    pub fn sweep_loads(self, loads: impl IntoIterator<Item = f64>) -> Self {
        self.sweep(SweepAxis::Loads(loads.into_iter().collect()))
    }

    /// Adds a sweep over time-varying load profiles. Like every other axis this composes
    /// with [`SeedMode`]: under common random numbers, paired cells (e.g. constant vs
    /// flash crowd at the same seed) see identical arrival-sampling randomness.
    ///
    /// # Panics
    ///
    /// Panics if any profile fails [`LoadProfile::validate`] — the same check
    /// [`crate::scenario::ScenarioBuilder::try_build`] applies to a directly-built
    /// scenario, surfaced at sweep construction instead of mid-suite execution.
    pub fn sweep_load_profiles(self, profiles: impl IntoIterator<Item = LoadProfile>) -> Self {
        let profiles: Vec<LoadProfile> = profiles.into_iter().collect();
        for profile in &profiles {
            if let Err(e) = profile.validate() {
                panic!(
                    "invalid load profile `{}` in sweep: {e}",
                    profile.describe()
                );
            }
        }
        self.sweep(SweepAxis::LoadProfiles(profiles))
    }

    /// Adds a sweep over decision intervals (seconds). Pair with a wall-clock horizon
    /// ([`crate::scenario::ScenarioBuilder::horizon_seconds`]) so all cells simulate the
    /// same amount of service time.
    pub fn sweep_decision_intervals_s(self, intervals: impl IntoIterator<Item = f64>) -> Self {
        self.sweep(SweepAxis::DecisionIntervalsS(
            intervals.into_iter().collect(),
        ))
    }

    /// Adds a sweep over explicit base seeds (replications).
    pub fn sweep_seeds(self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.sweep(SweepAxis::Seeds(seeds.into_iter().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Horizon, ScenarioError};

    fn base() -> Scenario {
        Scenario::builder(ServiceId::Nginx)
            .app(AppId::Canneal)
            .horizon_intervals(30)
            .seed(7)
            .build()
    }

    #[test]
    fn cartesian_expansion_orders_cells_row_major() {
        let suite = Suite::new(base())
            .named("grid")
            .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
            .sweep_loads([0.4, 0.6, 0.8]);
        assert_eq!(suite.len(), 6);
        let cells = suite.scenarios();
        // First axis varies slowest.
        assert_eq!(cells[0].policy, PolicyKind::Precise);
        assert_eq!(cells[0].load_fraction, 0.4);
        assert_eq!(cells[2].policy, PolicyKind::Precise);
        assert_eq!(cells[2].load_fraction, 0.8);
        assert_eq!(cells[3].policy, PolicyKind::Pliant);
        assert_eq!(cells[3].load_fraction, 0.4);
        assert_eq!(cells[5].label.as_deref(), Some("grid/pliant/load=0.80"));
    }

    #[test]
    fn common_random_numbers_pair_cells() {
        let suite = Suite::new(base()).sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);
        let cells = suite.scenarios();
        assert_eq!(cells[0].seed, 7);
        assert_eq!(cells[1].seed, 7);
    }

    #[test]
    fn independent_seeds_never_collide() {
        let suite = Suite::new(base())
            .seed_mode(SeedMode::Independent)
            .for_each_service(ServiceId::all())
            .sweep_loads([0.4, 0.6, 0.8, 1.0])
            .sweep_seeds([7, 8, 9]);
        let seeds: std::collections::BTreeSet<u64> =
            suite.scenarios().iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), suite.len(), "per-cell seeds must be unique");
    }

    #[test]
    fn seed_axis_controls_the_base_seed_under_crn() {
        let suite = Suite::new(base())
            .sweep_seeds([100, 200])
            .sweep_loads([0.5, 0.9]);
        let cells = suite.scenarios();
        assert_eq!(cells[0].seed, 100);
        assert_eq!(cells[1].seed, 100);
        assert_eq!(cells[2].seed, 200);
        assert_eq!(cells[3].seed, 200);
    }

    #[test]
    fn interval_axis_with_wall_clock_horizon_keeps_equal_time() {
        let base = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .horizon_seconds(60.0)
            .build();
        let suite = Suite::new(base).sweep_decision_intervals_s([1.0, 8.0]);
        let cells = suite.scenarios();
        assert_eq!(cells[0].max_intervals(), 60);
        assert_eq!(cells[1].max_intervals(), 8);
        assert_eq!(cells[0].horizon, Horizon::Seconds(60.0));
        assert!((cells[1].max_intervals() as f64 * 8.0 - 64.0).abs() < 1e-9);
    }

    #[test]
    fn load_profile_axis_expands_and_labels_cells() {
        let flash = LoadProfile::FlashCrowd {
            base: 0.4,
            peak: 1.0,
            start_s: 10.0,
            ramp_s: 2.0,
            hold_s: 5.0,
            decay_s: 2.0,
        };
        let suite = Suite::new(base())
            .named("profiles")
            .sweep_load_profiles([LoadProfile::constant(0.75), flash.clone()])
            .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);
        assert_eq!(suite.len(), 4);
        let cells = suite.scenarios();
        assert_eq!(cells[0].load_profile, Some(LoadProfile::constant(0.75)));
        assert_eq!(cells[2].load_profile, Some(flash));
        assert_eq!(
            cells[3].label.as_deref(),
            Some("profiles/profile=flash1.00@10s/pliant")
        );
        // CRN: paired profile cells share the base seed, exactly like any other axis.
        assert!(cells.iter().all(|c| c.seed == 7));
    }

    #[test]
    #[should_panic(expected = "cannot sweep the `load` knob twice")]
    fn sweeping_loads_and_profiles_together_is_rejected() {
        let _ = Suite::new(base())
            .sweep_load_profiles([LoadProfile::constant(0.5)])
            .sweep_loads([0.5, 0.9]);
    }

    #[test]
    #[should_panic(expected = "cannot sweep the `load` knob twice")]
    fn sweeping_profiles_after_loads_is_rejected() {
        let _ = Suite::new(base())
            .sweep_loads([0.5, 0.9])
            .sweep_load_profiles([LoadProfile::constant(0.5)]);
    }

    #[test]
    #[should_panic(expected = "cannot sweep the `policy` knob twice")]
    fn duplicate_axes_on_the_same_knob_are_rejected() {
        let _ = Suite::new(base())
            .sweep_policies([PolicyKind::Precise])
            .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);
    }

    #[test]
    #[should_panic(expected = "invalid load profile")]
    fn invalid_profiles_are_rejected_at_sweep_construction() {
        let _ = Suite::new(base()).sweep_load_profiles([LoadProfile::Trace { points: vec![] }]);
    }

    #[test]
    fn loads_axis_clears_an_inherited_profile() {
        let mut with_profile = base();
        with_profile.load_profile = Some(LoadProfile::constant(0.3));
        let suite = Suite::new(with_profile).sweep_loads([0.5, 0.9]);
        for cell in suite.scenarios() {
            assert_eq!(
                cell.load_profile, None,
                "a constant-load sweep must not be masked by the base profile"
            );
        }
    }

    #[test]
    fn corrupted_suites_are_rejected_at_the_deserialization_boundary() {
        // Serde bypasses the builder, so duplicate-knob archives must be caught by the
        // validate() call inside Deserialize before anything runs a silently-masked grid.
        let suite = Suite::new(base()).named("dup").sweep_loads([0.5, 0.9]);
        assert_eq!(suite.validate(), Ok(()));
        let json = serde_json::to_string(&suite).expect("serializable");
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let entries = match value {
            serde::Value::Object(entries) => entries,
            _ => panic!("suites serialize as objects"),
        };
        let corrupted_entries: Vec<(String, serde::Value)> = entries
            .into_iter()
            .map(|(k, v)| {
                if k == "axes" {
                    let axes = match v {
                        serde::Value::Array(mut items) => {
                            let dup = items[0].clone();
                            items.push(dup);
                            items
                        }
                        _ => panic!("axes serialize as an array"),
                    };
                    (k, serde::Value::Array(axes))
                } else {
                    (k, v)
                }
            })
            .collect();
        let corrupted_json =
            serde_json::to_string(&serde::Value::Object(corrupted_entries)).expect("serializable");
        let err = serde_json::from_str::<Suite>(&corrupted_json)
            .expect_err("a masked-grid archive must not deserialize");
        assert!(
            err.to_string().contains("two axes sweep the `load` knob"),
            "error should carry the validation message, got: {err}"
        );
    }

    #[test]
    fn suite_round_trips_through_serde() {
        let suite = Suite::new(base())
            .named("rt")
            .seed_mode(SeedMode::Independent)
            .for_each_app([AppId::Canneal, AppId::Snp])
            .sweep_loads([0.5]);
        let json = serde_json::to_string(&suite).expect("serializable");
        let back: Suite = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, suite);
        assert_eq!(back.scenarios(), suite.scenarios());
    }

    #[test]
    fn suite_wire_format_is_pinned() {
        // Captured before the node and fleet suites shared one generic implementation,
        // and kept when the suite went back to single nodes only: archives written by
        // any of them must keep reading back, and new archives must keep the same bytes.
        const PINNED: &str = r#"{"name":"pin","base":{"label":null,"service":"Nginx","apps":["Canneal"],"policy":"pliant","load_fraction":0.75,"load_profile":null,"decision_interval_s":1.0,"slack_threshold":0.1,"consecutive_slack_required":2,"horizon":{"Intervals":30},"stop_when_apps_finish":true,"instrumented":null,"qos_target_s":null,"samples_per_interval":null,"seed":7},"seed_mode":"Independent","axes":[{"AppSets":[["Canneal"],["Snp"]]},{"Policies":["precise","pliant"]},{"Loads":[0.5,0.9]}]}"#;
        let suite = Suite::new(base())
            .named("pin")
            .seed_mode(SeedMode::Independent)
            .for_each_app([AppId::Canneal, AppId::Snp])
            .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
            .sweep_loads([0.5, 0.9]);
        assert_eq!(serde_json::to_string(&suite).expect("serializable"), PINNED);
        let back: Suite = serde_json::from_str(PINNED).expect("deserializable");
        assert_eq!(back, suite);
    }

    #[test]
    fn cells_that_cannot_run_fail_validation_with_their_index() {
        let overload = Suite::new(base()).sweep_loads([0.5, 2.0]);
        assert!(matches!(
            overload.validate(),
            Err(SuiteError::InvalidCell {
                index: 1,
                error: ScenarioError::InvalidLoad
            })
        ));
        let no_apps = Suite::new(base()).for_each_app_set([vec![AppId::Snp], vec![]]);
        assert!(matches!(
            no_apps.validate(),
            Err(SuiteError::InvalidCell {
                index: 1,
                error: ScenarioError::NoApps
            })
        ));
    }

    #[test]
    fn archives_with_a_cell_that_cannot_run_are_rejected_at_the_boundary() {
        // A zero-length decision interval passes the builder's axis checks; the archive
        // must still be refused before any cell runs, naming the offending cell.
        let suite = Suite::new(base())
            .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
            .sweep_decision_intervals_s([1.0, 2.0]);
        let json = serde_json::to_string(&suite).expect("serializable");
        let forged = json.replace(
            "{\"DecisionIntervalsS\":[1.0,2.0]}",
            "{\"DecisionIntervalsS\":[1.0,0.0]}",
        );
        assert_ne!(forged, json, "the forgery must have taken effect");
        let err = serde_json::from_str::<Suite>(&forged)
            .expect_err("a cell with a zero decision interval must be rejected");
        assert!(
            err.to_string()
                .contains("cell 1 expands into an invalid scenario"),
            "error should name the cell, got: {err}"
        );
    }
}
