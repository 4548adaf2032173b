//! Energy-aware fleet autoscaling: sizing the *active* node set to the offered load.
//!
//! A fleet provisioned for its peak wastes energy at its trough: machines idling at a
//! diurnal low still draw close to half their peak power. The autoscaler shrinks and
//! grows the set of traffic-serving nodes against the load profile, so surplus machines
//! can be suspended to their park draw
//! ([`PowerModel::parked_w`](pliant_sim::server::PowerModel::parked_w)) instead of
//! idling.
//!
//! Each node is in one of three [`NodePowerState`]s:
//!
//! * **Active** — serves its share of the offered load and accepts batch-job placements.
//! * **Draining** — removed from the serving set (the load split assigns it zero load and
//!   the scheduler stops placing jobs on it) but still powered while its remaining
//!   batch jobs run to completion. Its power falls toward allocated-core idle as slots
//!   finish.
//! * **Parked** — drained *and* every batch slot free: the machine is suspended and
//!   bills the park draw until reactivated.
//!
//! Decisions are made once per decision interval, before the load split, from the
//! previous interval's node snapshots. The thresholds are constants of the fleet model
//! (every autoscaled fleet runs the same ones); only the active-set floor and the
//! consolidation switch are configured per fleet, in [`AutoscalerConfig`].
//!
//! * **Feed-forward scale-out**: the coming interval's offered load is known at
//!   planning time, so a fleet asked to serve more than `SCALE_OUT_LOAD` (0.74) per
//!   active node grows immediately — no sustain, no cooldown.
//! * **Reactive scale-out** triggers on *sustained fleet QoS pressure*: when at least
//!   `SCALE_OUT_VIOLATION_FRACTION` (60%) of the active nodes sit above their QoS
//!   target (by smoothed tail latency) for `SCALE_OUT_SUSTAIN_INTERVALS` (2)
//!   consecutive intervals, one node is reactivated — a draining node first (it is
//!   still warm), else a parked one.
//!   The per-node load at which this fires is remembered as a **learned capacity
//!   ceiling**: the fleet demonstrated it cannot serve that load per node within QoS,
//!   so scale-in never projects back into it. This is what converts a policy's true
//!   per-node capacity — higher under approximation than under precise execution —
//!   into a machine count, instead of rediscovering the limit through repeated failed
//!   drains.
//! * **Scale-in** drains the least-loaded active node when the fleet has been
//!   violation-free, every active node's smoothed tail latency sits at or below
//!   `SCALE_IN_MAX_P99_FRACTION` (95%) of its QoS target, and the load the remaining
//!   nodes would carry (`total_load / (active - 1)`) stays at or below both
//!   `SCALE_IN_MAX_LOAD` (0.66) and the learned ceiling — sustained over
//!   `SCALE_IN_SUSTAIN_INTERVALS` (4) intervals.
//!
//! Reactive actions are followed by `COOLDOWN_INTERVALS` (5) of enforced holding, and
//! the gap between the scale-in and scale-out load ceilings is a hysteresis band;
//! together they damp flapping at an operating point that straddles a threshold. All
//! decisions are deterministic functions of the snapshots, so autoscaled fleets replay
//! byte for byte and pair cleanly under common random numbers.
//!
//! Reintegration relies on the fleet-visible estimate decay: a drained node's smoothed
//! latency estimate halves every idle interval
//! (see [`ClusterNode`](crate::node::ClusterNode)), so a reactivated node takes its
//! even share at once and, within a few intervals of idling, no longer counts toward
//! QoS pressure, blocks a scale-in or repels job placements on its last pre-drain
//! reading.

use serde::{Deserialize, Serialize};

use crate::node::NodeSnapshot;

/// Power/serving state of one fleet node under the autoscaler; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodePowerState {
    /// Serving traffic and accepting job placements.
    #[serde(rename = "active")]
    Active,
    /// Removed from the serving set; powered while its batch jobs finish.
    #[serde(rename = "draining")]
    Draining,
    /// Drained and suspended; bills the park draw.
    #[serde(rename = "parked")]
    Parked,
}

/// What the autoscaler did at one interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoscalerAction {
    /// No membership change (park transitions of already-draining nodes still happen).
    Hold,
    /// Node `usize` was reactivated into the serving set.
    ScaleOut(usize),
    /// Node `usize` was drained out of the serving set.
    ScaleIn(usize),
}

/// Configuration of the fleet autoscaler; attach it as a
/// [`ClusterScenario`](crate::scenario::ClusterScenario)'s `autoscaler`. The scenario
/// checks `min_active` against the fleet size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerConfig {
    /// Lower bound on the active set; the autoscaler never drains below this.
    pub min_active: usize,
    /// Active consolidation: when set, a draining node does not wait for its batch
    /// jobs to run to completion — the fleet migrates its in-flight jobs onto active
    /// nodes with free slots each interval, so the drain (and the park that follows)
    /// completes as soon as destinations exist instead of when the slowest job
    /// finishes.
    pub consolidate: bool,
}

/// Feed-forward overload ceiling: when the coming interval's per-active-node load
/// exceeds this, a node is reactivated immediately (bypassing the cooldown — the
/// offered load is known at planning time, so there is nothing noisy to sustain).
const SCALE_OUT_LOAD: f64 = 0.74;

/// Fraction of active nodes whose smoothed tail latency must exceed the QoS target to
/// count as fleet QoS pressure (the reactive scale-out trigger).
const SCALE_OUT_VIOLATION_FRACTION: f64 = 0.6;

/// Consecutive intervals QoS pressure must hold before the reactive scale-out fires.
const SCALE_OUT_SUSTAIN_INTERVALS: u32 = 2;

/// Ceiling on the per-active-node load the fleet would carry *after* draining one more
/// node; scale-in is only considered while the projection stays at or below this. The
/// gap up to [`SCALE_OUT_LOAD`] is the hysteresis band that keeps a slowly-varying
/// load from flapping the membership.
const SCALE_IN_MAX_LOAD: f64 = 0.66;

/// Latency-headroom guard for scale-in: every active node's smoothed tail latency must
/// sit at or below this fraction of its QoS target before a drain is considered. A
/// fleet hovering just under its target would fail the drain it is about to attempt.
const SCALE_IN_MAX_P99_FRACTION: f64 = 0.95;

/// Consecutive intervals the scale-in trigger must hold before a drain fires.
const SCALE_IN_SUSTAIN_INTERVALS: u32 = 4;

/// Intervals of enforced holding after a membership change (the feed-forward overload
/// path exempts itself; see [`SCALE_OUT_LOAD`]).
const COOLDOWN_INTERVALS: u32 = 5;

// The hysteresis band between the two load ceilings must not be empty.
const _: () = assert!(SCALE_IN_MAX_LOAD < SCALE_OUT_LOAD);

/// Safety margin applied to the learned capacity ceiling: after a pressure-driven
/// scale-out at per-node load `L`, drains are only considered while the projected
/// per-node load stays below `BURN_MARGIN × L`.
const BURN_MARGIN: f64 = 0.95;

/// An [`Autoscaler`]'s mutable state, kept as one value so a checkpoint is a clone of
/// it (the configuration and instance weights are rebuilt from the scenario).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoscalerState {
    /// Per-instance power states.
    pub states: Vec<NodePowerState>,
    /// Remaining enforced-hold intervals after the last membership change.
    pub cooldown: u32,
    /// Consecutive intervals of fleet QoS pressure.
    pub out_streak: u32,
    /// Highest per-active-node load observed over the current pressure streak; what a
    /// pressure-driven scale-out burns as the learned ceiling. Smoothed tail latency
    /// is an EWMA, so pressure can outlast the load spike that caused it — burning
    /// the load of the interval the streak *completes* on (possibly already back to a
    /// healthy level) would permanently block drains at loads the fleet serves fine.
    pub streak_peak_load: f64,
    /// Consecutive intervals of scale-in eligibility.
    pub in_streak: u32,
    /// Learned capacity ceiling: the smallest streak-peak per-active-node load at
    /// which a *pressure-driven* scale-out has fired. The fleet demonstrated it cannot
    /// serve this load per node within QoS, so scale-in never projects back into it
    /// (and the feed-forward path treats it as the effective overload ceiling). `None`
    /// until learned — an unbounded ceiling, which JSON cannot carry as a number; only
    /// QoS evidence lowers it. This is what converts a policy's true per-node capacity
    /// — higher under approximation than under precise execution — into a machine
    /// count, without rediscovering the limit through repeated failed drains.
    pub burned_per_node_load: Option<f64>,
}

/// Runtime state of the fleet autoscaler; see the module docs.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    /// Logical nodes each instance stands for. All-ones on an exact fleet; a clustered
    /// fleet's replica weights make every membership decision instance-atomic (a whole
    /// replica block drains or reactivates together) while the load and violation
    /// arithmetic stays in logical-node units.
    weights: Vec<usize>,
    state: AutoscalerState,
}

impl Autoscaler {
    /// Creates an autoscaler over `weights.len()` simulated instances, where instance
    /// `i` stands for `weights[i]` logical nodes (see [`crate::population`]). All
    /// instances start active. `min_active` is interpreted in *logical* nodes, exactly
    /// as on an exact fleet.
    ///
    /// # Panics
    ///
    /// Panics if `min_active` is zero or exceeds the summed logical fleet size, or if
    /// any weight is zero.
    pub fn for_instances(config: AutoscalerConfig, weights: Vec<usize>) -> Self {
        assert!(
            config.min_active > 0,
            "the autoscaler must keep at least one active node"
        );
        assert!(
            weights.iter().all(|w| *w > 0),
            "instance weights must be positive"
        );
        let logical: usize = weights.iter().sum();
        assert!(
            config.min_active <= logical,
            "min_active ({}) exceeds the fleet size ({logical})",
            config.min_active
        );
        Self {
            config,
            state: AutoscalerState {
                states: vec![NodePowerState::Active; weights.len()],
                cooldown: 0,
                out_streak: 0,
                streak_peak_load: 0.0,
                in_streak: 0,
                burned_per_node_load: None,
            },
            weights,
        }
    }

    /// The configuration the autoscaler runs.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Per-node power states, in node order.
    pub fn states(&self) -> &[NodePowerState] {
        &self.state.states
    }

    /// *Logical* nodes currently serving traffic: the replica-weighted active count
    /// (the plain active count on an exact, all-ones fleet).
    pub fn active_replicas(&self) -> usize {
        self.state
            .states
            .iter()
            .zip(&self.weights)
            .filter(|(s, _)| **s == NodePowerState::Active)
            .map(|(_, w)| *w)
            .sum()
    }

    /// The learned capacity ceiling: the smallest per-active-node load at which QoS
    /// pressure has forced a scale-out so far (infinity until it happens). Each
    /// pressure event contributes the *peak* per-node load observed over its streak,
    /// so a spike whose EWMA pressure outlasts the load itself burns the load that
    /// caused the violations, not the healthy level the fleet had already fallen to.
    pub fn burned_per_node_load(&self) -> f64 {
        self.state.burned_per_node_load.unwrap_or(f64::INFINITY)
    }

    /// The autoscaler's mutable state, for checkpointing.
    pub fn state(&self) -> &AutoscalerState {
        &self.state
    }

    /// Restores state captured by [`Self::state`] onto an autoscaler built with the
    /// same configuration and instance weights.
    ///
    /// # Errors
    ///
    /// Rejects a state whose instance count disagrees with this autoscaler's.
    pub fn restore(&mut self, state: &AutoscalerState) -> Result<(), String> {
        if state.states.len() != self.state.states.len() {
            return Err(format!(
                "snapshot carries {} instances, autoscaler has {}",
                state.states.len(),
                self.state.states.len()
            ));
        }
        self.state.clone_from(state);
        Ok(())
    }

    /// Plans one interval: transitions fully-drained instances to parked, updates the
    /// trigger streaks from `snapshots` (the previous interval's instance states), and
    /// fires at most one membership change. `total_load` is the fleet's offered load
    /// for the coming interval in node-saturation units; `slots_per_node` is the
    /// co-location width (a draining instance parks once all its slots are free).
    ///
    /// Membership changes are instance-atomic: an instance and all the logical nodes
    /// it stands for drain or reactivate as one block, which keeps replica weights
    /// constant over a run so node-side weighted accounting stays exact. Every trigger
    /// is evaluated in logical-node units: per-node load divides by the
    /// replica-weighted active count, the violation fraction weighs each violating
    /// instance by its replicas, `min_active` bounds logical nodes, and a drain's load
    /// projection removes the candidate's whole weight. On an exact fleet every weight
    /// is 1 and these are the plain per-node quantities.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots.len()` differs from the instance count.
    pub fn plan(
        &mut self,
        total_load: f64,
        snapshots: &[NodeSnapshot],
        slots_per_node: usize,
    ) -> AutoscalerAction {
        // Park fully-drained instances (suspending costs nothing to decide; no
        // cooldown).
        self.park_drained(snapshots, slots_per_node, |_| {});

        let active_replicas = self.active_replicas();
        let per_node_load = total_load / active_replicas.max(1) as f64;
        let violating: usize = self
            .state
            .states
            .iter()
            .zip(snapshots)
            .zip(&self.weights)
            .filter(|((state, snap), _)| {
                **state == NodePowerState::Active && snap.smoothed_p99_s > snap.qos_target_s
            })
            .map(|(_, w)| *w)
            .sum();
        let pressure = violating > 0
            && violating as f64 >= SCALE_OUT_VIOLATION_FRACTION * active_replicas as f64;
        let can_grow = self
            .state
            .states
            .iter()
            .any(|s| *s != NodePowerState::Active);
        let headroom = self
            .state
            .states
            .iter()
            .zip(snapshots)
            .all(|(state, snap)| {
                *state != NodePowerState::Active
                    || snap.smoothed_p99_s <= SCALE_IN_MAX_P99_FRACTION * snap.qos_target_s
            });
        let drain_ceiling = SCALE_IN_MAX_LOAD.min(BURN_MARGIN * self.burned_per_node_load());
        // A drain candidate must leave at least `min_active` logical nodes serving and
        // keep the survivors' per-node load at or below the ceiling *after losing the
        // candidate's whole replica block*.
        let drain_eligible = |scaler: &Self, i: usize| {
            scaler.state.states[i] == NodePowerState::Active && {
                let remaining = active_replicas - scaler.weights[i];
                remaining >= scaler.config.min_active
                    && total_load / remaining as f64 <= drain_ceiling
            }
        };
        // Scale-in needs demonstrated headroom on every serving node, not merely the
        // absence of violations: a fleet hovering just under its target would fail the
        // drain it is about to attempt.
        let can_shrink = violating == 0
            && headroom
            && (0..self.state.states.len()).any(|i| drain_eligible(self, i));

        // Streaks accumulate even through a cooldown, so an operating point that keeps
        // its trigger asserted acts immediately once the hold expires. The pressure
        // streak also tracks its peak per-node load (see `streak_peak_load`).
        self.state.out_streak = if pressure && can_grow {
            self.state.streak_peak_load = if self.state.out_streak == 0 {
                per_node_load
            } else {
                self.state.streak_peak_load.max(per_node_load)
            };
            self.state.out_streak + 1
        } else {
            0
        };
        self.state.in_streak = if can_shrink {
            self.state.in_streak + 1
        } else {
            0
        };

        // Feed-forward overload: the coming interval's load is *known*, so a fleet
        // asked to serve more per node than the (fixed or learned) ceiling grows
        // immediately — no sustain, no cooldown. This cannot flap against scale-in:
        // drains only fire while the projection stays in the hysteresis band below.
        let overload_ceiling = SCALE_OUT_LOAD.min(self.burned_per_node_load());
        if can_grow && per_node_load > overload_ceiling {
            let target = self.reactivation_target();
            self.state.states[target] = NodePowerState::Active;
            self.state.cooldown = COOLDOWN_INTERVALS;
            self.state.out_streak = 0;
            self.state.in_streak = 0;
            return AutoscalerAction::ScaleOut(target);
        }

        if self.state.cooldown > 0 {
            self.state.cooldown -= 1;
            return AutoscalerAction::Hold;
        }

        if self.state.out_streak >= SCALE_OUT_SUSTAIN_INTERVALS {
            // The fleet demonstrated it cannot serve the streak's peak per-node load
            // within QoS: remember the ceiling so scale-in never projects back into
            // it. The ceiling is deliberately monotone (no decay) — conservative, and
            // what keeps autoscaled runs deterministic functions of their history.
            self.state.burned_per_node_load =
                Some(self.burned_per_node_load().min(self.state.streak_peak_load));
            let target = self.reactivation_target();
            self.state.states[target] = NodePowerState::Active;
            self.state.cooldown = COOLDOWN_INTERVALS;
            self.state.out_streak = 0;
            self.state.in_streak = 0;
            return AutoscalerAction::ScaleOut(target);
        }

        if self.state.in_streak >= SCALE_IN_SUSTAIN_INTERVALS {
            // Drain the least-utilized *eligible* instance, ties broken toward the
            // highest index (instance 0 stays active the longest).
            let target = snapshots
                .iter()
                .filter(|s| drain_eligible(self, s.index))
                .min_by(|a, b| {
                    a.utilization
                        .total_cmp(&b.utilization)
                        .then(b.index.cmp(&a.index))
                })
                // pliant-lint: allow(panic-hygiene): the in-streak only accrues while
                // a drain-eligible instance exists (see `can_shrink` above).
                .expect("an eligible instance exists")
                .index;
            self.state.states[target] = NodePowerState::Draining;
            self.state.cooldown = COOLDOWN_INTERVALS;
            self.state.out_streak = 0;
            self.state.in_streak = 0;
            return AutoscalerAction::ScaleIn(target);
        }

        AutoscalerAction::Hold
    }

    /// Re-checks the park transition *outside* the planning step: a drain that
    /// completes mid-interval — because a migration emptied the node's last busy slot
    /// — parks before the node step, so the interval bills the park draw and the
    /// `active_nodes` trace series stops counting the drained node that same interval
    /// instead of one interval late. Appends the indices of newly-parked instances to
    /// `parked` (a caller-owned scratch buffer; the per-interval hot path reuses it
    /// instead of allocating). No cooldown, exactly as the park path in
    /// [`Self::plan`]: suspending costs nothing to decide.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots.len()` differs from the instance count.
    pub fn park_fully_drained(
        &mut self,
        snapshots: &[NodeSnapshot],
        slots_per_node: usize,
        parked: &mut Vec<usize>,
    ) {
        self.park_drained(snapshots, slots_per_node, |i| parked.push(i));
    }

    /// The one park rule of [`Self::plan`] and [`Self::park_fully_drained`]: every
    /// draining instance whose slots are all free parks, and `on_park` hears its index.
    fn park_drained(
        &mut self,
        snapshots: &[NodeSnapshot],
        slots_per_node: usize,
        mut on_park: impl FnMut(usize),
    ) {
        assert_eq!(
            snapshots.len(),
            self.state.states.len(),
            "autoscaler built for {} instances, got {} snapshots",
            self.state.states.len(),
            snapshots.len()
        );
        for (i, (state, snap)) in self.state.states.iter_mut().zip(snapshots).enumerate() {
            if *state == NodePowerState::Draining && snap.free_slots == slots_per_node {
                *state = NodePowerState::Parked;
                on_park(i);
            }
        }
    }

    /// The node a scale-out reactivates: a draining node first (still warm, its jobs
    /// are still on it), else the lowest-index parked node.
    fn reactivation_target(&self) -> usize {
        self.state
            .states
            .iter()
            .position(|s| *s == NodePowerState::Draining)
            .or_else(|| {
                self.state
                    .states
                    .iter()
                    .position(|s| *s == NodePowerState::Parked)
            })
            // pliant-lint: allow(panic-hygiene): both scale-out paths check
            // `can_grow` before calling, so a non-active node exists.
            .expect("scale-out requires an inactive node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(index: usize, p99: f64, utilization: f64, free_slots: usize) -> NodeSnapshot {
        NodeSnapshot {
            index,
            smoothed_p99_s: p99,
            utilization,
            free_slots,
            qos_target_s: 0.01,
        }
    }

    fn healthy(n: usize) -> Vec<NodeSnapshot> {
        (0..n).map(|i| snapshot(i, 0.005, 0.5, 0)).collect()
    }

    fn config(min_active: usize) -> AutoscalerConfig {
        AutoscalerConfig {
            min_active,
            consolidate: false,
        }
    }

    /// An autoscaler over an exact fleet: `n` instances of one logical node each.
    fn exact(min_active: usize, n: usize) -> Autoscaler {
        Autoscaler::for_instances(config(min_active), vec![1; n])
    }

    /// Plans `intervals - 1` holds at `load`, then returns the last plan's action: what
    /// a trigger that first holds on this call does once it has been sustained.
    fn sustain(
        scaler: &mut Autoscaler,
        intervals: u32,
        load: f64,
        snaps: &[NodeSnapshot],
    ) -> AutoscalerAction {
        for _ in 1..intervals {
            assert_eq!(scaler.plan(load, snaps, 1), AutoscalerAction::Hold);
        }
        scaler.plan(load, snaps, 1)
    }

    /// Plans through a full cooldown at `load`, every interval a hold.
    fn cool_down(scaler: &mut Autoscaler, load: f64, snaps: &[NodeSnapshot]) {
        for _ in 0..COOLDOWN_INTERVALS {
            assert_eq!(scaler.plan(load, snaps, 1), AutoscalerAction::Hold);
        }
    }

    #[test]
    #[should_panic(expected = "at least one active node")]
    fn a_zero_active_floor_is_refused() {
        exact(0, 3);
    }

    #[test]
    fn scale_in_requires_latency_headroom_on_every_active_node() {
        let mut scaler = exact(1, 3);
        let mut snaps = healthy(3);
        // One node hovering at 97% of its target (no violation, no headroom either):
        // the fleet must not drain, however long the trigger is otherwise asserted.
        snaps[1].smoothed_p99_s = 0.0097;
        for _ in 0..2 * SCALE_IN_SUSTAIN_INTERVALS {
            assert_eq!(scaler.plan(0.8, &snaps, 1), AutoscalerAction::Hold);
        }
        assert_eq!(scaler.active_replicas(), 3);
        // Headroom restored → the drain proceeds once sustained.
        snaps[1].smoothed_p99_s = 0.004;
        assert!(matches!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.8, &snaps),
            AutoscalerAction::ScaleIn(_)
        ));
    }

    #[test]
    fn sustained_headroom_drains_the_least_loaded_node() {
        let mut scaler = exact(1, 4);
        let mut snaps = healthy(4);
        snaps[2].utilization = 0.2; // least loaded
                                    // Total load 1.0 over 3 remaining nodes = 0.33 <= 0.66 → eligible.
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 1.0, &snaps),
            AutoscalerAction::ScaleIn(2)
        );
        assert_eq!(scaler.states()[2], NodePowerState::Draining);
        assert_eq!(scaler.active_replicas(), 3);
        // Cooldown holds even though the trigger stays asserted (1.0 / 2 = 0.5 ≤ 0.66)...
        cool_down(&mut scaler, 1.0, &snaps);
        // ...then the sustained streak fires immediately after it expires.
        let next = scaler.plan(1.0, &snaps, 1);
        assert!(matches!(next, AutoscalerAction::ScaleIn(_)), "{next:?}");
        // With 2 active nodes a further drain would project 1.0 load per node — above
        // the ceiling, so the fleet settles.
        cool_down(&mut scaler, 1.0, &snaps);
        assert_eq!(scaler.plan(1.0, &snaps, 1), AutoscalerAction::Hold);
        assert_eq!(scaler.active_replicas(), 2);
    }

    #[test]
    fn draining_nodes_park_once_their_slots_are_free() {
        let mut scaler = exact(1, 3);
        let mut snaps = healthy(3);
        snaps[1].utilization = 0.1;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.8, &snaps),
            AutoscalerAction::ScaleIn(1)
        );
        assert_eq!(scaler.states()[1], NodePowerState::Draining);
        // Still running its job: stays draining.
        scaler.plan(0.8, &snaps, 1);
        assert_eq!(scaler.states()[1], NodePowerState::Draining);
        // Job finished → all slots free → parked.
        snaps[1].free_slots = 1;
        scaler.plan(0.8, &snaps, 1);
        assert_eq!(scaler.states()[1], NodePowerState::Parked);
    }

    #[test]
    fn sustained_qos_pressure_reactivates_a_node() {
        let mut scaler = exact(1, 3);
        let mut snaps = healthy(3);
        snaps[0].utilization = 0.1;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.8, &snaps),
            AutoscalerAction::ScaleIn(0)
        );
        snaps[0].free_slots = 1;
        cool_down(&mut scaler, 0.8, &snaps); // node 0 parks meanwhile
        assert_eq!(scaler.states()[0], NodePowerState::Parked);
        // One of two active nodes over target = 50% < 60%: no pressure, however long
        // it lasts (at 0.7 per node, below the feed-forward ceiling).
        snaps[1].smoothed_p99_s = 0.02;
        for _ in 0..2 * SCALE_OUT_SUSTAIN_INTERVALS {
            assert_eq!(scaler.plan(1.4, &snaps, 1), AutoscalerAction::Hold);
        }
        // Both active nodes over target = 100% ≥ 60% → pressure.
        snaps[2].smoothed_p99_s = 0.02;
        assert_eq!(
            sustain(&mut scaler, SCALE_OUT_SUSTAIN_INTERVALS, 1.4, &snaps),
            AutoscalerAction::ScaleOut(0)
        );
        assert_eq!(scaler.states()[0], NodePowerState::Active);
        assert_eq!(scaler.active_replicas(), 3);

        // Part of the fleet suffices: with node 0 parked, two of three active nodes
        // over target = 66.7% ≥ 60% → pressure (at 2.0 / 3 = 0.67 per node, below the
        // feed-forward ceiling). With the 50% hold above, this pins the threshold from
        // both sides.
        let mut scaler = exact(1, 4);
        let mut snaps = healthy(4);
        snaps[0].utilization = 0.1;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.8, &snaps),
            AutoscalerAction::ScaleIn(0)
        );
        snaps[0].free_slots = 1;
        cool_down(&mut scaler, 0.8, &snaps);
        assert_eq!(scaler.states()[0], NodePowerState::Parked);
        snaps[1].smoothed_p99_s = 0.02;
        snaps[2].smoothed_p99_s = 0.02;
        assert_eq!(
            sustain(&mut scaler, SCALE_OUT_SUSTAIN_INTERVALS, 2.0, &snaps),
            AutoscalerAction::ScaleOut(0)
        );
        assert_eq!(scaler.active_replicas(), 4);
    }

    #[test]
    fn scale_out_prefers_draining_over_parked_nodes() {
        let mut scaler = exact(1, 4);
        let mut snaps = healthy(4);
        // Drain node 3, park it; then drain node 2 and keep it draining.
        snaps[3].utilization = 0.1;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.8, &snaps),
            AutoscalerAction::ScaleIn(3)
        );
        snaps[3].free_slots = 1;
        cool_down(&mut scaler, 0.8, &snaps);
        // The eligibility streak kept accruing through the cooldown, so the next plan
        // fires immediately and drains the now-least-loaded node 2.
        snaps[2].utilization = 0.15;
        assert_eq!(scaler.plan(0.8, &snaps, 1), AutoscalerAction::ScaleIn(2));
        assert_eq!(scaler.states()[3], NodePowerState::Parked);
        assert_eq!(scaler.states()[2], NodePowerState::Draining);
        // Pressure (below the feed-forward ceiling): the still-warm draining node
        // comes back first.
        snaps[0].smoothed_p99_s = 0.02;
        snaps[1].smoothed_p99_s = 0.02;
        cool_down(&mut scaler, 1.4, &snaps); // cooldown drains while pressure accrues
        assert_eq!(scaler.plan(1.4, &snaps, 1), AutoscalerAction::ScaleOut(2));
    }

    #[test]
    fn feed_forward_overload_grows_immediately_and_bypasses_cooldown() {
        let mut scaler = exact(1, 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.8, &snaps),
            AutoscalerAction::ScaleIn(2)
        );
        // Load jumps above the ceiling (1.6 / 2 = 0.8 > 0.74) while the cooldown is
        // still running: the offered load is known, so the fleet grows at once.
        assert_eq!(scaler.plan(1.6, &snaps, 1), AutoscalerAction::ScaleOut(2));
        assert_eq!(scaler.active_replicas(), 3);
    }

    #[test]
    fn pressure_scale_outs_burn_a_capacity_ceiling_that_blocks_re_drains() {
        let mut scaler = exact(1, 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        // Drain to 2 nodes at 0.6 per node (projection 1.2/2 = 0.6 ≤ 0.66).
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 1.2, &snaps),
            AutoscalerAction::ScaleIn(2)
        );
        assert_eq!(scaler.burned_per_node_load(), f64::INFINITY);
        // The 2-node fleet violates at 0.6 per node → pressure-driven scale-out (once
        // the cooldown ends) burns that per-node load as the learned ceiling.
        snaps[0].smoothed_p99_s = 0.02;
        snaps[1].smoothed_p99_s = 0.02;
        cool_down(&mut scaler, 1.2, &snaps);
        assert_eq!(scaler.plan(1.2, &snaps, 1), AutoscalerAction::ScaleOut(2));
        assert_eq!(scaler.burned_per_node_load(), 0.6);
        // Back at 3 healthy nodes, the same drain is no longer eligible: the
        // projection (0.6) is above the burned ceiling with its margin (0.57).
        snaps[0].smoothed_p99_s = 0.005;
        snaps[1].smoothed_p99_s = 0.005;
        for _ in 0..COOLDOWN_INTERVALS + 2 * SCALE_IN_SUSTAIN_INTERVALS {
            assert_eq!(scaler.plan(1.2, &snaps, 1), AutoscalerAction::Hold);
        }
        assert_eq!(scaler.active_replicas(), 3);
        // A lighter load projects below the burned ceiling and may drain again.
        assert!(matches!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 1.0, &snaps),
            AutoscalerAction::ScaleIn(_)
        ));
    }

    #[test]
    fn never_drains_below_min_active_and_never_grows_past_the_fleet() {
        let mut scaler = exact(2, 3);
        let snaps = healthy(3);
        assert!(matches!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.4, &snaps),
            AutoscalerAction::ScaleIn(_)
        ));
        // At min_active, unconditional hold regardless of headroom.
        for _ in 0..COOLDOWN_INTERVALS + 2 * SCALE_IN_SUSTAIN_INTERVALS {
            assert_eq!(scaler.plan(0.1, &snaps, 1), AutoscalerAction::Hold);
        }
        assert_eq!(scaler.active_replicas(), 2);
        // Fully-active fleet under pressure and over the feed-forward ceiling cannot
        // grow.
        let mut hot = healthy(3);
        for s in &mut hot {
            s.smoothed_p99_s = 0.05;
        }
        let mut full = exact(1, 2);
        for _ in 0..2 * SCALE_OUT_SUSTAIN_INTERVALS {
            assert_eq!(full.plan(3.0, &hot[..2], 1), AutoscalerAction::Hold);
        }
        assert_eq!(full.active_replicas(), 2);
    }

    #[test]
    fn burned_ceiling_records_the_streak_peak_not_the_completion_load() {
        // Pressure is EWMA-driven and can outlast the spike that caused it: if the
        // load has already fallen by the time the streak completes, the ceiling must
        // still record the spike's load, not the healthy post-spike level.
        let mut scaler = exact(1, 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 1.2, &snaps),
            AutoscalerAction::ScaleIn(2)
        );
        cool_down(&mut scaler, 1.2, &snaps);
        // Spike to 0.7 per node (1.4 over 2 active); the EWMA stays over target even
        // as the load falls back to 0.5 per node.
        snaps[0].smoothed_p99_s = 0.02;
        snaps[1].smoothed_p99_s = 0.02;
        assert_eq!(scaler.plan(1.4, &snaps, 1), AutoscalerAction::Hold); // streak 1 at 0.7/node
        assert_eq!(scaler.plan(1.0, &snaps, 1), AutoscalerAction::ScaleOut(2));
        assert_eq!(
            scaler.burned_per_node_load(),
            0.7,
            "the ceiling must be the streak's peak load, not the completion load (0.5)"
        );
    }

    #[test]
    fn grouped_planning_is_instance_atomic_and_counts_logical_nodes() {
        // Two instances of 5 replicas each, min_active = 6: draining either block
        // would leave 5 < 6 logical nodes, so no drain is ever eligible even at a
        // trivial load.
        let mut scaler = Autoscaler::for_instances(config(6), vec![5, 5]);
        let snaps = healthy(2);
        for _ in 0..2 * SCALE_IN_SUSTAIN_INTERVALS {
            assert_eq!(scaler.plan(0.5, &snaps, 1), AutoscalerAction::Hold);
        }
        assert_eq!(scaler.active_replicas(), 10);

        // With min_active = 5 one block may drain; the projection divides by the
        // surviving 5 logical nodes (3.0 / 5 = 0.6 ≤ 0.66 → eligible).
        let mut scaler = Autoscaler::for_instances(config(5), vec![5, 5]);
        let mut snaps = healthy(2);
        snaps[0].utilization = 0.2;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 3.0, &snaps),
            AutoscalerAction::ScaleIn(0)
        );
        assert_eq!(scaler.active_replicas(), 5);
        assert_eq!(scaler.states()[0], NodePowerState::Draining);
        // Feed-forward overload measures per *logical* node: 3.5 / 5 = 0.7 ≤ 0.74
        // holds (per active instance it would be 3.5), 4.0 / 5 = 0.8 > 0.74 grows.
        snaps[0].free_slots = 1;
        assert_eq!(scaler.plan(3.5, &snaps, 1), AutoscalerAction::Hold);
        assert_eq!(scaler.plan(4.0, &snaps, 1), AutoscalerAction::ScaleOut(0));
        assert_eq!(scaler.active_replicas(), 10);
    }

    #[test]
    fn config_round_trips_through_json_with_consolidation_off_and_on() {
        for consolidate in [false, true] {
            let cfg = AutoscalerConfig {
                min_active: 3,
                consolidate,
            };
            let json = serde_json::to_string(&cfg).expect("serializable");
            assert_eq!(
                json,
                format!(r#"{{"min_active":3,"consolidate":{consolidate}}}"#)
            );
            let back: AutoscalerConfig = serde_json::from_str(&json).expect("deserializable");
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn mid_interval_park_pass_retires_drains_completed_by_migration() {
        let mut scaler = exact(1, 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        assert_eq!(
            sustain(&mut scaler, SCALE_IN_SUSTAIN_INTERVALS, 0.8, &snaps),
            AutoscalerAction::ScaleIn(2)
        );
        // The planning step saw the node still busy; nothing to park yet.
        let mut parked = Vec::new();
        scaler.park_fully_drained(&snaps, 1, &mut parked);
        assert!(parked.is_empty());
        assert_eq!(scaler.states()[2], NodePowerState::Draining);
        // A migration empties its last slot mid-interval: the park pass retires it
        // in the same interval instead of waiting for the next plan.
        snaps[2].free_slots = 1;
        scaler.park_fully_drained(&snaps, 1, &mut parked);
        assert_eq!(parked, vec![2]);
        assert_eq!(scaler.states()[2], NodePowerState::Parked);
    }
}
