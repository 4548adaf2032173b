//! One fleet node: the single-node Pliant runtime plus the fleet's per-node books.
//!
//! A [`ClusterNode`] holds the same [`NodeRuntime`] a single-node experiment runs — a
//! co-location simulator driven by its monitor, policy and actuator — and advances it
//! one decision interval at a time under whatever offered load the fleet's even split
//! assigns. Around the runtime it keeps what only a fleet needs: its [`NodeBooks`]
//! (per-slot completion latches and replica weights, the fleet-visible latency
//! estimate, the post-warm-up latency histogram and QoS counters, energy, assigned
//! load, reclaimed cores, completions) and the last interval's observation. Nodes are
//! fully independent within an interval (each derives its own RNG streams from the
//! cluster seed), so the fleet's coordinator only hands each node its load and then
//! reads what the node kept.
//!
//! A node's checkpoint ([`NodeCheckpoint`]) is its runtime's state plus a clone of its
//! books; restore checks their shape against the node and assigns them back.

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::{AppId, AppProfile, Catalog};
use pliant_core::actuator::ActuatorStats;
use pliant_core::controller::ControllerConfig;
use pliant_core::monitor::MonitorState;
use pliant_core::policy::Policy;
use pliant_core::runtime::NodeRuntime;
use pliant_sim::colocation::{ColocationConfig, ColocationState, IntervalObservation};
use pliant_telemetry::histogram::LatencyHistogram;
use pliant_telemetry::obs::{Event, ObsBuffer, ObsLevel, DEFAULT_NODE_CAPACITY};
use pliant_telemetry::rng::derive_seed;

use crate::scenario::ClusterScenario;

/// Per-idle-interval decay of the fleet-visible smoothed-latency estimate. The
/// monitor's own EWMA is untouched (idle gaps are no evidence for the controller); this
/// only ages the view that the autoscaler's pressure and scale-in checks, the QoS-slack
/// scheduler and rack scoring read, so a drained or crashed node's last reading stops
/// counting as QoS pressure or repelling job placements within a few intervals instead
/// of holding frozen.
const IDLE_ESTIMATE_DECAY: f64 = 0.5;

/// A node's externally visible state at an interval boundary, consumed by the
/// autoscaler, the batch scheduler and rack placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSnapshot {
    /// Index of the node within the fleet.
    pub index: usize,
    /// Smoothed (EWMA) tail-latency estimate of the node's interactive service, in
    /// seconds; `0.0` until the first traffic-serving interval.
    pub smoothed_p99_s: f64,
    /// Utilization of the node's interactive service during the last interval.
    pub utilization: f64,
    /// Batch slots whose job has finished (free for a queued job).
    pub free_slots: usize,
    /// The node's QoS target in seconds.
    pub qos_target_s: f64,
}

impl NodeSnapshot {
    /// Tail-latency slack relative to the QoS target (positive = headroom), from the
    /// smoothed estimate.
    pub fn slack_fraction(&self) -> f64 {
        if self.qos_target_s > 0.0 {
            (self.qos_target_s - self.smoothed_p99_s) / self.qos_target_s
        } else {
            0.0
        }
    }
}

/// One fleet node; see the module docs.
///
/// A node is either *exact* (stands for one logical node, the default) or a clustered
/// *representative* (stands for `replicas` interchangeable logical nodes of one
/// population group; see [`crate::population`]). A representative runs exactly one
/// simulated co-location — the weighting only multiplies what its samples contribute to
/// the fleet's histogram, QoS counters, energy, and job accounting, which keeps the
/// per-interval hot path identical in both modes.
pub struct ClusterNode {
    index: usize,
    runtime: NodeRuntime,
    decision_interval_s: f64,
    /// Intervals excluded from the node's QoS statistics (the fleet's convergence
    /// transient).
    warmup_intervals: usize,
    /// The last interval's observation (`None` before the first step and after a
    /// restore). The next step recycles its buffers.
    observation: Option<IntervalObservation>,
    /// Logical nodes this instance stands for (1 = exact).
    replicas: usize,
    /// Decision-event ring for this node (disabled — the allocation-free null sink —
    /// unless the cluster engine calls [`Self::enable_obs`]). Filled as the node steps;
    /// the engine merges rings in node order.
    obs: ObsBuffer,
    books: NodeBooks,
}

impl ClusterNode {
    /// Builds instance `index` of the fleet described by `scenario`, standing for
    /// `replicas` logical nodes of one population group and co-locating `initial_jobs`
    /// (one per batch slot). `index` is the instance's position in the simulated fleet
    /// (the index snapshots and intervals report); `seed_member` is the *logical* node
    /// whose derived RNG streams the instance consumes, which is what gives different
    /// representatives of one group independent randomness (per-replica seed jitter).
    /// An exact node is `replicas == 1, seed_member == index`; every RNG stream then
    /// derives from the cluster seed and the node index, mirroring how suites derive
    /// per-cell seeds.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero, `initial_jobs` is empty, or a job is missing from
    /// the catalog.
    pub fn representative(
        scenario: &ClusterScenario,
        index: usize,
        seed_member: usize,
        replicas: usize,
        initial_jobs: &[pliant_approx::catalog::AppId],
        catalog: &Catalog,
    ) -> Self {
        assert!(replicas > 0, "a node must stand for at least one replica");
        let node_seed = derive_seed(scenario.seed, 0xC1_0000 + seed_member as u64);
        let mut config = ColocationConfig::paper_default(scenario.service, initial_jobs, node_seed)
            .with_load(scenario.avg_node_load);
        config.instrumented = scenario.effective_instrumented();
        Self {
            index,
            runtime: NodeRuntime::new(
                config,
                catalog,
                scenario.policy,
                ControllerConfig::default(),
            ),
            decision_interval_s: scenario.decision_interval_s(),
            warmup_intervals: scenario.warmup_intervals,
            observation: None,
            replicas,
            obs: ObsBuffer::disabled(),
            books: NodeBooks {
                slot_done: vec![false; initial_jobs.len()],
                slot_weight: vec![replicas; initial_jobs.len()],
                // Starts where `Iterator::sum` over `f64` starts, so the running sum
                // has the bits of a sum over every completion.
                completed_inaccuracy_weighted_sum: -0.0,
                smoothed_p99_s: 0.0,
                utilization: 0.0,
                intervals_stepped: 0,
                hist: LatencyHistogram::new(),
                busy_intervals: 0,
                idle_intervals: 0,
                qos_violations: 0,
                energy_j: 0.0,
                assigned_sum: 0.0,
                max_extra: 0,
                jobs_completed: 0,
            },
        }
    }

    /// Switches the node's event ring on at `level` (source `index + 1`, replica
    /// weight carried through to every record). Called once at construction time by
    /// a traced cluster run; the default is the disabled null sink.
    pub fn enable_obs(&mut self, level: ObsLevel) {
        self.obs = ObsBuffer::new(
            level,
            self.index as u32 + 1,
            self.replicas as u32,
            DEFAULT_NODE_CAPACITY,
        );
    }

    /// Takes the node's event ring, leaving the disabled null sink behind. The cluster
    /// engine calls this once, after the run, to merge per-node streams.
    pub fn take_obs_buffer(&mut self) -> ObsBuffer {
        std::mem::replace(&mut self.obs, ObsBuffer::disabled())
    }

    /// Logical nodes this instance stands for (1 = exact node).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The node's books: completion latches, slot weights and every accumulator its
    /// outcome is assembled from.
    pub fn books(&self) -> &NodeBooks {
        &self.books
    }

    /// The node's state as the autoscaler, scheduler and rack placement see it.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            index: self.index,
            smoothed_p99_s: self.books.smoothed_p99_s,
            utilization: self.books.utilization,
            free_slots: self.free_slots(),
            qos_target_s: self.runtime.sim().config().service.qos_target_s,
        }
    }

    /// Batch slots whose job has finished.
    pub fn free_slots(&self) -> usize {
        let sim = self.runtime.sim();
        (0..sim.app_count())
            .filter(|&slot| sim.app(slot).is_finished())
            .count()
    }

    /// Cores the interactive service holds beyond its fair share right now (cores
    /// reclaimed from the batch slots).
    pub fn extra_service_cores(&self) -> u32 {
        self.runtime.extra_service_cores()
    }

    /// The single-node observation of the last interval the node stepped (latency
    /// samples, power, per-slot status, …); `None` before the first step and right
    /// after a restore.
    pub fn observation(&self) -> Option<&IntervalObservation> {
        self.observation.as_ref()
    }

    /// Suspends the node (autoscaler park) or powers it back on; forwarded to
    /// [`ColocationSim::set_parked`](pliant_sim::colocation::ColocationSim::set_parked).
    /// While parked the node bills the suspend draw — the autoscaler guarantees it is
    /// assigned zero load and holds no running jobs.
    pub fn set_parked(&mut self, parked: bool) {
        self.runtime.sim_mut().set_parked(parked);
    }

    /// Sets the node's effective speed to `factor` of nominal (`1.0` = healthy);
    /// forwarded to
    /// [`ColocationSim::set_degrade`](pliant_sim::colocation::ColocationSim::set_degrade).
    /// Fault injection uses this to model degraded-frequency stragglers.
    pub fn set_degrade(&mut self, factor: f64) {
        self.runtime.sim_mut().set_degrade(factor);
    }

    /// Abandons every batch job still running on the node (a crash): each unfinished
    /// slot's job is latched done *without* being counted as completed, and its
    /// `(app, weight)` is appended to `lost` so the cluster's scheduler can re-queue
    /// it. The in-slot computation itself is not rewound — the slot stays occupied
    /// until the abandoned work runs out, modelling the post-reboot cleanup window —
    /// but its completion, inaccuracy, and weight will never be reported.
    pub fn abort_unfinished_jobs(&mut self, lost: &mut Vec<(AppId, usize)>) {
        let sim = self.runtime.sim();
        for slot in 0..sim.app_count() {
            if !self.books.slot_done[slot] && !sim.app(slot).is_finished() {
                self.books.slot_done[slot] = true;
                lost.push((sim.app(slot).profile().id, self.books.slot_weight[slot]));
            }
        }
    }

    /// Extracts the in-flight job from the node's lowest still-running batch slot for
    /// live migration to another node (see
    /// [`ColocationSim::extract_app`](pliant_sim::colocation::ColocationSim::extract_app)).
    ///
    /// Returns the job's full execution state and the replica weight it was placed
    /// with, or `None` when no slot holds a live job. The vacated slot is latched done
    /// — like [`Self::abort_unfinished_jobs`] — so the placeholder left behind is
    /// never reported as a completion; unlike an abort, the job is not lost: the
    /// caller implants the state into another node, where it completes and is counted
    /// exactly once. Slots already latched (post-crash cleanup of abandoned work) are
    /// skipped — their jobs were re-queued at the crash and must not also migrate.
    pub fn extract_job(&mut self) -> Option<(pliant_sim::batch::BatchAppState, usize)> {
        let sim = self.runtime.sim_mut();
        let slot = (0..sim.app_count())
            .find(|&s| !self.books.slot_done[s] && !sim.app(s).is_finished())?;
        let state = sim
            .extract_app(slot)
            // pliant-lint: allow(panic-hygiene): the slot was selected as
            // `!is_finished()` above, and `extract_app` only refuses finished slots.
            .expect("an unfinished slot must extract");
        self.books.slot_done[slot] = true;
        Some((state, self.books.slot_weight[slot]))
    }

    /// Implants a live-migrated job into the node's lowest free batch slot, continuing
    /// it exactly where the source node stopped (see
    /// [`ColocationSim::implant_app`](pliant_sim::colocation::ColocationSim::implant_app)).
    ///
    /// Mirrors [`Self::place_job`]: the job is rebased onto the slot's core
    /// state, the completion latch re-arms so the migrated job's eventual completion
    /// is reported (at its original weight), and the node's policy is notified so its
    /// per-slot variant ledger restarts — the destination controller re-learns the
    /// job's operating point from its own signal, a deliberate modelling
    /// simplification (the migrated job keeps executing whatever variant it ran on the
    /// source until the controller decides otherwise). Returns the slot used, or
    /// `None` when no slot is free.
    pub fn implant_job(
        &mut self,
        state: pliant_sim::batch::BatchAppState,
        weight: usize,
    ) -> Option<usize> {
        assert!(weight > 0, "a migrated job must stand for at least one job");
        let sim = self.runtime.sim_mut();
        let slot =
            (0..sim.app_count()).find(|&s| self.books.slot_done[s] && sim.app(s).is_finished())?;
        let variant_count = state.profile().variant_count();
        assert!(
            sim.implant_app(slot, state),
            "a finished slot must accept a migrated job"
        );
        self.runtime.on_app_replaced(slot, variant_count);
        self.books.slot_done[slot] = false;
        self.books.slot_weight[slot] = weight;
        Some(slot)
    }

    /// Captures the node's complete mutable state. Restoring the checkpoint into a
    /// freshly built node for the same scenario slot resumes the run bit-identically
    /// (see [`ClusterRun::checkpoint`](crate::engine::ClusterRun::checkpoint)).
    pub fn checkpoint(&self) -> NodeCheckpoint {
        NodeCheckpoint {
            sim: self.runtime.sim().state().clone(),
            policy: self.runtime.policy().clone(),
            monitor: self.runtime.monitor_state().clone(),
            actuator_stats: self.runtime.actuator_stats(),
            books: self.books.clone(),
        }
    }

    /// Restores a checkpoint captured by [`Self::checkpoint`] into this node, which
    /// must have been built for the same scenario slot (same seed, jobs, slot count and
    /// policy). Books no run can produce are rejected: per-slot vectors of the wrong
    /// length (a histogram no run can produce already fails to deserialize). The last
    /// observation is dropped: it is not part of the checkpoint, and the next step
    /// starts from fresh buffers.
    pub fn restore(&mut self, checkpoint: &NodeCheckpoint) -> Result<(), String> {
        let books = &checkpoint.books;
        let slots = self.books.slot_done.len();
        if books.slot_done.len() != slots || books.slot_weight.len() != slots {
            return Err(format!(
                "node {} checkpoint does not fit the node: {} slot latches and {} slot weights \
                 for {slots} slots",
                self.index,
                books.slot_done.len(),
                books.slot_weight.len()
            ));
        }
        self.runtime
            .restore(
                &checkpoint.sim,
                &checkpoint.policy,
                &checkpoint.monitor,
                checkpoint.actuator_stats,
            )
            .map_err(|e| format!("node {} {e}", self.index))?;
        self.books.clone_from(books);
        self.observation = None;
        Ok(())
    }

    /// Places a fresh job into the node's lowest free slot; the job inherits the slot's
    /// core state (see
    /// [`ColocationSim::replace_app`](pliant_sim::colocation::ColocationSim::replace_app))
    /// and the node's policy is notified so per-slot variant state resets while the core
    /// ledger persists. The placed job stands for `weight` logical jobs (the scheduler
    /// pops a batch of queued jobs for a replicated instance and runs one copy on it;
    /// 1 on an exact node), and completion accounting reports it at this weight.
    /// Returns the slot used, or `None` when no slot is free.
    pub fn place_job(&mut self, profile: &AppProfile, weight: usize) -> Option<usize> {
        assert!(weight > 0, "a placed job must stand for at least one job");
        let sim = self.runtime.sim_mut();
        let slot = (0..sim.app_count()).find(|&s| sim.app(s).is_finished())?;
        assert!(
            sim.replace_app(slot, profile.clone()),
            "a finished slot must accept a replacement job"
        );
        self.runtime.on_app_replaced(slot, profile.variant_count());
        self.books.slot_done[slot] = false;
        self.books.slot_weight[slot] = weight;
        self.obs.emit(
            self.books.intervals_stepped as u32,
            self.books.intervals_stepped as f64 * self.decision_interval_s,
            Event::JobReplaced {
                node: self.index as u32,
                slot: slot as u32,
                weight: weight as u32,
            },
        );
        Some(slot)
    }

    /// Advances the node one decision interval at its assigned offered load:
    /// the simulator runs the interval (recycling the buffers of the last observation),
    /// the node's books are updated, and the node's [`NodeRuntime`] acts on the
    /// interval's latency samples — the same runtime, and the same control step, as a
    /// single-node experiment. The node keeps the interval's observation
    /// ([`Self::observation`]) and returns the interval's job completions, weighted by
    /// the replica count of their slots.
    pub fn step(&mut self, assigned_load: f64) -> usize {
        // A saturated-fleet spill can nudge an assignment slightly past the profile
        // bound; clamp into the range the simulator accepts (it caps the generator at
        // 1.2x saturation anyway).
        let sim = self.runtime.sim_mut();
        sim.set_load_fraction(
            assigned_load.clamp(0.0, pliant_workloads::profile::MAX_LOAD_FRACTION),
        );
        let mut observation =
            sim.advance_reusing(self.decision_interval_s, self.observation.take());

        // QoS accounting and fleet-histogram recording happen here, as the node steps,
        // so the fleet's aggregation never touches individual latency samples. The first `warmup_intervals` are excluded: the
        // fleet p99 is a quantile over all samples, and the runtimes' one-off
        // convergence transient would otherwise sit in the histogram forever.
        // Every contribution below is scaled by the instance's replica weight: a
        // clustered representative's interval stands for `replicas` identical logical
        // node-intervals. On an exact node `replicas == 1` and the arithmetic is
        // bit-identical to unweighted accounting (`x * 1.0 == x` in IEEE-754, and a
        // weight-1 recording matches `record(v)` exactly). The histogram reads every
        // sample, so they are mapped once, in place, and recorded in one batched pass;
        // the monitor below then reads the same mapped values instead of mapping its
        // subsample again.
        let measured = self.books.intervals_stepped >= self.warmup_intervals;
        let interval = self.books.intervals_stepped as u32;
        self.books.intervals_stepped += 1;
        self.books.energy_j += observation.energy_j * self.replicas as f64;
        if measured {
            if observation.arrivals == 0 {
                self.books.idle_intervals += self.replicas;
            } else {
                self.books.busy_intervals += self.replicas;
                if observation.qos_violated() {
                    self.books.qos_violations += self.replicas;
                    self.obs.emit(
                        interval,
                        observation.time_s,
                        Event::QosViolation {
                            node: self.index as u32,
                            p99_s: observation.p99_latency_s,
                            qos_target_s: self.runtime.sim().config().service.qos_target_s,
                        },
                    );
                }
                self.books.hist.record_scaled_n(
                    observation.latency_samples_s.materialize(),
                    1e6,
                    self.replicas as u64,
                );
            }
        }

        // Latch completions so each job is counted exactly once, at the replica weight
        // the job was placed with.
        let mut jobs_completed = 0usize;
        let sim = self.runtime.sim();
        for slot in 0..sim.app_count() {
            if !self.books.slot_done[slot] && sim.app(slot).is_finished() {
                self.books.slot_done[slot] = true;
                jobs_completed += self.books.slot_weight[slot];
                let inaccuracy_pct = sim.app(slot).inaccuracy_pct();
                self.books.completed_inaccuracy_weighted_sum +=
                    inaccuracy_pct * self.books.slot_weight[slot] as f64;
                self.obs.emit(
                    interval,
                    observation.time_s,
                    Event::JobCompleted {
                        node: self.index as u32,
                        slot: slot as u32,
                        weight: self.books.slot_weight[slot] as u32,
                        inaccuracy_pct,
                    },
                );
            }
        }

        let report = self.runtime.control(
            &observation.latency_samples_s,
            &mut self.obs,
            self.index as u32,
            interval,
            observation.time_s,
        );
        if report.no_signal {
            // The monitor rightly holds its EWMA through idle intervals (no evidence —
            // the *controller* must not relax), but the fleet-visible estimate must age
            // out: an idle node has an empty queue, and freezing its last (possibly
            // terrible) latency reading would keep it counting as QoS pressure and
            // repelling job placements long after it stopped serving.
            self.books.smoothed_p99_s *= IDLE_ESTIMATE_DECAY;
        } else {
            self.books.smoothed_p99_s = report.smoothed_p99_s;
        }
        self.books.utilization = observation.utilization;
        self.books.assigned_sum += assigned_load;
        self.books.max_extra = self.books.max_extra.max(self.runtime.extra_service_cores());
        self.books.jobs_completed += jobs_completed;
        self.observation = Some(observation);
        jobs_completed
    }
}

/// One node's complete mutable state inside a
/// [`ClusterRunCheckpoint`](crate::engine::ClusterRunCheckpoint): the co-location state
/// (simulators, RNG streams, degradation), the runtime (policy, monitor, actuator
/// counters), and the node's books. The node's configuration (seed, jobs, QoS target) is
/// *not* captured — it is rebuilt from the scenario on restore and checked for
/// consistency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeCheckpoint {
    /// Full co-location simulator state.
    pub sim: ColocationState,
    /// The node's policy and its whole controller state.
    pub policy: Policy,
    /// Performance-monitor state (EWMA, sampling RNG, hysteresis).
    pub monitor: MonitorState,
    /// Actuator counters.
    pub actuator_stats: ActuatorStats,
    /// Every accumulator the node's outcome is assembled from.
    pub books: NodeBooks,
}

/// A fleet node's books: its completion latches and slot weights, and every
/// accumulator its outcome is assembled from. A node keeps them as this one value, so
/// its checkpoint is a clone of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeBooks {
    /// Per-slot completion latch, used to report each job's completion exactly once.
    pub slot_done: Vec<bool>,
    /// Per-slot replica weight of the job currently in the slot: initial jobs stand for
    /// the node's `replicas` copies (every member of the chunk starts the same job);
    /// jobs placed later carry the batch weight the scheduler popped for them.
    pub slot_weight: Vec<usize>,
    /// Σ inaccuracy (percent) × replica weight over every job completed on this node
    /// so far, added in completion order; divided by `jobs_completed` (the sum of the
    /// weights) it is the node's replica-weighted mean inaccuracy.
    pub completed_inaccuracy_weighted_sum: f64,
    /// Fleet-visible smoothed tail-latency estimate, in seconds: the monitor's EWMA
    /// after a traffic-serving interval, decayed through idle ones; `0.0` until the
    /// first traffic-serving interval.
    pub smoothed_p99_s: f64,
    /// Utilization of the interactive service over the last interval.
    pub utilization: f64,
    /// Intervals stepped so far, for the warm-up cutoff.
    pub intervals_stepped: usize,
    /// Cumulative histogram of every post-warm-up latency sample, in microseconds.
    /// Recorded node-side (inside [`ClusterNode::step`]) so the cluster engine
    /// aggregates fleet quantiles by merging N histograms instead of re-iterating every
    /// sample; per-node histograms share one bucket layout, so the fleet's p99 is their
    /// exact merge (see [`LatencyHistogram::merge`]). A checkpoint writes only the
    /// buckets between the recorded extremes (63 to 120 per node in a `fig_cluster`
    /// checkpoint, against the 1,280 of the full layout) and refuses to parse a list
    /// of any other length.
    pub hist: LatencyHistogram,
    /// Post-warm-up intervals that served traffic.
    pub busy_intervals: usize,
    /// Post-warm-up intervals with zero arrivals.
    pub idle_intervals: usize,
    /// Post-warm-up traffic-serving intervals that violated the QoS target.
    pub qos_violations: usize,
    /// Total electrical energy the node has consumed, in joules. Unlike the QoS
    /// counters this covers the *whole* run (warm-up included) — energy is billed
    /// whenever the machine is on, regardless of measurement windows. Recorded
    /// node-side like the histogram, so fleet energy is the exact sum of these.
    pub energy_j: f64,
    /// Sum of the offered load the even split routed to the node over every interval
    /// stepped, as a fraction of the node's saturation throughput. Routed, not served:
    /// the workload generator caps at 1.2x saturation, so in overload this exceeds the
    /// load the node actually ran.
    pub assigned_sum: f64,
    /// Most cores the interactive service held beyond its fair share at the end of any
    /// interval.
    pub max_extra: u32,
    /// Jobs that ran to completion on the node, each weighted by the replica count of
    /// the slot it occupied (the plain completion count on an exact, weight-1 node).
    pub jobs_completed: usize,
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("index", &self.index)
            .field("free_slots", &self.free_slots())
            .field("smoothed_p99_s", &self.books.smoothed_p99_s)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_approx::catalog::AppId;
    use pliant_workloads::service::ServiceId;

    #[test]
    fn histogram_records_every_mapped_sample_at_the_replica_weight() {
        // The node maps its samples once in place and records them in one batched
        // pass. A twin of the node's simulator, cloned before each step, produces the
        // same interval with its samples mapped on read: recording those one at a time
        // must give the same histogram bits, and the node's materialized samples must
        // read the same as the twin's.
        let jobs = [AppId::Canneal, AppId::KMeans];
        let scenario = ClusterScenario {
            nodes: 1,
            jobs: jobs.to_vec(),
            avg_node_load: 0.7,
            horizon: pliant_core::scenario::Horizon::Intervals(12),
            seed: 5,
            ..ClusterScenario::paper_default(ServiceId::Memcached)
        };
        let mut node = ClusterNode::representative(&scenario, 0, 0, 3, &jobs, &Catalog::default());
        let mut expected = LatencyHistogram::new();
        let mut recorded = 0usize;
        let bits = |s: &pliant_telemetry::rng::LatencySamples| {
            s.iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        for interval in 0..12 {
            let mut twin = node.runtime.sim().clone();
            twin.set_load_fraction(0.7);
            let lazy = twin.advance_reusing(scenario.decision_interval_s(), None);
            node.step(0.7);
            let observation = node.observation().expect("stepped");
            assert_eq!(
                bits(&observation.latency_samples_s),
                bits(&lazy.latency_samples_s),
                "interval {interval}"
            );
            if interval < scenario.warmup_intervals {
                continue;
            }
            for sample_s in lazy.latency_samples_s.iter() {
                expected.record_n(sample_s * 1e6, 3);
                recorded += 1;
            }
        }
        assert!(recorded > 0, "the run must record samples past warm-up");
        let json = |h: &LatencyHistogram| serde_json::to_string(h).expect("serializable");
        assert_eq!(json(&node.books().hist), json(&expected));
    }
}
