//! The co-location engine.
//!
//! A [`ColocationSim`] binds together one interactive service, one or more approximate
//! batch applications, the platform model, the interference model, and the latency model.
//! The Pliant runtime (or a baseline policy) drives it one decision interval at a time:
//! observe the interval's tail latency, then actuate (switch variants, move cores) before
//! the next interval.

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::{AppId, AppProfile, Catalog, ResourcePressure};
use pliant_telemetry::rng::{derive_seed, seeded_rng, LatencySamples};
use pliant_workloads::generator::OpenLoopGenerator;
use pliant_workloads::profile::{LoadPhase, LoadProfile};
use pliant_workloads::service::{ServiceId, ServiceProfile};
use rand::rngs::SmallRng;

use crate::batch::BatchAppState;
use crate::interference::InterferenceModel;
use crate::queueing::{LatencyInputs, LatencyModel};
use crate::server::ServerSpec;

/// Configuration of one co-location experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColocationConfig {
    /// Platform model.
    pub server: ServerSpec,
    /// Interactive service model.
    pub service: ServiceProfile,
    /// Offered load over simulated time, as a fraction of the service's saturation
    /// throughput. Sampled at the start of every decision interval.
    pub load: LoadProfile,
    /// Approximate applications co-scheduled with the service.
    pub apps: Vec<AppId>,
    /// Whether the approximate applications run under the dynamic-instrumentation tool
    /// (true for Pliant, false for the precise baseline, which needs no instrumentation).
    pub instrumented: bool,
    /// Interference-model constants.
    pub interference: InterferenceModel,
    /// Latency-model constants.
    pub latency: LatencyModel,
    /// Number of latency samples delivered to the monitor per decision interval. 0
    /// means no monitor reads this node: no interval draws samples.
    pub samples_per_interval: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl ColocationConfig {
    /// Paper-default configuration: high load (75% of saturation), paper platform,
    /// instrumented applications.
    pub fn paper_default(service: ServiceId, apps: &[AppId], seed: u64) -> Self {
        Self {
            server: ServerSpec::paper_platform(),
            service: ServiceProfile::paper_default(service),
            load: LoadProfile::constant(0.75),
            apps: apps.to_vec(),
            instrumented: true,
            interference: InterferenceModel::default(),
            latency: LatencyModel::default(),
            samples_per_interval: 1_000,
            seed,
        }
    }

    /// Same as [`Self::paper_default`] but with a custom constant load fraction (for
    /// Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if the constant profile at `load_fraction` fails
    /// [`LoadProfile::validate`] (non-finite, out of range, or never positive) — the
    /// same check a [`pliant_workloads::profile::LoadProfile`] swept through a suite
    /// gets, applied at the config boundary so a directly-built simulator rejects it
    /// too.
    pub fn with_load(self, load_fraction: f64) -> Self {
        self.with_load_profile(LoadProfile::constant(load_fraction))
    }

    /// Same as [`Self::paper_default`] but with a time-varying load profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`LoadProfile::validate`]; see [`Self::with_load`].
    pub fn with_load_profile(mut self, profile: LoadProfile) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid load profile `{}`: {e}", profile.describe());
        }
        self.load = profile;
        self
    }
}

/// Observation of one elapsed decision interval, returned by [`ColocationSim::advance`].
#[derive(Debug, Clone, Serialize)]
pub struct IntervalObservation {
    /// Experiment time at the end of the interval, in seconds.
    pub time_s: f64,
    /// Offered load during the interval (the profile sampled at the interval start), as a
    /// fraction of saturation throughput.
    pub offered_load: f64,
    /// What the load profile was doing at the interval start (steady, ramping, peak).
    pub load_phase: LoadPhase,
    /// Requests that arrived during the interval. Zero marks an idle interval: no
    /// latency samples are delivered and no latency evidence exists.
    pub arrivals: u64,
    /// Average electrical power the node drew during the interval, in watts (see
    /// [`PowerModel`](crate::server::PowerModel)). Absent in pre-energy archives
    /// (deserializes as 0).
    #[serde(default)]
    pub power_w: f64,
    /// Energy the node consumed during the interval, in joules (`power_w × dt`).
    /// Absent in pre-energy archives (deserializes as 0).
    #[serde(default)]
    pub energy_j: f64,
    /// True 99th-percentile latency of the interval, in seconds.
    pub p99_latency_s: f64,
    /// The service's QoS target, in seconds.
    pub qos_target_s: f64,
    /// Raw latency samples for the performance monitor (client-side sampling), in
    /// seconds. Each is mapped from its stored normal only when read. Empty when the
    /// interval had no arrivals or when samples are off
    /// ([`ColocationConfig::samples_per_interval`] is 0).
    pub latency_samples_s: LatencySamples,
    /// Utilization of the interactive service during the interval.
    pub utilization: f64,
    /// Per-application status snapshots.
    pub apps: Vec<AppIntervalStatus>,
    /// Whether every batch application has finished.
    pub all_apps_finished: bool,
}

impl IntervalObservation {
    /// Whether the interval violated the QoS target.
    pub fn qos_violated(&self) -> bool {
        self.p99_latency_s > self.qos_target_s
    }

    /// Latency slack as a fraction of the QoS target (positive when under the target).
    pub fn slack_fraction(&self) -> f64 {
        (self.qos_target_s - self.p99_latency_s) / self.qos_target_s
    }
}

/// Snapshot of one batch application at the end of an interval.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppIntervalStatus {
    /// Which application.
    pub app: AppId,
    /// Active variant (`None` = precise).
    pub variant: Option<usize>,
    /// Cores currently allocated to the application.
    pub cores: u32,
    /// Cores reclaimed from the application so far.
    pub cores_reclaimed: u32,
    /// Completed fraction of the job.
    pub progress: f64,
    /// Whether the job has finished.
    pub finished: bool,
    /// Running (work-weighted) inaccuracy in percent.
    pub inaccuracy_pct: f64,
    /// Execution time relative to the nominal precise run.
    pub relative_execution_time: f64,
}

/// The co-location simulation engine.
#[derive(Debug, Clone)]
pub struct ColocationSim {
    /// The configuration the simulator was built with; a run never changes it.
    config: ColocationConfig,
    /// Everything a run mutates, kept as the one value a checkpoint carries.
    state: ColocationState,
    /// Scratch buffer for per-app interference pressures, reused across intervals.
    pressure_scratch: Vec<ResourcePressure>,
}

/// A [`ColocationSim`]'s full mutable state: the value checkpoints carry.
///
/// The immutable configuration (server, service, models, seed) is *not* part of it: a
/// restore target is built from the same configuration, and [`ColocationSim::restore`]
/// checks that the state fits it (same arrival seed, slot count and core total).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColocationState {
    /// The load profile in force (mid-run swaps replace the configured one).
    pub load: LoadProfile,
    /// Full per-slot batch-application state (batch scheduling replaces finished
    /// slots).
    pub apps: Vec<BatchAppState>,
    /// Cores currently allocated to the interactive service.
    pub service_cores: u32,
    /// The arrival generator: rate, seed and live RNG.
    pub generator: OpenLoopGenerator,
    /// Model-noise RNG.
    pub rng: SmallRng,
    /// Dedicated stream for per-interval latency-sample generation, so the volume of
    /// monitor samples (the dominant draw count by three orders of magnitude) never
    /// perturbs the model-noise stream that decides each interval's true p99.
    pub sample_rng: SmallRng,
    /// Experiment clock, in seconds.
    pub time_s: f64,
    /// Intervals elapsed.
    pub interval_counter: u64,
    /// Whether the node is parked (drained and suspended by a fleet autoscaler): a
    /// parked node bills [`PowerModel::parked_w`](crate::server::PowerModel::parked_w)
    /// instead of allocation-based power.
    pub parked: bool,
    /// Effective-frequency factor of a degraded (straggler) node: `1.0` is healthy,
    /// `0.6` means the machine delivers 60% of its nominal service capacity. Applied to
    /// the interactive service's latency inputs only (see [`ColocationSim::set_degrade`]).
    pub degrade: f64,
}

impl ColocationSim {
    /// Builds a simulator from a configuration, drawing application profiles from the
    /// catalog.
    ///
    /// # Panics
    ///
    /// Panics if `config.apps` is empty, names an application missing from the catalog,
    /// or `config.load` fails [`LoadProfile::validate`] (a deserialized or hand-built
    /// configuration bypasses the `with_load*` builders, so the boundary check is
    /// repeated here).
    pub fn new(config: ColocationConfig, catalog: &Catalog) -> Self {
        assert!(
            !config.apps.is_empty(),
            "at least one approximate application is required"
        );
        if let Err(e) = config.load.validate() {
            panic!(
                "invalid load profile `{}` in colocation config: {e}",
                config.load.describe()
            );
        }
        // Serde construction validates these at the deserialization boundary, but a
        // hand-built configuration bypasses it — repeat the checks here.
        if let Err(e) = config.server.power.validate() {
            panic!("invalid power model in colocation config: {e}");
        }
        if let Err(e) = config.interference.validate() {
            panic!("invalid interference model in colocation config: {e}");
        }
        let (service_cores, per_app_cores) =
            config.server.fair_allocation(config.apps.len() as u32);
        let apps: Vec<BatchAppState> = config
            .apps
            .iter()
            .zip(per_app_cores.iter())
            .map(|(id, &cores)| {
                let profile: AppProfile = catalog
                    .profile(*id)
                    .unwrap_or_else(|| panic!("{id} missing from catalog"))
                    .clone();
                BatchAppState::new(profile, cores, config.instrumented)
            })
            .collect();
        let qps = config.service.qps_at_load(config.load.load_at(0.0));
        let state = ColocationState {
            load: config.load.clone(),
            apps,
            service_cores,
            generator: OpenLoopGenerator::new(qps, derive_seed(config.seed, 1)),
            rng: seeded_rng(derive_seed(config.seed, 2)),
            sample_rng: seeded_rng(derive_seed(config.seed, 3)),
            time_s: 0.0,
            interval_counter: 0,
            parked: false,
            degrade: 1.0,
        };
        Self {
            config,
            state,
            pressure_scratch: Vec::new(),
        }
    }

    /// The configuration the simulator was built with. A run never changes it: the
    /// load profile in force and the jobs in the slots are part of [`Self::state`].
    pub fn config(&self) -> &ColocationConfig {
        &self.config
    }

    /// The simulator's full mutable state (see [`ColocationState`]).
    pub fn state(&self) -> &ColocationState {
        &self.state
    }

    /// Cores currently allocated to the interactive service.
    pub fn service_cores(&self) -> u32 {
        self.state.service_cores
    }

    /// Number of co-located batch applications.
    pub fn app_count(&self) -> usize {
        self.state.apps.len()
    }

    /// Immutable access to a batch application's state.
    pub fn app(&self, index: usize) -> &BatchAppState {
        &self.state.apps[index]
    }

    /// Pins the offered load to a constant fraction mid-experiment (load sweeps),
    /// replacing whatever profile was active.
    pub fn set_load_fraction(&mut self, load_fraction: f64) {
        self.set_load_profile(LoadProfile::constant(load_fraction));
    }

    /// Replaces the load profile mid-experiment. The profile is evaluated against total
    /// experiment time, not time since the swap; [`Self::advance`] samples it (and sets
    /// the generator's rate) at the start of the next interval.
    ///
    /// Unlike the config-boundary builders this checks only
    /// [`LoadProfile::validate_shape`], so a profile that never offers load is accepted:
    /// an external dispatcher (e.g. a cluster load balancer) may legitimately assign a
    /// node zero load for a while, which simply yields idle intervals.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`LoadProfile::validate_shape`].
    pub fn set_load_profile(&mut self, profile: LoadProfile) {
        if let Err(e) = profile.validate_shape() {
            panic!("invalid load profile `{}`: {e}", profile.describe());
        }
        self.state.load = profile;
    }

    /// Marks the node as parked (suspended) or powered back on.
    ///
    /// A fleet autoscaler that has drained a node — no interactive traffic, every batch
    /// slot finished — suspends the machine; while parked, every interval bills
    /// [`PowerModel::parked_w`](crate::server::PowerModel::parked_w) instead of
    /// allocation-based power. Parking affects *only* the power accounting: the caller
    /// is responsible for assigning zero load while parked (the cluster autoscaler
    /// guarantees this), and un-parking restores normal billing from the next interval.
    pub fn set_parked(&mut self, parked: bool) {
        self.state.parked = parked;
    }

    /// Marks the node as a degraded straggler delivering `factor` of its nominal service
    /// capacity (`1.0` restores full health).
    ///
    /// Fault injection uses this to model a machine stuck at a reduced effective
    /// frequency (thermal throttling, failing DIMM, noisy neighbour below the
    /// hypervisor): the interactive service's capacity and direct slowdowns are scaled
    /// by `1/factor`, inflating tail latency exactly as a slower clock would, while
    /// batch progress and the power model deliberately stay at their nominal rates —
    /// the straggler's damage is QoS, which is the axis the paper's runtime defends.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn set_degrade(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor <= 1.0,
            "degrade factor must be in (0, 1], got {factor}"
        );
        self.state.degrade = factor;
    }

    /// Replaces the **finished** application in slot `index` with a fresh job.
    ///
    /// This is the substrate for batch-job scheduling across a fleet: a slot whose job
    /// has completed is handed the next queued job without disturbing anything else on
    /// the node. The incoming job inherits the slot's core state exactly — it starts
    /// with the cores the outgoing job currently holds (any cores the service reclaimed
    /// from the slot stay with the service), and its full allocation remains the slot's
    /// original fair share, so a later [`Self::return_core`] can give the reclaimed
    /// cores back to the new occupant. The new job starts in precise mode.
    ///
    /// Returns `false` (and changes nothing) if the slot's current job has not finished.
    pub fn replace_app(&mut self, index: usize, profile: AppProfile) -> bool {
        let slot = &mut self.state.apps[index];
        if !slot.is_finished() {
            return false;
        }
        let (slot_share, current) = (slot.initial_cores(), slot.cores());
        let mut fresh = BatchAppState::new(profile, slot_share, self.config.instrumented);
        for _ in current..slot_share {
            fresh.reclaim_core();
        }
        *slot = fresh;
        true
    }

    /// Extracts the **in-flight** batch application from slot `index` for live
    /// migration, leaving an already-finished placeholder in the slot.
    ///
    /// The extracted state keeps its progress, work-weighted quality ledger, active
    /// variant, and elapsed time — everything the destination needs to continue the
    /// job exactly where it stopped. The vacated slot keeps its current core split
    /// (any cores the service reclaimed from the slot stay with the service), so the
    /// slot looks exactly like one whose job completed normally: a later
    /// [`Self::replace_app`] or [`Self::implant_app`] refills it with the usual
    /// semantics. Pure state manipulation — no RNG stream is touched, so migration
    /// never perturbs the node's stochastic sequences.
    ///
    /// Returns `None` (and changes nothing) if the slot's job has already finished —
    /// there is nothing to migrate.
    pub fn extract_app(&mut self, index: usize) -> Option<BatchAppState> {
        let slot = &mut self.state.apps[index];
        if slot.is_finished() {
            return None;
        }
        let placeholder = BatchAppState::finished_placeholder(
            slot.profile().clone(),
            slot.initial_cores(),
            slot.cores(),
            self.config.instrumented,
            self.state.time_s,
        );
        Some(std::mem::replace(slot, placeholder))
    }

    /// Implants a live-migrated batch application into the **finished** slot `index`.
    ///
    /// Mirrors [`Self::replace_app`]: the incoming job is rebased onto the slot's
    /// original fair share and then reclaims down to the cores the slot currently
    /// holds, so any cores the service reclaimed from the slot stay with the service.
    /// The job's progress, quality ledger, variant, and elapsed time carry over
    /// unchanged. Returns `false` (and changes nothing) if the slot's current job has
    /// not finished.
    pub fn implant_app(&mut self, index: usize, mut state: BatchAppState) -> bool {
        let slot = &mut self.state.apps[index];
        if !slot.is_finished() {
            return false;
        }
        let (slot_share, current) = (slot.initial_cores(), slot.cores());
        state.rebase_to_share(slot_share);
        for _ in current..slot_share {
            state.reclaim_core();
        }
        *slot = state;
        true
    }

    /// Switches application `index` to the given variant (`None` = precise). Returns
    /// whether the variant changed.
    pub fn set_variant(&mut self, index: usize, variant: Option<usize>) -> bool {
        self.state.apps[index].set_variant(variant)
    }

    /// Reclaims one core from application `index` and gives it to the interactive service.
    /// Returns `false` (and moves nothing) if the application is already at one core.
    pub fn reclaim_core(&mut self, index: usize) -> bool {
        if self.state.apps[index].reclaim_core() {
            self.state.service_cores += 1;
            true
        } else {
            false
        }
    }

    /// Returns one core from the interactive service to application `index`. Returns
    /// `false` if the application already holds its full initial allocation or the service
    /// is at its own fair share.
    pub fn return_core(&mut self, index: usize) -> bool {
        let (fair_service, _) = self.config.server.fair_allocation(self.app_count() as u32);
        if self.state.service_cores <= fair_service {
            return false;
        }
        if self.state.apps[index].return_core() {
            self.state.service_cores -= 1;
            true
        } else {
            false
        }
    }

    /// Restores state taken from [`Self::state`] onto a simulator built from the same
    /// configuration, after which every subsequent interval is bit-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Rejects a state whose generator seed disagrees with this simulator's (the state
    /// was taken from a different configuration), a slot-count mismatch, a degrade
    /// factor outside the `(0, 1]` range [`Self::set_degrade`] accepts, or a core split
    /// whose service and slot cores do not add up to the cores this simulator was built
    /// with (reclaiming and returning only move cores, never create them).
    pub fn restore(&mut self, state: &ColocationState) -> Result<(), String> {
        let built = &self.state;
        if state.generator.seed() != built.generator.seed() {
            return Err(format!(
                "snapshot generator seed {} does not match simulator seed {}",
                state.generator.seed(),
                built.generator.seed()
            ));
        }
        if state.apps.len() != built.apps.len() {
            return Err(format!(
                "snapshot carries {} batch slots, simulator has {}",
                state.apps.len(),
                built.apps.len()
            ));
        }
        if !(state.degrade > 0.0 && state.degrade <= 1.0) {
            return Err(format!(
                "snapshot degrade factor {} lies outside (0, 1]",
                state.degrade
            ));
        }
        let cores = |s: &ColocationState| {
            u64::from(s.service_cores) + s.apps.iter().map(|a| u64::from(a.cores())).sum::<u64>()
        };
        let (snapshot_cores, built_cores) = (cores(state), cores(built));
        if snapshot_cores != built_cores {
            return Err(format!(
                "snapshot allocates {snapshot_cores} cores ({} to the service), \
                 simulator was built with {built_cores}",
                state.service_cores
            ));
        }
        self.state.clone_from(state);
        Ok(())
    }

    /// Advances the simulation by one decision interval of `dt` seconds and returns the
    /// interval's observation.
    ///
    /// Allocates fresh observation buffers; drivers that advance many intervals should
    /// hand the previous observation back through [`Self::advance_reusing`] instead.
    pub fn advance(&mut self, dt: f64) -> IntervalObservation {
        self.advance_reusing(dt, None)
    }

    /// Advances one decision interval, recycling the heap buffers (latency samples,
    /// per-app statuses) of a previous interval's observation.
    ///
    /// This is the hot-path entry point: a driver loop that feeds each observation back
    /// in (`obs = sim.advance_reusing(dt, Some(obs))`) runs every interval without any
    /// per-interval allocation. The recycled observation's contents are discarded —
    /// only its capacity is reused — so idle intervals still deliver an *empty* sample
    /// set, never a stale one.
    pub fn advance_reusing(
        &mut self,
        dt: f64,
        recycle: Option<IntervalObservation>,
    ) -> IntervalObservation {
        assert!(dt > 0.0, "interval must be positive");
        let (mut samples, mut app_statuses) = match recycle {
            Some(obs) => (obs.latency_samples_s, obs.apps),
            // pliant-lint: allow(hot-path-alloc): cold-start fallback only — callers
            // on the steady-state path always recycle the previous observation.
            None => (LatencySamples::new(), Vec::new()),
        };
        samples.clear();
        app_statuses.clear();
        // Sample the load profile at the interval start: the generator's *rate* follows
        // the profile while its RNG stream stays untouched, so constant profiles
        // reproduce the exact pre-profile arrival sequences. The recorded load is
        // clamped to what the generator actually runs at, so statistics never claim an
        // operating point above the saturation model's ceiling.
        let (config, state) = (&self.config, &mut self.state);
        let interval_start_s = state.time_s;
        let offered_load = state
            .load
            .load_at(interval_start_s)
            .clamp(0.0, ServiceProfile::MAX_OFFERED_LOAD);
        let load_phase = state.load.phase_at(interval_start_s);
        state
            .generator
            .set_qps(config.service.qps_at_load(offered_load));
        state.interval_counter += 1;
        state.time_s += dt;

        // Contention for this interval, from the live co-runners' current pressure.
        self.pressure_scratch.clear();
        self.pressure_scratch
            .extend(state.apps.iter().map(|a| a.current_pressure()));
        let contention =
            config
                .interference
                .contention(&config.server, &config.service, &self.pressure_scratch);

        // Interactive service latency for the interval.
        let arrivals = state.generator.arrivals_in(dt);
        let qps = arrivals as f64 / dt;
        let mut inputs = LatencyInputs {
            qps,
            cores: state.service_cores,
            capacity_slowdown: contention.service_capacity_slowdown,
            direct_slowdown: contention.service_direct_slowdown,
        };
        // A degraded straggler delivers `degrade` of its nominal capacity: both slowdown
        // channels scale by the lost frequency. Healthy nodes skip the branch entirely so
        // fault-free runs stay bit-identical to pre-fault builds.
        if state.degrade < 1.0 {
            inputs.capacity_slowdown /= state.degrade;
            inputs.direct_slowdown /= state.degrade;
        }
        let p99 = config
            .latency
            .p99_with_noise(&config.service, &inputs, &mut state.rng);
        // An interval with zero arrivals serves no requests, so the client-side monitor
        // receives no samples: deliver an empty set (the monitor reports no-signal and
        // the runtime holds) instead of fabricating `samples_per_interval` synthetic
        // low-latency samples that would read as maximal headroom at a load trough. A
        // node no monitor reads (`samples_per_interval == 0`) skips the draw as well;
        // nothing but the samples reads `sample_rng`, so every other output is the same.
        if arrivals > 0 && config.samples_per_interval > 0 {
            config.latency.fill_samples(
                &config.service,
                p99,
                config.samples_per_interval,
                &mut state.sample_rng,
                &mut samples,
            );
        }
        let utilization = LatencyModel::utilization(&config.service, &inputs);

        // Electrical power for the interval, from the start-of-interval allocation and
        // activity (the same convention the contention model uses): every allocated
        // core draws static power, the service's cores draw dynamic power weighted by
        // its utilization, and each batch slot's cores draw dynamic power weighted by
        // its variant's CPU intensity (zero once the job finishes). Pure arithmetic —
        // no allocation on the hot path. A parked node bills the suspend draw instead.
        let power_w = if state.parked {
            config.server.power.parked_w
        } else {
            let mut allocated = state.service_cores;
            let mut busy = state.service_cores as f64 * utilization.clamp(0.0, 1.0);
            for (app, pressure) in state.apps.iter().zip(&self.pressure_scratch) {
                allocated += app.cores();
                busy += app.cores() as f64 * pressure.cpu_intensity.clamp(0.0, 1.0);
            }
            config
                .server
                .power
                .power_w(allocated, busy, config.server.base_freq_ghz)
        };
        let energy_j = power_w * dt;

        // Batch applications make progress under their own interference slowdown.
        for app in &mut state.apps {
            app.advance(dt, contention.batch_slowdown, state.time_s);
        }

        app_statuses.extend(state.apps.iter().map(|a| AppIntervalStatus {
            app: a.profile().id,
            variant: a.variant(),
            cores: a.cores(),
            cores_reclaimed: a.cores_reclaimed(),
            progress: a.progress(),
            finished: a.is_finished(),
            inaccuracy_pct: a.inaccuracy_pct(),
            relative_execution_time: a.relative_execution_time(),
        }));
        let all_apps_finished = state.apps.iter().all(|a| a.is_finished());

        IntervalObservation {
            time_s: state.time_s,
            offered_load,
            load_phase,
            arrivals,
            power_w,
            energy_j,
            p99_latency_s: p99,
            qos_target_s: config.service.qos_target_s,
            latency_samples_s: samples,
            utilization,
            apps: app_statuses,
            all_apps_finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::default()
    }

    fn run_static(
        service: ServiceId,
        app: AppId,
        variant: Option<usize>,
        extra_cores: u32,
        intervals: usize,
    ) -> (f64, f64) {
        // Returns (mean p99 / QoS ratio, QoS-violation fraction) for a static configuration.
        let cfg = ColocationConfig::paper_default(service, &[app], 7);
        let mut sim = ColocationSim::new(cfg, &catalog());
        sim.set_variant(0, variant);
        for _ in 0..extra_cores {
            sim.reclaim_core(0);
        }
        let mut ratio_sum = 0.0;
        let mut violations = 0usize;
        for _ in 0..intervals {
            let obs = sim.advance(1.0);
            ratio_sum += obs.p99_latency_s / obs.qos_target_s;
            if obs.qos_violated() {
                violations += 1;
            }
        }
        (
            ratio_sum / intervals as f64,
            violations as f64 / intervals as f64,
        )
    }

    #[test]
    fn precise_colocation_violates_qos_for_sensitive_services() {
        for service in [ServiceId::Nginx, ServiceId::Memcached] {
            let (ratio, violation_frac) = run_static(service, AppId::Canneal, None, 0, 20);
            assert!(
                ratio > 1.4,
                "{service}: precise canneal colocation should clearly violate QoS (ratio {ratio})"
            );
            assert!(violation_frac > 0.9);
        }
    }

    #[test]
    fn mongodb_precise_colocation_is_borderline_or_violating() {
        let (ratio, _) = run_static(ServiceId::MongoDb, AppId::Canneal, None, 0, 20);
        assert!(
            ratio > 0.95,
            "MongoDB + precise canneal should sit at or above QoS (ratio {ratio})"
        );
    }

    #[test]
    fn snp_most_approximate_lets_memcached_meet_qos_without_cores() {
        let catalog = catalog();
        let most = catalog.profile(AppId::Snp).unwrap().most_approximate();
        let (ratio, violation_frac) = run_static(ServiceId::Memcached, AppId::Snp, most, 0, 20);
        assert!(
            violation_frac < 0.3,
            "memcached + most-approximate SNP should mostly meet QoS (ratio {ratio}, violations {violation_frac})"
        );
    }

    #[test]
    fn canneal_needs_cores_in_addition_to_approximation_for_memcached() {
        let catalog = catalog();
        let most = catalog.profile(AppId::Canneal).unwrap().most_approximate();
        let (_, violations_without_cores) =
            run_static(ServiceId::Memcached, AppId::Canneal, most, 0, 20);
        let (_, violations_with_cores) =
            run_static(ServiceId::Memcached, AppId::Canneal, most, 4, 20);
        assert!(
            violations_without_cores > 0.5,
            "approximation alone should not be enough for canneal + memcached"
        );
        assert!(
            violations_with_cores < 0.3,
            "reclaiming cores plus approximation should restore QoS"
        );
    }

    #[test]
    fn batch_app_progresses_and_finishes() {
        let cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 3);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let mut finished_at = None;
        for _ in 0..120 {
            let obs = sim.advance(1.0);
            if obs.all_apps_finished {
                finished_at = Some(obs.time_s);
                break;
            }
        }
        let t = finished_at.expect("raytrace should finish within 120 s");
        let nominal = catalog()
            .profile(AppId::Raytrace)
            .unwrap()
            .nominal_exec_time_s;
        assert!(
            t >= nominal * 0.9 && t <= nominal * 1.6,
            "finish time {t} vs nominal {nominal}"
        );
    }

    #[test]
    fn reclaim_and_return_core_move_allocation_back_and_forth() {
        let cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Bayesian], 5);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let initial = sim.service_cores();
        assert!(sim.reclaim_core(0));
        assert_eq!(sim.service_cores(), initial + 1);
        assert!(sim.return_core(0));
        assert_eq!(sim.service_cores(), initial);
        // The service never drops below its fair share.
        assert!(!sim.return_core(0));
    }

    #[test]
    fn multi_app_colocation_splits_batch_cores() {
        let cfg = ColocationConfig::paper_default(
            ServiceId::Nginx,
            &[AppId::Canneal, AppId::Bayesian],
            9,
        );
        let sim = ColocationSim::new(cfg, &catalog());
        assert_eq!(sim.app_count(), 2);
        assert_eq!(sim.service_cores(), 8);
        assert_eq!(sim.app(0).cores() + sim.app(1).cores(), 8);
    }

    #[test]
    fn observation_reports_samples_and_slack() {
        let cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 11);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let obs = sim.advance(1.0);
        assert_eq!(obs.latency_samples_s.len(), 1_000);
        assert!(obs.latency_samples_s.iter().all(|s| s > 0.0));
        assert_eq!(obs.apps.len(), 1);
        assert!(
            (obs.slack_fraction() - (obs.qos_target_s - obs.p99_latency_s) / obs.qos_target_s)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn simulation_is_deterministic_in_seed() {
        let run = |seed: u64| -> Vec<f64> {
            let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], seed);
            let mut sim = ColocationSim::new(cfg, &catalog());
            (0..10).map(|_| sim.advance(1.0).p99_latency_s).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn flash_crowd_profile_shapes_arrivals_over_time() {
        let profile = LoadProfile::FlashCrowd {
            base: 0.4,
            peak: 1.0,
            start_s: 10.0,
            ramp_s: 2.0,
            hold_s: 8.0,
            decay_s: 2.0,
        };
        let cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 17)
            .with_load_profile(profile);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let mut by_phase: Vec<(LoadPhase, f64, f64)> = Vec::new();
        for _ in 0..30 {
            let obs = sim.advance(1.0);
            by_phase.push((obs.load_phase, obs.offered_load, obs.utilization));
        }
        let mean_util = |phase: LoadPhase| {
            let sel: Vec<f64> = by_phase
                .iter()
                .filter(|(p, _, _)| *p == phase)
                .map(|(_, _, u)| *u)
                .collect();
            assert!(!sel.is_empty(), "phase {phase} must occur");
            sel.iter().sum::<f64>() / sel.len() as f64
        };
        assert!(mean_util(LoadPhase::Peak) > mean_util(LoadPhase::Steady));
        assert_eq!(by_phase[0].0, LoadPhase::Steady);
        assert_eq!(by_phase[0].1, 0.4);
        assert_eq!(by_phase[15].0, LoadPhase::Peak);
        assert_eq!(by_phase[15].1, 1.0);
    }

    #[test]
    fn config_round_trips_through_json() {
        let current =
            ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 9).with_load(0.6);
        let json = serde_json::to_string(&current).expect("serializable");
        let round: ColocationConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(round.load, current.load);
        assert_eq!(
            serde_json::to_string(&round).expect("serializable"),
            json,
            "every field must survive the round trip"
        );
    }

    #[test]
    fn recorded_load_is_clamped_to_what_the_generator_runs_at() {
        // Profiles validate up to 1.5× saturation, but the generator caps at 1.2×; the
        // observation must report the capped value, not the nominal one.
        let cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 31)
            .with_load_profile(LoadProfile::constant(1.4));
        let mut sim = ColocationSim::new(cfg, &catalog());
        let obs = sim.advance(1.0);
        assert_eq!(obs.offered_load, ServiceProfile::MAX_OFFERED_LOAD);
    }

    #[test]
    fn idle_intervals_deliver_no_latency_samples() {
        // A load trough with zero arrivals serves no requests, so the monitor must see
        // an empty sample set (and report no-signal) instead of fabricated headroom.
        let profile = LoadProfile::Step {
            base: 0.75,
            to: 0.0,
            at_s: 2.0,
        };
        let cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 23)
            .with_load_profile(profile);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let busy = sim.advance(1.0);
        assert_eq!(busy.latency_samples_s.len(), 1_000);
        let _ = sim.advance(1.0);
        let idle = sim.advance(1.0);
        assert_eq!(idle.offered_load, 0.0);
        assert!(
            idle.latency_samples_s.is_empty(),
            "zero arrivals must not fabricate latency samples"
        );
    }

    #[test]
    fn recycled_buffers_never_leak_samples_into_idle_intervals() {
        // Regression for the buffer-reuse hot path: an idle interval that recycles a
        // busy interval's observation must deliver an *empty* sample set, not the stale
        // samples whose capacity it inherited, and a later busy interval must refill
        // the same allocation.
        let profile = LoadProfile::Trace {
            points: vec![(0.0, 0.75), (1.0, 0.0), (2.0, 0.0), (3.0, 0.75)],
        };
        let cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 23)
            .with_load_profile(profile);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let busy = sim.advance_reusing(1.0, None);
        assert_eq!(busy.latency_samples_s.len(), 1_000);
        let busy_capacity = busy.latency_samples_s.capacity();
        let idle = sim.advance_reusing(1.0, Some(busy));
        assert_eq!(idle.offered_load, 0.0);
        assert_eq!(idle.arrivals, 0);
        assert!(
            idle.latency_samples_s.is_empty(),
            "a recycled buffer must not leak the previous interval's samples"
        );
        let _ = sim.advance_reusing(1.0, None);
        let busy_again = sim.advance_reusing(1.0, Some(idle));
        assert_eq!(busy_again.latency_samples_s.len(), 1_000);
        assert_eq!(
            busy_again.latency_samples_s.capacity(),
            busy_capacity,
            "the busy interval must reuse the recycled allocation"
        );
        assert!(busy_again.latency_samples_s.iter().all(|s| s > 0.0));
    }

    #[test]
    fn advance_reusing_matches_advance() {
        // Buffer recycling is a pure allocation optimization: the observations of a
        // recycling run must be identical to a fresh-allocation run.
        let run = |reuse: bool| -> Vec<String> {
            let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 7);
            let mut sim = ColocationSim::new(cfg, &catalog());
            let mut recycled: Option<IntervalObservation> = None;
            (0..12)
                .map(|_| {
                    let obs = if reuse {
                        sim.advance_reusing(1.0, recycled.take())
                    } else {
                        sim.advance(1.0)
                    };
                    let json = serde_json::to_string(&obs).expect("serializable");
                    if reuse {
                        recycled = Some(obs);
                    }
                    json
                })
                .collect()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn turning_samples_off_changes_nothing_but_the_samples() {
        // Nothing but the latency samples reads the sample stream, so a node no monitor
        // reads (0 samples per interval) must observe everything else exactly as its
        // sampled twin does: through a diurnal load, an idle stretch and a batch job
        // that finishes.
        let diurnal = LoadProfile::Diurnal {
            base: 0.6,
            amplitude: 0.3,
            period_s: 20.0,
            phase_s: 0.0,
        };
        let twin = |samples: usize| {
            let mut cfg =
                ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 11)
                    .with_load_profile(diurnal.clone());
            cfg.samples_per_interval = samples;
            ColocationSim::new(cfg, &catalog())
        };
        let (mut sampled, mut unsampled) = (twin(1_000), twin(0));
        let (mut sampled_obs, mut unsampled_obs) = (None, None);
        let (mut idle, mut finished) = (0, false);
        for k in 0..120 {
            if k == 30 {
                sampled.set_load_fraction(0.0);
                unsampled.set_load_fraction(0.0);
            }
            if k == 36 {
                sampled.set_load_profile(diurnal.clone());
                unsampled.set_load_profile(diurnal.clone());
            }
            let mut a = sampled.advance_reusing(1.0, sampled_obs.take());
            let mut b = unsampled.advance_reusing(1.0, unsampled_obs.take());
            let busy_samples = if a.arrivals > 0 { 1_000 } else { 0 };
            assert_eq!(a.latency_samples_s.len(), busy_samples, "interval {k}");
            assert!(b.latency_samples_s.is_empty(), "interval {k} drew samples");
            a.latency_samples_s.clear();
            b.latency_samples_s.clear();
            assert_eq!(
                serde_json::to_string(&a).expect("serializable"),
                serde_json::to_string(&b).expect("serializable"),
                "interval {k} differs"
            );
            idle += usize::from(a.arrivals == 0);
            finished |= a.all_apps_finished;
            sampled_obs = Some(a);
            unsampled_obs = Some(b);
        }
        assert!(idle >= 5, "the zero-load stretch must idle the node");
        assert!(finished, "the batch job must finish within the run");
    }

    #[test]
    fn profile_runs_are_deterministic_in_seed() {
        let run = |seed: u64| -> Vec<f64> {
            let profile = LoadProfile::Diurnal {
                base: 0.6,
                amplitude: 0.3,
                period_s: 20.0,
                phase_s: 0.0,
            };
            let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], seed)
                .with_load_profile(profile);
            let mut sim = ColocationSim::new(cfg, &catalog());
            (0..15).map(|_| sim.advance(1.0).p99_latency_s).collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "invalid load profile")]
    fn with_load_rejects_out_of_range_fractions() {
        let _ = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 1).with_load(2.0);
    }

    #[test]
    #[should_panic(expected = "invalid load profile")]
    fn with_load_profile_rejects_invalid_profiles() {
        let _ = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 1)
            .with_load_profile(LoadProfile::Trace { points: vec![] });
    }

    #[test]
    #[should_panic(expected = "invalid load profile")]
    fn simulator_construction_rejects_hand_built_invalid_loads() {
        // Serde or struct-literal construction bypasses the `with_load*` builders; the
        // simulator boundary must reject the profile anyway.
        let mut cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 1);
        cfg.load = LoadProfile::constant(f64::NAN);
        let _ = ColocationSim::new(cfg, &catalog());
    }

    #[test]
    fn mid_run_load_swaps_allow_zero_but_reject_malformed_profiles() {
        let cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 1);
        let mut sim = ColocationSim::new(cfg, &catalog());
        // A dispatcher may assign zero load (idle node) — accepted.
        sim.set_load_fraction(0.0);
        assert_eq!(sim.advance(1.0).arrivals, 0);
        // Anything else invalid is still rejected at the swap.
        let nan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.set_load_fraction(f64::NAN);
        }));
        assert!(nan.is_err(), "NaN loads must not enter the simulator");
        let over = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.set_load_fraction(7.0);
        }));
        assert!(
            over.is_err(),
            "out-of-range loads must not enter the simulator"
        );
    }

    #[test]
    fn replace_app_swaps_a_finished_slot_and_keeps_core_state() {
        let catalog = catalog();
        let cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 3);
        let mut sim = ColocationSim::new(cfg, &catalog);
        let slot_share = sim.app(0).initial_cores();
        // Reclaim two cores, then run the job to completion.
        assert!(sim.reclaim_core(0));
        assert!(sim.reclaim_core(0));
        let service_cores = sim.service_cores();
        let snp = catalog.profile(AppId::Snp).unwrap().clone();
        assert!(
            !sim.replace_app(0, snp.clone()),
            "a running job must not be evicted"
        );
        for _ in 0..120 {
            if sim.advance(1.0).all_apps_finished {
                break;
            }
        }
        assert!(sim.app(0).is_finished(), "raytrace finishes within 120 s");
        assert!(sim.replace_app(0, snp));
        // The new job inherits the slot exactly: same current cores, same full share,
        // precise execution, zero progress; the service keeps its reclaimed cores.
        assert_eq!(sim.app(0).profile().id, AppId::Snp);
        assert_eq!(sim.app(0).cores(), slot_share - 2);
        assert_eq!(sim.app(0).initial_cores(), slot_share);
        assert_eq!(sim.app(0).cores_reclaimed(), 2);
        assert_eq!(sim.app(0).variant(), None);
        assert_eq!(sim.app(0).progress(), 0.0);
        assert!(!sim.app(0).is_finished());
        assert_eq!(sim.service_cores(), service_cores);
        // Returning the reclaimed cores now benefits the new occupant.
        assert!(sim.return_core(0));
        assert!(sim.return_core(0));
        assert_eq!(sim.app(0).cores(), slot_share);
        assert!(!sim.return_core(0), "cannot exceed the slot's fair share");
    }

    #[test]
    fn extract_and_implant_migrate_in_flight_state() {
        let catalog = catalog();
        // Source node: run canneal partway under an approximate variant.
        let src_cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::Canneal], 3);
        let mut src = ColocationSim::new(src_cfg, &catalog);
        src.set_variant(0, Some(1));
        assert!(src.reclaim_core(0));
        for _ in 0..5 {
            let _ = src.advance(1.0);
        }
        let progress = src.app(0).progress();
        assert!(progress > 0.0 && !src.app(0).is_finished());
        let slot_share = src.app(0).initial_cores();
        let held = src.app(0).cores();

        let state = src.extract_app(0).expect("in-flight job extracts");
        assert_eq!(state.progress(), progress);
        assert_eq!(state.variant(), Some(1));
        // The vacated slot is a finished placeholder with the same core split.
        assert!(src.app(0).is_finished());
        assert_eq!(src.app(0).initial_cores(), slot_share);
        assert_eq!(src.app(0).cores(), held);
        assert!(
            src.extract_app(0).is_none(),
            "a finished placeholder has nothing to migrate"
        );

        // Destination node: its raytrace slot must finish before the implant lands.
        let dst_cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 5);
        let mut dst = ColocationSim::new(dst_cfg, &catalog);
        assert!(
            !dst.implant_app(0, state.clone()),
            "a running destination slot must not be evicted"
        );
        for _ in 0..120 {
            if dst.advance(1.0).all_apps_finished {
                break;
            }
        }
        let dst_share = dst.app(0).initial_cores();
        assert!(dst.implant_app(0, state));
        // The implanted job continues where it stopped, rebased onto the new slot.
        assert_eq!(dst.app(0).profile().id, AppId::Canneal);
        assert_eq!(dst.app(0).progress(), progress);
        assert_eq!(dst.app(0).variant(), Some(1));
        assert_eq!(dst.app(0).initial_cores(), dst_share);
        assert!(!dst.app(0).is_finished());
        // It keeps making progress on the destination.
        let before = dst.app(0).progress();
        let _ = dst.advance(1.0);
        assert!(dst.app(0).progress() > before);
    }

    #[test]
    fn interval_power_reflects_allocation_and_activity() {
        let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::Canneal], 7);
        let power = cfg.server.power.clone();
        let freq = cfg.server.base_freq_ghz;
        let mut sim = ColocationSim::new(cfg, &catalog());
        let obs = sim.advance(1.0);
        // A busy interval draws more than the fully-idle allocation and less than
        // every core pegged at 100%.
        let allocated = sim.service_cores() + sim.app(0).cores();
        assert!(obs.power_w > power.power_w(allocated, 0.0, freq));
        assert!(obs.power_w < power.power_w(allocated, allocated as f64, freq));
        assert_eq!(obs.energy_j, obs.power_w * 1.0);
        // Energy scales with the interval length.
        let obs2 = sim.advance(2.0);
        assert_eq!(obs2.energy_j, obs2.power_w * 2.0);
    }

    #[test]
    fn zero_load_idle_intervals_bill_exactly_idle_power() {
        // Run the batch job to completion, then drop the load to zero: with no traffic
        // and no batch activity the node must bill exactly the allocated-core idle
        // power, nothing more.
        let cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 3);
        let power = cfg.server.power.clone();
        let freq = cfg.server.base_freq_ghz;
        let mut sim = ColocationSim::new(cfg, &catalog());
        for _ in 0..120 {
            if sim.advance(1.0).all_apps_finished {
                break;
            }
        }
        assert!(sim.app(0).is_finished());
        sim.set_load_fraction(0.0);
        let idle = sim.advance(1.0);
        assert_eq!(idle.arrivals, 0);
        let allocated = sim.service_cores() + sim.app(0).cores();
        assert_eq!(idle.power_w, power.power_w(allocated, 0.0, freq));
        assert_eq!(idle.energy_j, idle.power_w);
    }

    #[test]
    fn parked_nodes_bill_the_suspend_draw() {
        let cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 5);
        let parked_w = cfg.server.power.parked_w;
        let mut sim = ColocationSim::new(cfg, &catalog());
        let on = sim.advance(1.0);
        assert!(on.power_w > parked_w);
        sim.set_load_fraction(0.0);
        sim.set_parked(true);
        let parked = sim.advance(1.0);
        assert_eq!(parked.power_w, parked_w);
        assert_eq!(parked.energy_j, parked_w);
        sim.set_parked(false);
        let back = sim.advance(1.0);
        assert!(
            back.power_w > parked_w,
            "un-parking restores normal billing"
        );
    }

    #[test]
    fn finished_jobs_stop_drawing_dynamic_power() {
        let cfg = ColocationConfig::paper_default(ServiceId::MongoDb, &[AppId::Raytrace], 3);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let busy = sim.advance(1.0).power_w;
        for _ in 0..120 {
            if sim.advance(1.0).all_apps_finished {
                break;
            }
        }
        assert!(sim.app(0).is_finished());
        let after = sim.advance(1.0).power_w;
        assert!(
            after < busy,
            "a finished batch slot must fall back to static core draw ({after} vs {busy})"
        );
    }

    #[test]
    #[should_panic(expected = "invalid power model")]
    fn simulator_construction_rejects_hand_built_invalid_power_models() {
        let mut cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 1);
        cfg.server.power.idle_w = f64::NAN;
        let _ = ColocationSim::new(cfg, &catalog());
    }

    #[test]
    fn degraded_straggler_inflates_tail_latency_and_recovers() {
        let run = |factor: Option<f64>| -> Vec<f64> {
            let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 19);
            let mut sim = ColocationSim::new(cfg, &catalog());
            if let Some(f) = factor {
                sim.set_degrade(f);
            }
            (0..15).map(|_| sim.advance(1.0).p99_latency_s).collect()
        };
        let healthy = run(None);
        let unit = run(Some(1.0));
        let degraded = run(Some(0.5));
        assert_eq!(
            healthy, unit,
            "factor 1.0 must be bit-identical to never touching the degrade knob"
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&degraded) > mean(&healthy) * 1.2,
            "a half-speed straggler must visibly inflate p99 ({} vs {})",
            mean(&degraded),
            mean(&healthy)
        );
        // Recovery restores the healthy latency distribution going forward.
        let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 19);
        let mut sim = ColocationSim::new(cfg, &catalog());
        sim.set_degrade(0.5);
        sim.set_degrade(1.0);
        let recovered: Vec<f64> = (0..15).map(|_| sim.advance(1.0).p99_latency_s).collect();
        assert_eq!(recovered, healthy);
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn degrade_factor_must_be_a_positive_fraction() {
        let cfg = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 1);
        let mut sim = ColocationSim::new(cfg, &catalog());
        sim.set_degrade(0.0);
    }

    #[test]
    fn state_restore_resumes_bit_identically() {
        let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 29)
            .with_load_profile(LoadProfile::Diurnal {
                base: 0.6,
                amplitude: 0.3,
                period_s: 20.0,
                phase_s: 0.0,
            });
        let mut reference = ColocationSim::new(cfg.clone(), &catalog());
        let mut interrupted = ColocationSim::new(cfg.clone(), &catalog());
        for _ in 0..7 {
            let _ = reference.advance(1.0);
            let _ = interrupted.advance(1.0);
        }
        // Checkpoint through the JSON wire form, restore into a *fresh* simulator.
        let json = serde_json::to_string(interrupted.state()).expect("serializable");
        let restored: ColocationState = serde_json::from_str(&json).expect("deserializable");
        let mut resumed = ColocationSim::new(cfg, &catalog());
        resumed.restore(&restored).expect("restores");
        for _ in 0..10 {
            let a = serde_json::to_string(&reference.advance(1.0)).expect("serializable");
            let b = serde_json::to_string(&resumed.advance(1.0)).expect("serializable");
            assert_eq!(a, b, "resumed run must be byte-identical to uninterrupted");
        }
    }

    #[test]
    fn restore_rejects_mismatched_targets() {
        let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 29);
        let snapshot = ColocationSim::new(cfg.clone(), &catalog()).state().clone();
        let mut target = ColocationSim::new(cfg, &catalog());
        let mut degraded = snapshot.clone();
        degraded.degrade = 0.0;
        assert!(
            target.restore(&degraded).is_err(),
            "degrade outside (0, 1] rejected"
        );
        let mut recored = snapshot.clone();
        recored.service_cores += 1;
        assert!(
            target.restore(&recored).is_err(),
            "a core split that changes the total rejected"
        );
        assert!(
            target.restore(&snapshot).is_ok(),
            "the snapshot itself restores"
        );
        let other_seed =
            ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 30);
        let mut target = ColocationSim::new(other_seed, &catalog());
        assert!(target.restore(&snapshot).is_err(), "seed mismatch rejected");
        let other_shape = ColocationConfig::paper_default(
            ServiceId::Memcached,
            &[AppId::KMeans, AppId::Canneal],
            29,
        );
        let mut target = ColocationSim::new(other_shape, &catalog());
        assert!(
            target.restore(&snapshot).is_err(),
            "slot-count mismatch rejected"
        );
    }

    #[test]
    fn load_sweep_changes_utilization() {
        let cfg =
            ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Snp], 13).with_load(0.4);
        let mut sim = ColocationSim::new(cfg, &catalog());
        let low = sim.advance(1.0).utilization;
        sim.set_load_fraction(0.95);
        let high = sim.advance(1.0).utilization;
        assert!(high > low);
    }
}
