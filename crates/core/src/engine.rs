//! Executes scenarios and suites, serially or in parallel.
//!
//! The [`Engine`] is the single place a [`Scenario`] is turned into a
//! [`ColocationOutcome`]: it owns the application [`Catalog`] (built once and shared
//! across every run) and a worker count. [`Engine::map_ordered`] is its one worker
//! pool: it runs `n` independent jobs and returns their results in index order, so the
//! result is the same whether the engine runs serially or on worker threads:
//! parallelism changes wall-clock time, never output. [`Engine::run_collect`] runs
//! every cell of a [`Suite`] through it, and a list of `pliant_cluster` fleets fans out
//! through it one whole fleet per job.
//!
//! Each scenario derives all of its randomness from its own seed, so the grid cells are
//! embarrassingly parallel; the parallel mode fans jobs out over `std::thread::scope`
//! workers pulling from an atomic work queue. A worker's panic reaches the caller.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::Catalog;
use pliant_sim::colocation::ColocationConfig;
use pliant_telemetry::obs::{Event, EventLog, ObsBuffer, ObsLevel};
use pliant_telemetry::series::{TimeSeries, TraceBundle};
use pliant_telemetry::stats::OnlineStats;
use pliant_workloads::profile::LoadPhase;

use crate::controller::ControllerConfig;
use crate::experiment::{AppOutcome, ColocationOutcome, PhaseQosStats};
use crate::policy::PolicyKind;
use crate::runtime::NodeRuntime;
use crate::scenario::Scenario;
use crate::suite::Suite;

/// One executed suite cell: the scenario that was run and what came out. Serialized, a
/// cell reads `{"index": …, "scenario": {…}, "outcome": {…}}`, so a suite run archived
/// one cell per JSON line can be re-aggregated without re-simulating.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Cell index within the suite grid.
    pub index: usize,
    /// The fully-materialized scenario (including derived seed and label).
    pub scenario: Scenario,
    /// What the run produced.
    pub outcome: ColocationOutcome,
}

/// Executes scenarios and suites; see the module docs.
#[derive(Debug, Clone)]
pub struct Engine {
    catalog: Catalog,
    /// How many jobs of [`Engine::map_ordered`] run at once: 1 runs them one after
    /// another on the calling thread, 0 means one worker per available core. A job is
    /// one node scenario, or one whole fleet in `pliant_cluster`; a fleet steps its
    /// nodes on the thread that runs its job, whatever the count.
    workers: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A serial engine with the paper-default calibrated catalog.
    pub fn new() -> Self {
        Engine {
            catalog: Catalog::default(),
            workers: 1,
        }
    }

    /// Replaces the application catalog (e.g. with variants measured by a fresh
    /// design-space exploration).
    pub fn with_catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Switches to parallel execution with one worker per available core.
    pub fn parallel(mut self) -> Self {
        self.workers = 0;
        self
    }

    /// Switches to parallel execution with an explicit worker count (0 means one
    /// worker per available core).
    pub fn parallel_threads(mut self, threads: usize) -> Self {
        self.workers = threads;
        self
    }

    /// The catalog scenarios run against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Runs one scenario to completion.
    pub fn run_scenario(&self, scenario: &Scenario) -> ColocationOutcome {
        execute_scenario(scenario, &self.catalog)
    }

    /// Runs one scenario with observability enabled at `level`, returning the outcome
    /// plus the merged decision-event stream (see [`pliant_telemetry::obs`]). With
    /// [`ObsLevel::Off`] this is exactly [`Self::run_scenario`] plus an empty log; the
    /// simulation itself is identical at every level — tracing observes decisions, it
    /// never alters them.
    // pliant-lint: allow(test-only-pub) README "Observability" shows it as the traced entry point
    pub fn run_scenario_traced(
        &self,
        scenario: &Scenario,
        level: ObsLevel,
    ) -> (ColocationOutcome, EventLog) {
        execute_scenario_traced(scenario, &self.catalog, level)
    }

    /// Calls `f(i)` for every `i` in `0..n` and returns the results in index order.
    ///
    /// A serial engine, or any engine given at most one job, calls `f` on the calling
    /// thread and spawns none. A parallel engine runs the calls on up to `n` scoped
    /// workers, each taking the next unclaimed index, so the order of the results never
    /// depends on the worker count.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a call to `f`, with its own payload.
    pub fn map_ordered<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            workers => workers,
        }
        .min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut results = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                break results;
                            }
                            results.push((index, f(index)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        results.sort_unstable_by_key(|(index, _)| *index);
        results.into_iter().map(|(_, result)| result).collect()
    }

    /// Runs every cell of a suite and returns the outcomes in cell-index order.
    ///
    /// The cells are materialized and validated once, before any of them runs; in
    /// parallel mode they then fan out over the engine's workers through
    /// [`Self::map_ordered`], one whole cell per worker at a time.
    ///
    /// # Panics
    ///
    /// Panics if the suite fails [`Suite::validate`] (possible only for a suite whose
    /// sweep values expand into a cell that cannot run), or re-raises the panic of a
    /// cell that fails while running.
    pub fn run_collect(&self, suite: &Suite) -> Vec<CellOutcome> {
        let scenarios = suite
            .checked_scenarios()
            .unwrap_or_else(|e| panic!("invalid suite `{}`: {e}", suite.name()));
        self.map_ordered(scenarios.len(), |index| CellOutcome {
            index,
            scenario: scenarios[index].clone(),
            // Retain a copy, not the run's own outcome. The copy is allocated after the
            // run's scratch buffers are freed, so retained cells pack together instead
            // of pinning the holes those buffers leave, and its trace series hold their
            // length rather than the `horizon` capacity they were reserved at (cells
            // that stop when their apps finish use about half). Keeping the originals
            // raised a 1,152-cell suite's peak RSS by 40%; the copy costs no measurable
            // run time.
            outcome: self.run_scenario(&scenarios[index]).clone(),
        })
    }
}

/// Runs one scenario against a catalog. This is the execution core every public entry
/// point funnels through.
pub(crate) fn execute_scenario(scenario: &Scenario, catalog: &Catalog) -> ColocationOutcome {
    execute_scenario_traced(scenario, catalog, ObsLevel::Off).0
}

/// Runs one scenario against a catalog with observability at `level`: a
/// [`NodeRuntime`] plus the outcome's statistics and trace series.
pub(crate) fn execute_scenario_traced(
    scenario: &Scenario,
    catalog: &Catalog,
    level: ObsLevel,
) -> (ColocationOutcome, EventLog) {
    // Scenarios normally come from the builder, but serde deserialization (archived
    // suites, hand-edited replays) bypasses it — re-check here so a bad archive fails
    // with a clear message instead of deep inside the simulator.
    if let Err(e) = scenario.validate() {
        panic!("invalid scenario `{}`: {e}", scenario.describe());
    }
    let mut config =
        ColocationConfig::paper_default(scenario.service, &scenario.apps, scenario.seed)
            .with_load_profile(scenario.effective_load_profile());
    config.instrumented = scenario.effective_instrumented();
    if let Some(qos_s) = scenario.qos_target_s {
        config.service.qos_target_s = qos_s;
    }
    // The precise baseline runs no runtime to monitor it: its policy takes no action
    // and the engine reads nothing the monitor reports, so it draws no latency samples,
    // whatever the scenario asks for. Every other policy reads its monitor.
    if scenario.policy == PolicyKind::Precise {
        config.samples_per_interval = 0;
    } else if let Some(samples) = scenario.samples_per_interval {
        config.samples_per_interval = samples;
    }
    let service_id = config.service.id;
    let qos_target_s = config.service.qos_target_s;
    let app_ids = config.apps.clone();
    let controller_config = ControllerConfig {
        decision_interval_s: scenario.decision_interval_s,
        slack_threshold: scenario.slack_threshold,
        consecutive_slack_required: scenario.consecutive_slack_required,
    };
    let mut runtime = NodeRuntime::new(config, catalog, scenario.policy, controller_config);

    let mut p99_stats = OnlineStats::new();
    let mut violations = 0usize;
    let mut intervals = 0usize;
    let mut max_extra_cores = 0u32;
    let mut max_reclaimed_per_app = vec![0u32; app_ids.len()];

    let horizon = scenario.max_intervals();
    let mut latency_series = TimeSeries::with_capacity("p99_latency_s", horizon);
    let mut load_series = TimeSeries::with_capacity("offered_load", horizon);
    let mut cores_series = TimeSeries::with_capacity("service_extra_cores", horizon);
    let mut power_series = TimeSeries::with_capacity("power_w", horizon);
    let mut total_energy_j = 0.0f64;
    let mut simulated_s = 0.0f64;
    let mut variant_series: Vec<TimeSeries> = app_ids
        .iter()
        .map(|id| TimeSeries::with_capacity(format!("variant_{}", id.name()), horizon))
        .collect();
    let mut reclaimed_series: Vec<TimeSeries> = app_ids
        .iter()
        .map(|id| TimeSeries::with_capacity(format!("reclaimed_{}", id.name()), horizon))
        .collect();

    // Per-load-phase QoS accumulators, indexed in `LoadPhase::all()` order.
    let mut phase_intervals = [0usize; 4];
    let mut phase_violations = [0usize; 4];
    let mut phase_p99_sum = [0.0f64; 4];
    let mut phase_load_sum = [0.0f64; 4];

    let mut idle_intervals = 0usize;
    // Decision-event buffer for the run (source 1 = the node, matching the cluster
    // convention where source 0 is the fleet coordinator). At the default
    // `ObsLevel::Off` every emit below is a single-branch no-op.
    let mut obs_buf = ObsBuffer::new(level, 1, 1, pliant_telemetry::obs::DEFAULT_FLEET_CAPACITY);
    // The previous interval's observation is recycled into the next advance so the
    // sample and status buffers are allocated once per run, not once per interval.
    let mut recycled = None;
    for k in 0..horizon {
        let obs = runtime
            .sim_mut()
            .advance_reusing(scenario.decision_interval_s, recycled.take());
        intervals += 1;
        // An idle interval (zero arrivals, e.g. a load-profile trough) served no
        // requests: there is no latency to report, so it contributes nothing to the
        // latency/QoS statistics and shows up as 0 in the latency trace.
        let idle = obs.arrivals == 0;
        if idle {
            idle_intervals += 1;
        } else {
            p99_stats.push(obs.p99_latency_s);
            if obs.qos_violated() {
                violations += 1;
                obs_buf.emit(
                    k as u32,
                    obs.time_s,
                    Event::QosViolation {
                        node: 0,
                        p99_s: obs.p99_latency_s,
                        qos_target_s,
                    },
                );
            }
            let phase_idx = LoadPhase::all()
                .iter()
                .position(|p| *p == obs.load_phase)
                // pliant-lint: allow(panic-hygiene): LoadPhase::all() enumerates every
                // variant; a new phase without an `all()` entry fails tests first.
                .expect("every phase is enumerated");
            phase_intervals[phase_idx] += 1;
            phase_violations[phase_idx] += usize::from(obs.qos_violated());
            phase_p99_sum[phase_idx] += obs.p99_latency_s;
            phase_load_sum[phase_idx] += obs.offered_load;
        }
        let extra = runtime.extra_service_cores();
        max_extra_cores = max_extra_cores.max(extra);

        latency_series.push(obs.time_s, if idle { 0.0 } else { obs.p99_latency_s });
        load_series.push(obs.time_s, obs.offered_load);
        cores_series.push(obs.time_s, extra as f64);
        power_series.push(obs.time_s, obs.power_w);
        total_energy_j += obs.energy_j;
        simulated_s += scenario.decision_interval_s;
        for (i, status) in obs.apps.iter().enumerate() {
            // Variant index for plotting: 0 = precise, k = k-th approximate variant.
            let v = status.variant.map_or(0.0, |x| (x + 1) as f64);
            variant_series[i].push(obs.time_s, v);
            reclaimed_series[i].push(obs.time_s, status.cores_reclaimed as f64);
            max_reclaimed_per_app[i] = max_reclaimed_per_app[i].max(status.cores_reclaimed);
        }

        if scenario.stop_when_apps_finish && obs.all_apps_finished {
            break;
        }

        // Monitor → policy → actuator, exactly once per decision interval. A precise
        // run hands the monitor an empty sample set every interval; it reports
        // no-signal and the policy holds.
        runtime.control(
            &obs.latency_samples_s,
            &mut obs_buf,
            0,
            k as u32,
            obs.time_s,
        );
        recycled = Some(obs);
    }

    let app_outcomes: Vec<AppOutcome> = (0..app_ids.len())
        .map(|i| {
            let state = runtime.sim().app(i);
            AppOutcome {
                app: app_ids[i],
                finished: state.is_finished(),
                relative_execution_time: state.relative_execution_time(),
                inaccuracy_pct: state.inaccuracy_pct(),
                max_cores_reclaimed: max_reclaimed_per_app[i],
                instrumentation_overhead: state.profile().instrumentation_overhead,
            }
        })
        .collect();

    let phase_qos: Vec<PhaseQosStats> = LoadPhase::all()
        .iter()
        .enumerate()
        .filter(|(i, _)| phase_intervals[*i] > 0)
        .map(|(i, &phase)| PhaseQosStats {
            phase,
            intervals: phase_intervals[i],
            qos_violations: phase_violations[i],
            qos_violation_fraction: phase_violations[i] as f64 / phase_intervals[i] as f64,
            mean_p99_s: phase_p99_sum[i] / phase_intervals[i] as f64,
            mean_offered_load: phase_load_sum[i] / phase_intervals[i] as f64,
        })
        .collect();

    let mut trace = TraceBundle::new();
    trace.insert(latency_series);
    trace.insert(load_series);
    trace.insert(cores_series);
    trace.insert(power_series);
    for s in variant_series.into_iter().chain(reclaimed_series) {
        trace.insert(s);
    }

    let finished_jobs = app_outcomes.iter().filter(|a| a.finished).count();
    let busy_intervals = intervals - idle_intervals;
    let mean_p99_s = p99_stats.mean();
    let log = EventLog::merge(level, [obs_buf]);
    let outcome = ColocationOutcome {
        service: service_id,
        policy: scenario.policy,
        apps: app_ids,
        intervals,
        idle_intervals,
        qos_target_s,
        mean_p99_s,
        max_p99_s: p99_stats.max(),
        qos_violation_fraction: violations as f64 / busy_intervals.max(1) as f64,
        tail_latency_ratio: mean_p99_s / qos_target_s,
        max_extra_service_cores: max_extra_cores,
        total_energy_j,
        mean_power_w: if simulated_s > 0.0 {
            total_energy_j / simulated_s
        } else {
            0.0
        },
        energy_per_completed_job_j: if finished_jobs > 0 {
            total_energy_j / finished_jobs as f64
        } else {
            0.0
        },
        phase_qos,
        app_outcomes,
        obs: log.summary(),
        trace,
    };
    (outcome, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::suite::SeedMode;
    use pliant_approx::catalog::AppId;
    use pliant_workloads::profile::LoadPhase;
    use pliant_workloads::service::ServiceId;

    fn small_suite() -> Suite {
        Suite::new(
            Scenario::builder(ServiceId::Nginx)
                .app(AppId::Canneal)
                .horizon_intervals(20)
                .seed(11)
                .build(),
        )
        .named("engine-test")
        .for_each_app([AppId::Canneal, AppId::Snp, AppId::Bayesian])
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let suite = small_suite();
        let serial = Engine::new().run_collect(&suite);
        let parallel = Engine::new().parallel_threads(4).run_collect(&suite);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.outcome.mean_p99_s, b.outcome.mean_p99_s);
            assert_eq!(
                a.outcome.qos_violation_fraction,
                b.outcome.qos_violation_fraction
            );
            assert_eq!(a.outcome.app_outcomes, b.outcome.app_outcomes);
        }
    }

    #[test]
    fn results_arrive_in_cell_index_order() {
        let suite = small_suite();
        let cells = Engine::new().parallel_threads(3).run_collect(&suite);
        assert_eq!(cells.len(), suite.len());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i, "results must come back in cell order");
            assert_eq!(cell.scenario, suite.scenario_at(i));
        }
    }

    #[test]
    fn cells_archive_as_one_parseable_json_line_each() {
        let suite = small_suite();
        let cells = Engine::new().run_collect(&suite);
        let archive: String = cells
            .iter()
            .map(|cell| serde_json::to_string(cell).expect("serializable") + "\n")
            .collect();
        let lines: Vec<&str> = archive.lines().collect();
        assert_eq!(lines.len(), suite.len());
        for (line, cell) in lines.iter().zip(&cells) {
            let back: CellOutcome = serde_json::from_str(line).expect("parseable cell");
            assert_eq!(back.index, cell.index);
            assert_eq!(back.scenario, cell.scenario);
            assert_eq!(
                back.outcome.intervals,
                back.outcome
                    .trace
                    .get("p99_latency_s")
                    .expect("p99 series")
                    .len()
            );
            assert_eq!(serde_json::to_string(&back).expect("serializable"), *line);
        }
    }

    #[test]
    fn map_ordered_returns_results_in_index_order_at_every_worker_count() {
        for engine in [
            Engine::new(),
            Engine::new().parallel_threads(1),
            Engine::new().parallel_threads(2),
            Engine::new().parallel_threads(3),
        ] {
            // Fewer jobs than workers, none at all, and many more than workers. Each job
            // sleeps, so every worker takes a share and the workers' shares interleave.
            for n in [0, 1, 2, 17] {
                let squares = engine.map_ordered(n, |i| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    i * i
                });
                assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_serial_engine_maps_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let threads = Engine::new().map_ordered(4, |_| std::thread::current().id());
        assert!(threads.iter().all(|&id| id == caller));
        // A single job needs no worker either, whatever the engine's mode.
        let one = Engine::new()
            .parallel_threads(3)
            .map_ordered(1, |_| std::thread::current().id());
        assert_eq!(one, vec![caller]);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_mapped_panic_reaches_the_caller_with_its_own_message() {
        Engine::new().parallel_threads(2).map_ordered(8, |i| {
            if i == 5 {
                panic!("job {i} failed");
            }
            i
        });
    }

    #[test]
    fn engine_matches_scenario_run() {
        let scenario = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Plsa)
            .horizon_intervals(25)
            .seed(123)
            .build();
        let via_engine = Engine::new().run_scenario(&scenario);
        let via_scenario = scenario.run();
        assert_eq!(via_engine.mean_p99_s, via_scenario.mean_p99_s);
        assert_eq!(via_engine.policy, PolicyKind::Pliant);
    }

    #[test]
    #[should_panic(expected = "missing from catalog")]
    fn parallel_worker_panic_propagates_instead_of_deadlocking() {
        // An engine whose catalog is missing the scenario's app panics during execution;
        // in parallel mode that panic must reach the caller with its own message.
        let empty = Catalog::from_profiles(Vec::new());
        let suite = small_suite();
        let engine = Engine::new().with_catalog(empty).parallel_threads(2);
        engine.run_collect(&suite);
    }

    #[test]
    fn constant_load_runs_report_a_single_steady_phase() {
        let scenario = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .horizon_intervals(15)
            .seed(3)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        assert_eq!(outcome.phase_qos.len(), 1);
        let steady = &outcome.phase_qos[0];
        assert_eq!(steady.phase, LoadPhase::Steady);
        assert_eq!(steady.intervals, outcome.intervals);
        assert_eq!(
            steady.qos_violation_fraction,
            outcome.qos_violation_fraction
        );
        assert!((steady.mean_offered_load - 0.75).abs() < 1e-12);
        let load = outcome
            .trace
            .get("offered_load")
            .expect("offered_load series");
        assert_eq!(load.len(), outcome.intervals);
        assert!(load.values().iter().all(|v| (*v - 0.75).abs() < 1e-12));
    }

    #[test]
    fn flash_crowd_runs_split_qos_stats_by_phase() {
        use pliant_workloads::profile::LoadProfile;
        let scenario = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .load_profile(LoadProfile::FlashCrowd {
                base: 0.4,
                peak: 1.0,
                start_s: 10.0,
                ramp_s: 4.0,
                hold_s: 8.0,
                decay_s: 4.0,
            })
            .horizon_intervals(30)
            .stop_when_apps_finish(false)
            .seed(5)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        let phase = |phase| outcome.phase_qos.iter().find(|s| s.phase == phase);
        for p in LoadPhase::all() {
            assert!(
                phase(p).is_some(),
                "a 30 s run over a 16 s transient must visit {p}"
            );
        }
        let total: usize = outcome.phase_qos.iter().map(|p| p.intervals).sum();
        assert_eq!(total + outcome.idle_intervals, outcome.intervals);
        let steady = phase(LoadPhase::Steady).unwrap();
        let peak = phase(LoadPhase::Peak).unwrap();
        assert!(peak.mean_offered_load > steady.mean_offered_load);
    }

    #[test]
    fn idle_intervals_are_excluded_from_qos_statistics() {
        use pliant_workloads::profile::LoadProfile;
        let run = |to: f64| {
            let scenario = Scenario::builder(ServiceId::Memcached)
                .app(AppId::Canneal)
                .policy(PolicyKind::Precise)
                .load_profile(LoadProfile::Step {
                    base: 0.9,
                    to,
                    at_s: 15.0,
                })
                .horizon_intervals(30)
                .stop_when_apps_finish(false)
                .seed(7)
                .build();
            Engine::new().run_scenario(&scenario)
        };
        let with_trough = run(0.0);
        assert_eq!(with_trough.intervals, 30);
        assert_eq!(with_trough.idle_intervals, 15);
        // The busy half violates QoS under the precise baseline; the idle half must not
        // dilute the fraction toward ~50%.
        let busy_only = run(0.9);
        assert_eq!(busy_only.idle_intervals, 0);
        assert!(
            (with_trough.qos_violation_fraction - busy_only.qos_violation_fraction).abs() < 0.15,
            "idle intervals must not dilute the violation fraction ({} vs {})",
            with_trough.qos_violation_fraction,
            busy_only.qos_violation_fraction
        );
        let phase_total: usize = with_trough.phase_qos.iter().map(|p| p.intervals).sum();
        assert_eq!(
            phase_total + with_trough.idle_intervals,
            with_trough.intervals
        );
        // Idle intervals report a 0 latency trace point (no requests, no tail).
        let latency = with_trough.trace.get("p99_latency_s").unwrap().values();
        assert!(latency[16..].iter().all(|l| *l == 0.0));
        assert!(latency[..15].iter().all(|l| *l > 0.0));
    }

    #[test]
    fn outcomes_from_pre_profile_archives_still_deserialize() {
        // `phase_qos` / `idle_intervals` did not exist in earlier archives; stripping
        // them must still yield a readable outcome (empty stats), mirroring the
        // scenario-side legacy-archive guarantee.
        let scenario = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .horizon_intervals(5)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        let json = serde_json::to_string(&outcome).expect("serializable");
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let entries = match value {
            serde::Value::Object(entries) => entries,
            _ => panic!("outcomes serialize as objects"),
        };
        let legacy = serde_json::to_string(&serde::Value::Object(
            entries
                .into_iter()
                .filter(|(k, _)| k != "phase_qos" && k != "idle_intervals")
                .collect(),
        ))
        .expect("serializable");
        let back: ColocationOutcome =
            serde_json::from_str(&legacy).expect("legacy outcome archives deserialize");
        assert!(back.phase_qos.is_empty());
        assert_eq!(back.idle_intervals, 0);
        assert_eq!(back.intervals, outcome.intervals);
    }

    #[test]
    fn idle_troughs_hold_controller_state() {
        use pliant_workloads::profile::LoadProfile;
        // Load drops to zero mid-run: the idle intervals deliver no samples, the monitor
        // reports no-signal, and the controller must hold instead of relaxing on
        // fabricated headroom.
        let scenario = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .load_profile(LoadProfile::Step {
                base: 0.9,
                to: 0.0,
                at_s: 15.0,
            })
            .horizon_intervals(30)
            .stop_when_apps_finish(false)
            .seed(7)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        let variants = outcome.trace.get("variant_canneal").unwrap().values();
        let reclaimed = outcome.trace.get("reclaimed_canneal").unwrap().values();
        assert!(
            variants[14] > 0.0 || reclaimed[14] > 0.0,
            "memcached at 90% load with canneal must have escalated before the drop"
        );
        assert!(
            variants[16..].windows(2).all(|w| w[0] == w[1])
                && reclaimed[16..].windows(2).all(|w| w[0] == w[1]),
            "idle intervals carry no evidence, so the runtime must hold its state"
        );
    }

    #[test]
    fn energy_accounting_is_consistent_with_the_power_trace() {
        let scenario = Scenario::builder(ServiceId::MongoDb)
            .app(AppId::Raytrace)
            .horizon_intervals(80)
            .stop_when_apps_finish(false)
            .seed(13)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        let power = outcome.trace.get("power_w").expect("power_w series");
        assert_eq!(power.len(), outcome.intervals);
        assert!(power.values().iter().all(|w| *w > 0.0));
        // Total energy is the integral of the power trace (1 s intervals).
        let integral: f64 = power.values().iter().sum();
        assert!(
            (outcome.total_energy_j - integral).abs() < 1e-9 * integral.max(1.0),
            "total energy {} must integrate the power trace {integral}",
            outcome.total_energy_j
        );
        assert!(
            (outcome.mean_power_w - integral / outcome.intervals as f64).abs() < 1e-9,
            "mean power must be energy over simulated time"
        );
        // Raytrace finishes well within 80 s, so energy-per-job is defined.
        assert_eq!(
            outcome.energy_per_completed_job_j, outcome.total_energy_j,
            "one finished job means energy-per-job equals the total"
        );
    }

    #[test]
    fn precise_and_pliant_energy_differ_through_core_activity() {
        // Pliant reclaims cores and approximates jobs (less work, earlier finish), so
        // under common random numbers its energy must not exceed the precise run's by
        // more than noise — and the jobs-finish-early effect typically makes it lower.
        let build = |policy: PolicyKind| {
            Scenario::builder(ServiceId::Memcached)
                .app(AppId::Canneal)
                .policy(policy)
                .horizon_intervals(60)
                .stop_when_apps_finish(false)
                .seed(29)
                .build()
        };
        let engine = Engine::new();
        let precise = engine.run_scenario(&build(PolicyKind::Precise));
        let pliant = engine.run_scenario(&build(PolicyKind::Pliant));
        assert!(precise.total_energy_j > 0.0 && pliant.total_energy_j > 0.0);
        assert!(
            pliant.total_energy_j < precise.total_energy_j,
            "approximated jobs finish earlier, so the Pliant node idles sooner \
             ({} vs {} J)",
            pliant.total_energy_j,
            precise.total_energy_j
        );
    }

    #[test]
    fn independent_mode_changes_cell_randomness() {
        let crn = small_suite();
        let ind = small_suite().seed_mode(SeedMode::Independent);
        let crn_cells = crn.scenarios();
        let ind_cells = ind.scenarios();
        assert_eq!(crn_cells.len(), ind_cells.len());
        assert!(crn_cells
            .iter()
            .zip(&ind_cells)
            .any(|(a, b)| a.seed != b.seed));
    }
}
