//! Integration test: the engine's core guarantees.
//!
//! 1. A suite run serially and a suite run on the parallel engine must produce
//!    byte-identical serialized outcomes, cell for cell — parallelism changes wall-clock
//!    time, never output. This includes suites that sweep time-varying load profiles.
//! 2. Per-cell seeds in `SeedMode::Independent` must never collide across sweep axes,
//!    and their derivation (salt, seed axis, axis positions) and labels are pinned.
//! 3. The wall-clock horizon must hold the simulated time constant across a
//!    decision-interval sweep.
//! 4. The controller's core ledger stays in lock-step with the simulator through the
//!    one-core floor, and Pliant re-approximates through a flash crowd then steps back
//!    toward precise afterward.
//! 5. The precise baseline draws no latency samples, whatever the scenario's sample
//!    count says, while a monitored policy still runs at the count it is given.

use pliant::prelude::*;
use pliant::runtime::actuator::Actuator;
use pliant::runtime::monitor::MonitorReport;
use pliant::runtime::multi::MultiAppController;
use pliant::telemetry::obs::{EventLog, ObsLevel};

fn base() -> Scenario {
    Scenario::builder(ServiceId::Memcached)
        .app(AppId::Canneal)
        .horizon_intervals(25)
        .seed(2024)
        .build()
}

fn grid() -> Suite {
    Suite::new(base())
        .named("determinism")
        .for_each_service([ServiceId::Memcached, ServiceId::Nginx])
        .for_each_app([AppId::Canneal, AppId::Snp, AppId::Bayesian])
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
        .sweep_loads([0.6, 0.9])
}

#[test]
fn parallel_engine_is_byte_identical_to_serial() {
    let suite = grid();
    let serial = Engine::new().run_collect(&suite);
    let parallel = Engine::new().parallel().run_collect(&suite);
    let two_workers = Engine::new().parallel_threads(2).run_collect(&suite);
    assert_eq!(serial.len(), suite.len());
    assert_eq!(parallel.len(), suite.len());
    for ((s, p), w2) in serial.iter().zip(&parallel).zip(&two_workers) {
        let s_json = serde_json::to_string(s).expect("serializable");
        let p_json = serde_json::to_string(p).expect("serializable");
        let w2_json = serde_json::to_string(w2).expect("serializable");
        assert_eq!(
            s_json, p_json,
            "cell {} differs between serial and parallel",
            s.index
        );
        assert_eq!(s_json, w2_json, "cell {} differs with 2 workers", s.index);
    }
}

#[test]
fn results_stream_in_cell_order_even_in_parallel() {
    let suite = grid();
    let cells = Engine::new().parallel().run_collect(&suite);
    assert_eq!(cells.len(), suite.len());
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell.index, i, "cells must come back in index order");
    }
}

#[test]
fn independent_seeds_do_not_collide_across_axes() {
    let suite = grid()
        .seed_mode(SeedMode::Independent)
        .sweep_seeds([1, 2, 3]);
    let scenarios = suite.scenarios();
    let unique: std::collections::BTreeSet<u64> = scenarios.iter().map(|s| s.seed).collect();
    assert_eq!(
        unique.len(),
        scenarios.len(),
        "every cell must draw from its own RNG stream"
    );
}

#[test]
fn common_random_numbers_share_seeds_across_paired_cells() {
    let suite = Suite::new(base()).sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);
    let scenarios = suite.scenarios();
    assert_eq!(scenarios[0].seed, scenarios[1].seed);
    // And the paired cells really do see the same workload: their QoS targets and
    // interval counts line up.
    let results = Engine::new().run_collect(&suite);
    assert_eq!(
        results[0].outcome.qos_target_s,
        results[1].outcome.qos_target_s
    );
}

#[test]
fn suite_expansion_is_deterministic() {
    let a = grid().scenarios();
    let b = grid().scenarios();
    assert_eq!(a, b);
}

#[test]
fn wall_clock_horizon_is_constant_across_interval_sweep() {
    let base = Scenario::builder(ServiceId::Memcached)
        .app(AppId::Canneal)
        .horizon_seconds(30.0)
        .stop_when_apps_finish(false)
        .build();
    let suite = Suite::new(base)
        .named("wall-clock")
        .sweep_decision_intervals_s([0.5, 1.0, 3.0, 8.0]);
    for cell in Engine::new().run_collect(&suite) {
        let dt = cell.scenario.decision_interval_s;
        let simulated_s = dt * cell.outcome.intervals as f64;
        assert!(
            (simulated_s - 30.0).abs() <= dt,
            "dt={dt}: simulated {simulated_s:.1}s of a 30s horizon"
        );
    }
}

fn flash_crowd() -> LoadProfile {
    LoadProfile::FlashCrowd {
        base: 0.35,
        peak: 1.0,
        start_s: 10.0,
        ramp_s: 2.0,
        hold_s: 8.0,
        decay_s: 2.0,
    }
}

fn profile_grid() -> Suite {
    let base = Scenario::builder(ServiceId::Memcached)
        .app(AppId::Bayesian)
        .horizon_seconds(45.0)
        .stop_when_apps_finish(false)
        .seed(77)
        .build();
    Suite::new(base)
        .named("profile-determinism")
        .sweep_load_profiles([
            LoadProfile::constant(0.75),
            LoadProfile::Diurnal {
                base: 0.6,
                amplitude: 0.35,
                period_s: 40.0,
                phase_s: 0.0,
            },
            flash_crowd(),
            LoadProfile::Trace {
                points: vec![(0.0, 0.4), (15.0, 0.9), (30.0, 0.5)],
            },
        ])
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
}

#[test]
fn load_profile_suites_stay_byte_identical_in_parallel() {
    let suite = profile_grid();
    let serial = Engine::new().run_collect(&suite);
    let parallel = Engine::new().parallel().run_collect(&suite);
    assert_eq!(serial.len(), suite.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let s_json = serde_json::to_string(s).expect("serializable");
        let p_json = serde_json::to_string(p).expect("serializable");
        assert_eq!(
            s_json, p_json,
            "profile-sweep cell {} differs between serial and parallel",
            s.index
        );
    }
}

#[test]
fn load_profile_scenarios_replay_identically_from_json_archives() {
    let scenario = Scenario::builder(ServiceId::Nginx)
        .app(AppId::Canneal)
        .load_profile(LoadProfile::Diurnal {
            base: 0.6,
            amplitude: 0.3,
            period_s: 30.0,
            phase_s: 5.0,
        })
        .horizon_seconds(40.0)
        .stop_when_apps_finish(false)
        .seed(90210)
        .build();
    let engine = Engine::new();
    let original = engine.run_scenario(&scenario);
    let archived = serde_json::to_string(&scenario).expect("serializable");
    let restored: Scenario = serde_json::from_str(&archived).expect("deserializable");
    assert_eq!(restored, scenario);
    let replayed = engine.run_scenario(&restored);
    assert_eq!(
        serde_json::to_string(&original).unwrap(),
        serde_json::to_string(&replayed).unwrap(),
        "a replayed archive must reproduce the original run bit-for-bit"
    );
}

#[test]
fn controller_and_simulator_core_ledgers_stay_in_sync_at_the_floor() {
    let catalog = Catalog::default();
    let config = ColocationConfig::paper_default(ServiceId::Nginx, &[AppId::Canneal], 3);
    let mut sim = ColocationSim::new(config, &catalog);
    let fair_service_cores = sim.service_cores();
    let app_cores = sim.app(0).cores();
    let variant_count = catalog.profile(AppId::Canneal).unwrap().variant_count();
    let mut controller = MultiAppController::new(
        ControllerConfig::default(),
        &[variant_count],
        &[app_cores],
        0,
    );
    let mut actuator = Actuator::new();

    let violated = MonitorReport {
        p99_s: 0.05,
        mean_s: 0.02,
        smoothed_p99_s: 0.05,
        sampled: 500,
        qos_violated: true,
        slack_fraction: -1.0,
        no_signal: false,
    };
    let relaxed = MonitorReport {
        p99_s: 0.004,
        mean_s: 0.002,
        smoothed_p99_s: 0.004,
        sampled: 500,
        qos_violated: false,
        slack_fraction: 0.4,
        no_signal: false,
    };

    // Drive far past core exhaustion: the controller must stop at the one-core floor
    // with its ledger exactly matching the cores the simulator actually moved.
    for _ in 0..(2 * app_cores + 6) {
        let actions = controller.decide(&violated);
        actuator.apply_all(&mut sim, &actions);
        assert_eq!(
            controller.cores_reclaimed(0),
            sim.service_cores() - fair_service_cores,
            "controller ledger drifted from the simulator during reclamation"
        );
    }
    assert_eq!(controller.cores_reclaimed(0), app_cores - 1);
    assert_eq!(sim.app(0).cores(), 1, "the application keeps its last core");
    assert_eq!(
        actuator.stats().rejected,
        0,
        "a synced ledger never emits actions the simulator refuses"
    );

    // Recovery: every ReturnCore lands, the ledger unwinds to zero, and the run ends
    // back at precise execution with the fair allocation restored.
    for _ in 0..(4 * app_cores as usize + 4 * variant_count + 8) {
        let actions = controller.decide(&relaxed);
        actuator.apply_all(&mut sim, &actions);
        assert_eq!(
            controller.cores_reclaimed(0),
            sim.service_cores() - fair_service_cores,
            "controller ledger drifted from the simulator during recovery"
        );
    }
    assert_eq!(controller.cores_reclaimed(0), 0);
    assert_eq!(sim.service_cores(), fair_service_cores);
    assert_eq!(controller.variant(0), None, "fully relaxed back to precise");
    assert_eq!(
        actuator.stats().rejected,
        0,
        "recovery must not burn intervals on no-op ReturnCore actions"
    );
}

#[test]
fn flash_crowd_forces_reapproximation_then_stepwise_recovery() {
    let scenario = Scenario::builder(ServiceId::Memcached)
        .app(AppId::Bayesian)
        .load_profile(flash_crowd())
        .horizon_seconds(45.0)
        .stop_when_apps_finish(false)
        .seed(77)
        .build();
    let suite = Suite::new(scenario)
        .named("flash")
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant]);
    let cells = Engine::new().run_collect(&suite);
    let precise = &cells[0].outcome;
    let pliant = &cells[1].outcome;

    let variants = pliant
        .trace
        .get("variant_bayesian")
        .expect("variant series")
        .values();
    let reclaimed = pliant
        .trace
        .get("reclaimed_bayesian")
        .expect("reclaimed series")
        .values();
    let most_approx_plotted = 8.0; // bayesian has 8 variants; the trace plots v+1

    // Before the crowd: fully precise, nothing reclaimed.
    assert!(
        variants[..10].iter().all(|v| *v == 0.0) && reclaimed[..10].iter().all(|r| *r == 0.0),
        "the steady base load must not need approximation"
    );
    // During the crowd (t = 10..22): jump to the most approximate variant plus cores.
    let spike_variant_max = variants[10..22].iter().cloned().fold(0.0f64, f64::max);
    let spike_reclaimed_max = reclaimed[10..22].iter().cloned().fold(0.0f64, f64::max);
    assert_eq!(
        spike_variant_max, most_approx_plotted,
        "the flash crowd must force re-approximation to the most aggressive variant"
    );
    assert!(
        spike_reclaimed_max >= 1.0,
        "approximation alone cannot absorb full saturation"
    );
    // After the crowd: cores all returned and the variant stepped back toward precise.
    let final_variant = *variants.last().unwrap();
    assert_eq!(
        *reclaimed.last().unwrap(),
        0.0,
        "cores returned after the spike"
    );
    assert!(
        final_variant < most_approx_plotted,
        "the variant must relax stepwise toward precise after the crowd (got {final_variant})"
    );

    // Per-phase QoS: the steady base is clean under Pliant, and Pliant absorbs the peak
    // the Precise baseline cannot.
    fn phase(outcome: &ColocationOutcome, phase: LoadPhase) -> &PhaseQosStats {
        outcome
            .phase_qos
            .iter()
            .find(|s| s.phase == phase)
            .expect("the run visits the phase")
    }
    let pliant_steady = phase(pliant, LoadPhase::Steady);
    let pliant_peak = phase(pliant, LoadPhase::Peak);
    let precise_peak = phase(precise, LoadPhase::Peak);
    assert!(pliant_steady.qos_violation_fraction < 0.1);
    assert!(
        pliant_peak.qos_violation_fraction < precise_peak.qos_violation_fraction,
        "Pliant must violate QoS less than Precise at the peak ({} vs {})",
        pliant_peak.qos_violation_fraction,
        precise_peak.qos_violation_fraction
    );
}

#[test]
fn scenario_and_outcome_round_trip_through_json() {
    let suite = Suite::new(base()).sweep_loads([0.5]);
    let results = Engine::new().run_collect(&suite);
    let json = serde_json::to_string(&results[0]).expect("serializable");
    let back: CellOutcome = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back.scenario, results[0].scenario);
    assert_eq!(back.outcome.mean_p99_s, results[0].outcome.mean_p99_s);
    assert_eq!(back.outcome.policy, results[0].outcome.policy);
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

fn with_samples(policy: PolicyKind, samples: Option<usize>) -> Scenario {
    let mut scenario = Scenario::builder(ServiceId::Memcached)
        .app(AppId::Canneal)
        .policy(policy)
        .load_profile(flash_crowd())
        .horizon_seconds(40.0)
        .stop_when_apps_finish(false)
        .seed(4242)
        .build();
    scenario.samples_per_interval = samples;
    scenario
}

fn jsonl(log: &EventLog) -> Vec<u8> {
    let mut out = Vec::new();
    log.write_jsonl(&mut out).expect("in-memory write");
    out
}

#[test]
fn precise_runs_are_the_same_at_every_sample_count() {
    let engine = Engine::new();
    let run = |samples: Option<usize>| {
        let precise = with_samples(PolicyKind::Precise, samples);
        let outcome = serde_json::to_string(&engine.run_scenario(&precise)).expect("serializable");
        let traces: Vec<(String, Vec<u8>)> = [ObsLevel::Off, ObsLevel::Decisions, ObsLevel::Full]
            .into_iter()
            .map(|level| {
                let (traced, log) = engine.run_scenario_traced(&precise, level);
                let traced = serde_json::to_string(&traced).expect("serializable");
                (traced, jsonl(&log))
            })
            .collect();
        (outcome, traces)
    };
    let default = run(None);
    assert!(
        default.1.iter().any(|(_, log)| !log.is_empty()),
        "the precise flash crowd must trace its QoS violations"
    );
    for samples in [Some(1), Some(5_000)] {
        assert!(
            run(samples) == default,
            "a precise run must not depend on samples_per_interval = {samples:?}"
        );
    }
}

#[test]
fn monitored_runs_still_take_the_sample_count_override() {
    let engine = Engine::new();
    let outcome = |samples: Option<usize>| {
        let pliant = with_samples(PolicyKind::Pliant, samples);
        serde_json::to_string(&engine.run_scenario(&pliant)).expect("serializable")
    };
    assert_ne!(
        outcome(None),
        outcome(Some(1)),
        "a Pliant run must read the samples it is given"
    );
}

#[test]
fn independent_seeds_and_labels_are_pinned() {
    // Captured before `Suite` lost its scenario type parameter. The seed axis writes
    // the base seed and stays out of the coordinate hash, while the axes after it keep
    // their positions, so this grid pins every step of the derivation.
    let suite = Suite::new(base())
        .named("pin")
        .seed_mode(SeedMode::Independent)
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
        .sweep_seeds([1, 2])
        .sweep_loads([0.6, 0.9]);
    let cells: Vec<(u64, String)> = suite
        .scenarios()
        .into_iter()
        .map(|s| (s.seed, s.label.expect("suites label every cell")))
        .collect();
    let expected = [
        (1185942950400487146, "pin/precise/seed=1/load=0.60"),
        (2105700314656037432, "pin/precise/seed=1/load=0.90"),
        (3933098626545521759, "pin/precise/seed=2/load=0.60"),
        (8130844426368741729, "pin/precise/seed=2/load=0.90"),
        (1541245552231168483, "pin/pliant/seed=1/load=0.60"),
        (9447783024046439278, "pin/pliant/seed=1/load=0.90"),
        (15166572177661741730, "pin/pliant/seed=2/load=0.60"),
        (8372817528000159558, "pin/pliant/seed=2/load=0.90"),
    ];
    assert_eq!(cells.len(), expected.len());
    for ((seed, label), (want_seed, want_label)) in cells.iter().zip(expected) {
        assert_eq!((*seed, label.as_str()), (want_seed, want_label));
    }
}
