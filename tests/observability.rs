//! Integration tests for the observability subsystem's cross-layer contracts.
//!
//! 1. **Determinism**: a traced fleet run records events and replays its merged
//!    decision-event stream byte for byte, at every observability level, in exact and
//!    clustered mode — tracing inherits the engine's core guarantee.
//! 2. **Non-perturbation**: tracing observes the simulation, it never alters it — a
//!    traced run's outcome matches the untraced run on every field except the
//!    attached observability summary itself.
//! 3. **Conservation**: under the clustered approximation, replica-weighted event
//!    counters land within the established hyperscale bounds of the exact run's
//!    logical-node totals.
//! 4. **One closing pass**: each interval's rollup event and the outcome's trace
//!    series come from the same pass over the nodes, so they agree point for point.

use pliant::prelude::*;
use pliant::telemetry::obs::{Event, EventKind, EventLog, ObsLevel, ObsSummary};
use serde_json::Value;

/// Serializes an outcome and drops its attached `obs` summary, leaving only the
/// simulation statistics (which tracing must never perturb).
fn strip_obs<T: serde::Serialize>(outcome: &T) -> Value {
    match serde_json::to_value(outcome).expect("serializable") {
        Value::Object(entries) => {
            Value::Object(entries.into_iter().filter(|(k, _)| k != "obs").collect())
        }
        other => other,
    }
}

fn fleet_scenario(approximation: FleetApproximation) -> ClusterScenario {
    let mut scenario = pliant_bench::cluster_energy_scenario_at_scale(12, PolicyKind::Pliant, 7);
    scenario.approximation = approximation;
    scenario
}

/// The log's JSONL export, the bytes `pliant-trace` reads back.
fn jsonl(log: &EventLog) -> Vec<u8> {
    let mut out = Vec::new();
    log.write_jsonl(&mut out).expect("in-memory write");
    out
}

/// Checks every interval's [`Event::IntervalSummary`] against the outcome's trace: its
/// `violating` count must equal the `violating_nodes` point and its `active_nodes` the
/// `active_nodes` point, at the same interval end time.
fn assert_rollups_match_the_trace(outcome: &ClusterOutcome, log: &EventLog, context: &str) {
    let series = |name: &str| outcome.trace.get(name).expect("outcome series").points();
    let (violating_nodes, active_nodes) = (series("violating_nodes"), series("active_nodes"));
    let mut rollups = 0;
    for record in &log.records {
        let Event::IntervalSummary {
            active_nodes: active,
            violating,
            ..
        } = record.event
        else {
            continue;
        };
        let i = record.interval as usize;
        assert_eq!(
            violating_nodes[i].time_s, record.time_s,
            "{context}: interval {i}"
        );
        assert_eq!(
            violating_nodes[i].value,
            f64::from(violating),
            "{context}: interval {i} rollup and violating_nodes series disagree"
        );
        assert_eq!(
            active_nodes[i].value,
            f64::from(active),
            "{context}: interval {i} rollup and active_nodes series disagree"
        );
        rollups += 1;
    }
    assert_eq!(
        rollups, outcome.intervals,
        "{context}: one rollup per interval"
    );
}

#[test]
fn event_streams_are_byte_identical_across_execution_modes() {
    for approximation in [
        FleetApproximation::Exact,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    ] {
        let scenario = fleet_scenario(approximation);
        for level in [ObsLevel::Decisions, ObsLevel::Full] {
            let (outcome, log) = ClusterRun::with_obs(&scenario, &Engine::new(), level).finish();
            let (replay_outcome, replay_log) =
                ClusterRun::with_obs(&scenario, &Engine::new(), level).finish();
            let stream = jsonl(&log);
            assert!(
                !stream.is_empty(),
                "{approximation:?}/{level:?}: a traced fleet run must record events"
            );
            assert_eq!(
                stream,
                jsonl(&replay_log),
                "{approximation:?}/{level:?}: a replayed event stream must be byte-identical"
            );
            assert_eq!(
                serde_json::to_string(&outcome).expect("serializable"),
                serde_json::to_string(&replay_outcome).expect("serializable")
            );
            assert_rollups_match_the_trace(&outcome, &log, &format!("{approximation:?}/{level:?}"));
        }
    }
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    let scenario = fleet_scenario(FleetApproximation::Exact);
    let engine = Engine::new().parallel();
    let untraced = engine.run_cluster(&scenario);
    let (decisions, _) = ClusterRun::with_obs(&scenario, &engine, ObsLevel::Decisions).finish();
    let (full, _) = ClusterRun::with_obs(&scenario, &engine, ObsLevel::Full).finish();

    let baseline = strip_obs(&untraced);
    assert_eq!(
        baseline,
        strip_obs(&decisions),
        "Decisions-level tracing must not change any simulation statistic"
    );
    assert_eq!(
        baseline,
        strip_obs(&full),
        "Full-level tracing must not change any simulation statistic"
    );
    // The untraced run's summary is the empty one; traced runs attach real counts.
    assert_eq!(untraced.obs, ObsSummary::default());
    assert!(decisions.obs.events_recorded > 0);
    assert!(full.obs.events_recorded >= decisions.obs.events_recorded);
}

#[test]
fn single_node_traced_run_matches_untraced_outcome() {
    let scenario = Scenario::builder(ServiceId::Memcached)
        .app(AppId::Canneal)
        .horizon_intervals(40)
        .seed(2024)
        .build();
    let engine = Engine::new();
    let untraced = engine.run_scenario(&scenario);
    let (traced, log) = engine.run_scenario_traced(&scenario, ObsLevel::Decisions);

    assert_eq!(strip_obs(&untraced), strip_obs(&traced));
    assert_eq!(traced.obs, log.summary());
    assert!(
        log.summary()
            .counter(EventKind::ControllerDecision)
            .is_some(),
        "a Pliant single-node run must audit its controller decisions"
    );
    // The same run traced twice produces the same bytes.
    let (_, again) = engine.run_scenario_traced(&scenario, ObsLevel::Decisions);
    assert_eq!(jsonl(&log), jsonl(&again));
}

/// Under the clustered approximation, a node-sourced event recorded by a
/// representative carries its replica count as the record weight; the weighted
/// counters must therefore land near the exact run's logical-node totals. Fleet-scoped
/// bookkeeping events are emitted once per fleet regardless of mode and must match
/// exactly.
#[test]
fn clustered_event_counts_conserve_logical_totals() {
    let engine = Engine::new().parallel();
    let (exact, exact_log) = ClusterRun::with_obs(
        &fleet_scenario(FleetApproximation::Exact),
        &engine,
        ObsLevel::Decisions,
    )
    .finish();
    let (clustered, clustered_log) = ClusterRun::with_obs(
        &fleet_scenario(FleetApproximation::Clustered {
            representatives_per_group: 2,
        }),
        &engine,
        ObsLevel::Decisions,
    )
    .finish();
    assert!(
        clustered.simulated_instances < exact.simulated_instances,
        "the approximation must actually collapse the fleet"
    );
    let exact_summary = exact_log.summary();
    let clustered_summary = clustered_log.summary();

    let count =
        |summary: &ObsSummary, kind: EventKind| summary.counter(kind).map_or(0, |c| c.count);
    let weighted =
        |summary: &ObsSummary, kind: EventKind| summary.counter(kind).map_or(0, |c| c.weighted);

    // Fleet-scoped bookkeeping happens once per run in either mode.
    assert_eq!(count(&exact_summary, EventKind::FleetStart), 1);
    assert_eq!(count(&clustered_summary, EventKind::FleetStart), 1);
    assert_eq!(
        count(&exact_summary, EventKind::IntervalSummary),
        count(&clustered_summary, EventKind::IntervalSummary),
        "both modes roll up the same number of intervals"
    );
    assert_eq!(count(&exact_summary, EventKind::ApproximationPlan), 0);
    assert!(
        count(&clustered_summary, EventKind::ApproximationPlan) > 0,
        "clustered runs must audit their grouping plan"
    );

    // In exact mode every record weight is 1, so weighted == raw everywhere.
    for counter in &exact_summary.counters {
        assert_eq!(counter.weighted, counter.count);
    }

    // Replica-weighted QoS violations, normalized per logical node-interval, stay
    // within the hyperscale violation bound of the exact run.
    let node_intervals = (exact.nodes * exact.intervals) as f64;
    let exact_violation_rate =
        weighted(&exact_summary, EventKind::QosViolation) as f64 / node_intervals;
    let clustered_violation_rate =
        weighted(&clustered_summary, EventKind::QosViolation) as f64 / node_intervals;
    assert!(
        (exact_violation_rate - clustered_violation_rate).abs() <= 0.05,
        "violation-event rates diverged: exact {exact_violation_rate:.4}, \
         clustered {clustered_violation_rate:.4}"
    );

    // Replica-weighted job completions stand for the exact run's logical completions
    // (the energy study's completion counts agree to a few jobs either way).
    let exact_jobs = weighted(&exact_summary, EventKind::JobCompleted) as f64;
    let clustered_jobs = weighted(&clustered_summary, EventKind::JobCompleted) as f64;
    assert!(
        (exact_jobs - clustered_jobs).abs() <= 0.25 * exact_jobs.max(4.0),
        "completion-event totals diverged: exact {exact_jobs}, clustered {clustered_jobs}"
    );
}
