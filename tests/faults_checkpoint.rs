//! Integration tests for fault injection and checkpoint/restore.
//!
//! These pin the PR's promises:
//!
//! 1. **Checkpoint round-trip**: stopping a fleet run mid-flight, serializing the
//!    checkpoint through JSON, restoring it into a freshly built run, and finishing
//!    yields a byte-identical outcome to never having stopped — in exact and
//!    clustered modes, with faults in flight at the snapshot instant.
//! 2. **The failure headline**: under the fixed `fig_failure` fault trace (one node
//!    crash whose batch job is re-queued, then a degraded-frequency straggler),
//!    Pliant sees no more QoS-violating intervals than Precise at every fleet size.
//! 3. **Clustered fault semantics**: a fault aimed at a replicated node group splits
//!    the target out of its group (instance count grows) while the fleet totals stay
//!    within the same error bounds the hyperscale tests enforce fault-free.
//! 4. **Observability**: fault transitions surface as first-class obs events.

use pliant::prelude::*;
use pliant::telemetry::histogram::LatencyHistogram;
use pliant::telemetry::obs::{EventKind, ObsLevel};
use pliant::telemetry::series::TimeSeries;

/// Same relative-error bounds the fault-free hyperscale tests enforce
/// (see `tests/hyperscale.rs`).
const P99_REL_BOUND: f64 = 0.10;
const ENERGY_REL_BOUND: f64 = 0.05;
const VIOLATION_ABS_BOUND: f64 = 0.05;

fn rel_err(approx: f64, exact: f64) -> f64 {
    (approx - exact).abs() / exact.abs().max(f64::MIN_POSITIVE)
}

/// The `fig_failure` operating point: one mid-run crash (node 1, intervals 30..50,
/// job re-queued) and one straggler (node 2 at 0.6x frequency, intervals 60..75).
fn failure_scenario(nodes: usize, policy: PolicyKind) -> ClusterScenario {
    pliant_bench::cluster_failure_scenario(nodes, 2.6, policy, 7)
        .expect("swept sizes stay below saturation")
}

fn outcome_json(outcome: &ClusterOutcome) -> String {
    serde_json::to_string(outcome).expect("outcomes are serializable")
}

#[test]
fn checkpoint_roundtrip_is_byte_identical_in_every_mode() {
    // Snapshot at interval 40: node 1 is mid-outage (down since 30, back at 50), its
    // job is sitting re-queued, and the straggler window is still ahead — the
    // checkpoint must carry fault health, scheduler queue, and RNG streams for the
    // resumed run to land on the same bytes.
    // Every policy kind runs, so each policy's own state travels through the JSON.
    for policy in PolicyKind::all() {
        for approximation in [
            FleetApproximation::Exact,
            FleetApproximation::Clustered {
                representatives_per_group: 2,
            },
        ] {
            let engine = Engine::new();
            let mut scenario = failure_scenario(6, policy);
            scenario.approximation = approximation;

            let (uninterrupted, _) = ClusterRun::new(&scenario, &engine).finish();

            let mut first_leg = ClusterRun::new(&scenario, &engine);
            while first_leg.intervals() < 40 && first_leg.step() {}
            // Serialize through JSON exactly like the fig_cluster CLI does, so the
            // on-disk format is what round-trips.
            let wire = serde_json::to_string(&first_leg.checkpoint())
                .expect("checkpoints are serializable");
            let checkpoint: ClusterRunCheckpoint =
                serde_json::from_str(&wire).expect("checkpoints round-trip through JSON");

            let mut resumed = ClusterRun::new(&scenario, &engine);
            resumed.restore(&checkpoint).expect("restore succeeds");
            assert_eq!(resumed.intervals(), 40, "resume picks up at the snapshot");
            let (resumed_outcome, _) = resumed.finish();

            assert_eq!(
                outcome_json(&uninterrupted),
                outcome_json(&resumed_outcome),
                "{policy} {approximation:?}: resumed run must be byte-identical to the \
                 uninterrupted run"
            );
        }
    }
}

#[test]
fn checkpoint_roundtrip_is_byte_identical_with_a_job_mid_migration() {
    // The topology operating point: a racked Pliant fleet with active consolidation,
    // where the autoscaler live-migrates a batch job off a draining node (interval 46
    // on this seed) and parks the drain the same interval. Snapshot at interval 48:
    // the migrated job is still in flight on its destination — its extracted/implanted
    // state, the source's latched placeholder slot, the rack-sampling RNG, and the
    // per-rack power measurements must all travel in the checkpoint for the resumed
    // run to land on the same bytes.
    for approximation in [
        FleetApproximation::Exact,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    ] {
        let mut scenario = pliant_bench::cluster_topology_scenario(PolicyKind::Pliant, true, 7);
        scenario.approximation = approximation;
        let engine = Engine::new().parallel();

        // Pin that the snapshot really lands mid-migration: the traced twin (tracing
        // observes decisions, it never alters them) must migrate before interval 48.
        let (_, log) = ClusterRun::with_obs(&scenario, &engine, ObsLevel::Decisions).finish();
        let migrated_at: Vec<u32> = log
            .records
            .iter()
            .filter(|r| matches!(r.event, pliant::telemetry::obs::Event::JobMigrated { .. }))
            .map(|r| r.interval)
            .collect();
        assert!(
            migrated_at.iter().any(|&i| i < 48),
            "{approximation:?}: the operating point must migrate a job before the \
             snapshot interval (got migrations at {migrated_at:?})"
        );

        let (uninterrupted, _) = ClusterRun::new(&scenario, &engine).finish();

        let mut first_leg = ClusterRun::new(&scenario, &engine);
        while first_leg.intervals() < 48 && first_leg.step() {}
        let wire =
            serde_json::to_string(&first_leg.checkpoint()).expect("checkpoints are serializable");
        let checkpoint: ClusterRunCheckpoint =
            serde_json::from_str(&wire).expect("checkpoints round-trip through JSON");

        let mut resumed = ClusterRun::new(&scenario, &engine);
        resumed.restore(&checkpoint).expect("restore succeeds");
        let (resumed_outcome, _) = resumed.finish();

        assert_eq!(
            outcome_json(&uninterrupted),
            outcome_json(&resumed_outcome),
            "{approximation:?}: a resume with a job mid-migration must be \
             byte-identical to the uninterrupted run"
        );
    }
}

#[test]
fn restore_rejects_a_checkpoint_from_a_different_scenario() {
    let engine = Engine::new();
    let mut donor = ClusterRun::new(&failure_scenario(6, PolicyKind::Pliant), &engine);
    while donor.intervals() < 10 && donor.step() {}
    let checkpoint = donor.checkpoint();

    let mut other = ClusterRun::new(&failure_scenario(5, PolicyKind::Pliant), &engine);
    let err = other
        .restore(&checkpoint)
        .expect_err("a 6-node checkpoint must not restore into a 5-node fleet");
    assert!(
        !err.is_empty(),
        "the rejection carries a diagnostic message"
    );

    // A checkpoint written in another format version is rejected before anything is
    // read from it, even into the fleet it was taken from.
    let version = pliant::cluster::CLUSTER_CHECKPOINT_VERSION;
    let stale = ClusterRunCheckpoint {
        version: version - 1,
        ..checkpoint
    };
    let err = ClusterRun::new(&failure_scenario(6, PolicyKind::Pliant), &engine)
        .restore(&stale)
        .expect_err("a checkpoint of another format version must not restore");
    assert_eq!(
        err,
        format!(
            "checkpoint format version {} (supported: {version})",
            version - 1
        )
    );
}

#[test]
fn restore_reports_a_mismatched_instance_count_by_value() {
    let engine = Engine::new();
    let scenario = failure_scenario(6, PolicyKind::Pliant);
    let mut donor = ClusterRun::new(&scenario, &engine);
    while donor.intervals() < 10 && donor.step() {}
    let wire = serde_json::to_string(&donor.checkpoint()).expect("checkpoints are serializable");
    let mut checkpoint: ClusterRunCheckpoint =
        serde_json::from_str(&wire).expect("checkpoints round-trip through JSON");
    checkpoint.instances = 9;

    let err = ClusterRun::new(&scenario, &engine)
        .restore(&checkpoint)
        .expect_err("a checkpoint claiming 9 instances must not restore into 6");
    assert!(
        err.contains("9 instances"),
        "the rejection must name the checkpoint's instance count, got: {err}"
    );
}

#[test]
fn restore_rejects_node_state_no_run_can_produce() {
    let engine = Engine::new();
    let scenario = failure_scenario(6, PolicyKind::Pliant);
    let mut donor = ClusterRun::new(&scenario, &engine);
    while donor.intervals() < 10 && donor.step() {}
    let wire = serde_json::to_string(&donor.checkpoint()).expect("checkpoints are serializable");
    let pristine: ClusterRunCheckpoint =
        serde_json::from_str(&wire).expect("checkpoints round-trip through JSON");

    let node0 = &pristine.node_checkpoints[0];
    let slots = node0.books.slot_done.len();

    // A short slot-weight vector used to restore and then panic on the next step.
    let mut short_weights = pristine.clone();
    short_weights.node_checkpoints[0].books.slot_weight.pop();
    let err = ClusterRun::new(&scenario, &engine)
        .restore(&short_weights)
        .expect_err("a node checkpoint with too few slot weights must not restore");
    let want = format!("{} slot weights for {slots} slots", slots - 1);
    assert!(
        err.contains("node 0") && err.contains(&want),
        "the rejection must name the node and its {want}, got: {err}"
    );

    // A degrade factor outside (0, 1] is one `set_degrade` would refuse; restored, it
    // silently rewrites the node's tail latency for the rest of the run.
    for degrade in [0.0, -1.0, 5.0] {
        let mut degraded = pristine.clone();
        degraded.node_checkpoints[0].sim.degrade = degrade;
        let err = ClusterRun::new(&scenario, &engine)
            .restore(&degraded)
            .expect_err("an impossible degrade factor must not restore");
        assert!(
            err.contains("node 0") && err.contains("outside (0, 1]"),
            "the rejection must name the node and the degrade range, got: {err}"
        );
    }

    // Core reclamation only moves cores between the service and the slots, so the
    // node's total allocation never changes.
    let total = node0.sim.service_cores + node0.sim.apps.iter().map(|a| a.cores()).sum::<u32>();
    for service_cores in [0, 99] {
        let mut recored = pristine.clone();
        recored.node_checkpoints[0].sim.service_cores = service_cores;
        let err = ClusterRun::new(&scenario, &engine)
            .restore(&recored)
            .expect_err("a core split that changes the node's total must not restore");
        let want = format!("built with {total}");
        assert!(
            err.contains("node 0") && err.contains(&want),
            "the rejection must name the node and its {want} cores, got: {err}"
        );
    }

    // A policy state restores only into a runtime of the same policy kind.
    let err = ClusterRun::new(&failure_scenario(6, PolicyKind::Precise), &engine)
        .restore(&pristine)
        .expect_err("a Pliant checkpoint must not restore into a Precise fleet");
    assert!(
        err.contains("node 0") && err.contains("a pliant policy in a precise runtime"),
        "the rejection must name the node and both policies, got: {err}"
    );

    // A controller sized for two slots would actuate a slot this node does not have.
    let mut two_slot = pristine.clone();
    two_slot.node_checkpoints[0].policy =
        PolicyKind::Pliant.build(ControllerConfig::default(), &[4, 4], &[8, 8], 1);
    let err = ClusterRun::new(&scenario, &engine)
        .restore(&two_slot)
        .expect_err("a two-slot controller must not restore into a one-slot node");
    let want = format!("a node with {slots} batch slot(s)");
    assert!(
        err.contains("node 0") && err.contains(&want),
        "the rejection must name the node and its {want}, got: {err}"
    );

    // A histogram that cannot merge into the fleet histogram would panic in `finish`;
    // it is rejected as the checkpoint parses.
    let mut short_hist = serde_json::to_value(&pristine).expect("checkpoints are serializable");
    assert!(
        pop_first_array_at(&mut short_hist, "/node_checkpoints[]/books/hist/buckets"),
        "the checkpoint carries node histograms"
    );
    let err = serde_json::from_value::<ClusterRunCheckpoint>(&short_hist)
        .expect_err("a histogram with a missing bucket must not parse")
        .to_string();
    assert!(
        err.contains("invalid latency histogram") && err.contains("buckets"),
        "the rejection must name the histogram and its buckets, got: {err}"
    );

    // Every fleet series holds one point per interval run.
    let mut short_series = pristine.clone();
    short_series.books.power_series = TimeSeries::new("fleet_power_w");
    let err = ClusterRun::new(&scenario, &engine)
        .restore(&short_series)
        .expect_err("a fleet series shorter than the run must not restore");
    assert!(
        err.contains("`fleet_power_w` holds 0 points after 10 intervals"),
        "the rejection must name the series and its length, got: {err}"
    );

    // The untouched checkpoint still restores.
    ClusterRun::new(&scenario, &engine)
        .restore(&pristine)
        .expect("a well-formed checkpoint restores");
}

/// Appends the path of every non-empty array in `value` to `paths`, once per path.
/// Object keys are joined with `/`; entering an array element appends `[]`, so all
/// elements of one array share a path.
fn array_paths(value: &serde_json::Value, path: &str, paths: &mut Vec<String>) {
    match value {
        serde_json::Value::Array(items) => {
            if !items.is_empty() && !paths.iter().any(|p| p == path) {
                paths.push(path.to_string());
            }
            for item in items {
                array_paths(item, &format!("{path}[]"), paths);
            }
        }
        serde_json::Value::Object(entries) => {
            for (key, item) in entries {
                array_paths(item, &format!("{path}/{key}"), paths);
            }
        }
        _ => {}
    }
}

/// Removes the last element of the first non-empty array found at `path` (in the
/// [`array_paths`] notation), walking the document in order. Returns whether an element
/// was removed.
fn pop_first_array_at(value: &mut serde_json::Value, path: &str) -> bool {
    fn walk(value: &mut serde_json::Value, at: &str, path: &str) -> bool {
        match value {
            serde_json::Value::Array(items) => {
                if at == path && items.pop().is_some() {
                    return true;
                }
                items
                    .iter_mut()
                    .any(|item| walk(item, &format!("{at}[]"), path))
            }
            serde_json::Value::Object(entries) => entries
                .iter_mut()
                .any(|(key, item)| walk(item, &format!("{at}/{key}"), path)),
            _ => false,
        }
    }
    walk(value, "", path)
}

#[test]
fn a_truncated_checkpoint_never_panics() {
    // The topology operating point carries every optional component: fault progress,
    // autoscaler state, the rack sampler and per-rack power. Each distinct array in
    // its checkpoint loses one element in turn; every such document must fail to
    // parse, be rejected by `restore`, or resume into a run that finishes cleanly.
    let engine = Engine::new();
    let scenario = pliant_bench::cluster_topology_scenario(PolicyKind::Pliant, true, 7);
    let mut donor = ClusterRun::new(&scenario, &engine);
    while donor.intervals() < 50 && donor.step() {}
    let pristine = serde_json::to_value(&donor.checkpoint()).expect("checkpoints serialize");
    let mut paths = Vec::new();
    array_paths(&pristine, "", &mut paths);
    assert!(
        paths.iter().any(|p| p.ends_with("/hist/buckets"))
            && paths.iter().any(|p| p.starts_with("/faults"))
            && paths.iter().any(|p| p.starts_with("/autoscaler"))
            && paths.iter().any(|p| p.starts_with("/rack_power_w")),
        "the sweep must reach every optional component, got {paths:?}"
    );

    let mut panicked = Vec::new();
    for path in &paths {
        let mut doc = pristine.clone();
        assert!(
            pop_first_array_at(&mut doc, path),
            "{path} is a non-empty array"
        );
        let Ok(checkpoint) = serde_json::from_value::<ClusterRunCheckpoint>(&doc) else {
            continue;
        };
        let mut run = ClusterRun::new(&scenario, &engine);
        if run.restore(&checkpoint).is_err() {
            continue;
        }
        let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.finish()));
        match finished {
            Ok((outcome, _)) => {
                for series in outcome.trace.series() {
                    assert_eq!(
                        series.len(),
                        outcome.intervals,
                        "{path}: the resumed outcome's `{}` series must cover every interval",
                        series.name()
                    );
                }
            }
            Err(_) => panicked.push(path.clone()),
        }
    }
    assert!(
        panicked.is_empty(),
        "resumed runs panicked after restoring truncated checkpoints at {panicked:?}"
    );
}

/// Replaces the value at `path` (the [`array_paths`] notation, entering the first
/// element of every array on the way) with `new`. Returns whether the path exists.
fn set_first_at(value: &mut serde_json::Value, path: &str, new: &serde_json::Value) -> bool {
    let Some(rest) = path.strip_prefix('/') else {
        *value = new.clone();
        return true;
    };
    let (key, rest) = rest.find('/').map_or((rest, ""), |at| rest.split_at(at));
    let (key, into_array) = match key.strip_suffix("[]") {
        Some(key) => (key, true),
        None => (key, false),
    };
    let serde_json::Value::Object(entries) = value else {
        return false;
    };
    let Some((_, item)) = entries.iter_mut().find(|(k, _)| k == key) else {
        return false;
    };
    let item = match (item, into_array) {
        (serde_json::Value::Array(items), true) => match items.first_mut() {
            Some(first) => first,
            None => return false,
        },
        (item, false) => item,
        _ => return false,
    };
    set_first_at(item, rest, new)
}

#[test]
fn a_mutated_checkpoint_value_is_rejected_without_panicking() {
    // Values no run can produce, each planted into an otherwise intact checkpoint of the
    // topology operating point. Every document must fail to parse or be rejected by
    // `restore`; none may panic on the way.
    let engine = Engine::new();
    let scenario = pliant_bench::cluster_topology_scenario(PolicyKind::Pliant, true, 7);
    let mut donor = ClusterRun::new(&scenario, &engine);
    while donor.intervals() < 50 && donor.step() {}
    let pristine = serde_json::to_value(&donor.checkpoint()).expect("checkpoints serialize");
    use serde_json::Value::{Array, Float, UInt};
    let words = |w: &[u64]| Array(w.iter().map(|&x| UInt(x)).collect());
    // The first node's post-warm-up histogram, which `finish` merges into the fleet's.
    let hist = &donor.node(0).books().hist;
    let (hist_count, hist_max) = (hist.count(), hist.max());
    assert!(
        hist_count > 0,
        "the first node records samples by interval 50"
    );
    let wire = serde_json::to_value(hist).expect("histograms serialize");
    let Some(Array(listed)) = wire.get("buckets") else {
        panic!("a histogram lists its buckets");
    };
    let longer = Array(listed.iter().cloned().chain([UInt(0)]).collect());
    // The lower edge of the bucket after the one holding the maximum.
    let next_bucket = LatencyHistogram::bucket_bounds(hist_max).1;
    assert!(
        next_bucket.is_finite(),
        "µs latencies stay below the clamp bucket"
    );
    let mutations = [
        // `set_qps` would panic on a negative rate inside `restore`.
        ("/node_checkpoints[]/sim/generator/qps", Float(-1.0)),
        // `EwmaTracker::new` refuses both; restored, they silently rewrite the smoothing.
        ("/node_checkpoints[]/monitor/ewma/alpha", Float(0.0)),
        ("/node_checkpoints[]/monitor/ewma/alpha", Float(7.0)),
        // RNG states of the wrong width, or the all-zero fixed point.
        ("/node_checkpoints[]/sim/rng", words(&[1, 2, 3])),
        ("/node_checkpoints[]/monitor/rng", words(&[1, 2, 3, 4, 5])),
        ("/rack_rng", words(&[0, 0, 0, 0])),
        // `percentile` would panic in `f64::clamp` on a minimum above the maximum.
        ("/node_checkpoints[]/books/hist/min", Float(hist_max * 3.0)),
        // A count the buckets do not hold would silently skew the fleet p99 and mean.
        ("/node_checkpoints[]/books/hist/count", UInt(hist_count + 1)),
        ("/node_checkpoints[]/books/hist/count", UInt(hist_count - 1)),
        // The bucket list holds exactly the range the extremes span: one entry more,
        // or a maximum moved up one bucket, leaves list and range one apart.
        ("/node_checkpoints[]/books/hist/buckets", longer),
        ("/node_checkpoints[]/books/hist/max", Float(next_bucket)),
    ];
    for (path, value) in mutations {
        let mut doc = pristine.clone();
        assert!(set_first_at(&mut doc, path, &value), "{path} exists");
        let outcome = std::panic::catch_unwind(|| {
            let checkpoint =
                serde_json::from_value::<ClusterRunCheckpoint>(&doc).map_err(|e| e.to_string())?;
            ClusterRun::new(&scenario, &engine).restore(&checkpoint)
        });
        match outcome {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("{path} = {value:?} restored"),
            Err(_) => panic!("{path} = {value:?} panicked"),
        }
        // A histogram is checked where the checkpoint enters the program.
        if path.contains("/hist/") {
            assert!(
                serde_json::from_value::<ClusterRunCheckpoint>(&doc).is_err(),
                "{path} = {value:?} parsed"
            );
        }
    }
    // The untouched document still restores.
    let checkpoint: ClusterRunCheckpoint =
        serde_json::from_value(&pristine).expect("the pristine checkpoint parses");
    ClusterRun::new(&scenario, &engine)
        .restore(&checkpoint)
        .expect("the pristine checkpoint restores");
}

/// Index of the bucket `value` falls into (values of 2 and above), worked out from the
/// bucket's lower edge `2^e · (1 + sub / 32)` as index `32·e + sub`.
fn bucket_index(value: f64) -> usize {
    let lower = LatencyHistogram::bucket_bounds(value).0;
    let e = lower.log2().floor();
    let sub = (lower / e.exp2() - 1.0) * 32.0;
    32 * e as usize + sub as usize
}

#[test]
fn a_version_6_checkpoint_with_full_histograms_is_refused() {
    // Versions up to 6 wrote every node histogram over all 1,280 buckets. Such a
    // document must be refused, at parse or at restore, never read as a histogram
    // other than the one it holds.
    let engine = Engine::new();
    let scenario = failure_scenario(6, PolicyKind::Pliant);
    let mut donor = ClusterRun::new(&scenario, &engine);
    while donor.intervals() < 20 && donor.step() {}
    let mut doc = serde_json::to_value(&donor.checkpoint()).expect("checkpoints serialize");
    assert!(set_first_at(
        &mut doc,
        "/version",
        &serde_json::Value::UInt(6)
    ));
    let serde_json::Value::Object(entries) = &mut doc else {
        panic!("a checkpoint is an object");
    };
    let (_, serde_json::Value::Array(nodes)) = entries
        .iter_mut()
        .find(|(k, _)| k == "node_checkpoints")
        .expect("the checkpoint lists its nodes")
    else {
        panic!("node checkpoints are a list");
    };
    let mut recorded = 0;
    for (i, node) in nodes.iter_mut().enumerate() {
        let hist = &donor.node(i).books().hist;
        let mut full = vec![0u64; 1280];
        if !hist.is_empty() {
            let wire = serde_json::to_value(hist).expect("histograms serialize");
            let listed: Vec<u64> = wire
                .get("buckets")
                .and_then(|b| serde_json::from_value(b).ok())
                .expect("a histogram lists its bucket counts");
            let start = if hist.min() < 2.0 {
                0
            } else {
                bucket_index(hist.min())
            };
            assert!(
                hist.max() >= 2.0,
                "µs latencies reach past the shared low buckets"
            );
            assert_eq!(start + listed.len(), bucket_index(hist.max()) + 1);
            full[start..start + listed.len()].copy_from_slice(&listed);
            recorded += 1;
        }
        let v6 = serde_json::to_value(&full).expect("counts serialize");
        assert!(set_first_at(node, "/books/hist/buckets", &v6));
    }
    assert!(recorded > 0, "the fleet records latencies by interval 20");
    let err = serde_json::from_value::<ClusterRunCheckpoint>(&doc)
        .expect_err("full-layout histograms must not parse")
        .to_string();
    assert!(
        err.contains("invalid latency histogram: 1280 buckets where the extremes span"),
        "got: {err}"
    );

    // Only a histogram whose extremes span every bucket, from below 1 into the
    // clamp bucket, lists all 1,280 in both forms; it parses and the version refuses
    // the restore.
    let mut wide = LatencyHistogram::new();
    wide.record_scaled_n(&[0.5, 2f64.powi(41)], 1.0, 1);
    let wide = serde_json::to_value(&wide).expect("histograms serialize");
    let listed = wide.get("buckets").and_then(serde_json::Value::as_array);
    assert_eq!(listed.map(<[_]>::len), Some(1280));
    let mut doc = serde_json::to_value(&donor.checkpoint()).expect("checkpoints serialize");
    assert!(set_first_at(
        &mut doc,
        "/version",
        &serde_json::Value::UInt(6)
    ));
    assert!(set_first_at(
        &mut doc,
        "/node_checkpoints[]/books/hist",
        &wide
    ));
    let checkpoint: ClusterRunCheckpoint =
        serde_json::from_value(&doc).expect("a full-range histogram parses");
    let err = ClusterRun::new(&scenario, &engine)
        .restore(&checkpoint)
        .expect_err("a version 6 checkpoint must not restore");
    assert!(err.contains("checkpoint format version 6"), "got: {err}");
}

#[test]
fn pliant_never_violates_more_intervals_than_precise_under_the_failure_trace() {
    // The fig_failure headline, pinned: at every swept fleet size both policies see
    // the identical fault schedule under common random numbers, and Pliant's
    // reclaimed headroom absorbs the shed traffic at least as well as the Precise
    // baseline — measured in intervals with at least one QoS-violating node.
    let engine = Engine::new().parallel();
    let mut strictly_better_somewhere = false;
    for nodes in [5usize, 6] {
        let mut violating = [0usize; 2];
        for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
            .into_iter()
            .enumerate()
        {
            let outcome = engine.run_cluster(&failure_scenario(nodes, policy));
            let faults = outcome.faults.expect("failure scenarios carry fault stats");
            assert_eq!(
                faults.crashes, 1,
                "{policy} at {nodes}: one scheduled crash"
            );
            assert_eq!(faults.degradations, 1, "{policy} at {nodes}: one straggler");
            assert!(
                faults.jobs_requeued >= 1,
                "{policy} at {nodes}: the crashed node's job is re-queued"
            );
            assert!(
                faults.availability < 1.0 && faults.availability > 0.9,
                "{policy} at {nodes}: one 20-interval outage on one of {nodes} nodes, \
                 got availability {}",
                faults.availability
            );
            violating[pi] = outcome
                .trace
                .get("violating_nodes")
                .expect("violating series")
                .points()
                .iter()
                .filter(|p| p.value > 0.0)
                .count();
        }
        assert!(
            violating[1] <= violating[0],
            "at {nodes} machines Pliant must not violate QoS in more intervals than \
             Precise (pliant {} vs precise {})",
            violating[1],
            violating[0]
        );
        strictly_better_somewhere |= violating[1] < violating[0];
    }
    assert!(
        strictly_better_somewhere,
        "Pliant must strictly reduce QoS-violating intervals at some swept size"
    );
}

#[test]
fn clustered_group_fault_splits_the_group_and_conserves_totals() {
    // A crash aimed at a node that the clustered approximation folded into a
    // replicated group: the planner must carve the target out into its own exact
    // instance (so the fault hits one logical node, not a whole group's worth of
    // replicas), and the fleet aggregates must stay within the bounds the fault-free
    // hyperscale tests enforce.
    let faults = FaultProfile {
        scheduled: vec![
            ScheduledFault {
                node: 5,
                at_interval: 30,
                duration_intervals: 20,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                node: 8,
                at_interval: 60,
                duration_intervals: 15,
                kind: FaultKind::Degrade { factor: 0.7 },
            },
        ],
        ..FaultProfile::new()
    };
    // The 12-node machines-needed operating point (same anchor as the hyperscale
    // tests). No autoscaler: group park/unpark decisions quantize differently under
    // the approximation and would dominate the comparison; the fault semantics under
    // test are the planner's group split and the load split starving down nodes.
    let scenario_with = |approximation: FleetApproximation, faulted: bool| {
        let mut scenario =
            pliant_bench::cluster_machines_needed_scenario(12, 5.2, PolicyKind::Pliant, 7)
                .expect("the 12-node anchor stays below saturation");
        scenario.approximation = approximation;
        if faulted {
            scenario.fault_profile = Some(faults.clone());
        }
        scenario
    };
    let clustered = FleetApproximation::Clustered {
        representatives_per_group: 2,
    };
    let engine = Engine::new().parallel();

    let baseline = engine.run_cluster(&scenario_with(clustered, false));
    let approx = engine.run_cluster(&scenario_with(clustered, true));
    let exact = engine.run_cluster(&scenario_with(FleetApproximation::Exact, true));

    // The faulted logical nodes are isolated out of their groups.
    assert!(
        approx.simulated_instances > baseline.simulated_instances,
        "faulted nodes must be carved into their own instances \
         ({} faulted vs {} fault-free)",
        approx.simulated_instances,
        baseline.simulated_instances
    );
    assert!(
        approx.simulated_instances < 12,
        "the rest of the fleet stays grouped, got {} instances",
        approx.simulated_instances
    );
    let replicated: usize = approx.node_outcomes.iter().map(|n| n.replicas).sum();
    assert_eq!(
        replicated, 12,
        "replica weights still conserve the population"
    );

    // Fault accounting is in logical-node units, so it agrees exactly with the
    // exact run: the schedule is compiled over logical nodes before planning.
    let approx_faults = approx.faults.expect("fault stats");
    let exact_faults = exact.faults.expect("fault stats");
    assert_eq!(approx_faults.crashes, exact_faults.crashes);
    assert_eq!(approx_faults.degradations, exact_faults.degradations);
    assert_eq!(
        approx_faults.down_node_intervals,
        exact_faults.down_node_intervals
    );
    assert_eq!(approx_faults.availability, exact_faults.availability);

    // Fleet totals stay within the established hyperscale bounds under failure.
    let p99_err = rel_err(approx.fleet_p99_s, exact.fleet_p99_s);
    assert!(
        p99_err < P99_REL_BOUND,
        "faulted fleet p99 error {p99_err:.4} exceeds the {P99_REL_BOUND} bound \
         ({:.6}s clustered vs {:.6}s exact)",
        approx.fleet_p99_s,
        exact.fleet_p99_s
    );
    let energy_err = rel_err(approx.fleet_energy_j, exact.fleet_energy_j);
    assert!(
        energy_err < ENERGY_REL_BOUND,
        "faulted fleet energy error {energy_err:.4} exceeds the {ENERGY_REL_BOUND} \
         bound ({:.1}J clustered vs {:.1}J exact)",
        approx.fleet_energy_j,
        exact.fleet_energy_j
    );
    let violation_diff =
        (approx.fleet_qos_violation_fraction - exact.fleet_qos_violation_fraction).abs();
    assert!(
        violation_diff < VIOLATION_ABS_BOUND,
        "faulted QoS-violation fraction differs by {violation_diff:.4} \
         (> {VIOLATION_ABS_BOUND})"
    );
    // The latency histogram behind the percentile aggregates a comparable number of
    // logical samples: replica weighting survives the group split.
    let sample_err = rel_err(approx.fleet_samples as f64, exact.fleet_samples as f64);
    assert!(
        sample_err < P99_REL_BOUND,
        "replica-weighted sample totals diverged by {sample_err:.4} \
         ({} clustered vs {} exact)",
        approx.fleet_samples,
        exact.fleet_samples
    );
}

#[test]
fn rack_outage_takes_down_the_whole_power_domain() {
    // The topology operating point injects one whole-rack power-domain failure:
    // rack 0 (nodes 0 and 1) crashes at interval 40 for 25 intervals. The outage
    // must compose with the fault-stats subsystem exactly like per-node crashes —
    // availability accounts both members' downtime — and the clustered
    // approximation must agree on the logical-unit fault accounting while staying
    // within the established hyperscale bounds on the fleet aggregates.
    let engine = Engine::new().parallel();
    let scenario = pliant_bench::cluster_topology_scenario(PolicyKind::Pliant, false, 7);
    let (exact, log) = ClusterRun::with_obs(&scenario, &engine, ObsLevel::Decisions).finish();

    let stats = exact
        .faults
        .expect("rack-outage scenarios carry fault stats");
    assert_eq!(stats.crashes, 2, "both members of rack 0 crash");
    assert_eq!(
        stats.down_node_intervals,
        2 * 25,
        "availability accounts whole-rack downtime"
    );
    let expected = 1.0 - (2.0 * 25.0) / (8.0 * exact.intervals as f64);
    assert!(
        (stats.availability - expected).abs() < 1e-12,
        "availability {} must equal {expected}",
        stats.availability
    );

    // The cause surfaces once as a fleet-level event; the per-member crashes it
    // expands into surface as ordinary NodeFailed events.
    let summary = log.summary();
    let count = |kind| summary.counter(kind).map_or(0, |c: &_| c.count);
    assert_eq!(count(EventKind::RackOutage), 1);
    assert_eq!(count(EventKind::NodeFailed), 2);
    assert_eq!(count(EventKind::NodeRecovered), 2);

    // Clustered runs agree on the logical-unit fault accounting and conserve the
    // population, within the fault-free hyperscale error bounds.
    let mut clustered_scenario = scenario;
    clustered_scenario.approximation = FleetApproximation::Clustered {
        representatives_per_group: 2,
    };
    let approx = engine.run_cluster(&clustered_scenario);
    let approx_stats = approx.faults.expect("fault stats");
    assert_eq!(approx_stats.crashes, stats.crashes);
    assert_eq!(approx_stats.down_node_intervals, stats.down_node_intervals);
    assert_eq!(approx_stats.availability, stats.availability);
    let replicated: usize = approx.node_outcomes.iter().map(|n| n.replicas).sum();
    assert_eq!(replicated, 8, "replica weights conserve the population");
    let p99_err = rel_err(approx.fleet_p99_s, exact.fleet_p99_s);
    assert!(
        p99_err < P99_REL_BOUND,
        "racked fleet p99 error {p99_err:.4} exceeds the {P99_REL_BOUND} bound"
    );
    let energy_err = rel_err(approx.fleet_energy_j, exact.fleet_energy_j);
    assert!(
        energy_err < ENERGY_REL_BOUND,
        "racked fleet energy error {energy_err:.4} exceeds the {ENERGY_REL_BOUND} bound"
    );
    let violation_diff =
        (approx.fleet_qos_violation_fraction - exact.fleet_qos_violation_fraction).abs();
    assert!(
        violation_diff < VIOLATION_ABS_BOUND,
        "racked QoS-violation fraction differs by {violation_diff:.4}"
    );
}

#[test]
fn fault_transitions_surface_as_obs_events() {
    let engine = Engine::new().parallel();
    let scenario = failure_scenario(5, PolicyKind::Pliant);
    let (_, log) = ClusterRun::with_obs(&scenario, &engine, ObsLevel::Decisions).finish();
    let summary = log.summary();
    for kind in [
        EventKind::NodeFailed,
        EventKind::NodeRecovered,
        EventKind::NodeDegraded,
        EventKind::JobRequeued,
    ] {
        let counter = summary
            .counter(kind)
            .unwrap_or_else(|| panic!("{} events must be recorded", kind.name()));
        assert!(counter.count > 0, "{} count is zero", kind.name());
    }
    // Both injected faults recover inside the horizon, so the stream is balanced:
    // one NodeFailed + one NodeDegraded, two NodeRecovered.
    let count = |kind| summary.counter(kind).map_or(0, |c| c.count);
    assert_eq!(count(EventKind::NodeFailed), 1);
    assert_eq!(count(EventKind::NodeDegraded), 1);
    assert_eq!(count(EventKind::NodeRecovered), 2);
    assert_eq!(count(EventKind::JobRequeued), 1);
}
