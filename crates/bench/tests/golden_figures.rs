//! Golden-output pins for the figure binaries and the single-node event stream.
//!
//! Each figure binary is run with its default flags and its `--json` output is
//! compared byte-for-byte against a committed golden.
//!
//! The single-node goldens pin the [`Engine`] end to end: `fig4_dynamic_behavior`
//! (one co-location traced over time), `fig5_aggregate` (every service × application
//! pair under Precise and Pliant), `fig6_multi_app` (multi-application co-locations,
//! which exercise the seed-derived round-robin start pointer) and `fig_load_transient`
//! (time-varying load profiles). A traced golden pins the full-level decision-event
//! stream of one two-application Pliant run as JSON Lines. The sweep figures
//! `fig1_design_space`, `fig7_violins`, `fig8_load_sweep`, `fig9_decision_interval`
//! and `fig10_breakdown` pin the rest of the suite grids; `fig7` and `fig10` are the
//! only figures that derive per-cell seeds with `SeedMode::Independent`.
//!
//! Exact fleet simulation (the default `FleetApproximation::Exact`) runs the same
//! replica-weighted fleet code as the clustered approximation, with every weight 1.
//! The four fleet goldens cover the fleet's coupling branches: `fig_cluster` (no
//! autoscaler, no faults), `fig_energy` (autoscaler), `fig_failure` (fault-aware
//! serving masks and requeues) and `fig_topology` (racked placement, rack outages and
//! consolidation). `fig_hyperscale` pins the clustered approximation at 10k logical
//! nodes, including its simulated instance counts, and again at 1M logical nodes
//! (`fig_hyperscale_1m.json`). `fig_failure --approx 2` (`fig_failure_approx2.json`)
//! pins the faulted clustered path: the isolating planner carves the crashed and the
//! degraded node out of their groups as weight-1 instances. With more
//! representatives than group members (`--approx 1000`), `fig_topology` and the
//! fault-injected `fig_failure` must reproduce their exact goldens.
//!
//! If a change intentionally alters a figure (new operating point, new field in the
//! figure struct), regenerate the golden in the same commit:
//!
//! ```text
//! for fig in fig1_design_space fig4_dynamic_behavior fig5_aggregate fig6_multi_app \
//!            fig7_violins fig8_load_sweep fig9_decision_interval fig10_breakdown \
//!            fig_load_transient fig_cluster fig_energy fig_failure fig_topology \
//!            fig_hyperscale; do
//!     cargo run --release -p pliant-bench --bin "$fig" -- --json \
//!         > "crates/bench/tests/golden/$fig.json"
//! done
//! cargo run --release -p pliant-bench --bin fig_hyperscale -- --json --nodes 1000000 \
//!     > crates/bench/tests/golden/fig_hyperscale_1m.json
//! cargo run --release -p pliant-bench --bin fig_failure -- --json --approx 2 \
//!     > crates/bench/tests/golden/fig_failure_approx2.json
//! ```
//!
//! The traced test writes the stream it produced to `target/tmp/` before comparing,
//! so the trace golden is regenerated with:
//!
//! ```text
//! cargo test -p pliant-bench --test golden_figures single_node_full_trace
//! cp target/tmp/single_node_full_trace.jsonl crates/bench/tests/golden/
//! ```
//!
//! An *unintentional* diff here means a simulation path changed behavior — treat it
//! as a correctness regression, not as a golden to refresh.

use std::process::Command;

use pliant_approx::catalog::AppId;
use pliant_core::engine::Engine;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::Scenario;
use pliant_telemetry::obs::ObsLevel;
use pliant_workloads::service::ServiceId;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read golden {path}: {e}"))
}

fn run_json(bin: &str, extra_args: &[&str]) -> String {
    let output = Command::new(bin)
        .arg("--json")
        .args(extra_args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("figure JSON is UTF-8")
}

/// Runs a figure binary with its default flags and compares its `--json` output with
/// the committed golden of the same name.
fn assert_matches_golden(bin: &str, name: &str) {
    assert_matches_golden_with(bin, &[], name);
}

/// Runs a figure binary with `args` and compares its `--json` output with the
/// committed golden `name`.
fn assert_matches_golden_with(bin: &str, args: &[&str], name: &str) {
    let fresh = run_json(bin, args);
    assert_eq!(
        fresh,
        golden(&format!("{name}.json")),
        "{name} --json drifted from its golden; simulated outcomes must stay \
         byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn fig4_dynamic_behavior_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig4_dynamic_behavior"),
        "fig4_dynamic_behavior",
    );
}

#[test]
fn fig5_aggregate_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig5_aggregate"), "fig5_aggregate");
}

#[test]
fn fig6_multi_app_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig6_multi_app"), "fig6_multi_app");
}

#[test]
fn fig1_design_space_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig1_design_space"), "fig1_design_space");
}

#[test]
fn fig7_violins_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig7_violins"), "fig7_violins");
}

#[test]
fn fig8_load_sweep_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig8_load_sweep"), "fig8_load_sweep");
}

#[test]
fn fig9_decision_interval_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig9_decision_interval"),
        "fig9_decision_interval",
    );
}

#[test]
fn fig10_breakdown_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig10_breakdown"), "fig10_breakdown");
}

#[test]
fn fig_load_transient_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig_load_transient"),
        "fig_load_transient",
    );
}

#[test]
fn single_node_full_trace_is_byte_identical_to_the_golden() {
    // Two co-runners: the round-robin arbiter, core reclamation and variant switches
    // all show up in the stream, in the order the runtime emitted them.
    let scenario = Scenario::builder(ServiceId::Nginx)
        .apps([AppId::Canneal, AppId::Bayesian])
        .policy(PolicyKind::Pliant)
        .horizon_intervals(60)
        .seed(17)
        .build();
    let (_, log) = Engine::new().run_scenario_traced(&scenario, ObsLevel::Full);
    let mut fresh = Vec::new();
    log.write_jsonl(&mut fresh).expect("in-memory write");
    let fresh = String::from_utf8(fresh).expect("JSON is UTF-8");
    let out = format!(
        "{}/single_node_full_trace.jsonl",
        env!("CARGO_TARGET_TMPDIR")
    );
    std::fs::write(&out, &fresh).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    assert!(!fresh.is_empty(), "a Pliant two-app run must emit events");
    assert_eq!(
        fresh,
        golden("single_node_full_trace.jsonl"),
        "the single-node event stream drifted from its golden (fresh copy in {out})"
    );
}

#[test]
fn fig_cluster_default_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig_cluster"), "fig_cluster");
}

#[test]
fn fig_energy_default_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig_energy"), "fig_energy");
}

#[test]
fn fig_failure_default_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig_failure"), "fig_failure");
}

#[test]
fn fig_topology_default_output_is_byte_identical_to_the_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig_topology"), "fig_topology");
}

#[test]
fn clustering_with_more_representatives_than_members_is_exact() {
    // K = 1000 exceeds every node group of the 8-node racked fleet, so each group is
    // planned as one weight-1 instance per member: exact simulation is the clustered
    // pipeline with K >= group size, byte for byte.
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_topology"), &["--approx", "1000"]);
    assert_eq!(fresh, golden("fig_topology.json"));
}

#[test]
fn explicit_exact_approx_flag_matches_the_default_path() {
    // `--approx 0` must route through the same exact path as no flag at all.
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_energy"), &["--approx", "0"]);
    assert_eq!(fresh, golden("fig_energy.json"));
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_failure"), &["--approx", "0"]);
    assert_eq!(fresh, golden("fig_failure.json"));
}

#[test]
fn faulted_clustering_with_more_representatives_than_members_is_exact() {
    // Faulted nodes are carved out of their groups as weight-1 instances. At K = 1000
    // every group is planned one instance per member in logical order, faulted or not,
    // so the fault-injected fleets reproduce the exact figure. Only the obs rollups can
    // tell the runs apart: clustered fleets emit one `ApproximationPlan` per group.
    let parse = |text: &str| -> serde_json::Value {
        serde_json::from_str(text).expect("figure JSON parses")
    };
    let fresh = parse(&run_json(
        env!("CARGO_BIN_EXE_fig_failure"),
        &["--approx", "1000"],
    ));
    let exact = parse(&golden("fig_failure.json"));
    let field = |doc: &serde_json::Value, key: &str| -> serde_json::Value {
        doc.get(key)
            .unwrap_or_else(|| panic!("fig_failure JSON has no `{key}`"))
            .clone()
    };
    assert_eq!(
        serde_json::to_string_pretty(&field(&fresh, "curve")).expect("serializable"),
        serde_json::to_string_pretty(&field(&exact, "curve")).expect("serializable"),
        "fig_failure --approx 1000 curve drifted from the exact golden"
    );
    for (key, _) in exact.as_object().expect("figure JSON is an object") {
        if key != "curve" && key != "obs" {
            assert_eq!(field(&fresh, key), field(&exact, key), "field `{key}`");
        }
    }
    let runs = |doc: &serde_json::Value| field(doc, "obs").as_array().unwrap_or(&[]).to_vec();
    let (fresh_runs, exact_runs) = (runs(&fresh), runs(&exact));
    assert_eq!(fresh_runs.len(), exact_runs.len());
    for (clustered, exact) in fresh_runs.iter().zip(&exact_runs) {
        let (c, e) = (field(clustered, "summary"), field(exact, "summary"));
        let is_plan = |counter: &&serde_json::Value| {
            counter.get("name").and_then(|n| n.as_str()) == Some("ApproximationPlan")
        };
        let c_counters = field(&c, "counters");
        let c_counters = c_counters.as_array().expect("counters are a list");
        let plans: Vec<_> = c_counters.iter().filter(is_plan).collect();
        assert_eq!(
            plans.len(),
            1,
            "a clustered run emits ApproximationPlan events"
        );
        let planned = |key: &str| plans[0].get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        assert!(planned("count") > 0);
        for (key, expected) in e.as_object().expect("a summary is an object") {
            let got = field(&c, key);
            match key.as_str() {
                "counters" => {
                    let others = c_counters.iter().filter(|c| !is_plan(c)).cloned();
                    assert_eq!(&serde_json::Value::Array(others.collect()), expected);
                }
                "events_recorded" | "events_weighted" => {
                    let plan_key = if key == "events_recorded" {
                        "count"
                    } else {
                        "weighted"
                    };
                    let total = got.as_u64().expect("a count");
                    assert_eq!(Some(total - planned(plan_key)), expected.as_u64(), "{key}");
                }
                _ => assert_eq!(&got, expected, "summary field `{key}`"),
            }
        }
        for (key, expected) in exact.as_object().expect("a run is an object") {
            if key != "summary" {
                assert_eq!(&field(clustered, key), expected, "run field `{key}`");
            }
        }
    }
}

#[test]
fn fig_hyperscale_output_is_byte_identical_to_the_golden() {
    // The default 10k-node figure runs the clustered approximation with 4
    // representatives per group; the golden pins every point's simulated instance count.
    assert_matches_golden(env!("CARGO_BIN_EXE_fig_hyperscale"), "fig_hyperscale");
}

#[test]
fn fig_hyperscale_at_one_million_nodes_is_byte_identical_to_the_golden() {
    // The fleet size the clustered approximation exists for: every point's grouping,
    // instance plan and replica-weighted outcome at 1M logical nodes.
    assert_matches_golden_with(
        env!("CARGO_BIN_EXE_fig_hyperscale"),
        &["--nodes", "1000000"],
        "fig_hyperscale_1m",
    );
}

#[test]
fn faulted_clustered_fig_failure_is_byte_identical_to_the_golden() {
    // Two representatives per group, with the faulted nodes carved out as weight-1
    // instances: the isolating planner and fault resolution, byte for byte.
    assert_matches_golden_with(
        env!("CARGO_BIN_EXE_fig_failure"),
        &["--approx", "2"],
        "fig_failure_approx2",
    );
}

/// Every binary accepts exactly the flags it declares. An undeclared or repeated flag,
/// a value flag given without a valid value, a fleet size no fleet can be built at and a
/// checkpoint flag on a traced run must fail loudly instead of being ignored, falling
/// back to a default or panicking: every binary exits with status 2 before simulating
/// anything, and leaves no trace or checkpoint file behind.
#[test]
fn value_flags_without_a_valid_value_exit_with_status_2() {
    let bogus = [
        env!("CARGO_BIN_EXE_table1_platform"),
        env!("CARGO_BIN_EXE_fig1_design_space"),
        env!("CARGO_BIN_EXE_fig4_dynamic_behavior"),
        env!("CARGO_BIN_EXE_fig5_aggregate"),
        env!("CARGO_BIN_EXE_fig6_multi_app"),
        env!("CARGO_BIN_EXE_fig7_violins"),
        env!("CARGO_BIN_EXE_fig8_load_sweep"),
        env!("CARGO_BIN_EXE_fig9_decision_interval"),
        env!("CARGO_BIN_EXE_fig10_breakdown"),
        env!("CARGO_BIN_EXE_fig_load_transient"),
        env!("CARGO_BIN_EXE_fig_cluster"),
        env!("CARGO_BIN_EXE_fig_energy"),
        env!("CARGO_BIN_EXE_fig_failure"),
        env!("CARGO_BIN_EXE_fig_topology"),
        env!("CARGO_BIN_EXE_fig_hyperscale"),
    ]
    .map(|bin| (bin, ["--bogus"].as_slice()));
    let cases = [
        (
            env!("CARGO_BIN_EXE_pliant-trace"),
            ["summary", "f.jsonl", "--bogus"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_hyperscale"),
            ["--approx"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig8_load_sweep"),
            ["--apps", "x"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_cluster"),
            ["--seed", "--json"].as_slice(),
        ),
        // Fleet sizes no fleet can be built at.
        (
            env!("CARGO_BIN_EXE_fig_cluster"),
            ["--nodes", "0"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_failure"),
            ["--nodes", "0"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_energy"),
            ["--nodes", "0"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_energy"),
            ["--nodes", "1"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_hyperscale"),
            ["--nodes", "1"].as_slice(),
        ),
        // Values no figure can be built at.
        (
            env!("CARGO_BIN_EXE_fig_cluster"),
            ["--total-load", "0"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_failure"),
            ["--total-load", "nan"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig7_violins"),
            ["--combos", "0"].as_slice(),
        ),
        // Rack flags: racks are set by `--rack-size`, not a `--topology` grid, a rack
        // size must be positive, and a budget needs a rack size.
        (
            env!("CARGO_BIN_EXE_fig_cluster"),
            ["--topology", "2x2"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_topology"),
            ["--rack-size", "0"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_energy"),
            ["--rack-power-w", "300"].as_slice(),
        ),
        // Flags a binary does not read, and a flag given twice.
        (
            env!("CARGO_BIN_EXE_fig5_aggregate"),
            ["--trace", "x.jsonl"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_energy"),
            ["--checkpoint-at", "10", "--checkpoint-dir", "d"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_cluster"),
            ["--approx", "2", "--approx", "0"].as_slice(),
        ),
        // A traced run cannot checkpoint: the snapshot does not carry the event log.
        (
            env!("CARGO_BIN_EXE_fig_cluster"),
            [
                "--trace",
                "t.jsonl",
                "--checkpoint-at",
                "40",
                "--checkpoint-dir",
                "d",
            ]
            .as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_fig_cluster"),
            ["--trace-level", "bogus"].as_slice(),
        ),
        (
            env!("CARGO_BIN_EXE_pliant-trace"),
            ["summary", "f.jsonl", "--kind", "QosViolation"].as_slice(),
        ),
    ];
    for (i, (bin, args)) in bogus.into_iter().chain(cases).enumerate() {
        let dir = format!("{}/rejected-flags-{i}", env!("CARGO_TARGET_TMPDIR"));
        // A leftover from an earlier run would hide a file this one writes.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
        let output = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{bin} {args:?} must exit with status 2, stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
            .map(|entry| entry.map(|e| e.file_name()))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"));
        assert!(
            left.is_empty(),
            "{bin} {args:?} must not write files before rejecting its flags: {left:?}"
        );
    }
}

/// A 1-node fleet is valid input that cannot carry the sweep's load: the sweep figures
/// skip it with a note and exit normally.
#[test]
fn one_node_fleets_are_skipped_with_a_note() {
    for bin in [
        env!("CARGO_BIN_EXE_fig_cluster"),
        env!("CARGO_BIN_EXE_fig_failure"),
    ] {
        let output = Command::new(bin)
            .args(["--nodes", "1"])
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{bin} --nodes 1 failed: {stderr}");
        assert!(
            stderr.contains("skipping 1-machine fleet"),
            "{bin} --nodes 1 must note the skipped fleet, stderr: {stderr}"
        );
    }
}

/// A fleet light enough to carry the load but too small for the fixed failure trace
/// (which strikes node 2) is skipped with a note, not rejected as an invalid fleet.
#[test]
fn fleets_the_failure_trace_cannot_strike_are_skipped_with_a_note() {
    let bin = env!("CARGO_BIN_EXE_fig_failure");
    let output = Command::new(bin)
        .args(["--nodes", "2", "--total-load", "0.5"])
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{bin} --nodes 2 failed: {stderr}");
    assert!(
        stderr.contains("note: skipping 2-machine fleet — the failure trace strikes node 2"),
        "{bin} --nodes 2 must note the skipped fleet, stderr: {stderr}"
    );
}

/// `--rack-size 2` cuts `fig_topology`'s 8-machine fleet into its default grid of four
/// 2-node racks, so its `--json` is the default golden, with nothing on stderr.
#[test]
fn a_rack_size_of_the_default_grid_reproduces_the_golden() {
    let bin = env!("CARGO_BIN_EXE_fig_topology");
    let output = Command::new(bin)
        .args(["--json", "--rack-size", "2"])
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "--rack-size 2 failed: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        golden("fig_topology.json"),
        "--rack-size 2 must not change the figure"
    );
    assert_eq!(stderr, "");
}
