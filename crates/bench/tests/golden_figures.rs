//! Golden-output pins for the cluster figure binaries.
//!
//! Exact simulation (the default `FleetApproximation::Exact`) runs the same
//! replica-weighted fleet code as the clustered approximation, with every weight 1.
//! These tests pin its output end to end: each figure binary is run with its default
//! flags and its `--json` output is compared byte-for-byte against a committed golden.
//! The four goldens cover the fleet's coupling branches: `fig_cluster` (no autoscaler,
//! no faults), `fig_energy` (autoscaler), `fig_failure` (fault-aware serving masks and
//! requeues) and `fig_topology` (racked placement, rack outages and consolidation).
//!
//! If a change intentionally alters a figure (new operating point, new field in the
//! figure struct), regenerate the golden in the same commit:
//!
//! ```text
//! cargo run --release -p pliant-bench --bin fig_cluster -- --json \
//!     > crates/bench/tests/golden/fig_cluster.json
//! cargo run --release -p pliant-bench --bin fig_energy -- --json \
//!     > crates/bench/tests/golden/fig_energy.json
//! cargo run --release -p pliant-bench --bin fig_failure -- --json \
//!     > crates/bench/tests/golden/fig_failure.json
//! cargo run --release -p pliant-bench --bin fig_topology -- --json \
//!     > crates/bench/tests/golden/fig_topology.json
//! ```
//!
//! An *unintentional* diff here means the exact simulation path changed behavior —
//! treat it as a correctness regression, not as a golden to refresh.

use std::process::Command;

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

#[test]
fn fig_cluster_default_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_cluster"), &[]);
    assert_eq!(
        fresh,
        golden("fig_cluster.json"),
        "fig_cluster --json drifted from the pre-population golden; exact simulation \
         must stay byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn fig_energy_default_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_energy"), &[]);
    assert_eq!(
        fresh,
        golden("fig_energy.json"),
        "fig_energy --json drifted from the pre-population golden; exact simulation \
         must stay byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn fig_failure_default_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_failure"), &[]);
    assert_eq!(
        fresh,
        golden("fig_failure.json"),
        "fig_failure --json drifted from its golden; the fault-aware fleet path must \
         stay byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn fig_topology_default_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_topology"), &[]);
    assert_eq!(
        fresh,
        golden("fig_topology.json"),
        "fig_topology --json drifted from its golden; racked placement and \
         consolidation must stay byte-identical (see the module docs before refreshing)"
    );
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
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, inner)| inner))
        .unwrap_or_else(|| panic!("missing field {key}"))
}

#[test]
fn hyperscale_figure_runs_clustered_at_scale() {
    // Smoke: the default 10k-node hyperscale figure must produce valid JSON with the
    // clustered approximation engaged (a handful of instances, not 10k).
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_hyperscale"), &[]);
    let v: serde_json::Value = serde_json::from_str(&fresh).expect("valid JSON");
    assert_eq!(field(&v, "fleet_nodes").as_u64(), Some(10_000));
    assert_eq!(field(&v, "approx_representatives").as_u64(), Some(4));
    let energy_rows = field(&v, "energy").as_array().expect("energy rows");
    let instances = field(&energy_rows[0], "simulated_instances")
        .as_u64()
        .expect("instance count");
    assert!(
        (1..100).contains(&instances),
        "clustered 10k-node run must simulate a handful of instances, got {instances}"
    );
}
