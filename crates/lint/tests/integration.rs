//! Integration tests: exact (rule, line) assertions over the seeded-violation fixture,
//! pragma suppression, the self-hosting workspace scan, and the CLI contract (exit
//! codes, `--json`, `--only`/`--skip`, `--list-rules`).

use std::path::{Path, PathBuf};
use std::process::Command;

use std::collections::BTreeSet;

use pliant_lint::analysis::analyze;
use pliant_lint::config::LintConfig;
use pliant_lint::findings::ALL_RULES;
use pliant_lint::{collect_rs_files, lint_paths, lint_source};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A configuration whose path-scoped rules apply to *every* file: the seeded
/// violations do not live under the repository's crate paths.
fn all_paths() -> LintConfig {
    LintConfig {
        wallclock_allowed: Vec::new(),
        unsafe_allowed: Vec::new(),
        hash_container_scoped: vec![String::new()],
        panic_hygiene_scoped: vec![String::new()],
        compat_shims: Vec::new(),
        ..LintConfig::repo_default()
    }
}

/// Reads a fixture, returning the diagnostic path the findings should carry plus the
/// source text.
fn fixture(name: &str) -> (String, String) {
    let source = std::fs::read_to_string(fixtures_dir().join(name)).unwrap();
    (format!("fixtures/{name}"), source)
}

/// Runs the built `pliant-lint` binary, returning (exit code, stdout, stderr).
fn run_cli(current_dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pliant-lint"))
        .current_dir(current_dir)
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn violations_fixture_findings_are_exact() {
    let (rel, src) = fixture("violations.rs");
    let findings = lint_source(&rel, &src, &all_paths());
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let want = vec![
        ("nan-unsafe-cmp", 6),
        ("panic-hygiene", 6),
        ("nan-unsafe-cmp", 12),
        ("panic-hygiene", 12),
        ("panic-hygiene", 13),
        ("hot-path-alloc", 17),
        ("hot-path-alloc", 18),
        ("hot-path-alloc", 19),
        ("hot-path-alloc", 20),
        ("nondeterminism", 26),
        ("nondeterminism", 27),
        ("nondeterminism", 32),
        ("nondeterminism", 36),
        ("validate-bypass", 40),
        ("unsafe-scope", 55),
        ("unsafe-scope", 56),
    ];
    assert_eq!(got, want);
    // Diagnostics carry the scan-relative path and an actionable message.
    assert!(findings.iter().all(|f| f.path == "fixtures/violations.rs"));
    assert!(findings[0].message.contains("total_cmp"));
}

/// A derived `Deserialize` on a type with `fn validate` passes only with the
/// `#[serde(validate = "…")]` hook: the violations fixture derives without it, the clean
/// fixture derives with it.
#[test]
fn validate_bypass_is_satisfied_by_the_validate_hook() {
    let bypass = |name: &str| {
        let (rel, src) = fixture(name);
        lint_source(&rel, &src, &all_paths())
            .into_iter()
            .filter(|f| f.rule == "validate-bypass")
            .collect::<Vec<_>>()
    };
    let without = bypass("violations.rs");
    assert_eq!(without.len(), 1, "{}", render(&without));
    assert!(
        without[0]
            .message
            .contains(r#"#[serde(validate = "ArchiveModel::validate")]"#),
        "the message must point to the hook, got: {}",
        without[0].message
    );
    let with = bypass("clean.rs");
    assert!(with.is_empty(), "{}", render(&with));
}

#[test]
fn suppressed_fixture_produces_zero_findings() {
    let (rel, src) = fixture("suppressed.rs");
    let findings = lint_source(&rel, &src, &all_paths());
    assert!(
        findings.is_empty(),
        "every violation carries a pragma, but got:\n{}",
        render(&findings)
    );
}

#[test]
fn clean_fixture_produces_zero_findings() {
    let (rel, src) = fixture("clean.rs");
    let findings = lint_source(&rel, &src, &all_paths());
    assert!(
        findings.is_empty(),
        "clean fixture flagged:\n{}",
        render(&findings)
    );
}

/// The self-hosting gate: the workspace itself must be lint-clean under the committed
/// configuration. This is the library-level twin of the CI `--check` step.
#[test]
fn workspace_is_lint_clean() {
    let findings = lint_paths(&[workspace_root()], &LintConfig::repo_default()).unwrap();
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        render(&findings)
    );
}

/// Regression (fault-injection PR): resume-byte-identity makes the fault and
/// checkpoint modules determinism-sensitive, so the committed configuration must keep
/// them inside the `nondeterminism` scope and the per-interval fault masking on the
/// hot-path allocation denylist.
#[test]
fn fault_and_checkpoint_modules_stay_in_the_determinism_scopes() {
    let cfg = LintConfig::repo_default();
    for path in [
        "crates/cluster/src/faults.rs",
        "crates/cluster/src/node.rs",
        "crates/cluster/src/engine.rs",
    ] {
        assert!(
            pliant_lint::config::path_in(path, &cfg.hash_container_scoped),
            "{path} must sit inside the nondeterminism hash-container scope"
        );
        assert!(
            !pliant_lint::config::path_in(path, &cfg.wallclock_allowed),
            "{path} must not be allowed to read the wall clock"
        );
        // A hash-ordered container in any of these files is a finding: iteration
        // order would reach checkpoint archives and break resume byte-identity.
        let findings = lint_source(
            path,
            "fn restore() { let m: HashMap<u32, u64> = HashMap::new(); }",
            &cfg,
        );
        assert!(
            findings.iter().any(|f| f.rule == "nondeterminism"),
            "a HashMap in {path} must be flagged, got:\n{}",
            render(&findings)
        );
    }
    for hot in [
        "NodeHealth::is_serving",
        "ClusterRun::balance_load",
        "ClusterNode::step",
        "NodeRuntime::control",
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
    }
}

/// Regression (topology PR): rack sampling draws from a seeded RNG and placement and
/// migration run inside the per-interval loop, so the topology module must stay inside
/// the nondeterminism scope and the placement/migration functions on the
/// hot-path-alloc denylist.
#[test]
fn topology_placement_and_migration_stay_in_the_determinism_scopes() {
    let cfg = LintConfig::repo_default();
    let path = "crates/cluster/src/topology.rs";
    assert!(
        pliant_lint::config::path_in(path, &cfg.hash_container_scoped),
        "{path} must sit inside the nondeterminism hash-container scope"
    );
    assert!(
        !pliant_lint::config::path_in(path, &cfg.wallclock_allowed),
        "{path} must not be allowed to read the wall clock"
    );
    let findings = lint_source(
        path,
        "fn rack_of() { let m: HashMap<u32, u64> = HashMap::new(); }",
        &cfg,
    );
    assert!(
        findings.iter().any(|f| f.rule == "nondeterminism"),
        "a HashMap in {path} must be flagged, got:\n{}",
        render(&findings)
    );
    for hot in [
        "ClusterRun::rack_score",
        "ClusterNode::extract_job",
        "ClusterNode::implant_job",
        "ColocationSim::extract_app",
        "ColocationSim::implant_app",
        "Autoscaler::park_fully_drained",
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        // An allocation seeded into any of these functions is a finding: the
        // consolidation pass runs them every interval on racked fleets.
        let (ty, name) = hot.split_once("::").unwrap();
        let src = format!("impl {ty} {{ fn {name}(&mut self) {{ let v = Vec::new(); }} }}");
        let findings = lint_source("crates/cluster/src/engine.rs", &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a Vec::new inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// Every hot-path entry names a function the workspace defines, so renaming a function
/// cannot leave an entry that guards nothing: a `Type::name` entry needs a `fn name`
/// inside an `impl Type`, a bare entry any `fn` of that name, as the rule matches them.
#[test]
fn every_hot_path_entry_names_a_workspace_fn() {
    let cfg = LintConfig::repo_default();
    let mut defined = BTreeSet::new();
    for path in collect_rs_files(&workspace_root(), &cfg).unwrap() {
        let source = std::fs::read_to_string(&path).unwrap();
        for f in analyze(&path.to_string_lossy(), &source).functions {
            defined.insert(f.qualified);
            defined.insert(f.name);
        }
    }
    let dead: Vec<&String> = cfg
        .hot_path_fns
        .iter()
        .filter(|hot| !defined.contains(*hot))
        .collect();
    assert!(
        dead.is_empty(),
        "hot-path entries name no fn in the workspace: {dead:?}"
    );
}

/// Regression (one fleet code path): exact and clustered fleets share the
/// coordinator's phase methods, so every phase of `ClusterRun::step`, the node step and
/// the closing pass that folds the fleet books included, must stay on the
/// hot-path-alloc denylist.
#[test]
fn fleet_coordinator_phases_stay_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    for hot in [
        "ClusterRun::apply_faults",
        "ClusterRun::plan_serving_set",
        "ClusterRun::admit_racks",
        "ClusterRun::consolidate",
        "ClusterRun::place_jobs",
        "ClusterRun::confine_to_sampled_rack",
        "ClusterRun::balance_load",
        "ClusterRun::step_nodes",
        "ClusterRun::close_interval",
        "Autoscaler::plan",
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
    }
}

/// Regression (lazy sample mapping): the latency-sample fill and its read paths, the
/// monitor's batched read and record of its selections, the vectorized exponential and
/// skip-gap logarithm, and the ziggurat's per-sample and rejection paths run for every
/// latency sample or selection, so each must stay on the hot-path-alloc denylist beside
/// the functions that call them.
#[test]
fn sample_generation_passes_stay_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    for hot in [
        "LatencySamples::fill",
        "LatencySamples::get",
        "LatencySamples::gather",
        "LatencySamples::map_in_place",
        "PerformanceMonitor::record_all",
        "PerformanceMonitor::record_batch",
        "fast_exp_in_range",
        "fast_ln_unit",
        "exp_map_in_range",
        "exp_map_in_range_portable",
        "ln_unit_ratio",
        "ln_unit_ratio_portable",
        "sample_normal_ziggurat",
        "zig_normal",
        "zig_reject",
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        let seeded = |name: &str| format!("fn {name}(x: f64) -> f64 {{ let v = vec![x]; v[0] }}");
        let src = match hot.split_once("::") {
            Some((ty, name)) => format!("impl {ty} {{ {} }}", seeded(name)),
            None => seeded(hot),
        };
        let findings = lint_source("crates/telemetry/src/rng.rs", &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a vec! inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// Regression (batched fleet histogram): a measured fleet interval maps its samples
/// once in place and records them with one batched call, and the fleet step reads its
/// load profile in place, so each of these must stay on the hot-path-alloc denylist.
#[test]
fn batched_histogram_recording_stays_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    for (hot, path) in [
        (
            "LatencyHistogram::record_scaled_n",
            "crates/telemetry/src/histogram.rs",
        ),
        ("LatencySamples::materialize", "crates/telemetry/src/rng.rs"),
        ("ClusterRun::step", "crates/cluster/src/engine.rs"),
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        let (ty, name) = hot.split_once("::").unwrap();
        let src = format!("impl {ty} {{ fn {name}(&mut self) {{ let v = Vec::new(); }} }}");
        let findings = lint_source(path, &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a Vec::new inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// Regression (dense Glimmer tables): a candidate window is scored through a rolled
/// table index, where it once built a key vector per base, so the window scorer and its
/// key iterator must stay on the hot-path-alloc denylist.
#[test]
fn glimmer_window_scoring_stays_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    let path = "crates/approx/src/kernels/bioperf/glimmer.rs";
    for hot in ["GlimmerKernel::score_window", "GlimmerKernel::keys"] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        let (ty, name) = hot.split_once("::").unwrap();
        let src = format!("impl {ty} {{ fn {name}(&self) {{ let v = Vec::new(); }} }}");
        let findings = lint_source(path, &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a Vec::new inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// The AVX2 dispatch in `crates/telemetry/src/simd.rs` is the only place `unsafe` may
/// appear: the same block anywhere else, a test file or another telemetry module
/// included, is a finding.
#[test]
fn unsafe_is_allowed_only_in_the_simd_module() {
    let cfg = LintConfig::repo_default();
    assert_eq!(cfg.unsafe_allowed, ["crates/telemetry/src/simd.rs"]);
    let src = "fn f(x: &[f64]) -> f64 { unsafe { *x.as_ptr() } }";
    assert!(lint_source("crates/telemetry/src/simd.rs", src, &cfg).is_empty());
    for path in [
        "crates/telemetry/src/rng.rs",
        "crates/core/src/monitor.rs",
        "perfbench/src/measure.rs",
        "tests/hot_path.rs",
    ] {
        let findings = lint_source(path, src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "unsafe-scope"),
            "an unsafe block in {path} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// The `test-only-pub` mini-workspace (`fixtures/test_only_pub/`): a `pub fn` in
/// library code that only a `#[cfg(test)]` module or `tests/` calls is flagged, also
/// when a `pub use` re-exports it; one called from `examples/` or `perfbench/src`,
/// imported by `use` and passed by name, named in a serde attribute string, or carrying
/// the pragma is not.
#[test]
fn cli_flags_pub_fns_only_tests_call() {
    let (code, stdout, _) = run_cli(&fixtures_dir().join("test_only_pub"), &["--check", "."]);
    assert_eq!(
        code, 1,
        "test-only pub fns must fail --check; stdout:\n{stdout}"
    );
    let flagged: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("[test-only-pub]"))
        .map(|l| l.split(": [").next().unwrap())
        .collect();
    assert_eq!(
        flagged,
        [
            "crates/sim/src/lib.rs:5",
            "crates/sim/src/lib.rs:10",
            "crates/sim/src/reexport.rs:2"
        ],
        "only the unit-tested, the integration-tested and the re-exported fn are \
         flagged:\n{stdout}"
    );
    assert!(stdout.contains("`pub fn only_unit_tested`"));
}

/// A scan of a sub-path reports what a scan of `.` reports for the same files, so the
/// path-scoped rules (`panic-hygiene` here) and `test-only-pub` still apply: a relative
/// path is reported as given, and callers are looked for under the current directory.
#[test]
fn cli_sub_path_and_single_file_scans_match_the_full_scan() {
    let dir = fixtures_dir().join("test_only_pub");
    let (_, full, _) = run_cli(&dir, &["."]);
    assert!(
        full.contains("crates/sim/src/lib.rs:59: [panic-hygiene]"),
        "{full}"
    );
    assert!(full.contains("[test-only-pub]"), "{full}");
    for path in ["crates/sim", "./crates/sim/"] {
        let (_, scoped, _) = run_cli(&dir, &[path]);
        assert_eq!(
            scoped, full,
            "`pliant-lint {path}` differs from `pliant-lint .`"
        );
    }
    let file = "crates/sim/src/lib.rs";
    let (_, scoped, _) = run_cli(&dir, &[file]);
    let full_of_file: String = full
        .lines()
        .filter(|l| l.starts_with(&format!("{file}:")))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(full_of_file.contains("[test-only-pub]"), "{full}");
    assert_eq!(
        scoped, full_of_file,
        "`pliant-lint {file}` differs from `pliant-lint .` on that file"
    );
    // Several paths share one index of callers.
    let (_, both, _) = run_cli(&dir, &[file, "crates/sim/src/reexport.rs"]);
    assert_eq!(both, full, "two file paths differ from `pliant-lint .`");
}

/// An absolute path under the current directory (`$PWD/crates/sim`) scans as its
/// relative form does: the same paths, so the path-scoped rules and `test-only-pub`
/// still match. One outside it keeps paths relative to itself.
#[test]
fn absolute_sub_path_scans_match_their_relative_form() {
    let dir = fixtures_dir().join("test_only_pub");
    let (_, full, _) = run_cli(&dir, &["."]);
    assert!(full.contains("[panic-hygiene]") && full.contains("[test-only-pub]"));
    let (_, relative, _) = run_cli(&dir, &["crates/sim"]);
    for path in [dir.join("crates/sim"), dir.join("crates/sim/../sim/")] {
        let (_, absolute, _) = run_cli(&dir, &[path.to_str().unwrap()]);
        assert_eq!(absolute, relative, "`pliant-lint {}`", path.display());
    }
    let file = "crates/sim/src/lib.rs";
    let (_, relative, _) = run_cli(&dir, &[file]);
    let (_, absolute, _) = run_cli(&dir, &[dir.join(file).to_str().unwrap()]);
    assert_eq!(absolute, relative, "`pliant-lint $PWD/{file}`");
    let (_, absolute, _) = run_cli(&dir, &[dir.to_str().unwrap()]);
    assert_eq!(absolute, full, "`pliant-lint $PWD`");
    // The library entry point, from this test's current directory (the crate root): an
    // absolute file is rebased onto it, so its findings name it from there, not from
    // its own directory.
    let cfg = LintConfig::repo_default();
    let render_scan = |root: &Path| -> Vec<String> {
        let findings = lint_paths(&[root], &cfg).unwrap();
        findings.iter().map(|f| f.to_string()).collect()
    };
    let absolute = render_scan(&fixtures_dir().join("violations.rs"));
    assert!(absolute.iter().any(|f| f.contains("[nan-unsafe-cmp]")));
    for finding in &absolute {
        assert!(finding.starts_with("fixtures/violations.rs:"), "{finding}");
    }
    assert_eq!(absolute, render_scan(Path::new("fixtures/violations.rs")));
    // Outside it (the fixture scanned from its `crates/`), paths are relative to the root.
    let (_, outside, _) = run_cli(&dir.join("crates"), &[dir.to_str().unwrap()]);
    assert_eq!(
        outside, full,
        "`pliant-lint` on a root above the current directory"
    );
}

/// The repo benchmark measures host time by design, so `perfbench/` may read the wall
/// clock; the simulation crates it drives may not.
#[test]
fn perfbench_may_read_the_wall_clock() {
    let cfg = LintConfig::repo_default();
    assert!(pliant_lint::config::path_in(
        "perfbench/src/measure.rs",
        &cfg.wallclock_allowed
    ));
    let findings = lint_source(
        "perfbench/src/measure.rs",
        "fn time() { let t = std::time::Instant::now(); }",
        &cfg,
    );
    assert!(
        findings.is_empty(),
        "perfbench wall-clock reads must not be flagged, got:\n{}",
        render(&findings)
    );
    assert!(!pliant_lint::config::path_in(
        "crates/cluster/src/engine.rs",
        &cfg.wallclock_allowed
    ));
}

/// The figure binaries report simulated outcomes only (their `--json` is pinned by
/// byte-for-byte goldens), so they may not read the wall clock: `perfbench/` is the
/// only allowed prefix.
#[test]
fn figure_binaries_may_not_read_the_wall_clock() {
    let cfg = LintConfig::repo_default();
    assert_eq!(cfg.wallclock_allowed, ["perfbench/"]);
    let path = "crates/bench/src/bin/fig_hyperscale.rs";
    assert!(!pliant_lint::config::path_in(path, &cfg.wallclock_allowed));
    let findings = lint_source(
        path,
        "fn main() { let t = std::time::Instant::now(); }",
        &cfg,
    );
    assert!(
        findings.iter().any(|f| f.rule == "nondeterminism"),
        "Instant::now in {path} must be flagged, got:\n{}",
        render(&findings)
    );
}

#[test]
fn cli_check_fails_on_the_violations_fixture() {
    let (code, stdout, stderr) = run_cli(&fixtures_dir(), &["--check", "violations.rs"]);
    assert_eq!(
        code, 1,
        "--check must exit nonzero on findings; stderr: {stderr}"
    );
    for rule in [
        "nan-unsafe-cmp",
        "hot-path-alloc",
        "nondeterminism",
        "validate-bypass",
        "unsafe-scope",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
    assert!(stderr.contains("finding(s)"));
}

#[test]
fn cli_check_passes_on_clean_and_suppressed_fixtures() {
    for name in ["clean.rs", "suppressed.rs"] {
        let (code, stdout, stderr) = run_cli(&fixtures_dir(), &["--check", name]);
        assert_eq!(code, 0, "{name} must be clean; stdout:\n{stdout}");
        assert!(stderr.contains("no findings"));
    }
}

#[test]
fn cli_json_output_is_wellformed() {
    let (code, stdout, _) = run_cli(&fixtures_dir(), &["--json", "violations.rs"]);
    assert_eq!(code, 0, "without --check the exit code stays 0");
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
    assert!(trimmed.contains(r#""rule": "nan-unsafe-cmp""#));
    assert!(trimmed.contains(r#""line": 6"#));
}

#[test]
fn cli_only_and_skip_filter_rules() {
    let (code, stdout, _) = run_cli(
        &fixtures_dir(),
        &["--only", "nondeterminism", "--check", "violations.rs"],
    );
    assert_eq!(code, 1);
    assert!(stdout.contains("nondeterminism"));
    assert!(!stdout.contains("hot-path-alloc"));

    let (code, stdout, _) = run_cli(
        &fixtures_dir(),
        &[
            "--skip",
            "nan-unsafe-cmp,hot-path-alloc,nondeterminism,validate-bypass,panic-hygiene,\
             unsafe-scope,test-only-pub",
            "--check",
            "violations.rs",
        ],
    );
    assert_eq!(
        code, 0,
        "skipping every rule must pass --check; stdout:\n{stdout}"
    );
}

#[test]
fn cli_rejects_unknown_rules_and_options() {
    let (code, _, stderr) = run_cli(&fixtures_dir(), &["--only", "bogus-rule"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown rule"));

    let (code, _, stderr) = run_cli(&fixtures_dir(), &["--frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option"));
}

#[test]
fn cli_lists_every_rule() {
    let (code, stdout, _) = run_cli(&fixtures_dir(), &["--list-rules"]);
    assert_eq!(code, 0);
    for rule in ALL_RULES {
        assert!(
            stdout.contains(rule.id),
            "missing {} in:\n{stdout}",
            rule.id
        );
    }
}

/// The CI invocation: `pliant-lint --check .` from the workspace root must pass.
#[test]
fn cli_check_passes_on_the_workspace() {
    let (code, stdout, stderr) = run_cli(&workspace_root(), &["--check", "."]);
    assert_eq!(code, 0, "workspace --check failed:\n{stdout}\n{stderr}");
    assert!(stderr.contains("no findings"));
}

fn render(findings: &[pliant_lint::findings::Finding]) -> String {
    findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}
