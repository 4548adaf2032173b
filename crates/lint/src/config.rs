//! Lint configuration: which functions are hot paths and which paths each
//! path-scoped rule covers.
//!
//! Paths are matched against the diagnostic path (`/` separators): a relative scan path
//! as given, relative to the current directory, or, for an absolute scan root, the path
//! relative to that root. So the tool expects to be invoked from — or pointed at — the
//! workspace root, which is how CI and the self-hosting tests run it.

/// Configuration shared by every rule.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Functions whose bodies must stay allocation-free. Entries are either bare names
    /// (`fast_exp`, matching any function of that name) or qualified as `Type::name`
    /// (`ClusterNode::step`, matching only inside `impl ClusterNode`).
    pub hot_path_fns: Vec<String>,
    /// Path prefixes where wall-clock reads (`Instant::now`, `SystemTime`) are allowed:
    /// only the repo benchmark (`perfbench/`) measures real time by design. The figure
    /// binaries report simulated outcomes, so their output stays seed-deterministic.
    pub wallclock_allowed: Vec<String>,
    /// Path prefixes where the `unsafe` keyword is allowed: only the telemetry crate's
    /// `simd` module, whose kernels call their AVX2 builds after a runtime feature
    /// check. Everywhere else, test code included, `unsafe` is a finding.
    pub unsafe_allowed: Vec<String>,
    /// Path prefixes of determinism-sensitive code where `HashMap`/`HashSet` are denied
    /// (iteration order reaches archives, statistics, or RNG consumption order). The
    /// `crates/cluster/` prefix deliberately covers the fault-injection and
    /// checkpoint/restore modules (`faults.rs`, `node.rs`, and `engine.rs`) as well as
    /// the rack-topology layer (`topology.rs` and the placement sampling in
    /// `engine.rs`): resume-byte-identity
    /// and seeded rack sampling are determinism guarantees, so those files face the
    /// same wall-clock and hash-order denials as the simulation core (pinned in the
    /// lint integration tests).
    pub hash_container_scoped: Vec<String>,
    /// Path prefixes where `unwrap()`/`expect()` in non-test code are denied.
    pub panic_hygiene_scoped: Vec<String>,
    /// Path prefixes of the compat shims, which stand in for external crates: exempt
    /// from `validate-bypass` (the serde shim itself) and from `test-only-pub` (their
    /// API mirrors the crates they replace).
    pub compat_shims: Vec<String>,
    /// Directory names skipped entirely while walking (build output, VCS metadata, and
    /// the lint crate's own seeded-violation fixtures).
    pub skip_dirs: Vec<String>,
}

impl LintConfig {
    /// The workspace's committed configuration: hot-path list and path scopes matching
    /// the repository layout.
    pub fn repo_default() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        LintConfig {
            hot_path_fns: s(&[
                // The allocation-free per-interval loop (PR 4) and everything it calls
                // per sample.
                "ColocationSim::advance_reusing",
                "PerformanceMonitor::observe_interval",
                // The monitor's batched read and record of its selected samples.
                "PerformanceMonitor::record_all",
                "PerformanceMonitor::record_batch",
                "ClusterNode::step",
                // The monitor -> policy -> actuator step every node runs per interval,
                // single-node engine and fleet instance alike.
                "NodeRuntime::control",
                "fast_exp",
                "fast_exp_in_range",
                "fast_ln",
                "fast_ln_unit",
                "poly_exp",
                "sample_normal_ziggurat",
                "zig_normal",
                "zig_reject",
                // Latency samples: drawn as normals every busy interval, mapped on read
                // by the monitor or once in place for the fleet histogram.
                "LatencySamples::fill",
                "LatencySamples::get",
                "LatencySamples::gather",
                "LatencySamples::map_in_place",
                "LatencySamples::materialize",
                // The vector kernels those loops and the fleet histogram run through,
                // and their loop bodies.
                "exp_map_in_range",
                "exp_map_in_range_portable",
                "ln_unit_ratio",
                "ln_unit_ratio_portable",
                "bucket_scaled",
                "bucket_scaled_avx2",
                // The replica-weighted planning path: runs once per interval
                // on every fleet, including clustered ones whose logical size can
                // reach 1M nodes, and the per-sample replication inside
                // ClusterNode::step. The load split itself is ClusterRun::balance_load,
                // listed with the coordinator phases below.
                "Autoscaler::plan",
                "LatencyHistogram::record_n",
                "LatencyHistogram::record_scaled_n",
                // The observability emit path (PR 8): called at every decision point
                // of every per-interval loop above; the Null sink (Off) and the
                // preallocated ring must both stay allocation-free (the contract is
                // also pinned dynamically in tests/hot_path.rs).
                "ObsBuffer::emit",
                "MetricsRegistry::record",
                // The fault-injection per-interval path (PR 9): node-health masking
                // runs for every instance of every interval whenever a fleet carries
                // a fault profile.
                "NodeHealth::is_serving",
                // The topology placement/migration path (PR 10): rack scoring runs at
                // every placement decision, the extract/implant pair moves in-flight
                // batch state between nodes on the consolidation pass, and the drain
                // check walks every instance each interval — all inside the
                // per-interval loop, all required to reuse caller-provided buffers.
                "ClusterRun::rack_score",
                "ClusterNode::extract_job",
                "ClusterNode::implant_job",
                "ColocationSim::extract_app",
                "ColocationSim::implant_app",
                "Autoscaler::park_fully_drained",
                // The fleet coordinator's per-interval phases: every phase of
                // ClusterRun::step. They run on exact and clustered fleets alike and
                // reuse the run's scratch buffers; each node recycles its own last
                // observation, and the closing pass folds the fleet books in place.
                "ClusterRun::step",
                "ClusterRun::apply_faults",
                "ClusterRun::plan_serving_set",
                "ClusterRun::admit_racks",
                "ClusterRun::consolidate",
                "ClusterRun::place_jobs",
                "ClusterRun::confine_to_sampled_rack",
                "ClusterRun::balance_load",
                "ClusterRun::step_nodes",
                "ClusterRun::close_interval",
                "ClusterRun::refresh_snapshots",
                // The per-step pair loops of the design-space exploration's heaviest
                // kernels: each reuses the buffers its run allocated once.
                "WaterSpatialKernel::cell_forces",
                "WaterNsquaredKernel::pair_forces",
                "FluidanimateKernel::density_pass",
                // Glimmer scores every base of a candidate window by a dense-table
                // lookup at a rolled key: no per-base key vector.
                "GlimmerKernel::score_window",
                "GlimmerKernel::keys",
            ]),
            wallclock_allowed: s(&["perfbench/"]),
            unsafe_allowed: s(&["crates/telemetry/src/simd.rs"]),
            hash_container_scoped: s(&[
                "crates/sim/",
                "crates/core/",
                "crates/cluster/",
                "crates/telemetry/",
                "crates/workloads/",
                "crates/explore/",
                "crates/approx/",
                "src/",
            ]),
            panic_hygiene_scoped: s(&[
                "crates/sim/src/",
                "crates/core/src/",
                "crates/cluster/src/",
                "crates/telemetry/src/",
            ]),
            compat_shims: s(&["crates/compat/"]),
            skip_dirs: s(&["target", ".git", "fixtures"]),
        }
    }
}

/// Whether `rel_path` (diagnostic form, `/` separators) starts with any of `prefixes`.
pub fn path_in(rel_path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p.as_str()))
}

/// Whether the file is test-only by location: under a `tests/`, `benches/`, or
/// `examples/` directory.
pub fn path_is_test_code(rel_path: &str) -> bool {
    path_under_dir(rel_path, &["tests/", "benches/", "examples/"])
}

/// Whether `rel_path` lies under a directory named by one of `dirs` (each `name/`), at
/// any depth.
pub(crate) fn path_under_dir(rel_path: &str, dirs: &[&str]) -> bool {
    dirs.iter()
        .any(|dir| rel_path.starts_with(dir) || rel_path.contains(&format!("/{dir}")))
}
