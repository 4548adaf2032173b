//! Integration tests for the hot-path overhaul's two documented contracts.
//!
//! 1. **Bucket-resolution bound.** The monitor's streaming histogram estimator may
//!    differ from the exact sorted-order p99 of the samples it ingested by at most one
//!    bucket width (~3% relative, see `LatencyHistogram::bucket_bounds`). This is the
//!    precise sense in which the interval p99 "moved from exact to histogram", and it
//!    must hold at every operating point — so it is swept across every service profile
//!    and every load-profile shape.
//! 2. **Buffer reuse never leaks.** `ColocationSim::advance_reusing` recycles the
//!    previous interval's sample buffer; an idle interval must still deliver an empty
//!    sample set and drive the monitor to a `no_signal` report, never a stale one.
//!
//! The counting allocator at the bottom also pins three memory contracts: the disabled
//! and saturated observability paths allocate nothing, neither does recording a node's
//! samples into its latency histogram, and building a clustered fleet holds no table
//! over its logical nodes.

use pliant::prelude::*;
use pliant::telemetry::histogram::LatencyHistogram;

/// A monitor that ingests every sample (no subsampling), so its report is exactly the
/// histogram estimate over the full interval.
fn full_ingest_monitor(qos_target_s: f64) -> PerformanceMonitor {
    PerformanceMonitor::new(
        MonitorConfig {
            base_sample_rate: 1.0,
            elevated_sample_rate: 1.0,
            ..MonitorConfig::for_qos(qos_target_s)
        },
        42,
    )
}

/// The exact p99 under the histogram's rank definition: the smallest sample with
/// cumulative count >= ceil(0.99 n).
fn exact_rank_p99(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let target = ((0.99 * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
    sorted[target - 1]
}

fn load_profile_zoo() -> Vec<LoadProfile> {
    vec![
        LoadProfile::constant(0.75),
        LoadProfile::Step {
            base: 0.85,
            to: 0.45,
            at_s: 6.0,
        },
        LoadProfile::Diurnal {
            base: 0.6,
            amplitude: 0.3,
            period_s: 12.0,
            phase_s: 0.0,
        },
        LoadProfile::FlashCrowd {
            base: 0.4,
            peak: 1.0,
            start_s: 4.0,
            ramp_s: 2.0,
            hold_s: 4.0,
            decay_s: 2.0,
        },
    ]
}

#[test]
fn histogram_p99_stays_within_one_bucket_width_of_the_exact_p99() {
    let catalog = Catalog::default();
    for service in ServiceId::all() {
        for profile in load_profile_zoo() {
            let cfg = ColocationConfig::paper_default(service, &[AppId::Canneal], 11)
                .with_load_profile(profile.clone());
            let qos = cfg.service.qos_target_s;
            let mut sim = ColocationSim::new(cfg, &catalog);
            let mut monitor = full_ingest_monitor(qos);
            let mut recycled = None;
            for _ in 0..15 {
                let obs = sim.advance_reusing(1.0, recycled.take());
                let report = monitor.observe_interval(&obs.latency_samples_s);
                if !report.no_signal {
                    // Compare in the histogram's microsecond domain: the estimate and
                    // the exact rank statistic must land within one bucket width.
                    let exact_us =
                        exact_rank_p99(&obs.latency_samples_s.iter().collect::<Vec<_>>()) * 1e6;
                    let (lo, hi) = LatencyHistogram::bucket_bounds(exact_us);
                    let width = hi - lo;
                    let estimate_us = report.p99_s * 1e6;
                    assert!(
                        (estimate_us - exact_us).abs() <= width,
                        "{service} under {}: histogram p99 {estimate_us:.2}us deviates \
                         from exact {exact_us:.2}us by more than one bucket width \
                         ({width:.2}us)",
                        profile.describe(),
                    );
                }
                recycled = Some(obs);
            }
        }
    }
}

#[test]
fn reused_buffers_report_no_signal_on_idle_intervals_after_busy_ones() {
    // The monitor-facing half of the buffer-reuse contract: drive the exact engine
    // pattern (recycled observations feeding the monitor) through a busy -> idle ->
    // busy load profile and pin that the idle interval is a true no-signal, with the
    // EWMA held from the busy interval, and that traffic recovers afterwards.
    let catalog = Catalog::default();
    let profile = LoadProfile::Trace {
        points: vec![(0.0, 0.8), (1.0, 0.0), (2.0, 0.0), (3.0, 0.8)],
    };
    let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 19)
        .with_load_profile(profile);
    let qos = cfg.service.qos_target_s;
    let mut sim = ColocationSim::new(cfg, &catalog);
    let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(qos), 7);

    let busy_obs = sim.advance_reusing(1.0, None);
    assert_eq!(busy_obs.latency_samples_s.len(), 1_000);
    let busy_report = monitor.observe_interval(&busy_obs.latency_samples_s);
    assert!(!busy_report.no_signal);
    assert!(busy_report.sampled > 0);

    let idle_obs = sim.advance_reusing(1.0, Some(busy_obs));
    assert_eq!(idle_obs.arrivals, 0);
    assert!(
        idle_obs.latency_samples_s.is_empty(),
        "the recycled buffer must not leak the busy interval's samples"
    );
    let idle_report = monitor.observe_interval(&idle_obs.latency_samples_s);
    assert!(idle_report.no_signal, "an idle interval is a no-signal");
    assert_eq!(idle_report.sampled, 0);
    assert_eq!(idle_report.smoothed_p99_s, busy_report.smoothed_p99_s);
    assert_eq!(idle_report.slack_fraction, 0.0);

    let _ = sim.advance_reusing(1.0, Some(idle_obs));
    let busy_again = sim.advance_reusing(1.0, None);
    assert_eq!(busy_again.latency_samples_s.len(), 1_000);
    let report = monitor.observe_interval(&busy_again.latency_samples_s);
    assert!(!report.no_signal, "traffic must be observed again");
}

// ---------------------------------------------------------------------------
// 3. Allocation-free per-interval paths. Observability's Null-sink contract: with
//    tracing off, and on a saturated preallocated ring, the per-interval emit path
//    allocates nothing — so the hot loop's allocation profile is unchanged by the
//    observability layer. And a node's histogram records its samples in place.
// ---------------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pliant::telemetry::obs::{Event, EventKind, MetricsRegistry, ObsBuffer, ObsLevel};

/// The system allocator with thread-local counters of allocations and of live and
/// peak bytes, so concurrently running tests on other threads cannot perturb a
/// measurement.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread. Signed: a thread may free
    /// memory another thread allocated.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` since the last reset.
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Moves this thread's live bytes by `delta` and raises the peak with them.
fn track_bytes(delta: isize) {
    let live = LIVE_BYTES.with(|live| {
        live.set(live.get() + delta);
        live.get()
    });
    PEAK_BYTES.with(|peak| peak.set(peak.get().max(live)));
}

// pliant-lint: allow(unsafe-scope): `GlobalAlloc` is an unsafe trait.
unsafe impl GlobalAlloc for CountingAllocator {
    // pliant-lint: allow(unsafe-scope): a `GlobalAlloc` method.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // pliant-lint: allow(unsafe-scope): forwards the caller's layout.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track_bytes(layout.size() as isize);
        }
        ptr
    }

    // pliant-lint: allow(unsafe-scope): a `GlobalAlloc` method.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_bytes(-(layout.size() as isize));
        // pliant-lint: allow(unsafe-scope): forwards the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // pliant-lint: allow(unsafe-scope): a `GlobalAlloc` method.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // pliant-lint: allow(unsafe-scope): forwards the caller's pointer and layout.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            track_bytes(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    // Touch the thread-local once outside the measured window, so its lazy
    // registration cannot be charged to `f`.
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs `f` and returns its result with the most bytes it held live at once on this
/// thread, counting what it still holds when it returns.
fn peak_live_bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let out = f();
    let peak = PEAK_BYTES.with(Cell::get) - start;
    (out, peak.max(0) as usize)
}

#[test]
fn obs_emit_is_allocation_free_when_off_and_when_saturated() {
    let event = Event::QosViolation {
        node: 0,
        p99_s: 4e-4,
        qos_target_s: 2e-4,
    };

    // Off: the default Null-sink configuration used by every untraced run.
    let mut off = ObsBuffer::disabled();
    assert_eq!(
        allocations_during(|| {
            for i in 0..10_000u32 {
                off.emit(i, i as f64, event);
            }
        }),
        0,
        "emitting through a disabled buffer must never allocate"
    );

    // On, past capacity: the ring preallocates at construction and then recycles
    // slots, so sustained emission — including wrap-around eviction — is free.
    let mut on = ObsBuffer::new(ObsLevel::Decisions, 1, 1, 64);
    assert_eq!(
        allocations_during(|| {
            for i in 0..10_000u32 {
                on.emit(i, i as f64, event);
            }
        }),
        0,
        "a preallocated ring must absorb sustained emission without allocating"
    );

    // The per-kind counters the summary is folded from are plain arrays.
    let mut registry = MetricsRegistry::new();
    assert_eq!(
        allocations_during(|| {
            for kind in EventKind::ALL {
                for w in 0..1_000u32 {
                    registry.record(kind, w);
                }
            }
        }),
        0,
        "counter recording must never allocate"
    );
}

/// A fleet node records each measured interval's 1,000 samples with one
/// `record_scaled_n`; its vector chunks stay on the stack, so recording allocates
/// nothing, over whole chunks, their tail and a slice shorter than one chunk.
#[test]
fn batched_histogram_recording_is_allocation_free() {
    let samples: Vec<f64> = (0..1_000).map(|i| 1e-4 * (1.0 + (i % 97) as f64)).collect();
    let mut hist = LatencyHistogram::new();
    assert_eq!(
        allocations_during(|| {
            for weight in [1, 3] {
                hist.record_scaled_n(&samples, 1e6, weight);
                hist.record_scaled_n(&samples[..40], 1e6, weight);
            }
        }),
        0,
        "recording a node's samples must never allocate"
    );
    assert_eq!(hist.count(), 4 * 1_040);
}

// ---------------------------------------------------------------------------
// 4. A clustered fleet is built in memory proportional to its groups and instances,
//    not to its logical size: no member lists, no node -> rack table, no population
//    kept alive by the run.
// ---------------------------------------------------------------------------

/// Peak bytes `ClusterRun::new` may hold per logical node. Everything the run builds
/// is per group or per instance, and it keeps the scenario's settings without the job
/// list, so its peak is a fraction of a byte per node. A copy of the one-byte-per-node
/// job list would not fit under this bound, let alone a `u32` or `usize` per node.
const MAX_BUILD_BYTES_PER_LOGICAL_NODE: f64 = 1.0;

#[test]
fn building_a_million_node_clustered_fleet_holds_no_per_node_tables() {
    let nodes = 1_000_000;
    let mut scenario = pliant_bench::cluster_machines_needed_scenario(
        nodes,
        0.65 * nodes as f64,
        PolicyKind::Pliant,
        7,
    )
    .expect("a fleet at 0.65 load per node can carry its load");
    scenario.approximation = FleetApproximation::Clustered {
        representatives_per_group: 4,
    };
    let engine = Engine::new();
    let (run, peak) = peak_live_bytes_during(|| ClusterRun::new(&scenario, &engine));
    assert_eq!(
        run.instance_count(),
        12,
        "three job groups x 4 representatives"
    );
    let per_node = peak as f64 / nodes as f64;
    assert!(
        per_node < MAX_BUILD_BYTES_PER_LOGICAL_NODE,
        "building the fleet peaked at {peak} live bytes ({per_node:.2} per logical \
         node, bound {MAX_BUILD_BYTES_PER_LOGICAL_NODE})"
    );
}
