//! Execution-progress and output-quality accounting for approximate applications.
//!
//! The co-location simulator advances each batch application in work units: an application
//! finishes when its progress reaches 1.0 (one complete job). The rate of progress depends
//! on its core allocation, the variant it is executing (more aggressive variants need less
//! work), interference from co-runners, and the dynamic-instrumentation overhead. The
//! final output-quality loss is the work-weighted average of the inaccuracies of the
//! variants used across the run, matching how Pliant reports inaccuracy.

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::{AppProfile, ResourcePressure};

/// Runtime state of one approximate application inside a co-location experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchAppState {
    profile: AppProfile,
    /// Cores the application started with (its fair share).
    initial_cores: u32,
    /// Cores currently allocated.
    cores: u32,
    /// Active variant (`None` = precise execution).
    variant: Option<usize>,
    /// Fraction of the job completed, in `[0, 1]`.
    progress: f64,
    /// Work-weighted accumulated inaccuracy numerator (percent × progress fraction).
    weighted_inaccuracy: f64,
    /// Simulated wall-clock time spent on the job so far, in seconds.
    elapsed_s: f64,
    /// Completion time, once finished.
    finished_at_s: Option<f64>,
    /// Number of variant switches performed (each incurs a small one-off cost).
    switches: u32,
    /// Whether the application runs under the dynamic-instrumentation tool.
    instrumented: bool,
}

/// One-off cost (in seconds of lost progress time) per variant switch; the paper's
/// signal-based switching is cheap because recompilation happens at coarse granularity.
const SWITCH_COST_S: f64 = 0.01;

impl BatchAppState {
    /// Creates the state for an application starting in precise mode with `cores` cores.
    pub fn new(profile: AppProfile, cores: u32, instrumented: bool) -> Self {
        Self {
            profile,
            initial_cores: cores.max(1),
            cores: cores.max(1),
            variant: None,
            progress: 0.0,
            weighted_inaccuracy: 0.0,
            elapsed_s: 0.0,
            finished_at_s: None,
            switches: 0,
            instrumented,
        }
    }

    /// The application profile.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Cores currently allocated.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Cores the application started with.
    pub fn initial_cores(&self) -> u32 {
        self.initial_cores
    }

    /// Number of cores reclaimed from the application so far (never negative).
    pub fn cores_reclaimed(&self) -> u32 {
        self.initial_cores.saturating_sub(self.cores)
    }

    /// Currently active variant (`None` = precise).
    pub fn variant(&self) -> Option<usize> {
        self.variant
    }

    /// Completed fraction of the job.
    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// Whether the job has completed.
    pub fn is_finished(&self) -> bool {
        self.finished_at_s.is_some()
    }

    /// Shared-resource pressure the application currently exerts (zero once finished).
    pub fn current_pressure(&self) -> ResourcePressure {
        if self.is_finished() {
            ResourcePressure::new(0.0, 0.0, 0.0)
        } else {
            self.profile.pressure_at(self.variant)
        }
    }

    /// Switches to a new variant (`None` = precise). Returns `true` if the variant
    /// actually changed.
    pub fn set_variant(&mut self, variant: Option<usize>) -> bool {
        let clamped = variant.map(|v| v.min(self.profile.variants.len().saturating_sub(1)));
        if clamped == self.variant || self.is_finished() {
            return false;
        }
        self.variant = clamped;
        self.switches += 1;
        // Switching costs a sliver of progress time (signal delivery + code-cache refill).
        self.elapsed_s += SWITCH_COST_S;
        true
    }

    /// Removes one core from the application (used when the interactive service reclaims
    /// it). Returns `true` if a core was actually removed (at least one core always
    /// remains).
    pub fn reclaim_core(&mut self) -> bool {
        if self.cores > 1 {
            self.cores -= 1;
            true
        } else {
            false
        }
    }

    /// Returns one previously-reclaimed core to the application. Returns `true` if a core
    /// was restored.
    pub fn return_core(&mut self) -> bool {
        if self.cores < self.initial_cores {
            self.cores += 1;
            true
        } else {
            false
        }
    }

    /// Rebases a live-migrated application onto a destination slot's fair share.
    ///
    /// The job keeps its progress, work-weighted quality ledger, elapsed time, active
    /// variant, and switch count — only the core accounting restarts from the
    /// destination's `slot_share`. The caller then reclaims cores down to the
    /// destination's current allocation, mirroring how
    /// [`ColocationSim::replace_app`](crate::colocation::ColocationSim::replace_app)
    /// seeds a fresh job.
    pub fn rebase_to_share(&mut self, slot_share: u32) {
        let share = slot_share.max(1);
        self.initial_cores = share;
        self.cores = share;
    }

    /// Creates an already-finished placeholder for a slot vacated by migration: it
    /// exerts no pressure, makes no progress, and reports zero inaccuracy. Keeping the
    /// slot occupied (rather than shrinking the app list) preserves slot arity, so
    /// schedulers and checkpoints see the same shape before and after an extraction.
    /// The placeholder keeps the slot's core split — `slot_share` is the slot's
    /// original fair share, `cores` what the outgoing job currently held — so a later
    /// slot refill seeds the next job exactly as it would after a normal completion.
    pub fn finished_placeholder(
        profile: AppProfile,
        slot_share: u32,
        cores: u32,
        instrumented: bool,
        now_s: f64,
    ) -> Self {
        let share = slot_share.max(1);
        Self {
            profile,
            initial_cores: share,
            cores: cores.clamp(1, share),
            variant: None,
            progress: 1.0,
            weighted_inaccuracy: 0.0,
            elapsed_s: 0.0,
            finished_at_s: Some(now_s),
            switches: 0,
            instrumented,
        }
    }

    /// Advances the application by `dt` seconds of wall-clock time under the given
    /// interference slowdown. `now_s` is the absolute experiment time at the *end* of the
    /// step (used to record the completion timestamp).
    pub fn advance(&mut self, dt: f64, batch_slowdown: f64, now_s: f64) {
        if self.is_finished() || dt <= 0.0 {
            return;
        }
        let exec_factor = self.profile.exec_factor_at(self.variant);
        let overhead = if self.instrumented {
            1.0 + self.profile.instrumentation_overhead
        } else {
            1.0
        };
        // Speed relative to the nominal (fair-share cores, precise, uninstrumented,
        // no interference) execution.
        let core_speed =
            (self.cores as f64 / self.initial_cores as f64).powf(self.profile.parallel_efficiency);
        let rate = core_speed / (exec_factor * overhead * batch_slowdown.max(1.0));
        let full_step = dt * rate / self.profile.nominal_exec_time_s;
        let remaining = 1.0 - self.progress;
        if full_step >= remaining && full_step > 0.0 {
            // Finishing step: the job only needs `remaining / full_step` of the
            // interval. Charging the whole `dt` (and stamping completion at the
            // interval end) overstated execution time by up to one decision interval.
            let used_dt = dt * (remaining / full_step);
            self.weighted_inaccuracy += remaining * self.profile.inaccuracy_at(self.variant);
            self.progress = 1.0;
            self.elapsed_s += used_dt;
            self.finished_at_s = Some(now_s - dt + used_dt);
        } else {
            self.weighted_inaccuracy += full_step * self.profile.inaccuracy_at(self.variant);
            self.progress += full_step;
            self.elapsed_s += dt;
            if self.progress >= 1.0 - 1e-12 {
                // Floating-point accumulation can land a hair under `remaining` above;
                // treat within-epsilon as complete at the interval boundary.
                self.progress = 1.0;
                self.finished_at_s = Some(now_s);
            }
        }
    }

    /// Final (or running) output-quality loss in percent: the work-weighted average of the
    /// variants used so far.
    pub fn inaccuracy_pct(&self) -> f64 {
        if self.progress <= 0.0 {
            0.0
        } else {
            self.weighted_inaccuracy / self.progress
        }
    }

    /// Execution time relative to the nominal precise execution time.
    pub fn relative_execution_time(&self) -> f64 {
        self.elapsed_s / self.profile.nominal_exec_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_approx::catalog::{AppId, Catalog};

    fn canneal_state(cores: u32) -> BatchAppState {
        let profile = Catalog::default().profile(AppId::Canneal).unwrap().clone();
        BatchAppState::new(profile, cores, true)
    }

    #[test]
    fn precise_run_finishes_near_nominal_time_with_overhead() {
        let mut s = canneal_state(8);
        let nominal = s.profile().nominal_exec_time_s;
        let mut t = 0.0;
        while !s.is_finished() && t < nominal * 2.0 {
            t += 1.0;
            s.advance(1.0, 1.0, t);
        }
        assert!(s.is_finished());
        let rel = s.relative_execution_time();
        // The final partial step is pro-rated, so the only overhead left is the
        // instrumentation tool's (~4%) — the pre-fix 1.12 allowance covered up to a
        // full decision interval of completion-time inflation.
        let overhead = s.profile().instrumentation_overhead;
        assert!(
            (rel - (1.0 + overhead)).abs() < 1e-9,
            "relative execution time {rel} must equal 1 + instrumentation overhead {overhead}"
        );
        let finished_at = s.finished_at_s.expect("finished");
        assert!(
            (finished_at - nominal * (1.0 + overhead)).abs() < 1e-9,
            "completion must be stamped at the pro-rated instant, not the interval end"
        );
        assert_eq!(s.inaccuracy_pct(), 0.0);
    }

    #[test]
    fn most_approximate_variant_finishes_faster_with_quality_loss() {
        let mut s = canneal_state(8);
        let most = s.profile().most_approximate();
        s.set_variant(most);
        let mut t = 0.0;
        while !s.is_finished() && t < 100.0 {
            t += 1.0;
            s.advance(1.0, 1.0, t);
        }
        assert!(s.is_finished());
        assert!(
            s.relative_execution_time() < 0.65,
            "most-approximate canneal should run much faster"
        );
        assert!(s.inaccuracy_pct() > 3.0 && s.inaccuracy_pct() <= 5.0);
    }

    #[test]
    fn fewer_cores_slow_the_application_down() {
        let mut full = canneal_state(8);
        let mut constrained = canneal_state(8);
        constrained.reclaim_core();
        constrained.reclaim_core();
        for step in 1..=10 {
            full.advance(1.0, 1.0, step as f64);
            constrained.advance(1.0, 1.0, step as f64);
        }
        assert!(constrained.progress() < full.progress());
        assert_eq!(constrained.cores_reclaimed(), 2);
    }

    #[test]
    fn reclaim_and_return_cores_are_bounded() {
        let mut s = canneal_state(2);
        assert!(s.reclaim_core());
        assert!(!s.reclaim_core(), "the last core can never be reclaimed");
        assert!(s.return_core());
        assert!(!s.return_core(), "cannot exceed the initial allocation");
    }

    #[test]
    fn variant_switches_are_counted_and_idempotent() {
        let mut s = canneal_state(8);
        assert!(s.set_variant(Some(3)));
        assert!(!s.set_variant(Some(3)), "same variant is a no-op");
        assert!(s.set_variant(None));
        assert_eq!(s.switches, 2);
        // Out-of-range variants are clamped to the most aggressive one.
        assert!(s.set_variant(Some(99)));
        assert_eq!(s.variant(), Some(3));
    }

    #[test]
    fn mixed_variant_run_accumulates_weighted_inaccuracy() {
        let mut s = canneal_state(8);
        let most = s.profile().most_approximate();
        let most_inacc = s.profile().inaccuracy_at(most);
        // Run half the job precise, half at the most aggressive variant.
        let mut t = 0.0;
        while s.progress() < 0.5 {
            t += 1.0;
            s.advance(1.0, 1.0, t);
        }
        s.set_variant(most);
        while !s.is_finished() && t < 200.0 {
            t += 1.0;
            s.advance(1.0, 1.0, t);
        }
        let inacc = s.inaccuracy_pct();
        assert!(
            inacc > 0.0 && inacc < most_inacc,
            "mixed run inaccuracy {inacc} must sit between 0 and {most_inacc}"
        );
    }

    #[test]
    fn interference_slowdown_extends_execution() {
        let mut clean = canneal_state(8);
        let mut contended = canneal_state(8);
        for step in 1..=20 {
            clean.advance(1.0, 1.0, step as f64);
            contended.advance(1.0, 1.3, step as f64);
        }
        assert!(contended.progress() < clean.progress());
    }

    #[test]
    fn finished_app_exerts_no_pressure() {
        let mut s = canneal_state(8);
        let mut t = 0.0;
        while !s.is_finished() {
            t += 1.0;
            s.advance(1.0, 1.0, t);
        }
        let p = s.current_pressure();
        assert_eq!(p.llc_mb, 0.0);
        assert_eq!(p.membw_gbps, 0.0);
    }
}
