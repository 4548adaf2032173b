//! Time-varying offered-load profiles (diurnal patterns, flash crowds, traces).
//!
//! Pliant's headline claim is that approximation absorbs *load fluctuations*: the paper
//! evaluates the runtime under diurnal patterns and load transients, not just at one
//! fixed operating point. A [`LoadProfile`] describes the offered load of the interactive
//! service as a function of simulated time, expressed as a fraction of the service's
//! saturation throughput. The co-location simulator samples the profile at the start of
//! every decision interval, so the open-loop generator's arrival *rate* follows the
//! profile while its RNG *stream* stays fully deterministic — replaying the same profile
//! from the same seed reproduces the identical arrival sequence.
//!
//! Profiles are plain serde-round-trippable data, so scenarios that sweep them can be
//! archived next to their results and replayed bit-for-bit, exactly like every other
//! scenario axis.
//!
//! # Example
//!
//! ```
//! use pliant_workloads::profile::{LoadPhase, LoadProfile};
//!
//! let flash = LoadProfile::FlashCrowd {
//!     base: 0.4,
//!     peak: 1.0,
//!     start_s: 30.0,
//!     ramp_s: 5.0,
//!     hold_s: 15.0,
//!     decay_s: 10.0,
//! };
//! assert_eq!(flash.load_at(0.0), 0.4);
//! assert_eq!(flash.load_at(40.0), 1.0);
//! assert_eq!(flash.phase_at(40.0), LoadPhase::Peak);
//! assert_eq!(flash.phase_at(90.0), LoadPhase::Steady);
//! ```

use serde::{Deserialize, Serialize};

/// Highest load fraction a profile may request (matches the scenario-level bound on
/// constant loads; the saturation model itself clamps at 1.2× saturation).
pub const MAX_LOAD_FRACTION: f64 = 1.5;

/// Coarse classification of what a [`LoadProfile`] is doing at a point in time.
///
/// The engine aggregates QoS statistics per phase so figures can show *recovery*
/// behaviour: how often QoS is violated while load is ramping versus once the runtime has
/// settled into the new operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadPhase {
    /// Baseline operation: load at or near the profile's low operating point.
    #[serde(rename = "steady")]
    Steady,
    /// Load is rising.
    #[serde(rename = "ramp-up")]
    RampUp,
    /// Elevated operation: load flat at or near the profile's high operating point.
    #[serde(rename = "peak")]
    Peak,
    /// Load is falling.
    #[serde(rename = "ramp-down")]
    RampDown,
}

impl LoadPhase {
    /// Every phase, in reporting order.
    pub fn all() -> [LoadPhase; 4] {
        [
            LoadPhase::Steady,
            LoadPhase::RampUp,
            LoadPhase::Peak,
            LoadPhase::RampDown,
        ]
    }

    /// Short lower-case name used in result rows.
    pub fn name(&self) -> &'static str {
        match self {
            LoadPhase::Steady => "steady",
            LoadPhase::RampUp => "ramp-up",
            LoadPhase::Peak => "peak",
            LoadPhase::RampDown => "ramp-down",
        }
    }
}

impl std::fmt::Display for LoadPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Offered load as a function of simulated time, as a fraction of saturation throughput.
///
/// All variants are deterministic functions of time: the only randomness in a run with a
/// time-varying profile is the arrival-sampling RNG, which is seeded exactly as before.
///
/// Deserialization runs [`Self::validate_shape`], so a corrupted archive is rejected
/// with a descriptive error instead of driving the simulator with NaN. It accepts a
/// profile that never offers load: a checkpointed simulator legitimately holds one
/// mid-run (a balancer assigns a down or parked node no traffic — see
/// `ColocationSim::set_load_profile`), so the "offers load at some point" rule stays at
/// the configuration boundaries (`Scenario::validate`, `ClusterScenario::validate`,
/// `ColocationSim::new`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(validate = "LoadProfile::validate_shape")]
pub enum LoadProfile {
    /// The classic fixed operating point (what every experiment used before profiles).
    Constant {
        /// Offered load fraction for the whole run.
        load: f64,
    },
    /// A single step change at a fixed time (the paper's "load transient").
    Step {
        /// Load fraction before the step.
        base: f64,
        /// Load fraction at and after the step.
        to: f64,
        /// Time of the step, in seconds.
        at_s: f64,
    },
    /// A sinusoidal day/night pattern: `base + amplitude * sin(2π (t + phase_s) / period_s)`,
    /// clamped to `[0, MAX_LOAD_FRACTION]`.
    Diurnal {
        /// Mean load fraction.
        base: f64,
        /// Half the peak-to-trough swing.
        amplitude: f64,
        /// Length of one full cycle, in seconds.
        period_s: f64,
        /// Time offset applied before evaluating the sinusoid, in seconds.
        phase_s: f64,
    },
    /// A flash crowd: steady at `base`, linear ramp to `peak` over `ramp_s` starting at
    /// `start_s`, hold for `hold_s`, then linear decay back to `base` over `decay_s`.
    FlashCrowd {
        /// Load fraction before and after the crowd.
        base: f64,
        /// Load fraction at the top of the spike.
        peak: f64,
        /// When the ramp begins, in seconds.
        start_s: f64,
        /// Ramp duration in seconds (0 = instantaneous jump).
        ramp_s: f64,
        /// How long the peak holds, in seconds.
        hold_s: f64,
        /// Decay duration in seconds (0 = instantaneous drop).
        decay_s: f64,
    },
    /// Piecewise-linear interpolation through `(time_s, load)` breakpoints (e.g. replayed
    /// from a production trace). Load is held flat before the first and after the last
    /// breakpoint.
    Trace {
        /// Breakpoints as `(time_s, load_fraction)` pairs, strictly increasing in time.
        points: Vec<(f64, f64)>,
    },
}

/// Why a [`LoadProfile`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadProfileError {
    /// A load fraction or time constant is NaN or infinite.
    NonFinite,
    /// A load fraction is negative or above [`MAX_LOAD_FRACTION`].
    OutOfRange,
    /// A duration (period, ramp, hold, decay) or step time is negative, or a period is
    /// zero.
    InvalidDuration,
    /// A trace profile has no breakpoints.
    EmptyTrace,
    /// Trace breakpoints are not strictly increasing in time.
    UnsortedTrace,
    /// A flash crowd's peak is below its base load (spikes go up; use [`LoadProfile::Step`]
    /// or [`LoadProfile::Trace`] for load drops).
    InvertedFlashCrowd,
    /// The profile never offers any load (maximum load is zero).
    NeverPositive,
}

impl std::fmt::Display for LoadProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            LoadProfileError::NonFinite => "load profile contains a non-finite value",
            LoadProfileError::OutOfRange => {
                "load fractions must lie in [0, 1.5] (see MAX_LOAD_FRACTION)"
            }
            LoadProfileError::InvalidDuration => {
                "profile durations must be non-negative (periods strictly positive)"
            }
            LoadProfileError::EmptyTrace => "trace profiles need at least one breakpoint",
            LoadProfileError::UnsortedTrace => {
                "trace breakpoints must be strictly increasing in time"
            }
            LoadProfileError::InvertedFlashCrowd => {
                "a flash crowd's peak must be at or above its base load"
            }
            LoadProfileError::NeverPositive => "the profile never offers any load",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for LoadProfileError {}

impl LoadProfile {
    /// The constant profile at `load` (what plain `load_fraction` scenarios use).
    pub fn constant(load: f64) -> Self {
        LoadProfile::Constant { load }
    }

    /// The offered load fraction at simulated time `t_s` (seconds), clamped to
    /// `[0, MAX_LOAD_FRACTION]`.
    pub fn load_at(&self, t_s: f64) -> f64 {
        let raw = match self {
            LoadProfile::Constant { load } => *load,
            LoadProfile::Step { base, to, at_s } => {
                if t_s < *at_s {
                    *base
                } else {
                    *to
                }
            }
            LoadProfile::Diurnal {
                base,
                amplitude,
                period_s,
                phase_s,
            } => {
                let theta = std::f64::consts::TAU * (t_s + phase_s) / period_s;
                base + amplitude * theta.sin()
            }
            LoadProfile::FlashCrowd {
                base,
                peak,
                start_s,
                ramp_s,
                hold_s,
                decay_s,
            } => {
                if t_s < *start_s {
                    *base
                } else if t_s < start_s + ramp_s {
                    base + (peak - base) * (t_s - start_s) / ramp_s
                } else if t_s < start_s + ramp_s + hold_s {
                    *peak
                } else if t_s < start_s + ramp_s + hold_s + decay_s {
                    let into_decay = t_s - start_s - ramp_s - hold_s;
                    peak - (peak - base) * into_decay / decay_s
                } else {
                    *base
                }
            }
            LoadProfile::Trace { points } => interpolate(points, t_s),
        };
        raw.clamp(0.0, MAX_LOAD_FRACTION)
    }

    /// The smallest load the profile can offer.
    pub fn min_load(&self) -> f64 {
        match self {
            LoadProfile::Constant { load } => load.clamp(0.0, MAX_LOAD_FRACTION),
            LoadProfile::Step { base, to, .. } => base.min(*to).clamp(0.0, MAX_LOAD_FRACTION),
            LoadProfile::Diurnal {
                base, amplitude, ..
            } => (base - amplitude.abs()).clamp(0.0, MAX_LOAD_FRACTION),
            LoadProfile::FlashCrowd { base, peak, .. } => {
                base.min(*peak).clamp(0.0, MAX_LOAD_FRACTION)
            }
            LoadProfile::Trace { points } => points
                .iter()
                .map(|(_, l)| l.clamp(0.0, MAX_LOAD_FRACTION))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// The largest load the profile can offer.
    pub fn max_load(&self) -> f64 {
        match self {
            LoadProfile::Constant { load } => load.clamp(0.0, MAX_LOAD_FRACTION),
            LoadProfile::Step { base, to, .. } => base.max(*to).clamp(0.0, MAX_LOAD_FRACTION),
            LoadProfile::Diurnal {
                base, amplitude, ..
            } => (base + amplitude.abs()).clamp(0.0, MAX_LOAD_FRACTION),
            LoadProfile::FlashCrowd { base, peak, .. } => {
                base.max(*peak).clamp(0.0, MAX_LOAD_FRACTION)
            }
            LoadProfile::Trace { points } => points
                .iter()
                .map(|(_, l)| l.clamp(0.0, MAX_LOAD_FRACTION))
                .fold(0.0, f64::max),
        }
    }

    /// Classifies simulated time `t_s` into a [`LoadPhase`].
    ///
    /// Step and flash-crowd profiles classify exactly from their piecewise structure;
    /// diurnal and trace profiles classify by level and slope: loads within 10% of the
    /// peak-to-trough swing of the top (bottom) extreme are [`LoadPhase::Peak`]
    /// ([`LoadPhase::Steady`]), and the local slope decides [`LoadPhase::RampUp`] vs
    /// [`LoadPhase::RampDown`] in between.
    pub fn phase_at(&self, t_s: f64) -> LoadPhase {
        match self {
            LoadProfile::Constant { .. } => LoadPhase::Steady,
            LoadProfile::Step { base, to, at_s } => {
                // Whichever era carries the higher load is the peak: a step up peaks
                // after `at_s`, a step down peaks before it.
                if base == to || (t_s >= *at_s) != (to > base) {
                    LoadPhase::Steady
                } else {
                    LoadPhase::Peak
                }
            }
            LoadProfile::Diurnal { period_s, .. } => self.slope_phase(t_s, *period_s),
            LoadProfile::FlashCrowd {
                base,
                peak,
                start_s,
                ramp_s,
                hold_s,
                decay_s,
            } => {
                if base == peak || t_s < *start_s || t_s >= start_s + ramp_s + hold_s + decay_s {
                    LoadPhase::Steady
                } else if t_s < start_s + ramp_s {
                    LoadPhase::RampUp
                } else if t_s < start_s + ramp_s + hold_s {
                    LoadPhase::Peak
                } else {
                    LoadPhase::RampDown
                }
            }
            LoadProfile::Trace { points } => {
                let span = match (points.first(), points.last()) {
                    (Some((t0, _)), Some((t1, _))) if t1 > t0 => t1 - t0,
                    _ => return LoadPhase::Steady,
                };
                self.slope_phase(t_s, span)
            }
        }
    }

    /// Phase classification for smooth / piecewise-linear profiles. Level comes first:
    /// loads within 10% of the swing of the top (bottom) extreme classify as `Peak`
    /// (`Steady`), so a sinusoid reports meaningful peak/trough windows (~20% of the
    /// cycle each) instead of single instants at the extremes. In between, the local
    /// slope picks the ramp direction; a flat mid-level plateau (possible in traces)
    /// falls back to which extreme it sits closer to. `char_time_s` is the profile's
    /// characteristic duration (period or trace span).
    fn slope_phase(&self, t_s: f64, char_time_s: f64) -> LoadPhase {
        let (lo, hi) = (self.min_load(), self.max_load());
        let swing = hi - lo;
        if swing <= 1e-9 {
            return LoadPhase::Steady;
        }
        let load = self.load_at(t_s);
        let band = 0.10 * swing;
        if load >= hi - band {
            return LoadPhase::Peak;
        }
        if load <= lo + band {
            return LoadPhase::Steady;
        }
        let eps_s = char_time_s / 1024.0;
        let slope = (self.load_at(t_s + eps_s) - self.load_at(t_s - eps_s)) / (2.0 * eps_s);
        let flat_slope = 0.05 * swing / char_time_s;
        if slope > flat_slope {
            LoadPhase::RampUp
        } else if slope < -flat_slope {
            LoadPhase::RampDown
        } else if load > lo + swing / 2.0 {
            LoadPhase::Peak
        } else {
            LoadPhase::Steady
        }
    }

    /// Checks [`Self::validate_shape`] and that the profile offers load at some point.
    pub fn validate(&self) -> Result<(), LoadProfileError> {
        self.validate_shape()?;
        if self.max_load() <= 0.0 {
            return Err(LoadProfileError::NeverPositive);
        }
        Ok(())
    }

    /// Checks that every constant is finite, every load fraction is within
    /// `[0, MAX_LOAD_FRACTION]`, durations are sane, and traces are non-empty and sorted.
    /// A profile that never offers load passes.
    pub fn validate_shape(&self) -> Result<(), LoadProfileError> {
        let check_load = |l: f64| -> Result<(), LoadProfileError> {
            if !l.is_finite() {
                Err(LoadProfileError::NonFinite)
            } else if !(0.0..=MAX_LOAD_FRACTION).contains(&l) {
                Err(LoadProfileError::OutOfRange)
            } else {
                Ok(())
            }
        };
        let check_time = |t: f64| -> Result<(), LoadProfileError> {
            if !t.is_finite() {
                Err(LoadProfileError::NonFinite)
            } else if t < 0.0 {
                Err(LoadProfileError::InvalidDuration)
            } else {
                Ok(())
            }
        };
        match self {
            LoadProfile::Constant { load } => check_load(*load)?,
            LoadProfile::Step { base, to, at_s } => {
                check_load(*base)?;
                check_load(*to)?;
                check_time(*at_s)?;
            }
            LoadProfile::Diurnal {
                base,
                amplitude,
                period_s,
                phase_s,
            } => {
                check_load(*base)?;
                if !amplitude.is_finite() || !phase_s.is_finite() {
                    return Err(LoadProfileError::NonFinite);
                }
                if *amplitude < 0.0 || base + amplitude > MAX_LOAD_FRACTION {
                    return Err(LoadProfileError::OutOfRange);
                }
                if !period_s.is_finite() || *period_s <= 0.0 {
                    return Err(LoadProfileError::InvalidDuration);
                }
            }
            LoadProfile::FlashCrowd {
                base,
                peak,
                start_s,
                ramp_s,
                hold_s,
                decay_s,
            } => {
                check_load(*base)?;
                check_load(*peak)?;
                check_time(*start_s)?;
                check_time(*ramp_s)?;
                check_time(*hold_s)?;
                check_time(*decay_s)?;
                if peak < base {
                    return Err(LoadProfileError::InvertedFlashCrowd);
                }
            }
            LoadProfile::Trace { points } => {
                if points.is_empty() {
                    return Err(LoadProfileError::EmptyTrace);
                }
                for (t, l) in points {
                    if !t.is_finite() {
                        return Err(LoadProfileError::NonFinite);
                    }
                    check_load(*l)?;
                }
                if points.windows(2).any(|w| w[1].0 <= w[0].0) {
                    return Err(LoadProfileError::UnsortedTrace);
                }
            }
        }
        Ok(())
    }

    /// Compact label used when profiles are swept as a suite axis.
    pub fn describe(&self) -> String {
        match self {
            LoadProfile::Constant { load } => format!("const{load:.2}"),
            LoadProfile::Step { to, at_s, .. } => format!("step{to:.2}@{at_s:.0}s"),
            LoadProfile::Diurnal {
                amplitude,
                period_s,
                ..
            } => format!("diurnal±{amplitude:.2}/{period_s:.0}s"),
            LoadProfile::FlashCrowd { peak, start_s, .. } => {
                format!("flash{peak:.2}@{start_s:.0}s")
            }
            LoadProfile::Trace { points } => format!("trace[{}]", points.len()),
        }
    }
}

/// Piecewise-linear interpolation through sorted breakpoints, flat extrapolation outside.
fn interpolate(points: &[(f64, f64)], t_s: f64) -> f64 {
    match points {
        [] => 0.0,
        [(_, only)] => *only,
        _ => {
            let (t0, l0) = points[0];
            if t_s <= t0 {
                return l0;
            }
            let (tn, ln) = points[points.len() - 1];
            if t_s >= tn {
                return ln;
            }
            for w in points.windows(2) {
                let (ta, la) = w[0];
                let (tb, lb) = w[1];
                if t_s < tb {
                    return la + (lb - la) * (t_s - ta) / (tb - ta);
                }
            }
            ln
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flash() -> LoadProfile {
        LoadProfile::FlashCrowd {
            base: 0.4,
            peak: 1.0,
            start_s: 30.0,
            ramp_s: 5.0,
            hold_s: 15.0,
            decay_s: 10.0,
        }
    }

    #[test]
    fn constant_profile_is_flat() {
        let p = LoadProfile::constant(0.75);
        for t in [0.0, 10.0, 1e6] {
            assert_eq!(p.load_at(t), 0.75);
            assert_eq!(p.phase_at(t), LoadPhase::Steady);
        }
        assert!(p.validate().is_ok());
    }

    #[test]
    fn step_switches_levels_exactly_once() {
        let p = LoadProfile::Step {
            base: 0.5,
            to: 0.9,
            at_s: 20.0,
        };
        assert_eq!(p.load_at(19.999), 0.5);
        assert_eq!(p.load_at(20.0), 0.9);
        assert_eq!(p.phase_at(0.0), LoadPhase::Steady);
        assert_eq!(p.phase_at(20.0), LoadPhase::Peak);
        assert_eq!(p.min_load(), 0.5);
        assert_eq!(p.max_load(), 0.9);
        // A step down peaks *before* the switch: the higher-load era is the peak.
        let down = LoadProfile::Step {
            base: 0.9,
            to: 0.2,
            at_s: 30.0,
        };
        assert_eq!(down.phase_at(10.0), LoadPhase::Peak);
        assert_eq!(down.phase_at(30.0), LoadPhase::Steady);
    }

    #[test]
    fn diurnal_oscillates_about_its_base() {
        let p = LoadProfile::Diurnal {
            base: 0.6,
            amplitude: 0.3,
            period_s: 100.0,
            phase_s: 0.0,
        };
        assert!((p.load_at(25.0) - 0.9).abs() < 1e-9, "sin peak at T/4");
        assert!((p.load_at(75.0) - 0.3).abs() < 1e-9, "sin trough at 3T/4");
        assert_eq!(p.phase_at(25.0), LoadPhase::Peak);
        assert_eq!(p.phase_at(75.0), LoadPhase::Steady);
        assert_eq!(p.phase_at(10.0), LoadPhase::RampUp);
        assert_eq!(p.phase_at(60.0), LoadPhase::RampDown);
        assert!(p.validate().is_ok());
        assert!(p.min_load() < p.max_load());
    }

    #[test]
    fn diurnal_clamps_at_zero() {
        let p = LoadProfile::Diurnal {
            base: 0.2,
            amplitude: 0.5,
            period_s: 100.0,
            phase_s: 0.0,
        };
        assert_eq!(p.load_at(75.0), 0.0);
        assert_eq!(p.min_load(), 0.0);
    }

    #[test]
    fn flash_crowd_ramps_holds_and_decays() {
        let p = flash();
        assert_eq!(p.load_at(0.0), 0.4);
        assert!((p.load_at(32.5) - 0.7).abs() < 1e-9, "mid-ramp");
        assert_eq!(p.load_at(35.0), 1.0);
        assert_eq!(p.load_at(49.9), 1.0);
        assert!((p.load_at(55.0) - 0.7).abs() < 1e-9, "mid-decay");
        assert_eq!(p.load_at(60.0), 0.4);
        assert_eq!(p.phase_at(10.0), LoadPhase::Steady);
        assert_eq!(p.phase_at(32.0), LoadPhase::RampUp);
        assert_eq!(p.phase_at(40.0), LoadPhase::Peak);
        assert_eq!(p.phase_at(55.0), LoadPhase::RampDown);
        assert_eq!(p.phase_at(80.0), LoadPhase::Steady);
    }

    #[test]
    fn instantaneous_flash_crowd_is_a_square_pulse() {
        let p = LoadProfile::FlashCrowd {
            base: 0.5,
            peak: 1.1,
            start_s: 10.0,
            ramp_s: 0.0,
            hold_s: 5.0,
            decay_s: 0.0,
        };
        assert_eq!(p.load_at(9.999), 0.5);
        assert_eq!(p.load_at(10.0), 1.1);
        assert_eq!(p.load_at(14.999), 1.1);
        assert_eq!(p.load_at(15.0), 0.5);
        assert_eq!(p.phase_at(12.0), LoadPhase::Peak);
    }

    #[test]
    fn trace_interpolates_and_extrapolates_flat() {
        let p = LoadProfile::Trace {
            points: vec![(10.0, 0.4), (20.0, 0.8), (40.0, 0.2)],
        };
        assert_eq!(p.load_at(0.0), 0.4, "flat before the first breakpoint");
        assert!((p.load_at(15.0) - 0.6).abs() < 1e-9);
        assert!((p.load_at(30.0) - 0.5).abs() < 1e-9);
        assert_eq!(p.load_at(100.0), 0.2, "flat after the last breakpoint");
        assert_eq!(p.phase_at(15.0), LoadPhase::RampUp);
        assert_eq!(p.phase_at(30.0), LoadPhase::RampDown);
        assert_eq!(p.min_load(), 0.2);
        assert_eq!(p.max_load(), 0.8);
    }

    #[test]
    fn single_point_trace_is_constant() {
        let p = LoadProfile::Trace {
            points: vec![(5.0, 0.7)],
        };
        assert_eq!(p.load_at(0.0), 0.7);
        assert_eq!(p.load_at(50.0), 0.7);
        assert_eq!(p.min_load(), p.max_load());
        assert_eq!(p.phase_at(50.0), LoadPhase::Steady);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        assert_eq!(
            LoadProfile::constant(f64::NAN).validate(),
            Err(LoadProfileError::NonFinite)
        );
        assert_eq!(
            LoadProfile::constant(2.0).validate(),
            Err(LoadProfileError::OutOfRange)
        );
        assert_eq!(
            LoadProfile::constant(0.0).validate(),
            Err(LoadProfileError::NeverPositive)
        );
        assert_eq!(
            LoadProfile::Diurnal {
                base: 0.5,
                amplitude: 0.2,
                period_s: 0.0,
                phase_s: 0.0,
            }
            .validate(),
            Err(LoadProfileError::InvalidDuration)
        );
        assert_eq!(
            LoadProfile::Trace { points: vec![] }.validate(),
            Err(LoadProfileError::EmptyTrace)
        );
        assert_eq!(
            LoadProfile::Trace {
                points: vec![(10.0, 0.4), (10.0, 0.6)],
            }
            .validate(),
            Err(LoadProfileError::UnsortedTrace)
        );
        assert_eq!(
            LoadProfile::FlashCrowd {
                base: 0.4,
                peak: 1.0,
                start_s: -1.0,
                ramp_s: 5.0,
                hold_s: 5.0,
                decay_s: 5.0,
            }
            .validate(),
            Err(LoadProfileError::InvalidDuration)
        );
        // Spikes go up: an inverted flash crowd would flip the ramp/peak phase labels.
        assert_eq!(
            LoadProfile::FlashCrowd {
                base: 0.9,
                peak: 0.3,
                start_s: 10.0,
                ramp_s: 2.0,
                hold_s: 5.0,
                decay_s: 2.0,
            }
            .validate(),
            Err(LoadProfileError::InvertedFlashCrowd)
        );
    }

    #[test]
    fn profiles_round_trip_through_json() {
        let profiles = vec![
            LoadProfile::constant(0.75),
            LoadProfile::Step {
                base: 0.4,
                to: 0.9,
                at_s: 30.0,
            },
            LoadProfile::Diurnal {
                base: 0.6,
                amplitude: 0.25,
                period_s: 600.0,
                phase_s: 150.0,
            },
            flash(),
            LoadProfile::Trace {
                points: vec![(0.0, 0.3), (60.0, 0.9), (120.0, 0.5)],
            },
        ];
        for p in profiles {
            let json = serde_json::to_string(&p).expect("serializable");
            let back: LoadProfile = serde_json::from_str(&json).expect("deserializable");
            assert_eq!(back, p);
            // Evaluation is identical through the round trip.
            for t in [0.0, 17.0, 45.0, 90.0, 1000.0] {
                assert_eq!(back.load_at(t), p.load_at(t));
                assert_eq!(back.phase_at(t), p.phase_at(t));
            }
        }
    }

    #[test]
    fn parsing_rejects_an_unsorted_trace_but_keeps_a_zero_load_constant() {
        let unsorted = r#"{"Trace":{"points":[[10.0,0.5],[5.0,0.6]]}}"#;
        let err = serde_json::from_str::<LoadProfile>(unsorted).unwrap_err();
        assert!(
            err.to_string().contains("invalid load profile")
                && err.to_string().contains("strictly increasing"),
            "{err}"
        );
        // A parked node's checkpointed profile offers no load; it must still parse.
        let idle: LoadProfile =
            serde_json::from_str(r#"{"Constant":{"load":0.0}}"#).expect("zero load parses");
        assert_eq!(idle, LoadProfile::constant(0.0));
        assert_eq!(idle.validate(), Err(LoadProfileError::NeverPositive));
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(LoadPhase::all().len(), 4);
        let names: Vec<&str> = LoadPhase::all().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["steady", "ramp-up", "peak", "ramp-down"]);
        assert_eq!(LoadPhase::RampUp.to_string(), "ramp-up");
        // The serialized representation matches the display name, so JSON archives never
        // disagree with printed tables (same convention as PolicyKind).
        for phase in LoadPhase::all() {
            let json = serde_json::to_string(&phase).expect("serializable");
            assert_eq!(json, format!("\"{}\"", phase.name()));
            let back: LoadPhase = serde_json::from_str(&json).expect("deserializable");
            assert_eq!(back, phase);
        }
    }

    #[test]
    fn describe_is_compact() {
        assert_eq!(LoadProfile::constant(0.75).describe(), "const0.75");
        assert_eq!(flash().describe(), "flash1.00@30s");
        assert_eq!(
            LoadProfile::Trace {
                points: vec![(0.0, 0.5), (1.0, 0.6)],
            }
            .describe(),
            "trace[2]"
        );
    }
}
