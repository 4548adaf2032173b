//! Fast polynomial approximations of `exp` and `ln` for stochastic sample generation.
//!
//! The per-interval hot path of the co-location simulator generates on the order of a
//! thousand lognormal latency samples per decision interval, and profiling shows the
//! `libm` transcendental calls inside that loop dominate the whole simulation. These
//! replacements use the standard range-reduction + short-polynomial constructions
//! (Cody–Waite for `exp`, atanh-series for `ln`), written as plain multiply/add chains
//! so the compiler can pipeline independent iterations. Two restricted forms drop the
//! edge branches their callers' inputs cannot reach, so loops over them vectorize, and
//! return the general functions' bits on their domains:
//!
//! - [`fast_exp_in_range`] is [`fast_exp`] on `[-700, 700]`. The latency-sample map
//!   ([`crate::simd::exp_map_in_range`]) uses it because its ziggurat normals satisfy
//!   `|z| <= 13.71`, which keeps `sigma * z` in range for every `sigma <= 51`.
//! - [`fast_ln_unit`] is [`fast_ln`] on `[2^-53, 1]`, where every `1 - unit` uniform
//!   lies. The monitor's skip-sampler uses it for its gap logarithms
//!   ([`crate::simd::ln_unit_ratio`]).
//!
//! Both loops run through [`crate::simd`], at AVX2 width when the CPU has it and at
//! baseline SSE2 width otherwise, with the same bits: the restricted forms are IEEE-754
//! operations and integer bit manipulation only, each rounded per lane the same way at
//! any width, and Rust never contracts a multiply and an add into a fused multiply-add.
//!
//! Accuracy is bounded well below `1e-11` relative error across the full double range
//! (tested against `std` in this module), which is far tighter than the statistical
//! noise of any sampled quantity — but these are approximations, so they are reserved
//! for *sample generation* (where only the distribution matters) and never used in
//! analytics or reported statistics.
//!
//! Determinism: both functions are pure sequences of IEEE-754 double operations with no
//! fused-multiply-add, so for a given input they return the same bits on every platform
//! and every run — unlike `libm`, whose `exp`/`ln`/`cos` bit patterns vary between
//! implementations. (The repo's determinism guarantee is per-build, so either property
//! suffices; the fixed bit patterns simply make these functions easier to test.)

/// log2(e), used to reduce `exp(x)` to `2^n * exp(r)`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High part of ln(2); exactly representable product with small integers.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part of ln(2) (`ln(2) - LN2_HI`).
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Adding and subtracting `2^52 + 2^51` rounds a double to the nearest integer without a
/// branch or an SSE4 `round` instruction; valid for |x| < 2^51.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// Fast `e^x` with relative error below ~2e-14 on the finite range.
///
/// Overflow (`x` ≳ 709.8) returns `f64::INFINITY`, deep underflow (`x` ≲ -745.2)
/// returns `0.0`, and NaN propagates — matching `f64::exp`'s edge behavior.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 709.782_712_893_384 {
        return f64::INFINITY;
    }
    if x < -745.2 {
        return 0.0;
    }
    // Cody–Waite range reduction: x = n·ln2 + r with |r| <= ln2/2.
    let nf = (x * LOG2_E + ROUND_SHIFT) - ROUND_SHIFT;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    // Taylor polynomial of e^r on [-0.3466, 0.3466]; remainder r^12/12! < 7e-15.
    let p = poly_exp(r);
    // Scale by 2^n through the exponent bits; a two-step scale keeps subnormal results
    // representable (n can reach -1074 before the underflow guard above triggers).
    let n = nf as i64;
    if (-1021..=1023).contains(&n) {
        p * f64::from_bits(((1023 + n) as u64) << 52)
    } else if n > 1023 {
        f64::INFINITY
    } else {
        // Subnormal range: scale in two exactly-representable steps.
        p * f64::from_bits(((1023 + n + 960) as u64) << 52) * f64::from_bits((63u64) << 52)
    }
}

/// [`fast_exp`] restricted to `x` in `[-700, 700]`: the same operation sequence with
/// the same result bits, minus the NaN, overflow and subnormal branches.
///
/// `n` is read from the mantissa bits of the rounding-shift sum `x·log2(e) + 1.5·2^52`
/// (whose ulp is 1, so its low bits hold `n` in two's complement) instead of through a
/// float-to-integer conversion. The body is straight-line `f64` and `u64` arithmetic
/// that LLVM vectorizes at any width: baseline SSE2, or the AVX2 build of the
/// latency-sample map ([`crate::simd::exp_map_in_range`]). Within the range,
/// `|n| <= 1010`, so the single-step scale `2^n` is a normal double and no branch of
/// [`fast_exp`] can differ. Outside it the result is unspecified (but never a panic).
#[inline]
pub fn fast_exp_in_range(x: f64) -> f64 {
    let shifted = x * LOG2_E + ROUND_SHIFT;
    let nf = shifted - ROUND_SHIFT;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    let p = poly_exp(r);
    let n = shifted.to_bits().wrapping_sub(ROUND_SHIFT.to_bits());
    p * f64::from_bits(n.wrapping_add(1023) << 52)
}

/// Degree-11 Taylor polynomial of `e^r`, Horner form.
#[inline]
fn poly_exp(r: f64) -> f64 {
    const C: [f64; 12] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5_040.0,
        1.0 / 40_320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
    ];
    let mut p = C[11];
    p = p * r + C[10];
    p = p * r + C[9];
    p = p * r + C[8];
    p = p * r + C[7];
    p = p * r + C[6];
    p = p * r + C[5];
    p = p * r + C[4];
    p = p * r + C[3];
    p = p * r + C[2];
    p = p * r + C[1];
    p * r + C[0]
}

/// Fast natural logarithm with absolute error below ~1e-13 (relative error below
/// ~2e-13 away from 1).
///
/// `ln(0) = -inf`, negative inputs and NaN return NaN, `ln(inf) = inf` — matching
/// `f64::ln`'s edge behavior. Subnormal inputs are scaled into the normal range first.
#[inline]
pub fn fast_ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return f64::INFINITY;
    }
    let (x, sub_offset) = if x < f64::MIN_POSITIVE {
        // Subnormal: scale by 2^54 (exact) and subtract 54·ln2 at the end.
        (x * 18_014_398_509_481_984.0, 54.0)
    } else {
        (x, 0.0)
    };
    let bits = x.to_bits();
    let e = ((bits >> 52) as i64 & 0x7ff) - 1023;
    // Mantissa m in [1, 2).
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    // Center m on 1 (m in [sqrt(1/2), sqrt(2))) so the atanh series argument stays small;
    // a select rather than a branch, since the comparison is a coin flip on uniforms.
    let high = m > std::f64::consts::SQRT_2;
    let m = if high { m * 0.5 } else { m };
    let ef = (e + i64::from(high)) as f64 - sub_offset;
    // ln m = 2·atanh(t) with t = (m-1)/(m+1), |t| <= 0.1716.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // Odd series through t^15; remainder 2·t^17/17 < 2e-14.
    let mut p = 1.0 / 15.0;
    p = p * t2 + 1.0 / 13.0;
    p = p * t2 + 1.0 / 11.0;
    p = p * t2 + 1.0 / 9.0;
    p = p * t2 + 1.0 / 7.0;
    p = p * t2 + 1.0 / 5.0;
    p = p * t2 + 1.0 / 3.0;
    p = p * t2 + 1.0;
    let ln_m = 2.0 * t * p;
    (ef * LN2_HI + ln_m) + ef * LN2_LO
}

/// [`fast_ln`] restricted to `x` in `[2^-53, 1]`: the same operation sequence with the
/// same result bits, minus the NaN, zero, infinity and subnormal branches (none of which
/// can fire there) and the subnormal offset (`- 0.0`, a no-op on every input here).
///
/// The exponent reaches `f64` through the rounding-shift bits,
/// `from_bits(bits(1.5·2^52) + k) - 1.5·2^52`, which is exact for `|k| < 2^51` and
/// equals `k as f64`; unlike an `i64 as f64` cast, which has no vector instruction
/// below AVX-512, it vectorizes at baseline SSE2 and AVX2 width. The body is
/// straight-line `f64` and `u64` arithmetic, so the skip-sampling monitor's 32-gap
/// logarithm loop ([`crate::simd::ln_unit_ratio`]) vectorizes. Outside the range the
/// result is unspecified (but never a panic).
#[inline]
pub fn fast_ln_unit(x: f64) -> f64 {
    let bits = x.to_bits();
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    let high = m > std::f64::consts::SQRT_2;
    let m = if high { m * 0.5 } else { m };
    // Unbiased exponent plus the centring carry, in two's complement.
    let k = (bits >> 52)
        .wrapping_sub(1023)
        .wrapping_add(u64::from(high));
    let ef = f64::from_bits(ROUND_SHIFT.to_bits().wrapping_add(k)) - ROUND_SHIFT;
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut p = 1.0 / 15.0;
    p = p * t2 + 1.0 / 13.0;
    p = p * t2 + 1.0 / 11.0;
    p = p * t2 + 1.0 / 9.0;
    p = p * t2 + 1.0 / 7.0;
    p = p * t2 + 1.0 / 5.0;
    p = p * t2 + 1.0 / 3.0;
    p = p * t2 + 1.0;
    let ln_m = 2.0 * t * p;
    (ef * LN2_HI + ln_m) + ef * LN2_LO
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(approx: f64, exact: f64) -> f64 {
        if exact == 0.0 {
            approx.abs()
        } else {
            (approx - exact).abs() / exact.abs()
        }
    }

    #[test]
    fn exp_matches_std_across_the_sampling_range() {
        // The sampler evaluates exp on sigma·z with |sigma·z| rarely above ~10, but the
        // tail machinery can reach a few hundred; sweep densely well past both.
        let mut worst = 0.0f64;
        let mut x = -700.0;
        while x <= 700.0 {
            let e = rel_err(fast_exp(x), x.exp());
            worst = worst.max(e);
            x += 0.001_7;
        }
        assert!(worst < 2e-14, "worst exp relative error {worst:.3e}");
    }

    #[test]
    fn exp_edge_behavior_matches_std() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(800.0), f64::INFINITY);
        assert_eq!(fast_exp(-800.0), 0.0);
        // Subnormal results stay finite and ordered.
        let tiny = fast_exp(-744.0);
        assert!(tiny > 0.0 && tiny < 1e-300);
        assert!(rel_err(tiny, (-744.0f64).exp()) < 1e-10);
    }

    #[test]
    fn ln_matches_std_across_the_sampling_range() {
        // The sampler evaluates ln on uniforms in (0, 1) and on latencies up to ~1e6 µs.
        let mut worst = 0.0f64;
        let mut x = 1e-12;
        while x < 1e7 {
            let e = (fast_ln(x) - x.ln()).abs() / x.ln().abs().max(1.0);
            worst = worst.max(e);
            x *= 1.000_93;
        }
        assert!(worst < 1e-13, "worst ln error {worst:.3e}");
    }

    #[test]
    fn ln_edge_behavior_matches_std() {
        assert_eq!(fast_ln(1.0), 0.0);
        assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
        assert!(fast_ln(-1.0).is_nan());
        assert!(fast_ln(f64::NAN).is_nan());
        assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
        // Subnormals: exact scaling path.
        let sub = 5e-320f64;
        assert!((fast_ln(sub) - sub.ln()).abs() < 1e-10);
        // MIN_POSITIVE boundary uses the normal path.
        assert!((fast_ln(f64::MIN_POSITIVE) - f64::MIN_POSITIVE.ln()).abs() < 1e-10);
    }

    #[test]
    fn exp_in_range_is_bit_identical_to_fast_exp() {
        // Dense sweep with an irrational-ish step, so the points land on every residue
        // of the range reduction, plus the exact endpoints and signed zeros.
        let mut x = -700.0f64;
        while x <= 700.0 {
            assert_eq!(
                fast_exp_in_range(x).to_bits(),
                fast_exp(x).to_bits(),
                "x = {x}"
            );
            x += 0.000_713_3;
        }
        for x in [-700.0, 700.0, 0.0, -0.0, 1e-300, -1e-300, 0.5 * LN2_HI] {
            assert_eq!(
                fast_exp_in_range(x).to_bits(),
                fast_exp(x).to_bits(),
                "x = {x}"
            );
        }
    }

    /// `fast_ln` as it was written before its mantissa-centring branch became a select.
    fn branchy_ln(x: f64) -> f64 {
        if x.is_nan() || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x == f64::INFINITY {
            return f64::INFINITY;
        }
        let (x, sub_offset) = if x < f64::MIN_POSITIVE {
            (x * 18_014_398_509_481_984.0, 54.0)
        } else {
            (x, 0.0)
        };
        let bits = x.to_bits();
        let mut e = ((bits >> 52) as i64 & 0x7ff) - 1023;
        let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
        if m > std::f64::consts::SQRT_2 {
            m *= 0.5;
            e += 1;
        }
        let ef = e as f64 - sub_offset;
        let t = (m - 1.0) / (m + 1.0);
        let t2 = t * t;
        let mut p = 1.0 / 15.0;
        p = p * t2 + 1.0 / 13.0;
        p = p * t2 + 1.0 / 11.0;
        p = p * t2 + 1.0 / 9.0;
        p = p * t2 + 1.0 / 7.0;
        p = p * t2 + 1.0 / 5.0;
        p = p * t2 + 1.0 / 3.0;
        p = p * t2 + 1.0;
        let ln_m = 2.0 * t * p;
        (ef * LN2_HI + ln_m) + ef * LN2_LO
    }

    #[test]
    fn ln_select_is_bit_identical_to_the_branchy_form() {
        // Every uniform the samplers feed it: k·2^-53 for k in (0, 2^53], sampled densely
        // at the bottom and strided across the rest of (0, 1].
        let ulp = 1.0 / (1u64 << 53) as f64;
        for k in 1..=100_000u64 {
            let u = k as f64 * ulp;
            assert_eq!(fast_ln(u).to_bits(), branchy_ln(u).to_bits(), "u = {u}");
        }
        let mut u = 1.0f64;
        while u > 1e-9 {
            assert_eq!(fast_ln(u).to_bits(), branchy_ln(u).to_bits(), "u = {u}");
            u -= 0.000_012_7 * u.max(1e-3);
        }
        assert_eq!(fast_ln(1.0).to_bits(), branchy_ln(1.0).to_bits());
        // The select's switch point: mantissas on both sides of sqrt(2), at every scale.
        let root2 = std::f64::consts::SQRT_2.to_bits();
        for scale in [1e-300, 2.0f64.powi(-53), 0.5, 1.0, 4.0, 1e300] {
            for d in -2_000i64..=2_000 {
                let x = f64::from_bits((root2 as i64 + d) as u64) * scale;
                assert_eq!(fast_ln(x).to_bits(), branchy_ln(x).to_bits(), "x = {x}");
            }
        }
        // Edge values and subnormals take the same path through both forms.
        for x in [
            0.0,
            -1.0,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            5e-320,
            1.5e-310,
        ] {
            assert_eq!(fast_ln(x).to_bits(), branchy_ln(x).to_bits(), "x = {x}");
        }
    }

    #[test]
    fn ln_unit_is_bit_identical_to_fast_ln() {
        let check = |u: f64| {
            assert_eq!(fast_ln_unit(u).to_bits(), fast_ln(u).to_bits(), "u = {u:e}");
        };
        // Every uniform the skip-sampler can feed it is k·2^-53 for k in [1, 2^53]:
        // the bottom 2·10^5 of them and the top 2·10^5 below 1, plus 1 itself.
        let ulp = 1.0 / (1u64 << 53) as f64;
        for k in 1..=200_000u64 {
            check(k as f64 * ulp);
            check(1.0 - k as f64 * ulp);
        }
        check(1.0);
        // A dense geometric sweep of every binade down to the 2^-53 endpoint.
        let mut u = 1.0f64;
        while u >= ulp {
            check(u);
            u *= 0.999_87;
        }
        check(ulp);
        // The centring select's switch point, on both sides of sqrt(2), at the bottom,
        // middle and top binades of the domain.
        let root2 = std::f64::consts::SQRT_2.to_bits();
        for scale in [ulp, 0.25, 0.5] {
            for d in -2_000i64..=2_000 {
                check(f64::from_bits((root2 as i64 + d) as u64) * scale);
            }
        }
    }

    #[test]
    fn exp_ln_round_trip() {
        let mut x = 1e-6;
        while x < 1e6 {
            assert!(
                rel_err(fast_exp(fast_ln(x)), x) < 1e-12,
                "round trip at {x}"
            );
            x *= 1.37;
        }
    }
}
