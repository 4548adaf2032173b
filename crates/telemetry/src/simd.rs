//! The two per-interval sample loops, run at the widest vector width the CPU offers.
//!
//! [`exp_map_in_range`] maps ziggurat normals to lognormal latencies (the map behind
//! [`crate::rng::LatencySamples`]) and [`ln_unit_ratio`] turns the monitor's uniforms
//! into skip-sampling gaps. Each loop body is written once. On x86_64 a dispatcher runs
//! it compiled for AVX2 (4 lanes) when the CPU has it, and as the portable build (2
//! lanes on baseline SSE2) otherwise; on other targets only the portable build exists.
//!
//! Both builds return the same bits. The bodies are IEEE-754 additions,
//! multiplications, divisions and comparisons plus integer bit operations, each
//! correctly rounded per lane whatever the vector width, and Rust never contracts a
//! multiply and an add into a fused multiply-add (AVX2 does not enable FMA either). The
//! tests below check the dispatched loops against the portable bodies bit for bit.
//!
//! This is the workspace's only module with `unsafe` code: one call per kernel into its
//! AVX2 build, made right after the runtime feature check.

use crate::fastmath::{fast_exp_in_range, fast_ln_unit};

/// Maps every `v` in `values` to `median * fast_exp_in_range(sigma * v)` in place.
///
/// The result is [`crate::fastmath::fast_exp`]'s where `sigma * v` lies in
/// `[-700, 700]` and unspecified (but never a panic) outside it.
#[inline]
pub fn exp_map_in_range(median: f64, sigma: f64, values: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `exp_map_in_range_avx2` needs AVX2, which the check above found.
        unsafe { exp_map_in_range_avx2(median, sigma, values) };
        return;
    }
    exp_map_in_range_portable(median, sigma, values);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn exp_map_in_range_avx2(median: f64, sigma: f64, values: &mut [f64]) {
    exp_map_in_range_portable(median, sigma, values);
}

/// The loop body of [`exp_map_in_range`], also the per-element map of
/// [`crate::rng::LatencySamples::get`], which reads one sample and does not dispatch.
#[inline(always)]
pub(crate) fn exp_map_in_range_portable(median: f64, sigma: f64, values: &mut [f64]) {
    for v in values.iter_mut() {
        *v = median * fast_exp_in_range(sigma * *v);
    }
}

/// Writes `fast_ln_unit(uniforms[k]) / divisor` to `out[k]` for every
/// `k < uniforms.len()`.
///
/// The logarithm is [`crate::fastmath::fast_ln`]'s for uniforms in `[2^-53, 1]` and
/// unspecified (but never a panic) outside it.
///
/// # Panics
///
/// Panics if `out` is shorter than `uniforms`.
#[inline]
pub fn ln_unit_ratio(uniforms: &[f64], divisor: f64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `ln_unit_ratio_avx2` needs AVX2, which the check above found.
        unsafe { ln_unit_ratio_avx2(uniforms, divisor, out) };
        return;
    }
    ln_unit_ratio_portable(uniforms, divisor, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ln_unit_ratio_avx2(uniforms: &[f64], divisor: f64, out: &mut [f64]) {
    ln_unit_ratio_portable(uniforms, divisor, out);
}

/// The loop body of [`ln_unit_ratio`].
#[inline(always)]
fn ln_unit_ratio_portable(uniforms: &[f64], divisor: f64, out: &mut [f64]) {
    let out = &mut out[..uniforms.len()];
    for (o, &u) in out.iter_mut().zip(uniforms) {
        *o = fast_ln_unit(u) / divisor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmath::{fast_exp, fast_ln};
    use crate::rng::{sample_normal_ziggurat, seeded_rng};
    use rand::Rng;

    /// Every vector remainder of 2, 4 and 8 lanes, a full monitor chunk either side, and
    /// one interval's worth of samples.
    const LENGTHS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 1_000];

    /// The largest `|z|` the ziggurat returns; at `sigma` 51 it puts `sigma * z` at the
    /// edge of `fast_exp_in_range`'s domain.
    const Z_MAX: f64 = 13.71;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn exp_map_returns_the_portable_bits() {
        let mut rng = seeded_rng(41);
        for sigma in [0.05, 1.0, 51.0] {
            for n in LENGTHS {
                let mut normals: Vec<f64> =
                    (0..n).map(|_| sample_normal_ziggurat(&mut rng)).collect();
                // The extremes at both ends, so they land in vector lanes and in the
                // scalar remainder.
                if let Some(first) = normals.first_mut() {
                    *first = Z_MAX;
                }
                if n > 1 {
                    normals[n - 1] = -Z_MAX;
                }
                if n > 2 {
                    normals[n / 2] = -Z_MAX;
                }
                let mut dispatched = normals.clone();
                exp_map_in_range(0.004, sigma, &mut dispatched);
                let mut portable = normals.clone();
                exp_map_in_range_portable(0.004, sigma, &mut portable);
                assert_eq!(bits(&dispatched), bits(&portable), "sigma {sigma} n {n}");
                let reference: Vec<f64> = normals
                    .iter()
                    .map(|z| 0.004 * fast_exp(sigma * z))
                    .collect();
                assert_eq!(bits(&dispatched), bits(&reference), "sigma {sigma} n {n}");
            }
        }
    }

    #[test]
    fn ln_ratio_returns_the_portable_bits() {
        let mut rng = seeded_rng(43);
        let ulp = 1.0 / (1u64 << 53) as f64;
        for divisor in [(1.0f64 - 0.2).ln(), (1.0f64 - 0.999).ln()] {
            for n in LENGTHS {
                // The uniforms the monitor draws, `1 - [0, 1)`, with both endpoints of
                // their domain planted at the ends of the slice.
                let mut uniforms: Vec<f64> =
                    (0..n).map(|_| 1.0 - rng.gen_range(0.0f64..1.0)).collect();
                if let Some(first) = uniforms.first_mut() {
                    *first = ulp;
                }
                if n > 1 {
                    uniforms[n - 1] = 1.0;
                }
                if n > 2 {
                    uniforms[n / 2] = ulp;
                }
                // A longer `out` keeps its tail.
                let mut dispatched = vec![-1.0; n + 1];
                ln_unit_ratio(&uniforms, divisor, &mut dispatched);
                let mut portable = vec![-1.0; n + 1];
                ln_unit_ratio_portable(&uniforms, divisor, &mut portable);
                assert_eq!(
                    bits(&dispatched),
                    bits(&portable),
                    "divisor {divisor} n {n}"
                );
                assert_eq!(dispatched[n], -1.0);
                let reference: Vec<f64> = uniforms.iter().map(|&u| fast_ln(u) / divisor).collect();
                assert_eq!(
                    bits(&dispatched[..n]),
                    bits(&reference),
                    "divisor {divisor} n {n}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn ln_ratio_rejects_a_short_output() {
        ln_unit_ratio(&[0.5; 4], -1.0, &mut [0.0; 3]);
    }
}
