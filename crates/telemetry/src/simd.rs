//! The per-sample loops of sample generation, monitoring and fleet recording, run at
//! the widest vector width the CPU offers.
//!
//! [`exp_map_in_range`] maps ziggurat normals to lognormal latencies (the map behind
//! [`crate::rng::LatencySamples`]), [`ln_unit_ratio`] turns the monitor's uniforms into
//! skip-sampling gaps, and `bucket_scaled` clamps and buckets a chunk of the samples
//! [`crate::histogram::LatencyHistogram::record_scaled_n`] records. On x86_64 each
//! kernel runs an AVX2 build (4 lanes) when the CPU has it; otherwise, and on other
//! targets, it runs its portable body.
//!
//! The first two loop bodies are written once, and the portable build compiles them
//! for baseline SSE2 (2 lanes). The bucketing kernel has two bodies: AVX2 intrinsics,
//! and as portable body the histogram's scalar loop. A branch-free loop written once
//! was no match for them: over 1,000 latencies on a 2-core AVX2 host it took 0.9x the
//! scalar loop's time compiled for AVX2 and 1.9x compiled for SSE2, where the
//! intrinsics take 0.4-0.5x.
//!
//! Every build returns the same bits. The bodies are IEEE-754 additions,
//! multiplications, divisions and comparisons plus integer bit operations, each
//! correctly rounded per lane whatever the vector width, and Rust never contracts a
//! multiply and an add into a fused multiply-add (AVX2 does not enable FMA either). The
//! tests below check the dispatched kernels against the portable bodies bit for bit.
//!
//! This is the workspace's only module with `unsafe` code: one call per kernel into its
//! AVX2 build, made right after the runtime feature check, and the pointer loads and
//! stores of the bucketing kernel's intrinsics.

use crate::fastmath::{fast_exp_in_range, fast_ln_unit};
#[cfg(target_arch = "x86_64")]
use crate::histogram::{EXP_BUCKETS, SUB_BUCKETS};

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

/// Values per [`bucket_scaled`] call.
pub(crate) const BUCKET_CHUNK: usize = 64;

/// Writes `v = clamp(values[k] * scale)` to `clamped[k]` and the index of `v`'s bucket
/// to `buckets[k]`, and folds every `v` into `min` and `max`, all as
/// [`crate::histogram::LatencyHistogram::record_scaled_n`]'s scalar loop does.
///
/// Returns `false`, leaving everything untouched, when the CPU lacks AVX2: the scalar
/// loop is this kernel's portable body, and the caller runs it instead.
#[inline]
pub(crate) fn bucket_scaled(
    values: &[f64; BUCKET_CHUNK],
    scale: f64,
    clamped: &mut [f64; BUCKET_CHUNK],
    buckets: &mut [u64; BUCKET_CHUNK],
    min: &mut f64,
    max: &mut f64,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `bucket_scaled_avx2` needs AVX2, which the check above found.
        unsafe { bucket_scaled_avx2(values, scale, clamped, buckets, min, max) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (values, scale, clamped, buckets, min, max);
    false
}

/// [`bucket_scaled`] with 4 lanes per step.
///
/// - The clamp keeps a product only where `p > 0 && p < inf`, so NaN and `-0.0` become
///   `+0.0` as in the scalar loop.
/// - From 1.0 up, the bucket index is `(bits >> 47) - 1023 * 32`: the biased exponent
///   times 32 plus the top 5 mantissa bits, the scalar loop's index with the bias
///   folded in, capped at the open-ended last bucket. Below 1.0 it is `v * 32`
///   truncated, which is `floor(v * 32)`, exact in `[0, 32)`.
/// - `min_pd(v, lo)` is `v < lo ? v : lo` and `max_pd(v, hi)` is `v > hi ? v : hi`,
///   the scalar loop's strict comparisons. Clamped values are never NaN or `-0.0`, so
///   the extremes do not depend on the order the lanes fold them in.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn bucket_scaled_avx2(
    values: &[f64; BUCKET_CHUNK],
    scale: f64,
    clamped: &mut [f64; BUCKET_CHUNK],
    buckets: &mut [u64; BUCKET_CHUNK],
    min: &mut f64,
    max: &mut f64,
) {
    use std::arch::x86_64::*;
    const LOG_SUB_BUCKETS: i32 = SUB_BUCKETS.trailing_zeros() as i32;
    let scale = _mm256_set1_pd(scale);
    let zero = _mm256_setzero_pd();
    let infinity = _mm256_set1_pd(f64::INFINITY);
    let one = _mm256_set1_pd(1.0);
    let sub_buckets = _mm256_set1_pd(SUB_BUCKETS as f64);
    let bias = _mm256_set1_epi64x(1023 * SUB_BUCKETS as i64);
    let last = _mm256_set1_epi64x((EXP_BUCKETS * SUB_BUCKETS - 1) as i64);
    let mut lo = _mm256_set1_pd(*min);
    let mut hi = _mm256_set1_pd(*max);
    for k in (0..BUCKET_CHUNK).step_by(4) {
        // SAFETY: `k + 4 <= BUCKET_CHUNK`, so the four lanes lie inside `values`.
        let product = _mm256_mul_pd(unsafe { _mm256_loadu_pd(values.as_ptr().add(k)) }, scale);
        let kept = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GT_OQ>(product, zero),
            _mm256_cmp_pd::<_CMP_LT_OQ>(product, infinity),
        );
        let v = _mm256_and_pd(product, kept);
        let high = _mm256_sub_epi64(
            _mm256_srli_epi64::<{ 52 - LOG_SUB_BUCKETS }>(_mm256_castpd_si256(v)),
            bias,
        );
        let high = _mm256_blendv_epi8(high, last, _mm256_cmpgt_epi64(high, last));
        let low = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(_mm256_mul_pd(v, sub_buckets)));
        let below_one = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LT_OQ>(v, one));
        let index = _mm256_blendv_epi8(high, low, below_one);
        // SAFETY: `k + 4 <= BUCKET_CHUNK`, so the four lanes lie inside `clamped` and
        // `buckets`; `storeu` needs no alignment.
        unsafe {
            _mm256_storeu_pd(clamped.as_mut_ptr().add(k), v);
            _mm256_storeu_si256(buckets.as_mut_ptr().add(k).cast(), index);
        }
        lo = _mm256_min_pd(v, lo);
        hi = _mm256_max_pd(v, hi);
    }
    let mut lanes = [[0.0; 4]; 2];
    // SAFETY: each of `lanes` holds four doubles.
    unsafe {
        _mm256_storeu_pd(lanes[0].as_mut_ptr(), lo);
        _mm256_storeu_pd(lanes[1].as_mut_ptr(), hi);
    }
    for (&l, &h) in lanes[0].iter().zip(&lanes[1]) {
        if l < *min {
            *min = l;
        }
        if h > *max {
            *max = h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmath::{fast_exp, fast_ln};
    use crate::histogram::{LatencyHistogram, SUB_BUCKETS};
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

    /// Empty, under one chunk, every remainder around one and two chunks, and one
    /// interval's worth of samples.
    const RECORD_LENGTHS: [usize; 12] = [0, 1, 3, 4, 5, 63, 64, 65, 127, 128, 129, 1_000];

    /// The values the bucketing kernel must clamp and bucket as the scalar loop does:
    /// non-finite values, signed zeros, negatives and subnormals; every `k/32` edge of
    /// the linear `[0, 1)` buckets and the value one ulp below it; the first two
    /// power-of-two buckets; and both sides of the clamp bucket's edge at 2^40.
    fn edge_values() -> Vec<f64> {
        let two_40 = 2f64.powi(40);
        let mut edges = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -1.5,
            -f64::MAX,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE.next_down(),
            1.0,
            2.0,
            two_40.next_down(),
            two_40,
            f64::MAX,
        ];
        for k in 1..=SUB_BUCKETS {
            let edge = k as f64 / SUB_BUCKETS as f64;
            edges.extend([edge.next_down(), edge]);
        }
        edges
    }

    /// The histogram's serialized bits.
    fn json(h: &LatencyHistogram) -> String {
        serde_json::to_string(h).expect("histograms serialize")
    }

    /// Records `values` through the dispatched path and as a `record_n(v * scale, n)`
    /// loop, whose one-value slices always take the scalar loop, from an empty histogram
    /// and from one already holding values, and asserts the same bits.
    fn assert_records_the_scalar_bits(values: &[f64], scale: f64, what: &str) {
        let mut held = LatencyHistogram::new();
        held.record_scaled_n(&[0.3, 7.0, 4e3], 1.0, 2);
        for start in [LatencyHistogram::new(), held] {
            for n in [1, 3] {
                let mut dispatched = start.clone();
                dispatched.record_scaled_n(values, scale, n);
                let mut scalar = start.clone();
                for &v in values {
                    scalar.record_n(v * scale, n);
                }
                assert_eq!(
                    json(&dispatched),
                    json(&scalar),
                    "{what}, scale {scale}, weight {n}, from {} values",
                    start.count()
                );
            }
        }
    }

    #[test]
    fn record_scaled_n_returns_the_scalar_loop_bits() {
        let mut rng = seeded_rng(47);
        let edges = edge_values();
        for n in RECORD_LENGTHS {
            // Latencies in seconds, as a node records them, with the edge values
            // planted at the start, middle and end of every chunk and of the tail.
            let mut values: Vec<f64> = (0..n)
                .map(|_| 1e-4 * fast_exp(0.6 * sample_normal_ziggurat(&mut rng)))
                .collect();
            let marks = (0..n.div_ceil(BUCKET_CHUNK)).flat_map(|c| {
                let start = c * BUCKET_CHUNK;
                let end = n.min(start + BUCKET_CHUNK) - 1;
                [start, (start + end) / 2, end]
            });
            for (i, at) in marks.enumerate() {
                values[at] = edges[i % edges.len()] / 1e6;
            }
            assert_records_the_scalar_bits(&values, 1e6, &format!("latencies, n {n}"));
            // The edge values alone, shifted through every lane of a 4-lane step.
            for shift in 0..4 {
                let cycled: Vec<f64> = (0..n).map(|i| edges[(i + shift) % edges.len()]).collect();
                for scale in [1.0, 3.0] {
                    let what = format!("edges shifted {shift}, n {n}");
                    assert_records_the_scalar_bits(&cycled, scale, &what);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn ln_ratio_rejects_a_short_output() {
        ln_unit_ratio(&[0.5; 4], -1.0, &mut [0.0; 3]);
    }
}
