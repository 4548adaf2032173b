//! Deterministic random-number helpers and samplers.
//!
//! Every stochastic component in the reproduction (request arrivals, service-time noise,
//! kernel input generation) draws from a seeded [`rand::rngs::SmallRng`] created through
//! this module, so experiment results are reproducible run-to-run.
//!
//! Per-interval latency samples are the hot path: [`LatencySamples`] draws them as
//! 256-layer ziggurat normals ([`sample_normal_ziggurat`]) and maps a normal to a
//! lognormal latency only when a reader asks for it, through the one mapping loop of
//! [`crate::simd::exp_map_in_range`] (AVX2 width when the CPU has it, same bits).

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Serialize, Value};

use crate::fastmath::{fast_exp, fast_ln};
use crate::simd::{exp_map_in_range, exp_map_in_range_portable};

/// Creates a deterministic RNG from an explicit seed.
///
/// # Example
///
/// ```
/// use pliant_telemetry::rng::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(7);
/// let mut b = seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a sub-seed from a parent seed and a stream label.
///
/// Used to give each component of an experiment (arrival process, service times, kernel
/// input, controller jitter) an independent but reproducible stream.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the combined value: cheap, well-distributed, deterministic.
    let mut z = parent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a Poisson-distributed count with the given mean.
///
/// Uses Knuth's multiplication method for small means and a normal approximation for large
/// means (>64), which is plenty accurate for request-count-per-tick sampling.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation with continuity correction.
        let g = sample_standard_normal(rng);
        let v = mean + mean.sqrt() * g + 0.5;
        return v.max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k;
        }
    }
}

/// Samples a standard normal variate using the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0f64..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a lognormal variate parameterized by the *median* and the shape `sigma` (the
/// standard deviation of the underlying normal).
///
/// Service-time distributions of interactive cloud services are heavy-tailed; a lognormal
/// body is a standard modelling choice and produces realistic p99/p50 ratios.
///
/// # Panics
///
/// Panics if `median` is not strictly positive or `sigma` is negative.
pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "lognormal median must be positive");
    assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
    let n = sample_standard_normal(rng);
    median * (sigma * n).exp()
}

/// Number of ziggurat layers (one base strip including the tail plus 255 stacked
/// rectangles of equal area).
const ZIG_LAYERS: usize = 256;
/// Right edge of the base strip of the 256-layer normal ziggurat.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Common area of every ziggurat region (rectangle or base strip plus tail).
const ZIG_V: f64 = 4.928_673_233_974_655e-3;
/// `2^-53`, the step between the 53-bit uniforms a draw's top bits make.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Precomputed ziggurat edges `x[i]` and densities `f[i] = exp(-x[i]^2 / 2)`, plus the
/// two tables [`LatencySamples::fill`]'s fast-accept test reads in place of `x`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
    /// Signed, prescaled edges: `xs[s << 8 | i] = ±x[i] · 2^-53`, negative for sign bit
    /// `s = 1`, so a draw's low 9 bits index its layer and sign at once.
    xs: [f64; 2 * ZIG_LAYERS],
    /// Integer fast-accept thresholds: `th[i]` is the smallest 53-bit uniform `u` whose
    /// candidate `u · 2^-53 · x[i]` reaches `x[i+1]` (`2^53` when none does), so a draw
    /// is wholly inside its layer's inner rectangle exactly when `u < th[i]`.
    th: [u64; ZIG_LAYERS],
}

/// Builds the ziggurat tables once per process via the standard downward recurrence
/// `x[i] = f^-1(V / x[i-1] + f(x[i-1]))`; `x[0]` is the base strip's pseudo-edge
/// `V / f(R)` (> R) so one uniform draw covers both the strip and the tail branch.
fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |v: f64| (-0.5 * v * v).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        let mut f = [0.0; ZIG_LAYERS + 1];
        for i in 0..=ZIG_LAYERS {
            f[i] = pdf(x[i]);
        }
        let mut xs = [0.0; 2 * ZIG_LAYERS];
        let mut th = [0; ZIG_LAYERS];
        for i in 0..ZIG_LAYERS {
            // Scaling by a power of two is exact, so `u as f64 * xs[i]` rounds once, as
            // `zig_candidate`'s product does, to the same bits.
            xs[i] = x[i] * UNIT;
            xs[ZIG_LAYERS + i] = -xs[i];
            // The candidate's rounding is monotone in `u`: binary search for the first
            // `u` it rejects.
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if mid as f64 * UNIT * x[i] >= x[i + 1] {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            th[i] = lo;
        }
        ZigTables { x, f, xs, th }
    })
}

/// Samples a standard normal variate with the 256-layer ziggurat algorithm
/// (Marsaglia–Tsang).
///
/// One 64-bit RNG draw decides about 98.5% of variates: the draw falls wholly inside
/// its layer's inner rectangle, a test of two edges and two multiplies, versus a
/// logarithm, a square root, and a cosine for the Box–Muller sampler in
/// [`sample_standard_normal`]. The other 1.5% take the wedge and tail tests. The two
/// samplers produce the same distribution but different streams; Box–Muller is kept
/// for the calibrated kernel and noise streams whose historical sequences tests pin.
/// Batch sample generation ([`LatencySamples::fill`]) returns this sampler's bits
/// through cheaper tables; this textbook float-compare form is the reference its tests
/// compare against.
///
/// Every variate satisfies `|z| < R + 53·ln(2)/R ≈ 13.71` (`R` = 3.654, the base
/// strip's edge): rectangles and wedges stay below `R`, and the tail's exponential
/// candidate is at most `-ln(2^-53)/R` because the smallest non-zero uniform is
/// `2^-53` (a zero uniform is rejected).
// pliant-lint: allow(test-only-pub) the one-draw scalar reference the batch-fill tests compare against
pub fn sample_normal_ziggurat<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = zig_tables();
    let bits: u64 = rng.gen();
    zig_normal(rng, t, bits)
}

/// One ziggurat variate from its first draw `bits`: the inline fast-accept test, with
/// everything else in [`zig_reject`].
#[inline(always)]
fn zig_normal<R: Rng + ?Sized>(rng: &mut R, t: &ZigTables, bits: u64) -> f64 {
    let (i, x) = zig_candidate(t, bits);
    // Wholly inside the layer's inner rectangle: accept immediately.
    if x < t.x[i + 1] {
        return with_sign(x, bits);
    }
    zig_reject(rng, t, bits, i, x)
}

/// The layer `i` and magnitude `x` a draw proposes: one draw provides the layer in the
/// low 8 bits, the sign in bit 8 and a 53-bit uniform in bits 11..64, all independent.
#[inline(always)]
fn zig_candidate(t: &ZigTables, bits: u64) -> (usize, f64) {
    let i = (bits & 0xff) as usize;
    let x = (bits >> 11) as f64 * UNIT * t.x[i];
    (i, x)
}

/// Gives the non-negative `x` the sign of draw bit 8 by XOR into the sign bit: the same
/// bits as multiplying by ±1, without the multiply.
#[inline(always)]
fn with_sign(x: f64, bits: u64) -> f64 {
    f64::from_bits(x.to_bits() ^ ((bits & 0x100) << 55))
}

/// The ziggurat's rare paths (about 1.5% of draws): the tail and wedge tests for a draw
/// that missed its layer's inner rectangle, then fresh draws until one is accepted.
/// Consumes exactly the RNG words the textbook loop would, in the same order.
#[cold]
#[inline(never)]
fn zig_reject<R: Rng + ?Sized>(
    rng: &mut R,
    t: &ZigTables,
    mut bits: u64,
    mut i: usize,
    mut x: f64,
) -> f64 {
    loop {
        if i == 0 {
            // Base strip: x in [R, x[0]) selects the tail (Marsaglia's exponential
            // rejection; a zero uniform yields an infinite candidate and is rejected).
            loop {
                let u1: f64 = rng.gen();
                let u2: f64 = rng.gen();
                let xt = -fast_ln(u1) / ZIG_R;
                let yt = -fast_ln(u2);
                if xt.is_finite() && 2.0 * yt >= xt * xt {
                    return with_sign(ZIG_R + xt, bits);
                }
            }
        }
        // Wedge: x in [x[i+1], x[i]); accept with probability proportional to the
        // density overhang above the layer's flat top.
        let y = t.f[i] + (t.f[i + 1] - t.f[i]) * rng.gen::<f64>();
        if y < fast_exp(-0.5 * x * x) {
            return with_sign(x, bits);
        }
        bits = rng.gen();
        (i, x) = zig_candidate(t, bits);
        if x < t.x[i + 1] {
            return with_sign(x, bits);
        }
    }
}

/// Largest `sigma` for which `sigma·z` provably stays inside
/// [`fast_exp_in_range`](crate::fastmath::fast_exp_in_range)'s
/// `[-700, 700]` domain: `51 × 13.71 ≈ 699` (see [`sample_normal_ziggurat`] for the
/// bound on `|z|`).
const IN_RANGE_MAX_SIGMA: f64 = 51.0;

/// One interval's lognormal latency samples, parameterized like [`sample_lognormal`]
/// (median and shape `sigma`), stored as their ziggurat normals and mapped on read.
///
/// This is the batch sampler behind the co-location hot path. [`Self::fill`] draws every
/// normal, in the same RNG order as drawing the samples one at a time, but a sample
/// becomes a latency, `median * fast_exp_in_range(sigma * z)`, only when something
/// reads it: the monitor reads about a fifth of them. Each read path maps through one
/// branch-free loop, [`exp_map_in_range`], which runs at AVX2 width when the CPU has it
/// and returns the same bits either way: [`Self::gather`] maps a selection, and
/// [`Self::materialize`] maps every sample in place. Because
/// `|z| <= 13.71`, `sigma * z` stays inside `[-700, 700]` whenever `sigma <= 51`, where
/// [`fast_exp_in_range`](crate::fastmath::fast_exp_in_range) returns [`fast_exp`]'s
/// bits; larger shapes fall back to
/// [`fast_exp`] itself. Every value read, and the RNG position after [`Self::fill`],
/// are bit-identical to drawing `sample_normal_ziggurat` then `fast_exp` one sample at
/// a time. Ziggurat normals plus the polynomial exponential are several times faster
/// per sample than [`sample_lognormal`]'s Box–Muller + `libm` pipeline: identical
/// distribution, different stream.
///
/// A reader that needs every sample, such as a fleet node's histogram, calls
/// [`Self::materialize`] once; every read after it returns the stored latencies, with
/// the same bits, and the next [`Self::fill`] or [`Self::clear`] returns to mapping on
/// read.
///
/// It serializes as the mapped latencies, the wire form of a plain `Vec<f64>`.
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    /// The ziggurat normals, or the latencies they map to once `mapped` is set.
    values: Vec<f64>,
    median: f64,
    sigma: f64,
    mapped: bool,
}

impl LatencySamples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the samples with `n` fresh ones of the given median and shape, reusing
    /// the buffer.
    ///
    /// Only the ziggurat's fast-accept test is inline, done on integers: a draw's
    /// 53-bit uniform `u` is accepted when it is below its layer's threshold `th[i]`,
    /// and the normal is then `u` times the signed, prescaled edge `xs[s << 8 | i]`,
    /// so each sample is one RNG step, one compare and one multiply. Scaling by `2^-53`
    /// is exact and IEEE multiplication is sign-symmetric, so the product has the bits
    /// of [`sample_normal_ziggurat`]'s candidate with its sign, `-0.0` included. The
    /// generator runs in a local copy, which stays in registers; a draw that misses
    /// (about 1.5%) hands it to the cold `zig_reject` and takes it back, so the words
    /// are consumed in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive or `sigma` is negative.
    pub fn fill(&mut self, rng: &mut SmallRng, median: f64, sigma: f64, n: usize) {
        assert!(median > 0.0, "lognormal median must be positive");
        assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
        let t = zig_tables();
        let mut local = rng.clone();
        // Every slot is overwritten below, so only slots past the old length are zeroed.
        self.values.resize(n, 0.0);
        for v in self.values.iter_mut() {
            let bits = local.next_u64();
            let u = bits >> 11;
            *v = if u < t.th[(bits & 0xff) as usize] {
                u as f64 * t.xs[(bits & 0x1ff) as usize]
            } else {
                *rng = local.clone();
                let (i, x) = zig_candidate(t, bits);
                let z = zig_reject(rng, t, bits, i, x);
                local = rng.clone();
                z
            };
        }
        *rng = local;
        self.median = median;
        self.sigma = sigma;
        self.mapped = false;
    }

    /// Removes every sample, keeping the buffer.
    pub fn clear(&mut self) {
        self.values.clear();
        self.mapped = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Samples the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.values.capacity()
    }

    /// Maps every sample in place, once, and returns them all: the same bits every
    /// read returns. Later reads return the stored latencies without mapping again.
    pub fn materialize(&mut self) -> &[f64] {
        if !self.mapped {
            Self::map_in_place(self.median, self.sigma, &mut self.values, exp_map_in_range);
            self.mapped = true;
        }
        &self.values
    }

    /// Sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        let mut v = [self.values[i]];
        if !self.mapped {
            Self::map_in_place(self.median, self.sigma, &mut v, exp_map_in_range_portable);
        }
        v[0]
    }

    /// Every sample, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Writes sample `indices[k]` to `out[k]` for every `k < indices.len()`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or `out` is shorter than `indices`.
    #[inline]
    pub fn gather(&self, indices: &[usize], out: &mut [f64]) {
        let out = &mut out[..indices.len()];
        for (o, &i) in out.iter_mut().zip(indices) {
            *o = self.values[i];
        }
        if !self.mapped {
            Self::map_in_place(self.median, self.sigma, out, exp_map_in_range);
        }
    }

    /// Maps normals of the given shape to latencies in place: the one mapping every
    /// read path shares. `in_range` is [`exp_map_in_range`] (AVX2 width when the CPU
    /// has it) on slices, and its portable body for [`Self::get`]'s one sample, so a
    /// single read never dispatches.
    #[inline]
    fn map_in_place(
        median: f64,
        sigma: f64,
        values: &mut [f64],
        in_range: impl Fn(f64, f64, &mut [f64]),
    ) {
        if sigma <= IN_RANGE_MAX_SIGMA {
            in_range(median, sigma, values);
        } else {
            for v in values.iter_mut() {
                *v = median * fast_exp(sigma * *v);
            }
        }
    }
}

impl Serialize for LatencySamples {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Value::Float).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        for _ in 0..10 {
            assert_eq!(rand::Rng::gen::<u64>(&mut a), rand::Rng::gen::<u64>(&mut b));
        }
    }

    #[test]
    fn derive_seed_varies_with_stream() {
        let s1 = derive_seed(42, 0);
        let s2 = derive_seed(42, 1);
        let s3 = derive_seed(43, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(derive_seed(42, 0), s1);
    }

    #[test]
    fn poisson_mean_matches_parameter() {
        let mut rng = seeded_rng(11);
        for &lambda in &[0.5, 3.0, 20.0, 150.0] {
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|_| sample_poisson(&mut rng, lambda) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() / lambda.max(1.0) < 0.05,
                "lambda {lambda} produced mean {mean}"
            );
        }
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        assert_eq!(sample_poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn lognormal_median_is_approximately_parameter() {
        let mut rng = seeded_rng(5);
        let mut v: Vec<f64> = (0..20_001)
            .map(|_| sample_lognormal(&mut rng, 10.0, 0.5))
            .collect();
        v.sort_unstable_by(f64::total_cmp);
        let median = v[v.len() / 2];
        assert!((median - 10.0).abs() / 10.0 < 0.05, "median {median}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let mut rng = seeded_rng(5);
        for _ in 0..10 {
            assert!((sample_lognormal(&mut rng, 3.0, 0.0) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        // Every region of the ziggurat must have area V: the base strip plus tail, and
        // each stacked rectangle x[i] * (f(x[i+1]) - f(x[i])).
        let t = zig_tables();
        for i in 1..ZIG_LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!(
                (area - ZIG_V).abs() / ZIG_V < 1e-7,
                "layer {i} area {area} != {ZIG_V}"
            );
        }
        // Edges must descend strictly from the pseudo-edge to zero.
        assert!(t.x[0] > t.x[1]);
        for i in 1..ZIG_LAYERS {
            assert!(t.x[i] > t.x[i + 1], "edges must strictly decrease at {i}");
        }
        assert_eq!(t.x[ZIG_LAYERS], 0.0);
        assert_eq!(t.f[ZIG_LAYERS], 1.0);
    }

    /// The integer fast-accept test and the prescaled signed edges that
    /// [`LatencySamples::fill`] reads agree with the float test and candidate of
    /// [`zig_normal`] at each threshold's edge and the ends of the uniform range.
    #[test]
    fn fast_accept_tables_match_the_float_test() {
        let t = zig_tables();
        let accepts = |i: usize, u: u64| zig_candidate(t, u << 11 | i as u64).1 < t.x[i + 1];
        let mut accepted = 0u64;
        for i in 0..ZIG_LAYERS {
            let th = t.th[i];
            assert!(th <= 1 << 53, "layer {i} threshold {th}");
            if th > 0 {
                assert!(
                    accepts(i, th - 1),
                    "layer {i}: th - 1 = {} must accept",
                    th - 1
                );
            }
            if th < 1 << 53 {
                assert!(!accepts(i, th), "layer {i}: th = {th} must reject");
            }
            accepted += th;
            let mut edges = vec![0, 1, (1 << 53) - 1];
            edges.extend(th.checked_sub(1));
            for u in edges {
                for sign in [0u64, 1] {
                    let bits = u << 11 | sign << 8 | i as u64;
                    let fast = u as f64 * t.xs[(bits & 0x1ff) as usize];
                    let textbook = with_sign(zig_candidate(t, bits).1, bits);
                    assert_eq!(
                        fast.to_bits(),
                        textbook.to_bits(),
                        "layer {i} sign {sign} u {u}"
                    );
                }
            }
        }
        // The share of draws the fast path accepts, as the docs state it.
        let share = accepted as f64 / (ZIG_LAYERS as f64 * (1u64 << 53) as f64);
        assert!((0.984..0.986).contains(&share), "fast-accept share {share}");
    }

    #[test]
    fn ziggurat_matches_the_standard_normal_distribution() {
        let mut rng = seeded_rng(314);
        let n = 400_000;
        let mut v: Vec<f64> = (0..n).map(|_| sample_normal_ziggurat(&mut rng)).collect();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
        v.sort_unstable_by(f64::total_cmp);
        // Quantiles of the standard normal: median 0, p90 1.2816, p99 2.3263,
        // p999 3.0902 (exercises the wedge and tail branches).
        let q = |p: f64| v[(p * n as f64) as usize];
        assert!(q(0.5).abs() < 0.02, "median {}", q(0.5));
        assert!((q(0.9) - 1.2816).abs() < 0.03, "p90 {}", q(0.9));
        assert!((q(0.99) - 2.3263).abs() < 0.06, "p99 {}", q(0.99));
        assert!((q(0.999) - 3.0902).abs() < 0.15, "p999 {}", q(0.999));
        // Symmetry.
        assert!((q(0.1) + q(0.9)).abs() < 0.05);
    }

    #[test]
    fn ziggurat_is_deterministic_in_seed() {
        let draw = |seed: u64| -> Vec<f64> {
            let mut rng = seeded_rng(seed);
            (0..100).map(|_| sample_normal_ziggurat(&mut rng)).collect()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn latency_samples_match_the_scalar_sampler_distribution() {
        let mut rng = seeded_rng(77);
        let mut samples = LatencySamples::new();
        samples.fill(&mut rng, 10.0, 0.5, 50_001);
        assert_eq!(samples.len(), 50_001);
        let mut batch: Vec<f64> = samples.iter().collect();
        assert!(batch.iter().all(|x| x.is_finite() && *x > 0.0));
        batch.sort_unstable_by(f64::total_cmp);
        let median = batch[batch.len() / 2];
        assert!((median - 10.0).abs() / 10.0 < 0.03, "median {median}");
        // p99 of lognormal(median 10, sigma 0.5): 10 * exp(0.5 * 2.3263) = 32.0.
        let p99 = batch[(0.99 * batch.len() as f64) as usize];
        assert!((p99 - 32.0).abs() / 32.0 < 0.07, "p99 {p99}");
    }

    #[test]
    fn latency_samples_reuse_the_buffer() {
        let mut rng = seeded_rng(78);
        let mut samples = LatencySamples::new();
        samples.fill(&mut rng, 10.0, 0.5, 1_000);
        let cap_before = samples.capacity();
        // Refilling replaces the contents and the shape without reallocating.
        samples.fill(&mut rng, 1.0, 0.0, 10);
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().all(|x| (x - 1.0).abs() < 1e-12));
        assert_eq!(samples.capacity(), cap_before, "the buffer must be reused");
        samples.clear();
        assert!(samples.is_empty());
        assert_eq!(samples.iter().count(), 0);
        assert_eq!(samples.capacity(), cap_before, "clearing keeps the buffer");
    }

    /// Counts the 64-bit words drawn, to tell which ziggurat path a sample took.
    struct CountingRng {
        inner: SmallRng,
        words: u64,
    }

    impl rand::RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// The per-sample loop [`LatencySamples`] replaced, as the bit reference: one
    /// ziggurat normal, then one `fast_exp`, per sample.
    fn per_sample_lognormals<R: Rng + ?Sized>(
        rng: &mut R,
        median: f64,
        sigma: f64,
        n: usize,
    ) -> Vec<f64> {
        (0..n)
            .map(|_| median * fast_exp(sigma * sample_normal_ziggurat(rng)))
            .collect()
    }

    #[test]
    fn latency_samples_are_bit_identical_to_the_per_sample_loop() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut tails, mut wedges) = (0usize, 0usize);
        let mut samples = LatencySamples::new();
        for seed in 0..1_200u64 {
            let n = [0, 1, 63, 64, 65, 1_000, 64 + (seed % 7) as usize][(seed % 7) as usize];
            for &sigma in &[0.0, 0.05, 0.6, 1.3, 51.0, 60.0] {
                let at = format!("seed {seed} n {n} sigma {sigma}");
                let mut reference = CountingRng {
                    inner: seeded_rng(seed),
                    words: 0,
                };
                let expected = per_sample_lognormals(&mut reference, 2.5, sigma, n);
                // Classify the paths the reference took: only the tail returns
                // |z| >= R, and any other sample that drew more than one word ran at
                // least one wedge test.
                let mut probe = CountingRng {
                    inner: seeded_rng(seed),
                    words: 0,
                };
                for _ in 0..n {
                    let before = probe.words;
                    let z = sample_normal_ziggurat(&mut probe);
                    if z.abs() >= ZIG_R {
                        tails += 1;
                    } else if probe.words - before > 1 {
                        wedges += 1;
                    }
                }

                let mut rng = seeded_rng(seed);
                samples.fill(&mut rng, 2.5, sigma, n);
                assert_eq!(rng.state(), reference.inner.state(), "{at}");
                assert_eq!(samples.len(), n, "{at}");

                let by_get: Vec<f64> = (0..n).map(|i| samples.get(i)).collect();
                assert_eq!(bits(&by_get), bits(&expected), "get: {at}");
                let by_iter: Vec<f64> = samples.iter().collect();
                assert_eq!(bits(&by_iter), bits(&expected), "iter: {at}");
                // A selection in the monitor's shape: increasing, with gaps.
                let picked: Vec<usize> =
                    (0..n).filter(|i| (i * 7 + seed as usize) % 5 < 2).collect();
                let mut gathered = vec![0.0; picked.len()];
                samples.gather(&picked, &mut gathered);
                let want: Vec<f64> = picked.iter().map(|&i| expected[i]).collect();
                assert_eq!(bits(&gathered), bits(&want), "gather: {at}");

                // Mapped once in place, every read path returns the same bits.
                let lazy_json = serde_json::to_string(&samples).expect("serializable");
                assert_eq!(
                    bits(samples.materialize()),
                    bits(&expected),
                    "materialize: {at}"
                );
                assert_eq!(bits(samples.materialize()), bits(&expected), "again: {at}");
                let by_get: Vec<f64> = (0..n).map(|i| samples.get(i)).collect();
                assert_eq!(bits(&by_get), bits(&expected), "mapped get: {at}");
                let by_iter: Vec<f64> = samples.iter().collect();
                assert_eq!(bits(&by_iter), bits(&expected), "mapped iter: {at}");
                gathered.fill(0.0);
                samples.gather(&picked, &mut gathered);
                assert_eq!(bits(&gathered), bits(&want), "mapped gather: {at}");
                let mapped_json = serde_json::to_string(&samples).expect("serializable");
                assert_eq!(mapped_json, lazy_json, "mapped serialization: {at}");
            }
        }
        assert!(tails > 0 && wedges > 0, "tails {tails} wedges {wedges}");

        // Fills whose last sample misses the fast-accept test, through a wedge or the
        // tail: the generator comes back from the cold path at the very end and must
        // be left where the reference leaves it.
        let (mut tail_endings, mut wedge_endings) = (0usize, 0usize);
        for seed in 0..2_000u64 {
            let mut probe = CountingRng {
                inner: seeded_rng(seed),
                words: 0,
            };
            let (n, last) = (1..)
                .find_map(|n| {
                    let before = probe.words;
                    let z = sample_normal_ziggurat(&mut probe);
                    (probe.words - before > 1).then_some((n, z))
                })
                .expect("some draw is rejected");
            if last.abs() >= ZIG_R {
                tail_endings += 1;
            } else if wedge_endings < 32 {
                wedge_endings += 1;
            } else {
                continue;
            }
            let at = format!("seed {seed} n {n} ending in z {last}");
            let mut reference = seeded_rng(seed);
            let expected = per_sample_lognormals(&mut reference, 2.5, 0.6, n);
            let mut rng = seeded_rng(seed);
            samples.fill(&mut rng, 2.5, 0.6, n);
            assert_eq!(rng.state(), reference.state(), "{at}");
            assert_eq!(bits(samples.materialize()), bits(&expected), "{at}");
        }
        assert!(
            tail_endings > 0 && wedge_endings > 0,
            "tail endings {tail_endings} wedge endings {wedge_endings}"
        );
    }

    /// Both sides of the `fast_exp` fallback: at `sigma` 51 the read paths map through
    /// the dispatched [`exp_map_in_range`] (and `get` through its portable body), above
    /// it through `fast_exp`. Planted `±13.71`, the largest `|z|` the ziggurat returns,
    /// puts `sigma * z` at the edge of the in-range domain.
    #[test]
    fn every_read_path_returns_the_same_bits_at_the_fallback_edge() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded_rng(51);
        for sigma in [51.0, 51.5] {
            for n in [1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 1_000] {
                let at = format!("sigma {sigma} n {n}");
                let mut normals: Vec<f64> =
                    (0..n).map(|_| sample_normal_ziggurat(&mut rng)).collect();
                normals[0] = 13.71;
                normals[n - 1] = -13.71;
                let expected: Vec<f64> = normals
                    .iter()
                    .map(|z| 0.002 * fast_exp(sigma * z))
                    .collect();
                let mut samples = LatencySamples {
                    values: normals,
                    median: 0.002,
                    sigma,
                    mapped: false,
                };
                let by_get: Vec<f64> = (0..n).map(|i| samples.get(i)).collect();
                assert_eq!(bits(&by_get), bits(&expected), "get: {at}");
                let every: Vec<usize> = (0..n).collect();
                let mut gathered = vec![0.0; n];
                samples.gather(&every, &mut gathered);
                assert_eq!(bits(&gathered), bits(&expected), "gather: {at}");
                assert_eq!(
                    bits(samples.materialize()),
                    bits(&expected),
                    "materialize: {at}"
                );
            }
        }
    }

    #[test]
    fn latency_samples_serialize_as_the_mapped_vector() {
        let mut samples = LatencySamples::new();
        assert_eq!(samples.to_value(), Vec::<f64>::new().to_value());
        samples.fill(&mut seeded_rng(4), 0.003, 0.4, 130);
        let mapped: Vec<f64> = samples.iter().collect();
        assert_eq!(samples.to_value(), mapped.to_value());
    }

    #[test]
    fn fill_and_clear_return_materialized_samples_to_mapping_on_read() {
        let bits = |s: &LatencySamples| s.iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut lazy = LatencySamples::new();
        let mut mapped = LatencySamples::new();
        for (round, &(median, sigma, n)) in [(0.003, 0.4, 200), (2.0, 60.0, 70), (0.5, 0.0, 1)]
            .iter()
            .enumerate()
        {
            lazy.fill(&mut seeded_rng(round as u64), median, sigma, n);
            // The previous round left `mapped` materialized: a fill of other normals and
            // another shape must map them on read again.
            mapped.fill(&mut seeded_rng(round as u64), median, sigma, n);
            assert_eq!(
                bits(&mapped),
                bits(&lazy),
                "round {round} before materialize"
            );
            mapped.materialize();
            assert_eq!(
                bits(&mapped),
                bits(&lazy),
                "round {round} after materialize"
            );
        }
        mapped.clear();
        assert!(mapped.is_empty());
        assert!(mapped.materialize().is_empty());
        mapped.clear();
        lazy.fill(&mut seeded_rng(9), 1.5, 0.7, 33);
        mapped.fill(&mut seeded_rng(9), 1.5, 0.7, 33);
        assert_eq!(
            bits(&mapped),
            bits(&lazy),
            "a cleared materialized buffer maps on read"
        );
    }

    proptest! {
        #[test]
        fn prop_lognormal_positive(seed in 0u64..1000, median in 0.01f64..1e4, sigma in 0.0f64..2.0) {
            let mut rng = seeded_rng(seed);
            let x = sample_lognormal(&mut rng, median, sigma);
            prop_assert!(x > 0.0);
            prop_assert!(x.is_finite());
        }
    }
}
