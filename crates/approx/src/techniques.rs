//! Approximation techniques.
//!
//! The paper (§3) explores three families of approximation strategies: **loop
//! perforation**, **synchronization elision**, and **lower-precision data types**. This
//! module provides them as small, reusable adapters that the kernels apply to their inner
//! loops and data, plus input **sampling**, which several MineBench/BioPerf kernels use as
//! their natural perforation target.

use serde::{Deserialize, Serialize};

/// How a loop is perforated.
///
/// Matches the mechanisms described in §3 of the paper: execute only a prefix chunk of the
/// iterations, execute every p-th iteration, or skip every p-th iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Perforation {
    /// Precise execution: run every iteration.
    #[default]
    None,
    /// Run only the first `ceil(n / p)` iterations (factor `p >= 1`).
    TruncateBy(u32),
    /// Run every `p`-th iteration only (keeps ~`1/p` of iterations, `p >= 1`).
    KeepEveryNth(u32),
    /// Skip every `p`-th iteration (keeps ~`(p-1)/p` of iterations, `p >= 2`).
    SkipEveryNth(u32),
    /// Keep each iteration with the given probability, decided by a deterministic hash of
    /// the iteration index (stateless, reproducible).
    KeepFraction(f64),
}

impl Perforation {
    /// Returns whether iteration `i` of a loop with `n` total iterations should execute.
    pub fn keeps(&self, i: usize, n: usize) -> bool {
        match *self {
            Perforation::None => true,
            Perforation::TruncateBy(p) => {
                let p = p.max(1) as usize;
                i < n.div_ceil(p)
            }
            Perforation::KeepEveryNth(p) => {
                let p = p.max(1) as usize;
                i.is_multiple_of(p)
            }
            Perforation::SkipEveryNth(p) => {
                let p = p.max(2) as usize;
                !(i + 1).is_multiple_of(p)
            }
            Perforation::KeepFraction(f) => {
                if f >= 1.0 {
                    return true;
                }
                if f <= 0.0 {
                    return false;
                }
                // SplitMix-style hash of the index → uniform in [0,1).
                let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z as f64 / u64::MAX as f64) < f
            }
        }
    }

    /// Sets `mask` to `keeps(i, n)` for every `i` in `0..n`, so a loop can decide its
    /// perforation once instead of matching this enum (and dividing) per iteration.
    pub(crate) fn fill_mask(&self, n: usize, mask: &mut Vec<bool>) {
        let period = match *self {
            Perforation::None => 1,
            Perforation::KeepEveryNth(p) => p.max(1) as usize,
            Perforation::SkipEveryNth(p) => p.max(2) as usize,
            Perforation::TruncateBy(_) | Perforation::KeepFraction(_) => n,
        };
        fill_periodic(mask, n, period, |i| self.keeps(i, n));
    }

    /// Whether this is precise execution.
    pub fn is_precise(&self) -> bool {
        matches!(self, Perforation::None)
    }
}

/// Floating-point precision of a kernel's core data type.
///
/// The paper's "lower precision" technique replaces `double` with `float`/`int`. The
/// kernels emulate this by quantizing intermediate values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Precision {
    /// Full 64-bit floating point (precise).
    #[default]
    F64,
    /// 32-bit floating point.
    F32,
    /// 16-bit fixed point with 8 fractional bits (aggressive).
    Fixed16,
}

impl Precision {
    /// Quantizes a value to this precision.
    pub fn quantize(&self, x: f64) -> f64 {
        match self {
            Precision::F64 => KindF64::quantize(x),
            Precision::F32 => KindF32::quantize(x),
            Precision::Fixed16 => KindFixed16::quantize(x),
        }
    }

    /// Relative cost of an arithmetic operation at this precision, versus `F64`.
    ///
    /// Lower precision reduces both memory traffic and (in the original SIMD-friendly
    /// codes) execution time; the kernels use this factor when accounting work.
    pub fn op_cost(&self) -> f64 {
        match self {
            Precision::F64 => KindF64::OP_COST,
            Precision::F32 => KindF32::OP_COST,
            Precision::Fixed16 => KindFixed16::OP_COST,
        }
    }

    /// Whether this is the precise (F64) setting.
    pub fn is_precise(&self) -> bool {
        matches!(self, Precision::F64)
    }
}

/// A [`Precision`] as a type, so a kernel's inner loops are compiled once per precision
/// instead of matching the enum on every operation.
pub(crate) trait PrecisionKind {
    /// Relative cost of an arithmetic operation (see [`Precision::op_cost`]).
    const OP_COST: f64;

    /// Quantizes a value (see [`Precision::quantize`]).
    fn quantize(x: f64) -> f64;
}

/// [`Precision::F64`] as a type.
pub(crate) struct KindF64;

/// [`Precision::F32`] as a type.
pub(crate) struct KindF32;

/// [`Precision::Fixed16`] as a type.
pub(crate) struct KindFixed16;

impl PrecisionKind for KindF64 {
    const OP_COST: f64 = 1.0;

    #[inline]
    fn quantize(x: f64) -> f64 {
        x
    }
}

impl PrecisionKind for KindF32 {
    const OP_COST: f64 = 0.62;

    #[inline]
    fn quantize(x: f64) -> f64 {
        x as f32 as f64
    }
}

impl PrecisionKind for KindFixed16 {
    const OP_COST: f64 = 0.45;

    #[inline]
    fn quantize(x: f64) -> f64 {
        let scaled = (x * 256.0).round();
        let clamped = scaled.clamp(-32_768.0, 32_767.0);
        clamped / 256.0
    }
}

/// A kernel's `Cost::ops` total at precision `P`, bit-identical to adding each increment
/// to an `f64` in program order.
///
/// Why a count can stand in for the in-order sum:
///
/// * At `F64` every increment is an integer (an integer number of operations times an op
///   cost of 1.0). An `f64` sum of integers is exact while every partial sum stays below
///   2⁵³, so the in-order sum equals the integer total, and this counter keeps a `u64`
///   and converts it once. The same argument lets kernels sum `bytes_touched`, whose
///   increments are integers at every precision, in a `u64`.
/// * At `F32` and `Fixed16` the op costs 0.62 and 0.45 are not dyadic: each scaled
///   increment rounds, and the total depends on the order of the adds. The counter adds
///   each increment to an `f64` in the order the kernel reports it.
/// * [`OpCount::add_scaled_if`] adds `+0.0` for a false condition. A running sum that
///   starts at `+0.0` and only grows by non-negative terms is never `-0.0`, and `x + 0.0`
///   is `x` for every such `x`, so the conditional add is branch-free without changing a
///   bit. Kernels use the same fact for their own non-negative accumulators.
pub(crate) struct OpCount<P> {
    count: u64,
    sum: f64,
    kind: std::marker::PhantomData<P>,
}

impl<P: PrecisionKind> Default for OpCount<P> {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            kind: std::marker::PhantomData,
        }
    }
}

impl<P: PrecisionKind> OpCount<P> {
    /// Whether every increment is an integer, so the total can be counted.
    const INTEGER: bool = P::OP_COST == 1.0;

    /// Adds `n` operations that cost the same at every precision (`ops += n as f64`).
    #[inline]
    pub(crate) fn add(&mut self, n: u64) {
        if Self::INTEGER {
            self.count += n;
        } else {
            self.sum += n as f64;
        }
    }

    /// Adds `n` operations at this precision (`ops += n as f64 * op_cost`).
    #[inline]
    pub(crate) fn add_scaled(&mut self, n: u64) {
        if Self::INTEGER {
            self.count += n;
        } else {
            self.sum += n as f64 * P::OP_COST;
        }
    }

    /// [`OpCount::add_scaled`] when `cond` holds, without a branch.
    #[inline]
    pub(crate) fn add_scaled_if(&mut self, n: u64, cond: bool) {
        if Self::INTEGER {
            self.count += n * u64::from(cond);
        } else {
            self.sum += if cond { n as f64 * P::OP_COST } else { 0.0 };
        }
    }

    /// The total, as the in-order `f64` sum would have it.
    pub(crate) fn total(&self) -> f64 {
        if Self::INTEGER {
            self.count as f64
        } else {
            self.sum
        }
    }
}

/// Sets `mask` to `f(i)` for `i` in `0..n`, where `f` repeats with `period`: only the
/// first period is evaluated, and the mask then doubles by copying its own prefix (a
/// whole number of periods).
fn fill_periodic(mask: &mut Vec<bool>, n: usize, period: usize, f: impl Fn(usize) -> bool) {
    mask.clear();
    mask.extend((0..period.clamp(1, n.max(1)).min(n)).map(f));
    if let [only] = mask[..] {
        mask.resize(n, only);
    }
    while mask.len() < n {
        let copied = mask.len().min(n - mask.len());
        mask.extend_from_within(..copied);
    }
}

/// Synchronization-elision model for iterative parallel kernels.
///
/// The original applications elide locks/barriers, letting threads read slightly stale
/// shared state. Sequentially, this is modelled by updating shared accumulators only every
/// `staleness`-th iteration (staleness 1 = precise), which both skips the "synchronization
/// work" and introduces the same kind of stale-read error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncElision {
    /// Number of iterations between shared-state refreshes; 1 means precise.
    pub staleness: u32,
}

impl Default for SyncElision {
    fn default() -> Self {
        Self { staleness: 1 }
    }
}

impl SyncElision {
    /// Precise synchronization (no elision).
    pub fn precise() -> Self {
        Self::default()
    }

    /// Elided synchronization with the given staleness (clamped to at least 1).
    pub fn with_staleness(staleness: u32) -> Self {
        Self {
            staleness: staleness.max(1),
        }
    }

    /// Whether iteration `i` refreshes shared state.
    pub fn refreshes(&self, i: usize) -> bool {
        i.is_multiple_of(self.staleness.max(1) as usize)
    }

    /// Sets `mask` to `refreshes(i)` for every `i` in `0..n`.
    pub(crate) fn fill_mask(&self, n: usize, mask: &mut Vec<bool>) {
        let period = self.staleness.max(1) as usize;
        fill_periodic(mask, n, period, |i| self.refreshes(i));
    }

    /// Whether this is precise synchronization.
    pub fn is_precise(&self) -> bool {
        self.staleness <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Indices of the iterations of `0..n` that survive `perf`.
    fn filter_indices(perf: Perforation, n: usize) -> Vec<usize> {
        (0..n).filter(|&i| perf.keeps(i, n)).collect()
    }

    /// Expected fraction of iterations `perf` keeps (in `[0, 1]`).
    fn expected_kept_fraction(perf: Perforation) -> f64 {
        match perf {
            Perforation::None => 1.0,
            Perforation::TruncateBy(p) | Perforation::KeepEveryNth(p) => 1.0 / p.max(1) as f64,
            Perforation::SkipEveryNth(p) => {
                let p = p.max(2) as f64;
                (p - 1.0) / p
            }
            Perforation::KeepFraction(f) => f.clamp(0.0, 1.0),
        }
    }

    #[test]
    fn none_keeps_everything() {
        let p = Perforation::None;
        assert_eq!(filter_indices(p, 10).len(), 10);
        assert_eq!(expected_kept_fraction(p), 1.0);
        assert!(p.is_precise());
    }

    #[test]
    fn truncate_keeps_prefix() {
        let p = Perforation::TruncateBy(4);
        let kept = filter_indices(p, 100);
        assert_eq!(kept.len(), 25);
        assert_eq!(kept[0], 0);
        assert_eq!(*kept.last().unwrap(), 24);
    }

    #[test]
    fn keep_every_nth_spacing() {
        let p = Perforation::KeepEveryNth(3);
        let kept = filter_indices(p, 9);
        assert_eq!(kept, vec![0, 3, 6]);
        assert!((expected_kept_fraction(p) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn skip_every_nth_spacing() {
        let p = Perforation::SkipEveryNth(3);
        let kept = filter_indices(p, 9);
        assert_eq!(kept, vec![0, 1, 3, 4, 6, 7]);
        assert!((expected_kept_fraction(p) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn keep_fraction_bounds() {
        assert_eq!(filter_indices(Perforation::KeepFraction(0.0), 50).len(), 0);
        assert_eq!(filter_indices(Perforation::KeepFraction(1.0), 50).len(), 50);
        let kept = filter_indices(Perforation::KeepFraction(0.5), 10_000).len();
        assert!((kept as f64 - 5_000.0).abs() < 500.0, "kept {kept}");
    }

    #[test]
    fn keep_fraction_is_deterministic() {
        let a = filter_indices(Perforation::KeepFraction(0.3), 1000);
        let b = filter_indices(Perforation::KeepFraction(0.3), 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn precision_quantization_error_ordering() {
        let x = std::f64::consts::PI * 10.0;
        let e32 = (Precision::F32.quantize(x) - x).abs();
        let e16 = (Precision::Fixed16.quantize(x) - x).abs();
        assert_eq!(Precision::F64.quantize(x), x);
        assert!(e32 <= e16);
        assert!(Precision::F64.op_cost() > Precision::F32.op_cost());
        assert!(Precision::F32.op_cost() > Precision::Fixed16.op_cost());
    }

    #[test]
    fn fixed16_saturates() {
        assert!((Precision::Fixed16.quantize(1e9) - 32_767.0 / 256.0).abs() < 1e-9);
        assert!((Precision::Fixed16.quantize(-1e9) + 32_768.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn masks_match_their_per_index_predicates() {
        let mut mask = Vec::new();
        for n in [0usize, 1, 2, 7, 30] {
            for perf in [
                Perforation::None,
                Perforation::TruncateBy(3),
                Perforation::KeepEveryNth(4),
                Perforation::SkipEveryNth(1),
                Perforation::SkipEveryNth(3),
                Perforation::KeepFraction(0.4),
            ] {
                perf.fill_mask(n, &mut mask);
                let want: Vec<bool> = (0..n).map(|i| perf.keeps(i, n)).collect();
                assert_eq!(mask, want, "{perf:?} n={n}");
            }
            for staleness in [1u32, 2, 5, u32::MAX] {
                let sync = SyncElision::with_staleness(staleness);
                sync.fill_mask(n, &mut mask);
                let want: Vec<bool> = (0..n).map(|i| sync.refreshes(i)).collect();
                assert_eq!(mask, want, "staleness {staleness} n={n}");
            }
        }
    }

    #[test]
    fn op_counts_match_the_in_order_f64_sum() {
        fn check<P: PrecisionKind>(precision: Precision) {
            let mut count = OpCount::<P>::default();
            let mut sum = 0.0f64;
            for i in 0..10_000u64 {
                let n = i % 23;
                count.add(n);
                sum += n as f64;
                count.add_scaled(n + 1);
                sum += (n + 1) as f64 * precision.op_cost();
                let cond = i % 3 == 0;
                count.add_scaled_if(4, cond);
                if cond {
                    sum += 4.0 * precision.op_cost();
                }
            }
            assert_eq!(count.total().to_bits(), sum.to_bits(), "{precision:?}");
        }
        check::<KindF64>(Precision::F64);
        check::<KindF32>(Precision::F32);
        check::<KindFixed16>(Precision::Fixed16);
    }

    #[test]
    fn sync_elision_refresh_pattern() {
        let e = SyncElision::with_staleness(4);
        assert!(e.refreshes(0));
        assert!(!e.refreshes(1));
        assert!(e.refreshes(4));
        // One refresh in four: a quarter of the precise synchronization work.
        assert_eq!((0..64).filter(|&i| e.refreshes(i)).count(), 16);
        assert!(SyncElision::precise().is_precise());
        assert!(!e.is_precise());
    }

    #[test]
    fn sync_elision_staleness_zero_clamped() {
        let e = SyncElision::with_staleness(0);
        assert!(e.is_precise());
        assert!(e.refreshes(7));
    }

    proptest! {
        #[test]
        fn prop_kept_fraction_close_to_expected(
            n in 200usize..2000,
            p in 2u32..10,
        ) {
            for perf in [Perforation::TruncateBy(p), Perforation::KeepEveryNth(p), Perforation::SkipEveryNth(p)] {
                let kept = filter_indices(perf, n).len() as f64 / n as f64;
                prop_assert!((kept - expected_kept_fraction(perf)).abs() < 0.05);
            }
        }

        #[test]
        fn prop_quantize_idempotent(x in -1e4f64..1e4) {
            for p in [Precision::F64, Precision::F32, Precision::Fixed16] {
                let once = p.quantize(x);
                let twice = p.quantize(once);
                prop_assert_eq!(once, twice);
            }
        }
    }
}
