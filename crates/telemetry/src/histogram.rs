//! Log-bucketed latency histogram with percentile queries.
//!
//! The performance monitor in Pliant continuously samples end-to-end request latency and
//! needs cheap, allocation-free recording plus accurate tail percentiles (p99 and above).
//! A log-bucketed histogram (HdrHistogram-style) gives bounded relative error across many
//! orders of magnitude, which matters because the three interactive services span latencies
//! from ~100 µs (memcached) to ~100 ms (MongoDB).

use serde::{Deserialize, Error, Serialize, Value};

use crate::simd;

/// Number of linear sub-buckets per power-of-two bucket.
///
/// 32 sub-buckets bound the relative quantization error to roughly 3%.
pub(crate) const SUB_BUCKETS: usize = 32;
/// Number of power-of-two buckets; covers values up to 2^40 (~10^12), far beyond any
/// latency expressed in microseconds that the simulators produce.
pub(crate) const EXP_BUCKETS: usize = 40;

/// A log-bucketed histogram of non-negative `f64` values (latencies, in any unit).
///
/// Values are bucketed into `EXP_BUCKETS` powers of two, each split into `SUB_BUCKETS`
/// linear sub-buckets, giving a bounded relative error of about `1/SUB_BUCKETS`.
///
/// # Example
///
/// ```
/// use pliant_telemetry::histogram::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [1.0, 2.0, 3.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) >= 2.0);
/// ```
///
/// The serialized form carries only the buckets of the occupied range, the indices a
/// value between the recorded `min` and `max` can fall into (none for an empty
/// histogram), so a node whose latencies span a few octaves writes about a hundred
/// buckets instead of all 1,280. The extremes fix that range, so no other field says
/// where the list starts. Deserialization lays the list back into the full layout and
/// validates the value, so an archived histogram satisfies the same invariants as one
/// built in-process: a count equal to its buckets' sum, extremes present exactly when
/// it is non-empty, a bucket list exactly as long as the range its extremes span,
/// every recorded bucket holding a value a recording between them could produce, and
/// recorded buckets under both extremes.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    // `None` until a value is recorded. The empty extremes must not be stored as
    // ±infinity: JSON has no encoding for non-finite floats (they serialize as
    // `null`), and an empty histogram inside a checkpoint has to survive a JSON
    // round-trip.
    min: Option<f64>,
    max: Option<f64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SUB_BUCKETS * EXP_BUCKETS],
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Index of the bucket a value falls into.
    ///
    /// Recording is on the monitor's per-sample hot path, so the power-of-two bucket and
    /// the linear sub-bucket are read straight out of the IEEE-754 exponent and mantissa
    /// bits instead of calling `log2`: for `v` in `[2^e, 2^(e+1))` the exponent field is
    /// exactly `e + 1023` and the top `log2(SUB_BUCKETS)` mantissa bits are exactly
    /// `floor((v - 2^e) / 2^e * SUB_BUCKETS)`.
    #[inline(always)]
    fn bucket_index(value: f64) -> usize {
        let v = value.max(0.0); // NaN also lands here: NaN.max(0.0) == 0.0
        if v < 1.0 {
            // Values in [0, 1) map linearly onto the first power-of-two bucket.
            return (v * SUB_BUCKETS as f64) as usize % SUB_BUCKETS;
        }
        const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as usize - 1023;
        if exp >= EXP_BUCKETS {
            // Beyond the covered range: clamp into the last (open-ended) bucket.
            return EXP_BUCKETS * SUB_BUCKETS - 1;
        }
        let frac = ((bits >> (52 - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        exp * SUB_BUCKETS + frac
    }

    /// Representative (upper-edge midpoint) value of a bucket, used when reporting
    /// percentiles. The first power-of-two bucket reports its `[1, 2)` value even for
    /// sub-unit values recorded through the linear path; [`Self::percentile`] clamps
    /// the result to the recorded range.
    fn bucket_value(index: usize) -> f64 {
        let exp = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let base = 2f64.powi(exp as i32);
        base + base * (sub as f64 + 0.5) / SUB_BUCKETS as f64
    }

    /// The `[lower, upper)` edges of the bucket `value` is recorded into, in the same
    /// units as `value`.
    ///
    /// `upper - lower` is the histogram's quantization granularity at `value` — the
    /// bound within which a histogram-backed percentile can differ from the exact
    /// order-statistic of the recorded values (see [`Self::percentile`]). Exposed so
    /// callers replacing an exact sorted quantile with this histogram can assert the
    /// documented one-bucket-width equivalence. Non-finite and negative values clamp to
    /// zero first, exactly as [`Self::record`] does.
    ///
    /// Note the first power-of-two bucket is shared by the linear `[0, 1)` mapping and
    /// the logarithmic `[1, 2)` range; for sub-unit values the returned bounds describe
    /// the linear containment range. The very last bucket absorbs everything beyond the
    /// covered range, so its upper edge is `f64::INFINITY` (no width bound exists
    /// there).
    // pliant-lint: allow(test-only-pub) the one-bucket bound tests/hot_path.rs asserts the p99 against
    pub fn bucket_bounds(value: f64) -> (f64, f64) {
        let v = Self::clamp(value);
        let index = Self::bucket_index(v);
        let sub = index % SUB_BUCKETS;
        if v < 1.0 {
            let w = 1.0 / SUB_BUCKETS as f64;
            return (sub as f64 * w, (sub + 1) as f64 * w);
        }
        let base = 2f64.powi((index / SUB_BUCKETS) as i32);
        let lower = base + base * sub as f64 / SUB_BUCKETS as f64;
        if index == EXP_BUCKETS * SUB_BUCKETS - 1 {
            // The clamp bucket is open-ended: it contains every value past the covered
            // range, so no finite upper edge would contain them all.
            return (lower, f64::INFINITY);
        }
        (lower, base + base * (sub + 1) as f64 / SUB_BUCKETS as f64)
    }

    /// The value a sample is recorded as: itself when positive and finite, zero for a
    /// negative, zero or non-finite sample (so `-0.0` records as `+0.0`). Comparisons
    /// rather than `f64::max` keep the result the same wherever it is inlined.
    #[inline(always)]
    fn clamp(value: f64) -> f64 {
        if value > 0.0 && value < f64::INFINITY {
            value
        } else {
            0.0
        }
    }

    /// Records a single value.
    ///
    /// Negative and non-finite values are clamped to zero.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records the same value `n` times in one bucket update.
    ///
    /// Used by the clustered-fleet approximation to replicate a representative node's
    /// latency samples across its replica weight. The merge is exact: counts, sum, and
    /// every quantile come out identical to calling [`Self::record`] `n` times, and
    /// `record_n(v, 1)` is bit-identical to `record(v)` (same clamp, same bucket, and
    /// `v * 1.0 == v` exactly in IEEE-754). `n == 0` is a no-op.
    pub fn record_n(&mut self, value: f64, n: u64) {
        self.record_scaled_n(&[value], 1.0, n);
    }

    /// Records `value * scale`, `n` times, for every value in `values`, in order.
    ///
    /// The bits equal calling [`Self::record_n`]`(v * scale, n)` for each value in turn:
    /// each product is clamped and bucketed the same way, the sum is accumulated in the
    /// same order, and the extremes are tracked with the same strict comparisons, but
    /// in locals for the whole slice instead of in the stored `Option`s per value. This
    /// is the fleet node's per-sample path (`scale` converts seconds to microseconds).
    /// `n == 0` is a no-op.
    ///
    /// On a CPU with AVX2, a kernel in [`crate::simd`] clamps and buckets 64 values at
    /// a time, 4 lanes per step, into buffers on the stack; one scalar pass then adds
    /// the bucket counts and the in-order sum. Slices shorter than 64 values, the tail
    /// past the last full chunk, and every value on other CPUs go through the scalar
    /// loop.
    pub fn record_scaled_n(&mut self, values: &[f64], scale: f64, n: u64) {
        if n == 0 || values.is_empty() {
            return;
        }
        let weight = n as f64;
        let buckets = &mut self.buckets[..];
        let mut sum = self.sum;
        // ±infinity stand for "nothing recorded": every clamped value is finite, so the
        // first one always replaces them, as it replaces `None`.
        let mut min = self.min.unwrap_or(f64::INFINITY);
        let mut max = self.max.unwrap_or(f64::NEG_INFINITY);
        let mut rest = values;
        if values.len() >= simd::BUCKET_CHUNK {
            let mut clamped = [0.0; simd::BUCKET_CHUNK];
            let mut indices = [0; simd::BUCKET_CHUNK];
            while let Some((head, tail)) = rest.split_first_chunk() {
                if !simd::bucket_scaled(head, scale, &mut clamped, &mut indices, &mut min, &mut max)
                {
                    break;
                }
                for (&v, &index) in clamped.iter().zip(&indices) {
                    buckets[index as usize] += n;
                    sum += v * weight;
                }
                rest = tail;
            }
        }
        for &value in rest {
            let v = Self::clamp(value * scale);
            buckets[Self::bucket_index(v)] += n;
            sum += v * weight;
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        self.count += n * values.len() as u64;
        self.sum = sum;
        self.min = Some(min);
        self.max = Some(max);
    }

    /// Merges another histogram into this one.
    ///
    /// Merging is exact: the merged histogram reports the same counts, mean, and
    /// percentiles as one histogram that recorded every value directly, which is what
    /// makes per-node histograms safe to aggregate into fleet-level quantiles. Every
    /// histogram shares one bucket layout: [`Self::new`] fixes it and deserialization
    /// rejects any other, so the buckets always line up.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        debug_assert_eq!(self.buckets.len(), other.buckets.len());
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the histogram has no recorded values.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.min.unwrap_or(0.0)
    }

    /// Largest recorded value, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.max.unwrap_or(0.0)
    }

    /// Value at quantile `q` (`0.0..=1.0`).
    ///
    /// The returned value is the representative value of the bucket containing the
    /// requested rank, clamped to the observed `[min, max]` range so exact extremes are
    /// reported faithfully.
    ///
    /// Returns 0.0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let occupied = self.occupied();
        for (i, &c) in self.buckets[occupied.clone()].iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(occupied.start + i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Convenience accessor for the 99th percentile — the QoS metric used throughout the
    /// paper.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Clears all recorded values, zeroing only the buckets that values between the
    /// recorded minimum and maximum can fall into.
    pub fn reset(&mut self) {
        let occupied = self.occupied();
        self.buckets[occupied].fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = None;
        self.max = None;
    }

    /// The bucket indices a value in `min..=max` can fall into: empty for an empty
    /// histogram. Above 2 the index grows with the value, so the range runs from the
    /// bucket of `min` to that of `max` (the last bucket also holds everything past the
    /// covered range). Below 2 it does not: `[0, 1)` and `[1, 2)` share indices
    /// `0..SUB_BUCKETS`, so a range reaching below 2 starts at 0 and covers them all.
    fn occupied(&self) -> std::ops::Range<usize> {
        let (Some(min), Some(max)) = (self.min, self.max) else {
            return 0..0;
        };
        let start = if min < 2.0 {
            0
        } else {
            Self::bucket_index(min)
        };
        let end = if max < 2.0 {
            SUB_BUCKETS - 1
        } else {
            Self::bucket_index(max)
        };
        start..end + 1
    }

    /// Checks what [`Self::occupied`] is computed from, so that the range can be taken
    /// on any input: extremes present exactly when the count is non-zero, and a finite
    /// non-negative sum and `min <= max`.
    fn check_extremes(&self) -> Result<(), String> {
        let valid = |x: f64| x.is_finite() && x >= 0.0;
        if !valid(self.sum) {
            return Err(format!("sum {} is negative or not finite", self.sum));
        }
        match (self.min, self.max) {
            (None, None) if self.count == 0 => Ok(()),
            (Some(min), Some(max)) if self.count > 0 => {
                if !valid(min) || !valid(max) {
                    return Err(format!(
                        "extremes {min} and {max} must be finite and non-negative"
                    ));
                }
                if min > max {
                    return Err(format!("min {min} exceeds max {max}"));
                }
                Ok(())
            }
            (min, max) => Err(format!(
                "extremes {min:?} and {max:?} do not fit count {}",
                self.count
            )),
        }
    }

    /// Checks the invariants every recording keeps in the buckets, on a full layout
    /// whose extremes passed [`Self::check_extremes`], so a deserialized histogram is
    /// one a run could have produced: a count equal to the buckets' sum, recorded
    /// buckets under both extremes, and no recorded bucket that a value in `min..=max`
    /// cannot fall into. That is every bucket outside [`Self::occupied`] (which
    /// [`Self::reset`] and [`Self::percentile`] rely on) and, below 2, where `[0, 1)`
    /// and `[1, 2)` share indices, a bucket neither of whose two value ranges meets
    /// `min..=max`.
    fn validate(&self) -> Result<(), String> {
        let recorded = self
            .buckets
            .iter()
            .try_fold(0u64, |total, &b| total.checked_add(b))
            .ok_or("the bucket counts overflow")?;
        if recorded != self.count {
            return Err(format!(
                "count {} but the buckets hold {recorded}",
                self.count
            ));
        }
        let (min, max) = (self.min(), self.max());
        if self.count > 0 {
            for (name, v) in [("min", min), ("max", max)] {
                let i = Self::bucket_index(v);
                if self.buckets[i] == 0 {
                    return Err(format!("{name} {v} falls in bucket {i}, which is empty"));
                }
            }
        }
        let occupied = self.occupied();
        let reachable = |i: usize| {
            occupied.contains(&i)
                && (i >= SUB_BUCKETS || {
                    let lo = i as f64 / SUB_BUCKETS as f64;
                    let hi = (i + 1) as f64 / SUB_BUCKETS as f64;
                    (lo <= max && min < hi) || (1.0 + lo <= max && min < 1.0 + hi)
                })
        };
        if let Some(i) = (0..self.buckets.len()).find(|&i| self.buckets[i] != 0 && !reachable(i)) {
            return Err(format!(
                "bucket {i} holds values outside the recorded range {min}..={max}"
            ));
        }
        Ok(())
    }
}

/// Writes the buckets of the occupied range only: the indices a value between the
/// recorded extremes can fall into.
impl Serialize for LatencyHistogram {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("buckets".into(), self.buckets[self.occupied()].to_value()),
            ("count".into(), self.count.to_value()),
            ("sum".into(), self.sum.to_value()),
            ("min".into(), self.min.to_value()),
            ("max".into(), self.max.to_value()),
        ])
    }
}

/// Reads the occupied-range form [`Serialize`] writes. The extremes are checked before
/// they fix the range, the list must be exactly as long as that range, and the
/// histogram it fills into the full layout must keep every invariant a recording
/// keeps, so no input panics and none parses into a histogram no recording produces.
impl Deserialize for LatencyHistogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
            match v.get(name) {
                Some(x) => T::from_value(x),
                None => T::absent().ok_or_else(|| Error::missing_field("LatencyHistogram", name)),
            }
        }
        if v.as_object().is_none() {
            return Err(Error::unexpected("LatencyHistogram (object)", v));
        }
        let listed: Vec<u64> = field(v, "buckets")?;
        let mut h = LatencyHistogram {
            buckets: Vec::new(),
            count: field(v, "count")?,
            sum: field(v, "sum")?,
            min: field(v, "min")?,
            max: field(v, "max")?,
        };
        let invalid = |e: String| Error::custom(format!("invalid latency histogram: {e}"));
        h.check_extremes().map_err(invalid)?;
        let occupied = h.occupied();
        if listed.len() != occupied.len() {
            return Err(invalid(format!(
                "{} buckets where the extremes span {}",
                listed.len(),
                occupied.len()
            )));
        }
        h.buckets = vec![0; SUB_BUCKETS * EXP_BUCKETS];
        h.buckets[occupied].copy_from_slice(&listed);
        h.validate().map_err(invalid)?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn record_n_is_exactly_n_repeated_records() {
        let values = [0.4, 1.0, 42.5, 1e7, f64::NAN, -3.0];
        let weights = [1u64, 3, 7, 2, 4, 5];
        let mut weighted = LatencyHistogram::new();
        let mut repeated = LatencyHistogram::new();
        for (&v, &n) in values.iter().zip(&weights) {
            weighted.record_n(v, n);
            for _ in 0..n {
                repeated.record(v);
            }
        }
        assert_eq!(weighted.count(), repeated.count());
        assert_eq!(weighted.mean().to_bits(), repeated.mean().to_bits());
        assert_eq!(weighted.min(), repeated.min());
        assert_eq!(weighted.max(), repeated.max());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(weighted.percentile(q), repeated.percentile(q));
        }
        // Weight 1 is bit-identical to a plain record; weight 0 is a no-op.
        let mut one = LatencyHistogram::new();
        let mut plain = LatencyHistogram::new();
        one.record_n(42.5, 1);
        plain.record(42.5);
        assert_eq!(one.mean().to_bits(), plain.mean().to_bits());
        one.record_n(9.0, 0);
        assert_eq!(one.count(), 1);
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(42.0);
        assert_eq!(h.count(), 1);
        assert!((h.mean() - 42.0).abs() < 1e-9);
        let p = h.percentile(0.99);
        assert!(
            (p - 42.0).abs() / 42.0 < 0.05,
            "p99 {p} should be close to 42"
        );
    }

    #[test]
    fn uniform_sequence_percentiles() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i as f64);
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.06, "p50 was {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.06, "p99 was {p99}");
        assert!(p99 > p50);
    }

    #[test]
    fn percentiles_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        for i in 0..5_000u64 {
            h.record((i % 977) as f64 + 0.5);
        }
        let mut prev = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.percentile(q);
            assert!(v + 1e-9 >= prev, "percentile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn merge_equals_recording_all() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..1000 {
            let v = (i * 7 % 311) as f64 + 1.0;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.percentile(0.99) - all.percentile(0.99)).abs() < 1e-9);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
    }

    #[test]
    fn merge_of_split_recordings_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..500 {
            let v = (i * 13 % 97) as f64 + 0.5;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.percentile(0.99), all.percentile(0.99));
        assert_eq!(a.mean(), all.mean());
    }

    #[test]
    fn negative_and_nonfinite_values_are_clamped() {
        let mut h = LatencyHistogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut h = LatencyHistogram::new();
        h.record_scaled_n(&[1.0, 2.0, 3.0], 1.0, 1);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_quantile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(1.5);
    }

    #[test]
    fn bit_extracted_bucket_index_matches_the_log2_reference() {
        // The production bucket_index reads the exponent/mantissa bits directly; this
        // pins it against the straightforward log2-based formulation it replaced.
        fn reference(value: f64) -> usize {
            let v = value.max(0.0);
            if v < 1.0 {
                return (v * SUB_BUCKETS as f64) as usize % SUB_BUCKETS;
            }
            let exp = (v.log2().floor() as usize).min(EXP_BUCKETS - 1);
            let base = 2f64.powi(exp as i32);
            let frac = ((v - base) / base * SUB_BUCKETS as f64) as usize;
            exp * SUB_BUCKETS + frac.min(SUB_BUCKETS - 1)
        }
        let mut v = 1e-3;
        while v < 1e13 {
            assert_eq!(
                LatencyHistogram::bucket_index(v),
                reference(v),
                "bucket mismatch at {v}"
            );
            v *= 1.000_37;
        }
        // Exact powers of two and their upper neighbors are edge cases of the exponent
        // extraction.
        for e in 0..45i32 {
            let p = 2f64.powi(e);
            for x in [p, p * (1.0 + f64::EPSILON)] {
                assert_eq!(
                    LatencyHistogram::bucket_index(x),
                    reference(x),
                    "bucket mismatch at 2^{e} neighbor {x}"
                );
            }
            // The value immediately *below* a power of two is where the bit extraction
            // is strictly more correct than the log2 formulation: libm's log2 rounds
            // 2^e·(1 - 2^-53) to exactly e, so the reference misfiled it one full
            // power-of-two bucket high; the exponent field cannot.
            if (1..EXP_BUCKETS as i32).contains(&e) {
                let just_below = p * (1.0 - f64::EPSILON / 2.0);
                assert_eq!(
                    LatencyHistogram::bucket_index(just_below),
                    (e as usize - 1) * SUB_BUCKETS + (SUB_BUCKETS - 1),
                    "just-below-2^{e} must land in the top sub-bucket below"
                );
            }
        }
    }

    #[test]
    fn bucket_bounds_contain_the_value_and_match_the_representative() {
        let mut v = 1e-2;
        while v < 1e9 {
            let (lo, hi) = LatencyHistogram::bucket_bounds(v);
            assert!(lo <= v && v < hi, "bounds ({lo}, {hi}) must contain {v}");
            if v >= 1.0 {
                let rep = LatencyHistogram::bucket_value(LatencyHistogram::bucket_index(v));
                assert!(
                    lo <= rep && rep <= hi,
                    "representative {rep} outside ({lo}, {hi}) at {v}"
                );
                // The quantization granularity is bounded by 2/SUB_BUCKETS relative.
                assert!((hi - lo) / v <= 2.0 / SUB_BUCKETS as f64 + 1e-12);
            }
            v *= 1.07;
        }
        // Non-finite values clamp to the zero bucket, like record().
        assert_eq!(LatencyHistogram::bucket_bounds(f64::NAN).0, 0.0);
        assert_eq!(LatencyHistogram::bucket_bounds(-3.0).0, 0.0);
        // The clamp bucket is open-ended: values beyond the covered range must still be
        // contained by their reported bounds.
        for v in [2f64.powi(41), 1e15, 1e300] {
            let (lo, hi) = LatencyHistogram::bucket_bounds(v);
            assert!(lo <= v, "clamp-bucket lower edge {lo} must not exceed {v}");
            assert_eq!(
                hi,
                f64::INFINITY,
                "the clamp bucket has no finite upper edge"
            );
        }
    }

    #[test]
    fn relative_error_bound_holds() {
        // Every recorded value should be reported by its own bucket within ~2/SUB_BUCKETS
        // relative error.
        let mut worst = 0.0f64;
        for v in [1.0, 3.0, 17.0, 123.0, 999.0, 12_345.0, 1_000_000.0] {
            let idx = LatencyHistogram::bucket_index(v);
            let rep = LatencyHistogram::bucket_value(idx);
            let rel = (rep - v).abs() / v;
            worst = worst.max(rel);
        }
        assert!(
            worst < 2.0 / SUB_BUCKETS as f64 + 0.02,
            "worst relative error {worst}"
        );
    }

    /// `record_n` as it was written before the batched recorder: the value clamped,
    /// bucketed and summed one at a time, the extremes kept in the `Option`s.
    fn record_n_reference(h: &mut LatencyHistogram, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let v = if value > 0.0 && value.is_finite() {
            value
        } else {
            0.0
        };
        h.buckets[LatencyHistogram::bucket_index(v)] += n;
        h.count += n;
        h.sum += v * n as f64;
        if h.min.is_none_or(|m| v < m) {
            h.min = Some(v);
        }
        if h.max.is_none_or(|m| v > m) {
            h.max = Some(v);
        }
    }

    /// A test value of one of the classes the batched recorder must agree on: non-finite
    /// and signed zeros, negatives, the shared `[0, 1)` and `[1, 2)` index ranges,
    /// powers of two, the clamp bucket past 2^40, subnormals, the value one ulp below a
    /// `k/32` edge of the linear buckets, and latencies in seconds.
    fn test_value(class: u8, u: f64) -> f64 {
        const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        match class {
            0 => SPECIAL[(u * SPECIAL.len() as f64) as usize],
            1 => -u * 1e3,
            2 => u,
            3 => 1.0 + u,
            4 => 2f64.powi(40) * (1.0 + u * 1e3),
            5 => 2f64.powi((u * 45.0) as i32),
            6 => f64::MIN_POSITIVE * u,
            7 => (((u * SUB_BUCKETS as f64) as usize + 1) as f64 / SUB_BUCKETS as f64).next_down(),
            _ => 1e-5 * (u * 12.0).exp(),
        }
    }

    /// The histogram's serialized bits.
    fn json(h: &LatencyHistogram) -> String {
        serde_json::to_string(h).expect("histograms serialize")
    }

    /// The percentile as a scan over every bucket, the form the occupied-range scan
    /// replaced.
    fn full_scan_percentile(h: &LatencyHistogram, q: f64) -> f64 {
        if h.count == 0 {
            return 0.0;
        }
        let target = (q * h.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return LatencyHistogram::bucket_value(i).clamp(h.min(), h.max());
            }
        }
        h.max()
    }

    proptest::proptest! {
        #[test]
        fn record_scaled_n_is_bit_identical_to_a_record_n_loop(
            before in proptest::collection::vec((0u8..9, 0.0f64..1.0), 0..6),
            values in proptest::collection::vec((0u8..9, 0.0f64..1.0), 0..300),
            scale_pick in 0usize..3,
            n_pick in 0usize..3,
        ) {
            let scale = [1.0, 1e6, 1e-3][scale_pick];
            let n = [0u64, 1, 3][n_pick];
            let values: Vec<f64> = values.iter().map(|&(c, u)| test_value(c, u)).collect();
            // Without zeros, and unscaled in [0.5, 2), the minimum lies in [0, 1) above
            // values in [1, 2) that share its bucket indices.
            let positive: Vec<f64> =
                values.iter().copied().filter(|&v| v > 0.0 && v.is_finite()).collect();
            let shared: Vec<f64> =
                values.iter().copied().filter(|v| (0.5..2.0).contains(v)).collect();
            for (values, scale) in [(values, scale), (positive, scale), (shared, 1.0)] {
                // Empty when `before` is empty, otherwise already holding values.
                let mut start = LatencyHistogram::new();
                for &(c, u) in &before {
                    start.record_n(test_value(c, u), 2);
                }
                let mut batched = start.clone();
                batched.record_scaled_n(&values, scale, n);
                let mut looped = start.clone();
                let mut reference = start.clone();
                for &v in &values {
                    looped.record_n(v * scale, n);
                    record_n_reference(&mut reference, v * scale, n);
                }
                proptest::prop_assert_eq!(json(&batched), json(&looped));
                proptest::prop_assert_eq!(json(&batched), json(&reference));
                // The occupied-range percentile equals a scan over every bucket.
                for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                    proptest::prop_assert_eq!(
                        batched.percentile(q).to_bits(),
                        full_scan_percentile(&batched, q).to_bits()
                    );
                }
                // The occupied-range reset leaves every bucket zero.
                batched.reset();
                proptest::prop_assert!(batched.buckets.iter().all(|&b| b == 0));
                proptest::prop_assert_eq!(json(&batched), json(&LatencyHistogram::new()));
            }
        }
    }

    #[test]
    fn occupied_range_covers_the_shared_low_buckets_and_the_clamp_bucket() {
        let last = SUB_BUCKETS * EXP_BUCKETS - 1;
        let range = |values: &[f64]| {
            let mut h = LatencyHistogram::new();
            h.record_scaled_n(values, 1.0, 1);
            let occupied = h.occupied();
            for &v in values {
                let i = LatencyHistogram::bucket_index(LatencyHistogram::clamp(v));
                assert!(
                    occupied.contains(&i),
                    "bucket {i} of {v} outside {occupied:?}"
                );
            }
            occupied
        };
        assert_eq!(LatencyHistogram::new().occupied(), 0..0);
        // 0.9 files at index 28 and 1.5 at index 16: the range must hold both.
        assert_eq!(range(&[0.9, 1.5]), 0..SUB_BUCKETS);
        assert_eq!(range(&[0.2]), 0..SUB_BUCKETS);
        // 3.0 is the middle of [2, 4): index SUB_BUCKETS + SUB_BUCKETS / 2.
        assert_eq!(range(&[1.99, 3.0]), 0..SUB_BUCKETS + SUB_BUCKETS / 2 + 1);
        assert_eq!(range(&[2.0, 5.0]).start, SUB_BUCKETS);
        assert_eq!(range(&[1e13, 1e300]), last..last + 1);
        assert_eq!(range(&[0.5, 1e13]), 0..last + 1);
    }

    /// A serialized histogram (or a value already holding one) with one field replaced.
    fn with_field(h: &impl serde::Serialize, field: &str, value: serde::Value) -> serde::Value {
        match serde::Serialize::to_value(h) {
            serde::Value::Object(entries) => serde::Value::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| {
                        if k == field {
                            (k, value.clone())
                        } else {
                            (k, v)
                        }
                    })
                    .collect(),
            ),
            _ => panic!("histograms serialize as objects"),
        }
    }

    fn parse(v: &serde::Value) -> Result<LatencyHistogram, serde::Error> {
        <LatencyHistogram as serde::Deserialize>::from_value(v)
    }

    /// The length of the serialized bucket list.
    fn listed(h: &LatencyHistogram) -> usize {
        let wire = serde::Serialize::to_value(h);
        wire.get("buckets")
            .and_then(serde::Value::as_array)
            .expect("histograms serialize their buckets as a list")
            .len()
    }

    /// Asserts that `v` fails to parse with an error naming the histogram and `reason`.
    fn assert_rejected(v: &serde::Value, reason: &str) {
        let err = parse(v)
            .expect_err(&format!("{v:?} must not parse"))
            .to_string();
        assert!(
            err.starts_with("invalid latency histogram") && err.contains(reason),
            "expected `{reason}`, got `{err}`"
        );
    }

    #[test]
    fn deserialization_rejects_histograms_no_recording_produces() {
        use serde::Value::{Array, Float, Null, UInt};
        let mut h = LatencyHistogram::new();
        h.record_scaled_n(&[300.0, 450.0, 900.0], 1.0, 1);
        let restored = parse(&serde::Serialize::to_value(&h)).expect("a recorded histogram parses");
        assert_eq!(json(&restored), json(&h));
        let empty = parse(&serde::Serialize::to_value(&LatencyHistogram::new()));
        assert!(empty.expect("an empty histogram parses").is_empty());

        let span = h.occupied().len();
        // A list of `len` buckets holding one count.
        let list_of = |len: usize| {
            let mut buckets = vec![UInt(0); len];
            if let Some(first) = buckets.first_mut() {
                *first = UInt(1);
            }
            Array(buckets)
        };
        let wrong_length = |n: usize| format!("{n} buckets where the extremes span {span}");
        let finite = || String::from("finite and non-negative");
        let rejected = [
            // Bucket lists that do not match the range the extremes span, the full
            // layout of earlier builds among them.
            ("buckets", Array(vec![UInt(0); 64]), wrong_length(64)),
            ("buckets", list_of(span + 1), wrong_length(span + 1)),
            ("buckets", list_of(span - 1), wrong_length(span - 1)),
            ("buckets", list_of(1280), wrong_length(1280)),
            // Count off by one either way.
            ("count", UInt(4), "count 4 but the buckets hold 3".into()),
            ("count", UInt(2), "count 2 but the buckets hold 3".into()),
            // Extremes out of order, missing, or not finite and non-negative: each is
            // refused before it could fix a reversed or unbounded range.
            ("min", Float(1000.0), "min 1000 exceeds max 900".into()),
            ("max", Float(100.0), "min 300 exceeds max 100".into()),
            ("max", Null, "do not fit count 3".into()),
            ("min", Null, "do not fit count 3".into()),
            ("min", Float(-1.0), finite()),
            ("max", Float(-1.0), finite()),
            ("max", Float(f64::INFINITY), finite()),
            ("min", Float(f64::INFINITY), finite()),
            ("max", Float(f64::NEG_INFINITY), finite()),
            ("min", Float(f64::NAN), finite()),
            ("max", Float(f64::NAN), finite()),
            ("sum", Float(-5.0), "sum -5".into()),
            ("sum", Float(f64::NAN), "not finite".into()),
        ];
        for (field, value, reason) in &rejected {
            assert_rejected(&with_field(&h, field, value.clone()), reason);
        }
        // Extremes on an empty histogram.
        let empty = LatencyHistogram::new();
        assert_rejected(&with_field(&empty, "min", Float(1.0)), "do not fit count 0");

        // Below 2 the range always starts at index 0, so a recorded bucket whose values
        // lie below the recorded minimum has a place in the list: 1.1 files at index 3,
        // which no value of 1.5..=1.9 reaches.
        let mut stray = LatencyHistogram::new();
        stray.record_scaled_n(&[1.1, 1.5, 1.9], 1.0, 1);
        assert_eq!(LatencyHistogram::bucket_index(1.1), 3);
        assert_rejected(
            &with_field(&stray, "min", Float(1.5)),
            "bucket 3 holds values outside the recorded range 1.5..=1.9",
        );

        // The same list read over another range of its length: 1.5 and 3.0 span
        // indices 0..=48 with bucket 0 empty, and 2.0 and 6.0 span 32..=80, so the
        // shifted list would put the minimum's bucket on that empty first entry.
        let mut low = LatencyHistogram::new();
        low.record_scaled_n(&[1.5, 3.0], 1.0, 1);
        let shifted = with_field(&with_field(&low, "min", Float(2.0)), "max", Float(6.0));
        assert_eq!(LatencyHistogram::bucket_index(2.0), SUB_BUCKETS);
        assert_eq!(LatencyHistogram::bucket_index(6.0), SUB_BUCKETS + 48);
        assert_rejected(&shifted, "min 2 falls in bucket 32, which is empty");
        // A maximum moved inside the shared low indices keeps the list's length but
        // lands on an empty bucket.
        let mut narrow = LatencyHistogram::new();
        narrow.record_scaled_n(&[1.5, 1.6], 1.0, 1);
        assert_rejected(
            &with_field(&narrow, "max", Float(1.9)),
            "max 1.9 falls in bucket 28, which is empty",
        );
    }

    #[test]
    fn a_lognormal_interval_writes_only_its_occupied_buckets() {
        // One fleet interval of a memcached-like node: 1,000 latencies in seconds
        // around a 250 µs median, recorded in microseconds as the node books do.
        let mut rng = crate::rng::seeded_rng(1);
        let seconds: Vec<f64> = (0..1_000)
            .map(|_| crate::rng::sample_lognormal(&mut rng, 250e-6, 0.4))
            .collect();
        let mut h = LatencyHistogram::new();
        h.record_scaled_n(&seconds, 1e6, 1);
        assert_eq!(listed(&h), h.occupied().len());
        assert_eq!(listed(&h), 116, "the pinned interval spans 116 buckets");
        assert!(listed(&h) < SUB_BUCKETS * EXP_BUCKETS / 8);
        let back: LatencyHistogram = serde_json::from_str(&json(&h)).expect("it parses");
        assert_eq!(back.buckets, h.buckets);
        assert_eq!(json(&back), json(&h));
    }

    proptest::proptest! {
        #[test]
        fn every_recording_round_trips_through_its_occupied_buckets(
            shape in 0usize..6,
            values in proptest::collection::vec((0u8..9, 0.0f64..1.0), 0..200),
            split in 0.0f64..1.0,
            n_pick in 0usize..3,
        ) {
            // Empty, only below 1, only in [1, 2), only the clamp bucket past 2^40,
            // only zeros and clamped values, or any mix of the test classes.
            let class = |c: u8| [c, 2, 3, 4, 0, c][shape];
            let values: Vec<f64> = if shape == 0 {
                Vec::new()
            } else {
                values.iter().map(|&(c, u)| test_value(class(c), u)).collect()
            };
            let n = [1u64, 2, 5][n_pick];
            let at = (split * values.len() as f64) as usize;
            let mut h = LatencyHistogram::new();
            h.record_scaled_n(&values[..at], 1.0, n);
            for &v in &values[at..] {
                h.record_n(v, n);
            }
            proptest::prop_assert_eq!(listed(&h), h.occupied().len());
            let text = json(&h);
            let back: LatencyHistogram =
                serde_json::from_str(&text).map_err(|e| format!("{text}: {e}"))?;
            proptest::prop_assert_eq!(json(&back), text);
            proptest::prop_assert_eq!(&back.buckets, &h.buckets);
            proptest::prop_assert_eq!(back.count(), h.count());
            proptest::prop_assert_eq!(back.mean().to_bits(), h.mean().to_bits());
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                proptest::prop_assert_eq!(back.percentile(q).to_bits(), h.percentile(q).to_bits());
            }
        }
    }
}
