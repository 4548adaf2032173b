//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace vendors a minimal
//! deterministic implementation of the `rand` API surface the pliant crates actually use:
//! [`rngs::SmallRng`] (xoshiro256++), [`SeedableRng::seed_from_u64`], the [`Rng`] helper
//! methods `gen`/`gen_range`, and [`seq::SliceRandom::shuffle`].
//!
//! The streams are deterministic and stable across runs and platforms, which is all the
//! reproduction needs; they do not match the upstream `rand` crate bit-for-bit.
//!
//! [`rngs::SmallRng`] serializes as its four state words, so an owner checkpoints a
//! generator as a plain field and a restored one continues the stream exactly.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next word in the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32-bit word in the stream.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from the full value domain via [`Rng::gen`].
pub trait StandardSample {
    /// Draws one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// Converts a random word into a uniform f64 in `[0, 1)` using the top 53 bits.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// The span of a range of any type up to 64 bits is below 2^64, so the draw is a `u64`
// remainder (one division instruction, where a `u128` one is a library call).
macro_rules! int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let draw = rng.next_u64() % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
    )+};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        self.start + (self.end - self.start) * unit_f64(rng.next_u64())
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        self.start + (self.end - self.start) * unit_f64(rng.next_u64()) as f32
    }
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value covering the type's full domain (`u64`, `u32`, `f64` in `[0,1)`, or
    /// `bool`).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from a half-open range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns true with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Constructing RNGs from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates an RNG whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic PRNG (xoshiro256++), seeded via SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl SmallRng {
        /// Returns the generator's internal 256-bit state: the words it serializes as.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }
    }

    impl serde::Serialize for SmallRng {
        fn to_value(&self) -> serde::Value {
            self.s.to_value()
        }
    }

    /// Reads the four state words back. Any other width is rejected, and so is the
    /// all-zero state: it is a fixed point of xoshiro256++ that seeding never produces.
    impl serde::Deserialize for SmallRng {
        fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
            let words = Vec::<u64>::from_value(value)?;
            let s: [u64; 4] = words.as_slice().try_into().map_err(|_| {
                serde::Error::custom(format!("rng state must be 4 words, got {}", words.len()))
            })?;
            if s == [0; 4] {
                return Err(serde::Error::custom("rng state must not be all-zero"));
            }
            Ok(SmallRng { s })
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Random operations on slices, mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// Shuffling and selection on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` if the slice is empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};
    use serde::{Deserialize, Serialize, Value};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let f: f64 = rng.gen_range(-2.0..4.0);
            assert!((-2.0..4.0).contains(&f));
        }
    }

    /// The draw `gen_range` made when it took the remainder in `u128`.
    fn wide_draw<T: TryFrom<i128>>(word: u64, start: i128, end: i128) -> T
    where
        T::Error: std::fmt::Debug,
    {
        let span = (end - start) as u128;
        T::try_from(start + ((word as u128) % span) as i128).unwrap()
    }

    /// Replays one word through `gen_range`: a generator whose next word is `word`.
    struct Word(u64);

    impl super::RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_gen_range_matches_the_u128_remainder() {
        let mut words = SmallRng::seed_from_u64(19);
        let mut cases: Vec<u64> = (0..2_000).map(|_| words.gen::<u64>()).collect();
        cases.extend([0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1]);
        for w in cases {
            let mut r = Word(w);
            assert_eq!(
                r.gen_range(i64::MIN..i64::MAX),
                wide_draw::<i64>(w, i64::MIN.into(), i64::MAX.into())
            );
            assert_eq!(
                r.gen_range(0..u64::MAX),
                wide_draw::<u64>(w, 0, u64::MAX.into())
            );
            assert_eq!(r.gen_range(7u64..8), 7);
            assert_eq!(r.gen_range(-3i32..-2), -3);
            assert_eq!(r.gen_range(-40i32..17), wide_draw::<i32>(w, -40, 17));
            assert_eq!(r.gen_range(i8::MIN..i8::MAX), wide_draw::<i8>(w, -128, 127));
            assert_eq!(
                r.gen_range(i32::MIN..i32::MAX),
                wide_draw::<i32>(w, i32::MIN.into(), i32::MAX.into())
            );
            assert_eq!(r.gen_range(3usize..1_000), wide_draw::<usize>(w, 3, 1_000));
            assert_eq!(r.gen_range(0u8..255), wide_draw::<u8>(w, 0, 255));
        }
    }

    #[test]
    fn unit_f64_is_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn serialized_state_is_the_four_words_and_resumes_the_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        for _ in 0..17 {
            a.gen::<u64>();
        }
        let wire = a.to_value();
        let words: Vec<Value> = a.state().iter().map(|&w| Value::UInt(w)).collect();
        assert_eq!(wire, Value::Array(words));
        let mut b = SmallRng::from_value(&wire).unwrap();
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn deserialize_rejects_the_wrong_width_and_the_all_zero_state() {
        let words = |n: usize, w: u64| Value::Array(vec![Value::UInt(w); n]);
        for n in [3, 5] {
            let err = SmallRng::from_value(&words(n, 7)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("rng state must be 4 words, got {n}")
            );
        }
        let err = SmallRng::from_value(&words(4, 0)).unwrap_err();
        assert_eq!(err.to_string(), "rng state must not be all-zero");
        assert!(SmallRng::from_value(&words(4, 7)).is_ok());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
