//! A minimal, dependency-free drop-in for the subset of the `rand` 0.8
//! API this workspace uses: [`rngs::SmallRng`], [`SeedableRng`], and the
//! [`Rng`] extension trait (`gen`, `gen_range`, `gen_bool`).
//!
//! The container this repository builds in has no access to a crates-io
//! registry, so the upstream crate cannot be fetched; this shim keeps the
//! call sites source-compatible. The generator is xoshiro256++ seeded via
//! SplitMix64 (the same construction upstream `SmallRng` uses on 64-bit
//! targets). Streams are deterministic per seed but are **not**
//! bit-identical to upstream `rand` — nothing in this repo depends on
//! upstream's exact streams, only on per-seed determinism.

#![deny(unsafe_code)]

pub mod rngs;

pub use rngs::SmallRng;

/// Core generator interface: a source of `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction (only `seed_from_u64` and `from_seed` are used
/// in this workspace).
pub trait SeedableRng: Sized {
    type Seed;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self;
}

/// Types producible by [`Rng::gen`] (upstream: the `Standard`
/// distribution).
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Integer types usable as [`Rng::gen_range`] endpoints.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample in `[low, high)`; `high > low` checked by caller.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform sample in `[low, high]`; `high >= low` checked by caller.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                let span = (high as i128 - low as i128) as u128;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (low as i128 + r) as $t
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                let span = (high as i128 - low as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (low as i128 + r) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range argument for [`Rng::gen_range`] (upstream `SampleRange`).
pub trait SampleRange<T> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_range(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(5u64..=15);
            assert!((5..=15).contains(&w));
            let x: usize = r.gen_range(0..3usize);
            assert!(x < 3);
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut r = SmallRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn standard_samples_full_width() {
        let mut r = SmallRng::seed_from_u64(4);
        // Over a few draws the high and low halves of u64 must both vary.
        let xs: Vec<u64> = (0..16).map(|_| r.gen::<u64>()).collect();
        assert!(xs.iter().any(|x| x >> 32 != 0));
        assert!(xs.iter().any(|x| x & 0xFFFF_FFFF != 0));
        let f: f64 = r.gen();
        assert!((0.0..1.0).contains(&f));
    }
}
