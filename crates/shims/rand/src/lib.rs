//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this in-tree shim
//! provides the (small) subset of the `rand` 0.8 API the workspace uses:
//! [`rngs::SmallRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! methods `gen`, `gen_bool` and `gen_range` over integer and float
//! ranges. The generator is xoshiro256** seeded through splitmix64 — the
//! same construction `SmallRng` uses on 64-bit targets — so streams are
//! deterministic, well distributed, and stable across runs and platforms.
//!
//! It is NOT a drop-in reimplementation of `rand`'s exact value streams;
//! experiment seeds recorded with this shim are internally reproducible
//! but differ from upstream `rand`.

use std::ops::{Range, RangeInclusive};

/// Seedable random generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of randomness (subset of `rand::Rng`).
pub trait Rng {
    /// The next 64 raw bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of `T` (only `f64` in `[0, 1)` and
    /// the raw integer widths are supported).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }

    /// A uniform value in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// Types samplable uniformly from their natural domain.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types uniformly samplable between two endpoints (subset of
/// `rand::distributions::uniform::SampleUniform`).
pub trait SampleUniform: Copy + PartialOrd {
    /// A uniform draw from `[lo, hi)`.
    fn sample_single<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// A uniform draw from `[lo, hi]`.
    fn sample_single_inclusive<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// `bits % span`: the draw's offset into a range of `span` values.
///
/// Every span but one fits a `u64`, and there the remainder is taken in
/// `u64` — the same value the `u128` remainder gives (the operands are
/// equal), without its library call. Only the full-width inclusive span
/// (`2^64`, e.g. `0..=u64::MAX`) needs the `u128` path.
#[inline]
fn reduce(bits: u64, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(span) => u128::from(bits % span),
        Err(_) => u128::from(bits) % span,
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_single<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128;
                let v = reduce(rng.next_u64(), span);
                (lo as i128 + v as i128) as $t
            }
            fn sample_single_inclusive<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = reduce(rng.next_u64(), span);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_single<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        lo + f64::sample(rng) * (hi - lo)
    }
    fn sample_single_inclusive<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo <= hi, "empty range in gen_range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Ranges that can produce a uniform sample (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from `rng`.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        T::sample_single(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        T::sample_single_inclusive(*self.start(), *self.end(), rng)
    }
}

/// Small fast generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** seeded via splitmix64 (what `rand`'s `SmallRng` is on
    /// 64-bit platforms).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(SmallRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0usize..=5);
            assert!(w <= 5);
            let x = rng.gen_range(-2.5f64..2.5);
            assert!((-2.5..2.5).contains(&x));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            let s = rng.gen_range(-4i64..-1);
            assert!((-4..-1).contains(&s));
        }
    }

    /// The `u128` remainder every integer draw used to take: the oracle
    /// for [`super::reduce`].
    fn reduce_u128(bits: u64, span: u128) -> u128 {
        u128::from(bits) % span
    }

    #[test]
    fn u64_reduction_matches_u128_remainder() {
        // Property over random draws and random spans of every width (the
        // shim cannot use the proptest shim, which depends on it), plus
        // the edges: span 1, spans at and around 2^64, and extreme bits.
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let full = 1u128 << 64;
        let mut spans = vec![1, 2, 3, full - 1, full];
        for _ in 0..4096 {
            let width = rng.gen_range(1u32..=64);
            let raw = rng.next_u64() >> (64 - width);
            spans.push(u128::from(raw.max(1)));
        }
        for &span in &spans {
            for bits in [0, 1, u64::MAX - 1, u64::MAX, rng.next_u64(), rng.next_u64()] {
                assert_eq!(
                    super::reduce(bits, span),
                    reduce_u128(bits, span),
                    "bits {bits} span {span}"
                );
            }
        }
    }

    #[test]
    fn full_width_ranges_match_the_u128_formula() {
        // Same seed, same draws: every range width samples the value the
        // `u128` formula gives for the raw bits it consumed.
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        for _ in 0..256 {
            let bits = b.next_u64();
            assert_eq!(a.gen_range(0..=u64::MAX), bits);
            let bits = b.next_u64();
            let want = (i64::MIN as i128 + reduce_u128(bits, 1u128 << 64) as i128) as i64;
            assert_eq!(a.gen_range(i64::MIN..=i64::MAX), want);
            let bits = b.next_u64();
            let want = (i64::MIN as i128 + reduce_u128(bits, (1u128 << 64) - 1) as i128) as i64;
            assert_eq!(a.gen_range(i64::MIN..i64::MAX), want);
            let bits = b.next_u64();
            assert_eq!(a.gen_range(0..u64::MAX), bits % u64::MAX);
            let bits = b.next_u64();
            assert_eq!(a.gen_range(-3i8..=100), (-3 + (bits % 104) as i128) as i8);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
