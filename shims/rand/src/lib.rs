//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the *exact* API subset it uses: [`SeedableRng::seed_from_u64`],
//! the [`Rng`] extension methods (`gen_range`, `gen_bool`, `gen`),
//! [`rngs::StdRng`], and [`distributions::Uniform`]. The generator is
//! xoshiro256** seeded through SplitMix64 — high-quality, tiny, and (unlike
//! the real `StdRng`) guaranteed stable across toolchain updates, which is
//! what the workspace's bit-reproducibility tests actually want.
//!
//! Two extensions go beyond `rand`'s API, both on [`rngs::StdRng`]:
//! [`advance`](rngs::StdRng::advance) jumps the generator `k` draws ahead
//! in O(log k), and [`state`](rngs::StdRng::state) reads its four state
//! words. Together they let a caller run lanes of one stream side by side
//! (`dlrm_tensor::init::uniform` fills a table eight SIMD lanes at a time),
//! each lane producing exactly the draws the serial stream would.
//!
//! Everything is deterministic; there is no `thread_rng`/OS entropy on
//! purpose — all randomness in this repo must flow through explicit seeds.

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a single `u64` seed (via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core generator interface: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// User-facing extension methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from a range (`Range` or `RangeInclusive`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli sample with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        unit_f64(self.next_u64()) < p
    }

    /// A sample of a type with a canonical uniform distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Types with a canonical "whole domain / unit interval" distribution.
pub trait Standard {
    /// Samples the canonical distribution for this type.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    /// The top 24 bits · 2⁻²⁴, exact in `f32`: narrowing [`unit_f64`]
    /// would round its largest draws up to `1.0`.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// `u64` bits → uniform f64 in `[0, 1)` using the top 53 bits.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that can produce a uniform sample.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

/// Unbiased integer sample in `[0, n)` via Lemire-style widening multiply
/// with rejection.
#[inline]
fn uniform_below<R: RngCore>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(n as u128);
        let lo = m as u64;
        if lo >= n.wrapping_neg() % n {
            return (m >> 64) as u64;
        }
        // Rejected to remove modulo bias; retry.
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t; // full-domain u64 range
                }
                (lo as i128 + uniform_below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let u = unit_f64(rng.next_u64());
                let v = (self.start as f64 + u * (self.end as f64 - self.start as f64)) as $t;
                // Guard the open upper bound against FP round-up, the
                // narrowing to `$t` included.
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Distribution objects, mirroring `rand::distributions`.
pub mod distributions {
    use super::RngCore;

    /// A distribution that can be sampled with any generator.
    pub trait Distribution<T> {
        /// Draws one sample.
        fn sample<R: RngCore>(&self, rng: &mut R) -> T;
    }

    /// Uniform distribution over `[lo, hi)`.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
    }

    impl<T: Copy> Uniform<T> {
        /// Uniform over the half-open interval `[lo, hi)`.
        pub fn new(lo: T, hi: T) -> Self {
            Uniform { lo, hi }
        }
    }

    macro_rules! impl_uniform {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Uniform<$t> {
                fn sample<R: RngCore>(&self, rng: &mut R) -> $t {
                    use super::SampleRange;
                    (self.lo..self.hi).sample_single(rng)
                }
            }
        )*};
    }

    impl_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};
    use std::sync::OnceLock;

    /// xoshiro256** seeded via SplitMix64 — the workspace's standard
    /// generator. Stable across platforms and toolchains by construction.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// Alias: the "small" generator is the same engine here.
    pub type SmallRng = StdRng;

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

    impl StdRng {
        /// Moves the generator `k` draws ahead: afterwards it is exactly
        /// where `k` calls of `next_u64` would have left it, at the cost of
        /// O(log k) polynomial squarings and 256 generator steps.
        ///
        /// The state update is linear over GF(2), so with `p` its
        /// characteristic polynomial, the `k`-step update is `r(T)` for
        /// `r = x^k mod p` (Cayley–Hamilton): the XOR of the states `i`
        /// steps on, over the set bits `i` of `r`.
        pub fn advance(&mut self, k: u64) {
            let p = char_poly();
            let mut r = [1, 0, 0, 0];
            for bit in (0..u64::BITS - k.leading_zeros()).rev() {
                r = mul_mod(&r, &r, p);
                if k >> bit & 1 == 1 {
                    r = mul_x(r, p);
                }
            }
            let mut acc = [0; 4];
            for i in 0..256 {
                if r[i / 64] >> (i % 64) & 1 == 1 {
                    acc.iter_mut().zip(self.s).for_each(|(a, s)| *a ^= s);
                }
                self.next_u64();
            }
            self.s = acc;
        }

        /// The four xoshiro256 state words `s[0..4]`, for a caller that
        /// steps the same generator elsewhere (in SIMD lanes, say).
        pub fn state(&self) -> [u64; 4] {
            self.s
        }
    }

    /// `a · x mod p` over GF(2). A polynomial of degree < 256 is four
    /// words, bit `i` the coefficient of `x^i`; `p`'s `x^256` is implicit.
    fn mul_x(a: [u64; 4], p: &[u64; 4]) -> [u64; 4] {
        let carry = (a[3] >> 63).wrapping_neg();
        [
            (a[0] << 1) ^ (p[0] & carry),
            (a[1] << 1 | a[0] >> 63) ^ (p[1] & carry),
            (a[2] << 1 | a[1] >> 63) ^ (p[2] & carry),
            (a[3] << 1 | a[2] >> 63) ^ (p[3] & carry),
        ]
    }

    /// `a · b mod p` over GF(2), Horner over `b`'s bits.
    fn mul_mod(a: &[u64; 4], b: &[u64; 4], p: &[u64; 4]) -> [u64; 4] {
        let mut acc = [0; 4];
        for i in (0..256).rev() {
            acc = mul_x(acc, p);
            let take = (b[i / 64] >> (i % 64) & 1).wrapping_neg();
            acc.iter_mut().zip(a).for_each(|(c, a)| *c ^= a & take);
        }
        acc
    }

    /// The characteristic polynomial of xoshiro256's state update, found
    /// by Berlekamp–Massey from the generator's own bits: bit 0 of `s[0]`
    /// over 512 steps. The polynomial is primitive (the period is
    /// 2^256 − 1), so any non-zero bit sequence of the state has it as its
    /// minimal polynomial, of degree 256.
    fn char_poly() -> &'static [u64; 4] {
        static P: OnceLock<[u64; 4]> = OnceLock::new();
        P.get_or_init(|| {
            const N: usize = 512;
            let mut g = StdRng { s: [1, 0, 0, 0] };
            let seq: [u8; N] = std::array::from_fn(|_| {
                let bit = g.s[0] as u8 & 1;
                g.next_u64();
                bit
            });
            // `c` is the shortest recurrence found so far:
            // seq[n] = XOR over i in 1..=l of c[i] & seq[n - i].
            let (mut c, mut b) = ([0u8; N + 1], [0u8; N + 1]);
            (c[0], b[0]) = (1, 1);
            let (mut l, mut m) = (0, 1);
            for n in 0..N {
                let d = (1..=l).fold(seq[n], |d, i| d ^ (c[i] & seq[n - i]));
                if d == 0 {
                    m += 1;
                    continue;
                }
                let t = c;
                (m..=N).for_each(|i| c[i] ^= b[i - m]);
                if 2 * l <= n {
                    (l, b, m) = (n + 1 - l, t, 1);
                } else {
                    m += 1;
                }
            }
            assert_eq!(l, 256, "xoshiro256's state update has degree 256");
            // p(x) = x^256 · c(1/x): the coefficient of x^j is c[256 - j].
            let mut p = [0; 4];
            (0..256).for_each(|j| p[j / 64] |= u64::from(c[256 - j]) << (j % 64));
            p
        })
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: f32 = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&y));
            let z: u32 = rng.gen_range(0..=5);
            assert!(z <= 5);
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits={hits}");
    }

    /// The largest draw used to round up to the open upper bound: the f64
    /// `1 - 2^-53` is below `1.0`, but narrows to `1.0f32`.
    #[test]
    fn f32_range_never_returns_its_upper_bound() {
        struct AllOnes;
        impl RngCore for AllOnes {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let x: f32 = AllOnes.gen_range(0.0..1.0f32);
        assert!((0.0..1.0).contains(&x), "{x}");
        let next_up = f32::from_bits(1.0f32.to_bits() + 1);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..1000 {
            assert_eq!(rng.gen_range(1.0..next_up), 1.0);
        }
    }

    /// The same round-up in `gen::<f32>()`, whose largest draw narrowed
    /// to `1.0`, outside `[0, 1)`.
    #[test]
    fn standard_f32_stays_below_one() {
        struct AllOnes;
        impl RngCore for AllOnes {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let x: f32 = AllOnes.gen();
        assert_eq!(x, 1.0 - f32::EPSILON / 2.0);
        let mut rng = StdRng::seed_from_u64(19);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&rng.gen::<f32>())));
    }

    fn stepped(mut rng: StdRng, k: u64) -> StdRng {
        (0..k).for_each(|_| {
            rng.next_u64();
        });
        rng
    }

    #[test]
    fn advance_equals_serial_draws() {
        let start = StdRng::seed_from_u64(0xADA);
        for k in [0, 1, 63, 64, 255, 256, 257, (1 << 20) + 3] {
            let mut jumped = start.clone();
            jumped.advance(k);
            assert_eq!(jumped.state(), stepped(start.clone(), k).state(), "k={k}");
        }
    }

    #[test]
    fn advances_compose() {
        let start = StdRng::seed_from_u64(0xC0);
        for (a, b) in [
            (0, 5),
            (1, 1),
            (100, 27),
            (1 << 40, 3),
            (u64::MAX / 3, 12_345),
        ] {
            let (mut ab, mut whole) = (start.clone(), start.clone());
            ab.advance(a);
            ab.advance(b);
            whole.advance(a + b);
            assert_eq!(ab.state(), whole.state(), "a={a} b={b}");
        }
    }

    #[test]
    fn uniform_distribution_samples_in_range() {
        use distributions::{Distribution, Uniform};
        let mut rng = StdRng::seed_from_u64(13);
        let d = Uniform::new(10u64, 20u64);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((10..20).contains(&x));
        }
    }
}
