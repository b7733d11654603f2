//! Reproducible random initializers.
//!
//! All randomness in the workspace flows through explicitly seeded
//! [`rand::rngs::StdRng`] instances so that every experiment (and the
//! distributed-equals-single-process tests) is bit-reproducible.

use crate::aligned::AlignedVec;
use crate::matrix::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Returns a deterministically seeded RNG; `stream` lets callers derive
/// independent substreams from one experiment seed.
pub fn seeded_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Xavier/Glorot uniform initialization for a `K×C` weight matrix:
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f64).sqrt() as f32;
    uniform(rows, cols, -a, a, rng)
}

/// Uniform `U(lo, hi)` matrix: element `i`, row-major, is the `i`-th
/// `Uniform::new(lo, hi)` draw from `rng`, and `rng` is left where
/// `rows · cols` serial draws leave it.
///
/// From 2¹⁶ elements up, on a CPU with AVX-512, the draws
/// come eight SIMD lanes at a time: lane `j` is `rng` advanced `j · c`
/// draws ([`StdRng::advance`]) and writes elements `j·c .. (j+1)·c`, so
/// every element is the draw, and the bits, the serial loop gives it. The
/// serial loop is the other tier; it also writes the last `len mod 64`
/// elements.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Matrix {
    let len = rows * cols;
    Matrix::from_vec(rows, cols, fill(len, lo, hi, rng, len >= LANES_MIN_LEN))
}

/// Standard-normal matrix scaled by `std`.
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Matrix {
    // Box-Muller: avoids pulling in a distributions crate beyond `rand`.
    Matrix::from_fn(rows, cols, |_, _| {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    })
}

/// Embedding-table initialization used by the DLRM reference code:
/// `U(-1/sqrt(M), 1/sqrt(M))` for a table with `M` rows.
pub fn embedding_table(m: usize, e: usize, rng: &mut StdRng) -> Matrix {
    let a = (1.0 / (m as f64).sqrt()) as f32;
    uniform(m, e, -a, a, rng)
}

/// The shortest fill the lanes tier takes. Starting its lanes costs eight
/// [`StdRng::advance`]s, ≈ 10–20 µs each; the serial loop pays that back
/// only after tens of thousands of draws.
const LANES_MIN_LEN: usize = 1 << 16;

/// True when the lanes tier can run here (AVX-512F for the integer
/// lanes, AVX-512DQ for the `u64 → f64` conversion).
fn has_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `len` draws of `U(lo, hi)` into a fresh buffer, each element written
/// once — the first touch, after the huge-page advice ([`AlignedVec`]).
/// The first `len / 64 · 64` come from the lanes tier when `lanes` is
/// asked for and [`has_lanes`]; the rest from the serial loop.
fn fill(len: usize, lo: f32, hi: f32, rng: &mut StdRng, lanes: bool) -> AlignedVec {
    // The serial loop panics at its first draw of an empty range; so does
    // a fill the lanes tier would finish.
    assert!(len == 0 || lo < hi, "empty gen_range");
    // SAFETY: every element is written below, the lanes' share by
    // `lanes::fill` and the rest by the serial loop, before `data` is
    // returned; nothing reads it first.
    let mut data = unsafe { AlignedVec::uninit(len) };
    let out = data.as_mut_ptr();
    #[cfg(target_arch = "x86_64")]
    let done = if lanes && has_lanes() {
        let c = len / 64 * 8;
        let starts = std::array::from_fn(|_| {
            let s = rng.state();
            rng.advance(c as u64);
            s
        });
        // SAFETY: `has_lanes` holds; `out` holds `len >= 8·c` elements.
        unsafe { lanes::fill(out, c, &starts, lo, hi) };
        8 * c
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = {
        let _ = lanes;
        0
    };
    // A local generator stays in registers: `*rng` would be reloaded after
    // every store through `out`, which the compiler cannot prove apart.
    let (dist, mut serial) = (Uniform::new(lo, hi), rng.clone());
    for i in done..len {
        // SAFETY: `i < len`: the slot lies inside the allocation, and
        // `write` does not read the uninitialised value it replaces.
        unsafe { out.add(i).write(dist.sample(&mut serial)) };
    }
    *rng = serial;
    data
}

/// The lanes tier: xoshiro256** on eight `u64` lanes of a zmm register,
/// then [`Uniform`]'s `f32` sample in the same operations and roundings.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use crate::simd::transpose_8x8;
    use std::arch::x86_64::*;

    /// Writes `out[j·c + t]` = the `t`-th draw of `U(lo, hi)` from the
    /// generator whose state is `starts[j]`, for `j < 8` and `t < c`, a
    /// multiple of 8. Every eight steps the eight lanes' draws, one `ymm`
    /// per step, are transposed so each lane stores eight consecutive
    /// elements at once.
    ///
    /// # Safety
    /// The CPU has AVX-512F and AVX-512DQ, and `out` is valid for `8 · c`
    /// writes.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn fill(out: *mut f32, c: usize, starts: &[[u64; 4]; 8], lo: f32, hi: f32) {
        let mut s = [_mm512_setzero_si512(); 4];
        for (w, s) in s.iter_mut().enumerate() {
            let words: [u64; 8] = std::array::from_fn(|j| starts[j][w]);
            *s = _mm512_loadu_si512(words.as_ptr().cast());
        }
        let lo64 = _mm512_set1_pd(lo as f64);
        let span = _mm512_set1_pd(hi as f64 - lo as f64);
        let unit = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        let (lo32, hi32) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut draws = [_mm256_setzero_ps(); 8];
        for t in (0..c).step_by(8) {
            for d in &mut draws {
                // rotl(s1 · 5, 7) · 9, the multiplies as shifts and adds.
                let x5 = _mm512_add_epi64(_mm512_slli_epi64::<2>(s[1]), s[1]);
                let r = _mm512_rol_epi64::<7>(x5);
                let bits = _mm512_add_epi64(_mm512_slli_epi64::<3>(r), r);
                let shifted = _mm512_slli_epi64::<17>(s[1]);
                s[2] = _mm512_xor_si512(s[2], s[0]);
                s[3] = _mm512_xor_si512(s[3], s[1]);
                s[1] = _mm512_xor_si512(s[1], s[2]);
                s[0] = _mm512_xor_si512(s[0], s[3]);
                s[2] = _mm512_xor_si512(s[2], shifted);
                s[3] = _mm512_rol_epi64::<45>(s[3]);
                // The top 53 bits · 2^-53, then lo + u · (hi - lo) in f64:
                // multiply, then add (no FMA), narrowed, then clamped.
                let u = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(bits)), unit);
                let v = _mm512_cvtpd_ps(_mm512_add_pd(lo64, _mm512_mul_pd(u, span)));
                *d = _mm256_blendv_ps(v, lo32, _mm256_cmp_ps::<_CMP_GE_OQ>(v, hi32));
            }
            transpose_8x8(&mut draws);
            for (j, &row) in draws.iter().enumerate() {
                _mm256_storeu_ps(out.add(j * c + t), row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn seeded_rng_is_reproducible() {
        let a = uniform(4, 4, 0.0, 1.0, &mut seeded_rng(7, 0));
        let b = uniform(4, 4, 0.0, 1.0, &mut seeded_rng(7, 0));
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn streams_are_independent() {
        let a = uniform(4, 4, 0.0, 1.0, &mut seeded_rng(7, 0));
        let b = uniform(4, 4, 0.0, 1.0, &mut seeded_rng(7, 1));
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn xavier_bound_holds() {
        let m = xavier_uniform(64, 64, &mut seeded_rng(1, 0));
        let a = (6.0f64 / 128.0).sqrt() as f32;
        assert!(m.as_slice().iter().all(|&x| x > -a && x < a));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let m = normal(64, 64, 2.0, &mut seeded_rng(3, 0));
        let n = m.len() as f64;
        let mean = m.sum() / n;
        let var = m
            .as_slice()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 4.0).abs() < 0.6, "var {var}");
    }

    /// `len` draws of `U(lo, hi)` by the plain serial loop, and the draw
    /// after them.
    fn serial(len: usize, lo: f32, hi: f32, seed: u64) -> (Vec<u32>, u64) {
        let (dist, mut rng) = (Uniform::new(lo, hi), seeded_rng(seed, 0));
        let bits = (0..len).map(|_| dist.sample(&mut rng).to_bits()).collect();
        (bits, rng.next_u64())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const LENS: [usize; 10] = [0, 1, 7, 8, 63, 64, 65, 4_097, 640_000, 12_800_000];

    /// `lo = 1`, `hi` = the next `f32`: about half the draws narrow to
    /// `hi` and take the clamp branch.
    fn ranges() -> [(f32, f32); 3] {
        [
            (-0.05, 0.05),
            (-3.0, 7.5),
            (1.0, f32::from_bits(1.0f32.to_bits() + 1)),
        ]
    }

    #[test]
    fn each_tier_is_the_serial_stream_bit_for_bit() {
        let mut tiers = vec![false];
        if has_lanes() {
            tiers.push(true);
        } else {
            println!("skipped: lanes tier (no avx512f + avx512dq)");
        }
        for (lo, hi) in ranges() {
            for len in LENS {
                let (want, next) = serial(len, lo, hi, len as u64);
                for &lanes in &tiers {
                    let mut rng = seeded_rng(len as u64, 0);
                    let got = fill(len, lo, hi, &mut rng, lanes);
                    assert!(bits(&got) == want, "lanes={lanes} len={len} [{lo}, {hi})");
                    assert_eq!(rng.next_u64(), next, "lanes={lanes} len={len}: next draw");
                }
            }
        }
    }

    #[test]
    fn uniform_is_the_serial_stream_on_either_side_of_the_lanes_line() {
        for (rows, cols) in [(1023, 64), (1024, 64), (4099, 33), (200_000, 64)] {
            let (want, next) = serial(rows * cols, -0.25, 0.5, 3);
            let mut rng = seeded_rng(3, 0);
            let m = uniform(rows, cols, -0.25, 0.5, &mut rng);
            assert!(bits(m.as_slice()) == want, "{rows}x{cols}");
            assert_eq!(rng.next_u64(), next, "{rows}x{cols}: next draw");
        }
    }

    #[test]
    fn an_empty_range_panics_on_either_tier() {
        for lanes in [false, true] {
            let err = std::panic::catch_unwind(|| fill(64, 1.0, 1.0, &mut seeded_rng(1, 0), lanes));
            let msg = *err
                .expect_err("an empty range must panic")
                .downcast::<&str>()
                .unwrap();
            assert_eq!(msg, "empty gen_range", "lanes={lanes}");
        }
    }

    #[test]
    fn embedding_table_bound() {
        let t = embedding_table(100, 16, &mut seeded_rng(5, 0));
        assert!(t.as_slice().iter().all(|&x| x.abs() <= 0.1));
    }
}
