//! Register-level building blocks for the SIMD code of this crate and the
//! ones above it.

/// In-place 8 × 8 transpose: `t[c]` lane `r` becomes the old `t[r]` lane
/// `c`. Three rounds of 8 shuffles: 32-bit and 64-bit interleaves inside
/// each 128-bit half, then one round that regroups the halves.
///
/// # Safety
/// The CPU has AVX.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
pub unsafe fn transpose_8x8(t: &mut [std::arch::x86_64::__m256; 8]) {
    use std::arch::x86_64::*;
    let mut a = [_mm256_setzero_ps(); 8];
    for i in 0..4 {
        a[2 * i] = _mm256_unpacklo_ps(t[2 * i], t[2 * i + 1]);
        a[2 * i + 1] = _mm256_unpackhi_ps(t[2 * i], t[2 * i + 1]);
    }
    // b[4g + c], half h: column 4h + c of rows 4g .. 4g + 4.
    let mut b = [_mm256_setzero_ps(); 8];
    for g in 0..2 {
        b[4 * g] = _mm256_shuffle_ps::<0x44>(a[4 * g], a[4 * g + 2]);
        b[4 * g + 1] = _mm256_shuffle_ps::<0xee>(a[4 * g], a[4 * g + 2]);
        b[4 * g + 2] = _mm256_shuffle_ps::<0x44>(a[4 * g + 1], a[4 * g + 3]);
        b[4 * g + 3] = _mm256_shuffle_ps::<0xee>(a[4 * g + 1], a[4 * g + 3]);
    }
    for c in 0..4 {
        t[c] = _mm256_permute2f128_ps::<0x20>(b[c], b[4 + c]);
        t[4 + c] = _mm256_permute2f128_ps::<0x31>(b[c], b[4 + c]);
    }
}
