//! The ISA tier the workspace's SIMD kernels dispatch on (all but the table
//! fill's lanes tier, which checks the CPU itself), masked loads and stores
//! of a vector's first lanes, and the one register-tiled transpose between
//! a row-major window and its transpose. A blocked
//! tensor's panels (`crate::blocked`) and the interaction's feature-major
//! operands (`dlrm_kernels::interaction`) cross to and from rows through it.
//!
//! The vector tiers move 16 × 16 (AVX-512) or 8 × 8 (AVX2) tiles through
//! registers, the edge tiles masked down to the rows and columns that exist;
//! the scalar tier is the plain double loop. A transpose only moves bits,
//! and the update is `w + round(alpha · g)` — multiply, round, then add,
//! *never* an FMA — so no tier shows in a bit.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set tier for the SIMD kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar code (still autovectorizable by LLVM).
    Scalar,
    /// 8-wide FMA via AVX2 intrinsics.
    Avx2,
    /// 16-wide FMA via AVX-512F intrinsics.
    Avx512,
}

/// 0 = undetected, 1 = scalar, 2 = avx2, 3 = avx512.
static ISA_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces all subsequent SIMD kernel calls onto a tier (or back to
/// auto-detection with `None`). Used by the ISA-ablation bench and the
/// tests that run every tier.
pub fn set_isa_override(isa: Option<Isa>) {
    let v = match isa {
        None => 0,
        Some(Isa::Scalar) => 1,
        Some(Isa::Avx2) => 2,
        Some(Isa::Avx512) => 3,
    };
    ISA_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Returns the widest ISA supported by this CPU (or the forced override).
pub fn detect_isa() -> Isa {
    match ISA_OVERRIDE.load(Ordering::Relaxed) {
        1 => return Isa::Scalar,
        2 => return Isa::Avx2,
        3 => return Isa::Avx512,
        _ => {}
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

/// The ISA tiers usable on this CPU, widest last (always contains
/// [`Isa::Scalar`]). Benches and tests iterate this to force each tier.
pub fn available_isas() -> Vec<Isa> {
    let mut v = vec![Isa::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            v.push(Isa::Avx2);
        }
        if is_x86_feature_detected!("avx512f") {
            v.push(Isa::Avx512);
        }
    }
    v
}

/// Loads the first `n < 16` floats at `p`, zero above.
///
/// # Safety
/// The CPU has AVX-512F, and `p` is valid for reads of `n` floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
pub unsafe fn load_n_avx512(p: *const f32, n: usize) -> std::arch::x86_64::__m512 {
    std::arch::x86_64::_mm512_maskz_loadu_ps((1u16 << n) - 1, p)
}

/// Stores the first `n < 16` lanes of `v` at `p`.
///
/// # Safety
/// The CPU has AVX-512F, and `p` is valid for writes of `n` floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
pub unsafe fn store_n_avx512(p: *mut f32, n: usize, v: std::arch::x86_64::__m512) {
    std::arch::x86_64::_mm512_mask_storeu_ps(p, (1u16 << n) - 1, v)
}

/// Lanes `0..n` all-ones, the rest zero.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tail_mask_avx2(n: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// Loads the first `n < 8` floats at `p`, zero above.
///
/// # Safety
/// The CPU has AVX2, and `p` is valid for reads of `n` floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn load_n_avx2(p: *const f32, n: usize) -> std::arch::x86_64::__m256 {
    std::arch::x86_64::_mm256_maskload_ps(p, tail_mask_avx2(n))
}

/// Stores the first `n < 8` lanes of `v` at `p`.
///
/// # Safety
/// The CPU has AVX2, and `p` is valid for writes of `n` floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn store_n_avx2(p: *mut f32, n: usize, v: std::arch::x86_64::__m256) {
    std::arch::x86_64::_mm256_maskstore_ps(p, tail_mask_avx2(n), v)
}

/// In-place 8 × 8 transpose: `t[c]` lane `r` becomes the old `t[r]` lane
/// `c`. Three rounds of 8 shuffles: 32-bit and 64-bit interleaves inside
/// each 128-bit half, then one round that regroups the halves.
///
/// # Safety
/// The CPU has AVX.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
pub(crate) unsafe fn transpose_8x8(t: &mut [std::arch::x86_64::__m256; 8]) {
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

/// In-place 16 × 16 transpose: `t[c]` lane `r` becomes the old `t[r]` lane
/// `c`. Four rounds of 16 shuffles: 32-bit and 64-bit interleaves inside
/// each 128-bit quarter, then two rounds that regroup the quarters.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_16x16(t: &mut [std::arch::x86_64::__m512; 16]) {
    use std::arch::x86_64::*;
    let mut a = [_mm512_setzero_ps(); 16];
    for i in 0..8 {
        a[2 * i] = _mm512_unpacklo_ps(t[2 * i], t[2 * i + 1]);
        a[2 * i + 1] = _mm512_unpackhi_ps(t[2 * i], t[2 * i + 1]);
    }
    // b[4g + c], quarter q: column 4q + c of rows 4g .. 4g + 4.
    let mut b = [_mm512_setzero_ps(); 16];
    for g in 0..4 {
        let (x0, x1) = (_mm512_castps_pd(a[4 * g]), _mm512_castps_pd(a[4 * g + 1]));
        let (x2, x3) = (
            _mm512_castps_pd(a[4 * g + 2]),
            _mm512_castps_pd(a[4 * g + 3]),
        );
        b[4 * g] = _mm512_castpd_ps(_mm512_unpacklo_pd(x0, x2));
        b[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(x0, x2));
        b[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(x1, x3));
        b[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(x1, x3));
    }
    for c in 0..4 {
        // Quarters (0, 2) and (1, 3) of row groups 0–1 and 2–3 …
        let lo_even = _mm512_shuffle_f32x4::<0x88>(b[c], b[4 + c]);
        let lo_odd = _mm512_shuffle_f32x4::<0xdd>(b[c], b[4 + c]);
        let hi_even = _mm512_shuffle_f32x4::<0x88>(b[8 + c], b[12 + c]);
        let hi_odd = _mm512_shuffle_f32x4::<0xdd>(b[8 + c], b[12 + c]);
        // … then one quarter of all four groups: column 4q + c.
        t[c] = _mm512_shuffle_f32x4::<0x88>(lo_even, hi_even);
        t[8 + c] = _mm512_shuffle_f32x4::<0xdd>(lo_even, hi_even);
        t[4 + c] = _mm512_shuffle_f32x4::<0x88>(lo_odd, hi_odd);
        t[12 + c] = _mm512_shuffle_f32x4::<0xdd>(lo_odd, hi_odd);
    }
}

/// `dst[c · dst_stride + r] = src[r · src_stride + c]` for `r < rows`,
/// `c < cols`; nothing else of `dst` is written.
pub fn transpose(
    isa: Isa,
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    dst_stride: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(rows <= dst_stride, "rows overlap");
    assert!(dst.len() >= (cols - 1) * dst_stride + rows, "dst too short");
    let d = dst.as_mut_ptr();
    // SAFETY: the asserts above put every element written (`r < rows`,
    // `c < cols`) inside `dst`, which is borrowed mutably, so nothing else
    // touches it and it cannot alias `src`.
    unsafe { transpose_to(isa, src, src_stride, rows, cols, d, dst_stride) }
}

/// [`transpose`] into a raw `dst`: one thread's share of a buffer a team
/// writes at once.
///
/// # Safety
/// `dst` must be valid for writes at `c · dst_stride + r` for every
/// `r < rows`, `c < cols`; those floats must not alias `src`, and no other
/// thread may touch them during the call.
pub unsafe fn transpose_to(
    isa: Isa,
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: *mut f32,
    dst_stride: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(cols <= src_stride, "rows overlap");
    assert!(src.len() >= (rows - 1) * src_stride + cols, "src too short");
    let s = src.as_ptr();
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::transpose(s, src_stride, rows, cols, dst, dst_stride),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::transpose(s, src_stride, rows, cols, dst, dst_stride),
        _ => {
            for r in 0..rows {
                for c in 0..cols {
                    *dst.add(c * dst_stride + r) = *s.add(r * src_stride + c);
                }
            }
        }
    }
}

/// `dst[c · dst_stride + r] += alpha · src[r · src_stride + c]` for
/// `r < rows`, `c < cols`: the product rounded, then added. With `dst` a
/// weight panel (`dst_stride = bk`) and `src` its window of a row-major
/// gradient (`rows = bk`, `cols = bc`, `src_stride = C`) this is the flat
/// `w += alpha · g` on that window, bit for bit.
#[allow(clippy::too_many_arguments)] // `transpose`'s geometry plus `alpha`
pub fn add_scaled_transposed(
    isa: Isa,
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    alpha: f32,
    dst: &mut [f32],
    dst_stride: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(cols <= src_stride && rows <= dst_stride, "rows overlap");
    assert!(src.len() >= (rows - 1) * src_stride + cols, "src too short");
    assert!(dst.len() >= (cols - 1) * dst_stride + rows, "dst too short");
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    // SAFETY: the asserts above put every element read (`r < rows`,
    // `c < cols`) inside `src` and every element updated inside `dst`,
    // which is borrowed mutably, so nothing else touches it and it cannot
    // alias `src`. An `Isa` names a tier this CPU has, as every caller
    // takes it from `detect_isa` or `available_isas`.
    unsafe {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => avx512::add_scaled(s, src_stride, rows, cols, alpha, d, dst_stride),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::add_scaled(s, src_stride, rows, cols, alpha, d, dst_stride),
            _ => {
                for r in 0..rows {
                    for c in 0..cols {
                        *d.add(c * dst_stride + r) += alpha * *s.add(r * src_stride + c);
                    }
                }
            }
        }
    }
}

/// Instantiates the tile loops for one vector ISA. `$tile` turns `$lanes`
/// row vectors into `$lanes` column vectors in place; `$load_n` / `$store_n`
/// move the first `n < lanes` floats of a vector.
#[cfg(target_arch = "x86_64")]
macro_rules! transpose_tier {
    (
        $tier:ident, $feat:literal, vec = $vec:ident, lanes = $lanes:literal,
        ops = ($zero:ident, $load:ident, $store:ident, $set1:ident, $add:ident, $mul:ident),
        tail = ($load_n:path, $store_n:path),
        tile = $tile:path
    ) => {
        mod $tier {
            use std::arch::x86_64::*;

            const LANES: usize = $lanes;

            /// Loads the first `n <= LANES` floats at `p`, zero above.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn load_first(p: *const f32, n: usize) -> $vec {
                if n == LANES {
                    $load(p)
                } else {
                    $load_n(p, n)
                }
            }

            /// Stores the first `n <= LANES` lanes of `x`.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn store_first(p: *mut f32, n: usize, x: $vec) {
                if n == LANES {
                    $store(p, x);
                } else {
                    $store_n(p, n, x);
                }
            }

            /// The `rn × cn` tile of `src` at `(r0, c0)` as columns:
            /// `tile[c]` lane `r` is `src[(r0 + r) · src_stride + c0 + c]`,
            /// and lanes past `rn` are zero.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn columns(
                src: *const f32,
                src_stride: usize,
                (r0, rn): (usize, usize),
                (c0, cn): (usize, usize),
            ) -> [$vec; LANES] {
                let mut tile = [$zero(); LANES];
                for (r, v) in tile.iter_mut().enumerate().take(rn) {
                    *v = load_first(src.add((r0 + r) * src_stride + c0), cn);
                }
                $tile(&mut tile);
                tile
            }

            /// See [`super::transpose_to`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn transpose(
                src: *const f32,
                src_stride: usize,
                rows: usize,
                cols: usize,
                dst: *mut f32,
                dst_stride: usize,
            ) {
                // A band of `dst` rows at a time, so each row is written
                // left to right while its lines are in L1.
                for c0 in (0..cols).step_by(LANES) {
                    let cn = (cols - c0).min(LANES);
                    for r0 in (0..rows).step_by(LANES) {
                        let rn = (rows - r0).min(LANES);
                        let tile = columns(src, src_stride, (r0, rn), (c0, cn));
                        for (c, &v) in tile.iter().enumerate().take(cn) {
                            store_first(dst.add((c0 + c) * dst_stride + r0), rn, v);
                        }
                    }
                }
            }

            /// See [`super::add_scaled_transposed`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn add_scaled(
                src: *const f32,
                src_stride: usize,
                rows: usize,
                cols: usize,
                alpha: f32,
                dst: *mut f32,
                dst_stride: usize,
            ) {
                let a = $set1(alpha);
                // A band of `src` rows at a time, read left to right.
                for r0 in (0..rows).step_by(LANES) {
                    let rn = (rows - r0).min(LANES);
                    for c0 in (0..cols).step_by(LANES) {
                        let cn = (cols - c0).min(LANES);
                        let tile = columns(src, src_stride, (r0, rn), (c0, cn));
                        for (c, &g) in tile.iter().enumerate().take(cn) {
                            let p = dst.add((c0 + c) * dst_stride + r0);
                            // mul, then add — NOT fmadd: see the module docs.
                            store_first(p, rn, $add(load_first(p, rn), $mul(a, g)));
                        }
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
transpose_tier!(
    avx512,
    "avx512f",
    vec = __m512,
    lanes = 16,
    ops = (
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_add_ps,
        _mm512_mul_ps
    ),
    tail = (super::load_n_avx512, super::store_n_avx512),
    tile = super::transpose_16x16
);

#[cfg(target_arch = "x86_64")]
transpose_tier!(
    avx2,
    "avx2",
    vec = __m256,
    lanes = 8,
    ops = (
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    ),
    tail = (super::load_n_avx2, super::store_n_avx2),
    tile = super::transpose_8x8
);

#[cfg(test)]
/// Held by the unit tests that force a tier: the override is process-global
/// and the harness runs tests on parallel threads.
pub(crate) fn lock_isa_override() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct, exactly representable values, so a misplaced element shows.
    fn ramp(len: usize) -> Vec<f32> {
        (0..len).map(|i| i as f32 - 7.0).collect()
    }

    const SHAPES: [(usize, usize); 7] = [
        (1, 1),
        (1, 64),
        (16, 16),
        (13, 80),
        (64, 16),
        (17, 3),
        (33, 9),
    ];

    #[test]
    fn transpose_moves_exactly_the_named_elements_on_every_tier() {
        for isa in available_isas() {
            for &(rows, cols) in &SHAPES {
                for pad in [0, 5] {
                    let (ss, ds) = (cols + pad, rows + pad);
                    let src = ramp(rows * ss);
                    let mut dst = vec![f32::NAN; cols * ds];
                    transpose(isa, &src, ss, rows, cols, &mut dst, ds);
                    for c in 0..cols {
                        for r in 0..ds {
                            let got = dst[c * ds + r];
                            if r < rows {
                                assert_eq!(got, src[r * ss + c], "{isa:?} {rows}x{cols} ({r},{c})");
                            } else {
                                assert!(
                                    got.is_nan(),
                                    "{isa:?} {rows}x{cols}: wrote past row {rows}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn add_scaled_transposed_is_the_scalar_update_on_every_tier() {
        let alpha = -0.013f32;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for &(rows, cols) in &SHAPES {
            for pad in [0, 5] {
                let (ss, ds) = (cols + pad, rows + pad);
                let src: Vec<f32> = (0..rows * ss).map(|i| ((i * 37) as f32).sin()).collect();
                let base: Vec<f32> = (0..cols * ds).map(|i| (i as f32).cos()).collect();
                let mut want = base.clone();
                for r in 0..rows {
                    for c in 0..cols {
                        let p = alpha * src[r * ss + c];
                        want[c * ds + r] += p;
                    }
                }
                for isa in available_isas() {
                    let mut got = base.clone();
                    add_scaled_transposed(isa, &src, ss, rows, cols, alpha, &mut got, ds);
                    assert_eq!(bits(&got), bits(&want), "{isa:?} {rows}x{cols} pad {pad}");
                }
            }
        }
    }
}
