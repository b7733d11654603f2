//! Register-tile transposes between a row-major window and its transpose.
//!
//! Two layouts in this workspace are the transpose of the row-major tensor
//! they come from, and each has a consumer that needs rows:
//!
//! * the interaction packs every `N × E` embedding output feature-major
//!   ([`crate::interaction::pack_block`]);
//! * a blocked weight panel `[bc][bk]` is the transpose of its `bk × bc`
//!   window of the row-major `K × C` tensor (`dlrm_tensor::blocked`), and
//!   the DDP bucket buffer ships `dW` as rows. Backward-by-weights stores
//!   each reduced panel through [`transpose_to`] into its window of the
//!   buffer; the averaged step reads the reduced rows back through
//!   [`add_scaled_transposed`].
//!
//! Both vector tiers move `LANES × LANES` tiles through registers — 16 × 16
//! on AVX-512, 8 × 8 on AVX2 — with the edge tiles masked down to the rows
//! and columns that exist, so a `bc` or `bk` of any size (`bc = 50` on
//! `train_dist`'s `100 → 512` layer) is written exactly. The scalar tier is
//! the plain double loop. A transpose is pure data movement, and the update
//! is `w + round(alpha · g)` per element — multiply, round, then add,
//! *never* an FMA — so no tier shows in a bit.

use crate::gemm::micro::Isa;

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
    // SAFETY: the asserts above put every element written (`r < rows`,
    // `c < cols`) inside `dst`, which is borrowed mutably, so nothing else
    // touches it and it cannot alias `src`.
    unsafe {
        transpose_to(
            isa,
            src,
            src_stride,
            rows,
            cols,
            dst.as_mut_ptr(),
            dst_stride,
        )
    }
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
/// gradient (`rows = bk`, `cols = bc`, `src_stride = C`) this is
/// `BlockedWeights::add_scaled_rows` on that panel, bit for bit.
///
/// # Safety
/// `dst` must be valid for reads and writes at `c · dst_stride + r` for
/// every `r < rows`, `c < cols`; those floats must not alias `src`, and no
/// other thread may touch them during the call.
#[allow(clippy::too_many_arguments)] // `transpose_to`'s geometry plus `alpha`
pub unsafe fn add_scaled_transposed(
    isa: Isa,
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    alpha: f32,
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
        Isa::Avx512 => avx512::add_scaled(s, src_stride, rows, cols, alpha, dst, dst_stride),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::add_scaled(s, src_stride, rows, cols, alpha, dst, dst_stride),
        _ => {
            for r in 0..rows {
                for c in 0..cols {
                    *dst.add(c * dst_stride + r) += alpha * *s.add(r * src_stride + c);
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
    tail = (
        crate::embedding::rowops::load_n_avx512,
        crate::embedding::rowops::store_n_avx512
    ),
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
    tail = (
        crate::embedding::rowops::load_n_avx2,
        crate::embedding::rowops::store_n_avx2
    ),
    tile = dlrm_tensor::simd::transpose_8x8
);

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::rowops::available_isas;

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
                    // SAFETY: `got` holds `cols · ds` floats, past every
                    // `c · ds + r` with `r < rows ≤ ds`, and is local.
                    unsafe {
                        add_scaled_transposed(
                            isa,
                            &src,
                            ss,
                            rows,
                            cols,
                            alpha,
                            got.as_mut_ptr(),
                            ds,
                        )
                    };
                    assert_eq!(bits(&got), bits(&want), "{isa:?} {rows}x{cols} pad {pad}");
                }
            }
        }
    }
}
