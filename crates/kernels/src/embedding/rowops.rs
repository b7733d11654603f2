//! SIMD row and bag primitives shared by every embedding kernel.
//!
//! The paper's single-socket thesis (Section III-A) is that EmbeddingBag
//! forward/backward/update are GUPS-like kernels that must run at DRAM
//! bandwidth. Two levels live here, with scalar/AVX2/AVX-512 tiers
//! dispatched through the same [`Isa`] machinery as the GEMM microkernels
//! ([`detect_isa`](crate::gemm::micro::detect_isa) /
//! [`set_isa_override`](crate::gemm::micro::set_isa_override)):
//!
//! * **bag level** — what the train step and the uncached serving gather
//!   run. [`gather_bags`] holds a bag's running sum in registers and stores
//!   each output row once; [`scatter_bag`] holds `alpha · dY[bag]` in
//!   registers and adds it to every row the caller's iterator yields. The
//!   bag (or row) loop sits *inside* the ISA tier, so a lookup costs its
//!   loads, adds and (for the update) one store — no call, no dispatch, no
//!   round trip of the output row through memory.
//! * **row level** — [`accumulate`], [`axpy`], [`scatter_add`]: one row
//!   per call, for callers that interleave other work between rows (the
//!   serving cache probe, the prefetch path's cached replay, dense SGD).
//!
//! # Register tiles and the chain rule
//!
//! A row is cut into column tiles of 8, 4, 2 or 1 full vectors, widest
//! first, plus one masked vector for the last `E mod lanes` elements. E = 64
//! is one tile on either vector tier (4 zmm / 8 ymm); a wider row takes
//! several passes over the bag, each touching its own cache lines of every
//! row. Tiling decides which elements travel together, never how one is
//! computed: a gathered element is `+0.0 + r₀ + r₁ + …` left to right, an
//! updated one is `w + round(alpha · g)` — multiply, round, then one add,
//! *never* an FMA — exactly as the row-level primitives and the scalar loop
//! do it. That is why every tier, and the bag and row levels, are bitwise
//! interchangeable, and why the equivalence suite can assert bit-exact
//! agreement with the reference update wherever the per-row application
//! order is preserved.
//!
//! The module also exposes [`prefetch_row`]: embedding lookups are
//! data-dependent loads the hardware prefetcher cannot predict, but the
//! *index stream* is known in advance, so the kernels issue software
//! prefetches [`PREFETCH_DISTANCE`] lookups ahead.

use crate::gemm::micro::Isa;
pub use dlrm_tensor::simd::available_isas;
#[cfg(target_arch = "x86_64")]
use dlrm_tensor::simd::{load_n_avx2, load_n_avx512, store_n_avx2, store_n_avx512};
use std::ops::Range;

/// How many lookups ahead of the current one the embedding kernels
/// prefetch the table row for: 32 rows of E = 64 are 128 lines, 8 KB, in
/// flight per thread — into L2, see [`prefetch_row`]. Chosen by paired
/// runs on tables that sit on 2 MiB pages (`dlrm_tensor::aligned`): with
/// the L1 hint 16 beat 8 in 10 of 10 `train_emb` pairs (×1.12) and 32 added
/// nothing; with the L2 hint 32 beat that 16 in 10 of 10 (×1.13), and 64
/// did not beat 32 by the same rule (8 of 10). On 4 KB pages no distance
/// from 0 to 64 and neither hint moved anything — the page walks, not the
/// row fetches, were what a lookup waited for (DESIGN.md §9,
/// EXPERIMENTS.md "PR 24").
pub const PREFETCH_DISTANCE: usize = 32;

/// Issues software prefetches covering the first `min(e, 64)` floats of the
/// row starting at `ptr` (one prefetch per 64-byte line). A hint only:
/// safe to call with any in-bounds row pointer, and a no-op off x86-64.
///
/// The hint is `_MM_HINT_T1` — fetch into L2, not L1. A core tracks only a
/// dozen or so L1 misses at a time but several times as many L2 misses, so
/// a gather that wants tens of rows in flight per thread gets them from L2
/// prefetches and pays an L2 hit, hidden by the out-of-order window, when
/// the row is used. With `_MM_HINT_T0` the look-ahead could not usefully
/// grow past 16, and `train_emb` lost up to a quarter of its rate in this
/// shared host's slow spells, which `T1` at 32 rode through.
// `_mm_prefetch` never dereferences (it cannot fault), so taking a raw
// pointer in a safe fn is sound despite the clippy lint's heuristic.
#[allow(clippy::not_unsafe_ptr_arg_deref)]
#[inline]
pub fn prefetch_row(ptr: *const f32, e: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        const FLOATS_PER_LINE: usize = 16;
        let lines = e.div_ceil(FLOATS_PER_LINE).min(4);
        for line in 0..lines {
            // SAFETY: prefetch is a hint; it never faults, and the caller
            // passes a pointer into a live row anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T1>(ptr.add(line * FLOATS_PER_LINE).cast::<i8>()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (ptr, e);
    }
}

// ---------------------------------------------------------------------------
// accumulate: dst += src
// ---------------------------------------------------------------------------

/// `dst[i] += src[i]` — the forward-pass bag reduction.
#[inline]
pub fn accumulate(isa: Isa, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "accumulate length mismatch");
    // SAFETY: lengths checked equal; slices are valid for their lengths.
    unsafe { accumulate_raw(isa, dst.as_mut_ptr(), src.as_ptr(), dst.len()) }
}

/// Raw-pointer [`accumulate`] for kernels that scatter into rows owned via
/// a thread-team pointer.
///
/// # Safety
/// `dst` must be valid for `len` reads+writes, `src` for `len` reads, and
/// the two must not alias.
pub unsafe fn accumulate_raw(isa: Isa, dst: *mut f32, src: *const f32, len: usize) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => accumulate_avx512(dst, src, len),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => accumulate_avx2(dst, src, len),
        _ => accumulate_scalar(dst, src, len),
    }
}

unsafe fn accumulate_scalar(dst: *mut f32, src: *const f32, len: usize) {
    for i in 0..len {
        *dst.add(i) += *src.add(i);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_avx2(dst: *mut f32, src: *const f32, len: usize) {
    use std::arch::x86_64::*;
    let mut i = 0;
    while i + 8 <= len {
        let d = _mm256_loadu_ps(dst.add(i));
        let s = _mm256_loadu_ps(src.add(i));
        _mm256_storeu_ps(dst.add(i), _mm256_add_ps(d, s));
        i += 8;
    }
    while i < len {
        *dst.add(i) += *src.add(i);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_avx512(dst: *mut f32, src: *const f32, len: usize) {
    use std::arch::x86_64::*;
    let mut i = 0;
    while i + 16 <= len {
        let d = _mm512_loadu_ps(dst.add(i));
        let s = _mm512_loadu_ps(src.add(i));
        _mm512_storeu_ps(dst.add(i), _mm512_add_ps(d, s));
        i += 16;
    }
    if i < len {
        let mask: __mmask16 = (1u16 << (len - i)) - 1;
        let d = _mm512_maskz_loadu_ps(mask, dst.add(i));
        let s = _mm512_maskz_loadu_ps(mask, src.add(i));
        _mm512_mask_storeu_ps(dst.add(i), mask, _mm512_add_ps(d, s));
    }
}

// ---------------------------------------------------------------------------
// axpy: dst += alpha * src
// ---------------------------------------------------------------------------

/// `dst[i] += alpha * src[i]` — the SGD row update (`alpha = -lr`).
#[inline]
pub fn axpy(isa: Isa, dst: &mut [f32], src: &[f32], alpha: f32) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    // SAFETY: lengths checked equal; slices are valid for their lengths.
    unsafe { scatter_add(isa, dst.as_mut_ptr(), src, alpha) }
}

/// Scatter form of [`axpy`]: adds `alpha * src` into the `src.len()` floats
/// at `dst`. This is the primitive every parallel update strategy uses to
/// apply a gradient row to a table row it owns (by range or lock).
///
/// # Safety
/// `dst` must be valid for `src.len()` reads+writes and must not alias
/// `src`.
pub unsafe fn scatter_add(isa: Isa, dst: *mut f32, src: &[f32], alpha: f32) {
    let (src, len) = (src.as_ptr(), src.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => axpy_avx512(dst, src, len, alpha),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => axpy_avx2(dst, src, len, alpha),
        _ => axpy_scalar(dst, src, len, alpha),
    }
}

unsafe fn axpy_scalar(dst: *mut f32, src: *const f32, len: usize, alpha: f32) {
    for i in 0..len {
        *dst.add(i) += alpha * *src.add(i);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(dst: *mut f32, src: *const f32, len: usize, alpha: f32) {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i + 8 <= len {
        let d = _mm256_loadu_ps(dst.add(i));
        let s = _mm256_loadu_ps(src.add(i));
        // mul + add, NOT fmadd: keeps the two-rounding sequence of the
        // scalar tier so all tiers stay bitwise identical.
        _mm256_storeu_ps(dst.add(i), _mm256_add_ps(d, _mm256_mul_ps(a, s)));
        i += 8;
    }
    while i < len {
        *dst.add(i) += alpha * *src.add(i);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(dst: *mut f32, src: *const f32, len: usize, alpha: f32) {
    use std::arch::x86_64::*;
    let a = _mm512_set1_ps(alpha);
    let mut i = 0;
    while i + 16 <= len {
        let d = _mm512_loadu_ps(dst.add(i));
        let s = _mm512_loadu_ps(src.add(i));
        // mul + add, NOT fmadd: see the AVX2 tier.
        _mm512_storeu_ps(dst.add(i), _mm512_add_ps(d, _mm512_mul_ps(a, s)));
        i += 16;
    }
    if i < len {
        let mask: __mmask16 = (1u16 << (len - i)) - 1;
        let d = _mm512_maskz_loadu_ps(mask, dst.add(i));
        let s = _mm512_maskz_loadu_ps(mask, src.add(i));
        _mm512_mask_storeu_ps(dst.add(i), mask, _mm512_add_ps(d, _mm512_mul_ps(a, s)));
    }
}

// ---------------------------------------------------------------------------
// Bag level: register-resident gather and scatter
// ---------------------------------------------------------------------------

/// Instantiates the bag-level kernels for one vector ISA. `$load_n` /
/// `$store_n` move the first `n < lanes` elements of a vector: the masked
/// tail of a row.
#[cfg(target_arch = "x86_64")]
macro_rules! bag_tier {
    (
        $tier:ident, $feat:literal, lanes = $lanes:literal,
        ops = ($zero:ident, $load:ident, $store:ident, $set1:ident, $add:ident, $mul:ident),
        tail = ($load_n:path, $store_n:path)
    ) => {
        #[allow(clippy::needless_range_loop)] // index form mirrors the tile math
        mod $tier {
            use super::{prefetch_row, PREFETCH_DISTANCE};
            use std::arch::x86_64::*;
            use std::ops::Range;

            const LANES: usize = $lanes;

            /// One column tile of one bag: `V` vectors (the single one
            /// cut to `rem` elements if `MASKED`) of every row in `slots`,
            /// summed in registers from `+0.0` and stored once. `w` and
            /// `out` enter at the tile's first column; lookups below
            /// `pf_end` are prefetched `PREFETCH_DISTANCE` ahead.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn gather_tile<const V: usize, const MASKED: bool>(
                w: *const f32,
                e: usize,
                idx: *const u32,
                slots: Range<usize>,
                pf_end: usize,
                rem: usize,
                out: *mut f32,
            ) {
                let mut acc = [$zero(); V];
                for s in slots {
                    let ahead = s + PREFETCH_DISTANCE;
                    if ahead < pf_end {
                        prefetch_row(w.add(*idx.add(ahead) as usize * e), e);
                    }
                    let row = w.add(*idx.add(s) as usize * e);
                    for v in 0..V {
                        let x = if MASKED {
                            $load_n(row.add(v * LANES), rem)
                        } else {
                            $load(row.add(v * LANES))
                        };
                        acc[v] = $add(acc[v], x);
                    }
                }
                for v in 0..V {
                    if MASKED {
                        $store_n(out.add(v * LANES), rem, acc[v]);
                    } else {
                        $store(out.add(v * LANES), acc[v]);
                    }
                }
            }

            /// See [`super::gather_bags`]. Bags outermost, so a row's
            /// tiles are read back to back; only the first tile of a bag
            /// prefetches.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn gather_bags(
                w: *const f32,
                e: usize,
                indices: &[u32],
                offsets: &[usize],
                bags: Range<usize>,
                out: *mut f32,
            ) {
                let idx = indices.as_ptr();
                let slot_end = offsets[bags.end];
                for bag in bags {
                    let slots = offsets[bag]..offsets[bag + 1];
                    let mut col = 0;
                    while col < e {
                        let (w, out) = (w.add(col), out.add(bag * e + col));
                        let pf_end = if col == 0 { slot_end } else { 0 };
                        let slots = slots.clone();
                        col += match (e - col) / LANES {
                            0 => {
                                let rem = e - col;
                                gather_tile::<1, true>(w, e, idx, slots, pf_end, rem, out);
                                rem
                            }
                            1 => {
                                gather_tile::<1, false>(w, e, idx, slots, pf_end, 0, out);
                                LANES
                            }
                            2..=3 => {
                                gather_tile::<2, false>(w, e, idx, slots, pf_end, 0, out);
                                2 * LANES
                            }
                            4..=7 => {
                                gather_tile::<4, false>(w, e, idx, slots, pf_end, 0, out);
                                4 * LANES
                            }
                            _ => {
                                gather_tile::<8, false>(w, e, idx, slots, pf_end, 0, out);
                                8 * LANES
                            }
                        };
                    }
                }
            }

            /// One column tile of one bag's update: `round(alpha · g)` of
            /// `V` vectors computed once, then added to every row `rows`
            /// yields. `w` and `g` enter at the tile's first column.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn scatter_tile<const V: usize, const MASKED: bool, I>(
                w: *mut f32,
                e: usize,
                g: *const f32,
                alpha: f32,
                rem: usize,
                rows: I,
            ) where
                I: Iterator<Item = usize>,
            {
                let a = $set1(alpha);
                let mut p = [$zero(); V];
                for v in 0..V {
                    let x = if MASKED {
                        $load_n(g.add(v * LANES), rem)
                    } else {
                        $load(g.add(v * LANES))
                    };
                    // mul here, add below — NOT fmadd: see the module docs.
                    p[v] = $mul(a, x);
                }
                for row in rows {
                    let dst = w.add(row * e);
                    for v in 0..V {
                        let d = dst.add(v * LANES);
                        if MASKED {
                            $store_n(d, rem, $add($load_n(d, rem), p[v]));
                        } else {
                            $store(d, $add($load(d), p[v]));
                        }
                    }
                }
            }

            /// See [`super::scatter_bag`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn scatter_bag<I>(w: *mut f32, g: &[f32], alpha: f32, rows: I)
            where
                I: Iterator<Item = usize> + Clone,
            {
                let e = g.len();
                let mut col = 0;
                while col < e {
                    let (w, g, rows) = (w.add(col), g.as_ptr().add(col), rows.clone());
                    col += match (e - col) / LANES {
                        0 => {
                            let rem = e - col;
                            scatter_tile::<1, true, I>(w, e, g, alpha, rem, rows);
                            rem
                        }
                        1 => {
                            scatter_tile::<1, false, I>(w, e, g, alpha, 0, rows);
                            LANES
                        }
                        2..=3 => {
                            scatter_tile::<2, false, I>(w, e, g, alpha, 0, rows);
                            2 * LANES
                        }
                        4..=7 => {
                            scatter_tile::<4, false, I>(w, e, g, alpha, 0, rows);
                            4 * LANES
                        }
                        _ => {
                            scatter_tile::<8, false, I>(w, e, g, alpha, 0, rows);
                            8 * LANES
                        }
                    };
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
bag_tier!(
    avx512,
    "avx512f",
    lanes = 16,
    ops = (
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_add_ps,
        _mm512_mul_ps
    ),
    tail = (super::load_n_avx512, super::store_n_avx512)
);

#[cfg(target_arch = "x86_64")]
bag_tier!(
    avx2,
    "avx2",
    lanes = 8,
    ops = (
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    ),
    tail = (super::load_n_avx2, super::store_n_avx2)
);

/// The forward-pass bag reduction (Algorithm 1) for the bags in `bags`:
/// `out[bag] = Σ w[indices[s]]` over the bag's lookups `s`, each output
/// row written exactly once (all zeros for an empty bag). Table rows are
/// prefetched [`PREFETCH_DISTANCE`] lookups ahead, up to the last lookup of
/// the bag range.
///
/// # Safety
/// `offsets` must be non-decreasing with `offsets[bags.end] <=
/// indices.len()`; `w` must be valid for reads of `e` floats at row `i` for
/// every `i` in `indices`; `out` must be valid for writes of rows `bags` of
/// an `e`-wide matrix, must not alias `w`, and no other thread may touch
/// those rows during the call.
pub unsafe fn gather_bags(
    isa: Isa,
    w: *const f32,
    e: usize,
    indices: &[u32],
    offsets: &[usize],
    bags: Range<usize>,
    out: *mut f32,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::gather_bags(w, e, indices, offsets, bags, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::gather_bags(w, e, indices, offsets, bags, out),
        _ => {
            let slot_end = offsets[bags.end];
            for bag in bags {
                let out_row = out.add(bag * e);
                std::slice::from_raw_parts_mut(out_row, e).fill(0.0);
                for s in offsets[bag]..offsets[bag + 1] {
                    let ahead = s + PREFETCH_DISTANCE;
                    if ahead < slot_end {
                        prefetch_row(w.add(indices[ahead] as usize * e), e);
                    }
                    accumulate_scalar(out_row, w.add(indices[s] as usize * e), e);
                }
            }
        }
    }
}

/// One bag of the fused backward+update (Algorithms 2+4): adds
/// `alpha · g` to table row `r` of the `g.len()`-wide table at `w`, for
/// every `r` that `rows` yields, in order. `g` is the bag's `dY` row; the
/// product is rounded once per bag, not once per lookup. `rows` is cloned
/// once per column tile, so it should be cheap to restart (a slice walk
/// with a filter or an index map) — it is also where the caller prefetches.
///
/// # Safety
/// Every row `rows` yields must lie inside the table at `w`, which must be
/// valid for reads and writes there and must not alias `g`; no other thread
/// may access those rows during the call.
pub unsafe fn scatter_bag<I>(isa: Isa, w: *mut f32, g: &[f32], alpha: f32, rows: I)
where
    I: Iterator<Item = usize> + Clone,
{
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::scatter_bag(w, g, alpha, rows),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::scatter_bag(w, g, alpha, rows),
        _ => {
            for row in rows {
                axpy_scalar(w.add(row * g.len()), g.as_ptr(), g.len(), alpha);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seed: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 2654435761 + seed * 40503) % 1999) as f32 - 999.5) / 512.0)
            .collect()
    }

    #[test]
    fn axpy_all_tiers_bit_exact_vs_scalar() {
        for len in [0usize, 1, 3, 7, 8, 15, 16, 17, 31, 64, 100, 129] {
            let src = mk(1, len);
            let base = mk(2, len);
            let mut want = base.clone();
            axpy(Isa::Scalar, &mut want, &src, -0.37);
            for isa in available_isas() {
                let mut got = base.clone();
                axpy(isa, &mut got, &src, -0.37);
                assert_eq!(got, want, "axpy {isa:?} len={len} not bit-exact");
            }
        }
    }

    #[test]
    fn accumulate_all_tiers_bit_exact_vs_scalar() {
        for len in [0usize, 1, 5, 8, 13, 16, 29, 48, 127] {
            let src = mk(3, len);
            let base = mk(4, len);
            let mut want = base.clone();
            accumulate(Isa::Scalar, &mut want, &src);
            for isa in available_isas() {
                let mut got = base.clone();
                accumulate(isa, &mut got, &src);
                assert_eq!(got, want, "accumulate {isa:?} len={len} not bit-exact");
            }
        }
    }

    #[test]
    fn axpy_matches_hand_loop() {
        let src = [1.0f32, -2.0, 3.0, -4.0, 5.0];
        for isa in available_isas() {
            let mut dst = [10.0f32, 20.0, 30.0, 40.0, 50.0];
            axpy(isa, &mut dst, &src, 2.0);
            assert_eq!(dst, [12.0, 16.0, 36.0, 32.0, 60.0], "{isa:?}");
        }
    }

    #[test]
    fn scatter_add_writes_through_raw_pointer() {
        let src = mk(5, 24);
        for isa in available_isas() {
            let mut dst = mk(6, 24);
            let mut want = dst.clone();
            axpy(Isa::Scalar, &mut want, &src, 0.5);
            // SAFETY: dst is valid for src.len() elements and disjoint.
            unsafe { scatter_add(isa, dst.as_mut_ptr(), &src, 0.5) };
            assert_eq!(dst, want, "{isa:?}");
        }
    }

    /// Row widths that hit every tile shape of both vector tiers: below one
    /// vector, a masked tail alone and after 1/2/4/8-vector tiles, exact
    /// multiples, and more than one 8-vector tile.
    const WIDTHS: [usize; 8] = [1, 3, 16, 17, 64, 80, 128, 200];

    /// Bags over a 23-row table: empty, single-row, duplicate-heavy, and one
    /// long enough for the prefetch window to run its full distance.
    fn bags() -> (Vec<u32>, Vec<usize>) {
        let long: Vec<u32> = (0..40u32).map(|i| (i * 7 + 3) % 23).collect();
        let bags: [&[u32]; 7] = [&[], &[4], &[9, 9, 9, 9], &long, &[], &[22, 0], &[5]];
        let mut offsets = vec![0];
        let mut indices = Vec::new();
        for bag in bags {
            indices.extend_from_slice(bag);
            offsets.push(indices.len());
        }
        (indices, offsets)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The per-lookup gather the bag kernel replaced: zero the output row,
    /// then one [`accumulate`] per lookup.
    fn gather_ref(isa: Isa, w: &[f32], e: usize, indices: &[u32], offsets: &[usize]) -> Vec<f32> {
        let mut out = vec![f32::NAN; (offsets.len() - 1) * e];
        for (bag, out_row) in out.chunks_exact_mut(e).enumerate() {
            out_row.fill(0.0);
            for &ind in &indices[offsets[bag]..offsets[bag + 1]] {
                accumulate(isa, out_row, &w[ind as usize * e..][..e]);
            }
        }
        out
    }

    #[test]
    fn gather_bags_is_bitwise_the_per_row_gather_on_every_tier() {
        let (indices, offsets) = bags();
        let n = offsets.len() - 1;
        for e in WIDTHS {
            let mut w = mk(7, 23 * e);
            w[4 * e] = -0.0; // a single-row bag of -0.0 must still give +0.0
            let want = bits(&gather_ref(Isa::Scalar, &w, e, &indices, &offsets));
            for isa in available_isas() {
                let per_row = gather_ref(isa, &w, e, &indices, &offsets);
                assert_eq!(bits(&per_row), want, "per-row {isa:?} e={e}");
                // Whole range at once, and split where a thread team would.
                for split in [0, 3, n] {
                    let mut out = vec![f32::NAN; n * e];
                    for part in [0..split, split..n] {
                        // SAFETY: indices < 23 rows, offsets are CSR, out is n×e.
                        unsafe {
                            gather_bags(
                                isa,
                                w.as_ptr(),
                                e,
                                &indices,
                                &offsets,
                                part,
                                out.as_mut_ptr(),
                            )
                        };
                    }
                    assert_eq!(bits(&out), want, "gather_bags {isa:?} e={e} split={split}");
                }
            }
        }
    }

    /// A bag range that ends while the look-ahead is still running: the
    /// first bag is a few lookups longer than [`PREFETCH_DISTANCE`], so its
    /// last `PREFETCH_DISTANCE` lookups have nothing left to prefetch, and
    /// the bag behind it belongs to another thread — its lookups must not
    /// be gathered and its output row must not be written.
    #[test]
    fn gather_bags_range_ending_inside_the_prefetch_window_on_every_tier() {
        for extra in [1, 3] {
            let first = PREFETCH_DISTANCE + extra;
            let indices: Vec<u32> = (0..first as u32 + 5).map(|i| (i * 5 + 2) % 23).collect();
            let offsets = [0, first, indices.len()];
            for e in WIDTHS {
                let w = mk(10, 23 * e);
                let want = gather_ref(Isa::Scalar, &w, e, &indices, &offsets);
                for isa in available_isas() {
                    let mut out = vec![f32::NAN; 2 * e];
                    // SAFETY: indices < 23 rows, offsets are CSR, out is 2×e.
                    unsafe {
                        gather_bags(
                            isa,
                            w.as_ptr(),
                            e,
                            &indices,
                            &offsets,
                            0..1,
                            out.as_mut_ptr(),
                        )
                    };
                    assert_eq!(
                        bits(&out[..e]),
                        bits(&want[..e]),
                        "{isa:?} e={e} extra={extra}"
                    );
                    assert!(
                        out[e..].iter().all(|x| x.is_nan()),
                        "{isa:?} e={e} wrote bag 1"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_bag_is_bitwise_the_per_row_axpy_on_every_tier() {
        let (indices, offsets) = bags();
        for e in WIDTHS {
            let w0 = mk(8, 23 * e);
            let g = mk(9, e);
            for bag in 0..offsets.len() - 1 {
                let rows = &indices[offsets[bag]..offsets[bag + 1]];
                let mut want = w0.clone();
                for &r in rows {
                    axpy(Isa::Scalar, &mut want[r as usize * e..][..e], &g, -0.37);
                }
                for isa in available_isas() {
                    let mut got = w0.clone();
                    let it = rows.iter().map(|&r| r as usize);
                    // SAFETY: every row is < 23 and `g` is a separate buffer.
                    unsafe { scatter_bag(isa, got.as_mut_ptr(), &g, -0.37, it) };
                    assert_eq!(bits(&got), bits(&want), "{isa:?} e={e} bag={bag}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_mismatched_lengths() {
        let mut dst = [0.0f32; 4];
        axpy(Isa::Scalar, &mut dst, &[1.0; 5], 1.0);
    }

    #[test]
    fn prefetch_is_a_safe_hint() {
        let row = [0.0f32; 256];
        prefetch_row(row.as_ptr(), row.len());
        prefetch_row(row.as_ptr(), 1);
    }
}
