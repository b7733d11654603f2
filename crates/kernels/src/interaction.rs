//! The dot-product interaction's kernels: lanes are samples.
//!
//! The interaction is, per sample, the strictly-lower triangle of the Gram
//! matrix of `f` feature vectors of length `E` — "a batched matrix-matrix
//! multiplication as a key kernel" (Section II). A sample's dot is a
//! strictly ordered chain (`-0.0 + v_i[0]·v_j[0] + v_i[1]·v_j[1] + …`, each
//! product rounded before its add — what `iter().sum()` computes, and what
//! every golden in the workspace was recorded with), so the chain cannot be
//! split across vector lanes. Samples are independent, though: put 16 of
//! them in the lanes, walk `k` in order, and every lane runs exactly the
//! scalar chain.
//!
//! # Panel layout
//!
//! Operands are packed into **blocks of [`BLOCK`] samples**. One block is
//! `f` vectors back to back, each `E` rows of `BLOCK` lanes: element
//! `(vector v, feature k, lane l)` of block `b` sits at
//! `((b·f + v)·E + k)·BLOCK + l`. A block is contiguous (36 KB for nine
//! vectors of 64 features), so the whole pair loop of one block runs out of
//! L1 with unit-stride, 64-byte-aligned loads, and a batch size that is a
//! power of two aliases nothing. Lanes past the batch's last sample are
//! zero. The width is the same on every tier, so a panel packed under one
//! tier is read correctly under another.
//!
//! The bottom-MLP output is `E × N` already and is copied row by row; an
//! embedding output is `N × E` and goes through [`transpose`] in register
//! tiles. [`gram_block`] then holds up to eight pairs' accumulators at
//! once — independent chains, so the adds pipeline — and stores each output
//! row's `BLOCK` lanes contiguously.
//!
//! Tiers dispatch through the same [`Isa`] machinery as the GEMM and
//! embedding kernels and are bitwise interchangeable: multiply, round, add,
//! *never* an FMA.

use crate::gemm::micro::Isa;
use dlrm_tensor::simd::transpose;
#[cfg(target_arch = "x86_64")]
use dlrm_tensor::simd::{load_n_avx2, load_n_avx512, store_n_avx2, store_n_avx512};
use dlrm_tensor::Matrix;

/// Samples per panel block: one AVX-512 vector, two AVX2 vectors.
pub const BLOCK: usize = 16;

/// Floats in one block's panel for `f` vectors of `e` features.
pub fn block_len(f: usize, e: usize) -> usize {
    f * e * BLOCK
}

/// Packs block `block` (samples `block·BLOCK ..`) of `bottom` (`E × N`) and
/// `tables` (`N × E` each) into `panel` (see the module docs): vector 0 is
/// the bottom output, vector `t + 1` table `t`. Lanes past sample `N − 1`
/// are zeroed.
pub fn pack_block(isa: Isa, bottom: &Matrix, tables: &[Matrix], block: usize, panel: &mut [f32]) {
    let (e, n) = bottom.shape();
    assert_eq!(panel.len(), block_len(tables.len() + 1, e), "panel size");
    let s0 = block * BLOCK;
    assert!(s0 < n, "block {block} starts past sample {n}");
    let valid = (n - s0).min(BLOCK);
    if valid < BLOCK {
        panel.fill(0.0);
    }
    let (first, rest) = panel.split_at_mut(e * BLOCK);
    for (k, lanes) in first.chunks_exact_mut(BLOCK).enumerate() {
        lanes[..valid].copy_from_slice(&bottom.row(k)[s0..s0 + valid]);
    }
    for (table, dst) in tables.iter().zip(rest.chunks_exact_mut(e * BLOCK)) {
        assert_eq!(table.shape(), (n, e), "table output shape");
        let src = &table.as_slice()[s0 * e..(s0 + valid) * e];
        transpose(isa, src, e, valid, e, dst, BLOCK);
    }
}

/// The pairwise dots of one packed block: for `i` in `1..f`, `j` in `0..i`,
/// in that order, output row `p` (`p` counts pairs from 0) gets
/// `out[p · out_stride + l] = Σ_k v_i[k][l] · v_j[k][l]` for lanes
/// `l < valid`, each lane the `k`-ordered multiply-then-add chain from
/// `-0.0`.
///
/// # Safety
/// `out` must be valid for writes of `valid` floats at `p · out_stride` for
/// every pair `p < f(f−1)/2`, must not alias `panel`, and no other thread
/// may touch those floats during the call.
pub unsafe fn gram_block(
    isa: Isa,
    panel: &[f32],
    f: usize,
    e: usize,
    valid: usize,
    out: *mut f32,
    out_stride: usize,
) {
    assert_eq!(panel.len(), block_len(f, e), "panel size");
    assert!((1..=BLOCK).contains(&valid), "1..=BLOCK lanes are valid");
    let p = panel.as_ptr();
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::gram_block(p, f, e, valid, out, out_stride),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::gram_block(p, f, e, valid, out, out_stride),
        _ => {
            let mut row = out;
            for i in 1..f {
                for j in 0..i {
                    let mut acc = [-0.0f32; BLOCK];
                    for k in 0..e {
                        let a = &*p.add((i * e + k) * BLOCK).cast::<[f32; BLOCK]>();
                        let b = &*p.add((j * e + k) * BLOCK).cast::<[f32; BLOCK]>();
                        for l in 0..BLOCK {
                            // mul, then add — NOT mul_add: see the module docs.
                            acc[l] += a[l] * b[l];
                        }
                    }
                    std::ptr::copy_nonoverlapping(acc.as_ptr(), row, valid);
                    row = row.add(out_stride);
                }
            }
        }
    }
}

/// The pairwise part of one block's backward. `grads` is laid out like
/// `panel`; for `i` in `1..f`, `j` in `0..i`, in that order, with `g` the
/// `valid` lanes at `dout[p · dout_stride]` (`p` counts pairs from 0):
/// `grads[i][k][l] += g[l] · v_j[k][l]` and `grads[j][k][l] += g[l] ·
/// v_i[k][l]` wherever `g[l] != 0` — a zero gradient adds nothing, not
/// `0 · v`. Multiply, round, add, so each element's chain is the scalar
/// loop's.
///
/// # Safety
/// `dout` must be valid for reads of `valid` floats at `p · dout_stride`
/// for every pair `p < f(f−1)/2`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn grad_block(
    isa: Isa,
    panel: &[f32],
    f: usize,
    e: usize,
    valid: usize,
    dout: *const f32,
    dout_stride: usize,
    grads: &mut [f32],
) {
    assert_eq!(panel.len(), block_len(f, e), "panel size");
    assert_eq!(
        grads.len(),
        panel.len(),
        "grads are laid out like the panel"
    );
    assert!((1..=BLOCK).contains(&valid), "1..=BLOCK lanes are valid");
    let (p, gr) = (panel.as_ptr(), grads.as_mut_ptr());
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::grad_block(p, f, e, valid, dout, dout_stride, gr),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::grad_block(p, f, e, valid, dout, dout_stride, gr),
        _ => {
            let mut row = dout;
            for i in 1..f {
                for j in 0..i {
                    // A lane past the batch carries g = 0 and is skipped
                    // like any other zero gradient.
                    let mut g = [0.0f32; BLOCK];
                    g[..valid].copy_from_slice(std::slice::from_raw_parts(row, valid));
                    row = row.add(dout_stride);
                    for k in 0..e {
                        let (at_i, at_j) = ((i * e + k) * BLOCK, (j * e + k) * BLOCK);
                        let vi = *p.add(at_i).cast::<[f32; BLOCK]>();
                        let vj = *p.add(at_j).cast::<[f32; BLOCK]>();
                        let gi = &mut *gr.add(at_i).cast::<[f32; BLOCK]>();
                        for l in 0..BLOCK {
                            if g[l] != 0.0 {
                                gi[l] += g[l] * vj[l];
                            }
                        }
                        let gj = &mut *gr.add(at_j).cast::<[f32; BLOCK]>();
                        for l in 0..BLOCK {
                            if g[l] != 0.0 {
                                gj[l] += g[l] * vi[l];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Instantiates the Gram and gradient kernels for one vector
/// ISA. `$pairs` pairs are accumulated at once, `BLOCK / $lanes` vectors
/// each; `$nonzero(g)` is the `$mask` of lanes with `g != 0` and
/// `$add_where(m, acc, x)` is `acc + x` in those lanes, `acc` elsewhere.
#[cfg(target_arch = "x86_64")]
macro_rules! interaction_tier {
    (
        $tier:ident, $feat:literal, vec = $vec:ident, lanes = $lanes:literal, pairs = $pairs:literal,
        ops = ($zero:ident, $load:ident, $store:ident, $set1:ident, $add:ident, $mul:ident),
        tail = ($load_n:path, $store_n:path),
        nonzero = ($mask:ident, $nonzero:path, $add_where:path)
    ) => {
        #[allow(clippy::needless_range_loop)] // index form mirrors the tile math
        mod $tier {
            use super::BLOCK;
            use std::arch::x86_64::*;

            const LANES: usize = $lanes;
            /// Vectors per block row.
            const V: usize = BLOCK / LANES;

            /// How many of vector `v`'s lanes of a block row are among the
            /// row's first `valid`.
            #[inline]
            fn lanes_of(valid: usize, v: usize) -> usize {
                valid.saturating_sub(v * LANES).min(LANES)
            }

            /// Stores the first `n <= LANES` lanes of `x`.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn store_first(p: *mut f32, n: usize, x: $vec) {
                if n == LANES {
                    $store(p, x);
                } else if n > 0 {
                    $store_n(p, n, x);
                }
            }

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

            /// `J` pairs `(i, j0), …, (i, j0 + J − 1)` of one block: `vi`
            /// and `vj` (vector `j0`; the next `J − 1` follow it) enter at
            /// feature 0. One load of `v_i[k]` serves all `J` chains.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn pairs_tile<const J: usize>(
                vi: *const f32,
                vj: *const f32,
                e: usize,
                valid: usize,
                out: *mut f32,
                out_stride: usize,
            ) {
                let mut acc = [[$set1(-0.0); V]; J];
                for k in 0..e {
                    let mut a = [$zero(); V];
                    for v in 0..V {
                        a[v] = $load(vi.add(k * BLOCK + v * LANES));
                    }
                    for j in 0..J {
                        let b = vj.add((j * e + k) * BLOCK);
                        for v in 0..V {
                            // mul here, add after — NOT fmadd: see the
                            // module docs.
                            let prod = $mul(a[v], $load(b.add(v * LANES)));
                            acc[j][v] = $add(acc[j][v], prod);
                        }
                    }
                }
                for j in 0..J {
                    for v in 0..V {
                        let at = out.add(j * out_stride + v * LANES);
                        store_first(at, lanes_of(valid, v), acc[j][v]);
                    }
                }
            }

            /// See [`super::gram_block`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn gram_block(
                panel: *const f32,
                f: usize,
                e: usize,
                valid: usize,
                out: *mut f32,
                out_stride: usize,
            ) {
                let mut row = out;
                for i in 1..f {
                    let vi = panel.add(i * e * BLOCK);
                    let mut j = 0;
                    while j < i {
                        let vj = panel.add(j * e * BLOCK);
                        let take = (i - j).min($pairs);
                        match take {
                            1 => pairs_tile::<1>(vi, vj, e, valid, row, out_stride),
                            2 => pairs_tile::<2>(vi, vj, e, valid, row, out_stride),
                            3 => pairs_tile::<3>(vi, vj, e, valid, row, out_stride),
                            4 => pairs_tile::<4>(vi, vj, e, valid, row, out_stride),
                            5 => pairs_tile::<5>(vi, vj, e, valid, row, out_stride),
                            6 => pairs_tile::<6>(vi, vj, e, valid, row, out_stride),
                            7 => pairs_tile::<7>(vi, vj, e, valid, row, out_stride),
                            _ => pairs_tile::<8>(vi, vj, e, valid, row, out_stride),
                        }
                        j += take;
                        row = row.add(take * out_stride);
                    }
                }
            }

            /// See [`super::grad_block`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn grad_block(
                panel: *const f32,
                f: usize,
                e: usize,
                valid: usize,
                dout: *const f32,
                dout_stride: usize,
                grads: *mut f32,
            ) {
                let mut row = dout;
                for i in 1..f {
                    for j in 0..i {
                        // A lane past the batch loads g = 0 and is skipped
                        // like any other zero gradient.
                        let mut g = [$zero(); V];
                        let mut keep: [$mask; V] = [$nonzero($zero()); V];
                        for v in 0..V {
                            g[v] = load_first(row.add(v * LANES), lanes_of(valid, v));
                            keep[v] = $nonzero(g[v]);
                        }
                        row = row.add(dout_stride);
                        for k in 0..e {
                            for v in 0..V {
                                let at_i = (i * e + k) * BLOCK + v * LANES;
                                let at_j = (j * e + k) * BLOCK + v * LANES;
                                let (vi, vj) = ($load(panel.add(at_i)), $load(panel.add(at_j)));
                                let (gi, gj) = (grads.add(at_i), grads.add(at_j));
                                // mul, then add — NOT fmadd.
                                $store(gi, $add_where(keep[v], $load(gi), $mul(g[v], vj)));
                                $store(gj, $add_where(keep[v], $load(gj), $mul(g[v], vi)));
                            }
                        }
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
interaction_tier!(
    avx512,
    "avx512f",
    vec = __m512,
    lanes = 16,
    pairs = 8,
    ops = (
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_add_ps,
        _mm512_mul_ps
    ),
    tail = (super::load_n_avx512, super::store_n_avx512),
    nonzero = (__mmask16, super::nonzero_avx512, super::add_where_avx512)
);

#[cfg(target_arch = "x86_64")]
interaction_tier!(
    avx2,
    "avx2",
    vec = __m256,
    lanes = 8,
    pairs = 4,
    ops = (
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    ),
    tail = (super::load_n_avx2, super::store_n_avx2),
    nonzero = (__m256, super::nonzero_avx2, super::add_where_avx2)
);

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn nonzero_avx512(g: std::arch::x86_64::__m512) -> std::arch::x86_64::__mmask16 {
    use std::arch::x86_64::*;
    // Unordered, so a NaN gradient counts as nonzero, as `g != 0.0` does.
    _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(g, _mm512_setzero_ps())
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn add_where_avx512(
    keep: std::arch::x86_64::__mmask16,
    acc: std::arch::x86_64::__m512,
    x: std::arch::x86_64::__m512,
) -> std::arch::x86_64::__m512 {
    std::arch::x86_64::_mm512_mask_add_ps(acc, keep, acc, x)
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn nonzero_avx2(g: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_cmp_ps::<_CMP_NEQ_UQ>(g, _mm256_setzero_ps())
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn add_where_avx2(
    keep: std::arch::x86_64::__m256,
    acc: std::arch::x86_64::__m256,
    x: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_blendv_ps(acc, _mm256_add_ps(acc, x), keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::rowops::available_isas;

    #[test]
    fn pack_block_lays_vectors_out_feature_major_and_zeroes_the_tail() {
        let (e, n, tables) = (5, 21, 2);
        let bottom = Matrix::from_fn(e, n, |k, s| (100 * k + s) as f32);
        let ts: Vec<Matrix> = (1..=tables)
            .map(|t| Matrix::from_fn(n, e, |s, k| (1000 * t + 100 * k + s) as f32))
            .collect();
        for isa in available_isas() {
            for block in 0..n.div_ceil(BLOCK) {
                let mut panel = vec![f32::NAN; block_len(tables + 1, e)];
                pack_block(isa, &bottom, &ts, block, &mut panel);
                for v in 0..=tables {
                    for k in 0..e {
                        for l in 0..BLOCK {
                            let s = block * BLOCK + l;
                            let want = match (s < n, v) {
                                (false, _) => 0.0,
                                (true, 0) => bottom[(k, s)],
                                (true, _) => ts[v - 1][(s, k)],
                            };
                            let got = panel[(v * e + k) * BLOCK + l];
                            assert_eq!(got, want, "{isa:?} block {block} v{v} k{k} lane {l}");
                        }
                    }
                }
            }
        }
    }
}
