//! Batch-reduce GEMM microkernels with runtime ISA dispatch.
//!
//! The paper's MLP kernels are built on a single primitive: the
//! *batch-reduce GEMM* (Georganas et al., IPDPS'20). The caller names a batch
//! of A panels and B panels and the microkernel multiplies and reduces *all*
//! of them into one output panel, amortizing the load/store of the C
//! accumulator over the whole reduction ("lines 5–9 of Algorithm 5"). The
//! panels of one operand are equally strided in the blocked layouts, so a
//! batch is a base pointer and a stride ([`Panels`]) — no pointer list.
//!
//! Three variants cover the three training passes (panel layouts are those
//! of `dlrm_tensor::blocked`):
//!
//! * [`brgemm_fwd`]      — `Y[bn][bk]  = β·Y  + Σ_p X_p[bn][bc] · W_p[bc][bk]`
//! * [`brgemm_bwd_data`] — `dX[bn][bc] = β·dX + Σ_p dY_p[bn][bk] · W_p[bc][bk]ᵀ`
//! * [`brgemm_bwd_wt`]   — `dW[bc][bk] = β·dW + Σ_p X_p[bn][bc]ᵀ · dY_p[bn][bk]`
//!
//! Each has a scalar, an AVX2 and an AVX-512 implementation; [`detect_isa`]
//! picks the widest available at runtime and [`set_isa_override`] lets the
//! ablation benches force a tier (both are `dlrm_tensor::simd`'s, whose
//! one override forces every kernel that dispatches on [`Isa`]).
//!
//! # Register tiles and the chain-preservation rule
//!
//! Both vector tiers are one `simd_tier!` body instantiated twice, with two
//! register-tiled kernels:
//!
//! * **broadcast-FMA** (forward and backward-by-weights, which are the same
//!   product with `X` read along its other axis): `R` output rows × `V`
//!   vectors of the `bk` axis held in registers, one operand vector loaded
//!   per `R` FMAs and one scalar broadcast per `V` — 4 × 4 on AVX-512
//!   (32 zmm), 4 × 2 on AVX2 (16 ymm). Reduction panels are the outer loop
//!   and the tiles the inner one, so the live operand panels stay in L1;
//!   between panels a tile's partial sums rest in the output panel.
//! * **dot** (backward-by-data): `R × C` independent dot-product
//!   accumulators sharing `R` `dY` and `C` `W` vector loads per `R·C` FMAs —
//!   4 × 4 on AVX-512, 2 × 4 on AVX2 — held across a chunk of the batch
//!   reduction small enough that the chunk's `dY` rows stay in L1, parked
//!   between chunks, then reduced horizontally and masked once per element
//!   when the last chunk writes the tile back.
//!
//! The scalar kernels serve every `bk` that is not a multiple of 8, the
//! `K = 1` output heads above all; with `bk` under 8 they take a narrow form
//! whose inner loops run along a `bc`-long row instead of along `bk`.
//!
//! Tiling changes which elements are computed together, never how one
//! element is computed: every output element is one FMA chain, `p` outer and
//! the reduction index inner, finished (for the dot kernel) by one
//! horizontal reduce with a fixed tree. Parking a partial sum in memory
//! between panels is exact, so it does not break the chain. A result
//! therefore depends on the ISA tier and the panel shapes only, not on the
//! tile that happened to cover it — remainder rows and columns run the same
//! chain in 1-wide tiles — which is what keeps every tile shape and loop
//! order bitwise identical to the untiled kernels in `micro_ref` (and lets
//! both be retuned freely).

pub use dlrm_tensor::simd::{detect_isa, set_isa_override, Isa};

/// Panel-size description shared by all three kernels.
#[derive(Debug, Clone, Copy)]
pub struct PanelDims {
    /// Minibatch block.
    pub bn: usize,
    /// Input-feature block.
    pub bc: usize,
    /// Output-feature block.
    pub bk: usize,
}

/// One operand of a batch-reduce call: equally strided panels, panel `p`
/// starting `p * stride` elements after `ptr`.
#[derive(Debug, Clone, Copy)]
pub struct Panels {
    /// First panel.
    pub ptr: *const f32,
    /// Elements between consecutive panels.
    pub stride: usize,
}

impl Panels {
    /// Panel `p`.
    #[inline(always)]
    unsafe fn at(self, p: usize) -> *const f32 {
        self.ptr.add(p * self.stride)
    }

    /// The same batch, entered `elems` elements into every panel.
    #[inline(always)]
    unsafe fn offset(self, elems: usize) -> Panels {
        Panels {
            ptr: self.ptr.add(elems),
            stride: self.stride,
        }
    }
}

/// What a kernel does with the previous contents of its output panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Beta {
    /// β = 0: the output is overwritten and need not be initialized. Bitwise
    /// identical to [`Beta::One`] over a zero-filled panel.
    Zero,
    /// β = 1: the reduction is added to what the panel holds.
    One,
}

/// The extent of one batch-reduce call.
#[derive(Debug, Clone, Copy)]
pub struct Reduce {
    /// Panels reduced per operand.
    pub count: usize,
    /// Treatment of the output panel's previous contents.
    pub beta: Beta,
}

/// Geometry of a broadcast-FMA panel product
/// `out[i][..bk] += Σ_p Σ_t a_p[i·a_row + t·a_t] · b_p[t][..bk]`,
/// the shape forward (`i = r_n`, `t = r_c`) and backward-by-weights
/// (`i = r_c`, `t = r_n`) share.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct BcastDims {
    /// Output rows.
    rows: usize,
    /// Reduction length inside one panel.
    depth: usize,
    /// Stride of the broadcast operand along `i`.
    a_row: usize,
    /// Stride of the broadcast operand along `t`.
    a_t: usize,
    /// Row length of `b` and `out`.
    bk: usize,
}

#[cfg(target_arch = "x86_64")]
impl BcastDims {
    fn forward(d: PanelDims) -> Self {
        BcastDims {
            rows: d.bn,
            depth: d.bc,
            a_row: d.bc,
            a_t: 1,
            bk: d.bk,
        }
    }

    fn backward_weights(d: PanelDims) -> Self {
        BcastDims {
            rows: d.bc,
            depth: d.bn,
            a_row: 1,
            a_t: d.bc,
            bk: d.bk,
        }
    }
}

/// Whether a scalar kernel takes its narrow form: `bk` shorter than one
/// AVX2 vector, which is the shape every output head (`K = 1`) blocks to.
/// A loop along `bk` is then a handful of iterations per element, so the
/// narrow form runs its inner loop along a `bc`-long row instead. Every
/// element keeps its chain; only the loop nest around it changes. At
/// `bk` = 3 and 6 the narrow form was faster in all three passes, at 10,
/// 16, 20, 24 and 64 slower in all three (EXPERIMENTS.md, "the MLP passes
/// at kernel speed").
fn is_narrow(d: PanelDims) -> bool {
    d.bk < 8
}

/// Columns of a `dX` row the scalar backward-by-data kernel reduces at once.
const RUN_COLS: usize = 64;

/// Zero-fills an output panel ahead of an in-memory accumulating (scalar)
/// kernel under [`Beta::Zero`].
unsafe fn apply_beta(beta: Beta, out: *mut f32, len: usize) {
    if beta == Beta::Zero {
        std::slice::from_raw_parts_mut(out, len).fill(0.0);
    }
}

/// The dot kernel's `r_c` tile extent on both vector tiers.
#[cfg(target_arch = "x86_64")]
const DOT_COLS: usize = 4;

/// L1 data cache of one core: 48 KiB (12 ways × 64 sets of 64 B lines) on
/// the Sapphire Rapids host every measurement in EXPERIMENTS.md comes from.
#[cfg(target_arch = "x86_64")]
const L1_DATA_BYTES: usize = 48 * 1024;

/// What one chunk of a backward-by-data panel keeps in L1 — its `dY` rows
/// of the whole `bn` block plus one [`DOT_COLS`]-row `W` strip — leaving a
/// quarter for the parked accumulators and the output passing through. At
/// the default blocking that is four reduction panels; of three to six,
/// four measured fastest. Tuned on the 48 KiB host only: it also drives the
/// AVX2 tier, whose hosts mostly have 32 KiB of L1, where 36 KiB no longer
/// fits and the best chunk is unmeasured.
#[cfg(target_arch = "x86_64")]
const DOT_CHUNK_BYTES: usize = L1_DATA_BYTES / 4 * 3;

/// Output elements a chunked dot panel can park, one vector each: the
/// default blocking's 32 × 64 panel, 128 KiB of stack on AVX-512. A larger
/// panel reduces its whole batch in one chunk.
#[cfg(target_arch = "x86_64")]
const PARK_ELEMS: usize = 2048;

/// Reduction panels per chunk of a backward-by-data panel: as many as fit
/// [`DOT_CHUNK_BYTES`], at least one, and the whole batch where it fits or
/// where the panel has more elements than the park holds.
#[cfg(target_arch = "x86_64")]
fn dot_chunk(count: usize, d: PanelDims) -> usize {
    if d.bn * d.bc > PARK_ELEMS {
        return count;
    }
    let per_panel = (d.bn + DOT_COLS) * d.bk * std::mem::size_of::<f32>();
    (DOT_CHUNK_BYTES / per_panel).max(1).min(count)
}

// ---------------------------------------------------------------------------
// Vector tiers
// ---------------------------------------------------------------------------

/// Instantiates the register-tiled kernels for one vector ISA. `bcast_vecs`
/// is the widest broadcast-FMA tile in vectors (rows are always 4) and
/// `dot_rows` the dot tile's `r_n` extent (its `r_c` extent is always 4),
/// both sized to the tier's register file.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_tier {
    (
        $tier:ident, $feat:literal, $vec:ty, lanes = $lanes:literal,
        bcast_vecs = $bv:literal, dot_rows = $dr:literal,
        ops = ($zero:ident, $load:ident, $store:ident, $set1:ident, $add:ident, $fma:ident),
        hsum = $hsum:path
    ) => {
        #[allow(clippy::needless_range_loop)] // index form mirrors the tile math
        mod $tier {
            use super::{BcastDims, Beta, PanelDims, Panels, Reduce, DOT_COLS};
            use std::arch::x86_64::*;
            use std::mem::MaybeUninit;
            use std::ops::Range;

            const LANES: usize = $lanes;
            const BCAST_ROWS: usize = 4;
            const BCAST_VECS: usize = $bv;
            const DOT_ROWS: usize = $dr;

            /// `R` rows × `V` vectors of a broadcast-FMA output panel, held
            /// in registers across one reduction panel: `out` (read first
            /// iff `accumulate`) plus the panel's `depth` rank-1 updates.
            /// `a` enters at the tile's first row, `b` and `out` at its
            /// first column.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn bcast_tile<const R: usize, const V: usize>(
                a: *const f32,
                b: *const f32,
                accumulate: bool,
                out: *mut f32,
                g: BcastDims,
            ) {
                let mut acc = [[$zero(); V]; R];
                if accumulate {
                    for i in 0..R {
                        for v in 0..V {
                            acc[i][v] = $load(out.add(i * g.bk + v * LANES));
                        }
                    }
                }
                for t in 0..g.depth {
                    let mut bvec = [$zero(); V];
                    for v in 0..V {
                        bvec[v] = $load(b.add(t * g.bk + v * LANES));
                    }
                    for i in 0..R {
                        let s = $set1(*a.add(i * g.a_row + t * g.a_t));
                        for v in 0..V {
                            acc[i][v] = $fma(s, bvec[v], acc[i][v]);
                        }
                    }
                }
                for i in 0..R {
                    for v in 0..V {
                        $store(out.add(i * g.bk + v * LANES), acc[i][v]);
                    }
                }
            }

            /// All rows of a `V`-vector column strip: 4-row tiles, then the
            /// remainder rows one at a time.
            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn bcast_strip<const V: usize>(
                a: *const f32,
                b: *const f32,
                accumulate: bool,
                out: *mut f32,
                g: BcastDims,
            ) {
                let mut i = 0;
                while i + BCAST_ROWS <= g.rows {
                    let (a, out) = (a.add(i * g.a_row), out.add(i * g.bk));
                    bcast_tile::<BCAST_ROWS, V>(a, b, accumulate, out, g);
                    i += BCAST_ROWS;
                }
                while i < g.rows {
                    let (a, out) = (a.add(i * g.a_row), out.add(i * g.bk));
                    bcast_tile::<1, V>(a, b, accumulate, out, g);
                    i += 1;
                }
            }

            /// One broadcast-FMA output panel. Reduction panels outermost,
            /// so one `a`, one `b` and the `out` panel are all that is live
            /// and stay in L1 across the tiles; the partial sums pass
            /// through `out` between panels, which is exact, so the chain
            /// of every element is still `p` outer, `t` inner. Inside a
            /// panel, the `bk` axis goes in strips of the widest tile that
            /// still fits.
            ///
            /// # Safety
            /// `g.bk` must be a multiple of the vector width; pointers as
            /// for [`super::brgemm_fwd`] / [`super::brgemm_bwd_wt`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn bcast_panel(
                a: Panels,
                b: Panels,
                r: Reduce,
                out: *mut f32,
                g: BcastDims,
            ) {
                debug_assert_eq!(g.bk % LANES, 0);
                for p in 0..r.count {
                    let (a, accumulate) = (a.at(p), p > 0 || r.beta == Beta::One);
                    let mut kb = 0;
                    while kb < g.bk {
                        let (b, out) = (b.at(p).add(kb), out.add(kb));
                        let left = (g.bk - kb) / LANES;
                        kb += LANES
                            * if BCAST_VECS >= 4 && left >= 4 {
                                bcast_strip::<4>(a, b, accumulate, out, g);
                                4
                            } else if left >= 2 {
                                bcast_strip::<2>(a, b, accumulate, out, g);
                                2
                            } else {
                                bcast_strip::<1>(a, b, accumulate, out, g);
                                1
                            };
                    }
                }
            }

            /// `R × C` dot products `dX[i][j] = Σ_p dY_p[i][..bk] · W_p[j][..bk]`
            /// as independent vector accumulators, over the reduction panels
            /// `ps` of one chunk. A chunk after the first resumes from the
            /// `R·C` vectors parked at `park`, a chunk before the last parks
            /// them there again; the last one reduces horizontally and tests
            /// the mask once per element at write-back. `dy` enters at the
            /// tile's first `r_n` row, `w` at its first `r_c` row, `dx` and
            /// `mask` at the tile's first element.
            #[inline]
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)] // one tile's geometry
            unsafe fn dot_tile<const R: usize, const C: usize>(
                w: Panels,
                dy: Panels,
                r: Reduce,
                ps: Range<usize>,
                park: *mut $vec,
                dx: *mut f32,
                mask: Option<*const f32>,
                d: PanelDims,
            ) {
                let mut acc = [[$zero(); C]; R];
                if ps.start > 0 {
                    for i in 0..R {
                        for j in 0..C {
                            acc[i][j] = *park.add(i * C + j);
                        }
                    }
                }
                let last = ps.end == r.count;
                for p in ps {
                    let (wp, dyp) = (w.at(p), dy.at(p));
                    for kv in 0..d.bk / LANES {
                        let kb = kv * LANES;
                        let mut wvec = [$zero(); C];
                        for j in 0..C {
                            wvec[j] = $load(wp.add(j * d.bk + kb));
                        }
                        for i in 0..R {
                            let dv = $load(dyp.add(i * d.bk + kb));
                            for j in 0..C {
                                acc[i][j] = $fma(dv, wvec[j], acc[i][j]);
                            }
                        }
                    }
                }
                if !last {
                    for i in 0..R {
                        for j in 0..C {
                            *park.add(i * C + j) = acc[i][j];
                        }
                    }
                    return;
                }
                for i in 0..R {
                    for j in 0..C {
                        let idx = i * d.bc + j;
                        let out = dx.add(idx);
                        let sum: f32 = $hsum(acc[i][j]);
                        let value = match r.beta {
                            // `0.0 +` is what accumulating into a
                            // zero-filled panel computes (-0.0 → +0.0).
                            Beta::Zero => 0.0 + sum,
                            Beta::One => *out + sum,
                        };
                        // A select, not a branch: the mask is a coin flip.
                        let masked = mask.is_some_and(|m| *m.add(idx) <= 0.0);
                        *out = if masked { 0.0 } else { value };
                    }
                }
            }

            /// All `r_n` rows of a `C`-column strip of `dX`, over one chunk;
            /// the strip's tiles park at consecutive slots from `park`.
            /// (Park pointers are formed with `wrapping_add`: a panel too
            /// large to park runs one chunk, and its pointers, never read,
            /// may lie past the buffer.)
            #[inline]
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)] // one tile's geometry
            unsafe fn dot_strip<const C: usize>(
                w: Panels,
                dy: Panels,
                r: Reduce,
                ps: Range<usize>,
                park: *mut $vec,
                dx: *mut f32,
                mask: Option<*const f32>,
                d: PanelDims,
            ) {
                let mut i = 0;
                while i + DOT_ROWS <= d.bn {
                    let (dy, park) = (dy.offset(i * d.bk), park.wrapping_add(i * C));
                    let m = mask.map(|m| m.add(i * d.bc));
                    dot_tile::<DOT_ROWS, C>(w, dy, r, ps.clone(), park, dx.add(i * d.bc), m, d);
                    i += DOT_ROWS;
                }
                while i < d.bn {
                    let (dy, park) = (dy.offset(i * d.bk), park.wrapping_add(i * C));
                    let m = mask.map(|m| m.add(i * d.bc));
                    dot_tile::<1, C>(w, dy, r, ps.clone(), park, dx.add(i * d.bc), m, d);
                    i += 1;
                }
            }

            /// One backward-by-data output panel. The reduction panels go
            /// in chunks of [`super::dot_chunk`]; inside a chunk, `r_c`
            /// strips are outermost, so the chunk's `dY` rows of the whole
            /// `bn` block stay in L1 while the strips' `W` rows stream past
            /// them once. Between chunks every tile's accumulators rest in
            /// a stack buffer, one vector per output element, which is
            /// exact: each element is still one chain, `p` outer.
            ///
            /// # Safety
            /// `d.bk` must be a multiple of the vector width; pointers as
            /// for [`super::brgemm_bwd_data`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn dot_panel(
                w: Panels,
                dy: Panels,
                r: Reduce,
                dx: *mut f32,
                mask: Option<*const f32>,
                d: PanelDims,
            ) {
                debug_assert_eq!(d.bk % LANES, 0);
                let mut park = [MaybeUninit::<$vec>::uninit(); super::PARK_ELEMS];
                let park = park.as_mut_ptr().cast::<$vec>();
                let chunk = super::dot_chunk(r.count, d);
                let mut p0 = 0;
                while p0 < r.count {
                    let ps = p0..r.count.min(p0 + chunk);
                    let mut j = 0;
                    while j + DOT_COLS <= d.bc {
                        let (w, park) = (w.offset(j * d.bk), park.wrapping_add(j * d.bn));
                        let m = mask.map(|m| m.add(j));
                        dot_strip::<DOT_COLS>(w, dy, r, ps.clone(), park, dx.add(j), m, d);
                        j += DOT_COLS;
                    }
                    while j < d.bc {
                        let (w, park) = (w.offset(j * d.bk), park.wrapping_add(j * d.bn));
                        let m = mask.map(|m| m.add(j));
                        dot_strip::<1>(w, dy, r, ps.clone(), park, dx.add(j), m, d);
                        j += 1;
                    }
                    p0 = ps.end;
                }
            }

            /// `db[..bk] = Σ_p Σ_rn dY_p[rn][..bk]`: one plain-add chain per
            /// lane, ascending `p` then `r_n`.
            ///
            /// # Safety
            /// `d.bk` must be a multiple of the vector width; pointers as
            /// for [`super::brgemm_bwd_wt_bias`].
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn bias_reduce(dy: Panels, count: usize, db: *mut f32, d: PanelDims) {
                for kv in 0..d.bk / LANES {
                    let kb = kv * LANES;
                    let mut acc = $zero();
                    for p in 0..count {
                        let dyp = dy.at(p);
                        for r_n in 0..d.bn {
                            acc = $add(acc, $load(dyp.add(r_n * d.bk + kb)));
                        }
                    }
                    $store(db.add(kb), acc);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_tier!(
    avx512,
    "avx512f",
    __m512,
    lanes = 16,
    bcast_vecs = 4,
    dot_rows = 4,
    ops = (
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_add_ps,
        _mm512_fmadd_ps
    ),
    hsum = _mm512_reduce_add_ps
);

#[cfg(target_arch = "x86_64")]
simd_tier!(
    avx2,
    "avx2,fma",
    __m256,
    lanes = 8,
    bcast_vecs = 2,
    dot_rows = 2,
    ops = (
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_fmadd_ps
    ),
    hsum = super::hsum_avx2
);

/// Horizontal sum of 8 lanes: halves, then pairs, then the last two.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum_avx2(acc: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let hi = _mm256_extractf128_ps::<1>(acc);
    let lo = _mm256_castps256_ps128(acc);
    let s = _mm_add_ps(hi, lo);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
    _mm_cvtss_f32(s)
}

// ---------------------------------------------------------------------------
// Forward: Y[bn][bk] = beta*Y + sum_p X_p[bn][bc] * W_p[bc][bk]
// ---------------------------------------------------------------------------

/// Batch-reduce forward microkernel.
///
/// # Safety
/// The first `r.count` panels of `x` must be valid for `bn*bc` reads, those
/// of `w` for `bc*bk` reads, and `y` must hold `bn*bk` elements (initialized
/// under [`Beta::One`]). Panels must not alias `y`.
pub unsafe fn brgemm_fwd(isa: Isa, w: Panels, x: Panels, r: Reduce, y: *mut f32, d: PanelDims) {
    debug_assert!(r.count > 0, "empty batch reduction");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if d.bk.is_multiple_of(16) => {
            avx512::bcast_panel(x, w, r, y, BcastDims::forward(d))
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 if d.bk.is_multiple_of(8) => {
            avx2::bcast_panel(x, w, r, y, BcastDims::forward(d))
        }
        _ => brgemm_fwd_scalar(w, x, r, y, d),
    }
}

unsafe fn brgemm_fwd_scalar(w: Panels, x: Panels, r: Reduce, y: *mut f32, d: PanelDims) {
    let PanelDims { bn, bc, bk } = d;
    apply_beta(r.beta, y, bn * bk);
    for p in 0..r.count {
        let (w, x) = (w.at(p), x.at(p));
        for r_n in 0..bn {
            let x_row = std::slice::from_raw_parts(x.add(r_n * bc), bc);
            let y_row = std::slice::from_raw_parts_mut(y.add(r_n * bk), bk);
            if is_narrow(d) {
                // One sequential chain per output element, along `x`'s row.
                for (r_k, yv) in y_row.iter_mut().enumerate() {
                    let mut acc = *yv;
                    for (r_c, &xv) in x_row.iter().enumerate() {
                        acc += xv * *w.add(r_c * bk + r_k);
                    }
                    *yv = acc;
                }
                continue;
            }
            for (r_c, &xv) in x_row.iter().enumerate() {
                let w_row = std::slice::from_raw_parts(w.add(r_c * bk), bk);
                for (yv, &wv) in y_row.iter_mut().zip(w_row) {
                    *yv += xv * wv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Backward by data: dX[bn][bc] = beta*dX + sum_p dY_p[bn][bk] * W_p[bc][bk]^T
// ---------------------------------------------------------------------------

/// Batch-reduce backward-by-data microkernel, optionally with the upstream
/// layer's ReLU mask fused into the accumulator write-back: once
/// `dX[bn][bc]` has its full reduction, an element is zeroed wherever the
/// forward output `mask[bn][bc]` (same panel layout as `dx`) was
/// non-positive. Bitwise identical to the unmasked kernel followed by a
/// separate `relu_backward(mask, dx)` sweep, because each element receives
/// its full accumulation before the predicate fires — but it saves one
/// read+write sweep of `dX` while the panel is still hot in cache.
///
/// # Safety
/// The first `r.count` panels of `dy` must be valid for `bn*bk` reads, those
/// of `w` for `bc*bk` reads, `dx` must hold `bn*bc` elements (initialized
/// under [`Beta::One`]) and `mask`, if any, must be valid for `bn*bc` reads.
/// Nothing may alias `dx`.
pub unsafe fn brgemm_bwd_data(
    isa: Isa,
    w: Panels,
    dy: Panels,
    r: Reduce,
    dx: *mut f32,
    mask: Option<*const f32>,
    d: PanelDims,
) {
    debug_assert!(r.count > 0, "empty batch reduction");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if d.bk.is_multiple_of(16) => avx512::dot_panel(w, dy, r, dx, mask, d),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 if d.bk.is_multiple_of(8) => avx2::dot_panel(w, dy, r, dx, mask, d),
        _ => brgemm_bwd_data_scalar(w, dy, r, dx, mask, d),
    }
}

/// The scalar backward-by-data kernel. Per run of up to [`RUN_COLS`]
/// columns of a `dX` row, it forms each panel's dot products, each one chain
/// from 0.0 along `bk`, then adds them into `dX` in memory; on the last
/// panel the add is where the mask selects.
unsafe fn brgemm_bwd_data_scalar(
    w: Panels,
    dy: Panels,
    r: Reduce,
    dx: *mut f32,
    mask: Option<*const f32>,
    d: PanelDims,
) {
    let PanelDims { bn, bc, bk } = d;
    apply_beta(r.beta, dx, bn * bc);
    let mut part = [0.0f32; RUN_COLS];
    for p in 0..r.count {
        let (w, dy) = (w.at(p), dy.at(p));
        let mask = mask.filter(|_| p + 1 == r.count);
        for r_n in 0..bn {
            let dy_row = std::slice::from_raw_parts(dy.add(r_n * bk), bk);
            for c0 in (0..bc).step_by(RUN_COLS) {
                let part = &mut part[..RUN_COLS.min(bc - c0)];
                let w = w.add(c0 * bk);
                if is_narrow(d) {
                    // `bk` outside, the run of columns inside.
                    part.fill(0.0);
                    for (r_k, &g) in dy_row.iter().enumerate() {
                        for (i, acc) in part.iter_mut().enumerate() {
                            *acc += g * *w.add(i * bk + r_k);
                        }
                    }
                } else {
                    for (i, acc) in part.iter_mut().enumerate() {
                        let w_row = std::slice::from_raw_parts(w.add(i * bk), bk);
                        *acc = 0.0;
                        for (&dyv, &wv) in dy_row.iter().zip(w_row) {
                            *acc += dyv * wv;
                        }
                    }
                }
                let at = r_n * bc + c0;
                let dx = std::slice::from_raw_parts_mut(dx.add(at), part.len());
                match mask {
                    // A select, not a branch, as in the vector tiers: the
                    // sign is a coin flip.
                    Some(m) => {
                        let m = std::slice::from_raw_parts(m.add(at), part.len());
                        for ((v, &acc), &mv) in dx.iter_mut().zip(&*part).zip(m) {
                            *v = if mv <= 0.0 { 0.0 } else { *v + acc };
                        }
                    }
                    None => {
                        for (v, &acc) in dx.iter_mut().zip(&*part) {
                            *v += acc;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Backward by weights: dW[bc][bk] = beta*dW + sum_p X_p[bn][bc]^T * dY_p[bn][bk]
// ---------------------------------------------------------------------------

/// Batch-reduce backward-by-weights microkernel.
///
/// # Safety
/// The first `r.count` panels of `x` must be valid for `bn*bc` reads, those
/// of `dy` for `bn*bk` reads, and `dw` must hold `bc*bk` elements
/// (initialized under [`Beta::One`]). Panels must not alias `dw`.
pub unsafe fn brgemm_bwd_wt(
    isa: Isa,
    x: Panels,
    dy: Panels,
    r: Reduce,
    dw: *mut f32,
    d: PanelDims,
) {
    debug_assert!(r.count > 0, "empty batch reduction");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if d.bk.is_multiple_of(16) => {
            avx512::bcast_panel(x, dy, r, dw, BcastDims::backward_weights(d))
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 if d.bk.is_multiple_of(8) => {
            avx2::bcast_panel(x, dy, r, dw, BcastDims::backward_weights(d))
        }
        _ => brgemm_bwd_wt_scalar(x, dy, r, dw, d),
    }
}

unsafe fn brgemm_bwd_wt_scalar(x: Panels, dy: Panels, r: Reduce, dw: *mut f32, d: PanelDims) {
    let PanelDims { bn, bc, bk } = d;
    apply_beta(r.beta, dw, bc * bk);
    for p in 0..r.count {
        let (x, dy) = (x.at(p), dy.at(p));
        for r_n in 0..bn {
            let x_row = std::slice::from_raw_parts(x.add(r_n * bc), bc);
            let dy_row = std::slice::from_raw_parts(dy.add(r_n * bk), bk);
            if is_narrow(d) {
                // Per `dW` column: an axpy of `x`'s row into it.
                for (r_k, &g) in dy_row.iter().enumerate() {
                    for (r_c, &xv) in x_row.iter().enumerate() {
                        *dw.add(r_c * bk + r_k) += xv * g;
                    }
                }
                continue;
            }
            for (r_c, &xv) in x_row.iter().enumerate() {
                let dw_row = std::slice::from_raw_parts_mut(dw.add(r_c * bk), bk);
                for (dwv, &dyv) in dw_row.iter_mut().zip(dy_row) {
                    *dwv += xv * dyv;
                }
            }
        }
    }
}

/// Batch-reduce backward-by-weights with the bias-gradient reduction fused
/// in: besides the `dW` panel, overwrites `db[rk] = Σ_p Σ_rn dY_p[rn][rk]`
/// while the `dY` panels are hot in cache. With panels supplied in ascending
/// minibatch-block order (as the blocked drivers do), each `db` lane is a
/// plain-add chain in ascending flat-`n` order — exactly `bias_grad_rows`'
/// per-row `iter().sum()` — so the fused bias gradient is bitwise identical
/// to the separate pass on **every** ISA tier (vectorizing across `bk` lanes
/// reassociates nothing).
///
/// # Safety
/// Same as [`brgemm_bwd_wt`], plus `db` must be valid for `bk` writes and
/// must not alias any panel or `dw`.
pub unsafe fn brgemm_bwd_wt_bias(
    isa: Isa,
    x: Panels,
    dy: Panels,
    r: Reduce,
    dw: *mut f32,
    db: *mut f32,
    d: PanelDims,
) {
    brgemm_bwd_wt(isa, x, dy, r, dw, d);
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if d.bk.is_multiple_of(16) => avx512::bias_reduce(dy, r.count, db, d),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 if d.bk.is_multiple_of(8) => avx2::bias_reduce(dy, r.count, db, d),
        _ => bias_reduce_scalar(dy, r.count, db, d),
    }
}

unsafe fn bias_reduce_scalar(dy: Panels, count: usize, db: *mut f32, d: PanelDims) {
    let PanelDims { bn, bk, .. } = d;
    let out = std::slice::from_raw_parts_mut(db, bk);
    out.fill(0.0);
    for p in 0..count {
        let dy = dy.at(p);
        for r_n in 0..bn {
            let row = std::slice::from_raw_parts(dy.add(r_n * bk), bk);
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
/// Held by the unit tests that force a tier, and by those that compare two
/// calls bitwise on whichever tier is current: the override is
/// process-global and the harness runs tests on parallel threads.
pub(crate) fn lock_isa_override() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::super::micro_ref;
    use super::*;

    fn all_isas() -> Vec<Isa> {
        crate::embedding::rowops::available_isas()
    }

    /// `count` panels of `len` pseudo-random floats (exact zeros and both
    /// signs included), laid out with a gap so the stride is not the panel
    /// length.
    struct Operand {
        data: Vec<f32>,
        stride: usize,
        count: usize,
    }

    impl Operand {
        fn new(seed: usize, len: usize, count: usize) -> Self {
            let stride = len + 5;
            let data = (0..stride * count)
                .map(|i| (((i * 2654435761 + seed * 40503) % 1000) as f32 - 500.0) / 250.0)
                .collect();
            Operand {
                data,
                stride,
                count,
            }
        }

        fn panels(&self) -> Panels {
            Panels {
                ptr: self.data.as_ptr(),
                stride: self.stride,
            }
        }

        /// The pointer list the untiled reference kernels take.
        fn ptrs(&self) -> Vec<*const f32> {
            (0..self.count)
                .map(|p| self.data[p * self.stride..].as_ptr())
                .collect()
        }

        fn reduce(&self, beta: Beta) -> Reduce {
            Reduce {
                count: self.count,
                beta,
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Output-panel prefill: what the untiled kernels accumulated into.
    fn prefill(len: usize) -> Vec<f32> {
        (0..len).map(|i| (i % 7) as f32 * 0.375 - 1.0).collect()
    }

    /// The shapes of the bit-equality sweeps: every `bn`/`bc` remainder of
    /// the 4-wide tiles (and of the 2-row AVX2 dot tile), `bk` that selects
    /// the 4-, 2- and 1-vector strips of both vector tiers, `bk = 24` (AVX2
    /// kernels under the AVX-512 tier), `bk = 10` (the scalar kernels'
    /// wide form under every tier), `bk = 1, 3` (their narrow form), one
    /// panel and many, and 17, which the dot kernel reduces in chunks with
    /// a ragged last one — except in a panel too large to park (the last
    /// shape).
    fn shapes() -> Vec<(PanelDims, usize)> {
        let mut v = Vec::new();
        for bn in [1, 3, 4, 7, 32] {
            for bc in [4, 5, 64] {
                for bk in [16, 48, 64, 24, 10, 1, 3] {
                    for count in [1, 5, 17] {
                        v.push((PanelDims { bn, bc, bk }, count));
                    }
                }
            }
        }
        v.push((
            PanelDims {
                bn: 33,
                bc: 64,
                bk: 64,
            },
            17,
        ));
        v
    }

    /// Runs `new` under β = 0 over garbage, under β = 1 over zeros and under
    /// β = 1 over a prefill, and checks each against the untiled reference
    /// `old` accumulating into zeros resp. the prefill.
    fn assert_matches_reference(
        len: usize,
        label: &str,
        old: impl Fn(*mut f32),
        new: impl Fn(Beta, *mut f32),
    ) {
        let mut want = vec![0.0f32; len];
        old(want.as_mut_ptr());
        let mut overwrite = vec![f32::NAN; len];
        new(Beta::Zero, overwrite.as_mut_ptr());
        assert_eq!(bits(&overwrite), bits(&want), "{label}: overwrite");
        let mut accumulate = vec![0.0f32; len];
        new(Beta::One, accumulate.as_mut_ptr());
        assert_eq!(bits(&accumulate), bits(&want), "{label}: pre-zeroed");

        let mut want = prefill(len);
        old(want.as_mut_ptr());
        let mut accumulate = prefill(len);
        new(Beta::One, accumulate.as_mut_ptr());
        assert_eq!(bits(&accumulate), bits(&want), "{label}: accumulate");
    }

    #[test]
    fn tiled_fwd_is_bitwise_the_untiled_kernel() {
        for (d, count) in shapes() {
            let w = Operand::new(1, d.bc * d.bk, count);
            let x = Operand::new(99, d.bn * d.bc, count);
            for isa in all_isas() {
                assert_matches_reference(
                    d.bn * d.bk,
                    &format!("fwd {isa:?} {d:?} x{count}"),
                    // SAFETY: for both kernels, each operand holds `count`
                    // panels of its dims; `y` is one `bn × bk` panel.
                    |y| unsafe { micro_ref::fwd(isa, &w.ptrs(), &x.ptrs(), y, d) },
                    // SAFETY: as above.
                    |beta, y| unsafe {
                        brgemm_fwd(isa, w.panels(), x.panels(), w.reduce(beta), y, d)
                    },
                );
            }
        }
    }

    #[test]
    fn tiled_bwd_wt_is_bitwise_the_untiled_kernel() {
        for (d, count) in shapes() {
            let x = Operand::new(2, d.bn * d.bc, count);
            let dy = Operand::new(5, d.bn * d.bk, count);
            for isa in all_isas() {
                assert_matches_reference(
                    d.bc * d.bk,
                    &format!("bwd_wt {isa:?} {d:?} x{count}"),
                    // SAFETY: for both kernels, each operand holds `count`
                    // panels of its dims; `dw` is one `bc × bk` panel.
                    |dw| unsafe { micro_ref::bwd_wt(isa, &x.ptrs(), &dy.ptrs(), dw, d) },
                    // SAFETY: as above.
                    |beta, dw| unsafe {
                        brgemm_bwd_wt(isa, x.panels(), dy.panels(), x.reduce(beta), dw, d)
                    },
                );
            }
        }
    }

    #[test]
    fn tiled_bwd_data_is_bitwise_the_untiled_kernel_under_every_mask() {
        for (d, count) in shapes() {
            let w = Operand::new(3, d.bc * d.bk, count);
            let dy = Operand::new(7, d.bn * d.bk, count);
            let len = d.bn * d.bc;
            // Strictly negative, exact zero and positive entries; everything
            // masked; nothing masked; no mask at all.
            let mixed: Vec<f32> = (0..len).map(|i| [-1.0, 0.0, 0.5][i % 3]).collect();
            let masks = [
                Some(mixed),
                Some(vec![-2.0; len]),
                Some(vec![1.0; len]),
                None,
            ];
            for isa in all_isas() {
                for (m, mask) in masks.iter().enumerate() {
                    let mask = mask.as_ref().map(|m| m.as_ptr());
                    assert_matches_reference(
                        len,
                        &format!("bwd_data {isa:?} {d:?} x{count} mask {m}"),
                        // SAFETY: for both kernels, each operand holds
                        // `count` panels of its dims; `dx` and the mask are
                        // one `bn × bc` panel each.
                        |dx| unsafe {
                            micro_ref::bwd_data(isa, &w.ptrs(), &dy.ptrs(), dx, mask, d)
                        },
                        // SAFETY: as above.
                        |beta, dx| unsafe {
                            brgemm_bwd_data(
                                isa,
                                w.panels(),
                                dy.panels(),
                                w.reduce(beta),
                                dx,
                                mask,
                                d,
                            )
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn overwrite_keeps_the_zero_sign_of_accumulating_into_zeros() {
        // Every product is -0.0; a zero-filled output accumulated into gives
        // +0.0, and so must β = 0.
        let d = PanelDims {
            bn: 5,
            bc: 6,
            bk: 16,
        };
        let w = Operand::new(4, d.bc * d.bk, 2);
        let mut dy = Operand::new(4, d.bn * d.bk, 2);
        dy.data.fill(-0.0);
        let x = Operand {
            data: vec![-0.0; (d.bn * d.bc + 5) * 2],
            ..Operand::new(0, d.bn * d.bc, 2)
        };
        for isa in all_isas() {
            let r = w.reduce(Beta::Zero);
            let mut dx = vec![f32::NAN; d.bn * d.bc];
            // SAFETY: here and below, the operands hold two panels of their
            // dims, and each output is one panel of its own.
            unsafe { brgemm_bwd_data(isa, w.panels(), dy.panels(), r, dx.as_mut_ptr(), None, d) };
            assert!(dx.iter().all(|v| v.to_bits() == 0), "bwd_data {isa:?}");
            let mut dw = vec![f32::NAN; d.bc * d.bk];
            // SAFETY: as above.
            unsafe { brgemm_bwd_wt(isa, x.panels(), dy.panels(), r, dw.as_mut_ptr(), d) };
            assert!(dw.iter().all(|v| v.to_bits() == 0), "bwd_wt {isa:?}");
            let mut y = vec![f32::NAN; d.bn * d.bk];
            // SAFETY: as above.
            unsafe { brgemm_fwd(isa, w.panels(), x.panels(), r, y.as_mut_ptr(), d) };
            assert!(y.iter().all(|v| v.to_bits() == 0), "fwd {isa:?}");
        }
    }

    #[test]
    fn all_isas_agree_with_scalar() {
        for (bn, bc, bk, count) in [(8, 32, 32, 4), (5, 16, 48, 3), (3, 5, 16, 2), (4, 8, 10, 2)] {
            let d = PanelDims { bn, bc, bk };
            let w = Operand::new(1, bc * bk, count);
            let x = Operand::new(99, bn * bc, count);
            let dy = Operand::new(7, bn * bk, count);
            let r = w.reduce(Beta::One);
            let run = |isa: Isa| {
                let (mut y, mut dx, mut dw) = (
                    vec![0.1f32; bn * bk],
                    vec![-0.2f32; bn * bc],
                    vec![0.0f32; bc * bk],
                );
                // SAFETY: each operand holds `count` panels of its dims;
                // `y`, `dx` and `dw` are one output panel each.
                unsafe {
                    brgemm_fwd(isa, w.panels(), x.panels(), r, y.as_mut_ptr(), d);
                    brgemm_bwd_data(isa, w.panels(), dy.panels(), r, dx.as_mut_ptr(), None, d);
                    brgemm_bwd_wt(isa, x.panels(), dy.panels(), r, dw.as_mut_ptr(), d);
                }
                (y, dx, dw)
            };
            let want = run(Isa::Scalar);
            for isa in all_isas() {
                let got = run(isa);
                dlrm_tensor::assert_allclose(&got.0, &want.0, 1e-4, &format!("fwd {isa:?} {d:?}"));
                dlrm_tensor::assert_allclose(&got.1, &want.1, 1e-4, &format!("bwd_d {isa:?}"));
                dlrm_tensor::assert_allclose(&got.2, &want.2, 1e-4, &format!("bwd_w {isa:?}"));
            }
        }
    }

    #[test]
    fn bwd_wt_bias_matches_unfused_and_flat_row_sums() {
        for (bn, bc, bk, count) in [(8, 32, 32, 4), (7, 5, 16, 3), (4, 8, 12, 2), (3, 5, 6, 2)] {
            let d = PanelDims { bn, bc, bk };
            let x = Operand::new(2, bn * bc, count);
            let dy = Operand::new(5, bn * bk, count);
            // Flat reference: db[rk] = ascending-n plain sum, like
            // bias_grad_rows on the unpacked [bk x (count*bn)] gradient.
            let mut db_ref = vec![0.0f32; bk];
            for (rk, o) in db_ref.iter_mut().enumerate() {
                for p in 0..count {
                    for r_n in 0..bn {
                        *o += dy.data[p * dy.stride + r_n * bk + rk];
                    }
                }
            }
            for isa in all_isas() {
                let r = x.reduce(Beta::Zero);
                let mut dw_want = vec![f32::NAN; bc * bk];
                // SAFETY: for both calls, each operand holds `count` panels of
                // its dims; `dw` is one `bc × bk` panel and `db` `bk` floats.
                unsafe { brgemm_bwd_wt(isa, x.panels(), dy.panels(), r, dw_want.as_mut_ptr(), d) };
                let mut dw_got = vec![f32::NAN; bc * bk];
                // 7.0, not 0.0: the fused kernel overwrites `db`.
                let mut db_got = vec![7.0f32; bk];
                // SAFETY: as above.
                unsafe {
                    brgemm_bwd_wt_bias(
                        isa,
                        x.panels(),
                        dy.panels(),
                        r,
                        dw_got.as_mut_ptr(),
                        db_got.as_mut_ptr(),
                        d,
                    )
                };
                assert_eq!(bits(&dw_got), bits(&dw_want), "fused dW {isa:?} {d:?}");
                assert_eq!(
                    bits(&db_got),
                    bits(&db_ref),
                    "fused db must be bitwise flat sum {isa:?} {d:?}"
                );
            }
        }
    }

    #[test]
    fn override_forces_tier() {
        let _tier = lock_isa_override();
        set_isa_override(Some(Isa::Scalar));
        assert_eq!(detect_isa(), Isa::Scalar);
        set_isa_override(None);
        let _ = detect_isa(); // whatever the CPU supports; just must not panic
    }

    #[test]
    fn batch_reduce_equals_sequential_accumulating_calls_bitwise() {
        // Reducing P panels in one call is the same chain as P one-panel
        // calls that accumulate: the partial sums round-trip through memory
        // exactly.
        let d = PanelDims {
            bn: 4,
            bc: 8,
            bk: 16,
        };
        let w = Operand::new(1, d.bc * d.bk, 5);
        let x = Operand::new(31, d.bn * d.bc, 5);
        for isa in all_isas() {
            let mut batched = vec![f32::NAN; d.bn * d.bk];
            let r = w.reduce(Beta::Zero);
            // SAFETY: both operands hold 5 panels of their dims; `batched`
            // is one `bn × bk` panel.
            unsafe { brgemm_fwd(isa, w.panels(), x.panels(), r, batched.as_mut_ptr(), d) };

            let mut seq = vec![0.0f32; d.bn * d.bk];
            let one = Reduce {
                count: 1,
                beta: Beta::One,
            };
            for p in 0..5 {
                // SAFETY: panel `p < 5` starts inside each operand.
                let (wp, xp) = unsafe {
                    (
                        w.panels().offset(p * w.stride),
                        x.panels().offset(p * x.stride),
                    )
                };
                // SAFETY: one panel from `p` on, into one output panel.
                unsafe { brgemm_fwd(isa, wp, xp, one, seq.as_mut_ptr(), d) };
            }
            assert_eq!(bits(&batched), bits(&seq), "{isa:?}");
        }
    }
}
