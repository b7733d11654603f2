//! Blocked 4-D tensor layouts of Algorithm 5 in the paper.
//!
//! A fully-connected layer computes `Y = W · X` with `W ∈ R^{K×C}`,
//! `X ∈ R^{C×N}`, `Y ∈ R^{K×N}`. Instead of flat row-major 2-D tensors, the
//! paper blocks every dimension:
//!
//! * weights: `W[Kb][Cb][bc][bk]` with `K = Kb·bk`, `C = Cb·bc`
//! * activations (and outputs): `X[Cb][Nb][bn][bc]`, `Y[Kb][Nb][bn][bk]`
//!
//! The innermost `[bn][bc]` / `[bc][bk]` panels are the operands of the
//! batch-reduce GEMM microkernel; blocking the leading dimensions avoids the
//! large power-of-two strides that cause TLB misses and cache-conflict
//! misses. Note the activation layout is the `[Cb][Nb][bn][bc]` variant the
//! paper chose (instead of `[Nb][Cb][bn][bc]` of prior work) because it makes
//! the backward-by-weights pass symmetric with the forward pass.
//!
//! Both are one structure, written once: [`Blocked`] over a [`PanelGrid`],
//! in the roles [`Weights`] and [`Activations`].

use crate::aligned::AlignedVec;
use crate::matrix::Matrix;
use crate::simd::{add_scaled_transposed, detect_isa, transpose, transpose_to, Isa};
use std::marker::PhantomData;

/// Blocking factors for one fully-connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Minibatch block size (`bn`).
    pub bn: usize,
    /// Input-feature block size (`bc`).
    pub bc: usize,
    /// Output-feature block size (`bk`).
    pub bk: usize,
}

impl Blocking {
    /// The default blocking used by the optimized MLP kernels: panels sized
    /// so that a `bn×bk` accumulator fits comfortably in registers/L1 and
    /// `bk` is a multiple of the 16-lane AVX-512 vector width.
    pub const DEFAULT: Blocking = Blocking {
        bn: 32,
        bc: 64,
        bk: 64,
    };

    /// Chooses a blocking that divides the given problem exactly, starting
    /// from [`Blocking::DEFAULT`] and shrinking each factor to the largest
    /// divisor of the corresponding dimension.
    pub fn for_shape(n: usize, c: usize, k: usize) -> Blocking {
        Blocking {
            bn: largest_divisor_at_most(n, Blocking::DEFAULT.bn),
            bc: largest_divisor_at_most(c, Blocking::DEFAULT.bc),
            bk: largest_divisor_at_most(k, Blocking::DEFAULT.bk),
        }
    }
}

/// Largest divisor of `n` that is `<= cap` (always >= 1 for n >= 1).
pub fn largest_divisor_at_most(n: usize, cap: usize) -> usize {
    assert!(n >= 1, "dimension must be positive");
    let mut best = 1;
    let mut d = 1;
    while d <= cap && d <= n {
        if n.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

/// Where the panels of a blocked tensor lie: a row-major `rows × cols`
/// matrix cut into a `gr × gc` grid of `wr × wc` windows, stored in
/// row-major grid order, each panel the *transpose* of its window (window
/// element `(r, c)` at `panel[c * wr + r]`). Weights are `K × C` in
/// `bk × bc` windows, activations `C × N` in `bc × bn` windows. The GEMM
/// passes and the SGD steps take every panel offset and stride from here.
/// Every crossing between the two is one [`crate::simd`] transpose per
/// panel: pack, [`BlockedWeights::add_scaled_rows`] and [`Self::unpack_panel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelGrid {
    /// Window rows.
    pub wr: usize,
    /// Window columns.
    pub wc: usize,
    /// Windows down the matrix.
    pub gr: usize,
    /// Windows across the matrix.
    pub gc: usize,
}

impl PanelGrid {
    /// The grid of a `rows × cols` matrix in `wr × wc` windows; panics
    /// unless `wr | rows` and `wc | cols`.
    pub fn new(rows: usize, cols: usize, wr: usize, wc: usize) -> Self {
        assert_eq!(rows % wr, 0, "block size {wr} must divide {rows} rows");
        assert_eq!(cols % wc, 0, "block size {wc} must divide {cols} columns");
        let (gr, gc) = (rows / wr, cols / wc);
        Self { wr, wc, gr, gc }
    }

    /// Matrix rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.gr * self.wr
    }

    /// Matrix columns: the leading dimension of the row-major side.
    #[inline]
    pub fn cols(&self) -> usize {
        self.gc * self.wc
    }

    /// Floats in a panel, which is also the stride from panel `(i, j)` to
    /// `(i, j + 1)`.
    #[inline]
    pub fn panel_len(&self) -> usize {
        self.wr * self.wc
    }

    /// Floats from panel `(i, j)` to panel `(i + 1, j)`.
    #[inline]
    pub fn down(&self) -> usize {
        self.gc * self.panel_len()
    }

    /// Number of panels.
    #[inline]
    pub fn panels(&self) -> usize {
        self.gr * self.gc
    }

    /// Grid position `(i, j)` of storage-order panel `idx`.
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        (idx / self.gc, idx % self.gc)
    }

    /// Storage offset of panel `(i, j)`.
    #[inline]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        (i * self.gc + j) * self.panel_len()
    }

    /// Row-major offset of window `(i, j)`: row `i·wr`, column `j·wc`.
    #[inline]
    pub fn window(&self, i: usize, j: usize) -> usize {
        i * self.wr * self.cols() + j * self.wc
    }

    /// Storage offset of matrix element `(r, c)`.
    #[inline]
    pub fn index_of(&self, r: usize, c: usize) -> usize {
        self.offset(r / self.wr, c / self.wc) + (c % self.wc) * self.wr + r % self.wr
    }

    /// Writes `panel`, storage-order panel `idx`, into its window of the
    /// row-major `rows() × cols()` matrix at `rows`, which a thread team may
    /// be filling a window per member.
    ///
    /// # Safety
    /// `rows` must be valid for writes over window `idx`, which must not
    /// alias `panel` nor be touched by another thread during the call.
    pub unsafe fn unpack_panel(&self, isa: Isa, idx: usize, panel: &[f32], rows: *mut f32) {
        let (i, j) = self.coords(idx);
        let window = rows.add(self.window(i, j));
        transpose_to(isa, panel, self.wr, self.wc, self.wr, window, self.cols());
    }
}

/// A blocked tensor: a [`PanelGrid`] over 64-byte-aligned storage. The role
/// `R` names the dimensions, and keeps a GEMM from taking an activation
/// where a weight belongs.
pub struct Blocked<R> {
    data: AlignedVec,
    grid: PanelGrid,
    role: PhantomData<R>,
}

/// The weights role: `W[Kb][Cb][bc][bk]`, a `K × C` matrix in `bk × bc`
/// windows. Its getters `k()`, `c()`, `bk()`, `bc()`, `kb()` and `cb()`
/// name those dimensions.
pub enum Weights {}

/// The activations role: `X[Cb][Nb][bn][bc]`, a `C × N` matrix in
/// `bc × bn` windows, with getters `c()`, `n()`, `bc()`, `bn()`, `cb()` and
/// `nb()`. Outputs `Y[Kb][Nb][bn][bk]` take it with `(k, bk)` for `(c, bc)`.
pub enum Activations {}

/// Weight tensor in `[Kb][Cb][bc][bk]` layout.
pub type BlockedWeights = Blocked<Weights>;

/// Activation tensor in `[Cb][Nb][bn][bc]` layout (logical shape `C×N`).
pub type BlockedActivations = Blocked<Activations>;

impl<R> Blocked<R> {
    fn zeroed(grid: PanelGrid) -> Self {
        let (data, role) = (AlignedVec::zeroed(grid.rows() * grid.cols()), PhantomData);
        Self { data, grid, role }
    }

    /// Re-sizes to `grid` with [`AlignedVec::resize_scratch`] semantics:
    /// contents unspecified until a pack or a GEMM pass overwrites them.
    fn reshape(&mut self, grid: PanelGrid) {
        self.data.resize_scratch(grid.rows() * grid.cols());
        self.grid = grid;
    }

    /// Writes the row-major `m` into the (already shaped) storage.
    fn pack_from(&mut self, m: &Matrix) {
        let g = self.grid;
        assert_eq!((g.rows(), g.cols()), m.shape(), "pack shape mismatch");
        let isa = detect_isa();
        for (idx, panel) in self.data.chunks_exact_mut(g.panel_len()).enumerate() {
            let (i, j) = g.coords(idx);
            let window = &m.as_slice()[g.window(i, j)..];
            transpose(isa, window, g.cols(), g.wr, g.wc, panel, g.wr);
        }
    }

    /// Writes the tensor into the row-major `rows·cols` slice `out`.
    fn unpack_to(&self, out: &mut [f32]) {
        let g = self.grid;
        assert_eq!(out.len(), g.rows() * g.cols(), "unpack length mismatch");
        let isa = detect_isa();
        for (idx, panel) in self.data.chunks_exact(g.panel_len()).enumerate() {
            // SAFETY: `out` holds the whole `rows × cols` matrix (asserted
            // above), so every window lies inside it; it is borrowed
            // mutably, so it aliases no panel and no other thread writes it.
            unsafe { g.unpack_panel(isa, idx, panel, out.as_mut_ptr()) };
        }
    }

    /// The layout: every panel offset and stride.
    pub fn grid(&self) -> PanelGrid {
        self.grid
    }

    /// Allocated capacity in bytes (for scratch accounting).
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Unpacks back to a row-major matrix.
    pub fn unpack(&self) -> Matrix {
        let mut m = Matrix::zeros(self.grid.rows(), self.grid.cols());
        self.unpack_to(m.as_mut_slice());
        m
    }

    /// Unpacks into an existing row-major matrix (no allocation).
    pub fn unpack_into(&self, out: &mut Matrix) {
        let shape = (self.grid.rows(), self.grid.cols());
        assert_eq!(shape, out.shape(), "unpack_into shape mismatch");
        self.unpack_to(out.as_mut_slice());
    }

    /// Flat offset of matrix element `(r, c)`: `W[k][c]` or `X[c][n]`.
    pub fn index_of(&self, r: usize, c: usize) -> usize {
        self.grid.index_of(r, c)
    }

    /// Borrow of panel `(i, j)`: `[bc][bk]` for weights, `[bn][bc]` for
    /// activations.
    pub fn block(&self, i: usize, j: usize) -> &[f32] {
        &self.data[self.grid.offset(i, j)..][..self.grid.panel_len()]
    }

    /// Raw pointer to panel `(i, j)`: the first of a batch that a GEMM pass
    /// walks at [`PanelGrid::down`] or [`PanelGrid::panel_len`].
    pub fn block_ptr(&self, i: usize, j: usize) -> *const f32 {
        self.block(i, j).as_ptr()
    }

    /// Full backing storage (block-major order).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable full backing storage (block-major order).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// A role's names for its grid's dimensions, one getter each.
macro_rules! dims {
    ($role:ty, $g:ident: $($name:ident = $e:expr),*) => {
        impl Blocked<$role> {
            $(#[inline] pub fn $name(&self) -> usize { let $g = self.grid; $e })*
        }
    };
}

dims!(Weights, g: k = g.rows(), c = g.cols(), bk = g.wr, bc = g.wc, kb = g.gr, cb = g.gc);
dims!(Activations, g: c = g.rows(), n = g.cols(), bc = g.wr, bn = g.wc, cb = g.gr, nb = g.gc);

impl Blocked<Weights> {
    /// Zero-initialized `k×c` weights; panics unless `bk | k` and `bc | c`
    /// (`bn` is not part of the layout).
    pub fn zeros(k: usize, c: usize, blk: Blocking) -> Self {
        Self::zeroed(PanelGrid::new(k, c, blk.bk, blk.bc))
    }

    /// Packs a row-major `K×C` matrix into blocked layout.
    pub fn pack(w: &Matrix, blk: Blocking) -> Self {
        let mut out = Self::zeros(w.rows(), w.cols(), blk);
        out.pack_from(w);
        out
    }

    /// [`Self::pack`] into this tensor's storage, re-sized with scratch
    /// semantics. The Reference tier packs each layer's `dW` this way, into
    /// the same buffer each step.
    pub fn pack_into(&mut self, w: &Matrix, blk: Blocking) {
        self.reshape_scratch(w.rows(), w.cols(), blk);
        self.pack_from(w);
    }

    /// Re-sizes to `k×c` under `blk` with scratch semantics, contents
    /// unspecified.
    pub fn reshape_scratch(&mut self, k: usize, c: usize, blk: Blocking) {
        self.reshape(PanelGrid::new(k, c, blk.bk, blk.bc));
    }

    /// Unpacks into a row-major `K·C` slice — any window of a larger
    /// buffer, e.g. a layer's span of a flat DDP gradient.
    pub fn unpack_into_slice(&self, out: &mut [f32]) {
        self.unpack_to(out);
    }

    /// `W += alpha · G` on a run of whole panels, for a row-major `K×C`
    /// gradient `g`: each panel takes its window of `g` through
    /// [`add_scaled_transposed`]. `panels` is the storage of consecutive
    /// panels starting at storage-order panel `first` of a tensor laid out
    /// by `grid` — raw parts, not `&mut self`, so a thread team can update
    /// disjoint runs of one tensor at once.
    ///
    /// Separate multiply then add (no FMA contraction), so every element
    /// sees exactly the arithmetic of `w += alpha * g` on row-major `W`: the
    /// update is an elementwise permutation of the flat step and bitwise
    /// identical to it, on every ISA tier.
    pub fn add_scaled_rows(
        panels: &mut [f32],
        first: usize,
        grid: PanelGrid,
        g: &[f32],
        alpha: f32,
    ) {
        assert_eq!(g.len(), grid.rows() * grid.cols(), "add_scaled_rows length");
        let (isa, ld, wr, wc) = (detect_isa(), grid.cols(), grid.wr, grid.wc);
        for (idx, panel) in panels.chunks_exact_mut(grid.panel_len()).enumerate() {
            let (i, j) = grid.coords(first + idx);
            add_scaled_transposed(isa, &g[grid.window(i, j)..], ld, wr, wc, alpha, panel, wr);
        }
    }
}

impl Blocked<Activations> {
    /// Zero-initialized `c×n` activations; panics unless `bc | c` and
    /// `bn | n`.
    pub fn zeros(c: usize, n: usize, bc: usize, bn: usize) -> Self {
        Self::zeroed(PanelGrid::new(c, n, bc, bn))
    }

    /// Packs a row-major `C×N` matrix into blocked layout.
    pub fn pack(x: &Matrix, bc: usize, bn: usize) -> Self {
        let mut out = Self::zeros(x.rows(), x.cols(), bc, bn);
        out.pack_from(x);
        out
    }

    /// [`Self::pack`] into this tensor's storage, re-sized with scratch
    /// semantics: the allocation-free counterpart of [`Self::pack`].
    pub fn pack_into(&mut self, x: &Matrix, bc: usize, bn: usize) {
        self.reshape_scratch(x.rows(), x.cols(), bc, bn);
        self.pack_from(x);
    }

    /// Re-sizes to `c×n` under `(bc, bn)` with scratch semantics, contents
    /// unspecified.
    pub fn reshape_scratch(&mut self, c: usize, n: usize, bc: usize, bn: usize) {
        self.reshape(PanelGrid::new(c, n, bc, bn));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{available_isas, lock_isa_override, set_isa_override};

    #[test]
    fn divisor_helper() {
        assert_eq!(largest_divisor_at_most(1024, 64), 64);
        assert_eq!(largest_divisor_at_most(100, 64), 50);
        assert_eq!(largest_divisor_at_most(7, 4), 1);
        assert_eq!(largest_divisor_at_most(6, 6), 6);
    }

    #[test]
    fn blocking_for_shape_divides() {
        let b = Blocking::for_shape(1008, 1024, 4096);
        assert_eq!(1008 % b.bn, 0);
        assert_eq!(1024 % b.bc, 0);
        assert_eq!(4096 % b.bk, 0);
        assert!(b.bn <= 32 && b.bc <= 64 && b.bk <= 64);
    }

    #[test]
    fn weights_pack_unpack_round_trip() {
        let w = Matrix::from_fn(8, 12, |r, c| (r * 100 + c) as f32);
        let blk = Blocking {
            bn: 2,
            bc: 4,
            bk: 4,
        };
        let bw = BlockedWeights::pack(&w, blk);
        assert_eq!(bw.kb(), 2);
        assert_eq!(bw.cb(), 3);
        assert_eq!(bw.unpack().as_slice(), w.as_slice());
    }

    #[test]
    fn weights_block_contents() {
        let w = Matrix::from_fn(4, 4, |r, c| (r * 10 + c) as f32);
        let blk = Blocking {
            bn: 1,
            bc: 2,
            bk: 2,
        };
        let bw = BlockedWeights::pack(&w, blk);
        // Block (ibk=1, ibc=0) covers k in {2,3}, c in {0,1}; layout [bc][bk].
        let b = bw.block(1, 0);
        assert_eq!(b, &[20.0, 30.0, 21.0, 31.0]);
    }

    #[test]
    fn activations_pack_unpack_round_trip() {
        let x = Matrix::from_fn(6, 8, |r, c| (r * 1000 + c) as f32);
        let ba = BlockedActivations::pack(&x, 3, 4);
        assert_eq!(ba.cb(), 2);
        assert_eq!(ba.nb(), 2);
        assert_eq!(ba.unpack().as_slice(), x.as_slice());
    }

    #[test]
    fn activations_block_contents() {
        let x = Matrix::from_fn(4, 4, |r, c| (r * 10 + c) as f32);
        let ba = BlockedActivations::pack(&x, 2, 2);
        // Block (ibc=0, ibn=1) covers c in {0,1}, n in {2,3}; layout [bn][bc].
        let b = ba.block(0, 1);
        assert_eq!(b, &[2.0, 12.0, 3.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn weights_reject_non_dividing_blocking() {
        let _ = BlockedWeights::zeros(
            10,
            10,
            Blocking {
                bn: 1,
                bc: 3,
                bk: 2,
            },
        );
    }

    #[test]
    fn pack_into_reuses_capacity_and_matches_pack() {
        let blk = Blocking {
            bn: 2,
            bc: 4,
            bk: 4,
        };
        let big = Matrix::from_fn(8, 12, |r, c| (r * 100 + c) as f32);
        let small = Matrix::from_fn(4, 8, |r, c| (r * 7 + c) as f32);
        let mut bw = BlockedWeights::pack(&big, blk);
        let p = bw.as_slice().as_ptr();
        bw.pack_into(&small, blk);
        assert_eq!(bw.as_slice().as_ptr(), p, "shrinking repack must reuse");
        assert_eq!(
            bw.as_slice(),
            BlockedWeights::pack(&small, blk).as_slice(),
            "in-place pack must match from-scratch pack bitwise"
        );
        let mut out = Matrix::zeros(4, 8);
        bw.unpack_into(&mut out);
        assert_eq!(out.as_slice(), small.as_slice());
    }

    #[test]
    fn activations_pack_into_matches_pack() {
        let big = Matrix::from_fn(6, 8, |r, c| (r * 31 + c) as f32);
        let small = Matrix::from_fn(3, 4, |r, c| (r + c * 5) as f32);
        let mut ba = BlockedActivations::pack(&big, 3, 4);
        let p = ba.as_slice().as_ptr();
        ba.pack_into(&small, 3, 2);
        assert_eq!(ba.as_slice().as_ptr(), p, "shrinking repack must reuse");
        assert_eq!(
            ba.as_slice(),
            BlockedActivations::pack(&small, 3, 2).as_slice()
        );
        let mut out = Matrix::zeros(3, 4);
        ba.unpack_into(&mut out);
        assert_eq!(out.as_slice(), small.as_slice());
    }

    /// On every forced tier, over a square-panel blocking and the logit
    /// head's one-row windows (`K = 1`, `bk = 1`).
    #[test]
    fn add_scaled_rows_matches_flat_sgd_bitwise() {
        let _tier = lock_isa_override();
        for (k, bk) in [(8, 4), (1, 1)] {
            let blk = Blocking { bn: 2, bc: 4, bk };
            let w = Matrix::from_fn(k, 12, |r, c| (r as f32 + 0.37) * 1.1 - c as f32 * 0.013);
            let g = Matrix::from_fn(k, 12, |r, c| (c as f32 - 3.7) * 0.31 + r as f32 * 0.07);
            let alpha = -0.05_f32;
            // Flat reference: w += alpha * g, separate mul-then-add per element.
            let mut flat = w.clone();
            for (wv, gv) in flat.as_mut_slice().iter_mut().zip(g.as_slice()) {
                let p = alpha * gv;
                *wv += p;
            }
            for isa in available_isas() {
                set_isa_override(Some(isa));
                // Two disjoint runs of panels, as a team of two would split them.
                let mut bw = BlockedWeights::pack(&w, blk);
                let grid = bw.grid();
                let (head, tail) = bw.as_mut_slice().split_at_mut(2 * grid.panel_len());
                BlockedWeights::add_scaled_rows(tail, 2, grid, g.as_slice(), alpha);
                BlockedWeights::add_scaled_rows(head, 0, grid, g.as_slice(), alpha);
                let at = format!("{isa:?} {k}x12 {blk:?}");
                assert_eq!(bits(bw.unpack().as_slice()), bits(flat.as_slice()), "{at}");
            }
            set_isa_override(None);
        }
    }

    fn bits(s: &[f32]) -> Vec<u32> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    /// Panel-wise pack/unpack against the per-element `index_of` definition
    /// of the layout, on every forced tier, over block sizes that do and do
    /// not fill a SIMD vector and shapes that are not square (one-row
    /// windows, the logit head's, included).
    #[test]
    fn panel_walks_match_index_of_bitwise() {
        let _tier = lock_isa_override();
        for isa in available_isas() {
            set_isa_override(Some(isa));
            panel_walks_match_index_of(isa);
        }
        set_isa_override(None);
    }

    fn panel_walks_match_index_of(isa: Isa) {
        // Distinct, sign-mixed, non-integer bit patterns.
        let value = |r: usize, c: usize| ((r * 131 + c * 7) as f32 * 0.37).sin() * 3.0 - 0.5;
        for bc in [1usize, 37, 50, 64] {
            for bn in [1usize, 8, 32] {
                for (cb, nb) in [(1usize, 3usize), (3, 1), (2, 5)] {
                    let (c, n) = (cb * bc, nb * bn);
                    let x = Matrix::from_fn(c, n, value);
                    let ba = BlockedActivations::pack(&x, bc, bn);
                    for cc in 0..c {
                        for nn in 0..n {
                            assert_eq!(
                                ba.as_slice()[ba.index_of(cc, nn)].to_bits(),
                                x[(cc, nn)].to_bits(),
                                "{isa:?} activations bc={bc} bn={bn} {c}x{n} at ({cc},{nn})"
                            );
                        }
                    }
                    assert_eq!(bits(ba.unpack().as_slice()), bits(x.as_slice()));

                    // The same factors as a weight blocking, both ways round
                    // (window rows are `bk` here, `bc` above).
                    for (blk, k, c) in [
                        (Blocking { bn: 1, bc, bk: bn }, n, c),
                        (
                            Blocking {
                                bn: 1,
                                bc: bn,
                                bk: bc,
                            },
                            c,
                            n,
                        ),
                    ] {
                        let w = Matrix::from_fn(k, c, value);
                        let bw = BlockedWeights::pack(&w, blk);
                        for kk in 0..k {
                            for cc in 0..c {
                                assert_eq!(
                                    bw.as_slice()[bw.index_of(kk, cc)].to_bits(),
                                    w[(kk, cc)].to_bits(),
                                    "{isa:?} weights {blk:?} {k}x{c} at ({kk},{cc})"
                                );
                            }
                        }
                        assert_eq!(bits(bw.unpack().as_slice()), bits(w.as_slice()));
                        let mut window = vec![f32::NAN; k * c];
                        bw.unpack_into_slice(&mut window);
                        assert_eq!(bits(&window), bits(w.as_slice()));
                    }
                }
            }
        }
    }

    #[test]
    fn index_of_consistent_with_block_slices() {
        let blk = Blocking {
            bn: 2,
            bc: 4,
            bk: 8,
        };
        let bw = BlockedWeights::zeros(16, 8, blk);
        // element (k=9, c=5) lives in block (ibk=1, ibc=1) at [rc=1][rk=1]
        let flat = bw.index_of(9, 5);
        let block_start = (bw.cb() + 1) * blk.bc * blk.bk;
        assert_eq!(flat, block_start + blk.bk + 1);
    }
}
