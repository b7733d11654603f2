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

use crate::aligned::AlignedVec;
use crate::matrix::Matrix;

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

/// Both blocked layouts store a panel as the *transpose* of its window of
/// the row-major tensor: window element `(r, c)` of a `rows × cols` window
/// with leading dimension `ld` lives at `panel[c * rows + r]`. For weights
/// the window is `bk × bc` of `W`; for activations `bc × bn` of `X`.
///
/// The three walks below are the only code that crosses between the two
/// layouts. Each takes [`ROW_GROUP`] window rows at a time, so the
/// row-major side is read or written as that many unit-stride streams, the
/// panel side in runs of as many contiguous floats, and everything strided
/// stays inside one panel (16 KB at the default blocking, L1-resident). A
/// per-element `index_of` costs two divisions and two remainders, and a
/// walk in panel order strides the row-major side by `ld` floats, which at
/// `ld = 1024` lands a whole panel column in one L1 set.
const ROW_GROUP: usize = 4;

/// Runs `walk::<R>(args…, r0)` over the window rows `0..rows`: full
/// [`ROW_GROUP`]s first, then the remaining rows one at a time.
macro_rules! in_row_groups {
    ($rows:expr, $walk:ident($($arg:expr),*)) => {{
        let mut r0 = 0;
        while r0 + ROW_GROUP <= $rows {
            $walk::<ROW_GROUP>($($arg),*, r0);
            r0 += ROW_GROUP;
        }
        while r0 < $rows {
            $walk::<1>($($arg),*, r0);
            r0 += 1;
        }
    }};
}

/// Row-major offset of the window of storage-order panel `idx`, for a
/// tensor whose rows hold `per_row` windows of `rows × cols` each.
#[inline]
fn window_start(idx: usize, per_row: usize, rows: usize, cols: usize, ld: usize) -> usize {
    (idx / per_row) * rows * ld + (idx % per_row) * cols
}

/// `R` window rows from row `r0` on, `cols` long each.
#[inline(always)]
fn window_rows<const R: usize>(window: &[f32], ld: usize, cols: usize, r0: usize) -> [&[f32]; R] {
    std::array::from_fn(|i| &window[(r0 + i) * ld..][..cols])
}

/// Window rows `r0..r0 + R` → panel.
#[inline(always)]
fn pack_rows<const R: usize>(
    panel: &mut [f32],
    rows: usize,
    cols: usize,
    src: &[f32],
    ld: usize,
    r0: usize,
) {
    let src = window_rows::<R>(src, ld, cols, r0);
    for (c, col) in panel.chunks_exact_mut(rows).enumerate() {
        for (p, row) in col[r0..r0 + R].iter_mut().zip(src) {
            *p = row[c];
        }
    }
}

/// Panel → window rows `r0..r0 + R`.
#[inline(always)]
fn unpack_rows<const R: usize>(
    panel: &[f32],
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    ld: usize,
    r0: usize,
) {
    // `chunks_mut`, not `chunks_exact_mut`: the window's last row may end
    // before a full `ld`.
    let mut rows_from_r0 = dst[r0 * ld..].chunks_mut(ld);
    let mut dst: [&mut [f32]; R] =
        std::array::from_fn(|_| &mut rows_from_r0.next().expect("window row in bounds")[..cols]);
    for (c, col) in panel.chunks_exact(rows).enumerate() {
        for (row, &p) in dst.iter_mut().zip(&col[r0..r0 + R]) {
            row[c] = p;
        }
    }
}

/// `panel += alpha · window` on window rows `r0..r0 + R`: multiply, then
/// add (two roundings, no FMA contraction).
#[inline(always)]
fn axpy_rows<const R: usize>(
    panel: &mut [f32],
    rows: usize,
    cols: usize,
    g: &[f32],
    ld: usize,
    alpha: f32,
    r0: usize,
) {
    let g = window_rows::<R>(g, ld, cols, r0);
    for (c, col) in panel.chunks_exact_mut(rows).enumerate() {
        for (w, row) in col[r0..r0 + R].iter_mut().zip(g) {
            let p = alpha * row[c];
            *w += p;
        }
    }
}

/// Weight tensor in `[Kb][Cb][bc][bk]` layout.
pub struct BlockedWeights {
    data: AlignedVec,
    /// Output features.
    pub k: usize,
    /// Input features.
    pub c: usize,
    /// Blocking factors (`bn` unused here).
    pub blk: Blocking,
}

impl BlockedWeights {
    /// Number of K blocks.
    #[inline]
    pub fn kb(&self) -> usize {
        self.k / self.blk.bk
    }

    /// Number of C blocks.
    #[inline]
    pub fn cb(&self) -> usize {
        self.c / self.blk.bc
    }

    /// Zero-initialized blocked weight tensor.
    ///
    /// # Panics
    /// Panics unless `bk | k` and `bc | c`.
    pub fn zeros(k: usize, c: usize, blk: Blocking) -> Self {
        assert_eq!(k % blk.bk, 0, "bk must divide K");
        assert_eq!(c % blk.bc, 0, "bc must divide C");
        Self {
            data: AlignedVec::zeroed(k * c),
            k,
            c,
            blk,
        }
    }

    /// Packs a row-major `K×C` matrix into blocked layout.
    pub fn pack(w: &Matrix, blk: Blocking) -> Self {
        let (k, c) = w.shape();
        let mut out = Self::zeros(k, c, blk);
        out.pack_from(w);
        out
    }

    /// Re-sizes this tensor to `k×c` under `blk` with *scratch* semantics
    /// (the backing allocation is reused whenever its capacity suffices; see
    /// [`AlignedVec::resize_scratch`]) and packs `w` into it. The Reference
    /// tier packs each layer's `dW` this way, into the same buffer each step.
    pub fn pack_into(&mut self, w: &Matrix, blk: Blocking) {
        let (k, c) = w.shape();
        self.reshape_scratch(k, c, blk);
        self.pack_from(w);
    }

    /// Writes every element of `w` into the (already correctly shaped)
    /// blocked storage. Fully overwrites the buffer, so unspecified contents
    /// after a growing `resize_scratch` are fine.
    fn pack_from(&mut self, w: &Matrix) {
        assert_eq!((self.k, self.c), w.shape(), "pack_from shape mismatch");
        let Blocking { bc, bk, .. } = self.blk;
        let (cb, c) = (self.cb(), self.c);
        let flat = w.as_slice();
        for (idx, panel) in self.data.chunks_exact_mut(bc * bk).enumerate() {
            let start = window_start(idx, cb, bk, bc, c);
            in_row_groups!(bk, pack_rows(panel, bk, bc, &flat[start..], c));
        }
    }

    /// Re-sizes to `k×c` under `blk` with scratch semantics, leaving the
    /// contents unspecified (callers must fully overwrite before reading —
    /// which every blocked GEMM pass does to its output).
    pub fn reshape_scratch(&mut self, k: usize, c: usize, blk: Blocking) {
        assert_eq!(k % blk.bk, 0, "bk must divide K");
        assert_eq!(c % blk.bc, 0, "bc must divide C");
        self.data.resize_scratch(k * c);
        self.k = k;
        self.c = c;
        self.blk = blk;
    }

    /// Allocated capacity in bytes (for scratch accounting).
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Unpacks back to a row-major `K×C` matrix.
    pub fn unpack(&self) -> Matrix {
        let mut m = Matrix::zeros(self.k, self.c);
        self.unpack_into(&mut m);
        m
    }

    /// Unpacks into an existing `K×C` matrix (no allocation).
    pub fn unpack_into(&self, out: &mut Matrix) {
        assert_eq!((self.k, self.c), out.shape(), "unpack_into shape mismatch");
        self.unpack_into_slice(out.as_mut_slice());
    }

    /// Unpacks into a row-major `K·C` slice — any window of a larger
    /// buffer, e.g. a layer's span of a flat DDP gradient.
    pub fn unpack_into_slice(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.k * self.c, "unpack_into_slice length");
        let Blocking { bc, bk, .. } = self.blk;
        let (cb, c) = (self.cb(), self.c);
        for (idx, panel) in self.data.chunks_exact(bc * bk).enumerate() {
            let start = window_start(idx, cb, bk, bc, c);
            in_row_groups!(bk, unpack_rows(panel, bk, bc, &mut out[start..], c));
        }
    }

    /// Number of `[bc][bk]` panels (`Kb·Cb`), in storage order.
    #[inline]
    pub fn num_panels(&self) -> usize {
        self.kb() * self.cb()
    }

    /// `W += alpha · G` on a run of whole panels, for a row-major `K×C`
    /// gradient `g`: unit-stride reads of each gradient row, writes inside
    /// one panel. `panels` is the storage of consecutive panels starting at
    /// storage-order panel `first` of a tensor with `c` input features under
    /// `blk` — raw parts, not `&mut self`, so a thread team can update
    /// disjoint runs of one tensor at once.
    ///
    /// Separate multiply then add (no FMA contraction), so every element
    /// sees exactly the arithmetic of `w += alpha * g` on row-major `W`: the
    /// update is an elementwise permutation of the flat step and bitwise
    /// identical to it.
    pub fn add_scaled_rows(
        panels: &mut [f32],
        first: usize,
        blk: Blocking,
        c: usize,
        g: &[f32],
        alpha: f32,
    ) {
        let Blocking { bc, bk, .. } = blk;
        let cb = c / bc;
        for (idx, panel) in panels.chunks_exact_mut(bc * bk).enumerate() {
            let window = &g[window_start(first + idx, cb, bk, bc, c)..];
            in_row_groups!(bk, axpy_rows(panel, bk, bc, window, c, alpha));
        }
    }

    /// Flat offset of logical element `W[k][c]`.
    ///
    /// Layout: `[Kb][Cb][bc][bk]` — within a block, `bc` is the slow axis and
    /// `bk` the contiguous one, so the microkernel's B-broadcast/A-vector
    /// FMA reads unit-stride along `bk`.
    #[inline]
    pub fn index_of(&self, k: usize, c: usize) -> usize {
        let Blocking { bc, bk, .. } = self.blk;
        let (ibk, rk) = (k / bk, k % bk);
        let (ibc, rc) = (c / bc, c % bc);
        ((ibk * self.cb() + ibc) * bc + rc) * bk + rk
    }

    /// Borrow of the `(ibk, ibc)` panel: `bc·bk` floats, `[bc][bk]` row-major.
    #[inline]
    pub fn block(&self, ibk: usize, ibc: usize) -> &[f32] {
        let Blocking { bc, bk, .. } = self.blk;
        let start = (ibk * self.cb() + ibc) * bc * bk;
        &self.data[start..start + bc * bk]
    }

    /// Mutable borrow of the `(ibk, ibc)` panel.
    #[inline]
    pub fn block_mut(&mut self, ibk: usize, ibc: usize) -> &mut [f32] {
        let Blocking { bc, bk, .. } = self.blk;
        let start = (ibk * self.cb() + ibc) * bc * bk;
        &mut self.data[start..start + bc * bk]
    }

    /// Full backing storage (block-major order).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable full backing storage (block-major order).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Activation tensor in `[Cb][Nb][bn][bc]` layout (logical shape `C×N`).
///
/// Also used for outputs, which are `[Kb][Nb][bn][bk]`: identical structure
/// with `(k, bk)` in place of `(c, bc)`.
pub struct BlockedActivations {
    data: AlignedVec,
    /// Feature dimension (C for inputs, K for outputs).
    pub c: usize,
    /// Minibatch dimension.
    pub n: usize,
    /// Feature block size (`bc` for inputs, `bk` for outputs).
    pub bc: usize,
    /// Minibatch block size.
    pub bn: usize,
}

impl BlockedActivations {
    /// Number of feature blocks.
    #[inline]
    pub fn cb(&self) -> usize {
        self.c / self.bc
    }

    /// Number of minibatch blocks.
    #[inline]
    pub fn nb(&self) -> usize {
        self.n / self.bn
    }

    /// Zero-initialized blocked activation tensor.
    ///
    /// # Panics
    /// Panics unless `bc | c` and `bn | n`.
    pub fn zeros(c: usize, n: usize, bc: usize, bn: usize) -> Self {
        assert_eq!(c % bc, 0, "bc must divide C");
        assert_eq!(n % bn, 0, "bn must divide N");
        Self {
            data: AlignedVec::zeroed(c * n),
            c,
            n,
            bc,
            bn,
        }
    }

    /// Packs a row-major `C×N` matrix into blocked layout.
    pub fn pack(x: &Matrix, bc: usize, bn: usize) -> Self {
        let (c, n) = x.shape();
        let mut out = Self::zeros(c, n, bc, bn);
        out.pack_from(x);
        out
    }

    /// Re-sizes this tensor to `c×n` under `(bc, bn)` with *scratch*
    /// semantics (allocation reused when capacity suffices) and packs `x`
    /// into it — the allocation-free counterpart of [`Self::pack`].
    pub fn pack_into(&mut self, x: &Matrix, bc: usize, bn: usize) {
        let (c, n) = x.shape();
        self.reshape_scratch(c, n, bc, bn);
        self.pack_from(x);
    }

    /// Writes every element of `x` into the (already correctly shaped)
    /// blocked storage.
    fn pack_from(&mut self, x: &Matrix) {
        assert_eq!((self.c, self.n), x.shape(), "pack_from shape mismatch");
        let (bc, bn, nb, n) = (self.bc, self.bn, self.nb(), self.n);
        let flat = x.as_slice();
        for (idx, panel) in self.data.chunks_exact_mut(bn * bc).enumerate() {
            let start = window_start(idx, nb, bc, bn, n);
            in_row_groups!(bc, pack_rows(panel, bc, bn, &flat[start..], n));
        }
    }

    /// Re-sizes to `c×n` under `(bc, bn)` with scratch semantics, contents
    /// unspecified (callers must fully overwrite before reading — which
    /// every blocked GEMM pass does to its output).
    pub fn reshape_scratch(&mut self, c: usize, n: usize, bc: usize, bn: usize) {
        assert_eq!(c % bc, 0, "bc must divide C");
        assert_eq!(n % bn, 0, "bn must divide N");
        self.data.resize_scratch(c * n);
        self.c = c;
        self.n = n;
        self.bc = bc;
        self.bn = bn;
    }

    /// Allocated capacity in bytes (for scratch accounting).
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Unpacks back to a row-major `C×N` matrix.
    pub fn unpack(&self) -> Matrix {
        let mut m = Matrix::zeros(self.c, self.n);
        self.unpack_into(&mut m);
        m
    }

    /// Unpacks into an existing `C×N` matrix (no allocation).
    pub fn unpack_into(&self, out: &mut Matrix) {
        assert_eq!((self.c, self.n), out.shape(), "unpack_into shape mismatch");
        let (bc, bn, nb, n) = (self.bc, self.bn, self.nb(), self.n);
        let flat = out.as_mut_slice();
        for (idx, panel) in self.data.chunks_exact(bn * bc).enumerate() {
            let start = window_start(idx, nb, bc, bn, n);
            in_row_groups!(bc, unpack_rows(panel, bc, bn, &mut flat[start..], n));
        }
    }

    /// Flat offset of logical element `X[c][n]`.
    #[inline]
    pub fn index_of(&self, c: usize, n: usize) -> usize {
        let (ibc, rc) = (c / self.bc, c % self.bc);
        let (ibn, rn) = (n / self.bn, n % self.bn);
        ((ibc * self.nb() + ibn) * self.bn + rn) * self.bc + rc
    }

    /// Borrow of the `(ibc, ibn)` panel: `bn·bc` floats, `[bn][bc]` row-major.
    #[inline]
    pub fn block(&self, ibc: usize, ibn: usize) -> &[f32] {
        let start = (ibc * self.nb() + ibn) * self.bn * self.bc;
        &self.data[start..start + self.bn * self.bc]
    }

    /// Mutable borrow of the `(ibc, ibn)` panel.
    #[inline]
    pub fn block_mut(&mut self, ibc: usize, ibn: usize) -> &mut [f32] {
        let start = (ibc * self.nb() + ibn) * self.bn * self.bc;
        &mut self.data[start..start + self.bn * self.bc]
    }

    /// Raw pointer to the `(ibc, ibn)` panel — used by the multithreaded
    /// kernels that partition panels across a thread team.
    #[inline]
    pub fn block_ptr(&self, ibc: usize, ibn: usize) -> *const f32 {
        self.block(ibc, ibn).as_ptr()
    }

    /// Full backing storage (block-major order).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable full backing storage (block-major order).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn add_scaled_rows_matches_flat_sgd_bitwise() {
        let blk = Blocking {
            bn: 2,
            bc: 4,
            bk: 4,
        };
        let w = Matrix::from_fn(8, 12, |r, c| (r as f32 + 0.37) * 1.1 - c as f32 * 0.013);
        let g = Matrix::from_fn(8, 12, |r, c| (c as f32 - 3.7) * 0.31 + r as f32 * 0.07);
        let alpha = -0.05_f32;
        // Two disjoint runs of panels, as a team of two would split them.
        let mut bw = BlockedWeights::pack(&w, blk);
        let (head, tail) = bw.as_mut_slice().split_at_mut(2 * 16);
        BlockedWeights::add_scaled_rows(tail, 2, blk, 12, g.as_slice(), alpha);
        BlockedWeights::add_scaled_rows(head, 0, blk, 12, g.as_slice(), alpha);
        // Flat reference: w += alpha * g, separate mul-then-add per element.
        let mut flat = w.clone();
        for (wv, gv) in flat.as_mut_slice().iter_mut().zip(g.as_slice()) {
            let p = alpha * gv;
            *wv += p;
        }
        assert_eq!(bits(bw.unpack().as_slice()), bits(flat.as_slice()));
    }

    fn bits(s: &[f32]) -> Vec<u32> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    /// Panel-wise pack/unpack against the per-element `index_of` definition
    /// of the layout, over block sizes that do and do not fill a SIMD
    /// vector and shapes that are not square.
    #[test]
    fn panel_walks_match_index_of_bitwise() {
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
                                "activations bc={bc} bn={bn} {c}x{n} at ({cc},{nn})"
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
                                    "weights {blk:?} {k}x{c} at ({kk},{cc})"
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
