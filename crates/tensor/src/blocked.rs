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
    /// [`AlignedVec::resize_scratch`]) and packs `w` into it. The persistent
    /// packed-plan path uses this so steady state is allocation-free.
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
        for kk in 0..self.k {
            for cc in 0..self.c {
                let idx = self.index_of(kk, cc);
                self.data[idx] = w[(kk, cc)];
            }
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
    ///
    /// Walks the storage panel by panel: the backward pass unpacks every
    /// layer's `dW` every step, and a per-element [`Self::index_of`] (two
    /// divisions each) cost as much as the weight-gradient GEMM itself.
    pub fn unpack_into(&self, out: &mut Matrix) {
        assert_eq!((self.k, self.c), out.shape(), "unpack_into shape mismatch");
        let Blocking { bc, bk, .. } = self.blk;
        let (cb, c) = (self.cb(), self.c);
        let flat = out.as_mut_slice();
        for (idx, panel) in self.data.chunks_exact(bc * bk).enumerate() {
            let (ibk, ibc) = (idx / cb, idx % cb);
            // Panel is [bc][bk]; its rows of `out` are the bk features.
            for rk in 0..bk {
                let row = &mut flat[(ibk * bk + rk) * c + ibc * bc..][..bc];
                for (v, &p) in row.iter_mut().zip(panel[rk..].iter().step_by(bk)) {
                    *v = p;
                }
            }
        }
    }

    /// In-place SGD step against a *flat* row-major `K×C` gradient:
    /// `W[k][c] += alpha * dW[k][c]` for every element, traversed in blocked
    /// storage order. Written as separate multiply-then-add (no FMA
    /// contraction), so each element sees exactly the arithmetic of
    /// `w += alpha * g` on the flat mirror — the update is an elementwise
    /// permutation and therefore bitwise identical to the flat step.
    pub fn add_scaled_flat(&mut self, g: &Matrix, alpha: f32) {
        assert_eq!((self.k, self.c), g.shape(), "add_scaled_flat shape");
        let Blocking { bc, bk, .. } = self.blk;
        let (kb, cb, c) = (self.kb(), self.cb(), self.c);
        let gs = g.as_slice();
        let mut idx = 0;
        for ibk in 0..kb {
            for ibc in 0..cb {
                for rc in 0..bc {
                    let col = ibc * bc + rc;
                    for rk in 0..bk {
                        let p = alpha * gs[(ibk * bk + rk) * c + col];
                        self.data[idx] += p;
                        idx += 1;
                    }
                }
            }
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
        for cc in 0..self.c {
            for nn in 0..self.n {
                let idx = self.index_of(cc, nn);
                self.data[idx] = x[(cc, nn)];
            }
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
        for cc in 0..self.c {
            for nn in 0..self.n {
                out[(cc, nn)] = self.data[self.index_of(cc, nn)];
            }
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
    fn add_scaled_flat_matches_flat_sgd_bitwise() {
        let blk = Blocking {
            bn: 2,
            bc: 4,
            bk: 4,
        };
        let w = Matrix::from_fn(8, 12, |r, c| (r as f32 + 0.37) * 1.1 - c as f32 * 0.013);
        let g = Matrix::from_fn(8, 12, |r, c| (c as f32 - 3.7) * 0.31 + r as f32 * 0.07);
        let alpha = -0.05_f32;
        let mut bw = BlockedWeights::pack(&w, blk);
        bw.add_scaled_flat(&g, alpha);
        // Flat reference: w += alpha * g, separate mul-then-add per element.
        let mut flat = w.clone();
        for (wv, gv) in flat.as_mut_slice().iter_mut().zip(g.as_slice()) {
            let p = alpha * gv;
            *wv += p;
        }
        let got: Vec<u32> = bw.unpack().as_slice().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = flat.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "blocked SGD must be bitwise equal to flat SGD");
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
