//! Fully-connected layer passes on blocked tensors (Algorithm 5).
//!
//! Each pass assigns output *blocks* to the thread team (line 1 of
//! Algorithm 5: "based on thread id calculate ... to assign output work
//! items"), names the batch of operand panels to reduce (lines 5–7; the
//! panels are equally strided, so a base pointer and a stride stand in for
//! the paper's pointer lists) and invokes the microkernel once per output
//! block (line 9). Threads write disjoint output panels, so no
//! synchronization is needed beyond the team barrier.
//!
//! Output blocks are flattened with the one that names a block row or
//! column of `W` outermost (`ibk` for forward and backward-by-weights,
//! `ibc` for backward-by-data), so the static split hands each thread a
//! contiguous range of `W`'s block rows (columns). Each is read once and
//! reused across all minibatch blocks while it is hot; what is re-read is
//! the activation side, 1 MB at 256 samples × 1024 features, which L2
//! holds. A minibatch-major order would stream the whole of `W` (4 MB at
//! `1024 × 1024`) past every thread once per minibatch block.
//!
//! Every pass **overwrites** its output (β = 0 on the first reduction
//! panel): outputs need no zero-fill and may hold unspecified scratch
//! contents on entry. The result is bitwise what accumulating into a
//! zero-filled output would give.

use super::micro::{
    brgemm_bwd_data, brgemm_bwd_wt, brgemm_bwd_wt_bias, brgemm_fwd, detect_isa, Beta, PanelDims,
    Panels, Reduce,
};
use super::SendMutPtr;
use crate::threadpool::ThreadPool;
use dlrm_tensor::{BlockedActivations, BlockedWeights};

/// Forward pass: `Y = W · X` with `W: K×C`, `X: C×N`, `Y: K×N`.
pub fn fc_forward(
    pool: &ThreadPool,
    w: &BlockedWeights,
    x: &BlockedActivations,
    y: &mut BlockedActivations,
) {
    fc_forward_fused(pool, w, x, y, None, false);
}

/// Forward pass with a fused epilogue: `Y = act(W·X + b)` where the bias
/// add and ReLU happen per output panel *immediately after its batch-reduce
/// GEMM*, while the panel is still hot in cache — "ReLU can directly happen
/// inside a custom GEMM routine when the C matrix is still hot in caches"
/// (Section II). Saves one full read+write sweep of `Y` versus applying the
/// activation as a separate pass. With no bias and no ReLU this is exactly
/// [`fc_forward`].
pub fn fc_forward_fused(
    pool: &ThreadPool,
    w: &BlockedWeights,
    x: &BlockedActivations,
    y: &mut BlockedActivations,
    bias: Option<&[f32]>,
    relu: bool,
) {
    assert_eq!(w.c, x.c, "fc_forward: W columns != X rows");
    assert_eq!(y.c, w.k, "fc_forward: Y rows != W rows");
    assert_eq!(y.n, x.n, "fc_forward: batch mismatch");
    assert_eq!(w.blk.bc, x.bc, "fc_forward: bc mismatch");
    assert_eq!(y.bc, w.blk.bk, "fc_forward: bk mismatch");
    assert_eq!(y.bn, x.bn, "fc_forward: bn mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), w.k, "fc_forward: bias length");
    }

    let d = PanelDims {
        bn: x.bn,
        bc: x.bc,
        bk: w.blk.bk,
    };
    let (kb, cb, nb) = (w.kb(), w.cb(), x.nb());
    let isa = detect_isa();
    let y_base = SendMutPtr(y.as_mut_slice().as_mut_ptr());
    let panel = d.bn * d.bk;
    // The reduction runs over the C blocks.
    let reduce = Reduce {
        count: cb,
        beta: Beta::Zero,
    };
    let (w_stride, x_stride) = (d.bc * d.bk, nb * d.bn * d.bc);

    // Output blocks (ibk, ibn) flattened ibk-major (see the module docs).
    pool.parallel_for(kb * nb, |_tid, range| {
        for blk_idx in range {
            let (ibk, ibn) = (blk_idx / nb, blk_idx % nb);
            let w_panels = Panels {
                ptr: w.block(ibk, 0).as_ptr(),
                stride: w_stride,
            };
            let x_panels = Panels {
                ptr: x.block_ptr(0, ibn),
                stride: x_stride,
            };
            // Y block (ibk, ibn): same block-major order as BlockedActivations.
            let y_off = (ibk * nb + ibn) * panel;
            // SAFETY: each (ibk, ibn) pair is visited by exactly one thread,
            // and panels are disjoint slices of y; the cb panels of row ibk
            // of w and of column ibn of x lie at the strides above. The
            // epilogue below touches only this panel.
            unsafe {
                brgemm_fwd(isa, w_panels, x_panels, reduce, y_base.get().add(y_off), d);
                let out = std::slice::from_raw_parts_mut(y_base.get().add(y_off), panel);
                // Panel layout is [bn][bk]; bias indexes the K dimension.
                if let Some(b) = bias {
                    let b_blk = &b[ibk * d.bk..(ibk + 1) * d.bk];
                    for rn in 0..d.bn {
                        for (v, &bv) in out[rn * d.bk..(rn + 1) * d.bk].iter_mut().zip(b_blk) {
                            *v += bv;
                        }
                    }
                }
                if relu {
                    // A select, not a conditional store: the sign is a coin
                    // flip, and this form vectorizes. (Not `max`: -0.0 and
                    // NaN must pass through unchanged.)
                    for v in out.iter_mut() {
                        *v = if *v < 0.0 { 0.0 } else { *v };
                    }
                }
            }
        }
    });
}

/// Backward-by-data pass: `dX = Wᵀ · dY`.
pub fn fc_backward_data(
    pool: &ThreadPool,
    w: &BlockedWeights,
    dy: &BlockedActivations,
    dx: &mut BlockedActivations,
) {
    fc_backward_data_fused(pool, w, dy, dx, None);
}

/// Backward-by-data with the upstream ReLU mask fused into the panel
/// writeback: `dX = relu'(Wᵀ · dY)` where `relu_mask` is the *blocked
/// forward output of the upstream layer* (same `[Cb][Nb][bn][bc]` shape and
/// blocking as `dx`). Elements of `dx` whose mask entry is `<= 0` come out
/// exactly `0.0`; everything else is the full batch-reduce accumulation —
/// bitwise identical to [`fc_backward_data`] followed by a separate
/// `relu_backward` sweep, without the extra pass over `dX`.
///
/// With `relu_mask: None` this is exactly [`fc_backward_data`].
pub fn fc_backward_data_fused(
    pool: &ThreadPool,
    w: &BlockedWeights,
    dy: &BlockedActivations,
    dx: &mut BlockedActivations,
    relu_mask: Option<&BlockedActivations>,
) {
    assert_eq!(dy.c, w.k, "fc_backward_data: dY rows != W rows");
    assert_eq!(dx.c, w.c, "fc_backward_data: dX rows != W cols");
    assert_eq!(dx.n, dy.n, "fc_backward_data: batch mismatch");
    assert_eq!(dy.bc, w.blk.bk, "fc_backward_data: bk mismatch");
    assert_eq!(dx.bc, w.blk.bc, "fc_backward_data: bc mismatch");
    assert_eq!(dx.bn, dy.bn, "fc_backward_data: bn mismatch");
    if let Some(m) = relu_mask {
        assert_eq!((m.c, m.n), (dx.c, dx.n), "fc_backward_data: mask shape");
        assert_eq!(
            (m.bc, m.bn),
            (dx.bc, dx.bn),
            "fc_backward_data: mask blocking"
        );
    }

    let d = PanelDims {
        bn: dy.bn,
        bc: w.blk.bc,
        bk: w.blk.bk,
    };
    let (kb, cb, nb) = (w.kb(), w.cb(), dy.nb());
    let isa = detect_isa();
    let dx_base = SendMutPtr(dx.as_mut_slice().as_mut_ptr());
    let panel = d.bn * d.bc;
    // The reduction runs over the K blocks.
    let reduce = Reduce {
        count: kb,
        beta: Beta::Zero,
    };
    let (w_stride, dy_stride) = (cb * d.bc * d.bk, nb * d.bn * d.bk);

    pool.parallel_for(cb * nb, |_tid, range| {
        for blk_idx in range {
            let (ibc, ibn) = (blk_idx / nb, blk_idx % nb);
            let w_panels = Panels {
                ptr: w.block(0, ibc).as_ptr(),
                stride: w_stride,
            };
            let dy_panels = Panels {
                ptr: dy.block_ptr(0, ibn),
                stride: dy_stride,
            };
            let dx_off = (ibc * nb + ibn) * panel;
            // SAFETY: disjoint (ibc, ibn) output panels per thread; the kb
            // panels of column ibc of w and of column ibn of dy lie at the
            // strides above; the mask panel is read-only and congruent with
            // the dx panel.
            unsafe {
                brgemm_bwd_data(
                    isa,
                    w_panels,
                    dy_panels,
                    reduce,
                    dx_base.get().add(dx_off),
                    relu_mask.map(|m| m.block_ptr(ibc, ibn)),
                    d,
                )
            };
        }
    });
}

/// Backward-by-weights pass: `dW = dY · Xᵀ`.
pub fn fc_backward_weights(
    pool: &ThreadPool,
    x: &BlockedActivations,
    dy: &BlockedActivations,
    dw: &mut BlockedWeights,
) {
    backward_weights(pool, x, dy, dw, None);
}

/// Backward-by-weights with the bias-gradient reduction fused in:
/// `dW = dY · Xᵀ` and `db = row-sums of dY`, computed while each `dY` panel
/// is hot. The `db` fragment for output block `ibk` is produced by the
/// thread that owns work item `(ibk, ibc=0)` — fragments are disjoint, so
/// no synchronization is needed. The fused `db` is bitwise identical to
/// `bias_grad_rows` on the unpacked gradient (ascending-`n` plain adds per
/// lane; see `brgemm_bwd_wt_bias`).
///
/// `db` (length `K`) is overwritten, like `dw`.
pub fn fc_backward_weights_fused(
    pool: &ThreadPool,
    x: &BlockedActivations,
    dy: &BlockedActivations,
    dw: &mut BlockedWeights,
    db: &mut [f32],
) {
    assert_eq!(db.len(), dw.k, "fc_backward_weights: db length");
    backward_weights(pool, x, dy, dw, Some(db));
}

fn backward_weights(
    pool: &ThreadPool,
    x: &BlockedActivations,
    dy: &BlockedActivations,
    dw: &mut BlockedWeights,
    db: Option<&mut [f32]>,
) {
    assert_eq!(dw.k, dy.c, "fc_backward_weights: dW rows != dY rows");
    assert_eq!(dw.c, x.c, "fc_backward_weights: dW cols != X rows");
    assert_eq!(x.n, dy.n, "fc_backward_weights: batch mismatch");
    assert_eq!(dw.blk.bc, x.bc, "fc_backward_weights: bc mismatch");
    assert_eq!(dw.blk.bk, dy.bc, "fc_backward_weights: bk mismatch");
    assert_eq!(x.bn, dy.bn, "fc_backward_weights: bn mismatch");

    let d = PanelDims {
        bn: x.bn,
        bc: x.bc,
        bk: dw.blk.bk,
    };
    let (kb, cb, nb) = (dw.kb(), dw.cb(), x.nb());
    let isa = detect_isa();
    let dw_base = SendMutPtr(dw.as_mut_slice().as_mut_ptr());
    let db_base = db.map(|db| SendMutPtr(db.as_mut_ptr()));
    let panel = d.bc * d.bk;
    // The reduction runs over the minibatch blocks — this is the pass whose
    // locality motivated the paper's [Cb][Nb][bn][bc] activation layout
    // choice: the panels reduced are adjacent.
    let reduce = Reduce {
        count: nb,
        beta: Beta::Zero,
    };

    pool.parallel_for(kb * cb, |_tid, range| {
        for blk_idx in range {
            let (ibk, ibc) = (blk_idx / cb, blk_idx % cb);
            let x_panels = Panels {
                ptr: x.block_ptr(ibc, 0),
                stride: d.bn * d.bc,
            };
            let dy_panels = Panels {
                ptr: dy.block_ptr(ibk, 0),
                stride: d.bn * d.bk,
            };
            let dw_off = (ibk * cb + ibc) * panel;
            // SAFETY: disjoint (ibk, ibc) dW panels per thread; the nb
            // panels of row ibc of x and of row ibk of dy are adjacent; the
            // db fragment for ibk is written only by the (ibk, 0) work item.
            unsafe {
                let dw_panel = dw_base.get().add(dw_off);
                match db_base {
                    Some(db) if ibc == 0 => brgemm_bwd_wt_bias(
                        isa,
                        x_panels,
                        dy_panels,
                        reduce,
                        dw_panel,
                        db.get().add(ibk * d.bk),
                        d,
                    ),
                    _ => brgemm_bwd_wt(isa, x_panels, dy_panels, reduce, dw_panel, d),
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive;
    use dlrm_tensor::blocked::Blocking;
    use dlrm_tensor::init::{seeded_rng, uniform};
    use dlrm_tensor::{assert_allclose, Matrix};

    struct Problem {
        w: Matrix,  // K x C
        x: Matrix,  // C x N
        dy: Matrix, // K x N
        blk: Blocking,
    }

    fn problem(k: usize, c: usize, n: usize, blk: Blocking, seed: u64) -> Problem {
        let mut rng = seeded_rng(seed, 0);
        Problem {
            w: uniform(k, c, -1.0, 1.0, &mut rng),
            x: uniform(c, n, -1.0, 1.0, &mut rng),
            dy: uniform(k, n, -1.0, 1.0, &mut rng),
            blk,
        }
    }

    fn check_all_passes(p: &Problem, pool: &ThreadPool) {
        let (k, c) = p.w.shape();
        let n = p.x.cols();
        let Blocking { bn, bc, bk } = p.blk;

        // Forward.
        let wb = dlrm_tensor::BlockedWeights::pack(&p.w, p.blk);
        let xb = dlrm_tensor::BlockedActivations::pack(&p.x, bc, bn);
        let mut yb = dlrm_tensor::BlockedActivations::zeros(k, n, bk, bn);
        fc_forward(pool, &wb, &xb, &mut yb);
        let mut y_ref = Matrix::zeros(k, n);
        naive::gemm_nn(&p.w, &p.x, &mut y_ref);
        let y_unpacked = yb.unpack();
        assert_allclose(y_unpacked.as_slice(), y_ref.as_slice(), 1e-4, "fwd");

        // Backward by data: dX = W^T dY.
        let dyb = dlrm_tensor::BlockedActivations::pack(&p.dy, bk, bn);
        let mut dxb = dlrm_tensor::BlockedActivations::zeros(c, n, bc, bn);
        fc_backward_data(pool, &wb, &dyb, &mut dxb);
        let mut dx_ref = Matrix::zeros(c, n);
        naive::gemm_tn(&p.w, &p.dy, &mut dx_ref);
        let dx_unpacked = dxb.unpack();
        assert_allclose(dx_unpacked.as_slice(), dx_ref.as_slice(), 1e-4, "bwd_data");

        // Backward by weights: dW = dY X^T.
        let mut dwb = dlrm_tensor::BlockedWeights::zeros(k, c, p.blk);
        fc_backward_weights(pool, &xb, &dyb, &mut dwb);
        let mut dw_ref = Matrix::zeros(k, c);
        naive::gemm_nt(&p.dy, &p.x, &mut dw_ref);
        let dw_unpacked = dwb.unpack();
        assert_allclose(dw_unpacked.as_slice(), dw_ref.as_slice(), 1e-4, "bwd_wt");
    }

    #[test]
    fn matches_naive_square() {
        let pool = ThreadPool::new(4);
        let blk = Blocking {
            bn: 8,
            bc: 16,
            bk: 16,
        };
        check_all_passes(&problem(64, 64, 32, blk, 1), &pool);
    }

    #[test]
    fn matches_naive_rectangular() {
        let pool = ThreadPool::new(3);
        let blk = Blocking {
            bn: 4,
            bc: 8,
            bk: 32,
        };
        check_all_passes(&problem(96, 40, 20, blk, 2), &pool);
    }

    #[test]
    fn matches_naive_single_block() {
        let pool = ThreadPool::new(2);
        let blk = Blocking {
            bn: 8,
            bc: 8,
            bk: 8,
        };
        check_all_passes(&problem(8, 8, 8, blk, 3), &pool);
    }

    #[test]
    fn matches_naive_odd_scalar_path() {
        // bk=6 forces the scalar microkernel everywhere.
        let pool = ThreadPool::new(2);
        let blk = Blocking {
            bn: 3,
            bc: 5,
            bk: 6,
        };
        check_all_passes(&problem(18, 15, 9, blk, 4), &pool);
    }

    #[test]
    fn single_thread_pool_matches() {
        let pool = ThreadPool::new(1);
        let blk = Blocking {
            bn: 8,
            bc: 16,
            bk: 16,
        };
        check_all_passes(&problem(32, 48, 16, blk, 5), &pool);
    }

    #[test]
    fn more_threads_than_blocks_matches() {
        let pool = ThreadPool::new(16);
        let blk = Blocking {
            bn: 16,
            bc: 16,
            bk: 16,
        };
        check_all_passes(&problem(16, 16, 16, blk, 6), &pool);
    }

    #[test]
    fn fused_epilogue_matches_separate_passes() {
        let pool = ThreadPool::new(3);
        let blk = Blocking {
            bn: 4,
            bc: 8,
            bk: 16,
        };
        let (k, c, n) = (32usize, 24usize, 12usize);
        let p = problem(k, c, n, blk, 9);
        let bias: Vec<f32> = (0..k).map(|i| (i as f32 - 16.0) * 0.3).collect();

        let wb = dlrm_tensor::BlockedWeights::pack(&p.w, blk);
        let xb = dlrm_tensor::BlockedActivations::pack(&p.x, blk.bc, blk.bn);

        // Fused path.
        let mut y_fused = dlrm_tensor::BlockedActivations::zeros(k, n, blk.bk, blk.bn);
        fc_forward_fused(&pool, &wb, &xb, &mut y_fused, Some(&bias), true);

        // Separate passes: gemm, then bias, then relu on the unpacked form.
        let mut y_ref = Matrix::zeros(k, n);
        naive::gemm_nn(&p.w, &p.x, &mut y_ref);
        for kk in 0..k {
            for nn in 0..n {
                y_ref[(kk, nn)] = (y_ref[(kk, nn)] + bias[kk]).max(0.0);
            }
        }
        let got = y_fused.unpack();
        assert_allclose(got.as_slice(), y_ref.as_slice(), 1e-4, "fused epilogue");
    }

    #[test]
    fn fused_without_bias_or_relu_equals_plain_forward() {
        let pool = ThreadPool::new(2);
        let blk = Blocking {
            bn: 2,
            bc: 4,
            bk: 8,
        };
        let p = problem(16, 8, 6, blk, 10);
        let wb = dlrm_tensor::BlockedWeights::pack(&p.w, blk);
        let xb = dlrm_tensor::BlockedActivations::pack(&p.x, blk.bc, blk.bn);
        let mut a = dlrm_tensor::BlockedActivations::zeros(16, 6, blk.bk, blk.bn);
        fc_forward(&pool, &wb, &xb, &mut a);
        let mut b = dlrm_tensor::BlockedActivations::zeros(16, 6, blk.bk, blk.bn);
        fc_forward_fused(&pool, &wb, &xb, &mut b, None, false);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn fused_backward_data_is_bitwise_unfused_then_mask() {
        let pool = ThreadPool::new(3);
        for blk in [
            Blocking {
                bn: 4,
                bc: 8,
                bk: 16,
            },
            Blocking {
                bn: 3,
                bc: 5,
                bk: 6,
            }, // scalar microkernel path
        ] {
            let (k, c, n) = (2 * blk.bk, 3 * blk.bc, 2 * blk.bn);
            let p = problem(k, c, n, blk, 21);
            // The "mask" is a forward output with mixed signs and zeros.
            let mut mask = uniform(c, n, -1.0, 1.0, &mut seeded_rng(22, 0));
            for (i, v) in mask.as_mut_slice().iter_mut().enumerate() {
                if i % 5 == 0 {
                    *v = 0.0;
                }
            }
            let wb = dlrm_tensor::BlockedWeights::pack(&p.w, blk);
            let dyb = dlrm_tensor::BlockedActivations::pack(&p.dy, blk.bk, blk.bn);
            let maskb = dlrm_tensor::BlockedActivations::pack(&mask, blk.bc, blk.bn);

            let mut want = dlrm_tensor::BlockedActivations::zeros(c, n, blk.bc, blk.bn);
            fc_backward_data(&pool, &wb, &dyb, &mut want);
            for (v, &m) in want.as_mut_slice().iter_mut().zip(maskb.as_slice()) {
                if m <= 0.0 {
                    *v = 0.0;
                }
            }
            let mut got = dlrm_tensor::BlockedActivations::zeros(c, n, blk.bc, blk.bn);
            fc_backward_data_fused(&pool, &wb, &dyb, &mut got, Some(&maskb));
            let a: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "fused bwd_data mask {blk:?}");

            // None mask degenerates to the plain pass.
            let mut plain = dlrm_tensor::BlockedActivations::zeros(c, n, blk.bc, blk.bn);
            fc_backward_data_fused(&pool, &wb, &dyb, &mut plain, None);
            let mut unfused = dlrm_tensor::BlockedActivations::zeros(c, n, blk.bc, blk.bn);
            fc_backward_data(&pool, &wb, &dyb, &mut unfused);
            assert_eq!(plain.as_slice(), unfused.as_slice());
        }
    }

    #[test]
    fn fused_backward_weights_bias_matches_separate_passes_bitwise() {
        use crate::activations::bias_grad_rows;
        let pool = ThreadPool::new(3);
        for blk in [
            Blocking {
                bn: 4,
                bc: 8,
                bk: 16,
            },
            Blocking {
                bn: 3,
                bc: 5,
                bk: 6,
            },
        ] {
            let (k, c, n) = (3 * blk.bk, 2 * blk.bc, 4 * blk.bn);
            let p = problem(k, c, n, blk, 23);
            let xb = dlrm_tensor::BlockedActivations::pack(&p.x, blk.bc, blk.bn);
            let dyb = dlrm_tensor::BlockedActivations::pack(&p.dy, blk.bk, blk.bn);

            let mut dw_want = dlrm_tensor::BlockedWeights::zeros(k, c, blk);
            fc_backward_weights(&pool, &xb, &dyb, &mut dw_want);
            let mut db_want = vec![0.0f32; k];
            bias_grad_rows(p.dy.as_slice(), k, n, &mut db_want);

            let mut dw_got = dlrm_tensor::BlockedWeights::zeros(k, c, blk);
            let mut db_got = vec![-3.0f32; k]; // overwrite semantics
            fc_backward_weights_fused(&pool, &xb, &dyb, &mut dw_got, &mut db_got);

            assert_eq!(dw_got.as_slice(), dw_want.as_slice(), "dW {blk:?}");
            let a: Vec<u32> = db_got.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = db_want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "fused db must bitwise match bias_grad_rows {blk:?}");
        }
    }

    #[test]
    fn every_pass_overwrites_a_garbage_output_with_the_zero_start_result() {
        // Scratch outputs are reshaped, not zero-filled, between steps: a
        // pass must neither read nor keep what it finds there.
        let pool = ThreadPool::new(3);
        for blk in [
            Blocking {
                bn: 4,
                bc: 8,
                bk: 16,
            },
            Blocking {
                bn: 3,
                bc: 5,
                bk: 6,
            }, // scalar microkernel path
        ] {
            let (k, c, n) = (2 * blk.bk, 3 * blk.bc, 2 * blk.bn);
            let p = problem(k, c, n, blk, 31);
            let bias = vec![0.25f32; k];
            let wb = dlrm_tensor::BlockedWeights::pack(&p.w, blk);
            let xb = dlrm_tensor::BlockedActivations::pack(&p.x, blk.bc, blk.bn);
            let dyb = dlrm_tensor::BlockedActivations::pack(&p.dy, blk.bk, blk.bn);
            let run = |fill: f32| {
                let mut yb = dlrm_tensor::BlockedActivations::zeros(k, n, blk.bk, blk.bn);
                let mut dxb = dlrm_tensor::BlockedActivations::zeros(c, n, blk.bc, blk.bn);
                let mut dwb = dlrm_tensor::BlockedWeights::zeros(k, c, blk);
                yb.as_mut_slice().fill(fill);
                dxb.as_mut_slice().fill(fill);
                dwb.as_mut_slice().fill(fill);
                let mut db = vec![fill; k];
                fc_forward_fused(&pool, &wb, &xb, &mut yb, Some(&bias), true);
                fc_backward_data_fused(&pool, &wb, &dyb, &mut dxb, Some(&xb));
                fc_backward_weights_fused(&pool, &xb, &dyb, &mut dwb, &mut db);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                [
                    bits(yb.as_slice()),
                    bits(dxb.as_slice()),
                    bits(dwb.as_slice()),
                    bits(&db),
                ]
            };
            assert_eq!(run(f32::NAN), run(0.0), "{blk:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bc mismatch")]
    fn forward_rejects_inconsistent_blocking() {
        let pool = ThreadPool::new(1);
        let blk = Blocking {
            bn: 4,
            bc: 8,
            bk: 8,
        };
        let w = dlrm_tensor::BlockedWeights::zeros(8, 16, blk);
        let x = dlrm_tensor::BlockedActivations::zeros(16, 8, 4, 4); // bc=4 != 8
        let mut y = dlrm_tensor::BlockedActivations::zeros(8, 8, 8, 4);
        fc_forward(&pool, &w, &x, &mut y);
    }
}
