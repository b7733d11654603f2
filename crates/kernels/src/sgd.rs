//! Dense SGD update kernels.
//!
//! The dense steps are thin wrappers over the SIMD
//! [`rowops::axpy`](crate::embedding::rowops::axpy) tiers with
//! `alpha = -lr`. That is bit-exact with the classic `w -= lr * g` loop:
//! IEEE-754 negation is a sign flip, so `(-lr) * g` has exactly the bits of
//! `-(lr * g)`, and `w + (-x)` is the same operation as `w - x` — and the
//! rowops tiers are themselves bitwise identical across Scalar/AVX2/AVX-512.

use crate::embedding::rowops;
use crate::gemm::micro::detect_isa;
use crate::threadpool::ThreadPool;
use dlrm_tensor::BlockedWeights;

/// Plain FP32 SGD: `w -= lr * g`, single-threaded (SIMD over the row).
pub fn sgd_step(w: &mut [f32], g: &[f32], lr: f32) {
    assert_eq!(w.len(), g.len(), "sgd_step length mismatch");
    rowops::axpy(detect_isa(), w, g, -lr);
}

/// Plain FP32 SGD across a thread team: the update pass (the paper's "MLP
/// SGD threads") of the two-call `backward` + `sgd_step` form, which the
/// FP32 train step fuses into backward-by-weights instead.
pub fn par_sgd_step(pool: &ThreadPool, w: &mut [f32], g: &[f32], lr: f32) {
    assert_eq!(w.len(), g.len(), "par_sgd_step length mismatch");
    let isa = detect_isa();
    let base = crate::gemm::SendMutPtr(w.as_mut_ptr());
    pool.parallel_for(w.len(), move |_tid, range| {
        // SAFETY: parallel_for ranges are disjoint, and each range stays in
        // bounds of `w`.
        unsafe { rowops::scatter_add(isa, base.get().add(range.start), &g[range], -lr) };
    });
}

/// Plain FP32 SGD on blocked weights against a *row-major* `K×C` gradient
/// (a layer's span of a reduced DDP buffer):
/// `wb -= lr · g`, the team splitting `wb`'s panels. Bitwise equal to
/// [`sgd_step`] on the row-major weights — see
/// [`BlockedWeights::add_scaled_rows`].
pub fn par_sgd_step_rows(pool: &ThreadPool, wb: &mut BlockedWeights, g: &[f32], lr: f32) {
    assert_eq!(g.len(), wb.k * wb.c, "par_sgd_step_rows length mismatch");
    let (blk, c) = (wb.blk, wb.c);
    let panel_len = blk.bc * blk.bk;
    let n_panels = wb.num_panels();
    let base = crate::gemm::SendMutPtr(wb.as_mut_slice().as_mut_ptr());
    pool.parallel_for(n_panels, move |_tid, range| {
        // SAFETY: parallel_for ranges are disjoint, so are the panel runs
        // they name, and `range.end ≤ n_panels` keeps each run inside `wb`,
        // which is borrowed mutably for the whole call.
        let panels = unsafe {
            std::slice::from_raw_parts_mut(
                base.get().add(range.start * panel_len),
                range.len() * panel_len,
            )
        };
        BlockedWeights::add_scaled_rows(panels, range.start, blk, c, g, -lr);
    });
}

/// SGD with per-parameter gradient averaging by `1/scale` — used by the
/// data-parallel path where gradients arrive as sums over ranks.
pub fn sgd_step_scaled(w: &mut [f32], g: &[f32], lr: f32, scale: f32) {
    assert_eq!(w.len(), g.len());
    rowops::axpy(detect_isa(), w, g, -(lr / scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_step() {
        let mut w = [1.0f32, 2.0];
        sgd_step(&mut w, &[0.5, -0.5], 0.1);
        assert_eq!(w, [0.95, 2.05]);
    }

    #[test]
    fn parallel_matches_serial() {
        let pool = ThreadPool::new(4);
        let g: Vec<f32> = (0..1003).map(|i| (i as f32).sin()).collect();
        let mut a: Vec<f32> = (0..1003).map(|i| i as f32 * 0.01).collect();
        let mut b = a.clone();
        sgd_step(&mut a, &g, 0.05);
        par_sgd_step(&pool, &mut b, &g, 0.05);
        assert_eq!(a, b);
    }

    #[test]
    fn simd_step_bit_exact_vs_classic_loop() {
        use crate::embedding::rowops::available_isas;
        use crate::gemm::micro::{lock_isa_override, set_isa_override};
        let _tier = lock_isa_override();
        for len in [0usize, 1, 7, 8, 17, 64, 1003] {
            let g: Vec<f32> = (0..len).map(|i| ((i * 37) as f32).sin() * 3.0).collect();
            let base: Vec<f32> = (0..len).map(|i| (i as f32).cos()).collect();
            let mut want = base.clone();
            for (wv, &gv) in want.iter_mut().zip(&g) {
                *wv -= 0.07 * gv;
            }
            for isa in available_isas() {
                set_isa_override(Some(isa));
                let mut got = base.clone();
                sgd_step(&mut got, &g, 0.07);
                assert_eq!(got, want, "sgd_step {isa:?} len={len} not bit-exact");
                let mut scaled = base.clone();
                sgd_step_scaled(&mut scaled, &g, 0.28, 4.0);
                assert_eq!(scaled, want, "sgd_step_scaled {isa:?} len={len}");
            }
            set_isa_override(None);
        }
    }

    #[test]
    fn scaled_step_averages() {
        let mut w = [0.0f32];
        sgd_step_scaled(&mut w, &[8.0], 0.5, 4.0); // avg grad = 2.0
        assert_eq!(w, [-1.0]);
    }
}
