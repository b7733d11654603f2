//! Dense SGD update kernels.
//!
//! The dense steps are thin wrappers over the SIMD [`rowops::axpy`] tiers
//! with `alpha = -lr`. That is bit-exact with the classic `w -= lr * g` loop:
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
    let base = crate::SendMutPtr(w.as_mut_ptr());
    pool.parallel_for(w.len(), move |_tid, range| {
        // SAFETY: parallel_for ranges are disjoint, and each range stays in
        // bounds of `w`.
        unsafe { rowops::scatter_add(isa, base.get().add(range.start), &g[range], -lr) };
    });
}

/// Plain FP32 SGD on blocked weights against a *row-major* `K×C` gradient
/// (a layer's span of a reduced DDP buffer): `wb -= lr · g`, each team
/// member applying [`BlockedWeights::add_scaled_rows`] — the Reference
/// tier's DDP step — to its run of panels. Bitwise [`sgd_step`] on rows.
pub fn par_sgd_step_rows(pool: &ThreadPool, wb: &mut BlockedWeights, g: &[f32], lr: f32) {
    let grid = wb.grid();
    assert_eq!(
        g.len(),
        grid.rows() * grid.cols(),
        "par_sgd_step_rows length mismatch"
    );
    let panel = grid.panel_len();
    let base = crate::SendMutPtr(wb.as_mut_slice().as_mut_ptr());
    pool.parallel_for(grid.panels(), move |_tid, range| {
        // SAFETY: parallel_for ranges are disjoint, so each run is one
        // thread's; `range.end` ≤ the panel count keeps it inside `wb`,
        // which is borrowed mutably for the whole call.
        let run = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(range.start * panel), range.len() * panel)
        };
        BlockedWeights::add_scaled_rows(run, range.start, grid, g, -lr);
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

    /// The averaged DDP step against one whole-tensor `add_scaled_rows` on
    /// the scalar tier (the plain double loop), bit for bit, on every forced
    /// tier and team of 1–3, over the kernel wall's `bc` × `bk` grid (two
    /// block rows, three block columns).
    #[test]
    fn par_sgd_step_rows_is_bitwise_add_scaled_rows_on_every_tier() {
        use crate::embedding::rowops::available_isas;
        use crate::gemm::blocked::tests::{ROWS_BC, ROWS_BK};
        use crate::gemm::micro::{lock_isa_override, set_isa_override, Isa};
        use dlrm_tensor::init::{seeded_rng, uniform};
        use dlrm_tensor::Blocking;
        let _tier = lock_isa_override();
        let lr = 0.07f32;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for team in 1..=3 {
            let pool = ThreadPool::new(team);
            for (bc, bk) in ROWS_BC
                .into_iter()
                .flat_map(|bc| ROWS_BK.map(|bk| (bc, bk)))
            {
                let blk = Blocking { bn: 1, bc, bk };
                let (k, c) = (2 * bk, 3 * bc);
                let mut rng = seeded_rng(61, (bc * 100 + bk) as u64);
                let w = uniform(k, c, -1.0, 1.0, &mut rng);
                let g = uniform(k, c, -3.0, 3.0, &mut rng);
                set_isa_override(Some(Isa::Scalar));
                let mut want = BlockedWeights::pack(&w, blk);
                let grid = want.grid();
                BlockedWeights::add_scaled_rows(want.as_mut_slice(), 0, grid, g.as_slice(), -lr);
                for isa in available_isas() {
                    set_isa_override(Some(isa));
                    let mut got = BlockedWeights::pack(&w, blk);
                    par_sgd_step_rows(&pool, &mut got, g.as_slice(), lr);
                    let at = format!("bc {bc} bk {bk} {isa:?} team {team}");
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{at}");
                }
                set_isa_override(None);
            }
        }
    }

    #[test]
    fn scaled_step_averages() {
        let mut w = [0.0f32];
        sgd_step_scaled(&mut w, &[8.0], 0.5, 4.0); // avg grad = 2.0
        assert_eq!(w, [-1.0]);
    }
}
