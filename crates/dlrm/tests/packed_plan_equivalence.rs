//! Bitwise gate for the persistent packed-GEMM execution plan.
//!
//! The `pack-per-call` arm below re-implements, from the public tensor and
//! kernel APIs, exactly what `Linear::forward`/`backward`/`sgd_step` did
//! before the persistent plan existed: re-pack W/X/dY on every call, fresh
//! blocked buffers, unpack between layers, flat SGD. The persistent path
//! (pack-once weights, blocked activation residency, fused backward
//! epilogues, blocked in-place SGD) must produce bit-identical outputs,
//! gradients and parameter planes — across forced ISA tiers, layer shapes
//! (including dimensions the default blocking does not divide), seeds and
//! multiple training steps, plus Reference and Optimized steps taking turns
//! on the one blocked weight storage.

use dlrm::layers::{Activation, Execution, Mlp};
use dlrm_kernels::activations::{bias_add_rows, bias_grad_rows, relu_backward, relu_forward};
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::{self, set_isa_override};
use dlrm_kernels::sgd::sgd_step;
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::{BlockedActivations, BlockedWeights, Blocking, Matrix};

fn bits(s: &[f32]) -> Vec<u32> {
    s.iter().map(|v| v.to_bits()).collect()
}

/// One layer of the pack-per-call arm: plain flat tensors, no plan state.
struct PerCallLayer {
    w: Matrix,
    b: Vec<f32>,
    relu: bool,
    dw: Matrix,
    db: Vec<f32>,
    x: Option<Matrix>,
    y: Option<Matrix>,
}

fn per_call_from(mlp: &Mlp) -> Vec<PerCallLayer> {
    mlp.layers
        .iter()
        .map(|l| PerCallLayer {
            w: l.w.unpack(),
            b: l.b.clone(),
            relu: l.act == Activation::Relu,
            dw: Matrix::zeros(l.w.k(), l.w.c()),
            db: vec![0.0; l.b.len()],
            x: None,
            y: None,
        })
        .collect()
}

/// The pre-plan optimized forward: pack W and X per call, fused epilogue,
/// unpack between layers.
fn per_call_forward(pool: &ThreadPool, layers: &mut [PerCallLayer], x: &Matrix) -> Matrix {
    let mut cur = x.clone();
    for l in layers.iter_mut() {
        let (k, n) = (l.w.rows(), cur.cols());
        let blk = Blocking::for_shape(n, l.w.cols(), k);
        let wb = BlockedWeights::pack(&l.w, blk);
        let xb = BlockedActivations::pack(&cur, blk.bc, blk.bn);
        let mut yb = BlockedActivations::zeros(k, n, blk.bk, blk.bn);
        gemm::fc_forward_fused(pool, &wb, &xb, &mut yb, Some(&l.b), l.relu);
        let y = yb.unpack();
        l.x = Some(cur);
        l.y = Some(y.clone());
        cur = y;
    }
    cur
}

/// The pre-plan optimized backward: flat ReLU mask and bias reduction,
/// per-call packs, unfused batch-reduce GEMMs.
fn per_call_backward(pool: &ThreadPool, layers: &mut [PerCallLayer], mut dy: Matrix) -> Matrix {
    for l in layers.iter_mut().rev() {
        let y = l.y.as_ref().expect("backward before forward");
        if l.relu {
            relu_backward(y.as_slice(), dy.as_mut_slice());
        }
        let (k, n) = dy.shape();
        bias_grad_rows(dy.as_slice(), k, n, &mut l.db);
        let x = l.x.as_ref().unwrap();
        let c = l.w.cols();
        let blk = Blocking::for_shape(n, c, k);
        let wb = BlockedWeights::pack(&l.w, blk);
        let xb = BlockedActivations::pack(x, blk.bc, blk.bn);
        let dyb = BlockedActivations::pack(&dy, blk.bk, blk.bn);
        let mut dwb = BlockedWeights::zeros(k, c, blk);
        gemm::fc_backward_weights(pool, &xb, &dyb, &mut dwb);
        l.dw = dwb.unpack();
        let mut dxb = BlockedActivations::zeros(c, n, blk.bc, blk.bn);
        gemm::fc_backward_data(pool, &wb, &dyb, &mut dxb);
        dy = dxb.unpack();
    }
    dy
}

/// Reference-tier forward on the pack-per-call arm (naive GEMM on flat
/// tensors), for the mixed-execution phase.
fn per_call_forward_reference(layers: &mut [PerCallLayer], x: &Matrix) -> Matrix {
    let mut cur = x.clone();
    for l in layers.iter_mut() {
        let (k, n) = (l.w.rows(), cur.cols());
        let mut y = Matrix::zeros(k, n);
        gemm::gemm_nn(&l.w, &cur, &mut y);
        bias_add_rows(y.as_mut_slice(), k, n, &l.b);
        if l.relu {
            relu_forward(y.as_mut_slice());
        }
        l.x = Some(cur);
        l.y = Some(y.clone());
        cur = y;
    }
    cur
}

/// Reference-tier backward on the pack-per-call arm.
fn per_call_backward_reference(layers: &mut [PerCallLayer], mut dy: Matrix) -> Matrix {
    for l in layers.iter_mut().rev() {
        let y = l.y.as_ref().expect("backward before forward");
        if l.relu {
            relu_backward(y.as_slice(), dy.as_mut_slice());
        }
        let (k, n) = dy.shape();
        bias_grad_rows(dy.as_slice(), k, n, &mut l.db);
        let x = l.x.as_ref().unwrap();
        l.dw.fill_zero();
        gemm::gemm_nt(&dy, x, &mut l.dw);
        let mut dx = Matrix::zeros(l.w.cols(), n);
        gemm::gemm_tn(&l.w, &dy, &mut dx);
        dy = dx;
    }
    dy
}

fn per_call_sgd(layers: &mut [PerCallLayer], lr: f32) {
    for l in layers.iter_mut() {
        sgd_step(l.w.as_mut_slice(), l.dw.as_slice(), lr);
        sgd_step(&mut l.b, &l.db, lr);
    }
}

/// Deterministic pseudo-loss gradient, computed from bit-identical `y` in
/// both arms.
fn loss_grad(y: &Matrix) -> Matrix {
    Matrix::from_fn(y.rows(), y.cols(), |i, j| y[(i, j)] * 0.01 - 0.005)
}

/// Asserts the persistent-plan MLP and the pack-per-call arm stay bitwise
/// identical over `steps` fwd+bwd+sgd iterations.
fn check_shape(
    in_dim: usize,
    sizes: &[usize],
    n: usize,
    last_act: Activation,
    seed: u64,
    label: &str,
) {
    let exec = Execution::optimized(3);
    let pool = ThreadPool::new(3);
    let mut mlp = Mlp::new(in_dim, sizes, last_act, &mut seeded_rng(seed, 0));
    let mut old = per_call_from(&mlp);
    let x = uniform(in_dim, n, -1.0, 1.0, &mut seeded_rng(seed, 1));
    for step in 0..3 {
        let y_new = mlp.forward(&exec, &x);
        let y_old = per_call_forward(&pool, &mut old, &x);
        assert_eq!(
            bits(y_new.as_slice()),
            bits(y_old.as_slice()),
            "{label} step {step}: forward"
        );
        let dx_new = mlp.backward(&exec, loss_grad(&y_new));
        let dx_old = per_call_backward(&pool, &mut old, loss_grad(&y_old));
        assert_eq!(
            bits(dx_new.as_slice()),
            bits(dx_old.as_slice()),
            "{label} step {step}: backward dx"
        );
        for (i, (l_new, l_old)) in mlp.layers.iter().zip(&old).enumerate() {
            let mut g_new = vec![0.0; l_new.grad_len()];
            l_new.write_grads(&mut g_new);
            let (dw_new, db_new) = g_new.split_at(l_old.dw.len());
            assert_eq!(
                bits(dw_new),
                bits(l_old.dw.as_slice()),
                "{label} step {step} layer {i}: dw"
            );
            assert_eq!(
                bits(db_new),
                bits(&l_old.db),
                "{label} step {step} layer {i}: db"
            );
        }
        mlp.sgd_step(&exec, 0.1);
        per_call_sgd(&mut old, 0.1);
        // The in-place blocked SGD update, read as rows, bit for bit.
        for (i, (l_new, l_old)) in mlp.layers.iter().zip(&old).enumerate() {
            assert_eq!(
                bits(l_new.w.unpack().as_slice()),
                bits(l_old.w.as_slice()),
                "{label} step {step} layer {i}: post-sgd w"
            );
            assert_eq!(
                bits(&l_new.b),
                bits(&l_old.b),
                "{label} step {step} layer {i}: post-sgd b"
            );
        }
    }
}

/// Alternating Optimized and Reference steps on the one blocked storage
/// (with row-major weight reads in between) must track a pack-per-call arm
/// doing the same alternation.
fn check_mixed_execution(seed: u64) {
    let opt = Execution::optimized(3);
    let refr = Execution::Reference;
    let pool = ThreadPool::new(3);
    let mut mlp = Mlp::new(8, &[16, 4, 1], Activation::None, &mut seeded_rng(seed, 0));
    let mut old = per_call_from(&mlp);
    let x = uniform(8, 10, -1.0, 1.0, &mut seeded_rng(seed, 1));
    for (step, optimized) in [true, false, true, true, false].into_iter().enumerate() {
        let (y_new, y_old) = if optimized {
            (mlp.forward(&opt, &x), per_call_forward(&pool, &mut old, &x))
        } else {
            (
                mlp.forward(&refr, &x),
                per_call_forward_reference(&mut old, &x),
            )
        };
        assert_eq!(
            bits(y_new.as_slice()),
            bits(y_old.as_slice()),
            "mixed step {step} (optimized={optimized}): forward"
        );
        let (dx_new, dx_old) = if optimized {
            (
                mlp.backward(&opt, loss_grad(&y_new)),
                per_call_backward(&pool, &mut old, loss_grad(&y_old)),
            )
        } else {
            (
                mlp.backward(&refr, loss_grad(&y_new)),
                per_call_backward_reference(&mut old, loss_grad(&y_old)),
            )
        };
        assert_eq!(
            bits(dx_new.as_slice()),
            bits(dx_old.as_slice()),
            "mixed step {step}: backward dx"
        );
        mlp.sgd_step(if optimized { &opt } else { &refr }, 0.05);
        per_call_sgd(&mut old, 0.05);
        for (i, (l_new, l_old)) in mlp.layers.iter().zip(&old).enumerate() {
            assert_eq!(
                bits(l_new.w.unpack().as_slice()),
                bits(l_old.w.as_slice()),
                "mixed step {step} layer {i}: post-sgd w"
            );
        }
    }
}

/// One test fn on purpose: the ISA override is process-global, so running
/// tier sweeps from parallel test threads would race.
#[test]
fn packed_persistent_matches_pack_per_call_bitwise() {
    for isa in available_isas() {
        set_isa_override(Some(isa));
        for seed in [11u64, 29] {
            // Default-divisible shapes, ReLU chain + identity head.
            check_shape(
                8,
                &[16, 4, 1],
                10,
                Activation::None,
                seed,
                &format!("{isa:?} s{seed} small"),
            );
            // bk = 64: exercises the widened 2×bk AVX-512 forward variant.
            check_shape(
                64,
                &[64, 64],
                64,
                Activation::None,
                seed,
                &format!("{isa:?} s{seed} wide"),
            );
            // Nothing divisible by the default blocking (bc=10, bk∈{6,9,3},
            // bn=9), ReLU on the last layer so the boundary mask runs.
            check_shape(
                10,
                &[6, 9, 3],
                9,
                Activation::Relu,
                seed,
                &format!("{isa:?} s{seed} ragged"),
            );
        }
        check_mixed_execution(43);
    }
    set_isa_override(None);
}
