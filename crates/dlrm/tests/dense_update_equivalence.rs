//! Bitwise gate for the blocked dense update.
//!
//! The weight gradient stays in the weights' blocked layout:
//! `Linear::sgd_step` reads it as it lies, the DDP step
//! applies a row-major slice of the reduced buffer panel by panel
//! (`Linear::sgd_step_scaled_from`), and `Linear::write_grads` is the one
//! place it is laid out as rows. Each must equal, `to_bits`, what the flat
//! kernels compute from a flat gradient — under every forced ISA tier, team
//! sizes that do and do not divide the panel count, and shapes whose sides
//! include 1, 74, 100 and 1000 (`bc` = 37 and 50, `bk` = 37, 50 and 40).
//!
//! The second test pins the non-FP32 optimizers, which run element-wise on
//! the blocked weight and gradient planes, against loss bits recorded at
//! commit `7a94e2c`, where backward still unpacked `dW` every step and the
//! optimizers read it as rows.
//!
//! The ISA override is process-global, so the tests of this binary take
//! turns.

use dlrm::layers::{Activation, Execution, Linear, Mlp};
use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::activations::bias_grad_rows;
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::{self, micro::Isa, set_isa_override};
use dlrm_kernels::sgd::{sgd_step, sgd_step_scaled};
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::{BlockedActivations, BlockedWeights, Blocking, Matrix};

static ISA_TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    ISA_TURN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bits(s: &[f32]) -> Vec<u32> {
    s.iter().map(|v| v.to_bits()).collect()
}

/// `(K, C)` of the layers under test.
const SHAPES: [(usize, usize); 8] = [
    (1, 1),
    (1, 74),
    (74, 1),
    (100, 74),
    (74, 100),
    (1000, 100),
    (100, 1000),
    (128, 64),
];
const N: usize = 6;
const LR: f32 = 0.07;
const RANKS: f32 = 3.0;

/// A one-layer MLP after one optimized forward + backward: its gradient is
/// in the blocked `dw`.
fn after_backward(exec: &Execution, k: usize, c: usize, x: &Matrix, dy: &Matrix) -> Mlp {
    let mut mlp = Mlp::new(c, &[k], Activation::None, &mut seeded_rng(5, 0));
    let _ = mlp.forward(exec, x);
    let _ = mlp.backward(exec, dy.clone());
    mlp
}

fn grads(layer: &Linear) -> Vec<f32> {
    let mut out = vec![0.0; layer.grad_len()];
    layer.write_grads(&mut out);
    out
}

/// Weights (row-major) then bias, as bits.
fn params(mlp: &mut Mlp) -> Vec<u32> {
    let layer = &mlp.layers[0];
    bits(layer.w.unpack().as_slice())
        .into_iter()
        .chain(bits(&layer.b))
        .collect()
}

fn check_shape(pool: &ThreadPool, exec: &Execution, k: usize, c: usize, label: &str) {
    let x = uniform(c, N, -1.0, 1.0, &mut seeded_rng(6, 0));
    let dy = uniform(k, N, -1.0, 1.0, &mut seeded_rng(7, 0));
    let mut own = after_backward(exec, k, c, &x, &dy);
    let (w0, b0) = (own.layers[0].w.unpack(), own.layers[0].b.clone());

    // write_grads ≡ dwb.unpack() ‖ db, the blocked gradient rebuilt here
    // from the public kernels.
    let blk = Blocking::for_shape(N, c, k);
    let xb = BlockedActivations::pack(&x, blk.bc, blk.bn);
    let dyb = BlockedActivations::pack(&dy, blk.bk, blk.bn);
    let mut dwb = BlockedWeights::zeros(k, c, blk);
    gemm::fc_backward_weights(pool, &xb, &dyb, &mut dwb);
    let mut want_g = dwb.unpack().as_slice().to_vec();
    want_g.resize(k * c + k, 0.0);
    bias_grad_rows(dy.as_slice(), k, N, &mut want_g[k * c..]);
    let g = grads(&own.layers[0]);
    assert_eq!(bits(&g), bits(&want_g), "{label}: write_grads");

    // The flat step from that gradient is the reference for both entries.
    let flat_step = |g: &[f32], step: &dyn Fn(&mut [f32], &[f32])| -> Vec<u32> {
        let (mut w, mut b) = (w0.clone(), b0.clone());
        step(w.as_mut_slice(), &g[..k * c]);
        step(&mut b, &g[k * c..]);
        bits(w.as_slice()).into_iter().chain(bits(&b)).collect()
    };
    let want_own = flat_step(&g, &|w, g| sgd_step(w, g, LR));

    // Entry 1: the layer's own blocked gradient, contiguous.
    own.sgd_step(exec, LR);
    assert_eq!(params(&mut own), want_own, "{label}: sgd_step from dwb");

    // Entry 2: a slice of a summed buffer (stand-in: another gradient).
    let summed: Vec<f32> = g
        .iter()
        .enumerate()
        .map(|(i, v)| v * 2.5 + (i as f32 * 0.37).sin())
        .collect();
    let want_ddp = flat_step(&summed, &|w, g| sgd_step_scaled(w, g, LR, RANKS));
    let mut ddp = after_backward(exec, k, c, &x, &dy);
    ddp.layers[0].sgd_step_scaled_from(exec, &summed, LR, RANKS);
    assert_eq!(params(&mut ddp), want_ddp, "{label}: sgd_step_scaled_from");
    assert_eq!(
        bits(&grads(&ddp.layers[0])),
        bits(&g),
        "{label}: the DDP step must leave the local gradient alone"
    );

    // Mutation check: were the update contracted to one FMA (one rounding
    // instead of two), the comparisons above must be able to tell.
    if k * c >= 1000 {
        let fma = flat_step(&g, &|w, g| {
            for (w, g) in w.iter_mut().zip(g) {
                *w = (-LR).mul_add(*g, *w);
            }
        });
        assert_ne!(fma, want_own, "{label}: an FMA update went unnoticed");
    }
}

#[test]
fn blocked_update_matches_flat_update_bitwise() {
    let _turn = my_turn();
    for isa in available_isas() {
        set_isa_override(Some(isa));
        for t in [1usize, 2, 3] {
            let exec = Execution::optimized(t);
            let pool = ThreadPool::new(t);
            for (k, c) in SHAPES {
                check_shape(&pool, &exec, k, c, &format!("{isa:?} T={t} {k}x{c}"));
            }
        }
    }
    set_isa_override(None);
}

fn split_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(64, 256);
    cfg.dense_features = 16;
    cfg.bottom_mlp = vec![96, 8];
    cfg.emb_dim = 8;
    cfg.num_tables = 3;
    cfg.table_rows = vec![64, 32, 16];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![80, 1];
    cfg
}

fn split_losses(isa: Isa) -> Vec<u64> {
    set_isa_override(Some(isa));
    let cfg = split_cfg();
    let mut model = DlrmModel::new(
        &cfg,
        Execution::optimized(2),
        UpdateStrategy::RaceFree,
        PrecisionMode::Bf16Split,
        21,
    );
    let losses = (0..4)
        .map(|step| {
            let batch = MiniBatch::random(
                &cfg,
                32,
                IndexDistribution::Uniform,
                &mut seeded_rng(500 + step, 9),
            );
            model.train_step(&batch, 0.1).to_bits()
        })
        .collect();
    set_isa_override(None);
    losses
}

#[test]
fn bf16_split_on_the_optimized_tier_matches_bits_recorded_at_parent() {
    let _turn = my_turn();
    for isa in available_isas() {
        let want: [u64; 4] = match isa {
            Isa::Scalar => [
                0x3fe646018e91921c,
                0x3fe6167c5f5b257f,
                0x3fe6086dd03c2066,
                0x3fe6ee38201c8f76,
            ],
            Isa::Avx2 | Isa::Avx512 => [
                0x3fe646018e4bb7cb,
                0x3fe6167c5f57efbe,
                0x3fe6086dcf4d28ed,
                0x3fe6ee381f9babf7,
            ],
        };
        assert_eq!(
            split_losses(isa),
            want,
            "{isa:?}: the precision optimizer trained on another gradient"
        );
    }
}
