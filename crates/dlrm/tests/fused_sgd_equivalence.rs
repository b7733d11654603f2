//! Bitwise wall for the FP32 step's fused dense update.
//!
//! `DlrmModel::train_step` in FP32 applies each MLP layer's SGD step in the
//! write-back of its backward-by-weights pass (`Mlp::backward_sgd`), so no
//! weight gradient is stored. The step it replaces is the one assembled
//! here from the public two-call form — every `Mlp::backward`, then
//! `Mlp::sgd_step` on both MLPs — which is also how the repo benchmark's
//! traced ledger assembles it. Over 20 steps at `train_mlp`'s shapes
//! (dense 256, bottom 512-256-64, top 1024-1024-512-1, four tables of
//! 10 000 rows) and batch 64, on both tiers, the losses and every weight
//! plane, bias and table must agree `to_bits`. On the optimized tier no
//! layer may have allocated a gradient plane; the Reference tier is the two
//! calls and does.

use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;

const STEPS: u64 = 20;
const BATCH: usize = 64;
const LR: f32 = 0.01;

fn train_mlp_cfg() -> DlrmConfig {
    DlrmConfig {
        name: "train_mlp".into(),
        dense_features: 256,
        bottom_mlp: vec![512, 256, 64],
        top_mlp: vec![1024, 1024, 512, 1],
        num_tables: 4,
        table_rows: vec![10_000; 4],
        emb_dim: 64,
        lookups_per_table: 1,
        mb_single: BATCH,
        gn_strong: BATCH,
        ln_weak: BATCH,
    }
}

/// The FP32 step before the fusion, from the model's public parts.
fn unfused_step(model: &mut DlrmModel, batch: &MiniBatch) -> f64 {
    let exec = model.exec.clone();
    let n = batch.batch_size();
    let z0 = model.bottom.forward(&exec, &batch.dense);
    let outs: Vec<Matrix> = model
        .tables
        .iter_mut()
        .enumerate()
        .map(|(t, layer)| layer.forward(&exec, &batch.indices[t], &batch.offsets[t]))
        .collect();
    let inter = model.interaction.forward(&exec, &z0, &outs);
    let logits = model.top.forward(&exec, &inter).as_slice().to_vec();
    let loss = bce_with_logits_loss(&logits, &batch.labels);
    let mut g = vec![0.0f32; n];
    bce_with_logits_backward(&logits, &batch.labels, &mut g);
    let d_inter = model.top.backward(&exec, Matrix::from_slice(1, n, &g));
    let (d_bottom, d_tables) = model.interaction.backward(&d_inter);
    for (layer, grad) in model.tables.iter_mut().zip(&d_tables) {
        layer.backward_update(&exec, grad, LR);
    }
    let _ = model.bottom.backward(&exec, d_bottom);
    model.bottom.sgd_step(&exec, LR);
    model.top.sgd_step(&exec, LR);
    loss
}

/// Every weight, bias and table element of `model`, as bits.
fn state_bits(model: &DlrmModel) -> Vec<Vec<u32>> {
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let mut planes = Vec::new();
    for layer in model.bottom.layers.iter().chain(&model.top.layers) {
        planes.push(bits(layer.w.as_slice()));
        planes.push(bits(&layer.b));
    }
    for t in &model.tables {
        planes.push(bits(t.weight.as_slice()));
    }
    planes
}

#[test]
fn fp32_train_step_is_bitwise_the_unfused_step_and_keeps_no_weight_gradient() {
    let cfg = train_mlp_cfg();
    let tiers = [
        ("Reference", Execution::Reference, UpdateStrategy::Reference),
        (
            "optimized(2)",
            Execution::optimized(2),
            UpdateStrategy::RaceFree,
        ),
    ];
    for (tier, exec, strategy) in tiers {
        let build = || DlrmModel::new(&cfg, exec.clone(), strategy, PrecisionMode::Fp32, 7);
        let (mut fused, mut unfused) = (build(), build());
        for s in 0..STEPS {
            let batch = MiniBatch::random(
                &cfg,
                BATCH,
                IndexDistribution::Uniform,
                &mut seeded_rng(900 + s, 1),
            );
            let (a, b) = (
                fused.train_step(&batch, LR),
                unfused_step(&mut unfused, &batch),
            );
            assert_eq!(a.to_bits(), b.to_bits(), "{tier}: loss of step {s}");
        }
        let (got, want) = (state_bits(&fused), state_bits(&unfused));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(g == w, "{tier}: plane {i} after {STEPS} steps");
        }
        if matches!(exec, Execution::Optimized(_)) {
            for layer in fused.bottom.layers.iter().chain(&fused.top.layers) {
                assert_eq!(layer.dw.capacity_bytes(), 0, "{tier}: a dW plane exists");
            }
        }
    }
}
