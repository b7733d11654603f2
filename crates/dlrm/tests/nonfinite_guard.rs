//! The non-finite loss guard of `DlrmModel::train_step`.
//!
//! In FP32 the MLP update runs inside the backward pass, so once backward
//! starts nothing can hold a NaN back. A step whose loss is not finite
//! therefore runs no backward at all: one NaN dense feature must leave every
//! MLP weight plane, bias and table bitwise where it was, in every precision
//! mode and on both tiers, and count one skipped step. The step is then
//! invisible: the model that skipped it and a fresh model take the same
//! finite batch to the same loss and weights, bit for bit.

use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_tensor::init::seeded_rng;

fn cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(64, 256);
    cfg.dense_features = 16;
    cfg.bottom_mlp = vec![32, 8];
    cfg.emb_dim = 8;
    cfg.num_tables = 3;
    cfg.table_rows = vec![64, 32, 16];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![16, 1];
    cfg
}

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
fn a_nan_loss_skips_the_step_and_leaves_no_trace() {
    let cfg = cfg();
    let batch = |seed| {
        MiniBatch::random(
            &cfg,
            12,
            IndexDistribution::Uniform,
            &mut seeded_rng(seed, 2),
        )
    };
    let mut poisoned = batch(40);
    poisoned.dense[(3, 5)] = f32::NAN;
    let finite = batch(41);

    let tiers = [
        ("Reference", Execution::Reference, UpdateStrategy::Reference),
        (
            "optimized(2)",
            Execution::optimized(2),
            UpdateStrategy::RaceFree,
        ),
    ];
    for (tier, exec, strategy) in tiers {
        for precision in PrecisionMode::ALL {
            let at = format!("{tier} {precision:?}");
            let build = || DlrmModel::new(&cfg, exec.clone(), strategy, precision, 3);
            let (mut skipper, mut fresh) = (build(), build());
            let before = state_bits(&skipper);

            let loss = skipper.train_step(&poisoned, 0.1);
            assert!(loss.is_nan(), "{at}: a NaN feature must reach the loss");
            assert_eq!(skipper.skipped_steps, 1, "{at}");
            assert!(
                state_bits(&skipper) == before,
                "{at}: a skipped step moved a weight"
            );

            let (a, b) = (
                skipper.train_step(&finite, 0.1),
                fresh.train_step(&finite, 0.1),
            );
            assert!(a.is_finite(), "{at}");
            assert_eq!(a.to_bits(), b.to_bits(), "{at}: loss after the skip");
            assert!(
                state_bits(&skipper) == state_bits(&fresh),
                "{at}: weights after the skip"
            );
            assert_eq!((skipper.skipped_steps, fresh.skipped_steps), (1, 0), "{at}");
        }
    }
}
