//! Hybrid-parallel distributed training on threads-as-ranks: model-parallel
//! embeddings + data-parallel MLPs, with both embedding-exchange
//! strategies, checked against the single-process trainer.
//!
//! ```text
//! cargo run --release -p dlrm-repro --example distributed_training
//! ```

use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_dist::{distributed::run_training, DistOptions, ExchangeStrategy};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_tensor::init::seeded_rng;

fn main() {
    // A shrunken Small config: 8 tables so we can scale to 8 thread-ranks.
    let mut cfg = DlrmConfig::small().scaled_down(10_000, 64);
    cfg.dense_features = 32;
    cfg.bottom_mlp = vec![64, 32];
    cfg.emb_dim = 32;
    cfg.top_mlp = vec![64, 32, 1];
    let gn = 64usize;
    let steps = 6usize;
    let lr = 0.1f32;
    let seed = 2024u64;

    // Global minibatches — every rank slices the same stream.
    let batches: Vec<MiniBatch> = (0..steps)
        .map(|i| {
            MiniBatch::random(
                &cfg,
                gn,
                IndexDistribution::Uniform,
                &mut seeded_rng(1_000 + i as u64, 3),
            )
        })
        .collect();

    // Single-process reference trajectory.
    let mut reference = DlrmModel::new(
        &cfg,
        Execution::optimized(2),
        UpdateStrategy::RaceFree,
        PrecisionMode::Fp32,
        seed,
    );
    let ref_losses: Vec<f64> = batches
        .iter()
        .map(|b| reference.train_step(b, lr))
        .collect();
    println!(
        "single-process loss trajectory: {:?}\n",
        round3(&ref_losses)
    );

    for strategy in ExchangeStrategy::ALL {
        for ranks in [2usize, 4, 8] {
            let opts = DistOptions {
                strategy,
                seed,
                ..Default::default()
            };
            let per_rank = run_training(&cfg, ranks, &opts, &batches, lr);
            // Mean of local losses = the global-batch loss.
            let mean: Vec<f64> = (0..steps)
                .map(|s| per_rank.iter().map(|r| r[s]).sum::<f64>() / ranks as f64)
                .collect();
            let max_dev = mean
                .iter()
                .zip(&ref_losses)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            println!(
                "{strategy:<14} R={ranks}:  losses {:?}  (max deviation vs single-process: {max_dev:.2e})",
                round3(&mean)
            );
            assert!(
                max_dev < 1e-2,
                "distributed run diverged from the single-process reference"
            );
        }
        println!();
    }
    println!("All strategies at all rank counts reproduce the single-process trajectory.");
}

fn round3(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
