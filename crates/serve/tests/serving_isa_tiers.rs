//! Serving identity under *forced* ISA tiers.
//!
//! Kept in its own test binary: the ISA override is process-global, so
//! forcing tiers must not race with other serving tests comparing outputs.
//! Within each forced tier, the served logits — one shard or two, whatever
//! the inert cache sizing — must be bitwise identical to the training
//! model's `DlrmModel::forward` on both Zipf and clustered traffic.

use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_kernels::gemm::micro::set_isa_override;
use dlrm_serve::{CacheSizing, ServeModel, ShardSpec, ShardedServeModel};
use dlrm_tensor::init::seeded_rng;

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(400, 256);
    cfg.dense_features = 8;
    cfg.bottom_mlp = vec![12, 8];
    cfg.emb_dim = 8;
    cfg.num_tables = 2;
    cfg.table_rows = vec![400, 50];
    cfg.lookups_per_table = 4;
    cfg.top_mlp = vec![8, 1];
    cfg
}

#[test]
fn cached_identity_holds_under_every_isa_tier() {
    let cfg = tiny_cfg();
    for isa in available_isas() {
        set_isa_override(Some(isa));
        for dist in [
            IndexDistribution::Zipf { s: 1.1 },
            IndexDistribution::Clustered {
                hot_fraction: 0.05,
                hot_prob: 0.9,
            },
        ] {
            let mut train = DlrmModel::new(
                &cfg,
                Execution::optimized(2),
                UpdateStrategy::RaceFree,
                PrecisionMode::Fp32,
                37,
            );
            let mut uncached =
                ServeModel::new(&cfg, Execution::optimized(2), CacheSizing::Disabled, 37);
            let mut cached = ServeModel::new(
                &cfg,
                Execution::optimized(2),
                CacheSizing::Fraction(0.02),
                37,
            );
            // The sharded engine must hold the same identity within each
            // forced tier (same process-global override, hence this file).
            let mut sharded = ShardedServeModel::new(
                &cfg,
                &ShardSpec {
                    shards: 2,
                    workers_per_shard: 1,
                    pin_cores: false,
                    cache: CacheSizing::Fraction(0.02),
                },
                37,
            );
            let mut rng = seeded_rng(41, 2);
            for round in 0..3 {
                let batch = MiniBatch::random(&cfg, 16, dist, &mut rng);
                let want = train.forward(&batch);
                assert_eq!(
                    uncached.forward(&batch),
                    want,
                    "{isa:?} {dist:?} round {round}: uncached"
                );
                assert_eq!(
                    cached.forward(&batch),
                    want,
                    "{isa:?} {dist:?} round {round}: cached"
                );
                assert_eq!(
                    sharded.forward(round % 2, &batch),
                    want,
                    "{isa:?} {dist:?} round {round}: sharded"
                );
            }
        }
    }
    set_isa_override(None);
}
