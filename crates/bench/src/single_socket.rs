//! Shared driver for the single-socket end-to-end measurements
//! (Figures 7 and 8): trains a scaled DLRM for a few iterations under the
//! reference tier and each optimized update strategy, recording time and
//! the per-op-class split. The optimized bars run the train step's own
//! embedding kernels — the fused `embedding::backward_update` under the
//! bar's strategy; only the `framework_naive` baseline materializes `dW`.

use dlrm::layers::Execution;
use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_tensor::init::seeded_rng;

/// One measured bar of Figure 7/8.
pub struct SingleSocketRow {
    /// Config name ("Small" / "MLPerf").
    pub config: String,
    /// Strategy label (Figure 7's bar names).
    pub label: String,
    /// ms per iteration.
    pub ms_per_iter: f64,
    /// (embeddings, mlp, rest) fractions.
    pub split: (f64, f64, f64),
}

/// The scaled Small config: Table I shapes with tables capped for this
/// machine. Uniform random indices (the paper's random dataset) — little
/// update contention.
pub fn small_scaled(paper_scale: bool) -> (DlrmConfig, IndexDistribution) {
    let cfg = if paper_scale {
        DlrmConfig::small()
    } else {
        DlrmConfig::small().scaled_down(100_000, 8)
    };
    (cfg, IndexDistribution::Uniform)
}

/// The scaled MLPerf config: 26 tables, P=1, and a *clustered* index
/// distribution standing in for the Criteo Terabyte reuse pattern that
/// causes the contention of Figure 7's right half.
pub fn mlperf_scaled(paper_scale: bool) -> (DlrmConfig, IndexDistribution) {
    let cfg = if paper_scale {
        DlrmConfig::mlperf()
    } else {
        DlrmConfig::mlperf().scaled_down(100_000, 8)
    };
    (
        cfg,
        IndexDistribution::Clustered {
            hot_fraction: 0.0005,
            hot_prob: 0.7,
        },
    )
}

/// Measures one (config, tier) cell over `iters` training iterations.
///
/// `framework_naive` selects the Figure 7 baseline: optimized (MKL-class)
/// MLPs but the framework's functionality-first embedding kernels — the
/// configuration the paper actually profiled as "Reference".
pub fn measure(
    cfg: &DlrmConfig,
    dist: IndexDistribution,
    exec: Execution,
    strategy: UpdateStrategy,
    framework_naive: bool,
    label: &str,
    iters: usize,
) -> SingleSocketRow {
    let mut model = DlrmModel::new(cfg, exec, strategy, PrecisionMode::Fp32, 7);
    if framework_naive {
        for table in &mut model.tables {
            table.framework_naive = true;
        }
    }
    let mut rng = seeded_rng(99, 0);
    let batches: Vec<MiniBatch> = (0..iters.min(4))
        .map(|_| MiniBatch::random(cfg, cfg.mb_single, dist, &mut rng))
        .collect();
    // Warm-up iteration (first touch of the tables).
    let _ = model.train_step(&batches[0], 0.01);
    model.profiler.reset();
    for i in 0..iters {
        let _ = model.train_step(&batches[i % batches.len()], 0.01);
    }
    SingleSocketRow {
        config: cfg.name.clone(),
        label: label.to_string(),
        ms_per_iter: model.profiler.ms_per_iter(),
        split: model.profiler.fractions(),
    }
}

/// Runs all four Figure 7 bars for one config.
pub fn run_config(
    cfg: &DlrmConfig,
    dist: IndexDistribution,
    threads: usize,
    iters: usize,
) -> Vec<SingleSocketRow> {
    let mut rows = Vec::new();
    rows.push(measure(
        cfg,
        dist,
        Execution::optimized(threads),
        UpdateStrategy::RaceFree,
        true,
        "Reference",
        // The reference tier is painfully slow by design; fewer iterations.
        iters.div_ceil(2),
    ));
    for strategy in [
        UpdateStrategy::AtomicXchg,
        UpdateStrategy::Rtm,
        UpdateStrategy::RaceFree,
    ] {
        rows.push(measure(
            cfg,
            dist,
            Execution::optimized(threads),
            strategy,
            false,
            &strategy.to_string(),
            iters,
        ));
    }
    rows
}
