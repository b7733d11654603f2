//! Figure 16 — training accuracy (ROC AUC vs % of epoch) under FP32,
//! BF16-Split-SGD and FP24, plus the paper's 8-LSB ablation.
//!
//! The Criteo Terabyte dataset is substituted by the synthetic click log
//! (see DESIGN.md); the model is a scaled MLPerf shape. The reproduced
//! claims: BF16-Split tracks FP32 to within ~0.001 AUC; FP24 sits visibly
//! below; 8 LSBs of optimizer state are not sufficient.

use dlrm::layers::Execution;
use dlrm::prelude::*;
use dlrm_bench::{header, paper, HarnessOpts, Table};
use dlrm_data::{ClickLog, DlrmConfig, IndexDistribution};

fn scaled_mlperf(paper_scale: bool) -> DlrmConfig {
    let mut cfg = DlrmConfig::mlperf().scaled_down(if paper_scale { 200_000 } else { 20_000 }, 8);
    if !paper_scale {
        // Shrink the MLPs so three full training runs finish in minutes on
        // a small host; shapes keep the MLPerf structure (3-layer bottom into
        // E, deep top).
        cfg.bottom_mlp = vec![128, 64, 32];
        cfg.emb_dim = 32;
        cfg.top_mlp = vec![128, 64, 32, 1];
    }
    cfg
}

fn run_mode(
    cfg: &DlrmConfig,
    log: &ClickLog,
    mode: PrecisionMode,
    opts: &TrainerOptions,
) -> Vec<TrainReport> {
    let model = DlrmModel::new(
        cfg,
        Execution::optimized(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        ),
        UpdateStrategy::RaceFree,
        mode,
        4242,
    );
    Trainer::new(model, log, opts.clone()).run_epoch()
}

fn main() {
    let hopts = HarnessOpts::from_args();
    header(
        "Figure 16: convergence with mixed-precision SGD (synthetic click log)",
        "Curves: FP32 / BF16 Split-SGD / FP24 (+8-LSB ablation). Paper: split\n\
         tracks FP32 within ~0.001 AUC; FP24 visibly lower.",
    );
    let cfg = scaled_mlperf(hopts.paper_scale);
    let log = ClickLog::new(&cfg, IndexDistribution::Zipf { s: 1.05 }, 17);
    let opts = TrainerOptions {
        lr: 0.15,
        batch_size: 128,
        batches_per_epoch: if hopts.paper_scale { 2000 } else { 500 },
        eval_every_frac: 0.05,
        eval_batches: 8,
    };

    let modes = [
        PrecisionMode::Fp32,
        PrecisionMode::Bf16Split,
        PrecisionMode::Fp24,
        PrecisionMode::Bf16Split8,
        PrecisionMode::Fp16Stochastic,
    ];
    let mut traces = Vec::new();
    for mode in modes {
        eprintln!("training {mode} ...");
        traces.push(run_mode(&cfg, &log, mode, &opts));
    }

    let mut t = Table::new(&[
        "% epoch",
        "FP32 (Ref)",
        "BF16 (SplitSGD)",
        "FP24 (1-8-15)",
        "BF16 (Split, 8 LSBs)",
        "FP16 (stochastic)",
    ]);
    for i in 0..traces[0].len() {
        let mut row = vec![format!("{:.0}%", traces[0][i].epoch_frac * 100.0)];
        for trace in &traces {
            row.push(format!("{:.4}", trace[i].auc));
        }
        t.row(row);
    }
    t.print();

    let final_fp32 = traces[0].last().unwrap().auc;
    let final_split = traces[1].last().unwrap().auc;
    let final_fp24 = traces[2].last().unwrap().auc;
    println!(
        "\nFinal AUC: FP32 {final_fp32:.4}, BF16-Split {final_split:.4}, FP24 {final_fp24:.4}"
    );
    println!(
        "FP32 vs BF16-Split gap: {:.4} (paper: < {:.3})",
        (final_fp32 - final_split).abs(),
        paper::fig16::SPLIT_GAP_MAX
    );
    println!(
        "Paper final AUCs (Criteo TB): FP32 {:.4}, Split {:.4}, FP24 {:.4}",
        paper::fig16::FP32_FINAL_AUC,
        paper::fig16::BF16_SPLIT_FINAL_AUC,
        paper::fig16::FP24_FINAL_AUC
    );
}
