//! Quickstart: build a small DLRM, train it on a synthetic click log, and
//! watch the test-set ROC AUC climb.
//!
//! ```text
//! cargo run --release -p dlrm-repro --example quickstart
//! ```

use dlrm::layers::Execution;
use dlrm::prelude::*;
use dlrm_data::{ClickLog, DlrmConfig, IndexDistribution};
use std::sync::Arc;

fn main() {
    // A laptop-sized instance of the paper's Small configuration: same
    // topology (8 tables, E=64, 2-layer bottom MLP, deep top MLP), tables
    // capped at 50k rows.
    let cfg = DlrmConfig::small().scaled_down(50_000, 16);
    println!(
        "config: {} — {} tables x {} rows, E={}",
        cfg.name, cfg.num_tables, cfg.table_rows[0], cfg.emb_dim
    );

    // A synthetic click log with learnable structure (stands in for real
    // click data; see DESIGN.md).
    let log = ClickLog::new(&cfg, IndexDistribution::Zipf { s: 1.05 }, 7);

    // The optimized single-socket trainer: thread-pool kernels and the
    // race-free embedding update (the paper's best single-socket variant).
    let model = DlrmModel::new(
        &cfg,
        Execution::optimized(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        ),
        UpdateStrategy::RaceFree,
        PrecisionMode::Fp32,
        42,
    );

    let steps = 300;
    let mut trainer = Trainer::new(
        model,
        &log,
        TrainerOptions {
            lr: 0.1,
            batch_size: 128,
            batches_per_epoch: steps,
            eval_every_frac: 0.1,
            eval_batches: 8,
        },
    );

    let (auc0, _) = trainer.evaluate();
    println!("untrained AUC: {auc0:.4}\n");
    let rec = Arc::new(TimingRecorder::new());
    trainer.model.set_recorder(Some(Arc::clone(&rec)));
    println!(
        "{:>8}  {:>8}  {:>8}  {:>10}",
        "% epoch", "AUC", "logloss", "train loss"
    );
    for r in trainer.run_epoch() {
        println!(
            "{:>7.0}%  {:>8.4}  {:>8.4}  {:>10.4}",
            r.epoch_frac * 100.0,
            r.auc,
            r.logloss,
            r.train_loss
        );
    }

    let [e, m, r] =
        [OpKind::Embeddings, OpKind::Mlp, OpKind::Rest].map(|kind| rec.total(kind).as_secs_f64());
    let total = e + m + r;
    println!(
        "\n{:.1} ms/iteration — time split: embeddings {:.0}%, MLP {:.0}%, rest {:.0}%",
        total * 1e3 / steps as f64,
        e / total * 100.0,
        m / total * 100.0,
        r / total * 100.0
    );
}
