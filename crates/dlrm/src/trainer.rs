//! Training loop with periodic test-set evaluation — the driver behind the
//! Figure 16 convergence study and the quickstart example.

use crate::metrics::{log_loss, roc_auc};
use crate::model::DlrmModel;
use dlrm_data::ClickLog;

/// Options for a training run.
#[derive(Debug, Clone)]
pub struct TrainerOptions {
    /// SGD learning rate.
    pub lr: f32,
    /// Training minibatch size.
    pub batch_size: usize,
    /// Batches considered one "epoch" for reporting (Figure 16's x-axis is
    /// % of epoch).
    pub batches_per_epoch: usize,
    /// Evaluation cadence as a fraction of an epoch (Figure 16 tests every
    /// 5%).
    pub eval_every_frac: f64,
    /// Test batches per evaluation.
    pub eval_batches: usize,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            lr: 0.1,
            batch_size: 128,
            batches_per_epoch: 200,
            eval_every_frac: 0.05,
            eval_batches: 4,
        }
    }
}

/// One evaluation row of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Training batches consumed so far.
    pub step: usize,
    /// Fraction of the epoch completed.
    pub epoch_frac: f64,
    /// Test-set ROC AUC.
    pub auc: f64,
    /// Test-set log-loss.
    pub logloss: f64,
    /// Mean training loss since the previous report.
    pub train_loss: f64,
}

/// A model + click log + options, ready to run.
pub struct Trainer<'a> {
    /// The model being trained.
    pub model: DlrmModel,
    log: &'a ClickLog,
    opts: TrainerOptions,
}

impl<'a> Trainer<'a> {
    /// Creates a trainer; the model must have been built for `log.config()`.
    pub fn new(model: DlrmModel, log: &'a ClickLog, opts: TrainerOptions) -> Self {
        Trainer { model, log, opts }
    }

    /// Evaluates the current model on held-out batches, with the model's
    /// recorder detached: it times train steps only.
    pub fn evaluate(&mut self) -> (f64, f64) {
        let rec = self.model.recorder.take();
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for b in 0..self.opts.eval_batches {
            let batch = self.log.batch(self.opts.batch_size, b as u64, 1);
            scores.extend(self.model.predict_proba(&batch));
            labels.extend_from_slice(&batch.labels);
        }
        self.model.recorder = rec;
        (roc_auc(&scores, &labels), log_loss(&scores, &labels))
    }

    /// Trains for one epoch, returning the evaluation trace.
    pub fn run_epoch(&mut self) -> Vec<TrainReport> {
        let total = self.opts.batches_per_epoch;
        let eval_every = ((total as f64 * self.opts.eval_every_frac).round() as usize).max(1);
        let mut reports = Vec::new();
        let mut loss_acc = 0.0;
        let mut loss_n = 0usize;
        for step in 1..=total {
            let batch = self.log.batch(self.opts.batch_size, step as u64, 0);
            loss_acc += self.model.train_step(&batch, self.opts.lr);
            loss_n += 1;
            if step % eval_every == 0 || step == total {
                let (auc, ll) = self.evaluate();
                reports.push(TrainReport {
                    step,
                    epoch_frac: step as f64 / total as f64,
                    auc,
                    logloss: ll,
                    train_loss: loss_acc / loss_n as f64,
                });
                loss_acc = 0.0;
                loss_n = 0;
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Execution;
    use crate::precision::PrecisionMode;
    use dlrm_data::{DlrmConfig, IndexDistribution};
    use dlrm_kernels::embedding::UpdateStrategy;

    fn tiny_setup() -> (DlrmConfig, ClickLog) {
        let mut cfg = DlrmConfig::small().scaled_down(64, 256);
        cfg.dense_features = 8;
        cfg.bottom_mlp = vec![16, 8];
        cfg.emb_dim = 8;
        cfg.num_tables = 2;
        cfg.table_rows = vec![48, 24];
        cfg.lookups_per_table = 2;
        cfg.top_mlp = vec![16, 1];
        let log = ClickLog::new(&cfg, IndexDistribution::Uniform, 33);
        (cfg, log)
    }

    #[test]
    fn training_improves_auc_over_untrained() {
        let (cfg, log) = tiny_setup();
        let model = DlrmModel::new(
            &cfg,
            Execution::optimized(2),
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            1,
        );
        let mut trainer = Trainer::new(
            model,
            &log,
            TrainerOptions {
                lr: 0.15,
                batch_size: 64,
                batches_per_epoch: 450,
                eval_every_frac: 0.25,
                eval_batches: 6,
            },
        );
        let (auc0, _) = trainer.evaluate();
        let reports = trainer.run_epoch();
        let auc_end = reports.last().unwrap().auc;
        assert!(
            auc_end > auc0 + 0.15 && auc_end > 0.75,
            "AUC should climb well above chance: {auc0:.3} -> {auc_end:.3}"
        );
    }

    #[test]
    fn evaluate_charges_nothing_to_the_recorder() {
        use dlrm_telemetry::{OpKind, TimingRecorder};
        use std::sync::Arc;
        let (cfg, log) = tiny_setup();
        let model = DlrmModel::new(
            &cfg,
            Execution::optimized(2),
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            3,
        );
        let opts = TrainerOptions {
            batch_size: 16,
            eval_batches: 2,
            ..Default::default()
        };
        let mut trainer = Trainer::new(model, &log, opts);
        let rec = Arc::new(TimingRecorder::new());
        trainer.model.set_recorder(Some(Arc::clone(&rec)));
        trainer.model.train_step(&log.batch(16, 0, 0), 0.1);
        let totals = || [OpKind::Embeddings, OpKind::Mlp, OpKind::Rest].map(|k| rec.total(k));
        let before = totals();
        trainer.evaluate();
        assert_eq!(totals(), before, "evaluate charged the recorder");
        // Still attached: the next train step is charged.
        trainer.model.train_step(&log.batch(16, 1, 0), 0.1);
        assert!(totals().iter().zip(before).all(|(a, b)| *a > b));
    }

    #[test]
    fn reports_cover_the_epoch() {
        let (cfg, log) = tiny_setup();
        let model = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            2,
        );
        let mut trainer = Trainer::new(
            model,
            &log,
            TrainerOptions {
                batches_per_epoch: 20,
                eval_every_frac: 0.25,
                batch_size: 16,
                eval_batches: 2,
                ..Default::default()
            },
        );
        let reports = trainer.run_epoch();
        assert_eq!(reports.len(), 4);
        assert!((reports.last().unwrap().epoch_frac - 1.0).abs() < 1e-12);
        assert!(reports.windows(2).all(|w| w[0].step < w[1].step));
    }
}
