//! The full DLRM network (Figure 1): bottom MLP ∥ embedding tables →
//! dot-product interaction → top MLP → BCE loss.

use crate::embedding_layer::EmbeddingLayer;
use crate::interaction::Interaction;
use crate::layers::{Activation, Execution, Mlp};
use crate::precision::{ParamOptimizer, PrecisionMode};
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
use dlrm_telemetry::{time_opt, OpKind, TimingRecorder};
use dlrm_tensor::aligned::HUGE_PAGE;
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A trainable DLRM instance.
pub struct DlrmModel {
    /// The configuration this model was built from.
    pub cfg: DlrmConfig,
    /// Kernel tier.
    pub exec: Execution,
    /// Weight-storage precision.
    pub precision: PrecisionMode,
    /// Bottom (dense-feature) MLP; output dim = `cfg.emb_dim`.
    pub bottom: Mlp,
    /// Embedding tables.
    pub tables: Vec<EmbeddingLayer>,
    /// Interaction op.
    pub interaction: Interaction,
    /// Top MLP ending in the 1-unit logit layer.
    pub top: Mlp,
    /// Steps [`DlrmModel::train_step`] skipped because their loss was not
    /// finite: no backward pass ran and no parameter moved.
    pub skipped_steps: u64,
    /// Per-Linear optimizers (bottom layers then top layers), for non-FP32
    /// modes.
    mlp_opts: Vec<ParamOptimizer>,
    /// Per-table optimizers, for non-FP32 modes.
    emb_opts: Vec<ParamOptimizer>,
    /// Where [`OpKind::Embeddings`], [`OpKind::Mlp`] and [`OpKind::Rest`]
    /// time goes (Figure 8), when attached.
    pub(crate) recorder: Option<Arc<TimingRecorder>>,
}

impl DlrmModel {
    /// RNG stream id of the bottom MLP.
    pub const BOTTOM_STREAM: u64 = 0xB0770;
    /// RNG stream id of the top MLP.
    pub const TOP_STREAM: u64 = 0x70F;
    /// RNG stream id base for table `t` (stream = base + t).
    pub const TABLE_STREAM: u64 = 0x7AB_0000;

    /// Builds table `t` of `cfg` exactly as [`DlrmModel::new`] would —
    /// exposed so model-parallel ranks can construct only their tables.
    pub fn build_table(
        cfg: &DlrmConfig,
        t: usize,
        strategy: UpdateStrategy,
        seed: u64,
    ) -> EmbeddingLayer {
        EmbeddingLayer::new(
            cfg.table_rows[t] as usize,
            cfg.emb_dim,
            strategy,
            &mut seeded_rng(seed, Self::TABLE_STREAM + t as u64),
        )
    }

    /// Builds tables `tables` of `cfg` exactly as [`DlrmModel::build_table`]
    /// would, in that order. Tables of at least [`HUGE_PAGE`] bytes are
    /// built across `exec`'s team: each member claims the next unbuilt one
    /// until none is left, so uneven tables still balance. Each table
    /// draws from its own stream, so no bit depends on which member built
    /// it. A panic while building a table is re-thrown here once the whole
    /// team has finished.
    ///
    /// Smaller tables are built on the caller. A table that large is a
    /// mapping of its own, unmapped on drop whichever thread built it
    /// ([`AlignedVec`](dlrm_tensor::AlignedVec)); a smaller one comes from
    /// the building thread's malloc arena, which keeps freed memory for
    /// that thread.
    ///
    /// # Panics
    /// On a team of two or more, when called from inside a job on that
    /// team's pool ([`ThreadPool::broadcast`] is not reentrant).
    ///
    /// [`ThreadPool::broadcast`]: dlrm_kernels::ThreadPool::broadcast
    pub fn build_tables(
        cfg: &DlrmConfig,
        tables: &[usize],
        strategy: UpdateStrategy,
        exec: &Execution,
        seed: u64,
    ) -> Vec<EmbeddingLayer> {
        let slots: Vec<OnceLock<EmbeddingLayer>> = tables.iter().map(|_| OnceLock::new()).collect();
        let build = |i: usize| {
            // Each index is built once, so its slot is still empty.
            let _ = slots[i].set(Self::build_table(cfg, tables[i], strategy, seed));
        };
        let next = AtomicUsize::new(0);
        let claim = |_member| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&t) = tables.get(i) else { break };
            if cfg.table_bytes(t) >= HUGE_PAGE as u64 {
                build(i);
            }
        };
        if let Some(pool) = exec.pool() {
            pool.broadcast(claim);
        }
        for (i, slot) in slots.iter().enumerate() {
            if slot.get().is_none() {
                build(i);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every table is built"))
            .collect()
    }

    /// Builds a model for `cfg`. All randomness comes from `seed`, with an
    /// independent stream per component (bottom MLP, each table, top MLP)
    /// so a distributed instance can reconstruct exactly the same weights
    /// for whichever components a rank owns. The tables are built across
    /// `exec`'s team ([`DlrmModel::build_tables`]), so, like a train step,
    /// this must not be called from inside a job on that team's pool.
    pub fn new(
        cfg: &DlrmConfig,
        exec: Execution,
        strategy: UpdateStrategy,
        precision: PrecisionMode,
        seed: u64,
    ) -> Self {
        let mut bottom = Mlp::new(
            cfg.dense_features,
            &cfg.bottom_mlp,
            Activation::Relu,
            &mut seeded_rng(seed, Self::BOTTOM_STREAM),
        )
        .without_input_grad(); // dense features are a leaf
        assert_eq!(
            bottom.out_features(),
            cfg.emb_dim,
            "bottom MLP must project to the embedding dimension"
        );
        let all: Vec<usize> = (0..cfg.num_tables).collect();
        let mut tables = Self::build_tables(cfg, &all, strategy, &exec, seed);
        let mut top = Mlp::new(
            cfg.interaction_output_dim(),
            &cfg.top_mlp,
            Activation::None,
            &mut seeded_rng(seed, Self::TOP_STREAM),
        );

        let (mlp_opts, emb_opts) = if precision == PrecisionMode::Fp32 {
            (Vec::new(), Vec::new())
        } else {
            // Each tensor's rounding stream is its position among the
            // model's optimizers: MLP layers first, then tables.
            let mlp_opts: Vec<ParamOptimizer> = bottom
                .layers
                .iter_mut()
                .chain(top.layers.iter_mut())
                .enumerate()
                .map(|(i, l)| ParamOptimizer::new(precision, l.w.as_mut_slice(), i as u64))
                .collect();
            let first = mlp_opts.len();
            let emb_opts = tables
                .iter_mut()
                .enumerate()
                .map(|(t, tab)| {
                    ParamOptimizer::new(precision, tab.weight.as_mut_slice(), (first + t) as u64)
                })
                .collect();
            (mlp_opts, emb_opts)
        };

        DlrmModel {
            interaction: Interaction::new(cfg.emb_dim),
            cfg: cfg.clone(),
            exec,
            precision,
            bottom,
            tables,
            top,
            skipped_steps: 0,
            mlp_opts,
            emb_opts,
            recorder: None,
        }
    }

    /// Attaches (or with `None` detaches) a recorder that
    /// [`DlrmModel::forward`] and [`DlrmModel::train_step`] charge
    /// Figure 8's Embeddings / MLP / Rest time to. With none attached a
    /// step takes no timestamps.
    pub fn set_recorder(&mut self, rec: Option<Arc<TimingRecorder>>) {
        self.recorder = rec;
    }

    /// Forward pass; returns the per-sample logits.
    pub fn forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        let exec = self.exec.clone();
        let rec = self.recorder.as_deref();
        let z0 = time_opt(rec, OpKind::Mlp, || {
            self.bottom.forward(&exec, &batch.dense)
        });
        let table_outs: Vec<Matrix> = time_opt(rec, OpKind::Embeddings, || {
            self.tables
                .iter_mut()
                .enumerate()
                .map(|(t, layer)| layer.forward(&exec, &batch.indices[t], &batch.offsets[t]))
                .collect()
        });
        let inter = time_opt(rec, OpKind::Rest, || {
            self.interaction.forward(&exec, &z0, &table_outs)
        });
        let logits = time_opt(rec, OpKind::Mlp, || self.top.forward(&exec, &inter));
        debug_assert_eq!(logits.rows(), 1);
        logits.as_slice().to_vec()
    }

    /// Forward + predicted click probabilities.
    pub fn predict_proba(&mut self, batch: &MiniBatch) -> Vec<f32> {
        self.forward(batch)
            .into_iter()
            .map(dlrm_kernels::activations::sigmoid)
            .collect()
    }

    /// One full training iteration (forward, loss, backward, update).
    /// Returns the minibatch loss; a non-finite one skips backward and update
    /// ([`DlrmModel::skipped_steps`]). FP32 uses [`Mlp::backward_sgd`].
    pub fn train_step(&mut self, batch: &MiniBatch, lr: f32) -> f64 {
        let exec = self.exec.clone();
        let n = batch.batch_size();
        let fp32 = self.precision == PrecisionMode::Fp32;
        let logits = self.forward(batch);
        let rec = self.recorder.as_deref();

        // Loss + gradient w.r.t. logits.
        let (loss, dlogits) = time_opt(rec, OpKind::Rest, || {
            let loss = bce_with_logits_loss(&logits, &batch.labels);
            let mut g = vec![0.0f32; n];
            bce_with_logits_backward(&logits, &batch.labels, &mut g);
            (loss, Matrix::from_slice(1, n, &g))
        });
        if !loss.is_finite() {
            self.skipped_steps += 1;
            return loss;
        }

        // Top MLP backward (and, in FP32, its update).
        let d_inter = time_opt(rec, OpKind::Mlp, || {
            if fp32 {
                self.top.backward_sgd(&exec, dlogits, lr)
            } else {
                self.top.backward(&exec, dlogits)
            }
        });

        // Interaction backward.
        let (d_bottom, d_tables) =
            time_opt(rec, OpKind::Rest, || self.interaction.backward(&d_inter));

        // Embedding backward + update.
        time_opt(rec, OpKind::Embeddings, || {
            if fp32 {
                for (layer, grad) in self.tables.iter_mut().zip(&d_tables) {
                    layer.backward_update(&exec, grad, lr);
                }
            } else {
                // Precision path: per-lookup sparse rows through the
                // mode's optimizer (deterministic index-list order).
                for (t, layer) in self.tables.iter_mut().enumerate() {
                    let opt = &mut self.emb_opts[t];
                    let offsets = &batch.offsets[t];
                    let indices = &batch.indices[t];
                    for bag in 0..n {
                        let grad = d_tables[t].row(bag);
                        #[allow(clippy::needless_range_loop)] // CSR bag walk
                        for s in offsets[bag]..offsets[bag + 1] {
                            opt.step_row(&mut layer.weight, indices[s] as usize, grad, lr);
                        }
                    }
                }
            }
        });

        // Bottom MLP backward (and, in FP32, its update), then the dense
        // update of the other modes.
        time_opt(rec, OpKind::Mlp, || {
            if fp32 {
                self.bottom.backward_sgd(&exec, d_bottom, lr);
                return;
            }
            self.bottom.backward(&exec, d_bottom);
            for (layer, opt) in self
                .bottom
                .layers
                .iter_mut()
                .chain(self.top.layers.iter_mut())
                .zip(self.mlp_opts.iter_mut())
            {
                // Element-wise on the blocked planes, which share one
                // layout.
                opt.step(layer.w.as_mut_slice(), layer.dw.as_slice(), lr);
                // Biases stay FP32 (negligible storage; matches the
                // paper's weight-focused scheme).
                dlrm_kernels::sgd::sgd_step(&mut layer.b, &layer.db, lr);
            }
        });
        loss
    }

    /// Total parameter count (MLPs + tables).
    pub fn param_count(&self) -> usize {
        self.bottom.param_count()
            + self.top.param_count()
            + self.tables.iter().map(|t| t.weight.len()).sum::<usize>()
    }

    /// Bytes of iteration-persistent embedding scratch (saved batches,
    /// `dW` buffers, bag plans) across all tables. Constant after the
    /// first step of a fixed batch shape — see
    /// `crates/dlrm/tests/alloc_growth.rs`.
    pub fn embedding_scratch_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.scratch_bytes()).sum()
    }

    /// Bytes of persistent MLP storage (blocked weights and gradients,
    /// activation residency) across both MLPs. Grow-only, constant after
    /// the first step of a fixed batch shape; no `dw` after [`Mlp::backward_sgd`].
    pub fn mlp_scratch_bytes(&self) -> usize {
        self.bottom.scratch_bytes() + self.top.scratch_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_data::IndexDistribution;

    fn tiny_cfg() -> DlrmConfig {
        let mut cfg = DlrmConfig::small().scaled_down(64, 256);
        // Shrink the MLPs so tests are fast.
        cfg.dense_features = 16;
        cfg.bottom_mlp = vec![16, 8];
        cfg.emb_dim = 8;
        cfg.num_tables = 3;
        cfg.table_rows = vec![64, 32, 16];
        cfg.lookups_per_table = 2;
        cfg.top_mlp = vec![16, 1];
        cfg
    }

    fn tiny_batch(cfg: &DlrmConfig, n: usize, seed: u64) -> MiniBatch {
        MiniBatch::random(cfg, n, IndexDistribution::Uniform, &mut seeded_rng(seed, 9))
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let cfg = tiny_cfg();
        let batch = tiny_batch(&cfg, 12, 1);
        let mut m1 = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            42,
        );
        let mut m2 = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            42,
        );
        let l1 = m1.forward(&batch);
        let l2 = m2.forward(&batch);
        assert_eq!(l1.len(), 12);
        assert_eq!(l1, l2, "same seed => identical model");
    }

    #[test]
    fn reference_and_optimized_train_identically_modulo_fp() {
        let cfg = tiny_cfg();
        let mut m_ref = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            7,
        );
        let mut m_opt = DlrmModel::new(
            &cfg,
            Execution::optimized(4),
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            7,
        );
        for step in 0..5 {
            let batch = tiny_batch(&cfg, 16, 100 + step);
            let l_ref = m_ref.train_step(&batch, 0.05);
            let l_opt = m_opt.train_step(&batch, 0.05);
            assert!(
                (l_ref - l_opt).abs() < 1e-4,
                "step {step}: {l_ref} vs {l_opt}"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let cfg = tiny_cfg();
        let batch = tiny_batch(&cfg, 64, 3);
        let mut model = DlrmModel::new(
            &cfg,
            Execution::optimized(2),
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            11,
        );
        let first = model.train_step(&batch, 0.2);
        let mut last = first;
        for _ in 0..60 {
            last = model.train_step(&batch, 0.2);
        }
        assert!(
            last < first * 0.7,
            "overfitting a fixed batch must reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn recorder_buckets_populate() {
        let cfg = tiny_cfg();
        let batch = tiny_batch(&cfg, 8, 5);
        let mut model = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            1,
        );
        let rec = Arc::new(TimingRecorder::new());
        model.set_recorder(Some(Arc::clone(&rec)));
        let _ = model.train_step(&batch, 0.1);
        let snap = rec.snapshot();
        let mut kinds: Vec<_> = snap.keys().copied().collect();
        kinds.sort();
        assert_eq!(kinds, [OpKind::Embeddings, OpKind::Mlp, OpKind::Rest]);
        assert!(snap.values().all(|d| !d.is_zero()), "{snap:?}");
        // Detached, a step charges nothing.
        model.set_recorder(None);
        rec.reset();
        let _ = model.train_step(&batch, 0.1);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn bf16_split_trains_close_to_fp32() {
        let cfg = tiny_cfg();
        let mut fp32 = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            21,
        );
        let mut split = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Bf16Split,
            21,
        );
        let mut l_fp32 = 0.0;
        let mut l_split = 0.0;
        for step in 0..20 {
            let batch = tiny_batch(&cfg, 32, 500 + step);
            l_fp32 = fp32.train_step(&batch, 0.1);
            l_split = split.train_step(&batch, 0.1);
        }
        assert!(
            (l_fp32 - l_split).abs() < 0.05,
            "bf16-split loss {l_split} diverged from fp32 loss {l_fp32}"
        );
    }

    #[test]
    fn bf16_split_weights_stay_bf16() {
        let cfg = tiny_cfg();
        let mut model = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Bf16Split,
            5,
        );
        let batch = tiny_batch(&cfg, 16, 6);
        let _ = model.train_step(&batch, 0.1);
        for layer in model.bottom.layers.iter().chain(model.top.layers.iter()) {
            for &x in layer.w.as_slice() {
                assert_eq!(x.to_bits() & 0xFFFF, 0, "MLP weight not bf16");
            }
        }
        for t in &model.tables {
            for &x in t.weight.as_slice() {
                assert_eq!(x.to_bits() & 0xFFFF, 0, "table weight not bf16");
            }
        }
    }

    #[test]
    fn param_count_matches_config() {
        let cfg = tiny_cfg();
        let model = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            0,
        );
        let table_params: usize = cfg
            .table_rows
            .iter()
            .map(|&m| m as usize * cfg.emb_dim)
            .sum();
        assert_eq!(
            model.param_count(),
            model.bottom.param_count() + model.top.param_count() + table_params
        );
    }
}
