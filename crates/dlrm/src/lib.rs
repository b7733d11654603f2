//! # dlrm — the paper's core contribution: an optimized DLRM trainer
//!
//! A from-scratch implementation of Facebook's Deep Learning
//! Recommendation Model (Section II) with the single-socket optimizations
//! of Section III:
//!
//! * [`layers`] — fully-connected layers and MLP stacks in the `Y = W·X`
//!   convention, with a *reference* execution tier (naive single-threaded
//!   GEMMs — the PyTorch-v1.4-like baseline of Figure 7) and an
//!   *optimized* tier (thread-pool parallel GEMM kernels).
//! * [`embedding_layer`] — the EmbeddingBag stack over `dlrm_kernels`'
//!   Algorithm 1–4 kernels, with the update strategy selectable per run.
//! * [`interaction`] — the dot-product feature interaction (pairwise dots
//!   of all sparse/dense feature vectors) and its backward pass.
//! * [`model`] — the full network: bottom MLP ∥ embeddings → interaction →
//!   top MLP → BCE loss. An attached `dlrm_telemetry::TimingRecorder`
//!   ([`model::DlrmModel::set_recorder`]) receives Figure 8's
//!   Embeddings/MLP/Rest split.
//! * [`step`] — the one train step, generic over a rank boundary: the
//!   model above is its one-rank case, `dlrm_dist`'s trainer its
//!   hybrid-parallel case.
//! * [`precision`] — FP32 / Split-SGD-BF16 / FP24 training modes
//!   (Section VII) via bit-accurate emulation.
//! * [`metrics`] — ROC AUC (Figure 16's metric) and log-loss.
//! * [`trainer`] — the training loop over a synthetic click log with
//!   periodic test-set evaluation.
//!
//! Every `unsafe` block and `unsafe impl` in the crate says why it is sound
//! in a `// SAFETY:` comment; clippy enforces it.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod embedding_layer;
pub mod interaction;
pub mod layers;
pub mod metrics;
pub mod model;
pub mod precision;
pub mod step;
pub mod trainer;

/// Convenience re-exports for examples and downstream crates.
pub mod prelude {
    pub use crate::layers::Execution;
    pub use crate::metrics::roc_auc;
    pub use crate::model::DlrmModel;
    pub use crate::precision::PrecisionMode;
    pub use crate::trainer::{TrainReport, Trainer, TrainerOptions};
    pub use dlrm_kernels::embedding::UpdateStrategy;
    pub use dlrm_telemetry::{OpKind, TimingRecorder};
}
