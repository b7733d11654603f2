//! The one train step (DESIGN.md §18).
//!
//! [`train_step`] fixes the stages, their order, the loss and what each
//! stage is charged to. A [`RankBoundary`] decides the three things that
//! differ between a single process and one rank of the hybrid-parallel
//! trainer: where the pooled table slices come from, where the table
//! gradients go and where the MLP gradients go. `DlrmModel` passes the
//! one-rank boundary and `dlrm_dist::DistDlrm` the hybrid one; the body is
//! monomorphised for each.

use crate::interaction::Interaction;
use crate::layers::{Execution, Mlp};
use dlrm_data::MiniBatch;
use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
use dlrm_telemetry::{time_opt, OpKind, TimingRecorder};
use dlrm_tensor::Matrix;
use std::borrow::Cow;

/// The recorder bucket of each kind of stage: a caller's vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct StageKinds {
    /// Table look-ups and updates.
    pub embeddings: OpKind,
    /// MLP passes and updates.
    pub mlp: OpKind,
    /// Interaction and loss.
    pub rest: OpKind,
}

/// Which replicated MLP a backward runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tower {
    /// The dense-feature MLP.
    Bottom = 0,
    /// The MLP ending in the logit.
    Top = 1,
}

/// What one step runs on and over.
pub struct Ctx<'a> {
    /// Kernel tier and team.
    pub exec: &'a Execution,
    /// The global batch: every rank passes the same one.
    pub global: &'a MiniBatch,
    /// Learning rate (unused by a forward).
    pub lr: f32,
    /// Where stages are charged, if anywhere.
    pub rec: Option<&'a TimingRecorder>,
}

/// The dense stack every rank holds, borrowed for one step.
pub struct Dense<'a> {
    /// Bottom MLP.
    pub bottom: &'a mut Mlp,
    /// Interaction op.
    pub interaction: &'a mut Interaction,
    /// Top MLP.
    pub top: &'a mut Mlp,
    /// Scratch for the logit gradient.
    pub dlogits: &'a mut Vec<f32>,
}

/// What differs between the callers of [`train_step`]. A boundary charges
/// its own table and update work, to [`Self::KINDS`] or to a collective's
/// buckets, so that no wait is nested inside a compute charge.
pub trait RankBoundary {
    /// Where this caller's stages are charged.
    const KINDS: StageKinds;

    /// This rank's samples of `global`: all of them, by default.
    fn local<'b>(&self, global: &'b MiniBatch) -> Cow<'b, MiniBatch> {
        Cow::Borrowed(global)
    }

    /// The table side of the forward, run around `bottom_forward`. Returns
    /// the bottom MLP's output and this rank's pooled `n × E` slice of
    /// every table, in table order.
    fn forward(&mut self, cx: &Ctx, bottom_forward: impl FnOnce() -> Matrix)
        -> (Matrix, &[Matrix]);

    /// Whether the backward runs for `loss`: always, by default.
    fn admit(&mut self, _loss: f64) -> bool {
        true
    }

    /// `mlp`'s backward from `dy`, its weight gradients sent to this
    /// boundary's destination; returns the input gradient.
    fn mlp_backward(&mut self, cx: &Ctx, mlp: &mut Mlp, tower: Tower, dy: Matrix) -> Matrix;

    /// Sends the slices' gradients `d_tables` to their tables and updates
    /// them, running `bottom_backward` where it fits.
    fn table_backward(
        &mut self,
        cx: &Ctx,
        d_tables: &[Matrix],
        bottom_backward: impl FnOnce(&mut Self),
    );

    /// Applies whatever MLP update [`RankBoundary::mlp_backward`] left.
    fn update_mlps(&mut self, _cx: &Ctx, _bottom: &mut Mlp, _top: &mut Mlp) {}
}

/// The forward: bottom MLP ∥ tables, then interaction and top MLP over
/// `local`'s samples. Returns the `1 × n` logits.
pub fn forward<B: RankBoundary>(b: &mut B, d: &mut Dense, cx: &Ctx, local: &MiniBatch) -> Matrix {
    let (k, exec, rec) = (B::KINDS, cx.exec, cx.rec);
    let bottom = &mut *d.bottom;
    let bottom_forward = || time_opt(rec, k.mlp, || bottom.forward(exec, &local.dense));
    let (z0, slices) = b.forward(cx, bottom_forward);
    let inter = time_opt(rec, k.rest, || d.interaction.forward(exec, &z0, slices));
    time_opt(rec, k.mlp, || d.top.forward(exec, &inter))
}

/// One training iteration: forward, loss, then top backward, interaction
/// backward, sparse update ∥ bottom backward, MLP update. Returns this
/// rank's loss.
pub fn train_step<B: RankBoundary>(b: &mut B, mut d: Dense, cx: &Ctx) -> f64 {
    let (k, rec) = (B::KINDS, cx.rec);
    let local = b.local(cx.global);
    let logits = forward(b, &mut d, cx, &local);
    let (loss, dlogits) = time_opt(rec, k.rest, || {
        let (logits, n) = (logits.as_slice(), local.batch_size());
        let loss = bce_with_logits_loss(logits, &local.labels);
        d.dlogits.resize(n, 0.0);
        bce_with_logits_backward(logits, &local.labels, d.dlogits);
        (loss, Matrix::from_slice(1, n, d.dlogits))
    });
    if !b.admit(loss) {
        return loss;
    }
    let d_inter = time_opt(rec, k.mlp, || {
        b.mlp_backward(cx, d.top, Tower::Top, dlogits)
    });
    let (d_bottom, d_tables) = time_opt(rec, k.rest, || d.interaction.backward(&d_inter));
    let bottom = &mut *d.bottom;
    b.table_backward(cx, &d_tables, |b| {
        time_opt(rec, k.mlp, || {
            b.mlp_backward(cx, bottom, Tower::Bottom, d_bottom)
        });
    });
    b.update_mlps(cx, d.bottom, d.top);
    loss
}
