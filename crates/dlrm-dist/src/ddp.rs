//! DDP-style gradient plumbing between the replicated MLPs and the flat
//! allreduce buffer.
//!
//! A layer's weights live blocked, so the flat buffer is the only place
//! gradients are ever laid out as rows, and they are laid out once, in
//! registers: each layer's weights pass stores its `dW` panels transposed
//! straight into its window of the [`BucketReducer`] (`BucketSink`, the
//! [`GradSink`] of `Mlp::backward_into`), and after the reduction each
//! layer applies its slice of the buffer to the blocked weights through
//! the same transposes ([`apply_reduced_grads`]). Both run inside compute
//! (`OpKind::Compute`); only the bucket copies to and from a progress
//! channel are "Allreduce-Framework" time (Figures 11/14), and the
//! collective itself is the "Allreduce-Wait".

use crate::bucketing::BucketReducer;
use dlrm::layers::{Execution, GradSink, Mlp};
use dlrm_comm::nonblocking::ProgressEngine;

/// Flattens the weight and bias gradients of the given MLPs (in order)
/// into one contiguous buffer — Eq. 1's `Σ f_i·f_o + f_o` elements, in the
/// order the bucketed allreduce ships them.
pub fn flatten_grads(mlps: &[&Mlp]) -> Vec<f32> {
    let (offsets, total) = grad_offsets(mlps);
    let mut buf = vec![0.0; total];
    for (mlp, offs) in mlps.iter().zip(&offsets) {
        for (layer, &off) in mlp.layers.iter().zip(offs) {
            layer.write_grads(&mut buf[off..off + layer.grad_len()]);
        }
    }
    buf
}

/// Flat-buffer offset of each layer's gradients (dw then db), per MLP, in
/// [`flatten_grads`] order, plus the total length. `offsets[m][i]` is
/// where MLP `m`'s layer `i` starts.
pub fn grad_offsets(mlps: &[&Mlp]) -> (Vec<Vec<usize>>, usize) {
    let mut off = 0usize;
    let mut per_mlp = Vec::with_capacity(mlps.len());
    for mlp in mlps {
        let mut offs = Vec::with_capacity(mlp.layers.len());
        for layer in &mlp.layers {
            offs.push(off);
            off += layer.grad_len();
        }
        per_mlp.push(offs);
    }
    (per_mlp, off)
}

/// The DDP hook: one MLP's layers write into their windows of the
/// reducer's flat buffer, layer `i` at `offs[i]`. When `overlapped`, each
/// bucket a layer completes is issued at once, while earlier layers still
/// compute; otherwise the buckets wait for `finalize`.
pub(crate) struct BucketSink<'a> {
    /// The step's reducer.
    pub(crate) reducer: &'a mut BucketReducer,
    /// Flat offset of each layer's gradients ([`grad_offsets`]).
    pub(crate) offs: &'a [usize],
    /// Whether to issue buckets as they are produced.
    pub(crate) overlapped: bool,
    /// The progress engine an issued bucket runs on, if any.
    pub(crate) engine: Option<&'a ProgressEngine>,
}

impl GradSink for BucketSink<'_> {
    fn window(&mut self, layer: usize, len: usize) -> &mut [f32] {
        let off = self.offs[layer];
        self.reducer.window(off..off + len)
    }

    fn produced(&mut self, layer: usize) {
        if self.overlapped {
            self.reducer
                .on_produced(self.offs[layer], self.engine, None);
        }
    }
}

/// Applies the averaged SGD step after an allreduce of *summed* gradients:
/// `w -= (lr / nranks) · g_sum`, every layer of `mlp` reading its slice of
/// the reduced buffer `flat` at `offsets[i]`
/// ([`Linear::sgd_step_scaled_from`](dlrm::layers::Linear::sgd_step_scaled_from)).
pub fn apply_reduced_grads(
    mlp: &mut Mlp,
    offsets: &[usize],
    exec: &Execution,
    flat: &[f32],
    lr: f32,
    nranks: usize,
) {
    for (layer, &off) in mlp.layers.iter_mut().zip(offsets) {
        let g = &flat[off..off + layer.grad_len()];
        layer.sgd_step_scaled_from(exec, g, lr, nranks as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::layers::Activation;
    use dlrm_tensor::init::{seeded_rng, uniform};
    use dlrm_tensor::Matrix;

    /// An MLP after one forward + backward on `exec`.
    fn mlp_after_backward(exec: &Execution) -> Mlp {
        let mut mlp = Mlp::new(3, &[4, 2], Activation::None, &mut seeded_rng(1, 0));
        let x = uniform(3, 5, -1.0, 1.0, &mut seeded_rng(2, 0));
        let y = mlp.forward(exec, &x);
        let _ = mlp.backward(
            exec,
            Matrix::from_fn(y.rows(), y.cols(), |i, j| (i + j) as f32),
        );
        mlp
    }

    #[test]
    fn flatten_lays_out_dw_then_db_per_layer_on_both_tiers() {
        for exec in [Execution::Reference, Execution::optimized(2)] {
            let mlp = mlp_after_backward(&exec);
            let flat = flatten_grads(&[&mlp]);
            assert_eq!(flat.len(), 3 * 4 + 4 + 4 * 2 + 2);
            let (offsets, total) = grad_offsets(&[&mlp]);
            assert_eq!((offsets[0].as_slice(), total), (&[0, 16][..], flat.len()));
            for (layer, &off) in mlp.layers.iter().zip(&offsets[0]) {
                let dw = layer.dw.unpack();
                let wlen = dw.len();
                assert_eq!(&flat[off..off + wlen], dw.as_slice());
                assert_eq!(&flat[off + wlen..off + layer.grad_len()], &layer.db[..]);
            }
        }
    }

    #[test]
    fn reduced_step_divides_by_ranks_on_both_tiers() {
        for exec in [Execution::Reference, Execution::optimized(2)] {
            let mut mlp = mlp_after_backward(&exec);
            let w00 = |mlp: &Mlp| mlp.layers[0].w.unpack()[(0, 0)];
            let w0 = w00(&mlp);
            let b0 = mlp.layers[1].b[1];
            let (offsets, total) = grad_offsets(&[&mlp]);
            apply_reduced_grads(&mut mlp, &offsets[0], &exec, &vec![8.0; total], 0.5, 4);
            assert_eq!(w00(&mlp), w0 - 0.5 * 2.0);
            assert_eq!(mlp.layers[1].b[1], b0 - 0.5 * 2.0);
        }
    }
}
