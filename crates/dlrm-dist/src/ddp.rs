//! DDP-style gradient plumbing between the replicated MLPs and the flat
//! allreduce buffer.
//!
//! A layer's weights and weight gradient live blocked, so the flat buffer is
//! the only place gradients are ever laid out as rows: each layer unpacks
//! straight into its window of the [`BucketReducer`] ([`write_layer_grads`],
//! once), and after the reduction applies its slice of the buffer to the
//! blocked weights panel by panel ([`apply_reduced_grads`]). What copying
//! remains is the "Allreduce-Framework" time of Figures 11/14; the
//! collective itself is the "Allreduce-Wait".

use crate::bucketing::BucketReducer;
use dlrm::layers::{Execution, Linear, Mlp};

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

/// Writes one layer's gradients (`dW ‖ db`) into its window of the
/// reducer's flat buffer, at `offset` — the body of the DDP hook.
pub fn write_layer_grads(reducer: &mut BucketReducer, offset: usize, layer: &Linear) {
    layer.write_grads(reducer.window(offset..offset + layer.grad_len()));
}

/// Applies the averaged SGD step after an allreduce of *summed* gradients:
/// `w -= (lr / nranks) · g_sum`, every layer of `mlp` reading its slice of
/// the reduced buffer `flat` at `offsets[i]`
/// ([`Linear::sgd_step_scaled_from`]).
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
