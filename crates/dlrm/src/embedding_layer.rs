//! The embedding-table layer: EmbeddingBag forward and the fused
//! backward+update under the selectable strategy of Section III-A.
//!
//! The layer's per-iteration working state is the saved batch and the
//! [`BagPlan`] of the bucketed strategy, both reused across steps — there is
//! no `dW[NS][E]`: the optimized update reads gradient rows straight from
//! `dY` ([`embedding::backward_update`]). After the first batch of each
//! shape the train loop's embedding scratch stops growing and stays below
//! one gradient copy (asserted by `crates/dlrm/tests/alloc_growth.rs`).

use crate::layers::Execution;
use dlrm_kernels::embedding::{self, BagPlan, UpdateStrategy};
use dlrm_tensor::init::embedding_table;
use dlrm_tensor::Matrix;
use rand::rngs::StdRng;

/// One embedding table with its update strategy.
pub struct EmbeddingLayer {
    /// Table weights, `M×E`.
    pub weight: Matrix,
    /// Update strategy (Figure 7's four bars, plus `Bucketed`).
    pub strategy: UpdateStrategy,
    /// Force the framework-naive (PyTorch-v1.4-style) kernels for this
    /// table regardless of the execution tier — the Figure 7 baseline,
    /// which pairs fast (MKL-backed) MLPs with the pathological embedding
    /// path.
    pub framework_naive: bool,
    saved_indices: Vec<u32>,
    saved_offsets: Vec<usize>,
    /// Iteration-persistent lookup plan of the `Bucketed` strategy.
    plan: BagPlan,
}

impl EmbeddingLayer {
    /// New table with DLRM's `U(-1/√M, 1/√M)` initialization.
    pub fn new(m: usize, e: usize, strategy: UpdateStrategy, rng: &mut StdRng) -> Self {
        EmbeddingLayer {
            weight: embedding_table(m, e, rng),
            strategy,
            framework_naive: false,
            saved_indices: Vec::new(),
            saved_offsets: Vec::new(),
            plan: BagPlan::new(),
        }
    }

    /// Bytes of iteration-persistent scratch (saved batch, plan) currently
    /// held by the layer — excludes the table weights.
    pub fn scratch_bytes(&self) -> usize {
        self.saved_indices.capacity() * std::mem::size_of::<u32>()
            + self.saved_offsets.capacity() * std::mem::size_of::<usize>()
            + self.plan.scratch_bytes()
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.weight.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.cols()
    }

    /// EmbeddingBag forward: sums the rows of each bag. Output is `N×E`.
    pub fn forward(&mut self, exec: &Execution, indices: &[u32], offsets: &[usize]) -> Matrix {
        // An empty `offsets` is rejected by the kernel, with a message.
        let n = offsets.len().saturating_sub(1);
        let mut out = Matrix::zeros(n, self.dim());
        match exec {
            Execution::Optimized(pool) if !self.framework_naive => {
                embedding::forward(pool, &self.weight, indices, offsets, &mut out)
            }
            _ => embedding::forward_reference(&self.weight, indices, offsets, &mut out),
        }
        self.set_saved_batch(indices, offsets);
        out
    }

    /// Records a batch for a later [`EmbeddingLayer::backward_update`]
    /// *without* running the forward gather. The distributed prefetch path
    /// uses this on owning ranks: the pooled outputs are computed on the
    /// data-parallel side from cached rows, but the owner still applies
    /// the canonical update and needs the batch that produced `dy`.
    pub fn set_saved_batch(&mut self, indices: &[u32], offsets: &[usize]) {
        self.saved_indices.clear();
        self.saved_indices.extend_from_slice(indices);
        self.saved_offsets.clear();
        self.saved_offsets.extend_from_slice(offsets);
    }

    /// Backward + SGD update in one call (the sparse gradient never leaves
    /// this layer). `dy` is `N×E`; `lr` the learning rate.
    pub fn backward_update(&mut self, exec: &Execution, dy: &Matrix, lr: f32) {
        let alpha = -lr;
        match exec {
            Execution::Optimized(pool) if !self.framework_naive => embedding::backward_update(
                pool,
                self.strategy,
                &mut self.weight,
                dy,
                &self.saved_indices,
                &self.saved_offsets,
                alpha,
                &mut self.plan,
            ),
            _ => {
                // Materialize dW[NS][E] — a fresh tensor per call, as the
                // framework's autograd does — then apply the
                // framework-naive update: the "focused on functionality
                // instead of performance" kernel that made 99% of the
                // reference DLRM's runtime in the paper's profile.
                let mut dw = Matrix::zeros(self.saved_indices.len(), self.dim());
                for (bag, slots) in self.saved_offsets.windows(2).enumerate() {
                    for s in slots[0]..slots[1] {
                        dw.row_mut(s).copy_from_slice(dy.row(bag));
                    }
                }
                embedding::update_framework_naive(
                    &mut self.weight,
                    &dw,
                    &self.saved_indices,
                    alpha,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_tensor::assert_allclose;
    use dlrm_tensor::init::seeded_rng;

    fn bags() -> (Vec<u32>, Vec<usize>) {
        (vec![0, 1, 1, 3, 2], vec![0, 2, 3, 5])
    }

    #[test]
    fn forward_sums_bag_rows() {
        let mut rng = seeded_rng(1, 0);
        let mut layer = EmbeddingLayer::new(4, 2, UpdateStrategy::RaceFree, &mut rng);
        layer.weight = Matrix::from_fn(4, 2, |r, c| (r * 10 + c) as f32);
        let (idx, off) = bags();
        let out = layer.forward(&Execution::Reference, &idx, &off);
        assert_eq!(out.row(0), &[10.0, 12.0]); // rows 0 + 1
        assert_eq!(out.row(1), &[10.0, 11.0]); // row 1
        assert_eq!(out.row(2), &[50.0, 52.0]); // rows 3 + 2
    }

    #[test]
    fn reference_and_optimized_agree_end_to_end() {
        let mut rng = seeded_rng(2, 0);
        let w0 = embedding_table(10, 4, &mut rng);
        let (idx, off) = bags();
        let dy = Matrix::from_fn(3, 4, |r, c| (r as f32 - 1.0) * 0.1 + c as f32 * 0.01);

        let run = |exec: &Execution, strategy| {
            let mut layer = EmbeddingLayer::new(10, 4, strategy, &mut seeded_rng(0, 0));
            layer.weight = w0.clone();
            let out = layer.forward(exec, &idx, &off);
            layer.backward_update(exec, &dy, 0.1);
            (out, layer.weight)
        };

        let (out_ref, w_ref) = run(&Execution::Reference, UpdateStrategy::Reference);
        for strategy in [
            UpdateStrategy::AtomicXchg,
            UpdateStrategy::Rtm,
            UpdateStrategy::RaceFree,
            UpdateStrategy::Bucketed,
        ] {
            let (out, w) = run(&Execution::optimized(4), strategy);
            assert_eq!(out.as_slice(), out_ref.as_slice(), "{strategy} fwd");
            assert_allclose(
                w.as_slice(),
                w_ref.as_slice(),
                1e-5,
                &format!("{strategy} upd"),
            );
        }
    }

    #[test]
    fn scratch_stabilizes_after_first_step() {
        let mut rng = seeded_rng(5, 0);
        let exec = Execution::optimized(3);
        for strategy in [UpdateStrategy::RaceFree, UpdateStrategy::Bucketed] {
            let mut layer = EmbeddingLayer::new(32, 4, strategy, &mut rng);
            let (idx, off) = bags();
            let dy = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.01);
            let _ = layer.forward(&exec, &idx, &off);
            layer.backward_update(&exec, &dy, 0.1);
            let warm = layer.scratch_bytes();
            for _ in 0..4 {
                let _ = layer.forward(&exec, &idx, &off);
                layer.backward_update(&exec, &dy, 0.1);
            }
            assert_eq!(
                layer.scratch_bytes(),
                warm,
                "{strategy}: scratch grew after warm-up"
            );
        }
    }

    #[test]
    fn update_moves_against_gradient() {
        let mut rng = seeded_rng(4, 0);
        let mut layer = EmbeddingLayer::new(3, 2, UpdateStrategy::RaceFree, &mut rng);
        layer.weight = Matrix::zeros(3, 2);
        let exec = Execution::optimized(2);
        let _ = layer.forward(&exec, &[1], &[0, 1]);
        let dy = Matrix::from_slice(1, 2, &[1.0, -1.0]);
        layer.backward_update(&exec, &dy, 0.5);
        assert_eq!(layer.weight.row(1), &[-0.5, 0.5]);
        assert_eq!(layer.weight.row(0), &[0.0, 0.0]);
    }
}
