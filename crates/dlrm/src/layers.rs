//! Fully-connected layers and MLP stacks.
//!
//! A layer's weights live in one place: a [`BlockedWeights`] in Algorithm
//! 5's `[Kb][Cb][bc][bk]` layout, packed once when the layer is built
//! (`bc` and `bk` depend only on the layer shape), with the weight gradient
//! beside it in the same layout. Two execution tiers mirror Figure 7's
//! contrast:
//!
//! * [`Execution::Optimized`] — the blocked batch-reduce GEMMs of
//!   `dlrm_kernels` on a thread team, chained across a whole [`Mlp`] with
//!   the activations kept blocked between layers;
//! * [`Execution::Reference`] — naive single-threaded GEMMs (the
//!   functionality-first framework baseline), layer by layer, on a
//!   row-major copy of `W` unpacked for the call; its `dW` is packed into
//!   the blocked gradient.
//!
//! Both tiers update the same planes element-wise. Rows are a view made on
//! demand: [`Linear::write_grads`] for the gradient,
//! [`BlockedWeights::unpack`] for the weights.
//!
//! Tensors follow the paper's `Y = W·X` convention: `W ∈ R^{K×C}`,
//! activations are `features × batch`.

use dlrm_kernels::activations::{bias_add_rows, bias_grad_rows, relu_backward, relu_forward};
use dlrm_kernels::gemm;
use dlrm_kernels::sgd;
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::xavier_uniform;
use dlrm_tensor::{BlockedActivations, BlockedWeights, Blocking, Matrix};
use rand::rngs::StdRng;
use std::sync::Arc;

/// Which kernel tier to run on.
#[derive(Clone)]
pub enum Execution {
    /// Naive single-threaded kernels.
    Reference,
    /// Optimized kernels on a thread team led by whichever thread calls
    /// into the layer (see [`ThreadPool`]). Clones share the team, and a
    /// team of two or more runs one parallel region at a time: two threads
    /// computing through clones concurrently is a panic, not a race.
    Optimized(Arc<ThreadPool>),
}

impl Execution {
    /// An optimized execution on a team of `n`: the calling thread of each
    /// kernel plus `n − 1` spawned workers. `optimized(1)` spawns no thread
    /// and runs every kernel inline on its caller.
    pub fn optimized(n: usize) -> Self {
        Execution::Optimized(Arc::new(ThreadPool::new(n)))
    }

    /// The thread pool, if optimized.
    pub fn pool(&self) -> Option<&ThreadPool> {
        match self {
            Execution::Reference => None,
            Execution::Optimized(p) => Some(p),
        }
    }
}

/// Activation applied after the affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Identity (the logit-producing final layer).
    None,
}

/// One fully-connected layer with its gradients and saved activations.
pub struct Linear {
    /// Weights, `K×C`, in the blocked `[Kb][Cb][bc][bk]` layout both tiers
    /// read and update — the layer's only copy of them.
    pub w: BlockedWeights,
    /// Bias, length `K`.
    pub b: Vec<f32>,
    /// Weight gradient of the last backward, in `w`'s layout (empty until
    /// the first backward). [`Linear::write_grads`] lays it out as rows.
    pub dw: BlockedWeights,
    /// Bias gradient of the last backward.
    pub db: Vec<f32>,
    /// Post-GEMM activation.
    pub act: Activation,
    /// The Reference tier's saved input and output; the chained optimized
    /// forward keeps its activations blocked in [`Mlp`] scratch instead.
    x_saved: Option<Matrix>,
    y_saved: Option<Matrix>,
}

impl Linear {
    /// Xavier-initialized layer `C → K`.
    pub fn new(c: usize, k: usize, act: Activation, rng: &mut StdRng) -> Self {
        let blk = Blocking::for_shape(1, c, k);
        Linear {
            w: BlockedWeights::pack(&xavier_uniform(k, c, rng), blk),
            b: vec![0.0; k],
            dw: BlockedWeights::zeros(0, 0, blk),
            db: vec![0.0; k],
            act,
            x_saved: None,
            y_saved: None,
        }
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.w.c
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.w.k
    }

    /// Blocking factors for this layer at minibatch `n`; `bc`/`bk` are
    /// those of `w` at every `n`.
    fn blocking(&self, n: usize) -> Blocking {
        Blocking::for_shape(n, self.w.c, self.w.k)
    }

    /// Writes this layer's gradient in DDP wire order, row-major `dW` then
    /// `db`, into `out` (`grad_len()` floats), unpacking the blocked
    /// gradient in one pass. Before the first backward the gradient is zero.
    pub fn write_grads(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.grad_len(), "write_grads length");
        let (dw, db) = out.split_at_mut(self.w.k * self.w.c);
        if self.dw.as_slice().is_empty() {
            dw.fill(0.0);
        } else {
            self.dw.unpack_into_slice(dw);
        }
        db.copy_from_slice(&self.db);
    }

    /// Reference forward: `y = act(W·x + b)` by the naive GEMM on a
    /// row-major copy of `W`; saves what [`Linear::backward_reference`]
    /// needs.
    fn forward_reference(&mut self, x: &Matrix) -> Matrix {
        let (k, n) = (self.w.k, x.cols());
        assert_eq!(x.rows(), self.w.c, "Linear input feature mismatch");
        let mut y = Matrix::zeros(k, n);
        gemm::gemm_nn(&self.w.unpack(), x, &mut y);
        bias_add_rows(y.as_mut_slice(), k, n, &self.b);
        if self.act == Activation::Relu {
            relu_forward(y.as_mut_slice());
        }
        self.x_saved = Some(x.clone());
        self.y_saved = Some(y.clone());
        y
    }

    /// Forward one layer entirely in blocked layout: the chained-residency
    /// path of [`Mlp::forward`]. `yb` is reshaped (scratch semantics) to
    /// this layer's output blocking; bias/ReLU are fused into the epilogue.
    /// Clears the Reference tier's saved activations — the blocked chain in
    /// [`Mlp`] scratch is what backward reads.
    fn forward_blocked(
        &mut self,
        pool: &ThreadPool,
        xb: &BlockedActivations,
        yb: &mut BlockedActivations,
    ) {
        let n = xb.n;
        assert_eq!(xb.c, self.w.c, "Linear input feature mismatch");
        let blk = self.blocking(n);
        yb.reshape_scratch(self.w.k, n, blk.bk, blk.bn);
        gemm::fc_forward_fused(
            pool,
            &self.w,
            xb,
            yb,
            Some(&self.b),
            self.act == Activation::Relu,
        );
        self.x_saved = None;
        self.y_saved = None;
    }

    /// Reference backward: consumes the gradient w.r.t. this layer's output
    /// and returns the gradient w.r.t. its input, or an empty (0×0) matrix
    /// unless `need_dx`. Fills `db`, and `dw` with `dY·Xᵀ` packed into
    /// `w`'s layout.
    fn backward_reference(&mut self, mut dy: Matrix, need_dx: bool) -> Matrix {
        let x = self.x_saved.as_ref().expect("backward before forward");
        let y = self.y_saved.as_ref().unwrap();
        assert_eq!(dy.shape(), y.shape(), "Linear dY shape");
        if self.act == Activation::Relu {
            relu_backward(y.as_slice(), dy.as_mut_slice());
        }
        let (k, n) = dy.shape();
        // db = row-sums of dY
        bias_grad_rows(dy.as_slice(), k, n, &mut self.db);
        // dW = dY · Xᵀ
        let mut dw = Matrix::zeros(k, self.w.c);
        gemm::gemm_nt(&dy, x, &mut dw);
        self.dw.pack_into(&dw, self.w.blk);
        if !need_dx {
            return Matrix::zeros(0, 0);
        }
        // dX = Wᵀ · dY
        let mut dx = Matrix::zeros(self.w.c, n);
        gemm::gemm_tn(&self.w.unpack(), &dy, &mut dx);
        dx
    }

    /// Elements in this layer's gradient (`dW` then `db`) — its span in a
    /// DDP flat gradient buffer.
    pub fn grad_len(&self) -> usize {
        self.w.k * self.w.c + self.b.len()
    }

    /// Plain FP32 SGD on weights and bias: `w -= lr · dw` over the two
    /// blocked planes as they lie (they share `bc`/`bk`), split across the
    /// team on the optimized tier. Per element this is the mul-then-add of
    /// the flat step, so the layout does not move a bit.
    pub fn sgd_step(&mut self, exec: &Execution, lr: f32) {
        let (w, dw) = (self.w.as_mut_slice(), self.dw.as_slice());
        match exec {
            Execution::Reference => sgd::sgd_step(w, dw, lr),
            Execution::Optimized(p) => sgd::par_sgd_step(p, w, dw, lr),
        }
        sgd::sgd_step(&mut self.b, &self.db, lr);
    }

    /// The DDP step: SGD from `g`, this layer's span (`dW ‖ db`, as
    /// [`Linear::write_grads`] lays it out) of a gradient buffer *summed*
    /// over `scale` ranks, averaging by `1/scale`. The row-major `dW` is
    /// applied to the blocked weights panel by panel, straight from the
    /// buffer — bitwise [`dlrm_kernels::sgd::sgd_step_scaled`] on the
    /// row-major view. The layer's own (local, pre-reduction) gradient is
    /// left as it is.
    pub fn sgd_step_scaled_from(&mut self, exec: &Execution, g: &[f32], lr: f32, scale: f32) {
        assert_eq!(g.len(), self.grad_len(), "sgd_step_scaled_from length");
        let (dw, db) = g.split_at(self.w.k * self.w.c);
        match exec {
            Execution::Reference => {
                let (blk, c) = (self.w.blk, self.w.c);
                BlockedWeights::add_scaled_rows(
                    self.w.as_mut_slice(),
                    0,
                    blk,
                    c,
                    dw,
                    -(lr / scale),
                );
            }
            Execution::Optimized(p) => sgd::par_sgd_step_rows(p, &mut self.w, dw, lr / scale),
        }
        sgd::sgd_step_scaled(&mut self.b, db, lr, scale);
    }
}

/// Grow-only blocked scratch backing the persistent-plan MLP path: the
/// chained forward keeps every layer's activations *blocked* across layers
/// (pack at the input boundary, unpack at the output boundary only), and
/// backward ping-pongs the gradient between two blocked buffers. All
/// buffers use scratch semantics, so after the first step at the largest
/// batch size the whole fwd+bwd+sgd loop is allocation-free.
struct MlpScratch {
    /// `acts[i]` = blocked input of layer `i`; `acts[L]` = blocked output.
    acts: Vec<BlockedActivations>,
    /// Ping-pong blocked gradient buffers for the backward chain.
    grad_a: BlockedActivations,
    grad_b: BlockedActivations,
    /// Batch size of the last chained forward; `None` = no valid residency
    /// (an optimized backward then panics).
    valid_n: Option<usize>,
}

impl MlpScratch {
    fn new() -> Self {
        MlpScratch {
            acts: Vec::new(),
            grad_a: Self::empty(),
            grad_b: Self::empty(),
            valid_n: None,
        }
    }

    /// A zero-capacity blocked tensor (no allocation until first reshape).
    fn empty() -> BlockedActivations {
        BlockedActivations::zeros(0, 0, 1, 1)
    }
}

/// Applies the ReLU gradient mask in blocked layout: `g = 0` where
/// `y <= 0`. `g` and `y` share one blocking, so this is `relu_backward`
/// under a permutation — bitwise identical to masking the flat tensors.
fn mask_blocked(g: &mut BlockedActivations, y: &BlockedActivations) {
    assert_eq!(
        (g.c, g.n, g.bc, g.bn),
        (y.c, y.n, y.bc, y.bn),
        "relu mask layout mismatch"
    );
    relu_backward(y.as_slice(), g.as_mut_slice());
}

/// A stack of fully-connected layers (ReLU between layers; the final
/// layer's activation is configurable — identity for the logit head).
pub struct Mlp {
    /// The layers in forward order.
    pub layers: Vec<Linear>,
    /// Whether backward computes the gradient w.r.t. the MLP's input.
    input_grad: bool,
    scratch: MlpScratch,
}

impl Mlp {
    /// Builds an MLP from `input_dim` through `sizes`, ReLU on all layers
    /// except the last, which uses `last_act`.
    pub fn new(input_dim: usize, sizes: &[usize], last_act: Activation, rng: &mut StdRng) -> Self {
        assert!(!sizes.is_empty(), "MLP needs at least one layer");
        let mut layers = Vec::with_capacity(sizes.len());
        let mut prev = input_dim;
        for (i, &s) in sizes.iter().enumerate() {
            let act = if i + 1 == sizes.len() {
                last_act
            } else {
                Activation::Relu
            };
            layers.push(Linear::new(prev, s, act, rng));
            prev = s;
        }
        Mlp {
            layers,
            input_grad: true,
            scratch: MlpScratch::new(),
        }
    }

    /// Marks this MLP's input as a leaf nobody differentiates (raw
    /// features, `requires_grad = false`): backward skips layer 0's data
    /// pass and returns an empty (0×0) matrix. Weight and bias gradients
    /// are unaffected.
    pub fn without_input_grad(mut self) -> Self {
        self.input_grad = false;
        self
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.layers.last().unwrap().out_features()
    }

    /// Forward through all layers.
    ///
    /// On the optimized tier activations stay blocked across layers: the
    /// input is packed once, each layer's blocked output feeds the next
    /// layer's batch-reduce GEMM directly, and only the final output is
    /// unpacked. The blocked chain is what [`Mlp::backward`] on the same
    /// tier consumes (mixing tiers between a forward and its backward is not
    /// supported).
    pub fn forward(&mut self, exec: &Execution, x: &Matrix) -> Matrix {
        match exec {
            Execution::Reference => {
                self.scratch.valid_n = None;
                let mut cur: Option<Matrix> = None;
                for layer in &mut self.layers {
                    let y = layer.forward_reference(cur.as_ref().unwrap_or(x));
                    cur = Some(y);
                }
                cur.expect("MLP has at least one layer")
            }
            Execution::Optimized(pool) => {
                let (n, nl) = (x.cols(), self.layers.len());
                assert_eq!(
                    x.rows(),
                    self.layers[0].in_features(),
                    "Linear input feature mismatch"
                );
                let scratch = &mut self.scratch;
                if scratch.acts.len() != nl + 1 {
                    scratch.acts = (0..=nl).map(|_| MlpScratch::empty()).collect();
                }
                let blk0 = self.layers[0].blocking(n);
                scratch.acts[0].pack_into(x, blk0.bc, blk0.bn);
                for (i, layer) in self.layers.iter_mut().enumerate() {
                    let (head, tail) = scratch.acts.split_at_mut(i + 1);
                    layer.forward_blocked(pool, &head[i], &mut tail[0]);
                }
                scratch.valid_n = Some(n);
                scratch.acts[nl].unpack()
            }
        }
    }

    /// Backward through all layers; returns gradient w.r.t. the input
    /// (empty for an MLP built [`Mlp::without_input_grad`]).
    pub fn backward(&mut self, exec: &Execution, dy: Matrix) -> Matrix {
        self.backward_with(exec, dy, |_, _| {})
    }

    /// [`Mlp::backward`] with a per-layer gradient hook: `on_layer(i,
    /// layer)` fires right after layer `i`'s gradients are final, in
    /// production order (last layer first); it reads them with
    /// [`Linear::write_grads`]. This is the seam a DDP-style overlap
    /// schedule needs — each layer's gradient bucket can start its
    /// allreduce while earlier layers are still computing. The hook must
    /// not change the math; backward results are identical to
    /// [`Mlp::backward`].
    ///
    /// # Panics
    /// On the optimized tier, panics unless the last forward was optimized
    /// and ran at `dy`'s batch size.
    pub fn backward_with(
        &mut self,
        exec: &Execution,
        dy: Matrix,
        mut on_layer: impl FnMut(usize, &Linear),
    ) -> Matrix {
        match exec {
            Execution::Optimized(pool) => {
                let (n, last) = (dy.cols(), self.scratch.valid_n);
                assert!(
                    last == Some(n),
                    "optimized Mlp::backward at batch size {n} has no matching optimized \
                     forward (the last one ran at batch size {last:?})"
                );
                self.backward_chained(pool, dy, &mut on_layer)
            }
            Execution::Reference => {
                let mut cur = dy;
                for (i, layer) in self.layers.iter_mut().enumerate().rev() {
                    cur = layer.backward_reference(cur, i > 0 || self.input_grad);
                    on_layer(i, layer);
                }
                cur
            }
        }
    }

    /// Backward over the blocked activation chain left by an optimized
    /// [`Mlp::forward`]: the boundary gradient is packed once, each layer
    /// runs the fused batch-reduce GEMMs (bias-gradient reduction inside
    /// the weight pass, upstream ReLU mask inside the data pass
    /// writeback), and only the input-boundary gradient is unpacked.
    /// Bitwise identical to packing each layer's operands per call — same
    /// kernels over the same bits, with the mask/reduction fusions proven
    /// bitwise-neutral in `dlrm_kernels::gemm`.
    fn backward_chained(
        &mut self,
        pool: &ThreadPool,
        dy: Matrix,
        on_layer: &mut dyn FnMut(usize, &Linear),
    ) -> Matrix {
        let (nl, n) = (self.layers.len(), dy.cols());
        assert_eq!(
            dy.rows(),
            self.layers[nl - 1].out_features(),
            "Mlp dY shape"
        );
        let scratch = &mut self.scratch;
        let blk_last = self.layers[nl - 1].blocking(n);
        scratch.grad_a.pack_into(&dy, blk_last.bk, blk_last.bn);
        // The last layer's own ReLU (applied at layer entry on the
        // Reference path); inner layers' masks are fused into the
        // downstream layer's data-pass writeback instead.
        if self.layers[nl - 1].act == Activation::Relu {
            mask_blocked(&mut scratch.grad_a, &scratch.acts[nl]);
        }
        for i in (0..nl).rev() {
            let prev_relu = i > 0 && self.layers[i - 1].act == Activation::Relu;
            let layer = &mut self.layers[i];
            let (k, c) = (layer.w.k, layer.w.c);
            let blk = layer.blocking(n);
            // Fused dW + db in one pass over the blocked operands. dW stays
            // blocked: the FP32 update reads it as it lies, and a DDP hook
            // unpacks it once, into its bucket, in the unchanged wire order.
            layer.dw.reshape_scratch(k, c, blk);
            gemm::fc_backward_weights_fused(
                pool,
                &scratch.acts[i],
                &scratch.grad_a,
                &mut layer.dw,
                &mut layer.db,
            );
            if i == 0 && !self.input_grad {
                on_layer(i, layer);
                return Matrix::zeros(0, 0);
            }
            scratch.grad_b.reshape_scratch(c, n, blk.bc, blk.bn);
            let mask = if prev_relu {
                Some(&scratch.acts[i])
            } else {
                None
            };
            gemm::fc_backward_data_fused(
                pool,
                &layer.w,
                &scratch.grad_a,
                &mut scratch.grad_b,
                mask,
            );
            on_layer(i, layer);
            std::mem::swap(&mut scratch.grad_a, &mut scratch.grad_b);
        }
        scratch.grad_a.unpack()
    }

    /// FP32 SGD on every layer.
    pub fn sgd_step(&mut self, exec: &Execution, lr: f32) {
        for layer in &mut self.layers {
            layer.sgd_step(exec, lr);
        }
    }

    /// Total parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.grad_len()).sum()
    }

    /// Bytes held by the MLP's persistent storage: every layer's blocked
    /// weights and gradient plus the blocked activation-residency buffers.
    /// Grow-only — constant once the largest batch has been seen.
    pub fn scratch_bytes(&self) -> usize {
        let params: usize = self
            .layers
            .iter()
            .map(|l| l.w.capacity_bytes() + l.dw.capacity_bytes())
            .sum();
        let acts: usize = self.scratch.acts.iter().map(|a| a.capacity_bytes()).sum();
        params + acts + self.scratch.grad_a.capacity_bytes() + self.scratch.grad_b.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_tensor::assert_allclose;
    use dlrm_tensor::init::{seeded_rng, uniform};

    fn both_execs() -> Vec<Execution> {
        vec![Execution::Reference, Execution::optimized(3)]
    }

    /// `dW ‖ db` of the last backward, whichever tier ran it.
    fn grads(layer: &Linear) -> Vec<f32> {
        let mut out = vec![0.0; layer.grad_len()];
        layer.write_grads(&mut out);
        out
    }

    /// Replaces `layer`'s weights with the row-major `w`.
    fn set_weights(layer: &mut Linear, w: &Matrix) {
        layer.w = BlockedWeights::pack(w, layer.w.blk);
    }

    #[test]
    fn forward_matches_manual_affine() {
        for exec in both_execs() {
            let mut mlp = Mlp::new(3, &[2], Activation::None, &mut seeded_rng(1, 0));
            let layer = &mut mlp.layers[0];
            set_weights(
                layer,
                &Matrix::from_slice(2, 3, &[1.0, 0.0, -1.0, 0.5, 0.5, 0.5]),
            );
            layer.b = vec![1.0, -1.0];
            let x = Matrix::from_slice(3, 1, &[2.0, 4.0, 6.0]);
            let y = mlp.forward(&exec, &x);
            assert_eq!(y.as_slice(), &[2.0 - 6.0 + 1.0, 6.0 - 1.0]);
        }
    }

    #[test]
    fn relu_masks_forward_and_backward() {
        let mut rng = seeded_rng(2, 0);
        let mut layer = Linear::new(1, 1, Activation::Relu, &mut rng);
        set_weights(&mut layer, &Matrix::from_slice(1, 1, &[1.0]));
        layer.b = vec![0.0];
        let y = layer.forward_reference(&Matrix::from_slice(1, 2, &[-3.0, 3.0]));
        assert_eq!(y.as_slice(), &[0.0, 3.0]);
        let dx = layer.backward_reference(Matrix::from_slice(1, 2, &[1.0, 1.0]), true);
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn reference_and_optimized_agree() {
        let mut rng_a = seeded_rng(3, 0);
        let mut rng_b = seeded_rng(3, 0);
        let mut mlp_ref = Mlp::new(8, &[16, 4, 1], Activation::None, &mut rng_a);
        let mut mlp_opt = Mlp::new(8, &[16, 4, 1], Activation::None, &mut rng_b);
        let x = uniform(8, 10, -1.0, 1.0, &mut seeded_rng(4, 0));
        let opt = Execution::optimized(4);

        let y_ref = mlp_ref.forward(&Execution::Reference, &x);
        let y_opt = mlp_opt.forward(&opt, &x);
        assert_allclose(y_opt.as_slice(), y_ref.as_slice(), 1e-5, "fwd");

        let dy = uniform(1, 10, -1.0, 1.0, &mut seeded_rng(5, 0));
        let dx_ref = mlp_ref.backward(&Execution::Reference, dy.clone());
        let dx_opt = mlp_opt.backward(&opt, dy);
        assert_allclose(dx_opt.as_slice(), dx_ref.as_slice(), 1e-5, "bwd dx");
        for (a, b) in mlp_ref.layers.iter().zip(&mlp_opt.layers) {
            assert_allclose(&grads(b), &grads(a), 1e-5, "dw ‖ db");
        }
    }

    #[test]
    fn gradient_check_linear() {
        // Finite-difference check of dW through a scalar loss L = sum(y).
        let mut rng = seeded_rng(6, 0);
        let mut layer = Linear::new(4, 3, Activation::Relu, &mut rng);
        let x = uniform(4, 5, -1.0, 1.0, &mut rng);

        let y = layer.forward_reference(&x);
        let dy = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        let _ = layer.backward_reference(dy, true);
        let analytic = layer.dw.unpack();

        let h = 1e-3f32;
        for (r, c) in [(0usize, 0usize), (1, 2), (2, 3)] {
            let i = layer.w.index_of(r, c);
            let orig = layer.w.as_slice()[i];
            layer.w.as_mut_slice()[i] = orig + h;
            let lp: f64 = layer.forward_reference(&x).sum();
            layer.w.as_mut_slice()[i] = orig - h;
            let lm: f64 = layer.forward_reference(&x).sum();
            layer.w.as_mut_slice()[i] = orig;
            let fd = ((lp - lm) / (2.0 * h as f64)) as f32;
            assert!(
                (analytic[(r, c)] - fd).abs() < 2e-2,
                "dW[{r}][{c}]: analytic {} vs fd {}",
                analytic[(r, c)],
                fd
            );
        }
    }

    #[test]
    fn sgd_reduces_simple_regression_loss() {
        let exec = Execution::Reference;
        let mut rng = seeded_rng(7, 0);
        let mut mlp = Mlp::new(2, &[8, 1], Activation::None, &mut rng);
        let x = uniform(2, 32, -1.0, 1.0, &mut rng);
        // Target: y = x0 - 2*x1.
        let target: Vec<f32> = (0..32).map(|j| x[(0, j)] - 2.0 * x[(1, j)]).collect();

        let loss = |y: &Matrix, t: &[f32]| -> f64 {
            y.as_slice()
                .iter()
                .zip(t)
                .map(|(&a, &b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
        };
        let y0 = mlp.forward(&exec, &x);
        let before = loss(&y0, &target);
        for _ in 0..200 {
            let y = mlp.forward(&exec, &x);
            let dy = Matrix::from_fn(1, 32, |_, j| 2.0 * (y[(0, j)] - target[j]) / 32.0);
            let _ = mlp.backward(&exec, dy);
            mlp.sgd_step(&exec, 0.05);
        }
        let after = loss(&mlp.forward(&exec, &x), &target);
        assert!(after < before * 0.05, "loss {before} -> {after}");
    }

    #[test]
    fn param_count() {
        let mut rng = seeded_rng(8, 0);
        let mlp = Mlp::new(10, &[4, 2], Activation::None, &mut rng);
        assert_eq!(mlp.param_count(), 10 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn backward_with_hook_sees_layers_in_reverse_with_final_grads() {
        for exec in both_execs() {
            hook_sees_final_grads(&exec);
        }
    }

    fn hook_sees_final_grads(exec: &Execution) {
        let mut rng = seeded_rng(11, 0);
        let mut a = Mlp::new(5, &[6, 3], Activation::Relu, &mut rng);
        let mut rng = seeded_rng(11, 0);
        let mut b = Mlp::new(5, &[6, 3], Activation::Relu, &mut rng);
        let x = Matrix::from_fn(5, 4, |i, j| (i + j) as f32 * 0.1);
        let dy = Matrix::from_fn(3, 4, |i, j| (i * 3 + j) as f32 * 0.01 - 0.02);

        let _ = a.forward(exec, &x);
        let _ = b.forward(exec, &x);
        let plain = a.backward(exec, dy.clone());

        let mut order = Vec::new();
        let mut hooked_bits: Vec<Vec<u32>> = vec![Vec::new(); b.layers.len()];
        let hooked = b.backward_with(exec, dy, |i, layer| {
            order.push(i);
            hooked_bits[i] = grads(layer).iter().map(|v| v.to_bits()).collect();
        });

        assert_eq!(order, vec![1, 0], "hook must fire last layer first");
        assert_eq!(plain.as_slice(), hooked.as_slice());
        // The gradients seen by the hook are the final ones for that layer.
        for (i, layer) in a.layers.iter().enumerate() {
            let want: Vec<u32> = grads(layer).iter().map(|v| v.to_bits()).collect();
            assert_eq!(hooked_bits[i], want, "layer {i}");
        }
    }

    #[test]
    fn without_input_grad_skips_only_the_input_gradient() {
        for exec in both_execs() {
            let build = || Mlp::new(6, &[16, 8, 3], Activation::None, &mut seeded_rng(13, 0));
            let (mut full, mut leaf) = (build(), build().without_input_grad());
            let x = uniform(6, 12, -1.0, 1.0, &mut seeded_rng(14, 0));
            let dy = uniform(3, 12, -1.0, 1.0, &mut seeded_rng(15, 0));
            let _ = full.forward(&exec, &x);
            let _ = leaf.forward(&exec, &x);
            let dx = full.backward(&exec, dy.clone());
            assert_eq!(dx.shape(), (6, 12));
            let mut seen = Vec::new();
            let none = leaf.backward_with(&exec, dy, |i, _| seen.push(i));
            assert_eq!(none.shape(), (0, 0));
            assert_eq!(seen, vec![2, 1, 0], "hook still fires for layer 0");
            for (a, b) in full.layers.iter().zip(&leaf.layers) {
                assert_eq!(grads(a), grads(b));
            }
        }
    }

    #[test]
    fn grad_len_matches_param_count_per_layer() {
        let mut rng = seeded_rng(12, 0);
        let mlp = Mlp::new(10, &[4, 2], Activation::None, &mut rng);
        let total: usize = mlp.layers.iter().map(|l| l.grad_len()).sum();
        assert_eq!(total, mlp.param_count());
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn shape_mismatch_panics() {
        let mut rng = seeded_rng(9, 0);
        let mut layer = Linear::new(4, 2, Activation::None, &mut rng);
        let _ = layer.forward_reference(&Matrix::zeros(3, 1));
    }

    #[test]
    #[should_panic(
        expected = "optimized Mlp::backward at batch size 5 has no matching optimized forward \
                    (the last one ran at batch size Some(4))"
    )]
    fn optimized_backward_at_another_batch_size_panics() {
        let exec = Execution::optimized(2);
        let mut mlp = Mlp::new(3, &[4, 1], Activation::None, &mut seeded_rng(16, 0));
        let _ = mlp.forward(&exec, &Matrix::zeros(3, 4));
        let _ = mlp.backward(&exec, Matrix::zeros(1, 5));
    }
}
