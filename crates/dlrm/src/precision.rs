//! Mixed-precision training modes (Section VII).
//!
//! The model's weights always live in FP32 storage — an MLP layer's blocked
//! planes, a table's rows — but each mode maintains an *invariant* on what
//! those bits contain. The dense update is element-wise, so it runs on the
//! planes in whatever layout they are stored:
//!
//! * [`PrecisionMode::Fp32`] — plain FP32 training.
//! * [`PrecisionMode::Bf16Split`] — Split-SGD-BF16: the optimizer owns a
//!   [`SplitTensor`] whose hi plane is the BF16 model; after every update
//!   the FP32 storage is refreshed with the (BF16-truncated) model view, so
//!   the forward/backward passes see exactly what BF16 hardware would.
//! * [`PrecisionMode::Bf16Split8`] — the failed ablation: only 8 extra
//!   LSBs of optimizer state.
//! * [`PrecisionMode::Bf16Pure`] — no optimizer state at all: weights are
//!   BF16-rounded after every update (worst case).
//! * [`PrecisionMode::Fp24`] — weights kept 1-8-15-quantized (Figure 16's
//!   third curve).
//!
//! Activations stay FP32 in all modes: the paper's Figure 16 isolates the
//! *optimizer/weight-storage* precision (the MLP math used the bit-accurate
//! `vdpbf16ps` emulation, whose products are exact in FP32 — see
//! `dlrm_precision::dot`), and weight storage is where Split-SGD differs.

use dlrm_precision::bf16;
use dlrm_precision::fp16;
use dlrm_precision::fp24;
use dlrm_precision::split::{LoBits, SplitTensor};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use rand::rngs::StdRng;

/// Weight-storage / optimizer precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecisionMode {
    /// Plain FP32 (the reference curve).
    Fp32,
    /// Split-SGD-BF16 with 16 LSBs of optimizer state.
    Bf16Split,
    /// Split-SGD with only 8 LSBs (paper: "not enough").
    Bf16Split8,
    /// Pure BF16 SGD, no extra state.
    Bf16Pure,
    /// FP24 (1-8-15) weights.
    Fp24,
    /// FP16 weights with *stochastic rounding* on every update — the
    /// low-precision embedding-table scheme the paper tried to replicate
    /// and could not train to state-of-the-art with plain SGD.
    Fp16Stochastic,
}

impl PrecisionMode {
    /// All modes, Figure 16 curves first.
    pub const ALL: [PrecisionMode; 6] = [
        PrecisionMode::Fp32,
        PrecisionMode::Bf16Split,
        PrecisionMode::Fp24,
        PrecisionMode::Bf16Split8,
        PrecisionMode::Bf16Pure,
        PrecisionMode::Fp16Stochastic,
    ];

    /// Does this mode keep Split-SGD state?
    pub fn split_lo_bits(self) -> Option<LoBits> {
        match self {
            PrecisionMode::Bf16Split => Some(LoBits::Sixteen),
            PrecisionMode::Bf16Split8 => Some(LoBits::Eight),
            _ => None,
        }
    }

    /// Quantizer applied to a weight after a stateless update.
    fn quantize(self, x: f32, rng: Option<&mut StdRng>) -> f32 {
        match self {
            PrecisionMode::Fp32 => x,
            PrecisionMode::Fp24 => fp24::quantize_f32(x),
            PrecisionMode::Bf16Pure => bf16::quantize_f32(x),
            PrecisionMode::Fp16Stochastic => {
                fp16::quantize_f32_stochastic(x, rng.expect("fp16 mode needs an rng"))
            }
            // Split modes never use this path.
            PrecisionMode::Bf16Split | PrecisionMode::Bf16Split8 => unreachable!(),
        }
    }

    /// Quantizes an entire freshly-initialized tensor to the mode's storage
    /// format (establishing the invariant).
    pub fn quantize_init(self, w: &mut [f32]) {
        match self {
            PrecisionMode::Fp32 => {}
            PrecisionMode::Bf16Split | PrecisionMode::Bf16Split8 | PrecisionMode::Bf16Pure => {
                for x in w.iter_mut() {
                    // Truncation matches the split storage's model view.
                    *x = f32::from_bits(x.to_bits() & 0xFFFF_0000);
                }
            }
            PrecisionMode::Fp24 => {
                for x in w.iter_mut() {
                    *x = fp24::quantize_f32(*x);
                }
            }
            PrecisionMode::Fp16Stochastic => {
                for x in w.iter_mut() {
                    *x = fp16::quantize_f32(*x);
                }
            }
        }
    }
}

impl std::fmt::Display for PrecisionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PrecisionMode::Fp32 => "FP32 (Ref)",
            PrecisionMode::Bf16Split => "BF16 (SplitSGD)",
            PrecisionMode::Bf16Split8 => "BF16 (SplitSGD, 8 LSBs)",
            PrecisionMode::Bf16Pure => "BF16 (no state)",
            PrecisionMode::Fp24 => "FP24 (1-8-15)",
            PrecisionMode::Fp16Stochastic => "FP16 (stochastic)",
        };
        f.write_str(s)
    }
}

/// Optimizer state for one FP32-backed parameter tensor.
pub struct ParamOptimizer {
    mode: PrecisionMode,
    split: Option<SplitTensor>,
    /// RNG for stochastic rounding modes.
    rng: Option<StdRng>,
}

impl ParamOptimizer {
    /// Builds state for `w` (which is quantized in place to establish the
    /// storage invariant). `stream` names this tensor's stochastic-rounding
    /// stream: give every tensor of a model its own.
    pub fn new(mode: PrecisionMode, w: &mut [f32], stream: u64) -> Self {
        let split = mode.split_lo_bits().map(|lo| {
            let t = SplitTensor::from_f32(w, lo);
            // Model view = truncated hi plane.
            for (x, v) in w.iter_mut().zip(t.to_f32_model()) {
                *x = v;
            }
            t
        });
        if split.is_none() {
            mode.quantize_init(w);
        }
        let rng = (mode == PrecisionMode::Fp16Stochastic).then(|| seeded_rng(0x570C, stream));
        ParamOptimizer { mode, split, rng }
    }

    /// Dense SGD step, element by element: updates the master state and
    /// refreshes `w`'s model view. `grad` is laid out like `w`.
    pub fn step(&mut self, w: &mut [f32], grad: &[f32], lr: f32) {
        assert_eq!(w.len(), grad.len(), "optimizer shape mismatch");
        match &mut self.split {
            Some(state) => {
                state.sgd_step(grad, lr);
                for (i, x) in w.iter_mut().enumerate() {
                    *x = state.model_value(i);
                }
            }
            None => {
                for (x, &g) in w.iter_mut().zip(grad) {
                    *x = self.mode.quantize(*x - lr * g, self.rng.as_mut());
                }
            }
        }
    }

    /// Sparse row update for embedding tables: applies `grad_row` to `row`
    /// of the `rows × cols` tensor backing `w`.
    pub fn step_row(&mut self, w: &mut Matrix, row: usize, grad_row: &[f32], lr: f32) {
        let cols = w.cols();
        assert_eq!(grad_row.len(), cols);
        match &mut self.split {
            Some(state) => {
                state.sgd_step_row(row, cols, grad_row, lr);
                for (j, x) in w.row_mut(row).iter_mut().enumerate() {
                    *x = state.model_value(row * cols + j);
                }
            }
            None => {
                for (x, &g) in w.row_mut(row).iter_mut().zip(grad_row) {
                    *x = self.mode.quantize(*x - lr * g, self.rng.as_mut());
                }
            }
        }
    }

    /// Extra optimizer-state bytes beyond the FP32 weights (Split modes
    /// replace the FP32 tensor entirely; this reports their LSB plane).
    pub fn state_bytes(&self) -> usize {
        match &self.split {
            Some(t) => t.nbytes().saturating_sub(2 * t.len()), // lo plane only
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_tensor::init::{seeded_rng, uniform};

    #[test]
    fn fp32_step_is_plain_sgd() {
        let mut w = Matrix::from_slice(1, 2, &[1.0, -1.0]);
        let mut opt = ParamOptimizer::new(PrecisionMode::Fp32, w.as_mut_slice(), 0);
        let g = Matrix::from_slice(1, 2, &[0.5, 0.5]);
        opt.step(w.as_mut_slice(), g.as_slice(), 0.1);
        assert_eq!(w.as_slice(), &[0.95, -1.05]);
    }

    #[test]
    fn split_mode_weights_are_valid_bf16() {
        let mut rng = seeded_rng(1, 0);
        let mut w = uniform(4, 4, -1.0, 1.0, &mut rng);
        let mut opt = ParamOptimizer::new(PrecisionMode::Bf16Split, w.as_mut_slice(), 0);
        let g = uniform(4, 4, -0.1, 0.1, &mut rng);
        for _ in 0..10 {
            opt.step(w.as_mut_slice(), g.as_slice(), 0.05);
            for &x in w.as_slice() {
                assert_eq!(x.to_bits() & 0xFFFF, 0, "weight {x} is not bf16");
            }
        }
    }

    #[test]
    fn split_master_matches_fp32_master_exactly() {
        // The Split-SGD guarantee: the *reconstructed* master weights equal
        // plain FP32 SGD on the original (full-precision) initial weights —
        // the hi/lo planes together lose nothing.
        let mut rng = seeded_rng(2, 0);
        let init = uniform(2, 8, -1.0, 1.0, &mut rng);
        let g = uniform(2, 8, -0.2, 0.2, &mut rng);

        let mut w_split = init.clone();
        let mut opt = ParamOptimizer::new(PrecisionMode::Bf16Split, w_split.as_mut_slice(), 0);
        let mut w_fp32: Vec<f32> = init.as_slice().to_vec();
        for _ in 0..50 {
            opt.step(w_split.as_mut_slice(), g.as_slice(), 0.03);
            for (x, &gv) in w_fp32.iter_mut().zip(g.as_slice()) {
                *x -= 0.03 * gv;
            }
        }
        let master = opt.split.as_ref().unwrap().to_f32_full();
        assert_eq!(master, w_fp32);
    }

    #[test]
    fn fp24_weights_stay_quantized() {
        let mut rng = seeded_rng(3, 0);
        let mut w = uniform(3, 3, -1.0, 1.0, &mut rng);
        let mut opt = ParamOptimizer::new(PrecisionMode::Fp24, w.as_mut_slice(), 0);
        let g = uniform(3, 3, -0.1, 0.1, &mut rng);
        opt.step(w.as_mut_slice(), g.as_slice(), 0.1);
        for &x in w.as_slice() {
            assert_eq!(x.to_bits() & 0xFF, 0, "weight {x} is not fp24");
        }
    }

    #[test]
    fn pure_bf16_loses_tiny_updates_but_split_does_not() {
        let mut w_pure = Matrix::from_slice(1, 1, &[1.0]);
        let mut opt_pure = ParamOptimizer::new(PrecisionMode::Bf16Pure, w_pure.as_mut_slice(), 0);
        let mut w_split = Matrix::from_slice(1, 1, &[1.0]);
        let mut opt_split =
            ParamOptimizer::new(PrecisionMode::Bf16Split, w_split.as_mut_slice(), 0);
        let g = Matrix::from_slice(1, 1, &[2.0f32.powi(-12)]);
        for _ in 0..2048 {
            opt_pure.step(w_pure.as_mut_slice(), g.as_slice(), 1.0);
            opt_split.step(w_split.as_mut_slice(), g.as_slice(), 1.0);
        }
        assert_eq!(w_pure.as_slice()[0], 1.0, "bf16 swallows 2^-12 steps");
        assert!(w_split.as_slice()[0] < 1.0, "split accumulates them");
    }

    #[test]
    fn row_step_touches_only_that_row() {
        let mut w = Matrix::from_fn(3, 2, |_, _| 1.0);
        let mut opt = ParamOptimizer::new(PrecisionMode::Bf16Split, w.as_mut_slice(), 0);
        opt.step_row(&mut w, 1, &[1.0, 2.0], 0.25);
        assert_eq!(w.row(0), &[1.0, 1.0]);
        assert_eq!(w.row(2), &[1.0, 1.0]);
        assert!((w[(1, 0)] - 0.75).abs() < 1e-2);
        assert!((w[(1, 1)] - 0.5).abs() < 1e-2);
    }

    #[test]
    fn fp16_stochastic_weights_stay_on_grid_and_are_unbiased() {
        let mut w = Matrix::from_slice(1, 1, &[1.0]);
        let mut opt = ParamOptimizer::new(PrecisionMode::Fp16Stochastic, w.as_mut_slice(), 1);
        // Repeated sub-ULP updates: RNE would freeze the weight; stochastic
        // rounding lets it drift at the right *rate* in expectation.
        let g = Matrix::from_slice(1, 1, &[2.0f32.powi(-13)]); // 1/8 ULP at 1.0
        for _ in 0..4000 {
            opt.step(w.as_mut_slice(), g.as_slice(), 1.0);
            let x = w.as_slice()[0];
            assert_eq!(
                dlrm_precision::fp16::quantize_f32(x),
                x,
                "weight must stay on the fp16 grid"
            );
        }
        let expected = 1.0 - 4000.0 * 2.0f64.powi(-13);
        let got = w.as_slice()[0] as f64;
        assert!(
            (got - expected).abs() < 0.1 * (1.0 - expected).abs(),
            "drift {got} vs expected {expected}"
        );
    }

    #[test]
    fn fp16_stochastic_tensors_draw_from_their_own_streams() {
        // Two equal-sized tensors under one gradient: each stream makes its
        // own rounding decisions, and a stream is reproducible.
        let step = |stream| {
            let mut w = vec![1.0f32; 64];
            let mut opt = ParamOptimizer::new(PrecisionMode::Fp16Stochastic, &mut w, stream);
            opt.step(&mut w, &[2.0f32.powi(-13); 64], 1.0);
            w
        };
        assert_ne!(step(0), step(1));
        assert_eq!(step(1), step(1));
    }

    #[test]
    fn state_bytes_accounting() {
        let mut w = Matrix::zeros(10, 10);
        let split = ParamOptimizer::new(PrecisionMode::Bf16Split, w.as_mut_slice(), 0);
        assert_eq!(split.state_bytes(), 200); // 100 u16 LSBs
        let mut w2 = Matrix::zeros(10, 10);
        let fp32 = ParamOptimizer::new(PrecisionMode::Fp32, w2.as_mut_slice(), 0);
        assert_eq!(fp32.state_bytes(), 0);
    }
}
