//! Split-SGD-BF16 master-weight storage (Section VII).
//!
//! Classic mixed-precision training keeps 16-bit "regular" weights *plus* a
//! full FP32 master copy — a 3× overhead that DLRM's capacity-starved
//! embedding tables cannot afford. Split-SGD instead stores each FP32 weight
//! as two 16-bit planes:
//!
//! * the **hi plane** holds the 16 MSBs of every FP32 value — which is a
//!   *valid BF16 tensor*, used directly (and exclusively) by the forward and
//!   backward passes;
//! * the **lo plane** holds the 16 LSBs and lives only in the optimizer.
//!
//! The SGD update recombines both planes, updates in full FP32 and splits
//! the result back, so training is bit-identical in weight evolution to an
//! FP32 optimizer whose forward/backward happen to read BF16-rounded
//! weights. Total storage equals plain FP32 — master weights are implicit.
//!
//! The paper also reports that keeping only 8 LSBs is **not** enough to
//! reach state-of-the-art accuracy; [`LoBits::Eight`] reproduces that
//! ablation, and [`LoBits::Zero`] gives the (worse still) pure-BF16 SGD.

use crate::bf16::Bf16;

/// How many low-order bits of each FP32 weight the optimizer retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoBits {
    /// Full Split-SGD: 16 LSBs kept, updates are FP32-exact.
    Sixteen,
    /// Ablation: only 8 LSBs kept (paper: "not enough to train DLRM").
    Eight,
    /// Pure BF16 SGD: no optimizer state beyond the BF16 weights.
    Zero,
}

/// An FP32 tensor stored as split hi/lo 16-bit planes.
pub struct SplitTensor {
    hi: Vec<u16>,
    /// Low plane; stores 16, 8 (in the low byte) or 0 bits per element.
    lo: Vec<u16>,
    lo_bits: LoBits,
}

impl SplitTensor {
    /// Builds a split tensor from FP32 values, retaining `lo_bits` of
    /// low-order state.
    pub fn from_f32(values: &[f32], lo_bits: LoBits) -> Self {
        let mut t = SplitTensor {
            hi: vec![0; values.len()],
            lo: match lo_bits {
                LoBits::Zero => Vec::new(),
                _ => vec![0; values.len()],
            },
            lo_bits,
        };
        for (i, &v) in values.iter().enumerate() {
            t.store(i, v);
        }
        t
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.hi.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.hi.is_empty()
    }

    /// Which low-bit mode this tensor uses.
    pub fn lo_bits(&self) -> LoBits {
        self.lo_bits
    }

    /// The hi plane viewed as BF16 — what the forward/backward passes read.
    ///
    /// This is a zero-cost reinterpretation: `Bf16` is `repr(transparent)`
    /// over `u16`.
    pub fn as_bf16(&self) -> &[Bf16] {
        // SAFETY: Bf16 is repr(transparent) over u16, so it has the same
        // size and alignment; the view covers exactly `self.hi`'s elements
        // and borrows `self`, so the plane outlives it and is not mutated.
        unsafe { std::slice::from_raw_parts(self.hi.as_ptr().cast::<Bf16>(), self.hi.len()) }
    }

    /// Element `i` widened from the BF16 hi plane only (model view).
    #[inline]
    pub fn model_value(&self, i: usize) -> f32 {
        Bf16(self.hi[i]).to_f32()
    }

    /// Element `i` reconstructed from both planes (optimizer view).
    #[inline]
    pub fn full_value(&self, i: usize) -> f32 {
        let lo = match self.lo_bits {
            LoBits::Sixteen => self.lo[i] as u32,
            LoBits::Eight => ((self.lo[i] & 0xFF) as u32) << 8,
            LoBits::Zero => 0,
        };
        f32::from_bits(((self.hi[i] as u32) << 16) | lo)
    }

    /// Stores an FP32 value as split planes, discarding bits the mode
    /// doesn't retain.
    #[inline]
    pub fn store(&mut self, i: usize, v: f32) {
        let bits = v.to_bits();
        self.hi[i] = (bits >> 16) as u16;
        match self.lo_bits {
            LoBits::Sixteen => self.lo[i] = bits as u16,
            LoBits::Eight => self.lo[i] = ((bits >> 8) & 0xFF) as u16,
            LoBits::Zero => {}
        }
    }

    /// The Split-SGD update: `w[i] -= lr * grad[i]` for every element, with
    /// the subtraction performed on the recombined FP32 value.
    ///
    /// "66% of the training passes enjoy a 2x bandwidth reduction" — the
    /// fwd/bwd passes touch only the hi plane; only this update reads both.
    pub fn sgd_step(&mut self, grads: &[f32], lr: f32) {
        assert_eq!(grads.len(), self.len(), "sgd_step gradient length");
        for (i, &g) in grads.iter().enumerate() {
            let w = self.full_value(i) - lr * g;
            self.store(i, w);
        }
    }

    /// Sparse Split-SGD update for embedding rows: applies `sgd_step`
    /// semantics to `row` of a `rows × cols` table stored in this tensor.
    pub fn sgd_step_row(&mut self, row: usize, cols: usize, grad_row: &[f32], lr: f32) {
        assert_eq!(grad_row.len(), cols);
        let base = row * cols;
        for (j, &g) in grad_row.iter().enumerate() {
            let w = self.full_value(base + j) - lr * g;
            self.store(base + j, w);
        }
    }

    /// Reconstructs the full-precision tensor (optimizer view).
    pub fn to_f32_full(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.full_value(i)).collect()
    }

    /// Widens the model (BF16) view to FP32.
    pub fn to_f32_model(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.model_value(i)).collect()
    }

    /// Storage footprint in bytes (both planes).
    pub fn nbytes(&self) -> usize {
        (self.hi.len() + self.lo.len()) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_bit_round_trip_is_exact() {
        let vals = [1.0f32, -std::f32::consts::PI, 1e-20, 3e25, 0.1];
        let t = SplitTensor::from_f32(&vals, LoBits::Sixteen);
        assert_eq!(t.to_f32_full(), vals);
    }

    #[test]
    fn model_view_is_truncated_bf16() {
        let vals = [std::f32::consts::PI];
        let t = SplitTensor::from_f32(&vals, LoBits::Sixteen);
        // hi plane is the *truncated* upper half (split, not rounded).
        assert_eq!(
            t.model_value(0).to_bits(),
            std::f32::consts::PI.to_bits() & 0xFFFF_0000
        );
    }

    #[test]
    fn split_sgd_matches_fp32_sgd_exactly() {
        // The headline property: with 16 LSBs, weight evolution is
        // bit-identical to plain FP32 SGD.
        let init: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.01).collect();
        let mut split = SplitTensor::from_f32(&init, LoBits::Sixteen);
        let mut fp32 = init.clone();
        let lr = 0.05f32;
        for step in 0..100 {
            let grads: Vec<f32> = (0..64)
                .map(|i| ((i + step) as f32 * 0.37).sin() * 0.1)
                .collect();
            split.sgd_step(&grads, lr);
            for (w, &g) in fp32.iter_mut().zip(&grads) {
                *w -= lr * g;
            }
        }
        let recon = split.to_f32_full();
        assert_eq!(recon, fp32, "Split-SGD must be bit-identical to FP32 SGD");
    }

    #[test]
    fn eight_bit_mode_loses_small_updates() {
        // With only 8 extra LSBs, a tiny update that lands below the kept
        // bits is lost — the mechanism behind the paper's failed ablation.
        // Use an *increasing* weight (negative gradient) so the update stays
        // within the binade of 1.5 and is swallowed by truncation.
        let mut t8 = SplitTensor::from_f32(&[1.5], LoBits::Eight);
        let mut t16 = SplitTensor::from_f32(&[1.5], LoBits::Sixteen);
        let tiny = -(2.0f32.powi(-18)); // below 1-8-15 resolution at 1.5
        for _ in 0..1024 {
            t8.sgd_step(&[tiny], 1.0);
            t16.sgd_step(&[tiny], 1.0);
        }
        assert_eq!(t8.full_value(0), 1.5, "8-bit state swallows the updates");
        assert!(t16.full_value(0) > 1.5, "16-bit state accumulates them");
    }

    #[test]
    fn zero_bit_mode_is_pure_bf16() {
        let t = SplitTensor::from_f32(&[std::f32::consts::PI], LoBits::Zero);
        assert_eq!(t.full_value(0), t.model_value(0));
        assert_eq!(t.nbytes(), 2);
    }

    #[test]
    fn storage_footprint_equals_fp32_for_sixteen() {
        let t = SplitTensor::from_f32(&[0.0; 100], LoBits::Sixteen);
        assert_eq!(t.nbytes(), 400); // same as 100 f32s; no 3x master copy
    }

    #[test]
    fn row_update_touches_only_that_row() {
        let vals = vec![1.0f32; 12]; // 3 rows x 4 cols
        let mut t = SplitTensor::from_f32(&vals, LoBits::Sixteen);
        t.sgd_step_row(1, 4, &[1.0, 1.0, 1.0, 1.0], 0.5);
        let full = t.to_f32_full();
        assert_eq!(&full[0..4], &[1.0; 4]);
        assert_eq!(&full[4..8], &[0.5; 4]);
        assert_eq!(&full[8..12], &[1.0; 4]);
    }

    #[test]
    fn as_bf16_view_matches_model_values() {
        let vals = [0.3f32, -7.25, 42.0];
        let t = SplitTensor::from_f32(&vals, LoBits::Sixteen);
        for (i, b) in t.as_bf16().iter().enumerate() {
            assert_eq!(b.to_f32(), t.model_value(i));
        }
    }
}
