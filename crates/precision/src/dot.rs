//! Bit-accurate emulation of the Cooper Lake `vdpbf16ps` instruction.
//!
//! `vdpbf16ps` computes, per FP32 accumulator lane, a dot-product of *pairs*
//! of BF16 elements: `acc += a[2i] * b[2i] + a[2i+1] * b[2i+1]`, where each
//! BF16 product is formed exactly (a BF16×BF16 product fits in FP32) and the
//! two products are accumulated into the FP32 lane. The paper uses a
//! bit-accurate software emulation of this instruction for the Figure 16
//! convergence study; we mirror that here.

use crate::bf16::Bf16;

/// One `vdpbf16ps` lane step: `acc + a0*b0 + a1*b1` with exact BF16
/// products and FP32 accumulation, matching the instruction's dataflow
/// (first product added, then second).
#[inline]
pub fn dp_lane(acc: f32, a0: Bf16, a1: Bf16, b0: Bf16, b1: Bf16) -> f32 {
    // Each BF16 multiply is exact in FP32 (8+8=16 mantissa bits needed,
    // 24 available), so ordering only matters for the two adds.
    let p0 = a0.to_f32() * b0.to_f32();
    let p1 = a1.to_f32() * b1.to_f32();
    (acc + p0) + p1
}

/// Dot product of two BF16 vectors with FP32 accumulation, processed in
/// pairs exactly as a `vdpbf16ps` loop would.
///
/// Odd-length inputs process the final element as a pair with an implicit
/// zero, matching how kernels pad their tails.
pub fn dot_bf16(a: &[Bf16], b: &[Bf16]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_bf16 length mismatch");
    let mut acc = 0.0f32;
    let pairs = a.len() / 2;
    for i in 0..pairs {
        acc = dp_lane(acc, a[2 * i], a[2 * i + 1], b[2 * i], b[2 * i + 1]);
    }
    if a.len() % 2 == 1 {
        let last = a.len() - 1;
        acc = dp_lane(acc, a[last], Bf16::ZERO, b[last], Bf16::ZERO);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf16::quantize_f32;

    fn bf(v: &[f32]) -> Vec<Bf16> {
        v.iter().map(|&x| Bf16::from_f32_rne(x)).collect()
    }

    #[test]
    fn products_are_exact_in_f32() {
        // Any two bf16 values multiply exactly in f32.
        let a = Bf16::from_f32_rne(1.5703125); // needs full 7 mantissa bits
        let b = Bf16::from_f32_rne(0.7734375);
        let exact = (a.to_f32() as f64) * (b.to_f32() as f64);
        assert_eq!(dp_lane(0.0, a, Bf16::ZERO, b, Bf16::ZERO) as f64, exact);
    }

    #[test]
    fn dot_matches_f64_within_accumulation_error() {
        let av: Vec<f32> = (0..97).map(|i| ((i * 7) % 13) as f32 * 0.093).collect();
        let bv: Vec<f32> = (0..97).map(|i| ((i * 5) % 11) as f32 * -0.041).collect();
        let (a, b) = (bf(&av), bf(&bv));
        let got = dot_bf16(&a, &b) as f64;
        let want: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x.to_f32() as f64) * (y.to_f32() as f64))
            .sum();
        assert!((got - want).abs() < 1e-4, "got {got}, want {want}");
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let a = bf(&[1.0, 2.0, 3.0]);
        let b = bf(&[4.0, 5.0, 6.0]);
        assert_eq!(dot_bf16(&a, &b), 32.0);
    }

    #[test]
    fn empty_dot_is_zero() {
        assert_eq!(dot_bf16(&[], &[]), 0.0);
    }

    #[test]
    fn accumulation_order_is_pairwise_sequential() {
        // Construct a case where FP32 accumulation order is observable:
        // (1e8 + 1) - 1e8 == 0 in f32 if summed left-to-right pairwise.
        let big = quantize_f32(1e8);
        let a = bf(&[big, 1.0, -big, 0.0]);
        let b = bf(&[1.0, 1.0, 1.0, 1.0]);
        // acc = ((0 + big) + 1) == big (1 absorbed), then + (-big) == 0.
        assert_eq!(dot_bf16(&a, &b), 0.0);
    }
}
