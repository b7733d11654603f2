//! GEMM kernels in the three tiers of Figure 5.
//!
//! | Tier | Paper analogue | Module |
//! |---|---|---|
//! | naive triple loop | correctness reference | [`naive`] |
//! | flat parallel GEMM | PyTorch calling multi-threaded MKL on 2-D tensors | [`flat`] |
//! | blocked batch-reduce GEMM | "this work" (Algorithm 5) | [`blocked`] |
//!
//! The blocked tier operates on the 4-D layouts from `dlrm_tensor::blocked`
//! and dispatches at runtime to AVX-512, AVX2 or scalar microkernels
//! ([`micro`]).

pub mod blocked;
pub mod flat;
pub mod micro;
mod micro_ref;
pub mod naive;

pub use blocked::{
    fc_backward_data, fc_backward_data_fused, fc_backward_weights, fc_backward_weights_fused,
    fc_forward, fc_forward_fused,
};
pub use flat::{par_gemm_nn, par_gemm_nt, par_gemm_tn};
pub use micro::{detect_isa, set_isa_override, Isa};
pub use naive::{gemm_nn, gemm_nt, gemm_tn};

/// Floating-point operations in one `K×C · C×N` GEMM (multiply + add).
pub fn gemm_flops(k: usize, c: usize, n: usize) -> u64 {
    2 * k as u64 * c as u64 * n as u64
}

/// FLOPs of one fully-connected training iteration (fwd + bwd-data +
/// bwd-weights), as used when reporting Figure 5 efficiency.
pub fn fc_training_flops(k: usize, c: usize, n: usize) -> u64 {
    3 * gemm_flops(k, c, n)
}

/// A `*mut f32` that may be smuggled into a thread team. Each thread must
/// only touch a disjoint region; the kernels in this crate uphold that by
/// partitioning output *blocks* across threads.
#[derive(Clone, Copy)]
pub(crate) struct SendMutPtr(pub *mut f32);
// SAFETY: see type docs — disjoint-write discipline is maintained by every
// kernel that constructs one of these.
unsafe impl Send for SendMutPtr {}
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// Returns the raw pointer. Taking it through a method (rather than the
    /// field) makes closures capture the whole `Send + Sync` wrapper under
    /// edition-2021 disjoint capture rules.
    #[inline]
    pub(crate) fn get(self) -> *mut f32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(fc_training_flops(2, 3, 4), 144);
    }
}
