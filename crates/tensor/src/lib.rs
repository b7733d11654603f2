//! # dlrm-tensor — dense tensor substrate
//!
//! This crate provides the dense-tensor building blocks used by every other
//! crate in the workspace:
//!
//! * [`AlignedVec`] — a cache-line-aligned `f32` buffer. All hot tensors in
//!   the reproduction live in 64-byte-aligned storage so that SIMD kernels
//!   can use aligned loads and so that a tensor row never straddles a cache
//!   line unnecessarily (the paper's embedding kernels read *full rows*, i.e.
//!   consecutive cache lines, from each table).
//! * [`Matrix`] — a row-major 2-D `f32` matrix with the small set of
//!   operations the DLRM operators need.
//! * [`blocked`] — the 4-D blocked tensor layouts of Algorithm 5 in the
//!   paper: weights as `[Kb][Cb][bc][bk]` and activations as
//!   `[Cb][Nb][bn][bc]`. These layouts expose locality for the batch-reduce
//!   GEMM microkernel and avoid large power-of-two strides.
//! * [`init`] — reproducible random initializers (Xavier / uniform / normal).
//! * [`compare`] — tolerant numeric comparison helpers used pervasively by
//!   the test suites that check optimized kernels against naive references.
//!
//! Every `unsafe` block in the crate says why it is sound in a `// SAFETY:`
//! comment; clippy enforces it.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aligned;
pub mod blocked;
pub mod compare;
pub mod init;
pub mod matrix;
pub mod util;

pub use aligned::AlignedVec;
pub use blocked::{BlockedActivations, BlockedWeights, Blocking};
pub use compare::{assert_allclose, max_abs_diff, max_rel_diff};
pub use matrix::Matrix;
