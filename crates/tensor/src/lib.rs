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
//! * [`blocked`] — the blocked tensors of Algorithm 5 in the paper: one
//!   type, [`blocked::Blocked`], over a [`PanelGrid`] (a row-major matrix
//!   in a grid of windows, each panel the transpose of its window), in two
//!   roles: [`BlockedWeights`] `[Kb][Cb][bc][bk]` and
//!   [`BlockedActivations`] `[Cb][Nb][bn][bc]`. The layout exposes locality
//!   for the batch-reduce GEMM microkernel and avoids large power-of-two
//!   strides; the GEMM passes take every panel offset and stride from the
//!   grid, and every crossing to or from row-major storage is a
//!   [`simd::transpose`] per panel.
//! * [`init`] — reproducible random initializers (Xavier / uniform / normal).
//! * [`simd`] — the ISA dispatch the workspace's SIMD kernels read
//!   ([`simd::Isa`], [`simd::detect_isa`], one process-wide override), the
//!   masked tail loads and stores, and the register transposes: 8 × 8 and
//!   16 × 16 tiles, and the one panel transpose every crossing between
//!   row-major and blocked storage runs through.
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
pub mod simd;
pub mod util;

pub use aligned::AlignedVec;
pub use blocked::{BlockedActivations, BlockedWeights, Blocking, PanelGrid};
pub use compare::{assert_allclose, max_abs_diff, max_rel_diff};
pub use matrix::Matrix;
