//! # dlrm-precision — reduced-precision numerics substrate
//!
//! Bit-accurate software implementations of the non-FP32 datatypes the paper
//! uses (Section VII):
//!
//! * [`Bf16`] — BFLOAT16 (1-8-7): the upper 16 bits of an IEEE-754 FP32
//!   value, with round-to-nearest-even conversion. BF16 "perfectly aliases
//!   with the upper half of IEEE754-FP32 numbers" — the property the
//!   Split-SGD trick exploits.
//! * [`Fp24`] — the 1-8-15 format of Figure 16's third curve: FP32 with the
//!   mantissa truncated to 15 explicit bits (i.e. BF16 plus 8 extra LSBs of
//!   mantissa).
//! * [`Fp16`] — IEEE binary16 with round-to-nearest-even and *stochastic*
//!   rounding, used to reproduce the paper's negative result (FP16
//!   embedding training does not reach state-of-the-art with plain SGD).
//! * [`split`] — [`split::SplitTensor`], the Split-SGD-BF16 master-weight
//!   representation: FP32 values stored as two `u16` planes (all MSBs, then
//!   all LSBs). Forward/backward read only the MSB plane (a valid BF16
//!   tensor); the optimizer recombines both planes and performs a fully
//!   FP32-accurate update.
//! * [`dot`] — a bit-accurate emulation of the Cooper Lake `vdpbf16ps`
//!   instruction (BF16 pair dot-product accumulating into FP32), mirroring
//!   the emulation the paper used before silicon was available.
//!
//! Every `unsafe` block in the crate says why it is sound in a `// SAFETY:`
//! comment; clippy enforces it.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bf16;
pub mod dot;
pub mod fp16;
pub mod fp24;
pub mod split;

pub use bf16::Bf16;
pub use fp16::Fp16;
pub use fp24::Fp24;
pub use split::SplitTensor;

/// Rounding mode used when narrowing FP32 to a reduced-precision format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// IEEE round-to-nearest-even (the hardware default for BF16 converts).
    NearestEven,
    /// Truncation toward zero (what a raw bit-shift produces).
    Truncate,
}
