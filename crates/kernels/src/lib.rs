//! # dlrm-kernels — single-socket compute kernels
//!
//! From-scratch implementations of every compute kernel the paper's
//! single-socket sections (III and VI-A/C) analyze:
//!
//! * [`threadpool`] — a persistent worker-team thread pool with static work
//!   partitioning. The paper hand-manages thread teams (e.g. dedicating
//!   `S` cores of a socket to SGD/communication and `T − S` to GEMMs), so
//!   the pool exposes explicit thread ids and team sizes rather than
//!   work-stealing.
//! * [`gemm`] — GEMM kernels in three tiers mirroring Figure 5's three
//!   implementations: a naive reference, a "large flat GEMM" path
//!   (PyTorch/MKL-style), and the blocked batch-reduce GEMM of Algorithm 5
//!   with AVX2/AVX-512 microkernels selected at runtime.
//! * [`embedding`] — EmbeddingBag forward (Algorithm 1), backward
//!   (Algorithm 2) and the four update strategies of Section III-A:
//!   reference, atomic compare-exchange, RTM-style optimistic striped
//!   locking, and the race-free row-partitioned update (Algorithm 4), plus
//!   the fused backward+update the paper measured standalone. The engine
//!   adds [`embedding::rowops`] (shared scalar/AVX2/AVX-512 row primitives
//!   with software prefetch, bit-identical across tiers) and
//!   [`embedding::plan::BagPlan`] (per-batch counting-sort bucketing that
//!   turns the race-free and fused updates from O(NS·T) scans into O(NS)
//!   work — `UpdateStrategy::Bucketed`).
//! * [`interaction`] — the pairwise-dot feature interaction as a Gram
//!   kernel whose vector lanes are samples, plus the register-tile
//!   transpose that packs its operands; scalar/AVX2/AVX-512 tiers, bitwise
//!   the scalar `iter().sum()` chain.
//! * [`activations`] / [`loss`] — ReLU, sigmoid and binary cross-entropy
//!   with their backward passes.
//! * [`sgd`] — dense SGD including the Split-SGD-BF16 step.
//! * [`bf16wire`] — SIMD BF16 narrow/widen tiers used by the comm layer's
//!   wire-precision path (bitwise identical across tiers, like `rowops`).
//! * [`int8wire`] — SIMD scaled-INT8 quantize/dequantize tiers for the
//!   deeper (4×) wire tier, same cross-tier bit-exactness contract.

pub mod activations;
pub mod bf16wire;
pub mod embedding;
pub mod gemm;
pub mod int8wire;
pub mod interaction;
pub mod loss;
pub mod sgd;
pub mod threadpool;

pub use threadpool::ThreadPool;
