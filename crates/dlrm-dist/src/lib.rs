//! # dlrm-dist — hybrid-parallel distributed DLRM (Section IV)
//!
//! The paper's parallelization strategy, reproduced functionally with
//! threads as ranks over the `dlrm-comm` substrate:
//!
//! * **MLPs are data-parallel**: every rank holds a replica of the bottom
//!   and top MLPs and processes its `LN = GN/R` slice of the global
//!   minibatch; weight gradients are summed with an allreduce
//!   (reduce-scatter + allgather) and applied with an averaged SGD step —
//!   the Distributed-Data-Parallel pattern.
//! * **Embeddings are model-parallel**: table `t` lives on rank `t mod R`
//!   and its owner processes the *whole* global minibatch for it. The
//!   resulting minibatch mismatch at the interaction is fixed by an
//!   embedding **exchange**. Of the paper's four strategies the trainer
//!   runs the two alltoalls ([`exchange::ExchangeStrategy`]): Alltoall (one
//!   native blocking alltoall) and CCL-Alltoall (the alltoall on the
//!   multi-worker nonblocking backend). The two rooted scatter strategies
//!   are modelled by `dlrm-clustersim` only.
//!
//! The headline correctness property — verified by this crate's tests and
//! the workspace integration tests — is that **every strategy at every
//! rank count reproduces the single-process model's loss trajectory** on
//! the same global batches (up to float-summation reassociation).
//!
//! There is one train step; it runs under two [`distributed::Schedule`]s:
//! the naive `Synchronous` ordering, and the paper's `Overlapped` ordering
//! built on the split-phase exchange ([`exchange`]: one `begin`/`finish`
//! pair for both directions) and an issue-as-produced bucketed allreduce
//! ([`bucketing`]). The two are bitwise-identical in losses — overlap moves
//! time, not bits.
//!
//! Orthogonally to the schedule, [`distributed::WireConfig`] picks the
//! on-wire element format ([`WirePrecision`]) of each hot collective —
//! the forward/backward embedding alltoalls and the bucketed allreduce —
//! so the paper's 16-bit wire halves the exchanged bytes while all local
//! arithmetic stays FP32. The allreduce additionally supports
//! [`distributed::AllreduceWire::Adaptive`]: an error-bounded policy
//! ([`wirepolicy::AdaptivePolicy`]) that picks FP32/BF16/scaled-INT8 per
//! gradient bucket from running statistics, quartering allreduce bytes
//! when gradients allow while every rank stays bitwise identical.
//!
//! A third orthogonal knob, [`prefetch::Prefetch`], swaps the step's
//! embedding front end — the pooled forward alltoall — for a BagPipe-style
//! lookahead pipeline: per-window
//! index dedup, raw-row fetches that cross the wire once per residency,
//! local pooling, delayed-update row caches, and an early fetch of the
//! next batch's rows in flight behind backward compute — bitwise-identical
//! losses and parameter planes, fewer logical bytes.

#![forbid(unsafe_code)]

pub mod bucketing;
pub mod characteristics;
pub mod ddp;
pub mod distributed;
pub mod exchange;
pub mod prefetch;
pub mod wirepolicy;

pub use bucketing::{BucketPlan, BucketReducer, DEFAULT_BUCKET_CAP_BYTES};
pub use characteristics::DistCharacteristics;
pub use distributed::{
    run_ranks, run_training, run_training_with_chaos, AllreduceWire, DistDlrm, DistOptions,
    Schedule, WireConfig,
};
pub use dlrm_comm::wire::WirePrecision;
pub use exchange::ExchangeStrategy;
pub use prefetch::Prefetch;
pub use wirepolicy::{AdaptivePolicy, PolicyStats};
