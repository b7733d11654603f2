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
//! the same global batches: at R = 1 bitwise, losses and every parameter
//! plane (`tests/one_rank_step.rs`); at R > 1 up to the reassociation of
//! the summed gradients across ranks.
//!
//! [`DistDlrm`] is the hybrid-parallel boundary of the one train step
//! (`dlrm::step`, DESIGN.md §18). The boundary's collectives run under
//! two [`distributed::Schedule`]s, the naive `Synchronous` ordering and the
//! paper's `Overlapped` one, built on the split-phase exchange
//! ([`exchange`]) and an issue-as-produced bucketed allreduce
//! ([`bucketing`]); overlap moves time, not bits. [`distributed::WireConfig`]
//! picks each hot collective's on-wire element format ([`WirePrecision`]),
//! fixed or chosen per bucket by the error-bounded
//! [`wirepolicy::AdaptivePolicy`]. [`prefetch::Prefetch`] swaps the pooled
//! forward alltoall for a BagPipe-style lookahead pipeline that ships each
//! unique row once per residency — bitwise-identical losses and parameter
//! planes, fewer bytes (DESIGN.md §8, §10, §12, §14).

#![forbid(unsafe_code)]

pub mod bucketing;
pub mod characteristics;
pub mod ddp;
pub mod distributed;
pub mod exchange;
pub mod prefetch;
pub mod wirepolicy;

pub use bucketing::{BucketPlan, DEFAULT_BUCKET_CAP_BYTES};
pub use characteristics::DistCharacteristics;
pub use distributed::{
    run_ranks, run_training, run_training_with_chaos, AllreduceWire, DistDlrm, DistOptions,
    Schedule, WireConfig,
};
pub use dlrm_comm::wire::WirePrecision;
pub use exchange::ExchangeStrategy;
pub use prefetch::Prefetch;
pub use wirepolicy::{AdaptivePolicy, PolicyStats};
