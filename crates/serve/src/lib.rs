//! # dlrm-serve — micro-batched DLRM inference
//!
//! Training is only half of a production recommender: this crate serves
//! the trained model. One model layout, one engine (DESIGN.md §11, §15):
//!
//! * [`sharded`] — the forward-only model in the paper's hybrid-parallel
//!   layout: tables partitioned over `S` shards by the trainer's
//!   `OwnershipMap`, the MLP stack replicated on each shard's (optionally
//!   core-pinned) GEMM team, over the training stack's SIMD embedding +
//!   GEMM + interaction kernels. [`ServeModel`] is its one-shard case
//!   around a caller-supplied `Execution`.
//! * [`MicroBatcher`] — turns concurrent single-user requests into bounded
//!   micro-batches under a batching window (the throughput/latency dial).
//! * [`engine`] — [`ShardedEngine`]: a lane thread per shard draining the
//!   batcher — the tables its shard owns gathered in place, the rest asked
//!   of their owners' table-server threads over one std channel each —
//!   counting each request's latency into the lane's fixed-size
//!   [`LatencyHistogram`] for p50/p99 SLO reporting ([`metrics`]). [`ServeEngine`] is the same engine on a [`ServeModel`]:
//!   one lane, no server, one thread.
//! * [`reply`] — one-shot reply slots: a micro-batch's responses are all
//!   published before any waiting client is woken, one wake per batch.
//!
//! [`HotRowCache`] (CLOCK-with-aging, doorkeeper admission) is a standalone
//! component: no engine consults it — in front of local DRAM it lost to
//! the direct gather on every measured shape (DESIGN.md §11) — and
//! [`CacheSizing`] arguments are accepted without effect.
//!
//! Correctness contract: a request's logit is **bitwise identical** to
//! `DlrmModel::forward` on the same seed however it is batched and for any
//! shard count.

#![forbid(unsafe_code)]

pub mod batcher;
pub mod cache;
pub mod engine;
pub mod metrics;
pub mod reply;
pub mod sharded;

pub use batcher::MicroBatcher;
pub use cache::{CacheStats, HotRowCache};
pub use engine::{
    CacheSizing, EngineReport, Request, Response, ServeClient, ServeConfig, ServeEngine,
    ShardReport, ShardedEngine,
};
pub use metrics::{summarize_latencies_us, LatencyHistogram, LatencySummary};
pub use sharded::{ServeModel, ShardSpec, ShardedServeModel};
