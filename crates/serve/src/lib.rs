//! # dlrm-serve — micro-batched DLRM inference
//!
//! Training is only half of a production recommender: this crate serves
//! the trained model. The request path (see DESIGN.md §11):
//!
//! * [`MicroBatcher`] — turns concurrent single-user requests into bounded
//!   micro-batches under a batching window (the throughput/latency dial).
//! * [`ServeEngine`] — a worker thread running a forward-only
//!   [`ServeModel`] over the training stack's SIMD embedding + GEMM +
//!   interaction kernels, every table gathered straight from its rows,
//!   recording per-request latency for p50/p99/QPS SLO reporting
//!   ([`metrics`]).
//! * [`reply`] — one-shot reply slots: a micro-batch's responses are all
//!   published before any waiting client is woken, one wake per batch.
//!
//! For multi-socket hosts, [`sharded`] scales the same engine across
//! worker teams (DESIGN.md §15): tables are partitioned over shards by the
//! trainer's `OwnershipMap`, each shard runs its own lane + table-server
//! thread pair with its own (optionally core-pinned) GEMM team, and lanes
//! fan sparse lookups out to owning shards over lock-free SPSC rings
//! ([`spsc`]).
//!
//! [`HotRowCache`] (CLOCK-with-aging, doorkeeper admission) is a standalone
//! component: no engine consults it — in front of local DRAM it lost to
//! the direct gather on every measured shape (DESIGN.md §11) — and
//! [`CacheSizing`] arguments are accepted without effect.
//!
//! Correctness contract: a request's logit is **bitwise identical**
//! however it is batched, and sharded and unsharded output are bitwise
//! identical for any shard count.

pub mod batcher;
pub mod cache;
pub mod engine;
pub mod metrics;
pub mod reply;
pub mod sharded;
pub mod spsc;

pub use batcher::MicroBatcher;
pub use cache::{CacheStats, HotRowCache};
pub use engine::{
    CacheSizing, EngineReport, Request, Response, ServeClient, ServeConfig, ServeEngine,
    ServeModel, ShardReport,
};
pub use metrics::{summarize_latencies_us, LatencySummary};
pub use sharded::{ShardSpec, ShardedEngine, ShardedServeModel};
