//! # dlrm-comm — message-passing substrate (MPI/oneCCL stand-in)
//!
//! The paper's distributed DLRM runs one MPI rank per socket and exchanges
//! data through MPI or Intel oneCCL. Neither library has a mature Rust
//! ecosystem, so this crate implements the required subset from scratch over
//! shared memory with *threads as ranks*:
//!
//! * [`world`] — rank bootstrap, point-to-point typed channels, barrier.
//! * [`collectives`] — blocking collectives built on point-to-point
//!   messages: ring allreduce (materialized as reduce-scatter + allgather,
//!   exactly as the paper does), ring reduce-scatter / allgather, pairwise
//!   alltoall(v) and binomial-tree broadcast.
//! * [`nonblocking`] — progress-thread engines that replicate the two
//!   communication backends the paper compares:
//!   [`nonblocking::Backend::MpiLike`] drives everything through **one**
//!   progress channel (so an alltoall enqueued after an allreduce cannot
//!   start until the allreduce finishes — the in-order-completion artifact
//!   of Figures 10–11), while [`nonblocking::Backend::CclLike`] offers
//!   multiple independent channels like oneCCL's worker threads.
//! * [`instrument`] — the [`instrument::WireStats`] byte counters every
//!   send records into. The wall-clock recorder that splits "framework"
//!   from "wait" time ([`TimingRecorder`], [`OpKind`], [`time_opt`]) lives
//!   in `dlrm-telemetry` and is re-exported here, since a
//!   [`Pending`] collective charges its completion to it.
//! * [`wire`] — the [`wire::WirePrecision`] knob and its codec, the one
//!   module that knows how `f32` becomes a payload and back: the hot
//!   collectives take a wire and ship BF16 halfwords (RNE narrowing, exact
//!   widening, FP32 local accumulation), halving alltoall and allreduce
//!   bytes exactly as the paper's 16-bit path does — or scaled INT8 bytes
//!   (self-describing per-chunk scale headers, or a pre-agreed
//!   [`wire::WirePrecision::Int8Shared`] scale with no header at all),
//!   quartering them.
//! * [`chaos`] — seeded fault injection (message delay/reorder/duplicate,
//!   drop + bounded retry, rank stalls, progress-worker kill-restart)
//!   threaded through [`world`] and [`nonblocking`]. Every fault
//!   decision is a pure hash of the seed and logical coordinates, so any
//!   failing schedule replays from a single `u64`.
//!
//! Everything is deterministic given deterministic callers: messages
//! between a (src, dst) pair arrive in send order, and all collectives use
//! fixed algorithms and schedules. The chaos layer preserves exactly that
//! contract — faults perturb the physical transport and are repaired before
//! delivery — which is what the `chaos` test suites verify bitwise.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod collectives;
pub mod instrument;
pub mod nonblocking;
pub mod wire;
pub mod world;

pub use chaos::{ChaosConfig, ChaosSnapshot, ChaosStats, FaultPlan};
pub use dlrm_telemetry::{time_opt, OpKind, TimingRecorder};
pub use instrument::{WireSnapshot, WireStats};
pub use nonblocking::{Backend, Pending, ProgressEngine, Request};
pub use wire::WirePrecision;
pub use world::{CommWorld, Communicator, Int8Payload, Payload};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking a poisoned lock as is. Every value this crate keeps
/// behind a mutex is valid after any panic of a holder, and a rank that
/// panics (a tag mismatch, a dead peer) must still flush its outboxes when
/// its endpoint drops during the unwind.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
