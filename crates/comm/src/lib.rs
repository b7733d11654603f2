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
//!   alltoall(v), binomial-tree broadcast, scatter and gather.
//! * [`nonblocking`] — progress-thread engines that replicate the two
//!   communication backends the paper compares:
//!   [`nonblocking::Backend::MpiLike`] drives everything through **one**
//!   progress channel (so an alltoall enqueued after an allreduce cannot
//!   start until the allreduce finishes — the in-order-completion artifact
//!   of Figures 10–11), while [`nonblocking::Backend::CclLike`] offers
//!   multiple independent channels like oneCCL's worker threads.
//! * [`instrument`] — per-primitive wall-clock accounting used by the
//!   experiment harnesses to split "framework" from "wait" time, plus
//!   [`instrument::WireStats`] byte counters every send records into.
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
//!   threaded through [`world`] and [`nonblocking`], plus the
//!   straggler/late-message knobs `dlrm-clustersim` shares. Every fault
//!   decision is a pure hash of the seed and logical coordinates, so any
//!   failing schedule replays from a single `u64`.
//!
//! Everything is deterministic given deterministic callers: messages
//! between a (src, dst) pair arrive in send order, and all collectives use
//! fixed algorithms and schedules. The chaos layer preserves exactly that
//! contract — faults perturb the physical transport and are repaired before
//! delivery — which is what the `chaos` test suites verify bitwise.

pub mod chaos;
pub mod collectives;
pub mod instrument;
pub mod nonblocking;
pub mod wire;
pub mod world;

pub use chaos::{ChaosConfig, ChaosSnapshot, ChaosStats, FaultPlan};
pub use instrument::{time_opt, OpKind, TimingRecorder, WireSnapshot, WireStats};
pub use nonblocking::{Backend, ProgressEngine, Request};
pub use wire::WirePrecision;
pub use world::{CommWorld, Communicator, Int8Payload, Payload};
