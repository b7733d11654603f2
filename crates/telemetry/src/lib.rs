//! # dlrm-telemetry — one timing instrument for both trainers
//!
//! A [`TimingRecorder`] sums wall-clock time per [`OpKind`]. Both trainers
//! thread an optional recorder through their hot paths with [`time_opt`],
//! so with nothing attached a step takes no timestamps.
//!
//! The vocabulary covers both of the paper's time splits:
//! * Figure 8 splits a single-socket step into Embeddings / MLP / Rest
//!   (`dlrm::DlrmModel`).
//! * Figures 10–14 split a distributed step into compute plus
//!   "framework" (pre/post-processing: flat-buffer copies, gradient
//!   averaging, enqueueing) and "wait" (blocking on the primitive) per
//!   collective (`dlrm_dist::DistDlrm`). The paper instruments PyTorch's
//!   DDP and communication backends for this; the recorder is the
//!   equivalent hook for our harnesses.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The time buckets of Figures 8 and 10–14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Pure compute of a distributed step (GEMMs, embeddings, interaction,
    /// loss).
    Compute,
    /// Alltoall pre/post-processing in the framework.
    AlltoallFramework,
    /// Blocking on alltoall completion.
    AlltoallWait,
    /// Allreduce pre/post-processing in the framework.
    AllreduceFramework,
    /// Blocking on allreduce completion.
    AllreduceWait,
    /// Embedding forward/backward/update of a single-process step.
    Embeddings,
    /// Bottom- and top-MLP GEMMs (+ their SGD) of a single-process step.
    Mlp,
    /// The rest of a single-process step: interaction, loss.
    Rest,
}

impl OpKind {
    /// Stable machine-readable key (snake_case, for JSON reports).
    pub fn json_key(self) -> &'static str {
        match self {
            OpKind::Compute => "compute_s",
            OpKind::AlltoallFramework => "alltoall_framework_s",
            OpKind::AlltoallWait => "alltoall_wait_s",
            OpKind::AllreduceFramework => "allreduce_framework_s",
            OpKind::AllreduceWait => "allreduce_wait_s",
            OpKind::Embeddings => "embeddings_s",
            OpKind::Mlp => "mlp_s",
            OpKind::Rest => "rest_s",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpKind::Compute => "Compute",
            OpKind::AlltoallFramework => "Alltoall-Framework",
            OpKind::AlltoallWait => "Alltoall-Wait",
            OpKind::AllreduceFramework => "Allreduce-Framework",
            OpKind::AllreduceWait => "Allreduce-Wait",
            OpKind::Embeddings => "Embeddings",
            OpKind::Mlp => "MLP",
            OpKind::Rest => "Rest",
        };
        f.write_str(s)
    }
}

/// Times `f` against `rec` when a recorder is attached; otherwise runs `f`
/// with zero instrumentation overhead. The hook every measured hot path
/// threads its optional recorder through.
#[inline]
pub fn time_opt<T>(rec: Option<&TimingRecorder>, kind: OpKind, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(kind, f),
        None => f(),
    }
}

/// Thread-safe accumulator of durations per [`OpKind`].
#[derive(Default)]
pub struct TimingRecorder {
    totals: Mutex<HashMap<OpKind, Duration>>,
}

impl TimingRecorder {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The totals, taken as they are after a panic of a holder: every
    /// bucket is a valid sum whichever update was cut short.
    fn totals(&self) -> MutexGuard<'_, HashMap<OpKind, Duration>> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `d` to the bucket for `kind`.
    pub fn record(&self, kind: OpKind, d: Duration) {
        *self.totals().entry(kind).or_default() += d;
    }

    /// Times `f` and charges it to `kind`.
    pub fn time<T>(&self, kind: OpKind, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(kind, t0.elapsed());
        out
    }

    /// Accumulated time for one bucket.
    pub fn total(&self, kind: OpKind) -> Duration {
        self.totals().get(&kind).copied().unwrap_or_default()
    }

    /// Snapshot of all buckets.
    pub fn snapshot(&self) -> HashMap<OpKind, Duration> {
        self.totals().clone()
    }

    /// Clears all buckets.
    pub fn reset(&self) {
        self.totals().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let r = TimingRecorder::new();
        r.record(OpKind::Compute, Duration::from_millis(5));
        r.record(OpKind::Compute, Duration::from_millis(7));
        assert_eq!(r.total(OpKind::Compute), Duration::from_millis(12));
        assert_eq!(r.total(OpKind::AlltoallWait), Duration::ZERO);
    }

    #[test]
    fn time_charges_elapsed() {
        let r = TimingRecorder::new();
        let v = r.time(OpKind::Rest, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(r.total(OpKind::Rest) >= Duration::from_millis(2));
    }

    #[test]
    fn buckets_accumulate_independently() {
        let r = TimingRecorder::new();
        r.record(OpKind::Embeddings, Duration::from_millis(10));
        r.record(OpKind::Mlp, Duration::from_millis(30));
        r.record(OpKind::Embeddings, Duration::from_millis(5));
        assert_eq!(r.total(OpKind::Embeddings), Duration::from_millis(15));
        assert_eq!(r.total(OpKind::Mlp), Duration::from_millis(30));
        assert_eq!(r.snapshot().len(), 2);
    }

    #[test]
    fn reset_clears() {
        let r = TimingRecorder::new();
        r.record(OpKind::AllreduceWait, Duration::from_millis(1));
        r.reset();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let r = TimingRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        r.record(OpKind::Compute, Duration::from_micros(1));
                    }
                });
            }
        });
        assert_eq!(r.total(OpKind::Compute), Duration::from_micros(400));
    }
}
