//! Per-primitive wall-clock accounting.
//!
//! The paper instruments PyTorch's DDP and communication backends to split
//! time into "framework" (pre/post-processing: flat-buffer copies, gradient
//! averaging, enqueueing) and "wait" (blocking on the primitive) per
//! primitive kind — the stacked bars of Figures 11 and 14. This recorder is
//! the equivalent hook for our harnesses.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The time buckets of Figures 10–14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Pure compute (GEMMs, embeddings, interaction, loss).
    Compute,
    /// Alltoall pre/post-processing in the framework.
    AlltoallFramework,
    /// Blocking on alltoall completion.
    AlltoallWait,
    /// Allreduce pre/post-processing in the framework.
    AllreduceFramework,
    /// Blocking on allreduce completion.
    AllreduceWait,
    /// Data-loader time (the weak-scaling artifact of Figure 13).
    DataLoader,
}

impl OpKind {
    /// All kinds, in report order.
    pub const ALL: [OpKind; 6] = [
        OpKind::Compute,
        OpKind::AlltoallFramework,
        OpKind::AlltoallWait,
        OpKind::AllreduceFramework,
        OpKind::AllreduceWait,
        OpKind::DataLoader,
    ];
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
            OpKind::DataLoader => "data_loader_s",
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
            OpKind::DataLoader => "DataLoader",
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

    /// Adds `d` to the bucket for `kind`.
    pub fn record(&self, kind: OpKind, d: Duration) {
        *self.totals.lock().entry(kind).or_default() += d;
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
        self.totals.lock().get(&kind).copied().unwrap_or_default()
    }

    /// Snapshot of all buckets.
    pub fn snapshot(&self) -> HashMap<OpKind, Duration> {
        self.totals.lock().clone()
    }

    /// Clears all buckets.
    pub fn reset(&self) {
        self.totals.lock().clear();
    }
}

/// Bytes put on the wire, bucketed by collective class.
///
/// Every [`Communicator::send_payload`](crate::world::Communicator::send_payload)
/// records its payload size here once, keyed by the collective tag base
/// (`tag >> 24` — see the constants in [`crate::collectives`]). The
/// accounting ignores chaos-injected duplicates and retries: it measures
/// the traffic the *algorithm* generates, which is what the wire-precision
/// comparison (BF16 halves, INT8 quarters alltoall + allreduce bytes) is
/// about.
///
/// Per-class counters are **on-wire** bytes: element data *plus* any
/// metadata the payload ships, i.e. INT8 scale headers (4 bytes per scale)
/// are included. The header total is also tracked separately, so
/// [`WireSnapshot::logical_bytes`] can report pure element traffic — the
/// two views keep compression ratios honest (headers are real wire cost)
/// without hiding how much of the wire is metadata.
///
/// Worlds built via [`CommWorld::create_with_opts`](crate::world::CommWorld::create_with_opts)
/// can share one `WireStats` across several worlds (e.g. the per-channel
/// worlds of a progress engine), so a harness reads one aggregate total.
#[derive(Default)]
pub struct WireStats {
    messages: AtomicU64,
    reduce_scatter: AtomicU64,
    allgather: AtomicU64,
    alltoall: AtomicU64,
    broadcast: AtomicU64,
    prefetch: AtomicU64,
    other: AtomicU64,
    /// On-wire metadata (INT8 scale headers) across all classes; always
    /// ≤ the matching per-class totals, which already include it.
    headers: AtomicU64,
}

/// Point-in-time copy of a [`WireStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireSnapshot {
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent by reduce-scatter steps.
    pub reduce_scatter_bytes: u64,
    /// Bytes sent by allgather steps.
    pub allgather_bytes: u64,
    /// Bytes sent by alltoall rounds.
    pub alltoall_bytes: u64,
    /// Bytes sent by broadcasts.
    pub broadcast_bytes: u64,
    /// Bytes sent by prefetch row-fetch exchanges (the dist trainer's
    /// lookahead pipeline; tag base `TAG_PREFETCH`).
    pub prefetch_bytes: u64,
    /// Bytes sent under any other tag (raw point-to-point traffic).
    pub other_bytes: u64,
    /// On-wire metadata bytes (INT8 scale headers) across all classes.
    /// Already *included* in the per-class counters above — subtract to
    /// get pure element traffic ([`WireSnapshot::logical_bytes`]).
    pub header_bytes: u64,
}

impl WireSnapshot {
    /// Allreduce wire traffic: its reduce-scatter plus allgather phases.
    pub fn allreduce_bytes(&self) -> u64 {
        self.reduce_scatter_bytes + self.allgather_bytes
    }

    /// All on-wire bytes across every class, headers included.
    pub fn total_bytes(&self) -> u64 {
        self.reduce_scatter_bytes
            + self.allgather_bytes
            + self.alltoall_bytes
            + self.broadcast_bytes
            + self.prefetch_bytes
            + self.other_bytes
    }

    /// Element-data bytes only: [`WireSnapshot::total_bytes`] with the
    /// scale-header metadata backed out.
    pub fn logical_bytes(&self) -> u64 {
        self.total_bytes() - self.header_bytes
    }
}

impl WireStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message under `tag`: `on_wire_bytes` is the full
    /// wire cost (element data plus scale headers), `header_bytes` the
    /// metadata portion of it (0 for FP32/BF16 payloads).
    pub fn record(&self, tag: u64, on_wire_bytes: u64, header_bytes: u64) {
        debug_assert!(header_bytes <= on_wire_bytes);
        self.messages.fetch_add(1, Ordering::Relaxed);
        let bucket = match tag >> 24 {
            0x01 => &self.reduce_scatter,
            0x02 => &self.allgather,
            0x03 => &self.alltoall,
            0x04 => &self.broadcast,
            0x07 => &self.prefetch,
            _ => &self.other,
        };
        bucket.fetch_add(on_wire_bytes, Ordering::Relaxed);
        if header_bytes > 0 {
            self.headers.fetch_add(header_bytes, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            reduce_scatter_bytes: self.reduce_scatter.load(Ordering::Relaxed),
            allgather_bytes: self.allgather.load(Ordering::Relaxed),
            alltoall_bytes: self.alltoall.load(Ordering::Relaxed),
            broadcast_bytes: self.broadcast.load(Ordering::Relaxed),
            prefetch_bytes: self.prefetch.load(Ordering::Relaxed),
            other_bytes: self.other.load(Ordering::Relaxed),
            header_bytes: self.headers.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for c in [
            &self.messages,
            &self.reduce_scatter,
            &self.allgather,
            &self.alltoall,
            &self.broadcast,
            &self.prefetch,
            &self.other,
            &self.headers,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_stats_bucket_by_tag_class() {
        let w = WireStats::new();
        w.record(0x0100_0000 + 3, 40, 0); // reduce-scatter step
        w.record(0x0200_0001, 40, 0); // allgather step
        w.record(0x0300_0002, 64, 0); // alltoall round
        w.record(0x0400_0000, 8, 0); // broadcast
        w.record(0x0700_0001, 24, 0); // prefetch row fetch
        w.record(7, 100, 0); // untagged p2p
        let s = w.snapshot();
        assert_eq!(s.messages, 6);
        assert_eq!(s.allreduce_bytes(), 80);
        assert_eq!(s.alltoall_bytes, 64);
        assert_eq!(s.broadcast_bytes, 8);
        assert_eq!(s.prefetch_bytes, 24);
        assert_eq!(s.other_bytes, 100);
        assert_eq!(s.total_bytes(), 276);
        assert_eq!(s.logical_bytes(), 276);
        w.reset();
        assert_eq!(w.snapshot(), WireSnapshot::default());
    }

    #[test]
    fn wire_stats_count_scale_headers_as_wire_bytes() {
        // An INT8 reduce-scatter message: 100 element bytes + two 4-byte
        // scale headers = 108 on-wire bytes, 8 of them metadata. The class
        // counter must include the headers (they cross the wire), and the
        // logical view must back them out.
        let w = WireStats::new();
        w.record(0x0100_0000, 108, 8);
        // A headerless (pre-agreed scale) INT8 allgather message.
        w.record(0x0200_0000, 100, 0);
        let s = w.snapshot();
        assert_eq!(s.reduce_scatter_bytes, 108, "headers are on-wire bytes");
        assert_eq!(s.allreduce_bytes(), 208);
        assert_eq!(s.header_bytes, 8);
        assert_eq!(s.total_bytes(), 208);
        assert_eq!(s.logical_bytes(), 200, "logical view excludes headers");
        w.reset();
        assert_eq!(w.snapshot().header_bytes, 0);
    }

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
        let v = r.time(OpKind::DataLoader, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(r.total(OpKind::DataLoader) >= Duration::from_millis(2));
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
