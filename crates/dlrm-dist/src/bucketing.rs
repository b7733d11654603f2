//! DDP gradient bucketing: split the flat gradient into fixed-size buckets
//! and allreduce each as its own operation — in flight on a progress
//! engine when the trainer has one, else in place at `finalize`.
//!
//! This is how the paper's DDP wrapper overlaps the allreduce with the
//! backward pass (Figure 2): as each layer's `dW` is produced, its bucket
//! can start reducing while earlier layers are still computing. Buckets are
//! issued in *reverse* flat order because backward produces the last
//! layer's gradients first. [`BucketReducer`] is the issue-as-produced
//! engine of the train step; the synchronous schedule drives the same
//! reducer with one `on_produced(0)` after the whole backward.
//!
//! # Bitwise determinism
//!
//! A ring allreduce's per-element summation order depends on the chunk
//! partition, which depends on the buffer length — so bucketed and
//! single-buffer reductions are *not* bitwise identical in general. What
//! *is* bitwise stable is any two reductions of the same bucket plan: each
//! bucket is an independent ring allreduce over the same ranks with the
//! same length, whether it runs blocking on the main communicator, on any
//! progress channel, early or late. The train step exploits exactly this —
//! both schedules reduce the same plan, so overlap moves time, not bits.

use dlrm_comm::collectives;
use dlrm_comm::instrument::{time_opt, OpKind, TimingRecorder};
use dlrm_comm::nonblocking::{ProgressEngine, Request};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::Communicator;
use std::ops::Range;

/// Default bucket cap: 25 MiB of f32 gradients, matching the PyTorch DDP
/// `bucket_cap_mb` default the paper's wrapper inherits. Models smaller
/// than the cap get exactly one bucket, i.e. the classic single-buffer
/// allreduce.
pub const DEFAULT_BUCKET_CAP_BYTES: usize = 25 * 1024 * 1024;

/// A bucketing plan over a flat gradient vector.
#[derive(Debug, Clone)]
pub struct BucketPlan {
    /// Half-open element ranges, in issue order (reverse flat order).
    pub buckets: Vec<Range<usize>>,
}

impl BucketPlan {
    /// Splits `total` elements into buckets of at most `bucket_elems`,
    /// issued back-to-front. The final (front-most) bucket holds the
    /// remainder — the "last bucket flush" of a DDP wrapper.
    pub fn new(total: usize, bucket_elems: usize) -> Self {
        assert!(bucket_elems > 0, "bucket size must be positive");
        let mut buckets = Vec::new();
        let mut end = total;
        while end > 0 {
            let start = end.saturating_sub(bucket_elems);
            buckets.push(start..end);
            end = start;
        }
        BucketPlan { buckets }
    }

    /// Plan for `total` f32 elements under a byte cap ([`BucketPlan::new`]
    /// with the cap converted to elements, at least one element).
    pub fn for_bytes(total: usize, cap_bytes: usize) -> Self {
        let elems = (cap_bytes / std::mem::size_of::<f32>()).max(1);
        Self::new(total, elems)
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when there is nothing to reduce.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// Per-bucket state between issue and completion.
enum BucketOp {
    /// In flight on a progress channel.
    InFlight(Request),
    /// No engine: reduced blocking at [`BucketReducer::finalize`].
    Deferred,
}

/// Issue-as-produced bucketed allreduce over a flat gradient buffer.
///
/// The overlapped train step writes each layer's gradients into its
/// [`BucketReducer::window`] of the flat buffer *as backward produces them*
/// (back-to-front) and calls
/// [`BucketReducer::on_produced`]; every bucket whose elements are all
/// present is immediately submitted to a progress channel, so it reduces
/// while the remaining layers still compute. [`BucketReducer::finalize`]
/// waits for the stragglers and returns the reduced buffer.
///
/// Without an engine the buckets are recorded and reduced blocking at
/// `finalize` — same plan, same per-bucket ring, bitwise-identical result.
pub struct BucketReducer {
    flat: Vec<f32>,
    plan: BucketPlan,
    /// Everything in `flat[produced_down_to..]` has been written.
    produced_down_to: usize,
    /// Next plan index to issue.
    next_bucket: usize,
    issued: Vec<(Range<usize>, BucketOp)>,
    /// On-wire element format for every bucket's ring allreduce.
    wire: WirePrecision,
    /// Per-bucket wire overrides in plan (issue) order; when set, bucket
    /// `i` ships as `bucket_wires[i]` instead of the uniform `wire`. This
    /// is how the adaptive policy mixes FP32/BF16/INT8 in one step.
    bucket_wires: Option<Vec<WirePrecision>>,
}

impl BucketReducer {
    /// Starts a reduction of `total` elements, reusing `flat` as the
    /// backing buffer (resized as needed; contents fully overwritten
    /// through `window`). The wire defaults to FP32; see
    /// [`BucketReducer::with_wire`].
    pub fn new(mut flat: Vec<f32>, total: usize, cap_bytes: usize) -> Self {
        flat.resize(total, 0.0);
        let plan = BucketPlan::for_bytes(total, cap_bytes);
        let issued = Vec::with_capacity(plan.len());
        BucketReducer {
            flat,
            plan,
            produced_down_to: total,
            next_bucket: 0,
            issued,
            wire: WirePrecision::Fp32,
            bucket_wires: None,
        }
    }

    /// Selects the on-wire element format of the bucket allreduces. Both
    /// the engine and the blocking (deferred) paths honor it, so the
    /// overlap-moves-time-not-bits contract holds per wire setting.
    pub fn with_wire(mut self, wire: WirePrecision) -> Self {
        self.wire = wire;
        self
    }

    /// Sets one wire per bucket, in plan (issue) order — the adaptive
    /// policy's per-bucket FP32/BF16/INT8 decisions. Must cover every
    /// bucket; overrides [`BucketReducer::with_wire`].
    pub fn with_bucket_wires(mut self, wires: Vec<WirePrecision>) -> Self {
        assert_eq!(
            wires.len(),
            self.plan.len(),
            "per-bucket wires must cover the whole plan"
        );
        self.bucket_wires = Some(wires);
        self
    }

    /// The wire bucket `idx` (plan order) ships with.
    fn wire_for(&self, idx: usize) -> WirePrecision {
        match &self.bucket_wires {
            Some(wires) => wires[idx],
            None => self.wire,
        }
    }

    /// Number of buckets in the plan.
    pub fn num_buckets(&self) -> usize {
        self.plan.len()
    }

    /// The flat buffer's `range`, for its producer to fill in place — a
    /// layer unpacks its blocked gradient straight into it, with no flat
    /// copy of its own in between.
    pub fn window(&mut self, range: Range<usize>) -> &mut [f32] {
        &mut self.flat[range]
    }

    /// Marks everything from `offset` to the end as produced and issues
    /// every bucket that is now complete. Backward fills the buffer
    /// back-to-front, so `offset` only ever decreases.
    pub fn on_produced(
        &mut self,
        offset: usize,
        engine: Option<&ProgressEngine>,
        rec: Option<&TimingRecorder>,
    ) {
        debug_assert!(
            offset <= self.produced_down_to,
            "backward runs back-to-front"
        );
        self.produced_down_to = offset;
        while self.next_bucket < self.plan.len()
            && self.plan.buckets[self.next_bucket].start >= self.produced_down_to
        {
            let range = self.plan.buckets[self.next_bucket].clone();
            let op = match engine {
                Some(eng) => {
                    // Keep channel 0 (the exchange channel) free so the
                    // in-flight alltoall is never serialized behind a
                    // bucket on an MPI-like single-channel backend — and
                    // spread buckets round-robin on a CCL-like one.
                    let nch = eng.num_channels().max(1);
                    let ch = if nch > 1 {
                        1 + self.next_bucket % (nch - 1)
                    } else {
                        0
                    };
                    let payload = time_opt(rec, OpKind::AllreduceFramework, || {
                        self.flat[range.clone()].to_vec()
                    });
                    let wire = self.wire_for(self.next_bucket);
                    BucketOp::InFlight(eng.allreduce_wire(ch, payload, wire))
                }
                None => BucketOp::Deferred,
            };
            self.issued.push((range, op));
            self.next_bucket += 1;
        }
    }

    /// Completes all buckets (issuing any not yet produced-complete — a
    /// safety net; a full backward pass produces everything) and returns
    /// the reduced flat buffer, which the optimizer step reads in place.
    pub fn finalize(
        mut self,
        comm: &Communicator,
        engine: Option<&ProgressEngine>,
        rec: Option<&TimingRecorder>,
    ) -> Vec<f32> {
        self.on_produced(0, engine, rec);
        // `issued` is filled in plan order, so the enumeration index is the
        // plan index — the same one `with_bucket_wires` keys on.
        for (idx, (range, op)) in std::mem::take(&mut self.issued).into_iter().enumerate() {
            let wire = self.wire_for(idx);
            let window = &mut self.flat[range];
            match op {
                BucketOp::InFlight(req) => {
                    let reduced = req.wait_flat(rec, OpKind::AllreduceWait);
                    time_opt(rec, OpKind::AllreduceFramework, || {
                        window.copy_from_slice(&reduced)
                    });
                }
                BucketOp::Deferred => {
                    time_opt(rec, OpKind::AllreduceWait, || {
                        collectives::allreduce_sum_wire(comm, window, wire)
                    });
                }
            }
        }
        self.flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_comm::nonblocking::{create_channel_worlds, Backend, ProgressEngine};
    use dlrm_comm::world::CommWorld;

    /// Runs `body(comm, engine)` on every rank of a world with a progress
    /// engine of `workers` channels per rank.
    fn with_engines<T: Send>(
        nranks: usize,
        workers: usize,
        body: impl Fn(&Communicator, &ProgressEngine) -> T + Sync,
    ) -> Vec<T> {
        let backend = Backend::CclLike { workers };
        let worlds = std::sync::Mutex::new(create_channel_worlds(nranks, backend));
        CommWorld::run(nranks, |comm| {
            let comms = std::mem::take(&mut worlds.lock().unwrap()[comm.rank()]);
            body(&comm, &ProgressEngine::new(backend, comms))
        })
    }

    /// Reduces a rank-dependent stand-in gradient of `total` elements under
    /// `cap_bytes`, all produced at once.
    fn reduce(
        comm: &Communicator,
        engine: Option<&ProgressEngine>,
        total: usize,
        cap_bytes: usize,
        wires: Option<Vec<WirePrecision>>,
    ) -> Vec<f32> {
        let mut r = BucketReducer::new(Vec::new(), total, cap_bytes);
        if let Some(wires) = wires {
            r = r.with_bucket_wires(wires);
        }
        for (i, v) in r.window(0..total).iter_mut().enumerate() {
            *v = ((comm.rank() * total + i) as f32).sin();
        }
        r.on_produced(0, engine, None);
        r.finalize(comm, engine, None)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn plan_covers_everything_in_reverse() {
        let plan = BucketPlan::new(10, 4);
        assert_eq!(plan.buckets, vec![6..10, 2..6, 0..2]);
        assert_eq!(BucketPlan::new(0, 4).len(), 0);
        assert_eq!(BucketPlan::new(4, 4).buckets, vec![0..4]);
    }

    #[test]
    fn byte_cap_converts_to_elements() {
        // 16 bytes = 4 f32s.
        assert_eq!(
            BucketPlan::for_bytes(10, 16).buckets,
            vec![6..10, 2..6, 0..2]
        );
        // Default cap swallows small models whole: one bucket.
        assert_eq!(
            BucketPlan::for_bytes(1000, DEFAULT_BUCKET_CAP_BYTES).len(),
            1
        );
        // Degenerate cap still makes progress.
        assert_eq!(BucketPlan::for_bytes(3, 1).len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_size_rejected() {
        let _ = BucketPlan::new(10, 0);
    }

    #[test]
    fn bucketed_equals_single_buffer() {
        // Another partition is another summation order: close, not bitwise.
        let total = 66;
        let out = with_engines(3, 2, |comm, engine| {
            let bucketed = reduce(comm, Some(engine), total, 7 * 4, None);
            let single = reduce(comm, None, total, DEFAULT_BUCKET_CAP_BYTES, None);
            (bucketed, single)
        });
        for (bucketed, single) in out {
            for (a, b) in bucketed.iter().zip(&single) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn engine_and_blocking_buckets_agree_bitwise() {
        // The determinism contract the overlapped schedule rests on: the
        // same plan reduced through progress channels vs blocking on the
        // main communicator gives bit-identical sums.
        let out = with_engines(4, 3, |comm, engine| {
            let eng = reduce(comm, Some(engine), 66, 5 * 4, None);
            let blk = reduce(comm, None, 66, 5 * 4, None);
            (eng, blk)
        });
        for (eng, blk) in out {
            assert_eq!(bits(&eng), bits(&blk));
        }
    }

    #[test]
    fn reducer_issues_buckets_as_produced() {
        // Single rank: reduction is the identity, so we can drive the
        // reducer by hand and watch buckets become ready back-to-front.
        CommWorld::run(1, |comm| {
            let mut r = BucketReducer::new(Vec::new(), 10, 4 * 4);
            assert_eq!(r.num_buckets(), 3); // [6..10, 2..6, 0..2]
            let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
            for (issued, range) in [6..10, 2..6, 0..2].into_iter().enumerate() {
                r.window(range.clone())
                    .copy_from_slice(&data[range.clone()]);
                r.on_produced(range.start, None, None);
                assert_eq!(r.issued.len(), issued + 1);
            }
            let flat = r.finalize(&comm, None, None);
            assert_eq!(flat, data);
        });
    }

    #[test]
    fn mixed_bucket_wires_engine_and_blocking_agree_bitwise() {
        // Per-bucket wires (the adaptive policy's output shape): the same
        // plan with the same wire assignment must be bitwise identical
        // whether buckets run through progress channels or blocking.
        let wires = vec![
            WirePrecision::int8_shared(0.125),
            WirePrecision::Bf16,
            WirePrecision::Fp32,
        ];
        let out = with_engines(3, 2, |comm, engine| {
            let eng = reduce(comm, Some(engine), 10, 4 * 4, Some(wires.clone()));
            let blk = reduce(comm, None, 10, 4 * 4, Some(wires.clone()));
            (eng, blk)
        });
        let first = bits(&out[0].0);
        for (eng, blk) in &out {
            assert_eq!(bits(eng), bits(blk), "engine vs blocking");
            assert_eq!(bits(eng), first, "ranks bitwise identical");
        }
    }

    #[test]
    #[should_panic(expected = "cover the whole plan")]
    fn short_bucket_wire_list_rejected() {
        let _ =
            BucketReducer::new(Vec::new(), 10, 4 * 4).with_bucket_wires(vec![WirePrecision::Fp32]);
    }

    #[test]
    fn bucket_count_scales_with_size() {
        let total = 5 * 7 + 7 + 7 * 3 + 3;
        assert!(BucketPlan::new(total, 8).len() > BucketPlan::new(total, 64).len());
    }
}
