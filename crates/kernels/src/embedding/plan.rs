//! `BagPlan` — per-batch bucketing of the lookup stream by owning thread.
//!
//! Algorithm 4's race-free update gives thread `tid` the row range
//! `[M·tid/T, M·(tid+1)/T)` but makes **every** thread scan the full index
//! list to find its rows: O(NS·T) total work, and the scan itself becomes
//! the bottleneck the moment T grows (the clustered-index load imbalance
//! Figure 7 calls out only makes it worse). The fix — the same index
//! preprocessing BagPipe and the DLRM-inference dissection papers identify
//! as the remaining embedding headroom — is to partition the lookup list by
//! owner *once*, with a parallel counting sort, and then hand each thread
//! exactly its own lookups: O(NS) total work, no synchronization in the
//! apply loop, and a reusable artifact shared by the bucketed update and
//! the bucketed fused backward+update.
//!
//! The sort is **stable** (scan threads cover contiguous slices in order,
//! and each writes its slice's entries in order), so within a bucket the
//! planned order equals the original index-list order. Per table row that
//! is exactly the reference update's application order, which is what makes
//! the bucketed strategies bit-exact against [`UpdateStrategy::Reference`]
//! (see [`rowops`](super::rowops) for the per-element guarantee).
//!
//! All buffers are grow-only and reused across batches: after warm-up a
//! rebuild performs zero allocations.
//!
//! [`UpdateStrategy::Reference`]: super::UpdateStrategy::Reference

use crate::threadpool::ThreadPool;
use dlrm_tensor::util::partition_range;

/// Owner thread of table row `row` under the paper's `[M·tid/T, M·(tid+1)/T)`
/// partition — the closed-form inverse of
/// [`partition_range`](dlrm_tensor::util::partition_range).
#[inline]
pub fn owner_of_row(row: usize, rows: usize, buckets: usize) -> usize {
    debug_assert!(row < rows);
    // Largest tid with rows*tid/buckets <= row.
    (row * buckets + buckets - 1) / rows
}

/// A `*mut T` smuggled into the thread team; every thread writes a disjoint
/// set of positions (per-thread count blocks / cursor ranges).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: disjoint-write discipline is upheld by the build phases below.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper — edition-2021 disjoint capture would otherwise pull the bare
    /// non-`Send` pointer out of it.
    #[inline]
    fn get(self) -> *mut T {
        self.0
    }
}

/// The bucketed lookup plan for one batch: lookup slots grouped by owning
/// thread, in original order within each bucket. Slots of a bucket ascend,
/// so a consumer that needs each lookup's bag (the fused backward+update)
/// recovers it by walking the CSR offsets alongside — no slot→bag map.
#[derive(Default)]
pub struct BagPlan {
    /// Bucket count == thread-team size the plan was built for.
    buckets: usize,
    /// Table rows the plan was built for.
    rows: usize,
    /// Lookups in the planned batch.
    ns: usize,
    /// `buckets + 1` bucket boundaries into `slots`.
    bucket_start: Vec<usize>,
    /// Permutation of lookup slots, grouped by bucket, stable within.
    slots: Vec<u32>,
    /// Reused counting-sort scratch: `scan_thread × bucket` counts, then
    /// write cursors.
    counts: Vec<usize>,
}

impl BagPlan {
    /// An empty plan; [`BagPlan::build`] sizes all buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buckets (thread-team size) of the last build.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Table rows of the last build.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lookups of the last build.
    #[inline]
    pub fn ns(&self) -> usize {
        self.ns
    }

    /// The lookup slots owned by bucket `b`, in original index-list order.
    #[inline]
    pub fn bucket_slots(&self, b: usize) -> &[u32] {
        &self.slots[self.bucket_start[b]..self.bucket_start[b + 1]]
    }

    /// Bytes of iteration-persistent scratch held by the plan.
    pub fn scratch_bytes(&self) -> usize {
        self.bucket_start.capacity() * std::mem::size_of::<usize>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<usize>()
    }

    /// Builds the plan for `indices` over an `m`-row table, partitioned for
    /// `pool`'s thread team. Three phases of a parallel counting sort:
    /// per-thread bucket histograms over contiguous slices, a serial
    /// O(T²) cursor prefix-sum, and a parallel stable scatter.
    pub fn build(&mut self, pool: &ThreadPool, indices: &[u32], m: usize) {
        let t = pool.num_threads();
        let ns = indices.len();
        debug_assert!(indices.iter().all(|&i| (i as usize) < m));
        self.buckets = t;
        self.rows = m;
        self.ns = ns;

        self.counts.resize(t * t, 0);
        self.counts.fill(0);
        self.bucket_start.resize(t + 1, 0);
        self.slots.resize(ns, 0);
        if ns == 0 {
            self.bucket_start.fill(0);
            return;
        }

        // Phase A: per-scan-thread histograms (disjoint count blocks).
        let counts_ptr = SendPtr(self.counts.as_mut_ptr());
        pool.broadcast(|st| {
            let range = partition_range(ns, t, st);
            // SAFETY: scan thread `st` writes only counts[st*t .. st*t+t].
            let mine = unsafe { std::slice::from_raw_parts_mut(counts_ptr.get().add(st * t), t) };
            for &ind in &indices[range] {
                mine[owner_of_row(ind as usize, m, t)] += 1;
            }
        });

        // Phase B (serial): bucket boundaries + per-(scan-thread, bucket)
        // write cursors. Column-wise exclusive prefix over the histogram.
        let mut run = 0usize;
        for b in 0..t {
            self.bucket_start[b] = run;
            for st in 0..t {
                let c = self.counts[st * t + b];
                self.counts[st * t + b] = run;
                run += c;
            }
        }
        self.bucket_start[t] = run;
        debug_assert_eq!(run, ns);

        // Phase C: stable parallel scatter. Each scan thread walks its
        // slice in order; cursor ranges are disjoint by construction.
        let counts_ptr = SendPtr(self.counts.as_mut_ptr());
        let slots_ptr = SendPtr(self.slots.as_mut_ptr());
        pool.broadcast(|st| {
            let range = partition_range(ns, t, st);
            // SAFETY: same disjoint count block as phase A.
            let cursors =
                unsafe { std::slice::from_raw_parts_mut(counts_ptr.get().add(st * t), t) };
            for s in range {
                let b = owner_of_row(indices[s] as usize, m, t);
                // SAFETY: each (st, b) cursor walks a range disjoint from
                // every other (st', b') range.
                unsafe { *slots_ptr.get().add(cursors[b]) = s as u32 };
                cursors[b] += 1;
            }
        });
    }
}

/// `DedupPlan` — unique-row extraction over a lookup list, with a fan-out
/// map back to the original slots.
///
/// BagPipe's observation is that under Zipf-shaped traffic the same hot
/// rows appear many times within (and across) nearby batches, so a
/// transfer plan should ship each **unique** row once and fan it out
/// locally. This plan computes, in one O(NS) pass with grow-only
/// epoch-marked scratch, the unique rows of a lookup list in
/// **first-appearance order** plus `fanout[slot] → unique index` so a
/// gather over the originals can be reproduced bitwise from the deduped
/// set (rows are copied verbatim; summation order per bag is unchanged).
///
/// First-appearance order matters: it is a pure function of the index
/// list, so two ranks walking the same (deterministic) global batch
/// stream derive identical send/receive layouts without exchanging any
/// metadata — the property the distributed prefetch path builds on.
#[derive(Default)]
pub struct DedupPlan {
    /// Unique rows of the last build, in first-appearance order.
    uniques: Vec<u32>,
    /// Original lookup slot → index into `uniques`.
    fanout: Vec<u32>,
    /// Epoch marks per table row (grow-only, sized to the largest table
    /// seen). `seen[row] == epoch` ⇔ row already emitted this build.
    seen: Vec<u32>,
    /// Position of `row` in `uniques`, valid only when `seen[row] == epoch`.
    upos: Vec<u32>,
    /// Current epoch; bumping it invalidates all marks in O(1).
    epoch: u32,
}

impl DedupPlan {
    /// An empty plan; [`DedupPlan::build`] sizes all buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deduplicates `indices` over an `m`-row table. Reuses scratch across
    /// builds (grow-only); after warm-up a rebuild performs no allocations
    /// as long as `m` and the lookup count do not exceed prior highs.
    pub fn build(&mut self, indices: &[u32], m: usize) {
        debug_assert!(indices.iter().all(|&i| (i as usize) < m));
        if self.seen.len() < m {
            self.seen.resize(m, 0);
            self.upos.resize(m, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: hard-reset the marks (once per 2^32 builds).
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.uniques.clear();
        self.fanout.clear();
        for &ind in indices {
            let row = ind as usize;
            if self.seen[row] != epoch {
                self.seen[row] = epoch;
                self.upos[row] = self.uniques.len() as u32;
                self.uniques.push(ind);
            }
            self.fanout.push(self.upos[row]);
        }
    }

    /// Unique rows of the last build, in first-appearance order.
    #[inline]
    pub fn uniques(&self) -> &[u32] {
        &self.uniques
    }

    /// Original slot → index into [`DedupPlan::uniques`].
    #[inline]
    pub fn fanout(&self) -> &[u32] {
        &self.fanout
    }

    /// Bytes of iteration-persistent scratch held by the plan.
    pub fn scratch_bytes(&self) -> usize {
        (self.uniques.capacity()
            + self.fanout.capacity()
            + self.seen.capacity()
            + self.upos.capacity())
            * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_inverse_of_partition_range() {
        for m in [1usize, 2, 3, 7, 10, 64, 100, 1000] {
            for t in [1usize, 2, 3, 4, 7, 8, 16, 28] {
                for tid in 0..t {
                    for row in partition_range(m, t, tid) {
                        assert_eq!(owner_of_row(row, m, t), tid, "m={m} t={t} row={row}");
                    }
                }
            }
        }
    }

    fn check_plan(indices: &[u32], m: usize, threads: usize) {
        let pool = ThreadPool::new(threads);
        let mut plan = BagPlan::new();
        plan.build(&pool, indices, m);
        assert_eq!(plan.buckets(), threads);
        assert_eq!(plan.ns(), indices.len());

        let mut seen = vec![0u32; indices.len()];
        for b in 0..threads {
            let owned = partition_range(m, threads, b);
            let slots = plan.bucket_slots(b);
            // Stable: original order preserved within the bucket.
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "bucket {b} unstable");
            for &s in slots {
                let row = indices[s as usize] as usize;
                assert!(owned.contains(&row), "bucket {b} got foreign row {row}");
                seen[s as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each slot planned exactly once"
        );
    }

    #[test]
    fn plan_partitions_every_slot_exactly_once() {
        let mut state = 88172645463325252u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (m, ns) in [(1usize, 5usize), (17, 0), (64, 200), (100, 999), (5, 64)] {
            let indices: Vec<u32> = (0..ns).map(|_| (next() % m as u64) as u32).collect();
            for threads in [1usize, 2, 4, 7] {
                check_plan(&indices, m, threads);
            }
        }
    }

    #[test]
    fn plan_handles_clustered_indices() {
        // Every lookup lands in thread 0's range: one bucket gets all of
        // them, the others stay empty — but coverage is still exact.
        let indices: Vec<u32> = (0..300).map(|i| (i % 8) as u32).collect();
        check_plan(&indices, 64, 4);
        let pool = ThreadPool::new(4);
        let mut plan = BagPlan::new();
        plan.build(&pool, &indices, 64);
        assert_eq!(plan.bucket_slots(0).len(), 300);
        for b in 1..4 {
            assert!(plan.bucket_slots(b).is_empty());
        }
    }

    #[test]
    fn rebuild_reuses_buffers() {
        let pool = ThreadPool::new(3);
        let mut plan = BagPlan::new();
        let big: Vec<u32> = (0..500u32).map(|i| i % 40).collect();
        plan.build(&pool, &big, 40);
        let cap = plan.scratch_bytes();
        let small: Vec<u32> = (0..100u32).map(|i| i % 40).collect();
        plan.build(&pool, &small, 40);
        assert_eq!(plan.scratch_bytes(), cap, "rebuild must not grow scratch");
        check_plan(&small, 40, 3);
    }

    #[test]
    fn empty_batch_builds_empty_plan() {
        let pool = ThreadPool::new(4);
        let mut plan = BagPlan::new();
        plan.build(&pool, &[], 16);
        for b in 0..4 {
            assert!(plan.bucket_slots(b).is_empty());
        }
    }

    fn check_dedup(indices: &[u32], m: usize, plan: &mut DedupPlan) {
        plan.build(indices, m);
        assert_eq!(plan.fanout().len(), indices.len());
        // Round-trip: every slot maps back to its original row.
        for (s, &ind) in indices.iter().enumerate() {
            assert_eq!(plan.uniques()[plan.fanout()[s] as usize], ind, "slot {s}");
        }
        // Uniques are distinct and in first-appearance order.
        let mut first = Vec::new();
        for &ind in indices {
            if !first.contains(&ind) {
                first.push(ind);
            }
        }
        assert_eq!(plan.uniques(), &first[..]);
    }

    #[test]
    fn dedup_round_trips_and_preserves_first_appearance_order() {
        let mut plan = DedupPlan::new();
        check_dedup(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3], 10, &mut plan);
        check_dedup(&[7, 7, 7, 7], 8, &mut plan); // single unique row
        check_dedup(&[], 16, &mut plan); // empty batch
        check_dedup(
            &(0..200u32).map(|i| i % 3).collect::<Vec<_>>(),
            64,
            &mut plan,
        );
    }

    #[test]
    fn dedup_rebuild_reuses_buffers() {
        let mut plan = DedupPlan::new();
        let big: Vec<u32> = (0..500u32).map(|i| i % 40).collect();
        plan.build(&big, 40);
        let cap = plan.scratch_bytes();
        for k in 0..10u32 {
            let small: Vec<u32> = (0..100u32).map(|i| (i + k) % 40).collect();
            check_dedup(&small, 40, &mut plan);
        }
        assert_eq!(plan.scratch_bytes(), cap, "rebuild must not grow scratch");
    }
}
