//! BagPipe-style lookahead prefetch + index dedup for the dist trainer.
//!
//! The paper's hybrid-parallel step ships, for every table and every
//! data-parallel rank, the *pooled* bag outputs of that rank's whole batch
//! slice — `n × E` floats per (table, rank) pair per step, no matter how
//! few distinct rows the slice actually touched. BagPipe (PAPERS.md,
//! arXiv 2202.12429) observes that under Zipf-shaped traffic the distinct
//! rows are few and repeat across nearby batches, so the right wire unit
//! is the *unique raw row*, fetched once, pooled locally, and kept usable
//! across steps.
//!
//! # The protocol
//!
//! All ranks walk the same deterministic batch stream through a
//! [`LookaheadWindow`], so every transfer decision below is computed
//! *symmetrically*: the owner of a table replicates each destination's
//! tracker state machine and derives bit-identical fetch lists without any
//! metadata exchange. Per step `j`, on every rank:
//!
//! 1. **Land** the early fetch issued during step `j−1` (rows for batch
//!    `j` that were fetchable ahead of time), unpacking into the row cache.
//! 2. **Late fetch**: the unique rows of my slice of batch `j` that are
//!    not validly cached are fetched from their owners with a
//!    [`TAG_PREFETCH`]-tagged alltoall. Owners pack current (canonical)
//!    weights.
//! 3. **Record touches** of batch `j`: rows touched by *other* ranks
//!    become invalid in my cache going forward (their canonical value now
//!    evolves without me); rows touched by *anyone* are ineligible for the
//!    early fetch below (their packed value would go stale this step).
//! 4. **Fan out locally**: every table's slice is pooled from cached rows
//!    in exactly `forward_serial`'s accumulate order — bitwise equal to
//!    the pooled outputs the naive exchange would have delivered.
//! 5. **Early fetch** for batch `j+1`: with an engine it flies on the
//!    exchange channel behind backward compute; without one it runs on the
//!    rank thread at step `j+1`'s landing; `Schedule::Synchronous`
//!    completes it where it is issued. Same bytes, same values either way.
//! 6. Backward + the **unchanged** gradient exchanges and bucketed
//!    allreduce.
//! 7. **Delayed updates**: the owner applies the canonical sparse update
//!    (via [`EmbeddingLayer::set_saved_batch`] — it no longer runs the
//!    forward); each destination applies its *own* slice's gradients to
//!    its cached rows with the same [`rowops::axpy`] the owner's
//!    scatter-add uses. For a row only I touched, my slice order *is* the
//!    canonical index-list order restricted to that row, so the cached
//!    copy tracks the owner bit-for-bit; rows others touched were
//!    invalidated in step 3 and will be re-fetched before reuse.
//! 8. **Evict** rows whose last visible need (within the window) has
//!    passed, releasing cache slots.
//!
//! # Why this is bitwise-exact
//!
//! Inductively, every cached row equals the owner's post-update value at
//! the moment it is pooled: fetches copy canonical bytes, local updates
//! replay the exact same `axpy` calls in the exact same order the owner
//! applies for my slice, and any row whose canonical order interleaves
//! another rank's gradient is invalidated and re-fetched. Pooling order
//! matches `forward_serial`, and everything downstream (MLPs, backward,
//! gradient exchange, owner update, allreduce) is untouched — so losses
//! *and all parameter planes* are bitwise identical to the naive step, as
//! `tests/prefetch_equivalence.rs` asserts. This does require per-row
//! deterministic updates, which the ranks' race-free tables are, and an
//! FP32 alltoall wire, which [`DistDlrm::new`](crate::distributed::DistDlrm)
//! asserts when prefetch is enabled.
//!
//! [`LookaheadWindow`]: dlrm_data::LookaheadWindow
//! [`EmbeddingLayer::set_saved_batch`]: dlrm::embedding_layer::EmbeddingLayer::set_saved_batch
//! [`TAG_PREFETCH`]: dlrm_comm::collectives::TAG_PREFETCH

use crate::distributed::Links;
use crate::exchange::tables_of;
use dlrm::embedding_layer::EmbeddingLayer;
use dlrm_comm::collectives::{alltoall_wire_tagged, TAG_PREFETCH};
use dlrm_comm::nonblocking::Pending;
use dlrm_comm::{time_opt, OpKind, TimingRecorder};
use dlrm_data::{DlrmConfig, LookaheadWindow, MiniBatch};
use dlrm_kernels::embedding::{rowops, DedupPlan, RowStore};
use dlrm_kernels::gemm::micro::{detect_isa, Isa};
use dlrm_tensor::Matrix;

/// Opt-in lookahead prefetch for [`DistOptions`](crate::distributed::DistOptions).
///
/// The default is `Off`, under which the trainer's step is byte-for-byte
/// the pre-prefetch code path — prior trajectories are bitwise unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prefetch {
    /// The naive pooled forward exchange (the default).
    #[default]
    Off,
    /// Dedup + prefetch with `window` batches of lookahead (`window ≥ 1`).
    Lookahead {
        /// How many future batches the pipeline may peek; also the
        /// retention horizon of the row cache.
        window: usize,
    },
}

/// Unoccupied marker in the per-table row → cache-slot map.
const NO_SLOT: u32 = u32::MAX;

/// Per-(table, destination) validity state machine. All marks are
/// `step + 1` (`0` = never), so a fresh tracker is all-invalid in O(1).
///
/// A row is *validly cached* for use at step `j` iff it was received at
/// some step and no foreign rank has touched it since:
/// `recv_mark > 0 && foreign_mark < recv_mark`. Owners run one replica of
/// this per destination; destinations run one per table. Both sides feed
/// them the same slices of the same shared batch stream in the same
/// order, which keeps owner and destination bit-identical — the fetch
/// lists never travel.
struct NeedTracker {
    /// The data-parallel rank whose slice this tracker follows.
    dest: usize,
    /// Last step (+1) whose fetch delivered the row to `dest`.
    recv_mark: Vec<u32>,
    /// Last step (+1) a rank other than `dest` touched the row.
    foreign_mark: Vec<u32>,
    /// Last visible step (+1) `dest` needs the row (retention horizon).
    last_need: Vec<u32>,
    /// Expiry ring, `window + 2` lazy-deletion buckets keyed by step.
    expiry: Vec<Vec<u32>>,
}

impl NeedTracker {
    fn new(rows: usize, dest: usize, window: usize) -> Self {
        NeedTracker {
            dest,
            recv_mark: vec![0; rows],
            foreign_mark: vec![0; rows],
            last_need: vec![0; rows],
            expiry: vec![Vec::new(); window + 2],
        }
    }

    #[inline]
    fn rows(&self) -> usize {
        self.recv_mark.len()
    }

    #[inline]
    fn valid(&self, row: usize) -> bool {
        self.recv_mark[row] != 0 && self.foreign_mark[row] < self.recv_mark[row]
    }

    /// Folds batch `bs`'s slice into the need horizon: bumps `last_need`
    /// and queues the rows in `bs`'s expiry bucket (lazy deletion — a
    /// later re-observation simply outdates the earlier bucket entry).
    fn observe(&mut self, bs: u32, slice: &[u32], dedup: &mut DedupPlan) {
        dedup.build(slice, self.rows());
        let bucket = (bs as usize) % self.expiry.len();
        for &row in dedup.uniques() {
            self.last_need[row as usize] = bs + 1;
            self.expiry[bucket].push(row);
        }
    }

    /// The unique rows of `dest`'s step-`j` slice that are not validly
    /// cached, in first-appearance order; marks them received-as-of-`j`.
    fn build_late_list(
        &mut self,
        j: u32,
        slice: &[u32],
        dedup: &mut DedupPlan,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        dedup.build(slice, self.rows());
        for &row in dedup.uniques() {
            if !self.valid(row as usize) {
                debug_assert!(self.foreign_mark[row as usize] <= j);
                self.recv_mark[row as usize] = j + 1;
                out.push(row);
            }
        }
    }

    /// The unique rows of `dest`'s step-`j+1` slice that can be fetched
    /// *early*, during step `j`: not validly cached, and untouched by
    /// batch `j` on any rank (`touch` is the shared per-table touch mark),
    /// so the owner's pre-update pack equals its post-step-`j` value.
    /// Marks them received-as-of-`j+1`.
    fn build_early_list(
        &mut self,
        j: u32,
        next_slice: &[u32],
        touch: &[u32],
        dedup: &mut DedupPlan,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        dedup.build(next_slice, self.rows());
        for &row in dedup.uniques() {
            let r = row as usize;
            if !self.valid(r) && touch[r] != j + 1 {
                self.recv_mark[r] = j + 2;
                out.push(row);
            }
        }
    }

    /// Marks every row of batch `j` touched by a rank other than `dest`
    /// as foreign-touched (the lookups outside `dest`'s contiguous bag
    /// slice). Must run *after* the late list build and *before* the
    /// early list build of step `j`.
    fn record_touches(&mut self, j: u32, indices: &[u32], offsets: &[usize], n: usize) {
        let lo = offsets[self.dest * n];
        let hi = offsets[(self.dest + 1) * n];
        for &row in &indices[..lo] {
            self.foreign_mark[row as usize] = j + 1;
        }
        for &row in &indices[hi..] {
            self.foreign_mark[row as usize] = j + 1;
        }
    }

    /// Drains step `j`'s expiry bucket: rows whose last visible need was
    /// step `j` are dropped from the cache (`on_evict` releases the slot
    /// on the destination side; owners track marks only).
    fn evict(&mut self, j: u32, mut on_evict: impl FnMut(u32)) {
        let len = self.expiry.len();
        let mut bucket = std::mem::take(&mut self.expiry[(j as usize) % len]);
        for row in bucket.drain(..) {
            let r = row as usize;
            if self.last_need[r] == j + 1 && self.recv_mark[r] != 0 {
                self.recv_mark[r] = 0;
                on_evict(row);
            }
        }
        self.expiry[(j as usize) % len] = bucket;
    }

    fn scratch_bytes(&self) -> usize {
        let ring: usize = self.expiry.iter().map(|b| b.capacity()).sum();
        (self.recv_mark.capacity()
            + self.foreign_mark.capacity()
            + self.last_need.capacity()
            + ring)
            * std::mem::size_of::<u32>()
    }
}

/// Per-rank state of the lookahead pipeline (held by
/// [`DistDlrm`](crate::distributed::DistDlrm) when prefetch is enabled).
pub(crate) struct PrefetchState {
    /// This rank and the world size.
    me: usize,
    nranks: usize,
    window: usize,
    /// Current step (== the window cursor position).
    step: u32,
    /// Next batch index to fold into the need horizon.
    next_observe: usize,
    /// Global table indices this rank owns (ascending).
    owned: Vec<usize>,
    /// Destination-side tracker per table (this rank as consumer).
    dest_trackers: Vec<NeedTracker>,
    /// Owner-side replicas: `[owned-table][dest rank]`.
    owner_trackers: Vec<Vec<NeedTracker>>,
    /// Row cache per table (grow-on-demand slots, recycled on eviction).
    caches: Vec<RowStore>,
    /// Table row → cache slot per table (`NO_SLOT` when absent).
    slot_of: Vec<Vec<u32>>,
    /// Step (+1) each row was last touched by *any* rank, per table —
    /// shared knowledge (every rank sees the full global batch), used for
    /// early-fetch eligibility.
    touch_mark: Vec<Vec<u32>>,
    /// Rows fetched late this step, per table (unpack layout).
    late_lists: Vec<Vec<u32>>,
    /// Rows fetched early for the next step, per table (unpack layout).
    early_lists: Vec<Vec<u32>>,
    /// Shared dedup scratch (grow-only).
    dedup: DedupPlan,
    /// Early fetch issued during the previous step, if any.
    pending_early: Option<Pending>,
    isa: Isa,
}

/// The lookups of rank `p`'s (of `nranks`) bag slice of batch `b`, table `t`.
#[inline]
fn slice_lookups(b: &MiniBatch, t: usize, p: usize, nranks: usize) -> &[u32] {
    let (off, n) = (&b.offsets[t], b.batch_size() / nranks);
    &b.indices[t][off[p * n]..off[(p + 1) * n]]
}

impl PrefetchState {
    pub(crate) fn new(cfg: &DlrmConfig, nranks: usize, me: usize, window: usize) -> Self {
        assert!(window >= 1, "prefetch window must be >= 1");
        let s = cfg.num_tables;
        let e = cfg.emb_dim;
        let rows = |t: usize| cfg.table_rows[t] as usize;
        let owned = tables_of(s, nranks, me);
        PrefetchState {
            me,
            nranks,
            window,
            step: 0,
            next_observe: 0,
            dest_trackers: (0..s)
                .map(|t| NeedTracker::new(rows(t), me, window))
                .collect(),
            owner_trackers: owned
                .iter()
                .map(|&t| {
                    (0..nranks)
                        .map(|p| NeedTracker::new(rows(t), p, window))
                        .collect()
                })
                .collect(),
            caches: (0..s).map(|_| RowStore::new(e)).collect(),
            slot_of: (0..s).map(|t| vec![NO_SLOT; rows(t)]).collect(),
            touch_mark: (0..s).map(|t| vec![0; rows(t)]).collect(),
            late_lists: vec![Vec::new(); s],
            early_lists: vec![Vec::new(); s],
            owned,
            dedup: DedupPlan::new(),
            pending_early: None,
            isa: detect_isa(),
        }
    }

    pub(crate) fn step(&self) -> u32 {
        self.step
    }

    /// Bytes of iteration-persistent scratch (trackers, caches, maps,
    /// fetch lists, dedup scratch).
    pub(crate) fn scratch_bytes(&self) -> usize {
        let trackers: usize = self
            .dest_trackers
            .iter()
            .chain(self.owner_trackers.iter().flatten())
            .map(|t| t.scratch_bytes())
            .sum();
        let caches: usize = self.caches.iter().map(|c| c.scratch_bytes()).sum();
        let maps: usize = self
            .slot_of
            .iter()
            .chain(&self.touch_mark)
            .chain(&self.late_lists)
            .chain(&self.early_lists)
            .map(|v| v.capacity() * std::mem::size_of::<u32>())
            .sum();
        trackers + caches + maps + self.dedup.scratch_bytes()
    }

    /// Phases 0–3 of step `j` (the window's current batch): folds every
    /// newly visible batch (`index ≤ j + window`) into all trackers' need
    /// horizons, lands the early fetch issued during step `j−1`, fetches
    /// the rows still missing (late fetch) and records batch `j`'s touches.
    pub(crate) fn fetch(
        &mut self,
        win: &LookaheadWindow<'_>,
        local_tables: &[(usize, EmbeddingLayer)],
        links: &Links,
        rec: Option<&TimingRecorder>,
    ) {
        let (j, global, r) = (self.step, win.current(), self.nranks);
        while self.next_observe <= j as usize + self.window {
            if let Some(b) = win.peek(self.next_observe - j as usize) {
                let bs = self.next_observe as u32;
                self.each_tracker(|t, tr, dedup| {
                    tr.observe(bs, slice_lookups(b, t, tr.dest, r), dedup)
                });
            }
            self.next_observe += 1;
        }
        if let Some(op) = self.pending_early.take() {
            let recv = op.received(&links.comm, rec);
            self.unpack(&recv, FetchKind::Early);
        }
        self.late_fetch(global, local_tables, links, rec);
        // Batch j's touches: the shared touch marks, every foreign mark.
        let n = global.batch_size() / r;
        for (t, touch) in self.touch_mark.iter_mut().enumerate() {
            for &row in &global.indices[t] {
                touch[row as usize] = j + 1;
            }
        }
        self.each_tracker(|t, tr, _| {
            tr.record_touches(j, &global.indices[t], &global.offsets[t], n)
        });
    }

    /// Calls `f(table, tracker, dedup scratch)` on every tracker: this
    /// rank's own, then the owner-side replicas.
    fn each_tracker(&mut self, mut f: impl FnMut(usize, &mut NeedTracker, &mut DedupPlan)) {
        for (t, tr) in self.dest_trackers.iter_mut().enumerate() {
            f(t, tr, &mut self.dedup);
        }
        for (lt, per_dest) in self.owner_trackers.iter_mut().enumerate() {
            for tr in per_dest {
                f(self.owned[lt], tr, &mut self.dedup);
            }
        }
    }

    /// Phase 2: fetches the unique not-validly-cached rows of this rank's
    /// step-`j` slice from their owners, on the rank thread — the forward
    /// fan-out pools them at once. Owners pack canonical current weights;
    /// every rank participates symmetrically (empty payloads cost zero
    /// wire bytes).
    fn late_fetch(
        &mut self,
        global: &MiniBatch,
        local_tables: &[(usize, EmbeddingLayer)],
        links: &Links,
        rec: Option<&TimingRecorder>,
    ) {
        // Destination side: decide what I need.
        let (j, me, r) = (self.step, self.me, self.nranks);
        for (t, tr) in self.dest_trackers.iter_mut().enumerate() {
            let list = &mut self.late_lists[t];
            tr.build_late_list(j, slice_lookups(global, t, me, r), &mut self.dedup, list);
        }
        // Owner side: replicate every destination's decision and pack.
        let send = time_opt(rec, OpKind::AlltoallFramework, || {
            self.pack_fetch(global, local_tables, FetchKind::Late)
        });
        let wire = links.wire.forward_alltoall;
        let recv = time_opt(rec, OpKind::AlltoallWait, || {
            alltoall_wire_tagged(&links.comm, send, wire, TAG_PREFETCH, 0)
        });
        self.unpack(&recv, FetchKind::Late);
    }

    /// Phase 4: pools every table's local slice from cached rows, in
    /// `forward_serial`'s exact accumulate order — the local fan-out that
    /// replaces the pooled forward alltoall.
    pub(crate) fn pool_forward(&self, global: &MiniBatch, out: &mut [Matrix]) {
        let (me, n) = (self.me, global.batch_size() / self.nranks);
        for (t, out_t) in out.iter_mut().enumerate() {
            let cache = &self.caches[t];
            let slot_of = &self.slot_of[t];
            let idx = &global.indices[t];
            let off = &global.offsets[t];
            for b in 0..n {
                let gbag = me * n + b;
                let out_row = out_t.row_mut(b);
                out_row.fill(0.0);
                for s in off[gbag]..off[gbag + 1] {
                    let slot = slot_of[idx[s] as usize];
                    debug_assert_ne!(slot, NO_SLOT, "needed row not cached");
                    rowops::accumulate(self.isa, out_row, cache.row(slot as usize));
                }
            }
        }
    }

    /// Phase 5: issues the early fetch for batch `j+1` — rows the window
    /// shows are needed next step, not validly cached, and untouched by
    /// batch `j` (so the owner's pre-update pack is already the value the
    /// next step must see) — through `links`, to land at step `j+1`.
    pub(crate) fn issue_early_fetch(
        &mut self,
        win: &LookaheadWindow<'_>,
        local_tables: &[(usize, EmbeddingLayer)],
        links: &Links,
        rec: Option<&TimingRecorder>,
    ) {
        debug_assert!(self.pending_early.is_none());
        let Some(next) = win.peek(1) else {
            return; // stream drains: nothing to prefetch, all ranks agree
        };
        let (j, me, r) = (self.step, self.me, self.nranks);
        for (t, tr) in self.dest_trackers.iter_mut().enumerate() {
            let (touch, list) = (&self.touch_mark[t], &mut self.early_lists[t]);
            let slice = slice_lookups(next, t, me, r);
            tr.build_early_list(j, slice, touch, &mut self.dedup, list);
        }
        let send = time_opt(rec, OpKind::AlltoallFramework, || {
            self.pack_fetch(next, local_tables, FetchKind::Early)
        });
        let wire = links.wire.forward_alltoall;
        self.pending_early = Some(links.alltoall(send, wire, TAG_PREFETCH, 0, rec));
    }

    /// Phase 7 (destination half): replays this rank's slice of the
    /// sparse update onto its cached rows — the delayed-update write path.
    /// Same `axpy`, same per-row order as the owner's canonical
    /// scatter-add restricted to this slice, so exclusively-mine rows
    /// stay bit-identical to the owner.
    pub(crate) fn apply_local_updates(
        &mut self,
        global: &MiniBatch,
        d_tables: &[Matrix],
        emb_lr: f32,
    ) {
        let (me, n) = (self.me, global.batch_size() / self.nranks);
        for (t, dy) in d_tables.iter().enumerate() {
            let cache = &mut self.caches[t];
            let slot_of = &self.slot_of[t];
            let idx = &global.indices[t];
            let off = &global.offsets[t];
            for b in 0..n {
                let gbag = me * n + b;
                for s in off[gbag]..off[gbag + 1] {
                    let slot = slot_of[idx[s] as usize];
                    debug_assert_ne!(slot, NO_SLOT);
                    rowops::axpy(self.isa, cache.row_mut(slot as usize), dy.row(b), -emb_lr);
                }
            }
        }
    }

    /// Phase 8: drains step `j`'s expiry buckets on every tracker,
    /// releasing destination cache slots, then advances the step.
    pub(crate) fn finish_step(&mut self) {
        let j = self.step;
        for (t, tr) in self.dest_trackers.iter_mut().enumerate() {
            let cache = &mut self.caches[t];
            let slot_of = &mut self.slot_of[t];
            tr.evict(j, |row| {
                let slot = slot_of[row as usize];
                debug_assert_ne!(slot, NO_SLOT);
                slot_of[row as usize] = NO_SLOT;
                cache.release(slot);
            });
        }
        for per_dest in self.owner_trackers.iter_mut() {
            for tr in per_dest.iter_mut() {
                tr.evict(j, |_| {});
            }
        }
        self.step = j + 1;
    }

    /// Owner-side pack: replays every destination's list build on the
    /// replica trackers and packs the requested rows — current canonical
    /// weights, concatenated over my owned tables (ascending) per
    /// destination. The layout mirrors [`PrefetchState::unpack`] exactly;
    /// no index metadata crosses the wire.
    fn pack_fetch(
        &mut self,
        batch: &MiniBatch,
        local_tables: &[(usize, EmbeddingLayer)],
        kind: FetchKind,
    ) -> Vec<Vec<f32>> {
        let (j, nranks) = (self.step, self.nranks);
        let mut send: Vec<Vec<f32>> = (0..nranks).map(|_| Vec::new()).collect();
        let mut list = Vec::new();
        for (lt, per_dest) in self.owner_trackers.iter_mut().enumerate() {
            let t = self.owned[lt];
            debug_assert_eq!(local_tables[lt].0, t);
            let weight = &local_tables[lt].1.weight;
            for (p, tr) in per_dest.iter_mut().enumerate() {
                let slice = slice_lookups(batch, t, p, nranks);
                match kind {
                    FetchKind::Late => tr.build_late_list(j, slice, &mut self.dedup, &mut list),
                    FetchKind::Early => tr.build_early_list(
                        j,
                        slice,
                        &self.touch_mark[t],
                        &mut self.dedup,
                        &mut list,
                    ),
                }
                for &row in &list {
                    send[p].extend_from_slice(weight.row(row as usize));
                }
            }
        }
        send
    }

    /// Destination-side unpack: walks owners in rank order and their
    /// tables in ascending order, landing each listed row in the cache —
    /// the mirror image of [`PrefetchState::pack_fetch`].
    fn unpack(&mut self, recv: &[Vec<f32>], kind: FetchKind) {
        let (s, nranks, e) = (self.caches.len(), self.nranks, self.caches[0].width());
        let lists = match kind {
            FetchKind::Late => &self.late_lists,
            FetchKind::Early => &self.early_lists,
        };
        for (o, buf) in recv.iter().enumerate() {
            let mut cur = 0usize;
            // Owner o's tables in ascending order (round-robin placement),
            // iterated without the `tables_of` allocation — this runs every
            // step on the steady-state path.
            for t in (o..s).step_by(nranks) {
                let cache = &mut self.caches[t];
                let slot_of = &mut self.slot_of[t];
                for &row in &lists[t] {
                    let r = row as usize;
                    let slot = match slot_of[r] {
                        NO_SLOT => {
                            let slot = cache.acquire(row);
                            slot_of[r] = slot;
                            slot
                        }
                        slot => slot,
                    };
                    cache.set(slot as usize, row, &buf[cur..cur + e]);
                    cur += e;
                }
            }
            assert_eq!(cur, buf.len(), "fetch payload layout mismatch");
        }
    }
}

/// Which fetch [`PrefetchState::pack_fetch`] packs and [`PrefetchState::unpack`] lands.
#[derive(Clone, Copy)]
enum FetchKind {
    Late,
    Early,
}
