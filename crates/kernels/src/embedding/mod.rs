//! EmbeddingBag kernels — Algorithms 1–4 of the paper plus the fused
//! backward+update.
//!
//! An embedding bag gathers `P` rows of a table `W ∈ R^{M×E}` per sample and
//! sums them (`L = AᵀW` with multi-hot `A`). A minibatch of `N` samples is
//! described by CSR-style `offsets` (`N+1` entries) into a flat `indices`
//! array of `NS` lookups.
//!
//! The *update* is where the paper's single-socket analysis lives: applying
//! per-lookup gradient rows `dW[NS][E]` back into the table races when the
//! same row is referenced twice. The four strategies of Section III-A:
//!
//! * [`UpdateStrategy::Reference`] — Algorithm 3, single-threaded (the
//!   PyTorch-v1.4-style baseline of Figure 7).
//! * [`UpdateStrategy::AtomicXchg`] — parallel over lookups; each scalar
//!   accumulation is a compare-exchange loop on the table element (Xeons
//!   have no native FP atomic add).
//! * [`UpdateStrategy::Rtm`] — optimistic row-granular critical sections.
//!   Hardware TSX is not reachable from stable Rust (and is fused off on
//!   current parts), so this is emulated with striped spinlocks; like RTM it
//!   permits SIMD inside the critical section, unlike per-element CAS.
//! * [`UpdateStrategy::RaceFree`] — Algorithm 4: each thread owns a
//!   contiguous row range `[M·tid/T, M·(tid+1)/T)` and scans the *entire*
//!   index list, applying only the updates that land in its range. No
//!   synchronization, better locality, but load-imbalanced for clustered
//!   indices — and O(NS·T) total scan work.
//!
//! [`backward_update`] is the train step's kernel: backward (Algorithm 2)
//! fused into the update, so `dW[NS][E]` is never written — every strategy
//! reads a lookup's gradient row straight from `dY[bag]`. The paper credits
//! this standalone-only fusion with up to 1.6× on embedding updates. The
//! unfused pair [`backward`] + [`update`] stays as what the Figure 7
//! harnesses and the equivalence suites call: the paper's bars, and the
//! bitwise reference the fused kernel is held to.
//!
//! The gather and the fused update run on the bag-level SIMD kernels of
//! [`rowops`] (scalar/AVX2/AVX-512 tiers behind
//! [`gemm::micro::detect_isa`](crate::gemm::micro::detect_isa), forceable
//! via [`gemm::micro::set_isa_override`](crate::gemm::micro::set_isa_override)),
//! which keep a bag's sum — or its scaled gradient — in registers across the
//! bag; the unfused strategies apply one row at a time. All of them issue
//! software prefetches of upcoming table rows keyed off the index stream,
//! except the unfused race-free scan.
//!
//! Table rows are addressed through raw pointers, so every public entry
//! validates the whole lookup list first (`check_bags`: one O(NS) max-scan,
//! ≈ 1 % of the kernel it guards): a bad index panics, it never scribbles.

// Index-based loops in this module mirror the paper's Algorithms 1-4
// pseudocode line for line; keep them index-based for reviewability.
#![allow(clippy::needless_range_loop)]

pub mod plan;
pub mod rowops;
pub mod rowstore;

pub use plan::DedupPlan;
pub use rowstore::RowStore;

use crate::gemm::micro::{detect_isa, Isa};
use crate::threadpool::ThreadPool;
use dlrm_tensor::util::partition_range;
use dlrm_tensor::Matrix;
use rowops::PREFETCH_DISTANCE;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The four update strategies of Section III-A / Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// Single-threaded Algorithm 3 (the naive-framework baseline).
    Reference,
    /// Parallel over lookups with per-element CAS float adds.
    AtomicXchg,
    /// Optimistic row-granular critical sections (RTM emulated via striped
    /// spinlocks), SIMD inside the section.
    Rtm,
    /// Algorithm 4: race-free row-range ownership, every thread scanning
    /// the full index list.
    RaceFree,
}

impl UpdateStrategy {
    /// All strategies in Figure 7's bar order.
    pub const ALL: [UpdateStrategy; 4] = [
        UpdateStrategy::Reference,
        UpdateStrategy::AtomicXchg,
        UpdateStrategy::Rtm,
        UpdateStrategy::RaceFree,
    ];
}

impl std::fmt::Display for UpdateStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UpdateStrategy::Reference => "Reference",
            UpdateStrategy::AtomicXchg => "Atomic XCHG",
            UpdateStrategy::Rtm => "RTM",
            UpdateStrategy::RaceFree => "Race Free",
        };
        f.write_str(s)
    }
}

/// Panics unless every lookup names a row of the `m`-row table.
fn check_indices(indices: &[u32], m: usize) {
    // A max-scan, not `all(..)`: no early exit, so it vectorizes.
    let max = indices.iter().fold(0u32, |acc, &i| acc.max(i));
    assert!(
        indices.is_empty() || (max as usize) < m,
        "index {max} out of table bounds ({m} rows)"
    );
}

/// Panics unless `offsets` is a CSR description of `ns` lookups.
fn check_offsets(offsets: &[usize], ns: usize) {
    assert!(!offsets.is_empty(), "offsets must have N+1 entries");
    assert_eq!(
        *offsets.last().unwrap(),
        ns,
        "last offset must equal number of lookups"
    );
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "offsets must be non-decreasing"
    );
}

/// Panics unless `offsets` is a CSR description of `indices` over an
/// `m`-row table. The kernels below rely on it for memory safety.
fn check_bags(indices: &[u32], offsets: &[usize], m: usize) {
    check_offsets(offsets, indices.len());
    check_indices(indices, m);
}

// ---------------------------------------------------------------------------
// Forward (Algorithm 1)
// ---------------------------------------------------------------------------

/// Reference forward: the scalar, functionality-first loop nest of
/// Algorithm 1 with no parallelism — deliberately naive.
pub fn forward_reference(weight: &Matrix, indices: &[u32], offsets: &[usize], out: &mut Matrix) {
    check_bags(indices, offsets, weight.rows());
    let n = offsets.len() - 1;
    let e = weight.cols();
    assert_eq!(out.shape(), (n, e), "forward output shape");
    for bag in 0..n {
        for j in 0..e {
            out[(bag, j)] = 0.0;
        }
        for s in offsets[bag]..offsets[bag + 1] {
            let ind = indices[s] as usize;
            for j in 0..e {
                out[(bag, j)] += weight[(ind, j)];
            }
        }
    }
}

/// Optimized forward: parallel over bags, each bag summed in registers
/// ([`rowops::gather_bags`]). This is the GUPS-like kernel expected to run
/// at memory bandwidth.
pub fn forward(
    pool: &ThreadPool,
    weight: &Matrix,
    indices: &[u32],
    offsets: &[usize],
    out: &mut Matrix,
) {
    check_bags(indices, offsets, weight.rows());
    let n = offsets.len() - 1;
    let e = weight.cols();
    assert_eq!(out.shape(), (n, e), "forward output shape");
    let isa = detect_isa();
    let out_base = crate::SendMutPtr(out.as_mut_slice().as_mut_ptr());

    pool.parallel_for(n, move |_tid, bags| {
        let w = weight.as_slice().as_ptr();
        // SAFETY: `check_bags` holds; `out` is n×e and each bag row is
        // owned by exactly one thread.
        unsafe { rowops::gather_bags(isa, w, e, indices, offsets, bags, out_base.get()) };
    });
}

/// Serial SIMD forward: [`forward`]'s kernel on the calling thread. This is
/// the inference-serving entry point — micro-batches are small enough that
/// pool fan-out costs more than it buys, and a serving engine interleaving
/// cache probes with row sums needs a single-threaded gather it can mirror
/// row for row. Bitwise identical to [`forward`] and [`forward_reference`]
/// (same per-bag accumulation order).
pub fn forward_serial(weight: &Matrix, indices: &[u32], offsets: &[usize], out: &mut Matrix) {
    check_bags(indices, offsets, weight.rows());
    let n = offsets.len() - 1;
    let e = weight.cols();
    assert_eq!(out.shape(), (n, e), "forward output shape");
    let (w, out) = (weight.as_slice().as_ptr(), out.as_mut_slice().as_mut_ptr());
    // SAFETY: `check_bags` holds and `out` is n×e.
    unsafe { rowops::gather_bags(detect_isa(), w, e, indices, offsets, 0..n, out) };
}

// ---------------------------------------------------------------------------
// Backward (Algorithm 2)
// ---------------------------------------------------------------------------

/// Backward: expands `dY[N][E]` into per-lookup gradient rows `dW[NS][E]`.
/// (Each lookup in bag `n` receives a copy of `dY[n]` — the multi-hot
/// weights are all 1.)
pub fn backward(pool: &ThreadPool, dy: &Matrix, offsets: &[usize], dw: &mut Matrix) {
    check_offsets(offsets, dw.rows());
    let n = offsets.len() - 1;
    let e = dy.cols();
    assert_eq!(dy.rows(), n, "backward dY rows");
    assert_eq!(dw.cols(), e, "backward dW shape");
    let dw_base = crate::SendMutPtr(dw.as_mut_slice().as_mut_ptr());

    pool.parallel_for(n, move |_tid, bags| {
        for bag in bags {
            let src = dy.row(bag);
            for s in offsets[bag]..offsets[bag + 1] {
                // SAFETY: lookup slots s are partitioned by bag, and bags are
                // partitioned across threads.
                let dst = unsafe { std::slice::from_raw_parts_mut(dw_base.get().add(s * e), e) };
                dst.copy_from_slice(src);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Update (Algorithms 3 & 4)
// ---------------------------------------------------------------------------

/// Number of lock stripes for the RTM-emulation strategy. Power of two,
/// large enough that uniform random rows rarely collide on a stripe.
const RTM_STRIPES: usize = 1024;

/// A minimal test-and-test-and-set spinlock used as the RTM surrogate.
struct StripeLock(AtomicBool);

impl StripeLock {
    #[inline]
    fn lock(&self) {
        loop {
            if !self.0.swap(true, Ordering::Acquire) {
                return;
            }
            while self.0.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn unlock(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The stripe-lock array, engine-static so `update_rtm` does not allocate
/// (and re-fault) 1024 lock words on every call. One process-wide array is
/// correct even across concurrent tables: stripes only ever serialize, they
/// never alias rows between distinct weight matrices incorrectly (a stripe
/// guards "whoever holds it", not a specific address).
static RTM_LOCKS: [StripeLock; RTM_STRIPES] = {
    // Interior mutability in a const is exactly what a static lock table is.
    #[allow(clippy::declare_interior_mutable_const)]
    const UNLOCKED: StripeLock = StripeLock(AtomicBool::new(false));
    [UNLOCKED; RTM_STRIPES]
};

/// The *unfused* update (Algorithms 3 & 4 as printed): applies
/// `W[indices[i]] += alpha * dW[i]` for all `NS` lookups using the chosen
/// strategy. Pass `alpha = -lr` for an SGD step. The train step runs
/// [`backward_update`] instead; this is Figure 7's kernel and the bitwise
/// reference.
pub fn update(
    pool: &ThreadPool,
    strategy: UpdateStrategy,
    weight: &mut Matrix,
    dw: &Matrix,
    indices: &[u32],
    alpha: f32,
) {
    let (m, e) = weight.shape();
    assert_eq!(dw.shape(), (indices.len(), e), "update dW shape");
    check_indices(indices, m);

    match strategy {
        UpdateStrategy::Reference => update_reference(weight, dw, indices, alpha),
        UpdateStrategy::AtomicXchg => update_atomic(pool, weight, dw, indices, alpha),
        UpdateStrategy::Rtm => update_rtm(pool, weight, dw, indices, alpha),
        UpdateStrategy::RaceFree => update_race_free(pool, weight, dw, indices, alpha),
    }
}

/// Algorithm 3, single-threaded. The per-row arithmetic goes through the
/// shared SIMD primitives — the *strategy* contrast of Figure 7 is about
/// parallelization, not about hobbling the baseline's inner loop.
fn update_reference(weight: &mut Matrix, dw: &Matrix, indices: &[u32], alpha: f32) {
    let e = weight.cols();
    let isa = detect_isa();
    let w_base = weight.as_mut_slice().as_mut_ptr();
    for (i, &ind) in indices.iter().enumerate() {
        let ahead = i + PREFETCH_DISTANCE;
        if ahead < indices.len() {
            // SAFETY: indices are checked < m by `update`, here and below.
            rowops::prefetch_row(unsafe { w_base.add(indices[ahead] as usize * e) }, e);
        }
        // SAFETY: the row is in-bounds and `dw` never aliases `weight`.
        unsafe { rowops::scatter_add(isa, w_base.add(ind as usize * e), dw.row(i), alpha) };
    }
}

/// The *framework-naive* update emulating the PyTorch-v1.4 CPU backend the
/// paper profiled ("a naive CPU backend implementation which was focused on
/// functionality instead of performance" — the kernel that made 99% of the
/// reference DLRM's runtime). It follows the framework's sparse-gradient
/// pipeline literally:
///
/// 1. **coalesce** the sparse gradient: per-step allocation of an ordered
///    row → gradient-row map, one boxed row per unique index, f64
///    accumulation of duplicates (what `Tensor::coalesce` does via sort);
/// 2. **apply** with accessor-style element addressing: flat offset
///    re-derived from `(row, col)` per scalar, bounds-checked, through a
///    dynamically dispatched accumulate (the type-erased scalar kernel).
///
/// Numerically equivalent to Algorithm 3 up to the f64 rounding of each
/// accumulate and the per-row (instead of per-lookup) application order —
/// but at framework speed.
pub fn update_framework_naive(weight: &mut Matrix, dw: &Matrix, indices: &[u32], alpha: f32) {
    let (rows, e) = weight.shape();
    // Step 1: coalesce duplicates into an ordered sparse structure.
    let mut coalesced: std::collections::BTreeMap<u32, Vec<f64>> =
        std::collections::BTreeMap::new();
    for (i, &ind) in indices.iter().enumerate() {
        let entry = coalesced.entry(ind).or_insert_with(|| vec![0.0f64; e]);
        for j in 0..e {
            entry[j] += alpha as f64 * dw[(i, j)] as f64;
        }
    }
    // Step 2: scalar accessor-style application.
    let accumulate: Box<dyn Fn(f64, f64) -> f64> = Box::new(|w, g| w + g);
    for (ind, grad_row) in coalesced {
        for (j, &g) in grad_row.iter().enumerate() {
            let r = ind as usize;
            assert!(r < rows && j < e, "index out of bounds");
            let flat = r * e + j;
            let w = weight.as_slice()[flat] as f64;
            weight.as_mut_slice()[flat] = std::hint::black_box(accumulate(w, g)) as f32;
        }
    }
}

/// CAS loop implementing a float atomic add on a `u32` cell.
#[inline]
fn atomic_add_f32(cell: &AtomicU32, v: f32) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f32::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// The table viewed as CAS cells, for the [`UpdateStrategy::AtomicXchg`]
/// loops.
///
/// # Safety
/// Until the returned slice is dropped, every access to the table must go
/// through it.
unsafe fn atomic_cells(weight: &mut Matrix) -> &[AtomicU32] {
    let len = weight.len();
    // SAFETY: AtomicU32 has the same size/alignment as f32.
    std::slice::from_raw_parts(weight.as_mut_slice().as_mut_ptr().cast::<AtomicU32>(), len)
}

/// `W[row] += alpha · grad`, one CAS add per element. The CAS loop is
/// inherently scalar (x86 has no atomic SIMD read-modify-write).
#[inline]
fn atomic_row_add(cells: &[AtomicU32], row: usize, grad: &[f32], alpha: f32) {
    let base = row * grad.len();
    for (cell, &g) in cells[base..base + grad.len()].iter().zip(grad) {
        atomic_add_f32(cell, alpha * g);
    }
}

/// `W[row] += alpha · grad` inside the row's stripe lock (the RTM
/// surrogate's critical section), vectorized.
///
/// # Safety
/// `row` must lie inside the `grad.len()`-wide table at `w`, and every
/// concurrent writer of the table must go through this function.
#[inline]
unsafe fn locked_row_add(isa: Isa, w: *mut f32, row: usize, grad: &[f32], alpha: f32) {
    let lock = &RTM_LOCKS[row & (RTM_STRIPES - 1)];
    lock.lock();
    // The stripe lock serializes all writers of this row (rows map to
    // exactly one stripe).
    rowops::scatter_add(isa, w.add(row * grad.len()), grad, alpha);
    lock.unlock();
}

/// Parallel over lookups; per-element CAS adds. This strategy's use of the
/// row-primitive module is limited to the prefetch stream.
fn update_atomic(pool: &ThreadPool, weight: &mut Matrix, dw: &Matrix, indices: &[u32], alpha: f32) {
    let e = weight.cols();
    // SAFETY: all access during this call goes through the atomic view.
    let cells = unsafe { atomic_cells(weight) };

    pool.parallel_for(indices.len(), move |_tid, lookups| {
        let slot_end = lookups.end;
        for i in lookups {
            let ahead = i + PREFETCH_DISTANCE;
            if ahead < slot_end {
                rowops::prefetch_row(cells[indices[ahead] as usize * e].as_ptr().cast(), e);
            }
            atomic_row_add(cells, indices[i] as usize, dw.row(i), alpha);
        }
    });
}

/// Optimistic row-granular critical sections (RTM surrogate): lock the
/// stripe owning the row, then do a vectorized row update.
fn update_rtm(pool: &ThreadPool, weight: &mut Matrix, dw: &Matrix, indices: &[u32], alpha: f32) {
    let e = weight.cols();
    let isa = detect_isa();
    let w_base = crate::SendMutPtr(weight.as_mut_slice().as_mut_ptr());

    pool.parallel_for(indices.len(), |_tid, lookups| {
        let slot_end = lookups.end;
        for i in lookups {
            let ahead = i + PREFETCH_DISTANCE;
            if ahead < slot_end {
                // SAFETY: indices are checked < m by `update`.
                rowops::prefetch_row(unsafe { w_base.get().add(indices[ahead] as usize * e) }, e);
            }
            // SAFETY: as above, and every writer goes through the stripe
            // locks.
            unsafe { locked_row_add(isa, w_base.get(), indices[i] as usize, dw.row(i), alpha) };
        }
    });
}

/// Algorithm 4: every thread scans all lookups, applying only those whose
/// row falls in its owned range.
fn update_race_free(
    pool: &ThreadPool,
    weight: &mut Matrix,
    dw: &Matrix,
    indices: &[u32],
    alpha: f32,
) {
    let (m, e) = weight.shape();
    let t = pool.num_threads();
    let isa = detect_isa();
    let w_base = crate::SendMutPtr(weight.as_mut_slice().as_mut_ptr());

    pool.broadcast(|tid| {
        let owned = partition_range(m, t, tid);
        for (i, &ind) in indices.iter().enumerate() {
            let row = ind as usize;
            if owned.contains(&row) {
                // SAFETY: row ranges are disjoint across threads.
                unsafe { rowops::scatter_add(isa, w_base.get().add(row * e), dw.row(i), alpha) };
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Fused backward + update: the train step's kernel
// ---------------------------------------------------------------------------

/// Backward fused into the update: `W[indices[s]] += alpha · dY[bag(s)]` for
/// all `NS` lookups, never materializing `dW[NS][E]`. Standalone-only in
/// the paper (framework autograd boundaries prevent the fusion); measured
/// there at up to 1.6× for embedding updates. Pass `alpha = -lr` for an SGD
/// step. Per strategy:
///
/// * `Reference` — the calling thread walks the bags in order.
/// * `RaceFree` — Algorithms 2+4: every thread walks every bag and applies
///   the lookups inside its row range, prefetching ahead only rows it owns.
/// * `AtomicXchg` / `Rtm` — parallel over bags, rows shared through CAS
///   cells / stripe locks.
///
/// The first two (and the last two on one thread) apply a row's updates
/// in index-list order, each as `w + round(alpha · g)`: bitwise equal to
/// [`backward`] followed by [`update`] with `Reference`, whatever the ISA
/// tier and team size.
pub fn backward_update(
    pool: &ThreadPool,
    strategy: UpdateStrategy,
    weight: &mut Matrix,
    dy: &Matrix,
    indices: &[u32],
    offsets: &[usize],
    alpha: f32,
) {
    let (m, e) = weight.shape();
    check_bags(indices, offsets, m);
    let n = offsets.len() - 1;
    assert_eq!(dy.shape(), (n, e), "backward_update dY shape");
    let isa = detect_isa();

    let w = crate::SendMutPtr(weight.as_mut_slice().as_mut_ptr());
    match strategy {
        // SAFETY: `check_bags` puts every row inside the table, and the
        // calling thread is the only one writing it.
        UpdateStrategy::Reference => unsafe {
            scatter_owned(isa, w.get(), dy, indices, offsets, alpha, 0..m);
        },
        UpdateStrategy::RaceFree => {
            let t = pool.num_threads();
            // SAFETY: `check_bags` puts every row inside the table, and the
            // row ranges are disjoint across threads.
            pool.broadcast(|tid| unsafe {
                let owned = partition_range(m, t, tid);
                scatter_owned(isa, w.get(), dy, indices, offsets, alpha, owned);
            });
        }
        UpdateStrategy::AtomicXchg => {
            // SAFETY: all access during this call goes through the atomic
            // view.
            let cells = unsafe { atomic_cells(weight) };
            pool.parallel_for(n, move |_tid, bags| {
                for_each_lookup(indices, offsets, bags, |row, bag, ahead| {
                    if let Some(next) = ahead {
                        rowops::prefetch_row(cells[next * e].as_ptr().cast(), e);
                    }
                    atomic_row_add(cells, row, dy.row(bag), alpha);
                });
            });
        }
        UpdateStrategy::Rtm => pool.parallel_for(n, |_tid, bags| {
            for_each_lookup(indices, offsets, bags, |row, bag, ahead| {
                if let Some(next) = ahead {
                    rowops::prefetch_row(w.get().wrapping_add(next * e), e);
                }
                // SAFETY: `check_bags` puts the row inside the table, and
                // every writer goes through the stripe locks.
                unsafe { locked_row_add(isa, w.get(), row, dy.row(bag), alpha) };
            });
        }),
    }
}

/// Calls `f(row, bag, row to prefetch)` for every lookup of the bags in
/// `bags`, in order. The prefetch window runs over flat slots, crossing bag
/// boundaries, up to the last lookup of the bag range.
#[inline]
fn for_each_lookup(
    indices: &[u32],
    offsets: &[usize],
    bags: Range<usize>,
    mut f: impl FnMut(usize, usize, Option<usize>),
) {
    let window = &indices[..offsets[bags.end]];
    for bag in bags {
        for s in offsets[bag]..offsets[bag + 1] {
            let ahead = window.get(s + PREFETCH_DISTANCE).map(|&i| i as usize);
            f(indices[s] as usize, bag, ahead);
        }
    }
}

/// Lookups per piece of [`scatter_owned`]'s scan: a bag, or [`SCAN_PIECE`]
/// lookups of a longer one. 2 KB of stack for the pieces in flight.
const SCAN_PIECE: usize = 256;

/// One owner's share of the full scan: walks every bag and adds
/// `alpha · dY[bag]` to the looked-up rows inside `owned`, the bag's scaled
/// gradient held in registers ([`rowops::scatter_bag`]).
///
/// Ownership of a uniformly drawn row is a coin flip, so testing it inside
/// the apply loop costs a branch miss every other lookup — ≈ 30 % of this
/// kernel's time at T = 2. Instead each piece is first *compacted*,
/// branch-free, into the rows this owner writes (the same lookups in the
/// same order, so the bits cannot tell), ahead of the piece being applied;
/// the apply loop then has nothing to test, and its prefetch looks
/// [`PREFETCH_DISTANCE`] owned rows ahead, across piece boundaries — as many
/// of them as that takes: with bags shorter than the distance, one piece
/// ahead would see no row to prefetch at all.
///
/// # Safety
/// `check_bags(indices, offsets, rows of w)` must hold, `w` must be
/// `dy.cols()` wide, and no other thread may access rows in `owned`.
unsafe fn scatter_owned(
    isa: Isa,
    w: *mut f32,
    dy: &Matrix,
    indices: &[u32],
    offsets: &[usize],
    alpha: f32,
    owned: Range<usize>,
) {
    let e = dy.cols();
    // Keeps the owned rows among `indices[slots]` at the front of `dst`.
    let compact = |slots: Range<usize>, dst: &mut [u32]| {
        let mut kept = 0;
        for &ind in &indices[slots] {
            dst[kept] = ind;
            kept += usize::from(owned.contains(&(ind as usize)));
        }
        kept
    };
    let mut pieces = (0..offsets.len() - 1).flat_map(|bag| {
        let end = offsets[bag + 1];
        (offsets[bag]..end)
            .step_by(SCAN_PIECE)
            .map(move |lo| (bag, lo..end.min(lo + SCAN_PIECE)))
    });

    // `rows[..filled]` holds the owned rows of the `queued` pieces in
    // flight, oldest first: the piece being applied, then pieces compacted
    // ahead of it until `PREFETCH_DISTANCE` of their rows are known — one
    // piece of a long bag, several short bags.
    let mut rows = [0u32; 2 * SCAN_PIECE + PREFETCH_DISTANCE];
    let mut queue = [(0usize, 0usize); PREFETCH_DISTANCE + 1];
    let (mut queued, mut filled) = (0, 0);
    loop {
        while queued < queue.len() && (queued == 0 || filled - queue[0].1 < PREFETCH_DISTANCE) {
            let Some((bag, slots)) = pieces.next() else {
                break;
            };
            let len = compact(slots, &mut rows[filled..]);
            queue[queued] = (bag, len);
            queued += 1;
            filled += len;
        }
        if queued == 0 {
            break;
        }
        let (bag, len) = queue[0];
        let window = &rows[..filled];
        let apply = window[..len].iter().enumerate().map(move |(k, &row)| {
            if let Some(&ahead) = window.get(k + PREFETCH_DISTANCE) {
                rowops::prefetch_row(w.wrapping_add(ahead as usize * e), e);
            }
            row as usize
        });
        rowops::scatter_bag(isa, w, dy.row(bag), alpha, apply);
        rows.copy_within(len..filled, 0);
        queue.copy_within(1..queued, 0);
        filled -= len;
        queued -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_tensor::assert_allclose;
    use dlrm_tensor::init::{seeded_rng, uniform};
    use rand::Rng;

    /// Random bag structure: n bags, up to `max_p` lookups each.
    fn random_bags(m: usize, n: usize, max_p: usize, seed: u64) -> (Vec<u32>, Vec<usize>) {
        let mut rng = seeded_rng(seed, 17);
        let mut offsets = vec![0usize];
        let mut indices = vec![];
        for _ in 0..n {
            let p = rng.gen_range(0..=max_p);
            for _ in 0..p {
                indices.push(rng.gen_range(0..m as u32));
            }
            offsets.push(indices.len());
        }
        (indices, offsets)
    }

    #[test]
    fn forward_matches_reference() {
        let pool = ThreadPool::new(4);
        let mut rng = seeded_rng(1, 0);
        let w = uniform(50, 16, -1.0, 1.0, &mut rng);
        let (indices, offsets) = random_bags(50, 33, 8, 2);
        let n = offsets.len() - 1;
        let mut want = Matrix::zeros(n, 16);
        forward_reference(&w, &indices, &offsets, &mut want);
        let mut got = Matrix::zeros(n, 16);
        forward(&pool, &w, &indices, &offsets, &mut got);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn forward_empty_bag_yields_zero_row() {
        let pool = ThreadPool::new(2);
        let w = Matrix::from_fn(4, 3, |r, _| r as f32 + 1.0);
        let indices = vec![0u32, 2];
        let offsets = vec![0usize, 1, 1, 2]; // bag 1 is empty
        let mut out = Matrix::zeros(3, 3);
        forward(&pool, &w, &indices, &offsets, &mut out);
        assert_eq!(out.row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(out.row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(out.row(2), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn forward_serial_bitwise_matches_parallel_across_tiers() {
        use crate::gemm::micro::{lock_isa_override, set_isa_override};
        let _tier = lock_isa_override();
        let pool = ThreadPool::new(4);
        let mut rng = seeded_rng(2, 0);
        let w = uniform(64, 24, -1.0, 1.0, &mut rng);
        let (indices, offsets) = random_bags(64, 21, 6, 3);
        let n = offsets.len() - 1;
        for isa in rowops::available_isas() {
            set_isa_override(Some(isa));
            let mut want = Matrix::zeros(n, 24);
            forward(&pool, &w, &indices, &offsets, &mut want);
            let mut got = Matrix::zeros(n, 24);
            forward_serial(&w, &indices, &offsets, &mut got);
            assert_eq!(got.as_slice(), want.as_slice(), "{isa:?}");
        }
        set_isa_override(None);
    }

    #[test]
    fn forward_is_sparse_matrix_product() {
        // L = A^T W with multi-hot A: check one bag against explicit sum.
        let pool = ThreadPool::new(2);
        let w = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32);
        let indices = vec![1u32, 1, 4]; // repeated index counts twice
        let offsets = vec![0usize, 3];
        let mut out = Matrix::zeros(1, 2);
        forward(&pool, &w, &indices, &offsets, &mut out);
        assert_eq!(out.row(0), &[2.0 + 2.0 + 8.0, 3.0 + 3.0 + 9.0]);
    }

    #[test]
    fn backward_expands_rows() {
        let pool = ThreadPool::new(3);
        let dy = Matrix::from_fn(2, 4, |r, c| (r * 10 + c) as f32);
        let offsets = vec![0usize, 3, 5];
        let mut dw = Matrix::zeros(5, 4);
        backward(&pool, &dy, &offsets, &mut dw);
        for s in 0..3 {
            assert_eq!(dw.row(s), dy.row(0), "lookup {s}");
        }
        for s in 3..5 {
            assert_eq!(dw.row(s), dy.row(1), "lookup {s}");
        }
    }

    /// All four strategies must produce the same table (up to FP
    /// reassociation in the atomic strategy).
    fn check_update_agreement(m: usize, e: usize, n: usize, max_p: usize, seed: u64) {
        let pool = ThreadPool::new(4);
        let mut rng = seeded_rng(seed, 3);
        let w0 = uniform(m, e, -1.0, 1.0, &mut rng);
        let (indices, offsets) = random_bags(m, n, max_p, seed + 1);
        let ns = *offsets.last().unwrap();
        let dw = uniform(ns, e, -1.0, 1.0, &mut rng);
        let alpha = -0.05f32;

        let mut want = w0.clone();
        update(
            &pool,
            UpdateStrategy::Reference,
            &mut want,
            &dw,
            &indices,
            alpha,
        );

        for strat in [
            UpdateStrategy::AtomicXchg,
            UpdateStrategy::Rtm,
            UpdateStrategy::RaceFree,
        ] {
            let mut got = w0.clone();
            update(&pool, strat, &mut got, &dw, &indices, alpha);
            assert_allclose(
                got.as_slice(),
                want.as_slice(),
                1e-5,
                &format!("update {strat}"),
            );
        }
    }

    #[test]
    fn update_strategies_agree_uniform_indices() {
        check_update_agreement(64, 8, 40, 6, 10);
    }

    #[test]
    fn update_strategies_agree_high_contention() {
        // Tiny table: every strategy hammers the same few rows.
        check_update_agreement(3, 16, 64, 8, 11);
    }

    #[test]
    fn update_strategies_agree_single_row_table() {
        check_update_agreement(1, 4, 16, 4, 12);
    }

    #[test]
    fn race_free_is_bit_exact_vs_reference() {
        // Unlike the atomic strategy, race-free preserves the per-row
        // application order (index-list order), so it is bit-identical.
        let pool = ThreadPool::new(4);
        let mut rng = seeded_rng(13, 0);
        let w0 = uniform(32, 8, -1.0, 1.0, &mut rng);
        let (indices, offsets) = random_bags(32, 50, 5, 14);
        let ns = *offsets.last().unwrap();
        let dw = uniform(ns, 8, -1.0, 1.0, &mut rng);

        let mut want = w0.clone();
        update(
            &pool,
            UpdateStrategy::Reference,
            &mut want,
            &dw,
            &indices,
            -0.1,
        );
        let mut got = w0.clone();
        update(
            &pool,
            UpdateStrategy::RaceFree,
            &mut got,
            &dw,
            &indices,
            -0.1,
        );
        assert_eq!(got.as_slice(), want.as_slice(), "RaceFree not bit-exact");
    }

    #[test]
    fn backward_update_equals_backward_then_update() {
        let pool = ThreadPool::new(4);
        let mut rng = seeded_rng(15, 0);
        let w0 = uniform(40, 8, -1.0, 1.0, &mut rng);
        let (indices, offsets) = random_bags(40, 25, 6, 16);
        let n = offsets.len() - 1;
        let ns = *offsets.last().unwrap();
        let dy = uniform(n, 8, -1.0, 1.0, &mut rng);
        let alpha = -0.02f32;

        // Unfused: backward expand, then the reference update.
        let mut dw = Matrix::zeros(ns, 8);
        backward(&pool, &dy, &offsets, &mut dw);
        let mut want = w0.clone();
        update_reference(&mut want, &dw, &indices, alpha);

        for strat in UpdateStrategy::ALL {
            let mut got = w0.clone();
            backward_update(&pool, strat, &mut got, &dy, &indices, &offsets, alpha);
            match strat {
                UpdateStrategy::AtomicXchg | UpdateStrategy::Rtm => {
                    assert_allclose(got.as_slice(), want.as_slice(), 1e-6, &format!("{strat}"))
                }
                _ => assert_eq!(got.as_slice(), want.as_slice(), "{strat} not bit-exact"),
            }
        }
    }

    /// The fused update of `strategies` against backward-then-reference,
    /// bitwise, on a 3-thread team (uneven ownership of an odd table).
    fn assert_fused_is_reference(
        (m, e): (usize, usize),
        indices: &[u32],
        offsets: &[usize],
        strategies: &[UpdateStrategy],
        rng: &mut rand::rngs::StdRng,
    ) {
        let pool = ThreadPool::new(3);
        let w0 = uniform(m, e, -1.0, 1.0, rng);
        let dy = uniform(offsets.len() - 1, e, -1.0, 1.0, rng);
        let mut dw = Matrix::zeros(indices.len(), e);
        backward(&pool, &dy, offsets, &mut dw);
        let mut want = w0.clone();
        update_reference(&mut want, &dw, indices, 0.3);
        for &strat in strategies {
            let mut got = w0.clone();
            backward_update(&pool, strat, &mut got, &dy, indices, offsets, 0.3);
            assert_eq!(got.as_slice(), want.as_slice(), "{strat}");
        }
    }

    #[test]
    fn scan_pieces_cover_bags_longer_than_one_piece() {
        // One bag of 2.5 pieces between two short ones, on a table small
        // enough that every row repeats: the piece boundary must neither
        // drop, repeat nor reorder a lookup.
        let mut rng = seeded_rng(17, 0);
        let m = 29;
        let long = 2 * SCAN_PIECE + SCAN_PIECE / 2;
        let indices: Vec<u32> = (0..long + 5).map(|_| rng.gen_range(0..m as u32)).collect();
        let offsets = vec![0, 2, 2 + long, long + 5];
        let strategies = [UpdateStrategy::Reference, UpdateStrategy::RaceFree];
        assert_fused_is_reference((m, 5), &indices, &offsets, &strategies, &mut rng);
    }

    #[test]
    fn scan_queue_covers_runs_of_bags_shorter_than_the_prefetch_distance() {
        // Many more single-lookup and empty bags than the piece queue holds,
        // around one long bag, with rows clustered so that most pieces hold
        // nothing for two of the three owners: the queue must fill, drain
        // and refill without dropping, repeating or reordering a lookup.
        let mut rng = seeded_rng(19, 0);
        let m = 31;
        let mut offsets = vec![0usize];
        let mut indices: Vec<u32> = vec![];
        for bag in 0..6 * PREFETCH_DISTANCE {
            let p = if bag == 3 * PREFETCH_DISTANCE {
                SCAN_PIECE + 3
            } else if bag % 7 == 0 {
                0
            } else {
                1 + bag % 2
            };
            indices.extend((0..p).map(|_| rng.gen_range(0..m as u32 / 4)));
            offsets.push(indices.len());
        }
        let strategies = [UpdateStrategy::RaceFree];
        assert_fused_is_reference((m, 5), &indices, &offsets, &strategies, &mut rng);
    }

    #[test]
    fn framework_naive_matches_reference() {
        let mut rng = seeded_rng(44, 0);
        let w0 = uniform(20, 8, -1.0, 1.0, &mut rng);
        let (indices, offsets) = random_bags(20, 30, 4, 45);
        let _ = offsets;
        let ns = indices.len();
        let dw = uniform(ns, 8, -1.0, 1.0, &mut rng);
        let pool = ThreadPool::new(1);

        let mut want = w0.clone();
        update(
            &pool,
            UpdateStrategy::Reference,
            &mut want,
            &dw,
            &indices,
            -0.07,
        );
        let mut got = w0.clone();
        update_framework_naive(&mut got, &dw, &indices, -0.07);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-6, "framework naive");
    }

    #[test]
    fn update_rows_not_referenced_are_untouched() {
        let pool = ThreadPool::new(2);
        let w0 = Matrix::from_fn(8, 2, |r, _| r as f32);
        let indices = vec![3u32];
        let dw = Matrix::from_slice(1, 2, &[1.0, 1.0]);
        for strat in UpdateStrategy::ALL {
            let mut w = w0.clone();
            update(&pool, strat, &mut w, &dw, &indices, 1.0);
            for r in 0..8 {
                if r != 3 {
                    assert_eq!(w.row(r), w0.row(r), "{strat} touched row {r}");
                }
            }
            assert_eq!(w.row(3), &[4.0, 4.0]);
        }
    }

    #[test]
    fn atomic_add_f32_is_correct_under_contention() {
        let cell = AtomicU32::new(0.0f32.to_bits());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        atomic_add_f32(&cell, 1.0);
                    }
                });
            }
        });
        assert_eq!(f32::from_bits(cell.load(Ordering::Relaxed)), 4000.0);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn forward_rejects_inconsistent_offsets() {
        let pool = ThreadPool::new(1);
        let w = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(1, 2);
        forward(&pool, &w, &[0, 1], &[0usize, 1], &mut out);
    }
}
