//! A persistent thread team with explicit thread ids, led by its caller.
//!
//! The paper's kernels use *static* work partitioning ("based on thread id
//! calculate `Kb_start`, `Kb_end`, ..." — Algorithm 5) and hand-built thread
//! teams (compute threads vs. dedicated SGD/communication threads,
//! Section IV-A). Work-stealing schedulers hide exactly the structure the
//! paper exploits, so this pool exposes the low-level broadcast model: a
//! closure is run once per team member with its `(thread_id, num_threads)`
//! pair and the caller returns when the whole team has finished.
//!
//! As in an OpenMP team, the dispatching thread *is* member 0: a team of `n`
//! is the caller plus `n − 1` spawned workers (`tid 1..n`). A team of one
//! spawns nothing and [`ThreadPool::broadcast`] is a direct call. For
//! `n ≥ 2` the caller publishes a borrowed pointer to the job, bumps an
//! epoch, runs its own share and then waits for an outstanding counter to
//! reach zero; workers wait for the epoch. Both sides wait by bounded spin,
//! then bounded `yield`, then park ([`SPINS`], [`YIELDS`]; DESIGN.md §16), so
//! a dispatch between busy members costs no system call and an idle team
//! costs no CPU. Panics in any member's share are captured and re-thrown on
//! the caller once the whole team has finished.

use parking_lot::Mutex;
use std::any::Any;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

/// `spin_loop` polls before a waiting member starts yielding: ≈ 1.6 µs at
/// the 12.5 ns a poll costs on the host of EXPERIMENTS.md. Two members that
/// are both running meet inside it (0.1–0.5 µs per empty dispatch); a
/// member that shares its core with the one it waits for wastes next to
/// nothing before it hands the core over.
const SPINS: u32 = 128;
/// `yield_now` polls before a waiting member parks: ≈ 0.3 ms at 0.3 µs
/// each when the member has its core to itself — the serial stretches
/// between the parallel regions of a train step (loss, interaction) fit,
/// so a worker is still awake at the next dispatch — and an immediate
/// hand-over when it does not. Waking a parked member costs 16–70 µs on
/// that host, more the longer its vCPU has idled; of 128 / 1024 / 4096 /
/// 8192 / 65536, 1024 was the best on `train_mlp` in five runs of five and
/// level with the larger ones on `train_emb` (DESIGN.md §16). Kept under a
/// scheduler slice so that an oversubscribed
/// member parks, and is then woken with preemption, instead of queueing
/// behind a co-runner's whole slice again and again.
const YIELDS: u32 = 1024;

/// The current job: a borrow of the dispatching caller's closure with its
/// lifetime erased (see the SAFETY argument in [`ThreadPool::broadcast`]).
type JobPtr = *const (dyn Fn(usize) + Sync);

/// Where one team member sleeps: seat 0 is the caller's, seat `t` worker
/// `t`'s. The waker makes the member's condition true and then calls
/// [`Seat::wake`]; the member calls [`Seat::wait_until`]. Every access to
/// `parked` and to the conditions is `SeqCst`, so of the member's
/// "set `parked`, re-check the condition" and the waker's "make the
/// condition true, read `parked`" at least one sees the other's write: a
/// wake-up cannot be lost, and `park`'s token covers an `unpark` that lands
/// before the `park`.
#[derive(Default)]
struct Seat {
    parked: AtomicBool,
    /// The thread to unpark, stored by the member itself before it sets
    /// `parked` (the caller's seat changes hands between dispatches).
    thread: Mutex<Option<Thread>>,
}

impl Seat {
    /// Returns once `ready()` holds: bounded spin, bounded yield, park.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..SPINS {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if ready() {
                return;
            }
            std::thread::yield_now();
        }
        *self.thread.lock() = Some(std::thread::current());
        loop {
            self.parked.store(true, Ordering::SeqCst);
            if ready() {
                break;
            }
            // May return spuriously or on a stale token; the loop re-checks.
            std::thread::park();
        }
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Unparks the member if it is parked or about to park.
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) {
            if let Some(thread) = self.thread.lock().as_ref() {
                thread.unpark();
            }
        }
    }
}

struct Shared {
    /// Dispatch count; a worker runs one job per increment.
    epoch: AtomicUsize,
    /// Written by the dispatching caller while no worker is running
    /// (`outstanding == 0`, `busy` held), read by workers after they see
    /// the epoch move.
    job: UnsafeCell<Option<JobPtr>>,
    /// Workers that have not finished the current job.
    outstanding: AtomicUsize,
    /// A dispatch is in flight: the always-on re-entrancy guard.
    busy: AtomicBool,
    shutdown: AtomicBool,
    /// First captured panic payload from a worker.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    seats: Box<[Seat]>,
    /// Workers that successfully pinned themselves to their assigned core.
    pinned: AtomicUsize,
}

// SAFETY: every field but `job` is `Send + Sync` by itself. `job` holds a raw
// pointer to a `Sync` closure; it is written only by the one caller holding
// `busy`, at a time when no worker reads it (`outstanding == 0`), and that
// write is published to the workers by the `SeqCst` epoch increment they
// wait for. The pointee is shared by reference only, which `Sync` permits.
unsafe impl Send for Shared {}
// SAFETY: as above.
unsafe impl Sync for Shared {}

/// Pins the calling thread to one CPU core. Best-effort: returns `false`
/// (and changes nothing) where unsupported or refused by the kernel —
/// callers treat placement as advisory, never as a correctness input.
///
/// Implemented as a raw `sched_setaffinity(0, ...)` syscall because the
/// workspace vendors all dependencies and `std` exposes no affinity API;
/// pid 0 means "the calling thread" for this syscall.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(core: usize) -> bool {
    const CPU_SET_WORDS: usize = 16; // 1024 CPUs
    if core >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[core / 64] = 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity (x86_64 syscall 203) reads `rdx..rdx+rsi`
    // bytes from our stack-owned mask and touches no other memory.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Fallback for platforms without an affinity syscall binding: a no-op.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

/// A fixed-size thread team: the calling thread plus `n − 1` persistent
/// workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    n: usize,
}

impl ThreadPool {
    /// A team of `n` (`n >= 1`): whichever thread calls
    /// [`Self::broadcast`] is member 0, and `n − 1` workers are spawned for
    /// `tid 1..n`. `new(1)` spawns no thread.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "thread pool needs at least one member");
        Self::spawn(n, None)
    }

    /// A team of `cores.len()` whose worker `t ≥ 1` is pinned
    /// (best-effort) to `cores[t]` — the affinity hook the sharded serving
    /// engine uses to keep a shard's team on the cores a
    /// `dlrm_topology::CorePlacement` assigned it. `cores[0]` is the seat
    /// the caller is expected to occupy; the pool never changes the
    /// affinity of a thread it did not spawn, so a caller that wants to sit
    /// there pins itself ([`pin_current_thread`]). Pin failures are
    /// tolerated (the worker just runs unpinned); [`Self::pinned_workers`]
    /// reports how many pins took effect.
    pub fn with_affinity(cores: &[usize]) -> Self {
        assert!(!cores.is_empty(), "thread pool needs at least one member");
        Self::spawn(cores.len(), Some(cores.to_vec()))
    }

    fn spawn(n: usize, cores: Option<Vec<usize>>) -> Self {
        let pinning = cores.is_some();
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
            outstanding: AtomicUsize::new(0),
            busy: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            seats: (0..n).map(|_| Seat::default()).collect(),
            pinned: AtomicUsize::new(0),
        });
        let handles = (1..n)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                let core = cores.as_ref().map(|c| c[tid]);
                std::thread::Builder::new()
                    .name(format!("dlrm-worker-{tid}"))
                    .spawn(move || {
                        if let Some(core) = core {
                            if pin_current_thread(core) {
                                shared.pinned.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        worker_loop(tid, &shared)
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        let pool = ThreadPool { shared, handles, n };
        if pinning {
            // Workers pin before entering their loop, so one empty
            // broadcast makes [`Self::pinned_workers`] final on return.
            pool.broadcast(|_| {});
        }
        pool
    }

    /// The worker count [`Self::with_default_parallelism`] would use: the
    /// `DLRM_THREADS` environment override when set to a positive integer,
    /// else the OS-reported parallelism. When the OS probe fails *and* no
    /// override is set, the fallback to 1 is reported on stderr instead of
    /// silently degrading the whole compute path to a single worker.
    pub fn default_parallelism() -> usize {
        if let Ok(v) = std::env::var("DLRM_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => eprintln!(
                    "dlrm-kernels: ignoring invalid DLRM_THREADS={v:?} (want a positive integer)"
                ),
            }
        }
        match std::thread::available_parallelism() {
            Ok(p) => p.get(),
            Err(e) => {
                eprintln!(
                    "dlrm-kernels: available_parallelism() failed ({e}); \
                     falling back to 1 worker — set DLRM_THREADS to override"
                );
                1
            }
        }
    }

    /// Pool sized by [`Self::default_parallelism`] (honours `DLRM_THREADS`).
    pub fn with_default_parallelism() -> Self {
        Self::new(Self::default_parallelism())
    }

    /// Team size: the caller plus the spawned workers.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Spawned workers that successfully pinned to their
    /// [`Self::with_affinity`] core (0 for unpinned pools, for a team of
    /// one, and on platforms without affinity support). The caller's seat
    /// is never counted: the pool does not pin it.
    pub fn pinned_workers(&self) -> usize {
        self.shared.pinned.load(Ordering::Relaxed)
    }

    /// Runs `f(thread_id)` once per team member — `f(0)` on the calling
    /// thread — and returns when the whole team has finished.
    ///
    /// The closure may borrow from the caller's stack: the call does not
    /// return until every worker has finished (or panicked), so the borrow
    /// outlives all uses. A dispatch allocates nothing.
    ///
    /// # Panics
    /// Re-throws a panic from any member's share after the team has
    /// finished. For `n ≥ 2`, panics if another `broadcast` on this pool is
    /// in flight (nested inside a job, or concurrent from a second thread
    /// sharing the pool); the dispatch in flight is not disturbed.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if self.n == 1 {
            return f(0);
        }
        let shared = &*self.shared;
        assert!(
            !shared.busy.swap(true, Ordering::SeqCst),
            "ThreadPool::broadcast is not reentrant: another dispatch on this pool is in \
             flight (nested in a job, or from a second thread sharing the pool)"
        );
        let job: *const (dyn Fn(usize) + Sync + '_) = &f;
        // SAFETY (lifetime erasure): workers dereference the pointer only
        // between seeing this dispatch's epoch and decrementing
        // `outstanding`, and this function does not return or unwind before
        // `outstanding == 0`: the caller's own share runs under
        // `catch_unwind` and nothing else between here and the wait can
        // panic. `busy` keeps a second dispatcher from overwriting the slot
        // or the counter meanwhile. So `f` outlives every use.
        let job: JobPtr = unsafe { std::mem::transmute(job) };
        // SAFETY: no worker is between an epoch and its decrement (the
        // previous dispatch waited for `outstanding == 0` and we hold
        // `busy`), so nobody reads the slot while it is written.
        unsafe { *shared.job.get() = Some(job) };
        shared.outstanding.store(self.n - 1, Ordering::SeqCst);
        shared.epoch.fetch_add(1, Ordering::SeqCst);
        for seat in &shared.seats[1..] {
            seat.wake();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| f(0)));
        shared.seats[0].wait_until(|| shared.outstanding.load(Ordering::SeqCst) == 0);
        // SAFETY: as above — the whole team has finished.
        unsafe { *shared.job.get() = None };
        let theirs = shared.panic.lock().take();
        shared.busy.store(false, Ordering::SeqCst);
        if let Some(payload) = mine.err().or(theirs) {
            resume_unwind(payload);
        }
    }

    /// Statically partitions `0..n_items` across the team and runs
    /// `f(thread_id, range)` per member. Ranges follow the paper's
    /// `(n·tid/T, n·(tid+1)/T)` split.
    pub fn parallel_for<F>(&self, n_items: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Send + Sync,
    {
        let t = self.n;
        self.broadcast(move |tid| {
            let range = (n_items * tid / t)..(n_items * (tid + 1) / t);
            if !range.is_empty() {
                f(tid, range);
            }
        });
    }

    /// Dynamically partitions `0..n_items` into unit tasks claimed from a
    /// shared counter — used where the paper notes static partitioning load
    /// imbalance (clustered embedding indices).
    pub fn parallel_for_dynamic<F>(&self, n_items: usize, chunk: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Send + Sync,
    {
        assert!(chunk > 0);
        let next = AtomicUsize::new(0);
        self.broadcast(move |tid| loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n_items {
                break;
            }
            f(tid, start..(start + chunk).min(n_items));
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
        for seat in &self.shared.seats[1..] {
            seat.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(tid: usize, shared: &Shared) {
    let mut seen = 0;
    loop {
        shared.seats[tid].wait_until(|| shared.epoch.load(Ordering::SeqCst) != seen);
        seen += 1;
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // SAFETY: the epoch moved and the pool is not shutting down, so a
        // caller wrote the slot before its increment and will not touch it
        // again until this worker has decremented `outstanding`.
        let job = unsafe { (*shared.job.get()).expect("epoch advanced without a job") };
        // SAFETY: the pointee outlives this call (see `broadcast`).
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(tid) }));
        if let Err(payload) = result {
            shared.panic.lock().get_or_insert(payload);
        }
        // The job must not be touched past this decrement.
        if shared.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            shared.seats[0].wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn broadcast_runs_once_per_thread() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        pool.broadcast(|tid| {
            hits.fetch_add(1, Ordering::SeqCst);
            mask.fetch_or(1 << tid, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn broadcast_can_borrow_stack_data() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3, 4, 5, 6];
        let sum = AtomicU64::new(0);
        pool.broadcast(|tid| {
            let part: u64 = data.iter().skip(tid).step_by(3).sum();
            sum.fetch_add(part, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 21);
    }

    #[test]
    fn sequential_broadcasts_reuse_workers() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn parallel_for_covers_every_item_once() {
        let pool = ThreadPool::new(5);
        let n = 1237;
        let marks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, |_tid, range| {
            for i in range {
                marks[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_dynamic_covers_every_item_once() {
        let pool = ThreadPool::new(4);
        let n = 999;
        let marks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_dynamic(n, 7, |_tid, range| {
            for i in range {
                marks[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_with_more_threads_than_items() {
        let pool = ThreadPool::new(8);
        let hits = AtomicUsize::new(0);
        pool.parallel_for(3, |_tid, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn default_parallelism_honors_env_override() {
        // This is the only test touching DLRM_THREADS, so the process-wide
        // env mutation cannot race another test.
        std::env::set_var("DLRM_THREADS", "3");
        assert_eq!(ThreadPool::default_parallelism(), 3);
        let pool = ThreadPool::with_default_parallelism();
        assert_eq!(pool.num_threads(), 3);
        // Invalid overrides are ignored, not honored as 0/garbage.
        std::env::set_var("DLRM_THREADS", "0");
        let n0 = ThreadPool::default_parallelism();
        std::env::set_var("DLRM_THREADS", "lots");
        let n1 = ThreadPool::default_parallelism();
        std::env::remove_var("DLRM_THREADS");
        let os = ThreadPool::default_parallelism();
        assert!(os >= 1);
        assert_eq!(n0, os, "DLRM_THREADS=0 must fall back to the OS count");
        assert_eq!(n1, os, "non-numeric DLRM_THREADS must fall back");
    }

    /// The OS thread every tid of one dispatch ran on.
    fn thread_of_each_tid(pool: &ThreadPool) -> Vec<ThreadId> {
        let ids = Mutex::new(vec![None; pool.num_threads()]);
        pool.broadcast(|tid| ids.lock()[tid] = Some(std::thread::current().id()));
        let ids = ids.into_inner();
        ids.into_iter().map(|id| id.expect("tid ran")).collect()
    }

    #[test]
    fn tid0_is_the_caller_and_every_other_tid_has_its_own_thread() {
        let me = std::thread::current().id();
        for n in [2, 3, 8] {
            let pool = ThreadPool::new(n);
            assert_eq!(pool.handles.len(), n - 1);
            let first = thread_of_each_tid(&pool);
            assert_eq!(first[0], me, "tid 0 must run on the calling thread");
            for a in 0..n {
                for b in a + 1..n {
                    assert_ne!(first[a], first[b], "tids {a} and {b} share a thread");
                }
            }
            assert_eq!(thread_of_each_tid(&pool), first, "a tid changed threads");
        }
    }

    #[test]
    fn team_of_one_spawns_no_thread_and_borrows_the_stack() {
        let me = std::thread::current().id();
        for pool in [ThreadPool::new(1), ThreadPool::with_affinity(&[0])] {
            assert!(pool.handles.is_empty(), "a team of one spawned a thread");
            assert_eq!(pool.pinned_workers(), 0);
            assert_eq!(thread_of_each_tid(&pool), [me]);
            let mut out = 0u64;
            let cell = Mutex::new(&mut out);
            pool.broadcast(|_| **cell.lock() += 42);
            // Nothing to corrupt without a team: nesting is a plain call.
            pool.broadcast(|_| pool.broadcast(|_| **cell.lock() += 1));
            assert_eq!(out, 43);
        }
    }

    #[test]
    fn a_panic_in_any_share_is_rethrown_after_the_team_finishes() {
        let pool = ThreadPool::new(3);
        for culprit in 0..3 {
            let finished = AtomicUsize::new(0);
            let res = catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(|tid| {
                    if tid == culprit {
                        panic!("member {tid} exploded");
                    }
                    // Still running when the culprit has long unwound.
                    std::thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }));
            let payload = res.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("member {culprit} exploded").as_str())
            );
            assert_eq!(
                finished.load(Ordering::SeqCst),
                2,
                "broadcast returned before the rest of the team finished"
            );
            // Pool remains usable afterwards.
            let ok = AtomicUsize::new(0);
            pool.broadcast(|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ok.load(Ordering::SeqCst), 3);
        }
    }

    fn reentrancy_message(payload: Box<dyn Any + Send>) -> bool {
        payload
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("not reentrant"))
    }

    // Not `debug_assert!`: this test runs in release builds too (CI runs the
    // module both ways), where the guard stands in front of a `transmute`.
    #[test]
    fn nested_broadcast_panics_and_leaves_the_pool_usable() {
        let pool = ThreadPool::new(2);
        for culprit in 0..2 {
            let res = catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(|tid| {
                    if tid == culprit {
                        pool.broadcast(|_| {});
                    }
                });
            }));
            assert!(reentrancy_message(
                res.expect_err("nested dispatch must panic")
            ));
            assert_eq!(thread_of_each_tid(&pool).len(), 2);
        }
    }

    #[test]
    fn concurrent_broadcast_panics_and_does_not_disturb_the_one_in_flight() {
        let pool = ThreadPool::new(2);
        let (intruded_tx, intruded_rx) = mpsc::channel();
        let intruded_rx = Mutex::new(intruded_rx);
        let (started_tx, started_rx) = mpsc::channel();
        let started_tx = Mutex::new(started_tx);
        let hits = AtomicUsize::new(0);
        let pool_ref = &pool;
        std::thread::scope(|s| {
            s.spawn(move || {
                // The first dispatch is in flight: its member 0 is blocked
                // on `intruded_rx`.
                started_rx.recv().unwrap();
                let res = catch_unwind(AssertUnwindSafe(|| pool_ref.broadcast(|_| {})));
                intruded_tx.send(res.err()).unwrap();
            });
            pool.broadcast(|tid| {
                if tid == 0 {
                    started_tx.lock().send(()).unwrap();
                    let payload = intruded_rx.lock().recv().unwrap();
                    assert!(reentrancy_message(
                        payload.expect("second dispatcher must panic")
                    ));
                }
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(thread_of_each_tid(&pool).len(), 2);
    }

    /// Runs `body` on its own thread and fails, instead of hanging the test
    /// binary, if it has not returned after `limit`.
    fn under_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Ok(()) => runner.join().unwrap(),
            // The runner panicked: surface its message.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("no progress in {limit:?}: a wake-up was lost between spin and park")
            }
        }
    }

    /// Back-to-back dispatches, every one checked: empty ones (the two
    /// sides meet while spinning), lopsided ones (one member's share is
    /// much longer, a different member each time), and — every 4096th —
    /// a gap before the dispatch and a straggler inside it, each long
    /// enough that the members waiting on them run out of spins and yields
    /// and park.
    #[test]
    fn back_to_back_dispatches_lose_no_wakeup() {
        for (n, dispatches) in [(2usize, 200_000usize), (3, 200_000), (8, 200_000)] {
            under_watchdog(Duration::from_secs(300), move || {
                let pool = ThreadPool::new(n);
                let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let nap = Duration::from_millis(2);
                for d in 0..dispatches {
                    let park_round = d % 4096 == 4095;
                    if park_round {
                        std::thread::sleep(nap);
                    }
                    let straggler = d % n;
                    pool.broadcast(|tid| {
                        if tid == straggler && park_round {
                            std::thread::sleep(nap);
                        } else if tid == straggler && d % 2 == 1 {
                            for _ in 0..200 {
                                std::hint::spin_loop();
                            }
                        }
                        ran[tid].fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(
                        ran.iter().all(|r| r.load(Ordering::SeqCst) == d + 1),
                        "dispatch {d} on {n} members returned early or ran a share twice"
                    );
                }
            });
        }
    }

    /// `Cpus_allowed` of the calling thread, as the kernel prints it.
    #[cfg(target_os = "linux")]
    fn my_affinity_mask() -> String {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("Cpus_allowed:"));
        line.expect("Cpus_allowed line").to_owned()
    }

    #[test]
    fn affinity_pool_pins_its_workers_and_never_its_caller() {
        #[cfg(target_os = "linux")]
        let before = my_affinity_mask();
        // Core 0 always exists; higher ids may not on small hosts — the
        // pool must run correctly either way (pinning is best-effort).
        // `cores[0]` is the caller's seat: two workers are spawned, for
        // core 0 and for a core that does not exist.
        let pool = ThreadPool::with_affinity(&[0, 0, 9999]);
        assert_eq!(pool.num_threads(), 3);
        assert_eq!(pool.handles.len(), 2);
        let hits = AtomicUsize::new(0);
        pool.broadcast(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert_eq!(
                pool.pinned_workers(),
                1,
                "pinning to core 0 must succeed on linux, to core 9999 must not"
            );
        }
        #[cfg(target_os = "linux")]
        assert_eq!(
            my_affinity_mask(),
            before,
            "the pool changed the affinity of a thread it did not spawn"
        );
        // Unpinned pools report zero pins.
        assert_eq!(ThreadPool::new(2).pinned_workers(), 0);
    }
}
