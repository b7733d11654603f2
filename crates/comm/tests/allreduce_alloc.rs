//! The ring allreduce runs in the caller's buffer: once the thread-local
//! payload pools are warm, a 1 MiB FP32 `allreduce_sum` allocates O(1)
//! bytes per call on every rank. The allocating ring it replaced — a
//! working copy, a reduced chunk and a gathered output per call — cost
//! about three times the buffer.
//!
//! A counting global allocator charges only the threads that opted in, so
//! the test harness and other tests allocate freely beside it.

use dlrm_comm::collectives::allreduce_sum;
use dlrm_comm::world::CommWorld;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn charge(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ELEMS: usize = 1 << 18; // 1 MiB of f32
const WARM_CALLS: usize = 3;
const CALLS: usize = 10;
/// Per call and rank: a transport queue growing by a slot is allowed, a
/// buffer-sized allocation is not.
const BOUND_BYTES: usize = 4096;

#[test]
fn steady_state_fp32_allreduce_allocates_o1_bytes_per_call() {
    for r in [2usize, 4] {
        ALLOCATED.store(0, Ordering::SeqCst);
        CommWorld::run(r, |c| {
            let mut data = vec![0.5f32; ELEMS];
            for _ in 0..WARM_CALLS {
                allreduce_sum(&c, &mut data);
            }
            c.barrier();
            COUNTING.with(|f| f.set(true));
            for _ in 0..CALLS {
                allreduce_sum(&c, &mut data);
            }
            COUNTING.with(|f| f.set(false));
            c.barrier();
            assert!(data.iter().all(|x| x.is_finite()));
        });
        let per_call = ALLOCATED.load(Ordering::SeqCst) / (CALLS * r);
        assert!(
            per_call <= BOUND_BYTES,
            "R={r}: {per_call} bytes allocated per call and rank for a {} byte buffer",
            ELEMS * 4
        );
    }
}
