//! Buffers of at least `HUGE_PAGE_MIN_BYTES` are born on 2 MiB pages:
//! 2 MiB-aligned, advised before the first touch, then written once by
//! `AlignedVec` itself (zeros, or `from_fn`'s values) — and still one
//! `alloc` and one `dealloc` of one layout through the global allocator, so
//! the workspace's allocation pins keep seeing every byte.
//!
//! The global allocator of this binary counts the large requests and can be
//! told to hand a freed large block straight back, dirty, to the next
//! request of the same layout — what a recycling allocator (jemalloc, or
//! glibc below its mmap threshold) is allowed to do, and what `zeroed` and
//! `from_fn` must survive.

use dlrm_tensor::aligned::{AlignedVec, HUGE_PAGE, HUGE_PAGE_MIN_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering::SeqCst};

struct CountingAlloc;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_DEALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// `(size, align)` of the latest large `alloc` / `dealloc`.
static LAST_ALLOC: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
static LAST_DEALLOC: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// While set, a freed large block is parked instead of returned to the
/// system, and the next large `alloc` of the same size takes it as it is.
static RECYCLE: AtomicBool = AtomicBool::new(false);
static PARKED: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut());
static PARKED_SIZE: AtomicUsize = AtomicUsize::new(0);

fn is_large(layout: Layout) -> bool {
    layout.size() >= HUGE_PAGE_MIN_BYTES
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if is_large(layout) {
            LARGE_ALLOCS.fetch_add(1, SeqCst);
            LARGE_LIVE_BYTES.fetch_add(layout.size() as isize, SeqCst);
            LAST_ALLOC[0].store(layout.size(), SeqCst);
            LAST_ALLOC[1].store(layout.align(), SeqCst);
            if PARKED_SIZE.load(SeqCst) == layout.size() {
                let parked = PARKED.swap(std::ptr::null_mut(), SeqCst);
                if !parked.is_null() {
                    PARKED_SIZE.store(0, SeqCst);
                    return parked;
                }
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if is_large(layout) {
            LARGE_DEALLOCS.fetch_add(1, SeqCst);
            LARGE_LIVE_BYTES.fetch_sub(layout.size() as isize, SeqCst);
            LAST_DEALLOC[0].store(layout.size(), SeqCst);
            LAST_DEALLOC[1].store(layout.align(), SeqCst);
            if RECYCLE.load(SeqCst) && PARKED.load(SeqCst).is_null() {
                PARKED_SIZE.store(layout.size(), SeqCst);
                PARKED.store(ptr, SeqCst);
                return;
            }
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters and `/proc/self/smaps_rollup` are process-wide, so the
/// tests of this binary take turns.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counters it guards are still fine.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The smallest element count that takes the huge-page path.
const LARGE: usize = HUGE_PAGE_MIN_BYTES / std::mem::size_of::<f32>();

fn is_huge_aligned(v: &AlignedVec) -> bool {
    (v.as_ptr() as usize).is_multiple_of(HUGE_PAGE)
}

fn all_zero_bits(v: &[f32]) -> bool {
    v.iter().all(|x| x.to_bits() == 0)
}

#[test]
fn large_buffer_is_huge_page_aligned_and_zero_even_on_recycled_memory() {
    let _turn = my_turn();
    // One float below the threshold keeps the cache-line path.
    let small = AlignedVec::zeroed(LARGE - 1);
    assert!(all_zero_bits(&small));
    drop(small);

    RECYCLE.store(true, SeqCst);
    let mut first = AlignedVec::zeroed(LARGE);
    assert!(is_huge_aligned(&first));
    assert!(all_zero_bits(&first));
    let addr = first.as_ptr();
    first.fill(f32::from_bits(0x7fc0_dead));
    drop(first);

    let second = AlignedVec::zeroed(LARGE);
    RECYCLE.store(false, SeqCst);
    assert_eq!(
        second.as_ptr(),
        addr,
        "the allocator handed the dirty block back"
    );
    assert!(is_huge_aligned(&second));
    assert!(all_zero_bits(&second), "recycled memory must be zeroed");
}

#[test]
fn clone_from_fn_and_scratch_growth_behave_across_the_threshold_as_below_it() {
    let _turn = my_turn();
    let f = |i: usize| (i % 8191) as f32 - 4000.0;
    let v = AlignedVec::from_fn(LARGE + 3, f);
    assert!(is_huge_aligned(&v));
    assert_eq!(v.len(), LARGE + 3);
    assert!(v.iter().enumerate().all(|(i, &x)| x == f(i)));

    let mut c = v.clone();
    assert!(is_huge_aligned(&c));
    assert_ne!(c.as_ptr(), v.as_ptr());
    assert!(c[..] == v[..]);
    c[LARGE] = -1.5;
    assert_eq!(v[LARGE], f(LARGE), "clone is deep");
    drop((v, c));

    // Growth from below the threshold to above it: fresh, zeroed, aligned,
    // nothing carried over; then shrink and regrow inside the capacity.
    let mut s = AlignedVec::from_fn(LARGE - 16, |_| 7.0);
    assert!((s.as_ptr() as usize).is_multiple_of(dlrm_tensor::aligned::CACHE_LINE));
    s.resize_scratch(LARGE + 16);
    assert_eq!((s.len(), s.capacity()), (LARGE + 16, LARGE + 16));
    assert!(is_huge_aligned(&s));
    assert!(all_zero_bits(&s), "fresh allocation is zeroed");
    let p = s.as_ptr();
    s.resize_scratch(10);
    s.resize_scratch(LARGE + 16);
    assert_eq!(s.as_ptr(), p, "regrow within capacity must not reallocate");
    assert_eq!(s.capacity(), LARGE + 16);
}

#[test]
fn one_large_buffer_is_one_alloc_and_one_dealloc_of_one_layout() {
    let _turn = my_turn();
    let (allocs, deallocs) = (LARGE_ALLOCS.load(SeqCst), LARGE_DEALLOCS.load(SeqCst));
    let live = LARGE_LIVE_BYTES.load(SeqCst);

    let v = AlignedVec::zeroed(LARGE + 5);
    let bytes = (LARGE + 5) * std::mem::size_of::<f32>();
    assert_eq!(LARGE_ALLOCS.load(SeqCst), allocs + 1);
    assert_eq!(LARGE_DEALLOCS.load(SeqCst), deallocs);
    assert_eq!(LARGE_LIVE_BYTES.load(SeqCst), live + bytes as isize);
    assert_eq!(LAST_ALLOC[0].load(SeqCst), bytes);
    assert_eq!(LAST_ALLOC[1].load(SeqCst), HUGE_PAGE);

    drop(v);
    assert_eq!(LARGE_ALLOCS.load(SeqCst), allocs + 1);
    assert_eq!(LARGE_DEALLOCS.load(SeqCst), deallocs + 1);
    assert_eq!(
        [LAST_DEALLOC[0].load(SeqCst), LAST_DEALLOC[1].load(SeqCst)],
        [LAST_ALLOC[0].load(SeqCst), LAST_ALLOC[1].load(SeqCst)],
        "dealloc must name the layout alloc was given"
    );
    assert_eq!(LARGE_LIVE_BYTES.load(SeqCst), live);
}

/// `AnonHugePages` of this process in kB.
#[cfg(target_os = "linux")]
fn anon_huge_kb() -> u64 {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").expect("smaps_rollup");
    let line = rollup
        .lines()
        .find(|l| l.starts_with("AnonHugePages:"))
        .expect("AnonHugePages line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// The bracketed word of `/sys/kernel/mm/transparent_hugepage/enabled`.
#[cfg(target_os = "linux")]
fn thp_mode() -> String {
    let modes = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    let modes = modes.unwrap_or_else(|_| "[unavailable]".into());
    let open = modes.find('[').map_or(0, |i| i + 1);
    let close = modes.find(']').unwrap_or(modes.len());
    modes[open..close].trim().to_string()
}

#[test]
#[cfg(target_os = "linux")]
fn a_large_buffer_lands_on_transparent_huge_pages() {
    let _turn = my_turn();
    let mode = thp_mode();
    if mode != "madvise" && mode != "always" {
        println!("skipped: thp mode={mode}");
        return;
    }
    const BYTES: usize = 64 << 20;
    let before = anon_huge_kb();
    let mut v = AlignedVec::zeroed(BYTES / 4);
    v.fill(1.0);
    let gained = anon_huge_kb().saturating_sub(before);
    println!(
        "thp mode={mode}: AnonHugePages +{gained} kB for a {} kB buffer",
        BYTES >> 10
    );
    assert!(
        gained * 10 >= (BYTES as u64 >> 10) * 9,
        "only {gained} kB of a {} kB buffer is on huge pages (mode={mode}): \
         was it touched before it was advised?",
        BYTES >> 10
    );
}

#[test]
fn from_fn_writes_every_element_of_a_recycled_dirty_block() {
    let _turn = my_turn();
    let f = |i: usize| (i % 4099) as f32 * 0.25 - 512.0;
    RECYCLE.store(true, SeqCst);
    let mut first = AlignedVec::zeroed(LARGE);
    let addr = first.as_ptr();
    first.fill(f32::from_bits(0x7fc0_dead));
    drop(first);

    let second = AlignedVec::from_fn(LARGE, f);
    RECYCLE.store(false, SeqCst);
    assert_eq!(
        second.as_ptr(),
        addr,
        "the allocator handed the dirty block back"
    );
    assert!(is_huge_aligned(&second));
    assert!(
        second
            .iter()
            .enumerate()
            .all(|(i, x)| x.to_bits() == f(i).to_bits()),
        "every element must be f(i), none left from the dirty block"
    );
}

#[test]
fn a_panic_halfway_through_from_fn_frees_the_buffer_once() {
    let _turn = my_turn();
    let (allocs, deallocs) = (LARGE_ALLOCS.load(SeqCst), LARGE_DEALLOCS.load(SeqCst));
    let live = LARGE_LIVE_BYTES.load(SeqCst);

    let half = LARGE / 2;
    let err = std::panic::catch_unwind(|| {
        AlignedVec::from_fn(LARGE, |i| {
            if i == half {
                panic!("halfway, at element {i}");
            }
            1.0
        })
    })
    .expect_err("f panics at the halfway element");
    let msg = err.downcast_ref::<String>().expect("panic message");
    assert!(msg.contains("halfway"), "{msg}");

    assert_eq!(LARGE_ALLOCS.load(SeqCst), allocs + 1);
    assert_eq!(
        LARGE_DEALLOCS.load(SeqCst),
        deallocs + 1,
        "exactly one dealloc"
    );
    assert_eq!(
        [LAST_DEALLOC[0].load(SeqCst), LAST_DEALLOC[1].load(SeqCst)],
        [LAST_ALLOC[0].load(SeqCst), LAST_ALLOC[1].load(SeqCst)],
        "dealloc must name the layout alloc was given"
    );
    assert_eq!(LARGE_LIVE_BYTES.load(SeqCst), live);
}

#[test]
#[cfg(target_os = "linux")]
fn a_from_fn_buffer_lands_on_transparent_huge_pages() {
    let _turn = my_turn();
    let mode = thp_mode();
    if mode != "madvise" && mode != "always" {
        println!("skipped: thp mode={mode}");
        return;
    }
    const BYTES: usize = 64 << 20;
    let before = anon_huge_kb();
    // `from_fn`'s own write is the first touch: nothing zeroed it before.
    let v = AlignedVec::from_fn(BYTES / 4, |i| i as f32);
    let gained = anon_huge_kb().saturating_sub(before);
    println!(
        "thp mode={mode}: AnonHugePages +{gained} kB for a {} kB from_fn buffer",
        BYTES >> 10
    );
    assert_eq!(v[BYTES / 4 - 1], (BYTES / 4 - 1) as f32);
    assert!(
        gained * 10 >= (BYTES as u64 >> 10) * 9,
        "only {gained} kB of a {} kB buffer is on huge pages (mode={mode}): \
         was it touched before it was advised?",
        BYTES >> 10
    );
}
