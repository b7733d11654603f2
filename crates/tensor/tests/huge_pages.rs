//! Buffers of at least one `HUGE_PAGE` are mappings of their own: 2 MiB-
//! aligned, advised before the first touch, zero-filled by the kernel or
//! written once by `AlignedVec::from_fn`, one mapping of the size rounded
//! up to 4 KB per buffer and one unmap on drop — counted by
//! `aligned::mappings`, so the workspace's allocation pins keep seeing
//! every byte. A buffer one float below the line is still one `alloc` and
//! one `dealloc` of one layout through the global allocator.
//!
//! The global allocator of this binary counts the requests of 1 MiB and
//! more and can be told to hand a freed one straight back, dirty, to the
//! next request of the same size — what a recycling allocator (jemalloc,
//! or glibc below its mmap threshold) is allowed to do, and what `zeroed`
//! and `from_fn` must survive below the line.

use dlrm_tensor::aligned::{mappings, AlignedVec, CACHE_LINE, HUGE_PAGE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering::SeqCst};

struct CountingAlloc;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BIG_DEALLOCS: AtomicUsize = AtomicUsize::new(0);
static BIG_LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// `(size, align)` of the latest big `alloc` / `dealloc`.
static LAST_ALLOC: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
static LAST_DEALLOC: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// While set, a freed big block is parked instead of returned to the
/// system, and the next big `alloc` of the same size takes it as it is.
static RECYCLE: AtomicBool = AtomicBool::new(false);
static PARKED: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut());
static PARKED_SIZE: AtomicUsize = AtomicUsize::new(0);

fn is_big(layout: Layout) -> bool {
    layout.size() >= HUGE_PAGE / 2
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if is_big(layout) {
            BIG_ALLOCS.fetch_add(1, SeqCst);
            BIG_LIVE_BYTES.fetch_add(layout.size() as isize, SeqCst);
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
        if is_big(layout) {
            BIG_DEALLOCS.fetch_add(1, SeqCst);
            BIG_LIVE_BYTES.fetch_sub(layout.size() as isize, SeqCst);
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

/// The smallest element count that is a mapping of its own.
const LARGE: usize = HUGE_PAGE / std::mem::size_of::<f32>();
/// One float below the line: the global allocator's largest buffer.
const BELOW: usize = LARGE - 1;

fn is_huge_aligned(v: &AlignedVec) -> bool {
    (v.as_ptr() as usize).is_multiple_of(HUGE_PAGE)
}

fn all_zero_bits(v: &[f32]) -> bool {
    v.iter().all(|x| x.to_bits() == 0)
}

/// The allocator's big-request counters: (allocs, deallocs, live bytes).
fn big_counts() -> (usize, usize, isize) {
    (
        BIG_ALLOCS.load(SeqCst),
        BIG_DEALLOCS.load(SeqCst),
        BIG_LIVE_BYTES.load(SeqCst),
    )
}

#[test]
fn a_buffer_below_the_line_is_zero_even_on_recycled_memory() {
    let _turn = my_turn();
    RECYCLE.store(true, SeqCst);
    let mut first = AlignedVec::zeroed(BELOW);
    assert!(all_zero_bits(&first));
    let addr = first.as_ptr();
    first.fill(f32::from_bits(0x7fc0_dead));
    drop(first);

    let second = AlignedVec::zeroed(BELOW);
    RECYCLE.store(false, SeqCst);
    assert_eq!(
        second.as_ptr(),
        addr,
        "the allocator handed the dirty block back"
    );
    assert!((second.as_ptr() as usize).is_multiple_of(CACHE_LINE));
    assert!(all_zero_bits(&second), "recycled memory must be zeroed");
}

#[test]
fn a_large_buffer_is_a_fresh_zero_mapping_whatever_was_freed_before() {
    let _turn = my_turn();
    let big = big_counts();
    for _ in 0..3 {
        let mut v = AlignedVec::zeroed(LARGE);
        assert!(is_huge_aligned(&v));
        assert!(all_zero_bits(&v), "a fresh mapping is zero-filled");
        v.fill(f32::from_bits(0x7fc0_dead));
    }
    assert_eq!(big_counts(), big, "the global allocator saw no request");
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
    assert!((s.as_ptr() as usize).is_multiple_of(CACHE_LINE));
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

/// Not rounded up to a whole huge page: the tail past the last one stays
/// on 4 KB pages and costs no resident memory.
#[test]
fn one_large_buffer_is_one_mapping_and_one_unmap_of_its_size_rounded_to_4_kb() {
    let _turn = my_turn();
    let (big, start) = (big_counts(), mappings());

    let v = AlignedVec::zeroed(LARGE + 5);
    let mapped = HUGE_PAGE + 4096;
    let now = mappings();
    assert_eq!(
        (now.mapped, now.unmapped),
        (start.mapped + 1, start.unmapped)
    );
    assert_eq!(now.live_bytes, start.live_bytes + mapped);

    drop(v);
    let now = mappings();
    assert_eq!(
        (now.mapped, now.unmapped),
        (start.mapped + 1, start.unmapped + 1)
    );
    assert_eq!(now.live_bytes, start.live_bytes);
    assert_eq!(big_counts(), big, "the global allocator saw no request");
}

#[test]
fn a_buffer_one_float_below_the_line_is_one_alloc_and_one_dealloc_of_one_layout() {
    let _turn = my_turn();
    let ((allocs, deallocs, live), start) = (big_counts(), mappings());

    let v = AlignedVec::zeroed(BELOW);
    let bytes = BELOW * std::mem::size_of::<f32>();
    assert_eq!(big_counts(), (allocs + 1, deallocs, live + bytes as isize));
    assert_eq!(LAST_ALLOC[0].load(SeqCst), bytes);
    assert_eq!(LAST_ALLOC[1].load(SeqCst), CACHE_LINE);

    drop(v);
    assert_eq!(big_counts(), (allocs + 1, deallocs + 1, live));
    assert_eq!(
        [LAST_DEALLOC[0].load(SeqCst), LAST_DEALLOC[1].load(SeqCst)],
        [LAST_ALLOC[0].load(SeqCst), LAST_ALLOC[1].load(SeqCst)],
        "dealloc must name the layout alloc was given"
    );
    assert_eq!(mappings(), start, "nothing was mapped");
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
    let mut first = AlignedVec::zeroed(BELOW);
    let addr = first.as_ptr();
    first.fill(f32::from_bits(0x7fc0_dead));
    drop(first);

    let second = AlignedVec::from_fn(BELOW, f);
    RECYCLE.store(false, SeqCst);
    assert_eq!(
        second.as_ptr(),
        addr,
        "the allocator handed the dirty block back"
    );
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
    let (big, start) = (big_counts(), mappings());

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

    let now = mappings();
    assert_eq!(now.mapped, start.mapped + 1, "one mapping");
    assert_eq!(now.unmapped, start.unmapped + 1, "exactly one unmap");
    assert_eq!(now.live_bytes, start.live_bytes);
    assert_eq!(big_counts(), big, "the global allocator saw no request");
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

#[test]
#[cfg(target_os = "linux")]
fn an_embedding_table_lands_on_transparent_huge_pages() {
    let _turn = my_turn();
    let mode = thp_mode();
    if mode != "madvise" && mode != "always" {
        println!("skipped: thp mode={mode}");
        return;
    }
    const BYTES: usize = 64 << 20;
    let before = anon_huge_kb();
    // On an AVX-512 host the table is written by eight SIMD lanes at once,
    // each starting in its own eighth: every lane's first write to a page
    // is still that page's first touch.
    let rows = BYTES / 4 / 64;
    let t = dlrm_tensor::init::embedding_table(rows, 64, &mut dlrm_tensor::init::seeded_rng(5, 0));
    let gained = anon_huge_kb().saturating_sub(before);
    println!(
        "thp mode={mode}: AnonHugePages +{gained} kB for a {} kB embedding table",
        BYTES >> 10
    );
    assert!(t
        .row(rows - 1)
        .iter()
        .all(|x| x.abs() <= 1.0 / (rows as f32).sqrt()));
    assert!(
        gained * 10 >= (BYTES as u64 >> 10) * 9,
        "only {gained} kB of a {} kB table is on huge pages (mode={mode}): \
         was it touched before it was advised?",
        BYTES >> 10
    );
}

/// `train_dist`'s tables are 25.6 MB each, and the benchmark builds its
/// system five times per run: the fifth table must land on huge pages as
/// the first did, whatever the four before it left behind.
#[test]
#[cfg(target_os = "linux")]
fn a_table_built_after_same_size_buffers_were_dropped_lands_on_huge_pages() {
    let _turn = my_turn();
    let mode = thp_mode();
    if mode != "madvise" && mode != "always" {
        println!("skipped: thp mode={mode}");
        return;
    }
    let table = |seed| {
        dlrm_tensor::init::embedding_table(100_000, 64, &mut dlrm_tensor::init::seeded_rng(seed, 0))
    };
    for seed in 0..4 {
        drop(table(seed));
        drop(AlignedVec::from_fn(100_000 * 64, |i| i as f32));
    }
    let before = anon_huge_kb();
    let t = table(4);
    let gained = anon_huge_kb().saturating_sub(before);
    println!("thp mode={mode}: AnonHugePages +{gained} kB for a 25 000 kB table built fifth");
    assert_eq!(t.rows(), 100_000);
    assert!(
        gained >= 12 * 2048,
        "only {gained} kB of a 100 000 x 64 table is on huge pages (mode={mode}); \
         its 12 whole 2 MiB pages are 24 576 kB"
    );
}
