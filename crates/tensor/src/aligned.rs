//! Cache-line-aligned `f32` storage.
//!
//! The embedding tables in DLRM are read a full row (several consecutive
//! cache lines) at a time; the GEMM microkernels use wide SIMD loads.
//! Both want storage aligned to the 64-byte cache-line boundary, which the
//! global allocator does not guarantee for `Vec<f32>`.
//!
//! A table is also far larger than the TLB reaches on 4 KB pages, and a
//! random row gather then pays a page walk per lookup. Buffers of at least
//! [`HUGE_PAGE_MIN_BYTES`] are therefore born on 2 MiB transparent huge
//! pages: 2 MiB-aligned, advised `MADV_HUGEPAGE` **before** the first
//! write, and only then filled — zeros or [`AlignedVec::from_fn`]'s values,
//! one write per element. The order is the whole point — a page that was
//! touched before the advice stays a 4 KB page.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};

/// Alignment (bytes) of every [`AlignedVec`] allocation: one x86 cache line.
pub const CACHE_LINE: usize = 64;

/// Size and alignment (bytes) of one x86-64 transparent huge page.
pub const HUGE_PAGE: usize = 2 << 20;

/// Buffers of at least this many bytes are aligned to [`HUGE_PAGE`] and
/// advised onto huge pages. 32 MiB is glibc's largest mmap threshold
/// (`DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit): however often a process has
/// freed large blocks, a request this big is served by a fresh mapping no
/// one has touched, so the advice always arrives before the first touch.
/// A smaller request may be carved from memory the allocator kept from an
/// earlier `free` — already populated with 4 KB pages, which the advice
/// does not convert — so what it bought would depend on allocation
/// history; and the smaller a buffer, the more of its page walks hit cache.
pub const HUGE_PAGE_MIN_BYTES: usize = 32 << 20;

/// A 64-byte-aligned, initialised `f32` buffer (2 MiB-aligned and on huge
/// pages from [`HUGE_PAGE_MIN_BYTES`] up).
///
/// Unlike `Vec<f32>` the length is normally fixed at construction; tensors
/// in this workspace never grow element by element. The one exception is
/// [`AlignedVec::resize_scratch`], which lets iteration-persistent scratch
/// buffers (e.g. the embedding layer's `dW[NS][E]`) track a varying batch
/// shape without steady-state reallocations. Dereferences to `[f32]`.
pub struct AlignedVec {
    ptr: *mut f32,
    len: usize,
    /// Allocated capacity in elements (`len <= cap`); the allocation layout
    /// is always derived from `cap`.
    cap: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively; it is a plain buffer
// of `f32` with no interior mutability, so moving it across threads or
// sharing `&AlignedVec` between threads is sound.
unsafe impl Send for AlignedVec {}
// SAFETY: as for `Send`: `&AlignedVec` only reads plain `f32`s.
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Allocates a zeroed buffer of `len` floats aligned to [`CACHE_LINE`]
    /// (to [`HUGE_PAGE`], and advised onto huge pages before it is zeroed,
    /// from [`HUGE_PAGE_MIN_BYTES`] up).
    pub fn zeroed(len: usize) -> Self {
        // A huge-page buffer is not `alloc_zeroed`: for an over-aligned
        // layout std's `System` zeroes with a `memset`, which would populate
        // every page as a 4 KB page before the advice could be given. It is
        // zeroed by the one fill path instead, after the advice.
        if Self::layout(len).align() == HUGE_PAGE {
            return Self::from_fn(len, |_| 0.0);
        }
        // SAFETY: `alloc_zeroed` initialises every element to `0.0`.
        unsafe { Self::allocate(len, alloc_zeroed) }
    }

    /// Builds an aligned buffer holding a copy of `data`.
    pub fn from_slice(data: &[f32]) -> Self {
        let mut v = Self::zeroed(data.len());
        v.copy_from_slice(data);
        v
    }

    /// Builds an aligned buffer from an element-producing closure, called
    /// once per index in increasing order. Each element is written exactly
    /// once, into memory nothing zeroed first — for a huge-page buffer that
    /// write is the first touch, after the advice. A panic in `f` frees the
    /// buffer and propagates.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> f32) -> Self {
        // SAFETY: every element is written below before `v` is returned, and
        // nothing reads it first; if `f` panics, `v`'s `Drop` only frees.
        let v = unsafe { Self::allocate(len, alloc) };
        for i in 0..len {
            // SAFETY: `i < len == cap`, so the slot lies inside the
            // allocation; `write` does not read or drop the uninitialised
            // value it replaces.
            unsafe { v.ptr.add(i).write(f(i)) };
        }
        v
    }

    /// A `len`-float buffer from `allocator`, advised onto huge pages when
    /// its layout is a huge-page one, before anything touches it.
    ///
    /// # Safety
    /// The contents are whatever `allocator` leaves (uninitialised for
    /// `alloc`): the caller must write every element before the buffer is
    /// read. Dropping it unread is fine.
    unsafe fn allocate(len: usize, allocator: unsafe fn(Layout) -> *mut u8) -> Self {
        if len == 0 {
            return Self {
                ptr: std::ptr::NonNull::<f32>::dangling().as_ptr(),
                len: 0,
                cap: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: `layout` has non-zero size (`len > 0` checked above).
        let raw = unsafe { allocator(layout) };
        if raw.is_null() {
            handle_alloc_error(layout);
        }
        if layout.align() == HUGE_PAGE {
            advise_huge_pages(raw, layout.size());
        }
        Self {
            ptr: raw.cast::<f32>(),
            len,
            cap: len,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to the first element (64-byte aligned).
    #[inline]
    pub fn as_ptr(&self) -> *const f32 {
        self.ptr
    }

    /// Mutable raw pointer to the first element (64-byte aligned).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f32 {
        self.ptr
    }

    /// Resets every element to `0.0`.
    pub fn fill_zero(&mut self) {
        self.fill(0.0);
    }

    /// Allocated capacity in elements (`>= len`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Sets the length to `new_len` with *scratch* semantics: the existing
    /// allocation is reused whenever it is large enough (no allocator
    /// traffic in steady state), and when it is not, a fresh zeroed buffer
    /// replaces it **without copying** the old contents. After a growing
    /// call the contents are unspecified; callers must fully overwrite the
    /// buffer before reading it.
    pub fn resize_scratch(&mut self, new_len: usize) {
        if new_len <= self.cap {
            self.len = new_len;
        } else {
            *self = Self::zeroed(new_len);
        }
    }

    /// The allocation layout of a `len`-float buffer: a pure function of
    /// `len`, so `drop` rebuilds from `cap` what `allocate` allocated with.
    fn layout(len: usize) -> Layout {
        let align = |l: Layout| {
            let huge = l.size() >= HUGE_PAGE_MIN_BYTES;
            l.align_to(if huge { HUGE_PAGE } else { CACHE_LINE })
        };
        Layout::array::<f32>(len)
            .and_then(align)
            .expect("AlignedVec layout overflow")
    }
}

/// Asks the kernel to back the `bytes` at `ptr` with transparent huge
/// pages. A hint whose result is ignored: with THP `never`, off Linux and
/// under Miri the buffer simply stays on base pages.
fn advise_huge_pages(ptr: *mut u8, bytes: usize) {
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: the range is one live allocation this buffer owns, and
        // `ptr` is page-aligned (it is `HUGE_PAGE`-aligned). The advice
        // changes how the range is backed, never what it holds.
        let _ = unsafe { madvise(ptr.cast(), bytes, MADV_HUGEPAGE) };
    }
    #[cfg(not(all(target_os = "linux", not(miri))))]
    {
        let _ = (ptr, bytes);
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: ptr was allocated with exactly this layout in
            // `allocate`.
            unsafe { dealloc(self.ptr.cast(), Self::layout(self.cap)) };
        }
    }
}

impl Deref for AlignedVec {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        // SAFETY: ptr is valid for len f32s for the lifetime of self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: ptr is valid for len f32s and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let v = AlignedVec::zeroed(1027);
        assert_eq!(v.len(), 1027);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0);
    }

    #[test]
    fn empty_buffer_is_usable() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(&v[..], &[] as &[f32]);
        let _ = v.clone();
    }

    #[test]
    fn from_slice_round_trips() {
        let data: Vec<f32> = (0..257).map(|i| i as f32 * 0.5).collect();
        let v = AlignedVec::from_slice(&data);
        assert_eq!(&v[..], &data[..]);
    }

    #[test]
    fn from_fn_fills_in_order() {
        let v = AlignedVec::from_fn(8, |i| (i * i) as f32);
        assert_eq!(&v[..], &[0.0, 1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0]);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedVec::from_slice(&[1.0, 2.0]);
        let b = a.clone();
        a[0] = 7.0;
        assert_eq!(b[0], 1.0);
    }

    #[test]
    fn fill_zero_clears() {
        let mut v = AlignedVec::from_slice(&[3.0; 33]);
        v.fill_zero();
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn resize_scratch_reuses_capacity() {
        let mut v = AlignedVec::zeroed(100);
        let p = v.as_ptr();
        v.resize_scratch(40);
        assert_eq!(v.len(), 40);
        assert_eq!(v.capacity(), 100);
        assert_eq!(v.as_ptr(), p, "shrink must not reallocate");
        v.resize_scratch(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.as_ptr(), p, "regrow within capacity must not reallocate");
        v.resize_scratch(101);
        assert_eq!(v.len(), 101);
        assert_eq!(v.capacity(), 101);
        assert!(v.iter().all(|&x| x == 0.0), "fresh allocation is zeroed");
    }

    #[test]
    fn resize_scratch_from_empty() {
        let mut v = AlignedVec::zeroed(0);
        v.resize_scratch(16);
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|&x| x == 0.0));
        v.resize_scratch(0);
        assert!(v.is_empty());
    }

    /// A `len` whose byte size overflows must be refused, never wrapped: an
    /// unchecked `len * 4` turns `usize::MAX / 4 + 2` into a 4-byte
    /// allocation behind a `len` of 2^62 in a release build.
    #[test]
    fn absurd_len_is_the_layout_overflow_panic() {
        for len in [
            usize::MAX / 2,
            usize::MAX / 4 + 2,
            isize::MAX as usize / 4 + 1,
        ] {
            let err = std::panic::catch_unwind(|| AlignedVec::zeroed(len))
                .expect_err("an absurd len must not allocate");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(
                msg.contains("AlignedVec layout overflow"),
                "len={len}: {msg}"
            );
        }
    }

    #[test]
    fn mutation_through_index() {
        let mut v = AlignedVec::zeroed(4);
        v[2] = 5.5;
        assert_eq!(v[2], 5.5);
    }

    #[test]
    fn shared_across_threads() {
        let v = std::sync::Arc::new(AlignedVec::from_fn(1024, |i| i as f32));
        let mut handles = vec![];
        for t in 0..4 {
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                v.iter().skip(t).step_by(4).sum::<f32>()
            }));
        }
        let total: f32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..1024).sum::<i32>() as f32);
    }
}
