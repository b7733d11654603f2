//! What the host is and what it can do: fingerprint, peak resident set,
//! and the two measured ceilings (peak FMA, STREAM-style triad) every
//! per-layer rate is read against.

use dlrm_kernels::gemm::micro::detect_isa;
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set (`VmHWM`) of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Pins the calling thread to vCPU `core` (modulo the host's count), best
/// effort; threads it spawns afterwards inherit the pin.
pub fn pin_to(core: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    dlrm_kernels::threadpool::pin_current_thread(core % nproc);
}

/// Hands freed heap pages back to the kernel. Called between repetitions
/// so that `peak_rss_mb` is the peak of one system, not of whatever the
/// allocator still held from the previous repetition: glibc serves
/// allocations under its (self-raising, up to 32 MB) mmap threshold from
/// per-thread arenas and keeps them after `free` — measured on
/// `train_dist`, whose tables are 25.6 MB each: 238 to 481 MB between
/// identical runs.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers, only asks glibc's
        // allocator to release free pages, and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Refuses to run when `DLRM_THREADS` is set: `ThreadPool::default_parallelism`
/// honours it, so a stray variable would silently change the load.
pub fn refuse_thread_override() -> Result<(), String> {
    match std::env::var_os("DLRM_THREADS") {
        Some(v) => Err(format!(
            "DLRM_THREADS={v:?} is set; unset it, the benchmark fixes its own thread counts"
        )),
        None => Ok(()),
    }
}

/// One line describing the host and the thread counts in use.
pub fn fingerprint(train_threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    format!(
        "host: nproc={nproc} isa={:?} train_threads={train_threads} dist_ranks={}x1 \
         serve_threads=1+1 generator_threads=1 DLRM_THREADS=unset",
        detect_isa(),
        crate::run::RANKS,
    )
}

/// Independent accumulator chains per thread: enough to cover the FMA
/// latency on two issue ports.
const CHAINS: usize = 10;
const INNER: usize = 4096;

/// One burst of FMAs: `INNER` rounds of `acc = acc · a + b` on `CHAINS`
/// independent vector accumulators. Returns the flops done and a value
/// that depends on every result.
type FmaBurst = fn(f32, f32) -> (u64, f32);

/// The burst on 16-lane AVX-512 registers — the tier the GEMM kernels
/// dispatch to on this class of host. Written with intrinsics: left to the
/// auto-vectoriser, the same loop in plain Rust came out as gathers.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_burst_avx512(a: f32, b: f32) -> (u64, f32) {
    use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_reduce_add_ps, _mm512_set1_ps};
    let (a, b) = (_mm512_set1_ps(a), _mm512_set1_ps(b));
    let mut acc = [_mm512_set1_ps(1.0); CHAINS];
    for _ in 0..INNER {
        for x in acc.iter_mut() {
            *x = _mm512_fmadd_ps(*x, a, b);
        }
    }
    let sum = acc.iter().map(|x| _mm512_reduce_add_ps(*x)).sum();
    ((2 * 16 * CHAINS * INNER) as u64, sum)
}

/// The burst on 8-lane AVX2 registers.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_burst_avx2(a: f32, b: f32) -> (u64, f32) {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let (a, b) = (_mm256_set1_ps(a), _mm256_set1_ps(b));
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..INNER {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = 0.0;
    for x in acc {
        _mm256_storeu_ps(lanes.as_mut_ptr(), x);
        sum += lanes.iter().sum::<f32>();
    }
    ((2 * 8 * CHAINS * INNER) as u64, sum)
}

/// The burst in scalar code, for CPUs with neither: a floor, not a peak.
fn fma_burst_scalar(a: f32, b: f32) -> (u64, f32) {
    let mut acc = [1.0f32; CHAINS];
    for _ in 0..INNER {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    ((2 * CHAINS * INNER) as u64, acc.iter().sum())
}

/// The widest burst this CPU runs, matching the kernels' dispatch.
fn widest_fma_burst() -> FmaBurst {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was just detected.
            return |a, b| unsafe { fma_burst_avx512(a, b) };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 and FMA were just detected.
            return |a, b| unsafe { fma_burst_avx2(a, b) };
        }
    }
    fma_burst_scalar
}

/// Peak fused-multiply-add rate of `threads` threads, in GFLOP/s, at the
/// widest vector tier the CPU has.
pub fn peak_fma_gflops(threads: usize, seconds: f64) -> f64 {
    let burst = widest_fma_burst();
    let start = Instant::now();
    let flops: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|core| {
                s.spawn(move || {
                    pin_to(core);
                    let mut flops = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let (done, sum) = burst(black_box(0.999_9), black_box(1e-4));
                        black_box(sum);
                        flops += done;
                    }
                    flops
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("FMA thread panicked"))
            .sum()
    });
    flops as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// Floats per triad array: 3 × 64 MB, thirty-two times this host's per-core
/// L2 and far beyond the slice of the host-wide L3 a 2-vCPU guest can hold
/// on to.
const TRIAD_LEN: usize = 16 << 20;

/// The three arrays of the STREAM-style triad, touched once at
/// construction so passes measure bandwidth and not page faults.
pub struct Triad {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Triad {
    pub fn new() -> Self {
        Triad {
            a: vec![0.5; TRIAD_LEN],
            b: vec![1.0; TRIAD_LEN],
            c: vec![2.0; TRIAD_LEN],
        }
    }

    /// Best-of-`passes` bandwidth of `a = b + 3·c` split over `threads`
    /// threads, in GB/s, counting the three streams STREAM counts.
    pub fn gbps(&mut self, threads: usize, passes: usize) -> f64 {
        let chunk = TRIAD_LEN.div_ceil(threads);
        let mut best = f64::MAX;
        for _ in 0..passes {
            let start = Instant::now();
            std::thread::scope(|s| {
                let parts = self.a.chunks_mut(chunk).zip(self.b.chunks(chunk));
                for (core, ((a, b), c)) in parts.zip(self.c.chunks(chunk)).enumerate() {
                    s.spawn(move || {
                        pin_to(core);
                        for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                            *x = *y + 3.0 * *z;
                        }
                    });
                }
            });
            best = best.min(start.elapsed().as_secs_f64());
            black_box(&self.a);
        }
        (3 * TRIAD_LEN * std::mem::size_of::<f32>()) as f64 / best / 1e9
    }
}
