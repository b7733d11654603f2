//! Latency accounting holds O(1) memory in run length: after a warm-up,
//! 100 000 more requests through a `ServeEngine` leave the process's live
//! heap within 64 KB of where it was. A sample list kept per request would
//! grow by at least 800 KB over them (8 bytes each).
//!
//! A counting global allocator tracks live heap bytes over every thread —
//! the engine's lane allocates and frees beside the client — and the
//! readings are taken with no request in flight. This file holds one test,
//! so no other test allocates beside it.

use dlrm::layers::Execution;
use dlrm_data::DlrmConfig;
use dlrm_serve::{CacheSizing, Request, ServeClient, ServeConfig, ServeEngine, ServeModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARM_UP: usize = 5_000;
const REQUESTS: usize = 100_000;
/// Requests outstanding at once, as the benchmark's closed loop keeps them.
const DEPTH: usize = 64;
const BOUND_BYTES: isize = 64 * 1024;

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(50, 256);
    cfg.dense_features = 2;
    cfg.bottom_mlp = vec![8, 4];
    cfg.emb_dim = 4;
    cfg.num_tables = 3;
    cfg.table_rows = vec![50, 50, 50];
    cfg.top_mlp = vec![8, 1];
    cfg
}

/// Serves `n` requests, `DEPTH` at a time, and returns once every one of
/// them has been answered.
fn serve(client: &ServeClient, n: usize) {
    let request = Request {
        dense: vec![0.5; 2],
        indices: vec![vec![1, 2], vec![], vec![3]],
    };
    let mut handles = Vec::with_capacity(DEPTH);
    for sent in (0..n).step_by(DEPTH) {
        for _ in sent..(sent + DEPTH).min(n) {
            handles.push(client.submit(request.clone()).expect("open"));
        }
        for handle in handles.drain(..) {
            assert!(handle.wait().expect("served").logit.is_finite());
        }
    }
}

#[test]
fn latency_accounting_does_not_grow_with_requests_served() {
    let model = ServeModel::new(
        &tiny_cfg(),
        Execution::optimized(1),
        CacheSizing::Disabled,
        5,
    );
    let engine = ServeEngine::start(model, ServeConfig::default());
    let client = engine.client();
    serve(&client, WARM_UP);
    let warm = LIVE.load(Ordering::SeqCst);
    serve(&client, REQUESTS);
    let grown = LIVE.load(Ordering::SeqCst) - warm;
    let report = engine.shutdown();
    assert_eq!(report.requests as usize, WARM_UP + REQUESTS);
    assert_eq!(report.latencies_us.len(), WARM_UP + REQUESTS);
    assert!(
        grown < BOUND_BYTES,
        "live heap grew by {grown} bytes over {REQUESTS} requests"
    );
}
