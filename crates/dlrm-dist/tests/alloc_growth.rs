//! Steady-state allocation check for the train step: after warm-up, live
//! heap bytes and the trainer's iteration-persistent scratch must stop
//! growing. This is what the scratch-reuse in `exchange.rs` (output
//! matrices), `ddp.rs`/`bucketing.rs` (flat gradient buffer) and the
//! `dlogits` buffer buy — without it, every step leaked fresh `Vec`s into
//! the allocator's working set.
//!
//! Uses a counting global allocator; samples are taken with every rank
//! parked at a barrier so the heap is at a well-defined program point.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

use dlrm_comm::nonblocking::{create_channel_worlds, Backend, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::CommWorld;
use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::distributed::{DistDlrm, DistOptions, Schedule, WireConfig};
use dlrm_dist::exchange::ExchangeStrategy;
use dlrm_dist::prefetch::Prefetch;
use dlrm_tensor::init::seeded_rng;

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(32, 512);
    cfg.dense_features = 6;
    cfg.bottom_mlp = vec![8, 4];
    cfg.emb_dim = 4;
    cfg.num_tables = 4;
    cfg.table_rows = vec![32, 16, 8, 24];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![8, 1];
    cfg
}

/// Runs `steps` training iterations at 2 ranks and returns rank 0's
/// per-step (live-heap, scratch) samples, each taken inside a barrier
/// sandwich so every rank is parked at a known point.
fn sample_training(schedule: Schedule, steps: usize) -> Vec<(isize, usize)> {
    sample_training_wire(schedule, steps, WireConfig::default())
}

fn sample_training_wire(schedule: Schedule, steps: usize, wire: WireConfig) -> Vec<(isize, usize)> {
    sample_strategy(ExchangeStrategy::CclAlltoall, schedule, steps, wire)
}

/// [`sample_training_wire`] under any exchange strategy. Every rank is
/// handed an engine, as `train_dist`'s are; the default strategy drops it
/// and reduces its buckets on the rank thread.
fn sample_strategy(
    strategy: ExchangeStrategy,
    schedule: Schedule,
    steps: usize,
    wire: WireConfig,
) -> Vec<(isize, usize)> {
    let cfg = tiny_cfg();
    let nranks = 2;
    let opts = DistOptions {
        strategy,
        seed: 5,
        threads_per_rank: 1,
        schedule,
        bucket_cap_bytes: 128, // several buckets: exercise the full path
        wire,
        ..Default::default()
    };
    let batches: Vec<MiniBatch> = (0..steps)
        .map(|i| {
            MiniBatch::random(
                &cfg,
                8,
                IndexDistribution::Uniform,
                &mut seeded_rng(42 + i as u64, 5),
            )
        })
        .collect();
    let backend = Backend::CclLike { workers: 2 };
    let worlds = std::sync::Mutex::new(create_channel_worlds(nranks, backend));
    let out = CommWorld::run(nranks, |comm| {
        let me = comm.rank();
        let engine = {
            let comms = std::mem::take(&mut worlds.lock().unwrap()[me]);
            ProgressEngine::new(backend, comms)
        };
        let mut model = DistDlrm::new(&cfg, comm, Some(engine), &opts);
        let mut samples = Vec::with_capacity(steps);
        for b in &batches {
            model.train_step(b, 0.1);
            model.comm_barrier();
            if me == 0 {
                samples.push((LIVE_BYTES.load(Ordering::Relaxed), model.scratch_bytes()));
            }
            model.comm_barrier();
        }
        samples
    });
    out.into_iter().next().unwrap()
}

fn assert_steady(samples: &[(isize, usize)], label: &str) {
    // Scratch buffers must stabilize after the very first step.
    let scratch_after_warmup = samples[1].1;
    for (step, (_, scratch)) in samples.iter().enumerate().skip(1) {
        assert_eq!(
            *scratch, scratch_after_warmup,
            "{label}: scratch grew at step {step}"
        );
    }
    // Live heap: the late-window peak must not exceed the warm-up peak by
    // more than a small slack (allocator-internal jitter, channel nodes).
    let warm = samples[2..steps_mid(samples)]
        .iter()
        .map(|s| s.0)
        .max()
        .unwrap();
    let late = samples[steps_mid(samples)..]
        .iter()
        .map(|s| s.0)
        .max()
        .unwrap();
    const SLACK: isize = 64 * 1024;
    assert!(
        late <= warm + SLACK,
        "{label}: live heap grew from {warm} to {late} bytes"
    );
}

fn steps_mid(samples: &[(isize, usize)]) -> usize {
    samples.len() / 2
}

/// Prefetch-enabled variant of [`sample_training`]: drives the trainer
/// through the lookahead window loop instead of per-batch steps.
fn sample_training_prefetch(
    schedule: Schedule,
    steps: usize,
    window: usize,
) -> Vec<(isize, usize)> {
    sample_prefetch_strategy(ExchangeStrategy::CclAlltoall, schedule, steps, window)
}

/// [`sample_training_prefetch`] under any exchange strategy.
fn sample_prefetch_strategy(
    strategy: ExchangeStrategy,
    schedule: Schedule,
    steps: usize,
    window: usize,
) -> Vec<(isize, usize)> {
    let cfg = tiny_cfg();
    let nranks = 2;
    let opts = DistOptions {
        strategy,
        seed: 5,
        threads_per_rank: 1,
        schedule,
        bucket_cap_bytes: 128,
        prefetch: Prefetch::Lookahead { window },
        ..Default::default()
    };
    // A rotating covering index pattern instead of uniform draws: batch i
    // reads lookup k of table t as row (k + i) mod rows(t). Every slice
    // touches a full-width run of consecutive rows that shifts one row per
    // step, so the resident set, tracker rings, fetch lists and free lists
    // all hit their high-water marks within the first few windows — and
    // *deterministically* stay there, unlike random draws whose capacity
    // high-waters keep creeping on coupon-collector tails. Rows still
    // rotate out of the window (evictions + refetches) and neighbouring
    // slices overlap on the 8-row table (foreign invalidations), so the
    // whole fetch/update/invalidate/evict cycle runs every step.
    let batches: Vec<MiniBatch> = (0..steps)
        .map(|i| {
            let mut b = MiniBatch::random(
                &cfg,
                8,
                IndexDistribution::Uniform,
                &mut seeded_rng(42 + i as u64, 5),
            );
            for (t, idx) in b.indices.iter_mut().enumerate() {
                let rows = cfg.table_rows[t];
                for (k, v) in idx.iter_mut().enumerate() {
                    *v = ((k as u64 + i as u64) % rows) as u32;
                }
            }
            b
        })
        .collect();
    let backend = Backend::CclLike { workers: 2 };
    let worlds = std::sync::Mutex::new(create_channel_worlds(nranks, backend));
    let out = CommWorld::run(nranks, |comm| {
        let me = comm.rank();
        let engine = {
            let comms = std::mem::take(&mut worlds.lock().unwrap()[me]);
            ProgressEngine::new(backend, comms)
        };
        let mut model = DistDlrm::new(&cfg, comm, Some(engine), &opts);
        let mut samples = Vec::with_capacity(steps);
        let mut win = LookaheadWindow::new(&batches, window);
        while !win.is_finished() {
            model.train_step_lookahead(&win, 0.1);
            win.advance();
            model.comm_barrier();
            if me == 0 {
                samples.push((LIVE_BYTES.load(Ordering::Relaxed), model.scratch_bytes()));
            }
            model.comm_barrier();
        }
        samples
    });
    out.into_iter().next().unwrap()
}

/// Steady-state assertion for the lookahead path. The window scratch —
/// row caches, tracker expiry rings, fetch lists, dedup scratch — is
/// grow-only and saturates once the resident row set and per-slice unique
/// counts have hit their maxima, which takes longer than the one-step
/// warm-up of the naive path; scratch is pinned from `warmup` on, and the
/// live-heap peak must not drift between the warm and late halves.
fn assert_steady_from(samples: &[(isize, usize)], warmup: usize, label: &str) {
    if std::env::var_os("ALLOC_DEBUG").is_some() {
        eprintln!(
            "{label}: scratch trajectory {:?}",
            samples.iter().map(|s| s.1).collect::<Vec<_>>()
        );
    }
    // The very last step is the pipeline drain: no next batch, so every
    // still-resident row is evicted at once and the cache free lists grow
    // past their steady-state size one final time. Steady state is every
    // step from `warmup` up to (excluding) the drain.
    let scratch_warm = samples[warmup].1;
    for (step, (_, scratch)) in samples[..samples.len() - 1].iter().enumerate().skip(warmup) {
        assert_eq!(
            *scratch, scratch_warm,
            "{label}: prefetch scratch grew at step {step}"
        );
    }
    let mid = (warmup + samples.len()) / 2;
    let warm = samples[warmup..mid].iter().map(|s| s.0).max().unwrap();
    let late = samples[mid..].iter().map(|s| s.0).max().unwrap();
    const SLACK: isize = 64 * 1024;
    assert!(
        late <= warm + SLACK,
        "{label}: live heap grew from {warm} to {late} bytes"
    );
}

#[test]
fn prefetch_overlapped_step_does_not_grow_allocations() {
    let samples = sample_training_prefetch(Schedule::Overlapped, 60, 4);
    assert_steady_from(&samples, 10, "prefetch overlapped W=4");
}

#[test]
fn prefetch_synchronous_step_does_not_grow_allocations() {
    let samples = sample_training_prefetch(Schedule::Synchronous, 60, 4);
    assert_steady_from(&samples, 10, "prefetch synchronous W=4");
}

#[test]
fn overlapped_step_does_not_grow_allocations() {
    let samples = sample_training(Schedule::Overlapped, 50);
    assert_steady(&samples, "overlapped");
}

#[test]
fn synchronous_step_does_not_grow_allocations() {
    let samples = sample_training(Schedule::Synchronous, 50);
    assert_steady(&samples, "synchronous");
}

// The BF16 wire adds narrow/widen staging to every hot collective; all of
// it must come from the grow-only thread-local pools, so steady state
// stays allocation-flat exactly like FP32.

#[test]
fn bf16_overlapped_step_does_not_grow_allocations() {
    let samples = sample_training_wire(
        Schedule::Overlapped,
        50,
        WireConfig::all(WirePrecision::Bf16),
    );
    assert_steady(&samples, "bf16 overlapped");
}

#[test]
fn bf16_synchronous_step_does_not_grow_allocations() {
    let samples = sample_training_wire(
        Schedule::Synchronous,
        50,
        WireConfig::all(WirePrecision::Bf16),
    );
    assert_steady(&samples, "bf16 synchronous");
}

// The INT8 wire adds quantize staging (byte buffers + scale vectors) to
// every hot collective; bytes come from the comm crate's byte pool and
// scales from the f32 pool, so steady state stays allocation-flat too.

#[test]
fn int8_overlapped_step_does_not_grow_allocations() {
    let samples = sample_training_wire(
        Schedule::Overlapped,
        50,
        WireConfig::all(WirePrecision::Int8),
    );
    assert_steady(&samples, "int8 overlapped");
}

#[test]
fn int8_synchronous_step_does_not_grow_allocations() {
    let samples = sample_training_wire(
        Schedule::Synchronous,
        50,
        WireConfig::all(WirePrecision::Int8),
    );
    assert_steady(&samples, "int8 synchronous");
}

// The adaptive policy keeps per-bucket envelopes and a reused decision
// buffer; its per-step work (decide + observe) must be allocation-flat
// once the bucket count is known.

#[test]
fn adaptive_overlapped_step_does_not_grow_allocations() {
    let wire = WireConfig {
        allreduce: dlrm_dist::distributed::AllreduceWire::Adaptive { error_bound: 0.05 },
        ..WireConfig::default()
    };
    let samples = sample_training_wire(Schedule::Overlapped, 50, wire);
    assert_steady(&samples, "adaptive overlapped");
}

// The default strategy: the same steps with the buckets reduced in place on
// the rank thread instead of copied out to a progress channel and back.

#[test]
fn default_strategy_overlapped_step_does_not_grow_allocations() {
    let samples = sample_strategy(
        ExchangeStrategy::Alltoall,
        Schedule::Overlapped,
        50,
        WireConfig::default(),
    );
    assert_steady(&samples, "default strategy overlapped");
}

#[test]
fn default_strategy_synchronous_step_does_not_grow_allocations() {
    let samples = sample_strategy(
        ExchangeStrategy::Alltoall,
        Schedule::Synchronous,
        50,
        WireConfig::default(),
    );
    assert_steady(&samples, "default strategy synchronous");
}

#[test]
fn default_strategy_narrowed_wires_do_not_grow_allocations() {
    let adaptive = WireConfig {
        allreduce: dlrm_dist::distributed::AllreduceWire::Adaptive { error_bound: 0.05 },
        ..WireConfig::default()
    };
    for wire in [
        WireConfig::all(WirePrecision::Bf16),
        WireConfig::all(WirePrecision::Int8),
        adaptive,
    ] {
        let samples = sample_strategy(ExchangeStrategy::Alltoall, Schedule::Overlapped, 50, wire);
        assert_steady(&samples, &format!("default strategy {wire:?}"));
    }
}

#[test]
fn default_strategy_prefetch_step_does_not_grow_allocations() {
    let samples = sample_prefetch_strategy(ExchangeStrategy::Alltoall, Schedule::Overlapped, 60, 4);
    assert_steady_from(&samples, 10, "default strategy prefetch W=4");
}
