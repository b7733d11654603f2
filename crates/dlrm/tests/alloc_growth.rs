//! Steady-state allocation check for the single-socket train step: after
//! warm-up, live heap bytes and the model's iteration-persistent embedding
//! scratch must stop growing. This is what the reused saved-batch vectors
//! in `EmbeddingLayer` buy — before them, every
//! step leaked fresh `Vec`s and a fresh gradient matrix per table into the
//! allocator's working set. The fused backward+update goes further: the
//! layer holds no `dW[NS][E]` at all, and an update allocates nothing.
//!
//! Same counting-global-allocator pattern as
//! `crates/dlrm-dist/tests/alloc_growth.rs`, single-process here: samples
//! are taken between steps, when no kernel is in flight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Calls to `alloc`/`realloc` by the threads of a team under test (see
/// [`count_team`]), pool workers included. Not by every thread: the test
/// harness allocates on its own thread whenever a test finishes, which is
/// exactly when the next test of this binary gets its turn.
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_call() {
    // `try_with`: a thread may allocate while its locals are torn down.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Enlists every member of `pool`'s team, the calling thread included, in
/// [`ALLOC_CALLS`].
fn count_team(pool: &dlrm_kernels::ThreadPool) {
    pool.broadcast(|_| COUNTED.with(|c| c.set(true)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        count_call();
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
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-wide, so the tests of this binary take turns.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counters it guards are still fine.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
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

/// Runs `steps` optimized train iterations and returns per-step
/// (live-heap, embedding-scratch + MLP-plan-scratch) samples taken
/// between steps.
fn sample_training(strategy: UpdateStrategy, steps: usize) -> Vec<(isize, usize)> {
    let cfg = tiny_cfg();
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
    let mut model = DlrmModel::new(
        &cfg,
        Execution::optimized(3),
        strategy,
        PrecisionMode::Fp32,
        7,
    );
    let mut samples = Vec::with_capacity(steps);
    for b in &batches {
        model.train_step(b, 0.1);
        samples.push((
            LIVE_BYTES.load(Ordering::Relaxed),
            model.embedding_scratch_bytes() + model.mlp_scratch_bytes(),
        ));
    }
    samples
}

fn assert_steady(samples: &[(isize, usize)], label: &str) {
    // Iteration-persistent scratch must stabilize after the very first step.
    let scratch_after_warmup = samples[1].1;
    for (step, (_, scratch)) in samples.iter().enumerate().skip(1) {
        assert_eq!(
            *scratch, scratch_after_warmup,
            "{label}: scratch grew at step {step}"
        );
    }
    // Live heap: the late-window peak must not exceed the warm-up peak by
    // more than a small slack (allocator-internal jitter).
    let mid = samples.len() / 2;
    let warm = samples[2..mid].iter().map(|s| s.0).max().unwrap();
    let late = samples[mid..].iter().map(|s| s.0).max().unwrap();
    const SLACK: isize = 64 * 1024;
    assert!(
        late <= warm + SLACK,
        "{label}: live heap grew from {warm} to {late} bytes"
    );
}

#[test]
fn race_free_step_does_not_grow_allocations() {
    let _turn = my_turn();
    let samples = sample_training(UpdateStrategy::RaceFree, 50);
    assert_steady(&samples, "race-free");
}

/// Allocator calls made by 20 runs of `f`, after one run that may grow
/// pool-internal state.
fn calls_during(f: &mut dyn FnMut()) -> usize {
    f();
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    for _ in 0..20 {
        f();
    }
    ALLOC_CALLS.load(Ordering::SeqCst) - before
}

/// The fused backward+update reads gradient rows from `dY`: the layer's
/// scratch after a step is the saved batch, less than one `dW[NS][E]` —
/// and the update allocates nothing on any thread, pool dispatch included:
/// the job is handed to the team as a borrowed pointer.
#[test]
fn embedding_update_keeps_no_gradient_copy_and_does_not_allocate() {
    let _turn = my_turn();
    use dlrm::embedding_layer::EmbeddingLayer;
    use dlrm_tensor::Matrix;

    let (rows, e, bags, lookups) = (64usize, 8usize, 40usize, 4usize);
    let ns = bags * lookups;
    let indices: Vec<u32> = (0..ns).map(|i| (i * 37 % rows) as u32).collect();
    let offsets: Vec<usize> = (0..=bags).map(|b| b * lookups).collect();
    let dy = Matrix::from_fn(bags, e, |r, c| (r + c) as f32 * 0.01);
    let exec = Execution::optimized(3);
    count_team(exec.pool().expect("optimized"));

    let strategy = UpdateStrategy::RaceFree;
    let mut layer = EmbeddingLayer::new(rows, e, strategy, &mut seeded_rng(9, 0));
    let _ = layer.forward(&exec, &indices, &offsets);
    layer.backward_update(&exec, &dy, 0.1);
    let (scratch, dw) = (layer.scratch_bytes(), ns * e * 4);
    assert!(
        scratch < dw,
        "{strategy}: {scratch} B of scratch, a dW[NS][E] is {dw} B"
    );

    let update = calls_during(&mut || layer.backward_update(&exec, &dy, 0.1));
    assert_eq!(update, 0, "{strategy}: 20 updates allocated {update} times");
    assert_eq!(layer.scratch_bytes(), scratch, "{strategy}: scratch grew");
}

/// The persistent packed-GEMM plan on its own: a full MLP
/// fwd+bwd+sgd loop must stop allocating once the plan (blocked weight
/// gradients, activation residency) has grown to the batch shape.
#[test]
fn mlp_packed_plan_step_does_not_grow_allocations() {
    let _turn = my_turn();
    use dlrm::layers::{Activation, Mlp};
    use dlrm_tensor::init::uniform;
    use dlrm_tensor::Matrix;

    let exec = Execution::optimized(3);
    let mut rng = seeded_rng(31, 0);
    let mut mlp = Mlp::new(12, &[16, 8, 1], Activation::None, &mut rng);
    let x = uniform(12, 24, -1.0, 1.0, &mut rng);
    let mut samples = Vec::new();
    for _ in 0..50 {
        let y = mlp.forward(&exec, &x);
        let dy = Matrix::from_fn(y.rows(), y.cols(), |i, j| y[(i, j)] * 0.01);
        let _ = mlp.backward(&exec, dy);
        mlp.sgd_step(&exec, 0.05);
        samples.push((LIVE_BYTES.load(Ordering::Relaxed), mlp.scratch_bytes()));
    }
    assert_steady(&samples, "mlp-packed-plan");
}

/// The weight gradient stays in its blocked storage from the GEMM that
/// writes it to the update that reads it, so a backward (of an MLP whose
/// input is a leaf — otherwise it returns a fresh `dX`) plus an SGD step allocates
/// nothing on any thread; nor do the two row-major crossings the DDP step
/// makes, which read and write the caller's buffer.
#[test]
fn backward_and_dense_update_do_not_allocate() {
    let _turn = my_turn();
    use dlrm::layers::{Activation, Mlp};
    use dlrm_tensor::init::uniform;

    let exec = Execution::optimized(3);
    count_team(exec.pool().expect("optimized"));
    let mut rng = seeded_rng(37, 0);
    let mut mlp = Mlp::new(12, &[70, 8, 1], Activation::None, &mut rng).without_input_grad();
    let x = uniform(12, 24, -1.0, 1.0, &mut rng);
    let _ = mlp.forward(&exec, &x);
    // One gradient per counted call, made beforehand: `backward` consumes it.
    let mut dys: Vec<_> = (0..21)
        .map(|_| uniform(1, 24, -1.0, 1.0, &mut rng))
        .collect();
    let step = calls_during(&mut || {
        let _ = mlp.backward(&exec, dys.pop().expect("one dY per call"));
        mlp.sgd_step(&exec, 0.05);
    });
    assert_eq!(step, 0, "20 backward + sgd_step allocated {step} times");

    let mut flat = vec![0.0f32; mlp.layers.iter().map(|l| l.grad_len()).sum()];
    let ddp = calls_during(&mut || {
        let mut off = 0;
        for layer in &mut mlp.layers {
            let window = &mut flat[off..off + layer.grad_len()];
            layer.write_grads(window);
            layer.sgd_step_scaled_from(&exec, window, 0.05, 2.0);
            off += layer.grad_len();
        }
    });
    assert_eq!(ddp, 0, "20 DDP-style crossings allocated {ddp} times");
}

/// The blocked GEMM drivers allocate nothing on any thread, and neither
/// does the dispatch that runs them: reduction panels are named by base +
/// stride, not by per-thread pointer lists, and the pool lends the team a
/// pointer to the job instead of boxing it. Counted over calls, not
/// sampled as live bytes, because the lists were freed again before any
/// sample could see them. The shapes take every kernel path: a plain one,
/// a backward-by-data that parks its accumulators between chunks of
/// `kb = 16` reduction panels, and a `bk = 1` head on the scalar kernels'
/// narrow form.
#[test]
fn blocked_gemm_drivers_do_not_allocate() {
    let _turn = my_turn();
    use dlrm_kernels::{gemm, ThreadPool};
    use dlrm_tensor::init::uniform;
    use dlrm_tensor::{BlockedActivations, BlockedWeights, Blocking};

    let pool = ThreadPool::new(3);
    count_team(&pool);
    let dispatches = calls_during(&mut || pool.parallel_for(6, |_, _| {}));
    assert_eq!(dispatches, 0, "20 empty dispatches allocated");

    let blk = |bn, bc, bk| Blocking { bn, bc, bk };
    for (k, c, n, blk) in [
        (32, 24, 16, blk(8, 8, 16)),
        (1024, 16, 16, blk(8, 8, 64)),
        (1, 24, 16, blk(8, 8, 1)),
    ] {
        let mut rng = seeded_rng(51, 0);
        let wb = BlockedWeights::pack(&uniform(k, c, -1.0, 1.0, &mut rng), blk);
        let xb = BlockedActivations::pack(&uniform(c, n, -1.0, 1.0, &mut rng), blk.bc, blk.bn);
        let dyb = BlockedActivations::pack(&uniform(k, n, -1.0, 1.0, &mut rng), blk.bk, blk.bn);
        let bias = vec![0.5f32; k];
        let mut yb = BlockedActivations::zeros(k, n, blk.bk, blk.bn);
        let mut dxb = BlockedActivations::zeros(c, n, blk.bc, blk.bn);
        let mut dwb = BlockedWeights::zeros(k, c, blk);
        let mut db = vec![0.0f32; k];

        let mut all_six = || {
            gemm::fc_forward(&pool, &wb, &xb, &mut yb);
            gemm::fc_forward_fused(&pool, &wb, &xb, &mut yb, Some(&bias), true);
            gemm::fc_backward_data(&pool, &wb, &dyb, &mut dxb);
            gemm::fc_backward_data_fused(&pool, &wb, &dyb, &mut dxb, Some(&xb));
            gemm::fc_backward_weights(&pool, &xb, &dyb, &mut dwb);
            gemm::fc_backward_weights_fused(&pool, &xb, &dyb, &mut dwb, &mut db);
        };
        let drivers = calls_during(&mut all_six);
        assert_eq!(
            drivers, 0,
            "{k}x{c}x{n} {blk:?}: 120 driver calls allocated {drivers} times"
        );
    }
}

/// A warm interaction forward allocates its returned `D × N` matrix and
/// nothing else on any thread: the operands are packed into retained
/// panels (no transposed copy of the bottom output, no clone per table),
/// and the blocks are handed to the team as a borrowed closure.
#[test]
fn interaction_forward_allocates_only_its_output() {
    let _turn = my_turn();
    use dlrm::interaction::Interaction;
    use dlrm_tensor::init::uniform;
    use dlrm_tensor::Matrix;

    let exec = Execution::optimized(3);
    count_team(exec.pool().expect("optimized"));
    let (e, n, tables) = (16, 40, 5);
    let mut rng = seeded_rng(61, 0);
    let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
    let ts: Vec<Matrix> = (0..tables)
        .map(|_| uniform(n, e, -1.0, 1.0, &mut rng))
        .collect();
    let mut inter = Interaction::new(e);
    let forward = calls_during(&mut || drop(inter.forward(&exec, &bottom, &ts)));
    assert_eq!(forward, 20, "20 forwards allocated {forward} times");
}
