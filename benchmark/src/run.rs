//! The untraced run: `REPS` repetitions of build → warm → timed segment →
//! drop, one function per driver. Nothing here records spans; the traced
//! run (`trace.rs`) is separate so tracing cannot colour these numbers.
//!
//! Every compute thread is pinned: which vCPU the guest scheduler happens
//! to wake an unpinned pool worker on decided, per repetition, whether two
//! workers ran side by side or took turns on one vCPU (measured: 14 k vs
//! 22 k samples/s on `train_emb`, no steal either time). New threads
//! inherit their creator's affinity, which is how the threads the library
//! spawns for itself (rank pools, progress threads, the serving worker)
//! are placed.

use crate::host::pin_to;
use crate::stats::{Window, Windows};
use crate::workload::{requests_as_batch, Workload, LR, MODEL_SEED};
use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_comm::nonblocking::create_channel_worlds_with_opts;
use dlrm_comm::{Backend, CommWorld, ProgressEngine, WireStats};
use dlrm_data::MiniBatch;
use dlrm_dist::{DistDlrm, DistOptions};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_kernels::ThreadPool;
use dlrm_serve::{
    CacheSizing, Request, Response, ServeClient, ServeConfig, ServeEngine, ServeModel,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions per run; `setup_s` is the median of their set-up times.
pub const REPS: usize = 5;
/// Train steps of warm-up inside set-up.
pub const WARM_STEPS: usize = 16;
/// Requests of warm-up inside set-up.
pub const WARM_REQUESTS: usize = 2000;
/// Requests the single generator thread keeps outstanding. Deep enough to
/// keep micro-batches full, so the number is the engine and not the VM's
/// thread wake-up latency.
pub const DEPTH: usize = 64;
/// Thread-ranks of the distributed workload.
pub const RANKS: usize = 2;
/// Hot-row cache of the serving workload: 1 % of each table's rows.
pub const CACHE: CacheSizing = CacheSizing::Fraction(0.01);
/// The vCPU the load generator runs on; the serving engine gets the other.
pub const GENERATOR_CORE: usize = 0;
pub const ENGINE_CORE: usize = 1;

/// Compute threads of the single-process trainer: never more than the host
/// has cores, never more than two (the size the shapes were tuned on).
pub fn train_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// What one repetition measured.
pub struct Rep {
    /// Nothing → warm system, seconds.
    pub setup_s: f64,
    /// Every full window of the timed segment.
    pub windows: Vec<Window>,
    /// Every operation's output as `f64` bits, from the first warm-up
    /// operation on: losses (rank-interleaved on `Dist`) or logits (widened
    /// exactly). An operation that returned an error reads NaN.
    pub outputs: Vec<u64>,
}

/// A fresh single-process model on `train_threads()` workers, worker `i`
/// pinned to vCPU `i`.
pub fn new_model(w: &Workload) -> DlrmModel {
    let cores: Vec<usize> = (0..train_threads()).collect();
    DlrmModel::new(
        &w.cfg,
        Execution::Optimized(Arc::new(ThreadPool::with_affinity(&cores))),
        UpdateStrategy::RaceFree,
        PrecisionMode::Fp32,
        MODEL_SEED,
    )
}

/// One repetition of a single-process training workload.
pub fn single_rep(w: &Workload, batches: &[MiniBatch], budget: Duration) -> Rep {
    let t0 = Instant::now();
    let mut model = new_model(w);
    let mut outputs = Vec::new();
    for b in &batches[..WARM_STEPS] {
        outputs.push(model.train_step(b, LR).to_bits());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut win = Windows::start(w.steps_per_window, w.batch);
    let start = Instant::now();
    while start.elapsed() < budget {
        let loss = model.train_step(&batches[outputs.len() % batches.len()], LR);
        win.tick();
        outputs.push(loss.to_bits());
    }
    Rep {
        setup_s,
        windows: win.done,
        outputs,
    }
}

/// The options `train_dist` runs under: the defaults, one compute thread
/// per rank so two ranks fill two cores.
pub fn dist_options() -> DistOptions {
    DistOptions {
        threads_per_rank: 1,
        seed: MODEL_SEED,
        ..DistOptions::default()
    }
}

/// Runs `body(rank_model)` on `RANKS` thread-ranks wired like
/// `dlrm_dist::run_training` (blocking world + a two-worker progress
/// engine per rank) and returns the per-rank results. Rank `r` and every
/// thread it spawns live on vCPU `r`, one rank per core as the paper runs
/// one rank per socket. Every world records its traffic into `wire` when
/// one is given.
pub fn with_dist_ranks<T: Send>(
    w: &Workload,
    opts: &DistOptions,
    wire: Option<Arc<WireStats>>,
    body: impl Fn(&mut DistDlrm) -> T + Send + Sync,
) -> Vec<T> {
    let backend = Backend::CclLike { workers: 2 };
    let comms = CommWorld::create_with_opts(RANKS, None, wire.clone());
    let worlds = create_channel_worlds_with_opts(RANKS, backend, None, wire);
    std::thread::scope(|s| {
        let ranks: Vec<_> = comms
            .into_iter()
            .zip(worlds)
            .map(|(comm, channels)| {
                let body = &body;
                s.spawn(move || {
                    pin_to(comm.rank());
                    let engine = ProgressEngine::new(backend, channels);
                    body(&mut DistDlrm::new(&w.cfg, comm, Some(engine), opts))
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Calls `step(model)` in windows of `w.steps_per_window` until rank 0 has
/// seen `budget` elapse or another window would pass `max_steps`. Ranks
/// agree on the stop at window boundaries — rank 0 raises `stop`, a
/// barrier publishes it — so every rank runs the same number of steps.
pub fn dist_segment(
    w: &Workload,
    model: &mut DistDlrm,
    budget: Duration,
    max_steps: usize,
    stop: &AtomicBool,
    mut step: impl FnMut(&mut DistDlrm),
) -> Vec<Window> {
    let mut win = Windows::start(w.steps_per_window, w.batch);
    let start = Instant::now();
    let mut done = 0;
    loop {
        for _ in 0..w.steps_per_window {
            step(model);
            win.tick();
        }
        done += w.steps_per_window;
        let over = start.elapsed() >= budget || done + w.steps_per_window > max_steps;
        if model.rank() == 0 && over {
            stop.store(true, Ordering::SeqCst);
        }
        model.comm_barrier();
        if stop.load(Ordering::SeqCst) {
            // Second barrier, then rank 0 lowers the flag for the next
            // segment: every rank has read it, and none reads it again
            // before that segment's first barrier.
            model.comm_barrier();
            if model.rank() == 0 {
                stop.store(false, Ordering::SeqCst);
            }
            return win.done;
        }
    }
}

/// One repetition of the distributed training workload.
pub fn dist_rep(w: &Workload, batches: &[MiniBatch], budget: Duration) -> Rep {
    let t0 = Instant::now();
    let stop = AtomicBool::new(false);
    let mut per_rank = with_dist_ranks(w, &dist_options(), None, |model| {
        let mut losses = Vec::new();
        for b in &batches[..WARM_STEPS] {
            losses.push(model.train_step(b, LR));
        }
        model.comm_barrier();
        let setup_s = t0.elapsed().as_secs_f64();
        let windows = dist_segment(w, model, budget, usize::MAX, &stop, |m| {
            losses.push(m.train_step(&batches[losses.len() % batches.len()], LR));
        });
        (setup_s, windows, losses)
    });
    let steps = per_rank[0].2.len();
    let outputs = (0..steps)
        .flat_map(|s| per_rank.iter().map(move |r| r.2[s].to_bits()))
        .collect();
    let (setup_s, windows, _) = per_rank.swap_remove(0);
    Rep {
        setup_s,
        windows,
        outputs,
    }
}

/// Keeps `DEPTH` requests outstanding from the calling thread, cycling
/// through `pool` from `*next`, while `more()` allows another submission;
/// then drains. `done` sees every outcome in submission order.
pub fn closed_loop(
    client: &ServeClient,
    pool: &[Request],
    next: &mut usize,
    mut more: impl FnMut() -> bool,
    mut done: impl FnMut(Result<Response, String>),
) {
    let mut inflight = VecDeque::with_capacity(DEPTH);
    loop {
        while inflight.len() < DEPTH && more() {
            inflight.push_back(client.submit(pool[*next % pool.len()].clone()));
            *next += 1;
        }
        match inflight.pop_front() {
            Some(handle) => done(handle.and_then(|h| h.wait())),
            None => return,
        }
    }
}

/// A serving model whose one GEMM worker sits on the engine's vCPU.
pub fn new_serve_model(w: &Workload, cache: CacheSizing) -> ServeModel {
    let exec = Execution::Optimized(Arc::new(ThreadPool::with_affinity(&[ENGINE_CORE])));
    ServeModel::new(&w.cfg, exec, cache, MODEL_SEED)
}

/// Runs `f` on a thread pinned to `core` and returns its result. Threads
/// `f` spawns inherit the pin — the way to place an engine's own threads —
/// and the caller's affinity is left alone.
pub fn on_core<T: Send>(core: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_to(core);
            f()
        })
        .join()
        .expect("pinned thread panicked")
    })
}

/// A warm default engine over `w`'s model, living on the engine's vCPU;
/// `done` sees the warm-up requests' outcomes. Returns the engine and the
/// index of the next request of `pool`. Call from the generator's thread.
pub fn warm_engine(
    w: &Workload,
    cache: CacheSizing,
    pool: &[Request],
    done: impl FnMut(Result<Response, String>),
) -> (ServeEngine, usize) {
    let engine = on_core(ENGINE_CORE, || {
        ServeEngine::start(new_serve_model(w, cache), ServeConfig::default())
    });
    let next = warm_up(&engine.client(), pool, done);
    (engine, next)
}

/// Sends the `WARM_REQUESTS` warm-up requests through `client`; returns the
/// index of the next request of `pool`.
pub fn warm_up(
    client: &ServeClient,
    pool: &[Request],
    done: impl FnMut(Result<Response, String>),
) -> usize {
    let (mut next, mut sent) = (0, 0);
    let more = || {
        sent += 1;
        sent <= WARM_REQUESTS
    };
    closed_loop(client, pool, &mut next, more, done);
    next
}

/// A response's logit as `f64` bits; NaN for a failed request.
pub fn output_bits(outcome: Result<Response, String>) -> u64 {
    outcome
        .map_or(f64::NAN, |resp| f64::from(resp.logit))
        .to_bits()
}

/// One repetition of the serving workload. Call from the generator's
/// thread.
pub fn serve_rep(w: &Workload, pool: &[Request], budget: Duration) -> Rep {
    let t0 = Instant::now();
    let mut outputs = Vec::new();
    let (engine, mut next) = warm_engine(w, CACHE, pool, |r| outputs.push(output_bits(r)));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut win = Windows::start(w.requests_per_window, 1);
    let start = Instant::now();
    closed_loop(
        &engine.client(),
        pool,
        &mut next,
        || start.elapsed() < budget,
        |r| {
            win.tick();
            outputs.push(output_bits(r));
        },
    );
    drop(engine.shutdown());
    Rep {
        setup_s,
        windows: win.done,
        outputs,
    }
}

/// Losses of a single-process twin over the first `steps` global batches —
/// what the mean of `train_dist`'s rank-local losses must reproduce within
/// the tolerance of `distributed_matches_single_process_every_strategy`.
pub fn single_process_losses(w: &Workload, batches: &[MiniBatch], steps: usize) -> Vec<f64> {
    let mut model = new_model(w);
    batches[..steps]
        .iter()
        .map(|b| model.train_step(b, LR))
        .collect()
}

/// Logits (as `f64` bits) of an uncached `ServeModel::forward` on
/// `pool[id]` served alone, for every id in `ids`.
pub fn reference_logits(w: &Workload, pool: &[Request], ids: &[usize]) -> Vec<u64> {
    let mut model = new_serve_model(w, CacheSizing::Disabled);
    ids.iter()
        .map(|&id| {
            let alone = requests_as_batch(&w.cfg, std::slice::from_ref(&pool[id]));
            let logit = model.forward(&alone)[0];
            f64::from(logit).to_bits()
        })
        .collect()
}
