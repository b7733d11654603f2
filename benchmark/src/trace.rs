//! The traced run: every layer measured on the workload's own model and
//! traffic, from the benchmark's side of each layer's public functions.
//!
//! One invocation measures all layers — the single-process step ledger,
//! the collectives, the two-rank trainer, the serving stack, the host
//! ceilings — whichever workload is named; the workload picks the shapes.
//! Each section gets a share of `--seconds`. Nothing measured here feeds
//! an end-to-end metric.

use crate::host::{peak_fma_gflops, Triad};
use crate::metrics::{Outcome, Values};
use crate::run::{
    closed_loop, dist_options, dist_segment, new_model, new_serve_model, on_core, train_threads,
    warm_engine, warm_up, with_dist_ranks, CACHE, ENGINE_CORE, GENERATOR_CORE, RANKS, WARM_STEPS,
};
use crate::spans::Tracer;
use crate::stats::{median, quantile_sorted, quiet_median, sorted, Window, Windows};
use crate::workload::{
    requests_as_batch, Kind, Workload, BATCH_POOL, LR, MODEL_SEED, REQUEST_POOL,
};
use dlrm::model::DlrmModel;
use dlrm_comm::collectives::{allreduce_sum, alltoall};
use dlrm_comm::nonblocking::create_channel_worlds;
use dlrm_comm::{
    Backend, CommWorld, Communicator, OpKind, ProgressEngine, TimingRecorder, WirePrecision,
    WireStats,
};
use dlrm_data::{LookaheadWindow, MiniBatch};
use dlrm_dist::exchange::{backward_exchange, forward_exchange, tables_of};
use dlrm_dist::{DistOptions, ExchangeStrategy, Prefetch, Schedule};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
use dlrm_kernels::ThreadPool;
use dlrm_serve::{
    CacheSizing, HotRowCache, MicroBatcher, Request, ServeClient, ServeConfig, ServeEngine,
    ServeModel, ShardSpec, ShardedEngine, ShardedServeModel,
};
use dlrm_tensor::Matrix;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Output checks of the traced run, counted like the untraced run's.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Quiet-window throughput with and without tracing, same system.
struct Pair {
    traced: f64,
    untraced: f64,
}

impl Pair {
    /// From windows that alternate traced, untraced, traced, …
    fn of_alternating(windows: &[Window]) -> Self {
        let every_other = |from: usize| -> Vec<Window> {
            windows.iter().skip(from).step_by(2).copied().collect()
        };
        Pair {
            traced: quiet_median(&every_other(0)),
            untraced: quiet_median(&every_other(1)),
        }
    }
}

/// The parts of one single-process train step, in execution order; each is
/// a span `dlrm.<part>` and a metric `dlrm.<part>_ms`.
const STEP_PARTS: [(&str, &str); 10] = [
    ("dlrm.bottom_fwd", "dlrm.bottom_fwd_ms"),
    ("dlrm.emb_fwd", "dlrm.emb_fwd_ms"),
    ("dlrm.interaction_fwd", "dlrm.interaction_fwd_ms"),
    ("dlrm.top_fwd", "dlrm.top_fwd_ms"),
    ("dlrm.loss", "dlrm.loss_ms"),
    ("dlrm.top_bwd", "dlrm.top_bwd_ms"),
    ("dlrm.interaction_bwd", "dlrm.interaction_bwd_ms"),
    ("dlrm.emb_bwd_update", "dlrm.emb_bwd_update_ms"),
    ("dlrm.bottom_bwd", "dlrm.bottom_bwd_ms"),
    ("dlrm.mlp_sgd", "dlrm.mlp_sgd_ms"),
];

/// `DlrmModel::train_step` (FP32 path) re-assembled from the model's public
/// parts, one span per call. Must stay bitwise equal to the original; the
/// ledger checks that on every step.
fn traced_step(model: &mut DlrmModel, batch: &MiniBatch, op: u64, t: &mut Tracer) -> f64 {
    let exec = model.exec.clone();
    let n = batch.batch_size();
    t.span("dlrm.step", op, |t| {
        let z0 = t.span("dlrm.bottom_fwd", op, |_| {
            model.bottom.forward(&exec, &batch.dense)
        });
        let outs: Vec<Matrix> = t.span("dlrm.emb_fwd", op, |_| {
            model
                .tables
                .iter_mut()
                .enumerate()
                .map(|(i, layer)| layer.forward(&exec, &batch.indices[i], &batch.offsets[i]))
                .collect()
        });
        let inter = t.span("dlrm.interaction_fwd", op, |_| {
            model.interaction.forward(&exec, &z0, &outs)
        });
        let logits = t.span("dlrm.top_fwd", op, |_| {
            model.top.forward(&exec, &inter).as_slice().to_vec()
        });
        let (loss, dlogits) = t.span("dlrm.loss", op, |_| {
            let loss = bce_with_logits_loss(&logits, &batch.labels);
            let mut g = vec![0.0f32; n];
            bce_with_logits_backward(&logits, &batch.labels, &mut g);
            (loss, Matrix::from_slice(1, n, &g))
        });
        let d_inter = t.span("dlrm.top_bwd", op, |_| model.top.backward(&exec, dlogits));
        let (d_bottom, d_tables) = t.span("dlrm.interaction_bwd", op, |_| {
            model.interaction.backward(&d_inter)
        });
        t.span("dlrm.emb_bwd_update", op, |_| {
            for (layer, grad) in model.tables.iter_mut().zip(&d_tables) {
                layer.backward_update(&exec, grad, LR);
            }
        });
        t.span("dlrm.bottom_bwd", op, |_| {
            let _ = model.bottom.backward(&exec, d_bottom);
        });
        t.span("dlrm.mlp_sgd", op, |_| {
            model.bottom.sgd_step(&exec, LR);
            model.top.sgd_step(&exec, LR);
        });
        loss
    })
}

/// The single-process ledger: a traced model and an untraced twin take the
/// same batches in alternating windows.
fn ledger(
    w: &Workload,
    batches: &[MiniBatch],
    budget: Duration,
    tracer: &mut Tracer,
    v: &mut Values,
    checks: &mut Checks,
) -> Pair {
    let (mut traced, mut twin) = (new_model(w), new_model(w));
    let mut warmup = Tracer::new(Instant::now());
    for (i, b) in batches[..WARM_STEPS].iter().enumerate() {
        let loss = traced_step(&mut traced, b, i as u64, &mut warmup);
        checks.check(loss.to_bits() == twin.train_step(b, LR).to_bits());
    }

    let (mut traced_windows, mut twin_windows) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut step = WARM_STEPS;
    while start.elapsed() < budget {
        let window = step..step + w.steps_per_window;
        let mut win = Windows::start(w.steps_per_window, w.batch);
        let losses: Vec<u64> = window
            .clone()
            .map(|s| {
                let loss = traced_step(&mut traced, &batches[s % batches.len()], s as u64, tracer);
                win.tick();
                loss.to_bits()
            })
            .collect();
        traced_windows.extend(win.done);
        let mut win = Windows::start(w.steps_per_window, w.batch);
        for (s, traced_loss) in window.zip(losses) {
            let loss = twin.train_step(&batches[s % batches.len()], LR);
            win.tick();
            checks.check(loss.to_bits() == traced_loss && loss.is_finite());
        }
        twin_windows.extend(win.done);
        step += w.steps_per_window;
    }

    for (span, metric) in STEP_PARTS {
        v.set(metric, median(&tracer.ms_of(span)));
    }
    let step_ms = median(&tracer.ms_of("dlrm.step"));
    v.set("dlrm.step_ms", step_ms);
    let share = |names: &[&str]| names.iter().map(|n| v.get(n)).sum::<f64>() / step_ms;
    let mlp = share(&[
        "dlrm.bottom_fwd_ms",
        "dlrm.top_fwd_ms",
        "dlrm.top_bwd_ms",
        "dlrm.bottom_bwd_ms",
        "dlrm.mlp_sgd_ms",
    ]);
    let emb = share(&["dlrm.emb_fwd_ms", "dlrm.emb_bwd_update_ms"]);
    v.set("dlrm.mlp_share", mlp);
    v.set("dlrm.emb_share", emb);
    v.set(
        "dlrm.ledger_residual_share",
        median(&tracer.self_share_of("dlrm.step")),
    );
    v.set(
        "dlrm.mlp_scratch_mb",
        traced.mlp_scratch_bytes() as f64 / 1e6,
    );
    v.set(
        "dlrm.emb_scratch_mb",
        traced.embedding_scratch_bytes() as f64 / 1e6,
    );
    println!("ledger: medians over {} traced steps", step - WARM_STEPS);
    Pair {
        traced: quiet_median(&traced_windows),
        untraced: quiet_median(&twin_windows),
    }
}

/// Kernel rates derived from the ledger's spans and the model's computed
/// FLOP and byte counts (computed from shapes, not measured traffic).
fn kernel_rates(w: &Workload, v: &mut Values, fma_gflops: f64, triad_gbps: f64) {
    let flops = w.cfg.mlp_flops_per_iter(w.batch) as f64;
    let fwd_s = (v.get("dlrm.bottom_fwd_ms") + v.get("dlrm.top_fwd_ms")) / 1e3;
    let bwd_s = (v.get("dlrm.bottom_bwd_ms") + v.get("dlrm.top_bwd_ms")) / 1e3;
    v.set("kernels.gemm_fwd_gflops", flops / 3.0 / fwd_s / 1e9);
    v.set("kernels.gemm_bwd_gflops", flops * 2.0 / 3.0 / bwd_s / 1e9);
    v.set(
        "kernels.gemm_roofline_share",
        flops / (fwd_s + bwd_s) / 1e9 / fma_gflops,
    );
    // SGD streams each parameter and its gradient in and the parameter out.
    let sgd_bytes = (w.cfg.mlp_param_count() * 3 * 4) as f64;
    v.set(
        "kernels.sgd_gbps",
        sgd_bytes / (v.get("dlrm.mlp_sgd_ms") / 1e3) / 1e9,
    );
    let emb_bytes = w.cfg.embedding_bytes_per_iter(w.batch) as f64;
    let gather_s = v.get("dlrm.emb_fwd_ms") / 1e3;
    let update_s = v.get("dlrm.emb_bwd_update_ms") / 1e3;
    v.set("kernels.emb_gather_gbps", emb_bytes / 3.0 / gather_s / 1e9);
    v.set(
        "kernels.emb_update_gbps",
        emb_bytes * 2.0 / 3.0 / update_s / 1e9,
    );
    v.set(
        "kernels.emb_roofline_share",
        emb_bytes / (gather_s + update_s) / 1e9 / triad_gbps,
    );
}

/// Median round trip of an empty broadcast on a pool of the trainer's size.
fn pool_dispatch_us() -> f64 {
    let pool = ThreadPool::new(train_threads());
    let us: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            pool.broadcast(|_| {});
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us[100..])
}

/// Times `call(prep())` repeatedly on every rank of a world. Rank 0 sizes
/// the repeat count from the first call so the probe fits `budget`, and a
/// barrier publishes it. Returns this rank's milliseconds per call.
fn probe<P>(
    comm: &Communicator,
    iters: &AtomicUsize,
    budget: Duration,
    mut prep: impl FnMut() -> P,
    mut call: impl FnMut(P),
) -> Vec<f64> {
    let mut timed = || {
        let input = prep();
        let t = Instant::now();
        call(input);
        t.elapsed().as_secs_f64() * 1e3
    };
    let first_ms = timed();
    if comm.rank() == 0 {
        let fit = budget.as_secs_f64() * 1e3 / first_ms.max(1e-3);
        iters.store((fit as usize).clamp(10, 2000), Ordering::SeqCst);
    }
    comm.barrier();
    let n = iters.load(Ordering::SeqCst);
    let ms = (0..n).map(|_| timed()).collect();
    comm.barrier();
    ms
}

/// Direct collectives and embedding exchanges on a fresh two-rank world, at
/// the message sizes the workload's model gives a two-rank trainer.
fn comm_probes(w: &Workload, budget: Duration, tracer: &mut Tracer, v: &mut Values) {
    let backend = Backend::CclLike { workers: 2 };
    let comms = CommWorld::create(RANKS);
    let worlds = create_channel_worlds(RANKS, backend);
    let grads = w.cfg.mlp_param_count() as usize;
    let (local_n, e, tables) = (w.batch / RANKS, w.cfg.emb_dim, w.cfg.num_tables);
    let iters = AtomicUsize::new(0);
    let origin = Instant::now();

    let per_rank: Vec<Vec<(&'static str, Vec<f64>)>> = std::thread::scope(|s| {
        let ranks: Vec<_> = comms
            .into_iter()
            .zip(worlds)
            .map(|(comm, channels)| {
                let iters = &iters;
                s.spawn(move || {
                    crate::host::pin_to(comm.rank());
                    let engine = ProgressEngine::new(backend, channels);
                    let mine = tables_of(tables, RANKS, comm.rank()).len();
                    let pair_len = local_n * mine * e;
                    let send = || vec![vec![1.0f32; pair_len]; RANKS];
                    let outs: Vec<Matrix> = (0..mine)
                        .map(|_| Matrix::from_fn(local_n * RANKS, e, |r, c| (r + c) as f32))
                        .collect();
                    let d_tables: Vec<Matrix> = (0..tables)
                        .map(|_| Matrix::from_fn(local_n, e, |r, c| (r + c) as f32))
                        .collect();
                    let strategy = ExchangeStrategy::Alltoall;
                    vec![
                        (
                            "comm.allreduce_ms",
                            probe(
                                &comm,
                                iters,
                                budget,
                                || vec![1.0f32; grads],
                                |mut g| allreduce_sum(&comm, &mut g),
                            ),
                        ),
                        (
                            "comm.alltoall_ms",
                            probe(&comm, iters, budget, send, |s| drop(alltoall(&comm, s))),
                        ),
                        (
                            "comm.engine_allreduce_ms",
                            probe(
                                &comm,
                                iters,
                                budget,
                                || vec![1.0f32; grads],
                                |g| drop(engine.allreduce(0, g).wait()),
                            ),
                        ),
                        (
                            "comm.engine_alltoall_ms",
                            probe(&comm, iters, budget, send, |s| {
                                drop(engine.alltoall(1, s).wait())
                            }),
                        ),
                        (
                            "comm.barrier_us",
                            probe(&comm, iters, budget / 4, || (), |()| comm.barrier()),
                        ),
                        (
                            "dlrm-dist.fwd_exchange_ms",
                            probe(
                                &comm,
                                iters,
                                budget,
                                || (),
                                |()| {
                                    drop(forward_exchange(
                                        strategy,
                                        &comm,
                                        Some(&engine),
                                        &outs,
                                        tables,
                                        local_n,
                                        e,
                                        WirePrecision::Fp32,
                                    ))
                                },
                            ),
                        ),
                        (
                            "dlrm-dist.bwd_exchange_ms",
                            probe(
                                &comm,
                                iters,
                                budget,
                                || (),
                                |()| {
                                    drop(backward_exchange(
                                        strategy,
                                        &comm,
                                        Some(&engine),
                                        &d_tables,
                                        tables,
                                        local_n,
                                        e,
                                        WirePrecision::Fp32,
                                    ))
                                },
                            ),
                        ),
                    ]
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("probe rank panicked"))
            .collect()
    });
    for (name, ms) in &per_rank[0] {
        let scale = if name.ends_with("_us") { 1e3 } else { 1.0 };
        v.set(name, median(ms) * scale);
    }
    tracer.closed_span("comm.probes", 0, origin);
}

/// Per-step means of one rank's recorder, in milliseconds, in
/// `DIST_KINDS` order.
const DIST_KINDS: [(OpKind, &str); 5] = [
    (OpKind::Compute, "dlrm-dist.compute_ms"),
    (OpKind::AlltoallFramework, "dlrm-dist.alltoall_framework_ms"),
    (OpKind::AlltoallWait, "dlrm-dist.alltoall_wait_ms"),
    (
        OpKind::AllreduceFramework,
        "dlrm-dist.allreduce_framework_ms",
    ),
    (OpKind::AllreduceWait, "dlrm-dist.allreduce_wait_ms"),
];

/// What one rank of the default trainer reports back.
struct DistRank {
    /// Alternating: even windows ran with the recorder attached.
    windows: Vec<Window>,
    /// Seconds of every traced step.
    step_s: Vec<f64>,
    kinds_ms: Vec<f64>,
    scratch_bytes: usize,
    steps: usize,
    tracer: Tracer,
}

/// The two-rank trainer under its default options, its recorder attached
/// for every other segment.
fn dist_default(
    w: &Workload,
    batches: &[MiniBatch],
    budget: Duration,
    tracer: &mut Tracer,
    v: &mut Values,
    checks: &mut Checks,
) -> Pair {
    let origin = tracer.origin;
    let wire = Arc::new(WireStats::new());
    let stop = AtomicBool::new(false);
    let mut ranks = with_dist_ranks(w, &dist_options(), Some(Arc::clone(&wire)), |model| {
        let rec = Arc::new(TimingRecorder::new());
        let mut tracer = Tracer::new(origin);
        for b in &batches[..WARM_STEPS] {
            model.train_step(b, LR);
        }
        model.comm_barrier();
        if model.rank() == 0 {
            wire.reset();
        }
        model.comm_barrier();
        let (mut step_s, mut steps, mut finite) = (Vec::new(), WARM_STEPS, true);
        // Windows alternate: recorder attached, recorder detached, …
        let windows = dist_segment(w, model, budget, usize::MAX, &stop, |m| {
            let step = steps - WARM_STEPS;
            let on = (step / w.steps_per_window).is_multiple_of(2);
            if step.is_multiple_of(w.steps_per_window) {
                m.set_recorder(on.then(|| Arc::clone(&rec)));
            }
            let t = Instant::now();
            let loss = m.train_step(&batches[steps % batches.len()], LR);
            if on {
                step_s.push(t.elapsed().as_secs_f64());
                tracer.closed_span("dlrm-dist.step", steps as u64, t);
            }
            finite &= loss.is_finite();
            steps += 1;
        });
        let snapshot = rec.snapshot();
        let kinds_ms = DIST_KINDS
            .iter()
            .map(|(kind, _)| {
                snapshot.get(kind).map_or(0.0, Duration::as_secs_f64) * 1e3 / step_s.len() as f64
            })
            .collect();
        (
            DistRank {
                windows,
                step_s,
                kinds_ms,
                scratch_bytes: model.scratch_bytes(),
                steps: steps - WARM_STEPS,
                tracer,
            },
            finite,
        )
    });
    for (_, finite) in &ranks {
        checks.check(*finite);
    }
    let (r0, _) = ranks.swap_remove(0);
    let (r1, _) = ranks.swap_remove(0);

    let mean_step_ms = (median(&r0.step_s) + median(&r1.step_s)) / 2.0 * 1e3;
    v.set("dlrm-dist.step_ms", mean_step_ms);
    for (i, (_, name)) in DIST_KINDS.iter().enumerate() {
        v.set(name, (r0.kinds_ms[i] + r1.kinds_ms[i]) / 2.0);
    }
    v.set(
        "dlrm-dist.exposed_comm_share",
        (v.get("dlrm-dist.alltoall_wait_ms") + v.get("dlrm-dist.allreduce_wait_ms")) / mean_step_ms,
    );
    let skew: Vec<f64> = r0
        .step_s
        .iter()
        .zip(&r1.step_s)
        .map(|(a, b)| (a - b).abs() * 1e3 / mean_step_ms)
        .collect();
    v.set("dlrm-dist.rank_skew_share", median(&skew));
    v.set("dlrm-dist.scratch_mb", r0.scratch_bytes as f64 / 1e6);
    let sent = wire.snapshot();
    v.set(
        "comm.allreduce_bytes_per_step",
        sent.allreduce_bytes() as f64 / r0.steps as f64,
    );
    v.set(
        "comm.alltoall_bytes_per_step",
        sent.alltoall_bytes as f64 / r0.steps as f64,
    );
    tracer.absorb(r0.tracer);
    Pair::of_alternating(&r0.windows)
}

/// Window-median throughput of the two-rank trainer under other options.
fn dist_variant(w: &Workload, batches: &[MiniBatch], budget: Duration, opts: &DistOptions) -> f64 {
    let stop = AtomicBool::new(false);
    // The lookahead window walks a finite stream once: twice the pool.
    let stream: Vec<MiniBatch> = batches.iter().chain(batches).cloned().collect();
    let ranks = with_dist_ranks(w, opts, None, |model| {
        let mut win = LookaheadWindow::new(&stream, 2);
        let mut step = |m: &mut dlrm_dist::DistDlrm| {
            match opts.prefetch {
                Prefetch::Off => m.train_step(win.current(), LR),
                Prefetch::Lookahead { .. } => m.train_step_lookahead(&win, LR),
            };
            win.advance();
        };
        // A short warm-up: a variant an order of magnitude slower than the
        // default (lookahead on uniform indices) must not eat the run.
        const WARM: usize = 4;
        for _ in 0..WARM {
            step(model);
        }
        model.comm_barrier();
        let left = stream.len() - WARM;
        dist_segment(w, model, budget, left, &stop, step)
    });
    quiet_median(&ranks[0])
}

/// Median microseconds of `f` over repeated calls within `budget`.
fn median_us(budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut us = Vec::new();
    while start.elapsed() < budget || us.len() < 10 {
        let t = Instant::now();
        f(us.len());
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Direct calls into the serving layers, one thread, no engine.
fn serve_probes(
    w: &Workload,
    pool: &[Request],
    budget: Duration,
    model: &mut ServeModel,
    v: &mut Values,
) {
    let max_batch = ServeConfig::default().max_batch;
    let full: Vec<MiniBatch> = pool
        .chunks_exact(max_batch)
        .take(256)
        .map(|c| requests_as_batch(&w.cfg, c))
        .collect();
    let ones: Vec<MiniBatch> = pool[..256]
        .chunks(1)
        .map(|c| requests_as_batch(&w.cfg, c))
        .collect();
    v.set(
        "serve.forward_b32_us_per_req",
        median_us(budget / 3, |i| drop(model.forward(&full[i % full.len()]))) / max_batch as f64,
    );
    v.set(
        "serve.forward_b1_us",
        median_us(budget / 3, |i| drop(model.forward(&ones[i % ones.len()]))),
    );

    // The hot-row cache alone, on table 0's index stream of this traffic.
    let table = DlrmModel::build_table(&w.cfg, 0, UpdateStrategy::RaceFree, MODEL_SEED);
    let rows = table.rows().div_ceil(100); // the 1 % of `CACHE`
    let mut cache = HotRowCache::new(rows, table.dim());
    let stream: Vec<u32> = pool
        .iter()
        .flat_map(|r| r.indices[0].iter().copied())
        .collect();
    for &row in &stream {
        std::hint::black_box(cache.get_or_admit(row, &table.weight));
    }
    let t = Instant::now();
    for &row in &stream {
        std::hint::black_box(cache.get_or_admit(row, &table.weight));
    }
    v.set(
        "serve.cache_get_ns",
        t.elapsed().as_secs_f64() * 1e9 / stream.len() as f64,
    );

    // The micro-batcher alone: fill one batch and take it, same thread.
    let batcher: MicroBatcher<u64> = MicroBatcher::new();
    let window = ServeConfig::default().window;
    v.set(
        "serve.batcher_roundtrip_us",
        median_us(budget / 6, |_| {
            for i in 0..max_batch as u64 {
                batcher.push(i);
            }
            std::hint::black_box(batcher.next_batch(max_batch, window));
        }),
    );
}

/// Closed-loop throughput of a warm engine behind `client` for `budget`.
fn closed_qps(
    w: &Workload,
    client: &ServeClient,
    pool: &[Request],
    next: &mut usize,
    budget: Duration,
    checks: &mut Checks,
) -> f64 {
    let mut win = Windows::start(w.requests_per_window, 1);
    let start = Instant::now();
    closed_loop(
        client,
        pool,
        next,
        || start.elapsed() < budget,
        |r| {
            win.tick();
            checks.check(r.is_ok_and(|resp| resp.logit.is_finite()));
        },
    );
    quiet_median(&win.done)
}

/// The default engine under the workload's closed loop, every other
/// window with one span per request; then the engine's own report.
fn serve_closed(
    w: &Workload,
    pool: &[Request],
    model: ServeModel,
    budget: Duration,
    tracer: &mut Tracer,
    v: &mut Values,
    checks: &mut Checks,
) -> Pair {
    let engine = on_core(ENGINE_CORE, || {
        ServeEngine::start(model, ServeConfig::default())
    });
    let client = engine.client();
    let mut next = warm_up(&client, pool, |r| checks.check(r.is_ok()));
    // Windows alternate: a span per request, no spans, … Requests complete
    // in submission order, so request i falls in window i / size on both
    // sides; the submit time of every traced request is kept until its
    // response is taken.
    let size = w.requests_per_window;
    let submitted = std::cell::RefCell::new(std::collections::VecDeque::new());
    let mut win = Windows::start(size, 1);
    let (mut sent, mut taken) = (0, 0);
    let start = Instant::now();
    closed_loop(
        &client,
        pool,
        &mut next,
        || {
            let more = start.elapsed() < budget;
            if more && (sent / size).is_multiple_of(2) {
                submitted.borrow_mut().push_back(Instant::now());
            }
            sent += usize::from(more);
            more
        },
        |r| {
            if (taken / size).is_multiple_of(2) {
                let at = submitted.borrow_mut().pop_front();
                tracer.closed_span(
                    "serve.request",
                    taken as u64,
                    at.expect("a submit per response"),
                );
            }
            taken += 1;
            win.tick();
            checks.check(r.is_ok());
        },
    );
    let report = engine.shutdown();
    let shard = &report.shards[0];
    let (hits, lookups) = report
        .cache_stats
        .iter()
        .flatten()
        .fold((0, 0), |(h, l), s| (h + s.hits, l + s.hits + s.misses));
    let latencies = sorted(
        &report
            .latencies_us
            .iter()
            .map(|&us| us as f64)
            .collect::<Vec<_>>(),
    );
    v.set("serve.mean_batch", report.mean_batch());
    v.set("serve.queue_depth_hwm", shard.queue_depth_hwm as f64);
    v.set("serve.cache_hit_rate", hits as f64 / lookups.max(1) as f64);
    v.set("serve.latency_p50_us", quantile_sorted(&latencies, 0.5));
    v.set("serve.latency_p99_us", quantile_sorted(&latencies, 0.99));
    let pair = Pair::of_alternating(&win.done);
    v.set("serve.closed_qps", pair.untraced);
    pair
}

/// Open loop at `rate` requests per second from one thread: each request
/// is due on a fixed schedule and timed from when it was due, so a stall
/// charges every request it delays.
fn serve_open(
    w: &Workload,
    pool: &[Request],
    rate: f64,
    budget: Duration,
    v: &mut Values,
    checks: &mut Checks,
) {
    let (engine, first) = warm_engine(w, CACHE, pool, |r| checks.check(r.is_ok()));
    let client = engine.client();
    let count = (rate * budget.as_secs_f64()) as usize;
    let gap = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut late_us = Vec::with_capacity(count);
    let handles: Vec<_> = (0..count)
        .map(|i| {
            let due = start + gap * i as u32;
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
            client.submit(pool[(first + i) % pool.len()].clone())
        })
        .collect();
    let mut from_due_us = Vec::with_capacity(count);
    for (handle, late) in handles.into_iter().zip(&late_us) {
        let outcome = handle.and_then(|h| h.wait());
        checks.check(outcome.is_ok());
        if let Ok(resp) = outcome {
            from_due_us.push(late + resp.latency.as_secs_f64() * 1e6);
        }
    }
    drop(engine.shutdown());
    let from_due_us = sorted(&from_due_us);
    println!(
        "open loop: {count} requests at {rate} req/s, p99 has {} samples beyond it",
        count / 100
    );
    v.set("serve.open_p50_us", quantile_sorted(&from_due_us, 0.5));
    v.set("serve.open_p99_us", quantile_sorted(&from_due_us, 0.99));
    v.set(
        "serve.open_late_max_us",
        late_us.iter().copied().fold(0.0, f64::max),
    );
}

/// Everything measured on the one-engine serving stack, from the
/// generator's thread: direct calls, closed loop, open loop, no cache.
fn serve_sections(
    w: &Workload,
    pool: &[Request],
    seconds: f64,
    tracer: &mut Tracer,
    v: &mut Values,
    checks: &mut Checks,
) -> Pair {
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let mut model = new_serve_model(w, CACHE);
    serve_probes(w, pool, share(0.06), &mut model, v);
    model.reset_cache_stats();
    let serve = serve_closed(w, pool, model, share(0.12), tracer, v, checks);
    // 8 000 req/s unless this model cannot take it: then half of what the
    // closed loop just sustained, so the open loop settles at some batch
    // size instead of measuring a backlog.
    let rate = (serve.untraced * 0.5).min(8000.0).floor();
    serve_open(w, pool, rate, share(0.10), v, checks);
    let (engine, mut next) =
        warm_engine(w, CacheSizing::Disabled, pool, |r| checks.check(r.is_ok()));
    let uncached = closed_qps(w, &engine.client(), pool, &mut next, share(0.06), checks);
    drop(engine.shutdown());
    v.set("serve.uncached_ratio", uncached / serve.untraced);
    serve
}

pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    // Trace sections are a second or two long: quarter-size windows.
    let w = &Workload {
        steps_per_window: (w.steps_per_window / 4).max(1),
        requests_per_window: w.requests_per_window / 4,
        ..w.clone()
    };
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let threads = train_threads();
    let mut tracer = Tracer::new(Instant::now());
    let mut v = Values::default();
    let mut checks = Checks::default();

    // Host ceilings open and close the run; the better of the two is the
    // ceiling (interference only ever lowers them).
    let mut triad = Triad::new();
    let ceilings = |triad: &mut Triad| {
        (
            peak_fma_gflops(threads, seconds * 0.01),
            triad.gbps(threads, 4),
        )
    };
    let (fma_open, triad_open) = ceilings(&mut triad);
    // Wall seconds per section, set-ups included, printed for whoever has
    // to fit the traced run into a time limit.
    let mut clock = Instant::now();
    let mut lap = |section: &str| {
        println!("section {section}: {:.1} s", clock.elapsed().as_secs_f64());
        clock = Instant::now();
    };

    let t = Instant::now();
    let batches = w.batches(seed, BATCH_POOL);
    v.set(
        "data.batch_gen_ms",
        t.elapsed().as_secs_f64() * 1e3 / BATCH_POOL as f64,
    );
    let pool = w.requests(seed, REQUEST_POOL);

    lap("inputs");
    let single = ledger(w, &batches, share(0.24), &mut tracer, &mut v, &mut checks);
    v.set("kernels.pool_dispatch_us", pool_dispatch_us());
    lap("single-process ledger");

    comm_probes(w, share(0.01), &mut tracer, &mut v);
    lap("collective probes");
    let dist = dist_default(w, &batches, share(0.12), &mut tracer, &mut v, &mut checks);
    lap("two-rank trainer");
    let sync = DistOptions {
        schedule: Schedule::Synchronous,
        ..dist_options()
    };
    let lookahead = DistOptions {
        prefetch: Prefetch::Lookahead { window: 2 },
        ..dist_options()
    };
    v.set(
        "dlrm-dist.sync_schedule_ratio",
        dist_variant(w, &batches, share(0.06), &sync) / dist.untraced,
    );
    v.set(
        "dlrm-dist.lookahead_ratio",
        dist_variant(w, &batches, share(0.06), &lookahead) / dist.untraced,
    );
    v.set(
        "dlrm-dist.vs_single_process_ratio",
        single.untraced / dist.untraced,
    );
    drop(batches);
    lap("two-rank trainer variants");

    let serve = on_core(GENERATOR_CORE, || {
        serve_sections(w, &pool, seconds, &mut tracer, &mut v, &mut checks)
    });
    lap("serving engine");
    // The sharded engine places its own six threads: start it unpinned.
    let spec = ShardSpec {
        shards: 2,
        workers_per_shard: 1,
        pin_cores: false,
        cache: CACHE,
    };
    let engine = ShardedEngine::start(
        ShardedServeModel::new(&w.cfg, &spec, MODEL_SEED),
        ServeConfig::default(),
    );
    let mut next = 0;
    let sharded = closed_qps(
        w,
        &engine.client(),
        &pool,
        &mut next,
        share(0.06),
        &mut checks,
    );
    drop(engine.shutdown());
    v.set("serve.sharded2_ratio", sharded / serve.untraced);
    lap("sharded engine");

    let (fma_close, triad_close) = ceilings(&mut triad);
    let (fma, triad_gbps) = (fma_open.max(fma_close), triad_open.max(triad_close));
    v.set("host.peak_fma_gflops", fma);
    v.set("host.triad_gbps", triad_gbps);
    kernel_rates(w, &mut v, fma, triad_gbps);

    let own = match w.kind {
        Kind::Single => single,
        Kind::Dist => dist,
        Kind::Serve => serve,
    };
    v.set("trace.overhead_share", 1.0 - own.traced / own.untraced);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(w.name)))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("{} spans written to {}", tracer.spans.len(), path.display());
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        values: v,
    }
}
