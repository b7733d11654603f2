//! The default trainer drives its own collectives: under
//! [`ExchangeStrategy::Alltoall`] a [`DistDlrm`] drops any progress engine
//! it is handed and reduces its gradient buckets blocking on the rank
//! thread, while [`ExchangeStrategy::CclAlltoall`] keeps the engine and
//! flies them on progress threads. Engine and blocking buckets are the same
//! ring over the same plan, so all three setups — `Alltoall` handed an
//! engine, `Alltoall` with none, `CclAlltoall` with one — must produce
//! bitwise identical losses and parameter planes, on every allreduce wire
//! and with either embedding front end. The rank driver
//! [`run_ranks`] follows the same rule: it starts an engine exactly under
//! `CclAlltoall`, and one [`WireStats`] handed to it counts the blocking
//! world and every engine channel.

use dlrm_comm::collectives::allreduce_sum;
use dlrm_comm::instrument::{WireSnapshot, WireStats};
use dlrm_comm::nonblocking::{create_channel_worlds, Backend, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::CommWorld;
use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::distributed::{run_ranks, AllreduceWire, DistDlrm, DistOptions, WireConfig};
use dlrm_dist::exchange::ExchangeStrategy;
use dlrm_dist::prefetch::Prefetch;
use dlrm_tensor::init::seeded_rng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The thread census below reads the whole process, so no other test of
/// this binary may hold an engine while it looks.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cfg() -> DlrmConfig {
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

fn batches(cfg: &DlrmConfig, count: usize, seed: u64) -> Vec<MiniBatch> {
    (0..count)
        .map(|i| {
            MiniBatch::random(
                cfg,
                16,
                IndexDistribution::Uniform,
                &mut seeded_rng(seed * 1_000 + i as u64, 5),
            )
        })
        .collect()
}

/// Every trained parameter of one rank as raw bits: both MLPs' weights and
/// biases, then each owned table tagged with its global index.
fn plane_bits(model: &DistDlrm) -> Vec<u64> {
    let mut bits = Vec::new();
    for mlp in [&model.bottom, &model.top] {
        for layer in &mlp.layers {
            bits.extend(
                layer
                    .w
                    .unpack()
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits() as u64),
            );
            bits.extend(layer.b.iter().map(|x| x.to_bits() as u64));
        }
    }
    for (t, layer) in &model.local_tables {
        bits.push(*t as u64);
        bits.extend(layer.weight.as_slice().iter().map(|x| x.to_bits() as u64));
    }
    bits
}

/// Runs `body` on every rank of an `nranks` world with a trainer built
/// from `opts`, handed a two-channel engine when `with_engine`.
fn with_ranks<T: Send>(
    nranks: usize,
    opts: &DistOptions,
    with_engine: bool,
    body: impl Fn(&mut DistDlrm) -> T + Sync,
) -> Vec<T> {
    let backend = Backend::CclLike { workers: 2 };
    let worlds = Mutex::new(create_channel_worlds(nranks, backend));
    CommWorld::run(nranks, |comm| {
        let comms = std::mem::take(&mut worlds.lock().unwrap()[comm.rank()]);
        let engine = with_engine.then(|| ProgressEngine::new(backend, comms));
        body(&mut DistDlrm::new(&cfg(), comm, engine, opts))
    })
}

/// Each rank's (loss bits, parameter-plane bits) after training.
fn fingerprint(
    nranks: usize,
    opts: &DistOptions,
    with_engine: bool,
    stream: &[MiniBatch],
) -> Vec<(Vec<u64>, Vec<u64>)> {
    with_ranks(nranks, opts, with_engine, |model| {
        let losses = match opts.prefetch {
            Prefetch::Off => stream
                .iter()
                .map(|b| model.train_step(b, 0.1).to_bits())
                .collect(),
            Prefetch::Lookahead { window } => {
                let mut win = LookaheadWindow::new(stream, window);
                let mut losses = Vec::new();
                while !win.is_finished() {
                    losses.push(model.train_step_lookahead(&win, 0.1).to_bits());
                    win.advance();
                }
                losses
            }
        };
        (losses, plane_bits(model))
    })
}

/// The allreduce wires under test. The lookahead front end needs FP32
/// alltoalls, so there only the allreduce narrows.
fn wires(prefetch: Prefetch) -> Vec<WireConfig> {
    let allreduce_only = |allreduce| WireConfig {
        allreduce,
        ..WireConfig::default()
    };
    let mut out: Vec<WireConfig> = [
        WirePrecision::Fp32,
        WirePrecision::Bf16,
        WirePrecision::Int8,
    ]
    .into_iter()
    .map(|p| match prefetch {
        Prefetch::Off => WireConfig::all(p),
        Prefetch::Lookahead { .. } => allreduce_only(AllreduceWire::Fixed(p)),
    })
    .collect();
    out.push(allreduce_only(AllreduceWire::Adaptive {
        error_bound: 0.05,
    }));
    out
}

#[test]
fn default_strategy_with_and_without_an_engine_matches_ccl_bitwise() {
    let _serial = serial();
    let cfg = cfg();
    for prefetch in [Prefetch::Off, Prefetch::Lookahead { window: 2 }] {
        for wire in wires(prefetch) {
            for (nranks, seed) in [(2usize, 3u64), (4, 11)] {
                let stream = batches(&cfg, 5, seed);
                let opts = |strategy| DistOptions {
                    strategy,
                    seed,
                    threads_per_rank: 1,
                    bucket_cap_bytes: 128, // several buckets per step
                    wire,
                    prefetch,
                    ..Default::default()
                };
                let ccl = fingerprint(nranks, &opts(ExchangeStrategy::CclAlltoall), true, &stream);
                let handed = fingerprint(nranks, &opts(ExchangeStrategy::Alltoall), true, &stream);
                let none = fingerprint(nranks, &opts(ExchangeStrategy::Alltoall), false, &stream);
                for (rank, ((c, h), n)) in ccl.iter().zip(&handed).zip(&none).enumerate() {
                    let at = format!("{prefetch:?} {wire:?} R={nranks} rank {rank}");
                    assert_eq!(h.0, c.0, "{at}: Alltoall+engine losses vs CclAlltoall");
                    assert_eq!(
                        n.0, c.0,
                        "{at}: Alltoall without engine losses vs CclAlltoall"
                    );
                    assert_eq!(h.1, c.1, "{at}: Alltoall+engine planes vs CclAlltoall");
                    assert_eq!(
                        n.1, c.1,
                        "{at}: Alltoall without engine planes vs CclAlltoall"
                    );
                }
            }
        }
    }
}

/// Names of this process's live `progress-r*` threads, or `None` where
/// `/proc/self/task` does not exist.
fn progress_threads() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .filter(|name| name.starts_with("progress-r"))
            .collect(),
    )
}

#[test]
fn default_strategy_joins_the_engine_it_is_handed() {
    let _serial = serial();
    if progress_threads().is_none() {
        println!("skipped: no /proc/self/task on this platform");
        return;
    }
    // Every rank has built its trainer before rank 0 takes the census,
    // and none drops it before the census is done. A new thread names
    // itself after it starts and a joined one leaves `/proc` just after
    // its join returns, so the census may look again until a deadline.
    let census = |want: usize| {
        move |model: &mut DistDlrm| {
            model.comm_barrier();
            let names = (model.rank() == 0).then(|| {
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    let names = progress_threads().expect("/proc/self/task was readable");
                    if names.len() == want || Instant::now() > deadline {
                        break names;
                    }
                    std::thread::yield_now();
                }
            });
            model.comm_barrier();
            names
        }
    };
    // Two ranks × two workers when the engine is kept, none when dropped:
    // whether the trainer is handed an engine, or the rank driver decides.
    for (strategy, want) in [
        (ExchangeStrategy::Alltoall, 0),
        (ExchangeStrategy::CclAlltoall, 4),
    ] {
        let opts = DistOptions {
            strategy,
            threads_per_rank: 1,
            ..Default::default()
        };
        let handed = with_ranks(2, &opts, true, census(want));
        let driven = run_ranks(&cfg(), 2, &opts, None, None, census(want));
        for (how, census) in [("handed", handed), ("run_ranks", driven)] {
            let names = census[0].clone().expect("rank 0 took the census");
            assert_eq!(
                names.len(),
                want,
                "{strategy} {how}: progress threads {names:?}"
            );
        }
    }
}

/// Field-wise sum of two wire snapshots.
fn plus(a: WireSnapshot, b: WireSnapshot) -> WireSnapshot {
    WireSnapshot {
        messages: a.messages + b.messages,
        reduce_scatter_bytes: a.reduce_scatter_bytes + b.reduce_scatter_bytes,
        allgather_bytes: a.allgather_bytes + b.allgather_bytes,
        alltoall_bytes: a.alltoall_bytes + b.alltoall_bytes,
        broadcast_bytes: a.broadcast_bytes + b.broadcast_bytes,
        prefetch_bytes: a.prefetch_bytes + b.prefetch_bytes,
        other_bytes: a.other_bytes + b.other_bytes,
        header_bytes: a.header_bytes + b.header_bytes,
    }
}

#[test]
fn run_ranks_counts_both_worlds_in_one_wire_stats() {
    let _serial = serial();
    let cfg = cfg();
    let stream = batches(&cfg, 3, 5);
    // `train` runs the step stream; `blocking` adds one allreduce on the
    // trainer's blocking communicator.
    let traffic = |strategy, train: bool, blocking: bool| {
        let opts = DistOptions {
            strategy,
            threads_per_rank: 1,
            bucket_cap_bytes: 128,
            ..Default::default()
        };
        let wire = Arc::new(WireStats::new());
        run_ranks(&cfg, 2, &opts, None, Some(Arc::clone(&wire)), |model| {
            if train {
                for b in &stream {
                    model.train_step(b, 0.1);
                }
            }
            if blocking {
                allreduce_sum(model.comm(), &mut vec![1.0; 64]);
            }
        });
        wire.snapshot()
    };
    // The default strategy runs the step on the blocking world, so it
    // measures the step's traffic; `CclAlltoall` runs the same messages
    // on its engine's channel worlds.
    let step = traffic(ExchangeStrategy::Alltoall, true, false);
    let extra = traffic(ExchangeStrategy::Alltoall, false, true);
    assert!(
        step.alltoall_bytes > 0 && step.allreduce_bytes() > 0,
        "{step:?}"
    );
    assert!(
        extra.allreduce_bytes() > 0 && extra.alltoall_bytes == 0,
        "{extra:?}"
    );
    assert_eq!(
        traffic(ExchangeStrategy::CclAlltoall, true, false),
        step,
        "engine channels"
    );
    assert_eq!(
        traffic(ExchangeStrategy::CclAlltoall, true, true),
        plus(step, extra),
        "engine channels + blocking world"
    );
}
