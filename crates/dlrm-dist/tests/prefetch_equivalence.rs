//! The lookahead prefetch correctness contract: with
//! [`Prefetch::Lookahead`] the trainer must produce **bitwise identical**
//! per-rank loss trajectories *and parameter planes* (both MLPs' weights
//! and biases, every owned embedding table) to the naive pooled-exchange
//! step — for every exchange strategy, rank count, seed and window size.
//! Prefetch moves bytes, never bits.
//!
//! Any failure prints the (strategy, ranks, seed, window) tuple for
//! replay.

use dlrm_comm::nonblocking::{create_channel_worlds_with_opts, Backend, ProgressEngine};
use dlrm_comm::world::CommWorld;
use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::distributed::{DistDlrm, DistOptions, Schedule};
use dlrm_dist::exchange::ExchangeStrategy;
use dlrm_dist::prefetch::Prefetch;
use dlrm_tensor::init::seeded_rng;

/// Eight tables so the sweep can run up to 8 ranks.
fn cfg8() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(32, 512);
    cfg.dense_features = 6;
    cfg.bottom_mlp = vec![8, 4];
    cfg.emb_dim = 4;
    cfg.num_tables = 8;
    cfg.table_rows = vec![32, 16, 8, 24, 12, 40, 20, 28];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![8, 1];
    cfg
}

fn global_batches(cfg: &DlrmConfig, gn: usize, count: usize, seed: u64) -> Vec<MiniBatch> {
    (0..count)
        .map(|i| {
            MiniBatch::random(
                cfg,
                gn,
                IndexDistribution::Uniform,
                &mut seeded_rng(seed * 10_000 + i as u64, 5),
            )
        })
        .collect()
}

/// Every trained parameter of one rank as raw bit patterns: bottom and top
/// MLP weights + biases in layer order, then each owned embedding table
/// (tagged with its global index).
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

/// Trains `nranks` thread-ranks and returns each rank's
/// (loss bits, parameter-plane bits) — the full bitwise fingerprint the
/// equivalence assertions compare.
fn train_fingerprint(
    cfg: &DlrmConfig,
    nranks: usize,
    opts: &DistOptions,
    batches: &[MiniBatch],
    lr: f32,
) -> Vec<(Vec<u64>, Vec<u64>)> {
    let backend = Backend::CclLike { workers: 2 };
    let wants_engine =
        opts.strategy == ExchangeStrategy::CclAlltoall || opts.schedule == Schedule::Overlapped;
    let engines = if wants_engine {
        Some(std::sync::Mutex::new(create_channel_worlds_with_opts(
            nranks, backend, None, None,
        )))
    } else {
        None
    };
    CommWorld::run(nranks, |comm| {
        let engine = engines.as_ref().map(|m| {
            let comms = std::mem::take(&mut m.lock().unwrap()[comm.rank()]);
            ProgressEngine::new_with_chaos(backend, comms, None)
        });
        let mut model = DistDlrm::new(cfg, comm, engine, opts);
        let losses: Vec<u64> = match opts.prefetch {
            Prefetch::Off => batches
                .iter()
                .map(|b| model.train_step(b, lr).to_bits())
                .collect(),
            Prefetch::Lookahead { window } => {
                let mut win = LookaheadWindow::new(batches, window);
                let mut losses = Vec::with_capacity(batches.len());
                while !win.is_finished() {
                    losses.push(model.train_step_lookahead(&win, lr).to_bits());
                    win.advance();
                }
                losses
            }
        };
        (losses, plane_bits(&model))
    })
}

fn opts(
    strategy: ExchangeStrategy,
    schedule: Schedule,
    seed: u64,
    prefetch: Prefetch,
) -> DistOptions {
    DistOptions {
        strategy,
        seed,
        threads_per_rank: 1,
        schedule,
        // Small cap → several buckets, so the issue-as-produced allreduce
        // genuinely interleaves with the in-flight early fetches.
        bucket_cap_bytes: 128,
        prefetch,
        ..Default::default()
    }
}

/// ranks {1, 2, 4, 8} × `seeds` seeds × windows {1, 2, 4, 8}: prefetched
/// ≡ naive, bitwise, in losses and every parameter plane. The naive
/// baseline is computed once per (ranks, seed) and reused across windows.
fn equivalence_suite(strategy: ExchangeStrategy, schedule: Schedule, seeds: u64) {
    let cfg = cfg8();
    for nranks in [1usize, 2, 4, 8] {
        for seed in 0..seeds {
            let batches = global_batches(&cfg, 16, 3, seed);
            let naive = train_fingerprint(
                &cfg,
                nranks,
                &opts(strategy, schedule, seed, Prefetch::Off),
                &batches,
                0.1,
            );
            for window in [1usize, 2, 4, 8] {
                let got = train_fingerprint(
                    &cfg,
                    nranks,
                    &opts(strategy, schedule, seed, Prefetch::Lookahead { window }),
                    &batches,
                    0.1,
                );
                for (rank, (n, g)) in naive.iter().zip(&got).enumerate() {
                    assert_eq!(
                        n.0, g.0,
                        "{strategy} {schedule} R={nranks} seed={seed} W={window} rank={rank}: losses diverged"
                    );
                    assert_eq!(
                        n.1, g.1,
                        "{strategy} {schedule} R={nranks} seed={seed} W={window} rank={rank}: parameter planes diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn prefetch_equals_naive_alltoall() {
    equivalence_suite(ExchangeStrategy::Alltoall, Schedule::Overlapped, 50);
}

#[test]
fn prefetch_equals_naive_ccl_alltoall() {
    equivalence_suite(ExchangeStrategy::CclAlltoall, Schedule::Overlapped, 50);
}

/// The synchronous schedule runs the early fetch inline instead of in
/// flight — same bytes, same bits.
#[test]
fn prefetch_equals_naive_synchronous_schedule() {
    equivalence_suite(ExchangeStrategy::Alltoall, Schedule::Synchronous, 10);
    equivalence_suite(ExchangeStrategy::CclAlltoall, Schedule::Synchronous, 10);
}

/// Long streams with a deep window: rows live through many
/// fetch/update/invalidate/evict cycles and the pipeline drains past the
/// end of the stream.
#[test]
fn prefetch_equals_naive_long_stream() {
    let cfg = cfg8();
    for strategy in ExchangeStrategy::ALL {
        let batches = global_batches(&cfg, 16, 12, 91);
        let naive = train_fingerprint(
            &cfg,
            4,
            &opts(strategy, Schedule::Overlapped, 91, Prefetch::Off),
            &batches,
            0.1,
        );
        for window in [1usize, 8] {
            let got = train_fingerprint(
                &cfg,
                4,
                &opts(
                    strategy,
                    Schedule::Overlapped,
                    91,
                    Prefetch::Lookahead { window },
                ),
                &batches,
                0.1,
            );
            for (rank, (n, g)) in naive.iter().zip(&got).enumerate() {
                assert_eq!(n.0, g.0, "{strategy} W={window} rank={rank}: losses");
                assert_eq!(n.1, g.1, "{strategy} W={window} rank={rank}: planes");
            }
        }
    }
}
