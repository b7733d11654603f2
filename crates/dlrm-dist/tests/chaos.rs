//! Chaos suite for the distributed layer: embedding exchanges and whole
//! hybrid-parallel training runs must be **bitwise stable** under seeded
//! adversarial transport schedules.
//!
//! Every assertion message prints the failing seed; replay it with
//! `ChaosConfig::aggressive(seed)`.

use dlrm_comm::chaos::{ChaosConfig, ChaosSnapshot};
use dlrm_comm::nonblocking::{create_channel_worlds_with_opts, Backend, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::CommWorld;
use dlrm_comm::FaultPlan;
use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::distributed::{run_training_with_chaos, DistDlrm, DistOptions, WireConfig};
use dlrm_dist::exchange::{backward_exchange, forward_exchange, tables_of, ExchangeStrategy};
use dlrm_dist::prefetch::Prefetch;
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use std::sync::Arc;

const SEEDS: u64 = 200;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Synthetic `GN×E` table output whose values encode (table, row, col) —
/// any misrouted chunk shows up as a bit difference.
fn table_output(t: usize, gn: usize, e: usize) -> Matrix {
    Matrix::from_fn(gn, e, |row, col| {
        (t * 1_000_000 + row * 100 + col) as f32 * 0.31 - 4.2
    })
}

/// Synthetic `n×E` gradient for table `t` as produced on rank `me`.
fn table_grad(me: usize, t: usize, n: usize, e: usize) -> Matrix {
    Matrix::from_fn(n, e, |row, col| {
        ((me * 131 + t * 17 + row * 5 + col) as f32) * 0.173 - 1.9
    })
}

/// One forward + backward exchange; returns per-rank bit transcripts plus
/// the number of faults the blocking world observed.
fn exchange_round(
    strategy: ExchangeStrategy,
    backend: Backend,
    plan: Option<Arc<FaultPlan>>,
    nranks: usize,
    num_tables: usize,
) -> Vec<(Vec<u32>, u64)> {
    let (local_n, e) = (3usize, 2usize);
    let gn = local_n * nranks;
    let engines = if strategy == ExchangeStrategy::CclAlltoall {
        Some(std::sync::Mutex::new(create_channel_worlds_with_opts(
            nranks,
            backend,
            plan.clone(),
            None,
        )))
    } else {
        None
    };
    CommWorld::run_with_chaos(nranks, plan.clone(), |comm| {
        let me = comm.rank();
        // With CclAlltoall the traffic flows through the engine's channel
        // worlds, so count faults there; keep the handle alive past the
        // engine's drop.
        let mut engine_stats = None;
        let eng = engines.as_ref().map(|m| {
            let comms = std::mem::take(&mut m.lock().unwrap()[me]);
            engine_stats = Some(Arc::clone(comms[0].chaos_stats_arc()));
            ProgressEngine::new_with_chaos(backend, comms, plan.clone())
        });
        let outputs: Vec<Matrix> = tables_of(num_tables, nranks, me)
            .into_iter()
            .map(|t| table_output(t, gn, e))
            .collect();
        let slices = forward_exchange(
            strategy,
            &comm,
            eng.as_ref(),
            &outputs,
            num_tables,
            local_n,
            e,
            WirePrecision::Fp32,
        );
        let grads: Vec<Matrix> = (0..num_tables)
            .map(|t| table_grad(me, t, local_n, e))
            .collect();
        let full = backward_exchange(
            strategy,
            &comm,
            eng.as_ref(),
            &grads,
            num_tables,
            local_n,
            e,
            WirePrecision::Fp32,
        );
        let mut transcript = Vec::new();
        for m in slices.iter().chain(full.iter()) {
            transcript.extend(bits(m.as_slice()));
        }
        let injected = comm.chaos_stats().snapshot().total_injected()
            + engine_stats
                .map(|s| s.snapshot().total_injected())
                .unwrap_or(0);
        (transcript, injected)
    })
}

fn exchange_suite(strategy: ExchangeStrategy, backend: Backend, nranks: usize, num_tables: usize) {
    let baseline: Vec<Vec<u32>> = exchange_round(strategy, backend, None, nranks, num_tables)
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    let mut injected_total = 0u64;
    for seed in 0..SEEDS {
        let plan = ChaosConfig::aggressive(seed).plan();
        let out = exchange_round(strategy, backend, Some(plan), nranks, num_tables);
        for (rank, (t, injected)) in out.iter().enumerate() {
            assert_eq!(
                t, &baseline[rank],
                "{strategy} exchange diverged: nranks={nranks} rank={rank} \
                 failing seed={seed}"
            );
            injected_total += injected;
        }
    }
    assert!(
        injected_total > SEEDS,
        "{strategy}: chaos too quiet over {SEEDS} seeds: {injected_total} faults"
    );
}

#[test]
fn blocking_exchanges_bitwise_stable_across_seeds() {
    // The blocking alltoall, with tables not divisible by ranks so
    // per-rank payloads are uneven.
    exchange_suite(ExchangeStrategy::Alltoall, Backend::MpiLike, 3, 8);
}

#[test]
fn mpi_like_engine_exchange_bitwise_stable_across_seeds() {
    exchange_suite(ExchangeStrategy::CclAlltoall, Backend::MpiLike, 4, 8);
}

#[test]
fn ccl_like_engine_exchange_bitwise_stable_across_seeds() {
    exchange_suite(
        ExchangeStrategy::CclAlltoall,
        Backend::CclLike { workers: 2 },
        4,
        8,
    );
}

// ---------------------------------------------------------------------------
// Whole training runs: the loss trajectory of every rank must replay
// bitwise under chaos.
// ---------------------------------------------------------------------------

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

fn global_batches(cfg: &DlrmConfig, gn: usize, count: usize) -> Vec<MiniBatch> {
    (0..count)
        .map(|i| {
            MiniBatch::random(
                cfg,
                gn,
                IndexDistribution::Uniform,
                &mut seeded_rng(1000 + i as u64, 5),
            )
        })
        .collect()
}

fn loss_bits(losses: &[Vec<f64>]) -> Vec<Vec<u64>> {
    losses
        .iter()
        .map(|rank| rank.iter().map(|l| l.to_bits()).collect())
        .collect()
}

fn training_suite(strategy: ExchangeStrategy, seeds: u64) {
    training_suite_wire(strategy, seeds, WireConfig::default());
}

fn training_suite_wire(strategy: ExchangeStrategy, seeds: u64, wire: WireConfig) {
    let cfg = tiny_cfg();
    let nranks = 4;
    let batches = global_batches(&cfg, 8, 3);
    let opts = DistOptions {
        strategy,
        seed: 77,
        wire,
        ..Default::default()
    };
    let baseline = loss_bits(&run_training_with_chaos(
        &cfg, nranks, &opts, &batches, 0.1, None,
    ));
    for seed in 0..seeds {
        let plan = ChaosConfig::aggressive(seed).plan();
        let got = loss_bits(&run_training_with_chaos(
            &cfg,
            nranks,
            &opts,
            &batches,
            0.1,
            Some(plan),
        ));
        assert_eq!(
            got, baseline,
            "{strategy} training losses diverged under chaos: failing seed={seed}"
        );
    }
}

#[test]
fn training_bitwise_stable_under_chaos_blocking_alltoall() {
    training_suite(ExchangeStrategy::Alltoall, 40);
}

#[test]
fn training_bitwise_stable_under_chaos_engine_alltoall() {
    training_suite(ExchangeStrategy::CclAlltoall, 40);
}

// ---------------------------------------------------------------------------
// Prefetch-enabled training: the lookahead pipeline's tagged fetches ride
// the same faulted transports — the early fetch flies on the engine's
// exchange channel, the late fetch on the blocking world — and must replay
// the fault-free trajectory bitwise.
// ---------------------------------------------------------------------------

/// One prefetch-enabled training run (CclAlltoall, 4 ranks) over a chaotic
/// transport; returns each rank's loss bits plus the fault snapshot of the
/// engine's exchange channel — the channel the prefetch alltoalls ride.
fn prefetch_training_round(
    window: usize,
    plan: Option<Arc<FaultPlan>>,
) -> Vec<(Vec<u64>, ChaosSnapshot)> {
    let cfg = tiny_cfg();
    let nranks = 4;
    let batches = global_batches(&cfg, 8, 4);
    let backend = Backend::CclLike { workers: 2 };
    let opts = DistOptions {
        strategy: ExchangeStrategy::CclAlltoall,
        seed: 77,
        threads_per_rank: 1,
        prefetch: Prefetch::Lookahead { window },
        ..Default::default()
    };
    let engines = std::sync::Mutex::new(create_channel_worlds_with_opts(
        nranks,
        backend,
        plan.clone(),
        None,
    ));
    CommWorld::run_with_chaos(nranks, plan.clone(), |comm| {
        let me = comm.rank();
        let comms = std::mem::take(&mut engines.lock().unwrap()[me]);
        let stats = Arc::clone(comms[0].chaos_stats_arc());
        let engine = ProgressEngine::new_with_chaos(backend, comms, plan.clone());
        let mut model = DistDlrm::new(&cfg, comm, Some(engine), &opts);
        let mut win = LookaheadWindow::new(&batches, window);
        let mut losses = Vec::with_capacity(batches.len());
        while !win.is_finished() {
            losses.push(model.train_step_lookahead(&win, 0.1).to_bits());
            win.advance();
        }
        (losses, stats.snapshot())
    })
}

/// 200-seed chaos replay of the prefetch-enabled trainer: delays,
/// reorders, drops and stalls on the prefetch channel (and the blocking
/// world under it) must not move a single bit of any rank's trajectory.
#[test]
fn prefetch_training_bitwise_stable_under_chaos() {
    let baseline: Vec<Vec<u64>> = prefetch_training_round(2, None)
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    let mut injected = 0u64;
    for seed in 0..SEEDS {
        let plan = ChaosConfig::aggressive(seed).plan();
        for (rank, (losses, snap)) in prefetch_training_round(2, Some(plan)).iter().enumerate() {
            assert_eq!(
                losses, &baseline[rank],
                "prefetch training diverged under chaos: failing seed={seed} rank={rank}"
            );
            injected += snap.total_injected();
        }
    }
    assert!(
        injected > SEEDS,
        "prefetch chaos too quiet over {SEEDS} seeds: {injected} faults"
    );
}

/// Regression: a delay/stall-heavy plan holds the early fetch of batch
/// `i+1` in the sender's outbox past the start of step `i+1`, so the
/// pipeline's landing wait genuinely blocks on a fetch that arrives late —
/// the trajectory must still replay bitwise, and the plan must actually
/// have injected the late deliveries it promises.
#[test]
fn prefetch_lands_after_next_step_starts_regression() {
    let baseline: Vec<Vec<u64>> = prefetch_training_round(2, None)
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    let plan = ChaosConfig {
        delay_prob: 0.9,
        max_delay: 3,
        stall_prob: 0.5,
        max_stall_yields: 64,
        ..ChaosConfig::aggressive(4242)
    }
    .plan();
    let got = prefetch_training_round(2, Some(plan));
    let mut held_back = 0u64;
    for (rank, (losses, snap)) in got.iter().enumerate() {
        assert_eq!(
            losses, &baseline[rank],
            "late-landing prefetch shifted bits on rank {rank}"
        );
        held_back += snap.delayed + snap.stalls;
    }
    assert!(
        held_back > 0,
        "regression plan injected no delays/stalls on the prefetch channel"
    );
}

#[test]
fn bf16_training_bitwise_stable_under_chaos() {
    // The fault layer never inspects payloads, so a fully BF16 wire must
    // replay its own fault-free baseline bitwise, exactly like FP32.
    training_suite_wire(
        ExchangeStrategy::CclAlltoall,
        20,
        WireConfig::all(WirePrecision::Bf16),
    );
    training_suite_wire(
        ExchangeStrategy::Alltoall,
        20,
        WireConfig::all(WirePrecision::Bf16),
    );
}

#[test]
fn int8_training_bitwise_stable_under_chaos() {
    // The INT8 wire adds scale headers to the faulted payload stream
    // (delay/reorder/drop/duplicate now hit `Payload::Int8` envelopes) —
    // the trajectory must still replay its fault-free baseline bitwise.
    training_suite_wire(
        ExchangeStrategy::CclAlltoall,
        SEEDS,
        WireConfig::all(WirePrecision::Int8),
    );
}

#[test]
fn adaptive_training_bitwise_stable_under_chaos() {
    // The adaptive policy decides per bucket from the reduced gradients;
    // under chaos those are bitwise unchanged, so every rank must keep
    // making identical decisions and the losses must replay bitwise.
    let wire = WireConfig {
        allreduce: dlrm_dist::distributed::AllreduceWire::Adaptive { error_bound: 0.05 },
        ..WireConfig::default()
    };
    training_suite_wire(ExchangeStrategy::CclAlltoall, SEEDS, wire);
}
