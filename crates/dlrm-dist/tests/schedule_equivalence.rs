//! The overlapped schedule's correctness contract: for every exchange
//! strategy, rank count and seed, [`Schedule::Overlapped`] produces
//! **bitwise identical** per-rank loss trajectories to
//! [`Schedule::Synchronous`] — with and without chaos fault plans on the
//! transport. Overlap moves time, never bits.
//!
//! Any failure prints the (strategy, ranks, seed) triple for replay.

use dlrm_comm::chaos::ChaosConfig;
use dlrm_comm::wire::WirePrecision;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_dist::distributed::{run_training_with_chaos, DistOptions, Schedule, WireConfig};
use dlrm_dist::exchange::ExchangeStrategy;
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

fn loss_bits(losses: &[Vec<f64>]) -> Vec<Vec<u64>> {
    losses
        .iter()
        .map(|rank| rank.iter().map(|l| l.to_bits()).collect())
        .collect()
}

fn opts_wire(
    strategy: ExchangeStrategy,
    schedule: Schedule,
    seed: u64,
    wire: WireConfig,
) -> DistOptions {
    DistOptions {
        strategy,
        seed,
        threads_per_rank: 1,
        schedule,
        // Small cap → several buckets even on the tiny model, so the
        // issue-as-produced path is genuinely multi-bucket.
        bucket_cap_bytes: 128,
        wire,
        ..Default::default()
    }
}

/// 50 seeds × ranks {1, 2, 4, 8}: overlapped ≡ synchronous, bitwise.
fn equivalence_suite(strategy: ExchangeStrategy) {
    equivalence_suite_wire(strategy, 50, WireConfig::default());
}

fn equivalence_suite_wire(strategy: ExchangeStrategy, seeds: u64, wire: WireConfig) {
    let cfg = cfg8();
    for nranks in [1usize, 2, 4, 8] {
        for seed in 0..seeds {
            let batches = global_batches(&cfg, 16, 2, seed);
            let sync = run_training_with_chaos(
                &cfg,
                nranks,
                &opts_wire(strategy, Schedule::Synchronous, seed, wire),
                &batches,
                0.1,
                None,
            );
            let over = run_training_with_chaos(
                &cfg,
                nranks,
                &opts_wire(strategy, Schedule::Overlapped, seed, wire),
                &batches,
                0.1,
                None,
            );
            assert_eq!(
                loss_bits(&sync),
                loss_bits(&over),
                "{strategy} R={nranks} seed={seed} wire={wire:?}: schedules diverged"
            );
        }
    }
}

#[test]
fn overlapped_equals_synchronous_alltoall() {
    equivalence_suite(ExchangeStrategy::Alltoall);
}

#[test]
fn overlapped_equals_synchronous_ccl_alltoall() {
    equivalence_suite(ExchangeStrategy::CclAlltoall);
}

/// BF16 on every wire: the schedules still agree bitwise — the overlap
/// contract is independent of the wire format because both schedules run
/// the identical quantize/narrow/widen sequence per collective.
#[test]
fn overlapped_equals_synchronous_bf16_wire() {
    let bf16 = WireConfig::all(WirePrecision::Bf16);
    equivalence_suite_wire(ExchangeStrategy::Alltoall, 15, bf16);
    equivalence_suite_wire(ExchangeStrategy::CclAlltoall, 15, bf16);
}

/// The default bucket cap (25 MiB, one bucket on this model) must also be
/// schedule-invariant — not just the forced multi-bucket plans above.
#[test]
fn overlapped_equals_synchronous_default_bucket_cap() {
    let cfg = cfg8();
    for strategy in ExchangeStrategy::ALL {
        let batches = global_batches(&cfg, 16, 3, 7);
        let mk = |schedule| DistOptions {
            strategy,
            seed: 7,
            threads_per_rank: 1,
            schedule,
            ..Default::default()
        };
        let sync =
            run_training_with_chaos(&cfg, 4, &mk(Schedule::Synchronous), &batches, 0.1, None);
        let over = run_training_with_chaos(&cfg, 4, &mk(Schedule::Overlapped), &batches, 0.1, None);
        assert_eq!(loss_bits(&sync), loss_bits(&over), "{strategy}");
    }
}

/// Chaos replay over the overlapped path: an adversarial transport
/// schedule (delays, reorders, duplicates, drops + retry, stalls, worker
/// kills — PR 2's aggressive plans) must not shift a single bit, and the
/// chaotic overlapped run must still match the fault-free *synchronous*
/// baseline.
fn chaos_suite(strategy: ExchangeStrategy) {
    chaos_suite_wire(strategy, 20, WireConfig::default());
}

fn chaos_suite_wire(strategy: ExchangeStrategy, seeds: u64, wire: WireConfig) {
    let cfg = cfg8();
    let nranks = 4;
    let batches = global_batches(&cfg, 16, 3, 3);
    let baseline = loss_bits(&run_training_with_chaos(
        &cfg,
        nranks,
        &opts_wire(strategy, Schedule::Synchronous, 77, wire),
        &batches,
        0.1,
        None,
    ));
    for seed in 0..seeds {
        let plan = ChaosConfig::aggressive(seed).plan();
        let got = loss_bits(&run_training_with_chaos(
            &cfg,
            nranks,
            &opts_wire(strategy, Schedule::Overlapped, 77, wire),
            &batches,
            0.1,
            Some(plan),
        ));
        assert_eq!(
            got, baseline,
            "{strategy} wire={wire:?}: overlapped-under-chaos diverged, failing seed={seed}"
        );
    }
}

#[test]
fn overlapped_chaos_replay_alltoall() {
    chaos_suite(ExchangeStrategy::Alltoall);
}

#[test]
fn overlapped_chaos_replay_ccl_alltoall() {
    chaos_suite(ExchangeStrategy::CclAlltoall);
}

#[test]
fn overlapped_chaos_replay_bf16_wire() {
    chaos_suite_wire(
        ExchangeStrategy::CclAlltoall,
        10,
        WireConfig::all(WirePrecision::Bf16),
    );
}
