//! The DDP step never lays out a weight-gradient plane: each layer's
//! weights pass writes its `dW` rows straight into the layer's window of
//! the bucket buffer, so no `Linear::dw` of either replicated MLP is ever
//! allocated.
//!
//! Runs five steps at R = 2 with `train_dist`'s MLP shapes (`64 → 256 →
//! 64` bottom, `100 → 512 → 256 → 1` top, batch 128; small tables) on
//! both schedules × both exchange strategies × the pooled and lookahead
//! front ends. Afterwards every `dw` has zero capacity, and
//! `DistDlrm::scratch_bytes()` is the value recorded at the parent commit,
//! when every layer still held its plane, minus exactly those planes'
//! bytes.

use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::distributed::{run_ranks, DistOptions, Schedule};
use dlrm_dist::exchange::ExchangeStrategy;
use dlrm_dist::prefetch::Prefetch;
use dlrm_tensor::init::seeded_rng;

const RANKS: usize = 2;
const STEPS: usize = 5;
const BATCH: usize = 128;

/// `train_dist`'s model (benchmark `workload.rs`) with 2 000-row tables.
fn cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(2_000, 1);
    cfg.dense_features = 64;
    cfg.bottom_mlp = vec![256, 64];
    cfg.top_mlp = vec![512, 256, 1];
    cfg.emb_dim = 64;
    cfg.num_tables = 8;
    cfg.table_rows = vec![2_000; 8];
    cfg.lookups_per_table = 8;
    cfg
}

/// Bytes of every layer's weight plane: `Σ K·C` floats.
fn plane_bytes(cfg: &DlrmConfig) -> usize {
    let mlp = |input: usize, sizes: &[usize]| -> usize {
        let mut prev = input;
        sizes
            .iter()
            .map(|&k| std::mem::replace(&mut prev, k) * k)
            .sum()
    };
    let floats =
        mlp(cfg.dense_features, &cfg.bottom_mlp) + mlp(cfg.interaction_output_dim(), &cfg.top_mlp);
    floats * std::mem::size_of::<f32>()
}

/// Rank 0's `(scratch_bytes, dw capacities)` after [`STEPS`] steps.
fn run(strategy: ExchangeStrategy, schedule: Schedule, lookahead: bool) -> (usize, Vec<usize>) {
    let cfg = cfg();
    let batches: Vec<MiniBatch> = (0..STEPS)
        .map(|i| {
            let dist = IndexDistribution::Zipf { s: 1.05 };
            MiniBatch::random(&cfg, BATCH, dist, &mut seeded_rng(3600 + i as u64, 7))
        })
        .collect();
    let opts = DistOptions {
        strategy,
        schedule,
        threads_per_rank: 1,
        seed: 11,
        prefetch: if lookahead {
            Prefetch::Lookahead { window: 2 }
        } else {
            Prefetch::Off
        },
        ..DistOptions::default()
    };
    let out = run_ranks(&cfg, RANKS, &opts, None, None, |model| {
        if lookahead {
            let mut win = LookaheadWindow::new(&batches, 2);
            while !win.is_finished() {
                model.train_step_lookahead(&win, 0.05);
                win.advance();
            }
        } else {
            for b in &batches {
                model.train_step(b, 0.05);
            }
        }
        let dw = model
            .bottom
            .layers
            .iter()
            .chain(&model.top.layers)
            .map(|l| l.dw.capacity_bytes())
            .collect();
        (model.scratch_bytes(), dw)
    });
    out.into_iter().next().expect("rank 0")
}

/// `scratch_bytes()` after five steps at the parent commit (`771217a`),
/// with every `dw` still allocated: pooled and lookahead front ends, the
/// same on every schedule and strategy.
const PARENT_SCRATCH_POOLED: usize = 3_564_292;
const PARENT_SCRATCH_LOOKAHEAD: usize = 5_262_724;

#[test]
fn ddp_step_allocates_no_weight_gradient_plane() {
    let planes = plane_bytes(&cfg());
    assert_eq!(planes, 861_184, "train_dist's 215 296 weights");
    for strategy in [ExchangeStrategy::Alltoall, ExchangeStrategy::CclAlltoall] {
        for schedule in [Schedule::Synchronous, Schedule::Overlapped] {
            for lookahead in [false, true] {
                let at = format!("{strategy:?} {schedule} lookahead={lookahead}");
                let (scratch, dw) = run(strategy, schedule, lookahead);
                assert!(dw.iter().all(|&b| b == 0), "{at}: dw allocated {dw:?}");
                let parent = if lookahead {
                    PARENT_SCRATCH_LOOKAHEAD
                } else {
                    PARENT_SCRATCH_POOLED
                };
                assert_eq!(scratch, parent - planes, "{at}");
            }
        }
    }
}
