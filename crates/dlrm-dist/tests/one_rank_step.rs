//! One train step: `DistDlrm` at R = 1 is `DlrmModel` (Optimized,
//! `RaceFree`, FP32), bit for bit.
//!
//! Both run the one step body (`dlrm::step`), the single process through
//! its one-rank boundary (fused SGD in the weights write-back, local table
//! update) and the lone rank through the hybrid boundary (bucketed
//! allreduce of one rank, the exchanges of one rank, the owner's update at
//! `lr / 1`). Six steps must give the same loss bits and leave every
//! bottom and top `w` and `b` and every table plane bitwise equal, on every
//! forced ISA tier, on teams of one and two, on both schedules and on both
//! embedding front ends.
//!
//! Its own test binary: the ISA override is process-global.

use dlrm::prelude::*;
use dlrm_comm::world::CommWorld;
use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::{DistDlrm, DistOptions, Prefetch, Schedule};
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::set_isa_override;
use dlrm_tensor::init::seeded_rng;

const STEPS: usize = 6;
const SEED: u64 = 29;
const LR: f32 = 0.1;

/// Several `bk` and `bc` panels per layer, a `bc` the default blocking
/// does not divide (26), a one-row head and skewed look-ups.
fn cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(200, 256);
    cfg.dense_features = 13;
    cfg.bottom_mlp = vec![96, 48, 16];
    cfg.emb_dim = 16;
    cfg.num_tables = 4;
    cfg.table_rows = vec![200, 120, 60, 90];
    cfg.lookups_per_table = 3;
    cfg.top_mlp = vec![128, 24, 1];
    cfg
}

/// Loss bits, then every MLP `w` and `b` and every table plane, as bits.
#[derive(Debug, PartialEq, Eq)]
struct State {
    losses: Vec<u64>,
    planes: Vec<Vec<u32>>,
}

fn bits(s: &[f32]) -> Vec<u32> {
    s.iter().map(|v| v.to_bits()).collect()
}

fn mlp_planes(bottom: &dlrm::layers::Mlp, top: &dlrm::layers::Mlp) -> Vec<Vec<u32>> {
    let layers = bottom.layers.iter().chain(&top.layers);
    layers
        .flat_map(|l| [bits(l.w.as_slice()), bits(&l.b)])
        .collect()
}

fn single(cfg: &DlrmConfig, batches: &[MiniBatch], threads: usize) -> State {
    let exec = Execution::optimized(threads);
    let strategy = UpdateStrategy::RaceFree;
    let mut model = DlrmModel::new(cfg, exec, strategy, PrecisionMode::Fp32, SEED);
    let losses = batches
        .iter()
        .map(|b| model.train_step(b, LR).to_bits())
        .collect();
    let mut planes = mlp_planes(&model.bottom, &model.top);
    planes.extend(model.tables.iter().map(|t| bits(t.weight.as_slice())));
    State { losses, planes }
}

fn lone_rank(cfg: &DlrmConfig, batches: &[MiniBatch], opts: &DistOptions) -> State {
    let comm = CommWorld::create(1).pop().expect("one rank");
    let mut model = DistDlrm::new(cfg, comm, None, opts);
    let losses = match opts.prefetch {
        Prefetch::Off => batches
            .iter()
            .map(|b| model.train_step(b, LR).to_bits())
            .collect(),
        Prefetch::Lookahead { window } => {
            let mut win = LookaheadWindow::new(batches, window);
            let mut losses = Vec::new();
            while !win.is_finished() {
                losses.push(model.train_step_lookahead(&win, LR).to_bits());
                win.advance();
            }
            losses
        }
    };
    let mut planes = mlp_planes(&model.bottom, &model.top);
    let tables = model.local_tables.iter().enumerate();
    planes.extend(tables.map(|(i, (t, layer))| {
        assert_eq!(i, *t, "the lone rank owns every table, in order");
        bits(layer.weight.as_slice())
    }));
    State { losses, planes }
}

#[test]
fn lone_rank_step_equals_the_single_process_step_bitwise() {
    let cfg = cfg();
    let batches: Vec<MiniBatch> = (0..STEPS as u64)
        .map(|i| {
            let dist = IndexDistribution::Zipf { s: 1.05 };
            MiniBatch::random(&cfg, 24, dist, &mut seeded_rng(700 + i, 3))
        })
        .collect();
    for isa in available_isas() {
        set_isa_override(Some(isa));
        for threads in [1usize, 2] {
            let want = single(&cfg, &batches, threads);
            assert_eq!(want.losses.len(), STEPS);
            assert!(want.losses.iter().all(|&l| f64::from_bits(l).is_finite()));
            for schedule in [Schedule::Overlapped, Schedule::Synchronous] {
                for prefetch in [Prefetch::Off, Prefetch::Lookahead { window: 2 }] {
                    let opts = DistOptions {
                        seed: SEED,
                        threads_per_rank: threads,
                        schedule,
                        prefetch,
                        ..Default::default()
                    };
                    let got = lone_rank(&cfg, &batches, &opts);
                    let at = format!("{isa:?} team of {threads} {schedule} {prefetch:?}");
                    assert_eq!(got.losses, want.losses, "{at}: losses");
                    for (i, (g, w)) in got.planes.iter().zip(&want.planes).enumerate() {
                        assert!(g == w, "{at}: plane {i} differs");
                    }
                    assert_eq!(got.planes.len(), want.planes.len(), "{at}");
                }
            }
        }
        set_isa_override(None);
    }
}
