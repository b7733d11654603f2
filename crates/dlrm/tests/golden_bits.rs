//! Golden-bits wall for the blocked GEMM microkernels.
//!
//! Every other equivalence wall in the workspace compares the current
//! kernels with themselves (fused vs unfused, chained vs per-layer, traced
//! vs twin). This one compares them with the past: the loss bit patterns
//! of eight train steps and a fingerprint of the trained MLP weights were
//! recorded at commit `40f87b1`, when backward-by-data was still a
//! one-chain dot product and nothing was register-tiled, under each forced
//! ISA tier. Any change to a per-element FMA chain — a reassociation, a
//! different horizontal-reduce tree, a lost `+0.0` — moves these bits.
//!
//! The shapes hit every kernel path: `bn = 30` (seven 4-row tiles plus two
//! remainder rows, two minibatch panels), `bc` ∈ {13, 22, 24, 48, 64}
//! (tile remainders 1, 2, 0), `bk` ∈ {64, 48, 16} on the AVX-512 kernels,
//! `bk = 24` on the AVX2 kernels under both vector tiers, `bk = 1` on the
//! scalar kernels, one and two reduction panels, ReLU masks on every inner
//! layer.
//!
//! Its own test binary: the ISA override is process-global.

use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_tensor::init::seeded_rng;

const STEPS: usize = 8;

fn cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(300, 256);
    cfg.dense_features = 13;
    cfg.bottom_mlp = vec![128, 48, 16];
    cfg.emb_dim = 16;
    cfg.num_tables = 3;
    cfg.table_rows = vec![300, 100, 50];
    cfg.lookups_per_table = 3;
    cfg.top_mlp = vec![128, 24, 1];
    cfg
}

/// Loss bits of `STEPS` steps, then an FNV-1a fingerprint over the bits of
/// every MLP weight and bias.
fn trajectory(isa: Isa) -> Vec<u64> {
    set_isa_override(Some(isa));
    let cfg = cfg();
    let mut model = DlrmModel::new(
        &cfg,
        Execution::optimized(2),
        UpdateStrategy::RaceFree,
        PrecisionMode::Fp32,
        11,
    );
    let mut out: Vec<u64> = (0..STEPS)
        .map(|i| {
            let batch = MiniBatch::random(
                &cfg,
                60,
                IndexDistribution::Uniform,
                &mut seeded_rng(100 + i as u64, 3),
            );
            model.train_step(&batch, 0.1).to_bits()
        })
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for layer in model.bottom.layers.iter().chain(&model.top.layers) {
        for v in layer.w.unpack().as_slice().iter().chain(&layer.b) {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    out.push(h);
    set_isa_override(None);
    out
}

fn golden(isa: Isa) -> [u64; STEPS + 1] {
    match isa {
        Isa::Scalar => [
            0x3fe65aa41053d471,
            0x3fe6428449a4c20e,
            0x3fe62723ac660a65,
            0x3fe6341806eed0ef,
            0x3fe60f773e742183,
            0x3fe6294e6a1175ae,
            0x3fe6313ca1b630c7,
            0x3fe63bb94ea27ff4,
            0x9ef99508f0da9c44,
        ],
        Isa::Avx2 => [
            0x3fe65aa41050b29f,
            0x3fe642844a2e3763,
            0x3fe62723acc6f242,
            0x3fe63418068ab85a,
            0x3fe60f773ed90317,
            0x3fe6294e69a5ea94,
            0x3fe6313ca170b392,
            0x3fe63bb94ef4b033,
            0x9075d2d78a420ae1,
        ],
        Isa::Avx512 => [
            0x3fe65aa41050b29f,
            0x3fe642844a32a971,
            0x3fe62723acc9a54c,
            0x3fe634180676bd3d,
            0x3fe60f773ea3482b,
            0x3fe6294e698f901a,
            0x3fe6313ca1bcb976,
            0x3fe63bb94f231e2f,
            0x9dd84fc2a5310e83,
        ],
    }
}

#[test]
fn losses_and_weights_match_bits_recorded_before_register_tiling() {
    for isa in available_isas() {
        assert_eq!(
            trajectory(isa),
            golden(isa),
            "{isa:?} drifted from the recorded bits"
        );
    }
}
