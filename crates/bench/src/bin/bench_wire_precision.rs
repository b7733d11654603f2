//! Wire-precision benchmark — FP32 vs BF16 vs INT8 vs adaptive on-wire
//! payloads for the hybrid-parallel data plane (the comm-side half of the
//! paper's 16-bit outlook, Figure 9's "what if the wire were narrower"
//! contrast, extended to error-bounded INT8).
//!
//! Runs the same model, batches and seed four times under the overlapped
//! CCL-style schedule: FP32 everywhere, `WireConfig::all(Bf16)`, a fixed
//! headered-INT8 gradient allreduce, and the adaptive error-bounded
//! policy ([`AllreduceWire::Adaptive`]). The INT8 and adaptive runs keep
//! the embedding alltoalls at FP32 so the measurement isolates gradient
//! allreduce traffic. A single [`WireStats`] shared by the blocking world
//! and the engine's channel worlds counts bytes-on-wire (scale headers
//! included) per collective class. Gates:
//!
//! - BF16 alltoall and allreduce bytes are **exactly half** of FP32 (same
//!   message schedule, 2-byte vs 4-byte elements);
//! - headered INT8 allreduce payload bytes are **exactly a quarter** of
//!   FP32, and header-inclusive bytes land in (0.25, 0.26] of FP32;
//! - the adaptive run settles on headerless shared-scale INT8 for every
//!   post-warmup bucket: allreduce bytes **exactly a quarter** of FP32
//!   with **zero** header bytes, for the headline 4.0x reduction;
//! - a representable (small-integer) payload crosses the BF16 wire
//!   **bitwise unchanged** vs the FP32 wire for both allreduce and
//!   alltoall — round-to-nearest-even is the only error source, and it is
//!   zero on representable values;
//! - every compressed loss trajectory stays within a small band of FP32.
//!
//! Writes `results/BENCH_wire_precision.json`, self-validated against
//! [`validate_artifact`].

use dlrm_bench::{fmt_time, header, validate_artifact, HarnessOpts, Table};
use dlrm_clustersim::timeline::{simulate_iteration, RunMode, SimParams};
use dlrm_clustersim::{Calibration, Cluster, Strategy};
use dlrm_comm::collectives;
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::{OpKind, TimingRecorder, WireSnapshot, WireStats};
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_dist::distributed::{run_ranks, AllreduceWire, DistOptions, Schedule, WireConfig};
use dlrm_dist::exchange::ExchangeStrategy;
use dlrm_dist::wirepolicy::PolicyStats;
use dlrm_tensor::init::seeded_rng;
use std::sync::Arc;
use std::time::Instant;

const RANKS: usize = 4;
/// Small enough for several buckets on the bench model.
const BUCKET_CAP: usize = 16 * 1024;
/// Per-element absolute error bound handed to the adaptive policy.
const ADAPTIVE_ERROR_BOUND: f32 = 0.05;

struct BenchShape {
    local_n: usize,
    warmup: usize,
    steps: usize,
}

fn shape(smoke: bool) -> BenchShape {
    if smoke {
        BenchShape {
            local_n: 8,
            warmup: 1,
            steps: 4,
        }
    } else {
        BenchShape {
            local_n: 32,
            warmup: 3,
            steps: 20,
        }
    }
}

fn bench_cfg(paper_scale: bool) -> DlrmConfig {
    let mut cfg = DlrmConfig::small();
    cfg.dense_features = 16;
    cfg.bottom_mlp = vec![64, 32];
    cfg.emb_dim = 32;
    cfg.num_tables = 8;
    cfg.table_rows = vec![1000; 8];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![64, 1];
    if paper_scale {
        cfg.bottom_mlp = vec![512, 128];
        cfg.emb_dim = 128;
        cfg.table_rows = vec![20_000; 8];
        cfg.top_mlp = vec![1024, 256, 1];
    }
    cfg
}

struct WireRun {
    /// Per-rank per-step losses.
    losses: Vec<Vec<f64>>,
    /// Wire bytes over the measured (post-warmup) steps, all ranks.
    wire: WireSnapshot,
    /// Mean per-rank alltoall framework+wait seconds per measured step.
    exchange_s_per_step: f64,
    /// Mean per-rank wall seconds over the measured steps.
    wall_s: f64,
    /// Adaptive-policy decision counts (rank 0; asserted identical on all
    /// ranks). `None` for fixed-wire runs.
    policy: Option<PolicyStats>,
}

/// One measured run at the given wire config: same model/batches/seed,
/// overlapped CCL-style schedule, shared wire counters across the blocking
/// world and every engine channel world.
fn run_wire(cfg: &DlrmConfig, batches: &[MiniBatch], warmup: usize, wire: WireConfig) -> WireRun {
    let opts = DistOptions {
        strategy: ExchangeStrategy::CclAlltoall,
        seed: 42,
        threads_per_rank: 1,
        schedule: Schedule::Overlapped,
        bucket_cap_bytes: BUCKET_CAP,
        wire,
        ..Default::default()
    };
    let wire_stats = Arc::new(WireStats::new());
    let mut per_rank = run_ranks(
        cfg,
        RANKS,
        &opts,
        None,
        Some(Arc::clone(&wire_stats)),
        |model| {
            let rec = Arc::new(TimingRecorder::new());
            model.set_recorder(Some(Arc::clone(&rec)));
            for b in &batches[..warmup] {
                model.train_step(b, 0.05);
            }
            // Count only steady-state traffic: every rank parks at the barrier,
            // rank 0 zeroes the shared counters.
            model.comm_barrier();
            if model.rank() == 0 {
                wire_stats.reset();
            }
            rec.reset();
            model.comm_barrier();
            let t0 = Instant::now();
            let losses: Vec<f64> = batches[warmup..]
                .iter()
                .map(|b| model.train_step(b, 0.05))
                .collect();
            model.comm_barrier();
            let wall_s = t0.elapsed().as_secs_f64();
            let snap = rec.snapshot();
            let exchange_s = [OpKind::AlltoallFramework, OpKind::AlltoallWait]
                .iter()
                .filter_map(|k| snap.get(k))
                .map(|d| d.as_secs_f64())
                .sum::<f64>();
            (losses, exchange_s, wall_s, model.wire_policy_stats())
        },
    );
    let steps = batches.len() - warmup;
    let exchange_s_per_step =
        per_rank.iter().map(|r| r.1).sum::<f64>() / (per_rank.len() * steps) as f64;
    let wall_s = per_rank.iter().map(|r| r.2).sum::<f64>() / per_rank.len() as f64;
    // Adaptive decisions are pure functions of the rank-identical reduced
    // gradient, so the per-rank counters must agree exactly.
    let policy = per_rank[0].3;
    for (rk, r) in per_rank.iter().enumerate() {
        assert_eq!(r.3, policy, "rank {rk} diverged on adaptive decisions");
    }
    WireRun {
        losses: per_rank
            .iter_mut()
            .map(|r| std::mem::take(&mut r.0))
            .collect(),
        wire: wire_stats.snapshot(),
        exchange_s_per_step,
        wall_s,
        policy,
    }
}

/// Representable-payload gate: small integers are exact in BF16, so the
/// BF16 wire must reproduce the FP32 wire bitwise for both allreduce and
/// alltoall.
fn representable_bitwise_equal(cfg: &DlrmConfig) -> bool {
    let run = |wirep: WirePrecision| -> Vec<(Vec<u32>, Vec<u32>)> {
        run_ranks(cfg, RANKS, &DistOptions::default(), None, None, |model| {
            let (comm, me) = (model.comm(), model.rank());
            let mut data: Vec<f32> = (0..64).map(|j| ((me * 7 + j) % 32) as f32 - 16.0).collect();
            collectives::allreduce_sum_wire(comm, &mut data, wirep);
            let send: Vec<Vec<f32>> = (0..comm.nranks())
                .map(|dst| {
                    (0..24)
                        .map(|j| ((me * 13 + dst * 5 + j) % 64) as f32 - 32.0)
                        .collect()
                })
                .collect();
            let recv = collectives::alltoall_wire(comm, send, wirep);
            (
                data.iter().map(|x| x.to_bits()).collect(),
                recv.iter()
                    .flat_map(|c| c.iter().map(|x| x.to_bits()))
                    .collect(),
            )
        })
    };
    run(WirePrecision::Fp32) == run(WirePrecision::Bf16)
}

fn max_loss_delta(fp: &WireRun, bf: &WireRun) -> f64 {
    fp.losses
        .iter()
        .flatten()
        .zip(bf.losses.iter().flatten())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let cfg = bench_cfg(opts.paper_scale);
    let sh = shape(opts.smoke);
    header(
        "Wire precision: FP32 / BF16 / INT8 / adaptive payloads (measured)",
        "Same model/batches/seed, overlapped CCL schedule; wire byte\n\
         counters shared across the blocking world and engine channels.\n\
         INT8 and adaptive runs compress only the gradient allreduce.",
    );

    let gn = sh.local_n * RANKS;
    let batches: Vec<MiniBatch> = (0..sh.warmup + sh.steps)
        .map(|i| {
            MiniBatch::random(
                &cfg,
                gn,
                IndexDistribution::Uniform,
                &mut seeded_rng(4200 + i as u64, 5),
            )
        })
        .collect();

    let fp = run_wire(&cfg, &batches, sh.warmup, WireConfig::default());
    let bf = run_wire(
        &cfg,
        &batches,
        sh.warmup,
        WireConfig::all(WirePrecision::Bf16),
    );
    // Alltoalls stay FP32 so the INT8 tiers are measured on the gradient
    // allreduce in isolation.
    let i8r = run_wire(
        &cfg,
        &batches,
        sh.warmup,
        WireConfig {
            allreduce: AllreduceWire::Fixed(WirePrecision::Int8),
            ..WireConfig::default()
        },
    );
    let ad = run_wire(
        &cfg,
        &batches,
        sh.warmup,
        WireConfig {
            allreduce: AllreduceWire::Adaptive {
                error_bound: ADAPTIVE_ERROR_BOUND,
            },
            ..WireConfig::default()
        },
    );

    // --- byte gates ---------------------------------------------------
    let a2a_ratio = bf.wire.alltoall_bytes as f64 / fp.wire.alltoall_bytes as f64;
    let ar_ratio = bf.wire.allreduce_bytes() as f64 / fp.wire.allreduce_bytes() as f64;
    assert_eq!(
        bf.wire.alltoall_bytes * 2,
        fp.wire.alltoall_bytes,
        "BF16 alltoall traffic must be exactly half of FP32"
    );
    assert_eq!(
        bf.wire.allreduce_bytes() * 2,
        fp.wire.allreduce_bytes(),
        "BF16 allreduce traffic must be exactly half of FP32"
    );
    assert!(
        (0.45..=0.55).contains(&a2a_ratio) && (0.45..=0.55).contains(&ar_ratio),
        "wire ratios out of band: alltoall {a2a_ratio:.3}, allreduce {ar_ratio:.3}"
    );

    // Headered INT8: payload is exactly a quarter of FP32; the 4-byte
    // per-message scale headers push the on-wire ratio just above 0.25.
    assert_eq!(
        i8r.wire.alltoall_bytes, fp.wire.alltoall_bytes,
        "INT8 run keeps alltoalls at FP32"
    );
    assert_eq!(
        (i8r.wire.allreduce_bytes() - i8r.wire.header_bytes) * 4,
        fp.wire.allreduce_bytes(),
        "headered INT8 allreduce payload must be exactly a quarter of FP32"
    );
    let i8_ar_ratio = i8r.wire.allreduce_bytes() as f64 / fp.wire.allreduce_bytes() as f64;
    assert!(
        0.25 < i8_ar_ratio && i8_ar_ratio <= 0.26,
        "headered INT8 allreduce ratio out of band: {i8_ar_ratio:.4}"
    );

    // Adaptive: every post-warmup bucket must have earned headerless
    // shared-scale INT8, giving the headline exact 4.0x reduction.
    assert_eq!(
        ad.wire.alltoall_bytes, fp.wire.alltoall_bytes,
        "adaptive run keeps alltoalls at FP32"
    );
    assert_eq!(
        ad.wire.header_bytes, 0,
        "warm adaptive buckets ship pre-agreed scales, no headers"
    );
    assert_eq!(
        ad.wire.allreduce_bytes() * 4,
        fp.wire.allreduce_bytes(),
        "adaptive allreduce traffic must be exactly a quarter of FP32"
    );
    let ad_reduction = fp.wire.allreduce_bytes() as f64 / ad.wire.allreduce_bytes() as f64;
    let ad_stats = ad.policy.expect("adaptive run records policy decisions");
    assert!(
        ad_stats.int8 > 0,
        "adaptive policy never picked INT8: {ad_stats:?}"
    );

    // --- precision gates ----------------------------------------------
    let loss_delta = max_loss_delta(&fp, &bf);
    assert!(
        loss_delta < 5e-2,
        "BF16 loss trajectory drifted {loss_delta} from FP32"
    );
    let i8_loss_delta = max_loss_delta(&fp, &i8r);
    assert!(
        i8_loss_delta < 5e-2,
        "INT8 loss trajectory drifted {i8_loss_delta} from FP32"
    );
    let ad_loss_delta = max_loss_delta(&fp, &ad);
    assert!(
        ad_loss_delta < 5e-2,
        "adaptive loss trajectory drifted {ad_loss_delta} from FP32"
    );
    let representable_ok = representable_bitwise_equal(&cfg);
    assert!(
        representable_ok,
        "representable payloads must cross the BF16 wire bitwise unchanged"
    );

    let mut t = Table::new(&[
        "wire",
        "a2a bytes",
        "ar bytes",
        "hdr bytes",
        "total bytes",
        "msgs",
        "exchange/step",
        "wall",
    ]);
    for (label, r) in [
        ("fp32", &fp),
        ("bf16", &bf),
        ("int8", &i8r),
        ("adaptive", &ad),
    ] {
        t.row(vec![
            label.to_string(),
            r.wire.alltoall_bytes.to_string(),
            r.wire.allreduce_bytes().to_string(),
            r.wire.header_bytes.to_string(),
            r.wire.total_bytes().to_string(),
            r.wire.messages.to_string(),
            fmt_time(r.exchange_s_per_step),
            fmt_time(r.wall_s),
        ]);
    }
    t.print();
    println!(
        "\nbytes-on-wire vs fp32: bf16 allreduce x{ar_ratio:.3}, int8 allreduce \
         x{i8_ar_ratio:.4} (headers included), adaptive allreduce 1/{ad_reduction:.1}"
    );
    println!(
        "adaptive decisions (bound {ADAPTIVE_ERROR_BOUND}): fp32 {}, bf16 {}, int8 {}",
        ad_stats.fp32, ad_stats.bf16, ad_stats.int8
    );
    println!(
        "max loss drift vs fp32 over {} steps x {RANKS} ranks: bf16 {loss_delta:.2e}, \
         int8 {i8_loss_delta:.2e}, adaptive {ad_loss_delta:.2e}",
        sh.steps
    );
    println!("representable payloads bitwise unchanged: {representable_ok}");

    // --- analytic cross-check (cluster simulator, same shape) ---------
    let sim = |wire| {
        simulate_iteration(
            &cfg,
            &Cluster::cluster_64socket(),
            &Calibration::default(),
            SimParams {
                ranks: RANKS,
                local_n: sh.local_n,
                strategy: Strategy::CclAlltoall,
                mode: RunMode::Overlapping,
                charge_loader: false,
                wire,
            },
        )
    };
    let sim_fp = sim(WirePrecision::Fp32);
    let sim_bf = sim(WirePrecision::Bf16);
    let sim_i8 = sim(WirePrecision::Int8);
    println!(
        "analytic (clustersim, 64-socket model): comm {} -> {} (bf16) -> {} (int8) per iteration",
        fmt_time(sim_fp.comm()),
        fmt_time(sim_bf.comm()),
        fmt_time(sim_i8.comm()),
    );

    let run_json = |r: &WireRun| {
        format!(
            "{{\"alltoall_bytes\": {}, \"allreduce_bytes\": {}, \"header_bytes\": {}, \"total_bytes\": {}, \"messages\": {}, \"exchange_s_per_step\": {:.6}, \"wall_s\": {:.6}, \"final_loss_rank0\": {:.6}}}",
            r.wire.alltoall_bytes,
            r.wire.allreduce_bytes(),
            r.wire.header_bytes,
            r.wire.total_bytes(),
            r.wire.messages,
            r.exchange_s_per_step,
            r.wall_s,
            r.losses[0].last().copied().unwrap_or(f64::NAN),
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"wire_precision\",\n  \"smoke\": {},\n  \"config\": {{\"ranks\": {RANKS}, \"local_n\": {}, \"steps\": {}, \"warmup\": {}, \"strategy\": \"ccl_alltoall\", \"schedule\": \"overlapped\", \"bucket_cap_bytes\": {BUCKET_CAP}, \"paper_scale\": {}}},\n  \"fp32\": {},\n  \"bf16\": {},\n  \"int8\": {},\n  \"adaptive\": {},\n  \"alltoall_bytes_ratio\": {:.4},\n  \"allreduce_bytes_ratio\": {:.4},\n  \"int8_allreduce_bytes_ratio\": {:.4},\n  \"adaptive_allreduce_reduction_x\": {:.4},\n  \"adaptive_error_bound\": {},\n  \"adaptive_decisions\": {{\"fp32\": {}, \"bf16\": {}, \"int8\": {}}},\n  \"max_loss_delta\": {:.6e},\n  \"int8_max_loss_delta\": {:.6e},\n  \"adaptive_max_loss_delta\": {:.6e},\n  \"representable_bitwise_equal\": {},\n  \"analytic\": {{\"fp32_comm_s\": {:.6}, \"bf16_comm_s\": {:.6}, \"int8_comm_s\": {:.6}, \"fp32_total_s\": {:.6}, \"bf16_total_s\": {:.6}, \"int8_total_s\": {:.6}}}\n}}\n",
        opts.smoke,
        sh.local_n,
        sh.steps,
        sh.warmup,
        opts.paper_scale,
        run_json(&fp),
        run_json(&bf),
        run_json(&i8r),
        run_json(&ad),
        a2a_ratio,
        ar_ratio,
        i8_ar_ratio,
        ad_reduction,
        ADAPTIVE_ERROR_BOUND,
        ad_stats.fp32,
        ad_stats.bf16,
        ad_stats.int8,
        loss_delta,
        i8_loss_delta,
        ad_loss_delta,
        representable_ok,
        sim_fp.comm(),
        sim_bf.comm(),
        sim_i8.comm(),
        sim_fp.total(),
        sim_bf.total(),
        sim_i8.total(),
    );
    validate_artifact("BENCH_wire_precision.json", &json)
        .expect("self-validation of artifact schema");
    let path = dlrm_bench::write_artifact("BENCH_wire_precision.json", &json);
    println!("\nwrote {}", path.display());
    if opts.json {
        println!("{json}");
    }
}
