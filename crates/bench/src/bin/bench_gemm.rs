//! Packed-GEMM execution-plan benchmark — what pack-once weights, blocked
//! activation residency and fused backward epilogues buy over the
//! pack-per-call execution the MLP path used before the persistent plan.
//!
//! For each layer shape × ISA tier, times the three training passes of one
//! fully-connected layer under two arms:
//!
//! * **per-call** — exactly the pre-plan optimized path: re-pack W (and
//!   X/dY) into the blocked layout on every call, allocate fresh blocked
//!   outputs, run the unfused batch-reduce kernel, unpack the result, and
//!   apply the ReLU mask / bias-gradient reduction as separate flat
//!   passes;
//! * **persistent** — the packed plan: weights packed once outside the
//!   loop, activations/gradients resident in grow-only blocked scratch
//!   (the kernel overwrites them: no zero-fill, no alloc, no repack),
//!   epilogues fused into the kernel writeback. `bwd_weights` still includes the `dW` unpack the
//!   real step performs for the flat optimizer/DDP wire.
//!
//! Before timing, both arms are checked **bitwise identical** per pass
//! (`equivalence_ok` in the artifact, and a hard assert here) — the same
//! contract `crates/dlrm/tests/packed_plan_equivalence.rs` enforces at the
//! full-MLP level.
//!
//! Writes `results/BENCH_gemm.json` (schema checked by
//! `dlrm_bench::validate_artifact`, also run by CI).

use dlrm_bench::{header, time_it, validate_artifact, HarnessOpts, Table};
use dlrm_kernels::activations::{bias_grad_rows, relu_backward};
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_kernels::gemm::{self, gemm_flops};
use dlrm_kernels::threadpool::pin_current_thread;
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::{BlockedActivations, BlockedWeights, Blocking, Matrix};

/// Fixed thread-team size so per-call vs persistent is a property of the
/// algorithm, not of the host's core count: `train_mlp`'s team of two,
/// pinned to cores 0 and 1 as the repo benchmark pins it.
const THREADS: usize = 2;

fn isa_key(isa: Isa) -> &'static str {
    match isa {
        Isa::Scalar => "scalar",
        Isa::Avx2 => "avx2",
        Isa::Avx512 => "avx512",
    }
}

struct Sizes {
    /// (n, c, k) per benchmarked layer.
    configs: Vec<(usize, usize, usize)>,
    warmup: usize,
    iters: usize,
}

fn sizes(opts: &HarnessOpts) -> Sizes {
    if opts.smoke {
        Sizes {
            configs: vec![(64, 64, 64)],
            warmup: 1,
            iters: 2,
        }
    } else if opts.paper_scale {
        Sizes {
            configs: vec![(1024, 1024, 1024), (1024, 2048, 2048), (1024, 4096, 4096)],
            warmup: 1,
            iters: 10,
        }
    } else {
        // The last three are `train_mlp`'s top-MLP layers 1024 → 1024,
        // 1024 → 512 and the 512 → 1 head.
        Sizes {
            configs: vec![
                (256, 512, 512),
                (256, 1024, 1024),
                (256, 1024, 512),
                (256, 512, 1),
            ],
            warmup: 2,
            iters: 20,
        }
    }
}

/// Seconds/iter for (per-call, persistent) on one pass.
struct PassTimes {
    name: &'static str,
    per_call_s: f64,
    persistent_s: f64,
}

struct TierResult {
    isa: Isa,
    passes: Vec<PassTimes>,
}

fn bits(s: &[f32]) -> Vec<u32> {
    s.iter().map(|v| v.to_bits()).collect()
}

/// Benchmarks one layer shape under the current ISA override; asserts the
/// two arms bitwise identical per pass before timing them.
fn bench_tier(
    pool: &ThreadPool,
    n: usize,
    c: usize,
    k: usize,
    warmup: usize,
    iters: usize,
    isa: Isa,
) -> TierResult {
    let mut rng = seeded_rng(0xB61C, (n * c * k) as u64);
    let w = uniform(k, c, -0.5, 0.5, &mut rng);
    let b = uniform(k, 1, -0.5, 0.5, &mut rng).as_slice().to_vec();
    let x = uniform(c, n, -1.0, 1.0, &mut rng);
    let dy = uniform(k, n, -1.0, 1.0, &mut rng);
    let blk = Blocking::for_shape(n, c, k);

    // Persistent-plan state: packed once, resident across iterations.
    let wb = BlockedWeights::pack(&w, blk);
    let xb = BlockedActivations::pack(&x, blk.bc, blk.bn);
    let dyb = BlockedActivations::pack(&dy, blk.bk, blk.bn);
    let mut yb = BlockedActivations::zeros(k, n, blk.bk, blk.bn);
    let mut dxb = BlockedActivations::zeros(c, n, blk.bc, blk.bn);
    let mut dwb = BlockedWeights::zeros(k, c, blk);
    let mut dw_flat = Matrix::zeros(k, c);
    let mut db = vec![0.0f32; k];

    // --- Bitwise equivalence of the two arms, per pass. ---
    gemm::fc_forward_fused(pool, &wb, &xb, &mut yb, Some(&b), true);
    let y_pers = yb.unpack();
    let y_pc = {
        let wb2 = BlockedWeights::pack(&w, blk);
        let xb2 = BlockedActivations::pack(&x, blk.bc, blk.bn);
        let mut yb2 = BlockedActivations::zeros(k, n, blk.bk, blk.bn);
        gemm::fc_forward_fused(pool, &wb2, &xb2, &mut yb2, Some(&b), true);
        yb2.unpack()
    };
    assert_eq!(
        bits(y_pers.as_slice()),
        bits(y_pc.as_slice()),
        "{isa:?} {n}x{c}x{k}: fwd arms diverged"
    );
    gemm::fc_backward_data_fused(pool, &wb, &dyb, &mut dxb, Some(&xb));
    let dx_pers = dxb.unpack();
    let dx_pc = {
        let wb2 = BlockedWeights::pack(&w, blk);
        let dyb2 = BlockedActivations::pack(&dy, blk.bk, blk.bn);
        let mut dxb2 = BlockedActivations::zeros(c, n, blk.bc, blk.bn);
        gemm::fc_backward_data(pool, &wb2, &dyb2, &mut dxb2);
        let mut dx = dxb2.unpack();
        relu_backward(x.as_slice(), dx.as_mut_slice());
        dx
    };
    assert_eq!(
        bits(dx_pers.as_slice()),
        bits(dx_pc.as_slice()),
        "{isa:?} {n}x{c}x{k}: bwd_data arms diverged"
    );
    gemm::fc_backward_weights_fused(pool, &xb, &dyb, &mut dwb, &mut db);
    dwb.unpack_into(&mut dw_flat);
    let (dw_pc, db_pc) = {
        let xb2 = BlockedActivations::pack(&x, blk.bc, blk.bn);
        let dyb2 = BlockedActivations::pack(&dy, blk.bk, blk.bn);
        let mut dwb2 = BlockedWeights::zeros(k, c, blk);
        gemm::fc_backward_weights(pool, &xb2, &dyb2, &mut dwb2);
        let mut db2 = vec![0.0f32; k];
        bias_grad_rows(dy.as_slice(), k, n, &mut db2);
        (dwb2.unpack(), db2)
    };
    assert_eq!(
        bits(dw_flat.as_slice()),
        bits(dw_pc.as_slice()),
        "{isa:?} {n}x{c}x{k}: bwd_weights dW arms diverged"
    );
    assert_eq!(
        bits(&db),
        bits(&db_pc),
        "{isa:?} {n}x{c}x{k}: dB arms diverged"
    );

    // --- Timed arms. ---
    let fwd_pc = time_it(warmup, iters, || {
        let wb2 = BlockedWeights::pack(&w, blk);
        let xb2 = BlockedActivations::pack(&x, blk.bc, blk.bn);
        let mut yb2 = BlockedActivations::zeros(k, n, blk.bk, blk.bn);
        gemm::fc_forward_fused(pool, &wb2, &xb2, &mut yb2, Some(&b), true);
        yb2.unpack()
    });
    let fwd_pers = time_it(warmup, iters, || {
        gemm::fc_forward_fused(pool, &wb, &xb, &mut yb, Some(&b), true);
    });

    let bwd_d_pc = time_it(warmup, iters, || {
        let wb2 = BlockedWeights::pack(&w, blk);
        let dyb2 = BlockedActivations::pack(&dy, blk.bk, blk.bn);
        let mut dxb2 = BlockedActivations::zeros(c, n, blk.bc, blk.bn);
        gemm::fc_backward_data(pool, &wb2, &dyb2, &mut dxb2);
        let mut dx = dxb2.unpack();
        relu_backward(x.as_slice(), dx.as_mut_slice());
        dx
    });
    let bwd_d_pers = time_it(warmup, iters, || {
        gemm::fc_backward_data_fused(pool, &wb, &dyb, &mut dxb, Some(&xb));
    });

    let bwd_w_pc = time_it(warmup, iters, || {
        let xb2 = BlockedActivations::pack(&x, blk.bc, blk.bn);
        let dyb2 = BlockedActivations::pack(&dy, blk.bk, blk.bn);
        let mut dwb2 = BlockedWeights::zeros(k, c, blk);
        gemm::fc_backward_weights(pool, &xb2, &dyb2, &mut dwb2);
        let mut db2 = vec![0.0f32; k];
        bias_grad_rows(dy.as_slice(), k, n, &mut db2);
        (dwb2.unpack(), db2)
    });
    let bwd_w_pers = time_it(warmup, iters, || {
        gemm::fc_backward_weights_fused(pool, &xb, &dyb, &mut dwb, &mut db);
        dwb.unpack_into(&mut dw_flat);
    });

    TierResult {
        isa,
        passes: vec![
            PassTimes {
                name: "fwd",
                per_call_s: fwd_pc,
                persistent_s: fwd_pers,
            },
            PassTimes {
                name: "bwd_data",
                per_call_s: bwd_d_pc,
                persistent_s: bwd_d_pers,
            },
            PassTimes {
                name: "bwd_weights",
                per_call_s: bwd_w_pc,
                persistent_s: bwd_w_pers,
            },
        ],
    }
}

impl TierResult {
    fn fwd_bwd_speedup(&self) -> f64 {
        let pc: f64 = self.passes.iter().map(|p| p.per_call_s).sum();
        let pers: f64 = self.passes.iter().map(|p| p.persistent_s).sum();
        pc / pers
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    header(
        "Packed-GEMM execution plan: pack-per-call vs persistent",
        "GFLOP/s per training pass; persistent = pack-once weights, blocked \
         residency, fused epilogues.",
    );
    let s = sizes(&opts);
    let cores: Vec<usize> = (0..THREADS).collect();
    pin_current_thread(cores[0]);
    let pool = ThreadPool::with_affinity(&cores);
    let tiers = available_isas();
    println!(
        "threads = {THREADS}, tiers = {:?}, iters = {}\n",
        tiers, s.iters
    );

    let mut results: Vec<((usize, usize, usize), Vec<TierResult>)> = Vec::new();
    for &(n, c, k) in &s.configs {
        let mut per_tier = Vec::new();
        for &isa in &tiers {
            set_isa_override(Some(isa));
            per_tier.push(bench_tier(&pool, n, c, k, s.warmup, s.iters, isa));
        }
        set_isa_override(None);
        results.push(((n, c, k), per_tier));
    }

    // Headline gate metric: min over shapes at the *native* (highest
    // available) ISA tier — the tier production dispatch actually uses. At
    // the scalar tier the GEMM is so slow that pack overhead vanishes into
    // run-to-run noise, so cross-tier minima measure jitter, not the plan.
    let native = *tiers.last().expect("at least the scalar tier");
    let mut min_speedup = f64::INFINITY;
    for ((n, c, k), per_tier) in &results {
        println!("layer N={n} C={c} K={k}:");
        let mut t = Table::new(&["isa", "pass", "per-call GF/s", "persistent GF/s", "speedup"]);
        let flops = gemm_flops(*k, *c, *n) as f64;
        for tr in per_tier {
            for p in &tr.passes {
                t.row(vec![
                    isa_key(tr.isa).to_string(),
                    p.name.to_string(),
                    format!("{:.2}", flops / p.per_call_s / 1e9),
                    format!("{:.2}", flops / p.persistent_s / 1e9),
                    format!("{:.2}x", p.per_call_s / p.persistent_s),
                ]);
            }
            if tr.isa == native {
                min_speedup = min_speedup.min(tr.fwd_bwd_speedup());
            }
        }
        t.print();
        println!();
    }
    println!(
        "min fwd+bwd persistent speedup across shapes at native tier ({}): {min_speedup:.2}x",
        isa_key(native)
    );
    println!("equivalence: all passes bitwise identical across arms (asserted)");

    // --- Artifact. ---
    let mut cfg_json = Vec::new();
    for ((n, c, k), per_tier) in &results {
        let flops = gemm_flops(*k, *c, *n) as f64;
        let tiers_json: Vec<String> = per_tier
            .iter()
            .map(|tr| {
                let passes: Vec<String> = tr
                    .passes
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"pass\": \"{}\", \"per_call_gflops\": {:.3}, \"persistent_gflops\": {:.3}, \"speedup\": {:.4}}}",
                            p.name,
                            flops / p.per_call_s / 1e9,
                            flops / p.persistent_s / 1e9,
                            p.per_call_s / p.persistent_s
                        )
                    })
                    .collect();
                format!(
                    "{{\"isa\": \"{}\", \"passes\": [{}], \"fwd_bwd_speedup\": {:.4}}}",
                    isa_key(tr.isa),
                    passes.join(", "),
                    tr.fwd_bwd_speedup()
                )
            })
            .collect();
        cfg_json.push(format!(
            "{{\"n\": {n}, \"c\": {c}, \"k\": {k}, \"tiers\": [{}]}}",
            tiers_json.join(", ")
        ));
    }
    let tier_names: Vec<String> = tiers
        .iter()
        .map(|i| format!("\"{}\"", isa_key(*i)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"gemm\",\n  \"smoke\": {},\n  \"threads\": {THREADS},\n  \
         \"isa_tiers\": [{}],\n  \"configs\": [\n    {}\n  ],\n  \
         \"native_isa\": \"{}\",\n  \"min_fwd_bwd_speedup\": {:.4},\n  \
         \"equivalence_ok\": true\n}}\n",
        opts.smoke,
        tier_names.join(", "),
        cfg_json.join(",\n    "),
        isa_key(native),
        min_speedup
    );
    validate_artifact("BENCH_gemm.json", &json).expect("self-validation of the artifact schema");
    let path = dlrm_bench::write_artifact("BENCH_gemm.json", &json);
    println!("\nwrote {} (schema self-validated)", path.display());
}
