//! Criterion benches for the GEMM tiers (naive / flat parallel / blocked
//! batch-reduce) and the ISA dispatch — the kernel-level ground truth
//! behind Figure 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlrm_kernels::gemm;
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_kernels::ThreadPool;
use dlrm_tensor::blocked::Blocking;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::{BlockedActivations, BlockedWeights, Matrix};

fn bench_gemm_tiers(c: &mut Criterion) {
    let pool = ThreadPool::with_default_parallelism();
    let mut group = c.benchmark_group("gemm_tiers");
    group.sample_size(10);

    for &(n, ck) in &[(128usize, 256usize), (256, 512)] {
        let mut rng = seeded_rng(1, 0);
        let w = uniform(ck, ck, -0.5, 0.5, &mut rng);
        let x = uniform(ck, n, -0.5, 0.5, &mut rng);
        let blk = Blocking::for_shape(n, ck, ck);
        let wb = BlockedWeights::pack(&w, blk);
        let xb = BlockedActivations::pack(&x, blk.bc, blk.bn);
        group.throughput(Throughput::Elements(gemm::gemm_flops(ck, ck, n)));

        group.bench_with_input(
            BenchmarkId::new("naive", format!("{ck}x{n}")),
            &(),
            |b, _| {
                let mut y = Matrix::zeros(ck, n);
                b.iter(|| {
                    y.fill_zero();
                    gemm::gemm_nn(&w, &x, &mut y);
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("flat", format!("{ck}x{n}")),
            &(),
            |b, _| {
                let mut y = Matrix::zeros(ck, n);
                b.iter(|| {
                    y.fill_zero();
                    gemm::par_gemm_nn(&pool, &w, &x, &mut y);
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("blocked", format!("{ck}x{n}")),
            &(),
            |b, _| {
                let mut yb = BlockedActivations::zeros(ck, n, blk.bk, blk.bn);
                b.iter(|| {
                    gemm::fc_forward(&pool, &wb, &xb, &mut yb);
                });
            },
        );
    }
    group.finish();
}

fn bench_isa_tiers(c: &mut Criterion) {
    let pool = ThreadPool::new(1);
    let mut group = c.benchmark_group("gemm_isa");
    group.sample_size(10);
    let (n, ck) = (128usize, 512usize);
    let mut rng = seeded_rng(2, 0);
    let w = uniform(ck, ck, -0.5, 0.5, &mut rng);
    let x = uniform(ck, n, -0.5, 0.5, &mut rng);
    let blk = Blocking::for_shape(n, ck, ck);
    let wb = BlockedWeights::pack(&w, blk);
    let xb = BlockedActivations::pack(&x, blk.bc, blk.bn);
    group.throughput(Throughput::Elements(gemm::gemm_flops(ck, ck, n)));

    for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
        set_isa_override(Some(isa));
        if gemm::detect_isa() != isa {
            continue; // CPU lacks this tier
        }
        group.bench_function(format!("{isa:?}"), |b| {
            let mut yb = BlockedActivations::zeros(ck, n, blk.bk, blk.bn);
            b.iter(|| {
                gemm::fc_forward(&pool, &wb, &xb, &mut yb);
            });
        });
    }
    set_isa_override(None);
    group.finish();
}

criterion_group!(benches, bench_gemm_tiers, bench_isa_tiers);
criterion_main!(benches);
