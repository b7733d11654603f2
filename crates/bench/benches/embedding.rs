//! Criterion benches for the EmbeddingBag kernels: forward, the four
//! update strategies under two index distributions, and the fused
//! backward+update.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlrm_data::IndexDistribution;
use dlrm_kernels::embedding::{self, UpdateStrategy};
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::Matrix;

const M: usize = 50_000;
const E: usize = 64;
const N: usize = 256;
const P: usize = 20;

struct Setup {
    w: Matrix,
    indices: Vec<u32>,
    offsets: Vec<usize>,
    dy: Matrix,
    dw: Matrix,
}

fn setup(dist: IndexDistribution) -> Setup {
    let mut rng = seeded_rng(11, 0);
    let w = uniform(M, E, -0.1, 0.1, &mut rng);
    let indices = dist.sample_many(M as u64, N * P, &mut rng);
    let offsets: Vec<usize> = (0..=N).map(|i| i * P).collect();
    let dy = uniform(N, E, -0.1, 0.1, &mut rng);
    let dw = uniform(indices.len(), E, -0.1, 0.1, &mut rng);
    Setup {
        w,
        indices,
        offsets,
        dy,
        dw,
    }
}

fn bench_forward(c: &mut Criterion) {
    let pool = ThreadPool::with_default_parallelism();
    let s = setup(IndexDistribution::Uniform);
    let mut group = c.benchmark_group("embedding_forward");
    group.sample_size(10);
    group.throughput(Throughput::Bytes((N * P * E * 4) as u64));
    group.bench_function("reference", |b| {
        let mut out = Matrix::zeros(N, E);
        b.iter(|| embedding::forward_reference(&s.w, &s.indices, &s.offsets, &mut out));
    });
    group.bench_function("optimized", |b| {
        let mut out = Matrix::zeros(N, E);
        b.iter(|| embedding::forward(&pool, &s.w, &s.indices, &s.offsets, &mut out));
    });
    group.finish();
}

fn bench_update_strategies(c: &mut Criterion) {
    let pool = ThreadPool::with_default_parallelism();
    let mut group = c.benchmark_group("embedding_update");
    group.sample_size(10);
    for (name, dist) in [
        ("uniform", IndexDistribution::Uniform),
        (
            "clustered",
            IndexDistribution::Clustered {
                hot_fraction: 0.001,
                hot_prob: 0.9,
            },
        ),
    ] {
        let s = setup(dist);
        for strategy in UpdateStrategy::ALL {
            group.bench_with_input(BenchmarkId::new(strategy.to_string(), name), &(), |b, _| {
                let mut w = s.w.clone();
                b.iter(|| embedding::update(&pool, strategy, &mut w, &s.dw, &s.indices, -0.001));
            });
        }
    }
    group.finish();
}

fn bench_fused(c: &mut Criterion) {
    let pool = ThreadPool::with_default_parallelism();
    let s = setup(IndexDistribution::Uniform);
    let mut group = c.benchmark_group("embedding_fused");
    group.sample_size(10);
    group.bench_function("backward_then_update", |b| {
        let mut w = s.w.clone();
        b.iter(|| {
            let mut dw = Matrix::zeros(s.indices.len(), E);
            embedding::backward(&pool, &s.dy, &s.offsets, &mut dw);
            embedding::update(
                &pool,
                UpdateStrategy::RaceFree,
                &mut w,
                &dw,
                &s.indices,
                -0.001,
            );
        });
    });
    let strategy = UpdateStrategy::RaceFree;
    group.bench_function(BenchmarkId::new("fused", strategy.to_string()), |b| {
        let mut w = s.w.clone();
        b.iter(|| {
            embedding::backward_update(
                &pool, strategy, &mut w, &s.dy, &s.indices, &s.offsets, -0.001,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_forward, bench_update_strategies, bench_fused);
criterion_main!(benches);
