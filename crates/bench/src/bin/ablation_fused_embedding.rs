//! Section III-A ablation — fused embedding backward+update vs the
//! separate backward-then-update pipeline (paper: up to 1.6× standalone).

use dlrm_bench::{fmt_speedup, fmt_time, header, paper, time_it, HarnessOpts, Table};
use dlrm_data::IndexDistribution;
use dlrm_kernels::embedding::{self, UpdateStrategy};
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::Matrix;

fn main() {
    let opts = HarnessOpts::from_args();
    header(
        "Ablation: fused embedding backward+update (Section III-A)",
        "Paper: fusing avoids materializing dW[NS][E]; up to 1.6x standalone.",
    );
    let pool = ThreadPool::with_default_parallelism();
    let (m, e, n, p) = if opts.paper_scale {
        (1_000_000usize, 64usize, 2048usize, 50usize)
    } else {
        (100_000, 64, 512, 50)
    };
    let mut rng = seeded_rng(3, 0);
    let w0 = uniform(m, e, -0.1, 0.1, &mut rng);
    let dist = IndexDistribution::Uniform;
    let indices = dist.sample_many(m as u64, n * p, &mut rng);
    let offsets: Vec<usize> = (0..=n).map(|i| i * p).collect();
    let dy = uniform(n, e, -0.1, 0.1, &mut rng);
    let ns = indices.len();

    let mut w = w0.clone();
    let t_unfused = time_it(1, 5, || {
        let mut dw = Matrix::zeros(ns, e);
        embedding::backward(&pool, &dy, &offsets, &mut dw);
        embedding::update(
            &pool,
            UpdateStrategy::RaceFree,
            &mut w,
            &dw,
            &indices,
            -0.01,
        );
    });

    // The train step's kernel. `RaceFree` scans, `Bucketed` plans (the
    // per-batch plan build is part of the cost; its buffers are reused, as
    // in the layer).
    let mut plan = embedding::BagPlan::new();
    let mut fused = |strategy| {
        let mut w = w0.clone();
        time_it(1, 5, || {
            embedding::backward_update(
                &pool, strategy, &mut w, &dy, &indices, &offsets, -0.01, &mut plan,
            );
        })
    };
    let t_fused = fused(UpdateStrategy::RaceFree);
    let t_planned = fused(UpdateStrategy::Bucketed);

    let mut t = Table::new(&["variant", "time/iter", "speedup"]);
    t.row(vec![
        "backward + update".into(),
        fmt_time(t_unfused),
        "1.00x".into(),
    ]);
    t.row(vec![
        "fused (Race Free)".into(),
        fmt_time(t_fused),
        fmt_speedup(t_unfused / t_fused),
    ]);
    t.row(vec![
        "fused (Bucketed)".into(),
        fmt_time(t_planned),
        fmt_speedup(t_unfused / t_planned),
    ]);
    t.print();
    println!(
        "\nPaper: up to {}x. Table {m} rows x {e}, N={n}, P={p}.",
        paper::FUSED_EMBEDDING_SPEEDUP
    );
}
