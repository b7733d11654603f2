//! Ablation — embedding-update strategies vs index skew.
//!
//! The paper's Figure 7 contrast (atomic/RTM fine on random indices, 10×
//! slower than race-free under Criteo-style reuse) swept across index
//! distributions: uniform → Zipf → heavily clustered.

use dlrm_bench::{fmt_time, header, time_it, HarnessOpts, Table};
use dlrm_data::IndexDistribution;
use dlrm_kernels::embedding::{self, UpdateStrategy};
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::Matrix;

fn main() {
    let opts = HarnessOpts::from_args();
    header(
        "Ablation: update strategy vs index distribution",
        "Contention should hurt AtomicXchg/RTM; RaceFree should be immune\n\
         (but can load-imbalance under extreme clustering).",
    );
    let pool = ThreadPool::with_default_parallelism();
    let (m, e, n, p, iters) = if opts.paper_scale {
        (1_000_000usize, 64usize, 2048usize, 50usize, 3usize)
    } else {
        (50_000, 64, 512, 20, 5)
    };

    let dists: [(&str, IndexDistribution); 4] = [
        ("uniform", IndexDistribution::Uniform),
        ("zipf s=1.05", IndexDistribution::Zipf { s: 1.05 }),
        ("zipf s=1.4", IndexDistribution::Zipf { s: 1.4 }),
        (
            "clustered 0.1%/90%",
            IndexDistribution::Clustered {
                hot_fraction: 0.001,
                hot_prob: 0.9,
            },
        ),
    ];

    let mut t = Table::new(&["distribution", "Atomic XCHG", "RTM", "Race Free"]);
    for (name, dist) in dists {
        let mut rng = seeded_rng(7, 0);
        let w0 = uniform(m, e, -0.1, 0.1, &mut rng);
        let indices = dist.sample_many(m as u64, n * p, &mut rng);
        let offsets: Vec<usize> = (0..=n).map(|i| i * p).collect();
        let dw = uniform(indices.len(), e, -0.1, 0.1, &mut rng);
        let _ = offsets;

        let mut row = vec![name.to_string()];
        for strategy in [
            UpdateStrategy::AtomicXchg,
            UpdateStrategy::Rtm,
            UpdateStrategy::RaceFree,
        ] {
            let mut w: Matrix = w0.clone();
            let secs = time_it(1, iters, || {
                embedding::update(&pool, strategy, &mut w, &dw, &indices, -0.01);
            });
            row.push(fmt_time(secs));
        }
        t.row(row);
    }
    t.print();
}
