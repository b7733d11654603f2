//! The four workloads: model shape, traffic shape, and the inputs made
//! from `--seed`. Shapes are frozen here and mirrored in `BENCHMARK.json`
//! and the README; changing one re-bases every number measured so far.

use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_serve::Request;
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use rand::Rng;

/// Which driver runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-process `DlrmModel::train_step`.
    Single,
    /// Two thread-ranks of `DistDlrm::train_step`.
    Dist,
    /// `ServeEngine` under a closed loop.
    Serve,
}

/// One workload: what runs, on which model, under which traffic.
#[derive(Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub cfg: DlrmConfig,
    /// Samples per train step (global batch on `Dist`); on `Serve`, the
    /// engine's `max_batch`, which the traced run's direct calls use.
    pub batch: usize,
    pub indices: IndexDistribution,
    /// Train steps and served requests per throughput window, each sized
    /// so a window of this model is about half a second at the defining
    /// commit. The untraced run uses the one of its driver, the traced run
    /// (every driver on this model) both.
    pub steps_per_window: usize,
    pub requests_per_window: usize,
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["train_mlp", "train_emb", "train_dist", "serve_zipf"];

/// Weights are part of the system, not of the generated inputs: one fixed
/// model seed for every run.
pub const MODEL_SEED: u64 = 7;
/// Learning rate of every train step (labels are random, so the loss only
/// has to stay finite).
pub const LR: f32 = 0.01;
/// Distinct batches generated per run; steps cycle through them.
pub const BATCH_POOL: usize = 64;
/// Distinct requests generated per run; the generator cycles through them.
pub const REQUEST_POOL: usize = 1 << 16;

#[allow(clippy::too_many_arguments)] // one row of the workload table
fn config(
    name: &str,
    dense: usize,
    bottom: &[usize],
    top: &[usize],
    tables: usize,
    rows: u64,
    lookups: usize,
    batch: usize,
) -> DlrmConfig {
    DlrmConfig {
        name: name.into(),
        dense_features: dense,
        bottom_mlp: bottom.to_vec(),
        top_mlp: top.to_vec(),
        num_tables: tables,
        table_rows: vec![rows; tables],
        emb_dim: 64,
        lookups_per_table: lookups,
        mb_single: batch,
        gn_strong: batch,
        ln_weak: batch,
    }
}

/// The workload called `name`, if there is one.
pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        // Compute-bound: blocked GEMMs do nearly all the work.
        "train_mlp" => Workload {
            name: "train_mlp",
            kind: Kind::Single,
            cfg: config(
                name,
                256,
                &[512, 256, 64],
                &[1024, 1024, 512, 1],
                4,
                10_000,
                1,
                256,
            ),
            batch: 256,
            indices: IndexDistribution::Uniform,
            steps_per_window: 10,
            requests_per_window: 4_000,
        },
        // Bandwidth-bound: 410 MB of tables, 256 look-ups per bag. Four
        // tables, not eight: the serial interaction backward grows with the
        // square of the table count and would otherwise be a fifth of the step.
        "train_emb" => Workload {
            name: "train_emb",
            kind: Kind::Single,
            cfg: config(name, 16, &[64, 64], &[64, 1], 4, 400_000, 256, 256),
            batch: 256,
            indices: IndexDistribution::Uniform,
            steps_per_window: 19,
            requests_per_window: 1_600,
        },
        // Hybrid-parallel: collectives on the critical path of two ranks.
        "train_dist" => Workload {
            name: "train_dist",
            kind: Kind::Dist,
            cfg: config(name, 64, &[256, 64], &[512, 256, 1], 8, 100_000, 8, 128),
            batch: 128,
            indices: IndexDistribution::Zipf { s: 1.05 },
            steps_per_window: 88,
            requests_per_window: 6_000,
        },
        // Serving: read-only cached gather + forward-only MLP + batcher.
        "serve_zipf" => Workload {
            name: "serve_zipf",
            kind: Kind::Serve,
            cfg: config(name, 64, &[128, 64], &[256, 64, 1], 8, 200_000, 8, 32),
            batch: 32,
            indices: IndexDistribution::Zipf { s: 1.1 },
            steps_per_window: 200,
            requests_per_window: 12_000,
        },
        _ => return None,
    };
    Some(w)
}

/// RNG stream ids of the generated inputs (model streams live in `dlrm`).
const BATCH_STREAM: u64 = 0xBA7C;
const REQUEST_STREAM: u64 = 0x5E4E;

impl Workload {
    /// `count` train batches, a pure function of `(self, seed)`.
    pub fn batches(&self, seed: u64, count: usize) -> Vec<MiniBatch> {
        let mut rng = seeded_rng(seed, BATCH_STREAM);
        (0..count)
            .map(|_| MiniBatch::random(&self.cfg, self.batch, self.indices, &mut rng))
            .collect()
    }

    /// `count` single-sample requests, a pure function of `(self, seed)`.
    pub fn requests(&self, seed: u64, count: usize) -> Vec<Request> {
        let mut rng = seeded_rng(seed, REQUEST_STREAM);
        let cfg = &self.cfg;
        (0..count)
            .map(|_| Request {
                dense: (0..cfg.dense_features)
                    .map(|_| rng.gen_range(-1.0..1.0f32))
                    .collect(),
                indices: cfg
                    .table_rows
                    .iter()
                    .map(|&m| self.indices.sample_many(m, cfg.lookups_per_table, &mut rng))
                    .collect(),
            })
            .collect()
    }
}

/// `reqs` as one batch, the way the engine packs a micro-batch (a lone
/// request is the batch it becomes when it is served alone).
pub fn requests_as_batch(cfg: &DlrmConfig, reqs: &[Request]) -> MiniBatch {
    let per_table = |t: usize| reqs.iter().map(move |r| &r.indices[t]);
    MiniBatch {
        dense: Matrix::from_fn(cfg.dense_features, reqs.len(), |r, c| reqs[c].dense[r]),
        indices: (0..cfg.num_tables)
            .map(|t| per_table(t).flatten().copied().collect())
            .collect(),
        offsets: (0..cfg.num_tables)
            .map(|t| {
                let mut end = 0;
                let ends = per_table(t).map(|bag| {
                    end += bag.len();
                    end
                });
                std::iter::once(0).chain(ends).collect()
            })
            .collect(),
        labels: vec![0.0; reqs.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Workload {
        let mut w = by_name(name).unwrap();
        w.cfg.table_rows = vec![500; w.cfg.num_tables];
        w.batch = 8;
        w
    }

    #[test]
    fn every_named_workload_exists_and_is_consistent() {
        for name in NAMES {
            let w = by_name(name).unwrap();
            assert_eq!(w.name, name);
            assert_eq!(*w.cfg.bottom_mlp.last().unwrap(), w.cfg.emb_dim);
            assert_eq!(*w.cfg.top_mlp.last().unwrap(), 1);
            assert_eq!(w.batch % 2, 0, "two ranks split the global batch");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn batches_are_a_pure_function_of_the_seed() {
        let w = small("train_dist");
        let (a, b, c) = (w.batches(3, 4), w.batches(3, 4), w.batches(4, 4));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.indices, y.indices);
            assert_eq!(x.labels, y.labels);
            assert_eq!(x.dense.as_slice(), y.dense.as_slice());
            x.validate(&w.cfg);
        }
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.indices != y.indices),
            "another seed must give other batches"
        );
    }

    #[test]
    fn requests_are_a_pure_function_of_the_seed() {
        let w = small("serve_zipf");
        let (a, b, c) = (w.requests(1, 50), w.requests(1, 50), w.requests(2, 50));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dense, y.dense);
            assert_eq!(x.indices, y.indices);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.indices != y.indices));
        let one = requests_as_batch(&w.cfg, &a[..1]);
        one.validate(&w.cfg);
        assert_eq!(one.batch_size(), 1);
        let three = requests_as_batch(&w.cfg, &a[..3]);
        three.validate(&w.cfg);
        assert_eq!(
            three.indices[1][..a[0].indices[1].len()],
            a[0].indices[1][..]
        );
    }
}
