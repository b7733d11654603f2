//! Shared driver for the single-socket end-to-end measurements
//! (Figures 7 and 8): trains a scaled DLRM for a few iterations under the
//! reference tier and each optimized update strategy, recording time and
//! the per-op-class split. The optimized bars run the train step's own
//! embedding kernels — the fused `embedding::backward_update` under the
//! bar's strategy; only the `framework_naive` baseline materializes `dW`.

use crate::HarnessOpts;
use dlrm::layers::Execution;
use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_tensor::init::seeded_rng;
use std::sync::Arc;

/// One measured bar of Figure 7/8.
pub struct SingleSocketRow {
    /// Config name ("Small" / "MLPerf").
    pub config: String,
    /// Strategy label (Figure 7's bar names).
    pub label: String,
    /// ms per iteration.
    pub ms_per_iter: f64,
    /// (embeddings, mlp, rest) fractions.
    pub split: (f64, f64, f64),
}

/// The scaled Small config: Table I shapes with tables capped for this
/// machine. Uniform random indices (the paper's random dataset) — little
/// update contention.
pub fn small_scaled(paper_scale: bool) -> (DlrmConfig, IndexDistribution) {
    let cfg = if paper_scale {
        DlrmConfig::small()
    } else {
        DlrmConfig::small().scaled_down(100_000, 8)
    };
    (cfg, IndexDistribution::Uniform)
}

/// The scaled MLPerf config: 26 tables, P=1, and a *clustered* index
/// distribution standing in for the Criteo Terabyte reuse pattern that
/// causes the contention of Figure 7's right half.
pub fn mlperf_scaled(paper_scale: bool) -> (DlrmConfig, IndexDistribution) {
    let cfg = if paper_scale {
        DlrmConfig::mlperf()
    } else {
        DlrmConfig::mlperf().scaled_down(100_000, 8)
    };
    (
        cfg,
        IndexDistribution::Clustered {
            hot_fraction: 0.0005,
            hot_prob: 0.7,
        },
    )
}

/// Repetitions per bar: a bar is their median.
const REPS: usize = 5;

/// How many training iterations each repetition of a bar runs.
#[derive(Debug, Clone, Copy)]
pub enum Steps {
    /// This many.
    Fixed(usize),
    /// As many as take at least this many seconds, judged from the time of
    /// one warm step (after the warm-up step that first touches the
    /// tables); every repetition of the bar runs that count.
    AtLeastSecs(f64),
}

impl Steps {
    /// Figures 7 and 8's count: two at paper scale, four under `--smoke`
    /// (CI), else half a second's worth.
    pub fn for_opts(opts: &HarnessOpts) -> Steps {
        if opts.paper_scale {
            Steps::Fixed(2)
        } else if opts.smoke {
            Steps::Fixed(4)
        } else {
            Steps::AtLeastSecs(0.5)
        }
    }
}

/// Measures one (config, tier) cell: after a warm-up step, `REPS`
/// repetitions of `steps` training iterations each, and the bar is the
/// median repetition — its ms per iteration and its split.
///
/// `framework_naive` selects the Figure 7 baseline: optimized (MKL-class)
/// MLPs but the framework's functionality-first embedding kernels — the
/// configuration the paper actually profiled as "Reference".
pub fn measure(
    cfg: &DlrmConfig,
    dist: IndexDistribution,
    exec: Execution,
    strategy: UpdateStrategy,
    framework_naive: bool,
    label: &str,
    steps: Steps,
) -> SingleSocketRow {
    let mut model = DlrmModel::new(cfg, exec, strategy, PrecisionMode::Fp32, 7);
    if framework_naive {
        for table in &mut model.tables {
            table.framework_naive = true;
        }
    }
    let mut rng = seeded_rng(99, 0);
    let batches: Vec<MiniBatch> = (0..4)
        .map(|_| MiniBatch::random(cfg, cfg.mb_single, dist, &mut rng))
        .collect();
    // Warm-up iteration (first touch of the tables), then each repetition
    // with a recorder of its own attached.
    let _ = model.train_step(&batches[0], 0.01);
    let iters = match steps {
        Steps::Fixed(n) => n,
        Steps::AtLeastSecs(secs) => {
            let t0 = std::time::Instant::now();
            let _ = model.train_step(&batches[1], 0.01);
            (secs / t0.elapsed().as_secs_f64()).ceil().max(1.0) as usize
        }
    };
    let mut reps: Vec<(f64, (f64, f64, f64))> = (0..REPS)
        .map(|_| {
            let rec = Arc::new(TimingRecorder::new());
            model.set_recorder(Some(Arc::clone(&rec)));
            for i in 0..iters {
                let _ = model.train_step(&batches[i % batches.len()], 0.01);
            }
            let [e, m, r] = [OpKind::Embeddings, OpKind::Mlp, OpKind::Rest]
                .map(|kind| rec.total(kind).as_secs_f64());
            let total = e + m + r;
            (
                total * 1e3 / iters as f64,
                (e / total, m / total, r / total),
            )
        })
        .collect();
    reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ms_per_iter, split) = reps[REPS / 2];
    SingleSocketRow {
        config: cfg.name.clone(),
        label: label.to_string(),
        ms_per_iter,
        split,
    }
}

/// Runs all four Figure 7 bars for one config.
pub fn run_config(
    cfg: &DlrmConfig,
    dist: IndexDistribution,
    threads: usize,
    steps: Steps,
) -> Vec<SingleSocketRow> {
    // The reference tier is painfully slow by design: a fixed count is
    // halved, a timed one sizes itself.
    let ref_steps = match steps {
        Steps::Fixed(n) => Steps::Fixed(n.div_ceil(2)),
        timed => timed,
    };
    let mut rows = Vec::new();
    rows.push(measure(
        cfg,
        dist,
        Execution::optimized(threads),
        UpdateStrategy::RaceFree,
        true,
        "Reference",
        ref_steps,
    ));
    for strategy in [
        UpdateStrategy::AtomicXchg,
        UpdateStrategy::Rtm,
        UpdateStrategy::RaceFree,
    ] {
        rows.push(measure(
            cfg,
            dist,
            Execution::optimized(threads),
            strategy,
            false,
            &strategy.to_string(),
            steps,
        ));
    }
    rows
}
