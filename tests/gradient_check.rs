//! End-to-end gradient check: finite differences through the *entire*
//! DLRM (bottom MLP → embeddings → interaction → top MLP → BCE loss)
//! against the analytic gradients the training step applies, on both
//! execution tiers. A probe writes the blocked weight the forward reads;
//! were that not the weight the model computes with, every MLP finite
//! difference would be zero and agree with an equally frozen analytic
//! gradient, so the check also requires a bottom and a top probe to move
//! the loss.

use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_kernels::loss::bce_with_logits_loss;
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::BlockedWeights;

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(16, 1024);
    cfg.dense_features = 5;
    cfg.bottom_mlp = vec![6, 4];
    cfg.emb_dim = 4;
    cfg.num_tables = 2;
    cfg.table_rows = vec![16, 8];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![6, 1];
    cfg
}

fn model_and_batch(exec: &Execution, strategy: UpdateStrategy) -> (DlrmModel, MiniBatch) {
    let cfg = tiny_cfg();
    let batch = MiniBatch::random(&cfg, 6, IndexDistribution::Uniform, &mut seeded_rng(31, 0));
    let model = DlrmModel::new(&cfg, exec.clone(), strategy, PrecisionMode::Fp32, 8);
    (model, batch)
}

/// The two tiers under check, with the update strategy each trains with.
fn tiers() -> [(&'static str, Execution, UpdateStrategy); 2] {
    [
        ("Reference", Execution::Reference, UpdateStrategy::Reference),
        (
            "optimized(2)",
            Execution::optimized(2),
            UpdateStrategy::RaceFree,
        ),
    ]
}

/// A finite difference larger than this moved the loss.
const MOVED: f64 = 1e-4;

fn loss_of(model: &mut DlrmModel, batch: &MiniBatch) -> f64 {
    let logits = model.forward(batch);
    bce_with_logits_loss(&logits, &batch.labels)
}

/// Analytic gradient via one SGD step of known learning rate: after
/// `train_step(lr)`, `w' = w − lr·g`, so `g = (w − w') / lr`.
fn implied_gradient(w_before: f32, w_after: f32, lr: f32) -> f64 {
    ((w_before - w_after) / lr) as f64
}

#[test]
fn full_model_gradients_match_finite_differences() {
    let lr = 1e-3f32;
    let h = 1e-2f32;

    // Probe a handful of parameters spread across every component.
    // (component, layer-or-table, row, col)
    enum Probe {
        Bottom(usize, usize, usize),
        Top(usize, usize, usize),
        Table(usize, usize, usize),
    }
    let probes = [
        Probe::Bottom(0, 2, 3),
        Probe::Bottom(1, 1, 0),
        Probe::Top(0, 3, 5),
        Probe::Top(1, 0, 2),
        Probe::Table(0, 3, 1),
        Probe::Table(1, 5, 2),
    ];

    let at = |w: &BlockedWeights, r: usize, c: usize| w.as_slice()[w.index_of(r, c)];
    let set = |w: &mut BlockedWeights, r: usize, c: usize, v: f32| {
        let i = w.index_of(r, c);
        w.as_mut_slice()[i] = v;
    };

    for (tier, exec, strategy) in tiers() {
        let (mut bottom_moved, mut top_moved) = (false, false);
        for (pi, probe) in probes.iter().enumerate() {
            // Fresh model per probe: train_step mutates everything.
            let (mut model, batch) = model_and_batch(&exec, strategy);

            let read = |m: &DlrmModel| -> f32 {
                match probe {
                    Probe::Bottom(l, r, c) => at(&m.bottom.layers[*l].w, *r, *c),
                    Probe::Top(l, r, c) => at(&m.top.layers[*l].w, *r, *c),
                    Probe::Table(t, r, c) => m.tables[*t].weight[(*r, *c)],
                }
            };
            let write = |m: &mut DlrmModel, v: f32| match probe {
                Probe::Bottom(l, r, c) => set(&mut m.bottom.layers[*l].w, *r, *c, v),
                Probe::Top(l, r, c) => set(&mut m.top.layers[*l].w, *r, *c, v),
                Probe::Table(t, r, c) => m.tables[*t].weight[(*r, *c)] = v,
            };

            // Finite difference of the loss.
            let orig = read(&model);
            write(&mut model, orig + h);
            let lp = loss_of(&mut model, &batch);
            write(&mut model, orig - h);
            let lm = loss_of(&mut model, &batch);
            write(&mut model, orig);
            let fd = (lp - lm) / (2.0 * h as f64);

            // Analytic gradient implied by one SGD step.
            let before = read(&model);
            let _ = model.train_step(&batch, lr);
            let after = read(&model);
            let analytic = implied_gradient(before, after, lr);

            // Embedding-table probes may legitimately have zero gradient
            // when the row was never looked up; the finite difference
            // agrees (0≈0). So may an MLP weight behind a dead ReLU.
            assert!(
                (analytic - fd).abs() < 2e-3_f64.max(0.15 * fd.abs()),
                "{tier} probe {pi}: analytic {analytic:.6} vs finite-difference {fd:.6}"
            );
            match probe {
                Probe::Bottom(..) => bottom_moved |= fd.abs() > MOVED,
                Probe::Top(..) => top_moved |= fd.abs() > MOVED,
                Probe::Table(..) => {}
            }
        }
        assert!(
            bottom_moved && top_moved,
            "{tier}: no bottom (moved: {bottom_moved}) or no top (moved: {top_moved}) MLP \
             probe moved the loss by |fd| > {MOVED}, so the check measured nothing"
        );
    }
}

#[test]
fn at_least_one_table_row_receives_gradient() {
    // Guard that the previous test exercises real embedding gradients.
    let lr = 0.1f32;
    let (mut model, batch) = model_and_batch(&Execution::Reference, UpdateStrategy::Reference);
    let before: Vec<Vec<f32>> = model
        .tables
        .iter()
        .map(|t| t.weight.as_slice().to_vec())
        .collect();
    let _ = model.train_step(&batch, lr);
    let mut changed = 0usize;
    for (t, b) in model.tables.iter().zip(&before) {
        changed += t
            .weight
            .as_slice()
            .iter()
            .zip(b)
            .filter(|(x, y)| x != y)
            .count();
    }
    assert!(changed > 0, "embedding tables must receive updates");
}
