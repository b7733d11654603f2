//! Serving-path edge coverage: bitwise identity with the training model's
//! forward across traffic shapes, empty bags, single-row tables,
//! batch-size-1 micro-batches, and engine end-to-end agreement.
//!
//! The reference on every right-hand side is `DlrmModel::forward` — the
//! pool-parallel `embedding::forward` and a forward loop of its own — not
//! a second `ServeModel`: since the cache left the request path ("cached"
//! and "uncached" are the same code) that would compare a thing with
//! itself.

use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_serve::{CacheSizing, Request, ServeConfig, ServeEngine, ServeModel};
use dlrm_tensor::init::seeded_rng;
use std::time::Duration;

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(500, 256);
    cfg.dense_features = 16;
    cfg.bottom_mlp = vec![16, 8];
    cfg.emb_dim = 8;
    cfg.num_tables = 3;
    cfg.table_rows = vec![500, 64, 16];
    cfg.lookups_per_table = 3;
    cfg.top_mlp = vec![16, 1];
    cfg
}

/// The independent reference: the trainable model on a team of two.
fn reference(cfg: &DlrmConfig, seed: u64) -> DlrmModel {
    DlrmModel::new(
        cfg,
        Execution::optimized(2),
        UpdateStrategy::RaceFree,
        PrecisionMode::Fp32,
        seed,
    )
}

/// Extracts sample `i` of a batch as a single-user request.
fn request_of(batch: &MiniBatch, i: usize) -> Request {
    let dense = (0..batch.dense.rows())
        .map(|r| batch.dense[(r, i)])
        .collect();
    let indices = (0..batch.num_tables())
        .map(|t| batch.indices[t][batch.offsets[t][i]..batch.offsets[t][i + 1]].to_vec())
        .collect();
    Request { dense, indices }
}

#[test]
fn cached_forward_bitwise_identical_to_uncached_across_traffic_shapes() {
    let cfg = tiny_cfg();
    for (name, dist) in [
        ("zipf", IndexDistribution::Zipf { s: 1.1 }),
        (
            "clustered",
            IndexDistribution::Clustered {
                hot_fraction: 0.01,
                hot_prob: 0.9,
            },
        ),
        ("uniform", IndexDistribution::Uniform),
    ] {
        let mut train = reference(&cfg, 7);
        let mut uncached = ServeModel::new(&cfg, Execution::optimized(2), CacheSizing::Disabled, 7);
        let mut cached = ServeModel::new(
            &cfg,
            Execution::optimized(2),
            CacheSizing::Fraction(0.05),
            7,
        );
        let mut rng = seeded_rng(42, 1);
        // Several rounds: the reused gather outputs and batch scratch are
        // warm from the second on.
        for round in 0..4 {
            let batch = MiniBatch::random(&cfg, 24, dist, &mut rng);
            let want = train.forward(&batch);
            let got = uncached.forward(&batch);
            assert_eq!(got, want, "{name} round {round}: uncached != training");
            let got = cached.forward(&batch);
            assert_eq!(got, want, "{name} round {round}: cached != training");
        }
        let stats = cached.cache_stats();
        assert!(
            stats.len() == cfg.num_tables && stats.iter().all(Option::is_none),
            "{name}: no table is fronted by a cache"
        );
    }
}

#[test]
fn serve_forward_matches_training_model_forward() {
    let cfg = tiny_cfg();
    let mut train = reference(&cfg, 21);
    let mut serve = ServeModel::new(&cfg, Execution::optimized(2), CacheSizing::Rows(64), 21);
    let mut rng = seeded_rng(5, 0);
    let batch = MiniBatch::random(&cfg, 16, IndexDistribution::Zipf { s: 1.1 }, &mut rng);
    assert_eq!(
        serve.forward(&batch),
        train.forward(&batch),
        "serving forward must reproduce the training stack's forward bitwise"
    );
}

#[test]
fn empty_bags_are_served_and_identical() {
    let cfg = tiny_cfg();
    let mut train = reference(&cfg, 3);
    let mut cached = ServeModel::new(&cfg, Execution::optimized(2), CacheSizing::Rows(8), 3);
    let mut rng = seeded_rng(9, 0);
    let mut batch = MiniBatch::random(&cfg, 6, IndexDistribution::Uniform, &mut rng);
    // Empty every bag of table 1, and bag 2 of every table (a fully
    // featureless sample).
    batch.indices[1].clear();
    batch.offsets[1] = vec![0; batch.batch_size() + 1];
    for t in 0..batch.num_tables() {
        let (lo, hi) = (batch.offsets[t][2], batch.offsets[t][3]);
        batch.indices[t].drain(lo..hi);
        for off in batch.offsets[t].iter_mut().skip(3) {
            *off -= hi - lo;
        }
    }
    let want = train.forward(&batch);
    let got = cached.forward(&batch);
    assert_eq!(got, want, "empty bags: served != training");
    assert_eq!(want.len(), 6);
    assert!(want.iter().all(|l| l.is_finite()));
}

#[test]
fn single_row_tables_serve_identically() {
    let mut cfg = tiny_cfg();
    cfg.table_rows = vec![1, 1, 1];
    let mut train = reference(&cfg, 11);
    let mut cached = ServeModel::new(
        &cfg,
        Execution::optimized(2),
        CacheSizing::Fraction(0.01),
        11,
    );
    let mut rng = seeded_rng(13, 0);
    let batch = MiniBatch::random(&cfg, 8, IndexDistribution::Uniform, &mut rng);
    assert_eq!(cached.forward(&batch), train.forward(&batch));
    // A 1-row table with any fraction is as uncached as any other.
    let stats = cached.cache_stats();
    assert!(
        stats.len() == cfg.num_tables && stats.iter().all(Option::is_none),
        "no table is fronted by a cache"
    );
}

#[test]
fn engine_batch_size_one_micro_batches() {
    let cfg = tiny_cfg();
    let mut direct = reference(&cfg, 17);
    let engine = ServeEngine::start(
        ServeModel::new(&cfg, Execution::optimized(2), CacheSizing::Rows(32), 17),
        ServeConfig {
            max_batch: 1,
            window: Duration::ZERO,
        },
    );
    let client = engine.client();
    let mut rng = seeded_rng(19, 0);
    let batch = MiniBatch::random(&cfg, 10, IndexDistribution::Zipf { s: 1.1 }, &mut rng);
    for i in 0..10 {
        let req = request_of(&batch, i);
        let resp = client.infer(req).expect("infer");
        let single = batch.slice(i, i + 1);
        let want = direct.forward(&single)[0];
        assert_eq!(resp.logit, want, "request {i}: batch-of-1 must be bitwise");
        assert!((0.0..=1.0).contains(&resp.prob));
    }
    let report = engine.shutdown();
    assert_eq!(report.requests, 10);
    assert_eq!(report.max_batch_seen, 1, "max_batch=1 must cap every batch");
    assert_eq!(report.latencies_us.len(), 10);
}

#[test]
fn engine_concurrent_clients_match_direct_forward() {
    let cfg = tiny_cfg();
    let mut direct = reference(&cfg, 23);
    let engine = ServeEngine::start(
        ServeModel::new(
            &cfg,
            Execution::optimized(2),
            CacheSizing::Fraction(0.1),
            23,
        ),
        ServeConfig {
            max_batch: 8,
            window: Duration::from_micros(500),
        },
    );
    let mut rng = seeded_rng(29, 0);
    let batch = MiniBatch::random(
        &cfg,
        40,
        IndexDistribution::Clustered {
            hot_fraction: 0.02,
            hot_prob: 0.8,
        },
        &mut rng,
    );
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let client = engine.client();
            let batch = batch.clone();
            std::thread::spawn(move || {
                (0..10)
                    .map(|j| {
                        let i = w * 10 + j;
                        (i, client.infer(request_of(&batch, i)).expect("infer"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut responses: Vec<(usize, f32)> = Vec::new();
    for h in workers {
        for (i, resp) in h.join().unwrap() {
            responses.push((i, resp.logit));
        }
    }
    let report = engine.shutdown();
    assert_eq!(report.requests, 40);
    assert!(report.max_batch_seen <= 8, "micro-batch cap violated");
    for (i, logit) in responses {
        let want = direct.forward(&batch.slice(i, i + 1))[0];
        // Micro-batch composition is timing-dependent, so request i may be
        // scored inside any batch; the forward pass is sample-independent
        // per column, so the score must still be bitwise reproducible.
        assert_eq!(logit, want, "request {i}");
    }
}

#[test]
fn engine_rejects_malformed_and_post_shutdown_requests() {
    let cfg = tiny_cfg();
    let engine = ServeEngine::start(
        ServeModel::new(&cfg, Execution::optimized(2), CacheSizing::Disabled, 31),
        ServeConfig::default(),
    );
    let client = engine.client();
    let good = Request {
        dense: vec![0.0; cfg.dense_features],
        indices: vec![vec![0], vec![1], vec![2]],
    };
    assert!(client.infer(good.clone()).is_ok());
    let short_dense = Request {
        dense: vec![0.0; 3],
        ..good.clone()
    };
    assert!(client.submit(short_dense).is_err(), "short dense vector");
    let wrong_tables = Request {
        dense: good.dense.clone(),
        indices: vec![vec![0]],
    };
    assert!(client.submit(wrong_tables).is_err(), "wrong table count");
    let oob = Request {
        dense: good.dense.clone(),
        indices: vec![vec![0], vec![64], vec![0]],
    };
    assert!(client.submit(oob).is_err(), "out-of-bounds index");
    let _ = engine.shutdown();
    assert!(
        client.submit(good).is_err(),
        "submissions after shutdown must be rejected"
    );
}
