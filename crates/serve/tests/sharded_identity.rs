//! Sharded-vs-unsharded bitwise identity: the tentpole gate of the
//! multi-socket serving engine.
//!
//! For every tested shard count, traffic shape, edge batch, worker-team
//! width, and gathering shard, the sharded output must be **bitwise
//! identical** to the unsharded model — sharding relocates work, never
//! changes arithmetic. "Unsharded" is `DlrmModel::forward`, the training
//! model (pool-parallel gather, its own forward loop): `ServeModel` is the
//! one-shard layout itself, so it cannot referee S = 1. Also covers the
//! threaded engine end-to-end (concurrent clients, per-shard report,
//! shutdown draining).

use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_serve::{
    CacheSizing, Request, ServeConfig, ServeEngine, ServeModel, ShardSpec, ShardedEngine,
    ShardedServeModel,
};
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

fn spec(shards: usize, cache: CacheSizing) -> ShardSpec {
    ShardSpec {
        shards,
        workers_per_shard: 1,
        pin_cores: false,
        cache,
    }
}

/// The unsharded reference: the trainable model, gathers and GEMMs inline
/// on the calling thread's team of one.
fn training_model(cfg: &DlrmConfig, seed: u64) -> DlrmModel {
    DlrmModel::new(
        cfg,
        Execution::optimized(1),
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
fn sharded_forward_bitwise_identical_for_every_shard_count() {
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
        let mut unsharded = training_model(&cfg, 7);
        // More shards than tables is legal: some shards own nothing.
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = ShardedServeModel::new(&cfg, &spec(shards, CacheSizing::Disabled), 7);
            let mut cached =
                ShardedServeModel::new(&cfg, &spec(shards, CacheSizing::Fraction(0.05)), 7);
            let mut rng = seeded_rng(42, 1);
            // Several rounds on warm scratch, and a rotating gather shard
            // so every lane's MLP replica is hit.
            for round in 0..4 {
                let batch = MiniBatch::random(&cfg, 24, dist, &mut rng);
                let want = unsharded.forward(&batch);
                let gather_shard = round % shards;
                assert_eq!(
                    sharded.forward(gather_shard, &batch),
                    want,
                    "{name} S={shards} round {round}: sharded != unsharded"
                );
                assert_eq!(
                    cached.forward(gather_shard, &batch),
                    want,
                    "{name} S={shards} round {round}: sharded+cached != unsharded"
                );
            }
            if shards > 1 {
                let owned: usize = (0..shards)
                    .map(|q| cached.ownership().tables_of(q).len())
                    .sum();
                assert_eq!(owned, cfg.num_tables, "ownership must partition tables");
            }
            let stats = cached.cache_stats();
            assert!(
                stats.len() == cfg.num_tables && stats.iter().all(Option::is_none),
                "{name} S={shards}: no table is fronted by a cache"
            );
        }
    }
}

#[test]
fn worker_team_width_does_not_change_sharded_logits() {
    let cfg = tiny_cfg();
    let mut narrow = ShardedServeModel::new(&cfg, &spec(2, CacheSizing::Disabled), 13);
    let mut wide = ShardedServeModel::new(
        &cfg,
        &ShardSpec {
            shards: 2,
            workers_per_shard: 3,
            pin_cores: false,
            cache: CacheSizing::Disabled,
        },
        13,
    );
    let mut rng = seeded_rng(3, 0);
    for round in 0..3 {
        let batch = MiniBatch::random(&cfg, 17, IndexDistribution::Uniform, &mut rng);
        assert_eq!(
            narrow.forward(round % 2, &batch),
            wide.forward(round % 2, &batch),
            "blocked GEMM must be invariant to the team width"
        );
    }
}

#[test]
fn pinned_teams_serve_identically() {
    let cfg = tiny_cfg();
    let mut unpinned = ShardedServeModel::new(&cfg, &spec(2, CacheSizing::Disabled), 19);
    let mut pinned = ShardedServeModel::new(
        &cfg,
        &ShardSpec {
            shards: 2,
            workers_per_shard: 1,
            pin_cores: true,
            cache: CacheSizing::Disabled,
        },
        19,
    );
    let mut rng = seeded_rng(23, 0);
    let batch = MiniBatch::random(&cfg, 12, IndexDistribution::Uniform, &mut rng);
    assert_eq!(pinned.forward(0, &batch), unpinned.forward(0, &batch));
    // A one-worker team is the calling thread alone: it has no spawned
    // worker to pin, and the pool never pins its caller.
    assert!(pinned.pinned_workers().iter().all(|&p| p == 0));
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let wide = ShardedServeModel::new(
            &cfg,
            &ShardSpec {
                shards: 2,
                workers_per_shard: 2,
                pin_cores: true,
                cache: CacheSizing::Disabled,
            },
            19,
        );
        assert!(
            wide.pinned_workers().iter().all(|&p| p >= 1),
            "every team should pin its spawned worker on linux: {:?}",
            wide.pinned_workers()
        );
    }
}

#[test]
fn sharded_edge_batches_are_identical() {
    // Empty bags (one table fully empty + one featureless sample).
    let cfg = tiny_cfg();
    let mut unsharded = training_model(&cfg, 3);
    let mut sharded = ShardedServeModel::new(&cfg, &spec(3, CacheSizing::Rows(8)), 3);
    let mut rng = seeded_rng(9, 0);
    let mut batch = MiniBatch::random(&cfg, 6, IndexDistribution::Uniform, &mut rng);
    batch.indices[1].clear();
    batch.offsets[1] = vec![0; batch.batch_size() + 1];
    for t in 0..batch.num_tables() {
        let (lo, hi) = (batch.offsets[t][2], batch.offsets[t][3]);
        batch.indices[t].drain(lo..hi);
        for off in batch.offsets[t].iter_mut().skip(3) {
            *off -= hi - lo;
        }
    }
    assert_eq!(
        sharded.forward(1, &batch),
        unsharded.forward(&batch),
        "empty bags: sharded != unsharded"
    );

    // Batch size 1.
    let one = MiniBatch::random(&cfg, 1, IndexDistribution::Uniform, &mut rng);
    assert_eq!(sharded.forward(2, &one), unsharded.forward(&one));

    // Single-row tables.
    let mut tiny = tiny_cfg();
    tiny.table_rows = vec![1, 1, 1];
    let mut u1 = training_model(&tiny, 11);
    let mut s1 = ShardedServeModel::new(&tiny, &spec(2, CacheSizing::Fraction(0.01)), 11);
    let b1 = MiniBatch::random(&tiny, 8, IndexDistribution::Uniform, &mut rng);
    assert_eq!(s1.forward(0, &b1), u1.forward(&b1));
}

#[test]
fn sharded_engine_concurrent_clients_match_direct_forward() {
    let cfg = tiny_cfg();
    let shards = 3;
    let mut direct = training_model(&cfg, 23);
    let engine = ShardedEngine::start(
        ShardedServeModel::new(&cfg, &spec(shards, CacheSizing::Fraction(0.1)), 23),
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
    assert_eq!(report.shards.len(), shards);
    assert_eq!(
        report.shards.iter().map(|s| s.requests).sum::<u64>(),
        40,
        "per-shard requests must sum to the total"
    );
    let mut owned: Vec<usize> = report
        .shards
        .iter()
        .flat_map(|s| s.owned_tables.iter().copied())
        .collect();
    owned.sort_unstable();
    assert_eq!(owned, vec![0, 1, 2], "shard reports must cover every table");
    assert_eq!(report.cache_stats.len(), cfg.num_tables);
    assert!(
        report.cache_stats.iter().all(Option::is_none),
        "no table is fronted by a cache"
    );
    for sr in &report.shards {
        assert_eq!(sr.latencies_us.len() as u64, sr.requests);
        if sr.batches > 0 {
            assert!(sr.queue_depth_hwm >= 1, "a served lane saw >= 1 queued");
        }
    }
    // Micro-batch composition is timing-dependent and lane assignment is a
    // race, but each logit is per-column independent and every replica is
    // bitwise-equal, so each score must match the direct forward exactly.
    for (i, logit) in responses {
        let want = direct.forward(&batch.slice(i, i + 1))[0];
        assert_eq!(logit, want, "request {i}");
    }
}

#[test]
fn shutdown_drains_queued_requests_in_both_engines() {
    let cfg = tiny_cfg();
    let mut rng = seeded_rng(31, 0);
    let batch = MiniBatch::random(&cfg, 30, IndexDistribution::Uniform, &mut rng);

    // Unsharded engine: queue a burst, shut down immediately — every
    // accepted request must still be answered (the close-drain contract).
    let engine = ServeEngine::start(
        ServeModel::new(&cfg, Execution::optimized(1), CacheSizing::Disabled, 37),
        ServeConfig {
            max_batch: 4,
            window: Duration::from_millis(5),
        },
    );
    let client = engine.client();
    let handles: Vec<_> = (0..30)
        .map(|i| client.submit(request_of(&batch, i)).expect("submit"))
        .collect();
    let report = engine.shutdown();
    assert_eq!(report.requests, 30, "shutdown dropped queued requests");
    for (i, h) in handles.into_iter().enumerate() {
        let resp = h
            .wait()
            .unwrap_or_else(|e| panic!("request {i} dropped: {e}"));
        assert!(resp.logit.is_finite());
    }

    // Sharded engine: same contract across the fan-out path.
    let engine = ShardedEngine::start(
        ShardedServeModel::new(&cfg, &spec(2, CacheSizing::Disabled), 37),
        ServeConfig {
            max_batch: 4,
            window: Duration::from_millis(5),
        },
    );
    let client = engine.client();
    let handles: Vec<_> = (0..30)
        .map(|i| client.submit(request_of(&batch, i)).expect("submit"))
        .collect();
    let report = engine.shutdown();
    assert_eq!(
        report.requests, 30,
        "sharded shutdown dropped queued requests"
    );
    for (i, h) in handles.into_iter().enumerate() {
        let resp = h
            .wait()
            .unwrap_or_else(|e| panic!("request {i} dropped: {e}"));
        assert!(resp.logit.is_finite());
    }
    assert!(
        client.submit(request_of(&batch, 0)).is_err(),
        "submissions after sharded shutdown must be rejected"
    );
}
