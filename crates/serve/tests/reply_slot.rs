//! The reply path under load and at shutdown, through the public surface of
//! the engine on both layouts the benchmark runs (`ServeEngine`, one shard;
//! `ShardedEngine` at S = 2): every handle a client was given resolves —
//! with the right logit or with an `Err` — inside a watchdog, whatever the
//! engine is doing.
//!
//! The slot's own state machine (reply before wait, wait before reply,
//! abandoned slot, stale wake-up token) and the lane or table server that
//! panics mid-batch are unit-tested next to the code (`reply.rs`,
//! `engine.rs`); CI runs all of it in release, multi-core and confined to
//! one core, where a lost wake-up cannot hide behind a busy sibling.

use dlrm::layers::Execution;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_serve::reply::ResponseHandle;
use dlrm_serve::{
    CacheSizing, Request, ServeClient, ServeConfig, ServeEngine, ServeModel, ShardSpec,
    ShardedEngine, ShardedServeModel,
};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Duration;

const SEED: u64 = 29;
const POOL: usize = 256;

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(300, 256);
    cfg.dense_features = 4;
    cfg.bottom_mlp = vec![8, 4];
    cfg.emb_dim = 4;
    cfg.num_tables = 3;
    cfg.table_rows = vec![300, 40, 7];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![8, 1];
    cfg
}

/// `POOL` single-user requests and the logit bits each must be scored with
/// (an unsharded `ServeModel` serving it alone).
fn pool(cfg: &DlrmConfig) -> (Vec<Request>, Vec<u32>) {
    let dist = IndexDistribution::Zipf { s: 1.1 };
    let batch = MiniBatch::random(cfg, POOL, dist, &mut seeded_rng(5, 0));
    let requests: Vec<Request> = (0..POOL)
        .map(|i| Request {
            dense: (0..batch.dense.rows())
                .map(|r| batch.dense[(r, i)])
                .collect(),
            indices: (0..batch.num_tables())
                .map(|t| batch.indices[t][batch.offsets[t][i]..batch.offsets[t][i + 1]].to_vec())
                .collect(),
        })
        .collect();
    let mut model = ServeModel::new(cfg, Execution::optimized(1), CacheSizing::Disabled, SEED);
    let want = requests
        .iter()
        .map(|r| {
            let alone = MiniBatch {
                dense: Matrix::from_fn(cfg.dense_features, 1, |k, _| r.dense[k]),
                indices: r.indices.clone(),
                offsets: r.indices.iter().map(|bag| vec![0, bag.len()]).collect(),
                labels: vec![0.0],
            };
            model.forward(&alone)[0].to_bits()
        })
        .collect();
    (requests, want)
}

fn unsharded(cfg: &DlrmConfig) -> ServeEngine {
    let model = ServeModel::new(cfg, Execution::optimized(1), CacheSizing::Disabled, SEED);
    ServeEngine::start(model, ServeConfig::default())
}

fn sharded(cfg: &DlrmConfig) -> ShardedEngine {
    let spec = ShardSpec {
        shards: 2,
        workers_per_shard: 1,
        pin_cores: false,
        cache: CacheSizing::Disabled,
    };
    ShardedEngine::start(
        ShardedServeModel::new(cfg, &spec, SEED),
        ServeConfig::default(),
    )
}

/// Runs `body` on its own thread and fails the test if it is not done
/// within `limit`: a hang must be a failure, not a stuck CI job.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => runner.join().expect("body panicked after finishing"),
        // The body panicked (its sender dropped): surface that panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped without a panic"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: not done after {limit:?}"),
    }
}

/// `clients` threads, each a closed loop of `depth` outstanding requests
/// until it has had `per_client` responses, each checked against the
/// reference bits.
fn closed_loops(client: &ServeClient, clients: usize, per_client: usize, depth: usize) {
    let cfg = tiny_cfg();
    let (requests, want) = pool(&cfg);
    std::thread::scope(|s| {
        for c in 0..clients {
            let (client, requests, want) = (client.clone(), &requests, &want);
            s.spawn(move || {
                let mut inflight = VecDeque::with_capacity(depth);
                let (mut sent, mut done) = (0, 0);
                while done < per_client {
                    while inflight.len() < depth && sent < per_client {
                        let id = (c * 31 + sent) % POOL;
                        let handle = client.submit(requests[id].clone()).expect("engine open");
                        inflight.push_back((id, handle));
                        sent += 1;
                    }
                    let (id, handle) = inflight.pop_front().expect("something in flight");
                    let resp = handle.wait().expect("a running engine answers");
                    assert_eq!(resp.logit.to_bits(), want[id], "client {c} request {done}");
                    done += 1;
                }
            });
        }
    });
}

#[test]
fn reply_slots_survive_four_closed_loops_at_depth_64_on_both_engines() {
    within(Duration::from_secs(300), || {
        let cfg = tiny_cfg();
        let engine = unsharded(&cfg);
        closed_loops(&engine.client(), 4, 50_000, 64);
        assert_eq!(engine.shutdown().requests, 200_000);

        let engine = sharded(&cfg);
        closed_loops(&engine.client(), 4, 50_000, 64);
        assert_eq!(engine.shutdown().requests, 200_000);
    });
}

/// Shutting down with requests still queued drains them: every handle
/// taken before the shutdown is answered, none is left to hang, and later
/// submissions are refused.
#[test]
fn reply_slots_queued_at_shutdown_are_all_answered() {
    within(Duration::from_secs(60), || {
        let cfg = tiny_cfg();
        let (requests, want) = pool(&cfg);
        let submit_all = |client: &ServeClient| -> Vec<_> {
            (0..500)
                .map(|i| client.submit(requests[i % POOL].clone()).expect("open"))
                .collect()
        };
        let check = |handles: Vec<ResponseHandle>| {
            for (i, h) in handles.into_iter().enumerate() {
                let resp = h.wait().expect("queued before the shutdown: answered");
                assert_eq!(resp.logit.to_bits(), want[i % POOL], "request {i}");
            }
        };

        let engine = unsharded(&cfg);
        let client = engine.client();
        let handles = submit_all(&client);
        assert_eq!(engine.shutdown().requests, 500);
        check(handles);
        assert!(client.submit(requests[0].clone()).is_err());

        let engine = sharded(&cfg);
        let client = engine.client();
        let handles = submit_all(&client);
        drop(engine); // the `Drop` path drains like `shutdown`
        check(handles);
        assert!(client.submit(requests[0].clone()).is_err());
    });
}
