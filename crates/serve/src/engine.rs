//! The request-level serving engine: concurrent single-user requests →
//! micro-batches → forward-only DLRM → per-request latency accounting.
//!
//! A [`ServeModel`] is a forward-only view over the training stack: the
//! same bottom-MLP / embedding-bag / interaction / top-MLP kernels, every
//! table gathered straight from its rows by the register-resident
//! `gather_bags`. A [`ServeEngine`] owns one `ServeModel` on one engine
//! thread and feeds it batches from a [`MicroBatcher`]; clients submit one
//! sample at a time from any thread and block for their scored response
//! on a one-shot reply slot ([`crate::reply`]). The engine thread is member
//! 0 of the model's GEMM team, so with `Execution::optimized(1)` a whole
//! request — batching, gather, MLP stack, reply — runs on that one thread
//! without a hand-off.

use crate::batcher::MicroBatcher;
use crate::cache::CacheStats;
use crate::reply::{self, ReplySender, ResponseHandle};
use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_kernels::activations::sigmoid;
use dlrm_kernels::embedding::{self, UpdateStrategy};
use dlrm_tensor::Matrix;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// A hot-row cache sizing. **Has no effect:** no engine consults a cache
/// (a software row cache in front of local DRAM lost to the direct gather
/// on every measured shape, DESIGN.md §11); the type and the arguments
/// that take it remain so callers written against them keep compiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheSizing {
    /// No cache.
    Disabled,
    /// A fixed number of rows per table.
    Rows(usize),
    /// A fraction of each table's rows.
    Fraction(f64),
}

/// Engine configuration: the batching dial plus compute resources.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Batching window: max wait from the first queued request before the
    /// batch is closed out (see [`MicroBatcher::next_batch`]).
    pub window: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            window: Duration::from_micros(200),
        }
    }
}

/// One inference request: a single user/sample.
#[derive(Debug, Clone)]
pub struct Request {
    /// Dense features, length `cfg.dense_features`.
    pub dense: Vec<f32>,
    /// Per-table lookup indices (any bag length, including empty).
    pub indices: Vec<Vec<u32>>,
}

/// The scored response for one request.
#[derive(Debug, Clone, Copy)]
pub struct Response {
    /// Raw click logit.
    pub logit: f32,
    /// `sigmoid(logit)` — the predicted click probability.
    pub prob: f32,
    /// Submission → response-ready latency as seen by the engine.
    pub latency: Duration,
}

/// A forward-only DLRM.
pub struct ServeModel {
    model: DlrmModel,
    /// Reused per-table gather outputs (`N × E` each).
    gather_outs: Vec<Matrix>,
}

impl ServeModel {
    /// Builds a forward-only model for `cfg`, seeded exactly like
    /// [`DlrmModel::new`] — the same `seed` reconstructs bitwise-identical
    /// weights. `_cache` has no effect (see [`CacheSizing`]).
    pub fn new(cfg: &DlrmConfig, exec: Execution, _cache: CacheSizing, seed: u64) -> Self {
        let mut model = DlrmModel::new(
            cfg,
            exec,
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            seed,
        );
        if matches!(model.exec, Execution::Optimized(_)) {
            // Forward-only plan: pay the weight-packing cost once at load
            // time, not on the first served request.
            model.bottom.prepack_weights();
            model.top.prepack_weights();
        }
        let gather_outs = model
            .tables
            .iter()
            .map(|t| Matrix::zeros(0, t.dim()))
            .collect();
        ServeModel { model, gather_outs }
    }

    /// The model configuration.
    pub fn cfg(&self) -> &DlrmConfig {
        &self.model.cfg
    }

    /// Per-table cache statistics: `None` for every table, since none is
    /// fronted by a cache.
    pub fn cache_stats(&self) -> Vec<Option<CacheStats>> {
        vec![None; self.model.tables.len()]
    }

    /// Nothing to reset (see [`Self::cache_stats`]).
    pub fn reset_cache_stats(&mut self) {}

    /// Forward-only pass; returns per-sample logits. Embedding gathers run
    /// serially on the calling thread, each bag summed in registers.
    pub fn forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        let exec = self.model.exec.clone();
        let n = batch.batch_size();
        let z0 = self.model.bottom.forward(&exec, &batch.dense);
        for (t, layer) in self.model.tables.iter().enumerate() {
            let out = &mut self.gather_outs[t];
            out.resize_rows(n);
            embedding::forward_serial(&layer.weight, &batch.indices[t], &batch.offsets[t], out);
        }
        let inter = self
            .model
            .interaction
            .forward(&exec, &z0, &self.gather_outs);
        let logits = self.model.top.forward(&exec, &inter);
        debug_assert_eq!(logits.rows(), 1);
        logits.as_slice().to_vec()
    }
}

pub(crate) struct Pending {
    pub(crate) req: Request,
    pub(crate) submitted: Instant,
    pub(crate) reply: ReplySender,
}

/// Per-shard slice of an [`EngineReport`]: what one worker team saw.
///
/// The unsharded engine reports exactly one of these (shard 0 owning every
/// table); the sharded engine reports one per shard, so dashboards can
/// spot a hot shard (skewed `requests`, deep `queue_depth_hwm`) without
/// re-deriving the table partition.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Global table ids this shard's servers own.
    pub owned_tables: Vec<usize>,
    /// Requests whose MLP ran on this shard's lane.
    pub requests: u64,
    /// Micro-batches this shard's lane executed.
    pub batches: u64,
    /// Largest micro-batch this lane saw.
    pub max_batch_seen: usize,
    /// Engine-side latency of each request served by this lane, in
    /// microseconds, in completion order.
    pub latencies_us: Vec<u64>,
    /// High-water mark of requests visible to this lane when it pulled a
    /// batch (batch in hand + still queued behind it).
    pub queue_depth_hwm: usize,
    /// One `None` per owned table: no table is fronted by a cache.
    pub cache_stats: Vec<Option<CacheStats>>,
}

/// Aggregate statistics returned by [`ServeEngine::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Requests served.
    pub requests: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Largest micro-batch seen.
    pub max_batch_seen: usize,
    /// Engine-side latency of every request, in microseconds
    /// (submission → response ready), in completion order.
    pub latencies_us: Vec<u64>,
    /// One `None` per table: no table is fronted by a cache.
    pub cache_stats: Vec<Option<CacheStats>>,
    /// Per-shard breakdown (one entry for the unsharded engine).
    pub shards: Vec<ShardReport>,
}

impl EngineReport {
    /// The aggregate over every lane's report (the lanes' owned tables
    /// partition the model's).
    pub(crate) fn from_shards(shards: Vec<ShardReport>) -> Self {
        let num_tables = shards.iter().map(|sr| sr.owned_tables.len()).sum();
        let mut report = EngineReport {
            cache_stats: vec![None; num_tables],
            ..EngineReport::default()
        };
        for sr in &shards {
            report.requests += sr.requests;
            report.batches += sr.batches;
            report.max_batch_seen = report.max_batch_seen.max(sr.max_batch_seen);
            report.latencies_us.extend_from_slice(&sr.latencies_us);
        }
        report.shards = shards;
        report
    }

    /// Mean micro-batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// A cloneable client handle for submitting requests to a running engine.
#[derive(Clone)]
pub struct ServeClient {
    /// The queue the engine's lanes drain; the engine closes it to shut down.
    pub(crate) batcher: MicroBatcher<Pending>,
    dense_features: usize,
    table_rows: Vec<u64>,
}

impl ServeClient {
    /// A client of a fresh, open queue for models of shape `cfg`.
    pub(crate) fn new(cfg: &DlrmConfig) -> Self {
        ServeClient {
            batcher: MicroBatcher::new(),
            dense_features: cfg.dense_features,
            table_rows: cfg.table_rows.clone(),
        }
    }

    fn validate(&self, req: &Request) -> Result<(), String> {
        if req.dense.len() != self.dense_features {
            return Err(format!(
                "dense feature length {} != {}",
                req.dense.len(),
                self.dense_features
            ));
        }
        if req.indices.len() != self.table_rows.len() {
            return Err(format!(
                "request has {} tables, model has {}",
                req.indices.len(),
                self.table_rows.len()
            ));
        }
        for (t, bag) in req.indices.iter().enumerate() {
            if let Some(&bad) = bag.iter().find(|&&i| i as u64 >= self.table_rows[t]) {
                return Err(format!(
                    "index {bad} out of bounds for table {t} ({} rows)",
                    self.table_rows[t]
                ));
            }
        }
        Ok(())
    }

    /// Validates and enqueues `req`; returns a handle to wait on. Fails if
    /// the request is malformed or the engine has shut down.
    pub fn submit(&self, req: Request) -> Result<ResponseHandle, String> {
        self.validate(&req)?;
        let (reply, handle) = reply::slot();
        let accepted = self.batcher.push(Pending {
            req,
            submitted: Instant::now(),
            reply,
        });
        if !accepted {
            return Err("engine is shut down".into());
        }
        Ok(handle)
    }

    /// Submits and blocks for the response.
    pub fn infer(&self, req: Request) -> Result<Response, String> {
        self.submit(req)?.wait()
    }
}

/// A running serving engine: one engine thread draining a micro-batcher
/// into a [`ServeModel`]. It is the only thread the engine spawns; the
/// model's [`Execution`] adds `n − 1` GEMM workers beside it (none for
/// `n = 1`), and the engine thread computes as their member 0.
pub struct ServeEngine {
    client: ServeClient,
    worker: Option<JoinHandle<ShardReport>>,
}

impl ServeEngine {
    /// Starts the engine, taking ownership of `model` on the engine thread
    /// (spawned here, so it inherits the caller's affinity).
    pub fn start(mut model: ServeModel, cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        let client = ServeClient::new(model.cfg());
        let num_tables = model.cfg().num_tables;
        let consumer = client.batcher.clone();
        let worker = std::thread::Builder::new()
            .name("dlrm-serve".into())
            .spawn(move || {
                // The unsharded engine is the degenerate one-shard layout:
                // a single lane owning every table.
                let report = ShardReport {
                    owned_tables: (0..num_tables).collect(),
                    cache_stats: vec![None; num_tables],
                    ..ShardReport::default()
                };
                let model_cfg = model.cfg().clone();
                run_lane(report, &consumer, &model_cfg, &cfg, |batch| {
                    model.forward(batch)
                })
            })
            .expect("spawn serving worker");
        ServeEngine {
            client,
            worker: Some(worker),
        }
    }

    /// A cloneable client handle.
    pub fn client(&self) -> ServeClient {
        self.client.clone()
    }

    /// Stops accepting requests, drains what is queued, and returns the
    /// aggregate report.
    pub fn shutdown(mut self) -> EngineReport {
        self.client.batcher.close();
        let worker = self.worker.take().expect("engine already shut down");
        let shard = worker.join().expect("serving worker panicked");
        EngineReport::from_shards(vec![shard])
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.client.batcher.close();
            let _ = worker.join();
        }
    }
}

/// Closes the batcher and fails whatever is still queued when a lane
/// leaves its loop: nothing on the way out of a drained, closed batcher;
/// every queued request — each handle's `wait` returns `Err` — when the
/// lane is unwinding from a panic.
struct AbandonQueue<'a>(&'a MicroBatcher<Pending>);

impl Drop for AbandonQueue<'_> {
    fn drop(&mut self) {
        self.0.close();
        while self.0.next_batch(usize::MAX, Duration::ZERO).is_some() {}
    }
}

/// One request lane, the loop both engines run: pull a micro-batch off
/// `consumer`, pack it, score it with `forward`, reply. `report` arrives
/// naming the lane's shard and owned tables and returns filled in.
pub(crate) fn run_lane(
    mut report: ShardReport,
    consumer: &MicroBatcher<Pending>,
    cfg: &DlrmConfig,
    serve_cfg: &ServeConfig,
    mut forward: impl FnMut(&MiniBatch) -> Vec<f32>,
) -> ShardReport {
    let _abandon = AbandonQueue(consumer);
    let mut batch = empty_batch(cfg.dense_features, cfg.num_tables);
    while let Some(pendings) = consumer.next_batch(serve_cfg.max_batch, serve_cfg.window) {
        report.queue_depth_hwm = report.queue_depth_hwm.max(pendings.len() + consumer.len());
        assemble(&pendings, &mut batch);
        let logits = forward(&batch);
        respond(pendings, &logits, &mut report);
    }
    report
}

/// Publishes one micro-batch's responses: every reply slot is filled
/// first, and only then are the distinct threads found parked on them
/// woken — a client waiting on the batch's oldest request finds the rest
/// ready when it wakes.
pub(crate) fn respond(pendings: Vec<Pending>, logits: &[f32], report: &mut ShardReport) {
    assert_eq!(logits.len(), pendings.len(), "one logit per request");
    report.batches += 1;
    report.max_batch_seen = report.max_batch_seen.max(pendings.len());
    let ready = Instant::now();
    let mut waiters: Vec<Thread> = Vec::new();
    for (p, &logit) in pendings.into_iter().zip(logits) {
        let latency = ready.duration_since(p.submitted);
        report.requests += 1;
        report.latencies_us.push(latency.as_micros() as u64);
        let resp = Response {
            logit,
            prob: sigmoid(logit),
            latency,
        };
        let waiter = p.reply.fill(resp, p.req);
        if let Some(w) = waiter {
            if waiters.iter().all(|seen| seen.id() != w.id()) {
                waiters.push(w);
            }
        }
    }
    for w in waiters {
        w.unpark();
    }
}

/// A batch of no samples for [`assemble`] to fill.
fn empty_batch(dense_features: usize, num_tables: usize) -> MiniBatch {
    MiniBatch {
        dense: Matrix::zeros(dense_features, 0),
        indices: vec![Vec::new(); num_tables],
        offsets: vec![Vec::new(); num_tables],
        labels: Vec::new(),
    }
}

/// Packs a micro-batch of pending requests into `batch`, reusing its
/// storage (dense is `C × N` — samples are columns; sparse is per-table CSR
/// bags).
pub(crate) fn assemble(pendings: &[Pending], batch: &mut MiniBatch) {
    let n = pendings.len();
    batch.dense.resize(batch.dense.rows(), n);
    for (c, p) in pendings.iter().enumerate() {
        for (r, &v) in p.req.dense.iter().enumerate() {
            batch.dense[(r, c)] = v;
        }
    }
    for (t, (idx, off)) in batch.indices.iter_mut().zip(&mut batch.offsets).enumerate() {
        idx.clear();
        off.clear();
        off.push(0);
        for p in pendings {
            idx.extend_from_slice(&p.req.indices[t]);
            off.push(idx.len());
        }
    }
    batch.labels.clear();
    batch.labels.resize(n, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const WATCHDOG: Duration = Duration::from_secs(60);

    fn tiny_cfg() -> DlrmConfig {
        let mut cfg = DlrmConfig::small().scaled_down(50, 256);
        cfg.dense_features = 2;
        cfg.num_tables = 2;
        cfg.table_rows = vec![50, 50];
        cfg
    }

    /// A forward that panics mid-batch must fail every outstanding handle —
    /// the batch in hand (its senders unwind with the lane) and everything
    /// still queued behind it (`AbandonQueue`) — and close the engine to
    /// new requests. Nothing may hang.
    #[test]
    fn reply_slots_fail_when_forward_panics_mid_batch() {
        let cfg = tiny_cfg();
        let client = ServeClient::new(&cfg);
        let batcher = client.batcher.clone();
        let request = || Request {
            dense: vec![0.5; 2],
            indices: vec![vec![1, 2], vec![]],
        };
        // Queued before the lane starts, so the batches are exact: 4 served,
        // 4 in hand when the forward panics, 4 still queued behind them.
        let handles: Vec<_> = (0..12)
            .map(|_| client.submit(request()).expect("open"))
            .collect();
        let serve_cfg = ServeConfig {
            max_batch: 4,
            window: Duration::ZERO,
        };
        let lane = {
            let (batcher, cfg) = (batcher.clone(), cfg.clone());
            std::thread::spawn(move || {
                let mut batches = 0;
                run_lane(
                    ShardReport::default(),
                    &batcher,
                    &cfg,
                    &serve_cfg,
                    |batch| {
                        batches += 1;
                        assert!(batches < 2, "injected: forward fails on the second batch");
                        vec![0.25; batch.batch_size()]
                    },
                )
            })
        };
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            for h in handles {
                tx.send(h.wait()).expect("test alive");
            }
        });
        let outcomes: Vec<_> = (0..12)
            .map(|i| {
                rx.recv_timeout(WATCHDOG)
                    .unwrap_or_else(|_| panic!("handle {i} hung"))
            })
            .collect();
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Ok(resp) => assert!(i < 4 && resp.logit == 0.25, "request {i} was answered"),
                Err(_) => assert!(i >= 4, "request {i} of the served batch failed"),
            }
        }
        assert!(lane.join().is_err(), "the lane's panic reaches its joiner");
        waiter.join().expect("waiter");
        assert!(client.submit(request()).is_err(), "a dead engine is closed");
    }

    #[test]
    fn assemble_reuses_the_batch_across_shapes() {
        let pend = |dense: [f32; 2], bags: [&[u32]; 2]| Pending {
            req: Request {
                dense: dense.to_vec(),
                indices: bags.iter().map(|b| b.to_vec()).collect(),
            },
            submitted: Instant::now(),
            reply: reply::slot().0,
        };
        let mut batch = empty_batch(2, 2);
        let three = [
            pend([1.0, 2.0], [&[7, 8], &[]]),
            pend([3.0, 4.0], [&[], &[9]]),
            pend([5.0, 6.0], [&[1], &[2, 3]]),
        ];
        assemble(&three, &mut batch);
        assert_eq!(batch.dense.as_slice(), &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(batch.indices, vec![vec![7, 8, 1], vec![9, 2, 3]]);
        assert_eq!(batch.offsets, vec![vec![0, 2, 2, 3], vec![0, 0, 1, 3]]);
        assert_eq!(batch.batch_size(), 3);
        // A smaller batch afterwards leaves nothing of the larger one.
        assemble(&three[1..2], &mut batch);
        assert_eq!(batch.dense.shape(), (2, 1));
        assert_eq!(batch.dense.as_slice(), &[3.0, 4.0]);
        assert_eq!(batch.indices, vec![vec![], vec![9]]);
        assert_eq!(batch.offsets, vec![vec![0, 0], vec![0, 1]]);
        assert_eq!(batch.batch_size(), 1);
    }
}
