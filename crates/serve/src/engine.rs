//! The request-level serving engine: concurrent single-user requests →
//! micro-batches → forward-only DLRM → per-request latency accounting.
//!
//! A [`ServeModel`] is a forward-only view over the training stack: the
//! same bottom-MLP / embedding-bag / interaction / top-MLP kernels, with
//! each embedding table optionally fronted by a [`HotRowCache`]. A
//! [`ServeEngine`] owns one `ServeModel` on one engine thread and feeds it
//! batches from a [`MicroBatcher`]; clients submit one sample at a time
//! from any thread and block (or poll) for their scored response. The
//! engine thread is member 0 of the model's GEMM team, so with
//! `Execution::optimized(1)` a whole request — batching, gather, MLP stack,
//! reply — runs on that one thread without a hand-off.

use crate::batcher::MicroBatcher;
use crate::cache::{CacheStats, HotRowCache};
use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm::precision::PrecisionMode;
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_kernels::activations::sigmoid;
use dlrm_kernels::embedding::{self, rowops, UpdateStrategy};
use dlrm_kernels::gemm::micro::detect_isa;
use dlrm_tensor::Matrix;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How each table's hot-row cache is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheSizing {
    /// No cache: every gather reads the backing table.
    Disabled,
    /// A fixed number of rows per table.
    Rows(usize),
    /// A fraction of each table's rows (`ceil(M · f)`, at least 1).
    Fraction(f64),
}

impl CacheSizing {
    pub(crate) fn rows_for_table(&self, m: usize) -> Option<usize> {
        match *self {
            CacheSizing::Disabled => None,
            CacheSizing::Rows(r) => Some(r.clamp(1, m.max(1))),
            CacheSizing::Fraction(f) => {
                assert!(f > 0.0, "cache fraction must be positive");
                Some(((m as f64 * f).ceil() as usize).clamp(1, m.max(1)))
            }
        }
    }
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

/// A forward-only DLRM with optional per-table hot-row caches.
pub struct ServeModel {
    model: DlrmModel,
    caches: Vec<Option<HotRowCache>>,
    /// Reused per-table gather outputs (`N × E` each).
    gather_outs: Vec<Matrix>,
}

impl ServeModel {
    /// Builds a forward-only model for `cfg`, seeded exactly like
    /// [`DlrmModel::new`] — the same `seed` reconstructs bitwise-identical
    /// weights, which is what the cached-vs-uncached identity gates compare
    /// against.
    pub fn new(cfg: &DlrmConfig, exec: Execution, cache: CacheSizing, seed: u64) -> Self {
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
        let caches = model
            .tables
            .iter()
            .map(|t| {
                cache
                    .rows_for_table(t.rows())
                    .map(|rows| HotRowCache::new(rows, t.dim()))
            })
            .collect();
        let gather_outs = model
            .tables
            .iter()
            .map(|t| Matrix::zeros(0, t.dim()))
            .collect();
        ServeModel {
            model,
            caches,
            gather_outs,
        }
    }

    /// The model configuration.
    pub fn cfg(&self) -> &DlrmConfig {
        &self.model.cfg
    }

    /// Per-table cache statistics (`None` for uncached tables).
    pub fn cache_stats(&self) -> Vec<Option<CacheStats>> {
        self.caches
            .iter()
            .map(|c| c.as_ref().map(|c| c.stats))
            .collect()
    }

    /// Zeroes every table's cache counters (e.g. after warm-up).
    pub fn reset_cache_stats(&mut self) {
        for c in self.caches.iter_mut().flatten() {
            c.stats.reset();
        }
    }

    /// Forward-only pass; returns per-sample logits. Embedding gathers run
    /// serially through the SIMD row primitives — through the hot-row cache
    /// where one is configured, bitwise identical either way.
    pub fn forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        let exec = self.model.exec.clone();
        let n = batch.batch_size();
        let z0 = self.model.bottom.forward(&exec, &batch.dense);
        let isa = detect_isa();
        for (t, layer) in self.model.tables.iter().enumerate() {
            let out = &mut self.gather_outs[t];
            out.resize_rows(n);
            match &mut self.caches[t] {
                Some(cache) => gather_cached(
                    cache,
                    &layer.weight,
                    &batch.indices[t],
                    &batch.offsets[t],
                    out,
                    isa,
                ),
                None => embedding::forward_serial(
                    &layer.weight,
                    &batch.indices[t],
                    &batch.offsets[t],
                    out,
                ),
            }
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

/// Bag-sum gather through the hot-row cache: same accumulation order and
/// SIMD row primitives as [`embedding::forward_serial`], with each row
/// served from the cache (admitting from `weight` on a miss). Cached rows
/// are verbatim copies, so the output is bitwise identical to the uncached
/// gather.
pub(crate) fn gather_cached(
    cache: &mut HotRowCache,
    weight: &Matrix,
    indices: &[u32],
    offsets: &[usize],
    out: &mut Matrix,
    isa: dlrm_kernels::gemm::micro::Isa,
) {
    let n = offsets.len() - 1;
    assert_eq!(out.shape(), (n, weight.cols()), "gather output shape");
    for bag in 0..n {
        let out_row = out.row_mut(bag);
        out_row.fill(0.0);
        for &idx in &indices[offsets[bag]..offsets[bag + 1]] {
            let row = cache.get_or_admit(idx, weight);
            rowops::accumulate(isa, out_row, row);
        }
    }
}

pub(crate) struct Pending {
    pub(crate) req: Request,
    pub(crate) submitted: Instant,
    pub(crate) tx: mpsc::Sender<Response>,
}

/// Per-shard slice of an [`EngineReport`]: what one worker team saw.
///
/// The unsharded engine reports exactly one of these (shard 0 owning every
/// table); the sharded engine reports one per shard, so dashboards can
/// spot a hot shard (skewed `requests`, deep `queue_depth_hwm`, cold
/// caches) without re-deriving the table partition.
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
    /// Cache statistics for this shard's owned tables, in `owned_tables`
    /// order (`None` for uncached tables).
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
    /// Final per-table cache statistics (`None` for uncached tables),
    /// indexed by global table id.
    pub cache_stats: Vec<Option<CacheStats>>,
    /// Per-shard breakdown (one entry for the unsharded engine).
    pub shards: Vec<ShardReport>,
}

impl EngineReport {
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
    batcher: MicroBatcher<Pending>,
    dense_features: usize,
    table_rows: Vec<u64>,
}

impl ServeClient {
    pub(crate) fn new(
        batcher: MicroBatcher<Pending>,
        dense_features: usize,
        table_rows: Vec<u64>,
    ) -> Self {
        ServeClient {
            batcher,
            dense_features,
            table_rows,
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
        let (tx, rx) = mpsc::channel();
        let accepted = self.batcher.push(Pending {
            req,
            submitted: Instant::now(),
            tx,
        });
        if !accepted {
            return Err("engine is shut down".into());
        }
        Ok(ResponseHandle { rx })
    }

    /// Submits and blocks for the response.
    pub fn infer(&self, req: Request) -> Result<Response, String> {
        self.submit(req)?.wait()
    }
}

/// A pending response.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Response>,
}

impl ResponseHandle {
    /// Blocks until the engine scores this request.
    pub fn wait(self) -> Result<Response, String> {
        self.rx
            .recv()
            .map_err(|_| "engine dropped the request (shut down mid-flight)".into())
    }
}

/// A running serving engine: one engine thread draining a micro-batcher
/// into a [`ServeModel`]. It is the only thread the engine spawns; the
/// model's [`Execution`] adds `n − 1` GEMM workers beside it (none for
/// `n = 1`), and the engine thread computes as their member 0.
pub struct ServeEngine {
    client: ServeClient,
    batcher: MicroBatcher<Pending>,
    worker: Option<JoinHandle<EngineReport>>,
}

impl ServeEngine {
    /// Starts the engine, taking ownership of `model` on the engine thread
    /// (spawned here, so it inherits the caller's affinity).
    pub fn start(mut model: ServeModel, cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        let batcher: MicroBatcher<Pending> = MicroBatcher::new();
        let client = ServeClient::new(
            batcher.clone(),
            model.cfg().dense_features,
            model.cfg().table_rows.clone(),
        );
        let num_tables = model.cfg().num_tables;
        let consumer = batcher.clone();
        let worker = std::thread::Builder::new()
            .name("dlrm-serve".into())
            .spawn(move || {
                let mut report = EngineReport::default();
                let mut queue_depth_hwm = 0usize;
                while let Some(mut pendings) = consumer.next_batch(cfg.max_batch, cfg.window) {
                    queue_depth_hwm = queue_depth_hwm.max(pendings.len() + consumer.len());
                    let batch = assemble(model.cfg(), &pendings);
                    let logits = model.forward(&batch);
                    report.batches += 1;
                    report.max_batch_seen = report.max_batch_seen.max(pendings.len());
                    for (i, p) in pendings.drain(..).enumerate() {
                        let latency = p.submitted.elapsed();
                        report.requests += 1;
                        report.latencies_us.push(latency.as_micros() as u64);
                        let _ = p.tx.send(Response {
                            logit: logits[i],
                            prob: sigmoid(logits[i]),
                            latency,
                        });
                    }
                }
                report.cache_stats = model.cache_stats();
                // The unsharded engine is the degenerate one-shard layout:
                // a single team owning every table.
                report.shards = vec![ShardReport {
                    shard: 0,
                    owned_tables: (0..num_tables).collect(),
                    requests: report.requests,
                    batches: report.batches,
                    max_batch_seen: report.max_batch_seen,
                    latencies_us: report.latencies_us.clone(),
                    queue_depth_hwm,
                    cache_stats: report.cache_stats.clone(),
                }];
                report
            })
            .expect("spawn serving worker");
        ServeEngine {
            client,
            batcher,
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
        self.batcher.close();
        self.worker
            .take()
            .expect("engine already shut down")
            .join()
            .expect("serving worker panicked")
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.batcher.close();
            let _ = worker.join();
        }
    }
}

/// Packs a micro-batch of pending requests into the kernel batch format
/// (dense is `C × N` — samples are columns; sparse is per-table CSR bags).
pub(crate) fn assemble(cfg: &DlrmConfig, pendings: &[Pending]) -> MiniBatch {
    let n = pendings.len();
    let dense = Matrix::from_fn(cfg.dense_features, n, |r, c| pendings[c].req.dense[r]);
    let mut indices = Vec::with_capacity(cfg.num_tables);
    let mut offsets = Vec::with_capacity(cfg.num_tables);
    for t in 0..cfg.num_tables {
        let mut idx = Vec::new();
        let mut off = Vec::with_capacity(n + 1);
        off.push(0usize);
        for p in pendings {
            idx.extend_from_slice(&p.req.indices[t]);
            off.push(idx.len());
        }
        indices.push(idx);
        offsets.push(off);
    }
    MiniBatch {
        dense,
        indices,
        offsets,
        labels: vec![0.0; n],
    }
}
