//! The serving engine: concurrent single-user requests → micro-batches →
//! forward-only DLRM → per-request latency accounting (DESIGN.md §11, §15).
//!
//! There is one engine. [`ShardedEngine::start`] gives every shard of a
//! [`ShardedServeModel`] a **lane** thread that drains the shared
//! [`MicroBatcher`] through `run_lane`: assemble the batch, gather the
//! tables its shard owns in place, run the dense stack on its team (the
//! lane is member 0), publish the replies ([`crate::reply`]: every slot of
//! the batch filled, then one wake per waiting client). Tables another
//! shard owns are reached through that shard's **table server**, one std
//! channel of `GatherJob`s each, which answers with the pooled rows; the
//! server exists only when some other lane needs it. [`ServeEngine`] is the
//! same engine on the one-shard [`crate::ServeModel`]: no table is remote,
//! so the lane is the only thread it spawns, and with
//! `Execution::optimized(1)` a whole request — batching, gather, MLP stack,
//! reply — runs on that one thread without a hand-off.
//!
//! Shutdown is the channels closing in order: the batcher closes, the lanes
//! drain it and exit, their job senders drop, the servers' loops end. A
//! thread that panics takes the same road — its lane's reply slots and the
//! queue fail (`AbandonQueue`), a job it held disconnects its reply, a
//! send to it errs — so every handle resolves and [`ShardedEngine::shutdown`]
//! re-raises the panic.

use crate::batcher::MicroBatcher;
use crate::cache::CacheStats;
use crate::metrics::LatencyHistogram;
use crate::reply::{self, ReplySender, ResponseHandle};
use crate::sharded::{gather, LaneHalf, ShardedServeModel};
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_kernels::activations::sigmoid;
use dlrm_kernels::threadpool::pin_current_thread;
use dlrm_tensor::Matrix;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle, Thread};
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

pub(crate) struct Pending {
    pub(crate) req: Request,
    pub(crate) submitted: Instant,
    pub(crate) reply: ReplySender,
}

/// Per-shard slice of an [`EngineReport`]: what one worker team saw.
///
/// An engine reports one per shard (a [`ServeEngine`] exactly one: shard 0
/// owning every table), so dashboards can spot a hot shard (skewed
/// `requests`, deep `queue_depth_hwm`) without re-deriving the table
/// partition.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Global table ids this shard owns.
    pub owned_tables: Vec<usize>,
    /// Requests whose MLP ran on this shard's lane.
    pub requests: u64,
    /// Micro-batches this shard's lane executed.
    pub batches: u64,
    /// Largest micro-batch this lane saw.
    pub max_batch_seen: usize,
    /// Engine-side latency of each request served by this lane, in
    /// microseconds: a fixed-size histogram, not a sample per request.
    pub latencies_us: LatencyHistogram,
    /// High-water mark of requests visible to this lane when it pulled a
    /// batch (batch in hand + still queued behind it).
    pub queue_depth_hwm: usize,
    /// One `None` per owned table: no table is fronted by a cache.
    pub cache_stats: Vec<Option<CacheStats>>,
}

/// Aggregate statistics returned by [`ShardedEngine::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Requests served.
    pub requests: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Largest micro-batch seen.
    pub max_batch_seen: usize,
    /// Engine-side latency of every request, in microseconds
    /// (submission → response ready): the lanes' histograms merged.
    pub latencies_us: LatencyHistogram,
    /// One `None` per table: no table is fronted by a cache.
    pub cache_stats: Vec<Option<CacheStats>>,
    /// Per-shard breakdown (one entry for a [`ServeEngine`]).
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
            report.latencies_us.merge(&sr.latencies_us);
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
        // No layer stops a NaN or an infinity: the client would get a
        // non-finite logit and no error.
        if let Some(i) = req.dense.iter().position(|x| !x.is_finite()) {
            return Err(format!("dense feature {i} is {}", req.dense[i]));
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

/// One fan-out unit: a micro-batch's CSR bags for every table one remote
/// shard owns (that shard's local order).
pub(crate) struct GatherJob {
    /// Per owned table: flattened lookup indices.
    indices: Vec<Vec<u32>>,
    /// Per owned table: bag offsets (`n + 1` entries).
    offsets: Vec<Vec<usize>>,
    /// Where the pooled rows go. A job dropped unanswered — its server is
    /// unwinding — disconnects it, which ends the lane's `recv` with an
    /// `Err` instead of leaving it to wait.
    reply: mpsc::Sender<Vec<Matrix>>,
}

impl GatherJob {
    /// The pooled `N × E` rows of `tables`, the owner's tables.
    fn gather(&self, tables: &[Matrix]) -> Vec<Matrix> {
        let mut outs: Vec<Matrix> = tables.iter().map(|w| Matrix::zeros(0, w.cols())).collect();
        gather(
            tables,
            0..tables.len(),
            &self.indices,
            &self.offsets,
            &mut outs,
        );
        outs
    }
}

/// Table-server thread body: answer every job until the last lane drops
/// its sender. `gather` is the owner's [`GatherJob::gather`].
fn run_server(jobs: mpsc::Receiver<GatherJob>, mut gather: impl FnMut(&GatherJob) -> Vec<Matrix>) {
    for job in jobs {
        // A lane that died mid-batch just drops its receiver.
        let _ = job.reply.send(gather(&job));
    }
}

/// What a lane thread owns besides the request loop: its shard's dense
/// stack and tables, and a job channel to every other shard that owns any.
struct Lane {
    half: LaneHalf,
    /// Global ids of the shard's own tables, and their rows in that order.
    owned: Vec<usize>,
    tables: Arc<Vec<Matrix>>,
    /// Per remote owner: the global ids of its tables, in the order its
    /// server holds them, and that server's job channel.
    remotes: Vec<(Vec<usize>, mpsc::Sender<GatherJob>)>,
}

impl Lane {
    /// Scores one assembled micro-batch: remote owners get a job each, the
    /// shard's own tables are gathered in place from `batch` while they
    /// work, and the dense stack runs once every owner's rows are in.
    fn forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        fn bags_of<T: Clone>(theirs: &[usize], csr: &[Vec<T>]) -> Vec<Vec<T>> {
            theirs.iter().map(|&t| csr[t].clone()).collect()
        }
        let replies: Vec<_> = self
            .remotes
            .iter()
            .map(|(theirs, jobs)| {
                let (reply, pooled) = mpsc::channel();
                let job = GatherJob {
                    indices: bags_of(theirs, &batch.indices),
                    offsets: bags_of(theirs, &batch.offsets),
                    reply,
                };
                jobs.send(job).expect("a table server is gone");
                (theirs, pooled)
            })
            .collect();
        let (owned, outs) = (self.owned.iter().copied(), &mut self.half.gather_outs);
        gather(&self.tables, owned, &batch.indices, &batch.offsets, outs);
        for (theirs, pooled) in replies {
            let pooled = pooled.recv().expect("a table server died on a job");
            for (&t, out) in theirs.iter().zip(pooled) {
                outs[t] = out;
            }
        }
        self.half.dense_forward(batch)
    }
}

/// A running serving engine: per shard a **lane** thread (micro-batch →
/// gather → MLP → respond) and, where another shard's lane must reach its
/// tables, a **table server** thread.
pub struct ShardedEngine {
    client: ServeClient,
    lanes: Vec<JoinHandle<ShardReport>>,
    servers: Vec<JoinHandle<()>>,
}

/// The engine on a one-shard model ([`crate::ServeModel`]): one lane, the
/// only thread it spawns. The model's [`dlrm::layers::Execution`] adds
/// `n − 1` GEMM workers beside it (none for `n = 1`), and the lane computes
/// as their member 0, on the team's `cores[0]` if the team has cores.
pub type ServeEngine = ShardedEngine;

impl ShardedEngine {
    /// Starts the engine, moving each shard onto its threads: its lane (the
    /// team's member 0) and table server sit on the team's `cores[0]` if it
    /// has cores, and keep the caller's affinity if not.
    pub fn start(model: impl Into<ShardedServeModel>, cfg: ServeConfig) -> Self {
        Self::start_with(model.into(), cfg, |_, tables| {
            move |job: &GatherJob| job.gather(&tables)
        })
    }

    /// [`Self::start`] with shard `q`'s table server answering jobs through
    /// `server_gather(q, its tables)` — the seam the fault tests use.
    fn start_with<G>(
        model: ShardedServeModel,
        cfg: ServeConfig,
        server_gather: impl Fn(usize, Arc<Vec<Matrix>>) -> G,
    ) -> Self
    where
        G: FnMut(&GatherJob) -> Vec<Matrix> + Send + 'static,
    {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        let nshards = model.num_shards();
        let ownership = model.ownership;
        let model_cfg = Arc::new(model.cfg);
        let client = ServeClient::new(&model_cfg);

        // A server for every shard whose tables some other lane must reach.
        let mut job_txs = Vec::new();
        let mut servers = Vec::new();
        for (q, tables) in model.tables.iter().enumerate() {
            if nshards == 1 || tables.is_empty() {
                continue;
            }
            let (tx, jobs) = mpsc::channel();
            job_txs.push((q, tx));
            let seat = model.lanes[q].seat();
            let gather = server_gather(q, Arc::clone(tables));
            let server = thread::Builder::new()
                .name(format!("dlrm-shard{q}-srv"))
                .spawn(move || {
                    if let Some(core) = seat {
                        pin_current_thread(core);
                    }
                    run_server(jobs, gather)
                });
            servers.push(server.expect("spawn table server"));
        }

        let lanes = model.lanes.into_iter().zip(model.tables).enumerate();
        let lanes = lanes
            .map(|(shard, (half, tables))| {
                let mut lane = Lane {
                    half,
                    owned: ownership.tables_of(shard).to_vec(),
                    tables,
                    remotes: job_txs
                        .iter()
                        .filter(|(q, _)| *q != shard)
                        .map(|(q, tx)| (ownership.tables_of(*q).to_vec(), tx.clone()))
                        .collect(),
                };
                let consumer = client.batcher.clone();
                let (model_cfg, serve_cfg) = (Arc::clone(&model_cfg), cfg.clone());
                thread::Builder::new()
                    .name(format!("dlrm-shard{shard}-lane"))
                    .spawn(move || {
                        if let Some(core) = lane.half.seat() {
                            pin_current_thread(core);
                        }
                        let report = ShardReport {
                            shard,
                            owned_tables: lane.owned.clone(),
                            cache_stats: vec![None; lane.owned.len()],
                            ..ShardReport::default()
                        };
                        run_lane(report, &consumer, &model_cfg, &serve_cfg, |batch| {
                            lane.forward(batch)
                        })
                    })
                    .expect("spawn lane")
            })
            .collect();
        // `job_txs` ends here: only lanes hold job senders, so the servers
        // end when the lanes have.
        ShardedEngine {
            client,
            lanes,
            servers,
        }
    }

    /// A cloneable client handle.
    pub fn client(&self) -> ServeClient {
        self.client.clone()
    }

    /// Stops accepting requests, drains every queued request, and returns
    /// the aggregate report with its per-shard breakdown. Re-raises the
    /// panic of an engine thread that died.
    pub fn shutdown(mut self) -> EngineReport {
        self.join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Closes the queue and joins every thread: the lanes first — they
    /// drain the queue and drop their job senders as they exit, which is
    /// what ends the servers. A dead server takes its lanes with it, so its
    /// panic is the one reported.
    fn join(&mut self) -> thread::Result<EngineReport> {
        self.client.batcher.close();
        let shards: Vec<_> = self.lanes.drain(..).map(JoinHandle::join).collect();
        let servers: Vec<_> = self.servers.drain(..).map(JoinHandle::join).collect();
        servers.into_iter().collect::<thread::Result<()>>()?;
        let shards = shards.into_iter().collect::<thread::Result<_>>()?;
        Ok(EngineReport::from_shards(shards))
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Nothing left to join after `shutdown`; a panic is dropped with
        // the engine rather than raised from a destructor.
        let _ = self.join();
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

/// One request lane's loop: pull a micro-batch off
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
        report.latencies_us.record(latency.as_micros() as u64);
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
    use crate::sharded::{ServeModel, ShardSpec};
    use dlrm::layers::Execution;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const WATCHDOG: Duration = Duration::from_secs(60);

    fn tiny_cfg() -> DlrmConfig {
        let mut cfg = DlrmConfig::small().scaled_down(50, 256);
        cfg.dense_features = 2;
        cfg.bottom_mlp = vec![8, 4];
        cfg.emb_dim = 4;
        cfg.num_tables = 3;
        cfg.table_rows = vec![50, 50, 50];
        cfg.top_mlp = vec![8, 1];
        cfg
    }

    fn request() -> Request {
        Request {
            dense: vec![0.5; 2],
            indices: vec![vec![1, 2], vec![], vec![3]],
        }
    }

    fn sharded(shards: usize) -> ShardedServeModel {
        let spec = ShardSpec {
            shards,
            ..ShardSpec::default()
        };
        ShardedServeModel::new(&tiny_cfg(), &spec, 5)
    }

    /// Every handle's outcome, each awaited under the watchdog.
    fn outcomes(handles: Vec<ResponseHandle>) -> Vec<Result<Response, String>> {
        let total = handles.len();
        let (tx, rx) = mpsc::channel();
        let waiter = thread::spawn(move || {
            for h in handles {
                tx.send(h.wait()).expect("test alive");
            }
        });
        let outcomes = (0..total)
            .map(|i| {
                rx.recv_timeout(WATCHDOG)
                    .unwrap_or_else(|_| panic!("handle {i} hung"))
            })
            .collect();
        waiter.join().expect("waiter");
        outcomes
    }

    /// A NaN or infinite dense feature is refused at submit, naming its
    /// index, before it can reach a batch.
    #[test]
    fn non_finite_dense_features_are_rejected() {
        let client = ServeClient::new(&tiny_cfg());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut req = request();
            req.dense[1] = bad;
            let err = client.submit(req).err().expect("a non-finite feature");
            assert!(err.contains("dense feature 1"), "{err}");
        }
        let mut req = request();
        req.dense[0] = f32::MAX;
        assert_eq!(client.validate(&req), Ok(()), "large but finite");
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
        for (i, outcome) in outcomes(handles).iter().enumerate() {
            match outcome {
                Ok(resp) => assert!(i < 4 && resp.logit == 0.25, "request {i} was answered"),
                Err(_) => assert!(i >= 4, "request {i} of the served batch failed"),
            }
        }
        assert!(lane.join().is_err(), "the lane's panic reaches its joiner");
        assert!(client.submit(request()).is_err(), "a dead engine is closed");
    }

    /// An engine at S = 3 whose table server 1 has panicked on its second
    /// job, after every handle it gave out has resolved. A dead server must
    /// not strand a lane: the job it held disconnects its reply, the jobs
    /// behind it go with its receiver, a later send to it errs — the lanes
    /// that needed it unwind, failing their handles and the queue.
    fn engine_with_a_dead_server() -> ShardedEngine {
        let engine = ShardedEngine::start_with(
            sharded(3),
            ServeConfig {
                max_batch: 4,
                window: Duration::ZERO,
            },
            |q, tables| {
                let mut jobs = 0;
                move |job: &GatherJob| {
                    jobs += 1;
                    assert!(
                        q != 1 || jobs < 2,
                        "injected: server {q} dies on job {jobs}"
                    );
                    job.gather(&tables)
                }
            },
        );
        // Which lane takes a batch is a race and lane 1 sends server 1
        // nothing: keep the load on until the engine has closed.
        let client = engine.client();
        let start = Instant::now();
        let mut handles = Vec::new();
        while let Ok(handle) = client.submit(request()) {
            handles.push(handle);
            assert!(start.elapsed() < WATCHDOG, "server 1 never died");
        }
        let outcomes = outcomes(handles);
        assert!(outcomes.iter().any(Result::is_err), "a batch died with it");
        for resp in outcomes.iter().flatten() {
            assert!(resp.logit.is_finite(), "an answered request is scored");
        }
        assert!(client.submit(request()).is_err(), "closed to new requests");
        engine
    }

    #[test]
    fn a_dead_table_server_fails_its_lanes_handles_and_shutdown_surfaces_it() {
        let engine = engine_with_a_dead_server();
        let panic = catch_unwind(AssertUnwindSafe(|| engine.shutdown()))
            .expect_err("shutdown re-raises the server's panic");
        let msg = panic.downcast_ref::<String>().expect("an assert message");
        assert!(msg.contains("injected"), "the cause, not a lane's: {msg}");

        // `Drop` joins the same wreck quietly, even while its own thread
        // unwinds (a panic out of it there would abort the process).
        let unwinding = thread::spawn(|| {
            let _engine = engine_with_a_dead_server();
            panic!("unwinding past a dead engine");
        });
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(unwinding.join()));
        let joined = rx.recv_timeout(WATCHDOG).expect("Drop hung");
        let panic = joined.expect_err("the thread's own panic");
        assert_eq!(panic.downcast_ref(), Some(&"unwinding past a dead engine"));
    }

    /// Under a window of `Duration::MAX` the lane waits for full batches
    /// and serves them; shutdown drains the partial batch left behind.
    #[test]
    fn an_unbounded_window_serves_full_batches_and_drains_on_shutdown() {
        let serve_cfg = ServeConfig {
            max_batch: 4,
            window: Duration::MAX,
        };
        let engine = ShardedEngine::start(sharded(1), serve_cfg);
        let client = engine.client();
        let submit = |n| -> Vec<_> {
            (0..n)
                .map(|_| client.submit(request()).expect("open"))
                .collect()
        };
        assert!(
            outcomes(submit(8)).iter().all(Result::is_ok),
            "two full batches"
        );
        let partial = submit(3);
        let report = engine.shutdown();
        assert!(
            outcomes(partial).iter().all(Result::is_ok),
            "drained on shutdown"
        );
        assert_eq!((report.requests, report.batches), (11, 3));
        assert_eq!(report.latencies_us.len(), 11);
    }

    #[test]
    fn one_shard_is_one_thread_and_two_shards_are_two_lanes_and_two_servers() {
        let threads = |engine: &ShardedEngine| (engine.lanes.len(), engine.servers.len());
        let model = ServeModel::new(
            &tiny_cfg(),
            Execution::optimized(1),
            CacheSizing::Disabled,
            5,
        );
        let one = ServeEngine::start(model, ServeConfig::default());
        assert_eq!(threads(&one), (1, 0));
        let one = ShardedEngine::start(sharded(1), ServeConfig::default());
        assert_eq!(threads(&one), (1, 0));
        let two = ShardedEngine::start(sharded(2), ServeConfig::default());
        assert_eq!(threads(&two), (2, 2));
    }

    /// A lane never builds a job for a table its own shard owns: a
    /// one-shard engine serves under a server that would panic on any job,
    /// and at S = 2 the tables shipped in jobs are exactly those the
    /// serving lanes did not own.
    #[test]
    fn owned_tables_are_gathered_in_place_without_a_job() {
        let serve = |engine: ShardedEngine| {
            let client = engine.client();
            let handles: Vec<_> = (0..40)
                .map(|_| client.submit(request()).expect("open"))
                .collect();
            assert!(outcomes(handles).iter().all(Result::is_ok));
            engine.shutdown()
        };
        let no_jobs = |_, _| |_: &GatherJob| -> Vec<Matrix> { panic!("a job at S = 1") };
        let report = serve(ShardedEngine::start_with(
            sharded(1),
            ServeConfig::default(),
            no_jobs,
        ));
        assert_eq!(report.requests, 40);

        let shipped = Arc::new(AtomicUsize::new(0));
        let counting = |_, tables: Arc<Vec<Matrix>>| {
            let shipped = Arc::clone(&shipped);
            move |job: &GatherJob| {
                shipped.fetch_add(job.indices.len(), Ordering::Relaxed);
                job.gather(&tables)
            }
        };
        let report = serve(ShardedEngine::start_with(
            sharded(2),
            ServeConfig::default(),
            counting,
        ));
        let remote: u64 = report
            .shards
            .iter()
            .map(|sr| sr.batches * (3 - sr.owned_tables.len() as u64))
            .sum();
        assert_eq!(shipped.load(Ordering::Relaxed) as u64, remote);
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
