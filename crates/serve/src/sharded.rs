//! Table-sharded, multi-worker-team serving: the in-process analogue of
//! the paper's hybrid-parallel training layout.
//!
//! The distributed trainer model-parallelizes the embedding tables across
//! sockets and data-parallelizes the MLPs; this module mirrors that split
//! inside one serving process. Tables are partitioned over `S` shards by
//! the same [`OwnershipMap`] the trainer uses (DESIGN.md §15); each shard
//! gets its own team ([`dlrm_kernels::threadpool::ThreadPool`]: the lane
//! thread as member 0 plus `workers_per_shard − 1` spawned workers,
//! optionally core-pinned via [`CorePlacement`]) and its own request lane
//! off a shared [`MicroBatcher`]. A lane fans each micro-batch's sparse
//! lookups out to the owning shards over lock-free SPSC rings
//! ([`crate::spsc`] — no comm-world dependency), gathers the pooled `N × E`
//! rows back, and runs the replicated bottom/interaction/top MLP stack on
//! its own team.
//!
//! Correctness contract: for any shard count, any micro-batch composition,
//! and any worker-team width, the served logits are **bitwise identical**
//! to the unsharded [`crate::ServeModel`]. Three properties make that hold:
//!
//! 1. each table's bag-sum runs serially at its owning shard through the
//!    exact `forward_serial` code the unsharded engine uses — sharding
//!    moves *which thread* gathers, never the accumulation order;
//! 2. the MLP replicas are rebuilt from the model seed's per-component RNG
//!    streams, so every shard holds bitwise-equal weights;
//! 3. the blocked GEMM partitions a fixed tile grid, making its output
//!    invariant to the pool width, and is per-sample (per-column)
//!    independent, making each logit invariant to micro-batch grouping.

use crate::batcher::MicroBatcher;
use crate::cache::CacheStats;
use crate::engine::{
    run_lane, CacheSizing, EngineReport, Pending, ServeClient, ServeConfig, ShardReport,
};
use crate::spsc::{spsc, SpscConsumer, SpscProducer};
use dlrm::embedding_layer::EmbeddingLayer;
use dlrm::interaction::Interaction;
use dlrm::layers::{Activation, Execution, Mlp};
use dlrm::model::DlrmModel;
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_kernels::embedding::{self, UpdateStrategy};
use dlrm_kernels::threadpool::{pin_current_thread, ThreadPool};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use dlrm_topology::{CorePlacement, OwnershipMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How to carve the model across shards.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of shards (worker teams). 1 reproduces the unsharded layout.
    pub shards: usize,
    /// Size of each shard's GEMM team, the lane thread included: the lane
    /// is member 0 and `workers_per_shard − 1` threads are spawned beside
    /// it, so 1 runs the MLP stack inline on the lane.
    pub workers_per_shard: usize,
    /// Pin each team to its [`CorePlacement::contiguous`] cores: spawned
    /// workers to theirs, and — once [`ShardedEngine::start`] has spawned
    /// them — the lane (member 0) and the server thread to the shard's
    /// first core. Best-effort — pinning failures are non-fatal. The
    /// synchronous [`ShardedServeModel::forward`] runs on its caller's
    /// thread, whose affinity is never touched.
    pub pin_cores: bool,
    /// Has no effect (see [`CacheSizing`]): shards return pooled bag sums,
    /// so a lane-side row cache could skip a round trip only when every row
    /// of a bag hits, and a server-side one fronts local DRAM.
    pub cache: CacheSizing,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec {
            shards: 2,
            workers_per_shard: 1,
            pin_cores: false,
            cache: CacheSizing::Disabled,
        }
    }
}

/// The MLP side of one shard: the replicated dense stack plus the team it
/// runs on. Lives on the shard's lane thread.
struct LaneHalf {
    exec: Execution,
    /// The shard's first core under [`ShardSpec::pin_cores`]: the seat of
    /// the team's member 0, which the lane thread takes.
    core: Option<usize>,
    bottom: Mlp,
    interaction: Interaction,
    top: Mlp,
    /// Reused per-table gather outputs, indexed by **global** table id.
    gather_outs: Vec<Matrix>,
}

impl LaneHalf {
    /// The dense stack on this shard's team, over `gather_outs` as the
    /// servers left them; returns per-sample logits.
    fn dense_forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        let z0 = self.bottom.forward(&self.exec, &batch.dense);
        let inter = self.interaction.forward(&self.exec, &z0, &self.gather_outs);
        let logits = self.top.forward(&self.exec, &inter);
        debug_assert_eq!(logits.rows(), 1);
        logits.as_slice().to_vec()
    }
}

/// The embedding side of one shard: the owned tables. Lives on the shard's
/// server thread.
struct ServerHalf {
    /// As [`LaneHalf::core`]: the server shares its shard's first core.
    core: Option<usize>,
    /// Owned tables, in [`OwnershipMap::tables_of`] (local) order.
    tables: Vec<EmbeddingLayer>,
}

/// A table-sharded forward-only model: `S` lane halves (replicated MLPs on
/// per-shard teams) + `S` server halves (partitioned tables).
///
/// [`forward`](Self::forward) runs the whole thing synchronously on the
/// calling thread — the identity-test harness; [`ShardedEngine::start`]
/// puts each half on its own thread.
pub struct ShardedServeModel {
    cfg: DlrmConfig,
    ownership: OwnershipMap,
    lanes: Vec<LaneHalf>,
    servers: Vec<ServerHalf>,
    pinned_workers: Vec<usize>,
}

impl ShardedServeModel {
    /// Builds a sharded model for `cfg`, seeded exactly like
    /// [`crate::ServeModel::new`]: the same `seed` gives every shard's MLP
    /// replica and every owned table bitwise the weights the unsharded
    /// model holds.
    pub fn new(cfg: &DlrmConfig, spec: &ShardSpec, seed: u64) -> Self {
        assert!(spec.shards >= 1, "need at least one shard");
        assert!(spec.workers_per_shard >= 1, "each team needs a worker");
        let ownership = OwnershipMap::round_robin(cfg.num_tables, spec.shards);
        let placement = spec.pin_cores.then(|| {
            CorePlacement::contiguous(
                ThreadPool::default_parallelism(),
                spec.shards,
                spec.workers_per_shard,
            )
        });
        let mut lanes = Vec::with_capacity(spec.shards);
        let mut servers = Vec::with_capacity(spec.shards);
        let mut pinned_workers = Vec::with_capacity(spec.shards);
        for s in 0..spec.shards {
            let cores = placement.as_ref().map(|p| p.shard_cores(s));
            let core = cores.map(|c| c[0]);
            let pool = match cores {
                Some(cores) => ThreadPool::with_affinity(cores),
                None => ThreadPool::new(spec.workers_per_shard),
            };
            pinned_workers.push(pool.pinned_workers());
            let exec = Execution::Optimized(Arc::new(pool));
            let mut bottom = Mlp::new(
                cfg.dense_features,
                &cfg.bottom_mlp,
                Activation::Relu,
                &mut seeded_rng(seed, DlrmModel::BOTTOM_STREAM),
            );
            assert_eq!(
                bottom.out_features(),
                cfg.emb_dim,
                "bottom MLP must project to the embedding dimension"
            );
            let mut top = Mlp::new(
                cfg.interaction_output_dim(),
                &cfg.top_mlp,
                Activation::None,
                &mut seeded_rng(seed, DlrmModel::TOP_STREAM),
            );
            // Forward-only: pack once at build time (bitwise-equal to the
            // flat path per the packed-plan equivalence gate).
            bottom.prepack_weights();
            top.prepack_weights();
            lanes.push(LaneHalf {
                exec,
                core,
                bottom,
                interaction: Interaction::new(cfg.emb_dim),
                top,
                gather_outs: (0..cfg.num_tables)
                    .map(|_| Matrix::zeros(0, cfg.emb_dim))
                    .collect(),
            });
            let tables: Vec<_> = ownership
                .tables_of(s)
                .iter()
                .map(|&t| DlrmModel::build_table(cfg, t, UpdateStrategy::RaceFree, seed))
                .collect();
            servers.push(ServerHalf { core, tables });
        }
        ShardedServeModel {
            cfg: cfg.clone(),
            ownership,
            lanes,
            servers,
            pinned_workers,
        }
    }

    /// The model configuration.
    pub fn cfg(&self) -> &DlrmConfig {
        &self.cfg
    }

    /// The table → shard partition.
    pub fn ownership(&self) -> &OwnershipMap {
        &self.ownership
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    /// Spawned workers that were successfully core-pinned, per shard (all
    /// zero unless [`ShardSpec::pin_cores`] was set, pinning succeeded and
    /// `workers_per_shard ≥ 2`: member 0 of a team is the lane thread,
    /// which does not exist yet).
    pub fn pinned_workers(&self) -> &[usize] {
        &self.pinned_workers
    }

    /// Cache statistics indexed by **global** table id: `None` for every
    /// table, since none is fronted by a cache.
    pub fn cache_stats(&self) -> Vec<Option<CacheStats>> {
        vec![None; self.cfg.num_tables]
    }

    /// Synchronous sharded forward: every table gathers at its owning
    /// shard's server half, then `gather_shard`'s lane half runs the MLP
    /// stack. Returns per-sample logits, bitwise identical to
    /// [`crate::ServeModel::forward`] for any `gather_shard`.
    pub fn forward(&mut self, gather_shard: usize, batch: &MiniBatch) -> Vec<f32> {
        let n = batch.batch_size();
        for (q, server) in self.servers.iter().enumerate() {
            for (li, &t) in self.ownership.tables_of(q).iter().enumerate() {
                let out = &mut self.lanes[gather_shard].gather_outs[t];
                out.resize_rows(n);
                let weight = &server.tables[li].weight;
                embedding::forward_serial(weight, &batch.indices[t], &batch.offsets[t], out);
            }
        }
        self.lanes[gather_shard].dense_forward(batch)
    }
}

/// One fan-out unit: the CSR slices for every table a shard owns (local
/// order), for one micro-batch.
struct GatherJob {
    /// Batch size — sizes the `n × E` outputs even for all-empty bags.
    n: usize,
    /// The owning shard this job targets (echoed on the reply so the lane
    /// can place the outputs without per-owner channels).
    owner: usize,
    /// Per owned table (local order): flattened lookup indices.
    indices: Vec<Vec<u32>>,
    /// Per owned table (local order): bag offsets (`n + 1` entries).
    offsets: Vec<Vec<usize>>,
    /// Where to send the pooled rows, tagged with the owner shard.
    reply: mpsc::Sender<(usize, Vec<Matrix>)>,
}

/// Wakeup channel for one server thread: a sequence count under a mutex so
/// a notify that lands before the server sleeps is never lost, plus a stop
/// flag for shutdown.
struct ServerCtl {
    seq: Mutex<u64>,
    cv: Condvar,
    stop: AtomicBool,
}

impl ServerCtl {
    fn new() -> Self {
        ServerCtl {
            seq: Mutex::new(0),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }

    /// Signals "new work may be visible in a ring".
    fn notify(&self) {
        *self.seq.lock().unwrap() += 1;
        self.cv.notify_all();
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.notify();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Parks until the sequence count moves past `last_seen` (or stop);
    /// returns the count observed on wake.
    fn wait(&self, last_seen: u64) -> u64 {
        let mut seq = self.seq.lock().unwrap();
        while *seq == last_seen && !self.stopped() {
            seq = self.cv.wait(seq).unwrap();
        }
        *seq
    }
}

/// A running sharded engine: per shard, a **lane** thread (micro-batch →
/// fan-out → gather → MLP → respond) and a **server** thread (owned-table
/// gathers for every lane), wired all-to-all with SPSC rings.
pub struct ShardedEngine {
    client: ServeClient,
    lanes: Vec<JoinHandle<ShardReport>>,
    servers: Vec<JoinHandle<()>>,
    ctls: Vec<Arc<ServerCtl>>,
}

impl ShardedEngine {
    /// Starts the engine, moving each shard's halves onto their threads.
    pub fn start(model: ShardedServeModel, cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        let nshards = model.num_shards();
        let ownership = Arc::new(model.ownership);
        let model_cfg = Arc::new(model.cfg);
        let client = ServeClient::new(&model_cfg);

        // One ring per (lane, server) pair. A lane has at most one job in
        // flight per server (it blocks on the replies each batch), so a
        // tiny capacity never fills in steady state.
        let mut lane_producers: Vec<Vec<SpscProducer<GatherJob>>> =
            (0..nshards).map(|_| Vec::with_capacity(nshards)).collect();
        let mut server_consumers: Vec<Vec<SpscConsumer<GatherJob>>> =
            (0..nshards).map(|_| Vec::with_capacity(nshards)).collect();
        for producers in lane_producers.iter_mut() {
            for consumers in server_consumers.iter_mut() {
                let (tx, rx) = spsc(2);
                producers.push(tx);
                consumers.push(rx);
            }
        }
        let ctls: Vec<Arc<ServerCtl>> = (0..nshards).map(|_| Arc::new(ServerCtl::new())).collect();

        let servers: Vec<JoinHandle<()>> = model
            .servers
            .into_iter()
            .zip(server_consumers)
            .enumerate()
            .map(|(q, (server, consumers))| {
                let ctl = Arc::clone(&ctls[q]);
                std::thread::Builder::new()
                    .name(format!("dlrm-shard{q}-srv"))
                    .spawn(move || run_server(server, consumers, &ctl))
                    .expect("spawn shard server")
            })
            .collect();

        let lanes: Vec<JoinHandle<ShardReport>> = model
            .lanes
            .into_iter()
            .enumerate()
            .map(|(s, lane)| {
                let consumer = client.batcher.clone();
                let producers = std::mem::take(&mut lane_producers[s]);
                let ctls: Vec<Arc<ServerCtl>> = ctls.iter().map(Arc::clone).collect();
                let ownership = Arc::clone(&ownership);
                let model_cfg = Arc::clone(&model_cfg);
                let serve_cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("dlrm-shard{s}-lane"))
                    .spawn(move || {
                        run_shard_lane(
                            s, lane, consumer, producers, ctls, &ownership, &model_cfg, &serve_cfg,
                        )
                    })
                    .expect("spawn shard lane")
            })
            .collect();

        ShardedEngine {
            client,
            lanes,
            servers,
            ctls,
        }
    }

    /// A cloneable client handle (same request/response surface as the
    /// unsharded [`crate::ServeEngine`]).
    pub fn client(&self) -> ServeClient {
        self.client.clone()
    }

    /// Stops accepting requests, drains every queued request, and returns
    /// the aggregate report with its per-shard breakdown.
    pub fn shutdown(mut self) -> EngineReport {
        self.join_all()
    }

    fn join_all(&mut self) -> EngineReport {
        // Order matters: close the batcher and join the lanes first — a
        // lane blocks on its replies every batch, so once the lanes exit,
        // every ring is empty and the servers can be stopped.
        self.client.batcher.close();
        let shards: Vec<ShardReport> = self
            .lanes
            .drain(..)
            .map(|l| l.join().expect("lane panicked"))
            .collect();
        for ctl in &self.ctls {
            ctl.request_stop();
        }
        for server in self.servers.drain(..) {
            server.join().expect("shard server panicked");
        }
        EngineReport::from_shards(shards)
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        if !self.lanes.is_empty() || !self.servers.is_empty() {
            let _ = self.join_all();
        }
    }
}

/// Server thread body: drain gather jobs from every lane's ring, park on
/// the ctl when idle, exit once stop is requested and the rings are dry.
fn run_server(server: ServerHalf, mut consumers: Vec<SpscConsumer<GatherJob>>, ctl: &ServerCtl) {
    if let Some(core) = server.core {
        pin_current_thread(core);
    }
    let mut last_seen = 0u64;
    loop {
        let mut served = 0usize;
        for ring in consumers.iter_mut() {
            while let Some(job) = ring.pop() {
                served += 1;
                let outs: Vec<Matrix> = (0..server.tables.len())
                    .map(|li| {
                        let mut out = Matrix::zeros(job.n, server.tables[li].dim());
                        let weight = &server.tables[li].weight;
                        embedding::forward_serial(
                            weight,
                            &job.indices[li],
                            &job.offsets[li],
                            &mut out,
                        );
                        out
                    })
                    .collect();
                // A lane that died mid-batch just drops its receiver.
                let _ = job.reply.send((job.owner, outs));
            }
        }
        if served == 0 {
            if ctl.stopped() {
                return;
            }
            last_seen = ctl.wait(last_seen);
        }
    }
}

/// Lane thread body: the shared request loop, with a forward that
/// scatters the sparse half to the owning servers, gathers the pooled rows
/// and runs the dense stack on this shard's team.
#[allow(clippy::too_many_arguments)]
fn run_shard_lane(
    shard: usize,
    mut lane: LaneHalf,
    consumer: MicroBatcher<Pending>,
    mut producers: Vec<SpscProducer<GatherJob>>,
    ctls: Vec<Arc<ServerCtl>>,
    ownership: &OwnershipMap,
    cfg: &DlrmConfig,
    serve_cfg: &ServeConfig,
) -> ShardReport {
    let owned_tables = ownership.tables_of(shard).to_vec();
    let report = ShardReport {
        shard,
        cache_stats: vec![None; owned_tables.len()],
        owned_tables,
        ..ShardReport::default()
    };
    if let Some(core) = lane.core {
        pin_current_thread(core);
    }
    run_lane(report, &consumer, cfg, serve_cfg, |batch| {
        let n = batch.batch_size();

        // Scatter: one coalesced job per owning shard.
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut outstanding = 0usize;
        for (q, ctl) in ctls.iter().enumerate() {
            let owned = ownership.tables_of(q);
            if owned.is_empty() {
                continue;
            }
            let mut job = GatherJob {
                n,
                owner: q,
                indices: owned.iter().map(|&t| batch.indices[t].clone()).collect(),
                offsets: owned.iter().map(|&t| batch.offsets[t].clone()).collect(),
                reply: reply_tx.clone(),
            };
            loop {
                match producers[q].push(job) {
                    Ok(()) => break,
                    Err(back) => {
                        // Ring full (the server is behind) — nudge it and
                        // retry; capacity 2 with one job in flight per lane
                        // makes this a cold path.
                        job = back;
                        ctl.notify();
                        std::thread::yield_now();
                    }
                }
            }
            ctl.notify();
            outstanding += 1;
        }
        drop(reply_tx);

        // Gather: block for every owner's pooled rows.
        for _ in 0..outstanding {
            let (q, outs) = reply_rx
                .recv()
                .expect("shard server dropped a gather reply");
            for (&t, out) in ownership.tables_of(q).iter().zip(outs) {
                lane.gather_outs[t] = out;
            }
        }

        lane.dense_forward(batch)
    })
}
