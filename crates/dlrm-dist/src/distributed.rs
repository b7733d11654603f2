//! The hybrid-parallel distributed DLRM trainer: [`DistDlrm`] runs the one
//! train step ([`dlrm::step`], DESIGN.md §18) through its hybrid boundary.
//! [`Schedule::Overlapped`] hides each collective behind independent
//! compute and [`Schedule::Synchronous`] runs the same collectives back to
//! back, so the two give the same bits (DESIGN.md §8). Only
//! [`ExchangeStrategy::CclAlltoall`] keeps a [`ProgressEngine`], so only
//! there is anything in flight.

use crate::bucketing::{BucketReducer, DEFAULT_BUCKET_CAP_BYTES};
use crate::ddp::{apply_reduced_grads, grad_offsets, BucketSink};
use crate::exchange::{self, ensure_mats, Direction, ExchangeStrategy, PendingExchange};
use crate::prefetch::{Prefetch, PrefetchState};
use crate::wirepolicy::{AdaptivePolicy, PolicyStats};
use dlrm::embedding_layer::EmbeddingLayer;
use dlrm::interaction::Interaction;
use dlrm::layers::{Execution, Mlp};
use dlrm::model::DlrmModel;
use dlrm::step::{self, Ctx, Dense, RankBoundary, StageKinds, Tower};
use dlrm_comm::chaos::FaultPlan;
use dlrm_comm::nonblocking::{create_channel_worlds_with_opts, Backend, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::{CommWorld, Communicator};
use dlrm_comm::{time_opt, OpKind, TimingRecorder, WireStats};
use dlrm_data::{DlrmConfig, LookaheadWindow, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_tensor::Matrix;
use dlrm_topology::OwnershipMap;
use std::borrow::Cow;
use std::sync::Arc;

/// How the train step orders compute against communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Every collective completes before the next compute op (the naive
    /// baseline; kept for equivalence tests and as the bench contrast).
    Synchronous,
    /// Split-phase collectives hidden behind independent compute.
    Overlapped,
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Synchronous => "synchronous",
            Schedule::Overlapped => "overlapped",
        })
    }
}

/// Half the machine per rank (the paper runs one rank per socket), at
/// least 1 and no runaway on huge hosts.
fn default_threads_per_rank() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .div_ceil(2)
        .clamp(1, 8)
}

/// Wire mode of the bucketed gradient allreduce: one fixed precision for
/// every bucket, or the error-bounded adaptive policy.
#[derive(Debug, Clone, Copy)]
pub enum AllreduceWire {
    /// Every bucket ships with this precision.
    Fixed(WirePrecision),
    /// Per-bucket FP32/BF16/shared-scale-INT8 chosen each step by
    /// [`AdaptivePolicy`] from running statistics of the (rank-identical)
    /// reduced gradients, keeping the worst-case quantization error per
    /// reduced element within `error_bound`. Decisions are pure functions
    /// of replicated state, so every rank picks the same wires with zero
    /// metadata traffic.
    Adaptive {
        /// Absolute per-element error budget for the reduced gradients.
        error_bound: f32,
    },
}

impl PartialEq for AllreduceWire {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AllreduceWire::Fixed(a), AllreduceWire::Fixed(b)) => a == b,
            // Bit comparison keeps `Eq` honest (no NaN partiality) and is
            // exactly the determinism contract: same bits, same policy.
            (
                AllreduceWire::Adaptive { error_bound: a },
                AllreduceWire::Adaptive { error_bound: b },
            ) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for AllreduceWire {}

impl Default for AllreduceWire {
    fn default() -> Self {
        AllreduceWire::Fixed(WirePrecision::Fp32)
    }
}

/// Per-collective wire precision for the train step's data plane.
///
/// The three hot collectives are independently selectable so experiments
/// can isolate where the volume (and the rounding) goes: the forward
/// embedding alltoall ships activations, the backward alltoall ships
/// embedding gradients, and the bucketed allreduce ships MLP gradients
/// (fixed precision or the adaptive policy — see [`AllreduceWire`]).
/// [`WireConfig::all`] sets every knob at once; the default is FP32
/// everywhere (bitwise-identical to the pre-wire trainer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireConfig {
    /// Wire format of the embedding-output (forward) alltoall.
    pub forward_alltoall: WirePrecision,
    /// Wire format of the embedding-gradient (backward) alltoall.
    pub backward_alltoall: WirePrecision,
    /// Wire mode of the bucketed MLP-gradient allreduce.
    pub allreduce: AllreduceWire,
}

impl WireConfig {
    /// The same precision on every collective.
    pub fn all(p: WirePrecision) -> Self {
        WireConfig {
            forward_alltoall: p,
            backward_alltoall: p,
            allreduce: AllreduceWire::Fixed(p),
        }
    }
}

/// Options for constructing a distributed trainer.
#[derive(Clone)]
pub struct DistOptions {
    /// Embedding-exchange strategy.
    pub strategy: ExchangeStrategy,
    /// Size of each rank's compute team, the rank thread included: it is
    /// member 0 and `threads_per_rank − 1` workers are spawned beside it,
    /// so with 1 a rank computes on its own thread and spawns none.
    pub threads_per_rank: usize,
    /// Model seed — must match the single-process model for equivalence.
    pub seed: u64,
    /// Compute/communication ordering. Moves time only under
    /// [`ExchangeStrategy::CclAlltoall`], whose collectives run on progress
    /// threads; under the others both schedules block at the same points.
    pub schedule: Schedule,
    /// Gradient-allreduce bucket cap in bytes (DDP `bucket_cap_mb`).
    pub bucket_cap_bytes: usize,
    /// Per-collective on-wire element format.
    pub wire: WireConfig,
    /// Lookahead prefetch + dedup for the embedding data plane. `Off`
    /// (the default) keeps the trainer byte-for-byte on the pooled
    /// forward-exchange path.
    pub prefetch: Prefetch,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            strategy: ExchangeStrategy::Alltoall,
            threads_per_rank: default_threads_per_rank(),
            seed: 0,
            schedule: Schedule::Overlapped,
            bucket_cap_bytes: DEFAULT_BUCKET_CAP_BYTES,
            wire: WireConfig::default(),
            prefetch: Prefetch::Off,
        }
    }
}

/// One rank of a hybrid-parallel DLRM.
///
/// MLPs are replicated (data parallel); this rank additionally owns the
/// embedding tables `t ≡ rank (mod nranks)` (model parallel).
pub struct DistDlrm {
    /// The model configuration.
    pub cfg: DlrmConfig,
    exec: Execution,
    /// Replicated bottom MLP.
    pub bottom: Mlp,
    /// Replicated top MLP.
    pub top: Mlp,
    /// `(global_table_index, layer)` for each owned table, updated with
    /// the fused race-free kernel.
    pub local_tables: Vec<(usize, EmbeddingLayer)>,
    interaction: Interaction,
    dlogits: Vec<f32>,
    recorder: Option<Arc<TimingRecorder>>,
    /// Lookahead pipeline state (`Some` iff prefetch is enabled).
    prefetch: Option<PrefetchState>,
    links: Links,
}

/// What the hybrid boundary keeps from step to step: the communicators,
/// the exchange and allreduce settings, and the iteration-persistent
/// scratch (reused, never regrown after step 1).
struct Links {
    comm: Communicator,
    engine: Option<ProgressEngine>,
    /// Which rank owns which table — built once, shared by both exchanges.
    ownership: OwnershipMap,
    strategy: ExchangeStrategy,
    schedule: Schedule,
    bucket_cap_bytes: usize,
    wire: WireConfig,
    /// Flat offset of each layer's gradients, indexed by [`Tower`].
    grad_offs: Vec<Vec<usize>>,
    grad_total: usize,
    fwd_slices: Vec<Matrix>,
    bwd_grads: Vec<Matrix>,
    flat_grads: Vec<f32>,
    /// Adaptive allreduce-wire policy (`Some` iff the allreduce wire is
    /// [`AllreduceWire::Adaptive`]).
    wire_policy: Option<AdaptivePolicy>,
}

impl DistDlrm {
    /// Builds this rank's share of the model. Weights come from
    /// [`DlrmModel::build_mlps`] and [`DlrmModel::build_tables`], so they
    /// agree bit-for-bit with [`DlrmModel::new`] under the same seed.
    /// `engine` is kept only under [`ExchangeStrategy::CclAlltoall`]; any
    /// other strategy drops it here, joining its progress threads, and
    /// reduces on the rank thread.
    pub fn new(
        cfg: &DlrmConfig,
        comm: Communicator,
        engine: Option<ProgressEngine>,
        opts: &DistOptions,
    ) -> Self {
        assert!(
            comm.nranks() <= cfg.max_ranks(),
            "at most one rank per embedding table"
        );
        let (bottom, top) = DlrmModel::build_mlps(cfg, opts.seed);
        let ownership = OwnershipMap::round_robin(cfg.num_tables, comm.nranks());
        let exec = Execution::optimized(opts.threads_per_rank);
        let owned = ownership.tables_of(comm.rank());
        let built = DlrmModel::build_tables(cfg, owned, UpdateStrategy::RaceFree, &exec, opts.seed);
        let local_tables: Vec<(usize, EmbeddingLayer)> = owned.iter().copied().zip(built).collect();
        let (grad_offs, grad_total) = grad_offsets(&[&bottom, &top]);
        let prefetch = match opts.prefetch {
            Prefetch::Off => None,
            Prefetch::Lookahead { window } => {
                // Bitwise equivalence with the naive step needs canonical
                // bytes on the fetch wire and dest/owner agreement on every
                // applied gradient — see `crate::prefetch`.
                assert_eq!(
                    opts.wire.forward_alltoall,
                    WirePrecision::Fp32,
                    "prefetch requires an FP32 forward wire: cached rows must be canonical bytes"
                );
                assert_eq!(
                    opts.wire.backward_alltoall,
                    WirePrecision::Fp32,
                    "prefetch requires an FP32 backward wire: dest and owner must apply identical gradients"
                );
                Some(PrefetchState::new(cfg, comm.nranks(), comm.rank(), window))
            }
        };
        let wire_policy = match opts.wire.allreduce {
            AllreduceWire::Fixed(_) => None,
            AllreduceWire::Adaptive { error_bound } => {
                Some(AdaptivePolicy::new(error_bound, comm.nranks()))
            }
        };
        DistDlrm {
            cfg: cfg.clone(),
            exec,
            bottom,
            top,
            local_tables,
            interaction: Interaction::new(cfg.emb_dim),
            dlogits: Vec::new(),
            recorder: None,
            prefetch,
            links: Links {
                comm,
                engine: engine.filter(|_| opts.strategy == ExchangeStrategy::CclAlltoall),
                ownership,
                strategy: opts.strategy,
                schedule: opts.schedule,
                bucket_cap_bytes: opts.bucket_cap_bytes,
                wire: opts.wire,
                grad_offs,
                grad_total,
                fwd_slices: Vec::new(),
                bwd_grads: Vec::new(),
                flat_grads: Vec::new(),
                wire_policy,
            },
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.links.comm.rank()
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.links.comm.nranks()
    }

    /// Decision counts of the adaptive allreduce-wire policy (`None` under
    /// a fixed wire) — how many buckets shipped FP32/BF16/INT8 so far.
    pub fn wire_policy_stats(&self) -> Option<PolicyStats> {
        self.links.wire_policy.as_ref().map(|p| p.stats())
    }

    /// Barrier over the trainer's communicator (bench/test sync points).
    pub fn comm_barrier(&self) {
        self.links.comm.barrier();
    }

    /// The trainer's blocking communicator.
    pub fn comm(&self) -> &Communicator {
        &self.links.comm
    }

    /// Attaches (or detaches) a per-rank timing recorder. Compute,
    /// Alltoall-Wait and Allreduce-Wait are charged per [`OpKind`].
    pub fn set_recorder(&mut self, rec: Option<Arc<TimingRecorder>>) {
        self.recorder = rec;
    }

    /// Bytes currently held by the iteration-persistent scratch buffers —
    /// the allocation-growth test asserts this stabilizes after step 1.
    pub fn scratch_bytes(&self) -> usize {
        let l = &self.links;
        let mats: usize = l
            .fwd_slices
            .iter()
            .chain(&l.bwd_grads)
            .map(|m| std::mem::size_of_val(m.as_slice()))
            .sum();
        mats + (l.flat_grads.capacity() + self.dlogits.capacity()) * std::mem::size_of::<f32>()
            + self.prefetch.as_ref().map_or(0, |p| p.scratch_bytes())
            + l.wire_policy.as_ref().map_or(0, |p| p.scratch_bytes())
            + self.bottom.scratch_bytes()
            + self.top.scratch_bytes()
    }

    /// One hybrid-parallel training iteration over a *global* minibatch
    /// (every rank passes the same batch; each processes its slice).
    /// Returns this rank's local loss.
    ///
    /// Both schedules execute the identical packing, collectives and
    /// arithmetic; [`Schedule::Overlapped`] only moves the `finish` halves
    /// later and the bucket issues earlier.
    pub fn train_step(&mut self, global: &MiniBatch, lr: f32) -> f64 {
        self.step(global, None, lr)
    }

    /// One lookahead-pipelined training iteration (requires
    /// [`Prefetch::Lookahead`] in the construction options). `win.current()`
    /// is this step's global batch; the window is the shared deterministic
    /// view every rank derives bit-identical fetch plans from. The caller
    /// advances the window between steps.
    ///
    /// Bitwise-identical to [`DistDlrm::train_step`] over the same stream:
    /// it is the same step with a different embedding front end — the
    /// pooled table slices are reproduced locally from cached unique rows
    /// in the naive accumulate order, and everything downstream is shared
    /// code (`tests/prefetch_equivalence` asserts losses *and all parameter
    /// planes*). What changes is the wire: each unique row crosses once per
    /// residency instead of `n·E` pooled floats per step, and next-step
    /// rows fly behind backward compute.
    pub fn train_step_lookahead(&mut self, win: &LookaheadWindow<'_>, lr: f32) -> f64 {
        let mut ps = self
            .prefetch
            .take()
            .expect("prefetch not enabled; construct with Prefetch::Lookahead");
        assert_eq!(win.pos(), ps.step() as usize, "window cursor out of sync");
        let loss = self.step(win.current(), Some((&mut ps, win)), lr);
        ps.finish_step(ps.step());
        self.prefetch = Some(ps);
        loss
    }

    /// The one step ([`step::train_step`]) over this rank's hybrid
    /// boundary, with the lookahead front end when `lookahead` is given.
    fn step(
        &mut self,
        global: &MiniBatch,
        lookahead: Option<(&mut PrefetchState, &LookaheadWindow<'_>)>,
        lr: f32,
    ) -> f64 {
        let r = self.nranks();
        let gn = global.batch_size();
        assert_eq!(gn % r, 0, "global minibatch must divide by ranks");
        let mut boundary = Hybrid {
            cfg: &self.cfg,
            n: gn / r,
            links: &mut self.links,
            tables: &mut self.local_tables,
            lookahead,
            reducer: None,
        };
        let dense = Dense {
            bottom: &mut self.bottom,
            interaction: &mut self.interaction,
            top: &mut self.top,
            dlogits: &mut self.dlogits,
        };
        let rec = self.recorder.as_deref();
        step::train_step(
            &mut boundary,
            dense,
            &Ctx {
                exec: &self.exec,
                global,
                lr,
                rec,
            },
        )
    }
}

impl Links {
    /// Builds one step's bucket reducer: fixed wire straight from the
    /// config, or the adaptive policy's fresh per-bucket decisions.
    fn reducer(&mut self) -> BucketReducer {
        let flat = std::mem::take(&mut self.flat_grads);
        let reducer = BucketReducer::new(flat, self.grad_total, self.bucket_cap_bytes);
        match self.wire.allreduce {
            AllreduceWire::Fixed(p) => reducer.with_wire(p),
            AllreduceWire::Adaptive { .. } => {
                let policy = self
                    .wire_policy
                    .as_mut()
                    .expect("adaptive allreduce wire implies a policy");
                let wires = policy.decide(reducer.num_buckets()).to_vec();
                reducer.with_bucket_wires(wires)
            }
        }
    }

    /// Starts an exchange of `mats`. [`Schedule::Synchronous`] completes it
    /// at once; [`Schedule::Overlapped`] returns it for [`Links::finish`].
    fn begin(
        &mut self,
        dir: Direction,
        mats: &[Matrix],
        n: usize,
        e: usize,
        rec: Option<&TimingRecorder>,
    ) -> Option<PendingExchange> {
        let wire = match dir {
            Direction::Forward => self.wire.forward_alltoall,
            Direction::Backward => self.wire.backward_alltoall,
        };
        let (comm, engine, map) = (&self.comm, self.engine.as_ref(), &self.ownership);
        let p = exchange::begin(dir, self.strategy, comm, engine, map, mats, n, e, wire, rec);
        match self.schedule {
            Schedule::Overlapped => Some(p),
            Schedule::Synchronous => {
                self.finish(Some(p), rec);
                None
            }
        }
    }

    /// Completes what [`Links::begin`] left pending, into `fwd_slices` or
    /// `bwd_grads` by its direction.
    fn finish(&mut self, pending: Option<PendingExchange>, rec: Option<&TimingRecorder>) {
        let Some(p) = pending else { return };
        let out = match p.direction() {
            Direction::Forward => &mut self.fwd_slices,
            Direction::Backward => &mut self.bwd_grads,
        };
        exchange::finish(p, &self.comm, &self.ownership, out, rec);
    }
}

/// The hybrid-parallel boundary of one step, at every rank count
/// (DESIGN.md §18). Pooled front end: local gather → begin the forward
/// exchange → bottom forward → finish. Lookahead front end (§12): observe
/// → land the early fetch → late fetch → record touches → pool locally →
/// bottom forward → issue the next step's early fetch, so the exchange
/// channel sees, in FIFO order, late(j), early(j+1), backward(j).
///
/// A non-finite loss does not skip the step: the loss is rank-local, so a
/// skip every rank agrees on needs a collective (ROADMAP item 4(c)).
struct Hybrid<'a> {
    cfg: &'a DlrmConfig,
    /// Samples per rank.
    n: usize,
    links: &'a mut Links,
    tables: &'a mut [(usize, EmbeddingLayer)],
    lookahead: Option<(&'a mut PrefetchState, &'a LookaheadWindow<'a>)>,
    /// The step's allreduce, from the top backward on.
    reducer: Option<BucketReducer>,
}

impl RankBoundary for Hybrid<'_> {
    const KINDS: StageKinds = StageKinds {
        embeddings: OpKind::Compute,
        mlp: OpKind::Compute,
        rest: OpKind::Compute,
    };

    fn local<'b>(&self, global: &'b MiniBatch) -> Cow<'b, MiniBatch> {
        let me = self.links.comm.rank();
        Cow::Owned(global.slice(me * self.n, (me + 1) * self.n))
    }

    fn forward(
        &mut self,
        cx: &Ctx,
        bottom_forward: impl FnOnce() -> Matrix,
    ) -> (Matrix, &[Matrix]) {
        let (global, rec) = (cx.global, cx.rec);
        let (n, e, l) = (self.n, self.cfg.emb_dim, &mut *self.links);
        let (me, r) = (l.comm.rank(), l.comm.nranks());
        let z0 = match &mut self.lookahead {
            None => {
                // Model-parallel table forward over the whole global batch,
                // then the switch to data parallel, in flight across the
                // bottom MLP forward.
                let outs: Vec<Matrix> = time_opt(rec, Self::KINDS.embeddings, || {
                    let tables = self.tables.iter_mut();
                    let fwd = |(t, layer): &mut (usize, EmbeddingLayer)| {
                        layer.forward(cx.exec, &global.indices[*t], &global.offsets[*t])
                    };
                    tables.map(fwd).collect()
                });
                let pending = l.begin(Direction::Forward, &outs, n, e, rec);
                let z0 = bottom_forward();
                l.finish(pending, rec);
                z0
            }
            Some((ps, win)) => {
                let j = ps.step();
                ps.observe_visible(win, n);
                ps.land_early_fetch(r, e, rec);
                let wire = l.wire.forward_alltoall;
                ps.late_fetch(j, global, me, r, n, self.tables, &l.comm, wire, rec);
                ps.record_touches(j, global, n);
                // Every table's slice is pooled from cached rows in the
                // naive accumulate order.
                ensure_mats(&mut l.fwd_slices, self.cfg.num_tables, n, e);
                time_opt(rec, Self::KINDS.embeddings, || {
                    ps.pool_forward(global, me, n, &mut l.fwd_slices)
                });
                let z0 = bottom_forward();
                // Batch j+1's rows go out on the exchange channel ahead of
                // the backward alltoall and fly behind the compute between.
                let engine = l.engine.as_ref();
                ps.issue_early_fetch(j, win, me, r, n, self.tables, &l.comm, engine, wire, rec);
                z0
            }
        };
        (z0, &self.links.fwd_slices)
    }

    fn mlp_backward(&mut self, cx: &Ctx, mlp: &mut Mlp, tower: Tower, dy: Matrix) -> Matrix {
        let l = &mut *self.links;
        let mut sink = BucketSink {
            reducer: self.reducer.get_or_insert_with(|| l.reducer()),
            offs: &l.grad_offs[tower as usize],
            overlapped: l.schedule == Schedule::Overlapped,
            engine: l.engine.as_ref(),
        };
        mlp.backward_into(cx.exec, dy, &mut sink)
    }

    fn table_backward(
        &mut self,
        cx: &Ctx,
        d_tables: &[Matrix],
        bottom_backward: impl FnOnce(&mut Self),
    ) {
        let (global, rec, e) = (cx.global, cx.rec, self.cfg.emb_dim);
        let pending = self
            .links
            .begin(Direction::Backward, d_tables, self.n, e, rec);
        bottom_backward(self);
        let l = &mut *self.links;
        l.finish(pending, rec);
        // Local gradients are means over n = GN/R samples; dividing the
        // learning rate by R makes the sparse update a global-batch mean.
        let (me, emb_lr) = (l.comm.rank(), cx.lr / l.comm.nranks() as f32);
        time_opt(rec, Self::KINDS.embeddings, || {
            for ((t, layer), grad) in self.tables.iter_mut().zip(&l.bwd_grads) {
                if self.lookahead.is_some() {
                    // The owner's forward never ran here, so record the
                    // batch for the canonical update first.
                    layer.set_saved_batch(&global.indices[*t], &global.offsets[*t]);
                }
                layer.backward_update(cx.exec, grad, emb_lr);
            }
            // The delayed local update of this rank's cached rows.
            if let Some((ps, _)) = &mut self.lookahead {
                ps.apply_local_updates(global, me, self.n, d_tables, emb_lr);
            }
        });
    }

    /// The DDP tail: the summed-gradient reduction completes (issuing
    /// whatever the schedule left unissued), and each layer applies the
    /// averaged step straight from its slice of the reduced buffer.
    fn update_mlps(&mut self, cx: &Ctx, bottom: &mut Mlp, top: &mut Mlp) {
        let l = &mut *self.links;
        let reducer = self.reducer.take().expect("the top backward built it");
        let flat = reducer.finalize(&l.comm, l.engine.as_ref(), cx.rec);
        // The reduced flat gradient is bitwise rank-identical — feeding it
        // into the policy keeps every rank's next-step decisions identical.
        if let Some(policy) = l.wire_policy.as_mut() {
            policy.observe_flat(&flat, l.bucket_cap_bytes);
        }
        let r = l.comm.nranks();
        time_opt(cx.rec, Self::KINDS.mlp, || {
            for (mlp, offs) in [bottom, top].into_iter().zip(&l.grad_offs) {
                apply_reduced_grads(mlp, offs, cx.exec, &flat, cx.lr, r);
            }
        });
        l.flat_grads = flat;
    }
}

/// Convenience driver: trains `nranks` thread-ranks for the given global
/// batches and returns each rank's loss trajectory (rank-major).
pub fn run_training(
    cfg: &DlrmConfig,
    nranks: usize,
    opts: &DistOptions,
    batches: &[MiniBatch],
    lr: f32,
) -> Vec<Vec<f64>> {
    run_training_with_chaos(cfg, nranks, opts, batches, lr, None)
}

/// [`run_training`] over a chaotic transport: with a plan, losses must
/// still be bitwise identical — the chaos test suite checks precisely that.
pub fn run_training_with_chaos(
    cfg: &DlrmConfig,
    nranks: usize,
    opts: &DistOptions,
    batches: &[MiniBatch],
    lr: f32,
    plan: Option<Arc<FaultPlan>>,
) -> Vec<Vec<f64>> {
    run_ranks(cfg, nranks, opts, plan, None, |model| match opts.prefetch {
        Prefetch::Off => batches.iter().map(|b| model.train_step(b, lr)).collect(),
        Prefetch::Lookahead { window } => {
            let mut win = LookaheadWindow::new(batches, window);
            let mut losses = Vec::with_capacity(batches.len());
            while !win.is_finished() {
                losses.push(model.train_step_lookahead(&win, lr));
                win.advance();
            }
            losses
        }
    })
}

/// The rank driver: runs `body` on each of `nranks` thread-ranks' [`DistDlrm`]
/// and returns the results in rank order. A rank gets a two-worker progress
/// engine exactly under [`ExchangeStrategy::CclAlltoall`]; `plan` and `wire`
/// reach the blocking world and every channel world.
pub fn run_ranks<T: Send>(
    cfg: &DlrmConfig,
    nranks: usize,
    opts: &DistOptions,
    plan: Option<Arc<FaultPlan>>,
    wire: Option<Arc<WireStats>>,
    body: impl Fn(&mut DistDlrm) -> T + Send + Sync,
) -> Vec<T> {
    let backend = Backend::CclLike { workers: 2 };
    let mut channels = (opts.strategy == ExchangeStrategy::CclAlltoall)
        .then(|| create_channel_worlds_with_opts(nranks, backend, plan.clone(), wire.clone()))
        .map(Vec::into_iter);
    let comms = CommWorld::create_with_opts(nranks, plan.clone(), wire);
    std::thread::scope(|s| {
        let ranks: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let (ch, plan, body) = (channels.as_mut().and_then(Iterator::next), &plan, &body);
                s.spawn(move || {
                    let engine =
                        ch.map(|c| ProgressEngine::new_with_chaos(backend, c, plan.clone()));
                    body(&mut DistDlrm::new(cfg, comm, engine, opts))
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::precision::PrecisionMode;
    use dlrm_data::IndexDistribution;
    use dlrm_tensor::init::seeded_rng;

    fn tiny_cfg() -> DlrmConfig {
        let mut cfg = DlrmConfig::small().scaled_down(32, 512);
        cfg.dense_features = 6;
        cfg.bottom_mlp = vec![8, 4];
        cfg.emb_dim = 4;
        cfg.num_tables = 4;
        cfg.table_rows = vec![32, 16, 8, 24];
        cfg.lookups_per_table = 2;
        cfg.top_mlp = vec![8, 1];
        cfg
    }

    fn global_batches(cfg: &DlrmConfig, gn: usize, count: usize) -> Vec<MiniBatch> {
        (0..count)
            .map(|i| {
                MiniBatch::random(
                    cfg,
                    gn,
                    IndexDistribution::Uniform,
                    &mut seeded_rng(1000 + i as u64, 5),
                )
            })
            .collect()
    }

    /// Single-process reference loss trajectory on the same batches.
    fn single_process_losses(
        cfg: &DlrmConfig,
        batches: &[MiniBatch],
        lr: f32,
        seed: u64,
    ) -> Vec<f64> {
        let mut model = DlrmModel::new(
            cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            seed,
        );
        batches.iter().map(|b| model.train_step(b, lr)).collect()
    }

    /// Average of per-rank local losses = global-batch loss.
    fn mean_losses(per_rank: &[Vec<f64>]) -> Vec<f64> {
        let steps = per_rank[0].len();
        (0..steps)
            .map(|s| per_rank.iter().map(|r| r[s]).sum::<f64>() / per_rank.len() as f64)
            .collect()
    }

    #[test]
    fn distributed_matches_single_process_every_strategy() {
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 12, 4);
        let want = single_process_losses(&cfg, &batches, 0.1, 77);

        for strategy in ExchangeStrategy::ALL {
            for nranks in [2usize, 4] {
                let opts = DistOptions {
                    strategy,
                    seed: 77,
                    threads_per_rank: 1,
                    ..Default::default()
                };
                let got = run_training(&cfg, nranks, &opts, &batches, 0.1);
                let mean = mean_losses(&got);
                for (step, (g, w)) in mean.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() < 5e-3,
                        "{strategy} R={nranks} step {step}: dist {g} vs single {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_distributed_equals_single_process() {
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 8, 3);
        let want = single_process_losses(&cfg, &batches, 0.2, 3);
        let got = run_training(
            &cfg,
            1,
            &DistOptions {
                seed: 3,
                threads_per_rank: 1,
                ..Default::default()
            },
            &batches,
            0.2,
        );
        for (g, w) in got[0].iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn losses_decrease_under_distributed_training() {
        let cfg = tiny_cfg();
        // Repeat the same batch so the loss must fall.
        let batch = &global_batches(&cfg, 16, 1)[0];
        let batches: Vec<MiniBatch> = (0..25).map(|_| batch.clone()).collect();
        let opts = DistOptions {
            threads_per_rank: 1,
            ..Default::default()
        };
        let got = run_training(&cfg, 4, &opts, &batches, 0.3);
        let mean = mean_losses(&got);
        assert!(
            mean.last().unwrap() < &(mean[0] * 0.8),
            "loss {0} -> {1}",
            mean[0],
            mean.last().unwrap()
        );
    }

    #[test]
    fn bf16_wire_tracks_fp32_losses() {
        // A fully BF16 wire rounds every exchanged element once per hop,
        // so the loss trajectory drifts from the FP32 wire but must stay
        // within the RNE bound's ballpark — and still train.
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 12, 4);
        let opts_fp = DistOptions {
            seed: 77,
            threads_per_rank: 1,
            ..Default::default()
        };
        let opts_bf = DistOptions {
            wire: WireConfig::all(WirePrecision::Bf16),
            ..opts_fp.clone()
        };
        let fp = mean_losses(&run_training(&cfg, 4, &opts_fp, &batches, 0.1));
        let bf = mean_losses(&run_training(&cfg, 4, &opts_bf, &batches, 0.1));
        for (step, (b, f)) in bf.iter().zip(&fp).enumerate() {
            assert!(
                (b - f).abs() < 2e-2,
                "step {step}: bf16 {b} vs fp32 {f} diverged"
            );
        }
    }

    #[test]
    fn int8_wire_tracks_fp32_losses() {
        // A fully INT8 wire (per-table scaled alltoalls + scaled allreduce)
        // quantizes far coarser than BF16, but the per-block scales keep
        // the relative error bounded — the trajectory must stay close and
        // keep training.
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 12, 4);
        let opts_fp = DistOptions {
            seed: 77,
            threads_per_rank: 1,
            ..Default::default()
        };
        let opts_i8 = DistOptions {
            wire: WireConfig::all(WirePrecision::Int8),
            ..opts_fp.clone()
        };
        let fp = mean_losses(&run_training(&cfg, 4, &opts_fp, &batches, 0.1));
        let i8 = mean_losses(&run_training(&cfg, 4, &opts_i8, &batches, 0.1));
        for (step, (q, f)) in i8.iter().zip(&fp).enumerate() {
            assert!(
                (q - f).abs() < 2e-2,
                "step {step}: int8 {q} vs fp32 {f} diverged"
            );
        }
    }

    #[test]
    fn adaptive_wire_reaches_int8_and_tracks_fp32_losses() {
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 12, 6);
        let opts_fp = DistOptions {
            seed: 77,
            threads_per_rank: 1,
            ..Default::default()
        };
        let fp = mean_losses(&run_training(&cfg, 4, &opts_fp, &batches, 0.1));
        let mut opts_ad = opts_fp.clone();
        opts_ad.wire.allreduce = AllreduceWire::Adaptive { error_bound: 0.05 };
        let out = CommWorld::run(4, |comm| {
            let mut model = DistDlrm::new(&cfg, comm, None, &opts_ad);
            let losses: Vec<f64> = batches.iter().map(|b| model.train_step(b, 0.1)).collect();
            (losses, model.wire_policy_stats().expect("adaptive policy"))
        });
        let per_rank: Vec<Vec<f64>> = out.iter().map(|(l, _)| l.clone()).collect();
        let ad = mean_losses(&per_rank);
        for (step, (a, f)) in ad.iter().zip(&fp).enumerate() {
            assert!(
                (a - f).abs() < 2e-2,
                "step {step}: adaptive {a} vs fp32 {f} diverged"
            );
        }
        // Every rank decided identically (the determinism contract) ...
        let stats = out[0].1;
        for (rank, (_, st)) in out.iter().enumerate() {
            assert_eq!(*st, stats, "rank {rank} policy decisions diverged");
        }
        // ... step 1 was cold (FP32), and the observed tiny gradients then
        // earn INT8 for the remaining steps.
        assert!(stats.fp32 >= 1, "first step must be cold: {stats:?}");
        assert!(stats.int8 > 0, "policy never reached INT8: {stats:?}");
        assert_eq!(stats.total(), batches.len() as u64);
    }

    #[test]
    fn prefetch_losses_match_naive_bitwise() {
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 8, 4);
        let base = DistOptions {
            seed: 21,
            threads_per_rank: 1,
            ..Default::default()
        };
        let naive = run_training(&cfg, 2, &base, &batches, 0.1);
        for window in [1usize, 3] {
            let opts = DistOptions {
                prefetch: Prefetch::Lookahead { window },
                ..base.clone()
            };
            let got = run_training(&cfg, 2, &opts, &batches, 0.1);
            for (rank, (g, w)) in got.iter().zip(&naive).enumerate() {
                for (step, (a, b)) in g.iter().zip(w).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "W={window} rank {rank} step {step}: {a} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefetch_rejects_unsound_configurations() {
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 8, 1);
        // Quantized backward wire: dest and owner would disagree.
        let opts = DistOptions {
            prefetch: Prefetch::Lookahead { window: 2 },
            wire: WireConfig::all(WirePrecision::Bf16),
            threads_per_rank: 1,
            ..Default::default()
        };
        let result = std::panic::catch_unwind(|| {
            let _ = run_training(&cfg, 2, &opts, &batches, 0.1);
        });
        assert!(result.is_err(), "unsound prefetch config must be rejected");
    }

    /// A single-rank trainer: the front-end guards fire before any
    /// communication, so one thread suffices.
    fn lone_rank(cfg: &DlrmConfig, prefetch: Prefetch) -> DistDlrm {
        let comm = CommWorld::create(1).pop().expect("one rank");
        let opts = DistOptions {
            prefetch,
            threads_per_rank: 1,
            ..Default::default()
        };
        DistDlrm::new(cfg, comm, None, &opts)
    }

    #[test]
    #[should_panic(expected = "prefetch not enabled")]
    fn train_step_lookahead_needs_a_prefetch_model() {
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 8, 2);
        let win = LookaheadWindow::new(&batches, 2);
        lone_rank(&cfg, Prefetch::Off).train_step_lookahead(&win, 0.1);
    }

    #[test]
    #[should_panic(expected = "window cursor out of sync")]
    fn train_step_lookahead_rejects_a_window_advanced_twice() {
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 8, 4);
        let mut model = lone_rank(&cfg, Prefetch::Lookahead { window: 2 });
        let mut win = LookaheadWindow::new(&batches, 2);
        model.train_step_lookahead(&win, 0.1);
        win.advance();
        win.advance();
        model.train_step_lookahead(&win, 0.1);
    }

    #[test]
    fn rank_count_must_not_exceed_tables() {
        let cfg = tiny_cfg(); // 4 tables
        let result = std::panic::catch_unwind(|| {
            let _ = run_training(
                &cfg,
                5,
                &DistOptions::default(),
                &global_batches(&cfg, 10, 1),
                0.1,
            );
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_per_rank_is_sane() {
        let t = DistOptions::default().threads_per_rank;
        assert!((1..=8).contains(&t), "threads_per_rank {t}");
    }

    #[test]
    fn small_bucket_cap_still_matches_single_process() {
        // Force many tiny buckets: the trajectory must stay close to the
        // single-process reference (ring order differs per bucket, so this
        // is tolerance, not bitwise — bitwise across *schedules* is the
        // schedule_equivalence suite's job).
        let cfg = tiny_cfg();
        let batches = global_batches(&cfg, 8, 3);
        let want = single_process_losses(&cfg, &batches, 0.1, 9);
        let opts = DistOptions {
            seed: 9,
            threads_per_rank: 1,
            bucket_cap_bytes: 64, // 16 f32s per bucket
            ..Default::default()
        };
        let got = run_training(&cfg, 2, &opts, &batches, 0.1);
        let mean = mean_losses(&got);
        for (g, w) in mean.iter().zip(&want) {
            assert!((g - w).abs() < 5e-3, "{g} vs {w}");
        }
    }
}
