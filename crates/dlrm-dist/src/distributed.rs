//! The hybrid-parallel distributed DLRM trainer.
//!
//! # One step
//!
//! [`DistDlrm`] has one train step (the private `step`, which reads top to
//! bottom as its stages). [`DistDlrm::train_step`] and
//! [`DistDlrm::train_step_lookahead`] are thin wrappers that select its
//! embedding *front end*: the pooled forward exchange, or the lookahead
//! pipeline of [`crate::prefetch`] — by construction just another source of
//! the same pooled slices. Everything after the front end is written once.
//!
//! # The overlapped schedule
//!
//! [`Schedule::Overlapped`] restructures the train step around split-phase
//! collectives so communication runs *behind* compute, the optimization at
//! the heart of the paper's Figures 6/10/11:
//!
//! * the embedding-output alltoall is begun right after the table lookups
//!   and finished only when the interaction needs the slices — the bottom
//!   MLP forward runs while it is in flight;
//! * the MLP-gradient allreduce is bucketed ([`crate::bucketing`]) and each
//!   bucket is issued the moment backward has produced its layers, so the
//!   reduction of the top MLP's gradients overlaps the interaction/bottom
//!   backward and the embedding update;
//! * the embedding-gradient alltoall is begun before the bottom backward
//!   and finished just before the sparse update needs it.
//!
//! [`Schedule::Synchronous`] runs the *same* packing, the *same* bucket
//! plan and the *same* per-bucket ring reductions, just back to back —
//! which is why the two schedules produce bitwise-identical losses (the
//! `schedule_equivalence` suite proves it, including under chaos plans).
//! Overlap moves time, never bits.
//!
//! Only [`ExchangeStrategy::CclAlltoall`] keeps a [`ProgressEngine`], so
//! only there is anything in flight. Every other strategy, the default
//! included, drives its collectives on the rank thread (alltoalls at
//! `finish`, buckets at `finalize`): progress threads that share the rank's
//! core have no spare cycles to hide work in, they only compete for it.

use crate::bucketing::{BucketReducer, DEFAULT_BUCKET_CAP_BYTES};
use crate::ddp::{apply_reduced_grads, grad_offsets, write_layer_grads};
use crate::exchange::{self, ensure_mats, Direction, ExchangeStrategy};
use crate::prefetch::{Prefetch, PrefetchState};
use crate::wirepolicy::{AdaptivePolicy, PolicyStats};
use dlrm::embedding_layer::EmbeddingLayer;
use dlrm::interaction::Interaction;
use dlrm::layers::{Activation, Execution, Mlp};
use dlrm::model::DlrmModel;
use dlrm_comm::chaos::FaultPlan;
use dlrm_comm::instrument::{time_opt, OpKind, TimingRecorder};
use dlrm_comm::nonblocking::{create_channel_worlds_with_chaos, Backend, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::{CommWorld, Communicator};
use dlrm_data::{DlrmConfig, LookaheadWindow, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use dlrm_topology::OwnershipMap;
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
    comm: Communicator,
    engine: Option<ProgressEngine>,
    exec: Execution,
    /// Replicated bottom MLP.
    pub bottom: Mlp,
    /// Replicated top MLP.
    pub top: Mlp,
    /// `(global_table_index, layer)` for each owned table, updated with
    /// the fused race-free kernel.
    pub local_tables: Vec<(usize, EmbeddingLayer)>,
    /// Which rank owns which table — built once, shared by both exchanges.
    ownership: OwnershipMap,
    interaction: Interaction,
    strategy: ExchangeStrategy,
    schedule: Schedule,
    bucket_cap_bytes: usize,
    wire: WireConfig,
    /// Flat offset of each layer's gradients: `[bottom, top]`.
    grad_offs: Vec<Vec<usize>>,
    grad_total: usize,
    recorder: Option<Arc<TimingRecorder>>,
    // Iteration-persistent scratch (reused, never regrown after step 1).
    fwd_slices: Vec<Matrix>,
    bwd_grads: Vec<Matrix>,
    flat_grads: Vec<f32>,
    dlogits: Vec<f32>,
    /// Lookahead pipeline state (`Some` iff prefetch is enabled).
    prefetch: Option<PrefetchState>,
    /// Adaptive allreduce-wire policy (`Some` iff the allreduce wire is
    /// [`AllreduceWire::Adaptive`]).
    wire_policy: Option<AdaptivePolicy>,
}

impl DistDlrm {
    /// Builds this rank's share of the model. Weights are seeded per
    /// component so they agree bit-for-bit with [`DlrmModel::new`] under
    /// the same seed. `engine` is kept only under
    /// [`ExchangeStrategy::CclAlltoall`]; any other strategy drops it here,
    /// joining its progress threads, and reduces on the rank thread.
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
        let bottom = Mlp::new(
            cfg.dense_features,
            &cfg.bottom_mlp,
            Activation::Relu,
            &mut seeded_rng(opts.seed, DlrmModel::BOTTOM_STREAM),
        )
        .without_input_grad(); // dense features are a leaf
        let top = Mlp::new(
            cfg.interaction_output_dim(),
            &cfg.top_mlp,
            Activation::None,
            &mut seeded_rng(opts.seed, DlrmModel::TOP_STREAM),
        );
        let ownership = OwnershipMap::round_robin(cfg.num_tables, comm.nranks());
        let local_tables: Vec<(usize, EmbeddingLayer)> = ownership
            .tables_of(comm.rank())
            .iter()
            .map(|&t| {
                let table = DlrmModel::build_table(cfg, t, UpdateStrategy::RaceFree, opts.seed);
                (t, table)
            })
            .collect();
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
            comm,
            engine: engine.filter(|_| opts.strategy == ExchangeStrategy::CclAlltoall),
            exec: Execution::optimized(opts.threads_per_rank),
            bottom,
            top,
            local_tables,
            ownership,
            interaction: Interaction::new(cfg.emb_dim),
            strategy: opts.strategy,
            schedule: opts.schedule,
            bucket_cap_bytes: opts.bucket_cap_bytes,
            wire: opts.wire,
            grad_offs,
            grad_total,
            recorder: None,
            fwd_slices: Vec::new(),
            bwd_grads: Vec::new(),
            flat_grads: Vec::new(),
            dlogits: Vec::new(),
            prefetch,
            wire_policy,
        }
    }

    /// Builds one step's bucket reducer: fixed wire straight from the
    /// config, or the adaptive policy's fresh per-bucket decisions. Takes
    /// fields (not `&mut self`) so the train steps can call it while the
    /// engine/recorder borrows are live.
    fn build_reducer(
        flat_grads: &mut Vec<f32>,
        grad_total: usize,
        cap_bytes: usize,
        allreduce: AllreduceWire,
        policy: &mut Option<AdaptivePolicy>,
    ) -> BucketReducer {
        let reducer = BucketReducer::new(std::mem::take(flat_grads), grad_total, cap_bytes);
        match allreduce {
            AllreduceWire::Fixed(p) => reducer.with_wire(p),
            AllreduceWire::Adaptive { .. } => {
                let policy = policy
                    .as_mut()
                    .expect("adaptive allreduce wire implies a policy");
                let wires = policy.decide(reducer.num_buckets()).to_vec();
                reducer.with_bucket_wires(wires)
            }
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.comm.nranks()
    }

    /// Decision counts of the adaptive allreduce-wire policy (`None` under
    /// a fixed wire) — how many buckets shipped FP32/BF16/INT8 so far.
    pub fn wire_policy_stats(&self) -> Option<PolicyStats> {
        self.wire_policy.as_ref().map(|p| p.stats())
    }

    /// Barrier over the trainer's communicator (bench/test sync points).
    pub fn comm_barrier(&self) {
        self.comm.barrier();
    }

    /// Attaches (or detaches) a per-rank timing recorder. Compute,
    /// Alltoall-Wait and Allreduce-Wait are charged per [`OpKind`].
    pub fn set_recorder(&mut self, rec: Option<Arc<TimingRecorder>>) {
        self.recorder = rec;
    }

    /// Bytes currently held by the iteration-persistent scratch buffers —
    /// the allocation-growth test asserts this stabilizes after step 1.
    pub fn scratch_bytes(&self) -> usize {
        let mats: usize = self
            .fwd_slices
            .iter()
            .chain(&self.bwd_grads)
            .map(|m| std::mem::size_of_val(m.as_slice()))
            .sum();
        mats + (self.flat_grads.capacity() + self.dlogits.capacity()) * std::mem::size_of::<f32>()
            + self.prefetch.as_ref().map_or(0, |p| p.scratch_bytes())
            + self.wire_policy.as_ref().map_or(0, |p| p.scratch_bytes())
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
        self.prefetch = Some(ps);
        loss
    }

    /// The one train step. Stages, top to bottom: embedding front end +
    /// bottom MLP forward → interaction + top MLP + loss → top backward →
    /// interaction backward → gradient exchange around the bottom backward
    /// → embedding update → bucketed allreduce + averaged MLP update.
    ///
    /// `lookahead` selects the embedding front end, the only stage with two
    /// forms. Pooled (`None`): local gather → begin exchange → bottom
    /// forward → finish. Lookahead: observe → land the early fetch → late
    /// fetch → record touches → pool locally → bottom forward; it also
    /// issues the next step's early fetch ahead of the backward alltoall
    /// and replays this rank's slice of the sparse update onto its cached
    /// rows. On every rank the exchange channel therefore sees, in FIFO
    /// order, late(j), early(j+1), backward(j).
    fn step(
        &mut self,
        global: &MiniBatch,
        mut lookahead: Option<(&mut PrefetchState, &LookaheadWindow<'_>)>,
        lr: f32,
    ) -> f64 {
        let r = self.nranks();
        let gn = global.batch_size();
        assert_eq!(gn % r, 0, "global minibatch must divide by ranks");
        let n = gn / r;
        let me = self.rank();
        let exec = self.exec.clone();
        let e = self.cfg.emb_dim;
        let overlapped = self.schedule == Schedule::Overlapped;
        let rec_arc = self.recorder.clone();
        let rec = rec_arc.as_deref();
        let engine = self.engine.as_ref();

        // --- forward ------------------------------------------------------
        let local = global.slice(me * n, (me + 1) * n);

        // Embedding front end: leaves this rank's `n×E` slice of every
        // table in `fwd_slices` and runs the bottom MLP beside it.
        let z0 = match &mut lookahead {
            None => {
                // Model-parallel embedding forward over the full global batch.
                let local_outs: Vec<Matrix> = time_opt(rec, OpKind::Compute, || {
                    self.local_tables
                        .iter_mut()
                        .map(|(t, layer)| {
                            layer.forward(&exec, &global.indices[*t], &global.offsets[*t])
                        })
                        .collect()
                });
                // Model-parallel -> data-parallel switch, split-phase: in
                // flight (or packed) across the bottom MLP forward.
                let mut pending = Some(exchange::begin(
                    Direction::Forward,
                    self.strategy,
                    &self.comm,
                    engine,
                    &self.ownership,
                    &local_outs,
                    n,
                    e,
                    self.wire.forward_alltoall,
                    rec,
                ));
                if !overlapped {
                    let p = pending.take().expect("begun above");
                    exchange::finish(p, &self.comm, &self.ownership, &mut self.fwd_slices, rec);
                }
                let z0 = time_opt(rec, OpKind::Compute, || {
                    self.bottom.forward(&exec, &local.dense)
                });
                if let Some(p) = pending {
                    exchange::finish(p, &self.comm, &self.ownership, &mut self.fwd_slices, rec);
                }
                z0
            }
            Some((ps, win)) => {
                // Fold newly visible batches into the need horizon, land
                // the early fetch issued last step, fill the gaps with a
                // late fetch, then record this batch's touches.
                let j = ps.step();
                ps.observe_visible(win, n);
                ps.land_early_fetch(r, e, rec);
                ps.late_fetch(
                    j,
                    global,
                    me,
                    r,
                    n,
                    &self.local_tables,
                    &self.comm,
                    self.wire.forward_alltoall,
                    rec,
                );
                ps.record_touches(j, global, n);
                // Local fan-out replaces the pooled forward alltoall: every
                // table's slice is pooled from cached rows in the naive
                // accumulate order.
                ensure_mats(&mut self.fwd_slices, self.cfg.num_tables, n, e);
                time_opt(rec, OpKind::Compute, || {
                    ps.pool_forward(global, me, n, &mut self.fwd_slices)
                });
                time_opt(rec, OpKind::Compute, || {
                    self.bottom.forward(&exec, &local.dense)
                })
            }
        };

        let logits_m = time_opt(rec, OpKind::Compute, || {
            let inter = self.interaction.forward(&exec, &z0, &self.fwd_slices);
            self.top.forward(&exec, &inter)
        });
        let logits = logits_m.as_slice();
        let loss = bce_with_logits_loss(logits, &local.labels);

        // --- backward -----------------------------------------------------
        self.dlogits.resize(n, 0.0);
        bce_with_logits_backward(logits, &local.labels, &mut self.dlogits);
        let dy_top = Matrix::from_slice(1, n, &self.dlogits);

        // The bucketed allreduce: overlapped issues each bucket as backward
        // produces its layers; synchronous writes/issues everything after
        // the bottom backward. Identical plan either way.
        let mut reducer = Self::build_reducer(
            &mut self.flat_grads,
            self.grad_total,
            self.bucket_cap_bytes,
            self.wire.allreduce,
            &mut self.wire_policy,
        );

        // Early fetch of batch j+1's rows, issued on the exchange channel
        // before the backward alltoall so it flies behind the backward
        // compute below.
        if let Some((ps, win)) = &mut lookahead {
            ps.issue_early_fetch(
                ps.step(),
                win,
                me,
                r,
                n,
                &self.local_tables,
                &self.comm,
                engine,
                self.wire.forward_alltoall,
                rec,
            );
        }

        let d_inter = time_opt(rec, OpKind::Compute, || {
            let hook = overlapped.then_some((&mut reducer, engine));
            backward_mlp(&mut self.top, &exec, dy_top, &self.grad_offs[1], hook)
        });

        let (d_bottom, d_tables) =
            time_opt(rec, OpKind::Compute, || self.interaction.backward(&d_inter));

        // Data-parallel -> model-parallel switch for embedding gradients,
        // in flight (or packed) across the bottom MLP backward.
        let mut pending = Some(exchange::begin(
            Direction::Backward,
            self.strategy,
            &self.comm,
            engine,
            &self.ownership,
            &d_tables,
            n,
            e,
            self.wire.backward_alltoall,
            rec,
        ));
        if !overlapped {
            let p = pending.take().expect("begun above");
            exchange::finish(p, &self.comm, &self.ownership, &mut self.bwd_grads, rec);
        }

        time_opt(rec, OpKind::Compute, || {
            let hook = overlapped.then_some((&mut reducer, engine));
            backward_mlp(&mut self.bottom, &exec, d_bottom, &self.grad_offs[0], hook);
        });

        if let Some(p) = pending {
            exchange::finish(p, &self.comm, &self.ownership, &mut self.bwd_grads, rec);
        }

        // Local gradients are means over n = GN/R samples; dividing the
        // learning rate by R makes the sparse update a global-batch mean.
        let emb_lr = lr / r as f32;
        time_opt(rec, OpKind::Compute, || {
            for ((t, layer), grad) in self.local_tables.iter_mut().zip(&self.bwd_grads) {
                if lookahead.is_some() {
                    // The owner's forward never ran here, so record the
                    // batch for the canonical update first.
                    layer.set_saved_batch(&global.indices[*t], &global.offsets[*t]);
                }
                layer.backward_update(&exec, grad, emb_lr);
            }
            // The delayed local update of this rank's cached rows.
            if let Some((ps, _)) = &mut lookahead {
                ps.apply_local_updates(global, me, n, &d_tables, emb_lr);
            }
        });

        self.reduce_and_step(reducer, lr, rec);
        if let Some((ps, _)) = lookahead {
            ps.finish_step(ps.step());
        }
        loss
    }

    /// The DDP tail of a step. Synchronous: every layer's gradients go
    /// into the flat buffer now (same offsets, same plan as the overlapped
    /// hooks). Then the summed-gradient reduction completes and each layer
    /// applies the averaged step straight from its slice of the reduced
    /// buffer.
    fn reduce_and_step(
        &mut self,
        mut reducer: BucketReducer,
        lr: f32,
        rec: Option<&TimingRecorder>,
    ) {
        let engine = self.engine.as_ref();
        if self.schedule == Schedule::Synchronous {
            time_opt(rec, OpKind::AllreduceFramework, || {
                for (mlp, offs) in [&self.bottom, &self.top].into_iter().zip(&self.grad_offs) {
                    for (layer, &off) in mlp.layers.iter().zip(offs) {
                        write_layer_grads(&mut reducer, off, layer);
                    }
                }
            });
            reducer.on_produced(0, engine, rec);
        }
        let flat = reducer.finalize(&self.comm, engine, rec);
        // The reduced flat gradient is bitwise rank-identical — feeding it
        // into the policy keeps every rank's next-step decisions identical.
        if let Some(policy) = self.wire_policy.as_mut() {
            policy.observe_flat(&flat, self.bucket_cap_bytes);
        }
        let r = self.comm.nranks();
        time_opt(rec, OpKind::Compute, || {
            for (mlp, offs) in [&mut self.bottom, &mut self.top]
                .into_iter()
                .zip(&self.grad_offs)
            {
                apply_reduced_grads(mlp, offs, &self.exec, &flat, lr, r);
            }
        });
        self.flat_grads = flat;
    }
}

/// Backward through one replicated MLP whose layer `i` owns the flat
/// gradient span at `offs[i]`. With a `hook` (the overlapped schedule),
/// each layer's gradients go from its blocked storage straight into the
/// reducer's window the moment they are final, and every bucket they
/// complete is issued while earlier layers still compute.
fn backward_mlp(
    mlp: &mut Mlp,
    exec: &Execution,
    dy: Matrix,
    offs: &[usize],
    hook: Option<(&mut BucketReducer, Option<&ProgressEngine>)>,
) -> Matrix {
    match hook {
        Some((reducer, engine)) => mlp.backward_with(exec, dy, |i, layer| {
            write_layer_grads(reducer, offs[i], layer);
            reducer.on_produced(offs[i], engine, None);
        }),
        None => mlp.backward(exec, dy),
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

/// [`run_training`] over a chaotic transport: the same fault plan is
/// threaded through the blocking world *and* the progress-engine channel
/// worlds. With `plan = None` this is exactly `run_training`; with a plan,
/// losses must still be bitwise identical — the chaos test suite checks
/// precisely that.
///
/// A progress engine is created exactly when [`DistDlrm::new`] keeps one:
/// under [`ExchangeStrategy::CclAlltoall`].
pub fn run_training_with_chaos(
    cfg: &DlrmConfig,
    nranks: usize,
    opts: &DistOptions,
    batches: &[MiniBatch],
    lr: f32,
    plan: Option<Arc<FaultPlan>>,
) -> Vec<Vec<f64>> {
    let backend = Backend::CclLike { workers: 2 };
    let engines = if opts.strategy == ExchangeStrategy::CclAlltoall {
        Some(std::sync::Mutex::new(create_channel_worlds_with_chaos(
            nranks,
            backend,
            plan.clone(),
        )))
    } else {
        None
    };
    CommWorld::run_with_chaos(nranks, plan.clone(), |comm| {
        let engine = engines.as_ref().map(|m| {
            let comms = std::mem::take(&mut m.lock().unwrap()[comm.rank()]);
            ProgressEngine::new_with_chaos(backend, comms, plan.clone())
        });
        let mut rank_model = DistDlrm::new(cfg, comm, engine, opts);
        match opts.prefetch {
            Prefetch::Off => batches
                .iter()
                .map(|b| rank_model.train_step(b, lr))
                .collect(),
            Prefetch::Lookahead { window } => {
                let mut win = LookaheadWindow::new(batches, window);
                let mut losses = Vec::with_capacity(batches.len());
                while !win.is_finished() {
                    losses.push(rank_model.train_step_lookahead(&win, lr));
                    win.advance();
                }
                losses
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::precision::PrecisionMode;
    use dlrm_data::IndexDistribution;

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
