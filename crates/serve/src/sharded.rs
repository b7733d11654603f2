//! The forward-only model, laid out the way the paper trains it: embedding
//! tables model-parallel across `S` shards, the MLP stack replicated on
//! every shard (DESIGN.md §15).
//!
//! Tables are partitioned by the same [`OwnershipMap`] the trainer uses;
//! each shard holds its tables' rows and a `LaneHalf` — bottom MLP,
//! interaction, top MLP — on its own team
//! ([`dlrm_kernels::threadpool::ThreadPool`]: whichever thread runs the
//! lane is member 0, `workers_per_shard − 1` workers are spawned beside it,
//! optionally core-pinned via [`CorePlacement`]). The forward is two
//! functions, each written once: `gather` pools one shard's bags with
//! the serial register-resident `forward_serial`, and
//! `LaneHalf::dense_forward` runs bottom → interaction → top over the
//! pooled rows. [`ShardedServeModel::forward`] calls them on the caller's
//! thread; the engine's lanes and table servers ([`crate::engine`]) call
//! the same two from theirs.
//!
//! [`ServeModel`] is the one-shard layout around a caller-supplied
//! [`Execution`]: shard 0 owns every table, so nothing is ever remote.
//!
//! Correctness contract: for any shard count, micro-batch composition and
//! team width, the logits are **bitwise identical** to
//! `DlrmModel::forward` on the same seed. Three properties make that hold:
//!
//! 1. each table's bag-sum runs serially through `forward_serial`, the
//!    training gather's kernel in the same per-bag order — sharding moves
//!    *which thread* gathers, never the accumulation order;
//! 2. every MLP replica and table is rebuilt from the model seed's
//!    per-component RNG streams, so every shard holds bitwise-equal weights;
//! 3. the blocked GEMM partitions a fixed tile grid, making its output
//!    invariant to the pool width, and is per-sample (per-column)
//!    independent, making each logit invariant to micro-batch grouping.

use crate::cache::CacheStats;
use crate::engine::CacheSizing;
use dlrm::interaction::Interaction;
use dlrm::layers::{Activation, Execution, Mlp};
use dlrm::model::DlrmModel;
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_kernels::embedding::{self, UpdateStrategy};
use dlrm_kernels::threadpool::ThreadPool;
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use dlrm_topology::{CorePlacement, OwnershipMap};
use std::sync::Arc;

/// How to carve the model across shards.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of shards (worker teams). 1 is the [`ServeModel`] layout.
    pub shards: usize,
    /// Size of each shard's GEMM team, the lane thread included: the lane
    /// is member 0 and `workers_per_shard − 1` threads are spawned beside
    /// it, so 1 runs the MLP stack inline on the lane.
    pub workers_per_shard: usize,
    /// Pin each team to its [`CorePlacement::contiguous`] cores: spawned
    /// workers to theirs, and — once the engine has spawned them — the lane
    /// (member 0) and the shard's table server to the shard's first core.
    /// Best-effort — pinning failures are non-fatal. The synchronous
    /// [`ShardedServeModel::forward`] runs on its caller's thread, whose
    /// affinity is never touched.
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

/// The dense side of one shard: the replicated MLP stack, the team it runs
/// on and the pooled rows it reads. Lives on the shard's lane thread.
pub(crate) struct LaneHalf {
    exec: Execution,
    /// The shard's first core under [`ShardSpec::pin_cores`]: the seat of
    /// the team's member 0, which the lane thread takes (and the shard's
    /// table server shares).
    pub(crate) core: Option<usize>,
    bottom: Mlp,
    interaction: Interaction,
    top: Mlp,
    /// Reused per-table gather outputs, indexed by **global** table id.
    pub(crate) gather_outs: Vec<Matrix>,
}

impl LaneHalf {
    /// The MLP replica every shard holds for `seed`, on `exec`'s team.
    fn new(cfg: &DlrmConfig, exec: Execution, core: Option<usize>, seed: u64) -> Self {
        let bottom = Mlp::new(
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
        let top = Mlp::new(
            cfg.interaction_output_dim(),
            &cfg.top_mlp,
            Activation::None,
            &mut seeded_rng(seed, DlrmModel::TOP_STREAM),
        );
        LaneHalf {
            exec,
            core,
            bottom,
            interaction: Interaction::new(cfg.emb_dim),
            top,
            gather_outs: (0..cfg.num_tables)
                .map(|_| Matrix::zeros(0, cfg.emb_dim))
                .collect(),
        }
    }

    /// The dense stack on this shard's team, over `gather_outs` as the
    /// gathers left them; returns per-sample logits.
    pub(crate) fn dense_forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        let z0 = self.bottom.forward(&self.exec, &batch.dense);
        let inter = self.interaction.forward(&self.exec, &z0, &self.gather_outs);
        let logits = self.top.forward(&self.exec, &inter);
        debug_assert_eq!(logits.rows(), 1);
        logits.as_slice().to_vec()
    }
}

/// The gather: pools the bags of one shard's `tables` on the calling
/// thread, each bag summed in registers. The shard's `i`-th table reads its
/// CSR bags from, and writes its `N × E` rows to, position `slots[i]` of
/// `indices` / `offsets` / `outs`: the table's global id when an assembled
/// batch is gathered in place, `i` itself for a job that carries only its
/// owner's tables.
pub(crate) fn gather(
    tables: &[Matrix],
    slots: impl IntoIterator<Item = usize>,
    indices: &[Vec<u32>],
    offsets: &[Vec<usize>],
    outs: &mut [Matrix],
) {
    for (weight, slot) in tables.iter().zip(slots) {
        let out = &mut outs[slot];
        out.resize_rows(offsets[slot].len() - 1);
        embedding::forward_serial(weight, &indices[slot], &offsets[slot], out);
    }
}

/// A table-sharded forward-only model: per shard, a `LaneHalf`
/// (replicated MLPs on the shard's team) and the rows of the tables it
/// owns.
///
/// [`forward`](Self::forward) runs the whole thing synchronously on the
/// calling thread; [`crate::ShardedEngine::start`] gives every shard a lane
/// thread and, where another shard must reach its tables, a table server.
pub struct ShardedServeModel {
    pub(crate) cfg: DlrmConfig,
    pub(crate) ownership: OwnershipMap,
    pub(crate) lanes: Vec<LaneHalf>,
    /// Per shard, its tables' rows in [`OwnershipMap::tables_of`] (local)
    /// order — read-only, shared between the shard's lane and its server.
    pub(crate) tables: Vec<Arc<Vec<Matrix>>>,
    pinned_workers: Vec<usize>,
}

impl ShardedServeModel {
    /// Builds a sharded model for `cfg`, seeded exactly like
    /// [`DlrmModel::new`]: the same `seed` gives every shard's MLP replica
    /// and every owned table bitwise the weights the trainable model holds.
    pub fn new(cfg: &DlrmConfig, spec: &ShardSpec, seed: u64) -> Self {
        assert!(spec.shards >= 1, "need at least one shard");
        assert!(spec.workers_per_shard >= 1, "each team needs a worker");
        let placement = spec.pin_cores.then(|| {
            CorePlacement::contiguous(
                ThreadPool::default_parallelism(),
                spec.shards,
                spec.workers_per_shard,
            )
        });
        let teams = (0..spec.shards)
            .map(|s| {
                let cores = placement.as_ref().map(|p| p.shard_cores(s));
                let pool = match cores {
                    Some(cores) => ThreadPool::with_affinity(cores),
                    None => ThreadPool::new(spec.workers_per_shard),
                };
                (Execution::Optimized(Arc::new(pool)), cores.map(|c| c[0]))
            })
            .collect();
        Self::on_teams(cfg, teams, seed)
    }

    /// One shard per team: its execution and, if pinned, its first core.
    fn on_teams(cfg: &DlrmConfig, teams: Vec<(Execution, Option<usize>)>, seed: u64) -> Self {
        let ownership = OwnershipMap::round_robin(cfg.num_tables, teams.len());
        let tables = (0..teams.len())
            .map(|s| {
                let owned = ownership.tables_of(s).iter();
                let table = |&t| DlrmModel::build_table(cfg, t, UpdateStrategy::RaceFree, seed);
                Arc::new(owned.map(|t| table(t).weight).collect())
            })
            .collect();
        let pinned_workers = teams
            .iter()
            .map(|(exec, _)| exec.pool().map_or(0, ThreadPool::pinned_workers))
            .collect();
        let lanes = teams
            .into_iter()
            .map(|(exec, core)| LaneHalf::new(cfg, exec, core, seed))
            .collect();
        ShardedServeModel {
            cfg: cfg.clone(),
            ownership,
            lanes,
            tables,
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

    /// Synchronous sharded forward: every shard's tables are gathered into
    /// `gather_shard`'s lane half, which then runs the MLP stack. Returns
    /// per-sample logits, the same bits for any `gather_shard`.
    pub fn forward(&mut self, gather_shard: usize, batch: &MiniBatch) -> Vec<f32> {
        let lane = &mut self.lanes[gather_shard];
        for (q, tables) in self.tables.iter().enumerate() {
            let owned = self.ownership.tables_of(q).iter().copied();
            let outs = &mut lane.gather_outs;
            gather(tables, owned, &batch.indices, &batch.offsets, outs);
        }
        lane.dense_forward(batch)
    }
}

/// A forward-only DLRM on one team: the one-shard [`ShardedServeModel`],
/// every table local to its single lane.
pub struct ServeModel(ShardedServeModel);

impl ServeModel {
    /// Builds a forward-only model for `cfg` on `exec` (any tier), seeded
    /// exactly like [`DlrmModel::new`] — the same `seed` reconstructs
    /// bitwise-identical weights. `_cache` has no effect (see
    /// [`CacheSizing`]).
    pub fn new(cfg: &DlrmConfig, exec: Execution, _cache: CacheSizing, seed: u64) -> Self {
        ServeModel(ShardedServeModel::on_teams(cfg, vec![(exec, None)], seed))
    }

    /// The model configuration.
    pub fn cfg(&self) -> &DlrmConfig {
        self.0.cfg()
    }

    /// Per-table cache statistics: `None` for every table, since none is
    /// fronted by a cache.
    pub fn cache_stats(&self) -> Vec<Option<CacheStats>> {
        self.0.cache_stats()
    }

    /// Nothing to reset (see [`Self::cache_stats`]).
    pub fn reset_cache_stats(&mut self) {}

    /// Forward-only pass; returns per-sample logits.
    pub fn forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        self.0.forward(0, batch)
    }
}

impl From<ServeModel> for ShardedServeModel {
    fn from(model: ServeModel) -> Self {
        model.0
    }
}
