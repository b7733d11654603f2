//! The embedding exchange of Section IV-B, as one split-phase
//! (begin/finish) alltoall parameterised by direction.
//!
//! After the model-parallel embedding forward, rank `q` holds, for each of
//! its tables, the bag outputs of the *whole* global minibatch (`GN×E`).
//! The interaction needs, on every rank `r`, the rows `r·n..(r+1)·n` of
//! *every* table's output ([`Direction::Forward`]). The backward pass needs
//! the reverse mapping for the gradients ([`Direction::Backward`]).
//!
//! Both strategies move exactly the same Eq. 2 volume in one alltoall; they
//! differ in which backend drives it, and must produce identical tensors.
//! The paper's two rooted strategies (one scatter per table, one per owner)
//! are timed for Figures 9/12 by `dlrm_clustersim::Strategy`, not run here.
//!
//! # Split-phase structure
//!
//! Every exchange is a begin (pack the send payloads, issue the alltoall
//! as a [`Pending`]) followed by a finish (complete it and assemble the
//! output tensors); the trainer's `Links` holds both halves. The
//! overlapped train step runs the bottom MLP between them; the synchronous
//! schedule completes the alltoall at the begin. Both orders perform the
//! *identical* packing, collective and assembly, which is why the two
//! schedules are bitwise-equal — begin/finish only moves *when* the
//! transfer happens, never *what* is transferred. With a progress engine
//! ([`ExchangeStrategy::CclAlltoall`]) the alltoall is in flight between
//! the halves; without one it runs on the rank thread at the finish.
//! Either way the exposed communication time is what the finish measures.
//!
//! The two directions are the same exchange read in opposite senses, so
//! there is one `pack` and one `assemble`: what differs by direction
//! is which blocks a peer's payload concatenates and where an arrived
//! block lands. Who owns which table comes from the caller's
//! [`OwnershipMap`], built once per trainer.

use dlrm_comm::collectives::TAG_A2A;
use dlrm_comm::nonblocking::{Pending, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::Communicator;
use dlrm_tensor::Matrix;
use dlrm_topology::OwnershipMap;

/// Strategy for the embedding exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeStrategy {
    /// One native pairwise alltoall (blocking).
    Alltoall,
    /// The alltoall submitted to a CCL-like multi-channel progress engine —
    /// the only strategy a trainer keeps its engine for, so its gradient
    /// buckets and early fetches fly on progress threads too (the paper's
    /// oneCCL workers on spare cores).
    CclAlltoall,
}

impl ExchangeStrategy {
    /// All strategies in the figures' order.
    pub const ALL: [ExchangeStrategy; 2] =
        [ExchangeStrategy::Alltoall, ExchangeStrategy::CclAlltoall];
}

impl std::fmt::Display for ExchangeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExchangeStrategy::Alltoall => "Alltoall",
            ExchangeStrategy::CclAlltoall => "CCL Alltoall",
        };
        f.write_str(s)
    }
}

/// Tables owned by rank `q` (round-robin), in ascending order.
///
/// Thin wrapper over [`dlrm_topology::OwnershipMap::round_robin`] — the
/// trainer and the sharded serving engine share that one mapping type, so
/// a future elastic reshard swaps the map in a single place.
pub fn tables_of(num_tables: usize, nranks: usize, q: usize) -> Vec<usize> {
    OwnershipMap::round_robin(num_tables, nranks)
        .tables_of(q)
        .to_vec()
}

/// Owner rank of table `t` (the allocation-free round-robin form of
/// [`dlrm_topology::OwnershipMap::owner_of`]).
#[inline]
pub fn owner_of(t: usize, nranks: usize) -> usize {
    OwnershipMap::round_robin_owner(t, nranks)
}

/// Grows/reshapes `out` to exactly `count` matrices of `rows×cols`,
/// reusing existing allocations when the shapes already match.
pub(crate) fn ensure_mats(out: &mut Vec<Matrix>, count: usize, rows: usize, cols: usize) {
    out.truncate(count);
    for m in out.iter_mut() {
        if m.shape() != (rows, cols) {
            *m = Matrix::zeros(rows, cols);
        }
    }
    while out.len() < count {
        out.push(Matrix::zeros(rows, cols));
    }
}

/// The engine channel dedicated to embedding exchanges (allreduce buckets
/// avoid it so an in-flight alltoall is never serialized behind them).
pub const EXCHANGE_CHANNEL: usize = 0;

/// Which way an exchange moves data between the model-parallel and the
/// data-parallel layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Owners' `GN×E` table outputs → every rank's `n×E` slice of every
    /// table (model-parallel → data-parallel).
    Forward,
    /// Every rank's `n×E` gradient of every table → owners' `GN×E`
    /// gradients, rank slices stacked in rank order (the reverse).
    Backward,
}

/// This rank's send payloads for an exchange of `mats`: forward,
/// `mats[j]` is the `GN×E` output of this rank's `j`-th table (ascending
/// global index); backward, `mats[t]` is this rank's `n×E` gradient for
/// global table `t`.
pub(crate) fn pack(
    dir: Direction,
    map: &OwnershipMap,
    me: usize,
    mats: &[Matrix],
    (local_n, emb_dim): (usize, usize),
) -> Vec<Vec<f32>> {
    let chunk = local_n * emb_dim;
    let (count, rows) = match dir {
        Direction::Forward => (map.tables_of(me).len(), local_n * map.num_shards()),
        Direction::Backward => (map.num_tables(), local_n),
    };
    assert_eq!(mats.len(), count, "{dir:?} exchange inputs");
    for m in mats {
        assert_eq!(m.shape(), (rows, emb_dim), "{dir:?} exchange input");
    }
    // Payload for peer p. Forward: concat over my tables of p's row block;
    // backward: concat over p's tables of my gradient block.
    let pack_for = |p: usize| -> Vec<f32> {
        match dir {
            Direction::Forward => {
                let mut buf = Vec::with_capacity(mats.len() * chunk);
                for out in mats {
                    buf.extend_from_slice(&out.as_slice()[p * chunk..(p + 1) * chunk]);
                }
                buf
            }
            Direction::Backward => {
                let theirs = map.tables_of(p);
                let mut buf = Vec::with_capacity(theirs.len() * chunk);
                for &t in theirs {
                    buf.extend_from_slice(mats[t].as_slice());
                }
                buf
            }
        }
    };
    (0..map.num_shards()).map(pack_for).collect()
}

/// Assembles what an exchange received into `out`, reused across
/// iterations: forward, the `n×E` slice of every global table for this
/// rank, ordered by global table index; backward, for each *local* table
/// (ascending global index), the `GN×E` gradient (rank slices stacked in
/// rank order).
pub(crate) fn assemble(
    dir: Direction,
    map: &OwnershipMap,
    me: usize,
    recv: &[Vec<f32>],
    (local_n, emb_dim): (usize, usize),
    out: &mut Vec<Matrix>,
) {
    let r = map.num_shards();
    let chunk = local_n * emb_dim;
    let mine = map.tables_of(me);
    match dir {
        Direction::Forward => ensure_mats(out, map.num_tables(), local_n, emb_dim),
        Direction::Backward => ensure_mats(out, mine.len(), local_n * r, emb_dim),
    }
    // Block j of the payload from peer q is, forward, my row block of q's
    // j-th table; backward, q's gradient block of my j-th table.
    assert_eq!(recv.len(), r, "one payload per rank");
    for (q, payload) in recv.iter().enumerate() {
        let theirs = map.tables_of(q);
        let blocks = match dir {
            Direction::Forward => theirs.len(),
            Direction::Backward => mine.len(),
        };
        assert_eq!(payload.len(), blocks * chunk, "payload size from rank {q}");
        for j in 0..blocks {
            let block = &payload[j * chunk..(j + 1) * chunk];
            match dir {
                Direction::Forward => out[theirs[j]].as_mut_slice().copy_from_slice(block),
                Direction::Backward => {
                    out[j].as_mut_slice()[q * chunk..(q + 1) * chunk].copy_from_slice(block)
                }
            }
        }
    }
}

/// Blocking exchange over the round-robin ownership of `num_tables`
/// tables, in flight on `engine` when given.
fn exchange(
    dir: Direction,
    comm: &Communicator,
    engine: Option<&ProgressEngine>,
    mats: &[Matrix],
    num_tables: usize,
    (local_n, emb_dim): (usize, usize),
    wire: WirePrecision,
) -> Vec<Matrix> {
    let (map, me) = (
        OwnershipMap::round_robin(num_tables, comm.nranks()),
        comm.rank(),
    );
    let send = pack(dir, &map, me, mats, (local_n, emb_dim));
    let op = Pending::alltoall(
        engine,
        EXCHANGE_CHANNEL,
        send,
        wire,
        TAG_A2A,
        local_n * emb_dim,
    );
    let mut out = Vec::new();
    assemble(
        dir,
        &map,
        me,
        &op.received(comm, None),
        (local_n, emb_dim),
        &mut out,
    );
    out
}

/// Blocking forward exchange. Returns the `n×E` slice of every global
/// table for this rank, ordered by global table index.
#[allow(clippy::too_many_arguments)] // frozen public signature
pub fn forward_exchange(
    strategy: ExchangeStrategy,
    comm: &Communicator,
    engine: Option<&ProgressEngine>,
    local_outputs: &[Matrix],
    num_tables: usize,
    local_n: usize,
    emb_dim: usize,
    wire: WirePrecision,
) -> Vec<Matrix> {
    let engine = engine.filter(|_| strategy == ExchangeStrategy::CclAlltoall);
    let shape = (local_n, emb_dim);
    exchange(
        Direction::Forward,
        comm,
        engine,
        local_outputs,
        num_tables,
        shape,
        wire,
    )
}

/// Blocking backward exchange. Returns, for each *local* table (ascending
/// global index), the assembled `GN×E` gradient (rank slices stacked in
/// rank order).
#[allow(clippy::too_many_arguments)] // frozen public signature
pub fn backward_exchange(
    strategy: ExchangeStrategy,
    comm: &Communicator,
    engine: Option<&ProgressEngine>,
    grads: &[Matrix],
    num_tables: usize,
    local_n: usize,
    emb_dim: usize,
    wire: WirePrecision,
) -> Vec<Matrix> {
    let engine = engine.filter(|_| strategy == ExchangeStrategy::CclAlltoall);
    let shape = (local_n, emb_dim);
    exchange(
        Direction::Backward,
        comm,
        engine,
        grads,
        num_tables,
        shape,
        wire,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_comm::nonblocking::{create_channel_worlds, Backend};
    use dlrm_comm::world::CommWorld;

    /// Synthetic table output: value encodes (table, global row, column).
    fn table_output(t: usize, gn: usize, e: usize) -> Matrix {
        Matrix::from_fn(gn, e, |row, col| (t * 1_000_000 + row * 100 + col) as f32)
    }

    fn check_forward(strategy: ExchangeStrategy, nranks: usize, num_tables: usize) {
        let (local_n, e) = (3usize, 2usize);
        let gn = local_n * nranks;
        let engines = if strategy == ExchangeStrategy::CclAlltoall {
            Some(create_channel_worlds(
                nranks,
                Backend::CclLike { workers: 2 },
            ))
        } else {
            None
        };
        let engines = std::sync::Mutex::new(engines);
        let out = CommWorld::run(nranks, |comm| {
            let me = comm.rank();
            let eng = {
                let mut guard = engines.lock().unwrap();
                guard.as_mut().map(|worlds| {
                    ProgressEngine::new(
                        Backend::CclLike { workers: 2 },
                        std::mem::take(&mut worlds[me]),
                    )
                })
            };
            let outputs: Vec<Matrix> = tables_of(num_tables, nranks, me)
                .into_iter()
                .map(|t| table_output(t, gn, e))
                .collect();
            forward_exchange(
                strategy,
                &comm,
                eng.as_ref(),
                &outputs,
                num_tables,
                local_n,
                e,
                WirePrecision::Fp32,
            )
        });
        for (rank, slices) in out.iter().enumerate() {
            assert_eq!(slices.len(), num_tables);
            for (t, m) in slices.iter().enumerate() {
                for row in 0..local_n {
                    for col in 0..e {
                        let want = (t * 1_000_000 + (rank * local_n + row) * 100 + col) as f32;
                        assert_eq!(
                            m[(row, col)],
                            want,
                            "{strategy}: rank {rank} table {t} ({row},{col})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forward_exchange_all_strategies_agree() {
        for strategy in ExchangeStrategy::ALL {
            check_forward(strategy, 4, 8); // Small-style: S divisible by R
            check_forward(strategy, 3, 8); // uneven tables per rank
            check_forward(strategy, 1, 5); // degenerate single rank
        }
    }

    #[test]
    fn backward_exchange_reassembles_rank_slices() {
        let (nranks, num_tables, local_n, e) = (3usize, 5usize, 2usize, 2usize);
        let strategy = ExchangeStrategy::Alltoall;
        let out = CommWorld::run(nranks, |comm| {
            let me = comm.rank();
            // grad for table t from rank r: constant r*10 + t.
            let grads: Vec<Matrix> = (0..num_tables)
                .map(|t| Matrix::from_fn(local_n, e, |_, _| (me * 10 + t) as f32))
                .collect();
            backward_exchange(
                strategy,
                &comm,
                None,
                &grads,
                num_tables,
                local_n,
                e,
                WirePrecision::Fp32,
            )
        });
        for (rank, full_grads) in out.iter().enumerate() {
            let mine = tables_of(num_tables, nranks, rank);
            assert_eq!(full_grads.len(), mine.len(), "{strategy}");
            for (j, &t) in mine.iter().enumerate() {
                let g = &full_grads[j];
                assert_eq!(g.rows(), local_n * nranks);
                for p in 0..nranks {
                    for row in 0..local_n {
                        assert_eq!(
                            g[(p * local_n + row, 0)],
                            (p * 10 + t) as f32,
                            "{strategy}: owner {rank} table {t} from rank {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forward_then_backward_round_trip() {
        // Scatter out, gather back: owners must recover exactly what the
        // ranks received.
        let (nranks, num_tables, local_n, e) = (4usize, 6usize, 2usize, 3usize);
        let gn = local_n * nranks;
        let out = CommWorld::run(nranks, |comm| {
            let me = comm.rank();
            let outputs: Vec<Matrix> = tables_of(num_tables, nranks, me)
                .into_iter()
                .map(|t| table_output(t, gn, e))
                .collect();
            let slices = forward_exchange(
                ExchangeStrategy::Alltoall,
                &comm,
                None,
                &outputs,
                num_tables,
                local_n,
                e,
                WirePrecision::Fp32,
            );
            let back = backward_exchange(
                ExchangeStrategy::Alltoall,
                &comm,
                None,
                &slices,
                num_tables,
                local_n,
                e,
                WirePrecision::Fp32,
            );
            (outputs, back)
        });
        for (outputs, back) in out {
            for (o, b) in outputs.iter().zip(&back) {
                assert_eq!(o.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn assembly_reuses_output_allocations() {
        // Two rounds through the same output vector: the second round must
        // write into the first round's matrices, not fresh ones.
        let (nranks, num_tables, local_n, e) = (2usize, 4usize, 2usize, 3usize);
        let gn = local_n * nranks;
        CommWorld::run(nranks, |comm| {
            let me = comm.rank();
            let outputs: Vec<Matrix> = tables_of(num_tables, nranks, me)
                .into_iter()
                .map(|t| table_output(t, gn, e))
                .collect();
            let map = OwnershipMap::round_robin(num_tables, nranks);
            let mut out = Vec::new();
            for round in 0..2 {
                let send = pack(Direction::Forward, &map, me, &outputs, (local_n, e));
                let recv = dlrm_comm::collectives::alltoall(&comm, send);
                let ptrs: Vec<*const f32> =
                    out.iter().map(|m: &Matrix| m.as_slice().as_ptr()).collect();
                assemble(Direction::Forward, &map, me, &recv, (local_n, e), &mut out);
                if round > 0 {
                    for (m, p) in out.iter().zip(&ptrs) {
                        assert!(
                            std::ptr::eq(m.as_slice().as_ptr(), *p),
                            "output reallocated"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn table_ownership_is_a_partition() {
        for nranks in 1..=6 {
            let map = OwnershipMap::round_robin(26, nranks);
            let mut seen = [false; 26];
            for q in 0..nranks {
                for t in tables_of(26, nranks, q) {
                    assert!(!seen[t]);
                    assert_eq!(owner_of(t, nranks), q);
                    // The wrappers and the shared map type must agree —
                    // the serving engine partitions by the same map.
                    assert_eq!(map.owner_of(t), q);
                    seen[t] = true;
                }
                assert_eq!(tables_of(26, nranks, q), map.tables_of(q));
            }
            assert!(seen.iter().all(|&s| s));
        }
    }
}
