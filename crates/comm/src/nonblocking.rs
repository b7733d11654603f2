//! Nonblocking collectives via progress threads — the MPI vs. oneCCL
//! backend contrast of Section IV-B/C.
//!
//! PyTorch's MPI backend "spawns a separate thread to drive the
//! communication": the master enqueues an operation and later waits on it.
//! Because there is a *single* progress thread, operations complete strictly
//! in submission order — the paper traces the mysterious "huge alltoall cost"
//! of the MPI backend to exactly this: waiting on an alltoall silently pays
//! for the allreduce queued before it. oneCCL instead drives communication
//! with *multiple* dedicated, pinned worker threads, so independent
//! primitives progress concurrently.
//!
//! [`ProgressEngine`] reproduces both: `Backend::MpiLike` owns one progress
//! channel, `Backend::CclLike { workers }` owns several. Each channel is a
//! FIFO worker thread with its own [`Communicator`] (its own p2p streams),
//! so cross-channel operations cannot interleave incorrectly.
//!
//! Progress threads pay off only on cores the compute does not use, which
//! is where oneCCL pins them. The distributed trainer therefore keeps an
//! engine only for its CCL strategy; its default strategy drives every
//! collective on the rank thread through [`crate::collectives`].

use crate::chaos::FaultPlan;
use crate::instrument::{time_opt, OpKind, TimingRecorder, WireStats};
use crate::wire::WirePrecision;
use crate::world::Communicator;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Which communication backend to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single progress thread, in-order completion (PyTorch MPI backend).
    MpiLike,
    /// `workers` independent pinned progress threads (oneCCL).
    CclLike {
        /// Number of worker channels (the paper uses 4 EPs per socket).
        workers: usize,
    },
}

impl Backend {
    /// Number of progress channels this backend provides.
    pub fn channels(self) -> usize {
        match self {
            Backend::MpiLike => 1,
            Backend::CclLike { workers } => workers.max(1),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::MpiLike => write!(f, "MPI Backend"),
            Backend::CclLike { .. } => write!(f, "CCL Backend"),
        }
    }
}

/// The one-value slot a progress worker fills when a [`Request`]'s
/// operation completes.
type Done = SyncSender<OpOutput>;

enum Task {
    Allreduce(Vec<f32>, WirePrecision, Done),
    /// `(send, wire, tag_base, scale_group, done)` — `scale_group` is the
    /// INT8 per-block scale length (0 = one scale per payload).
    Alltoall(Vec<Vec<f32>>, WirePrecision, u64, usize, Done),
    Shutdown,
}

/// Output of a completed nonblocking operation.
#[derive(Debug)]
pub enum OpOutput {
    /// Result of an allreduce.
    Flat(Vec<f32>),
    /// Result of an alltoall.
    PerRank(Vec<Vec<f32>>),
}

/// Handle to an in-flight operation.
pub struct Request {
    rx: Receiver<OpOutput>,
    cached: Option<OpOutput>,
}

impl Request {
    /// Blocks until the operation completes and returns its output.
    pub fn wait(mut self) -> OpOutput {
        if let Some(out) = self.cached.take() {
            return out;
        }
        self.rx.recv().expect("progress channel died")
    }

    /// [`Request::wait`] for an allreduce, with the blocking time charged to
    /// `kind` on `rec` (no-op accounting when `rec` is `None`). Split-phase
    /// callers use this so *exposed* wait — not the full collective — is
    /// what gets measured.
    pub fn wait_flat(self, rec: Option<&TimingRecorder>, kind: OpKind) -> Vec<f32> {
        match time_opt(rec, kind, || self.wait()) {
            OpOutput::Flat(v) => v,
            other => panic!("expected an allreduce result, got {other:?}"),
        }
    }

    /// [`Request::wait_flat`] for an alltoall: the per-source payloads.
    pub fn wait_per_rank(self, rec: Option<&TimingRecorder>, kind: OpKind) -> Vec<Vec<f32>> {
        match time_opt(rec, kind, || self.wait()) {
            OpOutput::PerRank(v) => v,
            other => panic!("expected an alltoall result, got {other:?}"),
        }
    }

    /// Non-destructive readiness probe.
    pub fn is_ready(&mut self) -> bool {
        if self.cached.is_some() {
            return true;
        }
        match self.rx.try_recv() {
            Ok(out) => {
                self.cached = Some(out);
                true
            }
            Err(_) => false,
        }
    }
}

/// Registry of progress-thread handles, shared with workers so a killed
/// worker can register its replacement for join-at-drop.
type HandleRegistry = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// Chaos context carried by a progress worker: the fault oracle plus the
/// coordinates and running task index that key its kill decisions.
struct WorkerChaos {
    plan: Arc<FaultPlan>,
    registry: HandleRegistry,
    rank: usize,
    channel: usize,
    /// Tasks completed so far on this channel (survives restarts, so kill
    /// decisions stay a pure function of the logical task stream).
    task_index: u64,
}

/// A per-rank engine owning one or more progress channels.
pub struct ProgressEngine {
    submitters: Vec<Sender<Task>>,
    handles: HandleRegistry,
    rank: usize,
}

impl ProgressEngine {
    /// Builds an engine from one [`Communicator`] per channel. All of a
    /// world's ranks must construct their engines with the same backend and
    /// submit matching operations to matching channel indices.
    pub fn new(backend: Backend, comms: Vec<Communicator>) -> Self {
        Self::new_with_chaos(backend, comms, None)
    }

    /// [`ProgressEngine::new`] plus a fault plan governing worker
    /// kill-restart: after completing a task a worker may exit and be
    /// transparently replaced by a fresh thread that resumes its channel.
    /// (Message-level faults come from the communicators themselves — build
    /// them via [`crate::world::CommWorld::create_with_opts`] or
    /// [`create_channel_worlds_with_opts`].)
    pub fn new_with_chaos(
        backend: Backend,
        comms: Vec<Communicator>,
        plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        let nch = backend.channels();
        assert_eq!(
            comms.len(),
            nch,
            "engine needs exactly one communicator per channel"
        );
        let rank = comms[0].rank();
        let registry: HandleRegistry = Arc::new(Mutex::new(Vec::new()));
        let mut submitters = Vec::with_capacity(nch);
        for (ch, comm) in comms.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Task>();
            submitters.push(tx);
            let chaos = plan.as_ref().map(|p| WorkerChaos {
                plan: Arc::clone(p),
                registry: Arc::clone(&registry),
                rank,
                channel: ch,
                task_index: 0,
            });
            let handle = std::thread::Builder::new()
                .name(format!("progress-r{rank}-c{ch}"))
                .spawn(move || progress_loop(comm, rx, chaos))
                .expect("failed to spawn progress thread");
            crate::lock(&registry).push(handle);
        }
        ProgressEngine {
            submitters,
            handles: registry,
            rank,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of progress channels.
    pub fn num_channels(&self) -> usize {
        self.submitters.len()
    }

    /// Enqueues an allreduce-sum on `channel`; returns immediately.
    pub fn allreduce(&self, channel: usize, data: Vec<f32>) -> Request {
        self.allreduce_wire(channel, data, WirePrecision::Fp32)
    }

    /// [`ProgressEngine::allreduce`] with a selectable wire. All ranks must
    /// submit the matching operation with the same [`WirePrecision`].
    pub fn allreduce_wire(&self, channel: usize, data: Vec<f32>, wirep: WirePrecision) -> Request {
        self.submit(channel, |done| Task::Allreduce(data, wirep, done))
    }

    /// Enqueues an alltoall on `channel`; returns immediately.
    pub fn alltoall(&self, channel: usize, send: Vec<Vec<f32>>) -> Request {
        self.alltoall_wire(channel, send, WirePrecision::Fp32)
    }

    /// [`ProgressEngine::alltoall`] with a selectable wire. All ranks must
    /// submit the matching operation with the same [`WirePrecision`].
    pub fn alltoall_wire(
        &self,
        channel: usize,
        send: Vec<Vec<f32>>,
        wirep: WirePrecision,
    ) -> Request {
        self.alltoall_wire_tagged(channel, send, wirep, crate::collectives::TAG_A2A, 0)
    }

    /// The fully-specified form of [`ProgressEngine::alltoall_wire`] (see
    /// [`alltoall_wire_tagged`](crate::collectives::alltoall_wire_tagged)):
    /// an explicit tag base, so a logically distinct stream (the prefetch
    /// row fetch) gets its own [`WireStats`] byte bucket — per-pair FIFO
    /// order is what makes two streams on one channel safe, exactly as for
    /// the framework exchanges — and an INT8 scale-group length, for which
    /// the embedding exchanges pass their per-table block length so each
    /// table gets its own scale header (`0` = one scale per payload;
    /// ignored by FP32/BF16 wires).
    pub fn alltoall_wire_tagged(
        &self,
        channel: usize,
        send: Vec<Vec<f32>>,
        wirep: WirePrecision,
        tag_base: u64,
        scale_group: usize,
    ) -> Request {
        self.submit(channel, |done| {
            Task::Alltoall(send, wirep, tag_base, scale_group, done)
        })
    }

    /// Enqueues the task `make` builds around its completion sender.
    fn submit(&self, channel: usize, make: impl FnOnce(Done) -> Task) -> Request {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submitters[channel % self.submitters.len()]
            .send(make(tx))
            .expect("progress channel died");
        Request { rx, cached: None }
    }
}

impl Drop for ProgressEngine {
    fn drop(&mut self) {
        for tx in &self.submitters {
            let _ = tx.send(Task::Shutdown);
        }
        // Workers killed by the fault plan register their replacements in
        // the shared registry; keep draining until no thread remains. Once
        // every channel has consumed Shutdown no new handles can appear.
        loop {
            let handle = crate::lock(&self.handles).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

fn progress_loop(comm: Communicator, rx: Receiver<Task>, mut chaos: Option<WorkerChaos>) {
    while let Ok(task) = rx.recv() {
        match task {
            Task::Allreduce(mut data, wirep, done) => {
                crate::collectives::allreduce_sum_wire(&comm, &mut data, wirep);
                let _ = done.send(OpOutput::Flat(data));
            }
            Task::Alltoall(send, wirep, tag_base, scale_group, done) => {
                let recv = crate::collectives::alltoall_wire_tagged(
                    &comm,
                    send,
                    wirep,
                    tag_base,
                    scale_group,
                );
                let _ = done.send(OpOutput::PerRank(recv));
            }
            Task::Shutdown => return,
        }
        // About to go idle on the task queue: release any delayed traffic a
        // peer's in-flight collective may still be waiting for.
        comm.flush_delayed();
        // Kill-and-restart: this worker dies after finishing the task and a
        // fresh thread takes over its channel (same communicator, same task
        // queue, continued task index) — the restart is invisible to
        // submitters, like a relaunched oneCCL worker.
        if let Some(ctx) = &mut chaos {
            let idx = ctx.task_index;
            ctx.task_index += 1;
            if ctx.plan.kill_worker(ctx.rank, ctx.channel, idx) {
                comm.chaos_stats()
                    .workers_killed
                    .fetch_add(1, Ordering::Relaxed);
                let registry = Arc::clone(&ctx.registry);
                let (rank, ch) = (ctx.rank, ctx.channel);
                let successor_chaos = chaos.take();
                let handle = std::thread::Builder::new()
                    .name(format!("progress-r{rank}-c{ch}-restart"))
                    .spawn(move || progress_loop(comm, rx, successor_chaos))
                    .expect("failed to respawn progress thread");
                crate::lock(&registry).push(handle);
                return;
            }
        }
    }
}

/// Creates, for each of `nranks` ranks, the vector of communicators an
/// engine with `backend` needs (one world per channel).
pub fn create_channel_worlds(nranks: usize, backend: Backend) -> Vec<Vec<Communicator>> {
    create_channel_worlds_with_opts(nranks, backend, None, None)
}

/// [`create_channel_worlds`] with every per-channel world built over
/// `plan` (`None`: fault-free), so engine-driven collectives run on a
/// chaotic transport, and sharing `wire` (`None`: a private counter set),
/// so a harness reads the engine's aggregate wire traffic from one place
/// (pair it with the same `Arc` on the main world via
/// [`CommWorld::create_with_opts`](crate::world::CommWorld::create_with_opts)).
pub fn create_channel_worlds_with_opts(
    nranks: usize,
    backend: Backend,
    plan: Option<Arc<FaultPlan>>,
    wire: Option<Arc<WireStats>>,
) -> Vec<Vec<Communicator>> {
    let nch = backend.channels();
    let mut per_rank: Vec<Vec<Communicator>> = (0..nranks).map(|_| Vec::new()).collect();
    for _ in 0..nch {
        for (rank, comm) in
            crate::world::CommWorld::create_with_opts(nranks, plan.clone(), wire.clone())
                .into_iter()
                .enumerate()
        {
            per_rank[rank].push(comm);
        }
    }
    per_rank
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(engine)` on every rank of a fresh world.
    fn run_engines<T: Send>(
        nranks: usize,
        backend: Backend,
        f: impl Fn(ProgressEngine) -> T + Send + Sync,
    ) -> Vec<T> {
        let worlds = create_channel_worlds(nranks, backend);
        std::thread::scope(|s| {
            let handles: Vec<_> = worlds
                .into_iter()
                .map(|comms| {
                    let f = &f;
                    s.spawn(move || f(ProgressEngine::new(backend, comms)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn unwrap_flat(out: OpOutput) -> Vec<f32> {
        match out {
            OpOutput::Flat(v) => v,
            other => panic!("expected Flat, got {other:?}"),
        }
    }

    fn unwrap_per_rank(out: OpOutput) -> Vec<Vec<f32>> {
        match out {
            OpOutput::PerRank(v) => v,
            other => panic!("expected PerRank, got {other:?}"),
        }
    }

    #[test]
    fn mpi_like_allreduce_works() {
        let out = run_engines(4, Backend::MpiLike, |eng| {
            let req = eng.allreduce(0, vec![eng.rank() as f32; 8]);
            unwrap_flat(req.wait())
        });
        for v in out {
            assert_eq!(v, vec![6.0; 8]);
        }
    }

    #[test]
    fn ccl_like_alltoall_works() {
        let out = run_engines(3, Backend::CclLike { workers: 2 }, |eng| {
            let send: Vec<Vec<f32>> = (0..3).map(|d| vec![(eng.rank() * 10 + d) as f32]).collect();
            let req = eng.alltoall(1, send);
            unwrap_per_rank(req.wait())
        });
        for (dst, recv) in out.iter().enumerate() {
            for (src, p) in recv.iter().enumerate() {
                assert_eq!(p, &vec![(src * 10 + dst) as f32]);
            }
        }
    }

    #[test]
    fn mpi_like_completes_in_submission_order() {
        // The Figure 10/11 artifact: on a single progress channel, when the
        // later alltoall is done the earlier allreduce must already be done.
        let flags = run_engines(2, Backend::MpiLike, |eng| {
            let mut ar = eng.allreduce(0, vec![1.0; 4096]);
            let a2a = eng.alltoall(0, vec![vec![0.5; 16]; 2]);
            let _ = a2a.wait();
            let ready_after_a2a = ar.is_ready();
            let _ = ar.wait();
            ready_after_a2a
        });
        assert!(
            flags.iter().all(|&f| f),
            "allreduce must complete before the later alltoall"
        );
    }

    #[test]
    fn ccl_like_channels_progress_independently() {
        // Submit an alltoall on channel 1 and wait for it while channel 0
        // still has a pending allreduce — only possible with >1 channel.
        let out = run_engines(2, Backend::CclLike { workers: 2 }, |eng| {
            let ar = eng.allreduce(0, vec![2.0; 64]);
            let a2a = eng.alltoall(1, vec![vec![eng.rank() as f32]; 2]);
            let recv = unwrap_per_rank(a2a.wait());
            let red = unwrap_flat(ar.wait());
            (recv, red)
        });
        for (dst, (recv, red)) in out.iter().enumerate() {
            let _ = dst;
            assert_eq!(recv[0], vec![0.0]);
            assert_eq!(recv[1], vec![1.0]);
            assert_eq!(red, &vec![4.0; 64]);
        }
    }

    #[test]
    fn many_interleaved_ops_complete() {
        let out = run_engines(3, Backend::CclLike { workers: 3 }, |eng| {
            let reqs: Vec<Request> = (0..12)
                .map(|i| eng.allreduce(i % 3, vec![i as f32; 5]))
                .collect();
            reqs.into_iter()
                .map(|r| unwrap_flat(r.wait())[0])
                .collect::<Vec<f32>>()
        });
        for v in out {
            assert_eq!(v, (0..12).map(|i| 3.0 * i as f32).collect::<Vec<f32>>());
        }
    }

    #[test]
    fn is_ready_is_nondestructive() {
        let out = run_engines(2, Backend::MpiLike, |eng| {
            let mut req = eng.allreduce(0, vec![1.0]);
            while !req.is_ready() {
                std::thread::yield_now();
            }
            assert!(req.is_ready());
            unwrap_flat(req.wait())
        });
        for v in out {
            assert_eq!(v, vec![2.0]);
        }
    }

    #[test]
    fn backend_channel_counts() {
        assert_eq!(Backend::MpiLike.channels(), 1);
        assert_eq!(Backend::CclLike { workers: 4 }.channels(), 4);
        assert_eq!(Backend::CclLike { workers: 0 }.channels(), 1);
    }
}
