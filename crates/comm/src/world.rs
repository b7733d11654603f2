//! Rank bootstrap and point-to-point messaging.
//!
//! A [`CommWorld`] creates `R` [`Communicator`] handles; each is moved onto
//! its own thread (the "rank"). Ranks exchange [`Message`]s over one
//! unbounded `std::sync::mpsc` channel per (src, dst) pair, so sends never
//! block and messages between a pair arrive in order — the same guarantees
//! MPI gives for matching (source, tag) envelopes.
//!
//! # Fault injection
//!
//! Worlds created through [`CommWorld::create_with_chaos`] thread a seeded
//! [`FaultPlan`] through every endpoint. Faults are injected at the
//! *transport* sub-layer: each message carries a per-(src, dst) sequence
//! number, the sender may hold it in an outbox (reordering it behind later
//! traffic), transmit it twice, or "drop" attempts and retry with counted
//! backoff — and the receiver repairs the stream (reorder buffer + duplicate
//! discard) before delivery, exactly like a reliable transport over a lossy
//! link. The *logical* per-pair FIFO contract above therefore still holds
//! under chaos, which is precisely the property the chaos test suites pin
//! down: collective results must be bitwise identical to a fault-free run.
//!
//! Delayed messages are flushed whenever the sender could block (a receive,
//! a barrier) and when the endpoint drops, so no fault schedule can
//! deadlock a world.

use crate::chaos::{ChaosStats, FaultPlan};
use crate::instrument::WireStats;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};

/// A scaled-INT8 wire payload: one signed byte per element (two's
/// complement, shipped as raw `u8`) plus the FP32 scale(s) needed to
/// reconstruct values as `byte as i8 as f32 * scale`.
///
/// Scales come in groups: `scales[g]` covers elements
/// `[g * group_len, (g + 1) * group_len)` — the grouped form is what gives
/// the backward alltoall genuine *per-table* scales (each owner-bound
/// payload is a concatenation of equal-length per-table blocks). A single
/// whole-payload scale is simply `group_len == len`.
///
/// `headered` records whether the scales are self-describing (computed by
/// the sender from the data, so they must cross the wire — 4 bytes each)
/// or pre-agreed (`WirePrecision::Int8Shared`: every rank derived the same
/// scale from replicated statistics, so nothing extra crosses the wire).
/// The in-process transport carries the `scales` vec either way; the
/// distinction is honest *byte accounting* in [`Payload::wire_bytes`],
/// which is what the bench artifacts and `WireStats` report.
#[derive(Debug, Clone)]
pub struct Int8Payload {
    /// Quantized elements, one byte each.
    pub bytes: Vec<u8>,
    /// Per-group FP32 scales; `bytes.len().div_ceil(group_len)` entries
    /// (empty payloads carry no scales).
    pub scales: Vec<f32>,
    /// Elements covered by each scale (≥ 1).
    pub group_len: usize,
    /// True when the scales are data-derived and ship on the wire.
    pub headered: bool,
}

impl Int8Payload {
    /// On-wire bytes the scale headers contribute (0 for pre-agreed
    /// scales).
    pub fn header_bytes(&self) -> u64 {
        if self.headered {
            4 * self.scales.len() as u64
        } else {
            0
        }
    }
}

/// A collective payload in its wire representation.
///
/// The transport (sequencing, chaos, reorder repair) never inspects the
/// contents, so all variants travel identically; only producers and
/// consumers care which one a message carries. BF16 halfwords are shipped
/// as raw `u16` bit patterns (see `dlrm_precision::Bf16` for the format) —
/// half the bytes per element of [`Payload::F32`]; INT8 payloads carry one
/// byte per element plus their scale headers ([`Int8Payload`]).
#[derive(Debug, Clone)]
pub enum Payload {
    /// Full-width `f32` words.
    F32(Vec<f32>),
    /// BFLOAT16 halfwords as raw bit patterns.
    Bf16(Vec<u16>),
    /// Scaled INT8 bytes plus reconstruction scales.
    Int8(Int8Payload),
}

impl Payload {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::Bf16(v) => v.len(),
            Payload::Int8(p) => p.bytes.len(),
        }
    }

    /// True when the payload has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this payload occupies on the wire, scale headers included.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Payload::F32(v) => 4 * v.len() as u64,
            Payload::Bf16(v) => 2 * v.len() as u64,
            Payload::Int8(p) => p.bytes.len() as u64 + p.header_bytes(),
        }
    }

    /// Bytes of on-wire metadata (INT8 scale headers) this payload carries
    /// on top of its element data.
    pub fn header_bytes(&self) -> u64 {
        match self {
            Payload::F32(_) | Payload::Bf16(_) => 0,
            Payload::Int8(p) => p.header_bytes(),
        }
    }

    /// Unwraps an FP32 payload; any other arrival here is a protocol bug
    /// (matching send/recv pairs must agree on the wire precision).
    pub fn into_f32(self) -> Vec<f32> {
        match self {
            Payload::F32(v) => v,
            other => panic!("expected an f32 payload, received {}", other.kind()),
        }
    }

    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Payload::F32(_) => "f32",
            Payload::Bf16(_) => "bf16",
            Payload::Int8(_) => "int8",
        }
    }
}

/// A typed message: a [`Payload`] plus an integer tag.
#[derive(Debug, Clone)]
pub struct Message {
    /// Caller-chosen tag; receives assert on it to catch protocol bugs.
    pub tag: u64,
    /// Payload.
    pub data: Payload,
}

/// Transport-level frame: a message plus its per-(src, dst) sequence
/// number, which lets the receiver repair reordering and duplicates.
#[derive(Debug, Clone)]
struct Envelope {
    seq: u64,
    msg: Message,
}

/// Per-destination sender state.
#[derive(Default)]
struct SendState {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Count of send operations to this peer (outbox release clock).
    send_ops: u64,
    /// Delayed envelopes: `(release_when_send_ops_reaches, envelope)`.
    outbox: Vec<(u64, Envelope)>,
}

/// Per-source receiver state.
#[derive(Default)]
struct RecvState {
    /// Sequence number the next delivery must carry.
    next_seq: u64,
    /// Ahead-of-sequence arrivals awaiting their turn.
    buffer: BTreeMap<u64, Message>,
}

/// Mutable endpoint state (sequence clocks, outboxes, reorder buffers).
struct EndpointState {
    send: Vec<SendState>,
    recv: Vec<RecvState>,
    /// Monotone operation counter driving stall decisions.
    ops: u64,
}

/// One rank's endpoint into the world.
pub struct Communicator {
    rank: usize,
    nranks: usize,
    /// `senders[dst]` — channel into rank `dst` from this rank.
    senders: Vec<Sender<Envelope>>,
    /// `receivers[src]` — channel from rank `src` into this rank.
    receivers: Vec<Receiver<Envelope>>,
    barrier: Arc<Barrier>,
    /// Fault oracle; `None` for fault-free worlds.
    plan: Option<Arc<FaultPlan>>,
    /// Fault counters shared by every endpoint of the world.
    stats: Arc<ChaosStats>,
    /// Wire byte counters — shared by every endpoint of the world, and
    /// optionally across worlds (see [`CommWorld::create_with_opts`]).
    wire: Arc<WireStats>,
    state: Mutex<EndpointState>,
}

/// Factory for a set of communicators sharing one world.
pub struct CommWorld;

impl CommWorld {
    /// Creates `nranks` fault-free communicators. Hand one to each rank
    /// thread.
    pub fn create(nranks: usize) -> Vec<Communicator> {
        Self::create_with_chaos(nranks, None)
    }

    /// Creates `nranks` communicators whose transport obeys `plan` (pass
    /// `None` for a fault-free world). All endpoints share one
    /// [`ChaosStats`], reachable via [`Communicator::chaos_stats`].
    pub fn create_with_chaos(nranks: usize, plan: Option<Arc<FaultPlan>>) -> Vec<Communicator> {
        Self::create_with_opts(nranks, plan, None)
    }

    /// [`CommWorld::create_with_chaos`] plus an externally-owned
    /// [`WireStats`] for the wire byte counters. Pass the same `Arc` to
    /// several worlds (e.g. a main world plus the per-channel worlds of a
    /// progress engine) to aggregate their traffic in one place; `None`
    /// gives the world a private fresh counter set.
    pub fn create_with_opts(
        nranks: usize,
        plan: Option<Arc<FaultPlan>>,
        wire: Option<Arc<WireStats>>,
    ) -> Vec<Communicator> {
        assert!(nranks >= 1, "world needs at least one rank");
        // channel[src][dst]
        let mut txs: Vec<Vec<Option<Sender<Envelope>>>> = (0..nranks)
            .map(|_| (0..nranks).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Envelope>>>> = (0..nranks)
            .map(|_| (0..nranks).map(|_| None).collect())
            .collect();
        for src in 0..nranks {
            for dst in 0..nranks {
                let (tx, rx) = mpsc::channel();
                txs[src][dst] = Some(tx);
                rxs[dst][src] = Some(rx);
            }
        }
        let barrier = Arc::new(Barrier::new(nranks));
        let stats = Arc::new(ChaosStats::default());
        let wire = wire.unwrap_or_default();
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| Communicator {
                rank,
                nranks,
                senders: tx_row.into_iter().map(Option::unwrap).collect(),
                receivers: rx_row.into_iter().map(Option::unwrap).collect(),
                barrier: Arc::clone(&barrier),
                plan: plan.clone(),
                stats: Arc::clone(&stats),
                wire: Arc::clone(&wire),
                state: Mutex::new(EndpointState {
                    send: (0..nranks).map(|_| SendState::default()).collect(),
                    recv: (0..nranks).map(|_| RecvState::default()).collect(),
                    ops: 0,
                }),
            })
            .collect()
    }

    /// Convenience driver: spawns one thread per rank, runs `f(comm)` on
    /// each, and returns the per-rank results in rank order. Panics in any
    /// rank propagate.
    pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        Self::run_with_chaos(nranks, None, f)
    }

    /// [`CommWorld::run`] over a chaotic world. Returns per-rank results in
    /// rank order; results must be bitwise identical to [`CommWorld::run`]
    /// for any plan (that invariant is what the chaos suites verify).
    pub fn run_with_chaos<T, F>(nranks: usize, plan: Option<Arc<FaultPlan>>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        let comms = Self::create_with_chaos(nranks, plan);
        std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let f = &f;
                    s.spawn(move || f(comm))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

impl Communicator {
    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The world's shared fault counters (all-zero for fault-free worlds).
    pub fn chaos_stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Owning handle to the world's fault counters, for callers that need
    /// the stats to outlive this endpoint.
    pub fn chaos_stats_arc(&self) -> &Arc<ChaosStats> {
        &self.stats
    }

    /// The wire byte counters this endpoint records into.
    pub fn wire_stats(&self) -> &WireStats {
        &self.wire
    }

    /// Burns a counted number of yields if the plan stalls this operation
    /// boundary. Pure scheduling perturbation; never affects results.
    fn maybe_stall(&self, st: &mut EndpointState) {
        if let Some(plan) = &self.plan {
            let idx = st.ops;
            st.ops += 1;
            let yields = plan.stall_yields(self.rank, idx);
            if yields > 0 {
                self.stats.stalls.fetch_add(1, Ordering::Relaxed);
                for _ in 0..yields {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Puts an envelope on the wire. In a fault-free world a gone peer is a
    /// caller bug, so we panic. Under chaos it is a legitimate teardown
    /// race: a peer whose endpoint is closed has already dropped its
    /// `Communicator`, which only happens after it completed every receive
    /// it will ever do — typically because a duplicate or flushed copy
    /// satisfied it before this (delayed or straggling) transmission fired.
    fn transmit(&self, dst: usize, env: Envelope) {
        let result = self.senders[dst].send(env);
        if self.plan.is_none() {
            result.expect("send to dead rank");
        }
    }

    /// Releases every outbox entry due at the peer's current send clock.
    fn release_due(&self, st: &mut EndpointState, dst: usize) {
        let now = st.send[dst].send_ops;
        let mut i = 0;
        while i < st.send[dst].outbox.len() {
            if st.send[dst].outbox[i].0 <= now {
                let (_, env) = st.send[dst].outbox.remove(i);
                self.transmit(dst, env);
            } else {
                i += 1;
            }
        }
    }

    /// Releases *all* delayed traffic. Called before any operation that can
    /// block (receive, barrier), after every delivered receive, and on
    /// drop, so delays cannot deadlock a world. Flush sends are lossy on
    /// purpose: a peer whose endpoint is already gone has completed
    /// everything it was doing and cannot be waiting on held traffic
    /// (duplicate-shadowed originals routinely outlive their receiver).
    fn flush_outboxes(&self, st: &mut EndpointState) {
        for dst in 0..self.nranks {
            for (_, env) in std::mem::take(&mut st.send[dst].outbox) {
                let _ = self.senders[dst].send(env);
            }
        }
    }

    /// Sends `data` to `dst` with `tag`. Never blocks (the channel is
    /// unbounded); under chaos the message may be delayed, duplicated, or
    /// dropped and retried, but it is always eventually delivered exactly
    /// once.
    pub fn send(&self, dst: usize, tag: u64, data: Vec<f32>) {
        self.send_payload(dst, tag, Payload::F32(data));
    }

    /// [`Communicator::send`] for an arbitrary wire representation. The
    /// transport (sequencing, chaos, repair) is payload-agnostic; the
    /// matching receive must expect the same representation.
    pub fn send_payload(&self, dst: usize, tag: u64, data: Payload) {
        self.wire
            .record(tag, data.wire_bytes(), data.header_bytes());
        let mut st = crate::lock(&self.state);
        self.maybe_stall(&mut st);
        let seq = st.send[dst].next_seq;
        st.send[dst].next_seq += 1;
        let env = Envelope {
            seq,
            msg: Message { tag, data },
        };
        let Some(plan) = self.plan.clone() else {
            st.send[dst].send_ops += 1;
            self.transmit(dst, env);
            return;
        };

        // Drop + bounded retry: each "lost" attempt costs a counted
        // exponential backoff; the attempt after max_retries always goes
        // through (reliable-transport model — delayed, never lost).
        let mut attempt = 0u32;
        while plan.drop_attempt(self.rank, dst, seq, attempt) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            for _ in 0..plan.backoff_yields(attempt) {
                std::thread::yield_now();
            }
            attempt += 1;
        }

        // A duplicate goes on the wire immediately — even when the original
        // is about to be delayed, which lets the copy overtake it.
        if plan.duplicate(self.rank, dst, seq) {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            self.transmit(dst, env.clone());
        }

        st.send[dst].send_ops += 1;
        let depth = plan.delay_depth(self.rank, dst, seq);
        if depth > 0 {
            self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            let due = st.send[dst].send_ops + depth as u64;
            st.send[dst].outbox.push((due, env));
        } else {
            self.transmit(dst, env);
        }
        self.release_due(&mut st, dst);
    }

    /// Receives the next in-sequence message from `src`, asserting the
    /// expected `tag`. Blocks until it arrives; under chaos, repairs
    /// reordering (buffering ahead-of-sequence arrivals) and discards
    /// duplicates, so delivery order always equals send order.
    ///
    /// Deadlock-freedom invariant: delayed traffic is flushed both before
    /// this rank can block on the wire *and* before this call returns, so a
    /// rank that leaves the comm layer after a receive (e.g. a progress
    /// worker going idle) never holds messages a peer is waiting for.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<f32> {
        self.recv_payload(src, tag).into_f32()
    }

    /// [`Communicator::recv`] for an arbitrary wire representation.
    pub fn recv_payload(&self, src: usize, tag: u64) -> Payload {
        let mut st = crate::lock(&self.state);
        self.maybe_stall(&mut st);
        let msg = loop {
            let expected = st.recv[src].next_seq;
            if let Some(msg) = st.recv[src].buffer.remove(&expected) {
                st.recv[src].next_seq += 1;
                break msg;
            }
            // About to block on the wire: release our own delayed traffic
            // first so no fault schedule can deadlock the world.
            self.flush_outboxes(&mut st);
            let env = self.receivers[src].recv().expect("recv from dead rank");
            if env.seq < expected || st.recv[src].buffer.contains_key(&env.seq) {
                self.stats.dups_discarded.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if env.seq == expected {
                st.recv[src].next_seq += 1;
                break env.msg;
            }
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            st.recv[src].buffer.insert(env.seq, env.msg);
        };
        self.flush_outboxes(&mut st);
        self.check_tag(src, tag, msg)
    }

    /// Releases all delayed traffic immediately. Callers that hand control
    /// away from the comm layer after send-terminated operations (a
    /// broadcast) and then wait on something else — e.g. a
    /// nonblocking [`crate::nonblocking::Request`] — should flush first so
    /// peers never wait on held messages.
    pub fn flush_delayed(&self) {
        let mut st = crate::lock(&self.state);
        self.flush_outboxes(&mut st);
    }

    fn check_tag(&self, src: usize, tag: u64, msg: Message) -> Payload {
        assert_eq!(
            msg.tag, tag,
            "rank {} expected tag {tag} from {src}, got {}",
            self.rank, msg.tag
        );
        msg.data
    }

    /// Simultaneous exchange with a partner (both sides call this).
    pub fn sendrecv(&self, partner: usize, tag: u64, data: Vec<f32>) -> Vec<f32> {
        if partner == self.rank {
            return data;
        }
        self.send(partner, tag, data);
        self.recv(partner, tag)
    }

    /// Blocks until every rank reaches the barrier.
    pub fn barrier(&self) {
        {
            let mut st = crate::lock(&self.state);
            self.maybe_stall(&mut st);
            // Peers may legitimately wait for our delayed traffic before
            // they can reach the barrier themselves.
            self.flush_outboxes(&mut st);
        }
        self.barrier.wait();
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        let mut st = crate::lock(&self.state);
        self.flush_outboxes(&mut st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use std::time::Duration;

    /// Runs `body` on its own thread and fails, instead of hanging the test
    /// binary, if it has not returned after `limit`; a panic in `body` is
    /// re-raised on the test thread.
    fn under_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Ok(()) => runner.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress in {limit:?}"),
        }
    }

    /// A two-rank world whose rank 1 has already dropped its endpoint.
    fn world_with_rank_1_gone(plan: Option<Arc<FaultPlan>>) -> Communicator {
        let mut comms = CommWorld::create_with_chaos(2, plan);
        drop(comms.pop());
        comms.pop().expect("rank 0")
    }

    #[test]
    fn ranks_are_numbered() {
        let ranks = CommWorld::run(4, |c| (c.rank(), c.nranks()));
        assert_eq!(ranks, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = CommWorld::run(5, |c| {
            let next = (c.rank() + 1) % c.nranks();
            let prev = (c.rank() + c.nranks() - 1) % c.nranks();
            c.send(next, 1, vec![c.rank() as f32]);
            c.recv(prev, 1)[0]
        });
        assert_eq!(out, vec![4.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn messages_between_pair_arrive_in_order() {
        let out = CommWorld::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100 {
                    c.send(1, i, vec![i as f32]);
                }
                vec![]
            } else {
                (0..100).map(|i| c.recv(0, i)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..100).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn sendrecv_swaps_payloads() {
        let out = CommWorld::run(2, |c| {
            c.sendrecv(1 - c.rank(), 9, vec![c.rank() as f32 + 10.0])[0]
        });
        assert_eq!(out, vec![11.0, 10.0]);
    }

    #[test]
    fn sendrecv_with_self_is_identity() {
        let out = CommWorld::run(1, |c| c.sendrecv(0, 0, vec![7.0])[0]);
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        CommWorld::run(4, |c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(before.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn tag_mismatch_is_detected() {
        CommWorld::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![1.0]);
            } else {
                c.recv(0, 6);
            }
        });
    }

    /// Without faults nothing can satisfy a receive early, so a send to a
    /// closed endpoint is a caller bug. The panic leaves the endpoint's lock
    /// poisoned, and dropping the endpoint while unwinding must not panic
    /// again.
    #[test]
    #[should_panic(expected = "send to dead rank")]
    fn send_to_a_dropped_endpoint_panics_in_a_fault_free_world() {
        world_with_rank_1_gone(None).send(1, 0, vec![1.0]);
    }

    /// Under chaos the same send is the teardown race `transmit` documents:
    /// the peer finished on a duplicate and left. Delayed copies are
    /// flushed into the closed channel on drop, also without a panic.
    #[test]
    fn send_to_a_dropped_endpoint_is_tolerated_under_chaos() {
        let plan = ChaosConfig::aggressive(11).plan();
        let comm = world_with_rank_1_gone(Some(plan));
        for i in 0..100 {
            comm.send(1, i, vec![i as f32]);
        }
        drop(comm);
    }

    /// A receive from a peer that left with nothing queued fails at once
    /// instead of blocking forever.
    #[test]
    #[should_panic(expected = "recv from dead rank")]
    fn recv_from_a_dropped_endpoint_panics_instead_of_hanging() {
        under_watchdog(Duration::from_secs(60), || {
            world_with_rank_1_gone(None).recv(1, 0);
        });
    }

    #[test]
    fn chaotic_p2p_stream_is_repaired_in_order() {
        let plan = ChaosConfig::aggressive(0xC0FFEE).plan();
        let out = CommWorld::run_with_chaos(2, Some(plan), |c| {
            if c.rank() == 0 {
                for i in 0..200 {
                    c.send(1, i, vec![i as f32]);
                }
                vec![]
            } else {
                (0..200).map(|i| c.recv(0, i)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..200).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn chaotic_world_reports_injected_faults() {
        let plan = ChaosConfig::aggressive(7).plan();
        let snaps = CommWorld::run_with_chaos(2, Some(plan), |c| {
            let peer = 1 - c.rank();
            for i in 0..100 {
                let got = c.sendrecv(peer, i, vec![c.rank() as f32 + i as f32]);
                assert_eq!(got, vec![peer as f32 + i as f32]);
            }
            c.barrier();
            c.chaos_stats().snapshot()
        });
        // Stats are shared; after the barrier both ranks see the totals.
        assert!(
            snaps[0].total_injected() > 0,
            "no faults fired: {:?}",
            snaps[0]
        );
    }

    #[test]
    fn fault_free_world_keeps_zero_stats() {
        let snaps = CommWorld::run(2, |c| {
            let _ = c.sendrecv(1 - c.rank(), 0, vec![1.0]);
            c.chaos_stats().snapshot()
        });
        assert_eq!(snaps[0].total_injected(), 0);
        assert_eq!(snaps[0].reordered, 0);
    }
}
