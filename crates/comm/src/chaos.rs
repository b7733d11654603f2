//! Deterministic fault injection for the comm runtime.
//!
//! Real cluster runs fail in ways unit tests never exercise: NIC-level
//! retransmits reorder packets, a progress thread gets descheduled for
//! milliseconds, a worker dies and is restarted by the launcher. This
//! module provides a *seeded* model of those faults so the runtime's
//! correctness claims ("collectives are bitwise deterministic given
//! deterministic callers") can be tested under hundreds of adversarial
//! schedules — and any failure reproduces from a single `u64` seed.
//!
//! # Design
//!
//! All fault decisions are **pure hash functions** of `(seed, fault domain,
//! message/op coordinates)` — never wall-clock time, never OS-scheduler
//! state. Two runs with the same seed therefore inject exactly the same
//! faults at exactly the same logical points, even though physical thread
//! interleavings differ; and because faults are injected *below* the logical
//! stream (sequence-numbered envelopes repaired at the receiver, see
//! [`crate::world`]), the delivered data — and thus every collective result
//! — is bitwise identical to a fault-free run.
//!
//! Faults modeled:
//!
//! * **Delay / reorder**: a message is held in the sender's outbox and
//!   released only after later traffic, arriving out of order.
//! * **Duplicate**: a message is transmitted twice (the receiver must
//!   discard the copy).
//! * **Drop + retry**: a send attempt is "lost" and retried after a counted
//!   exponential backoff, bounded by [`ChaosConfig::max_retries`].
//! * **Stall**: a rank burns a counted number of `yield_now` calls at an
//!   operation boundary, perturbing the physical schedule.
//! * **Worker kill**: a [`crate::nonblocking::ProgressEngine`] worker thread
//!   exits after completing a task and is transparently replaced by a fresh
//!   thread (restart semantics).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Knobs for the fault injector. All probabilities are per decision point
/// and independent; `0.0` disables that fault class.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed; every fault decision derives from it.
    pub seed: u64,
    /// Probability a message is delayed (held in the sender's outbox).
    pub delay_prob: f64,
    /// Maximum number of subsequent same-peer sends a delayed message can be
    /// held behind.
    pub max_delay: u32,
    /// Probability a message is transmitted twice.
    pub duplicate_prob: f64,
    /// Probability a given send *attempt* is dropped (each drop triggers a
    /// retry with counted backoff).
    pub drop_prob: f64,
    /// Upper bound on retries after drops; the final attempt always goes
    /// through, so messages are delayed-not-lost (reliable-transport model).
    pub max_retries: u32,
    /// Probability an operation boundary stalls the calling thread.
    pub stall_prob: f64,
    /// Maximum `yield_now` count per stall.
    pub max_stall_yields: u32,
    /// Probability a progress worker is killed (and restarted) after
    /// completing a task.
    pub kill_worker_prob: f64,
}

impl ChaosConfig {
    /// Everything disabled — a [`FaultPlan`] from this config is a no-op.
    pub fn off(seed: u64) -> Self {
        ChaosConfig {
            seed,
            delay_prob: 0.0,
            max_delay: 0,
            duplicate_prob: 0.0,
            drop_prob: 0.0,
            max_retries: 0,
            stall_prob: 0.0,
            max_stall_yields: 0,
            kill_worker_prob: 0.0,
        }
    }

    /// Default adversarial mix used by the chaos test suites: every fault
    /// class enabled at rates high enough that a few-hundred-message
    /// collective sees many injections.
    pub fn aggressive(seed: u64) -> Self {
        ChaosConfig {
            seed,
            delay_prob: 0.25,
            max_delay: 3,
            duplicate_prob: 0.15,
            drop_prob: 0.2,
            max_retries: 3,
            stall_prob: 0.1,
            max_stall_yields: 32,
            kill_worker_prob: 0.05,
        }
    }

    /// Builds the immutable decision oracle for this config.
    pub fn plan(self) -> Arc<FaultPlan> {
        Arc::new(FaultPlan { cfg: self })
    }
}

/// Fault-domain discriminators mixed into the hash so the same coordinates
/// in different domains draw independent decisions. A domain keeps its
/// value for good, so a seed replays the same decisions across versions.
const D_DELAY: u64 = 0x01;
const D_DUP: u64 = 0x02;
const D_DROP: u64 = 0x03;
const D_STALL: u64 = 0x04;
const D_KILL: u64 = 0x05;

/// Seeded, stateless fault oracle. Shared (via `Arc`) by every rank of a
/// world; all methods are pure functions of the seed and their arguments.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: ChaosConfig,
}

impl FaultPlan {
    /// The config this plan was built from.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// SplitMix64 over the seed, a domain tag, and three coordinates.
    fn hash(&self, domain: u64, a: u64, b: u64, c: u64) -> u64 {
        let mut z = self
            .cfg
            .seed
            .wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(c.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` for the given coordinates.
    fn unit(&self, domain: u64, a: u64, b: u64, c: u64) -> f64 {
        (self.hash(domain, a, b, c) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// How many subsequent same-peer sends to hold message `(src, dst, seq)`
    /// behind; `0` means transmit immediately.
    pub fn delay_depth(&self, src: usize, dst: usize, seq: u64) -> u32 {
        if self.cfg.max_delay == 0
            || self.unit(D_DELAY, src as u64, dst as u64, seq) >= self.cfg.delay_prob
        {
            return 0;
        }
        // Depth in 1..=max_delay, drawn from an independent hash.
        1 + (self.hash(D_DELAY ^ 0x80, src as u64, dst as u64, seq) % self.cfg.max_delay as u64)
            as u32
    }

    /// Whether to transmit message `(src, dst, seq)` twice.
    pub fn duplicate(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.unit(D_DUP, src as u64, dst as u64, seq) < self.cfg.duplicate_prob
    }

    /// Whether send attempt `attempt` of message `(src, dst, seq)` is
    /// dropped (forcing a retry).
    pub fn drop_attempt(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        attempt < self.cfg.max_retries
            && self.unit(
                D_DROP,
                src as u64,
                dst as u64,
                seq ^ ((attempt as u64) << 48),
            ) < self.cfg.drop_prob
    }

    /// Counted exponential backoff (in `yield_now` calls) before retrying
    /// after the given failed attempt.
    pub fn backoff_yields(&self, attempt: u32) -> u32 {
        1u32 << attempt.min(10)
    }

    /// How many `yield_now` calls rank `rank` burns at its `op_index`-th
    /// operation boundary; `0` means no stall.
    pub fn stall_yields(&self, rank: usize, op_index: u64) -> u32 {
        if self.cfg.max_stall_yields == 0
            || self.unit(D_STALL, rank as u64, op_index, 0) >= self.cfg.stall_prob
        {
            return 0;
        }
        1 + (self.hash(D_STALL ^ 0x80, rank as u64, op_index, 0) % self.cfg.max_stall_yields as u64)
            as u32
    }

    /// Whether the progress worker for `(rank, channel)` dies after
    /// completing its `task_index`-th task (it is restarted transparently).
    pub fn kill_worker(&self, rank: usize, channel: usize, task_index: u64) -> bool {
        self.unit(D_KILL, rank as u64, channel as u64, task_index) < self.cfg.kill_worker_prob
    }
}

/// Shared fault counters for one world. Because every decision is a pure
/// hash over logical coordinates, the totals are themselves deterministic
/// for a given (seed, workload) — the chaos tests assert both that faults
/// actually fired and that the counts replay exactly.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Messages held in a sender outbox.
    pub delayed: AtomicU64,
    /// Messages transmitted twice.
    pub duplicated: AtomicU64,
    /// Send attempts dropped (each implies one retry).
    pub dropped: AtomicU64,
    /// Operation-boundary stalls taken.
    pub stalls: AtomicU64,
    /// Progress workers killed and restarted.
    pub workers_killed: AtomicU64,
    /// Messages that arrived ahead of sequence and were buffered.
    pub reordered: AtomicU64,
    /// Duplicate arrivals discarded by the receiver.
    pub dups_discarded: AtomicU64,
}

impl ChaosStats {
    /// Plain-value snapshot of the counters.
    pub fn snapshot(&self) -> ChaosSnapshot {
        ChaosSnapshot {
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            workers_killed: self.workers_killed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            dups_discarded: self.dups_discarded.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`ChaosStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSnapshot {
    /// See [`ChaosStats::delayed`].
    pub delayed: u64,
    /// See [`ChaosStats::duplicated`].
    pub duplicated: u64,
    /// See [`ChaosStats::dropped`].
    pub dropped: u64,
    /// See [`ChaosStats::stalls`].
    pub stalls: u64,
    /// See [`ChaosStats::workers_killed`].
    pub workers_killed: u64,
    /// See [`ChaosStats::reordered`].
    pub reordered: u64,
    /// See [`ChaosStats::dups_discarded`].
    pub dups_discarded: u64,
}

impl ChaosSnapshot {
    /// Total injected faults (excluding receiver-side repair counters).
    pub fn total_injected(&self) -> u64 {
        self.delayed + self.duplicated + self.dropped + self.stalls + self.workers_killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = ChaosConfig::aggressive(42).plan();
        let b = ChaosConfig::aggressive(42).plan();
        for seq in 0..500 {
            assert_eq!(a.delay_depth(0, 1, seq), b.delay_depth(0, 1, seq));
            assert_eq!(a.duplicate(1, 0, seq), b.duplicate(1, 0, seq));
            assert_eq!(a.drop_attempt(0, 1, seq, 0), b.drop_attempt(0, 1, seq, 0));
            assert_eq!(a.stall_yields(2, seq), b.stall_yields(2, seq));
            assert_eq!(a.kill_worker(1, 0, seq), b.kill_worker(1, 0, seq));
        }
    }

    #[test]
    fn seeds_change_decisions() {
        let a = ChaosConfig::aggressive(1).plan();
        let b = ChaosConfig::aggressive(2).plan();
        let differ = (0..500).any(|seq| {
            a.delay_depth(0, 1, seq) != b.delay_depth(0, 1, seq)
                || a.duplicate(0, 1, seq) != b.duplicate(0, 1, seq)
        });
        assert!(differ, "different seeds must give different fault plans");
    }

    #[test]
    fn off_config_injects_nothing() {
        let p = ChaosConfig::off(7).plan();
        for seq in 0..200 {
            assert_eq!(p.delay_depth(0, 1, seq), 0);
            assert!(!p.duplicate(0, 1, seq));
            assert!(!p.drop_attempt(0, 1, seq, 0));
            assert_eq!(p.stall_yields(0, seq), 0);
            assert!(!p.kill_worker(0, 0, seq));
        }
    }

    #[test]
    fn aggressive_config_actually_fires() {
        let p = ChaosConfig::aggressive(3).plan();
        let delays = (0..400).filter(|&s| p.delay_depth(0, 1, s) > 0).count();
        let dups = (0..400).filter(|&s| p.duplicate(0, 1, s)).count();
        let drops = (0..400).filter(|&s| p.drop_attempt(0, 1, s, 0)).count();
        assert!(delays > 40, "delays fired only {delays}/400");
        assert!(dups > 20, "duplicates fired only {dups}/400");
        assert!(drops > 30, "drops fired only {drops}/400");
    }

    #[test]
    fn delay_depth_is_bounded() {
        let p = ChaosConfig::aggressive(11).plan();
        for seq in 0..1000 {
            assert!(p.delay_depth(0, 1, seq) <= p.config().max_delay);
        }
    }

    #[test]
    fn final_attempt_never_drops() {
        let p = ChaosConfig::aggressive(5).plan();
        let max = p.config().max_retries;
        for seq in 0..500 {
            assert!(!p.drop_attempt(0, 1, seq, max));
        }
    }

    #[test]
    fn snapshot_totals() {
        let s = ChaosStats::default();
        s.delayed.store(2, Ordering::Relaxed);
        s.dropped.store(3, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.total_injected(), 5);
        assert_eq!(snap, s.snapshot());
    }
}
