//! # dlrm-topology — interconnect models of the two test beds
//!
//! Section V of the paper describes two machines:
//!
//! * an 8-socket shared-memory node whose sockets form a **twisted
//!   hypercube** of UPI links ([`hypercube::TwistedHypercube8`], Fig. 3) —
//!   3 links per socket, 12 unique links of ≈22 GB/s, every peer reachable
//!   in ≤2 hops;
//! * a 64-socket cluster wired as a **2:1 pruned fat-tree** of 100G
//!   Omni-Path ([`fattree::PrunedFatTree`], Fig. 4) — 16 dual-socket nodes
//!   per leaf switch, two leaves under one root with half bandwidth going
//!   up.
//!
//! Both implement [`Interconnect`], the graph-level interface the cluster
//! simulator queries: hop counts, per-link bandwidths, and the effective
//! bandwidths seen by ring (allreduce) and pairwise (alltoall) collective
//! schedules.
//!
//! [`placement`] holds the *placement* maps layered on top of the wiring:
//! [`OwnershipMap`] (table → shard/rank, shared by the distributed trainer
//! and the sharded serving engine) and [`CorePlacement`] (shard worker
//! team → host cores).

#![forbid(unsafe_code)]

pub mod fattree;
pub mod hypercube;
pub mod placement;

pub use fattree::PrunedFatTree;
pub use hypercube::TwistedHypercube8;
pub use placement::{CorePlacement, OwnershipMap};

/// Seconds, bytes-per-second — all cost math is in SI units.
pub type Seconds = f64;
/// Bandwidth in bytes per second.
pub type Bps = f64;

/// A socket-level interconnect.
pub trait Interconnect {
    /// Number of sockets (ranks).
    fn nranks(&self) -> usize;

    /// Hop count between two sockets (0 for self).
    fn hops(&self, a: usize, b: usize) -> usize;

    /// One-way latency between two sockets in seconds.
    fn latency(&self, a: usize, b: usize) -> Seconds;

    /// Bandwidth of the narrowest link on the path `a → b`, bytes/s.
    fn path_bandwidth(&self, a: usize, b: usize) -> Bps;

    /// Effective per-rank bandwidth sustained by a ring schedule over the
    /// first `ranks` sockets (each rank talks only to ring neighbours).
    fn ring_bandwidth(&self, ranks: usize) -> Bps;

    /// Effective per-rank bandwidth sustained by a pairwise alltoall over
    /// the first `ranks` sockets, accounting for multi-hop traffic and
    /// shared up-links.
    fn alltoall_bandwidth(&self, ranks: usize) -> Bps;

    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

/// Breadth-first hop counts over an adjacency list — shared by both
/// topologies' constructors.
pub(crate) fn bfs_hops(adj: &[Vec<usize>], src: usize) -> Vec<usize> {
    let n = adj.len();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}
