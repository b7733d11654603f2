//! Table-ownership and core-placement maps shared by the trainer and the
//! serving engine.
//!
//! The hybrid-parallel design (Section IV) partitions embedding tables
//! across ranks; the serving engine partitions the same tables across
//! in-process shards. Both used to hard-code the round-robin `t % n` rule
//! in their own corners — [`OwnershipMap`] extracts it into one explicit,
//! reusable mapping type so a future elastic reshard (rank set changes,
//! shard set changes) only has to swap the map, not chase modulo
//! arithmetic through two crates.
//!
//! [`CorePlacement`] is the companion compute map: which host cores each
//! shard's worker team should occupy. It is advisory — pinning is
//! best-effort at the thread-pool layer — but keeping it here means the
//! socket-topology crate owns *both* halves of placement: tables→shards
//! and shards→cores.

/// An explicit table → shard (or table → rank) ownership mapping.
///
/// The map is always a partition: every table has exactly one owner and
/// every owner's table list is ascending. [`OwnershipMap::round_robin`]
/// reproduces the trainer's historical `t % nshards` rule bit-for-bit;
/// [`OwnershipMap::from_owners`] accepts any explicit assignment (the hook
/// elastic resharding needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipMap {
    /// Table → owning shard.
    owners: Vec<usize>,
    /// Shard → owned tables, ascending.
    tables: Vec<Vec<usize>>,
}

impl OwnershipMap {
    /// The round-robin map: table `t` is owned by shard `t % nshards` —
    /// exactly the rule previously hard-coded in `dlrm-dist`.
    pub fn round_robin(num_tables: usize, nshards: usize) -> Self {
        assert!(nshards >= 1, "ownership map needs at least one shard");
        Self::from_owners((0..num_tables).map(|t| t % nshards).collect(), nshards)
    }

    /// The round-robin owner of table `t` without building a map — the
    /// allocation-free form for hot paths that only need one lookup.
    #[inline]
    pub fn round_robin_owner(t: usize, nshards: usize) -> usize {
        t % nshards
    }

    /// An arbitrary explicit assignment (`owners[t]` = owning shard).
    /// Panics if any owner is out of range.
    pub fn from_owners(owners: Vec<usize>, nshards: usize) -> Self {
        assert!(nshards >= 1, "ownership map needs at least one shard");
        let mut tables: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        for (t, &q) in owners.iter().enumerate() {
            assert!(q < nshards, "table {t} assigned to shard {q} >= {nshards}");
            tables[q].push(t);
        }
        OwnershipMap { owners, tables }
    }

    /// Number of tables in the map.
    pub fn num_tables(&self) -> usize {
        self.owners.len()
    }

    /// Number of shards (some may own no tables).
    pub fn num_shards(&self) -> usize {
        self.tables.len()
    }

    /// Owning shard of table `t`.
    #[inline]
    pub fn owner_of(&self, t: usize) -> usize {
        self.owners[t]
    }

    /// Tables owned by shard `q`, ascending.
    pub fn tables_of(&self, q: usize) -> &[usize] {
        &self.tables[q]
    }
}

/// Which host cores each shard's worker team should occupy.
///
/// The contiguous layout keeps a shard's workers on neighbouring cores
/// (shared L2/LLC slice on most parts) and spreads shards across the
/// machine; when the machine has fewer cores than workers the assignment
/// wraps (deliberate oversubscription rather than refusal, so the same
/// configuration runs on a laptop and a 2-socket server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePlacement {
    cores: Vec<Vec<usize>>,
}

impl CorePlacement {
    /// Places `nshards` teams of `workers_per_shard` on `host_cores` cores:
    /// worker `w` of shard `s` gets core `(s·W + w) mod host_cores`.
    pub fn contiguous(host_cores: usize, nshards: usize, workers_per_shard: usize) -> Self {
        assert!(host_cores >= 1, "placement needs at least one core");
        assert!(
            workers_per_shard >= 1,
            "placement needs at least one worker per shard"
        );
        let cores = (0..nshards)
            .map(|s| {
                (0..workers_per_shard)
                    .map(|w| (s * workers_per_shard + w) % host_cores)
                    .collect()
            })
            .collect();
        CorePlacement { cores }
    }

    /// Number of shard teams placed.
    pub fn num_shards(&self) -> usize {
        self.cores.len()
    }

    /// Core ids assigned to shard `s`'s workers, in worker order.
    pub fn shard_cores(&self, s: usize) -> &[usize] {
        &self.cores[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_a_partition_matching_the_modulo_rule() {
        for nshards in 1..=8 {
            for num_tables in 0..=13 {
                let map = OwnershipMap::round_robin(num_tables, nshards);
                assert_eq!(map.num_tables(), num_tables);
                assert_eq!(map.num_shards(), nshards);
                let mut seen = vec![false; num_tables];
                for q in 0..nshards {
                    let mut prev = None;
                    for &t in map.tables_of(q) {
                        assert_eq!(t % nshards, q, "modulo rule");
                        assert_eq!(map.owner_of(t), q);
                        assert_eq!(
                            OwnershipMap::round_robin_owner(t, nshards),
                            q,
                            "allocation-free form must agree"
                        );
                        assert!(prev.map_or(true, |p| p < t), "ascending");
                        prev = Some(t);
                        assert!(!seen[t], "table owned twice");
                        seen[t] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "every table owned");
            }
        }
    }

    #[test]
    fn explicit_owners_round_trip() {
        let map = OwnershipMap::from_owners(vec![2, 0, 2, 1], 3);
        assert_eq!(map.tables_of(0), &[1]);
        assert_eq!(map.tables_of(1), &[3]);
        assert_eq!(map.tables_of(2), &[0, 2]);
        // A shard may own nothing.
        let map = OwnershipMap::from_owners(vec![0, 0], 4);
        assert!(map.tables_of(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "assigned to shard")]
    fn out_of_range_owner_is_rejected() {
        let _ = OwnershipMap::from_owners(vec![0, 5], 2);
    }

    #[test]
    fn contiguous_placement_tiles_then_wraps() {
        let p = CorePlacement::contiguous(8, 3, 2);
        assert_eq!(p.shard_cores(0), &[0, 1]);
        assert_eq!(p.shard_cores(1), &[2, 3]);
        assert_eq!(p.shard_cores(2), &[4, 5]);
        // More workers than cores: wrap, never panic.
        let p = CorePlacement::contiguous(2, 3, 2);
        assert_eq!(p.shard_cores(0), &[0, 1]);
        assert_eq!(p.shard_cores(1), &[0, 1]);
        assert_eq!(p.shard_cores(2), &[0, 1]);
        assert_eq!(p.num_shards(), 3);
    }
}
