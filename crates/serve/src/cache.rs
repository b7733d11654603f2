//! Fixed-capacity, frequency-aware hot-row embedding cache.
//!
//! "Dissecting Embedding Bag Performance in DLRM Inference" (PAPERS.md)
//! shows the embedding-bag gather dominates DLRM inference and is bound by
//! cache residency, and BagPipe observes that under Zipf-shaped traffic a
//! cache holding the tiny popularity head captures the bulk of all lookups.
//! This cache exploits exactly that: a compact `capacity × E` row store
//! (contiguous, so the hot working set stays hardware-cache-resident
//! regardless of how the full table scatters) fronted by a row-id → slot
//! map.
//!
//! Replacement is CLOCK with frequency aging — a fixed-capacity
//! approximation of LFU: every hit bumps the slot's frequency counter;
//! a miss evicts the first slot whose counter has decayed to zero, halving
//! counters as the clock hand passes. Admission is gated by a TinyLFU-style
//! doorkeeper: an aged count of recent lookups per row, and a missed row
//! only enters the (full) cache once it has been seen twice in the current
//! aging window. The Zipf tail is dominated by
//! one-shot rows; filtering them keeps the resident set pinned to the
//! popularity head instead of churning it. Everything is O(1) amortized
//! per lookup.
//!
//! Rows are stored verbatim (bit-for-bit copies of the table rows), so a
//! row served from the cache is bitwise the backing table's.
//!
//! **Standalone.** No engine consults this cache: in front of local DRAM
//! the cached gather lost to the direct one on every measured shape
//! (DESIGN.md §11). The type stays, with its tests, for the benchmark's
//! `serve.cache_get_ns` probe and `bench_serving`'s hit-rate sweep.

use dlrm_kernels::embedding::RowStore;
use dlrm_tensor::Matrix;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for the cache's two `u32`-keyed maps: one multiply and one fold
/// instead of the default `SipHash`, which a lookup pays twice per row
/// (doorkeeper, then slot map). The fold brings the product's well-mixed
/// high half down to the low bits the table indexes by; its top bits,
/// which the table uses as tags, are mixed already.
///
/// Row ids come from requests, and a fixed hash can be made to collide.
/// What that buys is bounded: ids are validated against the table before
/// they get here, and both maps are capped (slots; one aging window), so
/// crafted ids lengthen probes inside a small map and change no answer.
#[derive(Default)]
struct RowIdHasher(u64);

impl Hasher for RowIdHasher {
    fn write_u32(&mut self, row: u32) {
        let h = u64::from(row).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("RowIdHasher hashes u32 row ids only");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type RowIdMap<V> = HashMap<u32, V, BuildHasherDefault<RowIdHasher>>;

/// Hit/miss instrumentation. Counters are cumulative; [`CacheStats::reset`]
/// zeroes them (used to exclude cold-start warm-up from measured hit rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to touch the backing table.
    pub misses: u64,
    /// Missed rows admitted into the cache.
    pub insertions: u64,
    /// Admissions that displaced a resident row.
    pub evictions: u64,
    /// Missed rows the doorkeeper declined to admit (served from the
    /// table without entering the cache).
    pub rejections: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when no traffic yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Zeroes all counters.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

/// Sentinel for an unoccupied slot (re-exported from the shared store so
/// existing policy code reads unchanged).
const EMPTY: u32 = RowStore::EMPTY_ROW;

/// A fixed-capacity cache of hot embedding rows (see module docs).
///
/// Storage (the compact `capacity × e` slot buffer and the slot → row
/// back-map) lives in the shared [`RowStore`]; this type owns only the
/// replacement and admission *policy* — CLOCK frequency aging, the
/// doorkeeper sketch, and the row → slot map.
pub struct HotRowCache {
    /// Compact row store, `capacity × e`, plus the slot → row back-map.
    store: RowStore,
    /// Slot → frequency counter (CLOCK aging state).
    freq: Vec<u32>,
    /// Table row → slot.
    map: RowIdMap<u32>,
    /// CLOCK hand.
    hand: usize,
    /// Doorkeeper: exact per-row lookup counts for the recent window,
    /// halved (dropping zeroes) every [`Self::age_window`] lookups so the
    /// counts track *recent* popularity. Bounded by the window length.
    recent: RowIdMap<u8>,
    /// Lookups between doorkeeper agings.
    age_window: usize,
    /// Lookups since the last aging.
    ops_since_age: usize,
    /// Instrumentation.
    pub stats: CacheStats,
}

impl HotRowCache {
    /// A cache of `capacity` rows of width `e`. `capacity` must be ≥ 1.
    pub fn new(capacity: usize, e: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be >= 1");
        assert!(capacity < EMPTY as usize, "cache capacity must fit in u32");
        // A window of 16 lookups per slot is TinyLFU's usual
        // sample-to-capacity ratio.
        HotRowCache {
            store: RowStore::with_slots(capacity, e),
            freq: vec![0; capacity],
            map: RowIdMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            hand: 0,
            recent: RowIdMap::default(),
            age_window: capacity * 16,
            ops_since_age: 0,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in rows.
    pub fn capacity(&self) -> usize {
        self.store.slots()
    }

    /// Rows currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up table row `row`, admitting it from `table` on a miss if the
    /// doorkeeper approves. Returns the row (from the cache when resident,
    /// straight from `table` otherwise) — always bit-identical to
    /// `table.row(row)`.
    pub fn get_or_admit<'a>(&'a mut self, row: u32, table: &'a Matrix) -> &'a [f32] {
        let est = self.doorkeeper_bump(row);
        if let Some(&slot) = self.map.get(&row) {
            let slot = slot as usize;
            self.stats.hits += 1;
            self.freq[slot] = self.freq[slot].saturating_add(1);
            return self.store.row(slot);
        }
        self.stats.misses += 1;
        // Doorkeeper: while slots are free, admit everything (cold start);
        // once full, only rows the sketch has seen at least twice this
        // window may displace a resident row. One-shot Zipf-tail rows fail
        // the gate and are served straight from the table.
        if self.map.len() == self.capacity() && est < 2 {
            self.stats.rejections += 1;
            return table.row(row as usize);
        }
        self.stats.insertions += 1;
        let slot = self.find_victim();
        let old = self.store.row_id(slot);
        if old != EMPTY {
            self.stats.evictions += 1;
            self.map.remove(&old);
        }
        self.freq[slot] = 1;
        self.map.insert(row, slot as u32);
        self.store.set(slot, row, table.row(row as usize));
        self.store.row(slot)
    }

    /// Records a lookup of `row` in the doorkeeper and returns the updated
    /// frequency count. Counts are halved once per aging window (entries
    /// reaching zero are dropped), so they track *recent* popularity and
    /// the map stays bounded by the window length.
    fn doorkeeper_bump(&mut self, row: u32) -> u8 {
        self.ops_since_age += 1;
        if self.ops_since_age >= self.age_window {
            self.ops_since_age = 0;
            self.recent.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
        let c = self.recent.entry(row).or_insert(0);
        *c = c.saturating_add(1);
        *c
    }

    /// CLOCK sweep: returns the first empty or frequency-0 slot, halving
    /// counters as the hand passes (so sustained popularity is required to
    /// stay resident). Bounded at two full sweeps — after halving every
    /// counter once, a second pass must find a zero unless every counter
    /// was ≥ 2, in which case the hand position is evicted outright.
    fn find_victim(&mut self) -> usize {
        let cap = self.store.slots();
        for _ in 0..cap * 2 {
            let slot = self.hand;
            self.hand = (self.hand + 1) % cap;
            if self.store.row_id(slot) == EMPTY || self.freq[slot] == 0 {
                return slot;
            }
            self.freq[slot] /= 2;
        }
        let slot = self.hand;
        self.hand = (self.hand + 1) % cap;
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(m: usize, e: usize) -> Matrix {
        Matrix::from_fn(m, e, |r, c| (r * 100 + c) as f32)
    }

    #[test]
    fn cached_rows_are_bitwise_copies() {
        let t = table(16, 4);
        let mut c = HotRowCache::new(4, 4);
        for row in [3u32, 7, 3, 11, 3] {
            assert_eq!(c.get_or_admit(row, &t), t.row(row as usize));
        }
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.misses, 3);
    }

    #[test]
    fn capacity_is_respected() {
        let t = table(64, 2);
        let mut c = HotRowCache::new(8, 2);
        for row in 0..64u32 {
            let _ = c.get_or_admit(row, &t);
        }
        assert!(c.len() <= 8);
        // Cold start fills the 8 slots; each later row is a one-shot the
        // doorkeeper declines, so no resident row is ever displaced.
        assert_eq!(c.stats.insertions, 8);
        assert_eq!(c.stats.evictions, 0);
        assert_eq!(c.stats.rejections, 64 - 8);
    }

    #[test]
    fn doorkeeper_admits_on_second_sighting() {
        let t = table(64, 2);
        let mut c = HotRowCache::new(2, 2);
        let _ = c.get_or_admit(1, &t); // cold fill
        let _ = c.get_or_admit(2, &t); // cold fill — cache now full
        assert_eq!(c.get_or_admit(9, &t), t.row(9)); // first sighting: rejected
        assert_eq!(c.stats.rejections, 1);
        assert_eq!(c.len(), 2);
        let _ = c.get_or_admit(9, &t); // second sighting: admitted
        assert_eq!(c.stats.insertions, 3);
        assert_eq!(c.stats.evictions, 1);
        c.stats.reset();
        let _ = c.get_or_admit(9, &t);
        assert_eq!(c.stats.hits, 1, "row 9 must now be resident");
    }

    #[test]
    fn hot_row_survives_cold_churn() {
        let t = table(256, 2);
        let mut c = HotRowCache::new(4, 2);
        // Interleave a hot row with a stream of one-shot cold rows: the hot
        // row's counter stays high, so the churn evicts only cold slots.
        for i in 0..200u32 {
            let _ = c.get_or_admit(0, &t);
            let _ = c.get_or_admit(1 + (i % 255), &t);
        }
        c.stats.reset();
        let _ = c.get_or_admit(0, &t);
        assert_eq!(c.stats.hits, 1, "hot row must stay resident");
    }

    #[test]
    fn single_slot_cache_works() {
        let t = table(8, 3);
        let mut c = HotRowCache::new(1, 3);
        assert_eq!(c.get_or_admit(5, &t), t.row(5));
        assert_eq!(c.get_or_admit(5, &t), t.row(5));
        // Row 2 is rejected on first sighting, admitted on the second —
        // the returned data is the correct table row either way.
        assert_eq!(c.get_or_admit(2, &t), t.row(2));
        assert_eq!(c.get_or_admit(2, &t), t.row(2));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 3);
        assert_eq!(c.stats.rejections, 1);
        assert_eq!(c.stats.insertions, 2);
    }

    /// The policy's decisions on a fixed skewed stream, recorded with the
    /// default-`SipHash` maps before [`RowIdHasher`] replaced them: the
    /// hasher changes where a key sits in the map, never what the map
    /// answers, so every counter must repeat exactly.
    #[test]
    fn counters_on_a_fixed_stream_do_not_depend_on_the_hasher() {
        let rows = 4096u64;
        let t = table(rows as usize, 4);
        let mut c = HotRowCache::new(64, 4);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // 24 uniform bits, cubed: a popularity head over a long tail.
            let u = x >> 40;
            let cubed = (((u * u) >> 24) * u) >> 24;
            let row = (cubed * rows) >> 24;
            assert_eq!(c.get_or_admit(row as u32, &t), t.row(row as usize));
        }
        assert_eq!(
            c.stats,
            CacheStats {
                hits: 38_974,
                misses: 161_026,
                insertions: 40_309,
                evictions: 40_245,
                rejections: 120_717,
            }
        );
    }

    #[test]
    fn hit_rate_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        s.reset();
        assert_eq!(s, CacheStats::default());
    }
}
