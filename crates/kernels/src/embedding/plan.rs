//! `DedupPlan` — unique-row extraction over a lookup list, with a fan-out
//! map back to the original slots.
//!
//! BagPipe's observation is that under Zipf-shaped traffic the same hot
//! rows appear many times within (and across) nearby batches, so a
//! transfer plan should ship each **unique** row once and fan it out
//! locally. This plan computes, in one O(NS) pass with grow-only
//! epoch-marked scratch, the unique rows of a lookup list in
//! **first-appearance order** plus `fanout[slot] → unique index` so a
//! gather over the originals can be reproduced bitwise from the deduped
//! set (rows are copied verbatim; summation order per bag is unchanged).
//!
//! First-appearance order matters: it is a pure function of the index
//! list, so two ranks walking the same (deterministic) global batch
//! stream derive identical send/receive layouts without exchanging any
//! metadata — the property the distributed prefetch path builds on.

/// The unique rows of one lookup list and the fan-out back to its slots.
#[derive(Default)]
pub struct DedupPlan {
    /// Unique rows of the last build, in first-appearance order.
    uniques: Vec<u32>,
    /// Original lookup slot → index into `uniques`.
    fanout: Vec<u32>,
    /// Epoch marks per table row (grow-only, sized to the largest table
    /// seen). `seen[row] == epoch` ⇔ row already emitted this build.
    seen: Vec<u32>,
    /// Position of `row` in `uniques`, valid only when `seen[row] == epoch`.
    upos: Vec<u32>,
    /// Current epoch; bumping it invalidates all marks in O(1).
    epoch: u32,
}

impl DedupPlan {
    /// An empty plan; [`DedupPlan::build`] sizes all buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deduplicates `indices` over an `m`-row table. Reuses scratch across
    /// builds (grow-only); after warm-up a rebuild performs no allocations
    /// as long as `m` and the lookup count do not exceed prior highs.
    pub fn build(&mut self, indices: &[u32], m: usize) {
        debug_assert!(indices.iter().all(|&i| (i as usize) < m));
        if self.seen.len() < m {
            self.seen.resize(m, 0);
            self.upos.resize(m, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: hard-reset the marks (once per 2^32 builds).
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.uniques.clear();
        self.fanout.clear();
        for &ind in indices {
            let row = ind as usize;
            if self.seen[row] != epoch {
                self.seen[row] = epoch;
                self.upos[row] = self.uniques.len() as u32;
                self.uniques.push(ind);
            }
            self.fanout.push(self.upos[row]);
        }
    }

    /// Unique rows of the last build, in first-appearance order.
    #[inline]
    pub fn uniques(&self) -> &[u32] {
        &self.uniques
    }

    /// Original slot → index into [`DedupPlan::uniques`].
    #[inline]
    pub fn fanout(&self) -> &[u32] {
        &self.fanout
    }

    /// Bytes of iteration-persistent scratch held by the plan.
    pub fn scratch_bytes(&self) -> usize {
        (self.uniques.capacity()
            + self.fanout.capacity()
            + self.seen.capacity()
            + self.upos.capacity())
            * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_dedup(indices: &[u32], m: usize, plan: &mut DedupPlan) {
        plan.build(indices, m);
        assert_eq!(plan.fanout().len(), indices.len());
        // Round-trip: every slot maps back to its original row.
        for (s, &ind) in indices.iter().enumerate() {
            assert_eq!(plan.uniques()[plan.fanout()[s] as usize], ind, "slot {s}");
        }
        // Uniques are distinct and in first-appearance order.
        let mut first = Vec::new();
        for &ind in indices {
            if !first.contains(&ind) {
                first.push(ind);
            }
        }
        assert_eq!(plan.uniques(), &first[..]);
    }

    #[test]
    fn dedup_round_trips_and_preserves_first_appearance_order() {
        let mut plan = DedupPlan::new();
        check_dedup(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3], 10, &mut plan);
        check_dedup(&[7, 7, 7, 7], 8, &mut plan); // single unique row
        check_dedup(&[], 16, &mut plan); // empty batch
        check_dedup(
            &(0..200u32).map(|i| i % 3).collect::<Vec<_>>(),
            64,
            &mut plan,
        );
    }

    #[test]
    fn dedup_rebuild_reuses_buffers() {
        let mut plan = DedupPlan::new();
        let big: Vec<u32> = (0..500u32).map(|i| i % 40).collect();
        plan.build(&big, 40);
        let cap = plan.scratch_bytes();
        for k in 0..10u32 {
            let small: Vec<u32> = (0..100u32).map(|i| (i + k) % 40).collect();
            check_dedup(&small, 40, &mut plan);
        }
        assert_eq!(plan.scratch_bytes(), cap, "rebuild must not grow scratch");
    }
}
