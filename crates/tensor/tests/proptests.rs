//! Property-based tests for the tensor substrate.

use dlrm_tensor::blocked::{
    largest_divisor_at_most, Blocked, BlockedActivations, BlockedWeights, Blocking,
};
use dlrm_tensor::util::partition_range;
use dlrm_tensor::Matrix;
use proptest::prelude::*;

/// A (dimension, block) pair where block divides dimension.
fn dim_and_block(max_blocks: usize, max_block: usize) -> impl Strategy<Value = (usize, usize)> {
    (1..=max_block, 1..=max_blocks).prop_map(|(b, nb)| (b * nb, b))
}

/// Every element of `w` at its `index_of` in `packed`, and every
/// `block(i, j)` the panel at the grid's offset, where a GEMM pass reads it:
/// `down()` apart down a block column, `panel_len()` apart along a block row.
fn index_and_blocks_match<R>(packed: &Blocked<R>, w: &Matrix) {
    let (k, c) = w.shape();
    for r in 0..k {
        for cc in 0..c {
            prop_assert_eq!(packed.as_slice()[packed.index_of(r, cc)], w[(r, cc)]);
        }
    }
    let g = packed.grid();
    for i in 0..g.gr {
        for j in 0..g.gc {
            let at = g.offset(i, j);
            prop_assert_eq!(at, g.offset(0, j) + i * g.down());
            prop_assert_eq!(at, g.offset(i, 0) + j * g.panel_len());
            let block = packed.block(i, j);
            prop_assert_eq!(block.as_ptr(), packed.block_ptr(i, j));
            prop_assert_eq!(block.as_ptr(), packed.as_slice()[at..].as_ptr());
            prop_assert_eq!(block.len(), g.panel_len());
        }
    }
}

proptest! {
    #[test]
    fn blocked_weights_round_trip(
        ((k, bk), (c, bc)) in (dim_and_block(4, 8), dim_and_block(4, 8)),
        seed in any::<u64>(),
    ) {
        let mut rng = dlrm_tensor::init::seeded_rng(seed, 0);
        let w = dlrm_tensor::init::uniform(k, c, -1.0, 1.0, &mut rng);
        let blk = Blocking { bn: 1, bc, bk };
        let packed = BlockedWeights::pack(&w, blk);
        let unpacked = packed.unpack();
        prop_assert_eq!(unpacked.as_slice(), w.as_slice());
    }

    #[test]
    fn blocked_activations_round_trip(
        ((c, bc), (n, bn)) in (dim_and_block(4, 8), dim_and_block(4, 8)),
        seed in any::<u64>(),
    ) {
        let mut rng = dlrm_tensor::init::seeded_rng(seed, 1);
        let x = dlrm_tensor::init::uniform(c, n, -1.0, 1.0, &mut rng);
        let packed = BlockedActivations::pack(&x, bc, bn);
        let unpacked = packed.unpack();
        prop_assert_eq!(unpacked.as_slice(), x.as_slice());
    }

    #[test]
    fn blocked_index_matches_pack(
        ((k, bk), (c, bc)) in (dim_and_block(3, 6), dim_and_block(3, 6)),
        activations in any::<bool>(),
    ) {
        let w = Matrix::from_fn(k, c, |r, cc| (r * c + cc) as f32);
        // The same `bk × bc` windows of the same matrix, in either role.
        if activations {
            index_and_blocks_match(&BlockedActivations::pack(&w, bk, bc), &w);
        } else {
            index_and_blocks_match(&BlockedWeights::pack(&w, Blocking { bn: 1, bc, bk }), &w);
        }
    }

    #[test]
    fn transpose_involution(r in 1usize..12, c in 1usize..12, seed in any::<u64>()) {
        let mut rng = dlrm_tensor::init::seeded_rng(seed, 2);
        let m = dlrm_tensor::init::uniform(r, c, -10.0, 10.0, &mut rng);
        let tt = m.transposed().transposed();
        prop_assert_eq!(tt.as_slice(), m.as_slice());
    }

    #[test]
    fn partition_is_disjoint_cover(n in 0usize..500, parts in 1usize..33) {
        let mut count = vec![0u8; n];
        let mut prev_end = 0;
        for i in 0..parts {
            let r = partition_range(n, parts, i);
            prop_assert_eq!(r.start, prev_end, "ranges must be contiguous");
            prev_end = r.end;
            for j in r {
                count[j] += 1;
            }
        }
        prop_assert_eq!(prev_end, n);
        prop_assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn largest_divisor_properties(n in 1usize..2000, cap in 1usize..128) {
        let d = largest_divisor_at_most(n, cap);
        prop_assert!(d >= 1 && d <= cap.min(n));
        prop_assert_eq!(n % d, 0);
        // maximality: no larger divisor <= cap
        for bigger in (d + 1)..=cap.min(n) {
            prop_assert!(n % bigger != 0);
        }
    }

    #[test]
    fn axpy_matches_scalar_model(
        len in 1usize..64,
        alpha in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        let mut rng = dlrm_tensor::init::seeded_rng(seed, 3);
        let a = dlrm_tensor::init::uniform(1, len, -1.0, 1.0, &mut rng);
        let b = dlrm_tensor::init::uniform(1, len, -1.0, 1.0, &mut rng);
        let mut y = a.clone();
        y.axpy(alpha, &b);
        for i in 0..len {
            prop_assert_eq!(y.as_slice()[i], a.as_slice()[i] + alpha * b.as_slice()[i]);
        }
    }
}
