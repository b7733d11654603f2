//! Property-based tests: the embedding exchange is a lossless permutation
//! for arbitrary world shapes, and every strategy produces identical
//! tensors.

use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::CommWorld;
use dlrm_dist::exchange::{backward_exchange, forward_exchange, tables_of, ExchangeStrategy};
use dlrm_tensor::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_exchange_delivers_correct_slices(
        nranks in 1usize..5,
        extra_tables in 0usize..6,
        local_n in 1usize..4,
        e in 1usize..5,
    ) {
        let num_tables = nranks + extra_tables; // >= nranks so every rank owns >= 1
        let strategy = ExchangeStrategy::Alltoall;
        let gn = local_n * nranks;
        let out = CommWorld::run(nranks, |comm| {
            let me = comm.rank();
            let outputs: Vec<Matrix> = tables_of(num_tables, nranks, me)
                .into_iter()
                .map(|t| Matrix::from_fn(gn, e, |r, c| (t * 10_000 + r * 10 + c) as f32))
                .collect();
            forward_exchange(
                strategy,
                &comm,
                None,
                &outputs,
                num_tables,
                local_n,
                e,
                WirePrecision::Fp32,
            )
        });
        for (rank, slices) in out.iter().enumerate() {
            prop_assert_eq!(slices.len(), num_tables);
            for (t, m) in slices.iter().enumerate() {
                for r in 0..local_n {
                    for c in 0..e {
                        let want = (t * 10_000 + (rank * local_n + r) * 10 + c) as f32;
                        prop_assert_eq!(m[(r, c)], want);
                    }
                }
            }
        }
    }

    #[test]
    fn forward_then_backward_is_identity(
        nranks in 1usize..5,
        extra_tables in 0usize..5,
        local_n in 1usize..4,
        e in 1usize..4,
    ) {
        let num_tables = nranks + extra_tables;
        let gn = local_n * nranks;
        let ok = CommWorld::run(nranks, |comm| {
            let me = comm.rank();
            let outputs: Vec<Matrix> = tables_of(num_tables, nranks, me)
                .into_iter()
                .map(|t| Matrix::from_fn(gn, e, |r, c| ((t + 1) * 1000 + r * e + c) as f32))
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
            outputs
                .iter()
                .zip(&back)
                .all(|(a, b)| a.as_slice() == b.as_slice())
        });
        prop_assert!(ok.into_iter().all(|b| b));
    }

    #[test]
    fn table_ownership_is_balanced(num_tables in 1usize..60, nranks in 1usize..16) {
        prop_assume!(nranks <= num_tables);
        let counts: Vec<usize> = (0..nranks)
            .map(|q| tables_of(num_tables, nranks, q).len())
            .collect();
        let (min, max) = (
            counts.iter().min().copied().unwrap(),
            counts.iter().max().copied().unwrap(),
        );
        prop_assert!(max - min <= 1, "round-robin must balance within 1: {counts:?}");
        prop_assert_eq!(counts.iter().sum::<usize>(), num_tables);
    }
}
