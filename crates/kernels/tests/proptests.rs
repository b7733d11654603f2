//! Property-based tests: optimized kernels vs. naive references under
//! arbitrary shapes, bag structures and index distributions.

use dlrm_kernels::embedding::{self, BagPlan, DedupPlan, UpdateStrategy};
use dlrm_kernels::gemm;
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::{assert_allclose, Matrix};
use proptest::prelude::*;

/// Arbitrary bag structure over a table of `m` rows: a vector of bag sizes
/// plus a flat index list.
fn bags(m: usize) -> impl Strategy<Value = (Vec<u32>, Vec<usize>)> {
    prop::collection::vec(prop::collection::vec(0..m as u32, 0..8), 1..24).prop_map(|bag_lists| {
        let mut offsets = vec![0usize];
        let mut indices = vec![];
        for bag in bag_lists {
            indices.extend(bag);
            offsets.push(indices.len());
        }
        (indices, offsets)
    })
}

/// Pools every bag twice — directly from the table via `forward_serial`,
/// and from a "shipped once" unique-row set fanned back out — and demands
/// the results be bitwise identical. This is the exact contract the
/// distributed prefetch path relies on: deduping the transfer must not
/// perturb a single bit of the gather.
fn dedup_roundtrip_case(indices: &[u32], offsets: &[usize], m: usize, e: usize, seed: u64) {
    let isa = dlrm_kernels::gemm::micro::detect_isa();
    let mut rng = seeded_rng(seed, 6);
    let w = uniform(m, e, -1.0, 1.0, &mut rng);
    let n = offsets.len() - 1;
    let mut want = Matrix::zeros(n, e);
    embedding::forward_serial(&w, indices, offsets, &mut want);

    let mut plan = DedupPlan::new();
    plan.build(indices, m);
    // Ship each unique row once (verbatim copy)…
    let mut shipped = Matrix::zeros(plan.uniques().len().max(1), e);
    for (u, &row) in plan.uniques().iter().enumerate() {
        shipped.row_mut(u).copy_from_slice(w.row(row as usize));
    }
    // …then fan out locally, pooling each bag from the deduped set in the
    // original accumulate order.
    let mut got = Matrix::zeros(n, e);
    for bag in 0..n {
        let out = got.row_mut(bag);
        out.fill(0.0);
        for s in offsets[bag]..offsets[bag + 1] {
            embedding::rowops::accumulate(isa, out, shipped.row(plan.fanout()[s] as usize));
        }
    }
    assert_eq!(got.as_slice(), want.as_slice(), "dedup round-trip drifted");
}

#[test]
fn dedup_roundtrip_adversarial_bags() {
    // Duplicate-heavy: every bag hammers the same two hot rows.
    let indices: Vec<u32> = (0..64u32).map(|i| i % 2).collect();
    let offsets: Vec<usize> = (0..=16).map(|b| b * 4).collect();
    dedup_roundtrip_case(&indices, &offsets, 8, 5, 11);
    // Empty bags interleaved with occupied ones.
    dedup_roundtrip_case(&[3, 3, 7], &[0, 0, 2, 2, 3, 3], 9, 3, 12);
    // Single unique row across the whole batch.
    dedup_roundtrip_case(&[4; 17], &[0, 6, 6, 11, 17], 6, 7, 13);
    // Empty batch.
    dedup_roundtrip_case(&[], &[0, 0], 4, 2, 14);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn embedding_forward_matches_reference(
        (indices, offsets) in bags(37),
        e in 1usize..24,
        seed in any::<u64>(),
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let mut rng = seeded_rng(seed, 0);
        let w = uniform(37, e, -1.0, 1.0, &mut rng);
        let n = offsets.len() - 1;
        let mut want = Matrix::zeros(n, e);
        embedding::forward_reference(&w, &indices, &offsets, &mut want);
        let mut got = Matrix::zeros(n, e);
        embedding::forward(&pool, &w, &indices, &offsets, &mut got);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn embedding_updates_agree_across_strategies(
        (indices, offsets) in bags(19),
        e in 1usize..16,
        seed in any::<u64>(),
        threads in 1usize..6,
    ) {
        let _ = &offsets;
        let pool = ThreadPool::new(threads);
        let mut rng = seeded_rng(seed, 1);
        let w0 = uniform(19, e, -1.0, 1.0, &mut rng);
        let ns = indices.len();
        let dw = uniform(ns.max(1), e, -1.0, 1.0, &mut rng);
        let dw = Matrix::from_slice(ns, e, &dw.as_slice()[..ns * e]);

        let mut want = w0.clone();
        embedding::update(&pool, UpdateStrategy::Reference, &mut want, &dw, &indices, -0.1);
        for strat in [
            UpdateStrategy::AtomicXchg,
            UpdateStrategy::Rtm,
            UpdateStrategy::RaceFree,
            UpdateStrategy::Bucketed,
        ] {
            let mut got = w0.clone();
            embedding::update(&pool, strat, &mut got, &dw, &indices, -0.1);
            assert_allclose(got.as_slice(), want.as_slice(), 1e-4, &format!("{strat}"));
        }
    }

    #[test]
    fn backward_update_is_bitwise_backward_then_reference_update(
        (indices, offsets) in bags(23),
        e in 1usize..40,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let pool = ThreadPool::new(threads);
        let mut rng = seeded_rng(seed, 2);
        let w0 = uniform(23, e, -1.0, 1.0, &mut rng);
        let n = offsets.len() - 1;
        let ns = indices.len();
        let dy = uniform(n, e, -1.0, 1.0, &mut rng);

        let mut dw = Matrix::zeros(ns, e);
        embedding::backward(&pool, &dy, &offsets, &mut dw);
        let mut want = w0.clone();
        embedding::update(&pool, UpdateStrategy::Reference, &mut want, &dw, &indices, -0.03);

        let mut plan = BagPlan::new();
        for strat in UpdateStrategy::ALL {
            let mut got = w0.clone();
            embedding::backward_update(
                &pool, strat, &mut got, &dy, &indices, &offsets, -0.03, &mut plan,
            );
            match strat {
                UpdateStrategy::AtomicXchg | UpdateStrategy::Rtm => {
                    assert_allclose(got.as_slice(), want.as_slice(), 1e-5, &format!("{strat}"))
                }
                _ => prop_assert_eq!(got.as_slice(), want.as_slice(), "{}", strat),
            }
        }
    }

    #[test]
    fn gather_is_bitwise_the_per_row_gather(
        (indices, offsets) in bags(29),
        e in 1usize..40,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let isa = dlrm_kernels::gemm::micro::detect_isa();
        let w = uniform(29, e, -1.0, 1.0, &mut seeded_rng(seed, 7));
        let n = offsets.len() - 1;
        let mut want = Matrix::zeros(n, e);
        for bag in 0..n {
            for &ind in &indices[offsets[bag]..offsets[bag + 1]] {
                embedding::rowops::accumulate(isa, want.row_mut(bag), w.row(ind as usize));
            }
        }
        let mut serial = Matrix::from_fn(n, e, |_, _| f32::NAN);
        embedding::forward_serial(&w, &indices, &offsets, &mut serial);
        let mut parallel = Matrix::from_fn(n, e, |_, _| f32::NAN);
        embedding::forward(&ThreadPool::new(threads), &w, &indices, &offsets, &mut parallel);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&serial), bits(&want));
        prop_assert_eq!(bits(&parallel), bits(&want));
    }

    #[test]
    fn dedup_fanout_reproduces_gather_bitwise(
        (indices, offsets) in bags(31),
        e in 1usize..16,
        seed in any::<u64>(),
    ) {
        dedup_roundtrip_case(&indices, &offsets, 31, e, seed);
    }

    #[test]
    fn par_gemm_matches_naive(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..20,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let pool = ThreadPool::new(threads);
        let mut rng = seeded_rng(seed, 3);
        let a = uniform(m, k, -1.0, 1.0, &mut rng);
        let b = uniform(k, n, -1.0, 1.0, &mut rng);
        let mut got = Matrix::zeros(m, n);
        gemm::par_gemm_nn(&pool, &a, &b, &mut got);
        let mut want = Matrix::zeros(m, n);
        gemm::gemm_nn(&a, &b, &mut want);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-4, "par_gemm_nn");
    }

    #[test]
    fn blocked_fc_matches_naive_for_random_blockings(
        kb in 1usize..4, cb in 1usize..4, nb in 1usize..4,
        bk in prop::sample::select(vec![1usize, 2, 8, 16]),
        bc in 1usize..9,
        bn in 1usize..9,
        seed in any::<u64>(),
    ) {
        let pool = ThreadPool::new(3);
        let (k, c, n) = (kb * bk, cb * bc, nb * bn);
        let mut rng = seeded_rng(seed, 4);
        let w = uniform(k, c, -1.0, 1.0, &mut rng);
        let x = uniform(c, n, -1.0, 1.0, &mut rng);
        let blk = dlrm_tensor::Blocking { bn, bc, bk };

        let wb = dlrm_tensor::BlockedWeights::pack(&w, blk);
        let xb = dlrm_tensor::BlockedActivations::pack(&x, bc, bn);
        let mut yb = dlrm_tensor::BlockedActivations::zeros(k, n, bk, bn);
        gemm::fc_forward(&pool, &wb, &xb, &mut yb);

        let mut want = Matrix::zeros(k, n);
        gemm::gemm_nn(&w, &x, &mut want);
        let got = yb.unpack();
        assert_allclose(got.as_slice(), want.as_slice(), 1e-4, "blocked fwd");
    }

    #[test]
    fn bce_gradient_descent_reduces_loss(
        logits in prop::collection::vec(-3.0f32..3.0, 1..32),
        seed in any::<u64>(),
    ) {
        use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
        let mut rng = seeded_rng(seed, 5);
        let targets: Vec<f32> = (0..logits.len())
            .map(|_| if rand::Rng::gen_bool(&mut rng, 0.5) { 1.0 } else { 0.0 })
            .collect();
        let before = bce_with_logits_loss(&logits, &targets);
        let mut grad = vec![0.0f32; logits.len()];
        bce_with_logits_backward(&logits, &targets, &mut grad);
        let stepped: Vec<f32> = logits.iter().zip(&grad).map(|(&z, &g)| z - 1.0 * g).collect();
        let after = bce_with_logits_loss(&stepped, &targets);
        prop_assert!(after <= before + 1e-9, "loss rose: {before} -> {after}");
    }
}
