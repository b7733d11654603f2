//! Equivalence of the Section III-A update strategies (plus `Bucketed`)
//! against [`UpdateStrategy::Reference`] on *adversarial* index sets — the
//! distributions where the parallel strategies actually race: hot rows,
//! all-duplicates, empty bags, indices clustered inside one thread's row
//! range, and degenerate tables — across several thread counts (including
//! one that does not divide the table evenly), and under every forced
//! SIMD tier available at runtime.
//!
//! On top of that, the `to_bits` wall of the bag-level kernels the train
//! step runs: the register-resident gather ([`forward`] /
//! [`forward_serial`]) against a per-row gather, and the single-entry fused
//! [`backward_update`] against the unfused `backward` + `update`, for every
//! row width that changes the tile walk, every team size and every tier.
//! CI runs this file by name in release mode, so a kernel edit that moves
//! bits — or a lost input check — fails here.

use dlrm_kernels::embedding::rowops::{self, available_isas};
use dlrm_kernels::embedding::{
    backward, backward_update, forward, forward_serial, update, BagPlan, UpdateStrategy,
};
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_kernels::ThreadPool;
use dlrm_tensor::assert_allclose;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::Matrix;

const THREADS: [usize; 3] = [1, 4, 7];

/// The ISA override is process-global and tests run on parallel threads:
/// tests that force a tier take turns, so each really runs the tier it
/// names. (Tests that force nothing do not care — all tiers are bitwise
/// identical, which is what this file asserts.)
fn force_isa_turn() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; there is no state behind it.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A bag layout plus the table geometry it indexes.
struct Case {
    name: &'static str,
    m: usize,
    e: usize,
    indices: Vec<u32>,
    offsets: Vec<usize>,
}

/// The adversarial index sets: each one maximizes a different failure mode
/// (write contention, lock convoying, ownership imbalance, empty work).
fn adversarial_cases() -> Vec<Case> {
    let mut cases = Vec::new();

    // Hot rows: 200 lookups over a 64-row table, 90% of them hitting rows
    // 0..4 (Zipf-like skew — the paper's motivating access pattern).
    {
        let mut rng = seeded_rng(71, 0);
        let mut indices = Vec::new();
        let mut offsets = vec![0usize];
        use rand::Rng;
        for _ in 0..50 {
            for _ in 0..4 {
                let hot = rng.gen_range(0u32..100) < 90;
                indices.push(if hot {
                    rng.gen_range(0u32..4)
                } else {
                    rng.gen_range(4u32..64)
                });
            }
            offsets.push(indices.len());
        }
        cases.push(Case {
            name: "hot-rows",
            m: 64,
            e: 16,
            indices,
            offsets,
        });
    }

    // All-duplicates: every lookup in every bag is the same row — maximum
    // contention, and the reduction order must still match Reference.
    cases.push(Case {
        name: "all-duplicates",
        m: 8,
        e: 8,
        indices: vec![5; 48],
        offsets: (0..=12).map(|b| b * 4).collect(),
    });

    // Empty bags interleaved with full ones (bag 0, 2, 4, ... are empty).
    {
        let mut indices = Vec::new();
        let mut offsets = vec![0usize];
        for bag in 0..16 {
            if bag % 2 == 1 {
                for k in 0..3u32 {
                    indices.push((bag as u32 * 3 + k) % 20);
                }
            }
            offsets.push(indices.len());
        }
        cases.push(Case {
            name: "empty-bags",
            m: 20,
            e: 12,
            indices,
            offsets,
        });
    }

    // Empty index list: zero lookups across 5 bags — nothing may change.
    cases.push(Case {
        name: "empty-list",
        m: 10,
        e: 4,
        indices: vec![],
        offsets: vec![0; 6],
    });

    // Single-row table: every thread's owned range but one is empty under
    // RaceFree, and every lookup collides under the others.
    cases.push(Case {
        name: "single-row",
        m: 1,
        e: 6,
        indices: vec![0; 30],
        offsets: (0..=10).map(|b| b * 3).collect(),
    });

    // Clustered in one thread's range: a 256-row table where every lookup
    // lands in rows 0..8 — under the row-range partition one bucket owns
    // *all* the work (worst-case load imbalance for RaceFree/Bucketed).
    {
        let mut rng = seeded_rng(72, 0);
        use rand::Rng;
        let indices: Vec<u32> = (0..240).map(|_| rng.gen_range(0u32..8)).collect();
        cases.push(Case {
            name: "clustered-one-range",
            m: 256,
            e: 16,
            indices,
            offsets: (0..=60).map(|b| b * 4).collect(),
        });
    }

    // P = 1: every bag is one lookup (the compute-bound configs), with
    // repeats across bags.
    cases.push(Case {
        name: "p-one",
        m: 50,
        e: 8,
        indices: (0..40u32).map(|i| (i * 13) % 50 / 2).collect(),
        offsets: (0..=40).collect(),
    });

    // Single-row bags between longer ones, the long one past the prefetch
    // distance.
    cases.push(Case {
        name: "single-row-bags",
        m: 31,
        e: 8,
        indices: (0..47u32).map(|i| (i * 11 + 5) % 31).collect(),
        offsets: vec![0, 1, 2, 22, 23, 23, 46, 47],
    });

    cases
}

#[test]
fn all_strategies_match_reference_on_adversarial_bags() {
    for case in adversarial_cases() {
        let ns = *case.offsets.last().unwrap();
        let mut rng = seeded_rng(5, 9);
        let w0 = uniform(case.m, case.e, -1.0, 1.0, &mut rng);
        let dw = uniform(ns.max(1), case.e, -1.0, 1.0, &mut rng);
        let dw = Matrix::from_slice(ns, case.e, &dw.as_slice()[..ns * case.e]);
        let alpha = -0.03f32;

        let ref_pool = ThreadPool::new(1);
        let mut want = w0.clone();
        update(
            &ref_pool,
            UpdateStrategy::Reference,
            &mut want,
            &dw,
            &case.indices,
            alpha,
        );

        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            for strat in [
                UpdateStrategy::AtomicXchg,
                UpdateStrategy::Rtm,
                UpdateStrategy::RaceFree,
                UpdateStrategy::Bucketed,
            ] {
                let mut got = w0.clone();
                update(&pool, strat, &mut got, &dw, &case.indices, alpha);
                assert_allclose(
                    got.as_slice(),
                    want.as_slice(),
                    1e-5,
                    &format!("{strat} on {} with {threads} threads", case.name),
                );
            }
            // RaceFree and Bucketed preserve index-list application order
            // per row, so they must be *bit*-identical, not merely close.
            for strat in [UpdateStrategy::RaceFree, UpdateStrategy::Bucketed] {
                let mut got = w0.clone();
                update(&pool, strat, &mut got, &dw, &case.indices, alpha);
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{strat} must be bit-exact on {} with {threads} threads",
                    case.name
                );
            }
        }
    }
}

/// The SIMD row primitives keep all tiers bitwise identical (vector mul +
/// vector add — never FMA), so every strategy must agree with the scalar
/// Reference under every *forced* tier too. Only tiers the host actually
/// supports are exercised; forcing stays inside this single test so the
/// global override never races another test.
#[test]
fn strategies_agree_under_every_forced_isa_tier() {
    let _turn = force_isa_turn();
    let case = &adversarial_cases()[0]; // hot-rows
    let ns = *case.offsets.last().unwrap();
    let mut rng = seeded_rng(7, 3);
    let w0 = uniform(case.m, case.e, -1.0, 1.0, &mut rng);
    let dw = uniform(ns, case.e, -1.0, 1.0, &mut rng);
    let alpha = -0.03f32;

    // Scalar-tier reference, computed once.
    set_isa_override(Some(dlrm_kernels::gemm::micro::Isa::Scalar));
    let ref_pool = ThreadPool::new(1);
    let mut want = w0.clone();
    update(
        &ref_pool,
        UpdateStrategy::Reference,
        &mut want,
        &dw,
        &case.indices,
        alpha,
    );

    for isa in available_isas() {
        set_isa_override(Some(isa));
        let pool = ThreadPool::new(4);
        for strat in [UpdateStrategy::RaceFree, UpdateStrategy::Bucketed] {
            let mut got = w0.clone();
            update(&pool, strat, &mut got, &dw, &case.indices, alpha);
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "{strat} under forced {isa:?} must match the scalar reference bitwise"
            );
        }
        for strat in [UpdateStrategy::AtomicXchg, UpdateStrategy::Rtm] {
            let mut got = w0.clone();
            update(&pool, strat, &mut got, &dw, &case.indices, alpha);
            assert_allclose(
                got.as_slice(),
                want.as_slice(),
                1e-5,
                &format!("{strat} under forced {isa:?}"),
            );
        }
    }
    set_isa_override(None);
}

/// Row widths that hit every tile shape of both vector tiers (see
/// `rowops`): below one vector, a masked tail alone and after a tile, exact
/// multiples, more than one 8-vector tile.
const WIDTHS: [usize; 8] = [1, 3, 16, 17, 64, 80, 128, 200];

/// Team sizes of the bag-level wall: serial, the benchmark's two, one that
/// divides nothing evenly, and more threads than some tables have rows.
const TEAMS: [usize; 4] = [1, 2, 3, 8];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The register-resident gather must equal, bit for bit, the per-row gather
/// it replaced — zero the output row, then one `rowops::accumulate` per
/// lookup — computed on the scalar tier.
#[test]
fn gather_is_bitwise_the_per_row_gather_on_every_tier_width_and_team() {
    let _turn = force_isa_turn();
    let pools: Vec<ThreadPool> = TEAMS.iter().map(|&t| ThreadPool::new(t)).collect();
    for case in adversarial_cases() {
        let n = case.offsets.len() - 1;
        for e in WIDTHS {
            let w = uniform(case.m, e, -1.0, 1.0, &mut seeded_rng(8, e as u64));
            let mut want = Matrix::zeros(n, e);
            for bag in 0..n {
                for &ind in &case.indices[case.offsets[bag]..case.offsets[bag + 1]] {
                    rowops::accumulate(Isa::Scalar, want.row_mut(bag), w.row(ind as usize));
                }
            }
            for isa in available_isas() {
                set_isa_override(Some(isa));
                // Pre-filled with garbage: every output row must be written.
                let mut got = Matrix::from_fn(n, e, |_, _| f32::NAN);
                forward_serial(&w, &case.indices, &case.offsets, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "serial {isa:?} e={e} {}",
                    case.name
                );
                for pool in &pools {
                    let mut got = Matrix::from_fn(n, e, |_, _| f32::NAN);
                    forward(pool, &w, &case.indices, &case.offsets, &mut got);
                    let t = pool.num_threads();
                    assert_eq!(bits(&got), bits(&want), "{isa:?} e={e} T={t} {}", case.name);
                }
            }
        }
    }
    set_isa_override(None);
}

/// The single-entry fused kernel against the unfused reference — materialize
/// `dW[NS][E]`, then the scalar single-threaded Algorithm 3. `Reference`,
/// `RaceFree` and `Bucketed` keep each row's application order, so they
/// must match bitwise at every team size; the CAS and lock strategies do on
/// one thread and are merely close on several.
#[test]
fn backward_update_is_bitwise_the_unfused_reference_on_every_tier_width_and_team() {
    let _turn = force_isa_turn();
    let pools: Vec<ThreadPool> = TEAMS.iter().map(|&t| ThreadPool::new(t)).collect();
    let alpha = -0.05f32;
    for case in adversarial_cases() {
        let n = case.offsets.len() - 1;
        let ns = case.indices.len();
        for e in WIDTHS {
            let mut rng = seeded_rng(6, e as u64);
            let w0 = uniform(case.m, e, -1.0, 1.0, &mut rng);
            let dy = uniform(n, e, -1.0, 1.0, &mut rng);

            set_isa_override(Some(Isa::Scalar));
            let mut dw = Matrix::zeros(ns, e);
            backward(&pools[0], &dy, &case.offsets, &mut dw);
            let mut want = w0.clone();
            update(
                &pools[0],
                UpdateStrategy::Reference,
                &mut want,
                &dw,
                &case.indices,
                alpha,
            );

            for isa in available_isas() {
                set_isa_override(Some(isa));
                for pool in &pools {
                    let t = pool.num_threads();
                    // One plan across strategies: only `Bucketed` may use it.
                    let mut plan = BagPlan::new();
                    for strat in UpdateStrategy::ALL {
                        let mut got = w0.clone();
                        backward_update(
                            pool,
                            strat,
                            &mut got,
                            &dy,
                            &case.indices,
                            &case.offsets,
                            alpha,
                            &mut plan,
                        );
                        let what = format!("{strat} {isa:?} e={e} T={t} {}", case.name);
                        let ordered =
                            !matches!(strat, UpdateStrategy::AtomicXchg | UpdateStrategy::Rtm);
                        if ordered || t == 1 {
                            assert_eq!(bits(&got), bits(&want), "{what}");
                        } else {
                            assert_allclose(got.as_slice(), want.as_slice(), 1e-5, &what);
                        }
                    }
                }
            }
        }
    }
    set_isa_override(None);
}

/// The kernels address table rows through raw pointers, so the public
/// entries must reject a bad lookup list themselves — with a message, in
/// release builds too (CI runs this file with `--release`).
mod rejects_malformed_bags {
    use super::*;

    const M: usize = 10;

    fn table() -> Matrix {
        Matrix::zeros(M, 4)
    }

    #[test]
    #[should_panic(expected = "index 10 out of table bounds (10 rows)")]
    fn forward_out_of_range_index() {
        let mut out = Matrix::zeros(2, 4);
        forward(
            &ThreadPool::new(2),
            &table(),
            &[3, 10, 1],
            &[0, 2, 3],
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "out of table bounds")]
    fn forward_serial_out_of_range_index() {
        let mut out = Matrix::zeros(1, 4);
        forward_serial(&table(), &[u32::MAX], &[0, 1], &mut out);
    }

    #[test]
    #[should_panic(expected = "offsets must be non-decreasing")]
    fn forward_serial_non_monotone_offsets() {
        let mut out = Matrix::zeros(3, 4);
        forward_serial(&table(), &[1, 2, 3], &[0, 2, 1, 3], &mut out);
    }

    #[test]
    fn backward_update_out_of_range_index_every_strategy() {
        for strat in UpdateStrategy::ALL {
            let mut w = table();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                backward_update(
                    &ThreadPool::new(2),
                    strat,
                    &mut w,
                    &Matrix::zeros(2, 4),
                    &[3, 9, 10],
                    &[0, 2, 3],
                    -0.1,
                    &mut BagPlan::new(),
                )
            }));
            let msg = *caught
                .expect_err("a row past the table must panic")
                .downcast::<String>()
                .expect("panic message");
            assert!(msg.contains("out of table bounds"), "{strat}: {msg}");
            assert!(w.as_slice().iter().all(|&v| v == 0.0), "{strat} wrote");
        }
    }

    #[test]
    #[should_panic(expected = "offsets must be non-decreasing")]
    fn backward_update_non_monotone_offsets() {
        backward_update(
            &ThreadPool::new(2),
            UpdateStrategy::RaceFree,
            &mut table(),
            &Matrix::zeros(3, 4),
            &[1, 2, 3],
            &[0, 2, 1, 3],
            -0.1,
            &mut BagPlan::new(),
        );
    }

    #[test]
    #[should_panic(expected = "out of table bounds")]
    fn unfused_update_out_of_range_index() {
        let dw = Matrix::zeros(1, 4);
        update(
            &ThreadPool::new(2),
            UpdateStrategy::RaceFree,
            &mut table(),
            &dw,
            &[M as u32],
            -0.1,
        );
    }
}

#[test]
fn empty_index_list_leaves_table_untouched() {
    let w0 = Matrix::from_fn(10, 4, |r, c| (r * 4 + c) as f32);
    let dw = Matrix::zeros(0, 4);
    for threads in THREADS {
        let pool = ThreadPool::new(threads);
        for strat in UpdateStrategy::ALL {
            let mut w = w0.clone();
            update(&pool, strat, &mut w, &dw, &[], 1.0);
            assert_eq!(
                w.as_slice(),
                w0.as_slice(),
                "{strat} with {threads} threads"
            );
        }
    }
}
