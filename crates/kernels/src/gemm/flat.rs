//! Flat parallel GEMM — the "large multi-threaded GEMM call" tier.
//!
//! This models what PyTorch does for `nn.Linear`: hand the whole row-major
//! 2-D problem to one multi-threaded GEMM. It is cache-blocked and
//! vectorizes, but performs no layout transformation and parallelizes only
//! the output-row dimension — exactly the structure whose efficiency
//! Figure 5 measures at ~61% of peak vs. ~72% for the blocked
//! batch-reduce formulation.

use crate::threadpool::ThreadPool;
use crate::SendMutPtr;
use dlrm_tensor::Matrix;

/// Cache block along the reduction dimension: 256 floats = 1 KiB per row,
/// keeps a block of B rows resident in L1/L2 while A streams.
const KC: usize = 256;

/// `C += A · B` for row-major `A (m×k)`, `B (k×n)`, `C (m×n)`, parallel
/// over rows of `C`.
pub fn par_gemm_nn(pool: &ThreadPool, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "par_gemm_nn inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm_nn output shape mismatch");
    let c_base = SendMutPtr(c.as_mut_slice().as_mut_ptr());

    pool.parallel_for(m, |_tid, rows| {
        for pc in (0..ka).step_by(KC) {
            let pend = (pc + KC).min(ka);
            for i in rows.clone() {
                let a_row = &a.row(i)[pc..pend];
                // SAFETY: each row i is owned by exactly one thread.
                let c_row = unsafe { std::slice::from_raw_parts_mut(c_base.get().add(i * n), n) };
                for (off, &a_ip) in a_row.iter().enumerate() {
                    let b_row = b.row(pc + off);
                    for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                        *c_ij += a_ip * b_pj;
                    }
                }
            }
        }
    });
}

/// `C += Aᵀ · B` for row-major `A (k×m)`, `B (k×n)`, `C (m×n)`, parallel
/// over rows of `C`.
pub fn par_gemm_tn(pool: &ThreadPool, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (ka, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "par_gemm_tn inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm_tn output shape mismatch");
    let c_base = SendMutPtr(c.as_mut_slice().as_mut_ptr());

    pool.parallel_for(m, |_tid, rows| {
        for pc in (0..ka).step_by(KC) {
            let pend = (pc + KC).min(ka);
            for i in rows.clone() {
                // SAFETY: each row i is owned by exactly one thread.
                let c_row = unsafe { std::slice::from_raw_parts_mut(c_base.get().add(i * n), n) };
                for p in pc..pend {
                    let a_pi = a[(p, i)];
                    let b_row = b.row(p);
                    for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                        *c_ij += a_pi * b_pj;
                    }
                }
            }
        }
    });
}

/// `C += A · Bᵀ` for row-major `A (m×k)`, `B (n×k)`, `C (m×n)`, parallel
/// over rows of `C`.
pub fn par_gemm_nt(pool: &ThreadPool, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, ka) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(ka, kb, "par_gemm_nt inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm_nt output shape mismatch");
    let c_base = SendMutPtr(c.as_mut_slice().as_mut_ptr());

    pool.parallel_for(m, |_tid, rows| {
        for i in rows {
            let a_row = a.row(i);
            // SAFETY: each row i is owned by exactly one thread.
            let c_row = unsafe { std::slice::from_raw_parts_mut(c_base.get().add(i * n), n) };
            for (j, c_ij) in c_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *c_ij += acc;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive;
    use dlrm_tensor::assert_allclose;
    use dlrm_tensor::init::{seeded_rng, uniform};

    fn rand(r: usize, c: usize, seed: u64) -> Matrix {
        uniform(r, c, -1.0, 1.0, &mut seeded_rng(seed, 0))
    }

    #[test]
    fn nn_matches_naive() {
        let pool = ThreadPool::new(4);
        let (a, b) = (rand(37, 300, 1), rand(300, 29, 2));
        let mut got = Matrix::zeros(37, 29);
        par_gemm_nn(&pool, &a, &b, &mut got);
        let mut want = Matrix::zeros(37, 29);
        naive::gemm_nn(&a, &b, &mut want);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-4, "par nn");
    }

    #[test]
    fn nn_crosses_kc_boundary() {
        // k=700 > 2*KC exercises multiple reduction blocks.
        let pool = ThreadPool::new(2);
        let (a, b) = (rand(5, 700, 3), rand(700, 11, 4));
        let mut got = Matrix::zeros(5, 11);
        par_gemm_nn(&pool, &a, &b, &mut got);
        let mut want = Matrix::zeros(5, 11);
        naive::gemm_nn(&a, &b, &mut want);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-4, "kc blocks");
    }

    #[test]
    fn tn_matches_naive() {
        let pool = ThreadPool::new(3);
        let (a, b) = (rand(64, 17, 5), rand(64, 23, 6));
        let mut got = Matrix::zeros(17, 23);
        par_gemm_tn(&pool, &a, &b, &mut got);
        let mut want = Matrix::zeros(17, 23);
        naive::gemm_tn(&a, &b, &mut want);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-4, "par tn");
    }

    #[test]
    fn nt_matches_naive() {
        let pool = ThreadPool::new(3);
        let (a, b) = (rand(19, 45, 7), rand(31, 45, 8));
        let mut got = Matrix::zeros(19, 31);
        par_gemm_nt(&pool, &a, &b, &mut got);
        let mut want = Matrix::zeros(19, 31);
        naive::gemm_nt(&a, &b, &mut want);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-4, "par nt");
    }

    #[test]
    fn accumulation_preserved() {
        let pool = ThreadPool::new(2);
        let a = rand(4, 4, 9);
        let b = rand(4, 4, 10);
        let mut got = Matrix::from_fn(4, 4, |_, _| 1.0);
        par_gemm_nn(&pool, &a, &b, &mut got);
        let mut want = Matrix::from_fn(4, 4, |_, _| 1.0);
        naive::gemm_nn(&a, &b, &mut want);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-4, "accumulate");
    }
}
