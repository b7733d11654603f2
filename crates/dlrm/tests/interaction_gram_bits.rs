//! Bitwise wall for the interaction's Gram kernel.
//!
//! The oracle below is the scalar loop `Interaction::forward` ran before
//! the kernel existed (commit `f505707`), kept here verbatim: per sample
//! and per pair, `iter().sum()` over the `E` products — a chain that
//! starts at `-0.0`, rounds every product, then adds it, in `k` order.
//! Every forced ISA tier, pool width and shape must reproduce it
//! `to_bits`, forward and backward, including the sign of a zero dot: an
//! all-zero row (an empty bag) against a negative row sums `-0.0`s and
//! must come out `-0.0`.
//!
//! Its own test binary: the ISA override is process-global.

use dlrm::interaction::{output_dim, Interaction};
use dlrm::layers::Execution;
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::set_isa_override;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::Matrix;

/// The pre-kernel forward: `D × N` from `bottom` (`E × N`) and `tables`
/// (`N × E` each).
fn oracle_forward(bottom: &Matrix, tables: &[Matrix]) -> Matrix {
    let (e, n) = bottom.shape();
    let f = tables.len() + 1;
    let mut vecs = vec![bottom.transposed()];
    vecs.extend(tables.iter().cloned());
    let mut out = Matrix::zeros(output_dim(f, e), n);
    for s in 0..n {
        for k in 0..e {
            out[(k, s)] = vecs[0][(s, k)];
        }
        let mut row = e;
        for i in 1..f {
            let vi = vecs[i].row(s);
            for vj in &vecs[..i] {
                let dot: f32 = vi.iter().zip(vj.row(s)).map(|(&a, &b)| a * b).sum();
                out[(row, s)] = dot;
                row += 1;
            }
        }
    }
    out
}

/// The serial, element-indexed backward: `(d_bottom: E × N, d_tables)`.
fn oracle_backward(bottom: &Matrix, tables: &[Matrix], dout: &Matrix) -> (Matrix, Vec<Matrix>) {
    let (e, n) = bottom.shape();
    let f = tables.len() + 1;
    let mut vecs = vec![bottom.transposed()];
    vecs.extend(tables.iter().cloned());
    let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(n, e)).collect();
    for s in 0..n {
        for k in 0..e {
            grads[0][(s, k)] += dout[(k, s)];
        }
        let mut row = e;
        for i in 1..f {
            for j in 0..i {
                let g = dout[(row, s)];
                row += 1;
                if g == 0.0 {
                    continue;
                }
                for k in 0..e {
                    let (vik, vjk) = (vecs[i][(s, k)], vecs[j][(s, k)]);
                    grads[i][(s, k)] += g * vjk;
                    grads[j][(s, k)] += g * vik;
                }
            }
        }
    }
    let d_bottom = grads.remove(0).transposed();
    (d_bottom, grads)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Inputs with the rows that pin a zero dot's sign: table 0 is all zeros
/// on every third sample (an empty bag) and table 1 — the bottom vector
/// where there is one table only — all negative on the same samples.
fn inputs(e: usize, n: usize, tables: usize, seed: u64) -> (Matrix, Vec<Matrix>, Matrix) {
    let mut rng = seeded_rng(seed, 0);
    let mut bottom = uniform(e, n, -1.0, 1.0, &mut rng);
    let mut ts: Vec<Matrix> = (0..tables)
        .map(|_| uniform(n, e, -1.0, 1.0, &mut rng))
        .collect();
    for s in (0..n).step_by(3) {
        if let Some(t0) = ts.first_mut() {
            t0.row_mut(s).fill(0.0);
        }
        match ts.get_mut(1) {
            Some(t1) => t1.row_mut(s).iter_mut().for_each(|v| *v = -v.abs() - 0.5),
            None => (0..e).for_each(|k| bottom[(k, s)] = -bottom[(k, s)].abs() - 0.5),
        }
    }
    let mut dout = uniform(output_dim(tables + 1, e), n, -1.0, 1.0, &mut rng);
    dout[(0, 0)] = -0.0; // passthrough: 0.0 + -0.0 is +0.0
    if tables > 0 {
        dout[(e, n / 2)] = 0.0; // a pair the backward skips
    }
    (bottom, ts, dout)
}

#[test]
fn every_tier_shape_and_team_reproduces_the_scalar_chain() {
    let execs = [
        ("reference", Execution::Reference),
        ("T=1", Execution::optimized(1)),
        ("T=2", Execution::optimized(2)),
        ("T=3", Execution::optimized(3)),
    ];
    let mut negative_zero_dots = 0usize;
    for isa in available_isas() {
        set_isa_override(Some(isa));
        for (c, &n) in [1usize, 13, 16, 17, 32, 100, 256].iter().enumerate() {
            for &tables in &[0usize, 1, 4, 8, 26] {
                for &e in &[1usize, 3, 16, 64, 80] {
                    let seed = (c * 1000 + tables * 100 + e) as u64;
                    let (bottom, ts, dout) = inputs(e, n, tables, seed);
                    let want = oracle_forward(&bottom, &ts);
                    let (want_b, want_t) = oracle_backward(&bottom, &ts, &dout);
                    if tables > 0 {
                        // Pair (1, 0) with one table, else pair (2, 1).
                        let zero_dot = want[(if tables == 1 { e } else { e + 2 }, 0)];
                        assert_eq!(zero_dot.to_bits(), (-0.0f32).to_bits(), "oracle zero dot");
                        negative_zero_dots += 1;
                    }
                    for (team, exec) in &execs {
                        let label = format!("{isa:?} N={n} tables={tables} E={e} {team}");
                        let mut inter = Interaction::new(e);
                        let got = inter.forward(exec, &bottom, &ts);
                        assert_eq!(got.shape(), want.shape(), "{label}: shape");
                        assert_eq!(bits(&got), bits(&want), "{label}: forward");
                        let (got_b, got_t) = inter.backward(&dout);
                        assert_eq!(bits(&got_b), bits(&want_b), "{label}: d_bottom");
                        assert_eq!(got_t.len(), want_t.len(), "{label}: d_tables");
                        for (t, (g, w)) in got_t.iter().zip(&want_t).enumerate() {
                            assert_eq!(g.shape(), w.shape(), "{label}: d_table {t} shape");
                            assert_eq!(bits(g), bits(w), "{label}: d_table {t}");
                        }
                    }
                }
            }
        }
    }
    set_isa_override(None);
    assert!(negative_zero_dots > 0, "the -0.0 case never ran");
}

/// One `Interaction` reused across shrinking and growing batches: the
/// retained panels are resized and overwritten, never read stale.
#[test]
fn reused_interaction_follows_the_batch_shape() {
    let (e, tables) = (16, 4);
    for exec in [Execution::Reference, Execution::optimized(2)] {
        let mut inter = Interaction::new(e);
        for (round, &n) in [32usize, 5, 100, 1, 17, 32].iter().enumerate() {
            let (bottom, ts, dout) = inputs(e, n, tables, 77 + round as u64);
            let got = inter.forward(&exec, &bottom, &ts);
            assert_eq!(bits(&got), bits(&oracle_forward(&bottom, &ts)), "N={n}");
            let (want_b, want_t) = oracle_backward(&bottom, &ts, &dout);
            let (got_b, got_t) = inter.backward(&dout);
            assert_eq!(bits(&got_b), bits(&want_b), "N={n}: d_bottom");
            for (g, w) in got_t.iter().zip(&want_t) {
                assert_eq!(bits(g), bits(w), "N={n}: d_table");
            }
        }
    }
}
