//! The dot-product feature interaction.
//!
//! The bottom-MLP output and the `S` embedding-bag outputs give `f = S+1`
//! feature vectors of length `E` per sample. The interaction emits the
//! bottom output itself (E values) concatenated with the strictly-lower
//! triangle of the `f×f` Gram matrix (`f(f−1)/2` pairwise dots) — "a self
//! dot product ... which translates to a batched matrix-matrix
//! multiplication as a key kernel" (Section II).

use crate::layers::Execution;
use dlrm_kernels::gemm::micro::{detect_isa, Isa};
use dlrm_kernels::interaction::{block_len, grad_block, gram_block, pack_block, transpose, BLOCK};
use dlrm_tensor::Matrix;
use std::ops::Range;

/// The interaction operator with its saved forward inputs.
pub struct Interaction {
    /// Embedding dimension `E`.
    pub emb_dim: usize,
    /// The `f` feature vectors of the last `forward` (0 is the bottom
    /// output), packed in blocks of [`BLOCK`] samples — the layout of
    /// [`dlrm_kernels::interaction`], one block per [`block_len`] floats.
    /// The Gram kernel reads them in `forward`, `backward` reads them
    /// again; retained across calls and overwritten by each.
    panels: Matrix,
    /// Vectors per sample in `panels` (`tables + 1`; 0 before any forward).
    num_vectors: usize,
    /// Batch size of the last `forward`.
    batch: usize,
    /// The execution `forward` ran on; `backward` splits samples over the
    /// same pool.
    exec: Execution,
}

/// The kernel tier an execution runs the interaction on: the reference
/// execution stays scalar end to end.
fn tier(exec: &Execution) -> Isa {
    match exec {
        Execution::Reference => Isa::Scalar,
        Execution::Optimized(_) => detect_isa(),
    }
}

/// Number of output features for `f` vectors of dim `e`.
pub fn output_dim(num_vectors: usize, e: usize) -> usize {
    e + num_vectors * (num_vectors - 1) / 2
}

impl Interaction {
    /// New interaction for embedding dimension `e`.
    pub fn new(e: usize) -> Self {
        Interaction {
            emb_dim: e,
            panels: Matrix::zeros(0, BLOCK),
            num_vectors: 0,
            batch: 0,
            exec: Execution::Reference,
        }
    }

    /// Forward: `bottom` is `E×N` (MLP convention), `tables` are `N×E`
    /// (embedding convention). Returns `D×N` for the top MLP — the only
    /// allocation of a warm call.
    ///
    /// On [`Execution::Optimized`] each block of [`BLOCK`] samples is
    /// packed and run through the Gram kernel of the detected ISA tier,
    /// blocks split over the pool. [`Execution::Reference`] computes every
    /// dot with the scalar per-sample loop — the chain the kernel must
    /// reproduce bit for bit — and packs (scalar tier) only for `backward`.
    pub fn forward(&mut self, exec: &Execution, bottom: &Matrix, tables: &[Matrix]) -> Matrix {
        let e = self.emb_dim;
        let n = bottom.cols();
        assert_eq!(bottom.rows(), e, "bottom output must have E features");
        for t in tables {
            assert_eq!(t.shape(), (n, e), "table output shape");
        }
        let f = tables.len() + 1;
        let blocks = n.div_ceil(BLOCK);
        let per_block = block_len(f, e);
        self.panels.resize_rows(blocks * per_block / BLOCK);
        self.num_vectors = f;
        self.batch = n;
        self.exec = exec.clone();

        let mut out = Matrix::zeros(output_dim(f, e), n);
        // Passthrough of the bottom vector: the first E rows, verbatim.
        out.as_mut_slice()[..e * n].copy_from_slice(bottom.as_slice());
        match exec.pool() {
            Some(pool) => {
                let isa = tier(exec);
                let panels = SendPtr(self.panels.as_mut_slice().as_mut_ptr());
                let dots = SendPtr(out.as_mut_slice()[e * n..].as_mut_ptr());
                pool.parallel_for(blocks, |_tid, range| {
                    for b in range {
                        // SAFETY: block `b`'s panel is `per_block` floats of
                        // `self.panels`; blocks are disjoint across threads.
                        let panel = unsafe {
                            let at = panels.get().add(b * per_block);
                            std::slice::from_raw_parts_mut(at, per_block)
                        };
                        pack_block(isa, bottom, tables, b, panel);
                        if f == 1 {
                            continue; // no pairs, no dot rows
                        }
                        let valid = (n - b * BLOCK).min(BLOCK);
                        // SAFETY: the dot rows are `n` wide, so lanes
                        // `..valid` at column `b · BLOCK` of each of the
                        // `f(f−1)/2` rows lie inside `out`; sample columns
                        // are disjoint across threads.
                        unsafe {
                            let at = dots.get().add(b * BLOCK);
                            gram_block(isa, panel, f, e, valid, at, n)
                        };
                    }
                });
            }
            None => {
                let blocks = self.panels.as_mut_slice().chunks_exact_mut(per_block);
                for (b, panel) in blocks.enumerate() {
                    pack_block(tier(exec), bottom, tables, b, panel);
                }
                for s in 0..n {
                    let vector = |v: usize, k: usize| match v {
                        0 => bottom[(k, s)],
                        _ => tables[v - 1][(s, k)],
                    };
                    // Lower-triangular pairwise dots.
                    let mut row = e;
                    for i in 1..f {
                        for j in 0..i {
                            out[(row, s)] = (0..e).map(|k| vector(i, k) * vector(j, k)).sum();
                            row += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Backward: returns `(d_bottom: E×N, d_tables: Vec<N×E>)`. Samples are
    /// independent, so blocks of them are split over the pool `forward` ran
    /// on; per element the pairs contribute in `forward`'s order, so the
    /// result does not depend on the split.
    pub fn backward(&self, dout: &Matrix) -> (Matrix, Vec<Matrix>) {
        let (e, f, n) = (self.emb_dim, self.num_vectors, self.batch);
        assert!(f >= 1, "backward before forward");
        assert_eq!(dout.shape(), (output_dim(f, e), n), "dout shape");
        let dout = dout.as_slice();
        let per_block = block_len(f, e);
        let isa = tier(&self.exec);

        let mut d_bottom = Matrix::zeros(e, n);
        let mut d_tables: Vec<Matrix> = (1..f).map(|_| Matrix::zeros(n, e)).collect();
        let bottom_base = SendPtr(d_bottom.as_mut_slice().as_mut_ptr());
        let table_bases: Vec<SendPtr> = d_tables
            .iter_mut()
            .map(|g| SendPtr(g.as_mut_slice().as_mut_ptr()))
            .collect();
        let run = |range: Range<usize>| {
            // One block's gradients, laid out like its panel.
            let mut grads = vec![0.0f32; per_block];
            for b in range {
                let s0 = b * BLOCK;
                let valid = (n - s0).min(BLOCK);
                let panel = &self.panels.as_slice()[b * per_block..(b + 1) * per_block];
                // Passthrough part: `0.0 + dout`, as the scalar `+=` into a
                // zeroed gradient computes it.
                grads.fill(0.0);
                for (k, g0) in grads[..e * BLOCK].chunks_exact_mut(BLOCK).enumerate() {
                    let d = &dout[k * n + s0..k * n + s0 + valid];
                    for (g0, d) in g0.iter_mut().zip(d) {
                        *g0 += d;
                    }
                }
                // Pairwise dots: d(vi·vj) flows vj into vi and vi into vj.
                if f > 1 {
                    // SAFETY: `dout` is `output_dim(f, e) × n` (asserted
                    // above), so lanes `..valid` at column `s0` of each
                    // pair row past row `e` lie inside it.
                    unsafe {
                        let pairs = dout.as_ptr().add(e * n + s0);
                        grad_block(isa, panel, f, e, valid, pairs, n, &mut grads)
                    };
                }
                for (k, g0) in grads[..e * BLOCK].chunks_exact(BLOCK).enumerate() {
                    // SAFETY: `d_bottom` is E×N; columns `s0..s0 + valid` of
                    // row `k` are this block's alone.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(bottom_base.get().add(k * n + s0), valid)
                    };
                    dst.copy_from_slice(&g0[..valid]);
                }
                for (t, base) in table_bases.iter().enumerate() {
                    // SAFETY: `d_tables[t]` is N×E; rows `s0..s0 + valid`
                    // are this block's alone.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(base.get().add(s0 * e), valid * e)
                    };
                    let src = &grads[(t + 1) * e * BLOCK..(t + 2) * e * BLOCK];
                    transpose(isa, src, BLOCK, e, valid, dst, e);
                }
            }
        };
        let blocks = n.div_ceil(BLOCK);
        match self.exec.pool() {
            None => run(0..blocks),
            Some(pool) => pool.parallel_for(blocks, |_tid, range| run(range)),
        }
        (d_bottom, d_tables)
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}
impl SendPtr {
    #[inline]
    fn get(self) -> *mut f32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_tensor::assert_allclose;
    use dlrm_tensor::init::{seeded_rng, uniform};

    /// The serial, element-indexed loop `backward` replaced; its bitwise
    /// reference.
    fn backward_reference(
        bottom: &Matrix,
        tables: &[Matrix],
        dout: &Matrix,
    ) -> (Matrix, Vec<Matrix>) {
        let (e, n) = bottom.shape();
        let mut saved = vec![bottom.transposed()];
        saved.extend(tables.iter().cloned());
        let f = saved.len();
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
                        let vik = saved[i][(s, k)];
                        let vjk = saved[j][(s, k)];
                        grads[i][(s, k)] += g * vjk;
                        grads[j][(s, k)] += g * vik;
                    }
                }
            }
        }
        let d_bottom = grads.remove(0).transposed();
        (d_bottom, grads)
    }

    #[test]
    fn output_dim_formula() {
        assert_eq!(output_dim(9, 64), 64 + 36); // Small config: S=8
        assert_eq!(output_dim(1, 4), 4); // no tables: passthrough only
    }

    #[test]
    fn forward_known_values() {
        let mut inter = Interaction::new(2);
        // One sample; bottom = [1, 2]; one table vector [3, 4].
        let bottom = Matrix::from_slice(2, 1, &[1.0, 2.0]);
        let table = Matrix::from_slice(1, 2, &[3.0, 4.0]);
        let out = inter.forward(&Execution::Reference, &bottom, &[table]);
        assert_eq!(out.shape(), (3, 1));
        assert_eq!(out.as_slice(), &[1.0, 2.0, 11.0]); // dot = 3 + 8
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = seeded_rng(1, 0);
        let (e, n, s) = (8, 13, 5);
        let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
        let tables: Vec<Matrix> = (0..s).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();

        let mut serial = Interaction::new(e);
        let y1 = serial.forward(&Execution::Reference, &bottom, &tables);
        let mut parallel = Interaction::new(e);
        let y2 = parallel.forward(&Execution::optimized(4), &bottom, &tables);
        assert_eq!(y1.as_slice(), y2.as_slice());
    }

    #[test]
    fn backward_is_bitwise_the_indexed_serial_loop() {
        let mut rng = seeded_rng(5, 0);
        let (e, n, s) = (11, 37, 4);
        let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
        let tables: Vec<Matrix> = (0..s).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();
        let mut dout = uniform(output_dim(s + 1, e), n, -1.0, 1.0, &mut rng);
        dout[(e + 2, 5)] = 0.0; // a pair the loop skips
        dout[(3, 7)] = -0.0; // passthrough: 0.0 + -0.0 is +0.0
        for exec in [
            Execution::Reference,
            Execution::optimized(1),
            Execution::optimized(3),
        ] {
            let mut inter = Interaction::new(e);
            let _ = inter.forward(&exec, &bottom, &tables);
            let (want_b, want_t) = backward_reference(&bottom, &tables, &dout);
            let (got_b, got_t) = inter.backward(&dout);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_b), bits(&want_b));
            for (g, w) in got_t.iter().zip(&want_t) {
                assert_eq!(bits(g), bits(w));
            }
        }
    }

    #[test]
    fn gradient_check() {
        let mut rng = seeded_rng(2, 0);
        let (e, n) = (3, 4);
        let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
        let tables: Vec<Matrix> = (0..2).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();

        let mut inter = Interaction::new(e);
        let out = inter.forward(&Execution::Reference, &bottom, &tables);
        // Loss = sum of outputs; dOut = ones.
        let dout = Matrix::from_fn(out.rows(), out.cols(), |_, _| 1.0);
        let (d_bottom, d_tables) = inter.backward(&dout);

        let h = 1e-3f32;
        let loss = |b: &Matrix, ts: &[Matrix]| -> f64 {
            let mut i2 = Interaction::new(e);
            i2.forward(&Execution::Reference, b, ts).sum()
        };
        // Check a few bottom entries.
        for (r, c) in [(0usize, 0usize), (2, 3)] {
            let mut b2 = bottom.clone();
            b2[(r, c)] += h;
            let lp = loss(&b2, &tables);
            b2[(r, c)] -= 2.0 * h;
            let lm = loss(&b2, &tables);
            let fd = ((lp - lm) / (2.0 * h as f64)) as f32;
            assert!(
                (d_bottom[(r, c)] - fd).abs() < 2e-2,
                "d_bottom[{r}][{c}] {} vs {}",
                d_bottom[(r, c)],
                fd
            );
        }
        // Check a table entry.
        let mut t2 = tables.to_vec();
        let orig = t2[1][(2, 1)];
        t2[1][(2, 1)] = orig + h;
        let lp = loss(&bottom, &t2);
        t2[1][(2, 1)] = orig - h;
        let lm = loss(&bottom, &t2);
        let fd = ((lp - lm) / (2.0 * h as f64)) as f32;
        assert!(
            (d_tables[1][(2, 1)] - fd).abs() < 2e-2,
            "d_table {} vs {}",
            d_tables[1][(2, 1)],
            fd
        );
    }

    #[test]
    fn backward_passthrough_only_when_no_tables() {
        let mut rng = seeded_rng(3, 0);
        let bottom = uniform(4, 3, -1.0, 1.0, &mut rng);
        let mut inter = Interaction::new(4);
        let out = inter.forward(&Execution::Reference, &bottom, &[]);
        assert_eq!(out.as_slice(), bottom.as_slice());
        let dout = uniform(4, 3, -1.0, 1.0, &mut rng);
        let (d_bottom, d_tables) = inter.backward(&dout);
        assert!(d_tables.is_empty());
        assert_allclose(d_bottom.as_slice(), dout.as_slice(), 1e-6, "passthrough");
    }
}
