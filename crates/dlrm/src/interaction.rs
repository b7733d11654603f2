//! The dot-product feature interaction.
//!
//! The bottom-MLP output and the `S` embedding-bag outputs give `f = S+1`
//! feature vectors of length `E` per sample. The interaction emits the
//! bottom output itself (E values) concatenated with the strictly-lower
//! triangle of the `f×f` Gram matrix (`f(f−1)/2` pairwise dots) — "a self
//! dot product ... which translates to a batched matrix-matrix
//! multiplication as a key kernel" (Section II).

use crate::layers::Execution;
use dlrm_tensor::Matrix;

/// The interaction operator with its saved forward inputs.
pub struct Interaction {
    /// Embedding dimension `E`.
    pub emb_dim: usize,
    /// Saved feature vectors: `f` matrices of shape `N×E` (index 0 is the
    /// transposed bottom output).
    saved: Vec<Matrix>,
    /// The execution `forward` ran on; `backward` splits samples over the
    /// same pool.
    exec: Execution,
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
            saved: Vec::new(),
            exec: Execution::Reference,
        }
    }

    /// Forward: `bottom` is `E×N` (MLP convention), `tables` are `N×E`
    /// (embedding convention). Returns `D×N` for the top MLP.
    pub fn forward(&mut self, exec: &Execution, bottom: &Matrix, tables: &[Matrix]) -> Matrix {
        let e = self.emb_dim;
        let n = bottom.cols();
        assert_eq!(bottom.rows(), e, "bottom output must have E features");
        for t in tables {
            assert_eq!(t.shape(), (n, e), "table output shape");
        }
        let f = tables.len() + 1;
        let d = output_dim(f, e);

        // Gather all vectors as N×E (bottom transposed once).
        let mut vecs = Vec::with_capacity(f);
        vecs.push(bottom.transposed());
        for t in tables {
            vecs.push(t.clone());
        }

        let mut out = Matrix::zeros(d, n);
        let compute_sample = |out_col: &mut dyn FnMut(usize, f32), s: usize| {
            // Passthrough of the bottom vector.
            #[allow(clippy::needless_range_loop)] // k maps output row -> feature
            for k in 0..e {
                out_col(k, vecs[0][(s, k)]);
            }
            // Lower-triangular pairwise dots.
            let mut row = e;
            #[allow(clippy::needless_range_loop)] // (i, j) are pair indices
            for i in 1..f {
                let vi = vecs[i].row(s);
                for j in 0..i {
                    let vj = vecs[j].row(s);
                    let dot: f32 = vi.iter().zip(vj).map(|(&a, &b)| a * b).sum();
                    out_col(row, dot);
                    row += 1;
                }
            }
        };

        match exec.pool() {
            None => {
                for s in 0..n {
                    compute_sample(&mut |r, v| out[(r, s)] = v, s);
                }
            }
            Some(pool) => {
                let base = SendPtr(out.as_mut_slice().as_mut_ptr());
                pool.parallel_for(n, |_tid, range| {
                    for s in range {
                        // SAFETY: sample columns are disjoint across threads.
                        compute_sample(&mut |r, v| unsafe { *base.get().add(r * n + s) = v }, s);
                    }
                });
            }
        }
        self.saved = vecs;
        self.exec = exec.clone();
        out
    }

    /// Backward: returns `(d_bottom: E×N, d_tables: Vec<N×E>)`. Samples are
    /// independent, so they are split over the pool `forward` ran on; per
    /// sample the pairs are visited in `forward`'s order, so the result does
    /// not depend on the split.
    pub fn backward(&self, dout: &Matrix) -> (Matrix, Vec<Matrix>) {
        let e = self.emb_dim;
        let f = self.saved.len();
        assert!(f >= 1, "backward before forward");
        let n = self.saved[0].rows();
        assert_eq!(dout.shape(), (output_dim(f, e), n), "dout shape");
        let dout = dout.as_slice();

        // Accumulate gradients as N×E per vector.
        let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(n, e)).collect();
        let bases: Vec<SendPtr> = grads
            .iter_mut()
            .map(|g| SendPtr(g.as_mut_slice().as_mut_ptr()))
            .collect();
        let sample = |s: usize| {
            // SAFETY: `bases[i]` is N×E and row `s` of every gradient is
            // touched by this sample only; samples are disjoint across
            // threads, and `i != j` below.
            let grad_row =
                |i: usize| unsafe { std::slice::from_raw_parts_mut(bases[i].get().add(s * e), e) };
            // Passthrough part.
            for (k, g0) in grad_row(0).iter_mut().enumerate() {
                *g0 += dout[k * n + s];
            }
            // Pairwise dots: d(vi·vj) flows vj into vi and vi into vj.
            let mut row = e;
            for i in 1..f {
                for j in 0..i {
                    let g = dout[row * n + s];
                    row += 1;
                    if g == 0.0 {
                        continue;
                    }
                    for (gi, &vj) in grad_row(i).iter_mut().zip(self.saved[j].row(s)) {
                        *gi += g * vj;
                    }
                    for (gj, &vi) in grad_row(j).iter_mut().zip(self.saved[i].row(s)) {
                        *gj += g * vi;
                    }
                }
            }
        };
        match self.exec.pool() {
            None => (0..n).for_each(sample),
            Some(pool) => pool.parallel_for(n, |_tid, range| range.for_each(&sample)),
        }
        let d_bottom = grads.remove(0).transposed(); // back to E×N
        (d_bottom, grads)
    }

    /// The serial, element-indexed loop `backward` replaced; its bitwise
    /// reference.
    #[cfg(test)]
    fn backward_reference(&self, dout: &Matrix) -> (Matrix, Vec<Matrix>) {
        let e = self.emb_dim;
        let f = self.saved.len();
        let n = self.saved[0].rows();
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
                        let vik = self.saved[i][(s, k)];
                        let vjk = self.saved[j][(s, k)];
                        grads[i][(s, k)] += g * vjk;
                        grads[j][(s, k)] += g * vik;
                    }
                }
            }
        }
        let d_bottom = grads.remove(0).transposed();
        (d_bottom, grads)
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
            let (want_b, want_t) = inter.backward_reference(&dout);
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
