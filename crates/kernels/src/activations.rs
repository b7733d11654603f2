//! Elementwise activation kernels (ReLU, sigmoid) and bias addition.
//!
//! The paper notes these are "complexity-wise irrelevant" and best fused or
//! overlapped; they are kept simple.

/// In-place ReLU forward; returns nothing, mutates `x`.
pub fn relu_forward(x: &mut [f32]) {
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// ReLU backward: zeroes `grad` wherever the forward *output* was zero.
///
/// Using the output (rather than the input) is exact for ReLU and lets the
/// forward run in place.
pub fn relu_backward(out: &[f32], grad: &mut [f32]) {
    assert_eq!(out.len(), grad.len());
    for (g, &y) in grad.iter_mut().zip(out) {
        if y <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Adds bias `b[k]` to every column of a row-major `K×N` output
/// (the `Y = W·X` convention: rows are features, columns are samples).
pub fn bias_add_rows(y: &mut [f32], k: usize, n: usize, b: &[f32]) {
    assert_eq!(y.len(), k * n);
    assert_eq!(b.len(), k);
    for (row, &bv) in b.iter().enumerate() {
        for v in &mut y[row * n..(row + 1) * n] {
            *v += bv;
        }
    }
}

/// Reduces a row-major `K×N` gradient over the batch dimension into `db[k]`.
pub fn bias_grad_rows(dy: &[f32], k: usize, n: usize, db: &mut [f32]) {
    assert_eq!(dy.len(), k * n);
    assert_eq!(db.len(), k);
    for (row, dbv) in db.iter_mut().enumerate() {
        *dbv = dy[row * n..(row + 1) * n].iter().sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = [-2.0, -0.0, 0.5, 3.0];
        relu_forward(&mut x);
        assert_eq!(x, [0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn relu_backward_masks_by_output() {
        let out = [0.0, 0.0, 0.5, 3.0];
        let mut g = [1.0, 2.0, 3.0, 4.0];
        relu_backward(&out, &mut g);
        assert_eq!(g, [0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert_eq!(sigmoid(0.0), 0.5);
        for &x in &[-10.0f32, -3.0, -0.1, 0.1, 3.0, 10.0] {
            let y = sigmoid(x);
            assert!(y > 0.0 && y < 1.0);
            assert!((sigmoid(-x) - (1.0 - y)).abs() < 1e-6);
        }
        // At |x| = 50 the result saturates in f32 but must stay in [0, 1].
        for &x in &[-50.0f32, 50.0] {
            let y = sigmoid(x);
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn sigmoid_extremes_do_not_overflow() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-6);
    }

    #[test]
    fn bias_roundtrip() {
        let mut y = vec![0.0f32; 6]; // 2x3
        bias_add_rows(&mut y, 2, 3, &[1.0, -2.0]);
        assert_eq!(y, [1.0, 1.0, 1.0, -2.0, -2.0, -2.0]);
        let mut db = vec![0.0f32; 2];
        bias_grad_rows(&y, 2, 3, &mut db);
        assert_eq!(db, [3.0, -6.0]);
    }
}
