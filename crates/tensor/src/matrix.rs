//! Row-major 2-D matrix of `f32` backed by [`AlignedVec`].

use crate::aligned::AlignedVec;

/// A dense row-major matrix with 64-byte-aligned storage.
///
/// The convention throughout the workspace follows the paper's notation for
/// fully-connected layers: `Y = W · X` with `W ∈ R^{K×C}`, `X ∈ R^{C×N}`,
/// `Y ∈ R^{K×N}` where `N` is the minibatch. Embedding tables are
/// `W ∈ R^{M×E}` (M rows of length E) and are also stored as a `Matrix`.
#[derive(Clone)]
pub struct Matrix {
    data: AlignedVec,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: AlignedVec::zeroed(rows * cols),
            rows,
            cols,
        }
    }

    /// Creates a matrix from a closure over `(row, col)`, called once per
    /// element in row-major order; each element is written once
    /// ([`AlignedVec::from_fn`]).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let (mut r, mut c) = (0, 0);
        let data = AlignedVec::from_fn(rows * cols, |_| {
            let x = f(r, c);
            c += 1;
            if c == cols {
                (r, c) = (r + 1, 0);
            }
            x
        });
        Self { data, rows, cols }
    }

    /// Wraps row-major `data` without copying it.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: AlignedVec) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec: length");
        Self { data, rows, cols }
    }

    /// Creates a matrix wrapping a copy of row-major `data`.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_slice: data length {} != {rows}x{cols}",
            data.len()
        );
        Self {
            data: AlignedVec::from_slice(data),
            rows,
            cols,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Allocated capacity in elements (`>= len`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Changes the shape with *scratch* semantics: the backing storage is
    /// reused when large enough and replaced (without copying) when not —
    /// see [`AlignedVec::resize_scratch`]. Used by iteration-persistent
    /// buffers whose shape tracks the batch, like the embedding layer's
    /// `dW[NS][E]` or a serving lane's `C × N` dense input. After the call
    /// the contents are unspecified; overwrite before reading.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize_scratch(rows * cols);
        self.rows = rows;
        self.cols = cols;
    }

    /// [`Self::resize`] keeping `cols`.
    pub fn resize_rows(&mut self, rows: usize) {
        self.resize(rows, self.cols);
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full backing storage in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the full backing storage in row-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Two disjoint mutable row borrows (`a != b`).
    pub fn rows_mut2(&mut self, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(a, b, "rows_mut2 requires distinct rows");
        let cols = self.cols;
        let (lo, hi, swapped) = if a < b { (a, b, false) } else { (b, a, true) };
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let first = &mut head[lo * cols..(lo + 1) * cols];
        let second = &mut tail[..cols];
        if swapped {
            (second, first)
        } else {
            (first, second)
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill_zero();
    }

    /// Returns the transposed matrix (new allocation).
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let src = self.row(r);
            for c in 0..self.cols {
                // Column-strided store: fine for the cold paths this is used on.
                t[(c, r)] = src[c];
            }
        }
        t
    }

    /// `self += alpha * other`, elementwise.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (y, &x) in self.data.iter_mut().zip(other.data.iter()) {
            *y += alpha * x;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for x in self.data.iter_mut() {
            *x *= alpha;
        }
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Memory footprint of the element storage in bytes.
    pub fn nbytes(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_indexing() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.row(3), &[30.0, 31.0, 32.0]);
    }

    #[test]
    fn from_slice_layout_is_row_major() {
        let m = Matrix::from_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "from_slice")]
    fn from_slice_rejects_bad_len() {
        let _ = Matrix::from_slice(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(5, 7, |r, c| (r * 100 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (7, 5));
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(m[(r, c)], t[(c, r)]);
            }
        }
        let back = t.transposed();
        assert_eq!(back.as_slice(), m.as_slice());
    }

    #[test]
    fn rows_mut2_disjoint_both_orders() {
        let mut m = Matrix::from_fn(4, 2, |r, _| r as f32);
        {
            let (a, b) = m.rows_mut2(1, 3);
            a[0] = -1.0;
            b[0] = -3.0;
        }
        {
            let (b, a) = m.rows_mut2(3, 1);
            assert_eq!(b[0], -3.0);
            assert_eq!(a[0], -1.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rows_mut2_rejects_same_row() {
        let mut m = Matrix::zeros(2, 2);
        let _ = m.rows_mut2(1, 1);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_slice(1, 3, &[1.0, 2.0, 3.0]);
        let b = Matrix::from_slice(1, 3, &[10.0, 20.0, 30.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_slice(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        assert_eq!(m.sum(), 7.0);
    }
}
