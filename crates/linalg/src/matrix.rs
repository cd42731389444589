//! A minimal dense, row-major `f64` matrix used for the `k × k` Gram
//! matrices that ALS and coordinate descent build (`M = HᵀH + λI`).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
///
/// The matrices handled here are tiny (`k × k` with `k ≤ a few hundred`), so
/// the representation favours simplicity: a single contiguous `Vec<f64>`
/// indexed by `(row, col)`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows: size mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
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

    /// Returns the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Returns row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Sets every entry to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self ← self + alpha * x yᵀ` — the rank-1 update used when
    /// accumulating Gram matrices `HᵀH = Σ h hᵀ`.
    ///
    /// # Panics
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn rank1_update(&mut self, alpha: f64, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.rows, "rank1_update: x length");
        assert_eq!(y.len(), self.cols, "rank1_update: y length");
        for (r, &xr) in x.iter().enumerate() {
            let ax = alpha * xr;
            let row = self.row_mut(r);
            for (cell, &yc) in row.iter_mut().zip(y) {
                *cell += ax * yc;
            }
        }
    }

    /// Adds `alpha` to every diagonal entry (`self ← self + alpha I`), used
    /// for the `λ|Ω_i| I` regularization term of the ALS normal equations.
    pub fn add_diagonal(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Matrix-vector product `self · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (&a, &b) in row.iter().zip(x) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }

    /// Returns the diagonal as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Maximum absolute entry-wise difference to another matrix, useful in
    /// tests.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = DenseMatrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn indexing_is_row_major() {
        let m = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn rank1_update_builds_gram_matrix() {
        // Gram of H with rows h1, h2 equals Σ h hᵀ.
        let h1 = [1.0, 2.0];
        let h2 = [3.0, -1.0];
        let mut gram = DenseMatrix::zeros(2, 2);
        gram.rank1_update(1.0, &h1, &h1);
        gram.rank1_update(1.0, &h2, &h2);
        assert_eq!(gram[(0, 0)], 1.0 + 9.0);
        assert_eq!(gram[(0, 1)], 2.0 - 3.0);
        assert_eq!(gram[(1, 0)], 2.0 - 3.0);
        assert_eq!(gram[(1, 1)], 4.0 + 1.0);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut m = DenseMatrix::zeros(3, 3);
        m.add_diagonal(0.5);
        assert_eq!(m.diagonal(), vec![0.5, 0.5, 0.5]);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = DenseMatrix::identity(4);
        m.fill_zero();
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = DenseMatrix::identity(2);
        let mut b = DenseMatrix::identity(2);
        b[(1, 0)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_rows_wrong_size_panics() {
        let _ = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0]);
    }
}
