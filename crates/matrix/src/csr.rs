//! Compressed sparse row (CSR) storage: the user-major view `Ω_i`.

use crate::{Entry, Idx, Rating, TripletMatrix};

/// Compressed sparse row matrix.
///
/// Row `i` stores the items rated by user `i` (the set `Ω_i` of the paper)
/// together with the corresponding ratings, in ascending item order.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<Idx>,
    values: Vec<Rating>,
}

impl CsrMatrix {
    /// Builds CSR storage from triplets.  Duplicate coordinates are kept
    /// as-is (callers that need dedup should call
    /// [`TripletMatrix::dedup`] first).
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let nrows = t.nrows();
        let ncols = t.ncols();
        let nnz = t.nnz();

        // Counting sort by row, then stable ordering by column within rows.
        let mut row_counts = vec![0usize; nrows];
        for e in t.entries() {
            row_counts[e.row as usize] += 1;
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            row_ptr[i + 1] = row_ptr[i] + row_counts[i];
        }
        let mut col_idx = vec![0 as Idx; nnz];
        let mut values = vec![0.0 as Rating; nnz];
        let mut cursor = row_ptr.clone();
        for e in t.entries() {
            let pos = cursor[e.row as usize];
            col_idx[pos] = e.col;
            values[pos] = e.value;
            cursor[e.row as usize] += 1;
        }
        // Sort each row by column index for deterministic iteration order.
        let mut csr = Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        };
        csr.sort_rows();
        csr
    }

    fn sort_rows(&mut self) {
        for i in 0..self.nrows {
            let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
            if end - start < 2 {
                continue;
            }
            let mut paired: Vec<(Idx, Rating)> = self.col_idx[start..end]
                .iter()
                .copied()
                .zip(self.values[start..end].iter().copied())
                .collect();
            paired.sort_by_key(|&(c, _)| c);
            for (offset, (c, v)) in paired.into_iter().enumerate() {
                self.col_idx[start + offset] = c;
                self.values[start + offset] = v;
            }
        }
    }

    /// Number of rows `m`.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns `n`.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries `|Ω|`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of entries in row `i`, i.e. `|Ω_i|`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Iterates over `(item, rating)` pairs of row `i` in ascending item
    /// order.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (Idx, Rating)> + '_ {
        let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Idx] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Rating values of row `i`.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[Rating] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Looks up `A_ij`; `None` if the entry is unobserved.
    pub fn get(&self, i: usize, j: Idx) -> Option<Rating> {
        let cols = self.row_cols(i);
        cols.binary_search(&j)
            .ok()
            .map(|pos| self.row_values(i)[pos])
    }

    /// Iterates over all entries in row-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.nrows).flat_map(move |i| self.row(i).map(move |(j, v)| Entry::new(i as Idx, j, v)))
    }

    /// Returns the `idx`-th stored entry in row-major order; used for
    /// uniform sampling of `(i, j) ∈ Ω` in SGD-style solvers.
    ///
    /// # Panics
    /// Panics if `idx >= self.nnz()`.
    pub fn entry_at(&self, idx: usize) -> Entry {
        assert!(idx < self.nnz(), "entry_at: index out of bounds");
        // Binary search over row_ptr to find the row containing idx.
        let row = match self.row_ptr.binary_search(&idx) {
            Ok(mut r) => {
                // idx is exactly a row boundary; skip empty rows.
                while self.row_ptr[r + 1] == idx {
                    r += 1;
                }
                r
            }
            Err(r) => r - 1,
        };
        Entry::new(row as Idx, self.col_idx[idx], self.values[idx])
    }

    /// Per-row counts `|Ω_i|` for all rows.
    pub fn row_counts(&self) -> Vec<usize> {
        (0..self.nrows).map(|i| self.row_nnz(i)).collect()
    }

    /// Sum of squared ratings, used by CCD++ residual bookkeeping tests.
    pub fn sum_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CsrMatrix {
        let mut t = TripletMatrix::new(3, 4);
        t.push(0, 3, 2.0);
        t.push(0, 1, 5.0);
        t.push(2, 3, 1.0);
        t.push(1, 0, 3.0);
        CsrMatrix::from_triplets(&t)
    }

    #[test]
    fn dimensions_and_nnz() {
        let m = toy();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.row_nnz(2), 1);
        assert_eq!(m.row_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let m = toy();
        assert_eq!(m.row_cols(0), &[1, 3]);
        assert_eq!(m.row_values(0), &[5.0, 2.0]);
    }

    #[test]
    fn get_finds_present_and_absent() {
        let m = toy();
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(2, 3), Some(1.0));
    }

    #[test]
    fn entry_at_visits_all_entries_in_order() {
        let m = toy();
        let entries: Vec<_> = (0..m.nnz()).map(|i| m.entry_at(i)).collect();
        let expected: Vec<_> = m.iter_entries().collect();
        assert_eq!(entries, expected);
    }

    #[test]
    fn entry_at_handles_empty_rows() {
        let mut t = TripletMatrix::new(5, 2);
        t.push(0, 0, 1.0);
        t.push(4, 1, 2.0); // rows 1-3 are empty
        let m = CsrMatrix::from_triplets(&t);
        assert_eq!(m.entry_at(0), Entry::new(0, 0, 1.0));
        assert_eq!(m.entry_at(1), Entry::new(4, 1, 2.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn entry_at_out_of_bounds_panics() {
        toy().entry_at(10);
    }

    #[test]
    fn empty_matrix_is_valid() {
        let t = TripletMatrix::new(3, 3);
        let m = CsrMatrix::from_triplets(&t);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.iter_entries().count(), 0);
    }

    #[test]
    fn sum_sq_matches() {
        let m = toy();
        assert_eq!(m.sum_sq(), 4.0 + 25.0 + 1.0 + 9.0);
    }
}
