//! Compressed sparse column (CSC) storage: the item-major view `Ω̄_j`.
//!
//! NOMAD processes one item column at a time (Algorithm 1, lines 15–21), and
//! each worker `q` only ever touches the sub-column `Ω̄_j^{(q)}` restricted to
//! its own users `I_q`.  [`CscMatrix::restrict_rows`] materializes exactly
//! those per-worker local slices.

use serde::{Deserialize, Serialize};

use crate::{Entry, Idx, Rating, RowPartition, TripletMatrix};

/// Compressed sparse column matrix.
///
/// Column `j` stores the users that rated item `j` (the set `Ω̄_j` of the
/// paper) together with the ratings, in ascending user order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes the entries of column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<Idx>,
    values: Vec<Rating>,
}

impl CscMatrix {
    /// Builds CSC storage from triplets.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let nrows = t.nrows();
        let ncols = t.ncols();
        let nnz = t.nnz();

        let mut col_counts = vec![0usize; ncols];
        for e in t.entries() {
            col_counts[e.col as usize] += 1;
        }
        let mut col_ptr = vec![0usize; ncols + 1];
        for j in 0..ncols {
            col_ptr[j + 1] = col_ptr[j] + col_counts[j];
        }
        let mut row_idx = vec![0 as Idx; nnz];
        let mut values = vec![0.0 as Rating; nnz];
        let mut cursor = col_ptr.clone();
        for e in t.entries() {
            let pos = cursor[e.col as usize];
            row_idx[pos] = e.row;
            values[pos] = e.value;
            cursor[e.col as usize] += 1;
        }
        let mut csc = Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        };
        csc.sort_cols();
        csc
    }

    fn sort_cols(&mut self) {
        for j in 0..self.ncols {
            let (start, end) = (self.col_ptr[j], self.col_ptr[j + 1]);
            if end - start < 2 {
                continue;
            }
            let mut paired: Vec<(Idx, Rating)> = self.row_idx[start..end]
                .iter()
                .copied()
                .zip(self.values[start..end].iter().copied())
                .collect();
            paired.sort_by_key(|&(r, _)| r);
            for (offset, (r, v)) in paired.into_iter().enumerate() {
                self.row_idx[start + offset] = r;
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

    /// Number of entries in column `j`, i.e. `|Ω̄_j|`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Iterates over `(user, rating)` pairs of column `j` in ascending user
    /// order.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (Idx, Rating)> + '_ {
        let (start, end) = (self.col_ptr[j], self.col_ptr[j + 1]);
        self.row_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Row indices of column `j`.
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[Idx] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Rating values of column `j`.
    #[inline]
    pub fn col_values(&self, j: usize) -> &[Rating] {
        &self.values[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Row indices and rating values of column `j` as two parallel slices
    /// of equal length, in ascending row order.
    ///
    /// The raw-slice form of [`CscMatrix::col`], for callers that need the
    /// column as indexable data rather than as an iterator: bulk copies,
    /// and above all the engines' inner loop (`nomad_core::hop::sweep`),
    /// which reads the row index a fixed distance *ahead* of the rating it
    /// is applying so it can prefetch that user's factor row.  A loop that
    /// only walks the column front to back is as fast over `col`.
    #[inline]
    pub fn col_slices(&self, j: usize) -> (&[Idx], &[Rating]) {
        (self.col_rows(j), self.col_values(j))
    }

    /// Per-column counts `|Ω̄_j|` for all columns.
    pub fn col_counts(&self) -> Vec<usize> {
        (0..self.ncols).map(|j| self.col_nnz(j)).collect()
    }

    /// Iterates over all entries in column-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).map(move |(i, v)| Entry::new(i, j as Idx, v)))
    }

    /// Restricts the matrix to the rows owned by each worker of `partition`,
    /// producing one full-width CSC matrix per worker.
    ///
    /// Worker `q`'s matrix keeps the original row indices and has the same
    /// number of columns; column `j` of worker `q` is exactly the paper's
    /// `Ω̄_j^{(q)} = {(i, j) ∈ Ω̄_j : i ∈ I_q}`.  The union of all workers'
    /// entries equals the original matrix and the intersection is empty
    /// (verified by tests and property tests).
    // The `j` loops index several per-worker tables at once; clippy's
    // iterator suggestion only sees one of them.
    #[allow(clippy::needless_range_loop)]
    pub fn restrict_rows(&self, partition: &RowPartition) -> Vec<CscMatrix> {
        assert_eq!(
            partition.num_rows(),
            self.nrows,
            "partition covers a different number of rows"
        );
        let p = partition.num_parts();
        // First pass: per-worker per-column counts.
        let mut counts = vec![vec![0usize; self.ncols]; p];
        for j in 0..self.ncols {
            for &i in self.col_rows(j) {
                counts[partition.owner_of(i) as usize][j] += 1;
            }
        }
        // Build each worker's CSC.
        let mut out: Vec<CscMatrix> = counts
            .iter()
            .map(|c| {
                let mut col_ptr = vec![0usize; self.ncols + 1];
                for j in 0..self.ncols {
                    col_ptr[j + 1] = col_ptr[j] + c[j];
                }
                let total = col_ptr[self.ncols];
                CscMatrix {
                    nrows: self.nrows,
                    ncols: self.ncols,
                    col_ptr,
                    row_idx: vec![0; total],
                    values: vec![0.0; total],
                }
            })
            .collect();
        let mut cursors: Vec<Vec<usize>> = out.iter().map(|m| m.col_ptr.clone()).collect();
        for j in 0..self.ncols {
            let (start, end) = (self.col_ptr[j], self.col_ptr[j + 1]);
            for pos in start..end {
                let i = self.row_idx[pos];
                let q = partition.owner_of(i) as usize;
                let dst = cursors[q][j];
                out[q].row_idx[dst] = i;
                out[q].values[dst] = self.values[pos];
                cursors[q][j] += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;

    fn toy() -> TripletMatrix {
        let mut t = TripletMatrix::new(4, 3);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        t.push(2, 1, 3.0);
        t.push(3, 1, 4.0);
        t.push(0, 2, 5.0);
        t.push(3, 2, 6.0);
        t
    }

    #[test]
    fn columns_are_sorted_and_complete() {
        let m = CscMatrix::from_triplets(&toy());
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.col_rows(0), &[0, 1]);
        assert_eq!(m.col_values(1), &[3.0, 4.0]);
        assert_eq!(m.col_counts(), vec![2, 2, 2]);
    }

    #[test]
    fn iter_entries_is_column_major() {
        let m = CscMatrix::from_triplets(&toy());
        let cols: Vec<_> = m.iter_entries().map(|e| e.col).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
        assert_eq!(m.iter_entries().count(), 6);
    }

    #[test]
    fn restrict_rows_partitions_every_entry_exactly_once() {
        let t = toy();
        let m = CscMatrix::from_triplets(&t);
        let partition = RowPartition::new(4, 2, PartitionStrategy::Contiguous);
        let parts = m.restrict_rows(&partition);
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(|p| p.nnz()).sum();
        assert_eq!(total, m.nnz());
        // Worker 0 owns rows {0, 1}, worker 1 owns rows {2, 3}.
        for &i in parts[0]
            .iter_entries()
            .map(|e| e.row)
            .collect::<Vec<_>>()
            .iter()
        {
            assert!(i < 2);
        }
        for &i in parts[1]
            .iter_entries()
            .map(|e| e.row)
            .collect::<Vec<_>>()
            .iter()
        {
            assert!(i >= 2);
        }
        // Column structure is preserved: worker 0 sees only user 0,1 ratings of item 2.
        assert_eq!(parts[0].col_rows(2), &[0]);
        assert_eq!(parts[1].col_rows(2), &[3]);
    }

    #[test]
    fn restrict_rows_keeps_dimensions() {
        let m = CscMatrix::from_triplets(&toy());
        let partition = RowPartition::new(4, 3, PartitionStrategy::Contiguous);
        for part in m.restrict_rows(&partition) {
            assert_eq!(part.nrows(), 4);
            assert_eq!(part.ncols(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "different number of rows")]
    fn restrict_rows_rejects_mismatched_partition() {
        let m = CscMatrix::from_triplets(&toy());
        let partition = RowPartition::new(5, 2, PartitionStrategy::Contiguous);
        let _ = m.restrict_rows(&partition);
    }

    #[test]
    fn empty_columns_are_handled() {
        let mut t = TripletMatrix::new(2, 4);
        t.push(0, 0, 1.0);
        t.push(1, 3, 2.0);
        let m = CscMatrix::from_triplets(&t);
        assert_eq!(m.col_nnz(1), 0);
        assert_eq!(m.col_nnz(2), 0);
        assert_eq!(m.col(1).count(), 0);
    }
}
