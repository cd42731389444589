//! Compressed sparse column (CSC) storage: the item-major view `Ω̄_j`.
//!
//! NOMAD processes one item column at a time (Algorithm 1, lines 15–21), and
//! each worker `q` only ever touches the sub-column `Ω̄_j^{(q)}` restricted to
//! its own users `I_q`.  [`CscMatrix::restrict_rows`] materializes exactly
//! those per-worker local slices.

use std::ops::Range;

use crate::{CsrMatrix, Entry, Idx, Rating, RowPartition, TripletMatrix};

/// Compressed sparse column matrix.
///
/// Column `j` stores the users that rated item `j` (the set `Ω̄_j` of the
/// paper) together with the ratings, in ascending user order.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes the entries of column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<Idx>,
    values: Vec<Rating>,
}

impl CscMatrix {
    /// Builds CSC storage from triplets, as the transpose of their
    /// [`CsrMatrix`]: each column lists its rows in ascending order, and a
    /// repeated coordinate keeps its triplets' order — what a stable sort
    /// of the triplets by `(col, row)` gives, without sorting.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        Self::transpose(&CsrMatrix::from_triplets(t))
    }

    /// The column view of `csr`, by one counting pass and one scatter.
    /// Rows are visited in ascending order, so each column fills in
    /// ascending row order.
    pub(crate) fn transpose(csr: &CsrMatrix) -> Self {
        let (nrows, ncols, nnz) = (csr.nrows(), csr.ncols(), csr.nnz());
        let mut col_ptr = vec![0usize; ncols + 1];
        for i in 0..nrows {
            for &j in csr.row_cols(i) {
                col_ptr[j as usize + 1] += 1;
            }
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0 as Idx; nnz];
        let mut values = vec![0.0 as Rating; nnz];
        let mut cursor = col_ptr[..ncols].to_vec();
        for i in 0..nrows {
            for (j, v) in csr.row(i) {
                let pos = &mut cursor[j as usize];
                row_idx[*pos] = i as Idx;
                values[*pos] = v;
                *pos += 1;
            }
        }
        Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Builds the matrix from its columns laid end to end — `counts[j]`
    /// entries of `row_idx`/`values` per column `j` — or returns `None` if
    /// they do not describe a matrix whose rows all lie in `rows`.
    ///
    /// This is the one way a rating slice that crossed an address space
    /// becomes a matrix, so it checks everything indexing relies on:
    /// `counts` has one entry per column or none at all (no ratings),
    /// the counts add up to the number of entries, `rows` ends inside the
    /// matrix, and within each column the rows lie in `rows` and strictly
    /// ascend — the order [`CscMatrix::from_triplets`] produces for data
    /// with no repeated coordinate.
    pub fn from_cols(
        nrows: usize,
        ncols: usize,
        counts: &[u32],
        row_idx: Vec<Idx>,
        values: Vec<Rating>,
        rows: Range<usize>,
    ) -> Option<Self> {
        if !(counts.is_empty() || counts.len() == ncols)
            || row_idx.len() != values.len()
            || rows.end > nrows
        {
            return None;
        }
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.push(0);
        let mut total = 0usize;
        for j in 0..ncols {
            total += counts.get(j).map_or(0, |&c| c as usize);
            col_ptr.push(total);
        }
        if total != row_idx.len() {
            return None;
        }
        let valid = col_ptr.windows(2).all(|span| {
            let col = &row_idx[span[0]..span[1]];
            col.windows(2).all(|pair| pair[0] < pair[1])
                && col.first().is_none_or(|&i| i as usize >= rows.start)
                && col.last().is_none_or(|&i| (i as usize) < rows.end)
        });
        valid.then_some(Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Cuts the rows `rows` out of the matrix: they are removed from
    /// `self` and returned as a matrix of the same shape holding only
    /// them.  Both keep their columns in ascending row order, and
    /// [`CscMatrix::add_rows`] of the result gives back the original.
    /// O(nnz), in place for `self`.
    pub fn extract_rows(&mut self, rows: Range<usize>) -> CscMatrix {
        let mut cut = CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr: Vec::with_capacity(self.ncols + 1),
            row_idx: Vec::new(),
            values: Vec::new(),
        };
        cut.col_ptr.push(0);
        let mut kept = 0;
        for j in 0..self.ncols {
            let (start, end) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let col = &self.row_idx[start..end];
            let lo = start + col.partition_point(|&i| (i as usize) < rows.start);
            let hi = start + col.partition_point(|&i| (i as usize) < rows.end);
            cut.row_idx.extend_from_slice(&self.row_idx[lo..hi]);
            cut.values.extend_from_slice(&self.values[lo..hi]);
            cut.col_ptr.push(cut.row_idx.len());
            // Compact what stays towards the front: column `j` now starts
            // at `kept`, which never passes `start`.
            self.col_ptr[j] = kept;
            for span in [start..lo, hi..end] {
                let len = span.len();
                self.row_idx.copy_within(span.clone(), kept);
                self.values.copy_within(span, kept);
                kept += len;
            }
        }
        self.col_ptr[self.ncols] = kept;
        self.row_idx.truncate(kept);
        self.values.truncate(kept);
        cut
    }

    /// Merges `other`'s entries into this matrix, keeping every column in
    /// ascending row order.  `other` must have the same shape, and its
    /// rows should be disjoint from `self`'s (a repeated coordinate is
    /// kept twice, `self`'s first).  O(nnz of both).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_rows(&mut self, other: &CscMatrix) {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "add_rows needs matrices of the same shape"
        );
        let total = self.nnz() + other.nnz();
        let mut merged = CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr: Vec::with_capacity(self.ncols + 1),
            row_idx: Vec::with_capacity(total),
            values: Vec::with_capacity(total),
        };
        merged.col_ptr.push(0);
        for j in 0..self.ncols {
            let (mut a_rows, mut a_vals) = self.col_slices(j);
            let (mut b_rows, mut b_vals) = other.col_slices(j);
            // Alternate runs: everything of one side below the other's
            // next row goes in one copy.
            while let (Some(&a), Some(&b)) = (a_rows.first(), b_rows.first()) {
                if a <= b {
                    let run = a_rows.partition_point(|&i| i <= b);
                    merged.row_idx.extend_from_slice(&a_rows[..run]);
                    merged.values.extend_from_slice(&a_vals[..run]);
                    (a_rows, a_vals) = (&a_rows[run..], &a_vals[run..]);
                } else {
                    let run = b_rows.partition_point(|&i| i < a);
                    merged.row_idx.extend_from_slice(&b_rows[..run]);
                    merged.values.extend_from_slice(&b_vals[..run]);
                    (b_rows, b_vals) = (&b_rows[run..], &b_vals[run..]);
                }
            }
            for (rows, vals) in [(a_rows, a_vals), (b_rows, b_vals)] {
                merged.row_idx.extend_from_slice(rows);
                merged.values.extend_from_slice(vals);
            }
            merged.col_ptr.push(merged.row_idx.len());
        }
        *self = merged;
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

    /// 9 × 7 with columns 0 and 4 empty, row 0 and row 8 rated, and values
    /// whose bits `==` cannot tell apart (`-0.0`, NaN payloads).
    fn sparse() -> CscMatrix {
        let mut t = TripletMatrix::new(9, 7);
        for i in 0..9u32 {
            for j in [1u32, 2, 3, 5, 6] {
                if (i * 5 + j * 3) % 4 != 0 {
                    let v = match (i + j) % 3 {
                        0 => -0.0,
                        1 => f64::from_bits(0x7ff8_0000_0000_0000 | u64::from(i * 7 + j)),
                        _ => f64::from(i) - 0.5 * f64::from(j),
                    };
                    t.push(i, j, v);
                }
            }
        }
        CscMatrix::from_triplets(&t)
    }

    fn bits(m: &CscMatrix) -> (usize, usize, Vec<usize>, Vec<Idx>, Vec<u64>) {
        let values = m.values.iter().map(|v| v.to_bits()).collect();
        (
            m.nrows,
            m.ncols,
            m.col_ptr.clone(),
            m.row_idx.clone(),
            values,
        )
    }

    #[test]
    fn cut_then_merge_gives_back_the_original_bits() {
        let original = sparse();
        assert_eq!(original.col_nnz(0) + original.col_nnz(4), 0);
        for rows in [0..0, 4..4, 9..9, 0..1, 8..9, 3..6, 2..8, 0..9] {
            let mut kept = original.clone();
            let cut = kept.extract_rows(rows.clone());
            assert_eq!(cut.nnz() + kept.nnz(), original.nnz(), "{rows:?}");
            for j in 0..original.ncols() {
                assert!(cut
                    .col_rows(j)
                    .iter()
                    .all(|&i| rows.contains(&(i as usize))));
                assert!(kept
                    .col_rows(j)
                    .iter()
                    .all(|&i| !rows.contains(&(i as usize))));
            }
            let mut back = kept.clone();
            back.add_rows(&cut);
            assert_eq!(bits(&back), bits(&original), "kept + cut of {rows:?}");
            let mut back = cut;
            back.add_rows(&kept);
            assert_eq!(bits(&back), bits(&original), "cut + kept of {rows:?}");
        }
    }

    #[test]
    fn from_cols_accepts_exactly_well_formed_columns() {
        let m = sparse();
        let counts: Vec<u32> = m.col_counts().iter().map(|&c| c as u32).collect();
        let build = |counts: &[u32], rows: Vec<Idx>, values: Vec<Rating>, segment| {
            CscMatrix::from_cols(9, 7, counts, rows, values, segment)
        };
        let rebuilt = build(&counts, m.row_idx.clone(), m.values.clone(), 0..9);
        assert_eq!(rebuilt.as_ref().map(bits), Some(bits(&m)));
        let empty = build(&[], vec![], vec![], 0..0).expect("no ratings at all");
        assert_eq!((empty.nrows(), empty.ncols(), empty.nnz()), (9, 7, 0));
        assert_eq!(empty.col_counts(), vec![0; 7]);

        // Column 1 of `sparse` holds rows 0, 1, 3, 4, 5, 7, 8.
        let refused = |counts: &[u32], rows: Vec<Idx>, segment| {
            let values = vec![1.0; rows.len()];
            assert!(build(counts, rows, values, segment).is_none());
        };
        refused(&[0, 2, 0, 0, 0, 0, 0], vec![3, 4, 5], 0..9); // counts short of the rows
        refused(&[0, 2, 0, 0, 0, 0, 0], vec![3, 4], 4..9); // row 3 outside the segment
        refused(&[0, 2, 0, 0, 0, 0, 0], vec![3, 4], 0..4); // row 4 outside the segment
        refused(&[0, 2, 0, 0, 0, 0, 0], vec![4, 3], 0..9); // descending
        refused(&[0, 2, 0, 0, 0, 0, 0], vec![4, 4], 0..9); // repeated row
        refused(&[2], vec![3, 4], 0..9); // one count for seven columns
        refused(&[0; 8], vec![], 0..9); // eight counts for seven columns
        refused(&[], vec![], 0..10); // segment past the last row
        assert!(build(&[0, 1, 0, 0, 0, 0, 0], vec![3], vec![], 0..9).is_none());
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
