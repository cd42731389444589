//! Sparse rating-matrix substrate for the NOMAD reproduction.
//!
//! The matrix-completion problem of the paper (Section 2) works with a
//! partially observed rating matrix `A ∈ R^{m×n}` whose observed entries are
//! the set `Ω`.  Every solver in this workspace consumes that data through
//! the types defined here:
//!
//! * [`TripletMatrix`] — a growable COO (coordinate) representation used by
//!   the data generators and loaders,
//! * [`CsrMatrix`] — compressed sparse *row* storage (`Ω_i`, the items rated
//!   by user `i`), the natural layout for SGD sampling and for ALS over
//!   users,
//! * [`CscMatrix`] — compressed sparse *column* storage (`Ω̄_j`, the users
//!   that rated item `j`), the natural layout for NOMAD's owner-computes
//!   processing of one item at a time and for ALS/CCD over items,
//! * [`RatingMatrix`] — a bundle of the two orientations plus the matrix
//!   dimensions, which is what solvers receive,
//! * [`DynamicMatrix`] — an append-only rating log with row/column growth
//!   that compacts into the CSR/CSC views on demand: the substrate of the
//!   streaming/online engines, together with the [`ArrivalBatch`] /
//!   [`ArrivalTrace`] ingestion schedule,
//! * [`partition`] — row partitions `I_1, …, I_p` of the users across
//!   workers (Section 3.1), including the ratings-balanced variant
//!   mentioned in the paper's footnote 1,
//! * [`split`] — deterministic train/test splitting used by every
//!   experiment, and
//! * [`io`] — a compact binary on-disk format (via `bytes`) so that large
//!   generated datasets can be cached between benchmark runs.

#![warn(missing_docs)]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dynamic;
pub mod io;
pub mod partition;
pub mod split;
pub mod stats;

pub use coo::TripletMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dynamic::{ArrivalBatch, ArrivalTrace, CompactionPolicy, DynamicMatrix};
pub use partition::{PartitionStrategy, RowPartition};
pub use split::{train_test_split, SplitConfig};
pub use stats::DatasetStats;

/// Index type for users and items.
///
/// `u32` comfortably covers the datasets in the paper (the largest, Hugewiki,
/// has ~50M rows) while halving the index memory footprint relative to
/// `usize`, which matters because the rating data dominates memory.
pub type Idx = u32;

/// Rating value type.
pub type Rating = f64;

/// A single observed entry `(i, j, A_ij)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Row (user) index.
    pub row: Idx,
    /// Column (item) index.
    pub col: Idx,
    /// Observed rating.
    pub value: Rating,
}

impl Entry {
    /// Convenience constructor.
    pub fn new(row: Idx, col: Idx, value: Rating) -> Self {
        Self { row, col, value }
    }
}

/// The observed rating matrix in both orientations.
///
/// Solvers that sample ratings uniformly (serial SGD, DSGD, FPSGD**) use the
/// row-oriented view; solvers that process one item column at a time (NOMAD,
/// CCD++, ALS item phase) use the column-oriented view.  Both views are
/// materialized once, up front, mirroring the paper's setup where data is
/// partitioned and distributed before the algorithm starts and never moved
/// afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingMatrix {
    rows: CsrMatrix,
    cols: CscMatrix,
}

impl RatingMatrix {
    /// Builds both orientations from triplets: the CSR once, then the
    /// CSC as its transpose.
    pub fn from_triplets(triplets: &TripletMatrix) -> Self {
        let rows = CsrMatrix::from_triplets(triplets);
        let cols = CscMatrix::transpose(&rows);
        Self { rows, cols }
    }

    /// Number of rows (users), `m`.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows.nrows()
    }

    /// Number of columns (items), `n`.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.rows.ncols()
    }

    /// Number of observed entries, `|Ω|`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rows.nnz()
    }

    /// Row-oriented (user-major) view.
    #[inline]
    pub fn by_rows(&self) -> &CsrMatrix {
        &self.rows
    }

    /// Column-oriented (item-major) view.
    #[inline]
    pub fn by_cols(&self) -> &CscMatrix {
        &self.cols
    }

    /// Iterates over all observed entries in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.rows.iter_entries()
    }

    /// Summary statistics of the dataset.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::from_matrix(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TripletMatrix {
        let mut t = TripletMatrix::new(3, 4);
        t.push(0, 1, 5.0);
        t.push(2, 3, 1.0);
        t.push(1, 0, 3.0);
        t.push(0, 3, 2.0);
        t
    }

    #[test]
    fn rating_matrix_roundtrips_both_orientations() {
        let t = toy();
        let a = RatingMatrix::from_triplets(&t);
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 4);
        assert_eq!(a.nnz(), 4);
        // Row view of user 0: items 1 and 3.
        let row0: Vec<_> = a.by_rows().row(0).collect();
        assert_eq!(row0, vec![(1, 5.0), (3, 2.0)]);
        // Column view of item 3: users 0 and 2.
        let col3: Vec<_> = a.by_cols().col(3).collect();
        assert_eq!(col3, vec![(0, 2.0), (2, 1.0)]);
    }

    #[test]
    fn entries_iterator_yields_all_entries() {
        let a = RatingMatrix::from_triplets(&toy());
        let mut entries: Vec<_> = a.entries().map(|e| (e.row, e.col, e.value)).collect();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(
            entries,
            vec![(0, 1, 5.0), (0, 3, 2.0), (1, 0, 3.0), (2, 3, 1.0)]
        );
    }
}
