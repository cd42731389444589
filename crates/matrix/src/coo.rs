//! Coordinate-format (COO) triplet storage.
//!
//! This is the growable representation the data generators and file loaders
//! produce; it is converted into [`crate::CsrMatrix`] / [`crate::CscMatrix`]
//! once before a solver runs.

use crate::{Entry, Idx, Rating};

/// A growable list of `(row, col, value)` triplets with fixed dimensions.
///
/// Duplicate coordinates are allowed while building; [`TripletMatrix::dedup`]
/// collapses them (keeping the last value, which is the conventional
/// "latest rating wins" semantics for ratings data).
#[derive(Debug, Clone, PartialEq)]
pub struct TripletMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<Entry>,
}

impl TripletMatrix {
    /// Creates an empty triplet matrix with the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty triplet matrix with pre-allocated capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, capacity: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::with_capacity(capacity),
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

    /// Number of stored triplets (including duplicates, if any).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no triplets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an observation.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, row: Idx, col: Idx, value: Rating) {
        assert!(
            (row as usize) < self.nrows,
            "row {row} out of bounds (nrows = {})",
            self.nrows
        );
        assert!(
            (col as usize) < self.ncols,
            "col {col} out of bounds (ncols = {})",
            self.ncols
        );
        self.entries.push(Entry::new(row, col, value));
    }

    /// Appends an already-validated entry (used by loaders).
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    pub fn push_entry(&mut self, entry: Entry) {
        self.push(entry.row, entry.col, entry.value);
    }

    /// Read-only access to the stored triplets.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Sorts entries by `(row, col)` and removes duplicate coordinates,
    /// keeping the last pushed value for each coordinate.
    pub fn dedup(&mut self) {
        // Stable sort keeps insertion order within equal keys, so taking the
        // last element of each group implements "latest value wins".
        self.entries.sort_by_key(|e| (e.row, e.col));
        let mut deduped: Vec<Entry> = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            match deduped.last_mut() {
                Some(last) if last.row == e.row && last.col == e.col => *last = e,
                _ => deduped.push(e),
            }
        }
        self.entries = deduped;
    }

    /// Splits the triplets into two matrices according to `predicate`
    /// (entries for which it returns `true` go to the first matrix).
    /// Used by the train/test splitter.
    pub fn partition_by<F: FnMut(&Entry) -> bool>(&self, mut predicate: F) -> (Self, Self) {
        let mut yes = Self::new(self.nrows, self.ncols);
        let mut no = Self::new(self.nrows, self.ncols);
        for e in &self.entries {
            if predicate(e) {
                yes.entries.push(*e);
            } else {
                no.entries.push(*e);
            }
        }
        (yes, no)
    }

    /// Per-row non-zero counts `|Ω_i|`.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for e in &self.entries {
            counts[e.row as usize] += 1;
        }
        counts
    }

    /// Per-column non-zero counts `|Ω̄_j|`.
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ncols];
        for e in &self.entries {
            counts[e.col as usize] += 1;
        }
        counts
    }

    /// Mean of the stored ratings; `None` when empty.
    pub fn mean_rating(&self) -> Option<Rating> {
        if self.entries.is_empty() {
            return None;
        }
        Some(self.entries.iter().map(|e| e.value).sum::<f64>() / self.entries.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_counts() {
        let mut t = TripletMatrix::new(2, 3);
        assert!(t.is_empty());
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 2, 3.0);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.row_counts(), vec![2, 1]);
        assert_eq!(t.col_counts(), vec![1, 0, 2]);
        assert_eq!(t.mean_rating(), Some(2.0));
    }

    #[test]
    fn empty_mean_is_none() {
        let t = TripletMatrix::new(2, 2);
        assert_eq!(t.mean_rating(), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_row_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_col_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 5, 1.0);
    }

    #[test]
    fn dedup_keeps_last_value() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 9.0);
        t.push(0, 0, 4.0);
        t.dedup();
        assert_eq!(t.nnz(), 2);
        let vals: Vec<_> = t
            .entries()
            .iter()
            .map(|e| (e.row, e.col, e.value))
            .collect();
        assert_eq!(vals, vec![(0, 0, 4.0), (1, 1, 9.0)]);
    }

    #[test]
    fn partition_by_splits_entries() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 3.0);
        let (big, small) = t.partition_by(|e| e.value >= 2.0);
        assert_eq!(big.nnz(), 2);
        assert_eq!(small.nnz(), 1);
        assert_eq!(big.nrows(), 2);
        assert_eq!(small.ncols(), 2);
    }

    #[test]
    fn with_capacity_reserves() {
        let t = TripletMatrix::with_capacity(5, 5, 128);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.nrows(), 5);
    }

    #[test]
    fn push_entry_validates() {
        let mut t = TripletMatrix::new(3, 3);
        t.push_entry(Entry::new(2, 2, 0.5));
        assert_eq!(t.entries()[0].value, 0.5);
    }
}
