//! Dataset summary statistics (Table 2 of the paper and sanity checks for
//! the synthetic generators).

use crate::RatingMatrix;

/// Summary statistics of a rating dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of rows (users), `m`.
    pub rows: usize,
    /// Number of columns (items), `n`.
    pub cols: usize,
    /// Number of observed ratings, `|Ω|`.
    pub nnz: usize,
    /// Fraction of the full matrix that is observed.
    pub density: f64,
    /// Mean ratings per row among rows with at least one rating.
    pub mean_ratings_per_active_row: f64,
    /// Mean ratings per column among columns with at least one rating.
    pub mean_ratings_per_active_col: f64,
    /// Number of rows with at least one rating.
    pub active_rows: usize,
    /// Number of columns with at least one rating.
    pub active_cols: usize,
    /// Maximum ratings held by a single row.
    pub max_row_nnz: usize,
    /// Maximum ratings held by a single column.
    pub max_col_nnz: usize,
    /// Mean rating value.
    pub mean_rating: f64,
    /// Standard deviation of rating values.
    pub std_rating: f64,
}

impl DatasetStats {
    /// Computes statistics for a rating matrix.
    pub fn from_matrix(a: &RatingMatrix) -> Self {
        let rows = a.nrows();
        let cols = a.ncols();
        let nnz = a.nnz();

        let row_counts = a.by_rows().row_counts();
        let col_counts = a.by_cols().col_counts();
        let active_rows = row_counts.iter().filter(|&&c| c > 0).count();
        let active_cols = col_counts.iter().filter(|&&c| c > 0).count();
        let max_row_nnz = row_counts.iter().copied().max().unwrap_or(0);
        let max_col_nnz = col_counts.iter().copied().max().unwrap_or(0);

        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for e in a.entries() {
            sum += e.value;
            sum_sq += e.value * e.value;
        }
        let mean_rating = if nnz > 0 { sum / nnz as f64 } else { 0.0 };
        let var = if nnz > 0 {
            (sum_sq / nnz as f64 - mean_rating * mean_rating).max(0.0)
        } else {
            0.0
        };

        Self {
            rows,
            cols,
            nnz,
            density: if rows * cols > 0 {
                nnz as f64 / (rows as f64 * cols as f64)
            } else {
                0.0
            },
            mean_ratings_per_active_row: if active_rows > 0 {
                nnz as f64 / active_rows as f64
            } else {
                0.0
            },
            mean_ratings_per_active_col: if active_cols > 0 {
                nnz as f64 / active_cols as f64
            } else {
                0.0
            },
            active_rows,
            active_cols,
            max_row_nnz,
            max_col_nnz,
            mean_rating,
            std_rating: var.sqrt(),
        }
    }

    /// Ratings-per-item figure the paper uses to explain the Yahoo! Music
    /// behaviour ("Netflix and Hugewiki have 5,575 and 68,635 non-zero
    /// ratings per each item respectively, Yahoo! Music has only 404").
    pub fn ratings_per_item(&self) -> f64 {
        self.mean_ratings_per_active_col
    }

    /// One-line human-readable rendering, used by the `table2` binary.
    pub fn summary_line(&self, name: &str) -> String {
        format!(
            "{name}: rows={} cols={} nnz={} density={:.2e} ratings/item={:.1} ratings/user={:.1}",
            self.rows,
            self.cols,
            self.nnz,
            self.density,
            self.mean_ratings_per_active_col,
            self.mean_ratings_per_active_row,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn toy_stats() -> DatasetStats {
        let mut t = TripletMatrix::new(4, 3);
        t.push(0, 0, 2.0);
        t.push(0, 1, 4.0);
        t.push(1, 0, 2.0);
        t.push(3, 2, 4.0);
        RatingMatrix::from_triplets(&t).stats()
    }

    #[test]
    fn counts_and_density() {
        let s = toy_stats();
        assert_eq!(s.rows, 4);
        assert_eq!(s.cols, 3);
        assert_eq!(s.nnz, 4);
        assert!((s.density - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(s.active_rows, 3); // row 2 has no ratings
        assert_eq!(s.active_cols, 3);
        assert_eq!(s.max_row_nnz, 2);
        assert_eq!(s.max_col_nnz, 2);
    }

    #[test]
    fn mean_and_std() {
        let s = toy_stats();
        assert!((s.mean_rating - 3.0).abs() < 1e-12);
        assert!((s.std_rating - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_row_and_per_col_averages() {
        let s = toy_stats();
        assert!((s.mean_ratings_per_active_row - 4.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_ratings_per_active_col - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.ratings_per_item(), s.mean_ratings_per_active_col);
    }

    #[test]
    fn empty_matrix_does_not_divide_by_zero() {
        let t = TripletMatrix::new(0, 0);
        let s = RatingMatrix::from_triplets(&t).stats();
        assert_eq!(s.nnz, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.mean_rating, 0.0);
        assert_eq!(s.mean_ratings_per_active_row, 0.0);
    }

    #[test]
    fn summary_line_mentions_name_and_counts() {
        let s = toy_stats();
        let line = s.summary_line("toy");
        assert!(line.contains("toy"));
        assert!(line.contains("nnz=4"));
    }
}
