//! Published dataset shapes (Table 2 of the paper) and scaled variants.

/// The shape of a rating dataset: everything the synthetic generator needs
/// to produce a stand-in with the same compute/communication profile.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Human-readable name.
    pub name: String,
    /// Number of rows (users), `m`.
    pub rows: usize,
    /// Number of columns (items), `n`.
    pub cols: usize,
    /// Number of observed ratings, `|Ω|`.
    pub nnz: usize,
    /// Smallest rating value the dataset uses.
    pub rating_min: f64,
    /// Largest rating value the dataset uses.
    pub rating_max: f64,
}

impl DatasetProfile {
    /// Netflix (Table 2): 2,649,429 × 17,770 with 99,072,112 ratings, 1–5
    /// stars.
    pub fn netflix() -> Self {
        Self {
            name: "netflix".to_string(),
            rows: 2_649_429,
            cols: 17_770,
            nnz: 99_072_112,
            rating_min: 1.0,
            rating_max: 5.0,
        }
    }

    /// Yahoo! Music (Table 2): 1,999,990 × 624,961 with 252,800,275
    /// ratings, 0–100 scale.
    pub fn yahoo_music() -> Self {
        Self {
            name: "yahoo-music".to_string(),
            rows: 1_999_990,
            cols: 624_961,
            nnz: 252_800_275,
            rating_min: 0.0,
            rating_max: 100.0,
        }
    }

    /// Hugewiki (Table 2): 50,082,603 × 39,780 with 2,736,496,604 entries.
    pub fn hugewiki() -> Self {
        Self {
            name: "hugewiki".to_string(),
            rows: 50_082_603,
            cols: 39_780,
            nnz: 2_736_496_604,
            rating_min: 0.0,
            rating_max: 10.0,
        }
    }

    /// All three Table 2 profiles in paper order.
    pub fn table2() -> Vec<Self> {
        vec![Self::netflix(), Self::yahoo_music(), Self::hugewiki()]
    }

    /// Mean ratings per item, `|Ω| / n` — the quantity the paper uses to
    /// explain why Yahoo! Music behaves differently (404 vs 5,575 for
    /// Netflix and 68,635 for Hugewiki).
    pub fn ratings_per_item(&self) -> f64 {
        self.nnz as f64 / self.cols as f64
    }

    /// Mean ratings per user, `|Ω| / m`.
    pub fn ratings_per_user(&self) -> f64 {
        self.nnz as f64 / self.rows as f64
    }

    /// A scaled-down profile targeting `target_nnz` observed ratings.
    ///
    /// The row and column counts are shrunk while preserving the original
    /// rows : cols aspect ratio, and the resulting density is at least
    /// `min_density` (so a tiny dataset does not degenerate to one rating
    /// per row) but never below the original density.  Preserving the
    /// aspect ratio preserves the *relative ordering* of the
    /// ratings-per-item figures across datasets, which is the structural
    /// property the paper's compute-vs-communication analysis rests on
    /// (Hugewiki ≫ Netflix ≫ Yahoo! Music).
    pub fn scaled_to_nnz(&self, target_nnz: usize, min_density: f64) -> Self {
        assert!(target_nnz > 0, "target_nnz must be positive");
        assert!(
            min_density > 0.0 && min_density <= 1.0,
            "min_density must be in (0, 1]"
        );
        let original_density = self.nnz as f64 / (self.rows as f64 * self.cols as f64);
        let density = min_density.max(original_density).min(1.0);
        // rows' * cols' = target_nnz / density with rows'/cols' = rows/cols.
        let area = target_nnz as f64 / density;
        let aspect = self.rows as f64 / self.cols as f64;
        let rows = (area * aspect).sqrt().round().max(1.0) as usize;
        let cols = (area / aspect).sqrt().round().max(2.0) as usize;
        Self {
            name: format!("{}-{}k", self.name, target_nnz / 1000),
            rows,
            cols,
            nnz: target_nnz.min(rows * cols),
            rating_min: self.rating_min,
            rating_max: self.rating_max,
        }
    }

    /// A scaled profile that keeps the number of columns and the
    /// ratings-per-item ratio but shrinks rows and non-zeros, mirroring how
    /// the paper's Section 5.5 keeps the Netflix item count fixed.
    pub fn scaled_rows(&self, row_factor: usize) -> Self {
        assert!(row_factor > 0, "scale factor must be positive");
        Self {
            name: format!("{}-rows/{}", self.name, row_factor),
            rows: (self.rows / row_factor).max(1),
            cols: self.cols,
            nnz: (self.nnz / row_factor).max(1),
            rating_min: self.rating_min,
            rating_max: self.rating_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_numbers_match_the_paper() {
        let n = DatasetProfile::netflix();
        assert_eq!((n.rows, n.cols, n.nnz), (2_649_429, 17_770, 99_072_112));
        let y = DatasetProfile::yahoo_music();
        assert_eq!((y.rows, y.cols, y.nnz), (1_999_990, 624_961, 252_800_275));
        let h = DatasetProfile::hugewiki();
        assert_eq!((h.rows, h.cols, h.nnz), (50_082_603, 39_780, 2_736_496_604));
        assert_eq!(DatasetProfile::table2().len(), 3);
    }

    #[test]
    fn ratings_per_item_reproduces_the_papers_figures() {
        // Paper, Section 5.3: "Netflix and Hugewiki have 5,575 and 68,635
        // non-zero ratings per each item respectively, Yahoo! Music has only
        // 404 ratings per item."
        assert!((DatasetProfile::netflix().ratings_per_item() - 5575.0).abs() < 5.0);
        assert!((DatasetProfile::hugewiki().ratings_per_item() - 68_635.0).abs() < 170.0);
        assert!((DatasetProfile::yahoo_music().ratings_per_item() - 404.0).abs() < 2.0);
    }

    #[test]
    fn scaled_to_nnz_keeps_relative_item_density_ordering() {
        let target = 50_000;
        let netflix = DatasetProfile::netflix().scaled_to_nnz(target, 0.02);
        let yahoo = DatasetProfile::yahoo_music().scaled_to_nnz(target, 0.02);
        let hugewiki = DatasetProfile::hugewiki().scaled_to_nnz(target, 0.02);
        let rpi = |p: &DatasetProfile| p.nnz as f64 / p.cols as f64;
        assert!(rpi(&hugewiki) > rpi(&netflix));
        assert!(rpi(&netflix) > rpi(&yahoo));
        for p in [&netflix, &yahoo, &hugewiki] {
            assert!(
                p.nnz <= p.rows * p.cols,
                "{:?} must be representable",
                p.name
            );
            assert!(p.rows >= 1 && p.cols >= 2);
            let density = p.nnz as f64 / (p.rows as f64 * p.cols as f64);
            assert!(density <= 0.25, "density {density} too high for {}", p.name);
        }
        assert!(netflix.name.contains("netflix"));
    }

    #[test]
    fn scaled_to_nnz_respects_target_size() {
        let s = DatasetProfile::netflix().scaled_to_nnz(10_000, 0.02);
        assert!(s.nnz >= 9_000 && s.nnz <= 10_000, "nnz {}", s.nnz);
    }

    #[test]
    fn scaled_rows_keeps_columns() {
        let y = DatasetProfile::yahoo_music();
        let s = y.scaled_rows(100);
        assert_eq!(s.cols, y.cols);
        assert_eq!(s.rows, y.rows / 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_nnz_panics() {
        DatasetProfile::netflix().scaled_to_nnz(0, 0.02);
    }

    #[test]
    fn rating_ranges_are_sensible() {
        for p in DatasetProfile::table2() {
            assert!(p.rating_min < p.rating_max);
            assert!(p.ratings_per_user() > 1.0);
        }
    }
}
