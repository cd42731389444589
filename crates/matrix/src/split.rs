//! Deterministic train/test splitting.
//!
//! The paper evaluates every solver on test-set RMSE using "the same
//! training and test dataset partition … consistently for all algorithms in
//! every experiment" (Section 5.1).  This module provides that: a seeded,
//! reproducible split of a [`TripletMatrix`] into train and test triplets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::TripletMatrix;

/// Configuration for [`train_test_split`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitConfig {
    /// Fraction of observed entries placed in the *test* set (0.0 ..= 1.0).
    pub test_fraction: f64,
    /// Seed controlling which entries land in the test set.
    pub seed: u64,
    /// When `true`, an entry is only eligible for the test set if its user
    /// has at least one other rating remaining in the training set.  This
    /// mirrors the usual recommender-systems protocol: a user that appears
    /// only in the test set can never be predicted better than the global
    /// prior, which just adds noise to RMSE comparisons.
    pub keep_user_coverage: bool,
}

impl SplitConfig {
    /// The split used throughout the experiments: 20% test, coverage kept.
    pub fn standard(seed: u64) -> Self {
        Self {
            test_fraction: 0.2,
            seed,
            keep_user_coverage: true,
        }
    }
}

impl Default for SplitConfig {
    fn default() -> Self {
        Self::standard(0x5EED)
    }
}

/// Splits `data` into `(train, test)` triplet matrices.
///
/// The split is deterministic for a given `config.seed` and independent of
/// the order in which triplets were pushed (entries are considered in their
/// stored order, but each entry's assignment only depends on the RNG stream
/// position, which is stable for a fixed dataset).
///
/// # Panics
/// Panics if `test_fraction` is outside `[0, 1]`.
pub fn train_test_split(
    data: &TripletMatrix,
    config: SplitConfig,
) -> (TripletMatrix, TripletMatrix) {
    assert!(
        (0.0..=1.0).contains(&config.test_fraction),
        "test_fraction must be within [0, 1], got {}",
        config.test_fraction
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut train = TripletMatrix::with_capacity(data.nrows(), data.ncols(), data.nnz());
    let mut test = TripletMatrix::with_capacity(
        data.nrows(),
        data.ncols(),
        (data.nnz() as f64 * config.test_fraction) as usize + 1,
    );
    // Remaining training ratings per user, used for the coverage rule.
    let mut remaining = data.row_counts();
    for e in data.entries() {
        let take_test = rng.gen::<f64>() < config.test_fraction
            && (!config.keep_user_coverage || remaining[e.row as usize] > 1);
        if take_test {
            test.push_entry(*e);
            remaining[e.row as usize] -= 1;
        } else {
            train.push_entry(*e);
        }
    }
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(rows: usize, cols: usize, per_row: usize) -> TripletMatrix {
        let mut t = TripletMatrix::new(rows, cols);
        for i in 0..rows {
            for c in 0..per_row {
                t.push(i as u32, ((i + c * 7) % cols) as u32, (i + c) as f64);
            }
        }
        t
    }

    #[test]
    fn split_is_deterministic() {
        let data = dataset(50, 30, 5);
        let (tr1, te1) = train_test_split(&data, SplitConfig::standard(7));
        let (tr2, te2) = train_test_split(&data, SplitConfig::standard(7));
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
    }

    #[test]
    fn different_seeds_give_different_splits() {
        let data = dataset(50, 30, 5);
        let (_, te1) = train_test_split(&data, SplitConfig::standard(1));
        let (_, te2) = train_test_split(&data, SplitConfig::standard(2));
        assert_ne!(te1, te2);
    }

    #[test]
    fn split_partitions_all_entries() {
        let data = dataset(40, 20, 6);
        let (train, test) = train_test_split(&data, SplitConfig::standard(3));
        assert_eq!(train.nnz() + test.nnz(), data.nnz());
        assert_eq!(train.nrows(), data.nrows());
        assert_eq!(test.ncols(), data.ncols());
    }

    #[test]
    fn test_fraction_is_approximately_respected() {
        let data = dataset(200, 100, 10);
        let cfg = SplitConfig {
            test_fraction: 0.3,
            seed: 11,
            keep_user_coverage: false,
        };
        let (_, test) = train_test_split(&data, cfg);
        let frac = test.nnz() as f64 / data.nnz() as f64;
        assert!((frac - 0.3).abs() < 0.05, "observed fraction {frac}");
    }

    #[test]
    fn coverage_rule_keeps_each_user_in_training() {
        let data = dataset(100, 50, 3);
        let cfg = SplitConfig {
            test_fraction: 0.9, // aggressive, would otherwise empty many users
            seed: 5,
            keep_user_coverage: true,
        };
        let (train, _) = train_test_split(&data, cfg);
        let counts = train.row_counts();
        assert!(
            counts.iter().all(|&c| c >= 1),
            "every user keeps at least one training rating"
        );
    }

    #[test]
    fn zero_fraction_puts_everything_in_train() {
        let data = dataset(10, 10, 2);
        let cfg = SplitConfig {
            test_fraction: 0.0,
            seed: 1,
            keep_user_coverage: false,
        };
        let (train, test) = train_test_split(&data, cfg);
        assert_eq!(train.nnz(), data.nnz());
        assert_eq!(test.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "test_fraction")]
    fn invalid_fraction_panics() {
        let data = dataset(5, 5, 1);
        let cfg = SplitConfig {
            test_fraction: 1.5,
            seed: 0,
            keep_user_coverage: false,
        };
        let _ = train_test_split(&data, cfg);
    }
}
