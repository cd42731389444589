//! The Section 5.5 growing-scale generator.
//!
//! "As we increase the number of machines from 4 to 32, we fixed the number
//! of items to be the same to that of Netflix (17,770), and increased the
//! number of users to be proportional to the number of machines (480,189 ×
//! the number of machines).  Therefore, the expected number of ratings in
//! each dataset is proportional to the number of machines (99,072,112 × the
//! number of machines) as well."
//!
//! The generator here reproduces that construction at a configurable base
//! scale: `users = users_per_machine × machines`, `items` fixed, and
//! `ratings = ratings_per_machine × machines`, with values from the
//! rank-100 Gaussian ground truth + σ=0.1 noise of the paper.

use nomad_matrix::SplitConfig;

use crate::generator::{generate, GeneratedDataset, SyntheticConfig};

/// Configuration of the growing-scale experiment family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingConfig {
    /// Users added per machine.  The paper uses 480,189 (Netflix active
    /// users); benchmarks use a scaled-down value.
    pub users_per_machine: usize,
    /// Fixed number of items.  The paper uses 17,770 (Netflix items).
    pub items: usize,
    /// Ratings added per machine.  The paper uses 99,072,112.
    pub ratings_per_machine: usize,
    /// Rank of the ground-truth factor model the ratings are generated
    /// from (the paper uses 100).
    pub truth_rank: usize,
    /// Fraction of ratings held out for testing.
    pub test_fraction: f64,
    /// Base RNG seed; the machine count is mixed in so each scale gets a
    /// distinct but reproducible dataset.
    pub seed: u64,
}

impl ScalingConfig {
    /// The paper's exact configuration (only practical on a large machine).
    pub fn paper() -> Self {
        Self {
            users_per_machine: 480_189,
            items: 17_770,
            ratings_per_machine: 99_072_112,
            truth_rank: 100,
            test_fraction: 0.2,
            seed: 0x5_5,
        }
    }

    /// A laptop-scale configuration that divides the paper's sizes by
    /// `factor` while keeping the users : ratings proportion.  The item
    /// count is also divided by `factor`, but floored so that the matrix
    /// retains enough capacity (at most ~10% of user×item cells observed
    /// per machine) — at extreme scale-downs the paper's fixed 17,770 items
    /// would otherwise shrink below what the per-user rating count needs.
    pub fn scaled_down(factor: usize) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        let paper = Self::paper();
        let users_per_machine = (paper.users_per_machine / factor).max(1);
        let ratings_per_machine = (paper.ratings_per_machine / factor).max(1);
        let min_items = (10 * ratings_per_machine).div_ceil(users_per_machine);
        Self {
            users_per_machine,
            items: (paper.items / factor).max(min_items).min(paper.items),
            ratings_per_machine,
            ..paper
        }
    }
}

/// Generates the dataset for a given machine count under `config`.
pub fn scaling_dataset(config: &ScalingConfig, machines: usize) -> GeneratedDataset {
    assert!(machines > 0, "need at least one machine");
    let mut synth = SyntheticConfig::section_5_5(
        config.users_per_machine * machines,
        config.items,
        config.ratings_per_machine * machines,
        config.seed ^ (machines as u64).wrapping_mul(0x9E37_79B9),
    );
    if let crate::generator::ValueModel::LowRank { ref mut rank, .. } = synth.value_model {
        *rank = config.truth_rank.max(1);
    }
    let split = SplitConfig {
        test_fraction: config.test_fraction,
        seed: config.seed,
        keep_user_coverage: true,
    };
    let mut ds = generate(&synth, split);
    ds.name = format!("scaling-m{machines}");
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScalingConfig {
        ScalingConfig {
            users_per_machine: 100,
            items: 40,
            ratings_per_machine: 800,
            truth_rank: 10,
            test_fraction: 0.2,
            seed: 7,
        }
    }

    #[test]
    fn paper_configuration_matches_section_5_5() {
        let p = ScalingConfig::paper();
        assert_eq!(p.users_per_machine, 480_189);
        assert_eq!(p.items, 17_770);
        assert_eq!(p.ratings_per_machine, 99_072_112);
        assert_eq!(p.truth_rank, 100);
    }

    #[test]
    fn truth_rank_override_reaches_the_generator() {
        let mut cfg = tiny();
        cfg.truth_rank = 3;
        let ds = scaling_dataset(&cfg, 1);
        assert!(ds.train_nnz() > 0);
    }

    #[test]
    fn scaled_down_keeps_proportions() {
        let s = ScalingConfig::scaled_down(1000);
        let p = ScalingConfig::paper();
        let ratio = |a: usize, b: usize| a as f64 / b as f64;
        assert!(
            (ratio(s.ratings_per_machine, s.users_per_machine)
                - ratio(p.ratings_per_machine, p.users_per_machine))
            .abs()
                < 1.0
        );
        assert!(s.items >= 1);
    }

    #[test]
    fn dataset_grows_linearly_with_machines() {
        let cfg = tiny();
        let d1 = scaling_dataset(&cfg, 1);
        let d4 = scaling_dataset(&cfg, 4);
        assert_eq!(d1.matrix.nrows(), 100);
        assert_eq!(d4.matrix.nrows(), 400);
        assert_eq!(d1.matrix.ncols(), 40);
        assert_eq!(d4.matrix.ncols(), 40);
        let total1 = d1.train_nnz() + d1.test_nnz();
        let total4 = d4.train_nnz() + d4.test_nnz();
        assert!(
            (total4 as f64 / total1 as f64 - 4.0).abs() < 0.3,
            "ratings should grow ~4x: {total1} -> {total4}"
        );
    }

    #[test]
    fn different_machine_counts_use_different_seeds() {
        let cfg = tiny();
        let d2 = scaling_dataset(&cfg, 2);
        let d3 = scaling_dataset(&cfg, 3);
        assert_ne!(d2.train, d3.train);
        assert_eq!(d2.name, "scaling-m2");
        assert_eq!(d3.name, "scaling-m3");
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_panics() {
        let _ = scaling_dataset(&tiny(), 0);
    }
}
