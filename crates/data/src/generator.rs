//! Skewed low-rank + noise synthetic rating generator.
//!
//! Section 5.5 of the paper generates synthetic data by (a) sampling the
//! number of ratings of each user and item from the empirical Netflix
//! marginals, (b) choosing the non-zero positions uniformly at random
//! conditioned on those counts, and (c) producing values from a ground-truth
//! low-rank model plus Gaussian noise.  We do not ship the Netflix marginals
//! (they derive from the proprietary data), so step (a) is replaced by a
//! Zipf-like popularity model whose skew is configurable; the documented
//! effect — a heavy-tailed degree distribution over both users and items —
//! is preserved, and the rest of the pipeline follows the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nomad_matrix::split::train_test_split;
use nomad_matrix::{RatingMatrix, SplitConfig, TripletMatrix};

use crate::profiles::DatasetProfile;

/// How rating *values* are produced once the non-zero positions are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueModel {
    /// `A_ij = ⟨w*_i, h*_j⟩ + ε`, with ground-truth factors drawn i.i.d.
    /// `N(0, factor_scale²)` and noise `ε ~ N(0, noise_std²)`.  This is the
    /// Section 5.5 model when `factor_scale = 1` and `noise_std = 0.1`.
    LowRank {
        /// Rank of the ground-truth model.
        rank: usize,
        /// Standard deviation of each ground-truth factor entry.
        factor_scale: f64,
        /// Standard deviation of the additive observation noise.
        noise_std: f64,
    },
    /// Low-rank scores affinely mapped and clamped into `[min, max]`, which
    /// imitates star-rating data (Netflix 1–5, Yahoo! Music 0–100) so that
    /// test RMSE lands on a scale comparable to the paper's plots.
    ScaledLowRank {
        /// Rank of the ground-truth model.
        rank: usize,
        /// Noise added *after* scaling, in rating units.
        noise_std: f64,
        /// Smallest representable rating.
        min: f64,
        /// Largest representable rating.
        max: f64,
    },
    /// Uniform random values in `[min, max]` — no planted structure.  Used
    /// by tests that need data a factor model cannot fit.
    UniformNoise {
        /// Smallest value.
        min: f64,
        /// Largest value.
        max: f64,
    },
}

/// Full configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of users `m`.
    pub num_users: usize,
    /// Number of items `n`.
    pub num_items: usize,
    /// Target number of observed ratings `|Ω|` (the generator gets within a
    /// few percent of this; collisions are discarded).
    pub target_nnz: usize,
    /// Skew of item popularity: 0 = uniform, 1 ≈ Zipf.  The paper's real
    /// datasets are strongly skewed, which is what creates the per-item
    /// load imbalance NOMAD's dynamic balancing addresses.
    pub item_skew: f64,
    /// Skew of user activity: 0 = uniform, 1 ≈ Zipf.
    pub user_skew: f64,
    /// How rating values are produced.
    pub value_model: ValueModel,
    /// RNG seed; everything is deterministic given the seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A generator matching `profile`'s shape, with moderate skew and
    /// star-rating-like values.
    pub fn from_profile(profile: &DatasetProfile, seed: u64) -> Self {
        Self {
            num_users: profile.rows,
            num_items: profile.cols,
            target_nnz: profile.nnz,
            item_skew: 0.6,
            user_skew: 0.6,
            value_model: ValueModel::ScaledLowRank {
                rank: 20,
                noise_std: 0.1 * (profile.rating_max - profile.rating_min),
                min: profile.rating_min,
                max: profile.rating_max,
            },
            seed,
        }
    }

    /// The Section 5.5 configuration: standard Gaussian ground-truth factors
    /// of rank 100 and noise σ = 0.1, uniform positions conditioned on
    /// skewed marginals.
    pub fn section_5_5(num_users: usize, num_items: usize, target_nnz: usize, seed: u64) -> Self {
        Self {
            num_users,
            num_items,
            target_nnz,
            item_skew: 0.6,
            user_skew: 0.6,
            value_model: ValueModel::LowRank {
                rank: 100,
                factor_scale: 1.0,
                noise_std: 0.1,
            },
            seed,
        }
    }
}

/// A generated dataset: train/test triplets plus the solver-facing
/// [`RatingMatrix`] built from the training part.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Human-readable name (propagated from the recipe or profile).
    pub name: String,
    /// Training ratings as triplets.
    pub train: TripletMatrix,
    /// Held-out test ratings.
    pub test: TripletMatrix,
    /// Training ratings in CSR + CSC form.
    pub matrix: RatingMatrix,
}

impl GeneratedDataset {
    /// Builds the bundle from already-split triplets.
    pub fn from_split(name: impl Into<String>, train: TripletMatrix, test: TripletMatrix) -> Self {
        let matrix = RatingMatrix::from_triplets(&train);
        Self {
            name: name.into(),
            train,
            test,
            matrix,
        }
    }

    /// Number of training ratings.
    pub fn train_nnz(&self) -> usize {
        self.train.nnz()
    }

    /// Number of test ratings.
    pub fn test_nnz(&self) -> usize {
        self.test.nnz()
    }
}

/// Zipf-like cumulative weights: weight of index `r` is `(r+1)^(-skew)`,
/// assigned to indices in a deterministic shuffled order so that popularity
/// is not correlated with index order (real IDs are arbitrary).
fn skewed_cumulative(n: usize, skew: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut weights = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher–Yates with the caller's RNG so the assignment is deterministic.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    for (rank, &idx) in order.iter().enumerate() {
        weights[idx] = 1.0 / ((rank + 1) as f64).powf(skew);
    }
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in weights {
        acc += w;
        cum.push(acc);
    }
    cum
}

/// Samples an index from a cumulative weight vector.
fn sample_cumulative(cum: &[f64], rng: &mut StdRng) -> usize {
    let total = *cum.last().expect("non-empty cumulative weights");
    let x = rng.gen_range(0.0..total);
    match cum.binary_search_by(|probe| probe.partial_cmp(&x).expect("no NaN weights")) {
        Ok(i) => i,
        Err(i) => i.min(cum.len() - 1),
    }
}

/// Generates the full observed matrix (before any train/test split).
pub fn generate_triplets(config: &SyntheticConfig) -> TripletMatrix {
    assert!(
        config.num_users > 0 && config.num_items > 0,
        "empty dimensions"
    );
    assert!(
        config.target_nnz <= config.num_users * config.num_items,
        "target_nnz exceeds the matrix capacity"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);

    let user_cum = skewed_cumulative(config.num_users, config.user_skew, &mut rng);
    let item_cum = skewed_cumulative(config.num_items, config.item_skew, &mut rng);

    // Ground-truth factors for the value model (lazily sized).
    let (rank, factor_scale): (usize, f64) = match config.value_model {
        ValueModel::LowRank {
            rank, factor_scale, ..
        } => (rank, factor_scale),
        ValueModel::ScaledLowRank { rank, .. } => (rank, 1.0),
        ValueModel::UniformNoise { .. } => (0, 0.0),
    };
    let gaussian = |rng: &mut StdRng| -> f64 {
        // Box–Muller using two uniform draws from the caller's RNG.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let w_true: Vec<f64> = (0..config.num_users * rank)
        .map(|_| gaussian(&mut rng) * factor_scale)
        .collect();
    let h_true: Vec<f64> = (0..config.num_items * rank)
        .map(|_| gaussian(&mut rng) * factor_scale)
        .collect();

    // For the scaled model, map scores so that ±2σ of the score distribution
    // spans the rating range.
    let score_sigma = if rank > 0 {
        (rank as f64).sqrt() * factor_scale
    } else {
        1.0
    };

    let mut seen = std::collections::HashSet::with_capacity(config.target_nnz * 2);
    let mut t = TripletMatrix::with_capacity(config.num_users, config.num_items, config.target_nnz);
    // Bail out once collisions dominate: at most 20 attempts per target entry.
    let attempt_cap = config.target_nnz.saturating_mul(20).max(1000);
    let mut attempts = 0usize;
    while t.nnz() < config.target_nnz && attempts < attempt_cap {
        attempts += 1;
        let i = sample_cumulative(&user_cum, &mut rng);
        let j = sample_cumulative(&item_cum, &mut rng);
        if !seen.insert(((i as u64) << 32) | j as u64) {
            continue;
        }
        let value = match config.value_model {
            ValueModel::UniformNoise { min, max } => rng.gen_range(min..max),
            ValueModel::LowRank { noise_std, .. } => {
                let score = nomad_linalg_dot(
                    &w_true[i * rank..(i + 1) * rank],
                    &h_true[j * rank..(j + 1) * rank],
                );
                score + gaussian(&mut rng) * noise_std
            }
            ValueModel::ScaledLowRank {
                noise_std,
                min,
                max,
                ..
            } => {
                let score = nomad_linalg_dot(
                    &w_true[i * rank..(i + 1) * rank],
                    &h_true[j * rank..(j + 1) * rank],
                );
                let mid = 0.5 * (min + max);
                let half = 0.5 * (max - min);
                let scaled = mid + score / (2.0 * score_sigma) * half;
                (scaled + gaussian(&mut rng) * noise_std).clamp(min, max)
            }
        };
        t.push(i as u32, j as u32, value);
    }
    t
}

// Tiny local dot to avoid importing the linalg crate just for the generator.
#[inline]
fn nomad_linalg_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Generates a dataset from `config` and splits it into train/test using
/// `split`.
pub fn generate(config: &SyntheticConfig, split: SplitConfig) -> GeneratedDataset {
    let all = generate_triplets(config);
    let (train, test) = train_test_split(&all, split);
    GeneratedDataset::from_split(format!("synthetic-{}", config.seed), train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            num_users: 200,
            num_items: 50,
            target_nnz: 2000,
            item_skew: 0.6,
            user_skew: 0.4,
            value_model: ValueModel::LowRank {
                rank: 5,
                factor_scale: 1.0,
                noise_std: 0.1,
            },
            seed: 42,
        }
    }

    #[test]
    fn generator_hits_the_target_size() {
        let t = generate_triplets(&small_config());
        assert_eq!(t.nrows(), 200);
        assert_eq!(t.ncols(), 50);
        assert!(t.nnz() as f64 >= 0.95 * 2000.0, "nnz = {}", t.nnz());
        assert!(t.nnz() <= 2000);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate_triplets(&small_config());
        let b = generate_triplets(&small_config());
        assert_eq!(a, b);
        let mut other = small_config();
        other.seed = 43;
        assert_ne!(a, generate_triplets(&other));
    }

    #[test]
    fn no_duplicate_coordinates() {
        let t = generate_triplets(&small_config());
        let mut coords: Vec<(u32, u32)> = t.entries().iter().map(|e| (e.row, e.col)).collect();
        let before = coords.len();
        coords.sort_unstable();
        coords.dedup();
        assert_eq!(before, coords.len());
    }

    #[test]
    fn skew_produces_heavier_tails_than_uniform() {
        let mut uniform_cfg = small_config();
        uniform_cfg.item_skew = 0.0;
        uniform_cfg.user_skew = 0.0;
        let mut skewed_cfg = small_config();
        skewed_cfg.item_skew = 1.0;
        let uniform = generate_triplets(&uniform_cfg);
        let skewed = generate_triplets(&skewed_cfg);
        let max_col_uniform = *uniform.col_counts().iter().max().unwrap();
        let max_col_skewed = *skewed.col_counts().iter().max().unwrap();
        assert!(
            max_col_skewed > max_col_uniform,
            "skewed max {max_col_skewed} should exceed uniform max {max_col_uniform}"
        );
    }

    #[test]
    fn scaled_value_model_respects_rating_range() {
        let mut cfg = small_config();
        cfg.value_model = ValueModel::ScaledLowRank {
            rank: 8,
            noise_std: 0.3,
            min: 1.0,
            max: 5.0,
        };
        let t = generate_triplets(&cfg);
        assert!(t.entries().iter().all(|e| (1.0..=5.0).contains(&e.value)));
        // Values should not all be identical (the clamp must not saturate everything).
        let first = t.entries()[0].value;
        assert!(t.entries().iter().any(|e| (e.value - first).abs() > 1e-9));
    }

    #[test]
    fn uniform_noise_model_covers_the_interval() {
        let mut cfg = small_config();
        cfg.value_model = ValueModel::UniformNoise {
            min: -1.0,
            max: 1.0,
        };
        let t = generate_triplets(&cfg);
        assert!(t.entries().iter().all(|e| (-1.0..1.0).contains(&e.value)));
    }

    #[test]
    fn low_rank_data_is_roughly_centered() {
        // With symmetric Gaussian factors the mean rating should be near 0.
        let t = generate_triplets(&small_config());
        let mean = t.mean_rating().unwrap();
        let std = (t
            .entries()
            .iter()
            .map(|e| (e.value - mean).powi(2))
            .sum::<f64>()
            / t.nnz() as f64)
            .sqrt();
        assert!(mean.abs() < 0.5 * std, "mean {mean} vs std {std}");
    }

    #[test]
    fn generate_splits_train_and_test() {
        let ds = generate(&small_config(), SplitConfig::standard(9));
        assert_eq!(
            ds.train_nnz() + ds.test_nnz(),
            generate_triplets(&small_config()).nnz()
        );
        assert!(ds.test_nnz() > 0);
        assert_eq!(ds.matrix.nnz(), ds.train_nnz());
        assert!(ds.name.contains("synthetic"));
    }

    #[test]
    fn from_profile_matches_shape() {
        let profile = DatasetProfile::netflix().scaled_to_nnz(5_000, 0.02);
        let cfg = SyntheticConfig::from_profile(&profile, 1);
        assert_eq!(cfg.num_users, profile.rows);
        assert_eq!(cfg.num_items, profile.cols);
        assert_eq!(cfg.target_nnz, profile.nnz);
        match cfg.value_model {
            ValueModel::ScaledLowRank { min, max, .. } => {
                assert_eq!(min, 1.0);
                assert_eq!(max, 5.0);
            }
            other => panic!("unexpected value model {other:?}"),
        }
    }

    #[test]
    fn section_5_5_config_uses_rank_100_and_noise_0_1() {
        let cfg = SyntheticConfig::section_5_5(1000, 100, 5000, 3);
        match cfg.value_model {
            ValueModel::LowRank {
                rank,
                factor_scale,
                noise_std,
            } => {
                assert_eq!(rank, 100);
                assert_eq!(factor_scale, 1.0);
                assert_eq!(noise_std, 0.1);
            }
            other => panic!("unexpected value model {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the matrix capacity")]
    fn impossible_target_nnz_panics() {
        let cfg = SyntheticConfig {
            num_users: 10,
            num_items: 10,
            target_nnz: 1000,
            ..small_config()
        };
        let _ = generate_triplets(&cfg);
    }
}
