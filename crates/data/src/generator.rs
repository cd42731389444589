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
//!
//! # Two passes over a counter
//!
//! Every value comes from one seeded [`StdRng`] stream, and the benchmark
//! and the golden hashes depend on each draw landing where it always has.
//! The workspace's `StdRng` is splitmix64, whose state is a counter: the
//! generator `n` draws into the stream is `stream_at(seed, n)`, so every
//! draw has an address and can be made on any thread.  [`generate_triplets`]
//! keeps on one thread only what decides an address:
//!
//! 1. **In stream order, on one thread:** the marginals' shuffles (`n − 1`
//!    draws each), then per attempt a user and an item and a dedup check
//!    (the first hit on a position wins).  A new position parks the stream
//!    position of its own draw — two draws of Gaussian noise, or one for
//!    the whole value under [`ValueModel::UniformNoise`] — in its value
//!    slot, and the loop skips past it.
//! 2. **Off the serial pass, on every core:** the ground-truth factors,
//!    whose two draws per entry start right after the shuffles, filled in
//!    one contiguous chunk per core that jumps to its first draw; then each
//!    entry's own draw, made at its parked position, combined with its
//!    score `⟨w*_i, h*_j⟩` by the same expression on the same operands.
//!    Each value is a function of its address alone, so the chunking
//!    cannot move a bit.
//!
//! The marginal search answers through a guide table (`CumulativeSampler`)
//! with the index a `partition_point` over the whole table returns, in a
//! probe or two instead of ~17.  The data are those of one loop that makes
//! every draw in stream order; `crates/data/tests/medium_goldens.rs` pins
//! them.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nomad_matrix::split::train_test_split;
use nomad_matrix::{Entry, Idx, RatingMatrix, SplitConfig, TripletMatrix};

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

/// The generator `n` draws into the stream that `seed` starts.
///
/// `StdRng` is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): each draw adds
/// γ = `0x9E37_79B9_7F4A_7C15` to a 64-bit state and mixes the sum into its
/// output, and `seed_from_u64(s)` sets the state to `s`.  After `n` draws the
/// state is `s + n·γ` (mod 2⁶⁴), which is `seed_from_u64(s + n·γ)`.  Here a
/// draw is one 64-bit output: a `gen_range` or a `gen::<f64>()` each.
fn stream_at(seed: u64, n: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Draws an index from a cumulative weight table: the first index whose
/// cumulative weight reaches a uniform draw in `[0, total)`, found through a
/// guide table (Chen & Asau's indexed search) over `G = len` buckets.
///
/// `bucket(c) = min(G − 1, ⌊c · (G / total)⌋)` is monotone in `c`: a
/// rounded product by a positive constant, a floor and a `min` each are.
/// `guide[b]` is the first index whose bucket is at least `b`.  For a draw
/// `x` in bucket `b`, every index before `guide[b]` has a smaller bucket,
/// so a weight below `x`, and the index `guide[b + 1]` a larger one, so a
/// weight at or above `x`: the answer lies in `guide[b]..=guide[b + 1]`,
/// and a `partition_point` over that slice returns the index one over the
/// whole table does.  Skewed marginals put a few indexes in a bucket.
struct CumulativeSampler {
    cum: Vec<f64>,
    total: f64,
    /// `G / total`.
    scale: f64,
    /// `G + 1` entries; `guide[G] = len`.
    guide: Vec<u32>,
}

impl CumulativeSampler {
    fn new(cum: Vec<f64>) -> Self {
        let total = *cum.last().expect("non-empty cumulative weights");
        let len = u32::try_from(cum.len()).expect("indexes fit the u32 coordinates");
        let mut sampler = Self {
            scale: cum.len() as f64 / total,
            guide: Vec::with_capacity(cum.len() + 1),
            cum,
            total,
        };
        // `bucket(total)` is `G − 1`, so the scan stops inside the table.
        let mut first = 0;
        for b in 0..sampler.cum.len() {
            while sampler.bucket(sampler.cum[first]) < b {
                first += 1;
            }
            sampler.guide.push(first as u32);
        }
        sampler.guide.push(len);
        sampler
    }

    fn bucket(&self, c: f64) -> usize {
        ((c * self.scale) as usize).min(self.cum.len() - 1)
    }

    /// The first index whose cumulative weight reaches `x`, or the last.
    fn index(&self, x: f64) -> usize {
        let b = self.bucket(x);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        (lo + self.cum[lo..hi].partition_point(|&c| c < x)).min(self.cum.len() - 1)
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        self.index(rng.gen_range(0.0..self.total))
    }
}

/// A standard Gaussian by Box–Muller, from two uniform draws.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Hashes the dedup set's packed `(i, j)` keys: one 64 × 64 → 128-bit
/// multiply by an odd constant, its halves folded by xor.  Deterministic,
/// and a fraction of SipHash's cost.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the dedup set hashes only u64 keys");
    }

    fn write_u64(&mut self, key: u64) {
        let product = key as u128 * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
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
    let seed = config.seed;
    let mut rng = StdRng::seed_from_u64(seed);
    let users = CumulativeSampler::new(skewed_cumulative(
        config.num_users,
        config.user_skew,
        &mut rng,
    ));
    let items = CumulativeSampler::new(skewed_cumulative(
        config.num_items,
        config.item_skew,
        &mut rng,
    ));
    // The shuffles made `n − 1` draws each; `at` addresses the next one.
    let mut at = (config.num_users - 1 + config.num_items - 1) as u64;

    // Ground-truth factors for the value model (lazily sized).
    let (rank, factor_scale): (usize, f64) = match config.value_model {
        ValueModel::LowRank {
            rank, factor_scale, ..
        } => (rank, factor_scale),
        ValueModel::ScaledLowRank { rank, .. } => (rank, 1.0),
        ValueModel::UniformNoise { .. } => (0, 0.0),
    };
    // Two draws per factor entry, `w_true` first; a chunk jumps to its own.
    let mut ground_truth = |len: usize| {
        let mut factors = vec![0.0f64; len];
        let first = at;
        on_every_core(&mut factors, |start, chunk| {
            let mut rng = stream_at(seed, first + 2 * start as u64);
            for x in chunk {
                *x = gaussian(&mut rng) * factor_scale;
            }
        });
        at += 2 * len as u64;
        factors
    };
    let w_true = ground_truth(config.num_users * rank);
    let h_true = ground_truth(config.num_items * rank);

    // For the scaled model, map scores so that ±2σ of the score distribution
    // spans the rating range.
    let score_sigma = if rank > 0 {
        (rank as f64).sqrt() * factor_scale
    } else {
        1.0
    };

    // Pass 1, in stream order: positions, and each new position's stream
    // address of its own draw (its noise, or its whole value for uniform
    // noise) parked in its value slot, the draw itself skipped.
    let own_draws = match config.value_model {
        ValueModel::UniformNoise { .. } => 1,
        ValueModel::LowRank { .. } | ValueModel::ScaledLowRank { .. } => 2,
    };
    let mut seen = HashSet::<u64, BuildHasherDefault<FoldHasher>>::with_capacity_and_hasher(
        config.target_nnz * 2,
        Default::default(),
    );
    let mut entries = Vec::with_capacity(config.target_nnz);
    // Bail out once collisions dominate: at most 20 attempts per target entry.
    let attempt_cap = config.target_nnz.saturating_mul(20).max(1000);
    let mut attempts = 0usize;
    while entries.len() < config.target_nnz && attempts < attempt_cap {
        attempts += 1;
        let mut rng = stream_at(seed, at);
        let i = users.sample(&mut rng);
        let j = items.sample(&mut rng);
        at += 2;
        if !seen.insert(((i as u64) << 32) | j as u64) {
            continue;
        }
        entries.push(Entry::new(i as Idx, j as Idx, at as f64));
        at += own_draws;
    }
    assert!(
        at < 1 << 53,
        "stream addresses past 2^53 do not park exactly"
    );

    // Pass 2, off the serial pass: each entry's own draw at its parked
    // address, combined with its score against the ground truth.
    let own_rng = |e: &Entry| stream_at(seed, e.value as u64);
    let score = |e: &Entry| {
        let (i, j) = (e.row as usize, e.col as usize);
        nomad_linalg_dot(
            &w_true[i * rank..(i + 1) * rank],
            &h_true[j * rank..(j + 1) * rank],
        )
    };
    match config.value_model {
        ValueModel::UniformNoise { min, max } => {
            finish_values(&mut entries, |e| own_rng(e).gen_range(min..max));
        }
        ValueModel::LowRank { noise_std, .. } => {
            finish_values(&mut entries, |e| {
                score(e) + gaussian(&mut own_rng(e)) * noise_std
            });
        }
        ValueModel::ScaledLowRank {
            noise_std,
            min,
            max,
            ..
        } => {
            let mid = 0.5 * (min + max);
            let half = 0.5 * (max - min);
            finish_values(&mut entries, |e| {
                let scaled = mid + score(e) / (2.0 * score_sigma) * half;
                (scaled + gaussian(&mut own_rng(e)) * noise_std).clamp(min, max)
            });
        }
    }
    TripletMatrix::from_entries(config.num_users, config.num_items, entries)
}

/// Replaces each entry's value with `finish(entry)` on every core.
fn finish_values(entries: &mut [Entry], finish: impl Fn(&Entry) -> f64 + Sync) {
    on_every_core(entries, |_, chunk| {
        for e in chunk {
            e.value = finish(e);
        }
    });
}

/// Runs `work(start, chunk)` over `items` in one contiguous chunk per core,
/// `start` being the index of the chunk's first item.  When an item's
/// result depends only on its index and read-only data, how the items are
/// chunked cannot move a bit.
fn on_every_core<T: Send>(items: &mut [T], work: impl Fn(usize, &mut [T]) + Sync) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let size = items.len().div_ceil(cores).max(1);
    let mut chunks = items.chunks_mut(size).enumerate();
    let work = &work;
    std::thread::scope(|scope| {
        let first = chunks.next();
        for (c, chunk) in chunks {
            scope.spawn(move || work(c * size, chunk));
        }
        if let Some((_, chunk)) = first {
            work(0, chunk);
        }
    });
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

    /// Splitmix64's state is a counter; nothing else ties the generator's
    /// jumps to the vendored `StdRng`, so a stream that is not one fails
    /// here before it moves a golden hash.  `2·γ` already wraps past 2⁶⁴,
    /// and the seed `u64::MAX` wraps the sum at the first draw.
    #[test]
    fn stream_at_equals_serial_draws() {
        for seed in [0, 202, u64::MAX] {
            for n in [0u64, 1, 2, 1_000] {
                let mut serial = StdRng::seed_from_u64(seed);
                for _ in 0..n {
                    serial.gen::<u64>();
                }
                let mut jumped = stream_at(seed, n);
                for _ in 0..4 {
                    assert_eq!(
                        jumped.gen::<u64>(),
                        serial.gen::<u64>(),
                        "seed {seed}, n {n}"
                    );
                }
            }
        }
    }

    fn cumulate(weights: &[f64]) -> Vec<f64> {
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect()
    }

    /// The guide table answers what a `partition_point` over the whole
    /// table answers, at 0, at each cumulative weight and its neighbours on
    /// either side, just below the total, and on 10,000 random draws.
    fn assert_guide_matches_partition_point(cum: &[f64]) {
        let sampler = CumulativeSampler::new(cum.to_vec());
        let total = *cum.last().unwrap();
        let mut rng = StdRng::seed_from_u64(cum.len() as u64);
        let mut draws = vec![0.0, total.next_down()];
        draws.extend(cum.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]));
        draws.extend((0..10_000).map(|_| rng.gen_range(0.0..total)));
        for x in draws {
            let want = cum.partition_point(|&c| c < x).min(cum.len() - 1);
            assert_eq!(
                sampler.index(x),
                want,
                "draw {x:e} of {total:e}, {} entries",
                cum.len()
            );
        }
    }

    #[test]
    fn guide_sampler_matches_partition_point() {
        for weights in [&[2.5][..], &[1.0, 3.0], &[0.1, 0.7, 0.2]] {
            assert_guide_matches_partition_point(&cumulate(weights));
        }
        // Weights under half an ulp of the running sum repeat it.
        let repeats = cumulate(&[1.0, 1e-17, 1e-17, 0.5, 1e-300, 1.0, 1e-17]);
        assert_eq!((repeats[0], repeats[4]), (repeats[2], repeats[3]));
        assert_guide_matches_partition_point(&repeats);
        for name in crate::registry_names() {
            let config = crate::named_dataset(name, crate::SizeTier::Medium)
                .unwrap()
                .config;
            let mut rng = StdRng::seed_from_u64(config.seed);
            let users = skewed_cumulative(config.num_users, config.user_skew, &mut rng);
            let items = skewed_cumulative(config.num_items, config.item_skew, &mut rng);
            assert_guide_matches_partition_point(&users);
            assert_guide_matches_partition_point(&items);
        }
    }

    /// The generator as one loop over one stream: every draw in stream
    /// order, each rating scored as its position is found.
    fn one_loop(config: &SyntheticConfig) -> TripletMatrix {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let user_cum = skewed_cumulative(config.num_users, config.user_skew, &mut rng);
        let item_cum = skewed_cumulative(config.num_items, config.item_skew, &mut rng);
        let sample = |cum: &[f64], rng: &mut StdRng| {
            let x = rng.gen_range(0.0..*cum.last().unwrap());
            cum.partition_point(|&c| c < x).min(cum.len() - 1)
        };
        let (rank, factor_scale) = match config.value_model {
            ValueModel::LowRank {
                rank, factor_scale, ..
            } => (rank, factor_scale),
            ValueModel::ScaledLowRank { rank, .. } => (rank, 1.0),
            ValueModel::UniformNoise { .. } => (0, 0.0),
        };
        let mut truth = |rows: usize| -> Vec<f64> {
            (0..rows * rank)
                .map(|_| gaussian(&mut rng) * factor_scale)
                .collect()
        };
        let (w_true, h_true) = (truth(config.num_users), truth(config.num_items));
        let mut seen = HashSet::new();
        let mut entries = Vec::new();
        let mut attempts = 0;
        while entries.len() < config.target_nnz && attempts < config.target_nnz * 20 {
            attempts += 1;
            let i = sample(&user_cum, &mut rng);
            let j = sample(&item_cum, &mut rng);
            if !seen.insert((i, j)) {
                continue;
            }
            let score = nomad_linalg_dot(
                &w_true[i * rank..(i + 1) * rank],
                &h_true[j * rank..(j + 1) * rank],
            );
            let value = match config.value_model {
                ValueModel::UniformNoise { min, max } => rng.gen_range(min..max),
                ValueModel::LowRank { noise_std, .. } => score + gaussian(&mut rng) * noise_std,
                ValueModel::ScaledLowRank {
                    noise_std,
                    min,
                    max,
                    ..
                } => {
                    let sigma = (rank as f64).sqrt();
                    let scaled = 0.5 * (min + max) + score / (2.0 * sigma) * (0.5 * (max - min));
                    (scaled + gaussian(&mut rng) * noise_std).clamp(min, max)
                }
            };
            entries.push(Entry::new(i as Idx, j as Idx, value));
        }
        TripletMatrix::from_entries(config.num_users, config.num_items, entries)
    }

    #[test]
    fn every_value_model_equals_one_loop_over_the_stream() {
        let models = [
            small_config().value_model,
            ValueModel::ScaledLowRank {
                rank: 8,
                noise_std: 0.3,
                min: 1.0,
                max: 5.0,
            },
            ValueModel::UniformNoise {
                min: -1.0,
                max: 1.0,
            },
        ];
        for value_model in models {
            let config = SyntheticConfig {
                value_model,
                ..small_config()
            };
            assert_eq!(
                generate_triplets(&config),
                one_loop(&config),
                "{value_model:?}"
            );
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
