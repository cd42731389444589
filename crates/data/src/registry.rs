//! Named dataset recipes used by examples, tests and the benchmark harness.
//!
//! Each recipe is a scaled-down analogue of one of the paper's datasets
//! (Table 2), keeping the rows : cols : nnz proportions — and therefore the
//! ratings-per-item ratio that controls the compute/communication balance —
//! while fitting comfortably in memory on a development machine.  Three
//! sizes are provided per dataset (`tiny`, `small`, `medium`); the benchmark
//! binaries default to `small` and accept a size override.

use nomad_matrix::SplitConfig;

use crate::generator::{generate, GeneratedDataset, SyntheticConfig};
use crate::profiles::DatasetProfile;

/// Size tiers for the simulated datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeTier {
    /// ~5k ratings; unit/integration tests.
    Tiny,
    /// ~100k ratings; examples and quick benchmark runs.
    Small,
    /// ~1M ratings; the default for figure reproduction.
    Medium,
}

impl SizeTier {
    /// Target number of observed ratings for this tier.
    pub fn target_nnz(self) -> usize {
        match self {
            SizeTier::Tiny => 5_000,
            SizeTier::Small => 100_000,
            SizeTier::Medium => 1_000_000,
        }
    }

    /// Parses `"tiny"`, `"small"`, `"medium"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(SizeTier::Tiny),
            "small" => Some(SizeTier::Small),
            "medium" => Some(SizeTier::Medium),
            _ => None,
        }
    }
}

/// A named, reproducible dataset recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRecipe {
    /// Registry name, e.g. `netflix-sim`.
    pub name: String,
    /// The scaled profile the generator targets.
    pub profile: DatasetProfile,
    /// Generator configuration.
    pub config: SyntheticConfig,
    /// Train/test split configuration.
    pub split: SplitConfig,
}

impl DatasetRecipe {
    /// Materializes the dataset.
    pub fn build(&self) -> GeneratedDataset {
        let mut ds = generate(&self.config, self.split);
        ds.name = self.name.clone();
        ds
    }
}

/// The names available from [`named_dataset`].
pub fn registry_names() -> Vec<&'static str> {
    vec!["netflix-sim", "yahoo-sim", "hugewiki-sim"]
}

/// Looks up a named recipe at the requested size tier.
///
/// Returns `None` for unknown names.  All recipes are deterministic: the
/// same name and tier always produce the identical dataset.
pub fn named_dataset(name: &str, tier: SizeTier) -> Option<DatasetRecipe> {
    let (profile, seed) = match name {
        "netflix-sim" => (DatasetProfile::netflix(), 101u64),
        "yahoo-sim" => (DatasetProfile::yahoo_music(), 202),
        "hugewiki-sim" => (DatasetProfile::hugewiki(), 303),
        _ => return None,
    };
    let scaled = profile.scaled_to_nnz(tier.target_nnz(), 0.02);
    let config = SyntheticConfig::from_profile(&scaled, seed);
    Some(DatasetRecipe {
        name: name.to_string(),
        profile: scaled,
        config,
        split: SplitConfig::standard(seed ^ 0xDEAD),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_three_paper_datasets() {
        for name in registry_names() {
            assert!(
                named_dataset(name, SizeTier::Tiny).is_some(),
                "{name} missing"
            );
        }
        assert!(named_dataset("unknown", SizeTier::Tiny).is_none());
    }

    #[test]
    fn tier_parse_roundtrip() {
        assert_eq!(SizeTier::parse("tiny"), Some(SizeTier::Tiny));
        assert_eq!(SizeTier::parse("Small"), Some(SizeTier::Small));
        assert_eq!(SizeTier::parse("MEDIUM"), Some(SizeTier::Medium));
        assert_eq!(SizeTier::parse("huge"), None);
    }

    #[test]
    fn tiny_netflix_sim_has_expected_shape() {
        let recipe = named_dataset("netflix-sim", SizeTier::Tiny).unwrap();
        let ds = recipe.build();
        let total = ds.train_nnz() + ds.test_nnz();
        assert!((3_000..=6_000).contains(&total), "total ratings {total}");
        assert_eq!(ds.name, "netflix-sim");
        // Ratings-per-item stays close to the real Netflix ratio (~5575);
        // integer scaling perturbs it, so allow a generous band.
        let rpi = total as f64 / ds.matrix.ncols() as f64;
        assert!(rpi > 100.0, "netflix-sim must stay item-dense, got {rpi}");
    }

    #[test]
    fn yahoo_sim_is_item_sparse_relative_to_netflix_sim() {
        // The key structural property the paper relies on: Yahoo! Music has
        // far fewer ratings per item than Netflix.
        let netflix = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        let yahoo = named_dataset("yahoo-sim", SizeTier::Tiny).unwrap().build();
        let rpi =
            |d: &GeneratedDataset| (d.train_nnz() + d.test_nnz()) as f64 / d.matrix.ncols() as f64;
        assert!(
            rpi(&yahoo) < rpi(&netflix) / 3.0,
            "yahoo-sim {} vs netflix-sim {}",
            rpi(&yahoo),
            rpi(&netflix)
        );
    }

    #[test]
    fn recipes_are_deterministic() {
        let a = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        let b = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    /// FNV-1a over `(row, col, value bits)` of every train entry, then
    /// every test entry, little-endian.
    fn fnv1a(ds: &GeneratedDataset) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for e in ds.train.entries().iter().chain(ds.test.entries()) {
            let bytes = e.row.to_le_bytes().into_iter().chain(e.col.to_le_bytes());
            for byte in bytes.chain(e.value.to_bits().to_le_bytes()) {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }

    /// The benchmark measures each workload on one registered dataset, so
    /// a recipe must build the same ratings in every later version, not
    /// only twice in one.  A pin that moves means the generator, a
    /// profile, a seed or the split changed.
    #[test]
    fn registered_datasets_match_their_golden_hashes() {
        const GOLDEN: [(&str, SizeTier, u64); 6] = [
            ("netflix-sim", SizeTier::Tiny, 0xBAE8_6B74_9629_AB98),
            ("netflix-sim", SizeTier::Small, 0x70CE_58DB_23F5_2BC1),
            ("yahoo-sim", SizeTier::Tiny, 0x7A75_8997_4D02_C1AD),
            ("yahoo-sim", SizeTier::Small, 0x25BC_1340_7449_D383),
            ("hugewiki-sim", SizeTier::Tiny, 0xD698_1F64_E8F9_EC64),
            ("hugewiki-sim", SizeTier::Small, 0x61E8_2DAC_486F_C1DD),
        ];
        for (name, tier, pin) in GOLDEN {
            let ds = named_dataset(name, tier).unwrap().build();
            let hash = fnv1a(&ds);
            assert_eq!(hash, pin, "{name} {tier:?}: 0x{hash:016X}");
        }
    }

    #[test]
    fn ratings_stay_in_declared_range() {
        let recipe = named_dataset("yahoo-sim", SizeTier::Tiny).unwrap();
        let ds = recipe.build();
        let (min, max) = (recipe.profile.rating_min, recipe.profile.rating_max);
        for e in ds.train.entries().iter().chain(ds.test.entries()) {
            assert!((min..=max).contains(&e.value));
        }
    }
}
