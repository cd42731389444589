//! Golden hashes of the datasets the benchmark measures.
//!
//! The benchmark builds every training workload on a registered recipe at
//! the Medium tier, so those ratings must come out the same in every later
//! version: a faster generator or matrix build is only a speed-up if these
//! pins hold.  Each recipe pins its train and test triplets; the two
//! recipes the benchmark trains on (`netflix-sim`, `yahoo-sim`) also pin
//! their CSR and CSC views.  The registry builds only scaled low-rank
//! values, so two small configurations pin the plain low-rank and the
//! uniform-noise value models.
//!
//! Unoptimised, a Medium build takes seconds, so this file runs in release
//! only: `cargo test --release -p nomad-data --test medium_goldens`.

use nomad_data::{
    generate, named_dataset, GeneratedDataset, SizeTier, SyntheticConfig, ValueModel,
};
use nomad_matrix::{Entry, SplitConfig};

/// FNV-1a over `(row, col, value bits)` of each entry, little-endian.
fn fnv1a(entries: impl IntoIterator<Item = Entry>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for e in entries {
        let bytes = e.row.to_le_bytes().into_iter().chain(e.col.to_le_bytes());
        for byte in bytes.chain(e.value.to_bits().to_le_bytes()) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Every train entry, then every test entry, as the registry's Tiny/Small
/// pins hash them.
fn triplet_hash(ds: &GeneratedDataset) -> u64 {
    fnv1a(ds.train.entries().iter().chain(ds.test.entries()).copied())
}

fn medium(name: &str) -> GeneratedDataset {
    named_dataset(name, SizeTier::Medium).unwrap().build()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; CI runs it with --release")]
fn medium_recipes_match_their_golden_hashes() {
    const GOLDEN: [(&str, u64); 3] = [
        ("netflix-sim", 0xA7ED_EA73_E6E6_9BB0),
        ("yahoo-sim", 0x9495_6353_193C_D8AB),
        ("hugewiki-sim", 0xCA5A_34E5_97B5_AC3F),
    ];
    for (name, pin) in GOLDEN {
        let hash = triplet_hash(&medium(name));
        assert_eq!(hash, pin, "{name} Medium: 0x{hash:016X}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; CI runs it with --release")]
fn benchmark_recipes_build_golden_rating_matrices() {
    // (name, CSR hash, CSC hash)
    const GOLDEN: [(&str, u64, u64); 2] = [
        ("netflix-sim", 0x8547_F21C_F628_8920, 0x939D_95B3_2C2F_9EE4),
        ("yahoo-sim", 0xE506_0AEB_0840_64BA, 0x6BBE_5C42_C773_6E9E),
    ];
    for (name, csr_pin, csc_pin) in GOLDEN {
        let ds = medium(name);
        let csr = fnv1a(ds.matrix.by_rows().iter_entries());
        let csc = fnv1a(ds.matrix.by_cols().iter_entries());
        assert_eq!(csr, csr_pin, "{name} Medium CSR: 0x{csr:016X}");
        assert_eq!(csc, csc_pin, "{name} Medium CSC: 0x{csc:016X}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; CI runs it with --release")]
fn the_other_value_models_match_their_golden_hashes() {
    let low_rank = SyntheticConfig::section_5_5(4_000, 600, 40_000, 55);
    let uniform = SyntheticConfig {
        value_model: ValueModel::UniformNoise {
            min: -2.0,
            max: 3.0,
        },
        ..SyntheticConfig::section_5_5(4_000, 600, 40_000, 56)
    };
    for (label, cfg, pin) in [
        ("LowRank", low_rank, 0xE9F5_5422_0896_EC0Cu64),
        ("UniformNoise", uniform, 0x4434_DB95_9E11_3FC1),
    ] {
        let ds = generate(&cfg, SplitConfig::standard(cfg.seed ^ 0xBEEF));
        let hash = triplet_hash(&ds);
        assert_eq!(hash, pin, "{label}: 0x{hash:016X}");
    }
}
