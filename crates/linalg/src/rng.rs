//! A tiny, deterministic, splittable pseudo-random generator.
//!
//! The discrete-event simulator and the synthetic data generators need a
//! source of randomness that is (a) deterministic given a seed, so every
//! experiment in `EXPERIMENTS.md` is exactly reproducible, (b) cheap to
//! fork per worker so that changing the number of workers does not change
//! each worker's private stream, and (c) free of any global state.  The
//! `rand` crate is used at the API boundary (it provides distributions and
//! a well-audited interface); this generator is the internal workhorse
//! where a `Copy`-able value type is more convenient than a trait object.
//!
//! The implementation is SplitMix64 for seeding followed by
//! `xorshift64*` for generation — both are standard, well-studied small
//! generators that are more than adequate for workload synthesis and
//! routing decisions (no cryptographic strength is needed or implied).

/// Deterministic 64-bit pseudo-random generator (xorshift64* seeded via
/// SplitMix64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallRng64 {
    state: u64,
}

impl SmallRng64 {
    /// Creates a generator from a seed.  Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        // A SplitMix64 step guarantees a non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// Derives an independent generator for sub-stream `index`, leaving
    /// `self` untouched.  Used to give each simulated worker its own
    /// stream so results do not depend on worker scheduling order.
    pub fn split(&self, index: u64) -> Self {
        Self::new(self.state ^ index.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_below: bound must be positive");
        // Multiply-shift trick; bias is negligible for the bounds used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal sample (Box–Muller).  Used by the synthetic data
    /// generator of Section 5.5 of the paper (Gaussian factors and noise).
    pub fn next_gaussian(&mut self) -> f64 {
        // Rejection-free Box–Muller; u1 is bounded away from 0.
        let u1 = (self.next_f64()).max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SmallRng64::new(123);
        let mut b = SmallRng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng64::new(1);
        let mut b = SmallRng64::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut r = SmallRng64::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let root = SmallRng64::new(7);
        let mut a1 = root.split(0);
        let mut a2 = root.split(0);
        let mut b = root.split(1);
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SmallRng64::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_covers_values() {
        let mut r = SmallRng64::new(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.next_below(7);
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should be hit");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SmallRng64::new(1).next_below(0);
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = SmallRng64::new(2024);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = r.next_gaussian();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = SmallRng64::new(31);
        let p = r.permutation(100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut r = SmallRng64::new(1);
        let mut empty: [u8; 0] = [];
        r.shuffle(&mut empty);
        let mut one = [42];
        r.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn next_range_is_within_bounds() {
        let mut r = SmallRng64::new(8);
        for _ in 0..1000 {
            let x = r.next_range(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&x));
        }
    }
}
