//! Dense factor matrices `W` and `H` and their initialization.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use nomad_matrix::Idx;

/// How factor entries are initialized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// The paper's initialization (Section 5.1): each entry is an
    /// independent `Uniform(0, 1/√k)` draw.
    UniformScaled,
    /// `Uniform(-bound, bound)`; occasionally useful for debugging.
    UniformSymmetric {
        /// Half-width of the interval.
        bound: f64,
    },
    /// All entries equal to a constant (used by deterministic tests).
    Constant {
        /// The value of every entry.
        value: f64,
    },
}

/// A dense row-major `rows × k` factor matrix.
///
/// Row `i` of `W` is the user embedding `w_i`; row `j` of `H` is the item
/// embedding `h_j`.  Rows are stored contiguously so a row borrow is a plain
/// slice, which is what the SGD kernel in `nomad-linalg` operates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorMatrix {
    rows: usize,
    k: usize,
    data: Vec<f64>,
}

impl FactorMatrix {
    /// Creates a zero-filled factor matrix.
    pub fn zeros(rows: usize, k: usize) -> Self {
        Self {
            rows,
            k,
            data: vec![0.0; rows * k],
        }
    }

    /// An empty matrix (no rows yet) with room for `rows` rows of `k`, to
    /// be filled with [`FactorMatrix::append_rows`] without reallocating.
    pub fn with_capacity(rows: usize, k: usize) -> Self {
        Self {
            rows: 0,
            k,
            data: Vec::with_capacity(rows * k),
        }
    }

    /// Creates a factor matrix with the given initialization, deterministic
    /// in `seed`.
    pub fn init(rows: usize, k: usize, strategy: InitStrategy, seed: u64) -> Self {
        assert!(k > 0, "latent dimension k must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = vec![0.0; rows * k];
        match strategy {
            InitStrategy::UniformScaled => {
                let hi = 1.0 / (k as f64).sqrt();
                for v in &mut data {
                    *v = rng.gen_range(0.0..hi);
                }
            }
            InitStrategy::UniformSymmetric { bound } => {
                for v in &mut data {
                    *v = rng.gen_range(-bound..bound);
                }
            }
            InitStrategy::Constant { value } => {
                data.iter_mut().for_each(|v| *v = value);
            }
        }
        Self { rows, k, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Latent dimension `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `i` as an immutable slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.k..(i + 1) * self.k]
    }

    /// Mutable access to two distinct rows at once — needed by the SGD
    /// update which touches `w_i` and `h_j` simultaneously when both factors
    /// live in the same matrix (not the usual case, but used in tests).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "two_rows_mut requires distinct rows");
        let k = self.k;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * k);
            (&mut lo[a * k..(a + 1) * k], &mut hi[..k])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * k);
            let b_slice = &mut lo[b * k..(b + 1) * k];
            (&mut hi[..k], b_slice)
        }
    }

    /// Copies the contents of `src` into row `i`.
    pub fn set_row(&mut self, i: usize, src: &[f64]) {
        self.row_mut(i).copy_from_slice(src);
    }

    /// A copy of the contiguous rows `range` as a matrix of their own.
    ///
    /// # Panics
    /// Panics if the range reaches past the last row.
    pub fn copy_rows(&self, range: std::ops::Range<usize>) -> FactorMatrix {
        Self {
            rows: range.len(),
            k: self.k,
            data: self.data[range.start * self.k..range.end * self.k].to_vec(),
        }
    }

    /// Appends the rows of `block` below the existing rows (used when new
    /// users or items arrive during an online run).
    ///
    /// # Panics
    /// Panics if the latent dimensions differ.
    pub fn append_rows(&mut self, block: &FactorMatrix) {
        assert_eq!(
            self.k, block.k,
            "cannot append rows with a different latent dimension"
        );
        self.data.extend_from_slice(&block.data);
        self.rows += block.rows;
    }

    /// Flat access to the underlying data (used by serialization and tests).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Squared Frobenius norm `‖·‖_F²`.
    pub fn frobenius_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Maximum absolute difference to another factor matrix (test helper).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.k, other.k);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// The complete factor model `(W, H)` for a rating matrix `A ∈ R^{m×n}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorModel {
    /// User factors, `m × k`.
    pub w: FactorMatrix,
    /// Item factors, `n × k`.
    pub h: FactorMatrix,
}

impl FactorModel {
    /// Initializes a model the way the paper does: both `W` and `H` drawn
    /// entry-wise from `Uniform(0, 1/√k)`, deterministically in `seed`.
    ///
    /// `W` and `H` use different sub-seeds so that the item factors are not
    /// a prefix of the user factors' random stream.
    pub fn init(m: usize, n: usize, k: usize, seed: u64) -> Self {
        Self {
            w: FactorMatrix::init(m, k, InitStrategy::UniformScaled, seed ^ 0x57AA_7000),
            h: FactorMatrix::init(n, k, InitStrategy::UniformScaled, seed ^ 0x17E6_0001),
        }
    }

    /// Initializes with an arbitrary strategy (tests, ablations).
    pub fn init_with(m: usize, n: usize, k: usize, strategy: InitStrategy, seed: u64) -> Self {
        Self {
            w: FactorMatrix::init(m, k, strategy, seed ^ 0x57AA_7000),
            h: FactorMatrix::init(n, k, strategy, seed ^ 0x17E6_0001),
        }
    }

    /// Number of users `m`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.w.rows()
    }

    /// Number of items `n`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.h.rows()
    }

    /// Latent dimension `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.w.k()
    }

    /// Predicted rating `⟨w_i, h_j⟩`.
    #[inline]
    pub fn predict(&self, user: Idx, item: Idx) -> f64 {
        nomad_linalg::dot(self.w.row(user as usize), self.h.row(item as usize))
    }
}

/// Sub-seed for factor rows appended starting at global row `first_row`.
///
/// Keyed by the *global index* of the first fresh row (not by batch count
/// or wall time) so the initialization of user `i` / item `j` depends only
/// on `(seed, index)` — the property that lets the serial, threaded and
/// simulated online engines, plus the schedule replay, agree bit for bit.
fn growth_subseed(first_row: usize) -> u64 {
    (first_row as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds `count` rows, each drawn from its own per-index RNG stream so
/// the result is independent of how arrivals were batched.
fn fresh_rows(count: usize, k: usize, first_row: usize, kind_seed: u64) -> FactorMatrix {
    let mut block = FactorMatrix::zeros(count, k);
    for r in 0..count {
        let row = FactorMatrix::init(
            1,
            k,
            InitStrategy::UniformScaled,
            kind_seed ^ growth_subseed(first_row + r),
        );
        block.set_row(r, row.row(0));
    }
    block
}

/// Deterministic `Uniform(0, 1/√k)` factor rows for `count` users arriving
/// at global indices `first_row..first_row + count`.
pub fn fresh_user_rows(count: usize, k: usize, first_row: usize, seed: u64) -> FactorMatrix {
    fresh_rows(count, k, first_row, seed ^ 0x57AA_7000)
}

/// Deterministic `Uniform(0, 1/√k)` factor rows for `count` items arriving
/// at global indices `first_row..first_row + count`.
pub fn fresh_item_rows(count: usize, k: usize, first_row: usize, seed: u64) -> FactorMatrix {
    fresh_rows(count, k, first_row, seed ^ 0x17E6_0001)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_respects_paper_bounds() {
        let k = 25;
        let f = FactorMatrix::init(100, k, InitStrategy::UniformScaled, 7);
        let hi = 1.0 / (k as f64).sqrt();
        assert!(f.as_slice().iter().all(|&v| (0.0..hi).contains(&v)));
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let a = FactorMatrix::init(10, 4, InitStrategy::UniformScaled, 42);
        let b = FactorMatrix::init(10, 4, InitStrategy::UniformScaled, 42);
        let c = FactorMatrix::init(10, 4, InitStrategy::UniformScaled, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_and_symmetric_strategies() {
        let c = FactorMatrix::init(3, 2, InitStrategy::Constant { value: 0.5 }, 0);
        assert!(c.as_slice().iter().all(|&v| v == 0.5));
        let s = FactorMatrix::init(50, 4, InitStrategy::UniformSymmetric { bound: 0.1 }, 1);
        assert!(s.as_slice().iter().all(|&v| (-0.1..0.1).contains(&v)));
        assert!(s.as_slice().iter().any(|&v| v < 0.0));
    }

    #[test]
    fn row_accessors_are_consistent() {
        let mut f = FactorMatrix::zeros(4, 3);
        f.set_row(2, &[1.0, 2.0, 3.0]);
        assert_eq!(f.row(2), &[1.0, 2.0, 3.0]);
        assert_eq!(f.row(0), &[0.0, 0.0, 0.0]);
        f.row_mut(2)[1] = 9.0;
        assert_eq!(f.row(2)[1], 9.0);
    }

    #[test]
    fn two_rows_mut_returns_disjoint_slices() {
        let mut f = FactorMatrix::zeros(5, 2);
        {
            let (a, b) = f.two_rows_mut(1, 3);
            a[0] = 1.0;
            b[0] = 2.0;
        }
        assert_eq!(f.row(1)[0], 1.0);
        assert_eq!(f.row(3)[0], 2.0);
        // Reversed order also works.
        {
            let (a, b) = f.two_rows_mut(3, 1);
            a[1] = 5.0;
            b[1] = 6.0;
        }
        assert_eq!(f.row(3)[1], 5.0);
        assert_eq!(f.row(1)[1], 6.0);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_rows_mut_same_row_panics() {
        let mut f = FactorMatrix::zeros(3, 2);
        let _ = f.two_rows_mut(1, 1);
    }

    #[test]
    fn frobenius_norm() {
        let f = FactorMatrix::init(2, 2, InitStrategy::Constant { value: 2.0 }, 0);
        assert_eq!(f.frobenius_sq(), 16.0);
    }

    #[test]
    fn model_predict_is_inner_product() {
        let mut model = FactorModel::init_with(2, 2, 3, InitStrategy::Constant { value: 0.0 }, 0);
        model.w.set_row(0, &[1.0, 2.0, 3.0]);
        model.h.set_row(1, &[4.0, 5.0, 6.0]);
        assert_eq!(model.predict(0, 1), 32.0);
        assert_eq!(model.predict(1, 0), 0.0);
        assert_eq!(model.num_users(), 2);
        assert_eq!(model.num_items(), 2);
        assert_eq!(model.k(), 3);
    }

    #[test]
    fn model_init_w_and_h_differ() {
        let model = FactorModel::init(5, 5, 4, 9);
        assert_ne!(model.w.as_slice(), model.h.as_slice());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = FactorMatrix::init(3, 0, InitStrategy::UniformScaled, 0);
    }

    #[test]
    fn append_rows_extends_in_place() {
        let mut f = FactorMatrix::init(3, 2, InitStrategy::UniformScaled, 4);
        let block = FactorMatrix::init(2, 2, InitStrategy::Constant { value: 0.5 }, 0);
        let before = f.clone();
        f.append_rows(&block);
        assert_eq!(f.rows(), 5);
        assert_eq!(f.row(1), before.row(1));
        assert_eq!(f.row(3), &[0.5, 0.5]);
        assert_eq!(f.row(4), &[0.5, 0.5]);
    }

    #[test]
    fn copied_blocks_appended_in_order_rebuild_the_matrix() {
        let f = FactorMatrix::init(5, 3, InitStrategy::UniformScaled, 4);
        let mut rebuilt = FactorMatrix::with_capacity(f.rows(), f.k());
        assert_eq!((rebuilt.rows(), rebuilt.k()), (0, 3));
        for range in [0..2, 2..2, 2..5] {
            let block = f.copy_rows(range.clone());
            assert_eq!(block.rows(), range.len());
            rebuilt.append_rows(&block);
        }
        assert_eq!(rebuilt, f);
    }

    #[test]
    #[should_panic]
    fn copy_rows_rejects_a_range_past_the_end() {
        let _ = FactorMatrix::zeros(2, 3).copy_rows(1..3);
    }

    #[test]
    #[should_panic(expected = "latent dimension")]
    fn append_rows_rejects_k_mismatch() {
        let mut f = FactorMatrix::zeros(2, 3);
        f.append_rows(&FactorMatrix::zeros(1, 2));
    }

    #[test]
    fn growth_depends_only_on_seed_and_index() {
        // Two factor matrices that reach the same size along different
        // batch paths end up identical — the invariant the online engines
        // rely on.
        let mut one_step = FactorMatrix::init(4, 2, InitStrategy::UniformScaled, 11);
        let mut two_steps = one_step.clone();
        one_step.append_rows(&fresh_user_rows(3, 2, 4, 11));
        two_steps.append_rows(&fresh_user_rows(1, 2, 4, 11));
        two_steps.append_rows(&fresh_user_rows(2, 2, 5, 11));
        assert_eq!(one_step, two_steps);
        // Fresh rows differ from the initial init and between kinds.
        let u = fresh_user_rows(2, 4, 10, 7);
        let i = fresh_item_rows(2, 4, 10, 7);
        assert_ne!(u, i);
        assert!(u.as_slice().iter().all(|&v| (0.0..0.5).contains(&v)));
        // Different arrival position ⇒ different rows.
        assert_ne!(fresh_user_rows(2, 4, 10, 7), fresh_user_rows(2, 4, 12, 7));
    }

    #[test]
    fn max_abs_diff_detects_changes() {
        let a = FactorMatrix::init(4, 3, InitStrategy::UniformScaled, 1);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.row_mut(2)[0] += 0.125;
        assert!((a.max_abs_diff(&b) - 0.125).abs() < 1e-15);
    }
}
