//! Small dense linear algebra for the NOMAD matrix-completion reproduction.
//!
//! The alternating least squares (ALS) and coordinate-descent (CCD / CCD++)
//! baselines in the paper repeatedly solve tiny `k × k` positive-definite
//! systems of the form `M w = b` with `M = HᵀH + λI` (Section 2 of the
//! paper), where `k` is the latent dimension (typically 10–100).  Pulling a
//! full BLAS/LAPACK stack in for that would be overkill, so this crate
//! provides exactly the kernels those algorithms need:
//!
//! * BLAS-1 style vector kernels ([`vec_ops`]) used by every SGD-family
//!   solver in the hot loop,
//! * a dense column-major matrix type ([`DenseMatrix`]) used for the
//!   Gram matrices `HᵀH`,
//! * a symmetric positive-definite solver based on Cholesky factorization
//!   ([`Cholesky`]),
//! * a tiny deterministic xorshift generator ([`SmallRng64`]) used where a
//!   dependency-free, `Copy`-able source of randomness is convenient
//!   (e.g. inside the discrete-event simulator).
//!
//! Everything is `f64`: the workspace's bit-identity anchors are defined
//! on double-precision arithmetic, and nothing in it runs the paper's
//! single-precision variant.

#![warn(missing_docs)]

pub mod cholesky;
pub mod matrix;
pub mod rng;
pub mod vec_ops;

pub use cholesky::{Cholesky, CholeskyError};
pub use matrix::DenseMatrix;
pub use rng::SmallRng64;
pub use vec_ops::{axpy, dot};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke_als_style_solve() {
        // Build M = HᵀH + λI for a small H and solve M w = Hᵀ a, i.e. one
        // ALS step for a single user, and verify the residual is tiny.
        let k = 4;
        let rows = 7;
        let h: Vec<Vec<f64>> = (0..rows)
            .map(|i| (0..k).map(|l| ((i * k + l) as f64).sin()).collect())
            .collect();
        let a: Vec<f64> = (0..rows).map(|i| (i as f64).cos()).collect();
        let lambda = 0.1;

        let mut m = DenseMatrix::zeros(k, k);
        for r in 0..k {
            for c in 0..k {
                let mut s = 0.0;
                for row in &h {
                    s += row[r] * row[c];
                }
                if r == c {
                    s += lambda;
                }
                m[(r, c)] = s;
            }
        }
        let mut b = vec![0.0; k];
        for (row, &ai) in h.iter().zip(a.iter()) {
            for l in 0..k {
                b[l] += row[l] * ai;
            }
        }

        let chol = Cholesky::factor(&m).expect("SPD");
        let w = chol.solve(&b);

        // Verify M w ≈ b.
        for r in 0..k {
            let mut s = 0.0;
            for c in 0..k {
                s += m[(r, c)] * w[c];
            }
            assert!((s - b[r]).abs() < 1e-9, "row {r}: {s} vs {}", b[r]);
        }
    }
}
