//! Per-update compute cost model.
//!
//! Section 3.2 of the paper models the time to run the SGD updates for one
//! rating as `a · k`, with `a` a hardware-dependent constant.  The same
//! constant also prices ALS and CCD work (expressed as an equivalent number
//! of `k`-dimensional passes), so every solver's virtual time is measured
//! with the same yardstick.
//!
//! The default constants are calibrated so that the simulated throughput
//! (updates / core / second, Figures 6 and 10 of the paper) lands in the
//! same few-million-per-second range the paper reports for `k = 100`.

/// Prices computation in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Seconds per latent dimension per SGD update — the paper's constant
    /// `a`.  One SGD update on a rating costs `a · k`.
    pub seconds_per_update_per_k: f64,
    /// Fixed overhead per processed item column (queue pop, bookkeeping).
    pub per_item_overhead: f64,
    /// Relative speed multiplier (1.0 = nominal).  Used to model the
    /// heterogeneous/loaded workers of the dynamic-load-balancing study: a
    /// worker with `speed_factor = 0.5` takes twice as long for everything.
    pub speed_factor: f64,
}

impl ComputeModel {
    /// A Stampede-class HPC core (Intel Xeon E5 Sandy Bridge).  Calibrated
    /// to ≈3.3M SGD updates/sec at `k = 100` in double precision, matching
    /// the order of magnitude in Figure 10 (right).
    pub fn hpc_core() -> Self {
        Self {
            seconds_per_update_per_k: 3.0e-9,
            per_item_overhead: 2.0e-7,
            speed_factor: 1.0,
        }
    }

    /// An AWS m1.xlarge-class commodity core (Intel Xeon E5430), roughly
    /// 2× slower per update than the HPC core (Figure 16 reports ≈1–1.5M
    /// updates/machine/core/sec on 4-core machines).
    pub fn commodity_core() -> Self {
        Self {
            seconds_per_update_per_k: 6.0e-9,
            per_item_overhead: 4.0e-7,
            speed_factor: 1.0,
        }
    }

    /// Single-precision variant (Section 5.2 notes throughput is ≈50%
    /// higher in single precision).
    pub fn single_precision(self) -> Self {
        Self {
            seconds_per_update_per_k: self.seconds_per_update_per_k / 1.5,
            ..self
        }
    }

    /// Returns a copy slowed down (or sped up) by `factor`; `factor < 1`
    /// means a slower worker.
    pub fn with_speed(self, factor: f64) -> Self {
        assert!(factor > 0.0, "speed factor must be positive");
        Self {
            speed_factor: factor,
            ..self
        }
    }

    /// Seconds to run one SGD update (Eqs. 9–10) at latent dimension `k`.
    #[inline]
    pub fn sgd_update_time(&self, k: usize) -> f64 {
        self.seconds_per_update_per_k * k as f64 / self.speed_factor
    }

    /// Seconds to process one item column that has `nnz_local` local
    /// ratings: the per-item overhead plus `nnz_local` SGD updates.
    #[inline]
    pub fn item_processing_time(&self, k: usize, nnz_local: usize) -> f64 {
        (self.per_item_overhead + self.seconds_per_update_per_k * k as f64 * nnz_local as f64)
            / self.speed_factor
    }

    /// Seconds for one exact ALS row solve over `nnz` ratings at dimension
    /// `k`: forming the Gram matrix costs `nnz · k²` multiply-adds and the
    /// Cholesky solve costs `k³/3`, both priced at the per-component rate.
    /// This is what makes ALS-family baselines pay their higher per-epoch
    /// cost in virtual time, exactly as they do on real hardware.
    #[inline]
    pub fn als_row_time(&self, k: usize, nnz: usize) -> f64 {
        let kf = k as f64;
        // One SGD update costs `seconds_per_update_per_k · k` and touches
        // `k` components, so the per-component rate is
        // `seconds_per_update_per_k` itself.
        let components = nnz as f64 * kf * kf + kf * kf * kf / 3.0;
        (self.per_item_overhead + self.seconds_per_update_per_k * components) / self.speed_factor
    }

    /// Seconds for one CCD coordinate sweep over a row/column with `nnz`
    /// ratings: each of the `k` coordinates touches every rating once, so
    /// the cost is comparable to `nnz` SGD updates (this matches CCD++'s
    /// observed per-epoch cost being similar to one SGD epoch).
    #[inline]
    pub fn ccd_row_sweep_time(&self, k: usize, nnz: usize) -> f64 {
        (self.per_item_overhead + self.seconds_per_update_per_k * k as f64 * nnz as f64)
            / self.speed_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpc_throughput_is_millions_of_updates_per_second() {
        let m = ComputeModel::hpc_core();
        let per_update = m.sgd_update_time(100);
        let throughput = 1.0 / per_update;
        assert!(
            (1.0e6..1.0e7).contains(&throughput),
            "throughput {throughput} should be millions/sec"
        );
    }

    #[test]
    fn commodity_is_slower_than_hpc() {
        let hpc = ComputeModel::hpc_core();
        let aws = ComputeModel::commodity_core();
        assert!(aws.sgd_update_time(100) > hpc.sgd_update_time(100));
    }

    #[test]
    fn single_precision_is_faster() {
        let double = ComputeModel::hpc_core();
        let single = double.single_precision();
        assert!(single.sgd_update_time(100) < double.sgd_update_time(100));
    }

    #[test]
    fn item_processing_time_scales_with_local_nnz() {
        let m = ComputeModel::hpc_core();
        let t10 = m.item_processing_time(100, 10);
        let t100 = m.item_processing_time(100, 100);
        assert!(t100 > t10);
        // Roughly linear: the overhead is small relative to 90 updates.
        let expected = t10 + 90.0 * m.sgd_update_time(100);
        assert!((t100 - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn speed_factor_slows_everything_down() {
        let m = ComputeModel::hpc_core();
        let slow = m.with_speed(0.5);
        assert!((slow.sgd_update_time(100) - 2.0 * m.sgd_update_time(100)).abs() < 1e-15);
        assert!(
            (slow.item_processing_time(100, 7) - 2.0 * m.item_processing_time(100, 7)).abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_speed_panics() {
        let _ = ComputeModel::hpc_core().with_speed(0.0);
    }

    #[test]
    fn als_costs_more_than_sgd_for_same_ratings() {
        // ALS forms a k×k Gram matrix per row, so for the same number of
        // ratings its row cost must exceed nnz SGD updates once nnz is
        // moderate.
        let m = ComputeModel::hpc_core();
        let k = 100;
        let nnz = 50;
        assert!(m.als_row_time(k, nnz) > nnz as f64 * m.sgd_update_time(k));
    }

    #[test]
    fn ccd_sweep_comparable_to_sgd_pass() {
        let m = ComputeModel::hpc_core();
        let k = 100;
        let nnz = 40;
        let ccd = m.ccd_row_sweep_time(k, nnz);
        let sgd_pass = nnz as f64 * m.sgd_update_time(k);
        assert!(ccd > 0.9 * sgd_pass && ccd < 2.0 * sgd_pass);
    }
}
