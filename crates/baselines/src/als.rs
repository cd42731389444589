//! Alternating least squares (Section 2.1; Zhou et al. 2008).
//!
//! Each epoch solves every user's and then every item's regularized
//! least-squares subproblem exactly (Eq. 3), using the Cholesky solver from
//! `nomad-linalg`.  This is the shared-memory ALS reference; the
//! distributed, lock-based variant that GraphLab implements is modeled in
//! [`crate::graphlab`].

use nomad_cluster::{ComputeModel, RunTrace, SimTime, TracePoint};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_sgd::{als_solve_row, FactorModel, HyperParams};

use crate::common::BaselineStop;

/// Configuration of the ALS baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlsConfig {
    /// Hyper-parameters (`alpha`/`beta` are unused: ALS has no step size).
    pub params: HyperParams,
    /// Stop condition (an epoch is one user sweep plus one item sweep).
    pub stop: BaselineStop,
    /// RNG seed for initialization.
    pub seed: u64,
}

/// The ALS solver (shared memory).
#[derive(Debug, Clone)]
pub struct Als {
    config: AlsConfig,
}

impl Als {
    /// Creates the solver.
    pub fn new(config: AlsConfig) -> Self {
        Self { config }
    }

    /// Runs ALS with `cores` worker threads' worth of virtual parallelism.
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        cores: usize,
        compute: &ComputeModel,
    ) -> (FactorModel, RunTrace) {
        assert!(cores > 0, "need at least one core");
        let cfg = self.config;
        let params = cfg.params;
        let k = params.k;
        let mut model = FactorModel::init(data.nrows(), data.ncols(), k, cfg.seed);
        let csr = data.by_rows();
        let csc = data.by_cols();

        let mut trace = RunTrace::new("ALS", "", 1, cores, cores);
        let mut elapsed = 0.0f64;
        let mut updates = 0u64;
        trace.push(TracePoint {
            seconds: 0.0,
            updates: 0,
            test_rmse: nomad_sgd::rmse(&model, test),
            objective: Some(nomad_sgd::regularized_objective(&model, csr, params.lambda)),
        });

        let mut epoch = 0usize;
        while !cfg.stop.reached(epoch, elapsed) {
            let mut epoch_seconds = 0.0f64;
            // User sweep: w_i ← (H_Ωiᵀ H_Ωi + λ|Ω_i| I)^{-1} H_Ωiᵀ a_i.
            for i in 0..data.nrows() {
                let nnz = csr.row_nnz(i);
                if nnz == 0 {
                    continue;
                }
                let neighbors = csr.row(i).map(|(j, a)| (model.h.row(j as usize), a));
                let w = als_solve_row(neighbors, k, params.lambda * nnz as f64);
                model.w.set_row(i, &w);
                epoch_seconds += compute.als_row_time(k, nnz);
                updates += 1;
            }
            // Item sweep (symmetric).
            for j in 0..data.ncols() {
                let nnz = csc.col_nnz(j);
                if nnz == 0 {
                    continue;
                }
                let neighbors = csc.col(j).map(|(i, a)| (model.w.row(i as usize), a));
                let h = als_solve_row(neighbors, k, params.lambda * nnz as f64);
                model.h.set_row(j, &h);
                epoch_seconds += compute.als_row_time(k, nnz);
                updates += 1;
            }
            // The row solves are embarrassingly parallel across cores.
            elapsed += epoch_seconds / cores as f64;
            epoch += 1;
            trace.metrics.updates = updates;
            trace.metrics.record_busy(0, epoch_seconds / cores as f64);
            trace.push(TracePoint {
                seconds: elapsed,
                updates,
                test_rmse: nomad_sgd::rmse(&model, test),
                objective: Some(nomad_sgd::regularized_objective(&model, csr, params.lambda)),
            });
        }
        trace.metrics.finished_at = SimTime::from_secs(elapsed);
        (model, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_data::{named_dataset, SizeTier};

    fn tiny() -> (RatingMatrix, TripletMatrix) {
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        (ds.matrix, ds.test)
    }

    fn config(epochs: usize) -> AlsConfig {
        AlsConfig {
            params: HyperParams::netflix().with_k(8),
            stop: BaselineStop::epochs(epochs),
            seed: 7,
        }
    }

    #[test]
    fn als_monotonically_decreases_the_objective() {
        let (data, test) = tiny();
        let (_, trace) = Als::new(config(4)).run(&data, &test, 4, &ComputeModel::hpc_core());
        let objectives: Vec<f64> = trace.points.iter().filter_map(|p| p.objective).collect();
        for pair in objectives.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-6,
                "exact alternating minimization cannot increase the objective: {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn als_reduces_rmse_quickly() {
        let (data, test) = tiny();
        let (_, trace) = Als::new(config(3)).run(&data, &test, 4, &ComputeModel::hpc_core());
        let first = trace.points.first().unwrap().test_rmse;
        let last = trace.final_rmse().unwrap();
        assert!(last < first * 0.9, "{first} -> {last}");
    }

    #[test]
    fn als_epoch_is_more_expensive_than_an_sgd_epoch() {
        // The reason the paper prefers SGD: per pass over the data, ALS pays
        // for Gram matrices and Cholesky solves.
        use crate::serial_sgd::{SerialSgd, SerialSgdConfig};
        let (data, test) = tiny();
        let cpu = ComputeModel::hpc_core();
        let (_, als) = Als::new(config(1)).run(&data, &test, 1, &cpu);
        let (_, sgd) = SerialSgd::new(SerialSgdConfig {
            params: HyperParams::netflix().with_k(8),
            stop: BaselineStop::epochs(1),
            seed: 7,
        })
        .run(&data, &test, &cpu);
        assert!(als.elapsed() > sgd.elapsed());
    }

    #[test]
    fn more_cores_reduce_virtual_time_proportionally() {
        let (data, test) = tiny();
        let cpu = ComputeModel::hpc_core();
        let (_, one) = Als::new(config(2)).run(&data, &test, 1, &cpu);
        let (_, four) = Als::new(config(2)).run(&data, &test, 4, &cpu);
        let ratio = one.elapsed() / four.elapsed();
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }
}
