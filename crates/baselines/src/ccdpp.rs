//! CCD++: cyclic coordinate descent with rank-one residual updates
//! (Yu et al., ICDM 2012; Section 2.2 of the NOMAD paper).
//!
//! CCD++ sweeps the latent dimensions one at a time.  For dimension `l` it
//! forms the rank-one residual `R̂ = R + w^l (h^l)ᵀ` on the observed
//! entries, alternately solves the closed-form one-dimensional problems for
//! `w^l` (all users) and `h^l` (all items), and folds the new rank-one term
//! back into the residual.  Maintaining the residual matrix is what makes
//! each coordinate update cheap.
//!
//! The distributed variant partitions users across machines, keeps `H`
//! replicated, and all-reduces the per-item numerator/denominator sums once
//! per dimension — a bulk-synchronous pattern whose barrier and all-reduce
//! costs are charged to the virtual clock exactly like DSGD's.

use nomad_cluster::{ClusterTopology, ComputeModel, NetworkModel, RunTrace, TracePoint};
use nomad_matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_sgd::{FactorModel, HyperParams};

use crate::common::{BaselineStop, EpochClock};

/// Configuration of CCD++.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcdConfig {
    /// Hyper-parameters (`alpha`/`beta` are unused: CCD++ has no step size).
    pub params: HyperParams,
    /// Stop condition (an "epoch" is one outer iteration over all `k`
    /// dimensions).
    pub stop: BaselineStop,
    /// Number of alternating inner sweeps per dimension (the reference
    /// implementation uses a small constant; 1 is standard).
    pub inner_sweeps: usize,
    /// RNG seed (initialization only; CCD++ is deterministic otherwise).
    pub seed: u64,
}

impl CcdConfig {
    /// Standard configuration: one inner sweep.
    pub fn new(params: HyperParams, stop: BaselineStop, seed: u64) -> Self {
        Self {
            params,
            stop,
            inner_sweeps: 1,
            seed,
        }
    }
}

/// The CCD++ solver.
#[derive(Debug, Clone)]
pub struct CcdPlusPlus {
    config: CcdConfig,
}

impl CcdPlusPlus {
    /// Creates the solver.
    pub fn new(config: CcdConfig) -> Self {
        Self { config }
    }

    /// Runs CCD++ on the given simulated cluster.
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        topology: &ClusterTopology,
        network: &NetworkModel,
        compute: &ComputeModel,
    ) -> (FactorModel, RunTrace) {
        let cfg = self.config;
        let params = cfg.params;
        let machines = topology.machines;
        let threads = topology.compute_threads;
        let k = params.k;

        let mut model = FactorModel::init(data.nrows(), data.ncols(), k, cfg.seed);
        let csr = data.by_rows();
        let csc = data.by_cols();
        let row_partition = RowPartition::contiguous(data.nrows(), machines);

        // Residuals R_ij = A_ij − ⟨w_i, h_j⟩, stored in CSR order, plus the
        // mapping from CSC position to CSR position so item sweeps can
        // update the same storage.
        let mut residual: Vec<f64> = Vec::with_capacity(data.nnz());
        // Position of (i, j) within row i (CSR) for each CSC entry.
        let mut csr_pos_of_csc: Vec<usize> = Vec::with_capacity(data.nnz());
        let mut row_start = vec![0usize; data.nrows() + 1];
        for i in 0..data.nrows() {
            row_start[i + 1] = row_start[i] + csr.row_nnz(i);
        }
        for i in 0..data.nrows() {
            let wi = model.w.row(i);
            for (j, a) in csr.row(i) {
                residual.push(a - nomad_linalg::dot(wi, model.h.row(j as usize)));
            }
        }
        for j in 0..data.ncols() {
            for &i in csc.col_rows(j) {
                // Find the CSR slot of (i, j) by binary search within row i.
                let cols = csr.row_cols(i as usize);
                let offset = cols
                    .binary_search(&(j as Idx))
                    .expect("entry exists in both views");
                csr_pos_of_csc.push(row_start[i as usize] + offset);
            }
        }
        let mut col_start = vec![0usize; data.ncols() + 1];
        for j in 0..data.ncols() {
            col_start[j + 1] = col_start[j] + csc.col_nnz(j);
        }

        let mut clock = EpochClock::new(machines);
        let mut trace = RunTrace::new(
            "CCD++",
            "",
            machines,
            topology.cores_per_machine(),
            machines,
        );
        let mut updates = 0u64;
        trace.push(TracePoint {
            seconds: 0.0,
            updates: 0,
            test_rmse: nomad_sgd::rmse(&model, test),
            objective: Some(nomad_sgd::regularized_objective(&model, csr, params.lambda)),
        });

        // Per-machine local nnz (for compute cost) under the row partition.
        let local_nnz: Vec<usize> = (0..machines)
            .map(|q| {
                row_partition
                    .members(q)
                    .iter()
                    .map(|&i| csr.row_nnz(i as usize))
                    .sum()
            })
            .collect();
        // All-reduce payload per dimension: numerator and denominator per item.
        let allreduce_bytes = 2 * data.ncols() * 8;

        let mut epoch = 0usize;
        while !cfg.stop.reached(epoch, clock.elapsed()) {
            for l in 0..k {
                for _ in 0..cfg.inner_sweeps.max(1) {
                    // --- user sweep: update w_il for every user i ---
                    for i in 0..data.nrows() {
                        let w_old = model.w.row(i)[l];
                        let mut numerator = 0.0;
                        let mut denominator = params.lambda * csr.row_nnz(i) as f64;
                        for (offset, (j, _)) in csr.row(i).enumerate() {
                            let h_l = model.h.row(j as usize)[l];
                            let r = residual[row_start[i] + offset];
                            numerator += (r + w_old * h_l) * h_l;
                            denominator += h_l * h_l;
                        }
                        let w_new = if denominator > 0.0 {
                            numerator / denominator
                        } else {
                            0.0
                        };
                        // Fold the change into the residuals of row i.
                        for (offset, (j, _)) in csr.row(i).enumerate() {
                            let h_l = model.h.row(j as usize)[l];
                            residual[row_start[i] + offset] -= (w_new - w_old) * h_l;
                        }
                        model.w.row_mut(i)[l] = w_new;
                        updates += 1;
                    }
                    // --- item sweep: update h_jl for every item j ---
                    for j in 0..data.ncols() {
                        let h_old = model.h.row(j)[l];
                        let mut numerator = 0.0;
                        let mut denominator = params.lambda * csc.col_nnz(j) as f64;
                        for (offset, (i, _)) in csc.col(j).enumerate() {
                            let w_l = model.w.row(i as usize)[l];
                            let r = residual[csr_pos_of_csc[col_start[j] + offset]];
                            numerator += (r + h_old * w_l) * w_l;
                            denominator += w_l * w_l;
                        }
                        let h_new = if denominator > 0.0 {
                            numerator / denominator
                        } else {
                            0.0
                        };
                        for (offset, (i, _)) in csc.col(j).enumerate() {
                            let w_l = model.w.row(i as usize)[l];
                            residual[csr_pos_of_csc[col_start[j] + offset]] -=
                                (h_new - h_old) * w_l;
                        }
                        model.h.row_mut(j)[l] = h_new;
                        updates += 1;
                    }
                    // --- virtual time: both sweeps touch every local rating
                    // twice (read + residual update); machines then barrier
                    // and all-reduce the per-item sums. ---
                    for (machine, &nnz) in local_nnz.iter().enumerate() {
                        let seconds =
                            4.0 * nnz as f64 * compute.seconds_per_update_per_k / threads as f64;
                        clock.compute(machine, seconds);
                    }
                    clock.barrier();
                    clock.exchange(network, allreduce_bytes);
                }
            }
            epoch += 1;
            trace.metrics.updates = updates;
            trace.push(TracePoint {
                seconds: clock.elapsed(),
                updates,
                test_rmse: nomad_sgd::rmse(&model, test),
                objective: Some(nomad_sgd::regularized_objective(&model, csr, params.lambda)),
            });
        }

        let mut metrics = clock.finish();
        metrics.updates = updates;
        trace.metrics = metrics;
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

    fn config(epochs: usize) -> CcdConfig {
        CcdConfig::new(
            HyperParams::netflix().with_k(8),
            BaselineStop::epochs(epochs),
            6,
        )
    }

    #[test]
    fn ccdpp_monotonically_decreases_the_objective() {
        // Exact coordinate minimization can never increase the regularized
        // objective; this is the property CCD++ is built on.
        let (data, test) = tiny();
        let (_, trace) = CcdPlusPlus::new(config(5)).run(
            &data,
            &test,
            &ClusterTopology::single_machine(4),
            &NetworkModel::shared_memory(),
            &ComputeModel::hpc_core(),
        );
        let objectives: Vec<f64> = trace.points.iter().filter_map(|p| p.objective).collect();
        assert!(objectives.len() >= 6);
        for pair in objectives.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-6,
                "objective must not increase: {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn ccdpp_reduces_test_rmse() {
        let (data, test) = tiny();
        let (_, trace) = CcdPlusPlus::new(config(5)).run(
            &data,
            &test,
            &ClusterTopology::single_machine(4),
            &NetworkModel::shared_memory(),
            &ComputeModel::hpc_core(),
        );
        let first = trace.points.first().unwrap().test_rmse;
        let last = trace.final_rmse().unwrap();
        assert!(last < first * 0.9, "RMSE should drop: {first} -> {last}");
    }

    #[test]
    fn residuals_stay_consistent_with_the_model() {
        // After a run, recomputing residuals from scratch must match the
        // incrementally maintained ones implicitly: check via objective
        // consistency (the reported objective equals the recomputed one).
        let (data, test) = tiny();
        let cfg = config(2);
        let (model, trace) = CcdPlusPlus::new(cfg).run(
            &data,
            &test,
            &ClusterTopology::single_machine(1),
            &NetworkModel::shared_memory(),
            &ComputeModel::hpc_core(),
        );
        let reported = trace.points.last().unwrap().objective.unwrap();
        let recomputed =
            nomad_sgd::regularized_objective(&model, data.by_rows(), cfg.params.lambda);
        assert!((reported - recomputed).abs() < 1e-6);
    }

    #[test]
    fn distributed_ccdpp_pays_allreduce_costs() {
        let (data, test) = tiny();
        let (_, trace) = CcdPlusPlus::new(config(2)).run(
            &data,
            &test,
            &ClusterTopology::hpc(4),
            &NetworkModel::commodity_1gbps(),
            &ComputeModel::hpc_core(),
        );
        assert!(trace.metrics.inter_machine_messages > 0);
        assert!(trace.elapsed() > 0.0);
    }
}
