//! GraphLab-style distributed ALS with network read-locks (Section 4.2 and
//! Appendix F of the NOMAD paper).
//!
//! GraphLab/PowerGraph runs asynchronous ALS by distributing both the user
//! and item vertices across machines; updating `w_i` requires read-locking
//! `h_j` for every `j ∈ Ω_i`, and a popular item's lock is requested over
//! the network again and again.  The paper identifies exactly this —
//! "frequently acquiring read-locks over the network can be expensive" —
//! as the reason GraphLab is orders of magnitude slower than NOMAD, even
//! though the arithmetic per epoch (exact ALS solves) is the same.
//!
//! The solver below runs real ALS sweeps while charging, for every rating
//! of every row solve, a lock round-trip plus the factor transfer whenever
//! the neighbouring vertex lives on a different machine (which happens with
//! probability `(p-1)/p` under the hashed vertex placement GraphLab uses).

use nomad_cluster::{ClusterTopology, ComputeModel, NetworkModel, RunTrace, TracePoint};
use nomad_matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_sgd::{als_solve_row, FactorModel, HyperParams};

use crate::common::{BaselineStop, EpochClock};

/// Configuration of the GraphLab-ALS baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphLabConfig {
    /// Hyper-parameters (`alpha`/`beta` unused).
    pub params: HyperParams,
    /// Stop condition (an epoch is one user sweep plus one item sweep).
    pub stop: BaselineStop,
    /// RNG seed for initialization.
    pub seed: u64,
}

/// The GraphLab-style distributed ALS solver.
#[derive(Debug, Clone)]
pub struct GraphLabAls {
    config: GraphLabConfig,
}

impl GraphLabAls {
    /// Creates the solver.
    pub fn new(config: GraphLabConfig) -> Self {
        Self { config }
    }

    /// Runs distributed ALS with per-neighbour network locking costs.
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
        let k = params.k;
        let machines = topology.machines;
        let threads = topology.compute_threads;

        let mut model = FactorModel::init(data.nrows(), data.ncols(), k, cfg.seed);
        let csr = data.by_rows();
        let csc = data.by_cols();
        let user_placement = RowPartition::round_robin(data.nrows(), machines);
        let item_placement = RowPartition::round_robin(data.ncols(), machines);

        // Cost of acquiring one remote read-lock and shipping one factor
        // row: a round-trip plus k doubles on the wire.
        let remote_neighbor_cost = 2.0 * network.inter_machine_latency
            + (k * 8 + network.per_message_overhead_bytes) as f64 / network.inter_machine_bandwidth;

        let mut clock = EpochClock::new(machines);
        let mut trace = RunTrace::new(
            "GraphLab-ALS",
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

        let mut epoch = 0usize;
        while !cfg.stop.reached(epoch, clock.elapsed()) {
            // User sweep.
            for i in 0..data.nrows() {
                let nnz = csr.row_nnz(i);
                if nnz == 0 {
                    continue;
                }
                let machine = user_placement.owner_of(i as Idx) as usize;
                let mut remote = 0usize;
                for (j, _) in csr.row(i) {
                    if item_placement.owner_of(j) as usize != machine {
                        remote += 1;
                    }
                }
                let neighbors = csr.row(i).map(|(j, a)| (model.h.row(j as usize), a));
                let w = als_solve_row(neighbors, k, params.lambda * nnz as f64);
                model.w.set_row(i, &w);
                updates += 1;
                let seconds = (compute.als_row_time(k, nnz) + remote as f64 * remote_neighbor_cost)
                    / threads as f64;
                clock.compute(machine, seconds);
                for _ in 0..remote {
                    clock.metrics.record_message(k * 8, false);
                }
            }
            clock.barrier();
            // Item sweep (symmetric).
            for j in 0..data.ncols() {
                let nnz = csc.col_nnz(j);
                if nnz == 0 {
                    continue;
                }
                let machine = item_placement.owner_of(j as Idx) as usize;
                let mut remote = 0usize;
                for &i in csc.col_rows(j) {
                    if user_placement.owner_of(i) as usize != machine {
                        remote += 1;
                    }
                }
                let neighbors = csc.col(j).map(|(i, a)| (model.w.row(i as usize), a));
                let h = als_solve_row(neighbors, k, params.lambda * nnz as f64);
                model.h.set_row(j, &h);
                updates += 1;
                let seconds = (compute.als_row_time(k, nnz) + remote as f64 * remote_neighbor_cost)
                    / threads as f64;
                clock.compute(machine, seconds);
                for _ in 0..remote {
                    clock.metrics.record_message(k * 8, false);
                }
            }
            clock.barrier();
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
    use crate::als::{Als, AlsConfig};
    use nomad_data::{named_dataset, SizeTier};

    fn tiny() -> (RatingMatrix, TripletMatrix) {
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        (ds.matrix, ds.test)
    }

    fn config(epochs: usize) -> GraphLabConfig {
        GraphLabConfig {
            params: HyperParams::netflix().with_k(8),
            stop: BaselineStop::epochs(epochs),
            seed: 7,
        }
    }

    #[test]
    fn graphlab_als_converges_like_als() {
        // Same arithmetic as plain ALS, so the final RMSE after the same
        // number of epochs should be essentially identical.
        let (data, test) = tiny();
        let (_, gl) = GraphLabAls::new(config(3)).run(
            &data,
            &test,
            &ClusterTopology::hpc(4),
            &NetworkModel::hpc(),
            &ComputeModel::hpc_core(),
        );
        let (_, als) = Als::new(AlsConfig {
            params: HyperParams::netflix().with_k(8),
            stop: BaselineStop::epochs(3),
            seed: 7,
        })
        .run(&data, &test, 4, &ComputeModel::hpc_core());
        let diff = (gl.final_rmse().unwrap() - als.final_rmse().unwrap()).abs();
        assert!(diff < 1e-9, "same sweeps, same result (diff {diff})");
    }

    #[test]
    fn network_locking_makes_graphlab_much_slower_on_commodity_hardware() {
        // The Appendix F effect: on a slow network, the per-neighbour lock
        // round-trips dominate and GraphLab needs orders of magnitude more
        // virtual time per epoch than it spends on arithmetic.
        let (data, test) = tiny();
        let topo = ClusterTopology::commodity_bulk_sync(8);
        let (_, commodity) = GraphLabAls::new(config(1)).run(
            &data,
            &test,
            &topo,
            &NetworkModel::commodity_1gbps(),
            &ComputeModel::commodity_core(),
        );
        let (_, hpc) = GraphLabAls::new(config(1)).run(
            &data,
            &test,
            &topo,
            &NetworkModel::hpc(),
            &ComputeModel::commodity_core(),
        );
        assert!(
            commodity.elapsed() > 10.0 * hpc.elapsed(),
            "commodity {} should dwarf HPC {}",
            commodity.elapsed(),
            hpc.elapsed()
        );
    }

    #[test]
    fn lock_traffic_is_recorded() {
        let (data, test) = tiny();
        let (_, trace) = GraphLabAls::new(config(1)).run(
            &data,
            &test,
            &ClusterTopology::hpc(4),
            &NetworkModel::hpc(),
            &ComputeModel::hpc_core(),
        );
        assert!(trace.metrics.inter_machine_messages > 0);
        assert!(trace.metrics.network_bytes > 0);
    }
}
