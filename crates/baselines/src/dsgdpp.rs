//! DSGD++ (Teflioudi et al., ICDM 2012; Section 4.1 of the NOMAD paper).
//!
//! DSGD++ refines DSGD in two ways: it splits the items into `2p` blocks
//! instead of `p`, and while the machines process one set of blocks the
//! other set is transferred over the network, keeping CPU and network busy
//! at the same time.  It still synchronizes at every sub-epoch boundary, so
//! it inherits the last-reducer problem — which is why NOMAD overtakes it
//! as the cluster grows (Figure 12).

use nomad_cluster::{ClusterTopology, ComputeModel, NetworkModel, RunTrace};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_sgd::{FactorModel, HyperParams};

use crate::common::BaselineStop;
use crate::dsgd::{run_stratified, StratifiedOptions};

/// Configuration of DSGD++.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsgdPlusPlusConfig {
    /// Hyper-parameters; `alpha` seeds the bold-driver step size.
    pub params: HyperParams,
    /// Stop condition.
    pub stop: BaselineStop,
    /// RNG seed.
    pub seed: u64,
}

/// The DSGD++ solver.
#[derive(Debug, Clone)]
pub struct DsgdPlusPlus {
    config: DsgdPlusPlusConfig,
}

impl DsgdPlusPlus {
    /// Creates the solver.
    pub fn new(config: DsgdPlusPlusConfig) -> Self {
        Self { config }
    }

    /// Runs DSGD++ on the given simulated cluster.
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        topology: &ClusterTopology,
        network: &NetworkModel,
        compute: &ComputeModel,
    ) -> (FactorModel, RunTrace) {
        run_stratified(
            "DSGD++",
            StratifiedOptions {
                params: self.config.params,
                stop: self.config.stop,
                seed: self.config.seed,
                item_blocks_per_machine: 2,
                overlap_communication: true,
            },
            data,
            test,
            topology,
            network,
            compute,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsgd::{Dsgd, DsgdConfig};
    use nomad_data::{named_dataset, SizeTier};

    fn tiny() -> (RatingMatrix, TripletMatrix) {
        let ds = named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build();
        (ds.matrix, ds.test)
    }

    fn params() -> HyperParams {
        HyperParams::netflix().with_k(8).with_step(0.05, 0.0)
    }

    #[test]
    fn dsgdpp_converges() {
        let (data, test) = tiny();
        let cfg = DsgdPlusPlusConfig {
            params: params(),
            stop: BaselineStop::epochs(6),
            seed: 5,
        };
        let (_, trace) = DsgdPlusPlus::new(cfg).run(
            &data,
            &test,
            &ClusterTopology::hpc(4),
            &NetworkModel::hpc(),
            &ComputeModel::hpc_core(),
        );
        let first = trace.points.first().unwrap().test_rmse;
        let last = trace.final_rmse().unwrap();
        assert!(last < first * 0.9, "RMSE should drop: {first} -> {last}");
        assert_eq!(trace.solver, "DSGD++");
    }

    #[test]
    fn overlap_makes_dsgdpp_faster_than_dsgd_when_compute_and_comm_are_balanced() {
        // DSGD++'s advantage is hiding communication behind computation, so
        // it shows when the two are of comparable magnitude (on a tiny
        // latency-dominated workload the extra sub-epoch barriers can even
        // make it slower — which is also what the real algorithm does).
        // Use a zero-latency, bandwidth-limited network sized so that one
        // epoch's communication is comparable to one epoch's computation.
        let (data, test) = tiny();
        let stop = BaselineStop::epochs(3);
        let topo = ClusterTopology::hpc(4);
        let net = NetworkModel {
            inter_machine_latency: 0.0,
            inter_machine_bandwidth: 1.0e8,
            intra_machine_latency: 1.0e-7,
            intra_machine_bandwidth: 2.0e10,
            per_message_overhead_bytes: 0,
        };
        let cpu = ComputeModel::hpc_core();
        let p = HyperParams::netflix().with_k(32).with_step(0.05, 0.0);
        let (_, dsgd) = Dsgd::new(DsgdConfig {
            params: p,
            stop,
            seed: 5,
        })
        .run(&data, &test, &topo, &net, &cpu);
        let (_, dsgdpp) = DsgdPlusPlus::new(DsgdPlusPlusConfig {
            params: p,
            stop,
            seed: 5,
        })
        .run(&data, &test, &topo, &net, &cpu);
        assert!(
            dsgdpp.elapsed() < dsgd.elapsed(),
            "DSGD++ ({}) should finish its epochs faster than DSGD ({})",
            dsgdpp.elapsed(),
            dsgd.elapsed()
        );
    }
}
