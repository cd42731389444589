//! Cluster specifications: topology + network + compute bundles matching
//! the paper's three experimental platforms.

use nomad_cluster::{ClusterTopology, ComputeModel, NetworkModel};

/// A complete description of the (simulated) execution platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Machines × threads layout.
    pub topology: ClusterTopology,
    /// Network cost model.
    pub network: NetworkModel,
    /// Per-core compute cost model.
    pub compute: ComputeModel,
}

impl ClusterSpec {
    /// Single shared-memory machine with `cores` computation cores
    /// (Section 5.2: the 30-core `largemem` node).
    pub fn single_machine(cores: usize) -> Self {
        Self {
            topology: ClusterTopology::single_machine(cores),
            network: NetworkModel::shared_memory(),
            compute: ComputeModel::hpc_core(),
        }
    }

    /// HPC cluster of `machines` nodes, 4 computation cores each
    /// (Section 5.3: Stampede).
    pub fn hpc(machines: usize) -> Self {
        Self {
            topology: ClusterTopology::hpc(machines),
            network: NetworkModel::hpc(),
            compute: ComputeModel::hpc_core(),
        }
    }

    /// Commodity cluster of `machines` quad-core nodes on a ~1 Gb/s network
    /// (Section 5.4: AWS m1.xlarge), as used by the *asynchronous*
    /// algorithms which reserve two cores for communication.
    pub fn commodity(machines: usize) -> Self {
        Self {
            topology: ClusterTopology::commodity(machines),
            network: NetworkModel::commodity_1gbps(),
            compute: ComputeModel::commodity_core(),
        }
    }

    /// The commodity cluster as used by the bulk-synchronous algorithms
    /// (DSGD, CCD++), which use all four cores for computation.
    pub fn commodity_bulk_sync(machines: usize) -> Self {
        Self {
            topology: ClusterTopology::commodity_bulk_sync(machines),
            network: NetworkModel::commodity_1gbps(),
            compute: ComputeModel::commodity_core(),
        }
    }

    /// Number of computation workers.
    pub fn num_workers(&self) -> usize {
        self.topology.num_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_the_papers_shapes() {
        assert_eq!(ClusterSpec::single_machine(30).num_workers(), 30);
        assert_eq!(ClusterSpec::hpc(32).num_workers(), 128);
        assert_eq!(ClusterSpec::commodity(32).num_workers(), 64);
        assert_eq!(ClusterSpec::commodity_bulk_sync(32).num_workers(), 128);
    }

    #[test]
    fn commodity_network_is_slower_than_hpc() {
        let hpc = ClusterSpec::hpc(4);
        let aws = ClusterSpec::commodity(4);
        assert!(aws.network.inter_machine_time(800) > hpc.network.inter_machine_time(800));
        assert!(aws.compute.sgd_update_time(100) > hpc.compute.sgd_update_time(100));
    }
}
