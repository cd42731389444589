//! DSGD: bulk-synchronous distributed stochastic gradient descent
//! (Gemulla et al., KDD 2011; Section 4.1 of the NOMAD paper).
//!
//! Users are partitioned into `p` row blocks (one per machine) and items
//! into `p` column blocks.  An epoch consists of `p` sub-epochs; in
//! sub-epoch `s`, machine `q` runs SGD over the stratum
//! `(I_q, J_{(q+s) mod p})`.  The strata of one sub-epoch are disjoint in
//! both rows and columns, so the updates of different machines never
//! conflict.  After every sub-epoch the machines synchronize at a barrier
//! and exchange item blocks — the two costs (last-reducer waiting and
//! serialized communication) that the NOMAD paper identifies as DSGD's
//! weakness.
//!
//! The same engine also powers [`crate::dsgdpp::DsgdPlusPlus`], which uses
//! `2p` item blocks and overlaps the exchange of the next block with the
//! computation on the current one.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nomad_cluster::{ClusterTopology, ComputeModel, NetworkModel, RunTrace, TracePoint};
use nomad_matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_sgd::schedule::BoldDriver;
use nomad_sgd::{FactorModel, HyperParams};

use crate::common::BaselineStop;
use crate::common::EpochClock;

/// Configuration of DSGD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsgdConfig {
    /// Hyper-parameters; `alpha` seeds the bold-driver step size.
    pub params: HyperParams,
    /// Stop condition.
    pub stop: BaselineStop,
    /// RNG seed.
    pub seed: u64,
}

/// The DSGD solver.
#[derive(Debug, Clone)]
pub struct Dsgd {
    config: DsgdConfig,
}

impl Dsgd {
    /// Creates the solver.
    pub fn new(config: DsgdConfig) -> Self {
        Self { config }
    }

    /// Runs DSGD on the given simulated cluster.
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        topology: &ClusterTopology,
        network: &NetworkModel,
        compute: &ComputeModel,
    ) -> (FactorModel, RunTrace) {
        run_stratified(
            "DSGD",
            StratifiedOptions {
                params: self.config.params,
                stop: self.config.stop,
                seed: self.config.seed,
                item_blocks_per_machine: 1,
                overlap_communication: false,
            },
            data,
            test,
            topology,
            network,
            compute,
        )
    }
}

/// Internal options shared by DSGD and DSGD++.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StratifiedOptions {
    pub params: HyperParams,
    pub stop: BaselineStop,
    pub seed: u64,
    /// 1 for DSGD, 2 for DSGD++ ("DSGD++ uses 2p partitions").
    pub item_blocks_per_machine: usize,
    /// Whether block transfers overlap the next sub-epoch's computation
    /// (false for DSGD, true for DSGD++).
    pub overlap_communication: bool,
}

/// The shared stratified bulk-synchronous SGD engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stratified(
    name: &str,
    opts: StratifiedOptions,
    data: &RatingMatrix,
    test: &TripletMatrix,
    topology: &ClusterTopology,
    network: &NetworkModel,
    compute: &ComputeModel,
) -> (FactorModel, RunTrace) {
    let params = opts.params;
    let machines = topology.machines;
    let threads = topology.compute_threads;
    let num_blocks = machines * opts.item_blocks_per_machine;

    let mut model = FactorModel::init(data.nrows(), data.ncols(), params.k, opts.seed);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xD5_6D);

    // Row blocks: one per machine.  Column blocks: `num_blocks` contiguous
    // slices of the item space.
    let row_partition = RowPartition::contiguous(data.nrows(), machines);
    let col_partition = RowPartition::contiguous(data.ncols(), num_blocks);

    // Pre-index the training entries of every (machine, item-block) stratum.
    let csr = data.by_rows();
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); machines * num_blocks];
    let mut flat = 0usize;
    for i in 0..data.nrows() {
        let machine = row_partition.owner_of(i as Idx) as usize;
        for (j, _) in csr.row(i) {
            let block = col_partition.owner_of(j) as usize;
            strata[machine * num_blocks + block].push(flat);
            flat += 1;
        }
    }

    let mut step = BoldDriver::new(params.alpha);
    let mut clock = EpochClock::new(machines);
    let mut trace = RunTrace::new(name, "", machines, topology.cores_per_machine(), machines);
    let mut updates = 0u64;

    trace.push(TracePoint {
        seconds: 0.0,
        updates: 0,
        test_rmse: nomad_sgd::rmse(&model, test),
        objective: Some(nomad_sgd::regularized_objective(&model, csr, params.lambda)),
    });

    // Bytes exchanged per machine per sub-epoch: its item block's factors.
    let block_items = data.ncols().div_ceil(num_blocks).max(1);
    let block_bytes = block_items * params.k * 8;

    let mut epoch = 0usize;
    while !opts.stop.reached(epoch, clock.elapsed()) {
        // One epoch = `num_blocks` sub-epochs; machine q works on block
        // (q * blocks_per_machine + s) mod num_blocks in sub-epoch s, so a
        // full epoch touches every stratum exactly once.
        for sub in 0..num_blocks {
            let current_step = step.current();
            for machine in 0..machines {
                let block = (machine * opts.item_blocks_per_machine + sub) % num_blocks;
                let stratum = &mut strata[machine * num_blocks + block];
                stratum.shuffle(&mut rng);
                let mut count = 0u64;
                for &flat_idx in stratum.iter() {
                    let e = csr.entry_at(flat_idx);
                    nomad_sgd::sgd_update(
                        &mut model,
                        e.row,
                        e.col,
                        e.value,
                        current_step,
                        params.lambda,
                    );
                    count += 1;
                }
                updates += count;
                // The machine's threads split the stratum's updates evenly.
                let seconds = count as f64 * compute.sgd_update_time(params.k) / threads as f64;
                clock.compute(machine, seconds);
            }
            if opts.overlap_communication {
                let comm = clock.exchange_cost(network, block_bytes);
                clock.barrier_overlapped(comm);
            } else {
                clock.barrier();
                clock.exchange(network, block_bytes);
            }
        }
        // Bold-driver step adaptation from the epoch-end objective.
        let objective = nomad_sgd::regularized_objective(&model, csr, params.lambda);
        step.epoch_feedback(objective);
        epoch += 1;

        trace.metrics.updates = updates;
        trace.push(TracePoint {
            seconds: clock.elapsed(),
            updates,
            test_rmse: nomad_sgd::rmse(&model, test),
            objective: Some(objective),
        });
    }

    let mut metrics = clock.finish();
    metrics.updates = updates;
    trace.metrics = metrics;
    (model, trace)
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

    fn config(epochs: usize) -> DsgdConfig {
        DsgdConfig {
            params: HyperParams::netflix().with_k(8).with_step(0.05, 0.0),
            stop: BaselineStop::epochs(epochs),
            seed: 4,
        }
    }

    #[test]
    fn dsgd_converges_on_a_simulated_cluster() {
        let (data, test) = tiny();
        let (_, trace) = Dsgd::new(config(8)).run(
            &data,
            &test,
            &ClusterTopology::hpc(4),
            &NetworkModel::hpc(),
            &ComputeModel::hpc_core(),
        );
        let first = trace.points.first().unwrap().test_rmse;
        let last = trace.final_rmse().unwrap();
        assert!(last < first * 0.9, "RMSE should drop: {first} -> {last}");
        assert_eq!(trace.metrics.updates, 8 * data.nnz() as u64);
    }

    #[test]
    fn dsgd_pays_barrier_and_communication_costs() {
        let (data, test) = tiny();
        let (_, trace) = Dsgd::new(config(3)).run(
            &data,
            &test,
            &ClusterTopology::hpc(4),
            &NetworkModel::commodity_1gbps(),
            &ComputeModel::hpc_core(),
        );
        assert!(trace.metrics.inter_machine_messages > 0);
        assert!(
            trace.metrics.barrier_wait_time.iter().sum::<f64>() > 0.0,
            "unequal strata must create barrier waiting"
        );
    }

    #[test]
    fn single_machine_dsgd_has_no_network_traffic() {
        let (data, test) = tiny();
        let (_, trace) = Dsgd::new(config(2)).run(
            &data,
            &test,
            &ClusterTopology::single_machine(4),
            &NetworkModel::shared_memory(),
            &ComputeModel::hpc_core(),
        );
        assert_eq!(trace.metrics.inter_machine_messages, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let (data, test) = tiny();
        let run = || {
            Dsgd::new(config(2)).run(
                &data,
                &test,
                &ClusterTopology::hpc(2),
                &NetworkModel::hpc(),
                &ComputeModel::hpc_core(),
            )
        };
        let (m1, t1) = run();
        let (m2, t2) = run();
        assert_eq!(m1, m2);
        assert_eq!(t1.points, t2.points);
    }
}
