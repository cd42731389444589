//! Asynchronous parameter-server SGD (ASGD / Hogwild!-style; Sections 4.2
//! and 4.3 of the NOMAD paper).
//!
//! Workers keep a *stale local copy* of the item factors, run SGD against
//! it, and only periodically synchronize with a parameter server by pushing
//! their accumulated deltas and pulling the current values.  Between
//! synchronizations different workers update overlapping items from stale
//! snapshots, so — unlike NOMAD — the execution is **not serializable**:
//! there is no serial ordering that produces the same iterates.  The paper
//! argues (and the experiments here show) that this costs convergence
//! quality per update, which is the motivation for NOMAD's owner-computes
//! design.
//!
//! User factors are partitioned across workers (as in every row-partitioned
//! scheme), so only item factors suffer staleness.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nomad_cluster::{ClusterTopology, ComputeModel, NetworkModel, RunTrace, TracePoint};
use nomad_matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_sgd::schedule::StepSchedule;
use nomad_sgd::{FactorMatrix, FactorModel, HyperParams};

use crate::common::{BaselineStop, EpochClock};

/// Configuration of the asynchronous parameter-server SGD baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsgdConfig {
    /// Hyper-parameters.
    pub params: HyperParams,
    /// Stop condition.
    pub stop: BaselineStop,
    /// How many local SGD updates a worker performs between two
    /// synchronizations with the parameter server.  Larger values mean less
    /// communication but more staleness.
    pub sync_every: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The ASGD solver.
#[derive(Debug, Clone)]
pub struct Asgd {
    config: AsgdConfig,
}

impl Asgd {
    /// Creates the solver.
    pub fn new(config: AsgdConfig) -> Self {
        Self { config }
    }

    /// Runs ASGD on the given simulated cluster.  Each machine is one
    /// worker with its own stale replica of `H`.
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
        assert!(cfg.sync_every > 0, "sync_every must be positive");

        // The "server" model holds the authoritative factors.
        let mut server = FactorModel::init(data.nrows(), data.ncols(), params.k, cfg.seed);
        let csr = data.by_rows();
        let partition = RowPartition::contiguous(data.nrows(), machines);
        let schedule = params.nomad_schedule();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA5_6D);

        // Per-machine flat entry indices (its users' ratings).
        let mut local_entries: Vec<Vec<usize>> = vec![Vec::new(); machines];
        let mut flat = 0usize;
        for i in 0..data.nrows() {
            let q = partition.owner_of(i as Idx) as usize;
            for _ in csr.row(i) {
                local_entries[q].push(flat);
                flat += 1;
            }
        }

        let mut clock = EpochClock::new(machines);
        let mut trace = RunTrace::new("ASGD", "", machines, topology.cores_per_machine(), machines);
        let mut updates = 0u64;
        trace.push(TracePoint {
            seconds: 0.0,
            updates: 0,
            test_rmse: nomad_sgd::rmse(&server, test),
            objective: None,
        });

        let mut epoch = 0usize;
        let mut pass = 0u64;
        while !cfg.stop.reached(epoch, clock.elapsed()) {
            let step = schedule.step(pass);
            // Each machine runs one pass over its local ratings in chunks of
            // `sync_every`, synchronizing item deltas with the server
            // between chunks.  Every machine's chunk `c` reads the server
            // state that existed after chunk `c-1` — the staleness window.
            let max_chunks = local_entries
                .iter()
                .map(|e| e.len().div_ceil(cfg.sync_every))
                .max()
                .unwrap_or(0);
            // Stale per-machine replicas for this epoch.
            let mut replicas: Vec<FactorMatrix> = (0..machines).map(|_| server.h.clone()).collect();
            for chunk in 0..max_chunks {
                // Accumulated item deltas from every machine in this round.
                let mut deltas = FactorMatrix::zeros(data.ncols(), params.k);
                let mut touched = vec![false; data.ncols()];
                for q in 0..machines {
                    let entries = &mut local_entries[q];
                    if chunk == 0 {
                        entries.shuffle(&mut rng);
                    }
                    let start = chunk * cfg.sync_every;
                    if start >= entries.len() {
                        continue;
                    }
                    let end = (start + cfg.sync_every).min(entries.len());
                    let replica = &mut replicas[q];
                    let mut count = 0u64;
                    for &idx in &entries[start..end] {
                        let e = csr.entry_at(idx);
                        let before = replica.row(e.col as usize).to_vec();
                        let wi = server.w.row_mut(e.row as usize);
                        let hj = replica.row_mut(e.col as usize);
                        nomad_linalg::vec_ops::sgd_pair_update(
                            wi,
                            hj,
                            e.value,
                            step,
                            params.lambda,
                        );
                        // Record the delta produced on the stale replica.
                        let delta_row = deltas.row_mut(e.col as usize);
                        for l in 0..params.k {
                            delta_row[l] += hj[l] - before[l];
                        }
                        touched[e.col as usize] = true;
                        count += 1;
                    }
                    updates += count;
                    clock.compute(
                        q,
                        count as f64 * compute.sgd_update_time(params.k) / threads as f64,
                    );
                }
                // Server applies the (possibly conflicting) deltas additively
                // and every machine refreshes its replica: this is the
                // non-serializable merge step.
                let mut touched_items = 0usize;
                for (j, &was_touched) in touched.iter().enumerate() {
                    if !was_touched {
                        continue;
                    }
                    touched_items += 1;
                    let row = deltas.row(j);
                    let server_row = server.h.row_mut(j);
                    for l in 0..params.k {
                        server_row[l] += row[l];
                    }
                }
                for replica in &mut replicas {
                    replica.clone_from(&server.h);
                }
                clock.barrier();
                // Push deltas + pull fresh values for the touched items.
                clock.exchange(network, 2 * touched_items * params.k * 8 / machines.max(1));
            }
            pass += 1;
            epoch += 1;
            trace.metrics.updates = updates;
            trace.push(TracePoint {
                seconds: clock.elapsed(),
                updates,
                test_rmse: nomad_sgd::rmse(&server, test),
                objective: None,
            });
        }

        let mut metrics = clock.finish();
        metrics.updates = updates;
        trace.metrics = metrics;
        (server, trace)
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

    fn config(epochs: usize, sync_every: usize) -> AsgdConfig {
        AsgdConfig {
            params: HyperParams::netflix().with_k(8),
            stop: BaselineStop::epochs(epochs),
            sync_every,
            seed: 9,
        }
    }

    #[test]
    fn asgd_converges_despite_staleness() {
        let (data, test) = tiny();
        let (_, trace) = Asgd::new(config(8, 200)).run(
            &data,
            &test,
            &ClusterTopology::hpc(4),
            &NetworkModel::hpc(),
            &ComputeModel::hpc_core(),
        );
        let first = trace.points.first().unwrap().test_rmse;
        let last = trace.final_rmse().unwrap();
        assert!(last < first, "RMSE should improve: {first} -> {last}");
    }

    #[test]
    fn single_machine_asgd_equals_no_staleness_baseline_direction() {
        // With one machine there are no conflicting replicas; ASGD should
        // still converge cleanly.
        let (data, test) = tiny();
        let (_, trace) = Asgd::new(config(5, 100)).run(
            &data,
            &test,
            &ClusterTopology::single_machine(4),
            &NetworkModel::shared_memory(),
            &ComputeModel::hpc_core(),
        );
        assert!(trace.final_rmse().unwrap() < trace.points[0].test_rmse);
        assert_eq!(trace.metrics.inter_machine_messages, 0);
    }

    #[test]
    fn more_frequent_sync_converges_at_least_as_well_per_epoch() {
        // Staleness hurts: a large sync window should not beat a small one
        // (per update), which is the qualitative claim behind NOMAD's
        // serializability argument.
        let (data, test) = tiny();
        let topo = ClusterTopology::hpc(8);
        let net = NetworkModel::hpc();
        let cpu = ComputeModel::hpc_core();
        let (_, fresh) = Asgd::new(config(6, 50)).run(&data, &test, &topo, &net, &cpu);
        let (_, stale) = Asgd::new(config(6, 2_000)).run(&data, &test, &topo, &net, &cpu);
        assert!(
            fresh.final_rmse().unwrap() <= stale.final_rmse().unwrap() + 0.02,
            "fresh {} vs stale {}",
            fresh.final_rmse().unwrap(),
            stale.final_rmse().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "sync_every must be positive")]
    fn zero_sync_period_rejected() {
        let (data, test) = tiny();
        let _ = Asgd::new(config(1, 0)).run(
            &data,
            &test,
            &ClusterTopology::hpc(2),
            &NetworkModel::hpc(),
            &ComputeModel::hpc_core(),
        );
    }
}
