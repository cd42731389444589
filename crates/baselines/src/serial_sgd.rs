//! Plain serial stochastic gradient descent (Section 2.3).
//!
//! One pass (epoch) visits every observed rating once in a freshly shuffled
//! order and applies the SGD update of Eqs. 9–10.  This is the
//! single-machine, single-thread reference point for every parallel SGD
//! variant in the workspace.

use rand::rngs::StdRng;
use rand::SeedableRng;

use nomad_cluster::{ComputeModel, RunTrace, SimTime, TracePoint};
use nomad_matrix::{RatingMatrix, TripletMatrix};
use nomad_sgd::schedule::StepSchedule;
use nomad_sgd::{FactorModel, HyperParams};

use crate::common::BaselineStop;

/// Configuration of the serial SGD baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialSgdConfig {
    /// Hyper-parameters (k, λ, α, β).
    pub params: HyperParams,
    /// Stop condition.
    pub stop: BaselineStop,
    /// RNG seed (initialization and shuffling).
    pub seed: u64,
}

/// The serial SGD solver.
#[derive(Debug, Clone)]
pub struct SerialSgd {
    config: SerialSgdConfig,
}

impl SerialSgd {
    /// Creates the solver.
    pub fn new(config: SerialSgdConfig) -> Self {
        Self { config }
    }

    /// Runs SGD and returns the model plus its convergence trace (one point
    /// per epoch, timed by `compute`).
    pub fn run(
        &self,
        data: &RatingMatrix,
        test: &TripletMatrix,
        compute: &ComputeModel,
    ) -> (FactorModel, RunTrace) {
        let cfg = self.config;
        let params = cfg.params;
        let mut model = FactorModel::init(data.nrows(), data.ncols(), params.k, cfg.seed);
        let schedule = params.nomad_schedule();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E21A1);

        // Per-entry update counters drive the step size exactly as in NOMAD.
        let mut pass = 0u64;
        let mut order: Vec<usize> = (0..data.nnz()).collect();
        let csr = data.by_rows();

        let mut trace = RunTrace::new("SGD-serial", "", 1, 1, 1);
        let per_update = compute.sgd_update_time(params.k);
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
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            let step = schedule.step(pass);
            for &idx in &order {
                let e = csr.entry_at(idx);
                nomad_sgd::sgd_update(&mut model, e.row, e.col, e.value, step, params.lambda);
                updates += 1;
            }
            pass += 1;
            epoch += 1;
            elapsed += order.len() as f64 * per_update;
            trace.metrics.updates = updates;
            trace
                .metrics
                .record_busy(0, order.len() as f64 * per_update);
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

    fn config(epochs: usize) -> SerialSgdConfig {
        SerialSgdConfig {
            params: HyperParams::netflix().with_k(8),
            stop: BaselineStop::epochs(epochs),
            seed: 3,
        }
    }

    #[test]
    fn sgd_reduces_rmse_and_objective() {
        let (data, test) = tiny();
        let (_, trace) = SerialSgd::new(config(10)).run(&data, &test, &ComputeModel::hpc_core());
        let first = trace.points.first().unwrap();
        let last = trace.points.last().unwrap();
        assert!(last.test_rmse < first.test_rmse * 0.9);
        assert!(last.objective.unwrap() < first.objective.unwrap());
        assert_eq!(trace.points.len(), 11); // initial point + one per epoch
    }

    #[test]
    fn epoch_counts_updates_exactly() {
        let (data, test) = tiny();
        let (_, trace) = SerialSgd::new(config(3)).run(&data, &test, &ComputeModel::hpc_core());
        assert_eq!(trace.metrics.updates, 3 * data.nnz() as u64);
    }

    #[test]
    fn run_is_deterministic() {
        let (data, test) = tiny();
        let (m1, _) = SerialSgd::new(config(2)).run(&data, &test, &ComputeModel::hpc_core());
        let (m2, _) = SerialSgd::new(config(2)).run(&data, &test, &ComputeModel::hpc_core());
        assert_eq!(m1, m2);
    }

    #[test]
    fn time_budget_cuts_the_run_short() {
        let (data, test) = tiny();
        let mut cfg = config(1000);
        cfg.stop = BaselineStop::epochs_or_seconds(1000, 1e-4);
        let (_, trace) = SerialSgd::new(cfg).run(&data, &test, &ComputeModel::hpc_core());
        assert!(trace.points.len() < 1000);
    }
}
