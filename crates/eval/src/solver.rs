//! The unified solver entry point used by every experiment.

use nomad_baselines::{
    Als, AlsConfig, Asgd, AsgdConfig, BaselineStop, CcdConfig, CcdPlusPlus, Dsgd, DsgdConfig,
    DsgdPlusPlus, DsgdPlusPlusConfig, Fpsgd, FpsgdConfig, GraphLabAls, GraphLabConfig, SerialSgd,
    SerialSgdConfig,
};
use nomad_cluster::RunTrace;
use nomad_core::{NomadConfig, RoutingPolicy, SimNomad, StopCondition};
use nomad_data::GeneratedDataset;
use nomad_sgd::HyperParams;

use crate::env::ClusterSpec;

/// Every solver the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// NOMAD with uniform token routing (the paper's Algorithm 1).
    Nomad,
    /// NOMAD with queue-length-based dynamic load balancing (Section 3.3).
    NomadLeastLoaded,
    /// Bulk-synchronous DSGD.
    Dsgd,
    /// DSGD++ with 2p blocks and overlapped communication.
    DsgdPlusPlus,
    /// CCD++ coordinate descent.
    CcdPlusPlus,
    /// FPSGD** shared-memory block scheduler.
    Fpsgd,
    /// Alternating least squares (shared memory).
    Als,
    /// Asynchronous parameter-server SGD (non-serializable).
    Asgd,
    /// GraphLab-style distributed ALS with network locks.
    GraphLabAls,
    /// Plain serial SGD.
    SerialSgd,
}

impl SolverKind {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Nomad => "NOMAD",
            SolverKind::NomadLeastLoaded => "NOMAD-LB",
            SolverKind::Dsgd => "DSGD",
            SolverKind::DsgdPlusPlus => "DSGD++",
            SolverKind::CcdPlusPlus => "CCD++",
            SolverKind::Fpsgd => "FPSGD**",
            SolverKind::Als => "ALS",
            SolverKind::Asgd => "ASGD",
            SolverKind::GraphLabAls => "GraphLab-ALS",
            SolverKind::SerialSgd => "SGD-serial",
        }
    }

    /// The solvers compared in the shared-memory experiment (Figure 5).
    pub fn shared_memory_lineup() -> Vec<SolverKind> {
        vec![
            SolverKind::Nomad,
            SolverKind::Fpsgd,
            SolverKind::CcdPlusPlus,
        ]
    }

    /// The solvers compared in the distributed experiments (Figures 8, 11, 12).
    pub fn distributed_lineup() -> Vec<SolverKind> {
        vec![
            SolverKind::Nomad,
            SolverKind::Dsgd,
            SolverKind::DsgdPlusPlus,
            SolverKind::CcdPlusPlus,
        ]
    }
}

/// Runs `kind` on `dataset` under `spec` for (approximately) `epochs`
/// passes over the training data, with hyper-parameters `params`.
///
/// Every solver's trace uses the same virtual-time axis, so the results are
/// directly comparable — this is the function every figure is built from.
pub fn run_solver(
    kind: SolverKind,
    dataset: &GeneratedDataset,
    spec: &ClusterSpec,
    params: HyperParams,
    epochs: usize,
    seed: u64,
) -> RunTrace {
    let stop = BaselineStop::epochs(epochs);
    let mut trace = match kind {
        SolverKind::Nomad | SolverKind::NomadLeastLoaded => {
            let updates = dataset.matrix.nnz() as u64 * epochs as u64;
            // Aim for ~30 trace points: estimate the virtual duration from
            // the compute model (communication only adds to it).
            let est_seconds =
                updates as f64 * spec.compute.sgd_update_time(params.k) / spec.num_workers() as f64;
            let routing = if kind == SolverKind::NomadLeastLoaded {
                RoutingPolicy::LeastLoaded
            } else {
                RoutingPolicy::UniformRandom
            };
            let config = NomadConfig::new(params)
                .with_stop(StopCondition::Updates(updates))
                .with_snapshot_every((est_seconds / 30.0).max(1e-9))
                .with_routing(routing)
                .with_seed(seed);
            SimNomad::new(config, spec.topology, spec.network, spec.compute)
                .with_dataset_name(dataset.name.clone())
                .run(&dataset.matrix, &dataset.test)
                .trace
        }
        SolverKind::Dsgd => {
            Dsgd::new(DsgdConfig { params, stop, seed })
                .run(
                    &dataset.matrix,
                    &dataset.test,
                    &spec.topology,
                    &spec.network,
                    &spec.compute,
                )
                .1
        }
        SolverKind::DsgdPlusPlus => {
            DsgdPlusPlus::new(DsgdPlusPlusConfig { params, stop, seed })
                .run(
                    &dataset.matrix,
                    &dataset.test,
                    &spec.topology,
                    &spec.network,
                    &spec.compute,
                )
                .1
        }
        SolverKind::CcdPlusPlus => {
            CcdPlusPlus::new(CcdConfig::new(params, stop, seed))
                .run(
                    &dataset.matrix,
                    &dataset.test,
                    &spec.topology,
                    &spec.network,
                    &spec.compute,
                )
                .1
        }
        SolverKind::Fpsgd => {
            Fpsgd::new(FpsgdConfig { params, stop, seed })
                .run(
                    &dataset.matrix,
                    &dataset.test,
                    spec.num_workers(),
                    &spec.compute,
                )
                .1
        }
        SolverKind::Als => {
            Als::new(AlsConfig { params, stop, seed })
                .run(
                    &dataset.matrix,
                    &dataset.test,
                    spec.num_workers(),
                    &spec.compute,
                )
                .1
        }
        SolverKind::Asgd => {
            Asgd::new(AsgdConfig {
                params,
                stop,
                sync_every: 1000,
                seed,
            })
            .run(
                &dataset.matrix,
                &dataset.test,
                &spec.topology,
                &spec.network,
                &spec.compute,
            )
            .1
        }
        SolverKind::GraphLabAls => {
            GraphLabAls::new(GraphLabConfig { params, stop, seed })
                .run(
                    &dataset.matrix,
                    &dataset.test,
                    &spec.topology,
                    &spec.network,
                    &spec.compute,
                )
                .1
        }
        SolverKind::SerialSgd => {
            SerialSgd::new(SerialSgdConfig { params, stop, seed })
                .run(&dataset.matrix, &dataset.test, &spec.compute)
                .1
        }
    };
    trace.solver = kind.name().to_string();
    trace.dataset = dataset.name.clone();
    trace.machines = spec.topology.machines;
    trace.cores_per_machine = spec.topology.cores_per_machine();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_data::{named_dataset, SizeTier};

    fn tiny() -> GeneratedDataset {
        named_dataset("netflix-sim", SizeTier::Tiny)
            .unwrap()
            .build()
    }

    #[test]
    fn every_solver_runs_and_improves_rmse() {
        let ds = tiny();
        let spec = ClusterSpec::hpc(2);
        let params = HyperParams::netflix().with_k(8).with_step(0.05, 0.0);
        for kind in [
            SolverKind::Nomad,
            SolverKind::NomadLeastLoaded,
            SolverKind::Dsgd,
            SolverKind::DsgdPlusPlus,
            SolverKind::CcdPlusPlus,
            SolverKind::Fpsgd,
            SolverKind::Als,
            SolverKind::Asgd,
            SolverKind::GraphLabAls,
            SolverKind::SerialSgd,
        ] {
            let trace = run_solver(kind, &ds, &spec, params, 3, 1);
            assert_eq!(trace.solver, kind.name());
            assert_eq!(trace.dataset, "netflix-sim");
            let first = trace.points.first().unwrap().test_rmse;
            let last = trace.final_rmse().unwrap();
            assert!(
                last < first,
                "{}: RMSE should improve ({first} -> {last})",
                kind.name()
            );
            assert!(trace.elapsed() > 0.0, "{} must advance time", kind.name());
        }
    }

    #[test]
    fn lineups_match_the_paper() {
        assert_eq!(SolverKind::shared_memory_lineup().len(), 3);
        assert_eq!(SolverKind::distributed_lineup().len(), 4);
        assert_eq!(SolverKind::Nomad.name(), "NOMAD");
    }
}
