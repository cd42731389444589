//! One function per figure/table family of the paper's evaluation.
//!
//! Each function returns [`Figure`] values — labelled series of `(x, y)`
//! points — that the `fig` binary in `crates/bench` renders as CSV.  The
//! registry function [`by_id`] maps the paper's figure/table numbers to the
//! corresponding generator so that the binary stays a dispatch table.
//!
//! Datasets are the scaled synthetic stand-ins from `nomad-data`
//! (`netflix-sim`, `yahoo-sim`, `hugewiki-sim`); the scale is controlled by
//! [`ReproScale`], whose `quick` preset keeps every figure reproducible in
//! seconds on a laptop while `standard` uses larger datasets and the
//! paper's `k = 100`.

use nomad_cluster::RunTrace;
use nomad_core::{NomadConfig, SimNomad, StopCondition};
use nomad_data::{
    named_dataset, scaling_dataset, stream_split, ArrivalProfile, GeneratedDataset, ScalingConfig,
    SizeTier, StreamSplit,
};
use nomad_sgd::HyperParams;

use crate::env::ClusterSpec;
use crate::solver::{run_solver, SolverKind};

/// How large a reproduction run is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproScale {
    /// Dataset size tier.
    pub tier: SizeTier,
    /// Number of training epochs per curve.
    pub epochs: usize,
    /// Latent dimension override (`None` keeps the paper's Table 1 values).
    pub k_override: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
}

impl ReproScale {
    /// Seconds-scale runs: tiny datasets, small `k`.  The default for the
    /// checked-in binaries and for CI.
    pub fn quick() -> Self {
        Self {
            tier: SizeTier::Tiny,
            epochs: 4,
            k_override: Some(16),
            seed: 2024,
        }
    }

    /// Minutes-scale runs with the paper's `k = 100` on the `small` tier.
    pub fn standard() -> Self {
        Self {
            tier: SizeTier::Small,
            epochs: 10,
            k_override: None,
            seed: 2024,
        }
    }

    /// Reads `NOMAD_SCALE` from the environment (`quick` or `standard`).
    pub fn from_env() -> Self {
        match std::env::var("NOMAD_SCALE").as_deref() {
            Ok("standard") => Self::standard(),
            _ => Self::quick(),
        }
    }

    fn params_for(&self, dataset: &str) -> HyperParams {
        let base = match dataset {
            "yahoo-sim" => HyperParams::yahoo_music(),
            "hugewiki-sim" => HyperParams::hugewiki(),
            "netflix-sim" => HyperParams::netflix(),
            _ => HyperParams::synthetic(),
        };
        match self.k_override {
            Some(k) => base.with_k(k),
            None => base,
        }
    }

    fn dataset(&self, name: &str) -> GeneratedDataset {
        named_dataset(name, self.tier)
            .unwrap_or_else(|| panic!("unknown dataset {name}"))
            .build()
    }
}

/// A labelled series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"NOMAD"` or `"# machines=8"`.
    pub label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// RMSE against elapsed seconds (the axis of Figures 5, 8, 11, 12, 13,
    /// 14, 20–23).
    pub fn rmse_vs_time(label: impl Into<String>, trace: &RunTrace) -> Self {
        Self {
            label: label.into(),
            points: trace
                .points
                .iter()
                .map(|p| (p.seconds, p.test_rmse))
                .collect(),
        }
    }

    /// RMSE against the number of updates (Figures 6-left, 10-left, 15,
    /// 18, 19).
    pub fn rmse_vs_updates(label: impl Into<String>, trace: &RunTrace) -> Self {
        Self {
            label: label.into(),
            points: trace
                .points
                .iter()
                .map(|p| (p.updates as f64, p.test_rmse))
                .collect(),
        }
    }

    /// RMSE against `seconds × machines × cores` (Figures 7, 9, 17).
    pub fn rmse_vs_resource_time(label: impl Into<String>, trace: &RunTrace) -> Self {
        Self {
            label: label.into(),
            points: trace.resource_time_axis(),
        }
    }
}

/// A figure: a titled collection of series with axis labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier, e.g. `"fig5-netflix"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    fn new(id: impl Into<String>, title: impl Into<String>, x: &str, y: &str) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x.to_string(),
            y_label: y.to_string(),
            series: Vec::new(),
        }
    }
}

const DATASETS: [&str; 3] = ["netflix-sim", "yahoo-sim", "hugewiki-sim"];

/// Table 1: the hyper-parameters used per dataset.
pub fn table1() -> String {
    let rows = [
        ("Netflix", HyperParams::netflix()),
        ("Yahoo! Music", HyperParams::yahoo_music()),
        ("Hugewiki", HyperParams::hugewiki()),
    ];
    let mut out = String::from("name,k,lambda,alpha,beta\n");
    for (name, p) in rows {
        out.push_str(&format!(
            "{name},{},{},{},{}\n",
            p.k, p.lambda, p.alpha, p.beta
        ));
    }
    out
}

/// Table 2: the paper's dataset sizes next to the generated stand-ins.
pub fn table2(scale: &ReproScale) -> String {
    use nomad_data::DatasetProfile;
    let mut out = String::from(
        "name,paper_rows,paper_cols,paper_nnz,sim_rows,sim_cols,sim_nnz,sim_ratings_per_item\n",
    );
    let paper = [
        ("netflix-sim", DatasetProfile::netflix()),
        ("yahoo-sim", DatasetProfile::yahoo_music()),
        ("hugewiki-sim", DatasetProfile::hugewiki()),
    ];
    for (name, profile) in paper {
        let ds = scale.dataset(name);
        let stats = ds.matrix.stats();
        out.push_str(&format!(
            "{name},{},{},{},{},{},{},{:.1}\n",
            profile.rows,
            profile.cols,
            profile.nnz,
            stats.rows,
            stats.cols,
            stats.nnz,
            stats.ratings_per_item()
        ));
    }
    out
}

/// Shared helper: compares a lineup of solvers on one dataset and cluster.
fn comparison_figure(
    id: &str,
    title: &str,
    dataset_name: &str,
    spec: &ClusterSpec,
    lineup: &[SolverKind],
    scale: &ReproScale,
) -> Figure {
    let dataset = scale.dataset(dataset_name);
    let params = scale.params_for(dataset_name);
    let mut fig = Figure::new(id, title, "seconds", "test RMSE");
    for &kind in lineup {
        let trace = run_solver(kind, &dataset, spec, params, scale.epochs, scale.seed);
        fig.series.push(Series::rmse_vs_time(kind.name(), &trace));
    }
    fig
}

/// Figure 5: single machine, 30 cores, NOMAD vs FPSGD** vs CCD++.
pub fn fig5(scale: &ReproScale) -> Vec<Figure> {
    DATASETS
        .iter()
        .map(|name| {
            comparison_figure(
                &format!("fig5-{name}"),
                &format!("{name}, machines=1, cores=30"),
                name,
                &ClusterSpec::single_machine(30),
                &SolverKind::shared_memory_lineup(),
                scale,
            )
        })
        .collect()
}

/// Core counts used in the single-machine scaling studies.
const CORE_SWEEP: [usize; 4] = [4, 8, 16, 30];

/// Figure 6: (left) RMSE vs #updates as cores vary on Yahoo!;
/// (right) updates/core/sec as a function of cores for every dataset.
pub fn fig6(scale: &ReproScale) -> Vec<Figure> {
    let mut left = Figure::new(
        "fig6-left",
        "yahoo-sim: RMSE vs updates for varying core counts",
        "updates",
        "test RMSE",
    );
    let dataset = scale.dataset("yahoo-sim");
    let params = scale.params_for("yahoo-sim");
    for &cores in &CORE_SWEEP {
        let spec = ClusterSpec::single_machine(cores);
        let trace = run_solver(
            SolverKind::Nomad,
            &dataset,
            &spec,
            params,
            scale.epochs,
            scale.seed,
        );
        left.series
            .push(Series::rmse_vs_updates(format!("# cores={cores}"), &trace));
    }

    let mut right = Figure::new(
        "fig6-right",
        "updates per core per second vs cores",
        "cores",
        "updates/core/sec",
    );
    for name in DATASETS {
        let dataset = scale.dataset(name);
        let params = scale.params_for(name);
        let mut points = Vec::new();
        for &cores in &CORE_SWEEP {
            let spec = ClusterSpec::single_machine(cores);
            let trace = run_solver(
                SolverKind::Nomad,
                &dataset,
                &spec,
                params,
                scale.epochs,
                scale.seed,
            );
            points.push((cores as f64, trace.metrics.updates_per_worker_per_second()));
        }
        right.series.push(Series {
            label: name.to_string(),
            points,
        });
    }
    vec![left, right]
}

/// Figure 7: RMSE vs `seconds × cores` for varying core counts.
pub fn fig7(scale: &ReproScale) -> Vec<Figure> {
    DATASETS
        .iter()
        .map(|name| {
            let dataset = scale.dataset(name);
            let params = scale.params_for(name);
            let mut fig = Figure::new(
                format!("fig7-{name}"),
                format!("{name}: RMSE vs seconds x cores"),
                "seconds x cores",
                "test RMSE",
            );
            for &cores in &CORE_SWEEP {
                let spec = ClusterSpec::single_machine(cores);
                let trace = run_solver(
                    SolverKind::Nomad,
                    &dataset,
                    &spec,
                    params,
                    scale.epochs,
                    scale.seed,
                );
                fig.series.push(Series::rmse_vs_resource_time(
                    format!("# cores={cores}"),
                    &trace,
                ));
            }
            fig
        })
        .collect()
}

/// Figure 8: HPC cluster, 32 machines (64 for hugewiki), 4-way comparison.
pub fn fig8(scale: &ReproScale) -> Vec<Figure> {
    DATASETS
        .iter()
        .map(|name| {
            let machines = if *name == "hugewiki-sim" { 64 } else { 32 };
            comparison_figure(
                &format!("fig8-{name}"),
                &format!("{name}, HPC cluster, machines={machines}, cores=4"),
                name,
                &ClusterSpec::hpc(machines),
                &SolverKind::distributed_lineup(),
                scale,
            )
        })
        .collect()
}

/// Machine counts used in the cluster scaling studies.
const MACHINE_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Figure 9: RMSE vs `seconds × machines × cores` on the HPC cluster.
pub fn fig9(scale: &ReproScale) -> Vec<Figure> {
    machine_scaling_resource_time("fig9", ClusterSpec::hpc, scale)
}

/// Figure 10: (left) RMSE vs updates as machines vary on Yahoo!;
/// (right) updates/machine/core/sec vs machines for every dataset.
pub fn fig10(scale: &ReproScale) -> Vec<Figure> {
    machine_scaling_updates_and_throughput("fig10", ClusterSpec::hpc, scale)
}

/// Figure 11: commodity cluster (1 Gb/s), 32 machines, 4-way comparison.
/// NOMAD and DSGD++ get 2 compute cores (2 reserved for communication);
/// DSGD and CCD++ get all 4, exactly as in Section 5.4.
pub fn fig11(scale: &ReproScale) -> Vec<Figure> {
    DATASETS
        .iter()
        .map(|name| {
            let dataset = scale.dataset(name);
            let params = scale.params_for(name);
            let mut fig = Figure::new(
                format!("fig11-{name}"),
                format!("{name}, commodity cluster, machines=32"),
                "seconds",
                "test RMSE",
            );
            for kind in SolverKind::distributed_lineup() {
                let spec = match kind {
                    SolverKind::Nomad | SolverKind::DsgdPlusPlus => ClusterSpec::commodity(32),
                    _ => ClusterSpec::commodity_bulk_sync(32),
                };
                let trace = run_solver(kind, &dataset, &spec, params, scale.epochs, scale.seed);
                fig.series.push(Series::rmse_vs_time(kind.name(), &trace));
            }
            fig
        })
        .collect()
}

/// Figure 12: growing data with growing machine counts (Section 5.5).
pub fn fig12(scale: &ReproScale) -> Vec<Figure> {
    // The paper's generator scaled down so that the 32-machine instance
    // stays laptop sized; proportions (users and ratings ∝ machines, items
    // fixed) are preserved.
    let factor = match scale.tier {
        SizeTier::Tiny => 5_000,
        SizeTier::Small => 2_000,
        SizeTier::Medium => 200,
    };
    let mut config = ScalingConfig::scaled_down(factor);
    let params = match scale.k_override {
        Some(k) => HyperParams::synthetic().with_k(k),
        None => HyperParams::synthetic(),
    };
    // When the model rank is reduced for a quick run, reduce the planted
    // ground-truth rank to match — fitting rank-100 data with a tiny k
    // cannot generalize and would make the quick-scale figure meaningless.
    config.truth_rank = params.k.min(config.truth_rank);
    [4usize, 16, 32]
        .iter()
        .map(|&machines| {
            let dataset = scaling_dataset(&config, machines);
            let mut fig = Figure::new(
                format!("fig12-m{machines}"),
                format!("synthetic, machines={machines}, cores=4"),
                "seconds",
                "test RMSE",
            );
            for kind in SolverKind::distributed_lineup() {
                let spec = ClusterSpec::commodity_bulk_sync(machines);
                let trace = run_solver(kind, &dataset, &spec, params, scale.epochs, scale.seed);
                fig.series.push(Series::rmse_vs_time(kind.name(), &trace));
            }
            fig
        })
        .collect()
}

/// Figure 13 (Appendix A): regularization sweep for NOMAD, 8 machines.
pub fn fig13(scale: &ReproScale) -> Vec<Figure> {
    let sweeps: [(&str, [f64; 4]); 3] = [
        ("netflix-sim", [0.0005, 0.005, 0.05, 0.5]),
        ("yahoo-sim", [0.25, 0.5, 1.0, 2.0]),
        ("hugewiki-sim", [0.0025, 0.005, 0.01, 0.02]),
    ];
    sweeps
        .iter()
        .map(|(name, lambdas)| {
            let dataset = scale.dataset(name);
            let mut fig = Figure::new(
                format!("fig13-{name}"),
                format!("{name}: NOMAD under varying lambda, machines=8"),
                "seconds",
                "test RMSE",
            );
            for &lambda in lambdas {
                let params = scale.params_for(name).with_lambda(lambda);
                let spec = ClusterSpec::hpc(8);
                let trace = run_solver(
                    SolverKind::Nomad,
                    &dataset,
                    &spec,
                    params,
                    scale.epochs,
                    scale.seed,
                );
                fig.series
                    .push(Series::rmse_vs_time(format!("lambda={lambda}"), &trace));
            }
            fig
        })
        .collect()
}

/// Figure 14 (Appendix B): latent-dimension sweep for NOMAD, 8 machines.
pub fn fig14(scale: &ReproScale) -> Vec<Figure> {
    let ks = [10usize, 20, 50, 100];
    DATASETS
        .iter()
        .map(|name| {
            let dataset = scale.dataset(name);
            let mut fig = Figure::new(
                format!("fig14-{name}"),
                format!("{name}: NOMAD under varying k, machines=8"),
                "seconds",
                "test RMSE",
            );
            for &k in &ks {
                let params = scale.params_for(name).with_k(k);
                let spec = ClusterSpec::hpc(8);
                let trace = run_solver(
                    SolverKind::Nomad,
                    &dataset,
                    &spec,
                    params,
                    scale.epochs,
                    scale.seed,
                );
                fig.series
                    .push(Series::rmse_vs_time(format!("k={k}"), &trace));
            }
            fig
        })
        .collect()
}

/// Figure 15 (Appendix C): RMSE vs updates on the commodity cluster.
pub fn fig15(scale: &ReproScale) -> Vec<Figure> {
    let figs = machine_scaling_updates_and_throughput("fig15", ClusterSpec::commodity, scale);
    figs.into_iter().filter(|f| f.id.contains("left")).collect()
}

/// Figure 16 (Appendix C): updates/machine/core/sec on the commodity cluster.
pub fn fig16(scale: &ReproScale) -> Vec<Figure> {
    let figs = machine_scaling_updates_and_throughput("fig16", ClusterSpec::commodity, scale);
    figs.into_iter()
        .filter(|f| f.id.contains("right"))
        .collect()
}

/// Figure 17 (Appendix C): RMSE vs `seconds × machines × cores` on the
/// commodity cluster.
pub fn fig17(scale: &ReproScale) -> Vec<Figure> {
    machine_scaling_resource_time("fig17", ClusterSpec::commodity, scale)
}

/// Figure 18 (Appendix D): RMSE vs updates for varying core counts on every
/// dataset (single machine).
pub fn fig18(scale: &ReproScale) -> Vec<Figure> {
    DATASETS
        .iter()
        .map(|name| {
            let dataset = scale.dataset(name);
            let params = scale.params_for(name);
            let mut fig = Figure::new(
                format!("fig18-{name}"),
                format!("{name}: RMSE vs updates for varying core counts"),
                "updates",
                "test RMSE",
            );
            for &cores in &CORE_SWEEP {
                let spec = ClusterSpec::single_machine(cores);
                let trace = run_solver(
                    SolverKind::Nomad,
                    &dataset,
                    &spec,
                    params,
                    scale.epochs,
                    scale.seed,
                );
                fig.series
                    .push(Series::rmse_vs_updates(format!("# cores={cores}"), &trace));
            }
            fig
        })
        .collect()
}

/// Figure 19 (Appendix D): RMSE vs updates for varying machine counts on
/// every dataset (HPC cluster).
pub fn fig19(scale: &ReproScale) -> Vec<Figure> {
    DATASETS
        .iter()
        .map(|name| {
            let dataset = scale.dataset(name);
            let params = scale.params_for(name);
            let mut fig = Figure::new(
                format!("fig19-{name}"),
                format!("{name}: RMSE vs updates for varying machine counts"),
                "updates",
                "test RMSE",
            );
            for &machines in &MACHINE_SWEEP {
                let spec = ClusterSpec::hpc(machines);
                let trace = run_solver(
                    SolverKind::Nomad,
                    &dataset,
                    &spec,
                    params,
                    scale.epochs,
                    scale.seed,
                );
                fig.series.push(Series::rmse_vs_updates(
                    format!("# machines={machines}"),
                    &trace,
                ));
            }
            fig
        })
        .collect()
}

/// Figure 20 (Appendix E): NOMAD vs DSGD vs CCD++ across a λ grid.
pub fn fig20(scale: &ReproScale) -> Vec<Figure> {
    let sweeps: [(&str, [f64; 5]); 3] = [
        ("netflix-sim", [0.0125, 0.025, 0.05, 0.1, 0.2]),
        ("yahoo-sim", [0.25, 0.5, 1.0, 2.0, 4.0]),
        ("hugewiki-sim", [0.0025, 0.005, 0.01, 0.02, 0.04]),
    ];
    let lineup = [SolverKind::Nomad, SolverKind::Dsgd, SolverKind::CcdPlusPlus];
    let mut figures = Vec::new();
    for (name, lambdas) in sweeps {
        let dataset = scale.dataset(name);
        for &lambda in &lambdas {
            let params = scale.params_for(name).with_lambda(lambda);
            let machines = if name == "hugewiki-sim" { 64 } else { 32 };
            let spec = ClusterSpec::hpc(machines);
            let mut fig = Figure::new(
                format!("fig20-{name}-lambda{lambda}"),
                format!("{name}, machines={machines}, lambda={lambda}"),
                "seconds",
                "test RMSE",
            );
            for &kind in &lineup {
                let trace = run_solver(kind, &dataset, &spec, params, scale.epochs, scale.seed);
                fig.series.push(Series::rmse_vs_time(kind.name(), &trace));
            }
            figures.push(fig);
        }
    }
    figures
}

/// Figure 21 (Appendix F): NOMAD vs GraphLab ALS on a single machine.
pub fn fig21(scale: &ReproScale) -> Vec<Figure> {
    ["netflix-sim", "yahoo-sim"]
        .iter()
        .map(|name| {
            comparison_figure(
                &format!("fig21-{name}"),
                &format!("{name}, machines=1, cores=30"),
                name,
                &ClusterSpec::single_machine(30),
                &[SolverKind::Nomad, SolverKind::GraphLabAls],
                scale,
            )
        })
        .collect()
}

/// Figure 22 (Appendix F): NOMAD vs GraphLab ALS on the HPC cluster.
pub fn fig22(scale: &ReproScale) -> Vec<Figure> {
    ["netflix-sim", "yahoo-sim"]
        .iter()
        .map(|name| {
            comparison_figure(
                &format!("fig22-{name}"),
                &format!("{name}, HPC cluster, machines=32"),
                name,
                &ClusterSpec::hpc(32),
                &[SolverKind::Nomad, SolverKind::GraphLabAls],
                scale,
            )
        })
        .collect()
}

/// Figure 23 (Appendix F): NOMAD vs GraphLab ALS (and the ASGD stand-in for
/// `biassgd`) on the commodity cluster.
pub fn fig23(scale: &ReproScale) -> Vec<Figure> {
    ["netflix-sim", "yahoo-sim"]
        .iter()
        .map(|name| {
            comparison_figure(
                &format!("fig23-{name}"),
                &format!("{name}, commodity cluster, machines=32"),
                name,
                &ClusterSpec::commodity_bulk_sync(32),
                &[SolverKind::Nomad, SolverKind::GraphLabAls, SolverKind::Asgd],
                scale,
            )
        })
        .collect()
}

fn machine_scaling_resource_time(
    id: &str,
    spec_for: fn(usize) -> ClusterSpec,
    scale: &ReproScale,
) -> Vec<Figure> {
    DATASETS
        .iter()
        .map(|name| {
            let dataset = scale.dataset(name);
            let params = scale.params_for(name);
            let mut fig = Figure::new(
                format!("{id}-{name}"),
                format!("{name}: RMSE vs seconds x machines x cores"),
                "seconds x machines x cores",
                "test RMSE",
            );
            for &machines in &MACHINE_SWEEP {
                let spec = spec_for(machines);
                let trace = run_solver(
                    SolverKind::Nomad,
                    &dataset,
                    &spec,
                    params,
                    scale.epochs,
                    scale.seed,
                );
                fig.series.push(Series::rmse_vs_resource_time(
                    format!("# machines={machines}"),
                    &trace,
                ));
            }
            fig
        })
        .collect()
}

fn machine_scaling_updates_and_throughput(
    id: &str,
    spec_for: fn(usize) -> ClusterSpec,
    scale: &ReproScale,
) -> Vec<Figure> {
    let mut left = Figure::new(
        format!("{id}-left"),
        "yahoo-sim: RMSE vs updates for varying machine counts",
        "updates",
        "test RMSE",
    );
    let dataset = scale.dataset("yahoo-sim");
    let params = scale.params_for("yahoo-sim");
    for &machines in &MACHINE_SWEEP {
        let spec = spec_for(machines);
        let trace = run_solver(
            SolverKind::Nomad,
            &dataset,
            &spec,
            params,
            scale.epochs,
            scale.seed,
        );
        left.series.push(Series::rmse_vs_updates(
            format!("# machines={machines}"),
            &trace,
        ));
    }
    let mut right = Figure::new(
        format!("{id}-right"),
        "updates per machine per core per second vs machines",
        "machines",
        "updates/machine/core/sec",
    );
    for name in DATASETS {
        let dataset = scale.dataset(name);
        let params = scale.params_for(name);
        let mut points = Vec::new();
        for &machines in &MACHINE_SWEEP {
            let spec = spec_for(machines);
            let trace = run_solver(
                SolverKind::Nomad,
                &dataset,
                &spec,
                params,
                scale.epochs,
                scale.seed,
            );
            points.push((
                machines as f64,
                trace.metrics.updates_per_worker_per_second(),
            ));
        }
        right.series.push(Series {
            label: name.to_string(),
            points,
        });
    }
    vec![left, right]
}

/// Streaming benchmark (no paper counterpart — the online extension):
/// time-to-RMSE under ingestion on a simulated 4-machine HPC cluster.
///
/// A warm start holds ~80% of the `netflix-sim` ratings; the held-back
/// slice — including a 10% tail of entirely unseen users and items —
/// arrives mid-run under a uniform profile and two Poisson rates, spread
/// over the first ~60% of the update budget.  A batch run on the full data
/// is the reference; online RMSE snapshots cover arrived test entries
/// only, which is why the online curves can sit *below* the batch curve
/// before every arrival lands.
pub fn streaming(scale: &ReproScale) -> Vec<Figure> {
    let name = "netflix-sim";
    let dataset = scale.dataset(name);
    let params = scale.params_for(name);
    let spec = ClusterSpec::hpc(4);
    let updates = dataset.matrix.nnz() as u64 * scale.epochs as u64;
    let est_seconds =
        updates as f64 * spec.compute.sgd_update_time(params.k) / spec.num_workers() as f64;
    let config = NomadConfig::new(params)
        .with_stop(StopCondition::Updates(updates))
        .with_snapshot_every((est_seconds / 30.0).max(1e-9))
        .with_seed(scale.seed);

    let mut fig = Figure::new(
        "streaming-netflix",
        "netflix-sim: time to RMSE under ingestion (HPC, 4 machines)",
        "seconds",
        "test RMSE (arrived entries)",
    );

    let batch = SimNomad::new(config, spec.topology, spec.network, spec.compute)
        .with_dataset_name(name)
        .run(&dataset.matrix, &dataset.test);
    fig.series.push(Series::rmse_vs_time(
        "batch (all data up front)",
        &batch.trace,
    ));

    let profiles = [
        (
            "online, uniform arrivals",
            ArrivalProfile::Uniform { rate: 1.0 },
        ),
        (
            "online, Poisson rate=1",
            ArrivalProfile::Poisson {
                rate: 1.0,
                seed: scale.seed,
            },
        ),
        (
            "online, Poisson rate=2",
            ArrivalProfile::Poisson {
                rate: 2.0,
                seed: scale.seed,
            },
        ),
    ];
    // One fixed seconds→updates mapping for every profile, calibrated so
    // the rate-1 uniform stream's last batch lands around 60% of the
    // budget; faster arrival rates then genuinely land earlier.
    let num_batches = StreamSplit::standard(scale.seed).num_batches as f64;
    let updates_per_sec = (updates as f64 * 0.6 / num_batches).max(1.0);
    for (label, profile) in profiles {
        let split = StreamSplit::standard(scale.seed).with_profile(profile);
        let (warm, log) = stream_split(&dataset.train, &split);
        let arrivals = log.arrival_trace(updates_per_sec);
        let out = SimNomad::new(config, spec.topology, spec.network, spec.compute)
            .with_dataset_name(name)
            .run_online(&warm, &dataset.test, &arrivals);
        fig.series.push(Series::rmse_vs_time(label, &out.trace));
    }
    vec![fig]
}

/// Maps a figure/table identifier (`"fig5"` … `"fig23"`) to its generator.
/// Returns `None` for unknown identifiers.  `"table1"` and `"table2"` are
/// handled separately by the binaries because they render plain CSV text.
pub fn by_id(id: &str, scale: &ReproScale) -> Option<Vec<Figure>> {
    let figures = match id {
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "fig14" => fig14(scale),
        "fig15" => fig15(scale),
        "fig16" => fig16(scale),
        "fig17" => fig17(scale),
        "fig18" => fig18(scale),
        "fig19" => fig19(scale),
        "fig20" => fig20(scale),
        "fig21" => fig21(scale),
        "fig22" => fig22(scale),
        "fig23" => fig23(scale),
        "streaming" => streaming(scale),
        _ => return None,
    };
    Some(figures)
}

/// All known figure identifiers, in paper order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_scale() -> ReproScale {
        ReproScale {
            tier: SizeTier::Tiny,
            epochs: 1,
            k_override: Some(4),
            seed: 7,
        }
    }

    #[test]
    fn tables_render_csv() {
        let t1 = table1();
        assert!(t1.contains("Netflix,100,0.05,0.012,0.05"));
        let t2 = table2(&micro_scale());
        assert!(t2.lines().count() == 4);
        assert!(t2.contains("netflix-sim,2649429,17770,99072112"));
    }

    #[test]
    fn fig5_produces_three_datasets_with_three_solvers() {
        let figs = fig5(&micro_scale());
        assert_eq!(figs.len(), 3);
        for fig in &figs {
            assert_eq!(fig.series.len(), 3);
            for s in &fig.series {
                assert!(s.points.len() >= 2, "{} has too few points", s.label);
            }
        }
    }

    #[test]
    fn registry_knows_every_figure() {
        // Only check the mapping exists; running all of them is the job of
        // the `fig` binary (they take minutes at quick scale).
        for id in all_figure_ids() {
            assert!(
                matches!(id.strip_prefix("fig"), Some(n) if n.parse::<u32>().is_ok()),
                "bad id {id}"
            );
        }
        assert!(by_id("not-a-figure", &micro_scale()).is_none());
    }

    #[test]
    fn streaming_figure_has_batch_reference_and_online_profiles() {
        let figs = streaming(&micro_scale());
        assert_eq!(figs.len(), 1);
        let fig = &figs[0];
        assert_eq!(fig.series.len(), 4, "batch + three arrival profiles");
        assert!(fig.series[0].label.contains("batch"));
        for s in &fig.series {
            assert!(s.points.len() >= 2, "{} has too few points", s.label);
            assert!(s.points.iter().all(|&(_, y)| y.is_finite()));
        }
        assert!(by_id("streaming", &micro_scale()).is_some());
    }

    #[test]
    fn scale_from_env_defaults_to_quick() {
        std::env::remove_var("NOMAD_SCALE");
        let s = ReproScale::from_env();
        assert_eq!(s.tier, SizeTier::Tiny);
    }

    #[test]
    fn fig6_has_update_axis_and_throughput_axis() {
        let figs = fig6(&micro_scale());
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].x_label, "updates");
        assert_eq!(figs[1].y_label, "updates/core/sec");
        assert_eq!(figs[1].series.len(), 3);
        for s in &figs[1].series {
            assert_eq!(s.points.len(), CORE_SWEEP.len());
            assert!(s.points.iter().all(|&(_, y)| y > 0.0));
        }
    }
}
