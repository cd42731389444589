//! What the four workloads share: the run context, the metric list they
//! fill, seeded dataset recipes and the repeated, timed set-up.

use std::time::Instant;

use nomad_data::{named_dataset, DatasetRecipe, SizeTier};

use crate::json::Value;
use crate::spec::Better;
use crate::stats::quiet_quartile;
use crate::trace::Tracer;

/// One invocation's inputs.  The engines never see `seed` itself, only what
/// was generated from it.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window; budgets and query counts scale with
    /// it, so a run is the same work for the same `(seed, seconds)`.
    pub seconds: u64,
    /// Traced run: one untraced and one traced repetition plus the probes,
    /// reporting per-layer metrics.  Untraced run: the full window,
    /// reporting end-to-end metrics.
    pub trace: bool,
    /// Tiny sizes: proves the plumbing (re-exec, spans, result file), not
    /// a measurement.
    pub smoke: bool,
    pub tracer: Tracer,
}

/// Named measurements in the order they were taken.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::metric(name).is_some(),
            "{name} is not in the metric tables"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// How many timed repetitions each median was taken over.
    pub repetitions: u64,
    /// Workload-specific facts for the result file (budgets, the quantile a
    /// "p99" row really holds, ...).
    pub notes: Vec<(&'static str, Value)>,
}

/// Set-up repetitions per run; `setup_s` is their quiet quartile (the
/// second fastest of five).
pub const SETUP_REPS: usize = 5;

/// A registry recipe exactly as registered, generator seed included.
///
/// The run's seed deliberately does not reach the rating generator: the
/// dataset is fixed, as a public one would be, and the seed drives
/// initialisation, token placement, routing and the query streams.  With a
/// re-seeded `netflix-sim` Medium the model a fixed budget reaches moved
/// between test RMSE 1.030 and 1.045 from seed to seed and the time to a
/// fixed RMSE by ±25%, which no regression bound could hold; on the
/// registered dataset the final RMSE stays within 0.1% across seeds.
pub fn recipe(name: &str, tier: SizeTier) -> DatasetRecipe {
    named_dataset(name, tier)
        .unwrap_or_else(|| panic!("dataset {name} missing from the nomad-data registry"))
}

/// Runs the workload's set-up `reps` times, timing each, and keeps the last
/// product.  Returns it with the quiet quartile of the seconds.
pub fn timed_setups<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    assert!(reps > 0, "need at least one set-up");
    let mut seconds = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps {
        // Drop the previous product first so two copies never coexist and
        // inflate peak memory.
        drop(product.take());
        let start = Instant::now();
        product = Some(build());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (
        product.expect("reps > 0"),
        quiet_quartile(&seconds, Better::Lower),
    )
}
